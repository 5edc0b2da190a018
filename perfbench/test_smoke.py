"""Smoke test of the benchmark: every workload's code path, untraced and
traced, at toy sizes, plus the refusal to run without promix sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny")
    result = _result(proc)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_counts_see_the_layers():
    proc = _run(ROOT, "--workload", "files_pipeline", "--seed", "0", "--seconds", "0",
                "--trace", "1", "--scale", "tiny")
    metrics = {k: v["value"] for k, v in _result(proc)["metrics"].items()}
    assert metrics["cli.gen.s"] > 0
    assert metrics["embedspace.write_embedding_file.calls"] >= 4
    # tune and weights read the train, test and anchor files that tune read first
    assert 0 < metrics["embedspace.read_embedding_file.repeat_read_ratio"] < 1
    assert metrics["train.tune_prompt.samples"] > 0
    assert 0 < metrics["train.optimize_in_weight.useful_eval_ratio"] <= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    assert '"metrics"' not in last


def test_tracer_restores_every_name():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import promix.cli
    import promix.evaluation
    import promix.train
    from tracer import Tracer

    before = (promix.evaluation.tune_prompt, promix.train.tune_prompt,
              promix.cli.read_embedding_file, promix.backend.kernels.softmax_rows)
    tracer = Tracer().install()
    assert promix.evaluation.tune_prompt is not before[0]
    assert promix.cli.read_embedding_file is not before[2]
    tracer.restore()
    after = (promix.evaluation.tune_prompt, promix.train.tune_prompt,
             promix.cli.read_embedding_file, promix.backend.kernels.softmax_rows)
    assert after == before


def test_weight_fit_counts_the_rejected_epoch():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import promix.train
    from promix.embedspace import SyntheticConfig, generate_synthetic, partition_classes
    from promix.head import PromptHead
    from promix.mixture import MixtureModel, MixtureWeights
    from tracer import Tracer

    domain = generate_synthetic(
        SyntheticConfig(dim=8, num_classes=8, shots=4, test_per_class=2, confusion_pairs=2)
    )
    partition = partition_classes(8, "base_new_even_split", seed=0)
    names = domain.train.class_names
    heads = (
        PromptHead.frozen_from(domain.generalized_prototypes, names),
        PromptHead.with_random_context(domain.generalized_prototypes, names, 2, seed=0),
    )
    model = MixtureModel(heads, MixtureWeights.uniform(1), partition)
    # a step size this large overshoots, so descent stops at its first ascent
    opt = promix.train.OptimizerConfig(weight_lr=100.0, weight_epochs=20)
    tracer = Tracer().install()
    try:
        _, trace = promix.train.optimize_in_weight(
            model, domain.train.with_labels_in(partition.subsets[1]), opt=opt
        )
        row = tracer.aggregate()["train.optimize_in_weight"]
    finally:
        tracer.restore()
    # 16 rows fit in one batch: one evaluation per epoch plus the initial one
    assert row["useful_evals"] == len(trace) < 21
    assert row["objective_evals"] == row["useful_evals"] + 1
