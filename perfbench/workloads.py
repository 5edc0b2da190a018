"""The benchmark's workloads: inputs made from a seed, operations, checks.

Each workload builds its inputs from ``seed`` when constructed, then runs
its operations in a fixed order, one at a time (jobs=1). After a pass,
``digest`` turns each operation's result into the bytes the pass-to-pass
repeat check compares, the key outputs the seed-0 reference check reads,
and the list of violated harness invariants.

Seed 0 at full scale gives the settings documented in README.md; other
seeds move the data and split seeds but keep every size. The ``tiny``
scale runs the same code paths on toy sizes for the smoke test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import promix.cli
import promix.evaluation as evaluation
from promix.embedspace import SyntheticConfig, read_embedding_file, write_embedding_file
from promix.evaluation import (
    CONFIG_NAMES,
    HarnessConfig,
    assumption_default_synthetic,
    fscil_default_synthetic,
)
from promix.train import HyperParams, OptimizerConfig

WORK_ROOT = Path(__file__).resolve().parents[1] / ".perfbench_work"
GAP_TOLERANCE = 1e-12
H_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Operation:
    """One call into the public API. ``span`` names the span the benchmark
    opens around it in a traced pass; None when the callee is wrapped."""

    name: str
    run: Callable[[], object]
    span: str | None = None


@dataclass
class Digest:
    output: bytes
    keys: dict
    problems: list


def _report_digest(report) -> Digest:
    problems = []
    rows = dict(report.per_config or {})
    for i, seed_rows in enumerate(report.extra.get("per_seed", [])):
        if isinstance(seed_rows, dict) and "zero_shot" in seed_rows:
            rows.update({f"seed{i}.{k}": v for k, v in seed_rows.items() if k in CONFIG_NAMES})
    for name, row in rows.items():
        if row["h"] > max(row["base"], row["new"]) + H_TOLERANCE:
            problems.append(f"{name}: h {row['h']} exceeds max(base, new)")
    keys = {f"{name}.h": row["h"] for name, row in (report.per_config or {}).items()}
    return Digest(report.to_json().encode(), keys, problems)


class DeskSuite:
    """The acceptance-suite harness calls at desk scale (C=32, D=48)."""

    name = "desk_suite"

    def __init__(self, seed: int, scale: str = "full"):
        seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        self.bound_trials = 1000
        self.splits = 10
        if scale == "tiny":
            tiny = SyntheticConfig(
                dim=8, num_classes=8, shots=4, test_per_class=4, confusion_pairs=2
            )
            base = HarnessConfig(
                synthetic=tiny,
                hyper=HyperParams(context_len=2),
                optimizer=OptimizerConfig(epochs=2, weight_epochs=2),
                seeds=(seed,),
                pool_size=16,
            )
            self.fscil_cfg = replace(
                base,
                synthetic=replace(tiny, num_classes=20, shots=3, test_per_class=3),
                fscil_base_size=10,
            )
            self.assume_cfg = base
            self.bound_trials = 20
            self.splits = 2
        else:
            base = HarnessConfig(seeds=seeds)
            self.fscil_cfg = replace(base, synthetic=fscil_default_synthetic())
            self.assume_cfg = replace(
                base, synthetic=assumption_default_synthetic(), seeds=(seed,)
            )
        self.cfg = base
        self.seed = seed

    def prepare(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def operations(self) -> list[Operation]:
        cfg = self.cfg
        return [
            Operation(
                "base_to_new.two_stage",
                lambda: evaluation.base_to_new_eval(replace(cfg, parameterization="two_stage")),
            ),
            Operation(
                "base_to_new.one_stage",
                lambda: evaluation.base_to_new_eval(replace(cfg, parameterization="one_stage")),
            ),
            Operation("fscil", lambda: evaluation.fscil_run(self.fscil_cfg)),
            Operation(
                "assume", lambda: evaluation.assumption_check(self.assume_cfg, splits=self.splits)
            ),
            Operation(
                "bound", lambda: evaluation.bound_sweep(self.bound_trials, seed=self.seed)
            ),
            Operation("confusing_gain", lambda: evaluation.confusing_gain(cfg)),
        ]

    def digest(self, name: str, result) -> Digest:
        if name.startswith("base_to_new"):
            return _report_digest(result)
        if name == "fscil":
            return Digest(result.to_json().encode(), {"mean_acc": result.mean_acc}, [])
        if name == "assume":
            return Digest(
                result.to_json().encode(), {"validated": result.t_tests["validated"]}, []
            )
        if name == "bound":
            problems = [
                f"{key} {result[key]} below -{GAP_TOLERANCE}"
                for key in ("min_gap", "identical_heads_gap")
                if result[key] < -GAP_TOLERANCE
            ]
            if not result["all_non_negative"]:
                problems.append("bound sweep reports a negative gap")
            return Digest(json.dumps(result, sort_keys=True).encode(), {}, problems)
        return Digest(result.to_json().encode(), {}, [])


class LargeBaseNew:
    """One base/new seed at C=1000, D=512 with two_stage weights."""

    name = "large_base_new"

    def __init__(self, seed: int, scale: str = "full"):
        if scale == "tiny":
            synthetic = SyntheticConfig(
                dim=16, num_classes=20, shots=2, test_per_class=2, confusion_pairs=2
            )
            optimizer = OptimizerConfig(epochs=1, weight_epochs=1)
            pool_size = 16
        else:
            synthetic = SyntheticConfig(dim=512, num_classes=1000, shots=4, test_per_class=10)
            optimizer = OptimizerConfig(epochs=10, weight_epochs=3)
            # the pool must cover the 500 random-word out-classes (one per base class)
            pool_size = 512
        self.cfg = HarnessConfig(
            synthetic=synthetic,
            optimizer=optimizer,
            parameterization="two_stage",
            seeds=(seed,),
            pool_size=pool_size,
        )

    def prepare(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def operations(self) -> list[Operation]:
        return [Operation("base_to_new.two_stage", lambda: evaluation.base_to_new_eval(self.cfg))]

    def digest(self, name: str, result) -> Digest:
        return _report_digest(result)


class FilesPipeline:
    """The CLI chain gen -> tune -> weights -> eval -> report, in-process."""

    name = "files_pipeline"
    STAGES = ("gen", "tune", "weights", "eval", "report")

    def __init__(self, seed: int, scale: str = "full"):
        if scale == "tiny":
            synthetic = {"dim": 8, "num_classes": 8, "shots": 2, "test_per_class": 4,
                         "confusion_pairs": 2}
            optimizer = {"epochs": 2}
        else:
            synthetic = {"dim": 256, "num_classes": 64, "shots": 8, "test_per_class": 1500}
            optimizer = {}
        self.work = WORK_ROOT / self.name
        data = self.work / "gen" / "data"
        self.gen_config = {
            "out_dir": str(self.work / "gen"),
            "seed": seed,
            "seeds": [seed],
            "data": {"synthetic": synthetic},
        }
        self.run_config = {
            "out_dir": str(self.work / "run"),
            "seeds": [seed],
            "data": {"files": {key: str(data / f"{key}.emb")
                               for key in ("train", "test", "anchors")}},
            "optimizer": optimizer,
        }

    def prepare(self) -> None:
        self.cleanup()
        self.work.mkdir(parents=True)
        (self.work / "gen.json").write_text(json.dumps(self.gen_config))
        (self.work / "run.json").write_text(json.dumps(self.run_config))

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def _stage(self, stage: str) -> int:
        config = self.work / ("gen.json" if stage == "gen" else "run.json")
        with contextlib.redirect_stdout(io.StringIO()):
            return promix.cli.main([stage, "--config", str(config)])

    def operations(self) -> list[Operation]:
        return [
            Operation(stage, lambda stage=stage: self._stage(stage), span=f"cli.{stage}")
            for stage in self.STAGES
        ]

    def digest(self, name: str, result) -> Digest:
        problems = [] if result == 0 else [f"promix {name} exited {result}"]
        out = self.work / ("gen" if name == "gen" else "run")
        keys: dict = {}
        if name == "gen" and not problems:
            problems += self._round_trip(out / "data")
        if name == "eval" and not problems:
            report = json.loads((out / "report_eval.json").read_text())
            for row_name, row in report["per_config"].items():
                keys[f"{row_name}.h"] = row["h"]
                if row["h"] > max(row["base"], row["new"]) + H_TOLERANCE:
                    problems.append(f"{row_name}: h {row['h']} exceeds max(base, new)")
        produced = {
            "gen": ["data/*.emb", "manifest_gen.json"],
            "tune": ["heads/*", "manifest_tune.json"],
            "weights": ["weights/*", "manifest_weights.json"],
            "eval": ["report_eval.*", "manifest_eval.json"],
            "report": ["summary.json"],
        }[name]
        return Digest(_hash_files(out, produced), keys, problems)

    def _round_trip(self, data: Path) -> list[str]:
        """EMB1 read-then-write must reproduce the file byte for byte."""
        problems = []
        for stem in ("train", "anchors"):
            source = data / f"{stem}.emb"
            copy = data / f"{stem}.roundtrip"
            write_embedding_file(read_embedding_file(source), copy)
            if copy.read_bytes() != source.read_bytes():
                problems.append(f"EMB1 round trip of {source.name} is not byte-identical")
            copy.unlink()
        return problems


def _hash_files(root: Path, patterns: list[str]) -> bytes:
    digest = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest().encode()


WORKLOADS = {cls.name: cls for cls in (DeskSuite, LargeBaseNew, FilesPipeline)}
