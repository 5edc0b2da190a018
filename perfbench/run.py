"""promix benchmark: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One process runs the workload's operations one at a time, in a closed
loop, for at least ``--seconds`` and at least two passes. ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead. Every pass is checked: its outputs must repeat the
first pass byte for byte, harness invariants must hold, and at seed 0 the
key outputs must match reference.json. The last stdout line is one JSON
object; the exit code is 1 when any check failed and 2 when the checkout
holds no promix sources. ``--workload all`` runs every workload in its own
process and prints one table. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_suite", "large_base_new", "files_pipeline")
SETUP_PROBES = 5
MIN_PASSES = 2


def _import_promix():
    """Import promix from this checkout's src/ and nowhere else."""
    if not (SRC / "promix" / "__init__.py").is_file():
        print(f"error: no promix sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import promix

    if Path(promix.__file__).resolve().parent != SRC / "promix":
        print(f"error: imported promix from {promix.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return promix


# ---- per-layer metrics -----------------------------------------------------

COUNT, TIME = "count", "time"


def _layer_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, kind) for every per-layer metric, in report order."""
    specs = []

    def add(prefix, fields):
        for field, unit, kind in fields:
            specs.append((f"{prefix}.{field}", unit, kind))

    calls = ("calls", "count", COUNT)
    self_s = ("self_s", "s", TIME)
    for name in ("kernels.softmax_rows", "kernels.prompt_step"):
        add(name, [calls, self_s, ("elems", "count", COUNT)])
    add("losses.batch_loss_grad", [calls, self_s])
    add("train.tune_prompt", [calls, self_s, ("samples", "count", COUNT),
                              ("samples_per_s", "1/s", TIME)])
    add("train.tune_prompt_one_stage", [calls, self_s, ("samples", "count", COUNT)])
    for name in ("train.optimize_in_weight", "train.optimize_out_weight"):
        add(name, [calls, self_s, ("objective_evals", "count", COUNT),
                   ("useful_eval_ratio", "ratio", COUNT)])
    for name in ("head.similarity_matrix", "mixture.mixture_scaled_logits",
                 "evaluation.accuracy", "mixture.bound_gap"):
        add(name, [calls, self_s])
    for name in ("base_to_new_eval", "fscil_run", "assumption_check", "bound_sweep",
                 "confusing_gain"):
        specs.append((f"evaluation.{name}.s", "s", TIME))
    add("embedspace.generate_synthetic", [calls, self_s, ("distinct_ratio", "ratio", COUNT)])
    add("embedspace.read_embedding_file", [calls, self_s, ("bytes", "B", COUNT),
                                           ("mb_per_s", "MB/s", TIME),
                                           ("repeat_read_ratio", "ratio", COUNT)])
    add("embedspace.write_embedding_file", [calls, self_s, ("bytes", "B", COUNT),
                                            ("mb_per_s", "MB/s", TIME)])
    for stage in ("gen", "tune", "weights", "eval", "report"):
        specs.append((f"cli.{stage}.s", "s", TIME))
    from tracer import LAYERS

    for layer in LAYERS:
        specs.append((f"{layer}.self_s", "s", TIME))
    specs.append(("trace.overhead_s", "s", TIME))
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(agg: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass (overhead excluded)."""
    from tracer import LAYERS

    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for name, row in agg.items():
        if name.endswith(".hooks"):
            continue
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.s"] = row["s"]
        for key, value in row.items():
            if key not in empty and not isinstance(value, list):
                values[f"{name}.{key}"] = value

    tune = agg.get("train.tune_prompt", empty)
    hooks = agg.get("train.tune_prompt.hooks", empty)
    values["train.tune_prompt.samples_per_s"] = _ratio(
        tune.get("samples", 0), tune["s"] - hooks["s"]
    )
    for name in ("train.optimize_in_weight", "train.optimize_out_weight"):
        row = agg.get(name, empty)
        values[f"{name}.useful_eval_ratio"] = _ratio(
            row.get("useful_evals", 0), row.get("objective_evals", 0)
        )
    synth = agg.get("embedspace.generate_synthetic", empty)
    configs = synth.get("configs", [])
    values["embedspace.generate_synthetic.distinct_ratio"] = _ratio(
        len(set(configs)), len(configs)
    )
    for name in ("embedspace.read_embedding_file", "embedspace.write_embedding_file"):
        row = agg.get(name, empty)
        values[f"{name}.mb_per_s"] = _ratio(row.get("bytes", 0) / 1e6, row["s"])
    read = agg.get("embedspace.read_embedding_file", empty)
    values["embedspace.read_embedding_file.repeat_read_ratio"] = _ratio(
        read.get("repeat_bytes", 0), read.get("bytes", 0)
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in agg.items()
            if name.split(".")[0] == layer and not name.endswith(".hooks")
        )
    return values


def shares(agg: dict) -> dict[str, float]:
    """Share of a traced pass spent in the main stages, for the summary."""
    empty = {"s": 0.0}

    def incl(*names):
        return sum(agg.get(n, empty)["s"] for n in names)

    return {
        "tuning": incl("train.tune_prompt", "train.tune_prompt_one_stage")
        - incl("train.tune_prompt.hooks"),
        "weight fitting": incl("train.optimize_in_weight", "train.optimize_out_weight"),
        "EMB1 read+write": incl("embedspace.read_embedding_file",
                                "embedspace.write_embedding_file"),
        "accuracy": incl("evaluation.accuracy"),
        "generate_synthetic": incl("embedspace.generate_synthetic"),
    }


# ---- measurement -------------------------------------------------------------


class Run:
    """Passes of one workload with their checks."""

    def __init__(self, workload, seed: int, scale: str):
        self.workload = workload
        self.reference = None
        if seed == 0 and scale == "full":
            table = json.loads((HERE / "reference.json").read_text())
            self.reference = (table["tolerance"], table["workloads"][workload.name])
        self.first: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.keys: dict[str, object] = {}

    def one_pass(self, tracer=None) -> tuple[float, dict | None]:
        """Run every operation once; returns (wall seconds, span totals)."""
        workload = self.workload
        workload.prepare()
        ops = workload.operations()
        if tracer is not None:
            tracer.new_pass()
            tracer.install()
        results = {}
        error = None
        start = perf_counter()
        try:
            for op in ops:
                if tracer is not None and op.span:
                    with tracer.span(op.span):
                        results[op.name] = op.run()
                else:
                    results[op.name] = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a reported result
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        agg = None
        if tracer is not None:
            agg = tracer.aggregate()
            tracer.restore()
        try:
            self._check(ops, results, error)
        finally:
            workload.cleanup()
        return wall, agg

    def _check(self, ops, results: dict, error: str | None) -> None:
        self.attempted += len(ops)
        outputs = {}
        for op in ops:
            if op.name not in results:
                self.failed += 1
                self.problems.append(f"{op.name}: {error or 'not run'}")
                error = None
                continue
            digest = self.workload.digest(op.name, results[op.name])
            problems = [f"{op.name}: {p}" for p in digest.problems]
            outputs[op.name] = digest.output
            if self.first is None:
                self.keys.update({f"{op.name}.{k}": v for k, v in digest.keys.items()})
                if self.reference is not None:
                    problems += self._against_reference(op.name, digest.keys)
            if self.first is not None and digest.output != self.first.get(op.name):
                problems.append(f"{op.name}: output differs from the first pass")
            if problems:
                self.failed += 1
                self.problems += problems
        if self.first is None:
            self.first = outputs

    def _against_reference(self, op_name: str, keys: dict) -> list[str]:
        tolerance, expected = self.reference
        problems = []
        for key, want in expected.get(op_name, {}).items():
            got = keys.get(key)
            if isinstance(want, bool) or got is None:
                ok = got == want
            else:
                ok = abs(got - want) <= tolerance
            if not ok:
                problems.append(f"{key} = {got}, reference {want} (tolerance {tolerance})")
        return problems


def measure(run: Run, seconds: float, trace: bool):
    """Closed loop of passes; returns (untraced walls, traced walls, traced aggs)."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    plain, traced, aggs = [], [], []
    start = perf_counter()
    while not run.problems:
        use_tracer = trace and len(plain) > len(traced)
        wall, agg = run.one_pass(tracer if use_tracer else None)
        if use_tracer:
            traced.append(wall)
            aggs.append(agg)
        else:
            plain.append(wall)
        if len(plain) + len(traced) >= MIN_PASSES and perf_counter() - start >= seconds:
            break
    return plain, traced, aggs


def setup_times(args) -> list[float]:
    """Wall time of fresh processes that only set up: interpreter start,
    ``import promix``, building the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def stamp(promix) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": promix.backend.active_name(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    promix = _import_promix()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.setup_probe:
        return 0
    run = Run(workload, args.seed, args.scale)
    plain, traced, aggs = measure(run, args.seconds, bool(args.trace))
    print("stamp: " + json.dumps(stamp(promix), sort_keys=True))
    print(f"workload: {workload.name} seed={args.seed} scale={args.scale} "
          f"passes={len(plain)} untraced + {len(traced)} traced")
    for key, value in run.keys.items():
        print(f"output {key} = {value}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"failed_ratio = {_ratio(run.failed, run.attempted):.4f} ratio "
          f"({run.failed} of {run.attempted} operations)")

    metrics = {}
    if not run.problems:
        metrics = traced_metrics(plain, traced, aggs) if args.trace else untraced_metrics(args, plain)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 1 if run.problems else 0


def untraced_metrics(args, plain: list[float]) -> dict:
    setups = setup_times(args)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = statistics.median(plain)
    lo, hi = _quartiles(plain)
    setup = statistics.median(setups)
    print(f"wall_s = {wall:.4f} s (median of {len(plain)} passes; quartiles {lo:.4f}, {hi:.4f})")
    print("pass seconds: " + " ".join(f"{t:.4f}" for t in plain))
    print(f"setup_s = {setup:.4f} s (median of {len(setups)} fresh processes)")
    print(f"peak_rss_mb = {peak_mb:.1f} MB (peak of the benchmark process)")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def traced_metrics(plain: list[float], traced: list[float], aggs: list[dict]) -> dict:
    per_pass = [layer_values(agg) for agg in aggs]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name, unit, kind in _layer_specs():
        if name == "trace.overhead_s":
            value = overhead
        else:
            samples = [values.get(name, 0) for values in per_pass]
            if kind == COUNT and len(set(samples)) > 1:
                print(f"note: {name} differs between traced passes: {samples}")
            value = samples[0] if kind == COUNT else statistics.median(samples)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    wall = statistics.median(traced)
    print(f"trace: {len(traced)} traced passes, median {wall:.4f} s; "
          f"{len(plain)} untraced, median {statistics.median(plain):.4f} s")
    for stage, seconds in shares(aggs[0]).items():
        print(f"share {stage}: {100 * seconds / traced[0]:.1f}% of the first traced pass")
    return metrics


# ---- all workloads -------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process (so set-up and peak memory are its
    own), then one table of every metric with its unit."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        result = json.loads(lines[-1]) if lines else {}
        rows.append((name, result))
    print()
    for name, result in rows:
        print(f"== {name}: correct={result.get('correct')} "
              f"failed_ratio={_ratio(result.get('failed', 0), result.get('attempted', 0)):.4f} "
              f"({result.get('failed')} of {result.get('attempted')} operations)")
        for metric, entry in result.get("metrics", {}).items():
            print(f"   {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({name: result for name, result in rows}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path on toy sizes (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
