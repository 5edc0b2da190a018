"""Output bits pinned across commits.

Each case runs one harness at the benchmark's tiny sizes and compares the
sha256 of its output with a constant. A change that moves a pin names it in
CHANGES.md, with the reason. The pins were taken under NUMPY_VERSION; a
mismatch prints the new digest, the running numpy version and a few
full-precision values, so the size of a drift shows.

The files-mode eval chain, run under each weight parameterization from
one gen output, hashes the canonical JSON of the report's ``per_config``
and ``extra.per_seed`` only, and files-mode ``losses`` its ``losses`` rows
only: the rest of a report carries the config hash, which covers the
temporary data paths. The synthetic-mode chain and ``losses`` run over two
seeds and hash whole reports, since the hash leaves ``out_dir`` out.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from promix import evaluation
from promix.cli import main
from promix.embedspace import SyntheticConfig
from promix.evaluation import HarnessConfig
from promix.train import HyperParams, OptimizerConfig

NUMPY_VERSION = "2.4.6"

TINY = SyntheticConfig(dim=8, num_classes=8, shots=4, test_per_class=4, confusion_pairs=2)
DESK = HarnessConfig(
    synthetic=TINY,
    hyper=HyperParams(context_len=2),
    optimizer=OptimizerConfig(epochs=2, weight_epochs=2),
    seeds=(0,),
    pool_size=16,
)
FSCIL = replace(DESK, synthetic=replace(TINY, num_classes=20, shots=3, test_per_class=3),
                fscil_base_size=10)


def _seed_h(report) -> list:
    return [{name: row["h"] for name, row in seed.items()} for seed in report.extra["per_seed"]]


def _base_to_new(parameterization):
    report = evaluation.base_to_new_eval(replace(DESK, parameterization=parameterization))
    return report.to_json(), _seed_h(report)


def _fscil():
    report = evaluation.fscil_run(FSCIL)
    return report.to_json(), [seed["session_acc"] for seed in report.extra["per_seed"]]


def _assume():
    report = evaluation.assumption_check(DESK, splits=2)
    return report.to_json(), report.extra["in_gaps"] + report.extra["out_gaps"]


def _bound():
    result = evaluation.bound_sweep(20, seed=0)
    return json.dumps(result, sort_keys=True), result["min_gap"]


def _confusing_gain():
    report = evaluation.confusing_gain(DESK)
    return report.to_json(), report.extra["deltas"]


def _cli(stage: str, config: dict, path) -> None:
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([stage, "--config", str(path)]) == 0, stage


@pytest.fixture(scope="module")
def files_data(tmp_path_factory):
    """The data directory that gen writes."""
    root = tmp_path_factory.mktemp("gen")
    _cli("gen", {"out_dir": str(root), "seed": 0, "seeds": [0],
                 "data": {"synthetic": {"dim": 8, "num_classes": 8, "shots": 2,
                                        "test_per_class": 4, "confusion_pairs": 2}}},
         root / "gen.json")
    return root / "data"


def _files_chain(data, root, **sections):
    """The run directory of tune, weights and eval from the files in
    ``data``, with any further config ``sections``."""
    config = {"out_dir": str(root / "run"), "seeds": [0],
              "data": {"files": {key: str(data / f"{key}.emb")
                                 for key in ("train", "test", "anchors")}},
              "optimizer": {"epochs": 2}, **sections}
    for stage in ("tune", "weights", "eval"):
        _cli(stage, config, root / "run.json")
    return root / "run"


@pytest.fixture(scope="module")
def files_run(files_data, tmp_path_factory):
    """The chain under the default two_stage weights."""
    return _files_chain(files_data, tmp_path_factory.mktemp("files"))


@pytest.fixture(scope="module")
def one_stage_files_run(files_data, tmp_path_factory):
    """The chain under one_stage weights."""
    return _files_chain(files_data, tmp_path_factory.mktemp("files_one_stage"),
                        weights={"parameterization": "one_stage"})


SYNTHETIC = {"seeds": [0, 1], "optimizer": {"epochs": 2},
             "data": {"synthetic": {"dim": 8, "num_classes": 8, "shots": 2,
                                    "test_per_class": 4, "confusion_pairs": 2}}}


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """The run directory of tune, weights, eval and losses on the synthetic source."""
    root = tmp_path_factory.mktemp("synthetic")
    for stage in ("tune", "weights", "eval", "losses"):
        _cli(stage, {**SYNTHETIC, "out_dir": str(root / "run")}, root / "run.json")
    return root / "run"


@pytest.fixture(scope="module")
def files_losses_run(files_data, tmp_path_factory):
    """The run directory of losses from the files in ``files_data``."""
    root = tmp_path_factory.mktemp("files_losses")
    _cli("losses", {"out_dir": str(root / "run"), "seeds": [0], "optimizer": {"epochs": 2},
                    "data": {"files": {key: str(files_data / f"{key}.emb")
                                       for key in ("train", "test", "anchors")}}},
         root / "run.json")
    return root / "run"


def _report(run, name):
    report = json.loads((run / f"report_{name}.json").read_text())
    return json.dumps(report, sort_keys=True), report


def _losses_rows(run):
    rows = json.loads((run / "report_losses.json").read_text())["losses"]
    return json.dumps(rows, sort_keys=True), rows


def _synthetic_fits(run):
    """Each head's loss trace and each seed's fitted weights, from the manifests."""
    traces = json.loads((run / "manifest_tune.json").read_text())["metrics"]
    fitted = json.loads((run / "manifest_weights.json").read_text())["weights"]
    return json.dumps({"metrics": traces, "weights": fitted}, sort_keys=True), fitted


def _files_eval(run):
    report = json.loads((run / "report_eval.json").read_text())
    scores = {"per_config": report["per_config"], "per_seed": report["extra"]["per_seed"]}
    return json.dumps(scores, sort_keys=True), report["extra"]["per_seed"]


def _files_fits(run):
    """The tuned heads' loss traces and the fitted raw weights: full-precision
    values that the accuracies of a toy run are too coarse to show."""
    traces = json.loads((run / "manifest_tune.json").read_text())["metrics"]
    raw = json.loads((run / "weights" / "seed0.json").read_text())["raw"]
    return json.dumps({"metrics": traces, "raw": raw}, sort_keys=True), raw


# name -> (run, the pinned sha256 of its output)
HARNESS_PINS = {
    "base_to_new.two_stage": (
        lambda: _base_to_new("two_stage"),
        "be5e25bbaf62a3d9f472d69ad171c69a5194b908bb971f8f629525cb57b13d0d",
    ),
    "base_to_new.one_stage": (
        lambda: _base_to_new("one_stage"),
        "be5e25bbaf62a3d9f472d69ad171c69a5194b908bb971f8f629525cb57b13d0d",
    ),
    "fscil": (_fscil, "fee072be62e6fda78009c59714b09ca52b4e68923c6b56ad4015857c3ffc3a1b"),
    "assume": (_assume, "22b38b6f810d000c176efd8f2cd8930592ee2a2361baf7a22aaa365d17f4ac4d"),
    "bound": (_bound, "a40788719b8bd614bcdafa783cab2e8ae920ccaf4c4da4d313489996abb5757a"),
    "confusing_gain": (
        _confusing_gain, "703b805b3ecf891ed4e2c0fd315627440cf4189cb9d411397b4f0abb60e096a7"
    ),
}
FILES_PINS = {
    "eval": (_files_eval, "0bb5a25de4fdb2a5fb0c99cf7db681c7ef2760c8d1aae32a65de0c7efbb79a09"),
    "fits": (_files_fits, "a9a7ce184a969b8ae5bc8fadfdbc34f38d9fcaab1ec29a5c723378b5e6ca58f9"),
}
ONE_STAGE_FILES_PINS = {
    "eval": (_files_eval, "0bb5a25de4fdb2a5fb0c99cf7db681c7ef2760c8d1aae32a65de0c7efbb79a09"),
    "fits": (_files_fits, "ea54d2b19815d527ffdd6051418d07e08f4663cbcf3e62fd430913c8e10fb03f"),
}
SYNTHETIC_PINS = {
    "eval": (lambda run: _report(run, "eval"),
             "95634538c44efb26f3d8809a32ab200decf585678d57c72f1303b99f93c6882e"),
    "fits": (_synthetic_fits, "387e501750eac711b16b52a264be2d47a5ff2300cc9c3bc94e4612c203574c17"),
    "losses": (lambda run: _report(run, "losses"),
               "2371e98c7f6718ab6602e99d1e3c389e048218cb13bd63d6d3d3b7d8acba042f"),
}
FILES_LOSSES_PIN = (_losses_rows,
                    "192ad5e38438b46705da2d9bfa2d8bd08803f96239e9e018c338729256cee031")


def _check(name, output, detail, pinned):
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == pinned, (
        f"{name}: sha256 {digest}, pinned {pinned} under numpy {NUMPY_VERSION}, "
        f"running numpy {np.__version__}; values {detail!r}"
    )


@pytest.mark.parametrize("name", HARNESS_PINS)
def test_harness_output_matches_its_pin(name):
    run, pinned = HARNESS_PINS[name]
    _check(name, *run(), pinned)


@pytest.mark.parametrize("name", FILES_PINS)
def test_files_chain_output_matches_its_pin(name, files_run):
    read, pinned = FILES_PINS[name]
    _check(f"files.{name}", *read(files_run), pinned)


@pytest.mark.parametrize("name", ONE_STAGE_FILES_PINS)
def test_one_stage_files_chain_output_matches_its_pin(name, one_stage_files_run):
    read, pinned = ONE_STAGE_FILES_PINS[name]
    _check(f"files.one_stage.{name}", *read(one_stage_files_run), pinned)


@pytest.mark.parametrize("name", SYNTHETIC_PINS)
def test_synthetic_chain_output_matches_its_pin(name, synthetic_run):
    read, pinned = SYNTHETIC_PINS[name]
    _check(f"synthetic.{name}", *read(synthetic_run), pinned)


def test_files_losses_output_matches_its_pin(files_losses_run):
    read, pinned = FILES_LOSSES_PIN
    _check("files.losses", *read(files_losses_run), pinned)
