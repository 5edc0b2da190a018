"""Command-line pipeline: exit codes, determinism, artifacts, config."""

import json
import os

import pytest

from promix import evaluation
from promix.cli import main
from promix.config import ConfigError, apply_overrides, load_config, parse_config
from promix.embedspace import EmbeddingSet, read_embedding_file, write_embedding_file


@pytest.fixture
def run_config(tmp_path):
    def make(**extra):
        cfg = {
            "out_dir": str(tmp_path / "run"),
            "seed": 0,
            "seeds": [0],
            "data": {
                "synthetic": {
                    "num_classes": 8, "shots": 4, "test_per_class": 4,
                    "dim": 16, "confusion_pairs": 2,
                }
            },
            "optimizer": {"epochs": 4, "weight_epochs": 4},
        }
        cfg.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, tmp_path / "run"

    return make


def _files_config(path, data_dir, tmp_path):
    """Copy of the config at ``path`` reading the EMB1 files in ``data_dir``."""
    cfg = json.loads(path.read_text())
    cfg["data"] = {
        "files": {key: str(data_dir / f"{key}.emb") for key in ("train", "test", "anchors")}
    }
    cfg["out_dir"] = str(tmp_path / "run_files")
    path2 = tmp_path / "config_files.json"
    path2.write_text(json.dumps(cfg))
    return path2


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="/frobnitz"):
            parse_config({"frobnitz": 1})

    def test_unknown_nested_key_has_pointer(self):
        with pytest.raises(ConfigError, match="/optimizer/lr"):
            parse_config({"optimizer": {"lr": 0.1}})

    def test_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"data": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({
                "data": {
                    "synthetic": {},
                    "files": {"train": "a", "test": "b", "anchors": "c"},
                }
            })

    def test_defaults_fill_in(self):
        cfg = parse_config({})
        assert cfg.loss.kind == "ce_conf"
        assert cfg.optimizer.epochs == 50
        assert cfg.hyper.ent_weight == 8.0
        assert cfg.parameterization == "two_stage"

    def test_bad_loss_kind_pointer(self):
        with pytest.raises(ConfigError, match="/loss/kind"):
            parse_config({"loss": {"kind": "hinge"}})

    def test_overrides(self):
        raw = apply_overrides({}, ["optimizer.epochs=7", "loss.kind=\"gce\"", "seeds=[1,2]"])
        cfg = parse_config(raw)
        assert cfg.optimizer.epochs == 7
        assert cfg.loss.kind == "gce"
        assert cfg.seeds == (1, 2)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="path=value"):
            apply_overrides({}, ["no_equals_sign"])

    def test_config_hash_ignores_out_dir(self, tmp_path):
        a = parse_config({"out_dir": "x"})
        b = parse_config({"out_dir": "y"})
        assert a.config_hash() == b.config_hash()

    def test_config_hash_tracks_content(self):
        a = parse_config({})
        b = parse_config({"optimizer": {"epochs": 3}})
        assert a.config_hash() != b.config_hash()

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")


class TestPipeline:
    def test_gen_is_deterministic(self, run_config):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        first = _tree_bytes(out)
        assert main(["gen", "--config", str(path)]) == 0
        assert _tree_bytes(out) == first

    def test_full_pipeline_and_rerun_byte_identity(self, run_config):
        path, out = run_config()
        for cmd in ("gen", "tune", "weights", "eval"):
            assert main([cmd, "--config", str(path)]) == 0, cmd
        assert (out / "report_eval.json").exists()
        assert (out / "report_eval.csv").exists()
        snapshot = _tree_bytes(out)
        for cmd in ("gen", "tune", "weights", "eval"):
            assert main([cmd, "--config", str(path)]) == 0
        assert _tree_bytes(out) == snapshot

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_cli_chain_matches_harness(self, run_config, parameterization):
        # 20 test samples per class and 10 epochs: at the fixture's own sizes a
        # one_stage in-weight fitted after tuning scores the same as a jointly
        # tuned one, so the comparison would not tell the two paths apart
        overrides = [
            "seeds=[0,1]", "data.synthetic.test_per_class=20", "optimizer.epochs=10",
            "optimizer.weight_epochs=10", f'weights.parameterization="{parameterization}"',
        ]
        path, out = run_config()
        sets = [arg for item in overrides for arg in ("--set", item)]
        for cmd in ("tune", "weights", "eval"):
            assert main([cmd, "--config", str(path), *sets]) == 0, cmd
        report = json.loads((out / "report_eval.json").read_text())
        harness = evaluation.base_to_new_eval(load_config(path, overrides).harness())
        assert report["per_config"] == harness.per_config
        assert report["extra"]["per_seed"] == harness.extra["per_seed"]

    def test_eval_without_tune_fails_cleanly(self, run_config, capsys):
        path, _ = run_config()
        assert main(["eval", "--config", str(path)]) == 1
        assert "missing checkpoint" in capsys.readouterr().err

    def test_weights_without_tune_fails_cleanly(self, run_config, capsys):
        path, _ = run_config()
        assert main(["weights", "--config", str(path)]) == 1
        assert "missing head checkpoint" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, run_config):
        path, _ = run_config()
        assert main(["transmogrify", "--config", str(path)]) == 1

    def test_unknown_config_key_exits_one(self, run_config, capsys):
        path, _ = run_config()
        assert main(["gen", "--config", str(path), "--set", "optimizer.turbo=1"]) == 1
        assert "/optimizer/turbo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, pointer",
        [
            ("tau=-1", "/tau"),
            ("tau=0", "/tau"),
            ("tau=Infinity", "/tau"),
            ('partition.seed="x"', "/partition/seed"),
            ('partition.base_size="a"', "/partition/base_size"),
            ('partition.way=1.5', "/partition/way"),
            ('partition.sets="0,1"', "/partition/sets"),
            ('partition.sets=[["a"]]', "/partition/sets/0/0"),
            ("partition.sets=[[0],1]", "/partition/sets/1"),
            ("partition.seed=-1", "/partition/seed"),
            ('outclass.count="abc"', "/outclass/count"),
            ("outclass.pool_file=5", "/outclass/pool_file"),
            ("seeds=[0,0]", "/seeds"),
        ],
    )
    def test_bad_value_exits_one_with_pointer(self, run_config, capsys, override, pointer):
        path, _ = run_config()
        assert main(["tune", "--config", str(path), "--set", override]) == 1
        assert f"{pointer}:" in capsys.readouterr().err

    def test_env_seed_override_changes_data(self, run_config):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        base = (out / "data" / "train.emb").read_bytes()
        os.environ["PROMIX_SEED"] = "9"
        try:
            assert main(["gen", "--config", str(path)]) == 0
        finally:
            del os.environ["PROMIX_SEED"]
        assert (out / "data" / "train.emb").read_bytes() != base

    def test_bound_command(self, run_config):
        path, out = run_config()
        assert main(["bound", "--config", str(path), "--trials", "50"]) == 0
        report = json.loads((out / "report_bound.json").read_text())
        assert report["min_gap"] >= -1e-12
        assert report["trials"] == 50

    def test_losses_command(self, run_config):
        path, out = run_config()
        assert main(["losses", "--config", str(path)]) == 0
        report = json.loads((out / "report_losses.json").read_text())
        assert set(report["losses"]) == {"ce", "ce_conf", "fl", "gce", "mae", "ce_mae"}
        csv = (out / "report_losses.csv").read_text()
        assert csv.splitlines()[0] == "loss,base_accuracy"

    def test_fscil_command(self, run_config):
        path, out = run_config(
            partition={"kind": "session_schedule", "base_size": 4, "way": 2}
        )
        assert main(["fscil", "--config", str(path)]) == 0
        report = json.loads((out / "report_fscil.json").read_text())
        assert len(report["session_acc"]) == 3

    def test_assume_command(self, run_config):
        path, out = run_config()
        assert main(["assume", "--config", str(path), "--splits", "3"]) == 0
        report = json.loads((out / "report_assume.json").read_text())
        assert "in_domain" in report["t_tests"]

    def test_report_merges_artifacts(self, run_config):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        assert main(["bound", "--config", str(path), "--trials", "20"]) == 0
        assert main(["report", "--config", str(path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "manifest_gen.json" in summary["runs"]
        assert "report_bound.json" in summary["runs"]

    def test_eval_from_file_data(self, run_config, tmp_path):
        # gen exports the domain, then the pipeline re-ingests it as files
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        path2 = _files_config(path, out / "data", tmp_path)
        for cmd in ("tune", "weights", "eval"):
            assert main([cmd, "--config", str(path2)]) == 0, cmd
        assert (tmp_path / "run_files" / "report_eval.json").exists()

    def test_test_file_with_other_classes_exits_one(self, run_config, tmp_path, capsys):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        test = read_embedding_file(out / "data" / "test.emb")
        renamed = EmbeddingSet(test.vectors, test.labels, tuple(f"x{n}" for n in test.class_names))
        write_embedding_file(renamed, out / "data" / "test.emb")
        path2 = _files_config(path, out / "data", tmp_path)
        assert main(["tune", "--config", str(path2)]) == 1
        err = capsys.readouterr().err
        assert "/data/files:" in err and "test file class list" in err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
