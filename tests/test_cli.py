"""Command-line pipeline: exit codes, determinism, artifacts, config."""

import json
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import _traced_peak, _whole_set_base_new_scores
from promix import embedspace, evaluation
from promix.cli import main
from promix.config import ConfigError, apply_overrides, load_config, parse_config
from promix.embedspace import (
    EmbeddingSet,
    generate_synthetic,
    read_embedding_file,
    unit_normalize,
    write_embedding_file,
)
from promix.head import PromptHead, load_head
from promix.mixture import load_weights


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


def _write_pool(tmp_path, rows, dim=16):
    """An EMB1 vocabulary pool of ``rows`` random unit words."""
    words = unit_normalize(np.random.default_rng(rows).standard_normal((rows, dim)))
    write_embedding_file(EmbeddingSet(words, np.zeros(rows, np.int64), ("word",)),
                         tmp_path / "pool.emb")
    return tmp_path / "pool.emb"


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

    @pytest.mark.parametrize("kind", ["ce_conf", "gce"])
    def test_loss_kind_is_unread_so_rejected(self, kind):
        # every row of the losses zoo sets its own kind
        with pytest.raises(ConfigError, match="^/loss/kind: unknown key"):
            parse_config({"loss": {"kind": kind}})

    def test_overrides(self):
        raw = apply_overrides({}, ["optimizer.epochs=7", "loss.q=0.5", "seeds=[1,2]"])
        cfg = parse_config(raw)
        assert cfg.optimizer.epochs == 7
        assert cfg.loss.q == 0.5
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

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({}, "153cb42f3c9b70c3"),
            ({"optimizer": {"epochs": 3}}, "0a7ac6b134539ea2"),
            ({"data": {"files": {"train": "a", "test": "b", "anchors": "c"}}}, "5f03a165b7523653"),
            ({"outclass": {"kind": "mixed", "count": 5, "pool_file": "p"}}, "b8422ea40fc978ca"),
            (
                {"partition": {"kind": "session_schedule", "base_size": 4, "way": 2}},
                "ec0cbf806e6eb099",
            ),
            (
                {
                    "hyper": {"margin": 0.1}, "loss": {"q": 0.5},
                    "weights": {"parameterization": "one_stage"}, "tau": 0.05, "jobs": 2,
                    "seeds": [3, 1],
                },
                "c5936b360554e47d",
            ),
        ],
    )
    def test_config_hash_is_pinned(self, raw, expected):
        # reports and manifests of earlier runs carry these hashes
        assert parse_config(raw).config_hash() == expected

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

    def test_gen_writes_the_generated_test_split(self, run_config, tmp_path):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        cfg = load_config(path)
        domain = generate_synthetic(replace(cfg.synthetic, seed=cfg.seed))
        write_embedding_file(domain.test, tmp_path / "want.emb")
        assert (out / "data" / "test.emb").read_bytes() == (tmp_path / "want.emb").read_bytes()

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
    def test_tune_manifest_records_each_heads_loss_trace(self, run_config, parameterization):
        path, out = run_config(weights={"parameterization": parameterization})
        assert main(["tune", "--config", str(path), "--set", "seeds=[0,1]"]) == 0
        metrics = json.loads((out / "manifest_tune.json").read_text())["metrics"]
        cfg = load_config(path, ["seeds=[0,1]"])
        for seed in (0, 1):
            domain = generate_synthetic(replace(cfg.synthetic, seed=seed))
            partition = embedspace.partition_classes(8, seed=seed)
            base = domain.train.with_labels_in(partition.subsets[1])
            *_, traces = evaluation.tune_base_new_heads(
                cfg, base, domain.generalized_prototypes, partition, seed
            )
            for label in ("ce", "conf"):
                recorded = metrics[f"seed{seed}_{label}"]["loss_trace"]
                assert recorded == traces[label] and len(recorded) == cfg.optimizer.epochs

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
        harness = evaluation.base_to_new_eval(load_config(path, overrides))
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

    @pytest.mark.parametrize(
        "content", ["directory", b"\xff{}", '{"seed": 1' + "0" * 5000 + "}"],
        ids=["directory", "not_utf8", "int_of_5001_digits"],
    )
    def test_unreadable_config_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if content == "directory":
            path.mkdir()
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        assert main(["tune", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: /: ")

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
            ('partition={"way": 3, "base_size": 7}', "/partition/base_size"),
            ("partition.sets=[[0,1,2,3],[4,5,6,7]]", "/partition/sets"),
            ('partition={"kind": "explicit", "sets": [[0, 1, 2, 3], [4, 5, 6, 7]], "seed": 5}',
             "/partition/seed"),
            ('outclass.count="abc"', "/outclass/count"),
            ("outclass.pool_file=5", "/outclass/pool_file"),
            ("outclass.pool_size=0", "/outclass/pool_size"),
            ('outclass.pool_file="/nonexistent/pool.emb"', "/outclass/pool_file"),
            ('partition={"kind": "explicit", "sets": [[0, 1], [2, 99]]}', "/partition/sets"),
            ('partition={"kind": "explicit", "sets": [[0, 1], [2, 3]]}', "/partition/sets"),
            ('partition={"kind": "explicit", "sets": [[0, 1, 2, 3, 4, 5, 6, 7]]}',
             "/partition/sets"),
            ("seeds=[0,0]", "/seeds"),
            ("seeds=[-1]", "/seeds/0"),
            ("seed=-1", "/seed"),
            ("loss=5", "/loss"),
            ("optimizer=null", "/optimizer"),
            ("data=3", "/data"),
            ("outclass=true", "/outclass"),
            ("weights=1", "/weights"),
            ("partition=2", "/partition"),
            ("data.synthetic=1", "/data/synthetic"),
            ("hyper=[]", "/hyper"),
            ("hyper=[1]", "/hyper"),
            ('data={"files": {"train": null, "test": "b", "anchors": "c"}}', "/data/files/train"),
            ('data={"files": {"train": "a", "test": "b", "anchors": []}}', "/data/files/anchors"),
            ('outclass.pool_file="a\\u0000b"', "/outclass/pool_file"),
            ("hyper.margin=NaN", "/hyper/margin"),
            pytest.param("tau=1" + "0" * 400, "/tau", id="tau=10**400"),
            ("optimizer.prompt_lr=NaN", "/optimizer/prompt_lr"),
            ("data.synthetic.intra_noise=Infinity", "/data/synthetic/intra_noise"),
            ("data.synthetic.seed=3", "/data/synthetic/seed"),
            ("optimizer.beta2=1", "/optimizer/beta2"),
            ("optimizer.eps=-1", "/optimizer/eps"),
            ("optimizer.weight_weight_decay=-5", "/optimizer/weight_weight_decay"),
            ("hyper.context_len=0", "/hyper/context_len"),
            ('weights.parameterization="bogus"', "/weights/parameterization"),
            ('outclass.kind="web_api"', "/outclass/kind"),
            # kind none draws no out-classes, so it never reads a count
            ('outclass={"kind": "none", "count": 7}', "/outclass/count"),
            ("jobs=0", "/jobs"),
            ("jobs=-1", "/jobs"),
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

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_env_seed_exits_one(self, run_config, capsys, monkeypatch, value):
        monkeypatch.setenv("PROMIX_SEED", value)
        path, _ = run_config()
        assert main(["gen", "--config", str(path)]) == 1
        assert "PROMIX_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "fscil", "assume"])
    def test_synthetic_only_command_rejects_files(self, run_config, capsys, command):
        path, _ = run_config(data={"files": {"train": "a", "test": "b", "anchors": "c"}})
        assert main([command, "--config", str(path)]) == 1
        assert "/data:" in capsys.readouterr().err

    def test_bound_command(self, run_config):
        path, out = run_config()
        assert main(["bound", "--config", str(path), "--trials", "50"]) == 0
        report = json.loads((out / "report_bound.json").read_text())
        assert report["min_gap"] >= -1e-12
        assert report["trials"] == 50

    def test_losses_command(self, run_config, monkeypatch):
        import promix.cli

        generated = []
        original = promix.cli.synthetic_parts

        def counted(config, classes=None):
            generated.append(config.seed)
            return original(config, classes)

        monkeypatch.setattr(promix.cli, "synthetic_parts", counted)
        # generate_synthetic would draw a domain through the module's own name
        monkeypatch.setattr(promix.embedspace, "synthetic_parts", counted)
        path, out = run_config()
        assert main(["losses", "--config", str(path), "--set", "seeds=[0,1]"]) == 0
        assert generated == [0, 1]
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

    @pytest.mark.parametrize(
        "partition, sets, pointer",
        [
            # the default schedule, 19 base classes of 32, leaves 13: no 5-way sessions
            (None, ["data.synthetic.num_classes=32"], "/data/synthetic/num_classes"),
            ({"kind": "session_schedule", "base_size": 4, "way": 3}, [], "/partition"),
            ({"kind": "session_schedule", "base_size": 3, "way": 0}, [], "/partition"),
            ({"kind": "session_schedule", "base_size": 4, "way": 2, "seed": 3}, [],
             "/partition/seed"),
            # at 11 classes the default schedule (6 base, one 5-way session) fits, so a
            # partition fscil would ignore is the only fault
            ({"kind": "explicit", "sets": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10]]},
             ["data.synthetic.num_classes=11"], "/partition/kind"),
            (None, ["data.synthetic.num_classes=11", "partition.seed=3"], "/partition/seed"),
        ],
        ids=["default_misfit", "schedule_misfit", "way_0", "seed", "explicit",
             "default_kind_seed"],
    )
    def test_fscil_schedule_errors_name_their_entry(self, run_config, capsys, partition, sets,
                                                    pointer):
        path, out = run_config(**({} if partition is None else {"partition": partition}))
        args = [a for s in sets for a in ("--set", s)]
        assert main(["fscil", "--config", str(path), *args]) == 1
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
        assert not (out / "report_fscil.json").exists()

    def test_losses_ce_conf_row_is_the_coa_loss(self, run_config):
        # at the method's w = 0 the CoA-loss is CE, whatever loss.w holds
        path, out = run_config()
        sets = ["hyper.conf_weight=0", "data.synthetic.dim=8", "data.synthetic.num_classes=32",
                "data.synthetic.shots=8"]  # at loss.w = 5 the two rows differ here
        assert main(["losses", "--config", str(path), *(a for s in sets for a in ("--set", s))]) == 0
        rows = json.loads((out / "report_losses.json").read_text())["losses"]
        assert rows["ce_conf"] == rows["ce"]

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

    @pytest.mark.parametrize("with_pool", [False, True])
    def test_each_data_file_read_once_per_command(
        self, run_config, tmp_path, monkeypatch, with_pool
    ):
        import promix.cli

        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        path2 = _files_config(path, out / "data", tmp_path)
        overrides = ["--set", "seeds=[0,1,2]"]
        if with_pool:
            rng = np.random.default_rng(0)
            words = EmbeddingSet(unit_normalize(rng.standard_normal((40, 16))),
                                 np.zeros(40, dtype=np.int64), ("word",))
            write_embedding_file(words, tmp_path / "pool.emb")
            overrides += ["--set", f'outclass.pool_file="{tmp_path / "pool.emb"}"']
        reads = {"read_embedding_file": [], "read_embedding_header": [],
                 "iter_embedding_chunks": []}

        def counting(name):
            original = getattr(promix.cli, name)

            def counted(file_path, *args, **kwargs):
                reads[name].append(os.path.basename(file_path))
                return original(file_path, *args, **kwargs)

            return counted

        for name in reads:
            monkeypatch.setattr(promix.cli, name, counting(name))
        pool = ["pool.emb"] if with_pool else []
        # every command checks the test file's header; eval and losses then
        # stream its samples once, for all three seeds
        for cmd, whole, streamed in (
            ("tune", ["anchors.emb", "train.emb"] + pool, []),
            ("weights", ["anchors.emb", "train.emb"] + pool, []),
            ("eval", ["anchors.emb", "train.emb"], ["test.emb"]),
            ("losses", ["anchors.emb", "train.emb"], ["test.emb"]),
        ):
            for log in reads.values():
                log.clear()
            assert main([cmd, "--config", str(path2), *overrides]) == 0, cmd
            assert sorted(reads["read_embedding_file"]) == sorted(whole), cmd
            assert reads["read_embedding_header"] == ["test.emb"], cmd
            assert reads["iter_embedding_chunks"] == streamed, cmd

    @pytest.mark.parametrize("damage", ["nan", "off_norm"])
    def test_bad_test_vectors_surface_at_eval(self, run_config, tmp_path, capsys, damage):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        test_path = out / "data" / "test.emb"
        data = bytearray(test_path.read_bytes())
        # the first float32 of the last sample (16 values after its u32 label)
        struct.pack_into("<f", data, len(data) - 16 * 4, np.nan if damage == "nan" else 2.0)
        test_path.write_bytes(bytes(data))
        path2 = _files_config(path, out / "data", tmp_path)
        assert main(["tune", "--config", str(path2)]) == 0
        assert main(["weights", "--config", str(path2)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(path2)]) == 1
        assert "/data/files/test:" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, damage",
        [("train", "truncate"), ("anchors", "remove"), ("test", "bad_magic"),
         ("test", "truncate")],
    )
    def test_broken_data_file_exits_one(self, run_config, tmp_path, capsys, key, damage):
        path, out = run_config()
        assert main(["gen", "--config", str(path)]) == 0
        target = out / "data" / f"{key}.emb"
        if damage == "truncate":
            target.write_bytes(target.read_bytes()[:-5])
        elif damage == "remove":
            target.unlink()
        else:
            target.write_bytes(b"XXXX" + target.read_bytes()[4:])
        path2 = _files_config(path, out / "data", tmp_path)
        assert main(["tune", "--config", str(path2)]) == 1
        assert f"/data/files/{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["tune", "weights"])
    @pytest.mark.parametrize("pool", ["missing", "wrong_dim", "truncated"])
    def test_bad_pool_file_exits_one(self, run_config, tmp_path, capsys, stage, pool):
        path, out = run_config()
        pool_path = tmp_path / "pool.emb"
        if pool != "missing":
            rng = np.random.default_rng(0)
            dim = 8 if pool == "wrong_dim" else 16
            words = EmbeddingSet(unit_normalize(rng.standard_normal((40, dim))),
                                 np.zeros(40, dtype=np.int64), ("word",))
            write_embedding_file(words, pool_path)
            if pool == "truncated":
                pool_path.write_bytes(pool_path.read_bytes()[:-5])
        if stage == "weights":
            assert main(["tune", "--config", str(path)]) == 0
        override = ["--set", f'outclass.pool_file="{pool_path}"']
        assert main([stage, "--config", str(path), *override]) == 1
        assert "/outclass/pool_file:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "outclass, pointer",
        [
            # random_word takes all 4 words of the 4-class base split, mixed half of 8
            ({"pool_size": 3}, "/outclass/pool_size"),
            ({"kind": "mixed", "count": 8, "pool_size": 3}, "/outclass/pool_size"),
            ({"pool_file": 3}, "/outclass/pool_file"),
        ],
        ids=["random_word", "mixed", "file"],
    )
    @pytest.mark.parametrize("stage", ["tune", "weights"])
    def test_small_pool_exits_one_before_its_stage_runs(
        self, run_config, tmp_path, capsys, stage, outclass, pointer
    ):
        path, out = run_config()
        if "pool_file" in outclass:
            outclass = {"pool_file": str(_write_pool(tmp_path, outclass["pool_file"]))}
        if stage == "weights":
            assert main(["tune", "--config", str(path)]) == 0
        override = ["--set", f"outclass={json.dumps(outclass)}"]
        assert main([stage, "--config", str(path), *override]) == 1
        assert capsys.readouterr().err.startswith(f"error: {pointer}: pool exhausted: need 4, ")
        assert list((out / ("heads" if stage == "tune" else "weights")).iterdir()) == []

    def test_small_pool_exits_one_before_fscil_tunes(self, run_config, capsys, monkeypatch):
        path, out = run_config(
            partition={"kind": "session_schedule", "base_size": 4, "way": 2},
            outclass={"pool_size": 3},
        )
        monkeypatch.setattr(evaluation, "tune_prompts", None)  # any tuning would raise
        assert main(["fscil", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: /outclass/pool_size: pool exhausted: need 4, have 3")
        assert not (out / "report_fscil.json").exists()

    def test_fscil_missing_pool_file_exits_one(self, run_config, tmp_path, capsys):
        path, out = run_config(partition={"kind": "session_schedule", "base_size": 4, "way": 2})
        missing = ["--set", f'outclass.pool_file="{tmp_path / "absent.emb"}"']
        assert main(["fscil", "--config", str(path), *missing]) == 1
        assert capsys.readouterr().err.startswith("error: /outclass/pool_file: ")
        assert not (out / "report_fscil.json").exists()

    def test_fscil_draws_its_first_words_from_the_pool_file(
        self, run_config, tmp_path, monkeypatch
    ):
        path, _ = run_config(partition={"kind": "session_schedule", "base_size": 4, "way": 2})
        pool_path = _write_pool(tmp_path, 6)
        drawn = []
        fit = evaluation.fit_weights

        def recording(model, train_in, out_anchors, *args, prompt=1, **kwargs):
            if prompt == 1:
                drawn.append(out_anchors)
            return fit(model, train_in, out_anchors, *args, prompt=prompt, **kwargs)

        monkeypatch.setattr(evaluation, "fit_weights", recording)
        valid = ["--set", f'outclass.pool_file="{pool_path}"']
        assert main(["fscil", "--config", str(path), *valid]) == 0
        words = read_embedding_file(pool_path).vectors
        assert len(drawn) == 1 and drawn[0].shape == (4, 16)
        assert all((words == row).all(axis=1).any() for row in drawn[0])

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["bound", "--trials", "0"], "--trials"),
            (["bound", "--trials", "-3"], "--trials"),
            (["assume", "--splits", "1"], "--splits"),
        ],
    )
    def test_bad_flag_exits_one_naming_it(self, run_config, capsys, args, flag):
        path, _ = run_config()
        assert main([*args, "--config", str(path)]) == 1
        assert f"'{flag}'" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def _files_pipeline(run_config, tmp_path, **extra):
    """gen from the fixture config, then tune and weights from its files;
    returns the files config and its run directory."""
    path, out = run_config(**extra)
    assert main(["gen", "--config", str(path)]) == 0
    path2 = _files_config(path, out / "data", tmp_path)
    for cmd in ("tune", "weights"):
        assert main([cmd, "--config", str(path2)]) == 0, cmd
    return path2, tmp_path / "run_files"


def _damage_json(path, damage):
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))


class TestBadCheckpoints:
    """A malformed checkpoint fails eval with exit 1, naming the file and the
    JSON pointer of the bad entry, before any report is written."""

    @pytest.mark.parametrize(
        "parameterization, name, damage, pointer",
        [
            ("two_stage", "weights/seed0.json", lambda d: d.pop("raw"), "/raw/alphas_in"),
            ("two_stage", "weights/seed0.json",
             lambda d: d["raw"]["alphas_in"].__setitem__(0, float("nan")), "/raw/alphas_in/0"),
            ("one_stage", "weights/seed0.json",
             lambda d: d["raw"].__setitem__("tau_in", float("nan")), "/raw/tau_in"),
            ("two_stage", "weights/seed0.json",
             lambda d: d.__setitem__("parameterization", "direct"), "/parameterization"),
            ("two_stage", "heads/seed0_ce.json", lambda d: d.pop("class_names"), "/class_names"),
            ("two_stage", "heads/seed0_ce.json",
             lambda d: d.__setitem__("tau", float("nan")), "/tau"),
            ("one_stage", "heads/seed0_conf.json",
             lambda d: d.__setitem__("data_file", "gone.emb"), "/data_file"),
            ("two_stage", "heads/seed0_conf.json", lambda d: d.__setitem__("dim", 999), "/dim"),
            ("two_stage", "heads/seed0_ce.json", lambda d: d.pop("dim"), "/dim"),
        ],
        ids=["no_raw", "nan_alpha", "nan_tau_in", "direct_weights", "no_class_names",
             "nan_head_tau", "missing_data_file", "dim_mismatch", "no_dim"],
    )
    def test_eval_exits_one_at_the_bad_entry(
        self, run_config, capsys, parameterization, name, damage, pointer
    ):
        path, out = run_config(weights={"parameterization": parameterization})
        for cmd in ("tune", "weights"):
            assert main([cmd, "--config", str(path)]) == 0, cmd
        _damage_json(out / name, damage)
        capsys.readouterr()
        assert main(["eval", "--config", str(path)]) == 1
        assert f"{out / name}: {pointer}: " in capsys.readouterr().err
        assert not (out / "report_eval.json").exists()

    def test_weights_exits_one_at_a_head_dim_mismatch(self, run_config, capsys):
        path, out = run_config()
        assert main(["tune", "--config", str(path)]) == 0
        head = out / "heads" / "seed0_conf.json"
        _damage_json(head, lambda d: d.__setitem__("dim", 999))
        capsys.readouterr()
        assert main(["weights", "--config", str(path)]) == 1
        assert f"{head}: /dim: " in capsys.readouterr().err


class TestStreamedEval:
    """eval scores test.emb as a stream of CHUNK_ROWS-row chunks."""

    @pytest.mark.parametrize("chunk_rows", [2, 7])
    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_streamed_reports_equal_in_memory_scores(
        self, run_config, tmp_path, monkeypatch, chunk_rows, parameterization
    ):
        path2, out = _files_pipeline(
            run_config, tmp_path, seeds=[0, 1, 2],
            weights={"parameterization": parameterization},
        )
        cfg = load_config(path2)
        test = read_embedding_file(cfg.files["test"])
        anchors = read_embedding_file(cfg.files["anchors"])
        per_seed = []
        for seed in cfg.seeds:
            head_ce, tau = load_head(out / "heads" / f"seed{seed}_ce.json")
            head_conf, _ = load_head(out / "heads" / f"seed{seed}_conf.json")
            fitted = load_weights(out / "weights" / f"seed{seed}.json")
            partition = embedspace.partition_classes(len(test.class_names), seed=seed)
            t0 = PromptHead.frozen_from(anchors.vectors[np.argsort(anchors.labels)],
                                        test.class_names)
            per_seed.append(_whole_set_base_new_scores(
                t0, head_ce, head_conf, fitted, partition, test, tau))
        expected = evaluation.base_new_report(per_seed, cfg.seeds, cfg.config_hash())
        assert len(test) > 4 * chunk_rows
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", chunk_rows)
        assert main(["eval", "--config", str(path2)]) == 0
        assert (out / "report_eval.json").read_text() == expected.to_json()

    @pytest.mark.parametrize("damage", ["nan", "off_norm"])
    def test_bad_last_chunk_fails_eval_before_any_report(
        self, run_config, tmp_path, capsys, monkeypatch, damage
    ):
        path2, out = _files_pipeline(run_config, tmp_path)
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", 7)
        test_path = Path(load_config(path2).files["test"])
        good = test_path.read_bytes()
        bad = bytearray(good)
        # the first float32 of the last sample, in the last of several chunks
        struct.pack_into("<f", bad, len(bad) - 16 * 4, np.nan if damage == "nan" else 2.0)
        test_path.write_bytes(bytes(bad))
        capsys.readouterr()
        assert main(["eval", "--config", str(path2)]) == 1
        assert "/data/files/test:" in capsys.readouterr().err
        assert not (out / "report_eval.json").exists()
        assert not (out / "manifest_eval.json").exists()
        test_path.write_bytes(good)
        assert main(["eval", "--config", str(path2)]) == 0
        before = _tree_bytes(out)
        test_path.write_bytes(bytes(bad))
        assert main(["eval", "--config", str(path2)]) == 1
        assert _tree_bytes(out) == before


class TestEmptySplits:
    """A data file without rows of a split fails at its entry, naming the split."""

    @staticmethod
    def _keep_only(path, classes):
        write_embedding_file(read_embedding_file(path).with_labels_in(classes), path)

    def test_eval_names_the_test_file(self, run_config, tmp_path, capsys):
        path2, out = _files_pipeline(run_config, tmp_path)
        base = embedspace.partition_classes(8, seed=0).subsets[1]
        self._keep_only(load_config(path2).files["test"], base)
        capsys.readouterr()
        assert main(["eval", "--config", str(path2)]) == 1
        err = capsys.readouterr().err
        assert "/data/files/test:" in err and "new split" in err
        assert not (out / "report_eval.json").exists()

    @pytest.mark.parametrize("command", ["tune", "weights", "losses"])
    def test_training_commands_name_the_train_file(self, run_config, tmp_path, capsys, command):
        path2, _ = _files_pipeline(run_config, tmp_path)
        new = embedspace.partition_classes(8, seed=0).subsets[0]
        self._keep_only(load_config(path2).files["train"], new)
        capsys.readouterr()
        assert main([command, "--config", str(path2)]) == 1
        err = capsys.readouterr().err
        assert "/data/files/train:" in err and "base split" in err


class TestCommandMemory:
    """Traced allocations of whole commands: no stage holds the test split.
    The bounds are in units of one float64 chunk, CHUNK_ROWS x dim x 8
    bytes, whatever the number of test rows."""

    DIM = 128

    def _config(self, tmp_path, **synthetic):
        cfg = {
            "out_dir": str(tmp_path / "run"), "seed": 0, "seeds": [0],
            "data": {"synthetic": {"dim": self.DIM, "num_classes": 16, "shots": 4,
                                   "confusion_pairs": 2, **synthetic}},
            "optimizer": {"epochs": 2, "weight_epochs": 2},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    @property
    def chunk_bytes(self):
        return embedspace.CHUNK_ROWS * self.DIM * 8

    def test_gen_writes_the_test_split_class_by_class(self, tmp_path):
        # 4 chunks of test rows in 16 class blocks
        path = self._config(tmp_path, test_per_class=embedspace.CHUNK_ROWS // 4)
        peak, code = _traced_peak(main, ["gen", "--config", str(path)])
        assert code == 0
        assert peak < 3 * self.chunk_bytes

    def test_synthetic_tune_draws_no_test_split(self, tmp_path):
        path = self._config(tmp_path, test_per_class=embedspace.CHUNK_ROWS // 2)
        peak, code = _traced_peak(main, ["tune", "--config", str(path)])
        assert code == 0
        assert peak < 2 * self.chunk_bytes

    def test_eval_streams_the_test_file(self, tmp_path):
        path = self._config(tmp_path, test_per_class=1)
        assert main(["gen", "--config", str(path)]) == 0
        data = tmp_path / "run" / "data"
        names = read_embedding_file(data / "train.emb").class_names
        rng = np.random.default_rng(0)
        count = 4 * embedspace.CHUNK_ROWS + 5
        test = EmbeddingSet(unit_normalize(rng.standard_normal((count, self.DIM))),
                            rng.integers(0, len(names), count), names)
        write_embedding_file(test, data / "test.emb")
        del test
        files = _files_config(path, data, tmp_path)
        for cmd in ("tune", "weights"):
            assert main([cmd, "--config", str(files)]) == 0, cmd
        peak, code = _traced_peak(main, ["eval", "--config", str(files)])
        assert code == 0
        assert peak < 4 * self.chunk_bytes


def _json_paths(node, prefix=()):
    """Every path into a JSON tree: object members and list items."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


_WRONG_TYPES = ["x", None, True, [], {}, 1.5, 7]
_OUT_OF_RANGE = [-1, 0, -0.5, 2, float("nan"), float("inf"), float("-inf")]
_NOT_OBJECTS = ["", "[]", "5", "null", '"x"', "{", '{"seeds": [0,', "{} {}", "1" * 5000]
_BAD_SET_PATHS = [
    "=1", "..=1", "optimizer", "seeds.0=1", "data.synthetic.dim.x=1", "frobnitz.x=1",
    "out_dir.x=1", "loss.kind.x.y=1",
]


class TestConfigBoundaryFuzz:
    """Mutated fixture configs through ``tune``: each either runs or exits 1
    with the JSON pointer of what it rejects, never a runtime failure."""

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_config_exits_zero_or_one_with_pointer(
        self, run_config, tmp_path, monkeypatch, capsys, data
    ):
        monkeypatch.chdir(tmp_path)  # a dropped out_dir writes to the default
        path, _ = run_config(optimizer={"epochs": 1, "weight_epochs": 1})
        raw = json.loads(path.read_text())
        paths = list(_json_paths(raw))
        args = []
        kind = data.draw(st.sampled_from(["drop", "type", "range", "unknown", "json", "set"]))
        if kind in ("drop", "type"):
            where = data.draw(st.sampled_from(paths))
            parent = _at(raw, where[:-1])
            if kind == "drop":
                del parent[where[-1]]
            else:
                parent[where[-1]] = data.draw(st.sampled_from(_WRONG_TYPES))
        elif kind == "range":
            numbers = [p for p in paths if isinstance(_at(raw, p), (int, float))]
            where = data.draw(st.sampled_from(numbers))
            _at(raw, where[:-1])[where[-1]] = data.draw(st.sampled_from(_OUT_OF_RANGE))
        elif kind == "unknown":
            objects = [()] + [p for p in paths if isinstance(_at(raw, p), dict)]
            _at(raw, data.draw(st.sampled_from(objects)))["frobnitz"] = 1
        elif kind == "set":
            args = ["--set", data.draw(st.sampled_from(_BAD_SET_PATHS))]
        if kind == "json":
            path.write_text(data.draw(st.sampled_from(_NOT_OBJECTS)))
            args = data.draw(st.sampled_from([[], ["--set", "optimizer.epochs=1"]]))
        else:
            path.write_text(json.dumps(raw))
        code = main(["tune", "--config", str(path), *args])
        err = capsys.readouterr().err
        assert code == 0 or code == 1 and err.startswith("error: /"), (kind, code, err)


def test_readme_entry_points_and_all_resolve():
    import promix

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library entry points\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(block, {})
    assert [name for name in promix.__all__ if not hasattr(promix, name)] == []


def test_readme_minimal_config_parses_to_the_default_hash():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\nA minimal config", 1)[1]
    block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
    assert parse_config(json.loads(block)).config_hash() == "153cb42f3c9b70c3"
