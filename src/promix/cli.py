"""Command-line surface: one JSON config, one command per pipeline stage.

Commands: gen (write synthetic embedding files), tune (prompt tuning),
weights (mixture-weight fitting), eval (base/new comparison from the
tuned artifacts), fscil / assume / bound / losses (self-contained
harnesses), report (merge run outputs). Exit codes: 0 success, 1
validation or precondition error, 2 runtime failure.

Every output lands under the config's out_dir and is byte-reproducible
for a fixed config and seed: reports are canonical JSON (sorted keys, no
timestamps). PROMIX_SEED overrides the config's top-level seed.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from promix.config import ConfigError, RunConfig, load_config
from promix.embedspace import (
    EmbeddingFileError,
    iter_embedding_chunks,
    partition_classes,
    prototype_set,
    read_embedding_file,
    read_embedding_header,
    synthetic_parts,
    write_embedding_blocks,
    write_embedding_file,
)
from promix.evaluation import (
    SplitAccuracy,
    assumption_check,
    base_new_accuracy,
    base_new_report,
    base_new_scores,
    base_to_new_csv,
    bound_sweep,
    fit_base_new_weights,
    fscil_csv,
    fscil_partition,
    fscil_run,
    outclass_anchors,
    subset_run,
    tune_base_new_heads,
)
from promix.head import PromptHead, load_head, save_head
from promix.losses import LOSS_KINDS
from promix.mixture import load_weights, save_weights
from promix.train import tune_prompts


class ArtifactError(RuntimeError):
    """A required checkpoint from an earlier stage is missing."""


def _effective_config(path: str, overrides: tuple[str, ...]) -> RunConfig:
    cfg = load_config(path, list(overrides))
    env_seed = os.environ.get("PROMIX_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:  # not an integer, or out of RunConfig.seed's range
            raise ConfigError(
                f"PROMIX_SEED must be a non-negative integer, got {env_seed!r}"
            ) from exc
    return cfg


def _require_synthetic(cfg: RunConfig, command: str) -> None:
    if cfg.files is not None:
        raise ConfigError(f"{command} requires a synthetic data source", "/data")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(cfg: RunConfig, out: Path, command: str, payload: dict) -> None:
    manifest = {"command": command, "config_hash": cfg.config_hash(), **payload}
    _write_json(out / f"manifest_{command}.json", manifest)


def _read_config_file(read, path: str, pointer: str):
    """Apply an EMB1 reader to the file named by the config entry at
    ``pointer``; a missing, unreadable or malformed file is an error in
    that entry."""
    try:
        return read(path)
    except (OSError, ValueError, EmbeddingFileError) as exc:
        raise ConfigError(f"cannot read EMB1 file: {exc}", pointer) from exc


def _config_file_chunks(path: str, pointer: str):
    """The chunks of the EMB1 file named by the config entry at ``pointer``,
    streamed once iteration starts; a read error is an error in that
    entry."""
    try:
        yield from iter_embedding_chunks(path)
    except (OSError, ValueError, EmbeddingFileError) as exc:
        raise ConfigError(f"cannot read EMB1 file: {exc}", pointer) from exc


def _domain_source(cfg: RunConfig):
    """(dim, seed -> (train, anchors, test)) for the configured source.

    ``test`` is the test split as (vectors, labels) chunks of CHUNK_ROWS
    rows, read or drawn only while it is iterated, once. Data files are read
    here, once, except the test file: only its header is read here, for its
    class list and size checks, and one stream of its samples is shared by
    every seed. A synthetic domain is made per seed, its test split drawn
    chunk by chunk as it is iterated, and ``train`` holds the rows of the
    seed's base split only: the tuning classes, which is all that is read of it.
    """
    if cfg.files is None:
        def generate(seed: int):
            partition = _partition_for(cfg, cfg.synthetic.num_classes, seed)
            parts = synthetic_parts(replace(cfg.synthetic, seed=seed), partition.subsets[1])
            return parts.train, parts.generalized_prototypes, parts.test_chunks()

        return cfg.synthetic.dim, generate
    readers = {"train": read_embedding_file, "test": read_embedding_header,
               "anchors": read_embedding_file}
    train, test_header, anchors = (
        _read_config_file(readers[key], cfg.files[key], f"/data/files/{key}")
        for key in ("train", "test", "anchors")
    )
    for name, emb in (("test", test_header), ("anchor", anchors)):
        if emb.class_names != train.class_names:
            raise ConfigError(f"{name} file class list differs from the train file", "/data/files")
    if not np.array_equal(np.sort(anchors.labels), np.arange(len(anchors.class_names))):
        raise ConfigError("anchor file must hold exactly one row per class", "/data/files")
    data = (
        train,
        anchors.vectors[np.argsort(anchors.labels)],
        _config_file_chunks(cfg.files["test"], "/data/files/test"),
    )
    return train.dim, lambda _seed: data


def _score_test(feeds: list[tuple[object, SplitAccuracy]]) -> list[dict]:
    """Iterate each distinct test split of the (test split, accumulator)
    pairs once, adding every chunk to each accumulator it feeds; return their
    percents. A split without rows is the test file's fault (a synthetic
    test split has rows of every class)."""
    passes: dict[object, list[SplitAccuracy]] = {}
    for test, acc in feeds:
        passes.setdefault(test, []).append(acc)
    for test, accumulators in passes.items():
        for vectors, labels in test:
            for acc in accumulators:
                acc.add(vectors, labels)
    try:
        return [acc.percents() for _, acc in feeds]
    except ValueError as exc:
        raise ConfigError(str(exc), "/data/files/test") from exc


def _check_pool_file(cfg: RunConfig, dim: int) -> np.ndarray | None:
    """Word vectors of the configured out-class pool file, if any, which
    must be a readable EMB1 file of the data's dimension."""
    if cfg.pool_file is None:
        return None
    pool = _read_config_file(read_embedding_file, cfg.pool_file, "/outclass/pool_file")
    if pool.dim != dim:
        raise ConfigError(
            f"pool dimension {pool.dim} differs from the data dimension {dim}",
            "/outclass/pool_file",
        )
    return pool.vectors


def _check_pool_size(cfg: RunConfig, pool: np.ndarray | None, in_class_size: int) -> None:
    """The draw's random words (random_word: all, mixed: half, floored) must fit the pool."""
    n = cfg.outclass.count or in_class_size
    need = {"random_word": n, "mixed": n // 2}.get(cfg.outclass.kind, 0)
    have = cfg.pool_size if pool is None else len(pool)
    if need > have:
        pointer = "/outclass/pool_file" if cfg.pool_file else "/outclass/pool_size"
        raise ConfigError(f"pool exhausted: need {need}, have {have}", pointer)


def _partition_for(cfg: RunConfig, n_classes: int, seed: int):
    spec = cfg.partition or {"kind": "base_new_even_split"}
    try:
        return partition_classes(
            n_classes,
            spec["kind"],
            seed=spec.get("seed") if spec.get("seed") is not None else seed,
            base_size=spec.get("base_size"),
            way=spec.get("way"),
            sets=spec.get("sets"),
        )
    except ValueError as exc:
        raise ConfigError(
            str(exc), "/partition/sets" if spec["kind"] == "explicit" else "/partition"
        ) from exc


def _tuning_split(cfg: RunConfig, train, seed: int):
    """The seed's partition and its base split: the training rows of the
    tuning classes, which must not be empty, global labels kept."""
    partition = _partition_for(cfg, len(train.class_names), seed)
    base = train.with_labels_in(partition.subsets[1])
    if not len(base):
        pointer = "/data/files/train" if cfg.files and len(partition.subsets[1]) else "/partition"
        raise ConfigError("the training set has no rows of the base split", pointer)
    return partition, base


def _head_paths(out: Path, seed: int) -> dict[str, Path]:
    heads = out / "heads"
    return {"ce": heads / f"seed{seed}_ce.json", "conf": heads / f"seed{seed}_conf.json"}


def _weight_path(out: Path, seed: int) -> Path:
    return out / "weights" / f"seed{seed}.json"


@click.group()
def cli() -> None:
    """Confusion-aware prompt tuning and prompt mixtures over embeddings."""


_config_opt = click.option(
    "--config", "config_path", required=True, type=click.Path(), help="Run config JSON."
)
_set_opt = click.option(
    "--set", "overrides", multiple=True, metavar="PATH=VALUE",
    help="Override a config entry, e.g. --set optimizer.epochs=10",
)


@cli.command()
@_config_opt
@_set_opt
def gen(config_path: str, overrides: tuple[str, ...]) -> None:
    """Write the synthetic domain as embedding files."""
    cfg = _effective_config(config_path, overrides)
    _require_synthetic(cfg, "gen")
    out = _out_dir(cfg)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    synthetic = replace(cfg.synthetic, seed=cfg.seed)
    dom = synthetic_parts(synthetic)
    names = dom.train.class_names
    write_embedding_file(dom.train, data_dir / "train.emb")
    write_embedding_blocks(
        synthetic.dim, synthetic.num_classes * synthetic.test_per_class, names,
        dom.test_chunks(), data_dir / "test.emb",
    )
    write_embedding_file(prototype_set(dom.generalized_prototypes, names), data_dir / "anchors.emb")
    write_embedding_file(prototype_set(dom.true_prototypes, names), data_dir / "true_prototypes.emb")
    _write_manifest(
        cfg, out, "gen",
        {"seed": cfg.seed, "files": ["train.emb", "test.emb", "anchors.emb", "true_prototypes.emb"]},
    )
    click.echo(f"wrote 4 embedding files under {data_dir}")


@cli.command()
@_config_opt
@_set_opt
def tune(config_path: str, overrides: tuple[str, ...]) -> None:
    """Tune the baseline (plain CE) and mixture heads per seed."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    (out / "heads").mkdir(exist_ok=True)
    dim, domain = _domain_source(cfg)
    pool = _check_pool_file(cfg, dim)
    metrics = {}
    for seed in sorted(cfg.seeds):
        train, anchors, _test = domain(seed)
        partition, base = _tuning_split(cfg, train, seed)
        _check_pool_size(cfg, pool, len(partition.subsets[1]))
        head_ce, mix_head, mix_tau, traces = tune_base_new_heads(
            cfg, base, anchors, partition, seed
        )
        heads = {"ce": head_ce, "conf": mix_head}
        train_acc = SplitAccuracy(
            heads, {label: ((label,), None) for label in heads}, {"base": partition.subsets[1]}
        ).score(base.chunks())["base"]
        paths = _head_paths(out, seed)
        for label, tau in (("ce", cfg.tau), ("conf", mix_tau)):
            save_head(heads[label], tau, paths[label])
            metrics[f"seed{seed}_{label}"] = {"train_accuracy": train_acc[label],
                                              "loss_trace": traces[label]}
    _write_manifest(cfg, out, "tune", {"seeds": sorted(cfg.seeds), "metrics": metrics})
    click.echo(f"tuned {2 * len(cfg.seeds)} heads under {out / 'heads'}")


@cli.command()
@_config_opt
@_set_opt
def weights(config_path: str, overrides: tuple[str, ...]) -> None:
    """Fit the in/out mixture weights from the tuned heads."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    (out / "weights").mkdir(exist_ok=True)
    dim, domain = _domain_source(cfg)
    pool = _check_pool_file(cfg, dim)
    fitted = {}
    for seed in sorted(cfg.seeds):
        paths = _head_paths(out, seed)
        for path in paths.values():
            if not path.exists():
                raise ArtifactError(f"missing head checkpoint {path}; run `tune` first")
        _, tau = load_head(paths["ce"])
        mix_head, mix_tau = load_head(paths["conf"])
        train, anchors, _test = domain(seed)
        partition, base = _tuning_split(cfg, train, seed)
        _check_pool_size(cfg, pool, len(partition.subsets[1]))
        out_anchors = outclass_anchors(cfg, dim, seed, len(partition.subsets[1]), pool)
        fit = fit_base_new_weights(
            replace(cfg, tau=tau), mix_head, mix_tau, base, anchors, partition,
            out_anchors, seed,
        )
        save_weights(fit, _weight_path(out, seed))
        fitted[f"seed{seed}"] = fit.to_dict()
    _write_manifest(cfg, out, "weights", {"seeds": sorted(cfg.seeds), "weights": fitted})
    click.echo(f"fitted weights for {len(cfg.seeds)} seeds under {out / 'weights'}")


@cli.command(name="eval")
@_config_opt
@_set_opt
def eval_cmd(config_path: str, overrides: tuple[str, ...]) -> None:
    """Score the four comparison configurations from saved artifacts."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    _, domain = _domain_source(cfg)
    feeds = []
    for seed in sorted(cfg.seeds):
        paths = _head_paths(out, seed)
        wpath = _weight_path(out, seed)
        for p in (*paths.values(), wpath):
            if not Path(p).exists():
                raise ArtifactError(f"missing checkpoint {p}; run `tune` and `weights` first")
        head_ce, tau = load_head(paths["ce"])
        head_conf, _ = load_head(paths["conf"])
        fitted = load_weights(wpath)
        train, anchors, test = domain(seed)
        partition = _partition_for(cfg, len(train.class_names), seed)
        if len(partition.subsets[0]) == 0 or len(partition.subsets[1]) == 0:
            raise ConfigError(
                "eval needs a partition with non-empty tuning and held-out subsets",
                "/partition",
            )
        t0 = PromptHead.frozen_from(anchors, train.class_names)
        feeds.append((test, base_new_accuracy(t0, head_ce, head_conf, fitted, partition, tau=tau)))
    per_seed = [base_new_scores(split) for split in _score_test(feeds)]
    report = base_new_report(per_seed, cfg.seeds, cfg.config_hash())
    report.write(out / "report_eval.json")
    (out / "report_eval.csv").write_text(base_to_new_csv(report))
    _write_manifest(
        cfg, out, "eval", {"seeds": sorted(cfg.seeds), "per_config": report.per_config}
    )
    click.echo(f"wrote {out / 'report_eval.json'}")


@cli.command()
@_config_opt
@_set_opt
def fscil(config_path: str, overrides: tuple[str, ...]) -> None:
    """Run the class-incremental session benchmark."""
    cfg = _effective_config(config_path, overrides)
    _require_synthetic(cfg, "fscil")
    out = _out_dir(cfg)
    spec = cfg.partition or {}
    if spec.get("kind") == "explicit":
        raise ConfigError("fscil runs a session schedule, not explicit sets", "/partition/kind")
    if spec.get("seed") is not None:
        raise ConfigError("fscil draws each run seed's own schedule", "/partition/seed")
    scheduled = spec.get("kind") == "session_schedule"
    try:
        harness = cfg
        if scheduled:
            way = cfg.fscil_way if spec.get("way") is None else spec["way"]
            harness = replace(cfg, fscil_base_size=spec.get("base_size"), fscil_way=way)
        partition = fscil_partition(harness, cfg.synthetic.num_classes, cfg.seed)
    except ValueError as exc:
        pointer = "/partition" if scheduled else "/data/synthetic/num_classes"
        raise ConfigError(str(exc), pointer) from exc
    pool = _check_pool_file(cfg, cfg.synthetic.dim)
    _check_pool_size(cfg, pool, len(partition.subsets[1]))
    report = fscil_run(harness, config_hash=cfg.config_hash(), pool=pool)
    report.write(out / "report_fscil.json")
    (out / "report_fscil.csv").write_text(fscil_csv(report))
    _write_manifest(
        cfg, out, "fscil",
        {"mean": report.mean_acc, "pd": report.pd, "sessions": report.session_acc},
    )
    click.echo(f"wrote {out / 'report_fscil.json'}")


@cli.command()
@_config_opt
@_set_opt
@click.option("--splits", type=click.IntRange(min=2), default=10, show_default=True)
def assume(config_path: str, overrides: tuple[str, ...], splits: int) -> None:
    """Validate the specialization assumption with paired t-tests."""
    cfg = _effective_config(config_path, overrides)
    _require_synthetic(cfg, "assume")
    out = _out_dir(cfg)
    report = assumption_check(cfg, splits=splits, config_hash=cfg.config_hash())
    report.write(out / "report_assume.json")
    _write_manifest(cfg, out, "assume", {"t_tests": report.t_tests})
    click.echo(f"wrote {out / 'report_assume.json'}")
    click.echo(f"validated: {report.t_tests['validated']}")


@cli.command()
@_config_opt
@_set_opt
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True)
def bound(config_path: str, overrides: tuple[str, ...], trials: int) -> None:
    """Sweep random ensembles against the mixture error bound."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    result = bound_sweep(trials=trials, seed=cfg.seed)
    payload = {"config_hash": cfg.config_hash(), **result}
    _write_json(out / "report_bound.json", payload)
    _write_manifest(cfg, out, "bound", result)
    click.echo(f"min gap over {trials} trials: {result['min_gap']:.3e}")
    if not result["all_non_negative"]:
        raise RuntimeError("mixture error bound violated beyond tolerance")


@cli.command(name="losses")
@_config_opt
@_set_opt
def losses_cmd(config_path: str, overrides: tuple[str, ...]) -> None:
    """Compare tuning-domain accuracy across the loss zoo."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    _, domain = _domain_source(cfg)
    scorers = {kind: ((kind,), None) for kind in LOSS_KINDS}
    # ce_conf is the CoA-loss at the method's w; loss.w weighs ce_mae
    losses = {kind: replace(cfg.loss, kind=kind) for kind in LOSS_KINDS}
    losses["ce_conf"] = cfg.conf_loss
    feeds = []
    for seed in sorted(cfg.seeds):
        train, anchors, test = domain(seed)
        partition, base = _tuning_split(cfg, train, seed)
        base_classes = partition.subsets[1]
        tuned = tune_prompts([
            subset_run(anchors, train.class_names, base, base_classes,
                       losses[kind], replace(cfg.optimizer, seed=seed),
                       cfg.hyper.context_len, seed, cfg.tau)
            for kind in LOSS_KINDS
        ])
        heads = {kind: head for kind, (head, _, _) in zip(LOSS_KINDS, tuned)}
        feeds.append((test, SplitAccuracy(heads, scorers, {"base": base_classes})))
    splits = _score_test(feeds)
    accs = {kind: [split["base"][kind] for split in splits] for kind in LOSS_KINDS}
    rows = {kind: {"base_accuracy": float(np.mean(accs[kind]))} for kind in LOSS_KINDS}
    payload = {"config_hash": cfg.config_hash(), "losses": rows, "seeds": sorted(cfg.seeds)}
    _write_json(out / "report_losses.json", payload)
    csv = "loss,base_accuracy\n" + "".join(
        f"{kind},{rows[kind]['base_accuracy']:.4f}\n" for kind in LOSS_KINDS
    )
    (out / "report_losses.csv").write_text(csv)
    _write_manifest(cfg, out, "losses", {"losses": rows})
    click.echo(f"wrote {out / 'report_losses.json'}")


@cli.command()
@_config_opt
@_set_opt
def report(config_path: str, overrides: tuple[str, ...]) -> None:
    """Merge the run directory's manifests and reports into a summary."""
    cfg = _effective_config(config_path, overrides)
    out = _out_dir(cfg)
    merged: dict = {"config_hash": cfg.config_hash(), "runs": {}}
    for path in sorted(out.glob("manifest_*.json")) + sorted(out.glob("report_*.json")):
        merged["runs"][path.name] = json.loads(path.read_text())
    _write_json(out / "summary.json", merged)
    click.echo(f"merged {len(merged['runs'])} artifacts into {out / 'summary.json'}")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (ConfigError, ArtifactError, ValueError, click.UsageError) as exc:
        # precondition violations (bad config, bad partition, bad inputs)
        message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
        click.echo(f"error: {message}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        click.echo(f"runtime failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
