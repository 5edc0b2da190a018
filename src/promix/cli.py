"""Command-line surface: one JSON config, one command per pipeline stage.

Commands: gen (write synthetic embedding files), tune (prompt tuning),
weights (mixture-weight fitting), eval (base/new comparison from the
tuned artifacts), fscil / assume / bound / losses (self-contained
harnesses), report (merge run outputs). Exit codes: 0 success, 1
validation or precondition error, 2 runtime failure.

Every output lands under the config's out_dir and is byte-reproducible
for a fixed config and seed: reports are canonical JSON (sorted keys, no
timestamps). Every setting comes from the config file and its ``--set``
overrides, the seed too (``--set seed=N``). Each run seed's partition
is drawn once per command.

Every command has one shape, set by :func:`_command`: load the config,
run the command's config-level check, create out_dir, run the command,
then write ``manifest_<command>.json`` from what it returns (``report``
writes none). A command that fails writes no manifest. The CLI stamps
the config's hash into every manifest and, through :func:`_write_report`,
every report; a report built by the library carries an empty
``config_hash``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from promix.config import ConfigError, RunConfig, load_config
from promix.embedspace import (
    EmbeddingFileError,
    FieldError,
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
    EvalReport,
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
from promix.head import CheckpointError, PromptHead, checkpoint_reader, load_head, save_head
from promix.losses import LOSS_KINDS
from promix.mixture import load_weights, save_weights
from promix.train import tune_prompts


class ArtifactError(RuntimeError):
    """A required checkpoint from an earlier stage is missing."""


def _require_synthetic(cfg: RunConfig, command: str) -> None:
    if cfg.files is not None:
        raise ConfigError(f"{command} requires a synthetic data source", "/data")


def _require_base_new(cfg: RunConfig, command: str) -> None:
    """A base/new mixture has one head per subset: Y_0's frozen, Y_1's tuned."""
    kind = (cfg.partition or {}).get("kind")
    if kind == "session_schedule" or (kind == "explicit" and len(cfg.partition["sets"] or []) != 2):
        pointer = "/partition/kind" if kind == "session_schedule" else "/partition/sets"
        raise ConfigError(f"{command} needs a base/new partition of two subsets", pointer)


def _require_fscil(cfg: RunConfig, command: str) -> None:
    """fscil draws each run seed's own session schedule on a synthetic domain
    and fits two_stage logits, one head per session."""
    _require_synthetic(cfg, command)
    if cfg.parameterization == "one_stage":
        raise ConfigError("one_stage weights need exactly one specialized head; fscil fits one "
                          "per session, as two_stage logits", "/weights/parameterization")
    spec = cfg.partition or {}
    if spec.get("kind") == "explicit":
        raise ConfigError("fscil runs a session schedule, not explicit sets", "/partition/kind")
    if spec.get("seed") is not None:
        raise ConfigError("fscil draws each run seed's own schedule", "/partition/seed")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    """(dim, seed -> (partition, base, anchors, test)) for the configured source.

    Each seed's partition is drawn once, and ``base`` is its base split: the
    training rows of the tuning classes ``partition.subsets[1]``, global
    labels kept, which must not be empty. ``test`` is the test split as
    (vectors, labels) chunks of CHUNK_ROWS rows, read or drawn only while it
    is iterated, once. Data files are read here, once, except the test file:
    only its header is read here, for its class list and size checks, and one
    stream of its samples is shared by every seed. A synthetic domain is made
    per seed, its test split drawn chunk by chunk as it is iterated, and of
    its training set only the base split is drawn.
    """
    if cfg.files is None:
        def generate(seed: int, tuned: np.ndarray):
            parts = synthetic_parts(cfg.synthetic, seed, tuned)
            return parts.train, parts.generalized_prototypes, parts.test_chunks()

        return cfg.synthetic.dim, _per_seed(cfg, cfg.synthetic.num_classes, generate)
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
    return train.dim, _per_seed(cfg, len(train.class_names), lambda _seed, _tuned: data)


def _per_seed(cfg: RunConfig, n_classes: int, draw):
    """seed -> (partition, base, anchors, test): the seed's partition, whose
    held-out and tuning subsets must not be empty, then the (train, anchors,
    test) of ``draw(seed, tuning classes)``."""
    spec = cfg.partition or {"kind": "base_new_even_split"}
    pointer = "/partition/sets" if spec["kind"] == "explicit" else "/partition"

    def domain(seed: int):
        try:
            partition = partition_classes(
                n_classes, spec["kind"], base_size=spec.get("base_size"), way=spec.get("way"),
                sets=spec.get("sets"), seed=seed if spec.get("seed") is None else spec["seed"])
        except ValueError as exc:
            raise ConfigError(str(exc), pointer) from exc
        if not (len(partition.subsets[0]) and len(partition.subsets[1])):
            raise ConfigError("a base/new run needs a partition with non-empty tuning and "
                              "held-out subsets", pointer)
        train, anchors, test = draw(seed, partition.subsets[1])
        base = train.with_labels_in(partition.subsets[1])
        if not len(base):  # a synthetic domain has rows of every tuned class
            raise ConfigError("the training set has no rows of the base split", "/data/files/train")
        return partition, base, anchors, test

    return domain


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


def _check_outclass(cfg: RunConfig, pool: np.ndarray | None, in_class_size: int) -> None:
    """Apply the out-class rule, :meth:`OutclassStrategy.resolved_count`, to
    the set drawn from ``pool``, or else from ``pool_size`` generated words;
    a rejection names the config entry at fault."""
    try:
        cfg.outclass.resolved_count(in_class_size, cfg.pool_size if pool is None else len(pool))
    except FieldError as exc:
        field = "pool_file" if exc.field == "pool_size" and cfg.pool_file else exc.field
        raise ConfigError(exc.reason, f"/outclass/{field}") from exc


def _head_paths(out: Path, seed: int) -> dict[str, Path]:
    heads = out / "heads"
    return {"ce": heads / f"seed{seed}_ce.json", "conf": heads / f"seed{seed}_conf.json"}


def _weight_path(out: Path, seed: int) -> Path:
    return out / "weights" / f"seed{seed}.json"


@click.group()
def cli() -> None:
    """Confusion-aware prompt tuning and prompt mixtures over embeddings."""


def _command(name: str, check=None, options: tuple[click.Option, ...] = ()):
    """Register ``body(cfg, out, **options)`` as the command ``name``, with
    ``--config``, ``--set`` and then ``options``. A run loads the config,
    applies the config-level ``check(cfg, name)``, creates out_dir, runs the
    body and writes ``manifest_<name>.json`` from the payload it returns, if
    any: a body that raises writes no manifest."""

    def register(body):
        def run(config_path: str, overrides: tuple[str, ...], **opts) -> None:
            cfg = load_config(config_path, overrides)
            if check is not None:
                check(cfg, name)
            out = Path(cfg.out_dir)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create the output directory: {exc}", "/out_dir") from exc
            payload = body(cfg, out, **opts)
            if payload is not None:
                manifest = {"command": name, "config_hash": cfg.config_hash(), **payload}
                _write_json(out / f"manifest_{name}.json", manifest)

        params = [
            click.Option(["--config", "config_path"], required=True, type=click.Path(),
                         help="Run config JSON."),
            click.Option(["--set", "overrides"], multiple=True, metavar="PATH=VALUE",
                         help="Override a config entry, e.g. --set optimizer.epochs=10"),
            *options,
        ]
        return cli.command(name, params=params, help=body.__doc__)(run)

    return register


def _write_report(cfg: RunConfig, out: Path, command: str, report: EvalReport | dict) -> None:
    """Write ``report_<command>.json``, an EvalReport or a dict payload,
    stamped with the config's hash."""
    path = out / f"report_{command}.json"
    if isinstance(report, EvalReport):
        replace(report, config_hash=cfg.config_hash()).write(path)
    else:
        _write_json(path, {"config_hash": cfg.config_hash(), **report})


@_command("gen", _require_synthetic)
def gen(cfg: RunConfig, out: Path) -> dict:
    """Write the synthetic domain as embedding files."""
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    dom = synthetic_parts(cfg.synthetic, cfg.seed)
    names = dom.train.class_names
    write_embedding_file(dom.train, data_dir / "train.emb")
    write_embedding_blocks(
        dom.train.dim, len(names) * cfg.synthetic.test_per_class, names,
        dom.test_chunks(), data_dir / "test.emb",
    )
    write_embedding_file(prototype_set(dom.generalized_prototypes, names), data_dir / "anchors.emb")
    write_embedding_file(prototype_set(dom.true_prototypes, names), data_dir / "true_prototypes.emb")
    click.echo(f"wrote 4 embedding files under {data_dir}")
    return {"seed": cfg.seed,
            "files": ["train.emb", "test.emb", "anchors.emb", "true_prototypes.emb"]}


@_command("tune", _require_base_new)
def tune(cfg: RunConfig, out: Path) -> dict:
    """Tune the baseline (plain CE) and mixture heads per seed."""
    (out / "heads").mkdir(exist_ok=True)
    dim, domain = _domain_source(cfg)
    pool = _check_pool_file(cfg, dim)
    metrics = {}
    for seed in sorted(cfg.seeds):
        partition, base, anchors, _test = domain(seed)
        _check_outclass(cfg, pool, len(partition.subsets[1]))
        head_ce, mix_head, mix_tau, traces = tune_base_new_heads(
            cfg, base, anchors, partition, seed
        )
        heads = {"ce": head_ce, "conf": mix_head}
        train_acc = SplitAccuracy(heads, {"base": partition.subsets[1]}).score(base.chunks())
        paths = _head_paths(out, seed)
        for label, tau in (("ce", cfg.tau), ("conf", mix_tau)):
            save_head(heads[label], tau, paths[label])
            metrics[f"seed{seed}_{label}"] = {"train_accuracy": train_acc["base"][label],
                                              "loss_trace": traces[label]}
    click.echo(f"tuned {2 * len(cfg.seeds)} heads under {out / 'heads'}")
    return {"seeds": sorted(cfg.seeds), "metrics": metrics}


@_command("weights", _require_base_new)
def weights(cfg: RunConfig, out: Path) -> dict:
    """Fit the in/out mixture weights from the tuned heads."""
    (out / "weights").mkdir(exist_ok=True)
    dim, domain = _domain_source(cfg)
    pool = _check_pool_file(cfg, dim)
    fitted = {}
    for seed in sorted(cfg.seeds):
        partition, base, anchors, _test = domain(seed)
        paths = _head_paths(out, seed)
        for path in paths.values():
            if not path.exists():
                raise ArtifactError(f"missing head checkpoint {path}; run `tune` first")
        _, tau = load_head(paths["ce"], anchors, base.class_names)
        mix_head, mix_tau = load_head(paths["conf"], anchors, base.class_names)
        _check_outclass(cfg, pool, len(partition.subsets[1]))
        out_anchors = outclass_anchors(cfg, dim, seed, len(partition.subsets[1]), pool)
        fit = fit_base_new_weights(
            replace(cfg, tau=tau), mix_head, mix_tau, base, anchors, partition, out_anchors
        )
        save_weights(fit, _weight_path(out, seed))
        fitted[f"seed{seed}"] = fit.to_dict()
    click.echo(f"fitted weights for {len(cfg.seeds)} seeds under {out / 'weights'}")
    return {"seeds": sorted(cfg.seeds), "weights": fitted}


@_command("eval", _require_base_new)
def eval_cmd(cfg: RunConfig, out: Path) -> dict:
    """Score the four comparison configurations from saved artifacts."""
    _, domain = _domain_source(cfg)
    feeds = []
    for seed in sorted(cfg.seeds):
        partition, base, anchors, test = domain(seed)
        paths = _head_paths(out, seed)
        wpath = _weight_path(out, seed)
        for p in (*paths.values(), wpath):
            if not Path(p).exists():
                raise ArtifactError(f"missing checkpoint {p}; run `tune` and `weights` first")
        names = base.class_names
        del base  # eval scores no training row, so the split is not held while it scores
        head_ce, tau = load_head(paths["ce"], anchors, names)
        head_conf, _ = load_head(paths["conf"], anchors, names)
        fitted = load_weights(wpath)
        if fitted.parameterization != cfg.parameterization:
            raise CheckpointError(f"{wpath}: /parameterization: expected "
                                  f"{cfg.parameterization}, the config's weights.parameterization")
        if fitted.num_specialized != 1:
            raise CheckpointError(f"{wpath}: /raw/alphas_in: expected one logit, for the one "
                                  f"tuned head")
        t0 = PromptHead.frozen_from(anchors, names)
        feeds.append((test, base_new_accuracy(t0, head_ce, head_conf, fitted, partition, tau=tau)))
    per_seed = [base_new_scores(split) for split in _score_test(feeds)]
    report = base_new_report(per_seed, cfg.seeds)
    _write_report(cfg, out, "eval", report)
    (out / "report_eval.csv").write_text(base_to_new_csv(report))
    click.echo(f"wrote {out / 'report_eval.json'}")
    return {"seeds": sorted(cfg.seeds), "per_config": report.per_config}


@_command("fscil", _require_fscil)
def fscil(cfg: RunConfig, out: Path) -> dict:
    """Run the class-incremental session benchmark."""
    spec = cfg.partition or {}
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
    _check_outclass(cfg, pool, len(partition.subsets[1]))
    report = fscil_run(harness, pool=pool)
    _write_report(cfg, out, "fscil", report)
    (out / "report_fscil.csv").write_text(fscil_csv(report))
    click.echo(f"wrote {out / 'report_fscil.json'}")
    return {"mean": report.mean_acc, "pd": report.pd, "sessions": report.session_acc}


@_command("assume", _require_synthetic, (
    click.Option(["--splits"], type=click.IntRange(min=2), default=10, show_default=True),
))
def assume(cfg: RunConfig, out: Path, splits: int) -> dict:
    """Validate the specialization assumption with paired t-tests."""
    report = assumption_check(cfg, splits=splits)
    _write_report(cfg, out, "assume", report)
    click.echo(f"wrote {out / 'report_assume.json'}")
    click.echo(f"validated: {report.t_tests['validated']}")
    return {"t_tests": report.t_tests}


@_command("bound", options=(
    click.Option(["--trials"], type=click.IntRange(min=1), default=1000, show_default=True),
))
def bound(cfg: RunConfig, out: Path, trials: int) -> dict:
    """Sweep random ensembles against the mixture error bound."""
    result = bound_sweep(trials=trials, seed=cfg.seed)
    _write_report(cfg, out, "bound", result)
    click.echo(f"min gap over {trials} trials: {result['min_gap']:.3e}")
    if not result["all_non_negative"]:
        raise RuntimeError("mixture error bound violated beyond tolerance")
    return result


@_command("losses", _require_base_new)
def losses_cmd(cfg: RunConfig, out: Path) -> dict:
    """Compare tuning-domain accuracy across the loss zoo."""
    _, domain = _domain_source(cfg)
    # ce_conf is the CoA-loss at the method's w; loss.w weighs ce_mae
    losses = {kind: replace(cfg.loss, kind=kind) for kind in LOSS_KINDS}
    losses["ce_conf"] = cfg.conf_loss
    feeds = []
    for seed in sorted(cfg.seeds):
        partition, base, anchors, test = domain(seed)
        base_classes = partition.subsets[1]
        tuned = tune_prompts([
            subset_run(anchors, base.class_names, base, base_classes,
                       losses[kind], cfg.optimizer, cfg.hyper.context_len, seed, cfg.tau)
            for kind in LOSS_KINDS
        ])
        heads = {kind: head for kind, (head, _, _) in zip(LOSS_KINDS, tuned)}
        feeds.append((test, SplitAccuracy(heads, {"base": base_classes})))
    splits = _score_test(feeds)
    accs = {kind: [split["base"][kind] for split in splits] for kind in LOSS_KINDS}
    rows = {kind: {"base_accuracy": float(np.mean(accs[kind]))} for kind in LOSS_KINDS}
    _write_report(cfg, out, "losses", {"losses": rows, "seeds": sorted(cfg.seeds)})
    csv = "loss,base_accuracy\n" + "".join(
        f"{kind},{rows[kind]['base_accuracy']:.4f}\n" for kind in LOSS_KINDS
    )
    (out / "report_losses.csv").write_text(csv)
    click.echo(f"wrote {out / 'report_losses.json'}")
    return {"losses": rows}


@_command("report")
def report(cfg: RunConfig, out: Path) -> None:
    """Merge the run directory's manifests and reports into a summary."""
    merged: dict = {"config_hash": cfg.config_hash(), "runs": {}}
    for path in sorted(out.glob("manifest_*.json")) + sorted(out.glob("report_*.json")):
        merged["runs"][path.name] = checkpoint_reader(path)("", lambda v: True, "JSON")
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
