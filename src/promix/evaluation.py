"""Benchmarks, statistics, and report emission.

Harnesses at desk scale: the base/new generalization comparison (four
configurations over three seeds), the class-incremental session protocol,
the specialized-vs-generalized assumption check with paired t-tests, the
ensemble-bound sweep, and the confusing-sample analysis. All harnesses
are deterministic per seed; multi-seed fan-out may run in parallel, with
reduction order fixed by sorting on the seed.

``jobs`` cuts the seeds, or the assumption check's splits, into contiguous
groups, one per worker process; results do not depend on it. Within a
group ``tune_prompts`` tunes in lockstep the splits of the assumption
check, the CE/CoA twins of the confusing-sample analysis, and the
incremental sessions of equal row counts (tuned before the weights, which
they do not depend on); base/new tunes each seed's CE head and its mixture
head (a one_stage run under that parameterization) one at a time.

Every accuracy is counted chunk by chunk by :class:`SplitAccuracy`, on the
``candidates`` every split ranks; a head used by several scorers is scored
once per chunk and shared, any other only while its own scorer runs.

Aggregation convention: ``base_new_report`` averages each configuration's
per-seed harmonic means; its H is not the harmonic mean of the averaged
base and new accuracies.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from promix.embedspace import (
    DomainPartition,
    EmbeddingSet,
    FieldError,
    SyntheticConfig,
    SyntheticDomain,
    SyntheticParts,
    generate_synthetic,
    partition_classes,
    synthetic_parts,
    unit_normalize,
)
from promix.head import DEFAULT_TAU, PromptHead, predict_matrix, similarity_matrix
from promix.losses import LossConfig
from promix.mixture import (
    MixtureModel,
    MixtureWeights,
    _stack_gap,
    bound_gap,
    mixture_scaled_logits,
)
from promix.outclass import OutclassStrategy, generate_outclass, generate_vocab_pool
from promix.stats import TTestResult, t_test_paired_one_sided
from promix.train import (
    BLOCK_ELEMS,
    HyperParams,
    OptimizerConfig,
    TuneRun,
    optimize_in_weight,
    optimize_out_weight,
    tune_prompt,
    tune_prompts,
)

CONFIG_NAMES = ("zero_shot", "uniform_ensemble", "conf_uniform", "fitted_mixture")

FSCIL_CONTEXT_LEN = 2
FSCIL_MARGIN = 0.1
FSCIL_INITIAL_WEIGHT_EPOCHS = 2
FSCIL_LATER_WEIGHT_EPOCHS = 100
SCORE_BLOCK_ROWS = 256  # the fewest rows a scoring block takes: smaller gemms run slower


def fscil_default_synthetic() -> SyntheticConfig:
    """100-class domain sized for the 60 + 8x5 session schedule."""
    return SyntheticConfig(
        dim=48, num_classes=100, shots=5, test_per_class=30,
        intra_noise=0.08, proto_noise=0.20, confusion_pairs=10, seed=0,
    )


def assumption_default_synthetic() -> SyntheticConfig:
    """100-class domain for the specialized-vs-generalized split protocol."""
    return SyntheticConfig(
        dim=48, num_classes=100, shots=16, test_per_class=20,
        intra_noise=0.10, proto_noise=0.25, confusion_pairs=30, seed=0,
    )


def harmonic_mean(base: float, new: float) -> float:
    """2 b n / (b + n); zero when either side is zero."""
    if base < 0 or new < 0:
        raise ValueError("accuracies must be non-negative")
    if base == 0.0 or new == 0.0:
        return 0.0
    return 2.0 * base * new / (base + new)


def accuracy(
    model_or_head: MixtureModel | PromptHead,
    emb_set: EmbeddingSet,
    classes: Sequence[int] | None = None,
) -> float:
    """Percentage of samples whose argmax prediction matches the label,
    counted chunk by chunk by a one-split :class:`SplitAccuracy`.

    ``classes`` restricts the candidates, and only their columns are
    scored; a sample whose label is not a candidate counts as wrong, and
    ties break toward the lowest class index. Labels stay global.
    """
    model = model_or_head if isinstance(model_or_head, MixtureModel) else None
    heads = {str(k): h for k, h in enumerate([model_or_head] if model is None else model.heads)}
    every_class = {"all": range(len(emb_set.class_names))}
    acc = SplitAccuracy(heads, {"all": (tuple(heads), model)}, every_class, candidates=classes)
    return acc.score(emb_set.chunks())["all"]["all"]


def classify_samples(
    baseline: PromptHead,
    emb_set: EmbeddingSet,
    gap_threshold: float = 0.2,
    tau: float = DEFAULT_TAU,
) -> np.ndarray:
    """Categorize samples by the baseline head's behavior.

    easy: baseline argmax is correct. confusing: misclassified with a
    probability gap p(pred) - p(true) at or below the threshold. hard:
    the remaining misclassified samples. Returns an array of the three
    category strings; the categories partition the set.
    """
    probs = predict_matrix(similarity_matrix(baseline, emb_set.vectors), tau)
    pred = np.argmax(probs, axis=1)
    rows = np.arange(len(emb_set))
    gap = probs[rows, pred] - probs[rows, emb_set.labels]
    correct = pred == emb_set.labels
    out = np.where(correct, "easy", np.where(gap <= gap_threshold, "confusing", "hard"))
    return out.astype("U9")


@dataclass(frozen=True)
class HarnessConfig:
    """Shared configuration for the benchmark harnesses. Construction checks
    each field's range and raises a FieldError naming the first bad one.
    The harnesses build their losses by role: plain CE, and :attr:`conf_loss`."""

    synthetic: SyntheticConfig = SyntheticConfig()
    hyper: HyperParams = HyperParams()
    optimizer: OptimizerConfig = OptimizerConfig()
    outclass: OutclassStrategy = OutclassStrategy()
    parameterization: str = "two_stage"
    seeds: tuple[int, ...] = (0, 1, 2)
    pool_size: int = 64
    tau: float = DEFAULT_TAU
    jobs: int = 1
    fscil_base_size: int | None = None
    fscil_way: int = 5

    def __post_init__(self):
        if not self.seeds:
            raise FieldError("seeds", "must be non-empty")
        for i, seed in enumerate(self.seeds):
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise FieldError(f"seeds/{i}", "must be a non-negative int")
        if len(set(self.seeds)) != len(self.seeds):
            raise FieldError("seeds", "must be distinct")
        if self.parameterization not in ("one_stage", "two_stage"):
            raise FieldError("parameterization",
                             f"must be one_stage or two_stage, got {self.parameterization!r}")
        for name in ("pool_size", "jobs", "fscil_way"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be at least 1")
        if self.fscil_base_size is not None and self.fscil_base_size < 1:
            raise FieldError("fscil_base_size", "must be None or at least 1")
        if not 0 < self.tau < math.inf:
            raise FieldError("tau", "must be positive and finite")

    @property
    def conf_loss(self) -> LossConfig:
        """The CoA-loss: ce_conf with the method's w, ``hyper.conf_weight``."""
        return LossConfig("ce_conf", w=self.hyper.conf_weight)


@dataclass
class EvalReport:
    """Result container shared by the harnesses; unused sections stay None.

    ``per_config`` maps configuration name -> {"base", "new", "h"};
    ``session_acc`` lists per-session accuracies, from which the properties
    ``mean_acc`` and ``pd`` (first minus last) derive; ``t_tests`` holds the
    assumption-check statistics; ``extra`` carries harness-specific details
    (margins, per-seed values, category counts).
    """

    kind: str
    config_hash: str = ""
    per_config: dict | None = None
    session_acc: list[float] | None = None
    category_counts: dict | None = None
    t_tests: dict | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.per_config is not None:
            for name, row in self.per_config.items():
                for key in ("base", "new", "h"):
                    if not 0.0 <= row[key] <= 100.0:
                        raise ValueError(f"{name}.{key} out of [0, 100]")
                if row["h"] > max(row["base"], row["new"]) + 1e-9:
                    raise ValueError(f"{name}: harmonic mean exceeds both accuracies")
        if self.session_acc is not None:
            if any(not 0.0 <= a <= 100.0 for a in self.session_acc):
                raise ValueError("session accuracy out of [0, 100]")

    @property
    def mean_acc(self) -> float | None:
        acc = self.session_acc
        return None if acc is None else float(np.mean(acc))

    @property
    def pd(self) -> float | None:
        acc = self.session_acc
        return None if acc is None else float(acc[0] - acc[-1])

    def to_dict(self) -> dict:
        doc = {**asdict(self), "mean_acc": self.mean_acc, "pd": self.pd}
        return {k: v for k, v in doc.items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json())


def subset_run(
    anchors: np.ndarray,
    names: tuple[str, ...],
    train_set: EmbeddingSet,
    classes: np.ndarray,
    loss: LossConfig,
    opt: OptimizerConfig,
    context_len: int,
    seed: int,
    tau: float,
) -> TuneRun:
    """A tuning run on a class subset: a fresh head on ``anchors`` (context
    drawn from ``seed``) trained on the columns and rows of ``classes``."""
    init = PromptHead.with_random_context(anchors, names, context_len, seed)
    return TuneRun(init, train_set, loss, opt, tau, classes=classes)


def fit_weights(
    model: MixtureModel,
    train_in: EmbeddingSet,
    out_anchors: np.ndarray,
    hyper: HyperParams,
    opt: OptimizerConfig,
    prompt: int = 1,
    classes: np.ndarray | None = None,
    epochs: int | None = None,
) -> MixtureModel:
    """Run the weight stages for one specialized head, each for ``epochs``: the
    in-weight, then the out-weight. A one_stage in-weight is the head's own
    temperature, learned with its context, so only the out-weight is fitted."""
    if model.weights.parameterization != "one_stage":
        model, _ = optimize_in_weight(
            model, train_in, prompt=prompt, opt=opt, classes=classes, epochs=epochs
        )
    if out_anchors.shape[0]:
        model, _ = optimize_out_weight(
            model,
            train_in,
            out_anchors,
            prompt=prompt,
            margin=hyper.margin,
            ent_weight=hyper.ent_weight,
            opt=opt,
            epochs=epochs,
        )
    return model


def outclass_anchors(
    cfg: HarnessConfig, dim: int, seed: int, in_class_size: int, pool: np.ndarray | None = None
) -> np.ndarray:
    """Surrogate out-class anchors for one seed. Random words come from the
    word vectors ``pool`` when given, else from a pool of ``cfg.pool_size``
    words generated (seed + 7919) for the kinds that read one; the draw uses seed + 104729."""
    if pool is None and cfg.outclass.kind in ("random_word", "mixed"):
        pool = generate_vocab_pool(dim, cfg.pool_size, seed=seed + 7919)
    return generate_outclass(
        cfg.outclass, dim, seed=seed + 104729, vocab_pool=pool, in_class_size=in_class_size
    )


class SplitAccuracy:
    """Percent correct of named scorers on the test rows of class splits,
    counted chunk by chunk so that no split's rows are ever held whole.

    ``splits`` maps a split name to the classes whose rows it counts.
    ``candidates`` is the one class list that every split ranks, so a row
    whose label is not a candidate counts as wrong; with None each split
    ranks its own classes. ``heads`` maps a key to a head, scored on the
    ranked columns only. ``scorers`` maps a name to (head keys, model):
    with ``model`` None the first key's head scores alone, otherwise
    ``model`` mixes the keyed heads' similarities.

    A head keyed by more than one scorer is scored once per chunk and
    split and shared between them. Any other head is scored only when its
    scorer runs and is dropped once summed into the mixture, so a block of
    rows holds the shared heads' similarities and about three more arrays of
    rows x ranked columns, however many heads a mixture has.
    """

    def __init__(
        self,
        heads: dict[str, PromptHead],
        scorers: dict[str, tuple[tuple[str, ...], MixtureModel | None]],
        splits: dict[str, Sequence[int]],
        candidates: Sequence[int] | None = None,
    ):
        self._splits = {name: _sorted_classes(classes) for name, classes in splits.items()}
        ranked = None if candidates is None else _sorted_classes(candidates)
        self._ranked = {
            name: idx if ranked is None else ranked for name, idx in self._splits.items()
        }
        self._heads = {
            name: {key: _frozen_on(h, idx) for key, h in heads.items()}
            for name, idx in self._ranked.items()
        }
        uses = [key for keys, _ in scorers.values() for key in set(keys)]
        self._shared = tuple(key for key in heads if uses.count(key) > 1)
        self._scorers = scorers
        self._correct = {name: dict.fromkeys(scorers, 0) for name in self._splits}
        self._total = dict.fromkeys(self._splits, 0)

    def add(self, vectors: np.ndarray, labels: np.ndarray) -> None:
        """Count one chunk of test rows; the chunk is not kept. A split's rows are
        scored in blocks of max(SCORE_BLOCK_ROWS, BLOCK_ELEMS // ranked) rows."""
        for name, idx in self._splits.items():
            mask = np.isin(labels, idx)
            if not mask.any():
                continue
            rows, row_labels = vectors[mask], labels[mask]
            step = max(SCORE_BLOCK_ROWS, BLOCK_ELEMS // len(self._ranked[name]))
            for lo in range(0, len(rows), step):
                self._add_block(name, rows[lo : lo + step], row_labels[lo : lo + step])
            self._total[name] += len(row_labels)

    def _add_block(self, name: str, rows: np.ndarray, row_labels: np.ndarray) -> None:
        heads, ranked = self._heads[name], self._ranked[name]
        held = {key: similarity_matrix(heads[key], rows) for key in self._shared}
        for scorer, (keys, model) in self._scorers.items():
            sims = (held[k] if k in held else similarity_matrix(heads[k], rows) for k in keys)
            if model is None:
                logits = next(sims)
            else:
                logits = mixture_scaled_logits(model, rows, ranked, sims)
            pred = ranked[np.argmax(logits, axis=1)]
            self._correct[name][scorer] += int(np.count_nonzero(pred == row_labels))

    def percents(self) -> dict[str, dict[str, float]]:
        """Split name -> scorer name -> percent correct over every row added,
        from exact counts; a split with no rows is an error."""
        for name, total in self._total.items():
            if total == 0:
                raise ValueError(f"accuracy of an empty set: no rows of the {name} split")
        return {
            name: {scorer: n / self._total[name] * 100.0 for scorer, n in counts.items()}
            for name, counts in self._correct.items()
        }

    def score(self, chunks) -> dict[str, dict[str, float]]:
        """Add every (vectors, labels) chunk of ``chunks``; return :meth:`percents`."""
        for vectors, labels in chunks:
            self.add(vectors, labels)
        return self.percents()


def _sorted_classes(classes: Sequence[int]) -> np.ndarray:
    return np.sort(np.asarray(list(classes), dtype=np.int64))


def _frozen_on(head: PromptHead, idx: np.ndarray) -> PromptHead:
    """The head's effective embeddings of the classes ``idx`` as a frozen
    head: they are normalized once, and its similarities are rows @ them.T."""
    restricted = head.restrict(idx)
    return PromptHead.frozen_from(restricted.effective_embeddings(), restricted.class_names)


def base_new_accuracy(
    t0: PromptHead,
    head_ce: PromptHead,
    head_conf: PromptHead,
    fitted_weights: MixtureWeights,
    partition: DomainPartition,
    tau: float = DEFAULT_TAU,
) -> SplitAccuracy:
    """The accumulator of the four comparison configurations, on the base
    (``partition.subsets[1]``) and new (``partition.subsets[0]``) splits."""
    uniform = MixtureWeights.uniform(1)
    heads = {"t0": t0, "ce": head_ce, "conf": head_conf}

    def mixed(key: str, weights: MixtureWeights):
        return ("t0", key), MixtureModel((t0, heads[key]), weights, partition, tau=tau)

    scorers = {"zero_shot": (("t0",), None), "uniform_ensemble": mixed("ce", uniform),
               "conf_uniform": mixed("conf", uniform),
               "fitted_mixture": mixed("conf", fitted_weights)}
    splits = {"base": partition.subsets[1], "new": partition.subsets[0]}
    return SplitAccuracy(heads, scorers, splits)


def base_new_scores(split: dict[str, dict[str, float]]) -> dict:
    """Base, new and harmonic-mean accuracy per configuration, from the
    percents of an accumulator made by :func:`base_new_accuracy`."""
    base, new = split["base"], split["new"]
    return {
        name: {"base": base[name], "new": new[name], "h": harmonic_mean(base[name], new[name])}
        for name in CONFIG_NAMES
    }


def tune_base_new_heads(
    cfg: HarnessConfig,
    base_set: EmbeddingSet,
    anchors: np.ndarray,
    partition: DomainPartition,
    seed: int,
) -> tuple[PromptHead, PromptHead, float, dict[str, list[float]]]:
    """First base/new stage: tune the plain-CE head through :func:`tune_prompt`,
    then the mixture head as one :func:`tune_prompts` run, on the columns of
    the tuning classes ``partition.subsets[1]`` and on ``base_set``, which
    holds only their rows. Returns (CE head, mixture head, its temperature,
    the per-epoch loss trace of each keyed "ce" / "conf").

    Under two_stage the mixture head is the confusion-tuned head at the
    shared temperature ``cfg.tau``. Under one_stage it is tuned jointly
    with its own temperature tau_in (the coupling makes the in-weight part
    of prompt tuning itself), and the learned tau_in is returned.
    """
    if not np.isin(base_set.labels, partition.subsets[1]).all():
        raise ValueError("the base split holds rows of classes outside partition.subsets[1]")
    opt = replace(cfg.optimizer, seed=seed)
    ce_loss = LossConfig("ce")
    run = subset_run(anchors, base_set.class_names, base_set, partition.subsets[1], ce_loss,
                     opt, cfg.hyper.context_len, seed, cfg.tau)
    head_ce, trace_ce = tune_prompt(run.init, base_set, ce_loss, opt, cfg.tau, run.classes)
    mix_run = replace(run, loss=cfg.conf_loss, one_stage=cfg.parameterization == "one_stage")
    ((mix_head, mix_tau, trace_conf),) = tune_prompts([mix_run])
    return head_ce, mix_head, mix_tau, {"ce": trace_ce, "conf": trace_conf}


def fit_base_new_weights(
    cfg: HarnessConfig,
    mix_head: PromptHead,
    mix_tau: float,
    base_set: EmbeddingSet,
    anchors: np.ndarray,
    partition: DomainPartition,
    out_anchors: np.ndarray,
    seed: int,
) -> MixtureWeights:
    """Second base/new stage: fit the mixture head's weights against the
    frozen head on ``anchors``, on the base split ``base_set`` that tuning
    used. Under two_stage both weights are fitted, starting from the
    uniform ensemble. Under one_stage only tau_out is, starting from
    one_stage(mix_tau, tau, tau_0=tau)."""
    t0 = PromptHead.frozen_from(anchors, base_set.class_names)
    if cfg.parameterization == "one_stage":
        start = MixtureWeights.one_stage(mix_tau, cfg.tau, tau_0=cfg.tau)
    else:
        start = MixtureWeights.uniform(1)
    model = fit_weights(
        MixtureModel((t0, mix_head), start, partition, tau=cfg.tau), base_set, out_anchors,
        cfg.hyper, replace(cfg.optimizer, seed=seed), classes=partition.subsets[1],
    )
    return model.weights


def _base_to_new_single(cfg: HarnessConfig, seed: int) -> dict:
    """One seed of the four-configuration comparison: only the base split's
    train rows are drawn, and the test split is streamed."""
    partition = partition_classes(cfg.synthetic.num_classes, "base_new_even_split", seed=seed)
    parts = synthetic_parts(replace(cfg.synthetic, seed=seed), partition.subsets[1])
    base, anchors, names = parts.train, parts.generalized_prototypes, parts.train.class_names
    test = parts.test_chunks()
    del parts  # the stream does not hold the parts, so `del base` below frees the train split
    head_ce, mix_head, mix_tau, _ = tune_base_new_heads(cfg, base, anchors, partition, seed)
    out_anchors = outclass_anchors(cfg, base.dim, seed, len(partition.subsets[1]))
    weights = fit_base_new_weights(
        cfg, mix_head, mix_tau, base, anchors, partition, out_anchors, seed
    )
    del base
    t0 = PromptHead.frozen_from(anchors, names)
    acc = base_new_accuracy(t0, head_ce, mix_head, weights, partition, tau=cfg.tau)
    return base_new_scores(acc.score(test))


def _base_to_new_seeds(cfg: HarnessConfig, seeds: Sequence[int]) -> list[dict]:
    return [_base_to_new_single(cfg, seed) for seed in seeds]


def _run_seeds(worker: Callable, cfg: HarnessConfig, items: Sequence) -> list:
    """``worker(cfg, group)``, one result per item of its group, called on
    ``items`` cut in order into min(jobs, items, cores) contiguous groups, each
    in its own worker process when there are several; the results in order."""
    count = min(cfg.jobs, len(items), os.cpu_count() or 1)
    if count == 1:
        return worker(cfg, items)
    groups = [[items[i] for i in idx] for idx in np.array_split(np.arange(len(items)), count)]
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(worker, cfg, group) for group in groups]
        return [result for f in futures for result in f.result()]


def base_new_report(per_seed: list[dict], seeds, config_hash: str = "") -> EvalReport:
    """Average per-seed four-configuration scores (ordered as the sorted
    ``seeds``) into the base/new report, with the comparison margins."""
    per_config = {
        name: {
            key: float(np.mean([row[name][key] for row in per_seed]))
            for key in ("base", "new", "h")
        }
        for name in CONFIG_NAMES
    }
    margins = {
        "h_fitted_minus_uniform": per_config["fitted_mixture"]["h"]
        - per_config["uniform_ensemble"]["h"],
        "h_uniform_minus_zero_shot": per_config["uniform_ensemble"]["h"]
        - per_config["zero_shot"]["h"],
        "base_conf_minus_ce": per_config["conf_uniform"]["base"]
        - per_config["uniform_ensemble"]["base"],
    }
    return EvalReport(
        kind="base_to_new",
        config_hash=config_hash,
        per_config=per_config,
        extra={"seeds": sorted(seeds), "margins": margins, "per_seed": per_seed},
    )


def base_to_new_eval(cfg: HarnessConfig, config_hash: str = "") -> EvalReport:
    """Four configurations (zero-shot, uniform ensemble, confusion-loss +
    uniform ensemble, full method) averaged over the configured seeds."""
    per_seed = _run_seeds(_base_to_new_seeds, cfg, sorted(cfg.seeds))
    return base_new_report(per_seed, cfg.seeds, config_hash)


def fscil_partition(cfg: HarnessConfig, n_classes: int, seed: int) -> DomainPartition:
    """One seed's session schedule: ``cfg.fscil_base_size`` base classes (default 60%),
    then ``cfg.fscil_way``-class sessions; ValueError if it does not fit."""
    base_size = n_classes * 60 // 100 if cfg.fscil_base_size is None else cfg.fscil_base_size
    return partition_classes(n_classes, "session_schedule", seed=seed, base_size=base_size,
                             way=cfg.fscil_way)


def _fscil_group(pool: np.ndarray | None, cfg: HarnessConfig, seeds: Sequence[int]) -> list[dict]:
    """The incremental-session protocol for each of ``seeds``. Session heads do
    not depend on earlier weights, so every seed's are tuned first, in one call
    that steps sessions of equal row counts in lockstep; then seed by seed."""
    parts = [synthetic_parts(replace(cfg.synthetic, seed=seed)) for seed in seeds]
    partitions = [fscil_partition(cfg, cfg.synthetic.num_classes, seed) for seed in seeds]
    tuned = iter(tune_prompts([
        subset_run(p.generalized_prototypes, p.train.class_names, p.train, subset,
                   cfg.conf_loss, replace(cfg.optimizer, seed=seed), FSCIL_CONTEXT_LEN,
                   seed * 1000 + session, cfg.tau)
        for seed, p, partition in zip(seeds, parts, partitions)
        for session, subset in enumerate(partition.subsets[1:], start=1)
    ]))
    return [_fscil_sessions(cfg, seed, p, partition, tuned, pool)
            for seed, p, partition in zip(seeds, parts, partitions)]


def _fscil_sessions(cfg: HarnessConfig, seed: int, parts: SyntheticParts,
                    partition: DomainPartition, tuned: Iterator, pool: np.ndarray | None) -> dict:
    """One seed's sessions in order, each with the next head of ``tuned``: it
    fits its weights and scores the mixture on the test split, drawn here."""
    test = parts.test_set()
    names = parts.train.class_names
    anchors = parts.generalized_prototypes
    t0 = PromptHead.frozen_from(anchors, names)
    opt = replace(cfg.optimizer, seed=seed)

    heads: list[PromptHead] = [t0]
    raw_in: list[float] = []
    raw_out: list[float] = []
    session_acc: list[float] = []
    seen: np.ndarray = np.empty(0, dtype=np.int64)

    for session in range(1, len(partition.subsets)):
        session_classes = partition.subsets[session]
        seen = np.sort(np.concatenate([seen, session_classes]))
        heads.append(next(tuned)[0])
        raw_in.append(0.0)
        raw_out.append(0.0)

        unseen = np.setdiff1d(np.arange(len(names)), seen)
        subsets = [unseen] + [partition.subsets[i] for i in range(1, session + 1)]
        model_partition = DomainPartition(tuple(subsets))
        weights = MixtureWeights.two_stage(raw_in, raw_out)
        model = MixtureModel(tuple(heads), weights, model_partition, tau=cfg.tau)

        if session == 1:
            out_anchors = outclass_anchors(cfg, cfg.synthetic.dim, seed, len(session_classes), pool)
            weight_epochs = FSCIL_INITIAL_WEIGHT_EPOCHS
        else:
            previous = np.concatenate(
                [partition.subsets[i] for i in range(1, session)]
            )
            out_anchors = anchors[np.sort(previous)]
            weight_epochs = FSCIL_LATER_WEIGHT_EPOCHS
        train_in = parts.train.with_labels_in(session_classes)
        model = fit_weights(
            model, train_in, out_anchors,
            replace(cfg.hyper, margin=FSCIL_MARGIN), opt,
            prompt=session, classes=seen, epochs=weight_epochs,
        )
        raw_in = list(model.weights.raw_in)
        raw_out = list(model.weights.raw_out)

        keyed = {str(k): h for k, h in enumerate(model.heads)}
        scorers = {"mixture": (tuple(keyed), model), "t0": (("0",), None)}
        splits = {"seen": seen}
        if session == len(partition.subsets) - 1:
            splits["first"] = partition.subsets[1]
        split = SplitAccuracy(keyed, scorers, splits, candidates=seen).score(test.chunks())
        session_acc.append(split["seen"]["mixture"])

    return {
        "session_acc": session_acc,
        "final_first_session_acc": split["first"]["mixture"],
        "zero_shot_first_session_acc": split["first"]["t0"],
    }


def fscil_run(cfg: HarnessConfig, config_hash: str = "",
              pool: np.ndarray | None = None) -> EvalReport:
    """Class-incremental protocol: per session, tune a short-context head on the
    session's classes, fit its weights (the first session's out-class anchors are
    drawn by :func:`outclass_anchors` from ``pool``, later ones are the previous
    sessions' classes), then score the accumulated mixture on every class seen so
    far. Weights use the two_stage parameterization regardless of the configured
    one; a single-temperature coupling is undefined past one specialized head."""
    runs = _run_seeds(functools.partial(_fscil_group, pool), cfg, sorted(cfg.seeds))
    acc = np.mean([r["session_acc"] for r in runs], axis=0)
    session_acc = [float(a) for a in acc]
    return EvalReport(
        kind="fscil",
        config_hash=config_hash,
        session_acc=session_acc,
        extra={
            "seeds": list(sorted(cfg.seeds)),
            "final_first_session_acc": float(
                np.mean([r["final_first_session_acc"] for r in runs])
            ),
            "zero_shot_first_session_acc": float(
                np.mean([r["zero_shot_first_session_acc"] for r in runs])
            ),
            "per_seed": runs,
        },
    )


def _assumption_group(
    domain: SyntheticDomain, cfg: HarnessConfig, split_seeds: Sequence[int]
) -> list[dict]:
    """Accuracy gaps of the splits ``split_seeds``, their heads tuned in lockstep."""
    names = domain.train.class_names
    anchors = domain.generalized_prototypes
    t0 = PromptHead.frozen_from(anchors, names)
    partitions = [partition_classes(len(names), seed=s) for s in split_seeds]
    tuned = tune_prompts([
        subset_run(anchors, names, domain.train, partition.subsets[1], cfg.conf_loss,
                   replace(cfg.optimizer, seed=s), cfg.hyper.context_len, s, cfg.tau)
        for partition, s in zip(partitions, split_seeds)
    ])
    rows = []
    for partition, (head, _, _) in zip(partitions, tuned):
        heads = {"t0": t0, "tuned": head}
        split = SplitAccuracy(
            heads, {key: ((key,), None) for key in heads},
            {"in": partition.subsets[1], "out": partition.subsets[0]},
            candidates=range(len(names)),
        ).score(domain.test.chunks())
        rows.append({
            "in_gap": split["in"]["tuned"] - split["in"]["t0"],
            "out_gap": split["out"]["t0"] - split["out"]["tuned"],
        })
    return rows


def assumption_check(
    cfg: HarnessConfig, splits: int = 10, config_hash: str = ""
) -> EvalReport:
    """Specialized-vs-generalized accuracy gaps over seeded 50/50 class
    splits of one domain (generated from the first configured seed), with
    one-sided paired t-tests in both directions.

    The assumption is declared validated when both tests reach p < 0.05.
    Zero-variance gap lists are reported as degenerate, not significant.
    """
    if splits < 2:
        raise ValueError("need at least 2 splits")
    domain = generate_synthetic(replace(cfg.synthetic, seed=cfg.seeds[0]))
    rows = _run_seeds(functools.partial(_assumption_group, domain), cfg, list(range(splits)))
    in_gaps = [r["in_gap"] for r in rows]
    out_gaps = [r["out_gap"] for r in rows]

    def run_test(gaps: list[float]) -> dict:
        try:
            res: TTestResult = t_test_paired_one_sided(gaps)
            return {"t": res.t_statistic, "p": res.p_value, "n": res.n, "degenerate": False}
        except ValueError:
            return {"t": None, "p": None, "n": len(gaps), "degenerate": True}

    t_in = run_test(in_gaps)
    t_out = run_test(out_gaps)
    validated = (
        not t_in["degenerate"]
        and not t_out["degenerate"]
        and t_in["p"] < 0.05
        and t_out["p"] < 0.05
    )
    return EvalReport(
        kind="assumption",
        config_hash=config_hash,
        t_tests={"in_domain": t_in, "out_domain": t_out, "validated": validated},
        extra={"in_gaps": in_gaps, "out_gaps": out_gaps, "splits": splits},
    )


def _confusing_runs(cfg: HarnessConfig, seed: int) -> tuple[list[TuneRun], dict, SyntheticParts]:
    """One seed's CE/CoA twins and its parts, drawn without the test split. Each
    twin keeps its head's context mean, all a classifier reads of it, at every epoch."""
    parts = synthetic_parts(replace(cfg.synthetic, seed=seed))
    anchors, names = parts.generalized_prototypes, parts.train.class_names
    # the twins share rows, batch order and init
    init = PromptHead.with_random_context(anchors, names, cfg.hyper.context_len, seed)
    losses = {"ce": LossConfig("ce"), "conf": cfg.conf_loss}
    means: dict[str, list[np.ndarray]] = {key: [] for key in losses}
    runs = [TuneRun(init, parts.train, loss, replace(cfg.optimizer, seed=seed), cfg.tau,
                    epoch_hook=lambda _, head, kept=means[key]: kept.append(head.context.mean(0)))
            for key, loss in losses.items()]
    return runs, means, parts


def _confusing_curves(tau: float, parts: SyntheticParts, init: PromptHead, means: dict) -> dict:
    """The seed's category counts and, per loss, each epoch's accuracy on the
    easy/confusing/all subsets of the test split drawn from ``parts``, of ``init``
    with the kept mean as its one context row: the tuned head's similarities."""
    test = parts.test_set()
    t0 = PromptHead.frozen_from(parts.generalized_prototypes, test.class_names)
    categories = classify_samples(t0, test, gap_threshold=0.2, tau=tau)
    masks = {name: categories == name for name in ("easy", "confusing", "hard")}
    curves = {loss: {"easy": [], "confusing": [], "all": []} for loss in means}
    for loss, curve in curves.items():
        for cbar in means[loss]:
            sims = similarity_matrix(init.with_context(cbar[None]), test.vectors)
            hits = np.argmax(sims, axis=1) == test.labels
            for key, values in curve.items():
                hit = hits if key == "all" else hits[masks[key]]
                values.append(float(np.mean(hit) * 100.0) if hit.size else 0.0)
    return {"counts": {k: int(m.sum()) for k, m in masks.items()}, **curves}


def _confusing_group(cfg: HarnessConfig, seeds: Sequence[int]) -> list[dict]:
    """The curves of each of ``seeds``: every seed's twins step in lockstep in
    one :func:`tune_prompts` call, and each test split is drawn afterwards."""
    twins, means, parts = zip(*(_confusing_runs(cfg, seed) for seed in seeds))
    tune_prompts([run for pair in twins for run in pair])
    return [_confusing_curves(cfg.tau, p, t[0].init, m) for p, t, m in zip(parts, twins, means)]


def confusing_gain(cfg: HarnessConfig, config_hash: str = "") -> EvalReport:
    """Twin tuning runs (plain CE vs CE plus the confusion term) on
    identical seeds and data, scored on the easy/confusing/all subsets of
    the baseline head's predictions."""
    per_seed = _run_seeds(_confusing_group, cfg, sorted(cfg.seeds))
    deltas = {}
    finals = {}
    for key in ("easy", "confusing", "all"):
        ce = float(np.mean([r["ce"][key][-1] for r in per_seed]))
        conf = float(np.mean([r["conf"][key][-1] for r in per_seed]))
        finals[key] = {"ce": ce, "conf": conf}
        deltas[key] = conf - ce
    counts = {
        k: int(np.sum([r["counts"][k] for r in per_seed])) for k in ("easy", "confusing", "hard")
    }
    return EvalReport(
        kind="confusing_gain",
        config_hash=config_hash,
        category_counts=counts,
        extra={
            "deltas": deltas,
            "finals": finals,
            "seeds": list(sorted(cfg.seeds)),
            "curves": per_seed,
        },
    )


def bound_sweep(
    trials: int = 1000, seed: int = 0, tau_choices: tuple[float, ...] = (1.0, 0.1, 0.01)
) -> dict:
    """Random-ensemble sweep of the mixture error bound.

    Each trial draws 2..5 random unit-anchor heads, a random simplex
    weight vector, random unit data, and a temperature, then records the
    bound gap. Includes one constructed identical-heads case whose gap is
    exactly zero. Returns summary statistics for the report.
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        c = int(rng.integers(2, 21))
        d = int(rng.integers(4, 17))
        n = int(rng.integers(4, 17))
        tau = float(tau_choices[rng.integers(0, len(tau_choices))])
        anchors = [_random_unit(rng, c, d) for _ in range(k + 1)]
        x = _random_unit(rng, n, d)
        labels = rng.integers(0, c, size=n)
        pi = rng.exponential(size=k + 1)
        pi = pi / pi.sum()
        # the frozen heads' similarities, as bound_gap computes them
        gaps.append(_stack_gap(np.stack([x @ a.T for a in anchors]), labels, pi, tau))
    names = ("a", "b", "c")
    base = PromptHead.frozen_from(_random_unit(rng, 3, 8), names)
    twin_set = EmbeddingSet(
        _random_unit(rng, 6, 8), rng.integers(0, 3, size=6).astype(np.int64), names
    )
    identical_gap = bound_gap([base, base], twin_set, np.array([0.5, 0.5]), 0.1)
    gaps_arr = np.asarray(gaps)
    return {
        "trials": trials,
        "min_gap": float(gaps_arr.min()),
        "max_gap": float(gaps_arr.max()),
        "mean_gap": float(gaps_arr.mean()),
        "identical_heads_gap": identical_gap,
        "all_non_negative": bool(gaps_arr.min() >= -1e-12),
    }


def _random_unit(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return unit_normalize(rng.standard_normal((rows, dim)))


def base_to_new_csv(report: EvalReport) -> str:
    """CSV mirroring the benchmark table layout: one row per method."""
    lines = ["method,base,new,h"]
    for name in CONFIG_NAMES:
        row = report.per_config[name]
        lines.append(f"{name},{row['base']:.4f},{row['new']:.4f},{row['h']:.4f}")
    return "\n".join(lines) + "\n"


def fscil_csv(report: EvalReport) -> str:
    """CSV mirroring the session table: accuracies then Mean and PD."""
    header = [f"acc_{i}" for i in range(len(report.session_acc))] + ["mean", "pd"]
    values = [f"{a:.4f}" for a in report.session_acc]
    values += [f"{report.mean_acc:.4f}", f"{report.pd:.4f}"]
    return ",".join(header) + "\n" + ",".join(values) + "\n"

