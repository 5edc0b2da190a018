"""Benchmarks, statistics, and report emission.

Harnesses at desk scale: the base/new generalization comparison (four
configurations over three seeds), the class-incremental session protocol,
the specialized-vs-generalized assumption check with paired t-tests, the
ensemble-bound sweep, and the confusing-sample analysis. All harnesses
are deterministic per seed; multi-seed fan-out may run in parallel, with
reduction order fixed by sorting on the seed.

Aggregation convention: the harmonic mean is computed per seed (or per
dataset) and then averaged; it is not the harmonic mean of averaged
accuracies.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from promix.embedspace import (
    DomainPartition,
    EmbeddingSet,
    SyntheticConfig,
    generate_synthetic,
    partition_classes,
    read_embedding_file,
)
from promix.head import DEFAULT_TAU, PromptHead, predict_matrix, similarity_matrix
from promix.losses import LossConfig
from promix.mixture import MixtureModel, MixtureWeights, bound_gap, mixture_scaled_logits
from promix.outclass import OutclassStrategy, generate_outclass, generate_vocab_pool
from promix.stats import TTestResult, t_test_paired_one_sided
from promix.train import (
    HyperParams,
    OptimizerConfig,
    optimize_in_weight,
    optimize_out_weight,
    tune_prompt,
    tune_prompt_one_stage,
)

CONFIG_NAMES = ("zero_shot", "uniform_ensemble", "conf_uniform", "fitted_mixture")

FSCIL_CONTEXT_LEN = 2
FSCIL_MARGIN = 0.1
FSCIL_INITIAL_WEIGHT_EPOCHS = 2
FSCIL_LATER_WEIGHT_EPOCHS = 100


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
    tau: float = DEFAULT_TAU,
) -> float:
    """Percentage of samples whose argmax prediction matches the label.

    ``classes`` restricts the candidate list; ties break toward the
    lowest class index. Labels stay global either way.
    """
    if len(emb_set) == 0:
        raise ValueError("accuracy of an empty set")
    idx = None if classes is None else np.sort(np.asarray(list(classes), dtype=np.int64))
    if isinstance(model_or_head, MixtureModel):
        logits = mixture_scaled_logits(model_or_head, emb_set.vectors, classes=idx)
    else:
        logits = similarity_matrix(model_or_head, emb_set.vectors)
        if idx is not None:
            logits = logits[:, idx]
    local_pred = np.argmax(logits, axis=1)
    pred = local_pred if idx is None else idx[local_pred]
    return float(np.mean(pred == emb_set.labels) * 100.0)


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
    """Shared configuration for the benchmark harnesses."""

    synthetic: SyntheticConfig = SyntheticConfig()
    hyper: HyperParams = HyperParams()
    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    outclass: OutclassStrategy = OutclassStrategy()
    parameterization: str = "two_stage"
    seeds: tuple[int, ...] = (0, 1, 2)
    pool_size: int = 64
    tau: float = DEFAULT_TAU
    jobs: int = 1
    fscil_base_size: int | None = None
    fscil_way: int = 5


@dataclass
class EvalReport:
    """Result container shared by the harnesses; unused sections stay None.

    ``per_config`` maps configuration name -> {"base", "new", "h"};
    ``session_acc`` lists per-session accuracies with ``mean_acc`` and
    ``pd`` (first minus last); ``t_tests`` holds the assumption-check
    statistics; ``extra`` carries harness-specific details (margins,
    per-seed values, category counts).
    """

    kind: str
    config_hash: str = ""
    per_config: dict | None = None
    session_acc: list[float] | None = None
    mean_acc: float | None = None
    pd: float | None = None
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
            expected_pd = self.session_acc[0] - self.session_acc[-1]
            if self.pd is None or abs(self.pd - expected_pd) > 1e-9:
                raise ValueError("pd must equal first minus last session accuracy")

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "config_hash": self.config_hash,
            "per_config": self.per_config,
            "session_acc": self.session_acc,
            "mean_acc": self.mean_acc,
            "pd": self.pd,
            "category_counts": self.category_counts,
            "t_tests": self.t_tests,
            "extra": self.extra,
        }
        return {k: v for k, v in payload.items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json())


def _domain_for(cfg: HarnessConfig, seed: int):
    return generate_synthetic(replace(cfg.synthetic, seed=seed))


def _subset_problem(
    anchors: np.ndarray,
    names: tuple[str, ...],
    train_set: EmbeddingSet,
    classes: np.ndarray,
    context_len: int,
    seed: int,
) -> tuple[np.ndarray, EmbeddingSet, PromptHead]:
    """Remap a class subset to local labels 0..k-1; return the sorted
    classes, the local training set and the initial head on them."""
    classes = np.sort(np.asarray(classes, dtype=np.int64))
    sub_train = train_set.with_labels_in(classes)
    remap = {int(c): j for j, c in enumerate(classes)}
    local = EmbeddingSet(
        sub_train.vectors,
        np.array([remap[int(y)] for y in sub_train.labels], dtype=np.int64),
        tuple(names[c] for c in classes),
    )
    init = PromptHead.with_random_context(anchors[classes], local.class_names, context_len, seed)
    return classes, local, init


def tune_on_subset(
    anchors: np.ndarray,
    names: tuple[str, ...],
    train_set: EmbeddingSet,
    classes: np.ndarray,
    loss: LossConfig,
    opt: OptimizerConfig,
    context_len: int,
    seed: int,
    tau: float,
    epoch_hook: Callable | None = None,
) -> PromptHead:
    """Tune a head on a class subset; return the full-class-list head."""
    _, local, init = _subset_problem(anchors, names, train_set, classes, context_len, seed)
    tuned, _ = tune_prompt(init, local, loss, opt, tau=tau, epoch_hook=epoch_hook)
    return PromptHead(tuned.context, anchors, names)


def fit_weights(
    model: MixtureModel,
    train_in: EmbeddingSet,
    out_anchors: np.ndarray,
    hyper: HyperParams,
    opt: OptimizerConfig,
    prompt: int = 1,
    classes: np.ndarray | None = None,
    in_epochs: int | None = None,
    out_epochs: int | None = None,
) -> MixtureModel:
    """Run the weight stages for one specialized head: the in-weight, then
    the out-weight. A one_stage in-weight is the head's own temperature,
    learned together with its context, so only the out-weight is fitted."""
    if model.weights.parameterization != "one_stage":
        model, _ = optimize_in_weight(
            model, train_in, prompt=prompt, opt=opt, classes=classes, epochs=in_epochs
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
            epochs=out_epochs,
        )
    return model


def outclass_anchors(
    cfg: HarnessConfig, dim: int, seed: int, in_class_size: int, pool_file=None
) -> np.ndarray:
    """Surrogate out-class anchors for one seed. Random words come from the
    EMB1 pool in ``pool_file`` when given, else from a generated pool of
    ``cfg.pool_size`` words (seed + 7919); the draw uses seed + 104729."""
    if pool_file is not None:
        pool = read_embedding_file(pool_file).vectors
    else:
        pool = generate_vocab_pool(dim, cfg.pool_size, seed=seed + 7919)
    return generate_outclass(
        cfg.outclass, dim, seed=seed + 104729, vocab_pool=pool, in_class_size=in_class_size
    )


def score_base_new_configs(
    t0: PromptHead,
    head_ce: PromptHead,
    head_conf: PromptHead,
    fitted_weights: MixtureWeights,
    partition: DomainPartition,
    test_set: EmbeddingSet,
    tau: float = DEFAULT_TAU,
) -> dict:
    """Score the four comparison configurations on a base/new split.

    Accuracy is measured independently on the two splits (candidates
    restricted to the split's classes) and combined by the harmonic mean.
    """
    base_classes, new_classes = partition.subsets[1], partition.subsets[0]
    test_base = test_set.with_labels_in(base_classes)
    test_new = test_set.with_labels_in(new_classes)

    def scores(model_or_head) -> dict:
        b = accuracy(model_or_head, test_base, classes=base_classes, tau=tau)
        n = accuracy(model_or_head, test_new, classes=new_classes, tau=tau)
        return {"base": b, "new": n, "h": harmonic_mean(b, n)}

    uniform = MixtureWeights.uniform(1)
    return {
        "zero_shot": scores(t0),
        "uniform_ensemble": scores(MixtureModel((t0, head_ce), uniform, partition, tau=tau)),
        "conf_uniform": scores(MixtureModel((t0, head_conf), uniform, partition, tau=tau)),
        "fitted_mixture": scores(
            MixtureModel((t0, head_conf), fitted_weights, partition, tau=tau)
        ),
    }


def tune_base_new_heads(
    cfg: HarnessConfig,
    train_set: EmbeddingSet,
    anchors: np.ndarray,
    partition: DomainPartition,
    seed: int,
) -> tuple[PromptHead, PromptHead, float]:
    """First base/new stage: tune the plain-CE head and the mixture head on
    the tuning classes ``partition.subsets[1]``. Returns (CE head, mixture
    head, the mixture head's temperature).

    Under two_stage the mixture head is the confusion-tuned head at the
    shared temperature ``cfg.tau``. Under one_stage it is tuned jointly
    with its own temperature tau_in (the coupling makes the in-weight part
    of prompt tuning itself), and the learned tau_in is returned.
    """
    names = train_set.class_names
    base_classes = partition.subsets[1]
    opt = replace(cfg.optimizer, seed=seed)
    data = (anchors, names, train_set, base_classes)
    settings = (cfg.hyper.context_len, seed, cfg.tau)
    head_ce = tune_on_subset(*data, replace(cfg.loss, kind="ce"), opt, *settings)
    conf_loss = replace(cfg.loss, kind="ce_conf", w=cfg.hyper.conf_weight)
    if cfg.parameterization == "one_stage":
        classes, local, init = _subset_problem(*data, cfg.hyper.context_len, seed)
        t0_local = PromptHead.frozen_from(anchors[classes], local.class_names)
        tuned, tau_in, _ = tune_prompt_one_stage(
            init, t0_local, local, conf_loss, opt, tau_0=cfg.tau
        )
        return head_ce, PromptHead(tuned.context, anchors, names), tau_in
    return head_ce, tune_on_subset(*data, conf_loss, opt, *settings), cfg.tau


def fit_base_new_weights(
    cfg: HarnessConfig,
    mix_head: PromptHead,
    mix_tau: float,
    train_set: EmbeddingSet,
    anchors: np.ndarray,
    partition: DomainPartition,
    out_anchors: np.ndarray,
    seed: int,
) -> MixtureWeights:
    """Second base/new stage: fit the mixture head's weights against the
    frozen head on ``anchors``. Under two_stage both weights are fitted,
    starting from the uniform ensemble. Under one_stage only tau_out is,
    starting from one_stage(mix_tau, tau, tau_0=tau)."""
    base_classes = partition.subsets[1]
    t0 = PromptHead.frozen_from(anchors, train_set.class_names)
    if cfg.parameterization == "one_stage":
        start = MixtureWeights.one_stage(mix_tau, cfg.tau, tau_0=cfg.tau)
    else:
        start = MixtureWeights.uniform(1)
    model = fit_weights(
        MixtureModel((t0, mix_head), start, partition, tau=cfg.tau),
        train_set.with_labels_in(base_classes), out_anchors, cfg.hyper,
        replace(cfg.optimizer, seed=seed), classes=base_classes,
    )
    return model.weights


def _base_to_new_single(cfg: HarnessConfig, seed: int) -> dict:
    """One seed of the four-configuration comparison."""
    domain = _domain_for(cfg, seed)
    train, anchors = domain.train, domain.generalized_prototypes
    partition = partition_classes(len(train.class_names), "base_new_even_split", seed=seed)
    head_ce, mix_head, mix_tau = tune_base_new_heads(cfg, train, anchors, partition, seed)
    out_anchors = outclass_anchors(cfg, train.dim, seed, len(partition.subsets[1]))
    weights = fit_base_new_weights(
        cfg, mix_head, mix_tau, train, anchors, partition, out_anchors, seed
    )
    t0 = PromptHead.frozen_from(anchors, train.class_names)
    return score_base_new_configs(
        t0, head_ce, mix_head, weights, partition, domain.test, tau=cfg.tau
    )


def _run_seeds(worker: Callable, cfg: HarnessConfig) -> list:
    """``worker(cfg, seed)`` for every seed in sorted order, on at most
    min(jobs, seeds, cores) worker processes."""
    seeds = sorted(cfg.seeds)
    workers = min(cfg.jobs, len(seeds), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, cfg, s) for s in seeds]
            return [f.result() for f in futures]
    return [worker(cfg, s) for s in seeds]


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
    return base_new_report(_run_seeds(_base_to_new_single, cfg), cfg.seeds, config_hash)


def _fscil_single(cfg: HarnessConfig, seed: int) -> dict:
    """One seed of the incremental-session protocol."""
    domain = _domain_for(cfg, seed)
    names = domain.train.class_names
    n_classes = len(names)
    base_size = cfg.fscil_base_size
    if base_size is None:
        base_size = n_classes * 60 // 100
    partition = partition_classes(
        n_classes, "session_schedule", seed=seed, base_size=base_size, way=cfg.fscil_way
    )
    anchors = domain.generalized_prototypes
    t0 = PromptHead.frozen_from(anchors, names)
    opt = replace(cfg.optimizer, seed=seed)
    num_sessions = len(partition.subsets) - 1

    heads: list[PromptHead] = [t0]
    alphas_in: list[float] = []
    alphas_out: list[float] = []
    session_acc: list[float] = []
    seen: np.ndarray = np.empty(0, dtype=np.int64)

    for session in range(1, num_sessions + 1):
        session_classes = partition.subsets[session]
        seen = np.sort(np.concatenate([seen, session_classes]))
        head = tune_on_subset(
            anchors, names, domain.train, session_classes,
            replace(cfg.loss, kind="ce_conf", w=cfg.hyper.conf_weight),
            opt, FSCIL_CONTEXT_LEN, seed * 1000 + session, cfg.tau,
        )
        heads.append(head)
        alphas_in.append(0.0)
        alphas_out.append(0.0)

        unseen = np.setdiff1d(np.arange(n_classes), seen)
        subsets = [unseen] + [partition.subsets[i] for i in range(1, session + 1)]
        sizes = np.array([max(len(s), 0) for s in subsets], dtype=np.float64)
        masses = sizes / sizes.sum()
        model_partition = DomainPartition(tuple(subsets), masses)
        weights = MixtureWeights.two_stage(alphas_in, alphas_out)
        model = MixtureModel(tuple(heads), weights, model_partition, tau=cfg.tau)

        if session == 1:
            out_anchors = outclass_anchors(cfg, cfg.synthetic.dim, seed, len(session_classes))
            weight_epochs = FSCIL_INITIAL_WEIGHT_EPOCHS
        else:
            previous = np.concatenate(
                [partition.subsets[i] for i in range(1, session)]
            )
            out_anchors = anchors[np.sort(previous)]
            weight_epochs = FSCIL_LATER_WEIGHT_EPOCHS
        train_in = domain.train.with_labels_in(session_classes)
        model = fit_weights(
            model, train_in, out_anchors,
            replace(cfg.hyper, margin=FSCIL_MARGIN), opt,
            prompt=session, classes=seen,
            in_epochs=weight_epochs, out_epochs=weight_epochs,
        )
        alphas_in = list(model.weights.alphas_in)
        alphas_out = list(model.weights.alphas_out)

        test_seen = domain.test.with_labels_in(seen)
        session_acc.append(accuracy(model, test_seen, classes=seen, tau=cfg.tau))

    test_first = domain.test.with_labels_in(partition.subsets[1])
    final_first = accuracy(model, test_first, classes=seen, tau=cfg.tau)
    zero_first = accuracy(t0, test_first, classes=seen, tau=cfg.tau)
    return {
        "session_acc": session_acc,
        "final_first_session_acc": final_first,
        "zero_shot_first_session_acc": zero_first,
    }


def fscil_run(cfg: HarnessConfig, config_hash: str = "") -> EvalReport:
    """Class-incremental protocol: per session, tune a short-context head
    on the session's classes, fit its weights (out-class anchors come from
    previous sessions after the first), then score the accumulated mixture
    on every class seen so far. Weights use the two_stage parameterization
    regardless of the configured one; a single-temperature coupling is
    undefined past one specialized head."""
    runs = _run_seeds(_fscil_single, cfg)
    acc = np.mean([r["session_acc"] for r in runs], axis=0)
    session_acc = [float(a) for a in acc]
    return EvalReport(
        kind="fscil",
        config_hash=config_hash,
        session_acc=session_acc,
        mean_acc=float(np.mean(session_acc)),
        pd=float(session_acc[0] - session_acc[-1]),
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


def _assumption_single(cfg: HarnessConfig, split_seed: int) -> dict:
    domain = _domain_for(cfg, cfg.seeds[0] if cfg.seeds else 0)
    names = domain.train.class_names
    partition = partition_classes(len(names), "base_new_even_split", seed=split_seed)
    in_classes, out_classes = partition.subsets[1], partition.subsets[0]
    anchors = domain.generalized_prototypes
    t0 = PromptHead.frozen_from(anchors, names)
    opt = replace(cfg.optimizer, seed=split_seed)
    tuned = tune_on_subset(
        anchors, names, domain.train, in_classes,
        replace(cfg.loss, kind="ce_conf", w=cfg.hyper.conf_weight),
        opt, cfg.hyper.context_len, split_seed, cfg.tau,
    )
    test_in = domain.test.with_labels_in(in_classes)
    test_out = domain.test.with_labels_in(out_classes)
    return {
        "in_gap": accuracy(tuned, test_in, tau=cfg.tau) - accuracy(t0, test_in, tau=cfg.tau),
        "out_gap": accuracy(t0, test_out, tau=cfg.tau) - accuracy(tuned, test_out, tau=cfg.tau),
    }


def assumption_check(
    cfg: HarnessConfig, splits: int = 10, config_hash: str = ""
) -> EvalReport:
    """Specialized-vs-generalized accuracy gaps over seeded 50/50 class
    splits, with one-sided paired t-tests in both directions.

    The assumption is declared validated when both tests reach p < 0.05.
    Zero-variance gap lists are reported as degenerate, not significant.
    """
    if splits < 2:
        raise ValueError("need at least 2 splits")
    split_cfg = replace(cfg, seeds=tuple(range(splits)))
    rows = _run_seeds(_assumption_single, split_cfg)
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


def _confusing_single(cfg: HarnessConfig, seed: int) -> dict:
    domain = _domain_for(cfg, seed)
    names = domain.train.class_names
    all_classes = np.arange(len(names), dtype=np.int64)
    anchors = domain.generalized_prototypes
    t0 = PromptHead.frozen_from(anchors, names)
    categories = classify_samples(t0, domain.test, gap_threshold=0.2, tau=cfg.tau)
    masks = {name: categories == name for name in ("easy", "confusing", "hard")}
    opt = replace(cfg.optimizer, seed=seed)

    def run(loss_cfg: LossConfig) -> dict:
        curves: dict[str, list[float]] = {"easy": [], "confusing": [], "all": []}

        def hook(_epoch: int, head: PromptHead) -> None:
            for key in ("easy", "confusing"):
                if masks[key].any():
                    curves[key].append(
                        accuracy(head, domain.test.subset(masks[key]), tau=cfg.tau)
                    )
                else:
                    curves[key].append(0.0)
            curves["all"].append(accuracy(head, domain.test, tau=cfg.tau))

        tune_on_subset(
            anchors, names, domain.train, all_classes, loss_cfg, opt,
            cfg.hyper.context_len, seed, cfg.tau, epoch_hook=hook,
        )
        return {k: v for k, v in curves.items()}

    ce_curves = run(replace(cfg.loss, kind="ce"))
    conf_curves = run(replace(cfg.loss, kind="ce_conf", w=cfg.hyper.conf_weight))
    return {
        "counts": {k: int(m.sum()) for k, m in masks.items()},
        "ce": ce_curves,
        "conf": conf_curves,
    }


def confusing_gain(cfg: HarnessConfig, config_hash: str = "") -> EvalReport:
    """Twin tuning runs (plain CE vs CE plus the confusion term) on
    identical seeds and data, scored on the easy/confusing/all subsets of
    the baseline head's predictions."""
    runs = _run_seeds(_confusing_single, cfg)
    deltas = {}
    finals = {}
    for key in ("easy", "confusing", "all"):
        ce = float(np.mean([r["ce"][key][-1] for r in runs]))
        conf = float(np.mean([r["conf"][key][-1] for r in runs]))
        finals[key] = {"ce": ce, "conf": conf}
        deltas[key] = conf - ce
    counts = {
        k: int(np.sum([r["counts"][k] for r in runs])) for k in ("easy", "confusing", "hard")
    }
    return EvalReport(
        kind="confusing_gain",
        config_hash=config_hash,
        category_counts=counts,
        extra={
            "deltas": deltas,
            "finals": finals,
            "seeds": list(sorted(cfg.seeds)),
            "curves": runs,
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
        names = tuple(f"c{j}" for j in range(c))
        heads = [
            PromptHead.frozen_from(
                _random_unit(rng, c, d), names
            )
            for _ in range(k + 1)
        ]
        emb = EmbeddingSet(
            _random_unit(rng, n, d), rng.integers(0, c, size=n).astype(np.int64), names
        )
        pi = rng.exponential(size=k + 1)
        pi = pi / pi.sum()
        gaps.append(bound_gap(heads, emb, pi, tau))
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
    from promix.embedspace import unit_normalize

    return unit_normalize(rng.standard_normal((rows, dim)))


def aggregate_harmonic(per_dataset: Sequence[tuple[float, float]]) -> dict:
    """Multi-dataset aggregation: mean Base, mean New, and the mean of the
    per-dataset harmonic means (not the harmonic mean of the averages)."""
    bases = [b for b, _ in per_dataset]
    news = [n for _, n in per_dataset]
    hs = [harmonic_mean(b, n) for b, n in per_dataset]
    return {
        "base": float(np.mean(bases)),
        "new": float(np.mean(news)),
        "h": float(np.mean(hs)),
    }


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


def curves_csv(report: EvalReport) -> str:
    """Per-epoch plot data for the confusing-sample comparison."""
    lines = ["seed,loss,subset,epoch,accuracy"]
    for seed, run in zip(report.extra["seeds"], report.extra["curves"]):
        for loss_name in ("ce", "conf"):
            for subset, curve in run[loss_name].items():
                for epoch, value in enumerate(curve):
                    lines.append(f"{seed},{loss_name},{subset},{epoch},{value:.4f}")
    return "\n".join(lines) + "\n"
