"""Confidence-weighted mixtures of prompt heads.

A mixture combines a frozen generalized head with K specialized heads by
weighting their similarity vectors before one shared softmax. Each
specialized head carries two weights: one applied to classes it was tuned
on (its own sub-domain) and one applied to everybody else's classes; the
generalized head receives the per-class remainder. Two parameterizations
are supported:

``two_stage``
    Weights are sigmoids of logits measured against a fixed reference
    logit of 0, with the global temperature unchanged.
``one_stage``
    Single specialized head only. The head's similarity is divided by its
    own temperature tau_1, which couples the weight pi_1 = tau_0 /
    (tau_1 + tau_0) with an effective temperature tau_1 tau_0 / (tau_1 +
    tau_0). Algebraically identical to a matched two_stage configuration.

``direct`` stores plain weight values and exists for uniform ensembles
and tests.

This module also houses the ensemble error bound (the mixture's expected
error never exceeds the weight-averaged error of its members), the
sub-domain error decomposition, the mixture-CE weight gradient, and the
entropy-margin loss used to optimize out-of-domain weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from promix import backend
from promix.embedspace import DomainPartition, EmbeddingSet
from promix.head import DEFAULT_TAU, PredictiveDistribution, PromptHead, similarity_matrix
from promix.losses import PROB_FLOOR

PARAMETERIZATIONS = ("one_stage", "two_stage", "direct")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def one_stage_params(tau_1: float, tau_0: float = DEFAULT_TAU) -> tuple[float, float]:
    """Weight and effective temperature implied by a one-stage tau_1."""
    if tau_1 <= 0 or tau_0 <= 0:
        raise ValueError("temperatures must be positive")
    pi_1 = tau_0 / (tau_1 + tau_0)
    return pi_1, tau_1 * tau_0 / (tau_1 + tau_0)


def two_stage_params(alphas: Sequence[float]) -> np.ndarray:
    """Global simplex weights: softmax of (0, alpha_1, ..., alpha_K)."""
    logits = np.concatenate([[0.0], np.asarray(alphas, dtype=np.float64)])
    return backend.kernels.softmax_rows(logits[None, :])[0]


def matched_two_stage(tau_1: float, tau_0: float = DEFAULT_TAU) -> tuple[float, float]:
    """(alpha_1, effective tau) reproducing a one-stage configuration."""
    pi_1, tau_eff = one_stage_params(tau_1, tau_0)
    return float(np.log(tau_0 / tau_1)), tau_eff


@dataclass(frozen=True)
class MixtureWeights:
    """Per-prompt in/out weights plus the raw parameters behind them.

    ``in_weights[i-1]`` and ``out_weights[i-1]`` belong to specialized
    head i. Raw parameters are kept so optimization state survives
    checkpointing: logits for two_stage, temperatures for one_stage.
    """

    parameterization: str
    in_weights: np.ndarray
    out_weights: np.ndarray
    alphas_in: np.ndarray | None = None
    alphas_out: np.ndarray | None = None
    tau_in: float | None = None
    tau_out: float | None = None
    tau_0: float = DEFAULT_TAU

    def __post_init__(self):
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        inw = np.ascontiguousarray(np.asarray(self.in_weights, dtype=np.float64))
        outw = np.ascontiguousarray(np.asarray(self.out_weights, dtype=np.float64))
        if inw.shape != outw.shape or inw.ndim != 1:
            raise ValueError("in/out weights must be 1-d arrays of equal length")
        for arr in (inw, outw):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError("weights must lie in [0, 1]")
        if self.parameterization == "one_stage" and inw.shape[0] != 1:
            raise ValueError("one_stage is only defined for a single specialized head")
        inw.setflags(write=False)
        outw.setflags(write=False)
        object.__setattr__(self, "in_weights", inw)
        object.__setattr__(self, "out_weights", outw)

    @property
    def num_specialized(self) -> int:
        return self.in_weights.shape[0]

    @classmethod
    def direct(cls, in_weights, out_weights) -> "MixtureWeights":
        return cls("direct", np.atleast_1d(in_weights), np.atleast_1d(out_weights))

    @classmethod
    def uniform(cls, k: int) -> "MixtureWeights":
        """The naive ensemble: every weight 0.5 (two_stage logits of 0)."""
        return cls.two_stage(np.zeros(k), np.zeros(k))

    @classmethod
    def two_stage(cls, alphas_in, alphas_out, tau_0: float = DEFAULT_TAU) -> "MixtureWeights":
        a_in = np.atleast_1d(np.asarray(alphas_in, dtype=np.float64))
        a_out = np.atleast_1d(np.asarray(alphas_out, dtype=np.float64))
        return cls(
            "two_stage",
            sigmoid(a_in),
            sigmoid(a_out),
            alphas_in=a_in,
            alphas_out=a_out,
            tau_0=tau_0,
        )

    @classmethod
    def one_stage(cls, tau_in: float, tau_out: float, tau_0: float = DEFAULT_TAU) -> "MixtureWeights":
        pi_in, _ = one_stage_params(tau_in, tau_0)
        pi_out, _ = one_stage_params(tau_out, tau_0)
        return cls(
            "one_stage",
            np.array([pi_in]),
            np.array([pi_out]),
            tau_in=tau_in,
            tau_out=tau_out,
            tau_0=tau_0,
        )

    def replace_raw(
        self,
        prompt: int,
        alpha_in: float | None = None,
        alpha_out: float | None = None,
        tau_in: float | None = None,
        tau_out: float | None = None,
    ) -> "MixtureWeights":
        """New weights with one raw parameter of head ``prompt`` replaced."""
        if self.parameterization == "two_stage":
            a_in = self.alphas_in.copy()
            a_out = self.alphas_out.copy()
            if alpha_in is not None:
                a_in[prompt - 1] = alpha_in
            if alpha_out is not None:
                a_out[prompt - 1] = alpha_out
            return MixtureWeights.two_stage(a_in, a_out, tau_0=self.tau_0)
        if self.parameterization == "one_stage":
            return MixtureWeights.one_stage(
                self.tau_in if tau_in is None else tau_in,
                self.tau_out if tau_out is None else tau_out,
                tau_0=self.tau_0,
            )
        raise ValueError("direct weights carry no raw parameters")

    def to_dict(self) -> dict:
        raw: dict = {}
        if self.parameterization == "two_stage":
            raw = {"alphas_in": list(self.alphas_in), "alphas_out": list(self.alphas_out)}
        elif self.parameterization == "one_stage":
            raw = {"tau_in": self.tau_in, "tau_out": self.tau_out}
        return {
            "parameterization": self.parameterization,
            "tau_0": self.tau_0,
            "prompts": [
                {"pi_in": float(a), "pi_out": float(b)}
                for a, b in zip(self.in_weights, self.out_weights)
            ],
            "raw": raw,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MixtureWeights":
        kind = payload["parameterization"]
        tau_0 = float(payload.get("tau_0", DEFAULT_TAU))
        if kind == "two_stage":
            return cls.two_stage(
                payload["raw"]["alphas_in"], payload["raw"]["alphas_out"], tau_0=tau_0
            )
        if kind == "one_stage":
            return cls.one_stage(
                float(payload["raw"]["tau_in"]), float(payload["raw"]["tau_out"]), tau_0=tau_0
            )
        prompts = payload["prompts"]
        return cls.direct(
            [p["pi_in"] for p in prompts], [p["pi_out"] for p in prompts]
        )


def save_weights(weights: MixtureWeights, path) -> None:
    Path(path).write_text(json.dumps(weights.to_dict(), indent=2, sort_keys=True) + "\n")


def load_weights(path) -> MixtureWeights:
    return MixtureWeights.from_dict(json.loads(Path(path).read_text()))


def class_weight_matrix(
    weights: MixtureWeights, partition: DomainPartition, num_classes: int | None = None
) -> np.ndarray:
    """(K+1, C) effective weights: row i, column l is head i's weight on
    class l.

    Specialized heads use their in-weight on their own sub-domain and
    their out-weight elsewhere; the generalized head takes the clamped
    remainder. Each column is a simplex: when the specialized weights of
    a class already exceed 1 (possible once several heads are stacked),
    the column is renormalized so no class is amplified relative to the
    others. With a single specialized head the weights pass through
    untouched.
    """
    k = weights.num_specialized
    if partition.num_specialized != k:
        raise ValueError(
            f"partition has {partition.num_specialized} specialized subsets, weights have {k}"
        )
    c = partition.num_classes if num_classes is None else num_classes
    owners = partition.owner_of()
    w = np.zeros((k + 1, c))
    for i in range(1, k + 1):
        w[i] = np.where(owners == i, weights.in_weights[i - 1], weights.out_weights[i - 1])
    specialized = w[1:].sum(axis=0)
    w[0] = np.maximum(1.0 - specialized, 0.0)
    w /= np.maximum(specialized, 1.0)[None, :]
    return w


def effective_weight(
    weights: MixtureWeights, prompt: int, class_index: int, partition: DomainPartition
) -> float:
    """Weight of one head on one class (see class_weight_matrix)."""
    w = class_weight_matrix(weights, partition)
    return float(w[prompt, class_index])


@dataclass(frozen=True)
class MixtureModel:
    """Generalized head t_0, specialized heads t_1..t_K, weights, and the
    class partition aligning heads with sub-domains."""

    heads: tuple[PromptHead, ...]
    weights: MixtureWeights
    partition: DomainPartition
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        heads = tuple(self.heads)
        object.__setattr__(self, "heads", heads)
        if len(heads) != len(self.partition.subsets):
            raise ValueError("need one head per partition subset (head 0 for Y_0)")
        if len(heads) != self.weights.num_specialized + 1:
            raise ValueError("weights must cover every specialized head")
        names = heads[0].class_names
        for h in heads[1:]:
            if h.class_names != names or h.dim != heads[0].dim:
                raise ValueError("heads must share class list and dimension")
        if self.partition.num_classes != len(names):
            raise ValueError("partition does not cover the heads' class list")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")

    @property
    def num_classes(self) -> int:
        return self.heads[0].num_classes

    def similarity_stack(self, vectors: np.ndarray) -> np.ndarray:
        """(K+1, N, C) similarities of every head on a batch."""
        return np.stack([similarity_matrix(h, vectors) for h in self.heads])


def mixture_scaled_logits(
    model: MixtureModel,
    vectors: np.ndarray,
    classes: np.ndarray | None = None,
    sims: np.ndarray | None = None,
    weight_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Final pre-softmax logits of the mixture for a batch, (N, C').

    ``classes`` restricts the candidate class list (class-incremental
    evaluation only ranks classes seen so far). ``sims`` supplies a
    precomputed similarity stack; ``weight_rows`` overrides the per-class
    weight matrix, which the weight-gradient oracles use to probe
    off-simplex perturbations.
    """
    if sims is None:
        sims = model.similarity_stack(np.asarray(vectors, dtype=np.float64))
    if model.weights.parameterization == "one_stage":
        w = model.weights
        owners = model.partition.owner_of()
        tau_spec = np.where(owners == 1, w.tau_in, w.tau_out)
        logits = sims[0] / w.tau_0 + sims[1] / tau_spec[None, :]
    else:
        if weight_rows is None:
            weight_rows = class_weight_matrix(model.weights, model.partition)
        logits = np.einsum("kc,knc->nc", weight_rows, sims) / model.tau
    if classes is not None:
        logits = logits[:, np.asarray(classes, dtype=np.int64)]
    return logits


def mixture_predict(model: MixtureModel, x: np.ndarray) -> PredictiveDistribution:
    """Mixture distribution for a single embedding."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.heads[0].dim,):
        raise ValueError("dimension mismatch between embedding and model")
    logits = mixture_scaled_logits(model, x[None, :])
    probs = backend.kernels.softmax_rows(logits)[0]
    return PredictiveDistribution(probs, model.tau)


def mixture_predict_matrix(
    model: MixtureModel, vectors: np.ndarray, classes: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise mixture probabilities for a batch, optionally restricted."""
    logits = mixture_scaled_logits(model, vectors, classes=classes)
    return backend.kernels.softmax_rows(logits)


def global_mixture_error(
    heads: Sequence[PromptHead], emb_set: EmbeddingSet, pi: np.ndarray, tau: float
) -> float:
    """Expected error of the global-weight mixture softmax(sum pi_i s_i / tau)."""
    if len(emb_set) == 0:
        raise ValueError("empty set")
    pi = np.asarray(pi, dtype=np.float64)
    sims = np.stack([similarity_matrix(h, emb_set.vectors) for h in heads])
    logits = np.einsum("k,knc->nc", pi, sims) / tau
    probs = backend.kernels.softmax_rows(logits)
    py = probs[np.arange(len(emb_set)), emb_set.labels]
    return float(np.mean(-np.log(np.maximum(py, PROB_FLOOR))))


def bound_gap(
    heads: Sequence[PromptHead], emb_set: EmbeddingSet, pi: np.ndarray, tau: float = DEFAULT_TAU
) -> float:
    """Weighted member error minus mixture error; non-negative by the
    ensemble bound (Jensen on log-sum-exp), up to float round-off."""
    from promix.head import expected_error

    pi = np.asarray(pi, dtype=np.float64)
    if len(pi) != len(heads):
        raise ValueError("one weight per head required")
    if np.any(pi < 0) or abs(float(pi.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be a simplex point")
    members = sum(p * expected_error(h, emb_set, tau) for p, h in zip(pi, heads))
    return float(members - global_mixture_error(heads, emb_set, pi, tau))


def decompose_error(
    model: MixtureModel, emb_set: EmbeddingSet, partition: DomainPartition | None = None
) -> tuple[list[tuple[float, float]], float]:
    """Per-sub-domain (mass, error) pairs and their mass-weighted total.

    The total reconstructs the mixture's expected error on the full set
    exactly; empty sub-domains contribute (0, 0).
    """
    if len(emb_set) == 0:
        raise ValueError("empty set")
    partition = model.partition if partition is None else partition
    if int(emb_set.labels.max()) >= partition.num_classes:
        raise ValueError("sample label outside the partition")
    probs = mixture_predict_matrix(model, emb_set.vectors)
    losses = -np.log(np.maximum(probs[np.arange(len(emb_set)), emb_set.labels], PROB_FLOOR))
    owners = partition.owner_of()[emb_set.labels]
    parts = []
    total = 0.0
    for i in range(len(partition.subsets)):
        mask = owners == i
        lam = float(mask.mean())
        err = float(losses[mask].mean()) if mask.any() else 0.0
        parts.append((lam, err))
        total += lam * err
    return parts, total


def mixture_ce_grad_wrt_weight(
    model: MixtureModel, x: np.ndarray, y: int, prompt: int
) -> float:
    """d(-log mixture_prob(y)) / d(global weight of head ``prompt``).

    Equals -(s_i(y) - sum_l p(l) s_i(l)) / tau: negative when the head
    rates the true class above the mixture's importance-weighted average,
    so descent raises that head's weight.
    """
    if model.weights.parameterization == "one_stage":
        raise ValueError("global weight gradient requires a weighted-similarity mixture")
    x = np.asarray(x, dtype=np.float64)
    sims = model.similarity_stack(x[None, :])
    probs = backend.kernels.softmax_rows(mixture_scaled_logits(model, x[None, :], sims=sims))[0]
    s_i = sims[prompt, 0]
    return float(-(s_i[y] - probs @ s_i) / model.tau)


def normalized_entropy(probs: np.ndarray) -> float:
    """Shannon entropy over a restricted class set divided by log of its
    size: 0 for one-hot, 1 for uniform. Requires at least two entries."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size < 2:
        raise ValueError("normalized entropy needs at least two classes")
    nz = probs[probs > 0]
    return float(-(nz * np.log(nz)).sum() / np.log(probs.size))


def ent_loss(h_generalized: float, h_specialized: float, d: float) -> float:
    """Hinge comparing entropies: max(0, H_gen - H_spec + d).

    Zero once the specialized head is at least ``d`` more uncertain than
    the generalized one on the out-class set.
    """
    return max(0.0, h_generalized - h_specialized + d)
