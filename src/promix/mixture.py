"""Confidence-weighted mixtures of prompt heads.

A mixture combines a frozen generalized head with K specialized heads by
weighting their similarity vectors before one shared softmax. Each
specialized head carries two weights: one applied to classes it was tuned
on (its own sub-domain) and one applied to everybody else's classes; the
generalized head receives the per-class remainder. The weights have one of
two parameterizations:

``two_stage``
    Weights are sigmoids of logits measured against a fixed reference
    logit of 0, with the global temperature unchanged.
``one_stage``
    Single specialized head only. The head's similarity is divided by its
    own temperature tau_1, which couples the weight pi_1 = tau_0 /
    (tau_1 + tau_0) with an effective temperature tau_1 tau_0 / (tau_1 +
    tau_0). Algebraically identical to a matched two_stage configuration.

Both reduce to one (K+1, C) matrix of per-class logit scales, so the
mixture logits are sum_k scale[k, c] s_k(c), summed head by head over the
candidate classes only.

This module also houses the ensemble error bound (the mixture's expected
error never exceeds the weight-averaged error of its members), the
sub-domain error decomposition, and the entropy-margin loss used to
optimize out-of-domain weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from promix import backend
from promix._kernels_py import label_nll
from promix.embedspace import DomainPartition, EmbeddingSet
from promix.head import (
    DEFAULT_TAU,
    CheckpointError,
    PredictiveDistribution,
    PromptHead,
    checkpoint_reader,
    is_finite,
    predict_matrix,
    similarity_matrix,
)

PARAMETERIZATIONS = ("one_stage", "two_stage")


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
            if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both comparisons
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

    def raw(self, prompt: int, side: str) -> float:
        """The raw parameter weight fitting descends for head ``prompt``'s
        ``side`` ("in" or "out") weight: the two_stage logit alpha or the
        one_stage log tau."""
        if self.parameterization == "two_stage":
            return float((self.alphas_in if side == "in" else self.alphas_out)[prompt - 1])
        return float(np.log(self.tau_in if side == "in" else self.tau_out))

    def with_raw(self, prompt: int, side: str, theta: float) -> "MixtureWeights":
        """New weights with the raw parameter read by :meth:`raw` set to theta."""
        if self.parameterization == "two_stage":
            alphas = {"in": self.alphas_in.copy(), "out": self.alphas_out.copy()}
            alphas[side][prompt - 1] = theta
            return MixtureWeights.two_stage(alphas["in"], alphas["out"], tau_0=self.tau_0)
        taus = {"in": self.tau_in, "out": self.tau_out, side: float(np.exp(theta))}
        return MixtureWeights.one_stage(taus["in"], taus["out"], tau_0=self.tau_0)

    def coefficient(self, theta: float, tau: float = 1.0) -> tuple[float, float]:
        """(a, d log a / d theta), a the factor raw parameter theta puts on its
        head's similarities: sigmoid(theta) / tau, or exp(-theta) under one_stage."""
        if self.parameterization == "two_stage":
            pi = float(sigmoid(theta))
            return pi / tau, 1.0 - pi
        return float(np.exp(-theta)), -1.0

    def to_dict(self) -> dict:
        raw = ({"alphas_in": list(self.alphas_in), "alphas_out": list(self.alphas_out)}
               if self.parameterization == "two_stage"
               else {"tau_in": self.tau_in, "tau_out": self.tau_out})
        return {
            "parameterization": self.parameterization,
            "tau_0": self.tau_0,
            "prompts": [
                {"pi_in": float(a), "pi_out": float(b)}
                for a, b in zip(self.in_weights, self.out_weights)
            ],
            "raw": raw,
        }


def save_weights(weights: MixtureWeights, path) -> None:
    Path(path).write_text(json.dumps(weights.to_dict(), indent=2, sort_keys=True) + "\n")


def load_weights(path) -> MixtureWeights:
    """Read weights written by :func:`save_weights`; a missing or malformed
    entry raises CheckpointError naming the file and its JSON pointer."""
    entry = checkpoint_reader(path)
    kind = entry("/parameterization", lambda v: v in PARAMETERIZATIONS,
                 " or ".join(PARAMETERIZATIONS))

    def numbers(pointer: str) -> list:
        count = len(entry(pointer, lambda v: isinstance(v, list), "a list"))
        return [entry(f"{pointer}/{i}", is_finite, "a finite number") for i in range(count)]

    positive = (lambda v: is_finite(v) and v > 0), "a positive finite number"
    tau_0 = float(entry("/tau_0", *positive))
    if kind == "one_stage":
        taus = (float(entry(f"/raw/{key}", *positive)) for key in ("tau_in", "tau_out"))
        return MixtureWeights.one_stage(*taus, tau_0=tau_0)
    alphas_in, alphas_out = numbers("/raw/alphas_in"), numbers("/raw/alphas_out")
    if len(alphas_in) != len(alphas_out):
        raise CheckpointError(f"{path}: /raw/alphas_out: expected one logit per alphas_in entry")
    return MixtureWeights.two_stage(alphas_in, alphas_out, tau_0=tau_0)


def class_weight_matrix(weights: MixtureWeights, partition: DomainPartition) -> np.ndarray:
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
    owners = partition.owner_of()
    w = np.zeros((k + 1, partition.num_classes))
    for i in range(1, k + 1):
        w[i] = np.where(owners == i, weights.in_weights[i - 1], weights.out_weights[i - 1])
    specialized = w[1:].sum(axis=0)
    w[0] = np.maximum(1.0 - specialized, 0.0)
    w /= np.maximum(specialized, 1.0)[None, :]
    return w


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
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("temperature must be positive and finite")

    @property
    def num_classes(self) -> int:
        return self.heads[0].num_classes


def class_scale_matrix(model: MixtureModel) -> np.ndarray:
    """(K+1, C) per-class logit scales: the mixture logit of class c is
    sum_k scale[k, c] s_k(c). one_stage: 1/tau_0, and 1/tau_in or 1/tau_out
    by class owner; two_stage: ``class_weight_matrix`` over tau."""
    w = model.weights
    if w.parameterization == "one_stage":
        tau_spec = np.where(model.partition.owner_of() == 1, w.tau_in, w.tau_out)
        return np.stack([np.full(model.num_classes, 1.0 / w.tau_0), 1.0 / tau_spec])
    return class_weight_matrix(w, model.partition) / model.tau


def mixture_scaled_logits(
    model: MixtureModel,
    vectors: np.ndarray,
    classes: np.ndarray | None = None,
    sims: Iterable[np.ndarray] | None = None,
) -> np.ndarray:
    """Final pre-softmax logits of the mixture for a batch, (N, C').

    ``classes`` restricts the candidates (class-incremental evaluation
    only ranks classes seen so far), and each head is scored on those
    columns only. ``sims`` yields each head's (N, C') similarities on the
    candidates in turn.
    """
    scale = class_scale_matrix(model)
    if classes is not None:
        scale = scale[:, np.asarray(classes, dtype=np.int64)]
    if sims is None:
        heads = model.heads if classes is None else [h.restrict(classes) for h in model.heads]
        sims = (similarity_matrix(h, vectors) for h in heads)
    sims = iter(sims)
    logits = scale[0] * next(sims)
    for k, s_k in enumerate(sims, start=1):
        logits += scale[k] * s_k
    return logits


def mixture_predict(model: MixtureModel, x: np.ndarray) -> PredictiveDistribution:
    """Mixture distribution for a single embedding."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.heads[0].dim,):
        raise ValueError("dimension mismatch between embedding and model")
    return PredictiveDistribution(mixture_predict_matrix(model, x[None, :])[0], model.tau)


def mixture_predict_matrix(model: MixtureModel, vectors: np.ndarray) -> np.ndarray:
    """Row-wise mixture probabilities for a batch."""
    return backend.kernels.softmax_rows(mixture_scaled_logits(model, vectors))


def bound_gap(
    heads: Sequence[PromptHead], emb_set: EmbeddingSet, pi: np.ndarray, tau: float = DEFAULT_TAU
) -> float:
    """Weighted member error minus mixture error; non-negative by the
    ensemble bound (Jensen on log-sum-exp), up to float round-off. Each
    head's similarities s_i feed its member softmax(s_i / tau) and the
    mixture softmax(sum pi_i s_i / tau)."""
    pi = np.asarray(pi, dtype=np.float64)
    if len(pi) != len(heads):
        raise ValueError("one weight per head required")
    if not (np.all(pi >= 0) and abs(float(pi.sum()) - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("weights must be a simplex point")
    if len(emb_set) == 0:
        raise ValueError("bound_gap of an empty set")
    sims = np.stack([similarity_matrix(h, emb_set.vectors) for h in heads])
    return _stack_gap(sims, emb_set.labels, pi, tau)


def _stack_gap(sims: np.ndarray, labels: np.ndarray, pi: np.ndarray, tau: float) -> float:
    """bound_gap of a (K, N, C) similarity stack and its N labels, unchecked."""
    at_y = (np.arange(len(labels)), labels)
    members = sum(p * float(np.mean(label_nll(predict_matrix(s, tau)[at_y])))
                  for p, s in zip(pi, sims))
    probs = backend.kernels.softmax_rows(np.einsum("k,knc->nc", pi, sims) / tau)
    return float(members - float(np.mean(label_nll(probs[at_y]))))


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
    losses = label_nll(probs[np.arange(len(emb_set)), emb_set.labels])
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
