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
    Single specialized head only. Its similarity is divided by its own
    temperature tau_1, and the frozen head's by the model's tau_0: a weight
    pi_1 = tau_0 / (tau_1 + tau_0) at temperature tau_1 tau_0 / (tau_1 +
    tau_0). Algebraically identical to a matched two_stage configuration.

Both reduce to one (K+1, C) matrix of per-class logit scales, so the
mixture logits are sum_k scale[k, c] s_k(c), summed head by head over the
candidate classes only.

This module also houses the ensemble error bound: the mixture's expected
error never exceeds the weight-averaged error of its members. The
entropy-margin hinge that fits the out-of-domain weights lives in the
out-weight objective of ``promix.train``.
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
    PromptHead,
    checkpoint_reader,
    is_finite,
    predict_matrix,
    similarity_matrix,
)

PARAMETERIZATIONS = ("one_stage", "two_stage")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


@dataclass(frozen=True)
class MixtureWeights:
    """The raw parameters behind each specialized head's in/out weights.

    ``raw_in[i-1]`` and ``raw_out[i-1]`` belong to specialized head i: logits
    for two_stage, temperatures for one_stage. The two_stage weights,
    ``in_weights`` and ``out_weights``, are derived from them on each read.
    A one_stage weight also depends on the model's tau, so it has none here.
    """

    parameterization: str
    raw_in: np.ndarray
    raw_out: np.ndarray

    def __post_init__(self):
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        raw_in, raw_out = (np.array(r, np.float64, ndmin=1) for r in (self.raw_in, self.raw_out))
        if raw_in.shape != raw_out.shape or raw_in.ndim != 1:
            raise ValueError("in/out parameters must be 1-d arrays of equal length")
        if self.parameterization == "one_stage" and raw_in.shape[0] != 1:
            raise ValueError("one_stage is only defined for a single specialized head")
        raw_in.setflags(write=False)
        raw_out.setflags(write=False)
        object.__setattr__(self, "raw_in", raw_in)
        object.__setattr__(self, "raw_out", raw_out)
        if self.parameterization == "one_stage":
            if not np.all((raw_in > 0) & (raw_out > 0)):  # NaN fails the comparison
                raise ValueError("temperatures must be positive")
            return
        for arr in (self.in_weights, self.out_weights):
            if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both comparisons
                raise ValueError("weights must lie in [0, 1]")

    def _weights(self, raw: np.ndarray) -> np.ndarray:
        if self.parameterization != "two_stage":
            raise ValueError("one_stage weights depend on the model's tau")
        return sigmoid(raw)

    @property
    def in_weights(self) -> np.ndarray:
        return self._weights(self.raw_in)

    @property
    def out_weights(self) -> np.ndarray:
        return self._weights(self.raw_out)

    @property
    def num_specialized(self) -> int:
        return self.raw_in.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "MixtureWeights":
        """The naive ensemble: every weight 0.5 (two_stage logits of 0)."""
        return cls.two_stage(np.zeros(k), np.zeros(k))

    @classmethod
    def two_stage(cls, alphas_in, alphas_out) -> "MixtureWeights":
        return cls("two_stage", alphas_in, alphas_out)

    @classmethod
    def one_stage(cls, tau_in: float, tau_out: float) -> "MixtureWeights":
        return cls("one_stage", tau_in, tau_out)

    def raw(self, prompt: int, side: str) -> float:
        """The raw parameter weight fitting descends for head ``prompt``'s
        ``side`` ("in" or "out") weight: the two_stage logit alpha or the
        one_stage log tau."""
        value = (self.raw_in if side == "in" else self.raw_out)[prompt - 1]
        return float(value if self.parameterization == "two_stage" else np.log(value))

    def with_raw(self, prompt: int, side: str, theta: float) -> "MixtureWeights":
        """New weights with the raw parameter read by :meth:`raw` set to theta."""
        raw = {"in": self.raw_in.copy(), "out": self.raw_out.copy()}
        raw[side][prompt - 1] = theta if self.parameterization == "two_stage" else np.exp(theta)
        return MixtureWeights(self.parameterization, raw["in"], raw["out"])

    def coefficient(self, theta: float, tau: float = 1.0) -> tuple[float, float]:
        """(a, d log a / d theta), a the factor raw parameter theta puts on its
        head's similarities: sigmoid(theta) / tau, or exp(-theta) under one_stage."""
        if self.parameterization == "two_stage":
            pi = float(sigmoid(theta))
            return pi / tau, 1.0 - pi
        return float(np.exp(-theta)), -1.0

    def to_dict(self) -> dict:
        if self.parameterization == "one_stage":
            return {"parameterization": "one_stage",
                    "raw": {"tau_in": float(self.raw_in[0]), "tau_out": float(self.raw_out[0])}}
        return {
            "parameterization": "two_stage",
            "prompts": [
                {"pi_in": float(a), "pi_out": float(b)}
                for a, b in zip(self.in_weights, self.out_weights)
            ],
            "raw": {"alphas_in": list(self.raw_in), "alphas_out": list(self.raw_out)},
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

    if "tau_0" in entry("", lambda v: True, "a document"):  # the model's tau scales head 0
        raise CheckpointError(f"{path}: /tau_0: unexpected entry; head 0 takes the model's tau")
    positive = (lambda v: is_finite(v) and v > 0), "a positive finite number"
    if kind == "one_stage":
        taus = (float(entry(f"/raw/{key}", *positive)) for key in ("tau_in", "tau_out"))
        return MixtureWeights.one_stage(*taus)
    alphas_in, alphas_out = numbers("/raw/alphas_in"), numbers("/raw/alphas_out")
    if len(alphas_in) != len(alphas_out):
        raise CheckpointError(f"{path}: /raw/alphas_out: expected one logit per alphas_in entry")
    return MixtureWeights.two_stage(alphas_in, alphas_out)


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
    in_w, out_w = weights.in_weights, weights.out_weights
    for i in range(1, k + 1):
        w[i] = np.where(owners == i, in_w[i - 1], out_w[i - 1])
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
    sum_k scale[k, c] s_k(c). one_stage: 1/tau for head 0, and 1/tau_in or
    1/tau_out by class owner; two_stage: ``class_weight_matrix`` over tau."""
    w = model.weights
    if w.parameterization == "one_stage":
        tau_spec = np.where(model.partition.owner_of() == 1, w.raw_in[0], w.raw_out[0])
        return np.stack([np.full(model.num_classes, 1.0 / model.tau), 1.0 / tau_spec])
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
