"""The prompt-analog classifier head.

A head is a small learnable parameterization over fixed per-class anchor
embeddings: M shared context vectors whose mean is added to every anchor
before renormalization. The learnable parameter count is M x D regardless
of the class count, mirroring shared-context prompt tuning. A frozen head
(M = 0) classifies with its anchors directly and plays the role of the
generalized zero-shot model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from promix import backend
from promix.embedspace import (
    EmbeddingFileError,
    EmbeddingSet,
    check_unit,
    read_embedding_file,
    read_only,
    unit_normalize_rows,
    write_embedding_file,
)

DEFAULT_TAU = 0.01
CONTEXT_INIT_STD = 0.02


@dataclass(frozen=True)
class PromptHead:
    """Immutable head: anchors plus shared learnable context vectors. A head
    is frozen exactly when it has no context vectors."""

    context: np.ndarray
    anchors: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        context = read_only(np.ascontiguousarray(np.asarray(self.context, dtype=np.float64)))
        anchors = read_only(np.ascontiguousarray(np.asarray(self.anchors, dtype=np.float64)))
        if context.ndim != 2 or anchors.ndim != 2:
            raise ValueError("context and anchors must be 2-d arrays")
        if context.shape[0] > 0 and context.shape[1] != anchors.shape[1]:
            raise ValueError("context and anchor dimensions differ")
        if anchors.shape[0] != len(self.class_names):
            raise ValueError("one anchor per class name required")
        check_unit(anchors)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def context_len(self) -> int:
        return self.context.shape[0]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    @property
    def num_classes(self) -> int:
        return self.anchors.shape[0]

    @classmethod
    def frozen_from(cls, anchors: np.ndarray, class_names: Sequence[str]) -> "PromptHead":
        a = np.asarray(anchors, dtype=np.float64)
        return cls(np.empty((0, a.shape[1])), a, tuple(class_names))

    @classmethod
    def with_random_context(
        cls,
        anchors: np.ndarray,
        class_names: Sequence[str],
        context_len: int,
        seed: int,
    ) -> "PromptHead":
        """Tunable head with small random context (near the frozen head): its
        entries are normal with standard deviation CONTEXT_INIT_STD."""
        a = np.asarray(anchors, dtype=np.float64)
        rng = np.random.default_rng(seed)
        ctx = CONTEXT_INIT_STD * rng.standard_normal((context_len, a.shape[1]))
        return cls(ctx, a, tuple(class_names))

    def with_context(self, context: np.ndarray) -> "PromptHead":
        return PromptHead(context, self.anchors, self.class_names)

    def restrict(self, classes: Sequence[int]) -> "PromptHead":
        """Head over a class subset; context is shared with the original."""
        idx = np.asarray(list(classes), dtype=np.int64)
        return PromptHead(self.context, self.anchors[idx], tuple(self.class_names[i] for i in idx))

    def effective_embeddings(self, anchors: np.ndarray | None = None) -> np.ndarray:
        """Unit-norm per-class embeddings: renormalize(anchor + mean(context)).

        ``anchors`` overrides the head's own anchor rows, which lets a
        tuned context be applied to surrogate classes (the out-class sets).
        The sum is the one C×D array built; it is normalized in place.
        """
        base = self.anchors if anchors is None else np.asarray(anchors, dtype=np.float64)
        if self.context_len == 0:
            return base
        return unit_normalize_rows(base + self.context.mean(axis=0))


def similarity_matrix(head: PromptHead, vectors: np.ndarray) -> np.ndarray:
    """(N, C) similarities of a batch of embeddings against every class."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[1] != head.dim:
        raise ValueError(
            f"dimension mismatch: batch dim {vectors.shape[1]}, head dim {head.dim}"
        )
    return vectors @ head.effective_embeddings().T


def predict_matrix(s: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Row-wise temperature softmax for a batch of similarity vectors."""
    s = np.asarray(s, dtype=np.float64)
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite similarity")
    return backend.kernels.softmax_rows(s / tau)


def anchors_sha256(anchors: np.ndarray, class_names: Sequence[str]) -> str:
    """sha256 of the float64 anchor rows, then of the class names as JSON."""
    digest = hashlib.sha256(np.ascontiguousarray(anchors, dtype="<f8").tobytes())
    digest.update(json.dumps(list(class_names)).encode())
    return digest.hexdigest()


def save_head(head: PromptHead, tau: float, path) -> None:
    """Write a head checkpoint: a JSON manifest of ``tau`` and the
    ``anchors_sha256`` of the head's anchors and class names, plus the
    context rows as an EMB1 block beside it (float32 on disk). The anchors
    belong to the domain, so the checkpoint stores only their digest."""
    path = Path(path)
    context = EmbeddingSet(head.context, np.zeros(head.context_len, np.int64), ("context",))
    write_embedding_file(context, path.with_suffix(".emb"))
    manifest = {"tau": tau, "anchors_sha256": anchors_sha256(head.anchors, head.class_names)}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class CheckpointError(ValueError):
    """A malformed checkpoint: the message names the file and the JSON pointer."""


def is_finite(value) -> bool:
    """A finite JSON number (a boolean is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def checkpoint_reader(path) -> Callable:
    """entry(pointer, ok, expected): the value at that JSON pointer of
    checkpoint ``path``. Raises CheckpointError if the file is not JSON, or
    the entry is missing or fails ``ok``."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise CheckpointError(f"{path}: /: not a JSON checkpoint ({exc})") from exc

    def entry(pointer: str, ok: Callable[[object], bool], expected: str):
        value = payload
        for key in pointer.split("/")[1:]:
            if isinstance(value, list) and key.isdigit() and int(key) < len(value):
                value = value[int(key)]
            elif not isinstance(value, dict) or key not in value:
                raise CheckpointError(f"{path}: {pointer}: missing entry")
            else:
                value = value[key]
        if not ok(value):
            raise CheckpointError(f"{path}: {pointer}: expected {expected}")
        return value

    return entry


def load_head(path, anchors: np.ndarray, class_names: Sequence[str]) -> tuple[PromptHead, float]:
    """Read a head checkpoint written by :func:`save_head` onto ``anchors``
    and ``class_names``, the run's domain. CheckpointError if they are not
    the ones the head was tuned on, or if a manifest entry or the context
    block is malformed."""
    path = Path(path)
    entry = checkpoint_reader(path)
    tau = entry("/tau", lambda v: is_finite(v) and v > 0, "a positive finite number")
    entry("/anchors_sha256", lambda v: v == anchors_sha256(anchors, class_names),
          "the digest of the run's anchors and class names; the head was tuned on others")
    try:
        block = read_embedding_file(path.with_suffix(".emb"), check_norms=False)
    except (OSError, EmbeddingFileError) as exc:
        raise CheckpointError(f"{path}: context block: {exc}") from exc
    dim = np.shape(anchors)[1]
    if block.dim != dim:
        raise CheckpointError(f"{path}: context block: rows of width {block.dim}, "
                              f"anchors of width {dim}")
    return PromptHead(block.vectors, anchors, tuple(class_names)), float(tau)
