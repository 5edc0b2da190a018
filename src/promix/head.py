"""The prompt-analog classifier head.

A head is a small learnable parameterization over fixed per-class anchor
embeddings: M shared context vectors whose mean is added to every anchor
before renormalization. The learnable parameter count is M x D regardless
of the class count, mirroring shared-context prompt tuning. A frozen head
(M = 0) classifies with its anchors directly and plays the role of the
generalized zero-shot model.
"""

from __future__ import annotations

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
    unit_normalize,
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
        context = np.ascontiguousarray(np.asarray(self.context, dtype=np.float64))
        anchors = np.ascontiguousarray(np.asarray(self.anchors, dtype=np.float64))
        if context.ndim != 2 or anchors.ndim != 2:
            raise ValueError("context and anchors must be 2-d arrays")
        if context.shape[0] > 0 and context.shape[1] != anchors.shape[1]:
            raise ValueError("context and anchor dimensions differ")
        if anchors.shape[0] != len(self.class_names):
            raise ValueError("one anchor per class name required")
        check_unit(anchors)
        context.setflags(write=False)
        anchors.setflags(write=False)
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
        """
        base = self.anchors if anchors is None else np.asarray(anchors, dtype=np.float64)
        if self.context_len == 0:
            return base
        return unit_normalize(base + self.context.mean(axis=0))


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


def save_head(head: PromptHead, tau: float, path) -> None:
    """Write a head checkpoint: JSON manifest plus an EMB1 float block.

    The binary block stores the context rows (label 0) followed by the
    anchor rows (label 1). Values are float32 on disk.
    """
    path = Path(path)
    data_file = path.with_suffix(".emb")
    vectors = np.concatenate([head.context, head.anchors]) if head.context_len else head.anchors
    labels = np.concatenate(
        [
            np.zeros(head.context_len, dtype=np.int64),
            np.ones(head.num_classes, dtype=np.int64),
        ]
    )
    block = EmbeddingSet(vectors, labels, ("context", "anchor"))
    write_embedding_file(block, data_file)
    manifest = {
        "context_len": head.context_len,
        "dim": head.dim,
        "class_names": list(head.class_names),
        "tau": tau,
        "frozen": head.context_len == 0,
        "data_file": data_file.name,
    }
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


def load_head(path) -> tuple[PromptHead, float]:
    """Read a head checkpoint written by :func:`save_head`; a malformed
    manifest entry or data file raises CheckpointError."""
    path = Path(path)
    entry = checkpoint_reader(path)
    names = entry("/class_names", lambda v: isinstance(v, list)
                  and all(isinstance(n, str) for n in v), "a list of class names")
    m = entry("/context_len", lambda v: type(v) is int and v >= 0, "a non-negative integer")
    tau = entry("/tau", lambda v: is_finite(v) and v > 0, "a positive finite number")
    frozen = entry("/frozen", lambda v: isinstance(v, bool), "true or false")
    data_file = path.parent / entry("/data_file", lambda v: isinstance(v, str), "a file name")
    try:
        block = read_embedding_file(data_file, check_norms=False)
    except (OSError, EmbeddingFileError) as exc:
        raise CheckpointError(f"{path}: /data_file: {exc}") from exc
    if block.vectors.shape[0] != m + len(names):
        raise CheckpointError(f"{path}: /class_names: anchor count does not match class list")
    entry("/dim", lambda v: type(v) is int and v == block.dim, f"the data file's {block.dim}")
    if frozen != (m == 0):
        raise CheckpointError(f"{path}: /frozen: a head is frozen exactly when it has no context")
    try:
        head = PromptHead(block.vectors[:m], block.vectors[m:], tuple(names))
    except ValueError as exc:
        raise CheckpointError(f"{path}: /data_file: {exc}") from exc
    return head, float(tau)
