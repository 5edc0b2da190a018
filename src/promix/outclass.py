"""Out-class anchor generation for out-weight optimization.

Only in-domain classes exist at tuning time, so surrogate unseen classes
must be synthesized. Two sources are available: unstructured noise
(uniform sphere samples, the random-string analog) and a held-out
vocabulary pool drawn from the same prototype process as real classes
(the random-word analog, structured and in-distribution). ``mixed`` takes
half from each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from promix.embedspace import FieldError, unit_normalize

STRATEGY_KINDS = ("none", "random_string", "random_word", "mixed")


@dataclass(frozen=True)
class OutclassStrategy:
    """Source kind plus anchor count; count None means match the in-class
    set size."""

    kind: str = "random_word"
    count: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise FieldError("kind", f"must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if self.count is not None and (self.kind == "none" or self.count < 2):
            raise FieldError("count", "must be unset under kind none, else at least 2 anchors")

    def resolved_count(self, in_class_size: int) -> int:
        n = in_class_size if self.count is None else self.count
        if self.kind != "none" and n < 2:
            raise ValueError("out-class sets need at least 2 anchors")
        return n


def generate_vocab_pool(dim: int, size: int, seed: int) -> np.ndarray:
    """Held-out prototypes: uniform unit-sphere samples, seed-deterministic."""
    rng = np.random.default_rng(seed)
    return unit_normalize(rng.standard_normal((size, dim)))


def generate_outclass(
    strategy: OutclassStrategy,
    dim: int,
    seed: int,
    vocab_pool: np.ndarray | None = None,
    in_class_size: int | None = None,
) -> np.ndarray:
    """Out-class anchors as an (n, dim) unit-norm array.

    random_string draws uniform sphere points; random_word samples the
    vocabulary pool without replacement; mixed takes ceil(n/2) strings and
    floor(n/2) words. kind none yields an empty array (out-weight
    optimization is skipped).
    """
    if strategy.kind == "none":
        return np.empty((0, dim))
    if strategy.count is None and in_class_size is None:
        raise ValueError("anchor count unresolved: pass count or in_class_size")
    n = strategy.resolved_count(in_class_size if in_class_size is not None else 0)
    rng = np.random.default_rng(seed)

    def draw_strings(count: int) -> np.ndarray:
        return unit_normalize(rng.standard_normal((count, dim)))

    def draw_words(count: int) -> np.ndarray:
        if vocab_pool is None or len(vocab_pool) == 0:
            raise ValueError("random_word needs a non-empty vocabulary pool")
        pool = np.asarray(vocab_pool, dtype=np.float64)
        if pool.shape[1] != dim:
            raise ValueError("vocabulary pool dimension mismatch")
        if count > pool.shape[0]:
            raise ValueError(f"pool exhausted: need {count}, have {pool.shape[0]}")
        idx = rng.choice(pool.shape[0], size=count, replace=False)
        return pool[idx]

    if strategy.kind == "random_string":
        return draw_strings(n)
    if strategy.kind == "random_word":
        return draw_words(n)
    n_str = (n + 1) // 2
    return np.concatenate([draw_strings(n_str), draw_words(n - n_str)])
