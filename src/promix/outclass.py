"""Out-class anchor generation for out-weight optimization.

Only in-domain classes exist at tuning time, so surrogate unseen classes
must be synthesized. Two sources are available: unstructured noise
(uniform sphere samples, the random-string analog) and a held-out
vocabulary pool drawn from the same prototype process as real classes
(the random-word analog, structured and in-distribution). ``mixed`` takes
half from each. :meth:`OutclassStrategy.resolved_count` is the one rule an
out-class set obeys; the harnesses and the CLI apply it before any tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from promix.embedspace import FieldError, unit_normalize

STRATEGY_KINDS = ("none", "random_string", "random_word", "mixed")
# the kinds that draw pool words, each taking n // divisor of its n anchors from the pool
_WORD_DIVISOR = {"random_word": 1, "mixed": 2}


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

    @property
    def draws_words(self) -> bool:
        """Whether the kind draws any anchors from a vocabulary pool."""
        return self.kind in _WORD_DIVISOR

    def pool_words(self, n: int) -> int:
        """How many of ``n`` anchors are pool words: random_word all of them,
        mixed n // 2, the other kinds none."""
        return n // _WORD_DIVISOR[self.kind] if self.draws_words else 0

    def resolved_count(self, in_class_size: int, pool_size: int | None = None) -> int:
        """The set's size, ``count`` or else one anchor per tuned class: at least 2
        unless the kind is none, with no more pool words than ``pool_size``, if
        given. FieldError at ``count`` or ``pool_size`` otherwise."""
        n = in_class_size if self.count is None else self.count
        if self.kind != "none" and n < 2:
            raise FieldError("count", f"out-class sets need at least 2 anchors; set a count, as "
                                      f"one anchor per tuned class gives {n}")
        if pool_size is not None and self.pool_words(n) > pool_size:
            raise FieldError("pool_size", f"pool exhausted: need {self.pool_words(n)}, "
                                          f"have {pool_size}")
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

    The :meth:`~OutclassStrategy.pool_words` of the n anchors sample the
    vocabulary pool without replacement, after the others are drawn as
    uniform sphere points: random_string draws only points, random_word only
    words, mixed ceil(n/2) points then floor(n/2) words. kind none yields an
    empty array (out-weight optimization is skipped).
    """
    if strategy.kind == "none":
        return np.empty((0, dim))
    n = strategy.resolved_count(in_class_size or 0, None if vocab_pool is None else len(vocab_pool))
    rng = np.random.default_rng(seed)

    def draw_strings(count: int) -> np.ndarray:
        return unit_normalize(rng.standard_normal((count, dim)))

    def draw_words(count: int) -> np.ndarray:
        if vocab_pool is None:
            raise ValueError("random_word needs a vocabulary pool")
        pool = np.asarray(vocab_pool, dtype=np.float64)
        if pool.shape[1] != dim:
            raise ValueError("vocabulary pool dimension mismatch")
        idx = rng.choice(pool.shape[0], size=count, replace=False)
        return pool[idx]

    n_words = strategy.pool_words(n)
    if n_words == 0:
        return draw_strings(n)
    return np.concatenate([draw_strings(n - n_words), draw_words(n_words)])
