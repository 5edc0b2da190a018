"""Out-class anchor generation strategies."""

import numpy as np
import pytest

from promix.embedspace import FieldError
from promix.outclass import OutclassStrategy, generate_outclass, generate_vocab_pool


class TestStrategy:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            OutclassStrategy(kind="web_api")
        with pytest.raises(ValueError, match="at least 2"):
            OutclassStrategy(kind="random_word", count=1)
        with pytest.raises(FieldError, match="count must be unset under kind none"):
            OutclassStrategy(kind="none", count=7)

    def test_resolved_count_defaults_to_in_class_size(self):
        assert OutclassStrategy("random_word").resolved_count(7) == 7
        assert OutclassStrategy("random_word", count=4).resolved_count(7) == 4

    @pytest.mark.parametrize(
        "kind, draws, words",
        [("none", False, 0), ("random_string", False, 0), ("random_word", True, 9),
         ("mixed", True, 4)],
    )
    def test_pool_words_per_kind(self, kind, draws, words):
        strategy = OutclassStrategy(kind)
        assert strategy.draws_words is draws
        assert strategy.pool_words(9) == words


class TestGeneration:
    def test_none_gives_empty(self):
        out = generate_outclass(OutclassStrategy("none"), dim=8, seed=0)
        assert out.shape == (0, 8)

    def test_exhaustive_pool_sampling(self):
        pool = generate_vocab_pool(6, 10, seed=1)
        out = generate_outclass(
            OutclassStrategy("random_word", count=10), dim=6, seed=2, vocab_pool=pool
        )
        assert out.shape == (10, 6)
        assert {tuple(v) for v in out} == {tuple(v) for v in pool}

    def test_no_duplicates_from_pool(self):
        pool = generate_vocab_pool(8, 20, seed=3)
        out = generate_outclass(
            OutclassStrategy("random_word", count=12), dim=8, seed=4, vocab_pool=pool
        )
        assert len({tuple(v) for v in out}) == 12

    def test_seed_determinism(self):
        pool = generate_vocab_pool(8, 16, seed=5)
        a = generate_outclass(OutclassStrategy("mixed", count=9), 8, seed=6, vocab_pool=pool)
        b = generate_outclass(OutclassStrategy("mixed", count=9), 8, seed=6, vocab_pool=pool)
        assert np.array_equal(a, b)

    def test_mixed_counts(self):
        pool = generate_vocab_pool(8, 16, seed=7)
        out = generate_outclass(OutclassStrategy("mixed", count=9), 8, seed=8, vocab_pool=pool)
        assert out.shape[0] == 9
        in_pool = sum(tuple(v) in {tuple(p) for p in pool} for v in out)
        assert in_pool == 4  # floor(9/2) words, ceil(9/2) sphere samples

    @pytest.mark.parametrize("kind", ["random_string", "random_word", "mixed"])
    def test_pool_rows_are_the_strategys_pool_words(self, kind):
        pool = generate_vocab_pool(8, 16, seed=15)
        words = {tuple(p) for p in pool}
        for n in range(2, 10):
            strategy = OutclassStrategy(kind, count=n)
            out = generate_outclass(strategy, 8, seed=n, vocab_pool=pool)
            assert out.shape == (n, 8)
            assert sum(tuple(v) in words for v in out) == strategy.pool_words(n)

    def test_unit_norms(self):
        pool = generate_vocab_pool(16, 8, seed=9)
        for kind in ("random_string", "random_word", "mixed"):
            out = generate_outclass(OutclassStrategy(kind, count=6), 16, seed=10, vocab_pool=pool)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_pool_exhaustion(self):
        pool = generate_vocab_pool(8, 4, seed=11)
        with pytest.raises(ValueError, match="exhausted"):
            generate_outclass(OutclassStrategy("random_word", count=6), 8, seed=12,
                              vocab_pool=pool)

    def test_missing_pool(self):
        with pytest.raises(ValueError, match="pool"):
            generate_outclass(OutclassStrategy("random_word", count=4), 8, seed=13)

    def test_unresolved_count(self):
        with pytest.raises(ValueError, match="count"):
            generate_outclass(OutclassStrategy("random_string"), 8, seed=14)
