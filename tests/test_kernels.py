"""The numpy kernels on their own: normalization, overflow safety, and the
in-place and row-sum forms of the softmax."""

import numpy as np
import pytest

from promix import _kernels_py


def _logits_with_extremes(seed=1):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-200, 200, (64, 16))
    z[0] = [1e4] + [0.0] * 15
    z[1] = [-1e4] * 8 + [-1e4 + 3.0] * 8
    z[2, ::2] = 7e3
    z[3] = -7e3
    return z


def _softmax_reference(z):
    """The allocating form: shifted copy, exp copy, then a divided copy."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-200, 200, (64, 16))
        np.testing.assert_allclose(_kernels_py.softmax_rows(z).sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_safety(self):
        probs = _kernels_py.softmax_rows(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == 1.0
        z = _logits_with_extremes()
        in_place = z.copy()
        for source, out in ((z, None), (z, np.empty_like(z)), (in_place, in_place)):
            probs = _kernels_py.softmax_rows(source, out=out)
            assert np.all(np.isfinite(probs))
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_out_buffer_and_in_place_give_the_same_bits(self):
        z = _logits_with_extremes()
        fresh = _kernels_py.softmax_rows(z)
        buf = np.full_like(z, np.nan)
        assert _kernels_py.softmax_rows(z, out=buf) is buf
        in_place = z.copy()
        assert _kernels_py.softmax_rows(in_place, out=in_place) is in_place
        assert np.array_equal(fresh, _softmax_reference(z))
        assert np.array_equal(fresh, buf)
        assert np.array_equal(fresh, in_place)

    def test_input_untouched_without_out(self):
        z = _logits_with_extremes()
        before = z.copy()
        probs = _kernels_py.softmax_rows(z)
        assert probs is not z
        assert np.array_equal(z, before)


class TestSoftmaxRowSums:
    """The ``sums`` mode: exp(z - row max) left in place, its row sums
    written out, and no division."""

    def test_leaves_the_exponentials_and_their_row_sums(self):
        z = _logits_with_extremes()
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        for source, out in ((z, np.full_like(z, np.nan)), (z.copy(),) * 2):
            sums = np.full(z.shape[0], np.nan)
            assert _kernels_py.softmax_rows(source, out=out, sums=sums) is out
            assert np.array_equal(out, e)
            assert np.array_equal(sums, e.sum(axis=1, keepdims=True)[:, 0])
            # dividing by the sums gives the normalized path's bits
            assert np.array_equal(out / sums[:, None], _kernels_py.softmax_rows(z))

    @pytest.mark.parametrize("shape", [(63,), (65,), (64, 1), ()])
    def test_sums_not_one_per_row_raise(self, shape):
        z = _logits_with_extremes()
        before = z.copy()
        with pytest.raises(ValueError, match="sums"):
            _kernels_py.softmax_rows(z, out=z, sums=np.empty(shape))
        assert np.array_equal(z, before)
