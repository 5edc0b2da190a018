"""The numpy kernels on their own: normalization, overflow safety, and the
in-place forms of the softmax."""

import numpy as np

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
