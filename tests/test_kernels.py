"""The numpy kernels on their own: normalization and overflow safety."""

import numpy as np

from promix import _kernels_py


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-200, 200, (64, 16))
        np.testing.assert_allclose(_kernels_py.softmax_rows(z).sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_safety(self):
        probs = _kernels_py.softmax_rows(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == 1.0
