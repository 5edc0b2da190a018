"""Loss zoo values, analytic gradients, and their identities.

Every gradient is gated by central finite differences; expected values
in closed-form cases were computed by hand from the definitions.
"""

import warnings

import numpy as np
import pytest

from conftest import ce_plus_mae_loss, focal_loss, gce_loss, grad_loss, loss_value, mae_loss
from promix import backend
from promix.head import predict
from promix.losses import (
    PROB_FLOOR,
    LossConfig,
    batch_loss_grad,
    ce_loss,
    confusion_loss,
    grad_prompt_loss,
    prompt_loss,
)


def central_diff(f, s, h=1e-5):
    g = np.zeros_like(s)
    for i in range(s.size):
        up, down = s.copy(), s.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2 * h)
    return g


def _dist(probs):
    return np.asarray(probs, dtype=np.float64)


class TestPointValues:
    def test_ce(self):
        assert ce_loss(_dist([1.0, 0.0]), 0) == 0.0
        assert ce_loss(_dist([1 / np.e, 1 - 1 / np.e]), 0) == pytest.approx(1.0, rel=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            y = int(rng.integers(0, 5))
            assert ce_loss(p, y) == pytest.approx(-np.log(p[y]), rel=1e-12)

    def test_confusion_term(self):
        assert confusion_loss(_dist([1.0, 0.0]), 0) == 0.0
        assert confusion_loss(_dist([0.0, 1.0]), 0) == 1.0
        assert confusion_loss(_dist([0.25, 0.75]), 0) == pytest.approx(0.75, abs=1e-15)

    def test_prompt_loss(self):
        p = _dist([0.5, 0.5])
        assert prompt_loss(p, 0, w=0.0) == ce_loss(p, 0)
        assert prompt_loss(_dist([1.0, 0.0]), 0, w=5.0) == 0.0
        assert prompt_loss(p, 0, w=5.0) == pytest.approx(np.log(2) + 2.5, rel=1e-12)
        assert prompt_loss(p, 0, w=5.0) == pytest.approx(3.1931, abs=1e-4)

    def test_focal(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4))
            y = int(rng.integers(0, 4))
            assert focal_loss(p, y, gamma=0.0) == pytest.approx(ce_loss(p, y), abs=1e-12)
        assert focal_loss(_dist([1.0, 0.0]), 0, gamma=2.0) == 0.0
        assert focal_loss(_dist([0.5, 0.5]), 0, gamma=2.0) == pytest.approx(
            0.25 * np.log(2), rel=1e-12
        )
        assert focal_loss(_dist([0.5, 0.5]), 0, gamma=2.0) == pytest.approx(0.1733, abs=1e-4)

    def test_gce(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(6))
            y = int(rng.integers(0, 6))
            assert gce_loss(p, y, q=1.0) == pytest.approx(confusion_loss(p, y), abs=1e-12)
        p = rng.dirichlet(np.ones(6))
        assert gce_loss(p, 2, q=1e-6) == pytest.approx(ce_loss(p, 2), abs=1e-5)
        assert gce_loss(_dist([1.0, 0.0]), 0, q=0.3) == 0.0

    def test_ce_mae(self):
        assert ce_plus_mae_loss(_dist([1.0, 0.0]), 0, w=1.0) == 0.0
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(3))
            y = int(rng.integers(0, 3))
            assert ce_plus_mae_loss(p, y, w=0.0) == pytest.approx(ce_loss(p, y), abs=1e-12)
        assert ce_plus_mae_loss(_dist([0.5, 0.5]), 0, w=1.0) == pytest.approx(
            np.log(2) + 0.5, rel=1e-12
        )
        assert ce_plus_mae_loss(_dist([0.5, 0.5]), 0, w=1.0) == pytest.approx(1.1931, abs=1e-4)

    def test_mae_matches_abs_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            y = int(rng.integers(0, 5))
            onehot = np.zeros(5)
            onehot[y] = 1
            assert mae_loss(p, y) == pytest.approx(np.abs(onehot - p).mean(), rel=1e-12)

    def test_losses_nonnegative_and_zero_at_certainty(self):
        certain = _dist([1.0, 0.0, 0.0])
        for cfg in (LossConfig("ce"), LossConfig("ce_conf"), LossConfig("fl"),
                    LossConfig("gce"), LossConfig("mae"), LossConfig("ce_mae")):
            assert loss_value(certain, 0, cfg) == 0.0
            rng = np.random.default_rng(5)
            for _ in range(50):
                p = rng.dirichlet(np.ones(3))
                assert loss_value(p, 0, cfg) >= 0.0

    def test_accepts_predictive_distribution(self):
        dist = predict(np.array([1.0, 0.0]), tau=1.0)
        assert ce_loss(dist, 0) == pytest.approx(-np.log(dist.probs[0]), rel=1e-12)


class TestPromptGradient:
    def test_ce_reduction_at_even_odds(self):
        s = np.zeros(2)
        g = grad_prompt_loss(s, 0, tau=1.0, w=0.0)
        assert g[0] == pytest.approx(-0.5, abs=1e-12)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            c = int(rng.integers(2, 21))
            s = rng.uniform(-1, 1, c)
            y = int(rng.integers(0, c))
            tau = float(rng.choice([1.0, 0.1, 0.01]))
            w = float(rng.choice([0.0, 1.0, 5.0, 7.0]))
            assert abs(grad_prompt_loss(s, y, tau, w).sum()) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            c = int(rng.integers(2, 21))
            s = rng.uniform(-1, 1, c)
            y = int(rng.integers(0, c))
            tau = [1.0, 0.1, 0.01][trial % 3]
            w = [0.0, 1.0, 5.0, 7.0][trial % 4]
            g = grad_prompt_loss(s, y, tau, w)
            fd = central_diff(lambda v: prompt_loss(predict(v, tau), y, w), s)
            denom = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) / denom < 1e-6

    def test_true_class_gradient_peaks_at_predicted_probability(self):
        # |d/ds(y)| = (1-p)(1+wp)/tau is maximal at p = (w-1)/(2w)
        w, tau = 5.0, 1.0
        grid = np.linspace(1e-4, 1 - 1e-4, 20001)
        magnitude = (1 - grid) * (1 + w * grid) / tau
        peak = grid[np.argmax(magnitude)]
        assert peak == pytest.approx((w - 1) / (2 * w), abs=1e-3)
        assert peak == pytest.approx(0.4, abs=1e-3)

    def test_incorrect_class_gradient_grows_with_w(self):
        s = np.array([0.4, 0.1, -0.3])
        grads = [grad_prompt_loss(s, 0, 0.5, w)[1] for w in (0.0, 1.0, 5.0, 7.0)]
        assert all(b > a for a, b in zip(grads, grads[1:]))


class TestLossZooGradients:
    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "fl", "gce", "mae", "ce_mae"])
    def test_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        cfg = LossConfig(kind=kind, w=3.0, gamma=2.0, q=0.7)
        for trial in range(30):
            c = int(rng.integers(2, 12))
            s = rng.uniform(-1, 1, c)
            y = int(rng.integers(0, c))
            tau = [1.0, 0.1][trial % 2]
            g = grad_loss(s, y, tau, cfg)
            fd = central_diff(lambda v: loss_value(predict(v, tau), y, cfg), s)
            denom = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) / denom < 1e-6


class TestBatchLossGrad:
    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "fl", "gce", "mae", "ce_mae"])
    def test_matches_per_sample_ops(self, kind):
        rng = np.random.default_rng(9)
        cfg = LossConfig(kind=kind, w=4.0, gamma=1.5, q=0.5)
        s = rng.uniform(-1, 1, (16, 7))
        y = rng.integers(0, 7, 16).astype(np.int64)
        tau = 0.1

        def mean_oracle(rows):
            return np.mean([loss_value(predict(rows[i], tau), int(y[i]), cfg) for i in range(16)])

        value, grad = batch_loss_grad(s, y, tau, cfg)
        assert value == pytest.approx(mean_oracle(s), rel=1e-10)
        fd = central_diff(lambda v: mean_oracle(v.reshape(s.shape)), s.ravel()).reshape(s.shape)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(grad - fd)) / denom < 1e-6

    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "fl", "gce", "mae", "ce_mae"])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_class_range_rejected(self, kind, label):
        s = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            batch_loss_grad(s, np.array([0, label]), 1.0, LossConfig(kind))


class TestFocalSaturatedRows:
    """The fl gradient on rows with p(y) = 1, where (1 - p(y))^(gamma - 1)
    is 1/0 for gamma < 1."""

    def test_no_floating_point_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = batch_loss_grad(
                np.array([[1e6, 0, 0]]), np.array([0]), 0.01, LossConfig("fl", gamma=0.5)
            )
        assert value == 0.0 and not grad.any()

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_bits_equal_the_masked_all_rows_formula(self, gamma):
        rng = np.random.default_rng(12)
        s = rng.uniform(-1, 1, (12, 5))
        y = rng.integers(0, 5, 12).astype(np.int64)
        s[3, y[3]] = 1e6  # a saturated row
        tau = 0.1
        value, grad = batch_loss_grad(s, y, tau, LossConfig("fl", gamma=gamma))
        # the formula evaluated on every row, then masked where p(y) >= 1
        p = backend.kernels.softmax_rows(s / tau)
        rows = np.arange(len(y))
        py = p[rows, y]
        onehot = np.zeros_like(p)
        onehot[rows, y] = 1.0
        log_py = np.log(np.maximum(py, PROB_FLOOR))
        with np.errstate(divide="ignore", invalid="ignore"):
            dl_dpy = np.where(
                py >= 1.0,
                0.0,
                gamma * (1.0 - py) ** (gamma - 1.0) * log_py
                - (1.0 - py) ** gamma / np.maximum(py, PROB_FLOOR),
            )
        want = dl_dpy[:, None] * (py[:, None] * (onehot - p) / tau) / len(y)
        assert py[3] == 1.0
        assert value == float(np.mean(-((1.0 - py) ** gamma) * log_py))
        assert grad.tobytes() == want.tobytes()


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            LossConfig(kind="nope")
        with pytest.raises(ValueError):
            LossConfig(w=-1.0)
        with pytest.raises(ValueError, match="w must"):
            LossConfig(w=float("nan"))
        with pytest.raises(ValueError):
            LossConfig(q=0.0)
        with pytest.raises(ValueError):
            LossConfig(gamma=-0.5)

    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.w, cfg.gamma, cfg.q) == (5.0, 2.0, 0.7)
