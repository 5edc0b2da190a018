"""Training losses and their analytic gradients w.r.t. similarities.

The headline objective adds a confusion-sensitive term to cross-entropy:

    L(p, y) = -log p(y) + w * (1 - p(y))

whose gradient w.r.t. the similarity of the true class carries the factor
(1 + w * p(y)). That factor comes from differentiating the loss directly
and is the only form whose components sum to zero under softmax shift
invariance; every gradient here is gated by finite-difference checks in
the test suite. The remaining losses (focal, generalized CE, MAE) exist
for the comparison harness.

Gradient conventions: ``s`` holds per-class similarity rows, ``tau`` is
the softmax temperature, and all gradients are with respect to ``s``. Each
gradient formula lives once, in the batch path ``unchecked_loss_grad``.
``batch_loss_grad`` checks the labels and calls it; the tuning loop, which
checks each run's labels once, calls it directly. The
per-sample loss values live in the tests, as the finite-difference oracles
the batch path is checked against; the floored cross-entropy is
``label_nll``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from promix import backend
from promix._kernels_py import PROB_FLOOR, label_nll  # the one floored CE, shared with the kernels
from promix.embedspace import FieldError

LOSS_KINDS = ("ce", "ce_conf", "fl", "gce", "mae", "ce_mae")


@dataclass(frozen=True)
class LossConfig:
    """Selected loss and its parameters (w for ce_conf/ce_mae, gamma for
    fl, q for gce)."""

    kind: str = "ce_conf"
    w: float = 5.0
    gamma: float = 2.0
    q: float = 0.7

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise FieldError("kind", f"must be one of {LOSS_KINDS}, got {self.kind!r}")
        for name in ("w", "gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and non-negative")
        if not 0 < self.q <= 1:
            raise FieldError("q", "must lie in (0, 1]")

    @property
    def fused_w(self) -> float | None:
        """w of the fused ce/ce_conf kernel (0 for CE); None for other kinds."""
        return {"ce": 0.0, "ce_conf": self.w}.get(self.kind)


def batch_loss_grad(
    s: np.ndarray, y: np.ndarray, tau: float, config: LossConfig
) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient over a batch of similarity rows.

    The ce/ce_conf path runs on the fused kernel ``prompt_step`` as a stack
    of one batch, the comparison losses on vectorized numpy. Returns (loss,
    G) with G = d(loss)/dS. Raises ValueError for a label outside [0, C).
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= s.shape[1]):
        raise ValueError(f"labels must lie in [0, {s.shape[1]})")
    return unchecked_loss_grad(s, y, tau, config)


def unchecked_loss_grad(
    s: np.ndarray, y: np.ndarray, tau: float, config: LossConfig
) -> tuple[float, np.ndarray]:
    """:func:`batch_loss_grad` on a float64 ``s`` and int64 ``y`` whose
    labels the caller has already checked to lie in [0, C)."""
    if config.fused_w is not None:
        loss, g = backend.kernels.prompt_step(s[None], y[None], tau, config.fused_w)
        return float(loss[0]), g[0]
    b = s.shape[0]
    p = backend.kernels.softmax_rows(s / tau)
    rows = np.arange(b)
    py = p[rows, y]
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    # dp(y)/ds = p(y) (onehot - p) / tau; the comparison losses chain through it
    dpy_ds = py[:, None] * (onehot - p) / tau
    if config.kind == "fl":
        log_py = -label_nll(py)
        loss = float(np.mean(-((1.0 - py) ** config.gamma) * log_py))
        # rows with p(y) >= 1 get 0 unevaluated: (1 - p(y))^(gamma - 1) is 1/0 there for gamma < 1
        live = ~(py >= 1.0)
        q, dl_dpy = 1.0 - py[live], np.zeros_like(py)
        dl_dpy[live] = (config.gamma * q ** (config.gamma - 1.0) * log_py[live]
                        - q**config.gamma / np.maximum(py[live], PROB_FLOOR))
        g = dl_dpy[:, None] * dpy_ds
    elif config.kind == "gce":
        loss = float(np.mean((1.0 - py**config.q) / config.q))
        g = -(py**config.q)[:, None] * (onehot - p) / tau
    elif config.kind == "mae":
        loss = float(np.mean(2.0 * (1.0 - py) / p.shape[1]))
        g = (2.0 / p.shape[1]) * -dpy_ds
    else:  # ce_mae
        loss = float(np.mean(label_nll(py) + config.w * 2.0 * (1.0 - py) / p.shape[1]))
        g = (p - onehot) / tau + config.w * (2.0 / p.shape[1]) * -dpy_ds
    return loss, g / b
