"""Training losses and their analytic gradients w.r.t. similarities.

The headline objective adds a confusion-sensitive term to cross-entropy:

    L(p, y) = -log p(y) + w * (1 - p(y))

whose gradient w.r.t. the similarity of the true class carries the factor
(1 + w * p(y)). That factor comes from differentiating the loss directly
and is the only form whose components sum to zero under softmax shift
invariance; every gradient here is gated by finite-difference checks in
the test suite. The remaining losses (focal, generalized CE, MAE) exist
for the comparison harness.

Gradient conventions: ``s`` is a per-class similarity vector, ``tau`` the
softmax temperature, and all gradients are with respect to ``s``. Each
gradient formula lives once, in the batch path, and ``grad_prompt_loss``
is its single-row ce_conf case. The per-sample values of the comparison
losses live in the tests, as the finite-difference oracles the batch path
is checked against; the floored cross-entropy is ``label_nll``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from promix import backend
from promix._kernels_py import PROB_FLOOR, label_nll  # the one floored CE, shared with the kernels
from promix.head import PredictiveDistribution

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
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.w < 0:
            raise ValueError("w must be non-negative")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0 < self.q <= 1:
            raise ValueError("q must lie in (0, 1]")

    @property
    def fused_w(self) -> float | None:
        """w of the fused ce/ce_conf kernel (0 for CE); None for other kinds."""
        return {"ce": 0.0, "ce_conf": self.w}.get(self.kind)


def _probs(p) -> np.ndarray:
    if isinstance(p, PredictiveDistribution):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def ce_loss(p, y: int) -> float:
    """Cross-entropy -log p(y), floored so adversarial inputs stay finite."""
    return float(label_nll(_probs(p)[y]))


def confusion_loss(p, y: int) -> float:
    """Confusion-aware term 1 - p(y), in [0, 1]."""
    return float(1.0 - _probs(p)[y])


def prompt_loss(p, y: int, w: float) -> float:
    """Tuning objective: ce_loss + w * confusion_loss."""
    return ce_loss(p, y) + w * confusion_loss(p, y)


def grad_prompt_loss(s: np.ndarray, y: int, tau: float, w: float) -> np.ndarray:
    """Exact gradient of prompt_loss(softmax(s / tau), y, w) w.r.t. s: the
    single-row ce_conf case of ``batch_loss_grad``.

    d/ds(y)   = -(1/tau) (1 - p(y)) (1 + w p(y))
    d/ds(c!=y) = (1/tau) p(c) (1 + w p(y))

    Components sum to zero (softmax shift invariance).
    """
    s = np.asarray(s, dtype=np.float64)
    return batch_loss_grad(s[None, :], np.array([y]), tau, LossConfig("ce_conf", w=w))[1][0]


def batch_loss_grad(
    s: np.ndarray, y: np.ndarray, tau: float, config: LossConfig
) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient over a batch of similarity rows.

    The ce/ce_conf path runs on the fused kernel ``prompt_step``; the
    comparison losses use vectorized numpy. Returns (loss, G) with G = d(loss)/dS.
    Raises ValueError for a label outside [0, C).
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= s.shape[1]):
        raise ValueError(f"labels must lie in [0, {s.shape[1]})")
    if config.fused_w is not None:
        return backend.kernels.prompt_step(s, y, tau, config.fused_w)
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
        dl_dpy = np.where(
            py >= 1.0,
            0.0,
            config.gamma * (1.0 - py) ** (config.gamma - 1.0) * log_py
            - (1.0 - py) ** config.gamma / np.maximum(py, PROB_FLOOR),
        )
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
