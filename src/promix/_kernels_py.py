"""Numpy implementations of the hot kernels, reached through promix.backend.

Shapes: logits/similarities are (B, C) float64, labels are (B,) int64.
"""

import numpy as np

PROB_FLOOR = 1e-300


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prompt_step(s: np.ndarray, y: np.ndarray, tau: float, w: float):
    """Fused batch loss and gradient of CE + w * (1 - p(y)) over similarities.

    Returns (mean loss, G) with G = d(mean loss)/ds, shape (B, C).
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    b = s.shape[0]
    p = softmax_rows(s / tau)
    rows = np.arange(b)
    py = p[rows, y]
    losses = -np.log(np.maximum(py, PROB_FLOOR)) + w * (1.0 - py)
    coef = (1.0 + w * py) / (tau * b)
    g = p * coef[:, None]
    g[rows, y] = -(1.0 - py) * coef
    return float(losses.mean()), g
