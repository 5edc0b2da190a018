"""Numpy implementations of the hot kernels, reached through promix.backend.

Shapes: logits/similarities are (B, C) float64, labels are (B,) int64.
"""

import numpy as np

PROB_FLOOR = 1e-300


def softmax_rows(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    The result is written into ``out`` when given (a float64 array of z's
    shape, which may be ``z`` itself), else into one new array; ``exp``
    and the row division run in place, so the values are the same bits
    either way.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


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
