"""Numpy implementations of the hot kernels, reached through promix.backend.

Shapes: logits/similarities are float64 rows over their last axis, labels
int64; ``prompt_step`` takes R batches stacked on a leading run axis,
similarities (R, B, C) and labels (R, B).
"""

import numpy as np

PROB_FLOOR = 1e-300


def label_nll(p_y):
    """The label cross-entropy -log max(p_y, PROB_FLOOR), finite at p_y = 0."""
    return -np.log(np.maximum(p_y, PROB_FLOOR))


def softmax_rows(
    z: np.ndarray, out: np.ndarray | None = None, sums: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax over the last axis, max-subtracted for overflow safety.

    The result is written into ``out`` when given (a float64 array of z's
    shape, which may be ``z`` itself), else into one new array; ``exp``
    and the row division run in place, so the values are the same bits
    either way. With ``sums`` (float64, z's row shape) the division is
    skipped: the result is exp(z - row max) and ``sums`` gets its row sums.
    """
    z = np.asarray(z, dtype=np.float64)
    if sums is not None and sums.shape != z.shape[:-1]:
        raise ValueError(f"sums has shape {sums.shape}, z has {z.shape[:-1]} rows")
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    if sums is None:
        out /= out.sum(axis=-1, keepdims=True)
    else:
        np.sum(out, axis=-1, out=sums)
    return out


def prompt_step(s: np.ndarray, y: np.ndarray, tau: float, w):
    """Fused batch loss and gradient of CE + w * (1 - p(y)) over R stacked
    batches of similarities, s (R, B, C) and y (R, B), with w a scalar or one
    weight per run.

    Returns the (R,) per-run mean losses, each bitwise its batch's alone, and
    G = d(mean loss)/ds, shape (R, B, C).
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    runs, b = y.shape
    w = np.asarray(w, dtype=np.float64)[..., None]
    z = s / tau
    p = softmax_rows(z, out=z)
    at_y = (np.arange(runs)[:, None], np.arange(b), y)
    py = p[at_y]
    losses = label_nll(py) + w * (1.0 - py)
    coef = (1.0 + w * py) / (tau * b)
    g = p  # p is not read again, so the gradient takes its place
    g *= coef[..., None]
    g[at_y] = -(1.0 - py) * coef
    return np.add.reduce(losses, axis=1) / b, g  # the mean, without its wrapper
