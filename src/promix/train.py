"""Optimization loops: prompt tuning and mixture-weight fitting.

Prompt tuning runs mini-batch adaptive-moment descent on the shared
context vectors only, with gradients flowing through the renormalization
of the effective class embeddings. The context enters only through its
row mean cbar, so each run computes X·Aᵀ and the anchor norms once; a
step then costs O(B·C) plus two C×D matrix-vector products
(A·cbar for the norms, Aᵀr for the gradient) instead of rebuilding the
C×D effective embeddings.

The one tuning loop steps R independent runs of equal length at once,
stacked on a leading axis, each bitwise as if alone; ``tune_prompt`` and
``tune_prompt_one_stage`` are its one-run callers. A one_stage run also
steps its log(tau_1) beside its context, against the fixed logits of the
frozen head on its own anchors, which it reads from its own X·Aᵀ.

Weight fitting runs full-batch momentum descent on the raw weight
parameters (two_stage logits or one_stage temperatures): the two_stage
in-weight against the mixture's cross-entropy on its own sub-domain (a
one_stage in-weight is learned in tuning), the out-weight against the
entropy-margin loss on a surrogate out-class set.
Both objectives are evaluated in closed form from arrays computed once per
fit, the in-weight ones on the candidate columns only: the in-weight logits
are affine in a scalar coefficient of the parameter, and the out-weight
logits are a scalar multiple of fixed similarities, so each evaluation is
O(N·C) work with no N×C temporaries: both walk the rows in cache-sized
blocks through reused block buffers. Weight traces are monotone
non-increasing: descent stops at the first epoch that would raise the
objective, and an immediate ascent retries once at a tenth of the learning
rate. A step that leaves the parameter and its momentum buffer
bitwise unchanged is an exact fixed point, so the descent fills in the
remaining epochs without evaluating them (an out-weight hinge inactive at a
zero start costs one evaluation); the result is the same as running them.

All loops are deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from promix import backend
from promix._kernels_py import label_nll
from promix.embedspace import EmbeddingSet, FieldError
from promix.head import DEFAULT_TAU, PromptHead
from promix.losses import LossConfig, batch_loss_grad
from promix.mixture import MixtureModel


class DivergenceError(RuntimeError):
    """Raised when an optimization loop produces a non-finite or
    persistently non-monotone objective."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Default optimizer settings for both stages.

    ``prompt_lr`` drives Adam on the context; ``weight_lr`` drives
    momentum SGD on the weight parameters. ``weight_epochs`` covers the
    non-incremental case; incremental harnesses override it per session.
    """

    prompt_lr: float = 0.002
    prompt_weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_lr: float = 0.002
    weight_momentum: float = 0.9
    weight_weight_decay: float = 5e-4
    epochs: int = 50
    batch_size: int = 32
    weight_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("prompt_lr", "prompt_weight_decay", "weight_lr", "weight_weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and non-negative")
        for name in ("beta1", "beta2", "weight_momentum"):
            if not 0 <= getattr(self, name) < 1:
                raise FieldError(name, "must lie in [0, 1)")
        if not 0 < self.eps < math.inf:
            raise FieldError("eps", "must be positive and finite")
        for name in ("epochs", "batch_size", "weight_epochs"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be at least 1")


@dataclass(frozen=True)
class HyperParams:
    """Method hyperparameters: loss weight w, entropy-loss scale, hinge
    margin d, and context length M."""

    conf_weight: float = 5.0
    ent_weight: float = 8.0
    margin: float = 0.2
    context_len: int = 16

    def __post_init__(self):
        for name in ("conf_weight", "ent_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and non-negative")
        if not 0 <= self.margin <= 1:
            raise FieldError("margin", "must lie in [0, 1]")
        if self.context_len < 1:
            raise FieldError("context_len", "must be at least 1: a tuned head needs context")


LOCKSTEP_RUNS = 16  # the most runs one loop steps, so memory stays bounded
BLOCK_ELEMS = 1 << 16  # weight-objective rows x columns per block: 512 KiB, so it stays in cache


@dataclass(frozen=True)
class TuneRun:
    """One run of :func:`tune_prompts`. With ``classes`` (indices into the
    head's class list) it trains those columns on the rows they label,
    gathered batch by batch from ``train_set``; with None, every column on
    every row. A ``one_stage`` run also learns its temperature tau_1, from
    ``tau``, against the frozen head's logits on its anchors at ``tau``."""

    init: PromptHead
    train_set: EmbeddingSet
    loss: LossConfig
    opt: OptimizerConfig
    tau: float = DEFAULT_TAU
    classes: np.ndarray | None = None
    epoch_hook: Callable[[int, PromptHead], None] | None = None
    one_stage: bool = False

    def local(self) -> tuple[PromptHead, np.ndarray, np.ndarray]:
        """The head on the trained columns (increasing), the training rows,
        and their labels as column indices."""
        labels = self.train_set.labels
        if self.classes is None:
            return self.init, np.arange(len(labels)), labels
        classes = np.unique(self.classes)
        rows = np.flatnonzero(np.isin(labels, classes))
        return self.init.restrict(classes), rows, np.searchsorted(classes, labels[rows])


@dataclass(frozen=True)
class _AnchorSpace:
    """The context-free part of R lockstep runs, computed once: the anchors
    (S, C, D), their squared norms, and each run's products X·Aᵀ (S, n, C);
    S is R, or 1 for runs that share them. The norms are stored rather than
    assumed to be 1: EMB1 anchors are unit-norm only to the file tolerance.
    """

    anchors: np.ndarray
    anchor_sq: np.ndarray
    xa: np.ndarray

    @classmethod
    def of(cls, anchors: np.ndarray, vectors: np.ndarray, rows: np.ndarray) -> "_AnchorSpace":
        """Run s trains on ``vectors[rows[s]]``; its block of X·Aᵀ is the
        single-run product, filled in place."""
        xa = np.empty((len(anchors), rows.shape[1], anchors.shape[1]))
        for s, a in enumerate(anchors):
            np.matmul(vectors[rows[s]], a.T, out=xa[s])
        return cls(anchors, np.einsum("scd,scd->sc", anchors, anchors), xa)


def _context_sims(
    space: _AnchorSpace, xa_b: np.ndarray, xb: np.ndarray, cbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Similarities (R, B, C) of the batch rows ``xb``, whose X·Aᵀ rows are
    ``xa_b`` (overwritten with them), against the effective embeddings
    renormalize(a_c + cbar), and the norms ‖a_c + cbar‖.

    sim = (x·a_c + x·cbar) / ‖a_c + cbar‖ with
    ‖a_c + cbar‖² = ‖a_c‖² + 2 a_c·cbar + ‖cbar‖². Stacked matmul runs each
    run's product with the single-run kernel, so the bits are the same.
    """
    col = cbar[:, :, None]
    sq = (cbar[:, None, :] @ col)[:, :, 0]
    norms = np.sqrt(space.anchor_sq + 2.0 * (space.anchors @ col)[:, :, 0] + sq)
    xa_b += xb @ col
    xa_b /= norms[:, None, :]
    return xa_b, norms


def _context_grad(
    space: _AnchorSpace,
    g: np.ndarray,
    sims: np.ndarray,
    norms: np.ndarray,
    xb: np.ndarray,
    cbar: np.ndarray,
    m_rows: int,
) -> np.ndarray:
    """Gradient of sum(g * sims) w.r.t. each context row, (R, 1, D).

    With r_c = Σ_b g_bc sims_bc / n_c², the gradient w.r.t. cbar is
    Xᵀ(g/n)·1 − Aᵀr − cbar Σr; cbar is the row mean, so every context row
    receives an equal 1/M share of it.
    """
    r = np.einsum("rbc,rbc->rc", g, sims) / (norms * norms)
    d_cbar = (
        xb.transpose(0, 2, 1) @ (g @ (1.0 / norms)[:, :, None])
        - space.anchors.transpose(0, 2, 1) @ r[:, :, None]
    )[:, :, 0] - r.sum(axis=1)[:, None] * cbar
    return (d_cbar / m_rows)[:, None, :]


def _runs_loss_grad(losses: Sequence[LossConfig]) -> Callable:
    """(sims (R, B, C), labels, tau) -> per-run mean losses and their
    gradients: one fused ``prompt_step`` with a per-run w for ce/ce_conf,
    else the one run's ``batch_loss_grad``."""
    w = [loss.fused_w for loss in losses]
    if None not in w:
        return lambda sims, yb, tau: backend.kernels.prompt_step(sims, yb, tau, np.array(w))
    (loss,) = losses
    return lambda sims, yb, tau: tuple(
        np.asarray(a)[None] for a in batch_loss_grad(sims[0], yb[0], tau, loss)
    )


def _context_loss_grad(
    ctx: np.ndarray,
    space: _AnchorSpace,
    xa_b: np.ndarray,
    xb: np.ndarray,
    yb: np.ndarray,
    loss_grad: Callable,
    tau: float,
    z0_b: np.ndarray | None = None,
    log_tau: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Each run's batch loss and its gradient w.r.t. the context rows. Given
    one_stage's fixed batch logits ``z0_b`` and log(tau_1), the loss reads
    z0_b + s / tau_1 at temperature 1, and the log(tau_1) gradient comes third."""
    cbar = np.add.reduce(ctx, axis=1) / ctx.shape[1]  # ctx.mean(axis=1) without its wrapper
    sims, norms = _context_sims(space, xa_b, xb, cbar)
    if z0_b is None:
        loss_vals, g = loss_grad(sims, yb, tau)
        return loss_vals, _context_grad(space, g, sims, norms, xb, cbar, ctx.shape[1])
    tau_1 = np.exp(log_tau)[:, None, None]
    loss_vals, g_z = loss_grad(z0_b + sims / tau_1, yb, 1.0)
    grad_ctx = _context_grad(space, g_z / tau_1, sims, norms, xb, cbar, ctx.shape[1])
    return loss_vals, grad_ctx, -np.einsum("rbc,rbc->r", g_z, sims) / tau_1[:, 0, 0]


def _adam_descent(
    params: list[np.ndarray],
    batch_grad: Callable[[np.ndarray, np.ndarray, list], tuple[np.ndarray, list]],
    labels: np.ndarray,
    num_classes: int,
    opt: OptimizerConfig,
    seeds: Sequence[int],
    ids: Sequence[int],
    epoch_hook: Callable[[int, list], None] | None = None,
) -> tuple[list[np.ndarray], list[list[float]]]:
    """Mini-batch Adam over the runs stacked on each parameter's leading
    axis. Run r draws its batch order from ``seeds[r]``; ``batch_grad(idx,
    yb, params)`` takes every run's batch rows and labels (R, B) and returns
    the per-run mean losses and one gradient per parameter. Each update is
    elementwise, so a run's result is bitwise that of the run alone. Returns
    the parameters and each run's per-epoch mean loss. A label outside
    [0, num_classes) or a non-finite loss raises naming the run, ``ids[r]``,
    and the batch offset."""
    runs, n = labels.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    run_axis = np.arange(runs)[:, None]
    outside = (labels < 0) | (labels >= num_classes)
    any_outside = outside.any()
    moments = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    step = 0
    trace = np.empty((opt.epochs, runs))
    for epoch in range(opt.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        epoch_loss = np.zeros(runs)
        for start in range(0, n, opt.batch_size):
            idx = order[:, start : start + opt.batch_size]
            where = f"at epoch {epoch}, batch offset {start}"
            if any_outside and outside[run_axis, idx].any():
                run = ids[np.flatnonzero(outside[run_axis, idx].any(axis=1))[0]]
                raise ValueError(f"run {run}: training label outside the head's class "
                                 f"list [0, {num_classes}) {where}")
            loss_vals, grads = batch_grad(idx, labels[run_axis, idx], params)
            if not np.isfinite(loss_vals).all():
                run = ids[np.flatnonzero(~np.isfinite(loss_vals))[0]]
                raise DivergenceError(f"run {run}: non-finite loss {where}")
            epoch_loss += loss_vals * idx.shape[1]

            step += 1
            for p, m, v, grad in zip(params, moments, second, grads):
                # the out-of-place update's operations in order, so the bits
                # stay, with no temporary outliving its statement
                m *= opt.beta1
                m += (1.0 - opt.beta1) * grad
                v *= opt.beta2
                v += (1.0 - opt.beta2) * grad * grad
                p -= (opt.prompt_lr * (m / (1.0 - opt.beta1**step))
                      / (np.sqrt(v / (1.0 - opt.beta2**step)) + opt.eps))
        trace[epoch] = epoch_loss / n
        if epoch_hook is not None:
            epoch_hook(epoch, params)
    return params, trace.T.tolist()


def tune_prompts(runs: Sequence[TuneRun]) -> list[tuple[PromptHead, float, list[float]]]:
    """Tune independent runs; return each one's (tuned head, temperature,
    per-epoch mean training loss), bitwise what it gives alone: the
    temperature is ``run.tau``, or a one_stage run's learned tau_1. Runs of
    equal row counts, trained shapes, optimizers (seed apart), temperatures
    and kinds step in lockstep, on one training set or several, at most
    ``LOCKSTEP_RUNS`` at a time; a loss other than ce/ce_conf runs alone."""
    groups: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        head, rows, _ = run.local()
        if run.init.context_len == 0:
            raise ValueError("cannot tune a frozen head (no context vectors)")
        if len(rows) == 0:
            raise ValueError("empty training set")
        alone = i if run.loss.fused_w is None else None
        key = (len(rows), head.anchors.shape, head.context.shape, replace(run.opt, seed=0),
               run.tau, run.one_stage, alone)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(runs)
    for members in groups.values():
        for start in range(0, len(members), LOCKSTEP_RUNS):
            ids = members[start : start + LOCKSTEP_RUNS]
            for i, result in zip(ids, _tune_group([runs[i] for i in ids], ids)):
                results[i] = result
    return results


def _tune_group(
    runs: list[TuneRun], ids: list[int]
) -> list[tuple[PromptHead, float, list[float]]]:
    """One Adam loop over runs of equal steps and one kind; returns each
    run's (tuned head, temperature, per-epoch loss trace). Runs on the same
    rows, anchors and classes (twins differing in loss or seed) share one
    X·Aᵀ; runs on several training sets read their rows gathered into one
    (R·n, D) matrix. One_stage runs also step log(tau_1), from log(run.tau);
    a batch's fixed logits are its X·Aᵀ rows over run.tau."""
    first = runs[0]
    one_set = all(r.train_set is first.train_set for r in runs)
    shared = one_set and all(r.init.anchors is first.init.anchors and r.classes is first.classes
                             for r in runs)
    heads, rows, labels = zip(*(run.local() for run in (runs[:1] if shared else runs)))
    x = first.train_set.vectors
    if not one_set:
        x = np.concatenate([run.train_set.vectors[r] for run, r in zip(runs, rows)])
        rows = np.arange(len(x)).reshape(len(runs), -1)
    space = _AnchorSpace.of(np.stack([h.anchors for h in heads]), x, np.stack(rows))
    del heads  # the space holds their anchors
    stack = (len(runs), len(rows[0]))
    rows, labels = np.broadcast_to(np.stack(rows), stack), np.broadcast_to(np.stack(labels), stack)
    xa = np.broadcast_to(space.xa, stack + space.xa.shape[2:])
    run_axis = np.arange(len(runs))[:, None]
    loss_grad = _runs_loss_grad([run.loss for run in runs])
    params = [np.stack([run.init.context for run in runs])]
    if first.one_stage:
        params.append(np.array([np.log(run.tau) for run in runs]))

    def batch_grad(idx, yb, params):
        at, ctx = (run_axis, idx), params[0]
        xa_b = xa[at]
        z0_b = xa_b / first.tau if first.one_stage else None  # before xa_b is overwritten
        loss_vals, grad, *grad_tau = _context_loss_grad(
            ctx, space, xa_b, x[rows[at]], yb, loss_grad, first.tau, z0_b, *params[1:]
        )
        return loss_vals, [grad + first.opt.prompt_weight_decay * ctx, *grad_tau]

    def head_hook(epoch, params):
        for run, ctx in zip(runs, params[0]):
            if run.epoch_hook is not None:
                run.epoch_hook(epoch, run.init.with_context(ctx.copy()))

    params, traces = _adam_descent(
        params, batch_grad, labels, space.anchors.shape[1], first.opt,
        [run.opt.seed for run in runs], ids, head_hook,
    )
    taus = np.exp(params[1]) if first.one_stage else [run.tau for run in runs]
    return [(run.init.with_context(c.copy()), float(t), trace)
            for run, c, t, trace in zip(runs, params[0], taus, traces)]


def tune_prompt(
    init: PromptHead,
    train_set: EmbeddingSet,
    loss: LossConfig,
    opt: OptimizerConfig,
    tau: float = DEFAULT_TAU,
    classes: np.ndarray | None = None,
) -> tuple[PromptHead, list[float]]:
    """Mini-batch descent on the context vectors; anchors stay frozen.

    The one-run case of :func:`tune_prompts`, on the columns and rows of
    ``classes`` as in :class:`TuneRun`. Returns the tuned head and the
    per-epoch mean training loss.
    """
    head, _, trace = tune_prompts([TuneRun(init, train_set, loss, opt, tau, classes)])[0]
    return head, trace


def tune_prompt_one_stage(
    init: PromptHead,
    train_set: EmbeddingSet,
    loss: LossConfig,
    opt: OptimizerConfig,
    tau_0: float = DEFAULT_TAU,
) -> tuple[PromptHead, float, list[float]]:
    """Joint descent on the context and the specialized temperature.

    The single-temperature coupling ties the specialized head's mixing
    weight to its own temperature tau_1: training logits are
    s_0 / tau_0 + s_1 / tau_1, where s_0 are the similarities of the frozen
    head on ``init``'s anchors, and the one tuning loop updates the context
    together with log(tau_1), as its one-run case. Only meaningful with
    exactly one specialized head. Returns (tuned head, tau_1, per-epoch
    loss trace).
    """
    return tune_prompts([TuneRun(init, train_set, loss, opt, tau_0, one_stage=True)])[0]


def _descend_scalar(
    theta0: float,
    objective_grad: Callable[[float], tuple[float, float]],
    opt: OptimizerConfig,
    epochs: int,
    n_samples: int,
) -> tuple[float, list[float]]:
    """Full-batch momentum descent on one raw parameter.

    ``objective_grad`` maps theta -> (objective, d objective / d theta).
    One epoch performs ceil(n_samples / batch_size) full-batch steps, so
    an epoch updates the parameter as many times as mini-batch descent
    would; the trace records the objective once per epoch. The raw
    parameter also receives weight decay.

    The returned trace is monotone non-increasing within 1e-9: momentum
    wobbles around the optimum once converged, so the loop stops at the
    first epoch that would raise the objective and returns the iterate
    before it. An ascent on the very first epoch means the step size is
    too large; that case retries once at a tenth of the learning rate.

    A step that leaves (theta, momentum buffer) bitwise unchanged is an
    exact fixed point: the objective at theta is already known, and every
    later step repeats it. The loop then applies the end-of-epoch rule
    once, fills the trace for the remaining epochs and returns, with the
    same result as running them.
    """
    steps_per_epoch = max(1, -(-n_samples // opt.batch_size))

    def run(lr: float) -> tuple[float, list[float]]:
        theta = theta0
        buf = 0.0
        value, grad = objective_grad(theta)
        trace = [value]
        for epoch in range(epochs):
            previous_theta = theta
            for _ in range(steps_per_epoch):
                step_buf = opt.weight_momentum * buf + grad + opt.weight_weight_decay * theta
                step_theta = theta - lr * step_buf
                # bit patterns, so -0.0 differs from 0.0 and NaN payloads count
                stalled = struct.pack("<2d", step_theta, step_buf) == struct.pack("<2d", theta, buf)
                if not stalled:
                    theta, buf = step_theta, step_buf
                    value, grad = objective_grad(theta)
                if not np.isfinite(value):
                    raise DivergenceError("non-finite weight objective")
                if stalled:
                    break
            if value > trace[-1] + 1e-9:
                return previous_theta, trace
            trace.append(value)
            if stalled:
                trace.extend([value] * (epochs - 1 - epoch))
                break
        return theta, trace

    theta, trace = run(opt.weight_lr)
    if len(trace) == 1 and epochs > 0:
        theta, trace = run(opt.weight_lr * 0.1)
        if len(trace) == 1:
            raise DivergenceError(
                "weight objective rises immediately even after lr backoff"
            )
    return theta, trace


def _in_objective_factory(
    model: MixtureModel, train_set: EmbeddingSet, prompt: int, classes: np.ndarray | None
):
    """Precompute the two_stage mixture logits in closed form; return
    theta -> (mean CE, gradient).

    The logits are affine in the coefficient (a, c) =
    ``MixtureWeights.coefficient(theta)`` = (pi, 1 - pi): logits =
    base + a vary and d logits / d theta = a c vary, where base and vary are
    over tau and vary is zero off the head's own classes. Both are
    built in a (K+1, N, |classes|) stack of candidate-column similarities,
    filled head by head: row block by row block, base overwrites slot 0 and
    vary slot 1, so nothing N x |classes| is allocated beside the stack.

    With several specialized heads a column's specialized weights can sum
    above 1; such columns are renormalized by that sum, as in
    ``class_weight_matrix``, and rebuilt from the same arrays.

    An evaluation walks the rows in blocks of ``BLOCK_ELEMS`` elements
    through one reused buffer; the kernel leaves e = exp(z - row max) and its
    row sums S: a row's CE is -log(e_y / S), its slope along dz sum e dz / S - dz_y.
    """
    weights = model.weights
    n = len(train_set)
    classes = np.asarray(np.arange(model.num_classes) if classes is None else classes, np.int64)
    label_pos = np.full(model.num_classes, -1)
    label_pos[classes] = np.arange(len(classes))
    y_local = label_pos[train_set.labels]
    if (y_local < 0).any():
        bad = train_set.labels[y_local < 0][0]
        raise ValueError(f"training label {bad} is not in the candidate class list")
    x = train_set.vectors
    sims = np.empty((len(model.heads), n, len(classes)))
    for k, h in enumerate(model.heads):
        np.matmul(x, h.restrict(classes).effective_embeddings().T, out=sims[k])
    owners_c = model.partition.owner_of()[classes]
    owned = owners_c == prompt
    step = max(1, BLOCK_ELEMS // len(classes))
    spans = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

    own = owners_c == np.arange(1, weights.num_specialized + 1)[:, None]
    raw = np.where(own, weights.in_weights[:, None], weights.out_weights[:, None])
    raw[prompt - 1, owned] = 0.0
    spec = raw.sum(axis=0)
    # owned columns keep the free form (head 0 takes 1 - spec - pi);
    # the others are fixed and clamped as in class_weight_matrix
    w0 = np.where(owned, 1.0 - spec, np.maximum(1.0 - spec, 0.0))
    denom = np.where(owned, 1.0, np.maximum(spec, 1.0))
    capped = np.flatnonzero(owned & (spec > 0.0))
    rest = spec[capped]
    z0_capped = np.empty((n, len(capped)))
    # each block's base and vary take the operations of their one-line forms,
    # so the bits stay, and then overwrite the block's slots 0 and 1
    base, vary = sims[0], sims[1]
    for b in spans:
        block = sims[:, b]
        z0_capped[b] = block[0][:, capped] / model.tau
        base_b = w0 * block[0]
        base_b += np.einsum("kc,knc->nc", raw, block[1:])
        base_b /= denom
        base_b /= model.tau
        vary_b = np.subtract(block[prompt], block[0])
        vary_b[:, ~owned] = 0.0
        vary_b /= model.tau
        base[b], vary[b] = base_b, vary_b

    z_buf, sums = np.empty((min(step, n), len(classes))), np.empty(min(step, n))
    p_y, g_rows = np.empty(n), np.empty(n)  # per-row label probability and gradient
    blocks = [(b, np.arange(m), y_local[b], z_buf[:m], sums[:m])
              for b, m in ((b, b.stop - b.start) for b in spans)]

    def evaluate(theta: float) -> tuple[float, float]:
        a, c = weights.coefficient(theta)
        over = rest + a > 1.0
        cols, total = capped[over], rest[over] + a
        for b, r, y, z, s in blocks:
            dz = vary[b]
            np.add(np.multiply(dz, a, out=z), base[b], out=z)
            if len(cols):
                z0 = z0_capped[b, over]
                z[:, cols] = (z[:, cols] + z0 * (total - 1.0)) / total
                dz = dz.copy()
                dz[:, cols] = (vary[b, cols] + z0 - z[:, cols]) / total
            e = backend.kernels.softmax_rows(z, out=z, sums=s)
            np.divide(e[r, y], s, out=p_y[b])
            g_rows[b] = np.einsum("nc,nc->n", e, dz) / s - dz[r, y]
        # np.mean's bits, without its wrapper
        ce = float(np.add.reduce(label_nll(p_y)) / n)
        return ce, a * c * float(np.add.reduce(g_rows)) / n

    return evaluate


def optimize_in_weight(
    model: MixtureModel,
    train_set: EmbeddingSet,
    prompt: int = 1,
    opt: OptimizerConfig | None = None,
    classes: np.ndarray | None = None,
    epochs: int | None = None,
) -> tuple[MixtureModel, list[float]]:
    """Fit one head's two_stage in-domain weight by descending the mixture CE.

    ``train_set`` labels must lie in the head's own sub-domain;
    ``classes`` restricts the candidate class list (incremental sessions
    only rank classes seen so far). Returns the updated model and the
    per-epoch objective trace, which is monotone non-increasing.
    """
    if model.weights.parameterization == "one_stage":
        raise ValueError("a one_stage in-weight is its head's temperature, learned in tuning")
    if len(train_set) == 0:
        raise ValueError("empty training set")
    if not np.all(np.isin(train_set.labels, model.partition.subsets[prompt])):
        raise ValueError(f"training labels must lie in sub-domain {prompt}")
    objective = _in_objective_factory(model, train_set, prompt, classes)
    return _fit_raw(model, prompt, "in", objective, opt, epochs, len(train_set))


def _fit_raw(
    model: MixtureModel, prompt: int, side: str, objective: Callable,
    opt: OptimizerConfig | None, epochs: int | None, n_samples: int,
) -> tuple[MixtureModel, list[float]]:
    """Descend head ``prompt``'s ``side`` raw weight from its current value (``opt`` by
    default OptimizerConfig(), ``epochs`` its weight_epochs); return the fitted model, trace."""
    opt = opt or OptimizerConfig()
    theta, trace = _descend_scalar(
        model.weights.raw(prompt, side), objective, opt, epochs or opt.weight_epochs, n_samples
    )
    return replace(model, weights=model.weights.with_raw(prompt, side, theta)), trace


def _entropy_rows(
    logits: np.ndarray, probs: np.ndarray, top: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row entropies of probs = softmax(logits) as lse - E_p[z], and E_p[z].

    ``top`` holds each row's argmax. The log-sum-exp is read from the
    softmax at the row maximum, z_max - log p_max, so no elementwise log
    is taken.
    """
    rows = np.arange(logits.shape[0])
    mean_z = np.einsum("nc,nc->n", probs, logits)
    return logits[rows, top] - np.log(probs[rows, top]) - mean_z, mean_z


def _out_objective_factory(
    model: MixtureModel,
    train_vectors: np.ndarray,
    out_anchors: np.ndarray,
    prompt: int,
    margin: float,
    ent_weight: float,
):
    """Precompute out-class similarities; return theta -> (loss, grad).

    Both entropies run over the out-class set only: the generalized head
    at its native temperature, the specialized head with weight-scaled
    similarities so the weight is the only moving part. The specialized
    logits are z = a s_i with d z / d theta = c z for (a, c) =
    ``MixtureWeights.coefficient(theta, tau)``, so
    d H / d theta = -c Var_p(z) / log n. Since a > 0, the row argmax of z
    is that of s_i and is found once.

    ``si``, first the generalized head's similarities, is the one N x n_out array:
    the rest walks ``BLOCK_ELEMS`` blocks through one logits/probs buffer pair.
    """
    tau = model.tau
    n, log_n = len(train_vectors), np.log(out_anchors.shape[0])
    step = max(1, BLOCK_ELEMS // out_anchors.shape[0])
    logits_buf, probs_buf = (np.empty((min(step, n), out_anchors.shape[0])) for _ in range(2))
    blocks = [(slice(lo, min(lo + step, n)), logits_buf[: min(step, n - lo)],
               probs_buf[: min(step, n - lo)]) for lo in range(0, n, step)]

    si = np.empty((n, out_anchors.shape[0]))
    np.matmul(train_vectors, model.heads[0].effective_embeddings(out_anchors).T, out=si)
    h0 = np.empty(n)
    for b, logits, probs in blocks:
        np.divide(si[b], tau, out=logits)
        backend.kernels.softmax_rows(logits, out=probs)
        h0[b] = _entropy_rows(logits, probs, np.argmax(logits, axis=1))[0] / log_n
    np.matmul(train_vectors, model.heads[prompt].effective_embeddings(out_anchors).T, out=si)
    top = np.argmax(si, axis=1)
    entropy, mean_z, var_z = np.empty(n), np.empty(n), np.empty(n)

    def evaluate(theta: float) -> tuple[float, float]:
        a, c = model.weights.coefficient(theta, tau)
        for b, logits, probs in blocks:
            np.multiply(si[b], a, out=logits)
            backend.kernels.softmax_rows(logits, out=probs)
            entropy[b], mean_z[b] = _entropy_rows(logits, probs, top[b])
            var_z[b] = np.einsum("nc,nc,nc->n", probs, logits, logits) - mean_z[b] * mean_z[b]
        gap = h0 - entropy / log_n + margin
        loss = float(ent_weight * np.mean(np.maximum(0.0, gap)))
        # the hinge passes -dH/dtheta = c Var_p(z) / log n where it is active
        grad = float(ent_weight * np.mean(np.where(gap > 0, c * var_z / log_n, 0.0)))
        return loss, grad

    return evaluate


def optimize_out_weight(
    model: MixtureModel,
    train_set: EmbeddingSet,
    out_anchors: np.ndarray,
    prompt: int = 1,
    margin: float = 0.2,
    ent_weight: float = 8.0,
    opt: OptimizerConfig | None = None,
    epochs: int | None = None,
) -> tuple[MixtureModel, list[float]]:
    """Fit one head's out-domain weight by descending the entropy hinge.

    Skips (returning the model unchanged with an empty trace) when no
    out-class anchors are supplied; raises if fewer than two are given.
    """
    out_anchors = np.asarray(out_anchors, dtype=np.float64)
    if out_anchors.shape[0] == 0:
        return model, []
    if out_anchors.shape[0] < 2:
        raise ValueError("out-class sets need at least 2 anchors")
    if len(train_set) == 0:
        raise ValueError("empty training set")
    objective = _out_objective_factory(model, train_set.vectors, out_anchors, prompt, margin,
                                       ent_weight)
    return _fit_raw(model, prompt, "out", objective, opt, epochs, len(train_set))

