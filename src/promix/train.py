"""Optimization loops: prompt tuning and mixture-weight fitting.

Prompt tuning runs mini-batch adaptive-moment descent on the shared
context vectors only, with gradients flowing through the renormalization
of the effective class embeddings. The context enters only through its
row mean cbar, so each run computes X·Aᵀ and the anchor norms once; a
step then costs O(B·C) plus two C×D matrix-vector products
(A·cbar for the norms, Aᵀr for the gradient) instead of rebuilding the
C×D effective embeddings.

Weight fitting runs full-batch momentum descent on the raw weight
parameters (two_stage logits or one_stage temperatures): the in-weight
against the mixture's cross-entropy on its own sub-domain, the
out-weight against the entropy-margin loss on a surrogate out-class set.
Both objectives are evaluated in closed form from arrays computed once
per fit: the in-weight logits are affine in a scalar coefficient of the
parameter, and the out-weight logits are a scalar multiple of fixed
similarities, so each evaluation is one softmax plus O(N·C) work. Weight
traces are monotone non-increasing: descent stops at the first epoch that
would raise the objective, and an immediate ascent retries once at a
tenth of the learning rate.

All loops are deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from promix import backend
from promix.embedspace import EmbeddingSet
from promix.head import DEFAULT_TAU, PromptHead, similarity_matrix
from promix.losses import PROB_FLOOR, LossConfig, batch_loss_grad
from promix.mixture import MixtureModel, MixtureWeights, normalized_entropy, sigmoid


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
        if self.prompt_lr < 0 or self.weight_lr < 0:
            raise ValueError("learning rates must be non-negative")
        if not 0 <= self.weight_momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1 or self.weight_epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")


@dataclass(frozen=True)
class HyperParams:
    """Method hyperparameters: loss weight w, entropy-loss scale, hinge
    margin d, and context length M."""

    conf_weight: float = 5.0
    ent_weight: float = 8.0
    margin: float = 0.2
    context_len: int = 16

    def __post_init__(self):
        if min(self.conf_weight, self.ent_weight, self.margin) < 0:
            raise ValueError("hyperparameters must be non-negative")
        if self.margin > 1:
            raise ValueError("margin must lie in [0, 1]")
        if self.context_len < 0:
            raise ValueError("context_len must be non-negative")


@dataclass(frozen=True)
class _AnchorSpace:
    """The context-free part of one tuning run, computed once: the anchors,
    their squared norms, and the products X·Aᵀ of every training row.

    The norms are stored rather than assumed to be 1, because anchors read
    from EMB1 files are unit-norm only to within the file tolerance.
    """

    anchors: np.ndarray
    anchor_sq: np.ndarray
    xa: np.ndarray

    @classmethod
    def of(cls, anchors: np.ndarray, vectors: np.ndarray) -> "_AnchorSpace":
        return cls(anchors, np.einsum("cd,cd->c", anchors, anchors), vectors @ anchors.T)


def _context_sims(
    space: _AnchorSpace, rows, xb: np.ndarray, cbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Similarities of ``xb`` (training rows ``rows``) against the
    effective embeddings renormalize(a_c + cbar), and the norms ‖a_c + cbar‖.

    sim = (x·a_c + x·cbar) / ‖a_c + cbar‖ with
    ‖a_c + cbar‖² = ‖a_c‖² + 2 a_c·cbar + ‖cbar‖².
    """
    norms = np.sqrt(space.anchor_sq + 2.0 * (space.anchors @ cbar) + cbar @ cbar)
    return (space.xa[rows] + (xb @ cbar)[:, None]) / norms, norms


def _context_grad(
    space: _AnchorSpace,
    g: np.ndarray,
    sims: np.ndarray,
    norms: np.ndarray,
    xb: np.ndarray,
    cbar: np.ndarray,
    m_rows: int,
) -> np.ndarray:
    """Gradient of sum(g * sims) w.r.t. the M context rows.

    With r_c = Σ_b g_bc sims_bc / n_c², the gradient w.r.t. cbar is
    Xᵀ(g/n)·1 − Aᵀr − cbar Σr; cbar is the row mean, so every context row
    receives an equal 1/M share of it.
    """
    r = np.einsum("bc,bc->c", g, sims) / (norms * norms)
    d_cbar = xb.T @ (g @ (1.0 / norms)) - space.anchors.T @ r - r.sum() * cbar
    return np.tile(d_cbar / m_rows, (m_rows, 1))


def _context_loss_grad(
    ctx: np.ndarray,
    space: _AnchorSpace,
    rows,
    xb: np.ndarray,
    yb: np.ndarray,
    loss: LossConfig,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Loss of one batch and its gradient w.r.t. the context rows."""
    cbar = ctx.mean(axis=0)
    sims, norms = _context_sims(space, rows, xb, cbar)
    loss_val, g = batch_loss_grad(sims, yb, tau, loss)
    return loss_val, _context_grad(space, g, sims, norms, xb, cbar, ctx.shape[0])


def _one_stage_loss_grad(
    ctx: np.ndarray,
    log_tau: float,
    space: _AnchorSpace,
    rows,
    xb: np.ndarray,
    yb: np.ndarray,
    z0: np.ndarray,
    loss: LossConfig,
) -> tuple[float, np.ndarray, float]:
    """Loss of the logits z0 + s_1 / tau_1 on one batch, and its gradients
    w.r.t. the context rows and log(tau_1)."""
    tau_1 = float(np.exp(log_tau))
    cbar = ctx.mean(axis=0)
    s1, norms = _context_sims(space, rows, xb, cbar)
    loss_val, g_z = batch_loss_grad(z0 + s1 / tau_1, yb, 1.0, loss)
    grad_ctx = _context_grad(space, g_z / tau_1, s1, norms, xb, cbar, ctx.shape[0])
    return loss_val, grad_ctx, -float(np.einsum("nc,nc->", g_z, s1)) / tau_1


def context_gradient(
    head: PromptHead, train_set: EmbeddingSet, loss: LossConfig, tau: float = DEFAULT_TAU
) -> np.ndarray:
    """Full-set analytic gradient of the mean loss w.r.t. the context."""
    if head.context_len == 0:
        raise ValueError("head has no context vectors")
    x = train_set.vectors
    space = _AnchorSpace.of(head.anchors, x)
    _, grad = _context_loss_grad(
        head.context, space, slice(None), x, train_set.labels, loss, tau
    )
    return grad


def _check_tunable(init: PromptHead, train_set: EmbeddingSet) -> None:
    if init.frozen or init.context_len == 0:
        raise ValueError("cannot tune a frozen head (no context vectors)")
    if len(train_set) == 0:
        raise ValueError("empty training set")
    labels = train_set.labels
    if int(labels.min()) < 0 or int(labels.max()) >= init.num_classes:
        raise ValueError(
            f"training label outside the head's class list [0, {init.num_classes})"
        )


def _adam_descent(
    params: list,
    batch_grad: Callable[[np.ndarray, list], tuple[float, list]],
    n: int,
    opt: OptimizerConfig,
    epoch_hook: Callable[[int, list], None] | None = None,
) -> tuple[list, list[float]]:
    """Mini-batch Adam over a list of parameters.

    ``batch_grad(rows, params)`` returns the batch's mean loss and one
    gradient per parameter. Returns the final parameters and the
    per-epoch mean training loss.
    """
    rng = np.random.default_rng(opt.seed)
    moments = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    step = 0
    trace: list[float] = []
    for epoch in range(opt.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start : start + opt.batch_size]
            loss_val, grads = batch_grad(idx, params)
            if not np.isfinite(loss_val):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            epoch_loss += loss_val * len(idx)

            step += 1
            for i, grad in enumerate(grads):
                moments[i] = opt.beta1 * moments[i] + (1.0 - opt.beta1) * grad
                second[i] = opt.beta2 * second[i] + (1.0 - opt.beta2) * grad * grad
                m_hat = moments[i] / (1.0 - opt.beta1**step)
                v_hat = second[i] / (1.0 - opt.beta2**step)
                params[i] = params[i] - opt.prompt_lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        trace.append(epoch_loss / n)
        if epoch_hook is not None:
            epoch_hook(epoch, params)
    return params, trace


def tune_prompt(
    init: PromptHead,
    train_set: EmbeddingSet,
    loss: LossConfig,
    opt: OptimizerConfig,
    tau: float = DEFAULT_TAU,
    epoch_hook: Callable[[int, PromptHead], None] | None = None,
) -> tuple[PromptHead, list[float]]:
    """Mini-batch descent on the context vectors; anchors stay frozen.

    Labels must index the head's class list directly. Returns the tuned
    head and the per-epoch mean training loss. ``epoch_hook`` receives
    the head after each epoch (used by the evaluation harnesses to record
    curves).
    """
    _check_tunable(init, train_set)
    x_all = train_set.vectors
    y_all = train_set.labels
    space = _AnchorSpace.of(init.anchors, x_all)

    def batch_grad(idx, params):
        (ctx,) = params
        loss_val, grad = _context_loss_grad(ctx, space, idx, x_all[idx], y_all[idx], loss, tau)
        return loss_val, [grad + opt.prompt_weight_decay * ctx]

    def head_hook(epoch, params):
        epoch_hook(epoch, init.with_context(params[0]))

    (ctx,), trace = _adam_descent(
        [init.context.copy()], batch_grad, len(train_set), opt,
        head_hook if epoch_hook is not None else None,
    )
    return init.with_context(ctx), trace


def context_loss_value(
    head: PromptHead, train_set: EmbeddingSet, loss: LossConfig, tau: float
) -> float:
    """Full-set mean loss of a head; the finite-difference oracle target
    for the context gradient."""
    sims = similarity_matrix(head, train_set.vectors)
    value, _ = batch_loss_grad(sims, train_set.labels, tau, loss)
    return value


def tune_prompt_one_stage(
    init: PromptHead,
    generalized: PromptHead,
    train_set: EmbeddingSet,
    loss: LossConfig,
    opt: OptimizerConfig,
    tau_0: float = DEFAULT_TAU,
) -> tuple[PromptHead, float, list[float]]:
    """Joint descent on the context and the specialized temperature.

    The single-temperature coupling ties the specialized head's mixing
    weight to its own temperature tau_1: training logits are
    s_0 / tau_0 + s_1 / tau_1, and one adaptive-moment loop updates the
    context together with log(tau_1). Only meaningful with exactly one
    specialized head. Returns (tuned head, tau_1, per-epoch loss trace).
    """
    _check_tunable(init, train_set)
    if generalized.num_classes != init.num_classes:
        raise ValueError("generalized head must share the class list")

    x_all = train_set.vectors
    y_all = train_set.labels
    space = _AnchorSpace.of(init.anchors, x_all)
    z0_all = x_all @ generalized.effective_embeddings().T / tau_0

    def batch_grad(idx, params):
        ctx, log_tau = params
        loss_val, grad_ctx, grad_tau = _one_stage_loss_grad(
            ctx, log_tau, space, idx, x_all[idx], y_all[idx], z0_all[idx], loss
        )
        return loss_val, [grad_ctx + opt.prompt_weight_decay * ctx, grad_tau]

    (ctx, log_tau), trace = _adam_descent(
        [init.context.copy(), float(np.log(tau_0))], batch_grad, len(train_set), opt
    )
    return init.with_context(ctx), float(np.exp(log_tau)), trace


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
    """
    steps_per_epoch = max(1, -(-n_samples // opt.batch_size))

    def run(lr: float) -> tuple[float, list[float]]:
        theta = theta0
        buf = 0.0
        value, grad = objective_grad(theta)
        trace = [value]
        for _ in range(epochs):
            previous_theta = theta
            for _ in range(steps_per_epoch):
                buf = opt.weight_momentum * buf + grad + opt.weight_weight_decay * theta
                theta = theta - lr * buf
                value, grad = objective_grad(theta)
                if not np.isfinite(value):
                    raise DivergenceError("non-finite weight objective")
            if value > trace[-1] + 1e-9:
                return previous_theta, trace
            trace.append(value)
        return theta, trace

    theta, trace = run(opt.weight_lr)
    if len(trace) == 1 and epochs > 0:
        theta, trace = run(opt.weight_lr * 0.1)
        if len(trace) == 1:
            raise DivergenceError(
                "weight objective rises immediately even after lr backoff"
            )
    return theta, trace


def _read_raw(weights: MixtureWeights, prompt: int, side: str) -> float:
    """The raw parameter weight fitting descends for one head's ``side``
    ("in" or "out") weight: the two_stage logit alpha or the one_stage
    log tau."""
    if weights.parameterization == "two_stage":
        alphas = weights.alphas_in if side == "in" else weights.alphas_out
        return float(alphas[prompt - 1])
    if weights.parameterization == "one_stage":
        return float(np.log(weights.tau_in if side == "in" else weights.tau_out))
    raise ValueError("direct weights carry no raw parameter to optimize")


def _write_raw(
    weights: MixtureWeights, prompt: int, side: str, theta: float
) -> MixtureWeights:
    """Weights with the raw parameter read by ``_read_raw`` set to theta."""
    if weights.parameterization == "two_stage":
        return weights.replace_raw(prompt, **{f"alpha_{side}": theta})
    return weights.replace_raw(prompt, **{f"tau_{side}": float(np.exp(theta))})


def _in_objective_factory(
    model: MixtureModel, train_set: EmbeddingSet, prompt: int, classes: np.ndarray | None
):
    """Precompute the mixture logits in closed form; return
    theta -> (mean CE, gradient).

    The logits are affine in one coefficient of theta: logits =
    base + a(theta) vary and d logits / d theta = b(theta) vary, where
    vary is zero off the head's own classes. two_stage: a = pi,
    b = pi (1 - pi) with pi = sigmoid(theta). one_stage (theta is
    log tau_in): a = exp(-theta), b = -exp(-theta).

    With several specialized heads a column's specialized weights can sum
    above 1; such columns are renormalized by that sum, as in
    ``class_weight_matrix``, and rebuilt from the same arrays.
    """
    weights = model.weights
    n = len(train_set)
    rows = np.arange(n)
    if classes is None:
        classes = np.arange(model.partition.num_classes, dtype=np.int64)
    else:
        classes = np.asarray(classes, dtype=np.int64)
    label_pos = {int(c): j for j, c in enumerate(classes)}
    try:
        y_local = np.array([label_pos[lab] for lab in train_set.labels.tolist()], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(
            f"training label {exc.args[0]} is not in the candidate class list"
        ) from None
    sims = model.similarity_stack(train_set.vectors)[:, :, classes]
    owners_c = model.partition.owner_of()[classes]
    owned = owners_c == prompt

    if weights.parameterization == "one_stage":
        base = sims[0] / weights.tau_0 + np.where(owned, 0.0, sims[1] / weights.tau_out)
        vary = np.where(owned, sims[1], 0.0)
        capped, rest, z0_capped = np.zeros(0, dtype=np.int64), np.zeros(0), None

        def coefficients(theta: float) -> tuple[float, float]:
            scale = float(np.exp(-theta))
            return scale, -scale

    else:
        tau = model.tau
        raw = np.stack(
            [
                np.where(owners_c == i, weights.in_weights[i - 1], weights.out_weights[i - 1])
                for i in range(1, weights.num_specialized + 1)
            ]
        )
        raw[prompt - 1, owned] = 0.0
        spec = raw.sum(axis=0)
        # owned columns keep the free form (head 0 takes 1 - spec - pi);
        # the others are fixed and clamped as in class_weight_matrix
        w0 = np.where(owned, 1.0 - spec, np.maximum(1.0 - spec, 0.0))
        denom = np.where(owned, 1.0, np.maximum(spec, 1.0))
        base = (w0 * sims[0] + np.einsum("kc,knc->nc", raw, sims[1:])) / denom / tau
        vary = np.where(owned, sims[prompt] - sims[0], 0.0) / tau
        capped = np.flatnonzero(owned & (spec > 0.0))
        rest = spec[capped]
        z0_capped = sims[0][:, capped] / tau

        def coefficients(theta: float) -> tuple[float, float]:
            pi = float(sigmoid(theta))
            return pi, pi * (1.0 - pi)

    vary_y = float(vary[rows, y_local].sum())

    def evaluate(theta: float) -> tuple[float, float]:
        a, b = coefficients(theta)
        logits = base + a * vary
        dz, dz_y = vary, vary_y
        over = rest + a > 1.0
        if over.any():
            cols, total = capped[over], rest[over] + a
            logits[:, cols] = (logits[:, cols] + z0_capped[:, over] * (total - 1.0)) / total
            dz = vary.copy()
            dz[:, cols] = (vary[:, cols] + z0_capped[:, over] - logits[:, cols]) / total
            dz_y = float(dz[rows, y_local].sum())
        probs = backend.kernels.softmax_rows(logits)
        ce = float(np.mean(-np.log(np.maximum(probs[rows, y_local], PROB_FLOOR))))
        return ce, b * (float(np.einsum("nc,nc->", probs, dz)) - dz_y) / n

    return evaluate


def optimize_in_weight(
    model: MixtureModel,
    train_set: EmbeddingSet,
    prompt: int = 1,
    opt: OptimizerConfig | None = None,
    classes: np.ndarray | None = None,
    epochs: int | None = None,
) -> tuple[MixtureModel, list[float]]:
    """Fit one head's in-domain weight by descending the mixture CE.

    ``train_set`` labels must lie in the head's own sub-domain;
    ``classes`` restricts the candidate class list (incremental sessions
    only rank classes seen so far). Returns the updated model and the
    per-epoch objective trace, which is monotone non-increasing.
    """
    opt = opt or OptimizerConfig()
    if len(train_set) == 0:
        raise ValueError("empty training set")
    if not np.all(np.isin(train_set.labels, model.partition.subsets[prompt])):
        raise ValueError(f"training labels must lie in sub-domain {prompt}")
    theta0 = _read_raw(model.weights, prompt, "in")
    objective = _in_objective_factory(model, train_set, prompt, classes)
    theta, trace = _descend_scalar(
        theta0, objective, opt, epochs or opt.weight_epochs, len(train_set)
    )
    return replace(model, weights=_write_raw(model.weights, prompt, "in", theta)), trace


def _entropy_rows(logits: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row entropies of probs = softmax(logits) as lse - E_p[z], and E_p[z].

    The log-sum-exp is read from the softmax at the row maximum,
    z_max - log p_max, so no elementwise log is taken.
    """
    rows = np.arange(logits.shape[0])
    top = np.argmax(logits, axis=1)
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
    logits are z = a(theta) s_i with d z / d theta = c(theta) z, so
    d H / d theta = -c Var_p(z) / log n. two_stage: a = pi / tau,
    c = 1 - pi. one_stage (theta is log tau_out): a = exp(-theta), c = -1.
    """
    weights = model.weights
    tau = model.tau
    log_n = np.log(out_anchors.shape[0])

    s0 = train_vectors @ model.heads[0].effective_embeddings(out_anchors).T
    si = train_vectors @ model.heads[prompt].effective_embeddings(out_anchors).T
    z0 = s0 / tau
    h0 = _entropy_rows(z0, backend.kernels.softmax_rows(z0))[0] / log_n

    def coefficients(theta: float) -> tuple[float, float]:
        if weights.parameterization == "one_stage":
            return float(np.exp(-theta)), -1.0
        pi = float(sigmoid(theta))
        return pi / tau, 1.0 - pi

    def evaluate(theta: float) -> tuple[float, float]:
        a, c = coefficients(theta)
        logits = a * si
        probs = backend.kernels.softmax_rows(logits)
        entropy, mean_z = _entropy_rows(logits, probs)
        gap = h0 - entropy / log_n + margin
        loss = float(ent_weight * np.mean(np.maximum(0.0, gap)))
        var_z = np.einsum("nc,nc,nc->n", probs, logits, logits) - mean_z * mean_z
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
    opt = opt or OptimizerConfig()
    out_anchors = np.asarray(out_anchors, dtype=np.float64)
    if out_anchors.shape[0] == 0:
        return model, []
    if out_anchors.shape[0] < 2:
        raise ValueError("out-class sets need at least 2 anchors")
    if len(train_set) == 0:
        raise ValueError("empty training set")
    theta0 = _read_raw(model.weights, prompt, "out")
    objective = _out_objective_factory(
        model, train_set.vectors, out_anchors, prompt, margin, ent_weight
    )
    theta, trace = _descend_scalar(
        theta0, objective, opt, epochs or opt.weight_epochs, len(train_set)
    )
    return replace(model, weights=_write_raw(model.weights, prompt, "out", theta)), trace


def outclass_entropies(
    model: MixtureModel, x: np.ndarray, out_anchors: np.ndarray, prompt: int
) -> tuple[float, float]:
    """(H_generalized, H_specialized) for one embedding on the out-class
    set, matching the optimization objective's reading."""
    x = np.asarray(x, dtype=np.float64)
    tau = model.tau
    s0 = model.heads[0].effective_embeddings(out_anchors) @ x
    si = model.heads[prompt].effective_embeddings(out_anchors) @ x
    w = model.weights
    if w.parameterization == "one_stage":
        logits_i = si / w.tau_out
    else:
        logits_i = w.out_weights[prompt - 1] * si / tau
    p0 = backend.kernels.softmax_rows(s0[None, :] / tau)[0]
    pi = backend.kernels.softmax_rows(logits_i[None, :])[0]
    return normalized_entropy(p0), normalized_entropy(pi)
