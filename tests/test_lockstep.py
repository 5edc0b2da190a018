"""Lockstep tuning: each run of a stack is bitwise the single-run loop.

The oracle here is the single-run tuning loop as it stood before runs were
stacked: one Adam loop per run over its own copy of the training rows, the
context step on one (B, C) batch, and the CE/CoA kernel on that batch.
"""

from dataclasses import replace

import numpy as np
import pytest

import promix.train as train
from promix.embedspace import EmbeddingSet, SyntheticConfig, generate_synthetic
from promix.head import PromptHead
from promix.losses import PROB_FLOOR, LossConfig, batch_loss_grad
from promix.train import (
    DivergenceError,
    OptimizerConfig,
    TuneRun,
    tune_prompt,
    tune_prompt_one_stage,
    tune_prompts,
)


def _oracle_softmax(z):
    out = np.subtract(z, z.max(axis=1, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _oracle_loss_grad(s, y, tau, loss):
    if loss.kind not in ("ce", "ce_conf"):
        return batch_loss_grad(s, y, tau, loss)
    w = loss.w if loss.kind == "ce_conf" else 0.0
    b = s.shape[0]
    p = _oracle_softmax(s / tau)
    rows = np.arange(b)
    py = p[rows, y]
    losses = -np.log(np.maximum(py, PROB_FLOOR)) + w * (1.0 - py)
    coef = (1.0 + w * py) / (tau * b)
    g = p * coef[:, None]
    g[rows, y] = -(1.0 - py) * coef
    return float(losses.mean()), g


def _oracle_adam(params, batch_grad, n, opt, seed, epoch_hook=None):
    rng = np.random.default_rng(seed)
    moments = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    step = 0
    trace = []
    for epoch in range(opt.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start : start + opt.batch_size]
            loss_val, grads = batch_grad(idx, params)
            assert np.isfinite(loss_val)
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


def _oracle_step(anchors, x, cbar):
    """The single-run similarity step: (sims of rows, gradient of sum(g * sims))."""
    anchor_sq = np.einsum("cd,cd->c", anchors, anchors)
    xa = x @ anchors.T

    def sims(idx):
        norms = np.sqrt(anchor_sq + 2.0 * (anchors @ cbar) + cbar @ cbar)
        return (xa[idx] + (x[idx] @ cbar)[:, None]) / norms, norms

    def grad(idx, g, s, norms, m_rows):
        r = np.einsum("bc,bc->c", g, s) / (norms * norms)
        d_cbar = x[idx].T @ (g @ (1.0 / norms)) - anchors.T @ r - r.sum() * cbar
        return np.tile(d_cbar / m_rows, (m_rows, 1))

    return sims, grad


def _oracle_tune(init, train_set, loss, opt, seed, tau, epoch_hook=None):
    x, y = train_set.vectors, train_set.labels

    def batch_grad(idx, params):
        (ctx,) = params
        sims, grad = _oracle_step(init.anchors, x, ctx.mean(axis=0))
        s, norms = sims(idx)
        loss_val, g = _oracle_loss_grad(s, y[idx], tau, loss)
        return loss_val, [grad(idx, g, s, norms, ctx.shape[0]) + opt.prompt_weight_decay * ctx]

    (ctx,), trace = _oracle_adam([init.context.copy()], batch_grad, len(train_set), opt, seed,
                                 epoch_hook)
    return ctx, trace


def _oracle_one_stage(init, generalized, train_set, loss, opt, seed, tau_0):
    x, y = train_set.vectors, train_set.labels
    z0 = x @ generalized.effective_embeddings().T / tau_0

    def batch_grad(idx, params):
        ctx, log_tau = params
        tau_1 = float(np.exp(log_tau))
        sims, grad = _oracle_step(init.anchors, x, ctx.mean(axis=0))
        s1, norms = sims(idx)
        loss_val, g_z = _oracle_loss_grad(z0[idx] + s1 / tau_1, y[idx], 1.0, loss)
        grad_ctx = grad(idx, g_z / tau_1, s1, norms, ctx.shape[0])
        grad_tau = -float(np.einsum("nc,nc->", g_z, s1)) / tau_1
        return loss_val, [grad_ctx + opt.prompt_weight_decay * ctx, grad_tau]

    (ctx, log_tau), trace = _oracle_adam(
        [init.context.copy(), float(np.log(tau_0))], batch_grad, len(train_set), opt, seed
    )
    return ctx, float(np.exp(log_tau)), trace


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _domain(seed=0, num_classes=8):
    return generate_synthetic(SyntheticConfig(
        dim=12, num_classes=num_classes, shots=9, test_per_class=2, intra_noise=0.1,
        proto_noise=0.2, confusion_pairs=2,
    ), seed)


def _head(dom, seed, context_len=3):
    return PromptHead.with_random_context(
        dom.generalized_prototypes, dom.train.class_names, context_len, seed
    )


def _spy_groups(monkeypatch) -> list[int]:
    """Record the number of runs each Adam loop steps."""
    sizes = []
    descent = train._adam_descent

    def recording(params, batch_grad, labels, *args, **kwargs):
        sizes.append(labels.shape[0])
        return descent(params, batch_grad, labels, *args, **kwargs)

    monkeypatch.setattr(train, "_adam_descent", recording)
    return sizes


def _assert_matches_oracle(run, result):
    head, _, trace = result
    init, rows, labels = run.local()
    local = EmbeddingSet(run.train_set.vectors[rows], labels, init.class_names)
    ctx, oracle_trace = _oracle_tune(init, local, run.loss, run.opt, run.seed, run.tau)
    assert _bits(head.context) == _bits(ctx)
    assert _bits(trace) == _bits(oracle_trace)
    assert head.anchors is run.init.anchors  # the whole head comes back


OPT = OptimizerConfig(epochs=4, batch_size=8)


class TestLockstepMatchesTheSingleRunLoop:
    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "fl"])
    def test_one_run(self, kind):
        dom = _domain()
        init = _head(dom, 1)
        tuned, trace = tune_prompt(init, dom.train, LossConfig(kind), OPT, 3, tau=0.05)
        ctx, oracle_trace = _oracle_tune(init, dom.train, LossConfig(kind), OPT, 3, 0.05)
        assert _bits(tuned.context) == _bits(ctx)
        assert _bits(trace) == _bits(oracle_trace) and len(trace) == OPT.epochs

    def test_stacked_runs_each_match_their_own_loop(self, monkeypatch):
        sizes = _spy_groups(monkeypatch)
        dom, other = _domain(0), _domain(1)
        ce, conf = LossConfig("ce"), LossConfig("ce_conf", w=5.0)
        splits = [[0, 1, 2, 3], [4, 5, 6, 7], [1, 3, 5, 7], [0, 2, 4, 6]]
        runs = [
            TuneRun(_head(dom, 10 + i), dom.train, loss, OPT, i, 0.05,
                    classes=np.array(split))
            for i, (split, loss) in enumerate(zip(splits, [ce, conf, conf, replace(conf, w=2.0)]))
        ]
        shared = _head(dom, 20)  # a CE/CoA pair on the same rows, batches and init
        runs += [TuneRun(shared, dom.train, loss, OPT, 7, 0.05) for loss in (ce, conf)]
        runs += [TuneRun(_head(other, 30), other.train, conf, OPT, 8, 0.05),
                 TuneRun(_head(dom, 31), dom.train, LossConfig("fl"), OPT, 9, 0.05)]
        results = tune_prompts(runs)
        # the four subsets step together, as do the pair with the other
        # domain's run of equal rows; the fl run runs alone
        assert sorted(sizes) == [1, 3, 4]
        for run, result in zip(runs, results):
            _assert_matches_oracle(run, result)

    def test_groups_are_capped(self, monkeypatch):
        dom = _domain()
        runs = [TuneRun(_head(dom, i), dom.train, LossConfig("ce_conf"), OPT, i)
                for i in range(5)]
        whole = tune_prompts(runs)
        sizes = _spy_groups(monkeypatch)
        monkeypatch.setattr(train, "LOCKSTEP_RUNS", 2)
        capped = tune_prompts(runs)
        assert sizes == [2, 2, 1]
        for (a, _, trace_a), (b, _, trace_b) in zip(whole, capped):
            assert _bits(a.context) == _bits(b.context) and trace_a == trace_b

    def test_epoch_hooks_see_each_run_alone(self):
        dom = _domain()
        seen = {0: [], 1: []}
        runs = [
            TuneRun(_head(dom, 40 + r), dom.train, LossConfig("ce_conf"), OPT, r,
                    epoch_hook=lambda epoch, head, r=r: seen[r].append((epoch, head.context)))
            for r in (0, 1)
        ]
        tune_prompts(runs)
        for r, run in enumerate(runs):
            expected = []
            _oracle_tune(run.init, dom.train, run.loss, run.opt, run.seed, run.tau,
                         epoch_hook=lambda epoch, params: expected.append((epoch, params[0])))
            assert [e for e, _ in seen[r]] == list(range(OPT.epochs))
            assert [_bits(c) for _, c in seen[r]] == [_bits(c) for _, c in expected]

    def test_one_stage(self):
        dom = _domain()
        init = _head(dom, 50)
        generalized = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        loss = LossConfig("ce_conf", w=5.0)
        tuned, tau_1, trace = tune_prompt_one_stage(init, dom.train, loss, OPT, 5, tau_0=0.05)
        ctx, oracle_tau, oracle_trace = _oracle_one_stage(init, generalized, dom.train, loss,
                                                          OPT, 5, 0.05)
        assert _bits(tuned.context) == _bits(ctx)
        assert _bits(tau_1) == _bits(oracle_tau) and tau_1 != 0.05
        assert _bits(trace) == _bits(oracle_trace)

    def test_one_stage_runs_step_together(self, monkeypatch):
        sizes = _spy_groups(monkeypatch)
        dom, other = _domain(0), _domain(1)
        loss = LossConfig("ce_conf", w=5.0)
        runs = [TuneRun(_head(d, 60 + i), d.train, loss, OPT, i, 0.05, one_stage=True)
                for i, d in enumerate((dom, other, dom))]
        runs.append(TuneRun(_head(dom, 63), dom.train, loss, OPT, 3, 0.05))
        results = tune_prompts(runs)
        assert sorted(sizes) == [1, 3]  # the one_stage runs together, the two_stage one apart
        for run, (head, tau_1, trace) in zip(runs[:3], results):
            generalized = PromptHead.frozen_from(run.init.anchors, run.init.class_names)
            ctx, oracle_tau, oracle_trace = _oracle_one_stage(
                run.init, generalized, run.train_set, run.loss, run.opt, run.seed, run.tau
            )
            assert _bits(head.context) == _bits(ctx)
            assert _bits(tau_1) == _bits(oracle_tau) and _bits(trace) == _bits(oracle_trace)
        assert results[3][1] == 0.05
        _assert_matches_oracle(runs[3], results[3])


class TestLockstepErrorsNameTheRun:
    def test_label_outside_a_runs_class_list(self, monkeypatch):
        # run 1's head lacks the training set's last class, so its rows of
        # class 7 fall outside; the labels are checked before any Adam loop
        dom, other = _domain(0), _domain(1)
        runs = [TuneRun(_head(dom, 0), dom.train, LossConfig("ce"), OPT, 0),
                TuneRun(_head(other, 1).restrict(range(7)), other.train, LossConfig("ce"), OPT, 4)]
        loops = _spy_groups(monkeypatch)
        with pytest.raises(ValueError, match=r"^run 1: training label 7 outside the head's "
                                             r"class list \[0, 7\)$"):
            tune_prompts(runs)
        assert loops == []

    def test_non_finite_loss_in_one_run(self):
        dom = _domain()
        context = _head(dom, 2).context.copy()
        context[0, 0] = np.nan
        runs = [TuneRun(_head(dom, 0), dom.train, LossConfig("ce_conf"), OPT, 0),
                TuneRun(_head(dom, 1).with_context(context), dom.train, LossConfig("ce"), OPT, 0),
                TuneRun(_head(dom, 3), dom.train, LossConfig("ce_conf"), OPT, 0)]
        with pytest.raises(DivergenceError, match=r"run 1: non-finite loss at epoch 0, "
                                                  r"batch offset 0$"):
            tune_prompts(runs)
