"""Tuning and weight-optimization loops: determinism, descent, gradients."""

import struct

import numpy as np
import pytest

from conftest import _traced_peak, context_gradient, context_loss_value, outclass_entropies
from promix import backend
from promix.embedspace import (
    EmbeddingSet,
    SyntheticConfig,
    generate_synthetic,
    partition_classes,
    unit_normalize,
)
from promix.head import PromptHead, similarity_matrix
from promix.losses import PROB_FLOOR, LossConfig, batch_loss_grad
from promix.mixture import MixtureModel, MixtureWeights, mixture_scaled_logits, sigmoid
from promix.train import (
    BLOCK_ELEMS,
    DivergenceError,
    HyperParams,
    OptimizerConfig,
    _AnchorSpace,
    _context_loss_grad,
    _in_objective_factory,
    _runs_loss_grad,
    _descend_scalar,
    _out_objective_factory,
    optimize_in_weight,
    optimize_out_weight,
    tune_prompt,
    tune_prompt_one_stage,
)

# finite-difference step and tolerance of acceptance criterion 1
FD_H = 1e-5
FD_TOL = 1e-6


def _unit_rows(rng, rows, dim):
    return unit_normalize(rng.standard_normal((rows, dim)))


def _rel_err(analytic, numeric):
    analytic = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def _with_labels(emb_set, labels):
    """A copy of ``emb_set`` carrying labels its constructor would reject."""
    bad = EmbeddingSet(emb_set.vectors, emb_set.labels, emb_set.class_names)
    object.__setattr__(bad, "labels", np.asarray(labels, dtype=np.int64))
    return bad


def _toy_domain(seed=0, **kw):
    defaults = dict(dim=16, num_classes=6, shots=6, test_per_class=4,
                    intra_noise=0.08, proto_noise=0.2, confusion_pairs=2, seed=seed)
    defaults.update(kw)
    return generate_synthetic(SyntheticConfig(**defaults))


class TestHyperParams:
    def test_defaults_and_validation(self):
        hp = HyperParams()
        assert (hp.conf_weight, hp.ent_weight, hp.margin, hp.context_len) == (5.0, 8.0, 0.2, 16)
        with pytest.raises(ValueError):
            HyperParams(margin=1.5)
        with pytest.raises(ValueError):
            HyperParams(conf_weight=-1)
        with pytest.raises(ValueError, match="margin"):
            HyperParams(margin=float("nan"))

    def test_optimizer_defaults(self):
        opt = OptimizerConfig()
        assert opt.prompt_lr == 0.002
        assert opt.weight_momentum == 0.9
        assert (opt.epochs, opt.batch_size) == (50, 32)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(epochs=0)
        with pytest.raises(ValueError, match="prompt_lr"):
            OptimizerConfig(prompt_lr=float("nan"))


class TestTunePrompt:
    def test_zero_learning_rate_is_identity(self):
        dom = _toy_domain()
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=0
        )
        opt = OptimizerConfig(prompt_lr=0.0, epochs=1, seed=0)
        tuned, trace = tune_prompt(init, dom.train, LossConfig("ce_conf"), opt)
        assert np.array_equal(tuned.context, init.context)
        assert len(trace) == 1

    def test_separable_two_class_reaches_full_train_accuracy(self):
        dom = _toy_domain(num_classes=2, shots=12, confusion_pairs=0,
                          intra_noise=0.05, proto_noise=0.3, seed=1)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=1
        )
        tuned, _ = tune_prompt(init, dom.train, LossConfig("ce_conf"), OptimizerConfig(seed=1))
        from promix.evaluation import accuracy

        assert accuracy(tuned, dom.train) == 100.0

    def test_trace_non_increasing_on_noiseless_data(self):
        # full-batch regime (N < batch_size), no confusion: clean descent
        dom = _toy_domain(num_classes=4, shots=6, confusion_pairs=0,
                          intra_noise=0.0, seed=2)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=2
        )
        _, trace = tune_prompt(init, dom.train, LossConfig("ce_conf"), OptimizerConfig(seed=2))
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_bitwise_determinism(self):
        dom = _toy_domain(seed=3)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=3
        )
        opt = OptimizerConfig(seed=3, epochs=7)
        a, trace_a = tune_prompt(init, dom.train, LossConfig("ce_conf"), opt)
        b, trace_b = tune_prompt(init, dom.train, LossConfig("ce_conf"), opt)
        assert np.array_equal(a.context, b.context)
        assert trace_a == trace_b

    def test_frozen_head_rejected(self):
        dom = _toy_domain(seed=4)
        frozen = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        with pytest.raises(ValueError, match="frozen"):
            tune_prompt(frozen, dom.train, LossConfig("ce"), OptimizerConfig())

    def test_anchors_never_change(self):
        dom = _toy_domain(seed=5)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=5
        )
        tuned, _ = tune_prompt(init, dom.train, LossConfig("ce"), OptimizerConfig(seed=5, epochs=3))
        assert np.array_equal(tuned.anchors, init.anchors)

    def test_one_stage_peak_stays_within_one_batch_of_tune_prompts(self):
        # the fixed logits are taken batch by batch from the run's own X·Aᵀ,
        # so the joint descent holds no N x C array beside it
        dom = _toy_domain(seed=7, num_classes=50, shots=40, test_per_class=1)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 2, seed=7
        )
        loss, opt = LossConfig("ce_conf", w=5.0), OptimizerConfig(epochs=1, batch_size=32)
        tune_prompt_one_stage(init, dom.train, loss, opt, 0.05)  # lazy imports allocate once
        one_stage_peak, _ = _traced_peak(tune_prompt_one_stage, init, dom.train, loss, opt, 0.05)
        peak, _ = _traced_peak(tune_prompt, init, dom.train, loss, opt, 0.05)
        assert one_stage_peak <= peak + opt.batch_size * len(init.class_names) * 8


class TestTuningLabelRange:
    @pytest.fixture
    def setup(self):
        dom = _toy_domain(seed=30)
        names = dom.train.class_names
        return dom, PromptHead.with_random_context(dom.generalized_prototypes, names, 2, seed=30)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_tune_prompt_rejects_label_outside_class_list(self, setup, bad):
        dom, init = setup
        labels = dom.train.labels.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match="class list"):
            tune_prompt(init, _with_labels(dom.train, labels), LossConfig("ce"),
                        OptimizerConfig(epochs=1))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_one_stage_rejects_label_outside_class_list(self, setup, bad):
        dom, init = setup
        labels = dom.train.labels.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match="class list"):
            tune_prompt_one_stage(init, _with_labels(dom.train, labels), LossConfig("ce"),
                                  OptimizerConfig(epochs=1))


def _full_matrix_context_grad(ctx, anchors, xb, yb, loss, tau):
    """Test oracle: the context gradient through the full C x D effective
    embeddings (renormalize, project out the radial part, average)."""
    m_rows = ctx.shape[0]
    raw = anchors + ctx.mean(axis=0)
    norms = np.linalg.norm(raw, axis=1)
    eff = raw / norms[:, None]
    loss_val, g = batch_loss_grad(xb @ eff.T, yb, tau, loss)
    d_eff = g.T @ xb
    radial = np.einsum("cd,cd->c", d_eff, eff)
    d_raw = (d_eff - radial[:, None] * eff) / norms[:, None]
    return loss_val, np.tile(d_raw.sum(axis=0) / m_rows, (m_rows, 1))


class TestMeanContextStep:
    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "fl"])
    def test_matches_full_matrix_formula(self, kind):
        rng = np.random.default_rng(31)
        c, d, m, n = 40, 24, 4, 50
        # anchors off unit norm by up to 1e-6, as EMB1 files allow
        anchors = _unit_rows(rng, c, d) * (1.0 + rng.uniform(-9e-7, 9e-7, (c, 1)))
        names = tuple(f"c{i}" for i in range(c))
        head = PromptHead(0.3 * rng.standard_normal((m, d)), anchors, names)
        x = _unit_rows(rng, n, d)
        y = rng.integers(0, c, n)
        loss = LossConfig(kind)
        space = _AnchorSpace.of(head.anchors[None], x, np.arange(n)[None])
        rows = rng.permutation(n)[:17]
        # a one-run stack; the gradient is one row shared by the M context rows
        values, grad = _context_loss_grad(
            head.context[None], space, space.xa[:, rows], x[rows][None], y[rows][None],
            _runs_loss_grad([loss]), 0.05,
        )
        value, grad = values[0], np.broadcast_to(grad[0], head.context.shape)
        ref_value, ref_grad = _full_matrix_context_grad(
            head.context, head.anchors, x[rows], y[rows], loss, 0.05
        )
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        full = context_gradient(head, EmbeddingSet(x, y, names), loss, tau=0.05)
        _, ref_full = _full_matrix_context_grad(head.context, head.anchors, x, y, loss, 0.05)
        assert np.max(np.abs(full - ref_full)) <= 1e-12 * np.max(np.abs(ref_full))


class TestOneStageJointGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        c, d, m, n = 7, 6, 3, 12
        names = tuple(f"c{i}" for i in range(c))
        head = PromptHead(0.3 * rng.standard_normal((m, d)), _unit_rows(rng, c, d), names)
        s0 = _unit_rows(rng, n, d) @ _unit_rows(rng, c, d).T
        x = _unit_rows(rng, n, d)
        y = rng.integers(0, c, n)
        loss = LossConfig("ce_conf", w=5.0)
        tau_0, log_tau = 0.1, np.log(0.07)
        z0 = s0 / tau_0

        def value(ctx, lt):
            s1 = similarity_matrix(head.with_context(ctx), x)
            return batch_loss_grad(z0 + s1 / np.exp(lt), y, 1.0, loss)[0]

        space = _AnchorSpace.of(head.anchors[None], x, np.arange(n)[None])
        _, g_ctx, g_tau = _context_loss_grad(
            head.context[None], space, space.xa, x[None], y[None], _runs_loss_grad([loss]), 1.0,
            z0[None], np.array([log_tau]),
        )
        g_ctx, g_tau = np.broadcast_to(g_ctx[0], head.context.shape), g_tau[0]
        fd = np.zeros_like(g_ctx)
        for i in range(m):
            for j in range(d):
                up, down = head.context.copy(), head.context.copy()
                up[i, j] += FD_H
                down[i, j] -= FD_H
                fd[i, j] = (value(up, log_tau) - value(down, log_tau)) / (2 * FD_H)
        assert _rel_err(g_ctx, fd) < FD_TOL
        fd_tau = (value(head.context, log_tau + FD_H) - value(head.context, log_tau - FD_H)) / (
            2 * FD_H
        )
        assert _rel_err(g_tau, fd_tau) < FD_TOL


class TestContextGradient:
    @pytest.mark.parametrize("kind", ["ce", "ce_conf", "gce"])
    def test_matches_finite_differences(self, kind):
        dom = _toy_domain(seed=7)
        loss = LossConfig(kind=kind, w=5.0, q=0.7)
        head = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 3, seed=7
        )
        grad = context_gradient(head, dom.train, loss, tau=0.05)
        h = 1e-5
        fd = np.zeros_like(grad)
        for i in range(head.context.shape[0]):
            for j in range(head.context.shape[1]):
                up = head.context.copy()
                up[i, j] += h
                down = head.context.copy()
                down[i, j] -= h
                fd[i, j] = (
                    context_loss_value(head.with_context(up), dom.train, loss, 0.05)
                    - context_loss_value(head.with_context(down), dom.train, loss, 0.05)
                ) / (2 * h)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(grad - fd)) / denom < 1e-6


def _mixture_fixture(seed=0, better_specialized=True):
    """K=1 model on a 6-class domain; head 1 optionally closer to truth."""
    dom = _toy_domain(seed=seed, num_classes=6, shots=8)
    names = dom.train.class_names
    t0 = PromptHead.frozen_from(dom.generalized_prototypes, names)
    anchors1 = dom.true_prototypes if better_specialized else dom.generalized_prototypes
    t1 = PromptHead.frozen_from(anchors1, names)
    part = partition_classes(6, "explicit", sets=[[4, 5], [0, 1, 2, 3]])
    model = MixtureModel((t0, t1), MixtureWeights.two_stage([0.0], [0.0]), part, tau=0.01)
    train_in = dom.train.with_labels_in([0, 1, 2, 3])
    return dom, model, train_in


class TestOptimizeInWeight:
    def test_better_specialized_head_raises_weight(self):
        _, model, train_in = _mixture_fixture(seed=8, better_specialized=True)
        fitted, trace = optimize_in_weight(model, train_in, opt=OptimizerConfig(seed=0))
        assert fitted.weights.in_weights[0] > 0.5
        assert trace[-1] <= trace[0] + 1e-9

    def test_identical_heads_leave_weight_unchanged(self):
        dom = _toy_domain(seed=9)
        names = dom.train.class_names
        t0 = PromptHead.frozen_from(dom.generalized_prototypes, names)
        part = partition_classes(6, "explicit", sets=[[4, 5], [0, 1, 2, 3]])
        model = MixtureModel((t0, t0), MixtureWeights.two_stage([0.0], [0.0]), part, tau=0.01)
        train_in = dom.train.with_labels_in([0, 1, 2, 3])
        fitted, trace = optimize_in_weight(model, train_in, opt=OptimizerConfig(seed=0))
        assert fitted.weights.in_weights[0] == pytest.approx(0.5, abs=1e-9)
        assert trace[0] == pytest.approx(trace[-1], abs=1e-12)

    def test_objective_never_increases(self):
        for seed in range(4):
            _, model, train_in = _mixture_fixture(seed=seed)
            _, trace = optimize_in_weight(model, train_in, opt=OptimizerConfig(seed=seed))
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_labels_must_lie_in_sub_domain(self):
        dom, model, _ = _mixture_fixture(seed=10)
        with pytest.raises(ValueError, match="sub-domain"):
            optimize_in_weight(model, dom.train, opt=OptimizerConfig())

    def test_one_stage_model_rejected(self):
        # a one_stage in-weight is tau_1, which tuning learns with the context
        _, model, train_in = _mixture_fixture(seed=11)
        model_os = MixtureModel(
            model.heads, MixtureWeights.one_stage(0.01, 0.01), model.partition, tau=0.01
        )
        with pytest.raises(ValueError, match="one_stage in-weight is its head's temperature"):
            optimize_in_weight(model_os, train_in, opt=OptimizerConfig(seed=0))


def _stacked_fixture(seed=40):
    """K=2 model on 8 classes whose second head's out-weight is 0.95, so
    head-1 columns exceed the simplex cap once pi_1 > 0.05."""
    dom = _toy_domain(seed=seed, num_classes=8, shots=5)
    names = dom.train.class_names
    rng = np.random.default_rng(seed)
    heads = (PromptHead.frozen_from(dom.generalized_prototypes, names),) + tuple(
        PromptHead.with_random_context(dom.generalized_prototypes, names, 2, seed=seed + i,
                                       init_std=0.3)
        for i in (1, 2)
    )
    part = partition_classes(8, "explicit", sets=[[6, 7], [0, 1, 2], [3, 4, 5]])
    alphas_out = [float(rng.uniform(-1, 1)), float(np.log(0.95 / 0.05))]
    weights = MixtureWeights.two_stage([0.3, -0.2], alphas_out)
    model = MixtureModel(heads, weights, part, tau=0.05)
    return model, dom.train.with_labels_in([0, 1, 2])


class TestInObjectiveClosedForm:
    """The closed-form in-weight objective against the mixture logits and
    central finite differences (criterion 1 step and tolerance)."""

    def _check(self, model, train_in, thetas, to_weights, classes=None):
        objective = _in_objective_factory(model, train_in, 1, classes)
        cls = np.arange(model.num_classes) if classes is None else np.asarray(classes)
        y_local = np.searchsorted(cls, train_in.labels)
        for theta in thetas:
            value, grad = objective(theta)
            moved = MixtureModel(model.heads, to_weights(theta), model.partition, tau=model.tau)
            logits = mixture_scaled_logits(moved, train_in.vectors, classes=cls)
            probs = backend.kernels.softmax_rows(logits)
            expected = float(np.mean(-np.log(probs[np.arange(len(train_in)), y_local])))
            assert value == pytest.approx(expected, rel=1e-12)
            fd = (objective(theta + FD_H)[0] - objective(theta - FD_H)[0]) / (2 * FD_H)
            assert _rel_err(grad, fd) < FD_TOL

    def test_two_stage_single_head(self):
        _, model, train_in = _mixture_fixture(seed=41)
        self._check(model, train_in, (-2.0, 0.0, 1.3),
                    lambda t: model.weights.with_raw(1, "in", t))

    def test_two_stage_stacked_heads_above_the_cap(self):
        model, train_in = _stacked_fixture()
        thetas = (-4.0, 0.0, 2.0)  # pi_1 = 0.018 (under the cap), 0.5, 0.88 (over)
        self._check(model, train_in, thetas,
                    lambda t: model.weights.with_raw(1, "in", t), classes=np.arange(8))
        self._check(model, train_in, thetas,
                    lambda t: model.weights.with_raw(1, "in", t),
                    classes=np.array([0, 1, 2, 3, 5]))

    def test_unknown_label_names_it(self):
        _, model, train_in = _mixture_fixture(seed=43)
        with pytest.raises(ValueError, match="training label 3 "):
            optimize_in_weight(model, train_in, opt=OptimizerConfig(),
                               classes=np.array([0, 1, 2, 4, 5]))

    def test_one_softmax_per_evaluation(self, monkeypatch):
        _, model, train_in = _mixture_fixture(seed=44)
        out = _unit_rows(np.random.default_rng(44), 8, 16)
        calls = []
        softmax = backend.kernels.softmax_rows
        monkeypatch.setattr(backend.kernels, "softmax_rows",
                            lambda z, **kwargs: calls.append(1) or softmax(z, **kwargs))
        in_objective = _in_objective_factory(model, train_in, 1, None)
        assert not calls
        in_objective(0.4)
        assert len(calls) == 1
        out_objective = _out_objective_factory(model, train_in.vectors, out, 1, 0.2, 8.0)
        assert len(calls) == 2  # the generalized head's entropies
        out_objective(0.4)
        assert len(calls) == 3


def _full_stack_in_objective(model, train_set, prompt, classes):
    """The in-weight objective as it was built before the stack was
    restricted to the candidate columns (every head's similarities on all
    C classes, then a column gather) and evaluated before the rows went
    to blocks (one N x C logit buffer, normalized by the softmax). The
    oracle for the candidate-column build and for the block evaluation."""
    weights = model.weights
    n = len(train_set)
    rows = np.arange(n)
    classes = np.asarray(classes, dtype=np.int64)
    label_pos = {int(c): j for j, c in enumerate(classes)}
    y_local = np.array([label_pos[lab] for lab in train_set.labels.tolist()], dtype=np.int64)
    full = np.stack([similarity_matrix(h, train_set.vectors) for h in model.heads])
    sims = full[:, :, classes]
    owners_c = model.partition.owner_of()[classes]
    owned = owners_c == prompt
    tau = model.tau
    raw = np.stack(
        [
            np.where(owners_c == i, weights.in_weights[i - 1], weights.out_weights[i - 1])
            for i in range(1, weights.num_specialized + 1)
        ]
    )
    raw[prompt - 1, owned] = 0.0
    spec = raw.sum(axis=0)
    w0 = np.where(owned, 1.0 - spec, np.maximum(1.0 - spec, 0.0))
    denom = np.where(owned, 1.0, np.maximum(spec, 1.0))
    base = (w0 * sims[0] + np.einsum("kc,knc->nc", raw, sims[1:])) / denom / tau
    vary = np.where(owned, sims[prompt] - sims[0], 0.0) / tau
    capped = np.flatnonzero(owned & (spec > 0.0))
    rest = spec[capped]
    z0_capped = sims[0][:, capped] / tau

    def coefficients(theta):
        pi = float(sigmoid(theta))
        return pi, pi * (1.0 - pi)

    vary_y = float(vary[rows, y_local].sum())
    logits = np.empty_like(base)

    def evaluate(theta):
        a, b = coefficients(theta)
        np.add(np.multiply(vary, a, out=logits), base, out=logits)
        dz, dz_y = vary, vary_y
        over = rest + a > 1.0
        if over.any():
            cols, total = capped[over], rest[over] + a
            logits[:, cols] = (logits[:, cols] + z0_capped[:, over] * (total - 1.0)) / total
            dz = vary.copy()
            dz[:, cols] = (vary[:, cols] + z0_capped[:, over] - logits[:, cols]) / total
            dz_y = float(dz[rows, y_local].sum())
        probs = backend.kernels.softmax_rows(logits, out=logits)
        ce = float(np.mean(-np.log(np.maximum(probs[rows, y_local], PROB_FLOOR))))
        return ce, b * (float(np.einsum("nc,nc->", probs, dz)) - dz_y) / n

    return evaluate


def _candidate_columns_fixture(shots):
    """K=1 base/new model on C = 400 classes of dimension 8, so the
    N x |classes| arrays dominate: 200 * ``shots`` rows on 200 candidates."""
    dom = _toy_domain(seed=45, dim=8, num_classes=400, shots=shots, test_per_class=1,
                      confusion_pairs=0)
    names, anchors = dom.train.class_names, dom.generalized_prototypes
    part = partition_classes(400, "base_new_even_split", seed=0)
    heads = (PromptHead.frozen_from(anchors, names),
             PromptHead.with_random_context(anchors, names, 2, seed=1))
    model = MixtureModel(heads, MixtureWeights.uniform(1), part)
    return model, dom.train.with_labels_in(part.subsets[1]), part.subsets[1]


class TestInObjectiveCandidateColumns:
    """The in-weight objective built on the candidate columns only, against
    the full-stack build, with ``classes`` a strict subset of the columns."""

    CASES = {
        "two_stage_k1": (lambda: _mixture_fixture(seed=41)[1:], [0, 1, 2, 3, 5],
                         (-2.0, 0.0, 1.3)),
        # pi_1 = 0.018 (under the simplex cap), 0.5 and 0.88 (over it)
        "two_stage_k2_over_cap": (_stacked_fixture, [0, 1, 2, 3, 5], (-4.0, 0.0, 2.0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_objective_and_gradient_match_the_full_stack(self, case):
        fixture, classes, thetas = self.CASES[case]
        model, train_in = fixture()
        classes = np.array(classes)
        objective = _in_objective_factory(model, train_in, 1, classes)
        oracle = _full_stack_in_objective(model, train_in, 1, classes)
        for theta in thetas:
            (value, grad), (want_value, want_grad) = objective(theta), oracle(theta)
            assert value == pytest.approx(want_value, rel=1e-12)
            assert grad == pytest.approx(want_grad, rel=1e-12)

    @pytest.mark.parametrize("case", list(CASES))
    def test_fitted_weight_matches_the_full_stack_descent(self, case):
        fixture, classes, _ = self.CASES[case]
        model, train_in = fixture()
        classes = np.array(classes)
        opt = OptimizerConfig(seed=0, weight_epochs=20)
        fitted, _ = optimize_in_weight(model, train_in, opt=opt, classes=classes)
        want, _ = _descend_scalar(
            model.weights.raw(1, "in"),
            _full_stack_in_objective(model, train_in, 1, classes), opt, 20, len(train_in),
        )
        assert fitted.weights.raw(1, "in") == pytest.approx(want, rel=1e-9)

    def test_memory_scales_with_the_candidate_columns(self):
        model, train_in, classes = _candidate_columns_fixture(shots=4)
        opt = OptimizerConfig(seed=0, weight_epochs=2)
        optimize_in_weight(model, train_in, opt=opt, classes=classes)  # lazy set-up off the trace
        peak, _ = _traced_peak(optimize_in_weight, model, train_in, 1, opt, classes)
        unit = len(train_in) * len(classes) * 8
        # the two-slot stack and the block temporaries of three row blocks
        # (measured 3.29 units of N x |classes|); building base and vary
        # beside the stack held 4, the out-of-place build 5, the full-class
        # build 8
        assert peak < 3.5 * unit


WIDE_PARTITION = partition_classes(1000, "base_new_even_split", seed=0)


def _wide_fixture():
    """K=1 base/new model at C=1000 (D=8): 2000 rows on the 500 base
    classes, so the objective spans 16 row blocks of 131 rows and the last
    one is ragged."""
    dom = _toy_domain(seed=46, dim=8, num_classes=1000, shots=4, test_per_class=1,
                      confusion_pairs=0)
    names, anchors = dom.train.class_names, dom.generalized_prototypes
    heads = (PromptHead.frozen_from(anchors, names),
             PromptHead.with_random_context(anchors, names, 2, seed=1))
    model = MixtureModel(heads, MixtureWeights.two_stage([0.4], [-0.3]), WIDE_PARTITION)
    return model, dom.train.with_labels_in(WIDE_PARTITION.subsets[1])


def _counting_softmax(monkeypatch):
    calls = []
    softmax = backend.kernels.softmax_rows
    monkeypatch.setattr(backend.kernels, "softmax_rows",
                        lambda z, **kwargs: calls.append(len(z)) or softmax(z, **kwargs))
    return calls


class TestInObjectiveBlocks:
    """The in-weight objective evaluated row block by row block in the
    log-sum-exp form, against the unblocked, normalizing oracle (the
    one-block cases are ``TestInObjectiveCandidateColumns``')."""

    @staticmethod
    def _check(model, train_in, classes, thetas, monkeypatch):
        """Compare at each theta; return the kernel calls' row counts of
        the last one: the objective's blocks, then the oracle's one call."""
        calls = _counting_softmax(monkeypatch)
        objective = _in_objective_factory(model, train_in, 1, classes)
        oracle = _full_stack_in_objective(model, train_in, 1, classes)
        for theta in thetas:
            calls.clear()
            (value, grad), (want_value, want_grad) = objective(theta), oracle(theta)
            assert value == pytest.approx(want_value, rel=1e-12)
            assert grad == pytest.approx(want_grad, rel=1e-12)
        return calls

    @pytest.mark.parametrize("case", list(TestInObjectiveCandidateColumns.CASES))
    def test_ragged_small_blocks_match_the_unblocked_oracle(self, case, monkeypatch):
        fixture, classes, thetas = TestInObjectiveCandidateColumns.CASES[case]
        model, train_in = fixture()
        n = len(train_in)
        assert n > 14 and n % 7  # blocks of 7 rows: at least three, the last one short
        monkeypatch.setattr("promix.train.BLOCK_ELEMS", 7 * len(classes))
        calls = self._check(model, train_in, np.array(classes), thetas, monkeypatch)
        assert calls == [7] * (n // 7) + [n % 7, n]

    def test_wide_objective_matches_the_unblocked_oracle(self, monkeypatch):
        model, train_in = _wide_fixture()
        classes = WIDE_PARTITION.subsets[1]
        calls = self._check(model, train_in, classes, (-1.5, 0.0, 2.5), monkeypatch)
        # 16 blocks of 65536 // 500 = 131 rows, the last of 2000 - 15 * 131
        assert calls == [131] * 15 + [35, 2000]

    @pytest.mark.parametrize("case", list(TestInObjectiveCandidateColumns.CASES))
    def test_block_build_keeps_the_one_block_bits(self, case, monkeypatch):
        fixture, classes, thetas = TestInObjectiveCandidateColumns.CASES[case]
        model, train_in = fixture()
        classes = np.array(classes)
        monkeypatch.setattr("promix.train.BLOCK_ELEMS", 7 * len(classes))
        blocked = _in_objective_factory(model, train_in, 1, classes)
        monkeypatch.setattr("promix.train.BLOCK_ELEMS", len(train_in) * len(classes))
        whole = _in_objective_factory(model, train_in, 1, classes)
        for theta in thetas:
            assert struct.pack("<2d", *blocked(theta)) == struct.pack("<2d", *whole(theta))

    def test_base_and_vary_are_built_in_the_stack(self):
        model, train_in, classes = _candidate_columns_fixture(shots=20)
        assert len(train_in) // (BLOCK_ELEMS // len(classes)) >= 8  # 4000 rows in 13 blocks
        _in_objective_factory(model, train_in, 1, classes)  # lazy set-up off the trace
        peak, _ = _traced_peak(_in_objective_factory, model, train_in, 1, classes)
        unit = len(train_in) * len(classes) * 8
        # the two-slot stack that base and vary overwrite, plus block
        # temporaries and arrays of length N (measured 2.26 units of
        # N x |classes|); building them beside the stack held 4
        assert peak < 2.5 * unit

    def test_underflowed_label_contributes_the_floor(self):
        _, model, _ = _mixture_fixture(seed=47)
        model = MixtureModel(model.heads, model.weights, model.partition, tau=1e-6)
        # the anchor of class 0 labelled class 3: exp of the label's logit
        # gap underflows to 0, so the row's probability is floored
        x = model.heads[0].anchors[:1]
        row = EmbeddingSet(x, np.array([3]), model.heads[0].class_names)
        probs = backend.kernels.softmax_rows(mixture_scaled_logits(model, x))
        assert probs[0, 3] == 0.0
        value, grad = _in_objective_factory(model, row, 1, None)(0.3)
        assert value == -np.log(PROB_FLOOR)
        assert np.isfinite(grad)

    def test_desk_size_objective_is_one_kernel_call(self, monkeypatch):
        # a desk-size base/new objective (C=32: 256 rows on 16 candidates)
        # is one block, so the traced weight fit counts one call per
        # evaluation; the tests above count one call per block
        dom = generate_synthetic(SyntheticConfig())
        names, anchors = dom.train.class_names, dom.generalized_prototypes
        part = partition_classes(32, "base_new_even_split", seed=0)
        heads = (PromptHead.frozen_from(anchors, names),
                 PromptHead.with_random_context(anchors, names, 2, seed=1))
        model = MixtureModel(heads, MixtureWeights.uniform(1), part)
        train_in = dom.train.with_labels_in(part.subsets[1])
        calls = _counting_softmax(monkeypatch)
        _in_objective_factory(model, train_in, 1, part.subsets[1])(0.2)
        assert calls == [len(train_in)]


class TestOptimizeOutWeight:
    def _out_setup(self, seed=0):
        dom, model, train_in = _mixture_fixture(seed=seed)
        rng = np.random.default_rng(seed + 100)
        out_anchors = _unit_rows(rng, 8, 16)
        return dom, model, train_in, out_anchors

    def test_empty_out_set_skips(self):
        _, model, train_in, _ = self._out_setup(13)
        fitted, trace = optimize_out_weight(model, train_in, np.empty((0, 16)))
        assert fitted is model and trace == []

    def test_single_anchor_rejected(self):
        _, model, train_in, out = self._out_setup(14)
        with pytest.raises(ValueError, match="at least 2"):
            optimize_out_weight(model, train_in, out[:1])

    def test_inactive_hinge_leaves_weight_unchanged(self):
        # margin 0 and an already-flat specialized head: loss starts at 0
        # (weight decay disabled so only the hinge gradient could move it)
        _, model, train_in, out = self._out_setup(15)
        flat = MixtureModel(
            model.heads, MixtureWeights.two_stage([0.0], [-6.0]), model.partition, tau=0.01
        )
        opt = OptimizerConfig(seed=0, weight_weight_decay=0.0)
        fitted, trace = optimize_out_weight(
            flat, train_in, out, margin=0.0, opt=opt, epochs=5
        )
        assert trace[0] == 0.0
        assert fitted.weights.out_weights[0] == pytest.approx(
            flat.weights.out_weights[0], abs=1e-12
        )

    def test_confident_head_weight_strictly_decreases(self):
        _, model, train_in, out = self._out_setup(16)
        fitted, trace = optimize_out_weight(
            model, train_in, out, margin=0.2, ent_weight=8.0, opt=OptimizerConfig(seed=0)
        )
        assert fitted.weights.out_weights[0] < 0.5
        assert trace[-1] <= trace[0] + 1e-9

    def test_zero_weight_flattens_distribution(self):
        _, model, train_in, out = self._out_setup(17)
        zeroed = MixtureModel(
            model.heads, MixtureWeights.two_stage([0.0], [-np.inf]), model.partition, tau=0.01
        )
        h0, hi = outclass_entropies(zeroed, train_in.vectors[0], out, prompt=1)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert max(0.0, h0 - hi + 0.2) == 0.0

    @pytest.mark.parametrize("weights", [MixtureWeights.two_stage([0.0], [0.4]),
                                         MixtureWeights.one_stage(0.01, 0.02)])
    def test_reused_buffers_keep_the_objective_bits(self, weights):
        _, model, train_in, out = self._out_setup(19)
        model = MixtureModel(model.heads, weights, model.partition, tau=0.01)
        x = train_in.vectors
        # the objective computed from whole arrays, as before the buffers
        # were reused
        whole = _whole_array_out_objective(model, x, out, 1, 0.3, 8.0)
        objective = _out_objective_factory(model, x, out, 1, 0.3, 8.0)
        for theta in (-1.0, 0.2, 1.5):
            assert objective(theta) == whole(theta)

    def test_gradient_matches_finite_difference(self):
        _, model, train_in, out = self._out_setup(18)
        factory = _out_objective_factory(model, train_in.vectors, out, 1, 0.9, 1.0)
        for theta in (-0.5, 0.0, 0.8):
            value, grad = factory(theta)
            h = 1e-6
            fd = (factory(theta + h)[0] - factory(theta - h)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_monotone_trace(self):
        for seed in range(3):
            _, model, train_in, out = self._out_setup(seed + 20)
            _, trace = optimize_out_weight(
                model, train_in, out, margin=0.3, opt=OptimizerConfig(seed=seed)
            )
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def _whole_array_out_objective(model, x, out_anchors, prompt, margin, ent_weight):
    """The out-weight objective on whole N x n_out arrays, ``si``, ``logits``
    and ``probs`` held for the fit: the oracle of the row-blocked factory."""
    tau, log_n = model.tau, np.log(out_anchors.shape[0])
    si = x @ model.heads[prompt].effective_embeddings(out_anchors).T
    top = np.argmax(si, axis=1)
    logits = x @ model.heads[0].effective_embeddings(out_anchors).T
    logits /= tau
    probs = backend.kernels.softmax_rows(logits, out=np.empty_like(logits))
    rows = np.arange(len(x))

    def entropy_rows(top_rows):
        mean_z = np.einsum("nc,nc->n", probs, logits)
        return logits[rows, top_rows] - np.log(probs[rows, top_rows]) - mean_z, mean_z

    h0 = entropy_rows(np.argmax(logits, axis=1))[0] / log_n

    def evaluate(theta):
        # (a, c) of the two parameterizations written out, not read from
        # MixtureWeights.coefficient
        a, c = ((float(np.exp(-theta)), -1.0) if model.weights.parameterization == "one_stage"
                else (float(sigmoid(theta)) / tau, 1.0 - float(sigmoid(theta))))
        np.multiply(si, a, out=logits)
        backend.kernels.softmax_rows(logits, out=probs)
        entropy, mean_z = entropy_rows(top)
        gap = h0 - entropy / log_n + margin
        loss = float(ent_weight * np.mean(np.maximum(0.0, gap)))
        var_z = np.einsum("nc,nc,nc->n", probs, logits, logits) - mean_z * mean_z
        grad = float(ent_weight * np.mean(np.where(gap > 0, c * var_z / log_n, 0.0)))
        return loss, grad

    return evaluate


class TestOutObjectiveBlocks:
    """The out-weight objective walks row blocks through one reused pair of
    logits/probs buffers, keeping only ``si`` whole."""

    @pytest.mark.parametrize("weights, thetas", [
        (MixtureWeights.two_stage([0.0], [0.4]), (-1.0, 0.2, 1.5, 4.0)),
        (MixtureWeights.one_stage(0.01, 0.02), (-5.0, -3.9, -3.0, -1.0)),  # theta = log tau_out
    ])
    def test_ragged_small_blocks_keep_the_whole_array_bits(self, weights, thetas, monkeypatch):
        dom, model, train_in = _mixture_fixture(seed=21)
        names = dom.train.class_names
        tuned = PromptHead.with_random_context(dom.true_prototypes, names, 2, seed=3, init_std=0.3)
        model = MixtureModel((model.heads[0], tuned), weights, model.partition, tau=0.01)
        x, out = train_in.vectors, _unit_rows(np.random.default_rng(121), 8, 16)
        assert len(x) > 14 and len(x) % 7  # blocks of 7 rows: at least three, the last short
        calls = _counting_softmax(monkeypatch)
        monkeypatch.setattr("promix.train.BLOCK_ELEMS", 7 * len(out))
        blocked = _out_objective_factory(model, x, out, 1, 0.3, 8.0)
        assert calls == [7] * (len(x) // 7) + [len(x) % 7]  # h0, block by block
        whole = _whole_array_out_objective(model, x, out, 1, 0.3, 8.0)
        active = 0
        for theta in thetas:
            got = blocked(theta)
            assert struct.pack("<2d", *got) == struct.pack("<2d", *whole(theta))
            active += got[0] > 0.0 and got[1] != 0.0
        assert active >= 2  # the hinge is not flat at every theta

    def test_peak_holds_one_rows_by_out_classes_array(self):
        rng = np.random.default_rng(7)
        names = tuple(f"c{j}" for j in range(4))
        anchors = _unit_rows(rng, 4, 32)
        heads = (PromptHead.frozen_from(anchors, names),
                 PromptHead.with_random_context(anchors, names, 2, seed=1, init_std=0.4))
        part = partition_classes(4, "explicit", sets=[[2, 3], [0, 1]])
        model = MixtureModel(heads, MixtureWeights.two_stage([0.0], [0.0]), part, tau=0.01)
        train_in = EmbeddingSet(_unit_rows(rng, 1600, 32), np.arange(1600) % 2, names)
        out, opt = _unit_rows(rng, 200, 32), OptimizerConfig(weight_epochs=3)
        optimize_out_weight(model, train_in, out, opt=opt)  # lazy set-up off the trace
        peak, _ = _traced_peak(optimize_out_weight, model, train_in, out, 1, 0.2, 8.0, opt)
        unit = 1600 * 200 * 8
        # si, one pair of 327-row logits/probs buffers and arrays of length
        # N (measured 1.46 units of N x n_out); holding si, logits and probs
        # whole took 3.04
        assert peak < 2 * unit


def _descend_scalar_reference(theta0, objective_grad, opt, epochs, n_samples):
    """The weight descent loop without the fixed-point exit: every step
    evaluates the objective."""
    steps_per_epoch = max(1, -(-n_samples // opt.batch_size))

    def run(lr):
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
            raise DivergenceError("weight objective rises immediately even after lr backoff")
    return theta, trace


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, theta):
        self.calls += 1
        return self.fn(theta)


class TestFixedPointExit:
    """``_descend_scalar`` against the loop without the exit: the same
    (theta, trace), and fewer objective evaluations only once a step
    leaves (theta, momentum buffer) bitwise unchanged."""

    EPOCHS, N = 5, 64  # two steps per epoch at the default batch size

    def _both(self, objective, theta0, opt):
        new, old = _Counted(objective), _Counted(objective)
        result = _descend_scalar(theta0, new, opt, self.EPOCHS, self.N)
        expected = _descend_scalar_reference(theta0, old, opt, self.EPOCHS, self.N)
        assert result[0] == expected[0]
        assert np.signbit(result[0]) == np.signbit(expected[0])
        assert result[1] == expected[1]
        return new.calls, old.calls

    def test_flat_objective_at_zero_stops_after_one_evaluation(self):
        calls, reference_calls = self._both(lambda t: (0.0, 0.0), 0.0, OptimizerConfig())
        assert (calls, reference_calls) == (1, 1 + self.EPOCHS * 2)

    def test_weight_decay_keeps_a_zero_gradient_moving(self):
        theta, trace = _descend_scalar(0.7, lambda t: (0.0, 0.0), OptimizerConfig(),
                                       self.EPOCHS, self.N)
        assert theta < 0.7 and trace == [0.0] * (self.EPOCHS + 1)
        calls, reference_calls = self._both(lambda t: (0.0, 0.0), 0.7, OptimizerConfig())
        assert calls == reference_calls == 1 + self.EPOCHS * 2

    def test_quadratic_descends_as_before(self):
        def quadratic(t):
            return (t - 1.0) ** 2, 2.0 * (t - 1.0)

        opt = OptimizerConfig(weight_lr=0.01)
        calls, reference_calls = self._both(quadratic, 0.0, opt)
        assert calls == reference_calls == 1 + self.EPOCHS * 2
        theta, trace = _descend_scalar(0.0, quadratic, opt, self.EPOCHS, self.N)
        assert 0.0 < theta < 1.0 and len(trace) == self.EPOCHS + 1 and trace[-1] < trace[0]

    def test_exact_landing_on_the_minimum_stops_early(self):
        # plain gradient steps of size 1/2 on theta^2 reach 0 exactly in one
        # step; the buffer reaches 0 on the next, and the third repeats it
        opt = OptimizerConfig(weight_lr=0.5, weight_momentum=0.0, weight_weight_decay=0.0)
        calls, reference_calls = self._both(lambda t: (t * t, 2.0 * t), 3.0, opt)
        assert (calls, reference_calls) == (3, 1 + self.EPOCHS * 2)

    def test_non_finite_objective_at_a_fixed_point_still_raises(self):
        with pytest.raises(DivergenceError, match="non-finite"):
            _descend_scalar(0.0, lambda t: (np.inf, 0.0), OptimizerConfig(), 2, 32)

    def test_inactive_hinge_out_weight_fit_is_one_evaluation(self, monkeypatch):
        # identical heads and margin 0: the specialized head at half weight is
        # flatter than the generalized one, so the hinge is inactive at the
        # uniform start, where the gradient and the weight decay are both 0
        dom = _toy_domain(seed=19)
        names = dom.train.class_names
        t0 = PromptHead.frozen_from(dom.generalized_prototypes, names)
        part = partition_classes(6, "explicit", sets=[[4, 5], [0, 1, 2, 3]])
        model = MixtureModel((t0, t0), MixtureWeights.two_stage([0.0], [0.0]), part, tau=0.01)
        out = _unit_rows(np.random.default_rng(19), 8, 16)
        counted = []

        def factory(*args):
            counted.append(_Counted(_out_objective_factory(*args)))
            return counted[-1]

        monkeypatch.setattr("promix.train._out_objective_factory", factory)
        fitted, trace = optimize_out_weight(
            model, dom.train.with_labels_in([0, 1, 2, 3]), out, margin=0.0,
            opt=OptimizerConfig(seed=0), epochs=4,
        )
        assert fitted.weights.raw_out[0] == 0.0
        assert trace == [0.0] * 5
        assert counted[0].calls == 1
