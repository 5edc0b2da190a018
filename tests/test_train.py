"""Tuning and weight-optimization loops: determinism, descent, gradients."""

import numpy as np
import pytest

from promix import backend
from promix.embedspace import (
    EmbeddingSet,
    SyntheticConfig,
    generate_synthetic,
    partition_classes,
    unit_normalize,
)
from promix.head import PromptHead, similarity_matrix
from promix.losses import LossConfig, batch_loss_grad
from promix.mixture import MixtureModel, MixtureWeights, mixture_scaled_logits
from promix.train import (
    HyperParams,
    OptimizerConfig,
    _AnchorSpace,
    _context_loss_grad,
    _in_objective_factory,
    _one_stage_loss_grad,
    _out_objective_factory,
    context_gradient,
    context_loss_value,
    optimize_in_weight,
    optimize_out_weight,
    outclass_entropies,
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

    def test_optimizer_defaults(self):
        opt = OptimizerConfig()
        assert opt.prompt_lr == 0.002
        assert opt.weight_momentum == 0.9
        assert (opt.epochs, opt.batch_size) == (50, 32)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(epochs=0)


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

    def test_epoch_hook_sees_every_epoch(self):
        dom = _toy_domain(seed=6)
        init = PromptHead.with_random_context(
            dom.generalized_prototypes, dom.train.class_names, 4, seed=6
        )
        seen = []
        tune_prompt(init, dom.train, LossConfig("ce"), OptimizerConfig(seed=6, epochs=5),
                    epoch_hook=lambda e, h: seen.append(e))
        assert seen == list(range(5))


class TestTuningLabelRange:
    @pytest.fixture
    def setup(self):
        dom = _toy_domain(seed=30)
        names = dom.train.class_names
        init = PromptHead.with_random_context(dom.generalized_prototypes, names, 2, seed=30)
        generalized = PromptHead.frozen_from(dom.generalized_prototypes, names)
        return dom, init, generalized

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_tune_prompt_rejects_label_outside_class_list(self, setup, bad):
        dom, init, _ = setup
        labels = dom.train.labels.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match="class list"):
            tune_prompt(init, _with_labels(dom.train, labels), LossConfig("ce"),
                        OptimizerConfig(epochs=1))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_one_stage_rejects_label_outside_class_list(self, setup, bad):
        dom, init, generalized = setup
        labels = dom.train.labels.copy()
        labels[3] = bad
        with pytest.raises(ValueError, match="class list"):
            tune_prompt_one_stage(init, generalized, _with_labels(dom.train, labels),
                                  LossConfig("ce"), OptimizerConfig(epochs=1))


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
        space = _AnchorSpace.of(head.anchors, x)
        rows = rng.permutation(n)[:17]
        value, grad = _context_loss_grad(head.context, space, rows, x[rows], y[rows], loss, 0.05)
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

        space = _AnchorSpace.of(head.anchors, x)
        _, g_ctx, g_tau = _one_stage_loss_grad(
            head.context, log_tau, space, slice(None), x, y, z0, loss
        )
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

    def test_one_stage_descends_too(self):
        dom, model, train_in = _mixture_fixture(seed=11)
        model_os = MixtureModel(
            model.heads, MixtureWeights.one_stage(0.01, 0.01), model.partition, tau=0.01
        )
        fitted, trace = optimize_in_weight(model_os, train_in, opt=OptimizerConfig(seed=0))
        assert trace[-1] <= trace[0] + 1e-9
        assert fitted.weights.tau_0 == 0.01  # fixed component untouched

    def test_direct_weights_rejected(self):
        dom, model, train_in = _mixture_fixture(seed=12)
        model_d = MixtureModel(
            model.heads, MixtureWeights.direct([0.5], [0.5]), model.partition, tau=0.01
        )
        with pytest.raises(ValueError, match="raw parameter"):
            optimize_in_weight(model_d, train_in, opt=OptimizerConfig())


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
                    lambda t: model.weights.replace_raw(1, alpha_in=t))

    def test_two_stage_stacked_heads_above_the_cap(self):
        model, train_in = _stacked_fixture()
        thetas = (-4.0, 0.0, 2.0)  # pi_1 = 0.018 (under the cap), 0.5, 0.88 (over)
        self._check(model, train_in, thetas,
                    lambda t: model.weights.replace_raw(1, alpha_in=t), classes=np.arange(8))
        self._check(model, train_in, thetas,
                    lambda t: model.weights.replace_raw(1, alpha_in=t),
                    classes=np.array([0, 1, 2, 3, 5]))

    def test_one_stage(self):
        _, model, train_in = _mixture_fixture(seed=42)
        one = MixtureModel(model.heads, MixtureWeights.one_stage(0.02, 0.015), model.partition,
                           tau=0.01)
        self._check(one, train_in, (np.log(0.005), np.log(0.01), np.log(0.04)),
                    lambda t: one.weights.replace_raw(1, tau_in=float(np.exp(t))))

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
                            lambda z: calls.append(1) or softmax(z))
        in_objective = _in_objective_factory(model, train_in, 1, None)
        assert not calls
        in_objective(0.4)
        assert len(calls) == 1
        out_objective = _out_objective_factory(model, train_in.vectors, out, 1, 0.2, 8.0)
        assert len(calls) == 2  # the generalized head's entropies
        out_objective(0.4)
        assert len(calls) == 3


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
            model.heads, MixtureWeights.direct([0.5], [0.0]), model.partition, tau=0.01
        )
        h0, hi = outclass_entropies(zeroed, train_in.vectors[0], out, prompt=1)
        assert hi == pytest.approx(1.0, abs=1e-12)
        from promix.mixture import ent_loss

        assert ent_loss(h0, hi, d=0.2) == 0.0

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
