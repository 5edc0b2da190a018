"""Mixture weights, predictions, the ensemble error bound, the error
decomposition, the out-weight entropy hinge and weight gradients."""

import dataclasses
import json
import struct

import numpy as np
import pytest

import promix.head
import promix.mixture
from conftest import (
    decompose_error,
    matched_two_stage,
    mixture_ce_grad_wrt_weight,
    mixture_predict_matrix,
    one_stage_params,
    outclass_entropies,
    two_pass_bound_gap,
    wide_context_head,
)
from promix import backend
from promix.embedspace import (
    DomainPartition,
    EmbeddingSet,
    partition_classes,
    unit_normalize,
)
from promix.head import PromptHead, predict_matrix, similarity_matrix
from promix.mixture import (
    MixtureModel,
    MixtureWeights,
    bound_gap,
    class_scale_matrix,
    class_weight_matrix,
    load_weights,
    mixture_scaled_logits,
    save_weights,
    sigmoid,
)
from promix.train import _entropy_rows, _out_objective_factory


def _unit_rows(rng, rows, dim):
    return unit_normalize(rng.standard_normal((rows, dim)))


def _heads(rng, count, classes, dim):
    names = tuple(f"c{i}" for i in range(classes))
    return tuple(PromptHead.frozen_from(_unit_rows(rng, classes, dim), names) for _ in range(count))


def _logit(p):
    """The two_stage logit of a weight in (0, 1); weights of exactly 0 and 1
    are written as -inf and inf, which sigmoid maps back exactly."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


def _data(rng, n, classes, dim):
    names = tuple(f"c{i}" for i in range(classes))
    return EmbeddingSet(_unit_rows(rng, n, dim), rng.integers(0, classes, n), names)


class TestEffectiveWeight:
    def test_k1_in_domain(self):
        part = partition_classes(4, "explicit", sets=[[0, 1], [2, 3]])
        w = class_weight_matrix(MixtureWeights.two_stage([0.0], [_logit(0.3)]), part)
        assert w[1, 2] == pytest.approx(0.5)
        assert w[0, 2] == pytest.approx(0.5)
        assert w[1, 0] == pytest.approx(0.3)
        assert w[0, 0] == pytest.approx(0.7)

    def test_k2_columns_always_simplex(self):
        rng = np.random.default_rng(0)
        part = partition_classes(6, "explicit", sets=[[0, 1], [2, 3], [4, 5]])
        for _ in range(100):
            w = MixtureWeights.two_stage(_logit(rng.uniform(0, 1, 2)), _logit(rng.uniform(0, 1, 2)))
            mat = class_weight_matrix(w, part)
            np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(mat >= 0)

    def test_zero_out_weight_eliminates_specialized_head(self):
        rng = np.random.default_rng(1)
        heads = _heads(rng, 2, 4, 8)
        part = partition_classes(4, "explicit", sets=[[0, 1], [2, 3]])
        model = MixtureModel(heads, MixtureWeights.two_stage([0.0], [-np.inf]), part, tau=0.05)
        x = _unit_rows(rng, 1, 8)
        logits = mixture_scaled_logits(model, x)
        s0 = similarity_matrix(heads[0], x)
        np.testing.assert_allclose(logits[0, 0], s0[0, 0] / 0.05, rtol=1e-12)
        np.testing.assert_allclose(logits[0, 1], s0[0, 1] / 0.05, rtol=1e-12)


class TestMixturePredict:
    def test_degenerate_weights_reduce_to_generalized_head(self):
        rng = np.random.default_rng(2)
        heads = _heads(rng, 2, 5, 8)
        part = partition_classes(5, "base_new_even_split", seed=0)
        model = MixtureModel(heads, MixtureWeights.two_stage([-np.inf], [-np.inf]), part, tau=0.02)
        x = _unit_rows(rng, 1, 8)[0]
        expected = predict_matrix(similarity_matrix(heads[0], x[None, :]), 0.02)[0]
        np.testing.assert_allclose(mixture_predict_matrix(model, x[None])[0], expected, atol=1e-12)

    def test_full_weight_on_specialized_head(self):
        rng = np.random.default_rng(3)
        heads = _heads(rng, 2, 4, 8)
        part = partition_classes(4, "explicit", sets=[[], [0, 1, 2, 3]])
        weights = MixtureWeights.two_stage([np.inf], [_logit(0.7)])
        model = MixtureModel(heads, weights, part, tau=0.02)
        x = _unit_rows(rng, 1, 8)[0]
        expected = predict_matrix(similarity_matrix(heads[1], x[None, :]), 0.02)[0]
        np.testing.assert_allclose(mixture_predict_matrix(model, x[None])[0], expected, atol=1e-12)

    def test_uniform_weights_match_mean_similarities(self):
        rng = np.random.default_rng(4)
        heads = _heads(rng, 2, 6, 8)
        part = partition_classes(6, "base_new_even_split", seed=1)
        model = MixtureModel(heads, MixtureWeights.two_stage([0.0], [0.0]), part, tau=0.05)
        x = _unit_rows(rng, 3, 8)
        mean_sims = 0.5 * (similarity_matrix(heads[0], x) + similarity_matrix(heads[1], x))
        np.testing.assert_allclose(
            mixture_predict_matrix(model, x), predict_matrix(mean_sims, 0.05), atol=1e-12
        )

    def test_single_tuning_domain_reduces_to_global_weights(self):
        # every class owned by head 1: the per-class rule collapses to one
        # global simplex (pi_0, pi_1), the plain weighted-combination model
        rng = np.random.default_rng(21)
        heads = _heads(rng, 2, 5, 8)
        part = partition_classes(5, "explicit", sets=[[], [0, 1, 2, 3, 4]])
        x = _unit_rows(rng, 3, 8)
        for pi_1 in (0.2, 0.5, 0.9):
            model = MixtureModel(
                heads, MixtureWeights.two_stage([_logit(pi_1)], [_logit(0.3)]), part, tau=0.05
            )
            combined = (1 - pi_1) * similarity_matrix(heads[0], x) + pi_1 * similarity_matrix(heads[1], x)
            np.testing.assert_allclose(
                mixture_predict_matrix(model, x), predict_matrix(combined, 0.05), atol=1e-12
            )

    def test_class_restriction(self):
        rng = np.random.default_rng(5)
        heads = _heads(rng, 2, 6, 8)
        part = partition_classes(6, "base_new_even_split", seed=2)
        model = MixtureModel(heads, MixtureWeights.uniform(1), part, tau=0.05)
        x = _unit_rows(rng, 2, 8)
        subset = np.array([1, 3, 4])
        full = mixture_scaled_logits(model, x)
        restricted = mixture_scaled_logits(model, x, classes=subset)
        np.testing.assert_array_equal(restricted, full[:, subset])


def _parent_logits(model, x, classes):
    """Reference: the mixture logits written one formula per
    parameterization, over every column, then sliced to ``classes``."""
    sims = np.stack([similarity_matrix(h, x) for h in model.heads])
    w = model.weights
    if w.parameterization == "one_stage":
        tau_spec = np.where(model.partition.owner_of() == 1, w.raw_in[0], w.raw_out[0])
        logits = sims[0] / model.tau + sims[1] / tau_spec[None, :]
    else:
        rows = class_weight_matrix(w, model.partition)
        logits = np.einsum("kc,knc->nc", rows, sims) / model.tau
    return logits[:, classes]


class TestOneFormula:
    """Sum_k scale[k, idx] s_k on the candidate columns against the
    per-parameterization formula over all columns."""

    @staticmethod
    def _model(weights, sets, seed):
        rng = np.random.default_rng(seed)
        c = sum(len(s) for s in sets)
        names = tuple(f"c{i}" for i in range(c))
        anchors = _unit_rows(rng, c, 8)
        heads = tuple(
            wide_context_head(anchors, names, 2, seed + i, 0.3)
            for i in range(len(sets))
        )
        part = partition_classes(c, "explicit", sets=sets)
        return MixtureModel(heads, weights, part, tau=0.03), _unit_rows(rng, 7, 8)

    @pytest.mark.parametrize(
        "weights, sets",
        [
            (MixtureWeights.two_stage([0.8], [-1.1]), [[0, 2, 4], [1, 3, 5]]),
            # in/out weights near 0.9 push every column's specialized sum above 1
            (MixtureWeights.two_stage([2.2, 2.5], [2.0, 1.9]), [[0, 1], [2, 3], [4, 5]]),
            (MixtureWeights.one_stage(0.004, 0.03), [[0, 2, 4], [1, 3, 5]]),
            (MixtureWeights.two_stage([_logit(0.35)], [_logit(0.6)]), [[0, 2, 4], [1, 3, 5]]),
        ],
    )
    def test_matches_the_per_parameterization_formula(self, monkeypatch, weights, sets):
        model, x = self._model(weights, sets, seed=len(sets))
        if len(sets) == 3:
            # capped columns leave the generalized head nothing
            assert np.all(class_weight_matrix(weights, model.partition)[0] == 0.0)
        widths = []

        def recording(head, vectors):
            widths.append(head.num_classes)
            return similarity_matrix(head, vectors)

        monkeypatch.setattr(promix.mixture, "similarity_matrix", recording)
        for classes in (np.array([1, 4, 5]), np.arange(6)):
            widths.clear()
            got = mixture_scaled_logits(model, x, classes=classes)
            np.testing.assert_allclose(got, _parent_logits(model, x, classes), rtol=1e-12)
            # every head is scored once, on the candidate columns only
            assert widths == [len(classes)] * len(model.heads)

    def test_one_stage_rows_are_inverse_temperatures(self):
        model, _ = self._model(
            MixtureWeights.one_stage(0.004, 0.03), [[0, 2, 4], [1, 3, 5]], seed=9
        )
        scale = class_scale_matrix(model)
        # head 0 takes the model's temperature, 0.03
        np.testing.assert_allclose(scale[0], 1 / 0.03)
        np.testing.assert_allclose(scale[1], np.where(np.arange(6) % 2 == 1, 1 / 0.004, 1 / 0.03))

    def test_precomputed_sims_on_candidate_columns(self):
        model, x = self._model(
            MixtureWeights.two_stage([0.8], [-1.1]), [[0, 2, 4], [1, 3, 5]], seed=3
        )
        idx = np.array([0, 3, 5])
        sims = [similarity_matrix(h.restrict(idx), x) for h in model.heads]
        np.testing.assert_array_equal(
            mixture_scaled_logits(model, x, classes=idx, sims=sims),
            mixture_scaled_logits(model, x, classes=idx),
        )


class TestBoundGap:
    def test_single_head_gap_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        (head,) = _heads(rng, 1, 4, 8)
        data = _data(rng, 10, 4, 8)
        assert bound_gap([head], data, np.array([1.0]), 0.1) == 0.0

    def test_identical_heads_gap_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        (head,) = _heads(rng, 1, 5, 8)
        data = _data(rng, 12, 5, 8)
        assert bound_gap([head, head], data, np.array([0.5, 0.5]), 0.1) == 0.0

    def test_random_ensembles_never_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            c = int(rng.integers(2, 21))
            d = int(rng.integers(4, 12))
            heads = _heads(rng, k + 1, c, d)
            data = _data(rng, int(rng.integers(3, 12)), c, d)
            pi = rng.exponential(size=k + 1)
            pi /= pi.sum()
            tau = float(rng.choice([1.0, 0.1, 0.01]))
            assert bound_gap(heads, data, pi, tau) >= -1e-12

    def test_rejects_off_simplex(self):
        rng = np.random.default_rng(9)
        heads = _heads(rng, 2, 3, 6)
        data = _data(rng, 5, 3, 6)
        with pytest.raises(ValueError, match="simplex"):
            bound_gap(heads, data, np.array([0.7, 0.6]), 0.1)

    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_the_two_pass_bound_bitwise(self, k, tau):
        rng = np.random.default_rng(100 * k + int(1 / tau))
        for _ in range(20):
            c, d = int(rng.integers(2, 21)), int(rng.integers(4, 17))
            heads = _heads(rng, k + 1, c, d)
            data = _data(rng, int(rng.integers(1, 17)), c, d)
            pi = rng.exponential(size=k + 1)
            pi /= pi.sum()
            got, want = bound_gap(heads, data, pi, tau), two_pass_bound_gap(heads, data, pi, tau)
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_scores_each_head_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        heads, data = _heads(rng, 3, 5, 8), _data(rng, 6, 5, 8)
        calls = []
        original = promix.mixture.similarity_matrix
        for module in (promix.head, promix.mixture):
            monkeypatch.setattr(module, "similarity_matrix",
                                lambda h, v: calls.append(id(h)) or original(h, v))
        bound_gap(heads, data, np.full(3, 1 / 3), 0.1)
        assert calls == [id(h) for h in heads]

    @pytest.mark.parametrize("tau", [0.0, -0.1])
    def test_rejects_non_positive_temperature(self, tau):
        rng = np.random.default_rng(12)
        heads, data = _heads(rng, 2, 3, 6), _data(rng, 5, 3, 6)
        with pytest.raises(ValueError, match="temperature"):
            bound_gap(heads, data, np.array([0.5, 0.5]), tau)

    def test_rejects_an_empty_set(self):
        rng = np.random.default_rng(13)
        heads = _heads(rng, 2, 3, 6)
        empty = EmbeddingSet(np.zeros((0, 6)), np.zeros(0, dtype=np.int64), ("a", "b", "c"))
        with pytest.raises(ValueError, match="empty"):
            bound_gap(heads, empty, np.array([0.5, 0.5]), 0.1)

    def test_rejects_nan_weights(self):
        rng = np.random.default_rng(14)
        heads, data = _heads(rng, 2, 3, 6), _data(rng, 5, 3, 6)
        with pytest.raises(ValueError, match="simplex"):
            bound_gap(heads, data, np.array([np.nan, 1.0]), 0.1)


class TestDecomposeError:
    def _model(self, rng, classes=6, dim=8, k=2):
        heads = _heads(rng, k + 1, classes, dim)
        sets = np.array_split(np.arange(classes), k + 1)
        part = DomainPartition(tuple(sets))
        return MixtureModel(heads, MixtureWeights.uniform(k), part, tau=0.05)

    def test_single_subset_recovers_full_error(self):
        rng = np.random.default_rng(10)
        heads = _heads(rng, 1, 4, 8)
        part = partition_classes(4, "explicit", sets=[[0, 1, 2, 3]])
        weights = MixtureWeights.two_stage(np.empty(0), np.empty(0))
        model = MixtureModel(heads, weights, part, tau=0.05)
        data = _data(rng, 9, 4, 8)
        parts, total = decompose_error(model, data)
        assert parts[0][0] == 1.0
        assert total == pytest.approx(parts[0][1], rel=1e-15)

    def test_equal_counts_give_equal_masses(self):
        rng = np.random.default_rng(11)
        model = self._model(rng, classes=6, k=1)
        vecs = _unit_rows(rng, 8, 8)
        labels = np.array([0, 1, 2, 3, 4, 5, 0, 3])
        data = EmbeddingSet(vecs, labels, model.heads[0].class_names)
        parts, _ = decompose_error(model, data)
        assert parts[0][0] == pytest.approx(0.5)
        assert parts[1][0] == pytest.approx(0.5)

    def test_reconstruction_matches_expected_error(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            model = self._model(rng, classes=9, k=2)
            data = _data(rng, 30, 9, 8)
            parts, total = decompose_error(model, data)
            probs = mixture_predict_matrix(model, data.vectors)
            direct = float(
                np.mean(-np.log(probs[np.arange(len(data)), data.labels]))
            )
            assert total == pytest.approx(direct, abs=1e-12)

    def test_label_outside_partition_rejected(self):
        rng = np.random.default_rng(13)
        model = self._model(rng, classes=6, k=1)
        bad = EmbeddingSet(_unit_rows(rng, 2, 8), np.array([0, 6]),
                           tuple(f"c{i}" for i in range(7)))
        with pytest.raises(ValueError, match="outside"):
            decompose_error(model, bad)


class TestMixtureCEGradient:
    def _setup(self, rng, classes=5, dim=8):
        heads = _heads(rng, 2, classes, dim)
        part = partition_classes(classes, "base_new_even_split", seed=0)
        weights = MixtureWeights.two_stage([_logit(0.4)], [_logit(0.6)])
        model = MixtureModel(heads, weights, part, tau=0.05)
        x = _unit_rows(rng, 1, dim)[0]
        return model, x

    def test_constant_similarity_head_has_zero_gradient(self):
        rng = np.random.default_rng(14)
        names = ("a", "b", "c")
        anchors0 = _unit_rows(rng, 3, 6)
        shared = unit_normalize(rng.standard_normal(6))
        anchors1 = np.tile(shared, (3, 1))
        heads = (
            PromptHead.frozen_from(anchors0, names),
            PromptHead.frozen_from(anchors1, names),
        )
        part = partition_classes(3, "explicit", sets=[[0], [1, 2]])
        model = MixtureModel(heads, MixtureWeights.uniform(1), part, tau=0.05)
        x = _unit_rows(rng, 1, 6)[0]
        assert mixture_ce_grad_wrt_weight(model, x, 1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            model, x = self._setup(rng)
            y = int(rng.integers(0, 5))
            for prompt in (0, 1):
                g = mixture_ce_grad_wrt_weight(model, x, y, prompt)
                h = 1e-5
                base_w = class_weight_matrix(model.weights, model.partition)
                sims = [similarity_matrix(head, x[None, :]) for head in model.heads]

                def ce_at(delta):
                    rows = base_w.copy()
                    rows[prompt] += delta
                    logits = sum(r * s for r, s in zip(rows / model.tau, sims))
                    probs = np.exp(logits - logits.max())
                    probs /= probs.sum()
                    return -np.log(probs[0, y])

                fd = (ce_at(h) - ce_at(-h)) / (2 * h)
                assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_sign_when_head_is_right_and_mixture_wrong(self):
        # head 1 puts the true class on top while head 0 drags the mixture
        # elsewhere: the gradient must be negative so descent raises pi_1
        names = ("a", "b")
        anchors1 = np.eye(2)
        anchors0 = np.eye(2)[::-1].copy()
        heads = (
            PromptHead.frozen_from(anchors0, names),
            PromptHead.frozen_from(anchors1, names),
        )
        part = partition_classes(2, "explicit", sets=[[1], [0]])
        weights = MixtureWeights.two_stage([_logit(0.2)], [_logit(0.2)])
        model = MixtureModel(heads, weights, part, tau=0.05)
        x = unit_normalize(np.array([1.0, 0.05]))
        probs = mixture_predict_matrix(model, x[None])[0]
        assert int(np.argmax(probs)) != 0
        assert mixture_ce_grad_wrt_weight(model, x, 0, 1) < 0


def _normalized_entropy(logits) -> float:
    """Entropy of softmax(logits) over log of the class count, by the
    out-weight objective's row formula."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    h = _entropy_rows(z, backend.kernels.softmax_rows(z), np.argmax(z, axis=1))[0]
    return float(h[0] / np.log(z.shape[1]))


def _out_case(seed):
    """A one-specialized-head model, six training rows and five out-class anchors."""
    rng = np.random.default_rng(seed)
    part = partition_classes(6, "base_new_even_split", seed=3)
    model = MixtureModel(_heads(rng, 2, 6, 8), MixtureWeights.two_stage([0.0], [0.4]), part,
                         tau=0.01)
    return model, _unit_rows(rng, 6, 8), _unit_rows(rng, 5, 8)


class TestEntropyPieces:
    """The out-weight hinge mean(max(0, H_gen - H_spec + d)) on normalized
    entropies, as ``_out_objective_factory`` computes it."""

    def test_normalized_entropy_bounds(self):
        assert _normalized_entropy([0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert _normalized_entropy([1000.0, 0.0, 0.0]) == 0.0
        assert _normalized_entropy([0.0, 0.0]) == pytest.approx(1.0)

    def test_ent_loss_hinge(self):
        model, x, out = _out_case(15)
        h0, hi = outclass_entropies(model, x[0], out, prompt=1)
        theta = model.weights.raw(1, "out")

        def loss(margin):
            return _out_objective_factory(model, x[:1], out, 1, margin, 1.0)(theta)[0]

        assert loss(hi - h0 - 0.1) == 0.0
        assert loss(hi - h0 + 0.6) == pytest.approx(0.6, abs=1e-12)
        assert loss(hi - h0) == pytest.approx(0.0, abs=1e-12)  # boundary: H_i = H_0 + d

    def test_ent_loss_monotonicity(self):
        rng = np.random.default_rng(16)
        model, x, out = _out_case(16)
        for _ in range(20):
            theta, d = rng.uniform(-3, 3), rng.uniform(0, 1)
            loss = _out_objective_factory(model, x, out, 1, d, 1.0)
            # a smaller weight flattens the specialized head: no larger loss
            assert loss(theta - 0.05)[0] <= loss(theta)[0]
            wider = _out_objective_factory(model, x, out, 1, min(d + 0.05, 1.0), 1.0)
            assert wider(theta)[0] >= loss(theta)[0]


class TestParameterizations:
    def test_one_stage_symmetric_case(self):
        pi, tau = one_stage_params(0.01, 0.01)
        assert pi == pytest.approx(0.5)
        assert tau == pytest.approx(0.005)

    def test_one_stage_limit(self):
        pi, tau = one_stage_params(1e9, 0.01)
        assert pi == pytest.approx(0.0, abs=1e-10)
        assert tau == pytest.approx(0.01, rel=1e-6)

    def test_one_stage_table_values(self):
        pi, tau = one_stage_params(0.03, 0.01)
        assert pi == pytest.approx(0.25, rel=1e-12)
        assert tau == pytest.approx(0.0075, rel=1e-12)

    def test_two_stage_uniform_at_zero(self):
        part = partition_classes(4, "explicit", sets=[[0, 1], [2, 3]])
        w = class_weight_matrix(MixtureWeights.two_stage([0.0], [0.0]), part)
        np.testing.assert_allclose(w, 0.5, atol=1e-15)

    def test_two_stage_saturates(self):
        part = partition_classes(4, "explicit", sets=[[0, 1], [2, 3]])
        w = class_weight_matrix(MixtureWeights.two_stage([50.0], [50.0]), part)
        np.testing.assert_allclose(w[1], 1.0, atol=1e-12)

    def test_two_stage_log3(self):
        part = partition_classes(4, "explicit", sets=[[0, 1], [2, 3]])
        w = class_weight_matrix(MixtureWeights.two_stage([np.log(3.0)], [np.log(3.0)]), part)
        np.testing.assert_allclose(w.T, [[0.25, 0.75]] * 4, atol=1e-12)

    def test_equivalence_of_matched_configurations(self):
        rng = np.random.default_rng(17)
        heads = _heads(rng, 2, 6, 8)
        part = partition_classes(6, "base_new_even_split", seed=3)
        x = _unit_rows(rng, 4, 8)
        for tau_1 in (0.005, 0.01, 0.03, 0.2):
            one = MixtureModel(
                heads, MixtureWeights.one_stage(tau_1, tau_1), part, tau=0.01
            )
            alpha, tau_eff = matched_two_stage(tau_1, 0.01)
            two = MixtureModel(
                heads, MixtureWeights.two_stage([alpha], [alpha]), part, tau=tau_eff
            )
            p_one = mixture_predict_matrix(one, x)
            p_two = mixture_predict_matrix(two, x)
            np.testing.assert_allclose(p_one, p_two, atol=1e-12)

    def test_one_stage_requires_single_head(self):
        with pytest.raises(ValueError, match="one_stage|single"):
            MixtureWeights("one_stage", np.array([0.01, 0.01]), np.array([0.01, 0.01]))

    def test_stores_only_the_raw_parameters(self):
        names = [f.name for f in dataclasses.fields(MixtureWeights)]
        assert names == ["parameterization", "raw_in", "raw_out"]
        two = MixtureWeights.two_stage([0.3, -1.2], [0.0, 2.0])
        np.testing.assert_array_equal(two.in_weights, sigmoid(np.array([0.3, -1.2])))
        one = MixtureWeights.one_stage(0.03, 0.07)
        # a one_stage weight needs the frozen head's temperature: the model's
        with pytest.raises(ValueError, match="model's tau"):
            one.in_weights
        for w in (two, one):
            assert not w.raw_in.flags.writeable
            moved = w.with_raw(1, "out", w.raw(1, "out") + 0.5)
            np.testing.assert_array_equal(moved.raw_in, w.raw_in)

    @pytest.mark.parametrize(
        "raw_in, kind, match",
        [([np.nan], "two_stage", "lie in"), ([0.0], "one_stage", "positive"),
         ([-0.01], "one_stage", "positive"), ([np.nan], "one_stage", "positive")],
    )
    def test_rejects_a_bad_raw_parameter(self, raw_in, kind, match):
        with pytest.raises(ValueError, match=match):
            MixtureWeights(kind, raw_in, [0.01])


class TestWeightCheckpoint:
    @pytest.mark.parametrize(
        "weights",
        [
            MixtureWeights.two_stage([0.3, -1.2], [0.0, 2.0]),
            MixtureWeights.one_stage(0.03, 0.07),
        ],
        ids=["two_stage", "one_stage"],
    )
    def test_round_trip(self, weights, tmp_path):
        path = tmp_path / "w.json"
        save_weights(weights, path)
        back = load_weights(path)
        assert back.parameterization == weights.parameterization
        np.testing.assert_array_equal(back.raw_in, weights.raw_in)
        np.testing.assert_array_equal(back.raw_out, weights.raw_out)

    @pytest.mark.parametrize(
        "weights, damage, pointer",
        [
            (MixtureWeights.two_stage([0.3], [0.1]), lambda d: d.pop("raw"), "/raw/alphas_in"),
            (MixtureWeights.two_stage([0.3], [0.1]),
             lambda d: d["raw"]["alphas_in"].__setitem__(0, float("nan")), "/raw/alphas_in/0"),
            (MixtureWeights.two_stage([0.3, 0.2], [0.1, 0.0]),
             lambda d: d["raw"]["alphas_out"].pop(), "/raw/alphas_out"),
            # the frozen head's temperature is the model's, under either kind
            (MixtureWeights.two_stage([0.3], [0.1]), lambda d: d.__setitem__("tau_0", 7.5),
             "/tau_0"),
            (MixtureWeights.one_stage(0.03, 0.07), lambda d: d.__setitem__("tau_0", 0.01),
             "/tau_0"),
            (MixtureWeights.one_stage(0.03, 0.07),
             lambda d: d["raw"].__setitem__("tau_out", float("inf")), "/raw/tau_out"),
            (MixtureWeights.one_stage(0.03, 0.07),
             lambda d: d.__setitem__("parameterization", "three_stage"), "/parameterization"),
            # no kind reads plain weights from /prompts
            (MixtureWeights.two_stage([0.4], [0.9]),
             lambda d: d.__setitem__("parameterization", "direct"), "/parameterization"),
        ],
        ids=["no_raw", "nan_alpha", "short_alphas_out", "two_stage_tau_0", "one_stage_tau_0",
             "inf_tau", "kind", "direct"],
    )
    def test_bad_entry_names_file_and_pointer(self, weights, damage, pointer, tmp_path):
        path = tmp_path / "w.json"
        payload = weights.to_dict()
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"{path}: {pointer}: "):
            load_weights(path)

    def test_non_json_file_names_the_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=f"{path}: /: not a JSON checkpoint"):
            load_weights(path)


class TestNonFiniteValuesAreRejected:
    def test_weights(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixtureWeights.two_stage([np.nan], [0.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixtureWeights.two_stage([0.0], [np.nan])

    def test_two_stage_logits(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MixtureWeights.two_stage([np.nan], [0.0])

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_model_temperature(self, tau):
        rng = np.random.default_rng(15)
        part = partition_classes(6, "base_new_even_split", seed=0)
        with pytest.raises(ValueError, match="temperature"):
            MixtureModel(_heads(rng, 2, 6, 8), MixtureWeights.uniform(1), part, tau=tau)
