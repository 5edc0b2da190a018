"""Prompt-head similarities, predictions, expected error, checkpoints."""

import json

import numpy as np
import pytest

from conftest import _traced_peak, expected_error, predict, samples
from promix.embedspace import (
    SCRATCH_ROWS,
    EmbeddingSet,
    SyntheticConfig,
    check_unit,
    generate_synthetic,
    read_embedding_file,
    unit_normalize,
    write_embedding_file,
)
from promix.head import (
    CheckpointError,
    PromptHead,
    anchors_sha256,
    load_head,
    predict_matrix,
    save_head,
    similarity_matrix,
)


def _unit_rows(rng, rows, dim):
    return unit_normalize(rng.standard_normal((rows, dim)))


@pytest.fixture
def small_head():
    rng = np.random.default_rng(0)
    anchors = _unit_rows(rng, 5, 12)
    return PromptHead.with_random_context(anchors, [f"c{i}" for i in range(5)], 4, seed=1)


class TestPromptHead:
    def test_effective_embeddings_unit_norm(self, small_head):
        eff = small_head.effective_embeddings()
        np.testing.assert_allclose(np.linalg.norm(eff, axis=1), 1.0, atol=1e-12)

    def test_frozen_head_uses_anchors_directly(self):
        rng = np.random.default_rng(1)
        anchors = _unit_rows(rng, 3, 6)
        head = PromptHead.frozen_from(anchors, ["a", "b", "c"])
        assert head.context_len == 0
        assert np.array_equal(head.effective_embeddings(), anchors)

    def test_head_and_set_leave_the_callers_arrays_writeable(self):
        rng = np.random.default_rng(2)
        anchors, context = _unit_rows(rng, 3, 6), rng.standard_normal((2, 6))
        vectors, labels = _unit_rows(rng, 4, 6), np.array([0, 1, 2, 0])
        head = PromptHead(context, anchors, "abc")
        frozen = PromptHead.frozen_from(anchors, "abc")
        emb = EmbeddingSet(vectors, labels, tuple("abc"))
        for caller in (anchors, context, vectors, labels):
            assert caller.flags.writeable
        for held in (head.anchors, head.context, frozen.anchors, emb.vectors, emb.labels):
            assert not held.flags.writeable
        # a read-only array is held as it is: a new context keeps the anchors object
        assert head.with_context(context[:1]).anchors is head.anchors

    def test_parameter_count_independent_of_classes(self):
        rng = np.random.default_rng(3)
        h5 = PromptHead.with_random_context(_unit_rows(rng, 5, 8), [str(i) for i in range(5)], 4, seed=0)
        h50 = PromptHead.with_random_context(_unit_rows(rng, 50, 8), [str(i) for i in range(50)], 4, seed=0)
        assert h5.context.size == h50.context.size == 4 * 8

    def test_restrict_keeps_context(self, small_head):
        sub = small_head.restrict([0, 2])
        assert sub.num_classes == 2
        assert np.array_equal(sub.context, small_head.context)


class TestUnitRowsMemory:
    """At C=1000, D=512 a head's rows are checked and renormalized without a
    C×D temporary: norms go through a scratch of SCRATCH_ROWS rows, and the
    effective embeddings are the one C×D array they build."""

    C, D = 1000, 512
    ONE = C * D * 8
    SCRATCH = SCRATCH_ROWS * D * 8

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(5)
        anchors = _unit_rows(rng, self.C, self.D)
        return 0.02 * rng.standard_normal((16, self.D)), anchors, [f"c{i}" for i in range(self.C)]

    def test_check_unit_holds_no_rows_array(self, parts):
        peak, _ = _traced_peak(check_unit, parts[1])
        assert peak < self.ONE

    def test_construction_holds_no_rows_array(self, parts):
        peak, _ = _traced_peak(PromptHead, *parts)
        assert peak < self.ONE

    def test_effective_embeddings_hold_their_result_and_the_scratch(self, parts):
        head = PromptHead(*parts)
        peak, eff = _traced_peak(head.effective_embeddings)
        assert peak < self.ONE + self.SCRATCH + 2 * self.C * 8  # and a few C-vectors
        expected = head.anchors + head.context.mean(axis=0)
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert eff.tobytes() == expected.tobytes()

    def test_a_zero_effective_row_is_rejected(self):
        anchors = np.eye(2)
        head = PromptHead(np.array([[-1.0, 0.0]]), anchors, ("a", "b"))
        with pytest.raises(ValueError, match="^cannot normalize a zero vector$"):
            head.effective_embeddings()


class TestSimilarities:
    def test_self_similarity_is_one(self, small_head):
        eff = small_head.effective_embeddings()
        s = similarity_matrix(small_head, eff[3][None])[0]
        assert s[3] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_head_reduces_to_anchor_dots(self):
        rng = np.random.default_rng(4)
        anchors = _unit_rows(rng, 4, 7)
        head = PromptHead.frozen_from(anchors, [str(i) for i in range(4)])
        x = unit_normalize(rng.standard_normal(7))
        np.testing.assert_array_equal(similarity_matrix(head, x[None])[0], anchors @ x)

    def test_matches_bruteforce_dots(self, small_head):
        rng = np.random.default_rng(5)
        x = unit_normalize(rng.standard_normal(12))
        s = similarity_matrix(small_head, x[None])[0]
        eff = small_head.effective_embeddings()
        brute = [sum(float(x[k]) * float(eff[c, k]) for k in range(12)) for c in range(5)]
        np.testing.assert_allclose(s, brute, rtol=1e-12)

    def test_dimension_mismatch(self, small_head):
        with pytest.raises(ValueError, match="dimension"):
            similarity_matrix(small_head, np.zeros(9)[None])[0]


class TestPredict:
    def test_uniform_logits(self):
        p = predict(np.zeros(3), tau=1.0)
        np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-15)

    def test_two_class_closed_form(self):
        p = predict(np.array([1.0, 0.0]), tau=1.0)
        e = np.e
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        assert p[0] == pytest.approx(0.7311, abs=1e-4)

    def test_cold_temperature_saturates(self):
        p = predict(np.array([0.2, 0.0]), tau=0.01)
        assert p[0] >= 1 - 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = rng.uniform(-1, 1, 8)
            c = rng.uniform(-100, 100)
            np.testing.assert_allclose(
                predict(s, 0.05), predict(s + c, 0.05), atol=1e-12
            )

    def test_temperature_monotonicity(self):
        s = np.array([0.5, 0.1, -0.2])
        taus = [1.0, 0.5, 0.1, 0.05, 0.01]
        tops = [predict(s, t)[0] for t in taus]
        assert all(b > a for a, b in zip(tops, tops[1:]))

    def test_argmax_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = rng.uniform(-1, 1, 6)
            assert predict(s, 0.01).argmax() == int(np.argmax(s))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            predict(np.array([np.nan, 0.0]), 1.0)
        with pytest.raises(ValueError, match="positive"):
            predict(np.array([1.0, 0.0]), 0.0)

    def test_distribution_invariants(self):
        rng = np.random.default_rng(8)
        p = predict_matrix(rng.uniform(-1, 1, (20, 6)), 0.05)
        assert np.all((p >= 0) & (p <= 1))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="positive"):
            predict_matrix(np.array([[1.0, 0.0]]), -1.0)


class TestExpectedError:
    def test_perfect_prediction_is_zero(self):
        anchors = np.eye(2)
        head = PromptHead.frozen_from(anchors, ("a", "b"))
        data = EmbeddingSet(np.eye(2), np.array([0, 1]), ("a", "b"))
        # gap/tau is 2000: the softmax saturates to an exact one-hot
        assert expected_error(head, data, tau=0.001) == 0.0

    def test_uniform_predictor_gives_log_classes(self):
        anchors = np.tile(unit_normalize(np.ones(4)), (4, 1))
        head = PromptHead.frozen_from(anchors, tuple("abcd"))
        rng = np.random.default_rng(8)
        data = EmbeddingSet(_unit_rows(rng, 6, 4), rng.integers(0, 4, 6), tuple("abcd"))
        assert expected_error(head, data, tau=0.01) == pytest.approx(np.log(4), abs=1e-9)

    def test_matches_per_sample_oracle(self):
        dom = generate_synthetic(SyntheticConfig(dim=8, num_classes=4, shots=3,
                                                 test_per_class=2, confusion_pairs=0), 9)
        head = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        total = 0.0
        for vec, label in samples(dom.train):
            total += -np.log(predict(similarity_matrix(head, vec[None])[0], 0.01)[label])
        assert expected_error(head, dom.train, 0.01) == pytest.approx(total / len(dom.train), rel=1e-12)

    def test_reorder_invariance(self):
        dom = generate_synthetic(SyntheticConfig(dim=8, num_classes=4, shots=4,
                                                 test_per_class=2, confusion_pairs=0), 10)
        head = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        perm = np.random.default_rng(0).permutation(len(dom.train))
        shuffled = dom.train.subset(perm)
        assert expected_error(head, shuffled, 0.01) == pytest.approx(
            expected_error(head, dom.train, 0.01), rel=1e-12
        )

    def test_empty_set_rejected(self):
        head = PromptHead.frozen_from(np.eye(2), ("a", "b"))
        empty = EmbeddingSet(np.empty((0, 2)), np.empty(0, dtype=np.int64), ("a", "b"))
        with pytest.raises(ValueError, match="empty"):
            expected_error(head, empty, 0.01)


class TestCheckpoint:
    @staticmethod
    def _load(head, path):
        return load_head(path, head.anchors, head.class_names)

    def test_round_trip(self, small_head, tmp_path):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        back, tau = self._load(small_head, path)
        assert tau == 0.01
        assert back.class_names == small_head.class_names
        assert np.array_equal(back.anchors, small_head.anchors)
        # float32 storage: values match to f32 precision
        np.testing.assert_allclose(back.context, small_head.context, atol=1e-6)

    def test_manifest_holds_tau_and_digest_and_the_block_only_context(self, small_head, tmp_path):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        manifest = json.loads(path.read_text())
        assert manifest == {
            "tau": 0.01,
            "anchors_sha256": anchors_sha256(small_head.anchors, small_head.class_names),
        }
        block = read_embedding_file(path.with_suffix(".emb"), check_norms=False)
        assert block.vectors.shape == small_head.context.shape

    def test_frozen_head_round_trips_without_context_rows(self, tmp_path):
        path = tmp_path / "head.json"
        head = PromptHead.frozen_from(_unit_rows(np.random.default_rng(2), 3, 4), ("a", "b", "c"))
        save_head(head, 0.02, path)
        back, tau = self._load(head, path)
        assert tau == 0.02 and back.context_len == 0 and back.dim == 4

    def test_loaded_head_predicts_like_saved(self, small_head, tmp_path):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        back, _ = self._load(small_head, path)
        rng = np.random.default_rng(11)
        x = unit_normalize(rng.standard_normal(12))
        np.testing.assert_allclose(
            similarity_matrix(back, x[None, :]), similarity_matrix(small_head, x[None, :]),
            atol=1e-6,
        )

    @pytest.mark.parametrize(
        "damage, pointer",
        [
            (lambda m: m.pop("tau"), "/tau"),
            (lambda m: m.__setitem__("tau", float("nan")), "/tau"),
            (lambda m: m.__setitem__("tau", 0.0), "/tau"),
            (lambda m: m.pop("anchors_sha256"), "/anchors_sha256"),
            (lambda m: m.__setitem__("anchors_sha256", "0" * 64), "/anchors_sha256"),
        ],
        ids=["no_tau", "nan_tau", "zero_tau", "no_digest", "other_digest"],
    )
    def test_bad_entry_names_file_and_pointer(self, small_head, tmp_path, damage, pointer):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        manifest = json.loads(path.read_text())
        damage(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"{path}: {pointer}: "):
            self._load(small_head, path)

    @pytest.mark.parametrize("change", ["one_ulp", "float32", "class_order"])
    def test_other_anchors_fail_at_the_digest(self, small_head, tmp_path, change):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        anchors, names = small_head.anchors.copy(), small_head.class_names
        if change == "one_ulp":
            anchors[0, 0] = np.nextafter(anchors[0, 0], 2.0)
        elif change == "float32":
            anchors = anchors.astype(np.float32).astype(np.float64)
        else:
            names = names[::-1]
        with pytest.raises(CheckpointError, match=f"{path}: /anchors_sha256: "):
            load_head(path, anchors, names)

    def test_context_block_of_another_width_names_the_head_file(self, small_head, tmp_path):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        wide = np.zeros((small_head.context_len, small_head.dim + 1))
        write_embedding_file(EmbeddingSet(wide, np.zeros(len(wide), np.int64), ("context",)),
                             path.with_suffix(".emb"))
        with pytest.raises(CheckpointError, match=f"{path}: context block: rows of width 13"):
            self._load(small_head, path)

    def test_missing_context_block_names_the_head_file(self, small_head, tmp_path):
        path = tmp_path / "head.json"
        save_head(small_head, 0.01, path)
        path.with_suffix(".emb").unlink()
        with pytest.raises(CheckpointError, match=f"{path}: context block: "):
            self._load(small_head, path)
