"""Metrics, sample categorization, report invariants, and harness wiring.

The heavyweight directional checks live in test_acceptance; these tests
keep the harness configs tiny.
"""

from concurrent.futures import Future

import numpy as np
import pytest

import promix.evaluation as evaluation
from promix.embedspace import EmbeddingSet, SyntheticConfig, generate_synthetic, unit_normalize
from promix.evaluation import (
    EvalReport,
    HarnessConfig,
    accuracy,
    aggregate_harmonic,
    assumption_check,
    base_to_new_csv,
    base_to_new_eval,
    bound_sweep,
    classify_samples,
    confusing_gain,
    curves_csv,
    fscil_csv,
    fscil_run,
    harmonic_mean,
)
from promix.head import PromptHead
from promix.train import OptimizerConfig


def _tiny_harness(**kw):
    defaults = dict(
        synthetic=SyntheticConfig(dim=16, num_classes=8, shots=4, test_per_class=6,
                                  intra_noise=0.1, proto_noise=0.2, confusion_pairs=2, seed=0),
        optimizer=OptimizerConfig(epochs=8),
        seeds=(0,),
    )
    defaults.update(kw)
    return HarnessConfig(**defaults)


class TestAccuracy:
    def test_perfect_predictor(self):
        head = PromptHead.frozen_from(np.eye(3), ("a", "b", "c"))
        data = EmbeddingSet(np.eye(3), np.arange(3), ("a", "b", "c"))
        assert accuracy(head, data) == 100.0

    def test_constant_predictor_on_balanced_set(self):
        anchor = unit_normalize(np.ones(4))
        anchors = np.eye(4) * 0.0
        anchors[:] = anchor  # every class embedding identical: argmax ties to 0
        head = PromptHead.frozen_from(anchors, tuple("abcd"))
        data = EmbeddingSet(np.eye(4), np.arange(4), tuple("abcd"))
        assert accuracy(head, data) == 25.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        dom = generate_synthetic(SyntheticConfig(dim=8, num_classes=5, shots=2,
                                                 test_per_class=8, confusion_pairs=0, seed=1))
        head = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        sims = dom.test.vectors @ dom.generalized_prototypes.T
        hits = sum(int(np.argmax(sims[i]) == dom.test.labels[i]) for i in range(len(dom.test)))
        assert accuracy(head, dom.test) == pytest.approx(100.0 * hits / len(dom.test))

    def test_class_restriction_remaps_predictions(self):
        head = PromptHead.frozen_from(np.eye(4), tuple("abcd"))
        x = unit_normalize(np.array([1.0, 0.9, 0.0, 0.0]))
        data = EmbeddingSet(x[None, :], np.array([1]), tuple("abcd"))
        assert accuracy(head, data) == 0.0  # class 0 wins unrestricted
        assert accuracy(head, data, classes=[1, 2]) == 100.0

    def test_empty_set_rejected(self):
        head = PromptHead.frozen_from(np.eye(2), ("a", "b"))
        empty = EmbeddingSet(np.empty((0, 2)), np.empty(0, dtype=np.int64), ("a", "b"))
        with pytest.raises(ValueError, match="empty"):
            accuracy(head, empty)


class TestHarmonicMean:
    def test_benchmark_row_value(self):
        assert harmonic_mean(75.47, 68.92) == pytest.approx(72.04, abs=0.01)

    def test_equal_inputs(self):
        for x in (0.0, 33.3, 100.0):
            assert harmonic_mean(x, x) == pytest.approx(x)

    def test_zero_annihilates(self):
        assert harmonic_mean(100.0, 0.0) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.uniform(0, 100, 2)
            h = harmonic_mean(a, b)
            assert h <= (a + b) / 2 + 1e-12
            assert h <= 2 * min(a, b) + 1e-12

    def test_aggregate_uses_mean_of_per_dataset_h(self):
        rows = [(95.0, 40.0), (60.0, 80.0)]
        agg = aggregate_harmonic(rows)
        expected_h = np.mean([harmonic_mean(*r) for r in rows])
        assert agg["h"] == pytest.approx(expected_h)
        h_of_means = harmonic_mean(agg["base"], agg["new"])
        assert abs(agg["h"] - h_of_means) > 0.5  # the two conventions differ


class TestClassifySamples:
    def _fixture(self):
        anchors = np.eye(3)
        head = PromptHead.frozen_from(anchors, ("a", "b", "c"))
        vecs = unit_normalize(np.array([
            [1.0, 0.1, 0.0],    # correct for label 0 -> easy
            [0.6, 0.604, 0.0],  # label 0, tiny gap -> confusing
            [0.0, 1.0, 0.0],    # label 0, huge gap -> hard
        ]))
        data = EmbeddingSet(vecs, np.array([0, 0, 0]), ("a", "b", "c"))
        return head, data

    def test_three_way_categorization(self):
        head, data = self._fixture()
        cats = classify_samples(head, data, gap_threshold=0.2, tau=0.05)
        assert list(cats) == ["easy", "confusing", "hard"]

    def test_categories_partition_the_set(self):
        rng = np.random.default_rng(2)
        dom = generate_synthetic(SyntheticConfig(dim=8, num_classes=6, shots=2,
                                                 test_per_class=10, confusion_pairs=2, seed=3))
        head = PromptHead.frozen_from(dom.generalized_prototypes, dom.train.class_names)
        for threshold in (0.2, 0.5):
            cats = classify_samples(head, dom.test, gap_threshold=threshold)
            assert len(cats) == len(dom.test)
            assert set(np.unique(cats)) <= {"easy", "confusing", "hard"}

    def test_wider_threshold_moves_hard_to_confusing(self):
        head, data = self._fixture()
        tight = classify_samples(head, data, gap_threshold=0.2, tau=0.5)
        wide = classify_samples(head, data, gap_threshold=0.5, tau=0.5)
        assert (tight == "confusing").sum() <= (wide == "confusing").sum()

    def test_correct_sample_is_easy_regardless_of_gap(self):
        head, data = self._fixture()
        cats = classify_samples(head, data.subset(np.array([0])), gap_threshold=0.0)
        assert list(cats) == ["easy"]


class TestEvalReport:
    def test_pd_must_match_sessions(self):
        with pytest.raises(ValueError, match="pd"):
            EvalReport(kind="fscil", session_acc=[80.0, 70.0], mean_acc=75.0, pd=5.0)

    def test_accuracy_range_validated(self):
        with pytest.raises(ValueError, match="out of"):
            EvalReport(kind="base_to_new",
                       per_config={"x": {"base": 120.0, "new": 50.0, "h": 60.0}})

    def test_h_cannot_exceed_both(self):
        with pytest.raises(ValueError, match="harmonic"):
            EvalReport(kind="base_to_new",
                       per_config={"x": {"base": 50.0, "new": 60.0, "h": 70.0}})

    def test_json_round_trip_is_deterministic(self, tmp_path):
        rep = EvalReport(kind="fscil", session_acc=[80.0, 75.0], mean_acc=77.5, pd=5.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rep.write(a)
        rep.write(b)
        assert a.read_bytes() == b.read_bytes()


class TestHarnessSmoke:
    def test_base_to_new_schema(self):
        rep = base_to_new_eval(_tiny_harness())
        assert set(rep.per_config) == {"zero_shot", "uniform_ensemble", "conf_uniform", "fitted_mixture"}
        for row in rep.per_config.values():
            assert set(row) == {"base", "new", "h"}
        assert set(rep.extra["margins"]) == {
            "h_fitted_minus_uniform", "h_uniform_minus_zero_shot", "base_conf_minus_ce",
        }
        csv = base_to_new_csv(rep)
        assert csv.count("\n") == 5  # header + 4 configurations

    def test_base_to_new_deterministic_across_calls(self):
        a = base_to_new_eval(_tiny_harness())
        b = base_to_new_eval(_tiny_harness())
        assert a.to_json() == b.to_json()

    def test_parallel_jobs_match_serial(self):
        serial = base_to_new_eval(_tiny_harness(seeds=(0, 1)))
        parallel = base_to_new_eval(_tiny_harness(seeds=(0, 1), jobs=2))
        assert serial.per_config == parallel.per_config

    @pytest.mark.parametrize(
        "jobs, seeds, cores, started",
        [
            (8, (0, 1, 2), 2, [2]),
            (8, (0, 1), 4, [2]),
            (2, (0, 1, 2), 4, [2]),
            (3, (0, 1, 2), None, []),
            (1, (0, 1, 2), 4, []),
        ],
    )
    def test_workers_clamped_to_seeds_and_cores(self, monkeypatch, jobs, seeds, cores, started):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cores)
        cfg = _tiny_harness(seeds=seeds, jobs=jobs)
        assert evaluation._run_seeds(lambda _cfg, s: 10 * s, cfg) == [10 * s for s in sorted(seeds)]
        assert pools == started

    @pytest.mark.parametrize(
        "parameterization, tunes, joint_tunes",
        [("two_stage", 2, 0), ("one_stage", 1, 1)],
    )
    def test_base_to_new_tunes_only_the_heads_it_scores(
        self, monkeypatch, parameterization, tunes, joint_tunes
    ):
        calls = {"tune_prompt": 0, "tune_prompt_one_stage": 0}

        def counting(name):
            original = getattr(evaluation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        base_to_new_eval(_tiny_harness(seeds=(0, 1), parameterization=parameterization))
        assert calls == {"tune_prompt": 2 * tunes, "tune_prompt_one_stage": 2 * joint_tunes}

    def test_fscil_schema(self):
        cfg = _tiny_harness(
            synthetic=SyntheticConfig(dim=16, num_classes=10, shots=3, test_per_class=4,
                                      intra_noise=0.08, proto_noise=0.15,
                                      confusion_pairs=2, seed=0),
            fscil_base_size=6, fscil_way=2,
        )
        rep = fscil_run(cfg)
        assert len(rep.session_acc) == 3  # 6 base + 2x2-way
        assert rep.pd == pytest.approx(rep.session_acc[0] - rep.session_acc[-1])
        assert rep.mean_acc == pytest.approx(np.mean(rep.session_acc))
        csv = fscil_csv(rep)
        assert csv.splitlines()[0] == "acc_0,acc_1,acc_2,mean,pd"

    def test_assumption_schema(self):
        rep = assumption_check(_tiny_harness(), splits=3)
        assert len(rep.extra["in_gaps"]) == 3
        assert len(rep.extra["out_gaps"]) == 3
        assert set(rep.t_tests) == {"in_domain", "out_domain", "validated"}

    def test_assumption_needs_two_splits(self):
        with pytest.raises(ValueError, match="2 splits"):
            assumption_check(_tiny_harness(), splits=1)

    def test_confusing_gain_schema(self):
        rep = confusing_gain(_tiny_harness())
        assert set(rep.extra["deltas"]) == {"easy", "confusing", "all"}
        assert set(rep.category_counts) == {"easy", "confusing", "hard"}
        csv = curves_csv(rep)
        assert csv.splitlines()[0] == "seed,loss,subset,epoch,accuracy"
        # twin runs with identical seeds: the w=0 run must match itself
        again = confusing_gain(_tiny_harness())
        assert rep.extra["finals"] == again.extra["finals"]

    def test_bound_sweep_summary(self):
        result = bound_sweep(trials=100, seed=0)
        assert result["all_non_negative"]
        assert result["identical_heads_gap"] == 0.0
        assert result["min_gap"] >= -1e-12
