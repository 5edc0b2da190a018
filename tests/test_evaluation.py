"""Metrics, sample categorization, report invariants, and harness wiring.

The heavyweight directional checks live in test_acceptance; these tests
keep the harness configs tiny.
"""

import struct
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from conftest import _traced_peak, _whole_set_accuracy, _whole_set_base_new_scores
import promix.evaluation as evaluation
import promix.train as train
from promix import embedspace
from promix.embedspace import (
    EmbeddingSet,
    FieldError,
    SyntheticConfig,
    generate_synthetic,
    unit_normalize,
)
from promix.evaluation import (
    CONFIG_NAMES,
    EvalReport,
    HarnessConfig,
    SplitAccuracy,
    accuracy,
    assumption_check,
    base_new_accuracy,
    base_new_report,
    base_new_scores,
    base_to_new_csv,
    base_to_new_eval,
    bound_sweep,
    classify_samples,
    confusing_gain,
    fscil_csv,
    fscil_run,
    harmonic_mean,
)
from promix.embedspace import partition_classes
from promix.head import PromptHead
from promix.losses import LossConfig
from promix.mixture import MixtureModel, MixtureWeights
from promix.outclass import OutclassStrategy
from promix.train import HyperParams, OptimizerConfig, tune_prompt, tune_prompt_one_stage


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

    def test_label_outside_the_candidates_counts_as_wrong(self):
        head = PromptHead.frozen_from(np.eye(4), tuple("abcd"))
        data = EmbeddingSet(np.eye(4), np.arange(4), tuple("abcd"))
        assert accuracy(head, data, classes=[0, 1, 2]) == 75.0
        model = MixtureModel((head, head), MixtureWeights.uniform(1),
                             partition_classes(4, "explicit", sets=[[0, 1], [2, 3]]))
        assert accuracy(model, data, classes=[1, 2, 3]) == 75.0

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
        per_seed = [{name: {"base": b, "new": n, "h": harmonic_mean(b, n)} for name in CONFIG_NAMES}
                    for b, n in rows]
        report = base_new_report(per_seed, seeds=(0, 1))
        expected_h = np.mean([harmonic_mean(*r) for r in rows])
        for agg in report.per_config.values():
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
    def test_accuracy_range_validated(self):
        with pytest.raises(ValueError, match="out of"):
            EvalReport(kind="base_to_new",
                       per_config={"x": {"base": 120.0, "new": 50.0, "h": 60.0}})

    def test_h_cannot_exceed_both(self):
        with pytest.raises(ValueError, match="harmonic"):
            EvalReport(kind="base_to_new",
                       per_config={"x": {"base": 50.0, "new": 60.0, "h": 70.0}})

    def test_json_round_trip_is_deterministic(self, tmp_path):
        rep = EvalReport(kind="fscil", session_acc=[80.0, 75.0])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rep.write(a)
        rep.write(b)
        assert a.read_bytes() == b.read_bytes()

    def test_mean_and_pd_derive_from_the_sessions(self):
        rep = EvalReport(kind="fscil", session_acc=[80.0, 70.0, 75.0])
        assert (rep.mean_acc, rep.pd) == (75.0, 5.0)
        assert {k: rep.to_dict()[k] for k in ("mean_acc", "pd")} == {"mean_acc": 75.0, "pd": 5.0}
        plain = EvalReport(kind="assumption").to_dict()
        assert plain == {"kind": "assumption", "config_hash": "", "extra": {}}


class TestOutclassAnchors:
    @pytest.mark.parametrize("kind", ["random_string", "none"])
    def test_kinds_without_words_draw_no_pool(self, monkeypatch, kind):
        monkeypatch.setattr(evaluation, "generate_vocab_pool", None)  # a draw would raise
        cfg = _tiny_harness(outclass=OutclassStrategy(kind), pool_size=10**9)
        out = evaluation.outclass_anchors(cfg, 16, 0, 4)
        assert out.shape == ((4, 16) if kind == "random_string" else (0, 16))


class TestHarnessConfig:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"parameterization": "bogus"}, "parameterization"),
            ({"jobs": 0}, "jobs"),
            ({"pool_size": 0}, "pool_size"),
            ({"seeds": ()}, "seeds"),
            ({"seeds": (0, 0)}, "seeds"),
            ({"seeds": (0, -1)}, "seeds/1"),
            ({"seeds": (0, 1.0)}, "seeds/1"),
            ({"tau": float("nan")}, "tau"),
            ({"tau": float("inf")}, "tau"),
            ({"tau": 0.0}, "tau"),
            ({"fscil_way": 0}, "fscil_way"),
            ({"fscil_base_size": -3}, "fscil_base_size"),
        ],
    )
    def test_out_of_range_field_is_rejected_at_construction(self, change, field):
        with pytest.raises(FieldError) as info:
            replace(HarnessConfig(), **change)
        assert info.value.field == field
        assert str(info.value).startswith(f"{field} ")


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
        "jobs, seeds, cores, started, groups",
        [
            (8, (0, 1, 2), 2, [2], [[0, 1], [2]]),
            (8, (1, 0), 4, [2], [[0], [1]]),
            (2, (2, 0, 1), 4, [2], [[0, 1], [2]]),
            (3, (0, 1, 2), None, [], [[0, 1, 2]]),
            (1, (0, 1, 2), 4, [], [[0, 1, 2]]),
        ],
    )
    def test_workers_clamped_to_seeds_and_cores(
        self, monkeypatch, jobs, seeds, cores, started, groups
    ):
        pools, received = [], []

        def worker(_cfg, group):
            received.append(group)
            return [10 * s for s in group]

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
        assert evaluation._run_seeds(worker, cfg, sorted(seeds)) == [10 * s for s in sorted(seeds)]
        # one contiguous group of plain ints per worker, in seed order
        assert received == groups
        assert all(type(s) is int for group in received for s in group)
        assert pools == started

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_base_to_new_tunes_only_the_heads_it_scores(self, monkeypatch, parameterization):
        calls = {"tune_prompt": 0, "tune_prompts": 0}

        def counting(name):
            original = getattr(evaluation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        base_to_new_eval(_tiny_harness(seeds=(0, 1), parameterization=parameterization))
        assert calls == {"tune_prompt": 2, "tune_prompts": 2}

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
        # twin runs with identical seeds: the w=0 run must match itself
        again = confusing_gain(_tiny_harness())
        assert rep.extra["finals"] == again.extra["finals"]

    def test_bound_sweep_summary(self):
        result = bound_sweep(trials=100, seed=0)
        assert result["all_non_negative"]
        assert result["identical_heads_gap"] == 0.0
        assert result["min_gap"] >= -1e-12


def _counting_similarity(monkeypatch):
    """Count ``similarity_matrix`` calls made from evaluation and mixture."""
    import promix.mixture

    calls = []
    original = evaluation.similarity_matrix

    def counted(head, vectors):
        calls.append(head.num_classes)
        return original(head, vectors)

    monkeypatch.setattr(evaluation, "similarity_matrix", counted)
    monkeypatch.setattr(promix.mixture, "similarity_matrix", counted)
    return calls


class TestSharedScoring:
    @pytest.mark.parametrize(
        "fitted",
        [MixtureWeights.two_stage([0.9], [-0.7]), MixtureWeights.one_stage(0.006, 0.02, 0.01)],
    )
    def test_base_new_scores_match_per_configuration_accuracy(self, monkeypatch, fitted):
        dom = generate_synthetic(SyntheticConfig(dim=16, num_classes=10, shots=2,
                                                 test_per_class=8, confusion_pairs=3, seed=4))
        names, anchors = dom.test.class_names, dom.generalized_prototypes
        partition = partition_classes(10, "base_new_even_split", seed=4)
        t0 = PromptHead.frozen_from(anchors, names)
        head_ce = PromptHead.with_random_context(anchors, names, 2, seed=1, init_std=0.4)
        head_conf = PromptHead.with_random_context(anchors, names, 2, seed=2, init_std=0.4)
        tau = 0.01
        expected = _whole_set_base_new_scores(
            t0, head_ce, head_conf, fitted, partition, dom.test, tau
        )
        calls = _counting_similarity(monkeypatch)
        acc = base_new_accuracy(t0, head_ce, head_conf, fitted, partition, tau)
        assert base_new_scores(acc.score(dom.test.chunks())) == expected
        # three heads, two splits, each head on its split's 5 classes only
        assert calls == [5] * 6

    def test_confusing_curves_match_per_subset_accuracy(self, monkeypatch):
        # seed 3 at tau 0.05 gives both easy and confusing samples
        cfg = _tiny_harness(optimizer=OptimizerConfig(epochs=3), seeds=(3,), tau=0.05)
        dom = generate_synthetic(replace(cfg.synthetic, seed=3))
        t0 = PromptHead.frozen_from(dom.generalized_prototypes, dom.test.class_names)
        categories = classify_samples(t0, dom.test, gap_threshold=0.2, tau=cfg.tau)
        assert (categories == "easy").any() and (categories == "confusing").any()
        calls = _counting_similarity(monkeypatch)
        hook_calls, expected = [], {"ce": [], "conf": []}
        tune = evaluation.tune_prompts

        def tune_recording(runs):
            # the twins run in lockstep: ce first, each with its own hook
            assert [run.loss.kind for run in runs] == ["ce", "ce_conf"]

            def recording(run, rows):
                def hook(epoch, head):
                    before = len(calls)
                    run.epoch_hook(epoch, head)
                    hook_calls.append(len(calls) - before)
                    # the oracle scores the tuned head itself, off the counter
                    rows.append({
                        key: _whole_set_accuracy(head, dom.test.subset(categories == key))
                        for key in ("easy", "confusing")
                    } | {"all": _whole_set_accuracy(head, dom.test)})

                return replace(run, epoch_hook=hook)

            return tune([recording(run, expected[k]) for run, k in zip(runs, ("ce", "conf"))])

        monkeypatch.setattr(evaluation, "tune_prompts", tune_recording)
        run = confusing_gain(cfg).extra["curves"][0]
        epochs = len(run["ce"]["all"])
        # the hooks keep context means; the curves then take one similarity
        # matrix per head and epoch, after the categories' one
        assert epochs >= 2 and hook_calls == [0] * (2 * epochs)
        assert calls == [8] * (1 + 2 * epochs)
        for loss in ("ce", "conf"):
            assert len(expected[loss]) == epochs
            for epoch, row in enumerate(expected[loss]):
                assert {k: run[loss][k][epoch] for k in row} == row


def _random_heads(anchors, names, count):
    """The frozen head on ``anchors`` and ``count`` heads with random contexts."""
    return (PromptHead.frozen_from(anchors, names),) + tuple(
        PromptHead.with_random_context(anchors, names, 2, seed=k, init_std=0.4)
        for k in range(1, count + 1)
    )


class TestSplitAccuracyCandidates:
    """One candidate list for every split: rows and ranked classes differ."""

    def test_heads_and_mixtures_match_the_whole_set_oracle(self, monkeypatch):
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", 7)  # 80 test rows in 12 chunks
        dom = generate_synthetic(SyntheticConfig(dim=16, num_classes=10, shots=2,
                                                 test_per_class=8, confusion_pairs=3, seed=6))
        names = dom.test.class_names
        heads = _random_heads(dom.generalized_prototypes, names, 2)
        partition = partition_classes(10, "explicit", sets=[[0, 1, 8, 9], [2, 3, 4], [5, 6, 7]])
        model = MixtureModel(heads, MixtureWeights.two_stage([0.8, -0.3], [-1.1, 0.4]),
                             partition, tau=0.05)
        keyed = {str(k): h for k, h in enumerate(heads)}
        # head 0 and head 2 are shared with the mixture; head 1 is not
        scorers = {"mixture": (("0", "1", "2"), model), "t0": (("0",), None),
                   "h2": (("2",), None)}
        # labels 8 and 9 have rows in the splits but are not candidates
        splits = {"low": [0, 1, 2, 8], "high": [3, 4, 5, 6, 7, 9]}
        candidates = [0, 1, 2, 3, 4, 5, 6, 7]
        acc = SplitAccuracy(keyed, scorers, splits, candidates=candidates)
        got = acc.score(dom.test.chunks())
        scored = {"mixture": model, "t0": heads[0], "h2": heads[2]}
        for split, classes in splits.items():
            rows = dom.test.with_labels_in(classes)
            want = {name: _whole_set_accuracy(m, rows, candidates) for name, m in scored.items()}
            assert got[split] == want
            outside = np.isin(rows.labels, [8, 9]).mean() * 100.0
            assert all(value <= 100.0 - outside for value in got[split].values())

    def test_a_mixture_chunk_holds_three_blocks_not_every_head(self):
        classes, rows, dim = 400, 256, 8
        rng = np.random.default_rng(0)
        names = tuple(f"c{j}" for j in range(classes))
        heads = _random_heads(unit_normalize(rng.standard_normal((classes, dim))), names, 8)
        partition = partition_classes(
            classes, "explicit", sets=[s.tolist() for s in np.array_split(np.arange(classes), 9)]
        )
        model = MixtureModel(heads, MixtureWeights.two_stage(np.zeros(8), np.zeros(8)), partition)
        keyed = {str(k): h for k, h in enumerate(heads)}
        acc = SplitAccuracy(keyed, {"mixture": (tuple(keyed), model)}, {"all": range(classes)})
        vectors = unit_normalize(rng.standard_normal((rows, dim)))
        labels = rng.integers(0, classes, size=rows)
        acc.add(vectors, labels)  # lazy set-up off the trace
        peak, _ = _traced_peak(acc.add, vectors, labels)
        block = rows * classes * 8
        # the running logits, one head's similarities and their scaled
        # product (measured 3.14 blocks with the chunk- and class-length
        # arrays); holding every head's similarities takes 11
        assert peak < 3.5 * block

    def test_row_blocks_match_the_whole_set_oracle(self, monkeypatch):
        dom = generate_synthetic(SyntheticConfig(dim=16, num_classes=10, shots=2,
                                                 test_per_class=9, confusion_pairs=3, seed=5))
        heads = _random_heads(dom.generalized_prototypes, dom.test.class_names, 2)
        partition = partition_classes(10, "base_new_even_split", seed=5)
        fitted = MixtureWeights.two_stage([0.9], [-0.7])
        expected = _whole_set_base_new_scores(*heads, fitted, partition, dom.test, 0.01)
        rows = []
        similarity = evaluation.similarity_matrix
        monkeypatch.setattr(evaluation, "similarity_matrix",
                            lambda head, x: rows.append(len(x)) or similarity(head, x))
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ROWS", 4)
        monkeypatch.setattr(evaluation, "BLOCK_ELEMS", 1)
        acc = base_new_accuracy(*heads, fitted, partition, 0.01)
        assert base_new_scores(acc.score(dom.test.chunks())) == expected
        # each split's 45 rows in 11 blocks of 4 and one of 1, each block
        # scoring the two shared heads and the CE head
        assert rows == 2 * ([4] * 3 * 11 + [1] * 3)


class TestStreamedBaseNew:
    """The base/new harness scores its test split as a stream of chunks
    drawn class block by class block, never holding the split."""

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_harness_scores_the_generated_test_split(self, monkeypatch, parameterization):
        monkeypatch.setattr(embedspace, "CHUNK_ROWS", 7)  # 48 test rows in 7 chunks
        cfg = _tiny_harness(seeds=(0, 1), parameterization=parameterization)
        per_seed = base_to_new_eval(cfg).extra["per_seed"]
        for seed, row in zip(cfg.seeds, per_seed):
            dom = generate_synthetic(replace(cfg.synthetic, seed=seed))
            train, anchors = dom.train, dom.generalized_prototypes
            partition = partition_classes(8, "base_new_even_split", seed=seed)
            base = train.with_labels_in(partition.subsets[1])
            head_ce, mix_head, mix_tau, _ = evaluation.tune_base_new_heads(
                cfg, base, anchors, partition, seed
            )
            out = evaluation.outclass_anchors(cfg, train.dim, seed, len(partition.subsets[1]))
            weights = evaluation.fit_base_new_weights(
                cfg, mix_head, mix_tau, base, anchors, partition, out, seed
            )
            t0 = PromptHead.frozen_from(anchors, train.class_names)
            assert row == _whole_set_base_new_scores(
                t0, head_ce, mix_head, weights, partition, dom.test, cfg.tau
            )

    def test_peak_is_set_by_chunks_not_by_the_test_split(self):
        dim = 128
        chunk = embedspace.CHUNK_ROWS * dim * 8
        synthetic = SyntheticConfig(dim=dim, num_classes=16, shots=4, test_per_class=1,
                                    confusion_pairs=2, seed=0)
        cfg = _tiny_harness(synthetic=synthetic, pool_size=16,
                            optimizer=OptimizerConfig(epochs=2, weight_epochs=2))
        base_to_new_eval(cfg)  # lazy imports allocate on a first call
        # the same train split and anchors with next to no test rows
        without_test, _ = _traced_peak(base_to_new_eval, cfg)
        # a test split of 8 chunks
        big = replace(synthetic, test_per_class=embedspace.CHUNK_ROWS // 2)
        peak, _ = _traced_peak(base_to_new_eval, replace(cfg, synthetic=big))
        # beyond the chunk buffer, which both runs hold: a class block as it
        # is drawn (up to three half-chunk arrays), the block before it and
        # one split's rows of a chunk, never the 8 chunks of the split
        assert peak < without_test + 3 * chunk

    def test_train_split_is_freed_before_tuning(self, monkeypatch):
        # no train rows beyond the base split exist while tuning runs: only
        # the base split is drawn, and tuning reads that very set
        cfg = _tiny_harness(seeds=(0, 1))
        want = base_to_new_eval(cfg)
        trains, alive = [], []
        make, tune = evaluation.synthetic_parts, evaluation.tune_base_new_heads

        def parts(config, classes=None):
            made = make(config, classes)
            trains.append((weakref.ref(made.train), len(made.train)))
            return made

        def tuning(cfg, base, anchors, partition, seed):
            # whether a train split other than the base split is alive
            drawn, rows = trains[-1][0](), trains[-1][1]
            alive.append(drawn is not base or rows != 4 * len(partition.subsets[1]))
            return tune(cfg, base, anchors, partition, seed)

        monkeypatch.setattr(evaluation, "synthetic_parts", parts)
        monkeypatch.setattr(evaluation, "tune_base_new_heads", tuning)
        assert base_to_new_eval(cfg) == want
        assert alive == [False, False]

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_peak_holds_one_copy_of_the_base_rows(self, parameterization):
        # a train split of 1024 rows of dimension 512 outweighs everything else
        synthetic = SyntheticConfig(dim=512, num_classes=16, shots=64, test_per_class=1,
                                    confusion_pairs=2, seed=0)
        cfg = _tiny_harness(synthetic=synthetic, pool_size=16, parameterization=parameterization,
                            hyper=HyperParams(context_len=2),
                            optimizer=OptimizerConfig(epochs=2, weight_epochs=2))
        base_to_new_eval(cfg)  # lazy imports allocate on a first call
        peak, _ = _traced_peak(base_to_new_eval, cfg)
        unit = 8 * 64 * 512 * 8  # the base split's vectors
        # the full split (2 units) while the base split is copied out of it
        # (measured 3.07 units); the full split kept beside the copies that
        # tuning and the weight stage gathered reached 4.26
        assert peak < 3.5 * unit

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    def test_out_weight_and_scoring_walk_row_blocks(self, parameterization):
        # 1600 base rows on 200 out-classes: the out-weight walks 5 blocks of
        # 327 rows, and about 512 rows of each split per test chunk are
        # scored in 2 blocks
        synthetic = SyntheticConfig(dim=32, num_classes=400, shots=8, test_per_class=8,
                                    confusion_pairs=2, seed=0)
        cfg = _tiny_harness(synthetic=synthetic, pool_size=200, parameterization=parameterization,
                            hyper=HyperParams(context_len=2),
                            optimizer=OptimizerConfig(epochs=2, weight_epochs=2))
        base_to_new_eval(cfg)  # lazy imports allocate on a first call
        peak, _ = _traced_peak(base_to_new_eval, cfg)
        unit = 1600 * 200 * 8  # one array of base rows x out-classes
        # set by the in-weight (two_stage, measured 2.93 units) or joint
        # tuning (one_stage, 2.41); the out-weight's whole si, logits and
        # probs set it at 3.32 under both
        assert peak < 3.1 * unit


def _full_split_base_new(cfg, train, anchors, partition, out_anchors, seed):
    """The two base/new stages called on the full train split: tuning gathers
    a copy of the base rows, and the weight stage filters another. The
    oracle of the stages on the base split."""
    names = train.class_names
    opt = replace(cfg.optimizer, seed=seed)
    ce_loss = LossConfig("ce")
    conf_loss = LossConfig("ce_conf", w=cfg.hyper.conf_weight)
    run = evaluation.subset_run(anchors, names, train, partition.subsets[1], ce_loss, opt,
                                cfg.hyper.context_len, seed, cfg.tau)
    init, rows, labels = run.local()
    local = EmbeddingSet(train.vectors[rows], labels, init.class_names)
    head_ce, trace_ce = tune_prompt(init, local, ce_loss, opt, tau=cfg.tau)
    if cfg.parameterization == "one_stage":
        mix_head, mix_tau, trace_conf = tune_prompt_one_stage(init, local, conf_loss, opt,
                                                              tau_0=cfg.tau)
        start = MixtureWeights.one_stage(mix_tau, cfg.tau, tau_0=cfg.tau)
    else:
        mix_head, trace_conf = tune_prompt(init, local, conf_loss, opt, tau=cfg.tau)
        mix_tau, start = cfg.tau, MixtureWeights.uniform(1)
    head_ce, mix_head = (run.init.with_context(h.context) for h in (head_ce, mix_head))
    t0 = PromptHead.frozen_from(anchors, names)
    model = evaluation.fit_weights(
        MixtureModel((t0, mix_head), start, partition, tau=cfg.tau),
        train.with_labels_in(partition.subsets[1]), out_anchors, cfg.hyper, opt,
        classes=partition.subsets[1],
    )
    return head_ce, mix_head, mix_tau, {"ce": trace_ce, "conf": trace_conf}, model.weights


class TestBaseSplit:
    """The base/new stages on the base split give the bits of the same
    stages on the full train split."""

    @pytest.mark.parametrize("parameterization", ["two_stage", "one_stage"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stages_match_the_full_split_calls(self, parameterization, seed):
        cfg = _tiny_harness(parameterization=parameterization,
                            optimizer=OptimizerConfig(epochs=8, weight_epochs=20))
        dom = generate_synthetic(replace(cfg.synthetic, seed=seed))
        train, anchors = dom.train, dom.generalized_prototypes
        partition = partition_classes(8, "base_new_even_split", seed=seed)
        base = train.with_labels_in(partition.subsets[1])
        assert 0 < len(base) < len(train)
        out = evaluation.outclass_anchors(cfg, train.dim, seed, len(partition.subsets[1]))
        head_ce, mix_head, mix_tau, traces = evaluation.tune_base_new_heads(
            cfg, base, anchors, partition, seed
        )
        weights = evaluation.fit_base_new_weights(
            cfg, mix_head, mix_tau, base, anchors, partition, out, seed
        )
        want = _full_split_base_new(cfg, train, anchors, partition, out, seed)
        assert head_ce.context.tobytes() == want[0].context.tobytes()
        assert mix_head.context.tobytes() == want[1].context.tobytes()
        assert struct.pack("<d", mix_tau) == struct.pack("<d", want[2])
        assert traces == want[3]
        assert weights.to_dict() == want[4].to_dict()

    def test_rows_outside_the_tuning_classes_are_rejected(self):
        cfg = _tiny_harness()
        dom = generate_synthetic(cfg.synthetic)
        partition = partition_classes(8, "base_new_even_split", seed=0)
        with pytest.raises(ValueError, match="outside partition.subsets"):
            evaluation.tune_base_new_heads(
                cfg, dom.train, dom.generalized_prototypes, partition, 0
            )


class TestAssumptionDomain:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_domain_from_the_configured_seed(self, monkeypatch, jobs):
        seeds = []
        original = evaluation.generate_synthetic

        def recording(config):
            seeds.append(config.seed)
            return original(config)

        monkeypatch.setattr(evaluation, "generate_synthetic", recording)
        cfg = _tiny_harness(seeds=(5,), jobs=jobs)
        rep = assumption_check(cfg, splits=2)
        assert seeds == [5]
        domain = generate_synthetic(replace(cfg.synthetic, seed=5))
        in_classes = partition_classes(8, "base_new_even_split", seed=0).subsets[1]
        test_in = domain.test.with_labels_in(in_classes)
        t0 = PromptHead.frozen_from(domain.generalized_prototypes, domain.test.class_names)
        ((tuned, _, _),) = evaluation.tune_prompts([evaluation.subset_run(
            domain.generalized_prototypes, domain.train.class_names, domain.train, in_classes,
            LossConfig("ce_conf", w=cfg.hyper.conf_weight),
            replace(cfg.optimizer, seed=0), cfg.hyper.context_len, 0, cfg.tau,
        )])
        assert rep.extra["in_gaps"][0] == (
            _whole_set_accuracy(tuned, test_in) - _whole_set_accuracy(t0, test_in)
        )


def _fscil_tiny(**kw):
    """4 base classes, then three 2-way sessions of 6 training rows each."""
    synthetic = SyntheticConfig(dim=16, num_classes=10, shots=3, test_per_class=4,
                                intra_noise=0.08, proto_noise=0.15, confusion_pairs=2, seed=0)
    return _tiny_harness(synthetic=synthetic, fscil_base_size=4, fscil_way=2, **kw)


def _counting_tune_prompts(monkeypatch) -> list[int]:
    """Record the number of runs of each ``tune_prompts`` call."""
    sizes = []
    tune = evaluation.tune_prompts

    def counted(runs):
        sizes.append(len(runs))
        return tune(runs)

    monkeypatch.setattr(evaluation, "tune_prompts", counted)
    return sizes


def _recording_descent(monkeypatch) -> list[int]:
    """Record the number of runs of each lockstep ``_adam_descent`` loop."""
    sizes = []
    descent = train._adam_descent

    def recording(params, batch_grad, labels, *args, **kwargs):
        sizes.append(labels.shape[0])
        return descent(params, batch_grad, labels, *args, **kwargs)

    monkeypatch.setattr(train, "_adam_descent", recording)
    return sizes


class TestLockstepHarnesses:
    def test_assumption_jobs_match_serial(self):
        serial = assumption_check(_tiny_harness(), splits=4)
        assert assumption_check(_tiny_harness(jobs=2), splits=4).to_json() == serial.to_json()

    def test_fscil_jobs_match_serial(self):
        serial = fscil_run(_fscil_tiny(seeds=(0, 1)))
        assert fscil_run(_fscil_tiny(seeds=(0, 1), jobs=2)).to_json() == serial.to_json()

    def test_fscil_sessions_of_equal_rows_step_together(self, monkeypatch):
        stacked = fscil_run(_fscil_tiny())
        sizes = _recording_descent(monkeypatch)
        assert fscil_run(_fscil_tiny()).to_json() == stacked.to_json()
        assert sizes == [1, 3]  # the base session alone, the three 2-way sessions together
        monkeypatch.setattr(train, "LOCKSTEP_RUNS", 1)
        assert fscil_run(_fscil_tiny()).to_json() == stacked.to_json()
        assert sizes[2:] == [1, 1, 1, 1]

    def test_confusing_gain_draws_each_seeds_domain_once(self, monkeypatch):
        want = confusing_gain(_tiny_harness(seeds=(0, 1))).to_json()
        drawn = []
        for name in ("synthetic_parts", "generate_synthetic"):
            def spy(config, *args, name=name, original=getattr(evaluation, name)):
                drawn.append((name, config.seed))
                return original(config, *args)

            monkeypatch.setattr(evaluation, name, spy)
        assert confusing_gain(_tiny_harness(seeds=(0, 1))).to_json() == want
        # the test split comes from the parts that tuning drew
        assert drawn == [("synthetic_parts", 0), ("synthetic_parts", 1)]

    def test_confusing_gain_steps_every_seeds_twins_together(self, monkeypatch):
        alone = [confusing_gain(_tiny_harness(seeds=(s,))).extra["curves"][0] for s in (0, 1, 2)]
        calls, groups = _counting_tune_prompts(monkeypatch), _recording_descent(monkeypatch)
        report = confusing_gain(_tiny_harness(seeds=(0, 1, 2)))
        assert calls == [6] and groups == [6]
        assert report.extra["curves"] == alone

    def test_assumption_groups_are_capped(self, monkeypatch):
        whole = assumption_check(_tiny_harness(), splits=5)
        sizes = _recording_descent(monkeypatch)
        monkeypatch.setattr(train, "LOCKSTEP_RUNS", 2)
        assert assumption_check(_tiny_harness(), splits=5).to_json() == whole.to_json()
        # tune_prompts caps each lockstep group of the one call
        assert sizes == [2, 2, 1]

    def test_confusing_gain_jobs_match_serial(self):
        serial = confusing_gain(_tiny_harness(seeds=(0, 1, 2)))
        parallel = confusing_gain(_tiny_harness(seeds=(0, 1, 2), jobs=2))
        assert parallel.to_json() == serial.to_json()

    def test_fscil_tunes_every_seeds_sessions_in_one_call(self, monkeypatch):
        alone = [fscil_run(_fscil_tiny(seeds=(s,))).extra["per_seed"][0] for s in (0, 1)]
        calls, sizes = _counting_tune_prompts(monkeypatch), _recording_descent(monkeypatch)
        report = fscil_run(_fscil_tiny(seeds=(0, 1)))
        # both base sessions together, then the six 2-way sessions together
        assert calls == [8] and sizes == [2, 6]
        assert report.extra["per_seed"] == alone

    def test_fscil_draws_each_seeds_parts_once(self, monkeypatch):
        want = fscil_run(_fscil_tiny(seeds=(0, 1))).to_json()
        drawn = []
        for name in ("synthetic_parts", "generate_synthetic"):
            def spy(config, *args, name=name, original=getattr(evaluation, name)):
                drawn.append((name, config.seed))
                return original(config, *args)

            monkeypatch.setattr(evaluation, name, spy)
        assert fscil_run(_fscil_tiny(seeds=(0, 1))).to_json() == want
        assert drawn == [("synthetic_parts", 0), ("synthetic_parts", 1)]

    def test_assumption_peak_stays_within_fscils_at_desk_scale(self):
        # assume tunes its 10 splits of one domain in one lockstep group, whose
        # stacked X·Aᵀ (10 runs x 800 rows x 50 classes) sets its peak: 1.86
        # of them (5.94 MB). The bound, 1.9 (6.08 MB), stays below one desk
        # fscil seed's peak before its scoring walked row blocks, 6.10 MB.
        synthetic = evaluation.assumption_default_synthetic()
        assume_cfg = HarnessConfig(seeds=(0,), synthetic=synthetic)
        assumption_check(_tiny_harness(), splits=2)  # lazy imports allocate on a first call
        assume_peak, _ = _traced_peak(assumption_check, assume_cfg, 10)
        classes = synthetic.num_classes // 2
        assert assume_peak < 1.9 * (10 * classes * synthetic.shots * classes * 8)
