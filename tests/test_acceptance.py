"""Acceptance suite: every release criterion with its stated tolerance.

Each test covers one criterion and prints a PASS line with the measured
values (visible under ``pytest -v -s``). Expected values were either
computed by the independent oracles in this file (finite differences,
direct summation, reference tables) or are exact by construction.

The whole module is sized to finish in well under five minutes on a
laptop-class CPU.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ce_plus_mae_loss,
    context_gradient,
    context_loss_value,
    focal_loss,
    gce_loss,
    matched_two_stage,
    mixture_ce_grad_wrt_weight,
)
from promix.cli import main as cli_main
from promix.embedspace import (
    DomainPartition,
    EmbeddingSet,
    partition_classes,
    read_embedding_file,
    unit_normalize,
    write_embedding_file,
)
from promix.evaluation import (
    HarnessConfig,
    assumption_check,
    assumption_default_synthetic,
    base_to_new_eval,
    bound_sweep,
    confusing_gain,
    fscil_default_synthetic,
    fscil_run,
    harmonic_mean,
)
from promix.head import PromptHead, predict, similarity_matrix
from promix.losses import (
    LossConfig,
    ce_loss,
    confusion_loss,
    grad_prompt_loss,
    prompt_loss,
)
from promix.mixture import (
    MixtureModel,
    MixtureWeights,
    class_weight_matrix,
    mixture_predict,
    mixture_predict_matrix,
)
from promix.stats import student_t_cdf, t_test_paired_one_sided
from promix.train import _out_objective_factory

GRID_TAUS = (1.0, 0.1, 0.01)
GRID_WEIGHTS = (0.0, 1.0, 5.0, 7.0)


def _unit_rows(rng, rows, dim):
    return unit_normalize(rng.standard_normal((rows, dim)))


def _rel_err(analytic, numeric):
    analytic = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


@pytest.fixture(scope="module")
def base_to_new_two_stage():
    return base_to_new_eval(HarnessConfig(parameterization="two_stage"))


@pytest.fixture(scope="module")
def base_to_new_one_stage():
    return base_to_new_eval(HarnessConfig(parameterization="one_stage"))


class TestCriterion01GradientOracles:
    """Analytic gradients vs central finite differences (h=1e-5, <1e-6)."""

    H = 1e-5
    TOL = 1e-6

    def test_gradient_oracle_suite(self):
        start = time.time()
        rng = np.random.default_rng(11)

        # (a) tuning loss w.r.t. similarities
        worst_sim = 0.0
        for trial in range(100):
            c = int(rng.integers(2, 21))
            s = rng.uniform(-1, 1, c)
            y = int(rng.integers(0, c))
            tau = GRID_TAUS[trial % 3]
            w = GRID_WEIGHTS[trial % 4]
            g = grad_prompt_loss(s, y, tau, w)
            fd = np.zeros(c)
            for i in range(c):
                up, down = s.copy(), s.copy()
                up[i] += self.H
                down[i] -= self.H
                fd[i] = (
                    prompt_loss(predict(up, tau), y, w)
                    - prompt_loss(predict(down, tau), y, w)
                ) / (2 * self.H)
            worst_sim = max(worst_sim, _rel_err(g, fd))
        assert worst_sim < self.TOL

        # (b) tuning loss w.r.t. the context parameters
        worst_ctx = 0.0
        for trial in range(100):
            c = int(rng.integers(2, 8))
            d = int(rng.integers(4, 10))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(3, 9))
            anchors = _unit_rows(rng, c, d)
            names = tuple(f"c{i}" for i in range(c))
            head = PromptHead(0.3 * rng.standard_normal((m, d)), anchors, names)
            data = EmbeddingSet(_unit_rows(rng, n, d), rng.integers(0, c, n), names)
            loss = LossConfig("ce_conf", w=GRID_WEIGHTS[trial % 4])
            tau = GRID_TAUS[trial % 3]
            g = context_gradient(head, data, loss, tau)
            fd = np.zeros_like(g)
            for i in range(m):
                for j in range(d):
                    up, down = head.context.copy(), head.context.copy()
                    up[i, j] += self.H
                    down[i, j] -= self.H
                    fd[i, j] = (
                        context_loss_value(head.with_context(up), data, loss, tau)
                        - context_loss_value(head.with_context(down), data, loss, tau)
                    ) / (2 * self.H)
            worst_ctx = max(worst_ctx, _rel_err(g, fd))
        assert worst_ctx < self.TOL

        # (c) mixture cross-entropy w.r.t. a global head weight
        worst_mix = 0.0
        for trial in range(100):
            c = int(rng.integers(2, 10))
            d = int(rng.integers(4, 10))
            names = tuple(f"c{i}" for i in range(c))
            heads = tuple(
                PromptHead.frozen_from(_unit_rows(rng, c, d), names) for _ in range(2)
            )
            part = partition_classes(c, "base_new_even_split", seed=trial)
            pi_in, pi_out = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            model = MixtureModel(
                heads,
                MixtureWeights.two_stage([np.log(pi_in / (1 - pi_in))],
                                         [np.log(pi_out / (1 - pi_out))]),
                part,
                tau=GRID_TAUS[trial % 3],
            )
            x = _unit_rows(rng, 1, d)[0]
            y = int(rng.integers(0, c))
            prompt = int(rng.integers(0, 2))
            g = mixture_ce_grad_wrt_weight(model, x, y, prompt)
            base_rows = class_weight_matrix(model.weights, model.partition)
            sims = [similarity_matrix(head, x[None, :]) for head in heads]

            def ce_at(delta):
                rows = base_rows.copy()
                rows[prompt] += delta
                logits = sum(r * s for r, s in zip(rows / model.tau, sims))
                z = logits[0] - logits[0].max()
                p = np.exp(z) / np.exp(z).sum()
                return -np.log(p[y])

            fd = (ce_at(self.H) - ce_at(-self.H)) / (2 * self.H)
            worst_mix = max(worst_mix, _rel_err(g, fd))
        assert worst_mix < self.TOL

        # (d) entropy-margin loss w.r.t. the out-weight
        worst_ent = 0.0
        produced = 0
        while produced < 100:
            c = int(rng.integers(2, 8))
            d = int(rng.integers(4, 10))
            n_out = int(rng.integers(2, 9))
            names = tuple(f"c{i}" for i in range(c))
            heads = tuple(
                PromptHead.frozen_from(_unit_rows(rng, c, d), names) for _ in range(2)
            )
            part = partition_classes(c, "base_new_even_split", seed=produced)
            alpha = float(rng.uniform(-1.5, 1.5))
            model = MixtureModel(
                heads, MixtureWeights.two_stage([0.0], [alpha]), part, tau=0.05
            )
            vectors = _unit_rows(rng, int(rng.integers(2, 6)), d)
            out_anchors = _unit_rows(rng, n_out, d)
            margin = float(rng.uniform(0.05, 0.9))
            objective = _out_objective_factory(
                model, vectors, out_anchors, 1, margin, 1.0
            )
            value, grad_alpha = objective(alpha)
            probe = max(abs(objective(alpha + 1e-3)[0] - value),
                        abs(objective(alpha - 1e-3)[0] - value))
            if value <= 0.0 or probe == 0.0:
                continue  # hinge inactive or at the kink: derivative undefined
            fd_alpha = (objective(alpha + self.H)[0] - objective(alpha - self.H)[0]) / (
                2 * self.H
            )
            pi = 1.0 / (1.0 + np.exp(-alpha))
            g_pi = grad_alpha / (pi * (1.0 - pi))
            fd_pi = fd_alpha / (pi * (1.0 - pi))
            worst_ent = max(worst_ent, _rel_err(g_pi, fd_pi))
            produced += 1
        assert worst_ent < self.TOL

        elapsed = time.time() - start
        assert elapsed < 10.0
        print(
            f"PASS criterion 1: gradient oracles rel err "
            f"sim={worst_sim:.2e} ctx={worst_ctx:.2e} mix={worst_mix:.2e} "
            f"ent={worst_ent:.2e} in {elapsed:.1f}s"
        )


class TestCriterion02ShiftInvariance:
    def test_gradient_components_sum_to_zero(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for trial in range(1000):
            c = int(rng.integers(2, 21))
            s = rng.uniform(-1, 1, c)
            y = int(rng.integers(0, c))
            tau = GRID_TAUS[trial % 3]
            w = GRID_WEIGHTS[trial % 4]
            worst = max(worst, abs(float(grad_prompt_loss(s, y, tau, w).sum())))
        assert worst < 1e-10
        # the sum-to-zero identity holds for the (1 + w p) factor; the
        # printed-with-a-minus variant violates it by w p (1 - p) / tau
        s = np.array([0.8, -0.2, 0.1])
        p = predict(s, 0.1).probs
        wrong_first_line = -(1 - p[0]) * (1 - 5.0 * p[0]) / 0.1
        rest = (p[1:] * (1 + 5.0 * p[0]) / 0.1).sum()
        assert abs(wrong_first_line + rest) > 1e-3
        print(f"PASS criterion 2: max |sum of gradient| = {worst:.2e} over 1000 instances")


class TestCriterion03EnsembleBound:
    def test_bound_sweep(self):
        start = time.time()
        result = bound_sweep(trials=1000, seed=3)
        elapsed = time.time() - start
        assert result["min_gap"] >= -1e-12
        assert result["identical_heads_gap"] == 0.0
        assert elapsed < 30.0
        print(
            f"PASS criterion 3: 1000 ensembles, min gap {result['min_gap']:.3e}, "
            f"identical-heads gap {result['identical_heads_gap']:.1e}, {elapsed:.1f}s"
        )


class TestCriterion04ErrorDecomposition:
    def test_decomposition_reconstructs_total(self):
        from promix.mixture import decompose_error

        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(100):
            c = int(rng.integers(3, 12))
            d = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(c, 4)))
            names = tuple(f"c{i}" for i in range(c))
            heads = tuple(
                PromptHead.frozen_from(_unit_rows(rng, c, d), names)
                for _ in range(k + 1)
            )
            cut = np.sort(rng.choice(np.arange(1, c), size=k, replace=False))
            order = rng.permutation(c)
            subsets = np.split(order, cut)
            part = DomainPartition(
                tuple(subsets), np.array([len(s) for s in subsets]) / c
            )
            model = MixtureModel(heads, MixtureWeights.uniform(k), part, tau=0.05)
            n = int(rng.integers(5, 26))
            data = EmbeddingSet(
                _unit_rows(rng, n, d), rng.integers(0, c, n), names
            )
            _, total = decompose_error(model, data)
            # independent oracle: one sample at a time through the scalar path
            direct = np.mean(
                [
                    -np.log(mixture_predict(model, data.vectors[i]).probs[data.labels[i]])
                    for i in range(n)
                ]
            )
            worst = max(worst, abs(total - float(direct)))
        assert worst < 1e-12
        print(f"PASS criterion 4: decomposition reconstructs the total within {worst:.2e}")


class TestCriterion05ParameterizationEquivalence:
    def test_matched_distributions_identical(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            c = int(rng.integers(2, 12))
            d = int(rng.integers(4, 12))
            names = tuple(f"c{i}" for i in range(c))
            heads = tuple(
                PromptHead.frozen_from(_unit_rows(rng, c, d), names) for _ in range(2)
            )
            part = partition_classes(c, "base_new_even_split", seed=int(rng.integers(0, 99)))
            tau_1 = float(rng.uniform(0.003, 0.3))
            one = MixtureModel(
                heads, MixtureWeights.one_stage(tau_1, tau_1), part, tau=0.01
            )
            alpha, tau_eff = matched_two_stage(tau_1, 0.01)
            two = MixtureModel(
                heads, MixtureWeights.two_stage([alpha], [alpha]), part, tau=tau_eff
            )
            x = _unit_rows(rng, 5, d)
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            mixture_predict_matrix(one, x) - mixture_predict_matrix(two, x)
                        )
                    )
                ),
            )
        assert worst < 1e-12
        print(f"PASS criterion 5a: matched parameterizations agree within {worst:.2e}")

    def test_optimized_h_within_half_point(
        self, base_to_new_two_stage, base_to_new_one_stage
    ):
        h_two = base_to_new_two_stage.per_config["fitted_mixture"]["h"]
        h_one = base_to_new_one_stage.per_config["fitted_mixture"]["h"]
        assert abs(h_two - h_one) <= 0.5
        print(
            f"PASS criterion 5b: optimized H two-stage {h_two:.2f} vs "
            f"one-stage {h_one:.2f} (|diff| = {abs(h_two - h_one):.3f} <= 0.5)"
        )


class TestCriterion06AssumptionValidation:
    def test_both_directions_significant(self):
        start = time.time()
        report = assumption_check(
            HarnessConfig(synthetic=assumption_default_synthetic(), seeds=(0,)),
            splits=10,
        )
        elapsed = time.time() - start
        assert len(report.extra["in_gaps"]) == 10
        assert len(report.extra["out_gaps"]) == 10
        p_in = report.t_tests["in_domain"]["p"]
        p_out = report.t_tests["out_domain"]["p"]
        assert p_in < 0.05 and p_out < 0.05
        assert report.t_tests["validated"]
        assert elapsed < 120.0
        print(
            f"PASS criterion 6: assumption validated, p_in={p_in:.2e}, "
            f"p_out={p_out:.2e} over 10 splits in {elapsed:.1f}s"
        )


class TestCriterion07DirectionalComparison:
    def test_inequality_chain(self, base_to_new_two_stage):
        margins = base_to_new_two_stage.extra["margins"]
        pc = base_to_new_two_stage.per_config
        assert margins["h_fitted_minus_uniform"] >= 0.0
        assert margins["h_uniform_minus_zero_shot"] >= 0.0
        assert margins["base_conf_minus_ce"] >= 0.0
        print(
            "PASS criterion 7: "
            f"H {pc['fitted_mixture']['h']:.2f} >= {pc['uniform_ensemble']['h']:.2f} >= "
            f"{pc['zero_shot']['h']:.2f}; Base(conf) - Base(CE) = "
            f"{margins['base_conf_minus_ce']:+.2f}; margins "
            f"{margins['h_fitted_minus_uniform']:+.2f} / "
            f"{margins['h_uniform_minus_zero_shot']:+.2f}"
        )


class TestCriterion08ConfusingSamples:
    def test_confusing_gain_direction(self):
        cfg = HarnessConfig()
        assert cfg.synthetic.confusion_pairs >= 3
        report = confusing_gain(cfg)
        deltas = report.extra["deltas"]
        assert deltas["confusing"] >= 0.0
        assert abs(deltas["easy"]) <= 2.0
        print(
            f"PASS criterion 8: confusing-subset gain {deltas['confusing']:+.2f} pts, "
            f"easy-subset drift {deltas['easy']:+.2f} pts (|.| <= 2)"
        )


class TestCriterion09LossZooIdentities:
    def test_identities(self):
        rng = np.random.default_rng(99)
        worst = {"gce_conf": 0.0, "fl_ce": 0.0, "mae_ce": 0.0}
        for _ in range(1000):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c))
            y = int(rng.integers(0, c))
            worst["gce_conf"] = max(
                worst["gce_conf"], abs(gce_loss(p, y, q=1.0) - confusion_loss(p, y))
            )
            worst["fl_ce"] = max(
                worst["fl_ce"], abs(focal_loss(p, y, gamma=0.0) - ce_loss(p, y))
            )
            worst["mae_ce"] = max(
                worst["mae_ce"], abs(ce_plus_mae_loss(p, y, w=0.0) - ce_loss(p, y))
            )
        assert all(v < 1e-12 for v in worst.values())
        print(
            "PASS criterion 9: loss identities within "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        )


class TestCriterion10IncrementalSessions:
    def test_schedule_structure_and_retention(self):
        report = fscil_run(HarnessConfig(synthetic=fscil_default_synthetic()))
        assert len(report.session_acc) == 9
        assert report.mean_acc == pytest.approx(np.mean(report.session_acc))
        assert report.pd == pytest.approx(
            report.session_acc[0] - report.session_acc[-1]
        )
        final_first = report.extra["final_first_session_acc"]
        zero_first = report.extra["zero_shot_first_session_acc"]
        assert final_first >= zero_first
        print(
            f"PASS criterion 10: 9 sessions, Mean {report.mean_acc:.2f}, "
            f"PD {report.pd:.2f}; first-session retention {final_first:.2f} >= "
            f"zero-shot {zero_first:.2f} (+{final_first - zero_first:.2f})"
        )


class TestCriterion11Statistics:
    def test_t_distribution_reference_values(self):
        p = 1.0 - student_t_cdf(3.25, 9)
        assert p == pytest.approx(0.005, abs=5e-4)
        assert student_t_cdf(0.0, 9) == 0.5
        result = t_test_paired_one_sided([-1.0, 1.0, -0.5, 0.5])
        assert result.p_value == pytest.approx(0.5, abs=1e-12)
        print(f"PASS criterion 11: p(t=3.25, df=9) = {p:.5f}; p(t=0) = 0.5 exactly")


class TestCriterion12FormatAndDeterminism:
    def test_embedding_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(20):
            vecs = _unit_rows(rng, int(rng.integers(1, 10)), int(rng.integers(2, 9)))
            labels = rng.integers(0, 3, vecs.shape[0]).astype(np.int64)
            s = EmbeddingSet(vecs, labels, ("a", "b", "c"))
            p1, p2 = tmp_path / f"r{i}.emb", tmp_path / f"w{i}.emb"
            write_embedding_file(s, p1)
            write_embedding_file(read_embedding_file(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_command_rerun_reproduces_reports(self, tmp_path):
        cfg = {
            "out_dir": str(tmp_path / "run"),
            "seeds": [0],
            "data": {"synthetic": {"num_classes": 8, "shots": 4, "test_per_class": 4,
                                   "dim": 16, "confusion_pairs": 2}},
            "optimizer": {"epochs": 4, "weight_epochs": 4},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("gen", "tune", "weights", "eval", "bound"):
            args = [cmd, "--config", str(path)]
            if cmd == "bound":
                args += ["--trials", "50"]
            assert cli_main(args) == 0
        files = sorted((tmp_path / "run").rglob("*.json")) + sorted(
            (tmp_path / "run").rglob("*.csv")
        )
        snapshot = {f: f.read_bytes() for f in files}
        for cmd in ("gen", "tune", "weights", "eval", "bound"):
            args = [cmd, "--config", str(path)]
            if cmd == "bound":
                args += ["--trials", "50"]
            assert cli_main(args) == 0
        for f, blob in snapshot.items():
            assert f.read_bytes() == blob, f

    def test_harmonic_mean_reference_row(self):
        h = harmonic_mean(75.47, 68.92)
        assert h == pytest.approx(72.04, abs=0.01)
        print(
            f"PASS criterion 12: byte-exact round trips, reproducible reports, "
            f"H(75.47, 68.92) = {h:.4f}"
        )
