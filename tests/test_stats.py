"""Student-t CDF as the exact integer-df series, and the paired test.

Reference values come from standard t tables and a high-precision
mpmath oracle (test-only dependency) that evaluates the CDF through the
regularized incomplete beta function.
"""

import math

import mpmath
import numpy as np
import pytest

from promix.stats import student_t_cdf, t_test_paired_one_sided


def _oracle_cdf(t: float, df: int) -> float:
    """P(T <= t) = 1 - I_x(df/2, 1/2) / 2 for t > 0, with x = df / (df + t^2),
    at 50 digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        tail = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                              regularized=True) / 2
        return float(1 - tail if t > 0 else tail)


class TestStudentTCDF:
    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            df = int(rng.choice([1, 2, 3, 4, 5, 8, 9, 19, 30, 99, 500]))
            t = float(rng.uniform(-12, 12))
            assert student_t_cdf(t, df) == pytest.approx(_oracle_cdf(t, df), abs=1e-13)

    @pytest.mark.parametrize("df", [0, -1, 2.5, True])
    def test_df_must_be_a_positive_int(self, df):
        with pytest.raises(ValueError, match="positive"):
            student_t_cdf(1.0, df)

    def test_nan_t_rejected_and_infinities_are_the_limits(self):
        with pytest.raises(ValueError, match="NaN"):
            student_t_cdf(math.nan, 5)
        for df in (1, 2, 9):
            assert student_t_cdf(math.inf, df) == 1.0
            assert student_t_cdf(-math.inf, df) == 0.0

    def test_zero_is_exactly_half(self):
        for df in (1, 2, 9, 30):
            assert student_t_cdf(0.0, df) == 0.5

    def test_table_value_df9(self):
        # one-sided critical value: P(T > 3.250) = 0.005 at 9 dof
        p = 1.0 - student_t_cdf(3.25, 9)
        assert p == pytest.approx(0.005, abs=5e-4)

    def test_more_table_values(self):
        # (t, df, upper-tail p) from standard tables
        for t, df, upper in [(1.833, 9, 0.05), (2.262, 9, 0.025), (6.314, 1, 0.05),
                             (2.086, 20, 0.025), (1.282, 1000, 0.10)]:
            assert 1.0 - student_t_cdf(t, df) == pytest.approx(upper, abs=5e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = rng.uniform(-5, 5)
            df = int(rng.integers(1, 40))
            assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_t(self):
        ts = np.linspace(-6, 6, 101)
        values = [student_t_cdf(t, 7) for t in ts]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_approaches_gaussian_for_large_df(self):
        from math import erf, sqrt

        for t in (-2.0, -0.5, 0.7, 1.9):
            gauss = 0.5 * (1 + erf(t / sqrt(2)))
            assert student_t_cdf(t, 100000) == pytest.approx(gauss, abs=1e-4)


class TestPairedTTest:
    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            t_test_paired_one_sided([1.0, 1.0, 1.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            t_test_paired_one_sided([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_differences_rejected(self, bad):
        with pytest.raises(ValueError, match="finite differences"):
            t_test_paired_one_sided([1.0, bad, 2.0])

    @pytest.mark.parametrize(
        "diffs", [[1e200, -1e200, 3.0], [1e300, 1e300, 1e299], [1e308, 1e308],
                  [1.7e308, -1.7e308, -1.7e308]],
    )
    def test_overflowing_differences_rejected(self, diffs):
        with pytest.raises(ValueError, match="differences overflow"):
            t_test_paired_one_sided(diffs)

    def test_zero_mean_gives_half(self):
        result = t_test_paired_one_sided([-1.0, 1.0, -2.0, 2.0])
        assert result.t_statistic == pytest.approx(0.0, abs=1e-15)
        assert result.p_value == pytest.approx(0.5, abs=1e-12)

    def test_statistic_formula(self):
        diffs = [0.3, 0.5, 0.1, 0.9, 0.2]
        result = t_test_paired_one_sided(diffs)
        mean = np.mean(diffs)
        sd = np.std(diffs, ddof=1)
        assert result.t_statistic == pytest.approx(mean / (sd / math.sqrt(5)), rel=1e-12)
        assert result.df == 4

    def test_p_decreases_in_t(self):
        base = [1.0, 1.2, 0.8, 1.1, 0.9]
        ps = [
            t_test_paired_one_sided([d + shift for d in base]).p_value
            for shift in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_consistent_positive_gaps_are_significant(self):
        rng = np.random.default_rng(3)
        gaps = rng.normal(1.0, 0.2, 10)
        assert t_test_paired_one_sided(gaps).p_value < 1e-4
