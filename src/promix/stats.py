"""Paired one-sided t-test on a self-contained Student-t CDF.

A paired test of n differences has n - 1 degrees of freedom, always an
integer, and for integer df the Student-t CDF is an exact finite series
(Abramowitz & Stegun 26.7.3 and 26.7.4). With theta = atan(t / sqrt(df))
and c = cos^2 theta, the signed probability A = P(|T| <= |t|) * sign(t) is

- even df: A = sin theta * sum_{k < df/2} a_k c^k,
  a_0 = 1, a_k = a_{k-1} (2k - 1) / (2k);
- odd df: A = (2 / pi) (theta + sin theta cos theta * sum_{k < (df-1)/2} b_k c^k),
  b_0 = 1, b_k = b_{k-1} (2k) / (2k + 1), an empty sum at df = 1;

and P(T <= t) = (1 + A) / 2. The series takes df // 2 terms, with no
iteration to converge. No statistics dependency; the test suite checks the
CDF against reference tables and a 50-digit mpmath oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def student_t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with a positive integer ``df`` degrees of
    freedom; a NaN ``t`` is an error, and t = -inf, +inf give 0.0, 1.0."""
    if isinstance(df, bool) or not isinstance(df, int) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive int, got {df!r}")
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    odd = df % 2
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    term, series = 1.0, 0.0
    for k in range(1, df // 2 + 1):
        series += term
        term *= cos * cos * (2 * k - 1 + odd) / (2 * k + odd)
    signed = (theta + sin * cos * series) / (math.pi / 2) if odd else sin * series
    return 0.5 + 0.5 * signed


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    n: int

    @property
    def df(self) -> int:
        return self.n - 1


def t_test_paired_one_sided(diffs: Sequence[float]) -> TTestResult:
    """One-sided paired t-test of H1: mean(diffs) > 0.

    t = mean / (sd / sqrt(n)) with the sample standard deviation;
    p = 1 - CDF_t(t, n-1). Requires n >= 2 finite differences whose sample
    variance is positive and finite.
    """
    diffs = [float(d) for d in diffs]
    n = len(diffs)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 differences")
    if not all(math.isfinite(d) for d in diffs):
        raise ValueError("paired t-test needs finite differences")
    mean = sum(diffs) / n
    try:
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    except OverflowError:  # an overflowing float ** raises, an overflowing sum gives inf
        var = math.inf
    if var == math.inf:  # so does an infinite mean
        raise ValueError("the differences overflow: their variance is not finite")
    if var <= 0.0:
        raise ValueError("zero variance: t statistic undefined")
    t = mean / math.sqrt(var / n)
    return TTestResult(t, 1.0 - student_t_cdf(t, n - 1), n)
