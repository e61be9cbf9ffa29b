"""Chi-square machinery shared by the classifier and the test batteries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float


def chi2_gof(observed, expected_probs) -> ChiSquareResult:
    """Goodness of fit of observed counts against fully specified cell
    probabilities.

    Zero-probability cells are excluded from the statistic (they carry no
    degrees of freedom); an observed count in such a cell is an impossible
    event under the hypothesis and yields p = 0 outright.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected shapes differ")
    n = obs.sum()
    if n <= 0:
        raise ValueError("no observations")
    zero = probs <= 1e-15
    if np.any(obs[zero] > 0):
        return ChiSquareResult(math.inf, int(np.count_nonzero(~zero)) - 1, 0.0)
    obs, probs = obs[~zero], probs[~zero]
    expected = n * probs / probs.sum()
    stat = float(np.sum((obs - expected) ** 2 / expected))
    df = obs.size - 1
    if df <= 0:
        return ChiSquareResult(stat, 0, 1.0)
    return ChiSquareResult(stat, df, _chi2_sf(df, stat))


def chi2_homogeneity(counts_a, counts_b) -> ChiSquareResult:
    """Two-sample homogeneity test on two count vectors over the same cells.

    Cells empty in both samples are dropped.  df = (kept cells - 1).
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("count vectors must share a shape")
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    n_a, n_b = a.sum(), b.sum()
    if n_a <= 0 or n_b <= 0:
        raise ValueError("each sample needs at least one observation")
    pooled = (a + b) / (n_a + n_b)
    stat = 0.0
    for counts, total in ((a, n_a), (b, n_b)):
        expected = total * pooled
        stat += float(np.sum((counts - expected) ** 2 / expected))
    df = a.size - 1
    if df <= 0:
        return ChiSquareResult(stat, 0, 1.0)
    return ChiSquareResult(stat, df, _chi2_sf(df, stat))


def _chi2_sf(df: int, stat: float) -> float:
    """Chi-square survival function: the cephes ``chdtrc`` that
    scipy.stats.chi2.sf calls.  scipy.special is imported here, on the
    first p-value, so that a process which computes none (``run``,
    ``certify``, ``report``) never pays for that import, most of the
    package's start-up."""
    from scipy.special import chdtrc

    return float(chdtrc(df, stat))


def bonferroni(p_values) -> float:
    """Smallest Bonferroni-adjusted p-value of a family of tests."""
    ps = list(p_values)
    if not ps:
        raise ValueError("empty p-value family")
    return min(1.0, min(ps) * len(ps))
