"""Chi-square p-values are exactly the doubles cephes ``chdtrc`` returns."""

import pytest
from scipy.special import chdtrc

from flashlab.stats import chi2_gof, chi2_homogeneity

M = 1000  # counts per cell before the shift d


# chi2_gof on (M + d, M - d, M, M)[:cells] against uniform probabilities:
# statistic 2 d^2 / M, so d = 0, 22, 141, 707 give about 0, 1, 40 and 1e3
@pytest.mark.parametrize("cells", [2, 4])
@pytest.mark.parametrize("d, stat", [(0, 0.0), (22, 1.0), (141, 40.0), (707, 1e3)])
def test_gof_p_value_is_chdtrc(cells, d, stat):
    observed = [M + d, M - d, M, M][:cells]
    result = chi2_gof(observed, [1.0 / cells] * cells)
    assert result.df == cells - 1
    assert result.statistic == pytest.approx(stat, abs=0.05 * stat + 1e-12)
    assert result.p_value == float(chdtrc(result.df, result.statistic))


# chi2_homogeneity of (M + d, M - d, M, M)[:cells] against
# (M - d, M + d, M, M)[:cells]: statistic 4 d^2 / M
@pytest.mark.parametrize("cells", [2, 4])
@pytest.mark.parametrize("d, stat", [(0, 0.0), (16, 1.0), (100, 40.0), (500, 1e3)])
def test_homogeneity_p_value_is_chdtrc(cells, d, stat):
    a = [M + d, M - d, M, M][:cells]
    b = [M - d, M + d, M, M][:cells]
    result = chi2_homogeneity(a, b)
    assert result.df == cells - 1
    assert result.statistic == pytest.approx(stat, abs=0.05 * stat + 1e-12)
    assert result.p_value == float(chdtrc(result.df, result.statistic))
