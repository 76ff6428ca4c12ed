"""Property tests of the residual-test and Box-Cox kernels against
``scipy.stats``, which serves only as the oracle here: the library computes
the KS statistic and p-value, the Ljung-Box p-value, the Box-Cox profile
log-likelihood and average ranks from ``scipy.special`` and numpy, and each
must equal the ``scipy.stats`` result bit for bit.

Samples mix continuous draws with values rounded to a coarse grid, so tied
observations (and tied ranks) are exercised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from gnarlib import panel
from gnarlib.diagnostics import ks_normality_single, ljung_box, rank_transform
from gnarlib.errors import UndefinedStatisticError
from gnarlib.panel import boxcox_profile
from oracles import boxcox_llf_loop

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def samples(draw, min_size=8, max_size=120):
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(draw(st.floats(-50, 50)), draw(st.floats(0.01, 100)), size=n)
    decimals = draw(st.sampled_from([None, 1, 0]))
    return x if decimals is None else np.round(x, decimals)


@PROPERTY
@given(samples())
def test_ks_normality_equals_scipy_kstest(x):
    mu, sd = float(x.mean()), float(x.std(ddof=1))
    if sd == 0.0:
        return
    got = ks_normality_single(x)
    ref = stats.kstest(x, "norm", args=(mu, sd), method="asymp")
    assert got.statistic == float(ref.statistic)
    assert got.p_value == float(ref.pvalue)


@PROPERTY
@given(samples(min_size=13), st.integers(1, 10))
def test_ljung_box_p_value_equals_chi2_sf(x, max_lag):
    if np.ptp(x) == 0.0:
        return
    got = ljung_box(x, max_lag=max_lag)
    assert got.p_value == float(stats.chi2.sf(got.statistic, df=max_lag))


@PROPERTY
@given(samples(min_size=3), st.integers(2, 40))
def test_boxcox_profile_equals_scipy_boxcox_llf(x, steps):
    grid = np.r_[np.linspace(-2.0, 3.0, steps), 0.0]
    if np.ptp(x) == 0.0:        # a constant sample has no profile
        with pytest.raises(UndefinedStatisticError):
            boxcox_profile(x, grid)
        return
    prof = boxcox_profile(x, grid)
    y = x + prof.shift
    assert prof.loglik == tuple(float(stats.boxcox_llf(lmb, y)) for lmb in prof.lambda_grid)


def _same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: -0.0 differs from 0.0, NaN equals NaN."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


def _tied_at_extremes(x, ties: int):
    """x with its first ``ties`` values set to its max and its last to its
    min, so the row maximum of lambda * log x occurs more than once (m > 1)
    for either sign of lambda."""
    x = x.copy()
    if ties:
        x[:ties], x[-ties:] = x.max(), x.min()
    return x


def _loop_loglik(x, prof) -> tuple[float, ...]:
    logx = np.log(x + prof.shift)
    return tuple(boxcox_llf_loop(lmb, logx) for lmb in prof.lambda_grid)


# lambda = 0 and -0.0 take the log-variance branch; tiny |lambda| and +-50
# stretch the logsumexp shifts
EDGE_LAMBDAS = [0.0, -0.0, 1e-12, -1e-9, 50.0, -50.0, 1.0, -2.0]


@PROPERTY
@given(samples(min_size=3),
       st.lists(st.one_of(st.sampled_from(EDGE_LAMBDAS), st.floats(-3.0, 3.0)),
                min_size=1, max_size=12),
       st.integers(0, 4))
def test_boxcox_profile_equals_loop_oracle(x, grid, ties):
    x = _tied_at_extremes(x, ties)
    if np.ptp(x) == 0.0:
        return
    prof = boxcox_profile(x, grid)
    assert _same_bits(prof.lambda_grid, grid)
    assert _same_bits(prof.loglik, _loop_loglik(x, prof))


@pytest.mark.parametrize("grid", [[-0.0], [0.0, -0.0, 0.0], [0.5, 0.5, 0.5], [0.7],
                                  [1e-12, -1e-9, 0.0], [50.0, -50.0], [-50.0, 1e-12, 50.0]])
def test_boxcox_profile_equals_loop_oracle_on_edge_grids(grid):
    rng = np.random.default_rng(12)
    for x in (rng.normal(3.0, 2.0, 200), np.round(rng.normal(0.0, 5.0, 150)),
              rng.poisson(4.0, 300) - 2.0, np.r_[rng.uniform(1, 2, 50), [2.0] * 5, [1.0] * 5]):
        prof = boxcox_profile(x, grid)
        assert _same_bits(prof.loglik, _loop_loglik(x, prof))


@pytest.mark.parametrize("x,grid", [
    # lambdas whose log numpy's vectorised log may round apart from libm's
    (np.random.default_rng(14).gamma(2.0, 3.0, 300),
     [1.0758118076264724, 0.2974905315481139, 1.8228188364822402, 1.9828580255139774,
      0.06986585205075996, 0.9576398967384886, 0.9608717140137891, 0.8270725423668354]),
    # lambda * log x collapses to one value: every deviation is a tie, and
    # the log-likelihood is +inf
    (np.random.default_rng(15).uniform(0.7, 1.5, 40), [5e-324, -5e-324, 1e-300]),
    # a value ties the mean of x**2 beyond exp's range: scipy gives NaN
    (np.sqrt([1.0, 2.0, 3.0]) * 1e170, [2.0, 1.0]),
])
def test_boxcox_profile_equals_loop_oracle_at_extremes(x, grid):
    prof = boxcox_profile(x, grid)
    assert _same_bits(prof.loglik, _loop_loglik(x, prof))


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(samples(min_size=700, max_size=3000), st.integers(0, 4))
def test_boxcox_profile_over_several_lambda_blocks(x, ties):
    grid = np.r_[np.linspace(-2.0, 3.0, 101), -0.0]
    assert x.size * grid.size > panel._BOXCOX_CELLS
    x = _tied_at_extremes(x, ties)
    if np.ptp(x) == 0.0:
        return
    prof = boxcox_profile(x, grid)
    assert _same_bits(prof.loglik, _loop_loglik(x, prof))


def test_boxcox_profile_of_a_series_longer_than_a_block():
    # one lambda row per block once the series alone fills a block
    x = np.random.default_rng(13).poisson(6.0, panel._BOXCOX_CELLS + 5000) - 1.0
    prof = boxcox_profile(x, [-1.0, 0.0, 1e-12, 0.5, 2.0])
    assert _same_bits(prof.loglik, _loop_loglik(x, prof))


@PROPERTY
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
def test_rank_transform_equals_rankdata_on_ties(values):
    x = np.asarray(values, dtype=float)
    got = rank_transform(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, stats.rankdata(x))
