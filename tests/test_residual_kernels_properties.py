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

from gnarlib.diagnostics import ks_normality_single, ljung_box, rank_transform
from gnarlib.errors import UndefinedStatisticError
from gnarlib.panel import boxcox_profile

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


@PROPERTY
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
def test_rank_transform_equals_rankdata_on_ties(values):
    x = np.asarray(values, dtype=float)
    got = rank_transform(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, stats.rankdata(x))
