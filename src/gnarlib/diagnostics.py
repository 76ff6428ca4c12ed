"""Forecast evaluation and residual checking.

Provides the mean absolute scaled error (forecast error scaled by the mean
absolute one-step change of the observed series), a spatial autocorrelation
statistic with exponential-in-SPL weights and its per-date permutation test
(with the proportion of dates falling outside the 95% band as the headline
number), a Kolmogorov-Smirnov normality check per node, and the Ljung-Box
whiteness test.

The permutation test draws a fresh permutation per date and replicate, with
the generator seeded from (seed, date index, replicate) so results do not
depend on evaluation order.  Note the band comparison is descriptive: the
per-date tests are dependent over time, so no familywise p-value is
attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError, UndefinedStatisticError
from .geo_graph import Graph, shortest_path_lengths
from .panel import TimeSeriesPanel


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaseResult:
    """Scaled forecast errors per node and week.

    ``entries`` is N x H (NaN where an operand was missing); per-node means
    are computed as mean absolute error over the window divided by the
    node's scaling denominator.  Nodes with a constant history have an
    undefined scale and are excluded from ``overall_mean``.
    """

    labels: tuple[str, ...]
    entries: np.ndarray
    per_node_mean: np.ndarray
    per_node_std: np.ndarray
    overall_mean: float
    undefined_nodes: tuple[str, ...]


@dataclass(frozen=True)
class MoranResult:
    """Per-date spatial autocorrelation against permutation bands."""

    dates: tuple
    observed: np.ndarray
    lower: np.ndarray
    median: np.ndarray
    upper: np.ndarray
    outside: np.ndarray           # boolean per tested date
    tested: np.ndarray            # False where a date was skipped
    skipped_reasons: tuple[str, ...]
    n_m: float                    # fraction of tested dates outside the band
    R: int
    seed: int
    rank_based: bool


@dataclass(frozen=True)
class TestResult:
    """Generic test outcome: statistic, p-value, and parameters."""

    statistic: float
    p_value: float
    parameters: dict

    def __post_init__(self) -> None:
        if not math.isnan(self.p_value) and not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError(f"p-value {self.p_value} outside [0, 1]")


# ---------------------------------------------------------------------------
# MASE
# ---------------------------------------------------------------------------

def mase(actual: np.ndarray, predicted: np.ndarray, history: np.ndarray,
         labels: Optional[Sequence[str]] = None) -> MaseResult:
    """Mean absolute scaled error per node over a predicted window.

    The scale for node i is the mean absolute one-lag change of its full
    observed series; each error |actual - predicted| is divided by it.  The
    per-node mean is computed as (mean absolute error) / scale, which makes
    the naive one-lag forecast evaluated over the whole series score exactly
    1.  A node whose history never changes has zero scale; it is flagged
    and left out of the overall mean.
    """
    actual = np.atleast_2d(np.asarray(actual, dtype=float))
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    history = np.atleast_2d(np.asarray(history, dtype=float))
    if actual.shape != predicted.shape:
        raise InvalidInputError("actual and predicted shapes differ")
    if history.shape[0] != actual.shape[0]:
        raise InvalidInputError("history row count differs from actual")
    if history.shape[1] < 2:
        raise InvalidInputError("history needs at least 2 observations")
    n = actual.shape[0]
    labels = tuple(labels) if labels is not None else tuple(f"v{i}" for i in range(n))

    entries = np.full(actual.shape, np.nan)
    per_mean = np.full(n, np.nan)
    per_std = np.full(n, np.nan)
    undefined = []
    with np.errstate(invalid="ignore"):
        for i in range(n):
            steps = np.abs(np.diff(history[i]))
            steps = steps[~np.isnan(steps)]
            if steps.size == 0 or float(np.mean(steps)) == 0.0:
                undefined.append(labels[i])
                continue
            scale = float(np.mean(steps))
            err = np.abs(actual[i] - predicted[i])
            entries[i] = err / scale
            per_mean[i] = float(np.nanmean(err)) / scale
            per_std[i] = float(np.nanstd(entries[i]))
    defined = ~np.isnan(per_mean)
    overall = float(np.mean(per_mean[defined])) if defined.any() else math.nan
    return MaseResult(labels=labels, entries=entries, per_node_mean=per_mean,
                      per_node_std=per_std, overall_mean=overall,
                      undefined_nodes=tuple(undefined))


# ---------------------------------------------------------------------------
# Spatial autocorrelation
# ---------------------------------------------------------------------------

def moran_weights(g: Graph) -> np.ndarray:
    """Exponential-decay weights w[i, j] = exp(-SPL(i, j)).

    The diagonal is zero, and so are unreachable pairs (exp(-inf)).
    """
    spl = shortest_path_lengths(g)
    with np.errstate(over="ignore"):
        w = np.exp(-spl)
    np.fill_diagonal(w, 0.0)
    w[~np.isfinite(spl)] = 0.0
    return w


def morans_i(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted cross-sectional autocorrelation of a node vector.

    I = sum_{i != j} w[i,j] (x_i - xbar)(x_j - xbar)
        / ( W0 * (1/N) sum_i (x_i - xbar)^2 ),   W0 = sum w[i,j].

    Invariant under affine maps of the values; undefined for a constant
    vector.
    """
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = x.size
    if w.shape != (n, n):
        raise InvalidInputError(f"weights shape {w.shape} does not match n={n}")
    if np.isnan(x).any():
        raise InvalidInputError("values contain missing entries")
    xc = x - x.mean()
    denom_var = float(xc @ xc) / n
    if denom_var == 0.0:
        raise UndefinedStatisticError("constant cross-section; statistic undefined")
    w0 = float(w.sum())
    if w0 == 0.0:
        raise UndefinedStatisticError("all weights are zero")
    num = float(xc @ (w @ xc)) - float(np.diag(w) @ (xc * xc))
    return num / (w0 * denom_var)


def rank_transform(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with average ranks for ties (all NaN if any value is)."""
    x = np.asarray(values, dtype=float).ravel()
    xs = np.sort(x)  # ties span searchsorted left..right: mean rank is their midpoint
    ranks = (np.searchsorted(xs, x, "left") + 1 + np.searchsorted(xs, x, "right")) / 2
    return np.full(x.size, np.nan) if np.isnan(x).any() else ranks


def moran_permutation_test(panel: TimeSeriesPanel, g: Graph, R: int = 100,
                           seed: int = 0, rank_based: bool = False) -> MoranResult:
    """Per-date permutation bands for the spatial autocorrelation.

    For each date the cross-section (or its ranks) is compared with the
    empirical 2.5%/50%/97.5% quantiles of the statistic under R random
    permutations of the values across nodes.  Dates with fewer than two
    observed nodes or a constant cross-section are skipped and reported.
    ``n_m`` is the fraction of tested dates whose observed value falls
    outside its band.  Missing nodes are excluded from both the statistic
    and the permutation support of their date.
    """
    if R < 20:
        raise InvalidInputError("R must be >= 20 for meaningful quantiles")
    if tuple(panel.labels) != tuple(g.labels):
        raise InvalidInputError("panel and graph label order differ")
    w_full = moran_weights(g)
    T = panel.n_times
    observed = np.full(T, np.nan)
    lower = np.full(T, np.nan)
    median = np.full(T, np.nan)
    upper = np.full(T, np.nan)
    outside = np.zeros(T, dtype=bool)
    tested = np.zeros(T, dtype=bool)
    reasons: list[str] = []

    for t in range(T):
        col = panel.values[:, t]
        present = ~np.isnan(col)
        x = col[present]
        if x.size < 2:
            reasons.append(f"{panel.dates[t].isoformat()}: fewer than 2 observed nodes")
            continue
        if float(np.ptp(x)) == 0.0:
            reasons.append(f"{panel.dates[t].isoformat()}: constant cross-section")
            continue
        w = w_full[np.ix_(present, present)]
        if rank_based:
            x = rank_transform(x)
        obs = morans_i(x, w)
        w0 = float(w.sum())  # morans_i without its checks; diag(w) is zero
        perms = np.empty(R)
        for r in range(R):
            xc = x[np.random.default_rng([seed, t, r]).permutation(x.size)]
            xc = xc - xc.mean()
            perms[r] = float(xc @ (w @ xc)) / (w0 * (float(xc @ xc) / x.size))
        lo, med, hi = np.quantile(perms, [0.025, 0.5, 0.975])
        observed[t] = obs
        lower[t], median[t], upper[t] = lo, med, hi
        tested[t] = True
        outside[t] = bool(obs < lo or obs > hi)

    if not tested.any():
        raise InvalidInputError("no testable dates in the panel")
    n_m = float(outside[tested].mean())
    return MoranResult(
        dates=tuple(panel.dates), observed=observed, lower=lower,
        median=median, upper=upper, outside=outside, tested=tested,
        skipped_reasons=tuple(reasons), n_m=n_m, R=R, seed=seed,
        rank_based=rank_based)


# ---------------------------------------------------------------------------
# Residual tests
# ---------------------------------------------------------------------------

def ks_normality_single(residuals: np.ndarray) -> TestResult:
    """Kolmogorov-Smirnov statistic of residuals against a fitted normal.

    Location and scale are estimated from the same residuals, which makes
    the asymptotic p-value conservative; treat borderline values with care.
    """
    from scipy import special

    x = np.asarray(residuals, dtype=float)
    x = x[~np.isnan(x)]
    if x.size < 8:
        raise InvalidInputError(f"need >= 8 residuals, got {x.size}")
    mu = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise UndefinedStatisticError("zero-variance residuals")
    cdf = special.ndtr((np.sort(x) - mu) / sd)
    steps = np.arange(x.size + 1) / x.size
    d = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))  # D+, D-
    p = float(np.clip(special.kolmogorov(d * math.sqrt(x.size)), 0.0, 1.0))
    return TestResult(statistic=d, p_value=p,
                      parameters={"n": int(x.size), "mean": mu, "sd": sd})


def ks_normality(residuals: Union[TimeSeriesPanel, Mapping[str, np.ndarray]]
                 ) -> dict[str, TestResult]:
    """Per-node KS normality tests; unusable nodes get a NaN entry."""
    return _per_node(ks_normality_single, residuals)


def ljung_box(series: np.ndarray, max_lag: Optional[int] = None) -> TestResult:
    """Ljung-Box whiteness test of a single residual series.

    Q = n (n + 2) sum_{k=1}^{h} acf_k^2 / (n - k), compared against a
    chi-square with h degrees of freedom.  Default h = min(10, n // 5).
    """
    from scipy import special

    x = np.asarray(series, dtype=float)
    x = x[~np.isnan(x)]
    n = x.size
    if max_lag is None:
        max_lag = max(1, min(10, n // 5))
    if max_lag < 1:
        raise InvalidInputError("max_lag must be >= 1")
    if n <= max_lag + 1:
        raise InvalidInputError(f"series length {n} too short for max_lag {max_lag}")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise UndefinedStatisticError("constant series")
    q = 0.0
    for k in range(1, max_lag + 1):
        acf_k = float(xc[k:] @ xc[:-k]) / denom
        q += acf_k * acf_k / (n - k)
    q *= n * (n + 2.0)
    p = float(special.chdtrc(max_lag, q))
    return TestResult(statistic=q, p_value=p,
                      parameters={"n": n, "max_lag": max_lag})


def ljung_box_panel(residuals: Union[TimeSeriesPanel, Mapping[str, np.ndarray]],
                    max_lag: Optional[int] = None) -> dict[str, TestResult]:
    """Ljung-Box per node; unusable nodes get a NaN entry."""
    if max_lag is not None and max_lag < 1:
        raise InvalidInputError("max_lag must be >= 1")
    return _per_node(lambda x: ljung_box(x, max_lag=max_lag), residuals)


def _per_node(test: Callable[[np.ndarray], TestResult], residuals
              ) -> dict[str, TestResult]:
    """``test`` on each node's series; a node the test rejects gets a NaN
    entry whose parameters carry the error message."""
    if isinstance(residuals, TimeSeriesPanel):
        residuals = dict(zip(residuals.labels, residuals.values))
    series = {str(k): np.asarray(v, dtype=float) for k, v in residuals.items()}
    out: dict[str, TestResult] = {}
    for label, x in series.items():
        try:
            out[label] = test(x)
        except (InvalidInputError, UndefinedStatisticError) as exc:
            out[label] = TestResult(statistic=math.nan, p_value=math.nan,
                                    parameters={"error": str(exc)})
    return out
