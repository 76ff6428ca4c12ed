"""Forecast evaluation and residual checking.

Provides the mean absolute scaled error (forecast error scaled by the mean
absolute one-step change of the observed series), a spatial autocorrelation
statistic with exponential-in-SPL weights and its per-date permutation test
(with the proportion of dates falling outside the 95% band as the headline
number), a Kolmogorov-Smirnov normality check per node, and the Ljung-Box
whiteness test.

The permutation test draws one permutation per (seed, date index,
replicate), that of ``np.random.default_rng([seed, t, r])``, so results do
not depend on evaluation order.  All generator states of a call are replayed
together from numpy's seeding.  Dates with the same number of observed nodes
are shuffled together: below 48 nodes PCG64 and numpy's shuffle run as array
steps over every (date, replicate) lane, from 48 on numpy's shuffle draws
from each state in turn.  A check against ``default_rng`` once per call
falls back to one generator per replicate should numpy's seeding or shuffle
change.  Each date's observed statistic is lane 0, the identity permutation,
of the same stacked product as its replicates.  The quantiles of all dates
come from one ``np.quantile`` call.
Note the band comparison is descriptive: the per-date tests are dependent
over time, so no familywise p-value is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError, UndefinedStatisticError, _check_seed
from . import geo_graph
from .panel import TimeSeriesPanel, _reject_infinite


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaseResult:
    """Scaled forecast errors per node and week.

    ``entries`` is N x H (NaN where an operand was missing); per-node means
    are computed as mean absolute error over the window divided by the
    node's scaling denominator.  Nodes with a constant history have an
    undefined scale and are excluded from ``overall_mean``.  So are nodes
    with no scored entry in the window (every held-out actual, or every
    prediction, missing); their per-node mean and std are NaN.
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
    and left out of the overall mean.  A node with no scored entry gets a
    NaN mean and std and is left out of the overall mean too.  NaN marks a
    missing value; an infinite one is an error naming its node.
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
    if len(labels) != n:
        raise InvalidInputError(f"{len(labels)} labels for {n} rows")
    for values in (actual, predicted, history):
        _reject_infinite(labels, values)

    def row_mean(a):    # nanmean's arithmetic by row, NaN for a row with no value
        seen = ~np.isnan(a)
        return np.where(seen, a, 0.0).sum(axis=1) / seen.sum(axis=1)

    with np.errstate(invalid="ignore"):
        scale = row_mean(np.abs(np.diff(history, axis=1)))
        scale[~(scale > 0.0)] = np.nan      # no observed step, or no change: undefined
        err = np.abs(actual - predicted)
        entries = err / scale[:, None]
        per_mean = row_mean(err) / scale
        dev = entries - row_mean(entries)[:, None]
        per_std = np.sqrt(row_mean(dev * dev))
    defined = ~np.isnan(per_mean)
    overall = float(np.mean(per_mean[defined])) if defined.any() else math.nan
    return MaseResult(labels=labels, entries=entries, per_node_mean=per_mean,
                      per_node_std=per_std, overall_mean=overall,
                      undefined_nodes=tuple(labels[i] for i in np.flatnonzero(np.isnan(scale))))


# ---------------------------------------------------------------------------
# Spatial autocorrelation
# ---------------------------------------------------------------------------

def moran_weights(g: geo_graph.Graph) -> np.ndarray:
    """Exponential-decay weights w[i, j] = exp(-SPL(i, j)).

    The diagonal is zero, and so are unreachable pairs (exp(-inf)).
    """
    w = np.exp(-geo_graph.shortest_path_lengths(g))
    np.fill_diagonal(w, 0.0)
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


def moran_permutation_test(panel: TimeSeriesPanel, g: geo_graph.Graph, R: int = 100,
                           seed: int = 0, rank_based: bool = False) -> MoranResult:
    """Per-date permutation bands for the spatial autocorrelation.

    For each date the cross-section (or its ranks) is compared with the
    empirical 2.5%/50%/97.5% quantiles of the statistic under R random
    permutations of the values across nodes.  Dates with fewer than two
    observed nodes or a constant cross-section are skipped and reported.
    ``n_m`` is the fraction of tested dates whose observed value falls
    outside its band.  Missing nodes are excluded from both the statistic
    and the permutation support of their date; an infinite value is an
    error naming its node.

    Replicate r of date index t permutes the date's present nodes by
    ``default_rng([seed, t, r]).permutation``, drawn as the module notes say.
    """
    if R < 20:
        raise InvalidInputError("R must be >= 20 for meaningful quantiles")
    _check_seed(seed)
    if tuple(panel.labels) != tuple(g.labels):
        raise InvalidInputError("panel and graph label order differ")
    _reject_infinite(panel.labels, panel.values)
    T = panel.n_times
    observed = np.full(T, np.nan)
    lower = np.full(T, np.nan)
    median = np.full(T, np.nan)
    upper = np.full(T, np.nan)
    outside = np.zeros(T, dtype=bool)
    tested = np.zeros(T, dtype=bool)
    reasons: list[str] = []

    for t in range(T):                      # pass 1: which dates are tested
        col = panel.values[:, t]
        x = col[~np.isnan(col)]
        if x.size < 2:
            reasons.append(f"{panel.dates[t].isoformat()}: fewer than 2 observed nodes")
        elif float(np.ptp(x)) == 0.0:
            reasons.append(f"{panel.dates[t].isoformat()}: constant cross-section")
        else:
            tested[t] = True
    if not tested.any():
        raise InvalidInputError("no testable dates in the panel")

    w_full = moran_weights(g)
    ts = np.flatnonzero(tested)
    present = ~np.isnan(panel.values[:, ts].T)        # tested date x node
    counts = present.sum(axis=1)
    seeds = _stream_seeds(seed, ts, R)
    perms = np.empty((ts.size, R))
    gen = np.random.Generator(np.random.PCG64())
    emulate = cut = None
    for m in np.unique(counts):             # pass 2: one shuffle per node count and block
        ks = np.flatnonzero(counts == m)
        ks = ks[np.lexsort(present[ks].T)]  # dates that miss the same nodes run together
        step = max(1, _MORAN_CELLS // (R * m))
        for kb in np.split(ks, range(step, ks.size, step)):
            if emulate is not False:
                P = _shuffled(gen, seeds[:, kb].reshape(4, -1), m)
                if emulate is None:     # once per call: numpy must still seed this way
                    emulate = np.array_equal(
                        P[0], np.random.default_rng([seed, ts[kb[0]], 0]).permutation(m))
            if not emulate:
                P = np.stack([np.random.default_rng([seed, ts[k], r]).permutation(m)
                              for k in kb for r in range(R)])
            # each date's R rows stay C-contiguous: numpy sends each stacked
            # item to the gemv and dot of the 1-D @, so each replicate equals
            # its own loop evaluation bit for bit
            for k, Pk in zip(kb, P.reshape(kb.size, R, m)):
                x = panel.values[present[k], ts[k]]
                if rank_based:
                    x = rank_transform(x)
                if cut is None or not np.array_equal(cut, present[k]):
                    cut, w = present[k], None   # free the last cut, so the next reuses it
                    w = w_full if cut.all() else w_full[np.ix_(cut, cut)]
                    w0 = float(w.sum())
                    if w0 == 0.0:
                        raise UndefinedStatisticError("all weights are zero")
                Xc = x[np.vstack([np.arange(m), Pk])]   # lane 0 is the observed order
                Xc -= Xc.mean(axis=1, keepdims=True)
                num = (Xc[:, None, :] @ (w @ Xc[:, :, None])).ravel()
                den = (Xc[:, None, :] @ Xc[:, :, None]).ravel()
                if den[0] == 0.0:                   # the squared deviations underflow
                    raise UndefinedStatisticError("constant cross-section; statistic undefined")
                stat = num / (w0 * (den / m))       # diag(w) is zero
                observed[ts[k]], perms[k] = stat[0], stat[1:]
    lower[ts], median[ts], upper[ts] = np.quantile(perms, [0.025, 0.5, 0.975], axis=1)
    outside[ts] = (observed[ts] < lower[ts]) | (observed[ts] > upper[ts])

    n_m = float(outside[tested].mean())
    return MoranResult(
        dates=tuple(panel.dates), observed=observed, lower=lower,
        median=median, upper=upper, outside=outside, tested=tested,
        skipped_reasons=tuple(reasons), n_m=n_m, R=R, seed=seed,
        rank_based=rank_based)


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # pcg64.h
_MORAN_CELLS = 1 << 18      # (lane, node) cells per shuffle call, or one date's R lanes
_LANE_SHUFFLE_N = 48        # measured crossover: from it on, numpy's shuffle per lane is faster
_OUTPUTS_PER_NODE = 1.0     # outputs drawn ahead per node; a shuffle takes ~1.3 n draws


def _shuffled(gen: np.random.Generator, seeds: np.ndarray, n: int) -> np.ndarray:
    """L x n: row l is numpy's shuffle of ``arange(n)`` by ``gen`` in the PCG64
    state seeded from ``seeds[:, l]`` (``seeds`` is 4 x L, from _stream_seeds).

    Every lane is seeded at once, as ``pcg64_set_seed`` seeds one: PCG64's
    128-bit LCG (O'Neill 2014) on uint64 hi/lo halves.  From
    ``_LANE_SHUFFLE_N`` nodes on, numpy's shuffle draws from each lane's
    state in turn.  Below it every lane runs at once: the LCG and its XSL-RR
    output, each output split into its low then its high 32-bit draw as
    ``pcg64_next32`` buffers them, and Fisher-Yates for i = n-1 .. 1 with
    ``random_interval``'s masked rejection, where only the lanes that
    rejected a draw read another.
    """
    L = seeds.shape[1]
    P = np.tile(np.arange(n), (L, 1))
    # uint64 operands only: products wrap mod 2^64, and numpy 1.x would take
    # a signed operand to float
    u64, m32, c32 = np.uint64, np.uint64(0xFFFFFFFF), np.uint64(32)
    m_hi, m_lo = u64(_PCG64_MULT >> 64), u64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF)
    s_hi, s_lo, q_hi, q_lo = seeds
    inc_hi, inc_lo = q_hi << u64(1) | q_lo >> u64(63), q_lo << u64(1) | u64(1)
    lo = s_lo + inc_lo                       # srandom: initstate + inc, then two steps
    hi = s_hi + inc_hi + (lo < inc_lo)

    def output():   # state = state * MULT + inc mod 2^128, then XSL-RR
        nonlocal hi, lo
        a0, a1 = lo & m32, lo >> c32         # mulhi(lo, m_lo) from 32-bit halves
        mid = a1 * (m_lo & m32) + (a0 * (m_lo & m32) >> c32)
        mid2 = a0 * (m_lo >> c32) + (mid & m32)
        hi = a1 * (m_lo >> c32) + (mid >> c32) + (mid2 >> c32) + lo * m_hi + hi * m_lo + inc_hi
        lo = lo * m_lo + inc_lo
        hi += lo < inc_lo
        x, rot = hi ^ lo, hi >> u64(58)
        return x >> rot | x << (-rot & u64(63))

    output()        # the second srandom step: hi:lo is now each lane's seeded state
    if n >= _LANE_SHUFFLE_N:
        bitgen = gen.bit_generator
        lanes = zip(P, hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
        for row, st_hi, st_lo, in_hi, in_lo in lanes:
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                            "state": {"state": st_hi << 64 | st_lo, "inc": in_hi << 64 | in_lo}}
            gen.shuffle(row)
        return P

    def draws(k):   # k more outputs of each lane: draw d of lane l at d L + l
        out, d = np.array([output() for _ in range(k)]), np.empty((k, 2, L), np.uint32)
        d[:, 0], d[:, 1] = out, out >> c32   # uint32 keeps the low half
        return d.ravel()

    buf, pos = draws(max(1, round(n * _OUTPUTS_PER_NODE))), np.arange(L)
    flat, row0 = P.ravel(), np.arange(0, L * n, n)
    for i in range(n - 1, 0, -1):            # random_interval(i)
        mask, redo = np.uint32((1 << i.bit_length()) - 1), np.arange(L)
        while redo.size:                     # pos: each lane's next draw
            at = pos[redo]
            while at.max() >= buf.size:
                buf = np.concatenate((buf, draws(max(1, n // 8))))
            pos[redo] = at + L
            redo = redo[buf[at] & mask > i]
        j = row0 + (buf[pos - L] & mask)
        flat[j], P[:, i] = P[:, i], flat[j]  # flat[j] is a copy
    return P


def _stream_seeds(seed: int, ts: Sequence[int], R: int) -> np.ndarray:
    """``SeedSequence([seed, t, r]).generate_state(4, np.uint64)`` for each t
    in ``ts`` and r < R, as a 4 x len(ts) x R array: numpy's hash, mix and
    output steps replayed on uint32 lanes, one per (t, r).  The multipliers
    advance the same way whatever the data.  The seed splits into 32-bit
    words, low first, as numpy splits it; t and r take one word each.
    """
    _check_seed(seed)
    u32 = np.uint32

    def hasher(h, mult):
        def hashmix(v):
            nonlocal h
            v = v ^ u32(h)
            h = h * mult & 0xFFFFFFFF
            v = v * u32(h)
            return v ^ (v >> u32(16))
        return hashmix

    def mix(x, y):
        v = u32(0xCA01F9DD) * x - u32(0x4973F715) * y
        return v ^ (v >> u32(16))

    # 1 x 1 arrays, not scalars: uint32 arrays wrap silently on overflow
    seed = int(seed)
    entropy = [np.full((1, 1), (seed >> s) & 0xFFFFFFFF, dtype=u32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [np.asarray(ts, dtype=u32)[:, None], np.arange(R, dtype=u32)[None, :]]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros((1, 1), dtype=u32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashout = hasher(0x8B51F9DD, 0x58F38DED)
    out = np.empty((4, len(ts), R), dtype=np.uint64)
    for k in range(4):      # generate_state joins the words in pairs, low word first
        out[k] = hashout(pool[2 * k % 4])
        out[k] |= hashout(pool[(2 * k + 1) % 4]).astype(np.uint64) << np.uint64(32)
    return out


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
    entry whose parameters carry the error message.  An infinite value is
    an error for the whole call."""
    if isinstance(residuals, TimeSeriesPanel):
        residuals = dict(zip(residuals.labels, residuals.values))
    series = {str(k): np.asarray(v, dtype=float) for k, v in residuals.items()}
    _reject_infinite(series, series.values())
    out: dict[str, TestResult] = {}
    for label, x in series.items():
        try:
            out[label] = test(x)
        except (InvalidInputError, UndefinedStatisticError) as exc:
            out[label] = TestResult(statistic=math.nan, p_value=math.nan,
                                    parameters={"error": str(exc)})
    return out
