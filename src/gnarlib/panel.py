"""Node-level time series panels and the preprocessing pipeline.

A panel is an N x T matrix of observations over labeled nodes and an ordered
date index, with NaN as the explicit missing marker.  The operations here
turn raw feeds into the stationary series the autoregressive model consumes:
pivoting long CSVs, aggregating daily cumulative counts to weekly incidence,
windowed smoothing over a declared interval, lag differencing, splitting into
named phases (gaps become all-missing columns so lagged regressors never
silently bridge them), and Box-Cox profile likelihood as a stationarity
check.

Panels are immutable; every operation returns a new panel and missing values
propagate (no operation invents a number where an input was missing).
"""

from __future__ import annotations

import datetime
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (DataIntegrityError, InvalidInputError, UndefinedStatisticError,
                     _read_csv, _read_json, _RowError, _write_csv)


class DataCorrectionWarning(UserWarning):
    """A cumulative feed decreased; the value was kept as reported."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeriesPanel:
    """Immutable N x T panel of node-level observations.

    Attributes:
        labels: Ordered node identifiers (row order of ``values``).
        dates: Strictly increasing date index (column order of ``values``).
        values: Float array of shape (N, T); NaN marks missing cells.
    """

    labels: tuple[str, ...]
    dates: tuple[datetime.date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("panel labels must be unique")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise InvalidInputError("panel dates must be strictly increasing")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.labels), len(self.dates)):
            raise InvalidInputError(
                f"values shape {vals.shape} does not match "
                f"{len(self.labels)} labels x {len(self.dates)} dates")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_times(self) -> int:
        return len(self.dates)

    def row(self, label: str) -> np.ndarray:
        if label not in self.labels:
            raise InvalidInputError(f"no node {label!r} in the panel")
        return self.values[self.labels.index(label)]

    def observed_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)


@dataclass(frozen=True)
class PhaseSpec:
    """Named list of closed date intervals, non-overlapping and increasing."""

    name: str
    intervals: tuple[tuple[datetime.date, datetime.date], ...]

    def __post_init__(self) -> None:
        for start, end in self.intervals:
            if end < start:
                raise InvalidInputError(f"interval {start}..{end} is reversed")
        for (_, e1), (s2, _) in zip(self.intervals, self.intervals[1:]):
            if s2 <= e1:
                raise InvalidInputError("phase intervals must be increasing and disjoint")

    def contains(self, d: datetime.date) -> bool:
        return any(s <= d <= e for s, e in self.intervals)

    @classmethod
    def from_json(cls, obj: dict) -> "PhaseSpec":
        intervals = tuple(
            (_iso_date(s), _iso_date(e))
            for s, e in obj["intervals"])
        return cls(name=obj["name"], intervals=intervals)

    def to_json(self) -> dict:
        return {"name": self.name,
                "intervals": [[s.isoformat(), e.isoformat()]
                              for s, e in self.intervals]}


@dataclass(frozen=True)
class BoxCoxProfile:
    """Profile log-likelihood of the Box-Cox transform over a lambda grid.

    ``shift`` is the constant added to the data before profiling (zero when
    the input was already strictly positive).
    """

    lambda_grid: tuple[float, ...]
    loglik: tuple[float, ...]
    shift: float

    @property
    def lambda_hat(self) -> float:
        """The grid lambda of the largest finite log-likelihood, the first of
        ties; UndefinedStatisticError when none is finite."""
        loglik = np.asarray(self.loglik)
        finite = np.isfinite(loglik)
        if not finite.any():
            raise UndefinedStatisticError("no finite log-likelihood on the lambda grid")
        return self.lambda_grid[int(np.argmax(np.where(finite, loglik, -np.inf)))]


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------

def ingest_long_csv(stream) -> TimeSeriesPanel:
    """Pivot a long ``date,node,value`` CSV into a panel.

    Nodes are sorted lexicographically and dates ascending; absent (date,
    node) cells become missing.  Extra columns are ignored, and two
    spellings of one date (``20200106``, ``2020-01-06``) are one date.  An
    empty value field is missing; an infinite value or a bad date is an
    error naming the data row.  A duplicate (date, node) cell must equal the
    one before it (NaN equals NaN, 0.0 equals -0.0), and the last one is
    kept; a conflicting one raises a data-integrity error naming the cell.
    The rows are read by column, a block at a time: each distinct date and
    label is parsed once into an integer code, and the values of a block are
    converted by one ``float`` map.  One stable sort of the integer (date,
    node) keys of all rows puts the rows of each cell together in file
    order; each is compared with the one before it, and the last is
    scattered into the panel.  The errors are those of a loop over the rows:
    the first bad row in file order, its date before its value.
    """
    # label -> code and date -> code, in order of first sight; date text -> code
    # of its date, -1 if bad; the (date code << 32 | label code) keys and the
    # values of each block
    labels, found, days, blocks = {}, {}, {}, []

    def fold(rows, at, col) -> None:
        texts, nodes, cells = (list(map(operator.itemgetter(col[name]), rows))
                               for name in ("date", "node", "value"))
        day, values = _codes(texts, days, found, _iso_date), _floats(cells)
        bad = np.flatnonzero((day < 0) | np.isinf(values))
        i = bad[0] if bad.size else len(rows)
        blocks.append((day[:i] << 32 | _codes(nodes[:i], labels, labels), values[:i]))
        if bad.size:
            _row_error(at[i], texts[i], cells[i])

    def by_cell() -> tuple[np.ndarray, np.ndarray]:
        """The rows' keys and values, sorted by key and, within a cell, in
        file order; a conflict raises at its first row in file order."""
        key, values = (np.concatenate(c) for c in zip(*blocks))
        blocks.clear()
        order = np.argsort(key, kind="stable")
        key, values = key[order], values[order]
        old, new = values[:-1], values[1:]
        clash = np.flatnonzero((key[1:] == key[:-1]) & (old != new)
                               & ~(np.isnan(old) & np.isnan(new)))
        if clash.size:
            j = clash[np.argmin(order[clash + 1])]
            d, n = divmod(int(key[j]), 1 << 32)
            raise DataIntegrityError(
                f"conflicting duplicate for node {list(labels)[n]!r} on "
                f"{list(found)[d].isoformat()}: {float(old[j])!r} vs {float(new[j])!r}")
        return key, values

    try:
        _read_csv(stream, "header date,node,value",
                  lambda header: {"date", "node", "value"}.issubset(header), fold)
    except InvalidInputError:
        if labels:      # a conflict before the bad row comes first
            by_cell()
        raise
    if not labels:
        raise InvalidInputError("no data rows in long CSV")
    key, values = by_cell()
    last = np.append(key[1:] != key[:-1], True)     # a cell's last row is kept
    day, node = np.divmod(key[last], 1 << 32)
    nodes, dates = sorted(labels), sorted(found)
    panel = np.full((len(nodes), len(dates)), np.nan)
    # argsort of the codes in sorted order maps each code to its position
    panel[np.argsort([labels[k] for k in nodes])[node],
          np.argsort([found[d] for d in dates])[day]] = values[last]
    return TimeSeriesPanel(labels=tuple(nodes), dates=tuple(dates), values=panel)


def _codes(texts: Sequence[str], memo: dict, found: dict, key=None) -> np.ndarray:
    """An int64 code per text.  Each new distinct text is keyed once, by
    ``key`` (the text itself when None), and ``found`` maps each distinct
    key to its code, in order of first sight (it may be ``memo`` itself);
    ``memo`` maps each text to its key's code, -1 where ``key`` raised
    ValueError."""
    for text in dict.fromkeys(texts):
        if text not in memo:
            try:
                memo[text] = found.setdefault(key(text) if key else text, len(found))
            except ValueError:
                memo[text] = -1
    return np.fromiter(map(memo.__getitem__, texts), np.int64, len(texts))


def _floats(cells: Sequence[str]) -> np.ndarray:
    """Every cell by one ``float`` map, an empty one as NaN; where that
    fails, each cell alone, one that is not a number as inf, so that
    ``np.isinf`` marks every bad cell either way."""
    try:
        return np.fromiter(map(float, [text or "nan" for text in cells]), float, len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_inf, cells), float, len(cells))


def _float_or_inf(text: str) -> float:
    try:
        return float(text or "nan")
    except ValueError:
        return math.inf


def _row_error(k, date: str, *cells: str) -> None:
    """Raise ``_RowError(k)`` from the first error of a row: its date, then
    its values in order (an empty cell is missing, an infinite one bad)."""
    try:
        _iso_date(date)
        for text in cells:
            if math.isinf(float(text or "nan")):
                raise ValueError(f"non-finite value {text!r}")
    except ValueError as exc:
        raise _RowError(k) from exc


# ---------------------------------------------------------------------------
# Weekly aggregation
# ---------------------------------------------------------------------------

def weekly_from_cumulative(daily: TimeSeriesPanel,
                           tolerance: float = 0.0) -> TimeSeriesPanel:
    """Weekly incidence from a daily cumulative panel.

    Weeks end on the weekday of the panel's first date: the week-end dates
    are first, first + 7d, first + 14d, ...  Incidence for the first week is
    the first observed value itself; afterwards it is the difference between
    consecutive week-end cumulative values.  A trailing partial week (no
    observation at its end date) is dropped.

    Real feeds contain downward corrections; a decrease beyond ``tolerance``
    (a number >= 0) emits a :class:`DataCorrectionWarning` per node and
    week, week by week and nodes in panel order, and the value is kept as
    reported.
    """
    if not tolerance >= 0:  # also a NaN, which would silence every warning
        raise InvalidInputError(f"tolerance must be a number >= 0, got {tolerance}")
    if not daily.dates:
        raise InvalidInputError("the daily panel has no dates")
    week_ends = _date_grid(daily.dates[0], daily.dates[-1], 7)
    out = np.diff(_columns(daily, week_ends), axis=1, prepend=0.0)
    for w, i in zip(*np.nonzero(out.T < -tolerance)):
        warnings.warn(
            f"cumulative count for node {daily.labels[i]!r} decreased by "
            f"{-out[i, w]:g} in week ending {week_ends[w].isoformat()}; kept as-is",
            DataCorrectionWarning, stacklevel=2)
    return TimeSeriesPanel(labels=daily.labels, dates=week_ends, values=out)


# ---------------------------------------------------------------------------
# Smoothing, differencing, phase splitting
# ---------------------------------------------------------------------------

def rolling_average(panel: TimeSeriesPanel, window: int,
                    interval: tuple[datetime.date, datetime.date]) -> TimeSeriesPanel:
    """Centered moving average inside a date interval; outside untouched.

    The window covers ``window // 2`` points to the left and
    ``(window - 1) // 2`` to the right, truncated at the interval edges.
    A missing value anywhere in the (truncated) window makes the output
    missing.  ``window=1`` is the identity.
    """
    if window < 1:
        raise InvalidInputError("window must be >= 1")
    start, end = interval
    if end < start:
        raise InvalidInputError("interval is reversed")
    cols = [j for j, d in enumerate(panel.dates) if start <= d <= end]
    if not cols:
        raise InvalidInputError("interval does not intersect panel dates")
    if window > len(cols):
        raise InvalidInputError(
            f"window {window} exceeds interval length {len(cols)}")
    left, right = window // 2, (window - 1) // 2
    lo, hi = cols[0], cols[-1]
    out = panel.values.copy()
    for j in cols:
        a = max(lo, j - left)
        b = min(hi, j + right)
        out[:, j] = panel.values[:, a:b + 1].mean(axis=1)
    return TimeSeriesPanel(labels=panel.labels, dates=panel.dates, values=out)


def difference(panel: TimeSeriesPanel, lag: int = 1) -> TimeSeriesPanel:
    """Lag differencing: out[:, t] = values[:, t] - values[:, t - lag].

    Output has T - lag columns (the first ``lag`` dates are dropped) and a
    cell is missing whenever either operand is.
    """
    if lag < 1:
        raise InvalidInputError("lag must be >= 1")
    if lag >= panel.n_times:
        raise InvalidInputError(f"lag {lag} >= panel length {panel.n_times}")
    out = panel.values[:, lag:] - panel.values[:, :-lag]
    return TimeSeriesPanel(labels=panel.labels, dates=panel.dates[lag:], values=out)


def split_phases(panel: TimeSeriesPanel, spec: PhaseSpec) -> TimeSeriesPanel:
    """Restrict a panel to a phase spec, keeping gaps as missing columns.

    The output spans from the first to the last panel date inside the union
    of intervals, on the panel's own (uniform) date grid; grid dates absent
    from the panel are synthesized.  Dates inside an interval carry the
    observed values, dates in the gaps are fully missing.
    """
    inside = [d for d in panel.dates if spec.contains(d)]
    if not inside:
        raise InvalidInputError(
            f"phase spec {spec.name!r} does not intersect panel dates")
    grid = _date_grid(inside[0], inside[-1], _grid_step(panel.dates))
    out = np.where([spec.contains(d) for d in grid], _columns(panel, grid), np.nan)
    return TimeSeriesPanel(labels=panel.labels, dates=grid, values=out)


def _date_grid(first: datetime.date, last: datetime.date, step: int) -> tuple[datetime.date, ...]:
    """first, first + step days, ... up to and including ``last``."""
    return tuple(first + datetime.timedelta(days=k)
                 for k in range(0, (last - first).days + 1, step))


def _columns(panel: TimeSeriesPanel, dates: Sequence[datetime.date]) -> np.ndarray:
    """The panel's columns at ``dates``; a date the panel lacks is an all-NaN column."""
    at = {d: j for j, d in enumerate(panel.dates)}
    padded = np.hstack([panel.values, np.full((panel.n_nodes, 1), np.nan)])
    return padded[:, [at.get(d, -1) for d in dates]]


def _grid_step(dates: Sequence[datetime.date]) -> int:
    """Most common day spacing of the index (the panel's native grid)."""
    if len(dates) < 2:
        return 7
    diffs = [(b - a).days for a, b in zip(dates, dates[1:])]
    return max(set(diffs), key=lambda s: (diffs.count(s), -s))


# ---------------------------------------------------------------------------
# Box-Cox stationarity profiling
# ---------------------------------------------------------------------------

def boxcox_profile(series: Sequence[float],
                   lambda_grid: Optional[Sequence[float]] = None) -> BoxCoxProfile:
    """Gaussian profile log-likelihood of the Box-Cox transform per lambda.

    Differenced incidence can be negative, so the data is shifted by
    (1 - min) whenever min <= 0; the shift is reported on the result.
    ``lambda_hat`` is the grid argmax over the finite log-likelihoods.  Each
    log-likelihood equals scipy 1.17.1's ``scipy.stats.boxcox_llf`` of the
    shifted data bit for bit; it is computed by numpy alone, so it does not
    depend on the installed scipy.
    """
    x = np.asarray(series, dtype=float)
    x = x[~np.isnan(x)]
    if x.size < 3:
        raise InvalidInputError("need at least 3 observed values to profile")
    if lambda_grid is None:
        lambda_grid = np.linspace(-2.0, 3.0, 101)
    grid = tuple(float(v) for v in lambda_grid)
    if not grid or not all(math.isfinite(v) for v in grid):
        raise InvalidInputError("lambda_grid must be non-empty and finite")
    shift = 1.0 - float(x.min()) if x.min() <= 0 else 0.0
    x = x + shift
    if x.min() <= 0:
        raise InvalidInputError("values not strictly positive after shift")
    logx = np.log(x)
    var = np.var(logx)
    if float(var) == 0.0:
        raise UndefinedStatisticError("constant series; the Box-Cox profile is undefined")
    loglik = tuple(_boxcox_loglik(np.asarray(grid), logx, var).tolist())
    return BoxCoxProfile(lambda_grid=grid, loglik=loglik, shift=shift)


# Elements per lambda block of the Box-Cox kernel: its (lambdas x n)
# temporaries stay this small however long the series is.
_BOXCOX_CELLS = 1 << 16


def _boxcox_loglik(lam: np.ndarray, logx: np.ndarray, var) -> np.ndarray:
    """Box-Cox log-likelihood for every lambda from log(x) and var(log x).

    This is scipy 1.17.1's ``boxcox_llf`` batched over lambda.  With
    y = lambda log x, the log variance of the transformed data is
    logsumexp(2 log|e^y - mean e^y|) - log n - 2 log|lambda|, the last term
    from libm's log as in scipy.  Every logsumexp reduces a contiguous row
    as scipy reduces its 1-D array, so each value is the one scipy returns.
    lambda = 0 (and -0.0) uses log(var(log x)).  The lambdas are taken in
    blocks of at most ``_BOXCOX_CELLS`` elements.
    """
    n = logx.size
    log_n = math.log(n)
    logvar = np.full(lam.shape, np.log(var))
    nz = np.flatnonzero(lam != 0)
    step = max(1, _BOXCOX_CELLS // n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, nz.size, step):
            rows = nz[start:start + step]
            y = lam[rows, None] * logx
            logmean = _row_logsumexp(y) - log_n
            logdev = _row_logdiffexp(y, logmean)
            two_log_lam = np.array([2 * math.log(abs(v)) for v in lam[rows].tolist()])
            logvar[rows] = _row_logsumexp(2 * logdev)[:, 0] - log_n - two_log_lam
        return (lam - 1) * np.sum(logx) - n / 2 * logvar


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy's ``logsumexp`` of each row of ``a``, as an (rows, 1) column.

    The row max and its ties (m of them) are taken out; exp(a - max) of the
    rest is summed, and the result is log1p(s / m) + log(m) + max.  A row
    whose result is not finite gets log(sum(exp(a))) instead.
    """
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=1, keepdims=True, dtype=float)
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out[:, 0])
    if bad.any():
        out[bad] = np.log(np.exp(a[bad]).sum(axis=1, keepdims=True))
    return out


def _row_logdiffexp(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """log|exp(y) - exp(c)| elementwise (c is a column), as scipy's signed
    two-term ``logsumexp([y, c], b=[1, -1])``.

    scipy masks the larger term hi out (its exp becomes 0), so the sum is
    +-exp(lo - hi) and the sign count m is +-1, and s / m = -exp(lo - hi);
    the result is log1p(s) + log|m| + hi.  A tie y == c has m = 0 and
    -inf, and every non-finite result falls back to the direct formula.
    """
    c = np.broadcast_to(c, y.shape)
    hi = np.maximum(y, c)
    s = -np.exp(np.minimum(y, c) - hi)
    out = np.log1p(s) + np.where(y == c, -np.inf, 0.0) + hi
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = np.log(np.abs(np.exp(y[bad]) - np.exp(c[bad])))
    return out


# ---------------------------------------------------------------------------
# Wide CSV I/O
# ---------------------------------------------------------------------------

def write_wide_csv(panel: TimeSeriesPanel, path,
                   meta_lines: Iterable[str] = ()) -> None:
    """Write a panel as wide CSV: date column plus one column per node.

    Optional metadata lines are written first, prefixed with ``# ``.
    Missing cells render as empty fields, a label is quoted only where it
    must be, and every line ends in LF.  The file is written atomically.
    """
    _write_csv(path, ["date", *panel.labels],
               ([d.isoformat(), *col] for d, col in zip(panel.dates, panel.values.T.tolist())),
               meta_lines)


def read_wide_csv(stream) -> TimeSeriesPanel:
    """Read a wide CSV written by :func:`write_wide_csv`.

    The header is ``date`` and then one column per node; the dates must be
    strictly increasing.  An empty cell is missing; an infinite value or a
    bad date is an error naming the data row.  As in
    :func:`ingest_long_csv`, the rows are read a block at a time: each
    distinct date is parsed once and the block's values are converted by
    one ``float`` map, with the errors of a loop over the rows.
    """
    days, found = {}, {}    # as in ingest_long_csv

    def block(rows, at, col) -> tuple[list[int], np.ndarray]:
        cells = list(itertools.chain.from_iterable(rows))
        texts = cells[::len(rows[0])]
        cells[::len(rows[0])] = ["0"] * len(rows)     # the dates are parsed apart
        day = _codes(texts, days, found, _iso_date)
        values = _floats(cells).reshape(len(rows), -1)[:, 1:]
        bad = np.flatnonzero((day < 0) | np.isinf(values).any(axis=1))
        if bad.size:
            _row_error(at[bad[0]], *rows[bad[0]])
        return day.tolist(), values

    header, blocks = _read_csv(stream, "header date,<node>,...",
                               lambda header: header[:1] == ["date"] and len(header) > 1, block)
    when = list(found)
    dates = tuple(when[c] for day, _ in blocks for c in day)
    values = np.concatenate([np.empty((0, len(header) - 1)), *(v for _, v in blocks)]).T
    return TimeSeriesPanel(labels=tuple(header[1:]), dates=dates, values=values)


def read_phase_spec_json(path) -> PhaseSpec:
    return _read_json(path, PhaseSpec.from_json,
                      "a phase spec JSON with 'name' and 'intervals'")


def _iso_date(text) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except (TypeError, ValueError):
        raise ValueError(f"bad ISO date {text!r}") from None


def _reject_infinite(labels, values) -> None:
    """Raise on the first node whose row of ``values`` holds +-inf.  A 2-D
    array is checked in one pass, and its rows only to name the node."""
    if isinstance(values, np.ndarray) and not np.isinf(values).any():
        return
    for label, x in zip(labels, values):
        if np.isinf(x).any():
            raise InvalidInputError(
                f"node {label!r} holds infinite values; NaN marks a missing cell")
