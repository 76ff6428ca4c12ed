"""Panel ingestion, aggregation, smoothing, differencing, phases, Box-Cox."""

import datetime
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EPOCH, make_panel, weekly_dates
from oracles import split_phases_loop, weekly_from_cumulative_loop

from gnarlib.errors import DataIntegrityError, InvalidInputError, UndefinedStatisticError
from gnarlib.panel import (
    DataCorrectionWarning,
    PhaseSpec,
    TimeSeriesPanel,
    boxcox_profile,
    difference,
    ingest_long_csv,
    read_wide_csv,
    rolling_average,
    split_phases,
    weekly_from_cumulative,
    write_wide_csv,
)
from gnarlib.panel import _reject_infinite


def daily_panel(values, labels=("a",), start=EPOCH):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dates = tuple(start + datetime.timedelta(days=k) for k in range(values.shape[1]))
    return TimeSeriesPanel(labels=tuple(labels), dates=dates, values=values)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
def test_readers_reject_infinite_values(cell):
    wide = io.StringIO(f"date,a,b\n2020-01-06,1,2\n2020-01-13,{cell},4\n")
    with pytest.raises(InvalidInputError, match=f"data row 2: malformed field "
                                                f"\\(non-finite value '{cell}'\\)"):
        read_wide_csv(wide)
    long = io.StringIO(f"date,node,value\n2020-01-06,a,1\n2020-01-13,a,{cell}\n")
    with pytest.raises(InvalidInputError, match="data row 2: malformed field"):
        ingest_long_csv(long)


def test_reject_infinite_checks_a_clean_array_in_one_pass(monkeypatch):
    # one np.isinf over a 2-D array; the per-node loop runs only to name the node
    calls, isinf = [], np.isinf
    monkeypatch.setattr(np, "isinf", lambda x: calls.append(np.shape(x)) or isinf(x))
    labels, values = [f"n{i:03d}" for i in range(300)], np.zeros((300, 200))
    _reject_infinite(labels, values)
    assert calls == [(300, 200)]
    values[7, 3] = -np.inf
    with pytest.raises(InvalidInputError, match="node 'n007' holds infinite values"):
        _reject_infinite(labels, values)
    assert calls == [(300, 200)] * 2 + [(200,)] * 8


def test_ingest_dense():
    csv = "date,node,value\n2020-01-06,b,1\n2020-01-06,a,2\n" \
          "2020-01-13,a,3\n2020-01-13,b,4\n2020-01-20,a,5\n2020-01-20,b,6\n"
    p = ingest_long_csv(io.StringIO(csv))
    assert p.labels == ("a", "b")
    assert p.n_times == 3
    assert p.values[0, 0] == 2.0 and p.values[1, 2] == 6.0


def test_ingest_missing_cell():
    csv = "date,node,value\n2020-01-06,a,1\n2020-01-06,b,2\n2020-01-13,a,3\n"
    p = ingest_long_csv(io.StringIO(csv))
    assert math.isnan(p.values[1, 1])
    assert np.isnan(p.values).sum() == 1


def test_ingest_conflicting_duplicate():
    csv = "date,node,value\n2020-01-06,a,1\n2020-01-06,a,2\n"
    with pytest.raises(DataIntegrityError, match="2020-01-06"):
        ingest_long_csv(io.StringIO(csv))


def test_ingest_conflicting_duplicate_is_not_a_row_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("date,node,value\n2020-01-06,a,\n2020-01-06,a,\n2020-01-13,a,1\n"
                    "2020-01-06,a,2\n")
    with pytest.raises(DataIntegrityError) as info:
        ingest_long_csv(path)
    assert type(info.value) is DataIntegrityError
    assert str(info.value) == "conflicting duplicate for node 'a' on 2020-01-06: nan vs 2.0"


def test_ingest_duplicates_keep_the_last_equal_value():
    csv = "date,node,value\n2020-01-06,a,0.0\n2020-01-06,a,-0.0\n2020-01-13,a,1\n"
    p = ingest_long_csv(io.StringIO(csv))
    assert math.copysign(1.0, p.values[0, 0]) == -1.0


def test_ingest_exact_duplicate_tolerated():
    csv = "date,node,value\n2020-01-06,a,1\n2020-01-06,a,1\n"
    p = ingest_long_csv(io.StringIO(csv))
    assert p.values[0, 0] == 1.0


# ---------------------------------------------------------------------------
# weekly aggregation
# ---------------------------------------------------------------------------

def test_weekly_two_flat_weeks():
    p = daily_panel([0] * 7 + [7] * 7)
    w = weekly_from_cumulative(p)
    assert w.n_times == 2
    assert list(w.values[0]) == [0.0, 7.0]


def test_weekly_constant_cumulative_gives_zeros():
    p = daily_panel([5.0] * 15)
    w = weekly_from_cumulative(p)
    assert list(w.values[0]) == [5.0, 0.0, 0.0]


def test_weekly_hand_sum():
    # one week of daily increments then flat
    p = daily_panel([0, 1, 3, 6, 10, 15, 21, 28, 28, 28, 28, 28, 28, 28])
    w = weekly_from_cumulative(p)
    assert list(w.values[0]) == [0.0, 28.0]


def test_weekly_total_matches_final_minus_initial():
    rng = np.random.default_rng(0)
    cum = np.cumsum(rng.integers(0, 20, size=29).astype(float))
    p = daily_panel(cum)
    w = weekly_from_cumulative(p)
    # first entry is the baseline value; the incidences after it telescope
    assert w.values[0, 1:].sum() == pytest.approx(cum[28] - cum[0])


def test_weekly_decrease_warns_and_keeps_value():
    p = daily_panel([0] * 7 + [10] * 7 + [3] * 7)
    with pytest.warns(DataCorrectionWarning):
        w = weekly_from_cumulative(p)
    assert list(w.values[0]) == [0.0, 10.0, -7.0]


@pytest.mark.parametrize("tolerance", [-1.0, math.nan])
def test_weekly_rejects_negative_or_nan_tolerance(tolerance):
    # -1 would flag weeks that did not fall, NaN would silence every warning
    with pytest.raises(InvalidInputError, match="tolerance"):
        weekly_from_cumulative(daily_panel([0] * 7 + [10] * 7 + [3] * 7), tolerance=tolerance)


# ---------------------------------------------------------------------------
# rolling average
# ---------------------------------------------------------------------------

def test_rolling_window_one_is_identity():
    p = make_panel([[1.0, 2.0, 3.0, 4.0]])
    out = rolling_average(p, 1, (p.dates[0], p.dates[-1]))
    assert np.array_equal(out.values, p.values)


def test_rolling_constant_series_unchanged():
    p = make_panel([[3.0] * 6])
    out = rolling_average(p, 4, (p.dates[0], p.dates[-1]))
    assert np.allclose(out.values, 3.0)


def test_rolling_hand_example():
    p = make_panel([[0.0, 4.0, 8.0, 4.0, 0.0]])
    out = rolling_average(p, 3, (p.dates[0], p.dates[-1]))
    assert list(out.values[0]) == pytest.approx([2.0, 4.0, 16.0 / 3.0, 4.0, 2.0])


def test_rolling_outside_interval_untouched():
    p = make_panel([[0.0, 4.0, 8.0, 4.0, 0.0]])
    out = rolling_average(p, 3, (p.dates[1], p.dates[3]))
    assert out.values[0, 0] == 0.0 and out.values[0, 4] == 0.0
    assert out.values[0, 2] == pytest.approx(16.0 / 3.0)


def test_rolling_window_exceeds_interval():
    p = make_panel([[1.0, 2.0, 3.0]])
    with pytest.raises(InvalidInputError):
        rolling_average(p, 4, (p.dates[0], p.dates[-1]))


def test_rolling_propagates_missing():
    p = make_panel([[1.0, np.nan, 3.0, 4.0, 5.0]])
    out = rolling_average(p, 3, (p.dates[0], p.dates[-1]))
    assert math.isnan(out.values[0, 0])  # window touches the NaN
    assert math.isnan(out.values[0, 2])
    assert not math.isnan(out.values[0, 4])


# ---------------------------------------------------------------------------
# difference
# ---------------------------------------------------------------------------

def test_difference_constant_is_zero():
    p = make_panel([[2.0] * 5])
    d = difference(p, 1)
    assert np.allclose(d.values, 0.0)


def test_difference_hand_example():
    p = make_panel([[1.0, 3.0, 2.0, 5.0]])
    d = difference(p, 1)
    assert list(d.values[0]) == [2.0, -1.0, 3.0]
    assert d.dates == p.dates[1:]


def test_difference_missing_propagates():
    p = make_panel([[1.0, 2.0, np.nan, 4.0, 5.0]])
    d = difference(p, 1)
    assert math.isnan(d.values[0, 1]) and math.isnan(d.values[0, 2])
    assert d.values[0, 3] == 1.0


def test_difference_twice_shrinks_by_two():
    p = make_panel([np.arange(10.0)])
    dd = difference(difference(p, 1), 1)
    assert dd.n_times == 8
    assert np.allclose(dd.values, 0.0)


def test_difference_lag_too_large():
    p = make_panel([[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        difference(p, 2)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def test_phases_identity_when_covering():
    p = make_panel([np.arange(5.0)])
    spec = PhaseSpec(name="all", intervals=((p.dates[0], p.dates[-1]),))
    out = split_phases(p, spec)
    assert out.dates == p.dates
    assert np.array_equal(out.values, p.values)


def test_phases_gap_becomes_missing_columns():
    p = make_panel([np.arange(8.0)])
    spec = PhaseSpec(name="two", intervals=(
        (p.dates[0], p.dates[2]), (p.dates[5], p.dates[7])))
    out = split_phases(p, spec)
    assert out.n_times == 8
    assert np.isnan(out.values[0, 3]) and np.isnan(out.values[0, 4])
    assert out.values[0, 5] == 5.0


def test_phases_never_leak_values_outside_intervals():
    rng = np.random.default_rng(1)
    p = make_panel(rng.normal(size=(3, 20)))
    spec = PhaseSpec(name="x", intervals=(
        (p.dates[2], p.dates[6]), (p.dates[10], p.dates[12])))
    out = split_phases(p, spec)
    for j, d in enumerate(out.dates):
        inside = spec.contains(d)
        if inside:
            orig = p.dates.index(d)
            assert np.array_equal(out.values[:, j], p.values[:, orig])
        else:
            assert np.isnan(out.values[:, j]).all()


def test_phases_restricted_counts_45_weeks():
    # two intervals shaped like the restricted reporting phases: 25 weekly
    # observations, a gap, then 20 more
    start = datetime.date(2020, 2, 27)
    p = make_panel(np.ones((2, 152)), start=start)
    spec = PhaseSpec(name="restricted", intervals=(
        (datetime.date(2020, 2, 27), datetime.date(2020, 8, 13)),
        (datetime.date(2020, 12, 26), datetime.date(2021, 5, 14)),
    ))
    out = split_phases(p, spec)
    observed_weeks = int((~np.isnan(out.values[0])).sum())
    assert observed_weeks == 45


def test_phases_empty_intersection():
    p = make_panel([[1.0, 2.0]])
    far = (datetime.date(1990, 1, 1), datetime.date(1990, 2, 1))
    with pytest.raises(InvalidInputError):
        split_phases(p, PhaseSpec(name="no", intervals=(far,)))


# ---------------------------------------------------------------------------
# the date grid of weekly aggregation and phase splitting
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def irregular_panels(draw):
    """A cumulative-looking panel on irregularly spaced days: gaps that skip
    week ends, NaN cells, downward corrections and signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 6, 7, 7, 8, 14]), max_size=40))
    start = EPOCH + datetime.timedelta(days=draw(st.integers(0, 6)))
    dates = tuple(start + datetime.timedelta(days=int(k)) for k in np.cumsum([0, *steps]))
    increments = rng.choice([-12.0, -1.0, 0.0, 2.0, 5.0, 9.0], size=(n, len(dates)))
    values = np.cumsum(increments, axis=1)
    values[rng.uniform(size=values.shape) < 0.1] = np.nan
    values[rng.uniform(size=values.shape) < 0.1] = -0.0
    values[rng.uniform(size=values.shape) < 0.1] = 0.0
    return TimeSeriesPanel(labels=tuple(f"n{i}" for i in range(n)), dates=dates, values=values)


def _recorded(func, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = func(*args)
    return out, [(w.category, str(w.message), w.filename) for w in caught]


def _assert_bitwise_equal(got: TimeSeriesPanel, want: TimeSeriesPanel) -> None:
    assert got.labels == want.labels and got.dates == want.dates
    assert np.array_equal(got.values, want.values, equal_nan=True)
    seen = ~np.isnan(want.values)
    assert np.array_equal(np.signbit(got.values[seen]), np.signbit(want.values[seen]))


@PROPERTY
@given(daily=irregular_panels(), tolerance=st.sampled_from([0.0, 0.5, 3.0]))
def test_weekly_from_cumulative_equals_the_loop_oracle(daily, tolerance):
    got, got_warnings = _recorded(weekly_from_cumulative, daily, tolerance)
    want, want_warnings = _recorded(weekly_from_cumulative_loop, daily, tolerance)
    _assert_bitwise_equal(got, want)
    assert got_warnings == want_warnings


@PROPERTY
@given(panel=irregular_panels(), permille=st.lists(st.integers(-20, 1020), max_size=6))
def test_split_phases_equals_the_loop_oracle(panel, permille):
    # interval ends at these thousandths of the panel's span, so that most
    # specs hit some dates and leave gaps between their intervals
    span = (panel.dates[-1] - panel.dates[0]).days
    days = sorted({span * k // 1000 for k in permille})
    intervals = tuple((panel.dates[0] + datetime.timedelta(days=a),
                       panel.dates[0] + datetime.timedelta(days=b))
                      for a, b in zip(days[::2], days[1::2]))
    spec = PhaseSpec(name="p", intervals=intervals)
    if not any(spec.contains(d) for d in panel.dates):
        with pytest.raises(InvalidInputError, match="does not intersect"):
            split_phases(panel, spec)
        return
    got, got_warnings = _recorded(split_phases, panel, spec)
    want, _ = _recorded(split_phases_loop, panel, spec)
    _assert_bitwise_equal(got, want)
    assert got_warnings == []


# ---------------------------------------------------------------------------
# Box-Cox
# ---------------------------------------------------------------------------

def test_boxcox_gaussian_data_prefers_identity():
    # a sizeable coefficient of variation is needed for the profile to be
    # informative about the exponent at all
    rng = np.random.default_rng(2)
    x = rng.normal(10.0, 2.0, size=2000)
    x = x[x > 0.2]
    prof = boxcox_profile(x, np.linspace(-2, 3, 101))
    assert prof.lambda_hat == pytest.approx(1.0, abs=0.25)
    assert prof.shift == 0.0


def test_boxcox_lognormal_data_prefers_log():
    rng = np.random.default_rng(3)
    x = np.exp(rng.normal(0.0, 1.0, size=400))
    prof = boxcox_profile(x, np.linspace(-2, 3, 101))
    assert prof.lambda_hat == pytest.approx(0.0, abs=0.25)


@pytest.mark.parametrize("series", [[5.0] * 10, [0.0, 0.0, 0.0, math.nan]])
def test_boxcox_constant_series_is_undefined(series):
    with pytest.raises(UndefinedStatisticError, match="constant"):
        boxcox_profile(series, [-1.0, 0.0, 1.0])


def test_boxcox_identity_lambda_matches_manual_loglik():
    rng = np.random.default_rng(4)
    x = rng.uniform(1.0, 5.0, size=200)
    prof = boxcox_profile(x, [1.0])
    # at lambda = 1 the transform is x - 1: profile loglik reduces to the
    # Gaussian profile of the untransformed data (zero Jacobian term)
    manual = -0.5 * x.size * math.log(np.var(x))
    assert prof.loglik[0] == pytest.approx(manual, rel=1e-12)


def test_boxcox_shift_reported_for_nonpositive_data():
    x = np.array([-2.0, 0.0, 1.0, 3.0, 5.0])
    prof = boxcox_profile(x, np.linspace(0, 2, 21))
    assert prof.shift == 3.0


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_boxcox_refuses_an_infinite_value(value):
    # it returned a profile with no finite value, behind a numpy warning
    x = np.array([1.0, 2.0, np.nan, value, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"series must be finite, got {value}"):
            boxcox_profile(x)


def test_boxcox_argmax_invariant():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, size=100)
    prof = boxcox_profile(x, np.linspace(-2, 3, 51))
    assert prof.loglik[prof.lambda_grid.index(prof.lambda_hat)] == max(prof.loglik)


def test_boxcox_lambda_hat_skips_nonfinite_loglik():
    # x**2 overflows at lambda = 2: scipy's boxcox_llf is NaN there too
    prof = boxcox_profile(np.sqrt([1.0, 2.0, 3.0]) * 1e170, [1.0, 2.0, 1.5])
    assert math.isnan(prof.loglik[1])
    assert prof.lambda_hat == 1.0
    # lambda * log x collapses to one value: every log-likelihood is +inf
    prof = boxcox_profile(np.random.default_rng(15).uniform(0.7, 1.5, 40), [5e-324, 1e-300])
    assert prof.loglik == (math.inf, math.inf)
    with pytest.raises(UndefinedStatisticError, match="no finite log-likelihood"):
        prof.lambda_hat


@pytest.mark.parametrize("grid", [[], [0.5, math.nan], [-math.inf, 1.0]])
def test_boxcox_rejects_empty_or_nonfinite_grid(grid):
    with pytest.raises(InvalidInputError, match="lambda_grid"):
        boxcox_profile([1.0, 2.0, 3.0, 4.0], grid)


def test_panel_row_unknown_label_is_invalid_input():
    panel = make_panel([[1.0, 2.0], [3.0, 4.0]], labels=["a", "b"])
    assert panel.row("b").tolist() == [3.0, 4.0]
    with pytest.raises(InvalidInputError, match="'zz'"):
        panel.row("zz")


# ---------------------------------------------------------------------------
# panel invariants and I/O
# ---------------------------------------------------------------------------

def test_panel_validation():
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(labels=("a", "a"), dates=weekly_dates(2),
                        values=np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(labels=("a",), dates=(EPOCH, EPOCH),
                        values=np.zeros((1, 2)))
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(labels=("a",), dates=weekly_dates(3),
                        values=np.zeros((1, 2)))


def test_panel_values_immutable():
    p = make_panel([[1.0, 2.0]])
    with pytest.raises(ValueError):
        p.values[0, 0] = 9.0


def test_wide_csv_roundtrip(tmp_path):
    p = make_panel([[1.0, np.nan, 3.5], [0.25, -1.0, np.nan]], labels=("a", "b"))
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path, meta_lines=["check=1"])
    q = read_wide_csv(str(path))
    assert q.labels == p.labels
    assert q.dates == p.dates
    assert np.array_equal(np.isnan(q.values), np.isnan(p.values))
    assert np.allclose(q.values[~np.isnan(q.values)], p.values[~np.isnan(p.values)])


@pytest.mark.parametrize("label", ["a\rb", "a\nb", "a\r\nb"])
def test_wide_csv_roundtrip_of_labels_with_line_breaks(tmp_path, label):
    # csv quotes a field holding LF on its own; a bare CR must be quoted too
    p = make_panel([[1.0, 2.0], [3.0, np.nan]], labels=(label, "c"))
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path, meta_lines=["check=1"])
    assert path.read_bytes().startswith(b'# check=1\ndate,"' + label.encode() + b'",c\n')
    q = read_wide_csv(str(path))
    assert q.labels == p.labels and q.dates == p.dates
    assert np.array_equal(q.values, p.values, equal_nan=True)


def test_wide_csv_roundtrip_of_a_label_whose_second_line_starts_with_hash(tmp_path):
    # only the lines before the header are metadata: a quoted label's own
    # line that starts with '#' is data
    p = make_panel([[1.0, 2.0], [3.0, np.nan]], labels=("a\n#b", "c"))
    path = tmp_path / "panel.csv"
    write_wide_csv(p, path, meta_lines=["check=1"])
    q = read_wide_csv(str(path))
    assert q.labels == p.labels and q.dates == p.dates
    assert np.array_equal(q.values, p.values, equal_nan=True)
