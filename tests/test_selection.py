"""Order grid, Schwert's rule, BIC search, AR baseline."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_panel, ring_graph
from oracles import ar_baseline_loop

from gnarlib import geo_graph, gnar_core, selection
from gnarlib.errors import (
    InsufficientDataError,
    InvalidInputError,
    SelectionFailedError,
    SingularDesignError,
)
from gnarlib.gnar_core import GnarOrder, GnarSpec, WeightScheme, fit, simulate
from gnarlib.selection import (
    BETA_CATALOGUE,
    OrderGrid,
    ar_rolling_forecast,
    fit_ar_baseline,
    order_grid,
    schwert_max_lag,
    select_model,
)


# ---------------------------------------------------------------------------
# Schwert's rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T,expected", [(18, 7), (100, 12), (45, 9)])
def test_schwert_rule(T, expected):
    assert schwert_max_lag(T) == expected


def test_schwert_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        schwert_max_lag(0)


# ---------------------------------------------------------------------------
# order grid
# ---------------------------------------------------------------------------

def test_grid_single_lag():
    grid = order_grid(1, 5)
    assert [c.s for c in grid] == [(1,), (2,), (3,), (4,), (5,)]


def test_grid_zero_padding_present():
    grid = order_grid(5, 5)
    vectors = {c.s for c in grid}
    assert (1, 1, 1, 1, 0) in vectors
    assert (1, 0, 0, 0, 0) in vectors


def test_grid_candidates_satisfy_invariants():
    grid = order_grid(4, 3)
    for c in grid:
        assert c.p == len(c.s) <= 4
        assert all(0 <= v <= 3 for v in c.s)


def test_grid_filters_by_stage_cap():
    grid = order_grid(2, 1)
    vectors = {c.s for c in grid}
    assert vectors == {(1,), (1, 0), (1, 1)}


def test_grid_deterministic_and_deduplicated():
    a = order_grid(5, 5)
    b = order_grid(5, 5)
    assert [c.s for c in a] == [c.s for c in b]
    assert len({c.s for c in a}) == len(a)


def test_grid_covers_catalogue_lengths():
    assert {len(v) for v in BETA_CATALOGUE} == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# select_model
# ---------------------------------------------------------------------------

def sim_panel(order, alpha, beta, g, T, sigma, seed):
    spec = GnarSpec(order=order, scheme=WeightScheme("spl"))
    return simulate(spec, alpha, beta, g, T=T, sigma=sigma, seed=seed)


def test_select_single_candidate():
    g = ring_graph(6)
    panel = sim_panel(GnarOrder(1, (1,)), np.array([0.3]), [np.array([0.3])],
                      g, 120, 0.5, 3)
    grid = OrderGrid(candidates=(GnarOrder(1, (1,)),), p_max=1, s_max=1)
    report = select_model(panel, g, WeightScheme("spl"), grid)
    assert report.best.order == GnarOrder(1, (1,))


def test_select_ranking_consistent_with_criteria():
    g = ring_graph(8)
    panel = sim_panel(GnarOrder(2, (1, 0)), np.array([0.3, -0.2]),
                      [np.array([0.3]), np.array([])], g, 300, 0.4, 5)
    report = select_model(panel, g, WeightScheme("spl"), order_grid(3, 2))
    ranked = report.ranked()
    for c in ranked:
        assert c.bic == pytest.approx(
            c.M * math.log(c.n_obs) - 2 * c.loglik, rel=1e-12)
        assert c.bic - c.aic == pytest.approx(
            c.M * (math.log(c.n_obs) - 2), rel=1e-12)
    assert all(ranked[i].bic <= ranked[i + 1].bic for i in range(len(ranked) - 1))


def test_select_recovers_true_order_single_seed():
    g = ring_graph(10)
    true_order = GnarOrder(2, (1, 0))
    panel = sim_panel(true_order, np.array([0.4, -0.25]),
                      [np.array([0.3]), np.array([])], g, 500, 0.3, 42)
    report = select_model(panel, g, WeightScheme("spl"), order_grid(3, 2))
    assert report.best.order == true_order


def test_select_inadmissible_candidate_does_not_change_ranking():
    g = ring_graph(10)  # diameter 5: stage 6 is empty everywhere
    panel = sim_panel(GnarOrder(1, (1,)), np.array([0.3]), [np.array([0.3])],
                      g, 200, 0.5, 9)
    grid = order_grid(2, 2)
    base = select_model(panel, g, WeightScheme("spl"), grid)
    extended = OrderGrid(candidates=grid.candidates + (GnarOrder(1, (6,)),),
                         p_max=2, s_max=6)
    augmented = select_model(panel, g, WeightScheme("spl"), extended)
    assert [c.order for c in base.ranked()] == [c.order for c in augmented.ranked()]
    bad = [c for c in augmented.candidates if c.status != "ok"]
    assert len(bad) == 1 and bad[0].order == GnarOrder(1, (6,))


def test_select_white_noise_coefficients_near_zero():
    rng = np.random.default_rng(71)
    g = ring_graph(10)
    panel = make_panel(rng.normal(size=(10, 300)), labels=g.labels)
    report = select_model(panel, g, WeightScheme("spl"), order_grid(2, 2))
    best = report.best.fit
    for value, se in zip(best.gamma, best.gamma_se):
        assert abs(value) <= 3.0 * se


@pytest.mark.parametrize("global_alpha", [True, False])
def test_selection_builds_a_fit_only_when_it_is_read(monkeypatch, global_alpha):
    g = ring_graph(8)
    values = sim_panel(GnarOrder(2, (1, 0)), np.array([0.3, -0.2]),
                       [np.array([0.3]), np.array([])], g, 80, 0.5, 13).values.copy()
    values[2, [10, 31]] = values[5, 47] = np.nan  # masks differ within one lag order
    panel = make_panel(values, labels=g.labels)
    reports = []
    real = gnar_core._report
    monkeypatch.setattr(gnar_core, "_report", lambda *a, **k: reports.append(1) or real(*a, **k))
    report = select_model(panel, g, WeightScheme("spl"), order_grid(3, 2),
                          global_alpha=global_alpha)
    assert reports == []
    best = report.best.fit
    assert len(reports) == 1 and best.residuals.shape == (8, 80)
    assert report.best.fit is best and len(reports) == 1
    alone = fit(panel, g, GnarSpec(report.best.order, global_alpha, WeightScheme("spl")))
    assert np.array_equal(best.gamma, alone.gamma)
    assert np.array_equal(best.residuals, alone.residuals, equal_nan=True)
    assert (best.bic, best.n_obs, best.M) == (alone.bic, alone.n_obs, alone.M)


def test_select_all_fail_raises():
    g = ring_graph(4)
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 30)),
                       labels=g.labels)
    grid = OrderGrid(candidates=(GnarOrder(1, (4,)),), p_max=1, s_max=4)
    with pytest.raises(SelectionFailedError):
        select_model(panel, g, WeightScheme("spl"), grid)


def test_saturated_candidate_is_skipped_as_insufficient():
    # GNAR(3,[1,0,0]) has as many rows as parameters on four dates: its RSS is
    # rounding noise, and its BIC (about -269) would rank first
    g = ring_graph(4)
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 4)), labels=g.labels)
    report = select_model(panel, g, WeightScheme("uniform"), order_grid(3, 1))
    saturated = next(c for c in report.candidates if c.order == GnarOrder(3, (1, 0, 0)))
    assert (saturated.status, saturated.reason) == ("insufficient", "4 rows <= 4 parameters")
    assert report.best.order == GnarOrder(2, (1, 0))
    assert all(c.n_obs > c.M for c in report.ranked())


def spy_search(monkeypatch):
    """Record each call of the search solve (the orders passed and the ones
    it served, not refused) and each order the standalone fit runs for."""
    searches, fits = [], []

    def search_solve(planes, specs, labels):
        solved = gnar_core._search_solve(planes, specs, labels)
        orders = [spec.order for spec in specs]
        served = {order for order, s in solved.items() if not isinstance(s, Exception)}
        searches.append((orders, served & set(orders)))
        return solved

    def fit_planes(planes, spec, *args):
        fits.append(spec.order)
        return gnar_core._fit_planes(planes, spec, *args)

    monkeypatch.setattr(selection, "_search_solve", search_solve)
    monkeypatch.setattr(selection, "_fit_planes", fit_planes)
    return searches, fits


@pytest.mark.parametrize("global_alpha", [True, False])
def test_every_candidate_with_enough_rows_is_solved_in_its_group(monkeypatch, global_alpha):
    searches, fits = spy_search(monkeypatch)
    g = ring_graph(6)
    panel = sim_panel(GnarOrder(1, (1,)), np.array([0.3]), [np.array([0.3])], g, 60, 0.5, 4)
    report = select_model(panel, g, WeightScheme("spl"), order_grid(3, 1),
                          global_alpha=global_alpha)
    served = set().union(*(orders for _, orders in searches))
    assert GnarOrder(1, (1,)) in served       # alone in its lag order: a group of one
    assert {c.order for c in report.ranked()} <= served
    assert len(report.ranked()) == len(report.candidates) == 6
    assert fits == []
    best = report.best.fit
    assert fits == [report.best.order] and best.bic == pytest.approx(report.best.bic, rel=1e-14)

    # on the saturated-fit reproducer, the search refuses the insufficient
    # candidates itself: none takes the standalone fit
    searches.clear()
    fits.clear()
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 4)), labels=ring_graph(4).labels)
    report = select_model(panel, ring_graph(4), WeightScheme("uniform"), order_grid(3, 1),
                          global_alpha=global_alpha)
    insufficient = [c.order for c in report.candidates if c.status == "insufficient"]
    assert insufficient and fits == []
    assert {c.order for c in report.ranked()} <= set().union(*(o for _, o in searches))


@pytest.mark.parametrize("global_alpha, factorisations", [(True, {"qr": 3, "inv": 1}),
                                                          (False, {"qr": 4, "inv": 2})])
def test_a_search_factorises_as_often_for_two_groups_as_for_eight(monkeypatch, global_alpha,
                                                                  factorisations):
    # dense: the common rows, the group batch, the subset batch, and one R^-1;
    # node-specific: the common rows per node, the group batch and its stacked
    # R_B, the subset batch, and R^-1 beside the per-node R_A^-1
    g = ring_graph(26)
    panel = make_panel(np.random.default_rng(9).normal(size=(26, 60)), labels=g.labels)
    _, fits = spy_search(monkeypatch)
    for grid, n_groups in ((order_grid(2, 1), 2), (order_grid(8, 1), 8)):
        calls = dict.fromkeys(factorisations, 0)
        qr_shapes = []
        with monkeypatch.context() as m:
            for name in calls:
                def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                    calls[_name] += 1
                    if _name == "qr":
                        qr_shapes.append(np.shape(a))
                    return _real(a, *args, **kwargs)
                m.setattr(np.linalg, name, counted)
            report = select_model(panel, g, WeightScheme("uniform"), grid,
                                  global_alpha=global_alpha)
        # the group batch is the one 4-D QR input, one entry per group
        assert [s[0] for s in qr_shapes if len(s) == 4] == [n_groups] and fits == []
        assert all(c.status == "ok" for c in report.candidates)
        assert calls == factorisations


@pytest.mark.parametrize("global_alpha", [True, False])
def test_candidates_whose_grouped_rank_is_in_doubt_keep_their_standalone_fit(monkeypatch,
                                                                             global_alpha):
    # a huge margin puts every candidate of the search solve in doubt: each then takes
    # the standalone fit (and its pivoted QR), which must rank them alike
    g = ring_graph(6)
    values = sim_panel(GnarOrder(2, (1, 0)), np.array([0.3, -0.2]),
                       [np.array([0.3]), np.array([])], g, 60, 0.5, 8).values.copy()
    values[1, [9, 30]] = np.nan
    panel = make_panel(values, labels=g.labels)
    args = (panel, g, WeightScheme("spl"), order_grid(3, 1))
    grouped = select_model(*args, global_alpha=global_alpha)
    searches, fits = spy_search(monkeypatch)
    monkeypatch.setattr(gnar_core, "_RANK_MARGIN", 1e30)
    doubted = select_model(*args, global_alpha=global_alpha)
    assert searches and all(served == set() for _, served in searches)
    assert sorted(fits, key=str) == sorted((c.order for c in grouped.candidates), key=str)
    assert [c.order for c in doubted.ranked()] == [c.order for c in grouped.ranked()]
    assert len(grouped.ranked()) == len(grouped.candidates) == 6
    for a, b in zip(doubted.candidates, grouped.candidates):
        assert (a.order, a.status, a.M, a.n_obs) == (b.order, b.status, b.M, b.n_obs)
        assert a.bic == pytest.approx(b.bic, rel=1e-12, abs=0)


def refusal_case(kind):
    """The saturated-fit reproducer, a panel of three dates (no longer than
    p = 3), or a ring panel with one node observed in runs of three dates
    (fewer rows than p = 3, enough for p = 1 and 2)."""
    if kind in ("saturated", "three_dates"):
        g = ring_graph(4)
        T = 4 if kind == "saturated" else 3
        return g, make_panel(np.random.default_rng(0).normal(size=(4, T)), labels=g.labels)
    g = ring_graph(5)
    values = np.random.default_rng(11).normal(size=(5, 30))
    values[2, np.arange(30) % 5 >= 3] = np.nan
    return g, make_panel(values, labels=g.labels)


@pytest.mark.parametrize("kind", ["saturated", "three_dates", "short"])
@pytest.mark.parametrize("global_alpha", [True, False])
def test_the_search_solve_refuses_short_candidates_up_front(monkeypatch, kind, global_alpha):
    # the orders the search solve leaves unserved are exactly those with no more
    # rows than parameters and, for node-specific alpha, those in which a node has
    # fewer rows than p; the search refuses each with the standalone fit's
    # verdict, and no standalone fit runs for them
    g, panel = refusal_case(kind)
    scheme = WeightScheme("uniform")
    stages = geo_graph.stage_neighbourhoods(g, 1)
    weights = gnar_core.compute_weights(g, stages, scheme)
    searches, fits = spy_search(monkeypatch)
    report = select_model(panel, g, scheme, order_grid(3, 1), global_alpha=global_alpha)
    [(passed, served)] = searches
    refused = []
    for order in passed:
        spec = GnarSpec(order, global_alpha, scheme)
        try:
            design, _, rows = gnar_core.build_design(panel, spec, weights, stages)
        except InsufficientDataError:       # T <= p
            refused.append(order)
            continue
        per_node = np.bincount([i for i, _ in rows], minlength=g.n)
        if len(rows) <= design.shape[1] or (not global_alpha and per_node.min() < order.p):
            refused.append(order)
    assert set(passed) - served == set(refused)
    assert fits == [] and (refused or (kind, global_alpha) == ("short", True))
    for c in report.candidates:
        if c.order in refused:
            try:
                alone = fit(panel, g, GnarSpec(c.order, global_alpha, scheme))
            except (InsufficientDataError, SingularDesignError) as exc:
                assert (c.status, c.reason) == (selection._SKIP_STATUS[type(exc)], str(exc))
            else:
                assert (c.status, c.bic, c.n_obs, c.M) == ("ok", alone.bic, alone.n_obs, alone.M)


# ---------------------------------------------------------------------------
# AR baseline
# ---------------------------------------------------------------------------

def test_ar_baseline_recovers_ar1():
    hits = 0
    phis = []
    for seed in range(25):
        rng = np.random.default_rng(2000 + seed)
        x = np.zeros(1000)
        for t in range(1, 1000):
            x[t] = 0.6 * x[t - 1] + rng.normal()
        panel = make_panel(x[None, :])
        res = fit_ar_baseline(panel, 4)["n00"]
        assert res.status == "ok"
        if res.order == 1:
            hits += 1
            phis.append(res.coefficients[0])
    assert hits >= 20
    assert np.mean(phis) == pytest.approx(0.6, abs=0.05)


def test_ar_baseline_constant_series_flagged():
    panel = make_panel(np.vstack([np.ones(50), np.random.default_rng(1).normal(size=50)]))
    res = fit_ar_baseline(panel, 3)
    assert res["n00"].status == "degenerate"
    assert res["n01"].status == "ok"


@pytest.mark.parametrize("value", [0.1, 1 / 3, 5.0])
def test_ar_baseline_non_integer_constant_is_degenerate(value):
    # the standard deviation of 50 copies of 0.1 or 1/3 is a rounding residue,
    # not 0; a constant series must still be flagged, not fitted as AR(1)
    panel = make_panel(np.vstack([np.full(50, value), np.random.default_rng(4).normal(size=50)]))
    res = fit_ar_baseline(panel, 3)
    assert res["n00"].status == "degenerate"
    assert res["n01"].status == "ok"
    assert ar_baseline_loop(panel, 3)["n00"].status == "degenerate"


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_ar_baseline_rejects_infinite_values(value, capfd):
    x = np.random.default_rng(3).normal(size=(3, 40))
    x[2, 11] = value
    with pytest.raises(InvalidInputError, match="node 'n02' holds infinite values"):
        fit_ar_baseline(make_panel(x), 3)
    assert capfd.readouterr().err == ""


def test_ar_baseline_short_series_flagged():
    panel = make_panel(np.random.default_rng(2).normal(size=(1, 5)))
    res = fit_ar_baseline(panel, 6)
    assert res["n00"].status == "degenerate"


def test_ar_baseline_bic_convention_matches_network_model():
    rng = np.random.default_rng(73)
    x = np.zeros(300)
    for t in range(1, 300):
        x[t] = 0.5 * x[t - 1] + rng.normal()
    panel = make_panel(x[None, :], labels=("a",))
    res = fit_ar_baseline(panel, 1)["a"]
    # identical Gaussian-likelihood convention as the network fits
    loglik = -0.5 * res.n_obs * (math.log(2 * math.pi * res.sigma2) + 1)
    assert res.bic == pytest.approx(res.order * math.log(res.n_obs) - 2 * loglik)


def test_ar_rolling_forecast_hand_check():
    from gnarlib.selection import ArNodeResult

    res = ArNodeResult(label="x", status="ok", order=1, coefficients=(0.5,),
                       sigma2=1.0, bic=0.0, n_obs=10)
    history = np.array([1.0, 2.0, 4.0, 8.0])
    preds = ar_rolling_forecast(res, history, 2)
    assert list(preds) == [1.0, 2.0]


@pytest.mark.parametrize("history, horizon, match", [
    (np.arange(6.0), 0, "horizon must be >= 1"),
    (np.arange(6.0), -1, "horizon must be >= 1"),
    (np.arange(12.0).reshape(2, 6), 2, "history must be a 1-D array"),
    (np.float64(3.0), 1, "history must be a 1-D array"),
], ids=["horizon-0", "horizon-negative", "history-2d", "history-0d"])
def test_ar_rolling_forecast_rejects_bad_input(history, horizon, match):
    from gnarlib.selection import ArNodeResult

    res = ArNodeResult(label="x", status="ok", order=1, coefficients=(0.5,),
                       sigma2=1.0, bic=0.0, n_obs=10)
    with pytest.raises(InvalidInputError, match=match):
        ar_rolling_forecast(res, history, horizon)


@st.composite
def ar_panels(draw):
    """A panel with random NaN cells and an all-NaN block of dates, maybe one
    constant node and maybe one short node (observed on its last few dates only)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, T = draw(st.integers(1, 8)), draw(st.integers(3, 40))
    values = rng.normal(size=(n, T))
    values[rng.uniform(size=(n, T)) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = np.nan
    start = draw(st.integers(0, T - 1))
    values[:, start:start + draw(st.integers(1, 4))] = np.nan
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        values[i] = np.where(np.isnan(values[i]), np.nan, draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1)), :-draw(st.integers(1, 8))] = np.nan
    return make_panel(values), draw(st.integers(1, 5))


def assert_ar_equals_oracle(got, want):
    assert list(got) == list(want)
    for label, w in want.items():
        g = got[label]
        assert (g.status, g.order, g.n_obs) == (w.status, w.order, w.n_obs), label
        np.testing.assert_allclose(g.coefficients, w.coefficients, rtol=1e-12,
                                   atol=1e-12 * np.abs(w.coefficients, dtype=float).max(initial=0))
        assert g.sigma2 == pytest.approx(w.sigma2, rel=1e-12, nan_ok=True)
        assert g.bic == pytest.approx(w.bic, rel=1e-12, nan_ok=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ar_panels())
def test_ar_baseline_equals_the_loop_oracle(case):
    panel, p_max = case
    assert_ar_equals_oracle(fit_ar_baseline(panel, p_max), ar_baseline_loop(panel, p_max))


def test_ar_baseline_takes_one_fit_per_lag_order(monkeypatch):
    """One fit of all nodes per lag order, through the same solve as every
    GNAR fit and never lstsq; only an order whose fit is refused fits each
    node alone, and only the node that refuses it loses that order."""
    x = np.random.default_rng(5).normal(size=(26, 60))
    x[7] = 0.5 ** np.arange(60)    # x[t-2] = 2 x[t-1] exactly: collinear lags from p = 2
    clean, geometric = make_panel(np.delete(x, 7, axis=0)), make_panel(x)
    want_clean, want_geometric = ar_baseline_loop(clean, 3), ar_baseline_loop(geometric, 3)
    calls, refused = [], []

    def fit_planes(planes, spec, *args):
        nodes = ("all" if planes.shape[2] > 1
                 else int(np.flatnonzero((x == planes[0, :, 0]).all(axis=1))[0]))
        calls.append((spec.order.p, nodes))
        try:
            return gnar_core._fit_planes(planes, spec, *args)
        except SingularDesignError:
            refused.append((spec.order.p, nodes))
            raise

    monkeypatch.setattr(selection, "_fit_planes", fit_planes)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq was called"))

    assert_ar_equals_oracle(fit_ar_baseline(clean, 3), want_clean)
    assert calls == [(1, "all"), (2, "all"), (3, "all")] and refused == []

    calls.clear()
    got = fit_ar_baseline(geometric, 3)
    assert calls == [(1, "all")] + [c for p in (2, 3) for c in [(p, "all")]
                                    + [(p, i) for i in range(26)]]
    assert refused == [(2, "all"), (2, 7), (3, "all"), (3, 7)]
    assert ([(r.status, r.order, r.n_obs) for r in got.values()]
            == [(r.status, r.order, r.n_obs) for r in want_geometric.values()])
    assert got["n07"].order == 1

    calls.clear()
    assert {r.status for r in fit_ar_baseline(geometric, 10**9).values()} == {"degenerate"}
    assert calls == []


def test_gnar_beats_ar_when_network_effect_exists():
    # single-seed variant of the acceptance comparison
    g = ring_graph(10)
    order = GnarOrder(1, (1,))
    spec = GnarSpec(order=order, scheme=WeightScheme("spl"))
    panel = simulate(spec, np.array([0.2]), [np.array([0.5])], g, T=300,
                     sigma=1.0, seed=77)
    h = 5
    from gnarlib.panel import TimeSeriesPanel

    train = TimeSeriesPanel(labels=panel.labels, dates=panel.dates[:-h],
                            values=panel.values[:, :-h])
    from gnarlib.gnar_core import forecast

    gf = fit(train, g, spec)
    g_preds = forecast(gf, panel, h, mode="rolling_one_step")
    ar = fit_ar_baseline(train, 3)
    a_preds = np.vstack([ar_rolling_forecast(ar[lbl], panel.values[i], h)
                         for i, lbl in enumerate(panel.labels)])
    actual = panel.values[:, -h:]
    mse_gnar = float(np.mean((actual - g_preds) ** 2))
    mse_ar = float(np.mean((actual - a_preds) ** 2))
    assert mse_gnar < mse_ar
