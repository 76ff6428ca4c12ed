"""Property tests of the stacked design and the single-QR solve.

Random connected graphs with random missing cells, whole missing columns,
global or node-specific alpha and uniform or distance weights; every
vectorised path is checked against the loop oracles in ``oracles.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_connected_graph, ring_graph
from oracles import gnar_design_bruteforce, normal_equations_solve

from gnarlib import selection
from gnarlib.errors import (
    InsufficientDataError,
    ModelInadmissibleError,
    SelectionFailedError,
    SingularDesignError,
)
from gnarlib.geo_graph import build_complete, stage_neighbourhoods
from gnarlib.gnar_core import (
    GnarOrder,
    GnarSpec,
    WeightScheme,
    _gaussian_criteria,
    build_design,
    compute_weights,
    fit,
    fit_egls,
    fit_ols,
)
from gnarlib.selection import OrderGrid, order_grid, select_model

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
R_MAX = 2
_SKIP_ERRORS = {"inadmissible": ModelInadmissibleError, "singular": SingularDesignError,
                "insufficient": InsufficientDataError}


@st.composite
def cases(draw):
    """A graph, a panel with holes, a weight scheme and one model order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 7))
    g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 3)))
    T = draw(st.integers(4, 24))
    values = rng.normal(size=(n, T))
    values[rng.uniform(size=(n, T)) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = np.nan
    for t in draw(st.lists(st.integers(0, T - 1), max_size=2)):
        values[:, t] = np.nan                      # whole missing columns
    if draw(st.booleans()):
        d = rng.uniform(10.0, 500.0, size=(n, n))
        scheme = WeightScheme("idw", dist_km=(d + d.T) / 2.0)
    else:
        scheme = WeightScheme("uniform")
    p = draw(st.integers(1, 3))
    s = tuple(draw(st.lists(st.integers(0, R_MAX), min_size=p, max_size=p)))
    spec = GnarSpec(order=GnarOrder(p, s), global_alpha=draw(st.booleans()), scheme=scheme)
    return g, make_panel(values, labels=g.labels), spec


def _weights(g, scheme):
    stages = stage_neighbourhoods(g, R_MAX)
    return stages, compute_weights(g, stages, scheme)


def _admissible(stages, order):
    return all(stages.stage(i, r) for sj in order.s for r in range(1, sj + 1)
               for i in range(len(stages.stages)))


def _fitted(g, panel, spec):
    """(design, response, rows, OLS fit), or None where no full-rank fit exists."""
    stages, weights = _weights(g, spec.scheme)
    try:
        D, y, rows = build_design(panel, spec, weights, stages)
        f = fit_ols(D, y, spec, panel.n_nodes, panel.n_times, row_index=rows,
                    labels=panel.labels, weight_set=weights)
    except (ModelInadmissibleError, InsufficientDataError, SingularDesignError):
        return None
    return D, y, rows, f


@PROPERTY
@given(cases())
def test_build_design_equals_bruteforce_oracle(case):
    g, panel, spec = case
    stages, weights = _weights(g, spec.scheme)
    order = spec.order
    if not _admissible(stages, order):
        with pytest.raises(ModelInadmissibleError):
            build_design(panel, spec, weights, stages)
        return
    sets = [[set(weights.stage_weights(i, r)) for r in range(1, R_MAX + 1)]
            for i in range(g.n)]
    wdicts = [[weights.stage_weights(i, r) for r in range(1, R_MAX + 1)]
              for i in range(g.n)]
    Do, yo, rows_o = gnar_design_bruteforce(panel.values, order.p, order.s, sets,
                                            wdicts, global_alpha=spec.global_alpha)
    if not rows_o:
        with pytest.raises(InsufficientDataError):
            build_design(panel, spec, weights, stages)
        return
    D, y, rows = build_design(panel, spec, weights, stages)
    assert rows == rows_o
    assert D.shape == Do.shape
    np.testing.assert_allclose(D, Do, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(y, yo)


@PROPERTY
@given(cases())
def test_selection_candidates_equal_standalone_fits(case):
    g, panel, spec = case
    grid = order_grid(2, R_MAX)
    try:
        report = select_model(panel, g, spec.scheme, grid, global_alpha=spec.global_alpha)
    except SelectionFailedError:
        for order in grid:          # nothing fitted: every standalone fit fails too
            with pytest.raises((ModelInadmissibleError, SingularDesignError,
                                InsufficientDataError)):
                fit(panel, g, GnarSpec(order=order, global_alpha=spec.global_alpha,
                                       scheme=spec.scheme))
        return
    for c in report.candidates:
        cand = GnarSpec(order=c.order, global_alpha=spec.global_alpha, scheme=spec.scheme)
        if c.status != "ok":
            with pytest.raises((ModelInadmissibleError, SingularDesignError,
                                InsufficientDataError)):
                fit(panel, g, cand)
            continue
        alone = fit(panel, g, cand)
        np.testing.assert_allclose(c.fit.gamma, alone.gamma, rtol=1e-12, atol=1e-12)
        assert c.bic == pytest.approx(alone.bic, rel=1e-12, abs=1e-9)
        assert c.n_obs == alone.n_obs and c.M == alone.M


@st.composite
def missing_cell_panels(draw):
    """A graph, a scheme and a panel whose missing cells differ between
    stage sums, so that candidates of one lag order keep different rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 7))
    g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 3)))
    T = draw(st.integers(8, 30))
    values = rng.normal(size=(n, T))
    values[rng.uniform(size=(n, T)) < draw(st.sampled_from([0.0, 0.02, 0.05, 0.1]))] = np.nan
    for t in draw(st.lists(st.integers(0, T - 1), max_size=2)):
        values[:, t] = np.nan
    if draw(st.booleans()):
        d = rng.uniform(10.0, 500.0, size=(n, n))
        scheme = WeightScheme("idw", dist_km=(d + d.T) / 2.0)
    else:
        scheme = WeightScheme("uniform")
    return g, make_panel(values, labels=g.labels), scheme


@PROPERTY
@given(missing_cell_panels())
@pytest.mark.parametrize("global_alpha", [True, False])
def test_grouped_selection_equals_standalone_fits_with_missing_cells(global_alpha, case):
    g, panel, scheme = case
    grid = order_grid(3, R_MAX)
    grouped, real = {}, selection._search_solve

    def spy(*args):
        out = real(*args)
        grouped.update((o, s) for o, s in out.items() if not isinstance(s, Exception))
        return out

    with mock.patch.object(selection, "_search_solve", spy):
        try:
            report = select_model(panel, g, scheme, grid, global_alpha=global_alpha)
        except SelectionFailedError:
            report = None
    alone = {}
    for order in grid:
        try:
            alone[order] = fit(panel, g, GnarSpec(order, global_alpha, scheme))
        except (ModelInadmissibleError, SingularDesignError, InsufficientDataError) as exc:
            alone[order] = exc
    if report is None:
        assert all(isinstance(a, Exception) for a in alone.values())
        return
    for c in report.candidates:
        a = alone[c.order]
        if c.status != "ok":
            assert isinstance(a, _SKIP_ERRORS[c.status]) and str(a) == c.reason
            continue
        assert (c.M, c.n_obs) == (a.M, a.n_obs)
        assert c.bic == pytest.approx(a.bic, rel=1e-12, abs=0)
    standalone = sorted((a for a in alone.values() if not isinstance(a, Exception)),
                        key=lambda a: (a.bic, a.M, (a.spec.order.p, a.spec.order.s)))
    assert [c.order for c in report.ranked()] == [a.spec.order for a in standalone]
    stages, weights = _weights(g, scheme)
    for order, (gamma, _, _, _) in grouped.items():
        a = alone[order]
        scale = max(1.0, float(np.max(np.abs(a.gamma))))
        assert np.max(np.abs(gamma - a.gamma)) <= 1e-12 * scale
        D, y, _ = build_design(panel, a.spec, weights, stages)
        if np.linalg.cond(D) <= 30.0:
            oracle = normal_equations_solve(D, y)
            assert np.max(np.abs(gamma - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("global_alpha", [True, False])
def test_group_solve_serves_every_grouped_candidate_of_a_clean_panel(global_alpha):
    # a group whose stacked R came out singular would send every candidate to
    # the standalone fit, and the search would still rank them the same
    g = ring_graph(7)
    panel = make_panel(np.random.default_rng(5).normal(size=(7, 40)), labels=g.labels)
    calls, real = [], selection._search_solve

    def spy(planes, specs, labels):
        out = real(planes, specs, labels)
        calls.append(({o for o, s in out.items() if not isinstance(s, Exception)},
                      {spec.order for spec in specs}))
        return out

    with mock.patch.object(selection, "_search_solve", spy):
        select_model(panel, g, WeightScheme("uniform"), order_grid(3, R_MAX),
                     global_alpha=global_alpha)
    assert calls and all(served == grouped for served, grouped in calls)


# group unions that do not nest: stage 3 at lag 1 beside stages (1, 1) at lag 2
UNNESTED = OrderGrid(candidates=(GnarOrder(1, (1,)), GnarOrder(1, (3,)), GnarOrder(2, (1, 0)),
                                 GnarOrder(2, (1, 1))), p_max=2, s_max=3)


@st.composite
def search_cases(draw):
    """A graph, a panel, a scheme and a grid for one search: missing cells
    under the paper's grid or an unnested one; a ring panel whose two groups
    keep disjoint rows, so no row is common to all groups; or a panel with one
    node observed in runs of three dates, so it has fewer rows than p = 3
    but enough for p = 1 and 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cells", "disjoint", "short"]))
    if kind == "cells":
        g, panel, scheme = draw(missing_cell_panels())
        return g, panel, scheme, draw(st.sampled_from([order_grid(3, R_MAX), UNNESTED]))
    if kind == "disjoint":
        # per period of five dates: all missing, all observed, then one node
        # missing on each of three dates.  GNAR(1,[2]) needs every node at t - 1
        # and GNAR(2,[0,0]) three own dates in a row, never both
        g, T = ring_graph(5), 5 * draw(st.integers(5, 8))
        values = rng.normal(size=(5, T))
        for k, start in enumerate(range(0, T, 5)):
            values[:, start] = np.nan
            for d in range(3):
                values[(k + d) % 5, start + 2 + d] = np.nan
        grid = OrderGrid(candidates=(GnarOrder(1, (2,)), GnarOrder(2, (0, 0))), p_max=2, s_max=2)
        return g, make_panel(values, labels=g.labels), WeightScheme("uniform"), grid
    n = draw(st.integers(3, 6))
    g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 2)))
    T = draw(st.integers(24, 40))
    values = rng.normal(size=(n, T))
    runs = np.zeros(T, dtype=bool)
    for start in range(0, T - 2, 5):
        runs[start:start + 3] = True
    values[draw(st.integers(0, n - 1)), ~runs] = np.nan
    return g, make_panel(values, labels=g.labels), WeightScheme("uniform"), order_grid(3, 1)


@PROPERTY
@given(search_cases())
@pytest.mark.parametrize("global_alpha", [True, False])
def test_every_served_candidate_equals_its_standalone_fit(global_alpha, case):
    g, panel, scheme, grid = case
    served, real = {}, selection._search_solve

    def spy(*args):
        out = real(*args)
        served.update((o, s) for o, s in out.items() if not isinstance(s, Exception))
        return out

    with mock.patch.object(selection, "_search_solve", spy):
        try:
            select_model(panel, g, scheme, grid, global_alpha=global_alpha)
        except SelectionFailedError:
            pass
    for order, (gamma, rss, n_obs, M) in served.items():
        alone = fit(panel, g, GnarSpec(order, global_alpha, scheme))
        scale = max(1.0, float(np.max(np.abs(alone.gamma))))
        assert np.max(np.abs(gamma - alone.gamma)) <= 1e-12 * scale
        assert (n_obs, M) == (alone.n_obs, alone.M)
        assert _gaussian_criteria(rss, n_obs, M)[2] == pytest.approx(alone.bic, rel=1e-12, abs=0)


@PROPERTY
@given(cases())
def test_qr_solve_matches_normal_equations(case):
    g, panel, spec = case
    out = _fitted(*case)
    assume(out is not None)
    D, y, rows, f = out
    assume(D.shape[0] > D.shape[1] and np.linalg.cond(D) < 1e4)
    oracle = normal_equations_solve(D, y)
    assert np.max(np.abs(f.gamma - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))
    se = np.sqrt(np.diag(np.linalg.inv(D.T @ D)) * f.sigma2)
    np.testing.assert_allclose(f.gamma_se, se, rtol=1e-10)
    resid = np.full((panel.n_nodes, panel.n_times), np.nan)
    for (i, t), e in zip(rows, y - D @ f.gamma):
        resid[i, t] = e
    np.testing.assert_allclose(f.residuals, resid, rtol=0, atol=1e-12)


@PROPERTY
@given(cases(), st.floats(0.1, 10.0))
def test_egls_with_scaled_identity_equals_ols(case, c):
    g, panel, spec = case
    out = _fitted(*case)
    assume(out is not None)
    D, y, rows, f_ols = out
    assume(np.linalg.cond(D) < 1e6)
    f_egls = fit_egls(D, y, spec, panel.n_nodes, panel.n_times, c * np.eye(panel.n_nodes),
                      rows, labels=panel.labels)
    scale = max(1.0, np.max(np.abs(f_ols.gamma)))
    assert np.max(np.abs(f_egls.gamma - f_ols.gamma)) <= 1e-10 * scale
    np.testing.assert_allclose(f_egls.residuals, f_ols.residuals, rtol=0, atol=1e-10)
    assert f_egls.n_obs == f_ols.n_obs


def test_egls_whitening_matches_per_time_oracle():
    # a full covariance with rows missing at some dates: batched whitening by
    # the set of present nodes must equal the per-date generalised solve
    rng = np.random.default_rng(61)
    g = random_connected_graph(5, rng)
    values = rng.normal(size=(5, 30))
    values[1, [4, 9, 17]] = np.nan
    values[3, [9, 22]] = np.nan
    panel = make_panel(values, labels=g.labels)
    spec = GnarSpec(order=GnarOrder(1, (1,)), global_alpha=True)
    stages, weights = _weights(g, spec.scheme)
    D, y, rows = build_design(panel, spec, weights, stages)
    a = rng.normal(size=(5, 5))
    sigma = a @ a.T + 5.0 * np.eye(5)
    f = fit_egls(D, y, spec, 5, 30, sigma, rows, labels=g.labels)
    omega_inv = np.zeros((len(rows), len(rows)))
    for t in sorted({t for _, t in rows}):
        pos = [k for k, (_, tt) in enumerate(rows) if tt == t]
        nodes = [rows[k][0] for k in pos]
        omega_inv[np.ix_(pos, pos)] = np.linalg.inv(sigma[np.ix_(nodes, nodes)])
    oracle = np.linalg.solve(D.T @ omega_inv @ D, D.T @ omega_inv @ y)
    assert np.max(np.abs(f.gamma - oracle)) < 1e-10
    se = np.sqrt(np.diag(np.linalg.inv(D.T @ omega_inv @ D)))
    np.testing.assert_allclose(f.gamma_se, se, rtol=1e-10)


@pytest.mark.parametrize("labels, values, order, global_alpha, message", [
    ("ab", np.ones((2, 8)), GnarOrder(2, (0, 0)), True,
     "design is rank deficient (1/2); dependent columns: ['alpha2']"),
    ("abc", np.ones((3, 9)), GnarOrder(2, (1, 0)), True,
     "design is rank deficient (1/3); dependent columns: ['alpha2', 'beta1.1']"),
    ("abc", np.ones((3, 12)), GnarOrder(1, (1,)), False,
     "design is rank deficient (3/4); dependent columns: ['alpha1[a]']"),
    ("abcd", np.tile(np.arange(10.0), (4, 1)), GnarOrder(2, (1, 1)), True,
     "design is rank deficient (2/4); dependent columns: ['beta1.1', 'beta2.1']"),
])
def test_collinear_design_names_dependent_columns(labels, values, order, global_alpha,
                                                  message):
    # messages recorded from the three-factorisation solver this replaced
    g = build_complete(list(labels))
    with pytest.raises(SingularDesignError) as info:
        fit(make_panel(values, labels=tuple(labels)), g,
            GnarSpec(order=order, global_alpha=global_alpha))
    assert str(info.value) == message
