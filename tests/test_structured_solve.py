"""Property tests of the structured least-squares solve.

Global-alpha designs are solved by one numpy QR and node-specific ones, kept
compact, by per-node block elimination; a design whose rank is in doubt goes
to the pivoted QR.  Random graphs with random missing cells, unequal per-node
row counts, nodes with no rows and nodes with fewer rows than lags are
checked against the normal-equations oracle and against the pivoted QR's
rank decision and message; a node with fewer rows than lags is refused
before any QR, with a message that names it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_connected_graph
from oracles import normal_equations_solve

from gnarlib import gnar_core
from gnarlib.datasets import irish_queen_graph
from gnarlib.errors import (
    InsufficientDataError,
    InvalidInputError,
    ModelInadmissibleError,
    SingularDesignError,
)
from gnarlib.geo_graph import build_complete, stage_neighbourhoods
from gnarlib.gnar_core import (
    GnarOrder,
    GnarSpec,
    NodeDesign,
    WeightScheme,
    _qr_solve,
    build_design,
    coefficient_names,
    compute_weights,
    fit,
    fit_egls,
    fit_ols,
    simulate,
)
from gnarlib.panel import TimeSeriesPanel
from gnarlib.selection import order_grid, select_model

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
R_MAX = 2


@st.composite
def cases(draw):
    """A graph, a panel with holes and thin nodes, a scheme and one order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 7))
    g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 3)))
    T = draw(st.integers(5, 30))
    values = rng.normal(size=(n, T))
    values[rng.uniform(size=(n, T)) < draw(st.sampled_from([0.0, 0.05, 0.25]))] = np.nan
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        values[i, draw(st.integers(0, 5)):] = np.nan    # a node with few or no rows
    if draw(st.booleans()):
        d = rng.uniform(10.0, 500.0, size=(n, n))
        scheme = WeightScheme("idw", dist_km=(d + d.T) / 2.0)
    else:
        scheme = WeightScheme("uniform")
    p = draw(st.integers(1, 3))
    s = tuple(draw(st.lists(st.integers(0, R_MAX), min_size=p, max_size=p)))
    global_alpha = draw(st.sampled_from([False, False, True]))
    spec = GnarSpec(order=GnarOrder(p, s), global_alpha=global_alpha, scheme=scheme)
    return g, make_panel(values, labels=g.labels), spec


def _wide_design(g, panel, spec):
    stages = stage_neighbourhoods(g, R_MAX)
    return build_design(panel, spec, compute_weights(g, stages, spec.scheme), stages)


@PROPERTY
@given(cases())
def test_structured_solve_matches_oracle_and_pivoted_qr(case):
    g, panel, spec = case
    try:
        D, y, rows = _wide_design(g, panel, spec)
    except (ModelInadmissibleError, InsufficientDataError):
        return
    if D.shape[0] <= D.shape[1]:   # every fit needs more rows than parameters
        with pytest.raises(InsufficientDataError):
            fit(panel, g, spec)
        return
    counts = np.bincount([i for i, _ in rows], minlength=panel.n_nodes)
    short = not spec.global_alpha and counts.min() < spec.order.p
    try:
        pivoted, _ = _qr_solve(D, y, coefficient_names(spec, panel.labels))
    except SingularDesignError as exc:
        # the rank decision is the pivoted QR's, and so are the named columns,
        # unless a node has fewer rows than own lags: that node is named
        with pytest.raises(SingularDesignError) as info:
            fit(panel, g, spec)
        i = int(np.argmin(counts))
        assert str(info.value) == (f"node {panel.labels[i]!r} has {counts[i]} rows for "
                                   f"{spec.order.p} own lags" if short else str(exc))
        return
    assert not short
    f = fit(panel, g, spec)
    cond = np.linalg.cond(D)
    scale = max(1.0, float(np.max(np.abs(pivoted))))
    assert np.max(np.abs(f.gamma - pivoted)) <= 1e-13 * cond * scale
    if cond > 30.0:
        return
    oracle = normal_equations_solve(D, y)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(f.gamma - oracle)) <= 1e-12 * scale
    se = np.sqrt(np.diag(np.linalg.inv(D.T @ D)) * f.sigma2)
    assert np.max(np.abs(f.gamma_se - se)) <= 1e-12 * max(1.0, float(np.max(se)))
    resid = np.full((panel.n_nodes, panel.n_times), np.nan)
    for (i, t), e in zip(rows, y - D @ oracle):
        resid[i, t] = e
    np.testing.assert_allclose(f.residuals, resid, rtol=0,
                               atol=1e-12 * max(1.0, float(np.max(np.abs(y)))))


@pytest.mark.parametrize("block_rows", [3, 7, 64])
def test_row_blocked_dense_qr_matches_oracle(monkeypatch, block_rows):
    # designs taller than _QR_ROWS are factorised in row blocks; small blocks
    # run that path on a small design, including blocks shorter than its width
    monkeypatch.setattr(gnar_core, "_QR_ROWS", block_rows)
    rng = np.random.default_rng(12)
    g = random_connected_graph(5, rng)
    values = rng.normal(size=(5, 40))
    values[rng.uniform(size=values.shape) < 0.1] = np.nan
    panel = make_panel(values, labels=g.labels)
    spec = GnarSpec(GnarOrder(2, (1, 1)))
    D, y, _ = _wide_design(g, panel, spec)
    f = fit(panel, g, spec)
    np.testing.assert_allclose(f.gamma, normal_equations_solve(D, y), rtol=0, atol=1e-12)
    se = np.sqrt(np.diag(np.linalg.inv(D.T @ D)) * f.sigma2)
    np.testing.assert_allclose(f.gamma_se, se, rtol=1e-12)
    with pytest.raises(SingularDesignError) as info:
        fit(make_panel(np.ones((2, 8)), labels="ab"), build_complete(["a", "b"]),
            GnarSpec(GnarOrder(2, (0, 0))))
    assert str(info.value) == "design is rank deficient (1/2); dependent columns: ['alpha2']"


def _node_design(D, rows, n, p):
    """The compact form of a wide node-specific design."""
    nodes = np.asarray(rows, dtype=np.intp)[:, 0]
    own = D[np.arange(len(nodes))[:, None], np.arange(p) * n + nodes[:, None]]
    return NodeDesign(own, D[:, p * n:], nodes, n)


def _thin_panel(g, rows_of_last_node, seed):
    values = np.random.default_rng(seed).normal(size=(g.n, 20))
    values[0, [3, 7, 8, 15]] = np.nan           # unequal per-node row counts
    values[-1, 2 + rows_of_last_node:] = np.nan  # p = 2: the last node keeps these rows
    return make_panel(values, labels=g.labels)


@pytest.mark.parametrize("rows_of_last_node", [0, 1, 2, 9])
def test_compact_and_wide_designs_agree(rows_of_last_node):
    # a node with no rows or fewer rows than lags is singular in both forms:
    # the wide design's pivoted QR names its columns, and the compact form
    # names the node before any QR; otherwise both solves agree
    g = random_connected_graph(6, np.random.default_rng(4))
    panel = _thin_panel(g, rows_of_last_node, seed=rows_of_last_node)
    spec = GnarSpec(GnarOrder(2, (1, 0)), global_alpha=False)
    D, y, rows = _wide_design(g, panel, spec)
    compact = _node_design(D, rows, g.n, 2)
    np.testing.assert_array_equal(compact.wide(), D)
    args = (y, spec, g.n, 20)
    if rows_of_last_node < 2:
        with pytest.raises(SingularDesignError) as wide_err:
            fit_ols(D, *args, row_index=rows, labels=g.labels)
        with pytest.raises(SingularDesignError) as compact_err:
            fit_ols(compact, *args, row_index=rows, labels=g.labels)
        assert str(compact_err.value) == (
            f"node {g.labels[-1]!r} has {rows_of_last_node} rows for 2 own lags")
        assert f"[{g.labels[-1]}]" in str(wide_err.value)
        return
    wide_fit = fit_ols(D, *args, row_index=rows, labels=g.labels)
    compact_fit = fit_ols(compact, *args, row_index=rows, labels=g.labels)
    oracle = normal_equations_solve(D, y)
    for f in (wide_fit, compact_fit):
        np.testing.assert_allclose(f.gamma, oracle, rtol=0, atol=1e-12)
    np.testing.assert_allclose(compact_fit.gamma_se, wide_fit.gamma_se, rtol=1e-12)
    np.testing.assert_allclose(compact_fit.residuals, wide_fit.residuals, rtol=0, atol=1e-12)
    assert compact_fit.bic == pytest.approx(wide_fit.bic, rel=1e-12)


@pytest.mark.parametrize("rows_of_last_node", [0, 1])
def test_a_node_with_fewer_rows_than_lags_is_refused_before_any_qr(monkeypatch,
                                                                   rows_of_last_node):
    # its own-lag columns have rank at most its row count, so the design is
    # singular for certain: no QR, no wide design; a search records the
    # candidate as singular with the same reason
    def refuse(*args, **kwargs):
        raise AssertionError("a QR or a wide design for a short node")

    g = random_connected_graph(6, np.random.default_rng(4))
    panel = _thin_panel(g, rows_of_last_node, seed=rows_of_last_node)
    spec = GnarSpec(GnarOrder(2, (1, 0)), global_alpha=False)
    reason = f"node {g.labels[-1]!r} has {rows_of_last_node} rows for 2 own lags"
    monkeypatch.setattr(gnar_core, "_qr_solve", refuse)
    monkeypatch.setattr(NodeDesign, "wide", refuse)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", refuse)
        with pytest.raises(SingularDesignError) as info:
            fit(panel, g, spec)
    assert str(info.value) == reason
    report = select_model(panel, g, WeightScheme("spl"), order_grid(2, 1), global_alpha=False)
    short = {c.order.name(): (c.status, c.reason) for c in report.candidates}
    assert short["GNAR(2,[1,0])"] == ("singular", reason)


@pytest.fixture(scope="module")
def queen_panel():
    g = irish_queen_graph()
    base = simulate(GnarSpec(GnarOrder(1, (1,))), np.array([0.3]), [np.array([0.4])],
                    g, T=60, sigma=1.0, seed=5)
    return g, base


def _with_cavan(base, g, row):
    values = base.values.copy()
    values[g.labels.index("Cavan")] = row
    return TimeSeriesPanel(labels=base.labels, dates=base.dates, values=values)


@pytest.mark.parametrize("row, message", [
    (np.nan,
     "design is rank deficient (41/53); dependent columns: ['alpha1[Cavan]', "
     "'alpha1[Leitrim]', 'alpha1[Longford]', 'alpha1[Meath]', 'alpha1[Monaghan]', "
     "'alpha1[Westmeath]', 'alpha2[Cavan]', 'alpha2[Leitrim]', 'alpha2[Longford]', "
     "'alpha2[Meath]', 'alpha2[Monaghan]', 'alpha2[Westmeath]']"),
    (1.5, "design is rank deficient (52/53); dependent columns: ['alpha2[Cavan]']"),
])
def test_queen_singular_messages_are_unchanged(queen_panel, row, message):
    # recorded from the pivoted-QR solver that every fit used before: an
    # all-missing Cavan empties its own and its five neighbours' blocks, a
    # constant Cavan makes its two own lags equal.  A node with fewer rows
    # than lags is now refused before any QR, so for the empty blocks the
    # record is the pivoted QR's on the wide design, and the fit names Cavan
    g, base = queen_panel
    spec = GnarSpec(GnarOrder(2, (1, 0)), global_alpha=False)
    panel = _with_cavan(base, g, row)
    with pytest.raises(SingularDesignError) as info:
        fit(panel, g, spec)
    if np.isnan(row):
        assert str(info.value) == "node 'Cavan' has 0 rows for 2 own lags"
        D, y, _ = _wide_design(g, panel, spec)
        with pytest.raises(SingularDesignError) as info:
            _qr_solve(D, y, coefficient_names(spec, g.labels))
    assert str(info.value) == message


def test_queen_selection_records_the_same_singular_reason(queen_panel):
    g, base = queen_panel
    report = select_model(_with_cavan(base, g, 1.5), g, WeightScheme("spl"),
                          order_grid(2, 1), global_alpha=False)
    reasons = {c.order.name(): (c.status, c.reason) for c in report.candidates}
    assert reasons["GNAR(2,[1,0])"] == (
        "singular", "design is rank deficient (52/53); dependent columns: ['alpha2[Cavan]']")
    assert reasons["GNAR(1,[1])"][0] == "ok"


# ---------------------------------------------------------------------------
# non-finite values never reach a solve
# ---------------------------------------------------------------------------

def _small_case(global_alpha):
    g = random_connected_graph(4, np.random.default_rng(8))
    values = np.random.default_rng(9).normal(size=(4, 15))
    spec = GnarSpec(GnarOrder(1, (1,)), global_alpha=global_alpha)
    return g, values, spec


@pytest.mark.parametrize("global_alpha", [True, False])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_design_or_response_is_rejected(global_alpha, bad):
    g, values, spec = _small_case(global_alpha)
    D, y, rows = _wide_design(g, make_panel(values, labels=g.labels), spec)
    design = D if global_alpha else _node_design(D, rows, g.n, 1)
    y_bad = y.copy()
    y_bad[3] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        fit_ols(design, y_bad, spec, g.n, 15, row_index=rows, labels=g.labels)
    D_bad = D.copy()
    D_bad[5, -1] = bad          # a beta column, present in both forms
    design = D_bad if global_alpha else _node_design(D_bad, rows, g.n, 1)
    with pytest.raises(InvalidInputError, match="non-finite"):
        fit_ols(design, y, spec, g.n, 15, row_index=rows, labels=g.labels)
    with pytest.raises(InvalidInputError, match="non-finite"):
        fit_egls(D_bad, y, spec, g.n, 15, np.eye(g.n), rows, labels=g.labels)


@pytest.mark.parametrize("global_alpha", [True, False])
def test_infinite_panel_value_fails_fit_and_selection(global_alpha):
    g, values, spec = _small_case(global_alpha)
    values[2, 6] = np.inf
    panel = make_panel(values, labels=g.labels)
    # the message names the node, as forecast's and the diagnostics' do
    message = f"node {g.labels[2]!r} holds infinite values; NaN marks a missing cell"
    with pytest.raises(InvalidInputError, match=message):
        fit(panel, g, spec)
    with pytest.raises(InvalidInputError, match=message):
        _wide_design(g, panel, spec)
    with pytest.raises(InvalidInputError, match=message):
        select_model(panel, g, WeightScheme("spl"), order_grid(2, 1),
                     global_alpha=global_alpha)
