"""Weights, restriction matrix, design, estimation, simulation, forecasting."""

import dataclasses
import datetime
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_panel,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
    weekly_dates,
)
from oracles import (
    gnar_design_bruteforce,
    normal_equations_solve,
    simulate_gnar_bruteforce,
)

import gnarlib
from gnarlib.errors import (
    FeasibilityError,
    GnarError,
    InsufficientDataError,
    InvalidInputError,
    ModelInadmissibleError,
    SingularDesignError,
)
from gnarlib.geo_graph import Graph, build_complete, stage_neighbourhoods
from gnarlib.gnar_core import (
    GnarOrder,
    GnarSpec,
    WeightScheme,
    build_design,
    compute_weights,
    estimate_sigma,
    fit,
    fit_egls,
    fit_ols,
    forecast,
    restriction_matrix,
    simulate,
    spectral_radius,
    stationarity_margin,
)
from gnarlib.panel import TimeSeriesPanel


def spec_for(p, s, global_alpha=True, kind="spl"):
    return GnarSpec(order=GnarOrder(p=p, s=tuple(s)), global_alpha=global_alpha,
                    scheme=WeightScheme(kind))


def stage_dicts(g, weights, r_max):
    sets = [[set(weights.stage_weights(i, r).keys()) for r in range(1, r_max + 1)]
            for i in range(g.n)]
    wdicts = [[weights.stage_weights(i, r) for r in range(1, r_max + 1)]
              for i in range(g.n)]
    return sets, wdicts


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weights_star_stage_one_uniform():
    g = star_graph(3)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    assert w.stage_weights(0, 1) == {1: 1.0 / 3.0, 2: 1.0 / 3.0, 3: 1.0 / 3.0}


@pytest.mark.parametrize("r", [0, -1, 3])
def test_weights_reject_a_stage_outside_the_computed_range(r):
    # stage 0 would read stage r_max's row through negative indexing
    g = path_graph(3)
    w = compute_weights(g, stage_neighbourhoods(g, 2), WeightScheme("spl"))
    for call in (lambda: w.stage_weights(0, r), lambda: w.matrix(r, g.n)):
        with pytest.raises(InvalidInputError, match=rf"stage {r} outside computed range 1\.\.2"):
            call()
    assert w.stage_weights(0, 2) == {2: 1.0}
    assert np.array_equal(w.matrix(2, g.n), w.stack[1])


def test_weights_spl_equals_uniform_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_connected_graph(int(rng.integers(3, 10)), rng)
        stages = stage_neighbourhoods(g, 3)
        w_spl = compute_weights(g, stages, WeightScheme("spl"))
        w_uni = compute_weights(g, stages, WeightScheme("uniform"))
        assert w_spl.weights == w_uni.weights


def test_weights_inverse_distance():
    g = path_graph(3)
    stages = stage_neighbourhoods(g, 1)
    d = np.array([[0.0, 100.0, 400.0],
                  [100.0, 0.0, 300.0],
                  [400.0, 300.0, 0.0]])
    w = compute_weights(g, stages, WeightScheme("idw", dist_km=d))
    assert w.stage_weights(1, 1)[0] == pytest.approx(0.75)
    assert w.stage_weights(1, 1)[2] == pytest.approx(0.25)


def test_weights_population_based():
    g = path_graph(3)
    stages = stage_neighbourhoods(g, 1)
    d = np.array([[0.0, 100.0, 200.0],
                  [100.0, 0.0, 100.0],
                  [200.0, 100.0, 0.0]])
    pop = np.array([10.0, 1.0, 30.0])
    w = compute_weights(g, stages, WeightScheme("pb", dist_km=d, populations=pop))
    # node 1 sees nodes 0 and 2 at equal distance: weights ~ populations
    assert w.stage_weights(1, 1)[0] == pytest.approx(0.25)
    assert w.stage_weights(1, 1)[2] == pytest.approx(0.75)


def test_weights_normalisation_all_schemes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(n, rng)
        stages = stage_neighbourhoods(g, 3)
        d = rng.uniform(10, 500, size=(n, n))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        pop = rng.uniform(1, 100, size=n)
        for scheme in (WeightScheme("spl"), WeightScheme("uniform"),
                       WeightScheme("idw", dist_km=d),
                       WeightScheme("pb", dist_km=d, populations=pop)):
            w = compute_weights(g, stages, scheme)
            for i in range(n):
                for r in range(1, 4):
                    sw = w.stage_weights(i, r)
                    if sw:
                        assert sum(sw.values()) == pytest.approx(1.0, abs=1e-12)
                        assert all(v >= 0 for v in sw.values())


@pytest.mark.parametrize("p, s, message", [
    (1, (1.7,), r"stage order s\[0\] must be an integer, got 1\.7"),
    (2, (1, 0.0), r"stage order s\[1\] must be an integer, got 0\.0"),
    (2.0, (1, 0), r"lag order p must be an integer, got 2\.0"),
    (1.5, (1,), r"lag order p must be an integer, got 1\.5"),
])
def test_order_refuses_a_fractional_or_float_lag_or_stage(p, s, message):
    # GnarOrder(1, (1.7,)) was GNAR(1, [1]), and a float p failed in fit
    # with a bare TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=message):
            GnarOrder(p, s)


def test_order_keeps_integer_stages_of_any_integer_type():
    assert GnarOrder(np.int64(2), [np.int64(1), 0]).s == (1, 0)


def test_weights_missing_inputs_rejected():
    with pytest.raises(InvalidInputError):
        WeightScheme("idw")
    with pytest.raises(InvalidInputError):
        WeightScheme("pb", dist_km=np.eye(2))


# ---------------------------------------------------------------------------
# restriction matrix
# ---------------------------------------------------------------------------

def test_restriction_pure_autoregressive():
    g = build_complete(["a", "b", "c"])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    spec = spec_for(1, [0])
    R = restriction_matrix(spec, w, 3)
    assert R.matrix.shape == (9, 1)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1.0  # column-major diagonal of a 3x3 block
    assert np.array_equal(R.matrix[:, 0], expected)


def test_restriction_stage_one_complete_graph():
    g = build_complete(["a", "b", "c"])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    R = restriction_matrix(spec_for(1, [1]), w, 3)
    assert R.matrix.shape == (9, 2)
    block = R.matrix[:, 1].reshape(3, 3, order="F")
    assert np.array_equal(block, (np.ones((3, 3)) - np.eye(3)) / 2.0)


def test_restriction_parameter_count_vertex_specific():
    g = ring_graph(4)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    spec = spec_for(2, [1, 0], global_alpha=False)
    R = restriction_matrix(spec, w, 4)
    assert R.matrix.shape == (2 * 16, 4 * 2 + 1)


def test_restriction_consistency_random():
    # unstacked R @ gamma must equal diag(alpha_j) + sum_r beta_jr W_r
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(n, rng)
        stages = stage_neighbourhoods(g, 2)
        w = compute_weights(g, stages, WeightScheme("spl"))
        p = int(rng.integers(1, 3))
        s = tuple(int(rng.integers(0, 2)) for _ in range(p))
        global_alpha = bool(rng.integers(0, 2))
        spec = spec_for(p, s, global_alpha=global_alpha)
        M = spec.n_params(n)
        R = restriction_matrix(spec, w, n)
        gamma = rng.normal(size=M)
        vec = R.matrix @ gamma
        alpha_block = p if global_alpha else p * n
        off = alpha_block
        for j in range(p):
            block = vec[j * n * n:(j + 1) * n * n].reshape(n, n, order="F")
            if global_alpha:
                diag = np.full(n, gamma[j])
            else:
                diag = gamma[j * n:(j + 1) * n]
            direct = np.diag(diag)
            for r in range(1, s[j] + 1):
                direct = direct + gamma[off] * w.matrix(r, n)
                off += 1
            assert np.max(np.abs(block - direct)) < 1e-14


def test_restriction_empty_stage_rejected():
    g = build_complete(["a", "b", "c"])  # diameter 1: stage 2 empty
    stages = stage_neighbourhoods(g, 2)
    w = compute_weights(g, stages, WeightScheme("spl"))
    with pytest.raises(ModelInadmissibleError, match="stage 2"):
        restriction_matrix(spec_for(1, [2]), w, 3)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_row_and_column_counts():
    g = build_complete(["a", "b"])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    panel = make_panel([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], labels=("a", "b"))
    spec = spec_for(1, [1])
    D, y, rows = build_design(panel, spec, w, stages)
    assert D.shape == (4, 2)
    assert len(rows) == 4


def test_design_missing_poisons_dependent_rows():
    g = build_complete(["a", "b", "c"])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    vals = np.arange(9.0).reshape(3, 3)
    vals[0, 1] = np.nan
    panel = make_panel(vals, labels=("a", "b", "c"))
    D, y, rows = build_design(panel, spec_for(1, [1]), w, stages)
    # t=1 rows for b and c survive (their operands at t=0 are intact);
    # everything at t=2 touches the missing (a, 1) cell
    assert rows == [(1, 1), (2, 1)]


def test_design_neighbourhood_sum_hand_check():
    g = path_graph(3)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    vals = np.array([[1.0, 2.0, 3.0],
                     [4.0, 5.0, 6.0],
                     [7.0, 8.0, 9.0]])
    panel = make_panel(vals, labels=g.labels)
    D, y, rows = build_design(panel, spec_for(1, [1]), w, stages)
    by_row = dict(zip(rows, D))
    # middle node averages its two ends; ends see only the middle
    assert by_row[(0, 1)][1] == pytest.approx(4.0)
    assert by_row[(1, 1)][1] == pytest.approx((1.0 + 7.0) / 2.0)
    assert by_row[(2, 1)][1] == pytest.approx(4.0)


def test_design_matches_bruteforce_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        g = random_connected_graph(n, rng)
        stages = stage_neighbourhoods(g, 2)
        w = compute_weights(g, stages, WeightScheme("spl"))
        p = int(rng.integers(1, 3))
        s = tuple(int(rng.integers(0, 2)) for _ in range(p))
        spec = spec_for(p, s)
        vals = rng.normal(size=(n, 9))
        if rng.uniform() < 0.5:
            vals[rng.integers(0, n), rng.integers(0, 9)] = np.nan
        panel = make_panel(vals)
        sets, wd = stage_dicts(g, w, 2)
        Do, yo, rows_o = gnar_design_bruteforce(vals, p, s, sets, wd)
        D, y, rows = build_design(panel, spec, w, stages)
        assert rows == rows_o
        assert np.allclose(D, Do, atol=1e-12, equal_nan=False)
        assert np.allclose(y, yo)


def test_design_insufficient_data():
    g = build_complete(["a", "b"])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    panel = make_panel(np.full((2, 3), np.nan), labels=("a", "b"))
    with pytest.raises(InsufficientDataError):
        build_design(panel, spec_for(1, [1]), w, stages)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def test_fit_checks_the_method_before_the_spec():
    # stage 2 is empty on a complete graph: the method is still named first
    g = build_complete(["a", "b", "c"])
    panel = make_panel(np.random.default_rng(3).normal(size=(3, 20)), labels=g.labels)
    with pytest.raises(InvalidInputError, match="unknown method 'bogus'; expected 'ols' or 'egls'"):
        fit(panel, g, spec_for(1, [2]), method="bogus")
    with pytest.raises(ModelInadmissibleError, match="stage 2"):
        fit(panel, g, spec_for(1, [2]), method="egls")


def test_fit_refuses_a_residual_sum_of_squares_that_overflows():
    # values near 1e160 are finite, and their squares are not
    g = ring_graph(5)
    panel = make_panel(np.random.default_rng(4).normal(size=(5, 30)) * 1e160, labels=g.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for global_alpha in (True, False):
            with pytest.raises(InvalidInputError, match="residual sum of squares overflows"):
                fit(panel, g, spec_for(1, [1], global_alpha=global_alpha))


def test_an_overflowing_fit_is_refused_before_scipy_loads():
    # the subset solve's own RSS refuses it; the pivoted QR is never reached
    code = ("import sys, numpy as np; from conftest import make_panel, ring_graph; "
            "from gnarlib.gnar_core import GnarOrder, GnarSpec, WeightScheme, fit\n"
            "panel = make_panel(np.random.default_rng(4).normal(size=(5, 30)) * 1e160)\n"
            "for ga in (True, False):\n"
            "    try: fit(panel, ring_graph(5), GnarSpec(GnarOrder(1, (1,)), ga, "
            "WeightScheme('uniform')))\n"
            "    except Exception as exc: print(type(exc).__name__, exc)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(gnarlib.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])})
    assert proc.returncode == 0, proc.stderr
    refused = "InvalidInputError the residual sum of squares overflows; rescale the data"
    assert proc.stdout.splitlines() == [refused, refused, "[]"]


def test_a_huge_first_value_still_fits():
    # only the lagged regressor holds 1e160: its squared norm overflows, and
    # the RSS does not, so the pivoted QR still fits it
    g = ring_graph(5)
    values = np.random.default_rng(0).normal(size=(5, 30))
    values[:, 0] *= 1e160
    result = fit(make_panel(values, labels=g.labels), g, spec_for(1, [1]))
    assert np.isfinite(result.sigma2) and result.sigma2 > 0


def test_fit_needs_more_rows_than_parameters():
    g = ring_graph(4)
    spec = spec_for(3, [1, 0, 0])
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 4)), labels=g.labels)
    with pytest.raises(InsufficientDataError, match="4 rows <= 4 parameters"):
        fit(panel, g, spec)
    square = np.random.default_rng(1).normal(size=(4, 4))
    with pytest.raises(InsufficientDataError, match="4 rows <= 4 parameters"):
        fit_ols(square, np.ones(4), spec, 4, 4)
    longer = make_panel(np.random.default_rng(0).normal(size=(4, 5)), labels=g.labels)
    assert fit(longer, g, spec).n_obs == 8


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(43)
    g = path_graph(3)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    spec = spec_for(1, [1])
    vals = rng.normal(size=(3, 6))
    panel = make_panel(vals, labels=g.labels)
    D, y, rows = build_design(panel, spec, w, stages)
    f = fit_ols(D, y, spec, 3, 6, row_index=rows, labels=g.labels)
    oracle = normal_equations_solve(D, y)
    assert np.max(np.abs(f.gamma - oracle)) < 1e-8


def test_ols_normal_equation_orthogonality():
    rng = np.random.default_rng(44)
    g = ring_graph(6)
    panel = make_panel(rng.normal(size=(6, 40)), labels=g.labels)
    f = fit(panel, g, spec_for(2, [1, 1]))
    # residuals orthogonal to the design: reconstruct D and check D'e
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec_for(2, [1, 1]), w, stages)
    e = y - D @ f.gamma
    assert np.linalg.norm(D.T @ e) <= 1e-8 * np.linalg.norm(D.T @ y)


def test_ols_noiseless_recovery_exact():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        g = random_connected_graph(n, rng)
        p = int(rng.integers(1, 3))
        s = tuple(int(rng.integers(0, 2)) for _ in range(p))
        spec = spec_for(p, s)
        alpha = rng.uniform(-0.3, 0.3, size=p)
        beta = [rng.uniform(-0.3, 0.3, size=sj) for sj in s]
        init = rng.normal(10.0, 2.0, size=(n, p))
        panel = simulate(spec, alpha, beta, g, T=p + 8, sigma=0.0,
                         init_values=init)
        f = fit(panel, g, spec)
        truth = np.concatenate([alpha] + [b for b in beta]) if sum(s) else alpha
        assert np.max(np.abs(f.gamma - truth)) < 1e-10


def test_ols_criteria_formulas():
    rng = np.random.default_rng(46)
    g = ring_graph(5)
    panel = make_panel(rng.normal(size=(5, 30)), labels=g.labels)
    f = fit(panel, g, spec_for(1, [1]))
    sigma2 = f.sigma2
    assert f.loglik == pytest.approx(-0.5 * f.n_obs * (math.log(2 * math.pi * sigma2) + 1))
    assert f.bic == pytest.approx(f.M * math.log(f.n_obs) - 2 * f.loglik)
    assert f.aic == pytest.approx(2 * f.M - 2 * f.loglik)
    assert f.bic - f.aic == pytest.approx(f.M * (math.log(f.n_obs) - 2))


def test_ols_singular_design_names_columns():
    spec = spec_for(2, [0, 0])
    # duplicate column: X constant over time makes lag-1 and lag-2 collinear
    g = build_complete(["a", "b"])
    panel = make_panel(np.ones((2, 8)), labels=("a", "b"))
    with pytest.raises(SingularDesignError, match="alpha"):
        fit(panel, g, spec)


def test_ols_parameter_recovery_ring():
    # stationary recovery at moderate length, single seed (the 50-seed
    # version lives in the acceptance suite)
    g = ring_graph(10)
    spec = spec_for(2, [1, 1])
    alpha = np.array([0.2, -0.1])
    beta = [np.array([0.3]), np.array([0.15])]
    panel = simulate(spec, alpha, beta, g, T=2000, sigma=0.1, seed=99)
    f = fit(panel, g, spec)
    truth = np.array([0.2, -0.1, 0.3, 0.15])
    assert np.max(np.abs(f.gamma - truth)) < 0.05


def test_complete_graph_equivalence_two_regressor_oracle():
    # on K_N with uniform weights the model has two regressors: own lag and
    # the mean of the others
    rng = np.random.default_rng(47)
    n, T = 6, 30
    g = build_complete([f"v{i}" for i in range(n)])
    vals = rng.normal(size=(n, T))
    panel = make_panel(vals, labels=g.labels)
    f = fit(panel, g, spec_for(1, [1]))
    rows, ys = [], []
    for t in range(1, T):
        for i in range(n):
            others = [vals[q, t - 1] for q in range(n) if q != i]
            rows.append([vals[i, t - 1], float(np.mean(others))])
            ys.append(vals[i, t])
    oracle = normal_equations_solve(np.asarray(rows), np.asarray(ys))
    assert np.max(np.abs(f.gamma - oracle)) < 1e-8


# ---------------------------------------------------------------------------
# sigma estimation and EGLS
# ---------------------------------------------------------------------------

def test_estimate_sigma_iid_data():
    rng = np.random.default_rng(48)
    n, T, sigma = 5, 4000, 0.7
    vals = rng.normal(0.0, sigma, size=(n, T))
    panel = make_panel(vals)
    S = estimate_sigma(panel, 1)
    assert np.allclose(np.diag(S), sigma ** 2, atol=0.05 * sigma ** 2)
    off = S[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05 * sigma ** 2


def test_estimate_sigma_infeasible_dimensions():
    rng = np.random.default_rng(49)
    panel = make_panel(rng.normal(size=(26, 45)))
    with pytest.raises(FeasibilityError, match="diagonal"):
        estimate_sigma(panel, 7)


def test_estimate_sigma_needs_n_times_p_plus_one_complete_columns():
    # the VAR(p) residual covariance of T' complete columns has rank at most
    # T' - N*p, so N*(p+1) columns are the fewest with a full-rank estimate
    rng = np.random.default_rng(51)
    n, p = 3, 2
    enough = make_panel(rng.normal(size=(n, n * (p + 1) + p)))
    np.linalg.cholesky(estimate_sigma(enough, p))
    short = make_panel(rng.normal(size=(n, n * (p + 1) + p - 1)))
    with pytest.raises(FeasibilityError, match=r"8 complete columns < N\*\(p\+1\) = 9"):
        estimate_sigma(short, p)


def test_egls_on_a_short_queen_panel_is_infeasible(queen_graph):
    # 58 complete columns give a rank-6 covariance for 26 nodes at p = 2
    spec = GnarSpec(GnarOrder(2, (1, 0)))
    panel = simulate(spec, np.array([0.3, 0.1]), [np.array([0.2]), np.array([])],
                     queen_graph, T=60, sigma=1.0, seed=3)
    with pytest.raises(FeasibilityError, match=r"58 complete columns < N\*\(p\+1\) = 78"):
        fit(panel, queen_graph, spec, method="egls")


def test_estimate_sigma_single_node_is_ar_residual_variance():
    rng = np.random.default_rng(50)
    x = rng.normal(size=200)
    panel = make_panel(x[None, :])
    S = estimate_sigma(panel, 1)
    design = x[:-1, None]
    resp = x[1:]
    phi = float(np.linalg.lstsq(design, resp, rcond=None)[0][0])
    resid = resp - phi * x[:-1]
    assert S[0, 0] == pytest.approx(float(resid @ resid) / resid.size, rel=1e-10)


def test_egls_spherical_sigma_equals_ols():
    rng = np.random.default_rng(51)
    g = ring_graph(5)
    panel = make_panel(rng.normal(size=(5, 40)), labels=g.labels)
    spec = spec_for(1, [1])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec, w, stages)
    f_ols = fit_ols(D, y, spec, 5, 40, row_index=rows, labels=g.labels)
    f_egls = fit_egls(D, y, spec, 5, 40, 2.5 * np.eye(5), rows, labels=g.labels)
    assert np.max(np.abs(f_ols.gamma - f_egls.gamma)) < 1e-10


def test_egls_diagonal_sigma_matches_weighted_oracle():
    rng = np.random.default_rng(52)
    g = path_graph(3)
    panel = make_panel(rng.normal(size=(3, 20)), labels=g.labels)
    spec = spec_for(1, [1])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec, w, stages)
    variances = np.array([1.0, 4.0, 0.25])
    sigma = np.diag(variances)
    f = fit_egls(D, y, spec, 3, 20, sigma, rows, labels=g.labels)
    row_w = np.array([1.0 / variances[i] for i, _ in rows])
    oracle = normal_equations_solve(D, y, row_weights=row_w)
    assert np.max(np.abs(f.gamma - oracle)) < 1e-8


def test_egls_not_worse_under_heteroscedasticity():
    # innovations with node variances 1 and 25: EGLS should beat OLS on
    # coefficient RMSE on average
    g = ring_graph(6)
    spec = spec_for(1, [1])
    alpha = np.array([0.3])
    beta = [np.array([0.4])]
    alpha_np = np.tile(alpha, (6, 1))
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    sets, wd = stage_dicts(g, w, 1)
    sds = np.array([1.0, 5.0, 1.0, 5.0, 1.0, 5.0])
    truth = np.array([0.3, 0.4])
    err_ols, err_egls = [], []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        T = 150
        innov = rng.normal(size=(6, T)) * sds[:, None]
        init = rng.normal(0, 1, size=(6, 1))
        vals = simulate_gnar_bruteforce(alpha_np, beta, sets, wd, init, T, innov)
        panel = make_panel(vals, labels=g.labels)
        D, y, rows = build_design(panel, spec, w, stages)
        f1 = fit_ols(D, y, spec, 6, T, row_index=rows, labels=g.labels)
        f2 = fit_egls(D, y, spec, 6, T, np.diag(sds ** 2), rows, labels=g.labels)
        err_ols.append(np.linalg.norm(f1.gamma - truth))
        err_egls.append(np.linalg.norm(f2.gamma - truth))
    assert np.mean(err_egls) <= np.mean(err_ols)


def test_egls_requires_positive_definite_sigma():
    rng = np.random.default_rng(53)
    g = path_graph(3)
    panel = make_panel(rng.normal(size=(3, 15)), labels=g.labels)
    spec = spec_for(1, [1])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec, w, stages)
    singular = np.zeros((3, 3))
    with pytest.raises(InvalidInputError, match="regularise"):
        fit_egls(D, y, spec, 3, 15, singular, rows)


def test_egls_full_sigma_matches_gls_normal_equations():
    # a dense covariance and missing cells, so that dates whiten with
    # different present-node sets: gamma = (D' S^-1 D)^-1 D' S^-1 y, where S
    # is block diagonal over dates with sigma restricted to each date's rows
    rng = np.random.default_rng(55)
    g = ring_graph(5)
    values = rng.normal(size=(5, 60))
    values[1, [7, 30]] = np.nan
    values[3, 44] = np.nan
    panel = make_panel(values, labels=g.labels)
    spec = spec_for(1, [1])
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec, w, stages)
    A = rng.normal(size=(5, 5))
    sigma = A @ A.T + 5 * np.eye(5)
    f = fit_egls(D, y, spec, 5, 60, sigma, rows, labels=g.labels)
    nodes, times = np.asarray(rows).T
    precision = np.zeros((len(y), len(y)))
    for t in np.unique(times):
        at = np.flatnonzero(times == t)
        precision[np.ix_(at, at)] = np.linalg.inv(sigma[np.ix_(nodes[at], nodes[at])])
    oracle = np.linalg.solve(D.T @ precision @ D, D.T @ precision @ y)
    assert np.max(np.abs(f.gamma - oracle)) < 1e-12


@pytest.mark.parametrize("case", ["spec", "response"])
def test_egls_checks_its_arguments_as_ols_does(case):
    # e.g. a GNAR(1, [1]) design under a GNAR(2, [1, 0]) spec: both fits refuse it
    rng = np.random.default_rng(54)
    g = ring_graph(5)
    panel = make_panel(rng.normal(size=(5, 40)), labels=g.labels)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec_for(1, [1]), w, stages)
    spec = spec_for(2, [1, 0]) if case == "spec" else spec_for(1, [1])
    if case == "response":
        y = y[:-1]
    with pytest.raises(InvalidInputError) as ols_error:
        fit_ols(D, y, spec, 5, 40, row_index=rows)
    with pytest.raises(InvalidInputError) as egls_error:
        fit_egls(D, y, spec, 5, 40, np.eye(5), rows)
    assert str(egls_error.value) == str(ols_error.value)


def test_egls_refuses_a_row_index_that_repeats_a_pair():
    # each time point's rows are its present nodes, taken by their count: a
    # repeated (node, column) pair would misalign them, so it is refused
    rng = np.random.default_rng(53)
    g = ring_graph(5)
    panel = make_panel(rng.normal(size=(5, 40)), labels=g.labels)
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    D, y, rows = build_design(panel, spec_for(1, [1]), w, stages)
    rows = [rows[1]] + list(rows[1:])
    with pytest.raises(InvalidInputError, match=r"row_index repeats a \(node, column\) pair"):
        fit_egls(D, y, spec_for(1, [1]), 5, 40, np.eye(5), rows)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_zero_coefficients_iid():
    g = ring_graph(8)
    spec = spec_for(1, [1])
    panel = simulate(spec, np.zeros(1), [np.zeros(1)], g, T=600, sigma=1.0,
                     init_mean=0.0, seed=7)
    x = panel.values[:, 1:]
    assert abs(float(x.mean())) < 4.0 / math.sqrt(x.size)
    assert float(x.std()) == pytest.approx(1.0, abs=0.05)


def test_simulate_deterministic_recursion():
    g = build_complete(["a", "b"])
    spec = spec_for(1, [0])
    panel = simulate(spec, np.array([0.5]), [np.array([])], g, T=6, sigma=0.0,
                     init_mean=10.0)
    expected = [10.0 * 0.5 ** k for k in range(6)]
    assert list(panel.values[0]) == pytest.approx(expected)
    assert list(panel.values[1]) == pytest.approx(expected)


def test_simulate_negative_zero_sigma_is_the_deterministic_recursion():
    # -0.0 passes the sign check, and numpy's normal refuses its sign bit
    g = ring_graph(4)
    args = dict(alpha=np.array([0.5]), beta=[np.array([0.2])], g=g, T=8, init_mean=3.0, seed=2)
    zero = simulate(spec_for(1, [1]), sigma=0.0, **args)
    assert np.array_equal(simulate(spec_for(1, [1]), sigma=-0.0, **args).values, zero.values)
    assert np.all(zero.values[:, 0] == 3.0)


def test_simulate_seeded_determinism():
    g = ring_graph(5)
    spec = spec_for(2, [1, 1])
    args = dict(alpha=np.array([0.2, -0.1]), beta=[np.array([0.3]), np.array([0.15])],
                g=g, T=50, sigma=0.1, seed=21)
    a = simulate(spec, **args)
    b = simulate(spec, **args)
    assert np.array_equal(a.values, b.values)
    c = simulate(spec, **{**args, "seed": 22})
    assert not np.array_equal(a.values, c.values)


def test_simulate_matches_bruteforce_recursion():
    g = ring_graph(5)
    spec = spec_for(2, [1, 0])
    alpha = np.array([0.25, -0.15])
    beta = [np.array([0.3]), np.array([])]
    stages = stage_neighbourhoods(g, 1)
    w = compute_weights(g, stages, WeightScheme("spl"))
    sets, wd = stage_dicts(g, w, 1)
    init = np.arange(10.0).reshape(5, 2)
    panel = simulate(spec, alpha, beta, g, T=12, sigma=0.0, init_values=init)
    oracle = simulate_gnar_bruteforce(np.tile(alpha, (5, 1)), beta, sets, wd,
                                      init, 12, np.zeros((5, 12)))
    assert np.allclose(panel.values, oracle, atol=1e-12)


def test_simulate_burn_in_discards_columns():
    g = ring_graph(4)
    spec = spec_for(1, [1])
    panel = simulate(spec, np.array([0.2]), [np.array([0.3])], g, T=20,
                     sigma=0.5, burn_in=10, seed=3)
    assert panel.n_times == 20


def test_simulate_rejects_negative_burn_in():
    g = ring_graph(3)
    spec = spec_for(1, [1])
    with pytest.raises(InvalidInputError, match="burn_in"):
        simulate(spec, np.array([0.2]), [np.array([0.3])], g, T=10,
                 sigma=0.5, burn_in=-3)


def test_simulate_rejects_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be a non-negative integer, got -1"):
        simulate(spec_for(1, [1]), np.array([0.2]), [np.array([0.3])], ring_graph(3),
                 T=10, sigma=0.5, seed=-1)


@pytest.mark.parametrize("name, bad", [
    ("alpha", {"alpha": np.array([0.2, math.nan])}),
    ("beta", {"beta": [np.array([0.3]), np.array([math.inf])]}),
    ("sigma", {"sigma": math.inf}),
    ("sigma", {"sigma": math.nan}),
    ("init_mean", {"init_mean": -math.inf}),
])
def test_simulate_rejects_nonfinite_parameters(name, bad):
    args = dict(alpha=np.array([0.2, -0.1]), beta=[np.array([0.3]), np.array([0.15])],
                g=ring_graph(4), T=10, sigma=0.5, init_mean=0.0)
    with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
        simulate(spec_for(2, [1, 1]), **{**args, **bad})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_simulate_rejects_nonfinite_init_values(value):
    # a NaN start once gave a mostly-NaN panel without an error, and an
    # infinite one was blamed on an explosive model
    init = np.full((4, 2), 0.1)
    init[2, 1] = value
    with pytest.raises(InvalidInputError, match=f"^init_values must be finite, got {value}$"):
        simulate(spec_for(2, [1, 1]), np.array([0.2, -0.1]), [np.array([0.3]), np.array([0.15])],
                 ring_graph(4), T=10, sigma=0.5, init_values=init)


def test_simulate_explosive_model_names_the_overflowing_step():
    # x_t = 10^t from x_0 = 1: 10^308 is finite, 10^309 overflows (step 310)
    g = build_complete(["a", "b"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"overflows to \+-inf at step 310 of 400 "):
            simulate(spec_for(1, [0]), np.array([10.0]), [np.array([])], g, T=400,
                     sigma=0.0, init_mean=1.0)
        with pytest.raises(InvalidInputError, match="at step 310 of 420 .burn-in included"):
            simulate(spec_for(1, [0]), np.array([10.0]), [np.array([])], g, T=400,
                     sigma=0.0, init_mean=1.0, burn_in=20)


def test_simulate_names_a_step_whose_overflows_cancel_to_nan():
    # 10 * 1e308 - 10 * 1e308 is inf - inf: the step holds NaN and no inf
    g = build_complete(["a", "b"])
    with pytest.raises(InvalidInputError, match=r"overflows to \+-inf at step 2 of 5 "):
        simulate(spec_for(1, [1]), np.array([10.0]), [np.array([-10.0])], g, T=5, sigma=0.0,
                 init_values=np.full((2, 1), 1e308))


def test_simulate_initial_draws_that_overflow_are_refused():
    # N(1.5e308, 1e308) draws overflow to +-inf, and inf - inf is NaN after them
    with pytest.raises(InvalidInputError, match=r"overflows to \+-inf at step 1 of 30 "):
        simulate(spec_for(1, [1]), np.array([0.3]), [np.array([-0.9])], ring_graph(8), T=30,
                 sigma=1e308, init_mean=1.5e308, seed=2)


def test_simulate_rejects_empty_stage():
    g = build_complete(["a", "b", "c"])
    spec = spec_for(1, [2])
    with pytest.raises(ModelInadmissibleError):
        simulate(spec, np.array([0.2]), [np.array([0.1, 0.1])], g, T=10, sigma=0.1)


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------

def test_forecast_zero_coefficients():
    import dataclasses

    g = ring_graph(4)
    spec = spec_for(1, [1])
    panel = simulate(spec, np.array([0.0]), [np.array([0.0])], g, T=30,
                     sigma=1.0, seed=5)
    f = fit(panel, g, spec)
    zero = dataclasses.replace(f, gamma=np.zeros_like(f.gamma),
                               alpha=np.zeros_like(f.alpha),
                               beta=tuple(np.zeros_like(b) for b in f.beta))
    preds = forecast(zero, panel, 3, mode="recursive")
    assert np.allclose(preds, 0.0)


def test_forecast_recursive_scalar_ar():
    import dataclasses

    g = build_complete(["a", "b"])
    spec = spec_for(1, [0])
    panel = make_panel([[8.0, 8.0], [8.0, 8.0]], labels=("a", "b"))
    base = fit(make_panel(np.random.default_rng(0).normal(size=(2, 20)),
                          labels=("a", "b")), g, spec)
    f = dataclasses.replace(base, gamma=np.array([0.5]), alpha=np.array([0.5]))
    preds = forecast(f, panel, 3, mode="recursive")
    assert list(preds[0]) == pytest.approx([4.0, 2.0, 1.0])


def test_forecast_rolling_equals_recursive_at_horizon_one():
    rng = np.random.default_rng(55)
    g = ring_graph(5)
    spec = spec_for(2, [1, 1])
    panel = simulate(spec, np.array([0.2, -0.1]),
                     [np.array([0.3]), np.array([0.15])], g, T=60, sigma=0.3,
                     seed=11)
    f = fit(panel, g, spec)
    rolled = forecast(f, panel, 1, mode="rolling_one_step")
    truncated = TimeSeriesPanel(labels=panel.labels, dates=panel.dates[:-1],
                                values=panel.values[:, :-1])
    recursed = forecast(f, truncated, 1, mode="recursive")
    assert np.allclose(rolled, recursed, atol=1e-12)


def test_forecast_in_sample_reproduces_fit_residuals():
    g = ring_graph(6)
    spec = spec_for(2, [1, 1])
    panel = simulate(spec, np.array([0.2, -0.1]),
                     [np.array([0.3]), np.array([0.15])], g, T=80, sigma=0.2,
                     seed=13)
    f = fit(panel, g, spec)
    h = 5
    preds = forecast(f, panel, h, mode="rolling_one_step")
    reconstructed = panel.values[:, -h:] - f.residuals[:, -h:]
    assert np.allclose(preds, reconstructed, atol=1e-10)


@pytest.mark.parametrize("mode", ["rolling_one_step", "recursive"])
def test_forecast_rejects_infinite_values(mode):
    # numpy's invalid-value warning once escaped and the predictions were NaN
    g = ring_graph(4)
    spec = spec_for(1, [1])
    panel = simulate(spec, np.array([0.2]), [np.array([0.3])], g, T=30, sigma=1.0, seed=5)
    values = panel.values.copy()
    values[1, -2] = np.inf
    bad = TimeSeriesPanel(labels=panel.labels, dates=panel.dates, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="node 'n01' holds infinite values"):
            forecast(fit(panel, g, spec), bad, 3, mode=mode)


def test_forecast_insufficient_history():
    g = ring_graph(4)
    spec = spec_for(3, [1, 0, 0])
    panel = simulate(spec, np.array([0.2, 0.0, 0.1]),
                     [np.array([0.2]), np.array([]), np.array([])], g, T=30,
                     sigma=0.2, seed=1)
    f = fit(panel, g, spec)
    short = TimeSeriesPanel(labels=panel.labels, dates=panel.dates[:2],
                            values=panel.values[:, :2])
    with pytest.raises(InvalidInputError):
        forecast(f, short, 2, mode="recursive")


# ---------------------------------------------------------------------------
# stationarity margin
# ---------------------------------------------------------------------------

def test_margin_zero_coefficients():
    assert stationarity_margin(np.zeros(2), [np.zeros(1), np.zeros(0)]) == 1.0


def test_margin_hand_example():
    m = stationarity_margin(np.array([0.2, -0.1]),
                            [np.array([0.3]), np.array([0.15])])
    assert m == pytest.approx(0.25)


def test_margin_simulation_protocol_coefficients():
    alpha = np.array([0.18, -0.19, -0.09, -0.17, -0.11])
    beta = [np.array([0.14, 0.41]), np.array([-0.07]), np.array([0.03]),
            np.array([0.14]), np.array([0.01])]
    assert stationarity_margin(alpha, beta) == pytest.approx(-0.54)


def test_margin_vertex_specific_uses_max():
    alpha = np.array([[0.1, 0.0], [0.5, -0.2]])
    beta = [np.array([0.1]), np.array([])]
    assert stationarity_margin(alpha, beta) == pytest.approx(1 - (0.5 + 0.1 + 0.2))


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def _checked_world():
    """A 4-node ring, a 12-week panel on it, its stage-1 weights and design,
    and GNAR(1, [1]) and GNAR(2, [1, 0]) fits."""
    g = ring_graph(4)
    panel = make_panel(np.random.default_rng(3).normal(size=(4, 12)), labels=g.labels)
    stages = stage_neighbourhoods(g, 1)
    weights = compute_weights(g, stages, WeightScheme("spl"))
    spec = spec_for(1, [1])
    design, response, rows = build_design(panel, spec, weights, stages)
    return dict(g=g, panel=panel, stages=stages, weights=weights, spec=spec, design=design,
                response=response, rows=rows, fitted=fit(panel, g, spec),
                fitted2=fit(panel, g, spec_for(2, [1, 0])))


def _relabelled(panel, labels):
    return TimeSeriesPanel(labels=labels, dates=panel.dates, values=panel.values)


def _head(panel, T):
    return make_panel(panel.values[:, :T], labels=panel.labels)


_DIST = np.ones((4, 4)) - np.eye(4)
_GAP = _DIST.copy()
_GAP[0, 1] = _GAP[1, 0] = 0.0      # nodes 0 and 1 are ring neighbours: stage 1


@pytest.mark.parametrize("call, error, message", [
    (lambda w: compute_weights(w["g"], w["stages"], WeightScheme("idw", dist_km=np.ones((3, 3)))),
     InvalidInputError, "dist_km shape (3, 3) does not match n=4"),
    (lambda w: compute_weights(w["g"], w["stages"],
                               WeightScheme("pb", dist_km=_DIST, populations=np.ones(3))),
     InvalidInputError, "populations shape (3,) does not match n=4"),
    (lambda w: compute_weights(w["g"], w["stages"], WeightScheme(
        "pb", dist_km=_DIST, populations=np.array([1.0, np.nan, 1.0, 1.0]))),
     InvalidInputError, "populations must be finite and positive"),
    (lambda w: compute_weights(w["g"], w["stages"], WeightScheme(
        "pb", dist_km=_DIST, populations=np.array([1.0, 0.0, 1.0, 1.0]))),
     InvalidInputError, "populations must be finite and positive"),
    (lambda w: compute_weights(w["g"], w["stages"], WeightScheme("idw", dist_km=_GAP)),
     InvalidInputError, "nonpositive distance between nodes 'n00' and 'n01'"),
    (lambda w: WeightScheme("gravity"),
     InvalidInputError, "unknown weight kind 'gravity'; expected one of "
                        "('spl', 'uniform', 'idw', 'pb')"),
    (lambda w: restriction_matrix(spec_for(1, [2]), w["weights"], 4),
     InvalidInputError, "order uses stage 2 but only 1 computed"),
    (lambda w: build_design(w["panel"], spec_for(2, [0, 2]), w["weights"], w["stages"]),
     InvalidInputError, "order uses stage 2 but only 1 computed"),
    (lambda w: spectral_radius(np.array([0.2]), [np.array([0.1, 0.1])], w["weights"], 4),
     InvalidInputError, "stage 2 outside computed range 1..1"),
    (lambda w: fit_ols(np.ones(12), np.ones(12), w["spec"], 4, 12),
     InvalidInputError, "design must be a 2-D array"),
    (lambda w: fit_egls(w["design"], w["response"], w["spec"], 4, 12, np.eye(3), w["rows"]),
     InvalidInputError, "sigma shape (3, 3) does not match n=4"),
    (lambda w: fit_egls(w["design"], w["response"], w["spec"], 4, 12, np.eye(4), None),
     InvalidInputError, "fit_egls needs a row_index aligned with the design"),
    (lambda w: fit_egls(w["design"], w["response"], w["spec"], 4, 12, np.eye(4),
                        w["rows"][:-1]),
     InvalidInputError, "fit_egls needs a row_index aligned with the design"),
    (lambda w: fit(_relabelled(w["panel"], w["g"].labels[::-1]), w["g"], w["spec"]),
     InvalidInputError, "panel and graph label order differ; align them before fitting"),
    (lambda w: estimate_sigma(w["panel"], 0), InvalidInputError, "p must be >= 1"),
    (lambda w: simulate(w["spec"], np.array([0.2]), [np.array([0.1])], w["g"], T=10,
                        sigma=1.0, init_values=np.zeros((4, 2))),
     InvalidInputError, "init_values shape (4, 2) != (4, 1)"),
    (lambda w: simulate(w["spec"], np.array([0.2, 0.1]), [np.array([0.1])], w["g"], T=10,
                        sigma=1.0),
     InvalidInputError, "alpha shape (2,) fits neither (p,) nor (N, p)"),
    (lambda w: forecast(w["fitted"], w["panel"], 0), InvalidInputError, "horizon must be >= 1"),
    (lambda w: forecast(w["fitted"], _relabelled(w["panel"], ("a", "b", "c", "d")), 1),
     InvalidInputError, "panel labels do not match the fitted model"),
    (lambda w: forecast(dataclasses.replace(w["fitted"], weight_set=None), w["panel"], 1),
     InvalidInputError, "fit carries no weights; refit via fit()/fit_ols with weight_set "
                        "to enable forecasting"),
    (lambda w: forecast(w["fitted"], _head(w["panel"], 3), 3),
     InvalidInputError, "panel has 3 columns; need >= p + horizon = 4"),
    (lambda w: forecast(w["fitted2"], _head(w["panel"], 1), 1, mode="recursive"),
     InvalidInputError, "panel shorter than lag order 2"),
    (lambda w: forecast(w["fitted"], w["panel"], 1, mode="direct"),
     InvalidInputError, "unknown mode 'direct'; expected 'rolling_one_step' or 'recursive'"),
], ids=["dist-shape", "population-shape", "population-nan", "population-zero",
        "zero-distance", "unknown-kind", "stage-range-restriction", "stage-range-design",
        "stage-range-radius", "design-1d", "egls-sigma-shape", "egls-no-rows",
        "egls-short-rows", "fit-labels", "sigma-p", "init-shape", "alpha-shape", "horizon",
        "forecast-labels", "forecast-no-weights", "rolling-short", "recursive-short",
        "forecast-mode"])
def test_input_checks_raise_their_exact_errors(call, error, message):
    with pytest.raises(GnarError) as info:
        call(_checked_world())
    assert type(info.value) is error
    assert str(info.value) == message
