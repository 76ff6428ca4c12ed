"""Property tests of the network operator: hop distances, stages, and the
VAR-form simulation and forecasts.

Random graphs may be disconnected and may have isolated nodes; an order
whose stages are empty somewhere must be rejected, every other case is
checked against the loop oracles in ``oracles.py``, with random missing
values in the forecast history.  Some coefficients are exactly 0.0 or -0.0:
the support of the VAR blocks, not the coefficients, decides which
predictions a missing value poisons.  The gather operator that simulation
and forecasting share must scatter back to the dense VAR blocks exactly,
and so must the companion and restriction matrices scattered from it.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_points, weekly_dates
from oracles import (
    bfs_spl,
    gnar_one_step_bruteforce,
    hops_bruteforce,
    simulate_gnar_bruteforce,
    var_blocks,
)

from gnarlib.errors import ModelInadmissibleError
from gnarlib.geo_graph import Graph, build_delaunay, shortest_path_lengths, stage_neighbourhoods
from gnarlib.gnar_core import (
    GnarFit,
    GnarOrder,
    GnarSpec,
    WeightScheme,
    _lag_operator,
    compute_weights,
    forecast,
    restriction_matrix,
    simulate,
    spectral_radius,
)
from gnarlib.panel import TimeSeriesPanel

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_n=9):
    """Up to three random connected components, each a spanning tree plus a
    few extra edges; a single-node component is an isolated node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    component = rng.permutation(np.arange(n) % draw(st.integers(1, 3)))
    edges = set()
    for c in np.unique(component):
        members = rng.permutation(np.flatnonzero(component == c)).tolist()
        for k in range(1, len(members)):
            a, b = members[k], members[int(rng.integers(0, k))]
            edges.add((min(a, b), max(a, b)))
        for _ in range(draw(st.integers(0, 2)) if len(members) > 2 else 0):
            a, b = sorted(rng.choice(members, size=2, replace=False).tolist())
            edges.add((a, b))
    return Graph(labels=tuple(f"v{i}" for i in range(n)), edges=frozenset(edges))


@st.composite
def models(draw):
    """A graph, a weight scheme, an order and small random coefficients, of
    which about half may be exactly 0.0 or -0.0."""
    g = draw(graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 3))
    s = tuple(draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=p, max_size=p)))
    if draw(st.booleans()):
        d = rng.uniform(10.0, 500.0, size=(g.n, g.n))
        scheme = WeightScheme("idw", dist_km=(d + d.T) / 2.0)
    else:
        scheme = WeightScheme("uniform")
    spec = GnarSpec(order=GnarOrder(p, s), global_alpha=draw(st.booleans()), scheme=scheme)
    scale = 0.9 / (p * (1 + max(s)))
    alpha = rng.uniform(-scale, scale, size=p if spec.global_alpha else (g.n, p))
    beta = [rng.uniform(-scale, scale, size=sj) for sj in s]
    zeros = draw(st.sampled_from([0.0, 0.5]))
    for c in [alpha, *beta]:
        hit = rng.uniform(size=c.shape) < zeros
        c[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return g, spec, alpha, beta, rng


def _oracle_stages(g, spec):
    """Stage sets from the hop oracle and the library's weights over them."""
    r_max = max(spec.order.max_stage, 1)
    hops = hops_bruteforce(g.n, g.edges)
    weights = compute_weights(g, stage_neighbourhoods(g, r_max), spec.scheme)
    sets = [[{q for q in range(g.n) if hops[i, q] == r} for r in range(1, r_max + 1)]
            for i in range(g.n)]
    wdicts = [[weights.stage_weights(i, r) for r in range(1, r_max + 1)]
              for i in range(g.n)]
    assert [[set(w) for w in per_node] for per_node in wdicts] == sets
    return sets, wdicts, weights


def _admissible(sets, order):
    return all(sets[i][r - 1] for sj in order.s for r in range(1, sj + 1)
               for i in range(len(sets)))


def _alpha_np(alpha, n):
    return np.tile(alpha, (n, 1)) if alpha.ndim == 1 else alpha


@PROPERTY
@given(graphs(max_n=12), st.integers(1, 4))
def test_hops_and_stages_equal_bruteforce_oracle(g, r_max):
    full = hops_bruteforce(g.n, g.edges)
    spl = shortest_path_lengths(g)
    np.testing.assert_array_equal(spl, full)
    np.testing.assert_array_equal(spl, bfs_spl(g.n, set(g.edges)))
    stages = stage_neighbourhoods(g, r_max)
    np.testing.assert_array_equal(stages.hops, hops_bruteforce(g.n, g.edges, r_max))
    for i in range(g.n):
        for r in range(1, r_max + 1):
            assert stages.stage(i, r) == frozenset(np.flatnonzero(full[i] == r).tolist())
    assert stages.stages == tuple(tuple(stages.stage(i, r) for r in range(1, r_max + 1))
                                  for i in range(g.n))


@PROPERTY
@given(models(), st.sampled_from([0.0, 0.5]), st.integers(0, 2**16))
def test_simulate_equals_bruteforce_recursion(model, sigma, seed):
    g, spec, alpha, beta, rng = model
    p, T = spec.order.p, 25
    sets, wdicts, _ = _oracle_stages(g, spec)
    init = rng.normal(size=(g.n, p))
    if not _admissible(sets, spec.order):
        with pytest.raises(ModelInadmissibleError):
            simulate(spec, alpha, beta, g, T=T, sigma=sigma, seed=seed, init_values=init)
        return
    panel = simulate(spec, alpha, beta, g, T=T, sigma=sigma, seed=seed, init_values=init)
    # with init_values given, the innovations are the only draws, one column per step
    draws = np.random.default_rng(seed)
    innov = np.zeros((g.n, T))
    if sigma > 0:
        for t in range(p, T):
            innov[:, t] = draws.normal(0.0, sigma, size=g.n)
    oracle = simulate_gnar_bruteforce(_alpha_np(alpha, g.n), beta, sets, wdicts, init, T,
                                      innov)
    np.testing.assert_array_equal(np.isnan(panel.values), np.isnan(oracle))
    np.testing.assert_allclose(panel.values, oracle, rtol=0, atol=1e-12)


@PROPERTY
@given(models(), st.sampled_from([0.0, 0.1, 0.3]), st.integers(1, 4))
def test_forecasts_equal_loop_one_step_oracle(model, missing_rate, horizon):
    g, spec, alpha, beta, rng = model
    p, T = spec.order.p, 12
    sets, wdicts, weights = _oracle_stages(g, spec)
    if not _admissible(sets, spec.order):
        return
    values = rng.normal(size=(g.n, T))
    values[rng.uniform(size=values.shape) < missing_rate] = np.nan
    panel = TimeSeriesPanel(labels=g.labels, dates=weekly_dates(T), values=values)
    fitted = GnarFit(spec=spec, labels=g.labels, gamma=np.empty(0), gamma_se=np.empty(0),
                     column_names=(), alpha=alpha, beta=tuple(beta), sigma2=1.0,
                     residuals=None, n_obs=0, M=0, loglik=0.0, bic=0.0, aic=0.0,
                     weight_set=weights)
    alpha_np = _alpha_np(alpha, g.n)

    rolled = forecast(fitted, panel, horizon, mode="rolling_one_step")
    expected = np.column_stack([
        gnar_one_step_bruteforce(values, t, alpha_np, beta, sets, wdicts)
        for t in range(T - horizon, T)])
    np.testing.assert_array_equal(np.isnan(rolled), np.isnan(expected))
    np.testing.assert_allclose(rolled, expected, rtol=0, atol=1e-12)

    recursed = forecast(fitted, panel, horizon, mode="recursive")
    ext = np.concatenate([values, np.empty((g.n, horizon))], axis=1)
    for t in range(T, T + horizon):
        ext[:, t] = gnar_one_step_bruteforce(ext, t, alpha_np, beta, sets, wdicts)
    np.testing.assert_array_equal(np.isnan(recursed), np.isnan(ext[:, T:]))
    np.testing.assert_allclose(recursed, ext[:, T:], rtol=0, atol=1e-12)


@PROPERTY
@given(models())
def test_gather_operator_scatters_to_the_var_blocks(model):
    # every row lists its own lags and the weighted members of the stages its
    # lags use, each once, zero coefficients included; scattered back, the
    # coefficients are the dense [B_p ... B_1] bit for bit
    g, spec, alpha, beta, _ = model
    _, _, weights = _oracle_stages(g, spec)
    rows, cols, coef, starts = _lag_operator(alpha, beta, weights, g.n)
    np.testing.assert_array_equal(
        rows, np.repeat(np.arange(g.n), np.diff(np.append(starts, len(cols)))))
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(cols)
    dense, support = np.zeros((2, g.n, spec.order.p * g.n))
    dense[rows, cols], support[rows, cols] = coef, 1.0
    blocks = var_blocks(_alpha_np(alpha, g.n), beta, weights.stack)
    np.testing.assert_array_equal(dense, np.hstack(blocks[::-1]))
    stages = [np.eye(g.n) + (weights.stack[:len(bj)] != 0).sum(axis=0) for bj in beta]
    np.testing.assert_array_equal(support, np.hstack(stages[::-1]))


@PROPERTY
@given(models(), st.sampled_from(["spl", "uniform", "idw", "pb"]))
def test_companion_and_restriction_matrix_equal_the_dense_var_blocks(model, kind):
    # both are scattered from the gather form; the companion must be the one
    # stacked from the dense blocks byte for byte (signed zeros included), so
    # its spectral radius is that of the dense companion exactly, and each
    # restriction column must be the dense blocks of its unit vector
    g, spec, alpha, beta, rng = model
    n, p = g.n, spec.order.p
    d = rng.uniform(10.0, 500.0, size=(n, n))
    spec = dataclasses.replace(spec, scheme=WeightScheme(
        kind, dist_km=(d + d.T) / 2.0, populations=rng.uniform(1e3, 1e6, size=n)))
    sets, _, weights = _oracle_stages(g, spec)
    companion = np.eye(n * p, k=-n)
    companion[:n] = np.hstack(var_blocks(_alpha_np(alpha, n), beta, weights.stack))
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        radius = spectral_radius(alpha, beta, weights, n)
    assert eigvals.call_args.args[0].tobytes() == companion.tobytes()
    assert radius == float(np.max(np.abs(np.linalg.eigvals(companion))))

    if not _admissible(sets, spec.order):
        with pytest.raises(ModelInadmissibleError):
            restriction_matrix(spec, weights, n)
        return
    R = restriction_matrix(spec, weights, n).matrix
    k = p if spec.global_alpha else p * n
    columns = []
    for unit in np.eye(spec.n_params(n)):
        a = unit[:k] if spec.global_alpha else unit[:k].reshape(p, n).T
        b = np.split(unit[k:], np.cumsum(spec.order.s)[:-1])
        columns.append(var_blocks(_alpha_np(a, n), b, weights.stack).transpose(0, 2, 1).ravel())
    assert np.array_equal(R, np.column_stack(columns))


def test_prediction_forms_no_n_by_n_array():
    # the dense N x pN operator alone was 64 MB at n = 2000 and p = 2; the
    # gather form holds about 27 entries a row
    pts = random_points(2000, np.random.default_rng(6))
    g = build_delaunay(pts)
    spec = GnarSpec(GnarOrder(2, (2, 1)), scheme=WeightScheme("uniform"))
    weights = compute_weights(g, stage_neighbourhoods(g, 2), spec.scheme)
    fitted = GnarFit(spec=spec, labels=g.labels, gamma=np.empty(0), gamma_se=np.empty(0),
                     column_names=(), alpha=np.array([0.2, 0.1]),
                     beta=(np.array([0.2, 0.1]), np.array([0.1])), sigma2=1.0,
                     residuals=None, n_obs=0, M=0, loglik=0.0, bic=0.0, aic=0.0,
                     weight_set=weights)
    rng = np.random.default_rng(7)
    panel = TimeSeriesPanel(labels=g.labels, dates=weekly_dates(10),
                            values=rng.normal(size=(g.n, 10)))
    forecast(fitted, panel, 5, mode="recursive")        # first-call set-up
    tracemalloc.start()
    try:
        preds = forecast(fitted, panel, 5, mode="recursive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"the forecast peaked at {peak / 2**20:.1f} MiB"
    assert np.isfinite(preds).all()
