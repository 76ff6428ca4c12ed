"""The n x n operators are built once and shared, and sharing changes no bit.

One great-circle distance matrix per point set (a one-entry memo keyed by the
exact coordinates and the radius), one hop matrix per graph (the deepest one
computed, kept on the immutable ``Graph``), and one Moran weight cut per
present-node set.  Every result must equal the loop oracles exactly, a cached
array must be read-only, and writing into a returned array must not reach
the next call.  A counted contract pins what each model command builds:
weight stacks, hop matrices, stacked designs and EGLS covariances.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_connected_graph, random_points
from oracles import distance_matrix_loop, hops_bruteforce, moran_permutation_bruteforce

from gnarlib import diagnostics, geo_graph, gnar_core
from gnarlib.cli import main
from gnarlib.datasets import irish_queen_edges_path
from gnarlib.errors import GnarError
from gnarlib.geo_graph import (
    GeoPoint,
    Graph,
    build_dnn,
    build_knn,
    distance_matrix,
    shortest_path_lengths,
    stage_neighbourhoods,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture()
def empty_memo(monkeypatch):
    monkeypatch.setattr(geo_graph, "_DISTANCES", [(None, None)])


def _pair_distance_calls(monkeypatch):
    calls = []
    real = geo_graph._pair_distances

    def spy(points, i, j, radius_km=geo_graph.EARTH_RADIUS_KM):
        calls.append(len(points))
        return real(points, i, j, radius_km)

    monkeypatch.setattr(geo_graph, "_pair_distances", spy)
    return calls


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_memoised_distance_matrix_equals_the_scalar_loop(empty_memo, monkeypatch):
    points = random_points(30, np.random.default_rng(1))
    calls = _pair_distance_calls(monkeypatch)
    for radius in (6371.0, 6371.0, 1.0, 1.0):
        assert np.array_equal(distance_matrix(points, radius), distance_matrix_loop(points, radius))
    assert calls == [30, 30]        # a second radius is a second key


def test_a_one_ulp_or_reordered_point_set_misses_the_memo(empty_memo, monkeypatch):
    points = random_points(12, np.random.default_rng(2))
    first = distance_matrix(points)
    p = points[5]
    nudged = points[:5] + [GeoPoint(p.node_id, p.lat_deg, math.nextafter(p.lon_deg, 0.0))] \
        + points[6:]
    shuffled = [points[k] for k in np.random.default_rng(3).permutation(12)]
    calls = _pair_distance_calls(monkeypatch)
    for other in (nudged, shuffled, points):     # the memo holds one entry
        assert np.array_equal(distance_matrix(other), distance_matrix_loop(other))
    assert calls == [12, 12, 12]
    assert not np.array_equal(distance_matrix(shuffled), first)


def test_distance_callers_compute_the_pair_distances_once(empty_memo, monkeypatch):
    points = random_points(20, np.random.default_rng(4))
    calls = _pair_distance_calls(monkeypatch)
    d = distance_matrix(points)
    knn, dnn = build_knn(points, 3), build_dnn(points, float(np.median(d)))
    assert calls == [20]
    assert knn.n_edges and dnn.n_edges
    assert np.array_equal(distance_matrix(points), distance_matrix_loop(points))  # no inf diagonal


def test_writing_a_returned_distance_matrix_changes_no_later_result(empty_memo):
    points = random_points(8, np.random.default_rng(5))
    d = distance_matrix(points)
    d[:] = -1.0
    assert np.array_equal(distance_matrix(points), distance_matrix_loop(points))
    with pytest.raises(ValueError, match="read-only"):
        geo_graph._distances(points)[0, 1] = 0.0


# ---------------------------------------------------------------------------
# hops
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw):
    """Connected or split into components, up to 90 nodes (two BFS words)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 90))
    component = rng.integers(0, draw(st.integers(1, 3)), size=n)
    i, j = np.triu_indices(n, 1)
    keep = (component[i] == component[j]) & (rng.random(len(i)) < 2.5 / max(n - 1, 1))
    return Graph(tuple(f"v{k}" for k in range(n)), np.column_stack([i[keep], j[keep]]))


@PROPERTY
@given(graphs(), st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=2, max_size=5))
def test_hop_requests_in_any_order_equal_queue_bfs(g, depths):
    # deep then shallow masks the kept matrix; shallow then deep replaces it
    edges = sorted(g.edges)
    for r in depths:
        got = shortest_path_lengths(g) if r is None else stage_neighbourhoods(g, r).hops
        assert np.array_equal(got, hops_bruteforce(g.n, edges, r)), (depths, r)


def test_one_graph_runs_one_search_until_a_deeper_request(monkeypatch):
    g = random_connected_graph(40, np.random.default_rng(6))
    calls = []
    real = geo_graph._hop_matrix
    monkeypatch.setattr(geo_graph, "_hop_matrix",
                        lambda n, edges, r_max=None: calls.append(r_max) or real(n, edges, r_max))
    for r in (2, 1, 2, 3, 1):
        stage_neighbourhoods(g, r)
    shortest_path_lengths(g)
    stage_neighbourhoods(g, 4)
    diagnostics.moran_weights(g)
    geo_graph.network_summary(g, brg_samples=2, seed=0)      # the samples form no hop matrix
    assert calls == [2, 3, 39]   # 39 = n - 1 hops reaches every node


def test_writing_a_returned_hop_matrix_changes_no_later_result():
    g = random_connected_graph(15, np.random.default_rng(7))
    full = hops_bruteforce(g.n, sorted(g.edges))
    shortest_path_lengths(g)[:] = -1.0
    stage_neighbourhoods(g, 2).hops[:] = -1.0
    assert np.array_equal(shortest_path_lengths(g), full)
    assert np.array_equal(stage_neighbourhoods(g, 2).hops, np.where(full <= 2, full, np.inf))
    with pytest.raises(ValueError, match="read-only"):
        g.__dict__["_hops"][1][0, 1] = 0


def test_simulate_refit_runs_one_hop_search(tmp_path, monkeypatch):
    calls = []
    real = geo_graph._hop_matrix
    monkeypatch.setattr(geo_graph, "_hop_matrix",
                        lambda n, edges, r_max=None: calls.append(r_max) or real(n, edges, r_max))
    graph = tmp_path / "queen.json"
    assert main(["network", "build", "--kind", "edgelist", "--edges", irish_queen_edges_path(),
                 "--out", str(graph)]) == 0
    assert main(["simulate", "--graph", str(graph), "--p", "2", "--s", "2,1",
                 "--alpha", "0.2,0.1", "--beta", "0.1,0.1;0.1", "--T", "60", "--sigma", "1",
                 "--refit", "--out-dir", str(tmp_path / "sim")]) == 0
    assert calls == [2]     # simulate, the stationarity check and the refit share it


# ---------------------------------------------------------------------------
# What each model command builds
# ---------------------------------------------------------------------------

_MODEL = "--panel {i}/sim/panel.csv --graph {i}/g.json"
_SIM = "simulate --graph {i}/g.json --p 1 --s 1 --alpha 0.3 --beta 0.2 --T 60 --sigma 1"
_BUILT = ("compute_weights", "_hop_matrix", "_design_from_planes", "estimate_sigma")

# argv, exit code, then the calls of each of _BUILT.  A plain simulate builds
# its weight stack twice (the simulation and the stationarity check); with
# --refit the check reads the refit's stack.  EGLS refuses a panel too short
# for its covariance before it cuts a design.  A search cuts no design: one
# gather of every column its groups use serves them all.
BUILDS = {
    "fit": (f"fit {_MODEL} --p 1 --s 1 --out {{o}}/f.json", 0, (1, 1, 1, 0)),
    "fit egls": (f"fit {_MODEL} --p 1 --s 1 --method egls --out {{o}}/f.json", 0, (1, 1, 1, 1)),
    "fit egls, too short": (f"fit {_MODEL} --p 5 --s 1,1,1,1,1 --method egls --out {{o}}/f.json",
                            1, (1, 1, 0, 1)),
    "forecast": (f"forecast {_MODEL} --p 1 --s 1 --holdout 5 --out-dir {{o}}", 0, (1, 1, 1, 0)),
    "select": (f"select {_MODEL} --pmax 2 --smax 1 --out {{o}}/rep", 0, (1, 1, 0, 0)),
    "diagnose moran": (f"diagnose moran {_MODEL} --R 20 --out {{o}}/m", 0, (0, 1, 0, 0)),
    "simulate": (f"{_SIM} --out-dir {{o}}", 0, (2, 1, 0, 0)),
    "simulate --refit": (f"{_SIM} --refit --out-dir {{o}}", 0, (2, 1, 1, 0)),
}


@pytest.fixture(scope="module")
def model_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("model_inputs")
    assert main(["network", "build", "--kind", "edgelist", "--edges", irish_queen_edges_path(),
                 "--out", str(d / "g.json")]) == 0
    assert main(f"{_SIM} --T 120 --seed 5 --out-dir {d}/sim".format(i=d).split()) == 0
    return d


@pytest.mark.parametrize("command", BUILDS)
def test_each_model_command_builds_what_is_counted(model_inputs, tmp_path, monkeypatch,
                                                    capsys, command):
    argv, code, expected = BUILDS[command]
    calls = dict.fromkeys(_BUILT, 0)

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in _BUILT:
        module = geo_graph if name == "_hop_matrix" else gnar_core
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(argv.format(i=model_inputs, o=tmp_path).split()) == code
    assert tuple(calls.values()) == expected, calls


# ---------------------------------------------------------------------------
# Moran
# ---------------------------------------------------------------------------

def _assert_equal(got, ref):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f.name
        else:
            assert a == b, f.name


@st.composite
def shared_count_panels(draw):
    """Dates that miss k nodes each, some the same ones and some not, between
    dates where every node is present, in a drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 6)))
    k = draw(st.integers(1, min(3, n - 2)))
    gaps = [rng.choice(n, size=k, replace=False) for _ in range(draw(st.integers(2, 4)))]
    missing = [gaps[draw(st.integers(0, len(gaps) - 1))] for _ in range(draw(st.integers(2, 6)))]
    missing += [()] * draw(st.integers(1, 4))
    values = rng.normal(size=(n, len(missing)))
    if draw(st.booleans()):
        values = np.round(values)                  # tied values and tied ranks
    for t in rng.permutation(len(missing)):
        values[list(missing[t]), t] = np.nan
    return make_panel(values, labels=g.labels), g, draw(st.integers(20, 40))


@PROPERTY
@given(shared_count_panels(), st.integers(0, 2**40), st.booleans(), st.booleans())
def test_bands_with_shared_node_counts_equal_bruteforce(case, seed, rank_based, small_blocks):
    panel, g, R = case
    args = dict(R=R, seed=seed, rank_based=rank_based)
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:                # a present-node set may span two shuffle blocks
            mp.setattr(diagnostics, "_MORAN_CELLS", 2 * R * g.n)
        try:
            ref = moran_permutation_bruteforce(panel, g, **args)
        except GnarError as exc:        # every date constant: no testable date
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                diagnostics.moran_permutation_test(panel, g, **args)
            return
        _assert_equal(diagnostics.moran_permutation_test(panel, g, **args), ref)


def test_moran_cuts_the_weights_once_per_present_node_set(monkeypatch):
    g = random_connected_graph(30, np.random.default_rng(8))
    values = np.random.default_rng(9).normal(size=(30, 9))
    for t, gap in zip(range(9), [(), (2,), (5,), (), (2,), (2, 5), (5,), (), (2,)]):
        values[list(gap), t] = np.nan
    panel = make_panel(values, labels=g.labels)
    ref = moran_permutation_bruteforce(panel, g, R=20, seed=3)
    cuts = []
    real = np.ix_
    monkeypatch.setattr(diagnostics, "_MORAN_CELLS", 20 * 29)     # one date a block
    monkeypatch.setattr(np, "ix_", lambda *a: cuts.append(a[0].sum()) or real(*a))
    got = diagnostics.moran_permutation_test(panel, g, R=20, seed=3)
    monkeypatch.undo()
    _assert_equal(got, ref)
    assert sorted(cuts) == [28, 29, 29]     # {2, 5}, {2}, {5}; none for the full dates

