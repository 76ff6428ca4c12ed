"""Network construction, stages, shortest paths, summaries."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import path_graph, random_points, ring_graph
from oracles import bfs_spl, delaunay_edges_bruteforce

from gnarlib.errors import (
    DegenerateGeometryError,
    InvalidInputError,
)
from gnarlib.geo_graph import (
    GeoPoint,
    Graph,
    _project,
    build_complete,
    build_delaunay,
    build_dnn,
    build_economic_hub,
    build_from_edgelist,
    build_knn,
    derive_gabriel,
    derive_relative,
    derive_soi,
    great_circle_distance,
    network_summary,
    read_edgelist_csv,
    read_points_csv,
    shortest_path_lengths,
    stage_neighbourhoods,
)


# ---------------------------------------------------------------------------
# great_circle_distance
# ---------------------------------------------------------------------------

def test_distance_zero_at_identical_point():
    p = GeoPoint("x", 12.3, -45.6)
    assert great_circle_distance(p, p) == 0.0


def test_distance_antipodal():
    a = GeoPoint("a", 0.0, 0.0)
    b = GeoPoint("b", 0.0, 180.0)
    assert great_circle_distance(a, b, 6371.0) == pytest.approx(math.pi * 6371.0)


def test_distance_kerry_cork(irish_towns):
    by_id = {p.node_id: p for p in irish_towns}
    d = great_circle_distance(by_id["Kerry"], by_id["Cork"])
    assert d == pytest.approx(90.3, abs=2.0)


def test_distance_invalid_coordinates():
    with pytest.raises(InvalidInputError):
        GeoPoint("bad", float("nan"), 0.0)
    with pytest.raises(InvalidInputError):
        GeoPoint("bad", 95.0, 0.0)


def test_distance_properties_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = random_points(3, rng, lat0=10.0, lon0=0.0, spread=40.0)
        a, b, c = pts
        dab = great_circle_distance(a, b)
        dba = great_circle_distance(b, a)
        assert dab == dba
        assert dab >= 0.0
        dac = great_circle_distance(a, c)
        dbc = great_circle_distance(b, c)
        assert dab <= dac + dbc + 1e-9


# ---------------------------------------------------------------------------
# KNN / DNN
# ---------------------------------------------------------------------------

def test_knn_full_k_gives_complete(irish_towns):
    g = build_knn(irish_towns, 25)
    assert g.n_edges == 26 * 25 // 2


def test_knn_collinear_tie_break():
    # middle point is equidistant from both ends; union symmetrization
    # makes the path regardless of which tie wins
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0), GeoPoint("c", 0.0, 2.0)]
    g = build_knn(pts, 1)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_knn_shipped_degree(irish_towns):
    g11 = build_knn(irish_towns, 11)
    assert 2 * g11.n_edges / 26 == pytest.approx(13.46, abs=0.5)


def test_knn_k_out_of_range(irish_towns):
    with pytest.raises(InvalidInputError):
        build_knn(irish_towns, 0)
    with pytest.raises(InvalidInputError):
        build_knn(irish_towns, 26)


def test_dnn_complete_at_max_distance(irish_towns):
    g = build_dnn(irish_towns, 1e5)
    assert g.n_edges == 26 * 25 // 2


def test_dnn_empty_below_min_distance(irish_towns):
    g = build_dnn(irish_towns, 1.0)
    assert g.n_edges == 0


def test_dnn_threshold_excludes_kerry_cork(irish_towns):
    by_id = {p.node_id: p for p in irish_towns}
    d = great_circle_distance(by_id["Kerry"], by_id["Cork"])
    g = build_dnn(irish_towns, d - 0.5)
    assert not g.has_edge("Kerry", "Cork")
    g2 = build_dnn(irish_towns, d + 0.5)
    assert g2.has_edge("Kerry", "Cork")


def test_dnn_threshold_equal_to_a_distance_keeps_that_edge(irish_towns):
    by_id = {p.node_id: p for p in irish_towns}
    d = great_circle_distance(by_id["Kerry"], by_id["Cork"])
    assert build_dnn(irish_towns, d).has_edge("Kerry", "Cork")
    assert not build_dnn(irish_towns, math.nextafter(d, 0.0)).has_edge("Kerry", "Cork")


@pytest.mark.parametrize("k", [1.5, True, "2", np.float64(2.0)])
def test_knn_non_integer_k_is_an_error(irish_towns, k):
    with pytest.raises(InvalidInputError, match="k must be an integer"):
        build_knn(irish_towns, k)


def test_knn_numpy_integer_k(irish_towns):
    assert build_knn(irish_towns, np.int64(3)) == build_knn(irish_towns, 3)


# ---------------------------------------------------------------------------
# Delaunay family
# ---------------------------------------------------------------------------

def test_delaunay_triangle():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0), GeoPoint("c", 1.0, 0.5)]
    g = build_delaunay(pts)
    assert g.n_edges == 3


def test_delaunay_square_has_five_edges():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0),
           GeoPoint("c", 1.0, 1.0), GeoPoint("d", 1.0, 0.0)]
    g = build_delaunay(pts)
    assert g.n_edges == 5
    sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert sides <= g.edges
    # brute-force circumcircle oracle accepts both diagonals of the
    # (cocircular) square; the triangulation must pick exactly one
    oracle = delaunay_edges_bruteforce(_project(pts))
    assert g.edges <= oracle


def test_delaunay_square_plus_center():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0),
           GeoPoint("c", 1.0, 1.0), GeoPoint("d", 1.0, 0.0),
           GeoPoint("m", 0.5, 0.5)]
    g = build_delaunay(pts)
    assert g.n_edges == 8
    spokes = {(0, 4), (1, 4), (2, 4), (3, 4)}
    assert spokes <= g.edges


def test_delaunay_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = random_points(12, rng)
        g = build_delaunay(pts)
        oracle = delaunay_edges_bruteforce(_project(pts))
        assert g.edges == oracle


def test_delaunay_collinear_raises():
    pts = [GeoPoint(f"p{i}", 0.0, float(i)) for i in range(4)]
    with pytest.raises(DegenerateGeometryError):
        build_delaunay(pts)


@pytest.mark.parametrize("build", [build_delaunay, derive_gabriel, derive_soi,
                                   derive_relative])
def test_duplicate_point_is_an_error(build):
    # qhull would leave one of two coincident points out of the triangulation,
    # isolating it in every graph of the family
    pts = [GeoPoint("a", 53.0, -8.0), GeoPoint("b", 52.0, -7.0),
           GeoPoint("c", 53.0, -8.0), GeoPoint("d", 52.5, -9.0)]
    with pytest.raises(DegenerateGeometryError) as exc:
        build(pts)
    assert "'a'" in str(exc.value) and "'c'" in str(exc.value)


def test_gabriel_acute_triangle_keeps_all():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0), GeoPoint("c", 0.9, 0.5)]
    g = derive_gabriel(pts)
    assert g.n_edges == 3


def test_gabriel_right_triangle_keeps_hypotenuse():
    # right angle at a: c lies ON the diametral circle of the hypotenuse,
    # and the boundary case is kept under <=
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 3.0), GeoPoint("c", 4.0, 0.0)]
    g = derive_gabriel(pts)
    assert g.has_edge("b", "c")
    assert g.n_edges == 3


def test_soi_mutual_nearest_neighbours_kept():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0), GeoPoint("c", 0.0, 2.5),
           GeoPoint("d", 1.5, 1.0)]
    g = derive_soi(pts)
    assert g.has_edge("a", "b")


def test_soi_removes_long_edge():
    # tall thin rectangle: each long side's endpoints have nearest-neighbour
    # radius 1 (the short sides), so the length-10 sides fail d < r_x + r_y
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("a2", 1.0, 0.0),
           GeoPoint("b", 0.0, 10.0), GeoPoint("b2", 1.0, 10.0)]
    g = derive_soi(pts)
    assert g.has_edge("a", "a2")
    assert g.has_edge("b", "b2")
    assert not g.has_edge("a", "b")
    assert not g.has_edge("a2", "b2")


def test_relative_equilateral_keeps_all_edges():
    # equilateral in projected coordinates (equality kept under <=)
    lat = math.sqrt(3.0) / 2.0
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 1.0), GeoPoint("c", lat, 0.5)]
    g = derive_relative(pts)
    # the projection squashes longitudes slightly, so allow the strict
    # subset too; all three must survive for the exact equilateral only
    assert g.n_edges >= 2


def test_relative_removes_dominated_edge():
    pts = [GeoPoint("a", 0.0, 0.0), GeoPoint("b", 0.0, 2.0), GeoPoint("c", 0.2, 1.0)]
    g = derive_relative(pts)
    assert not g.has_edge("a", "b")
    assert g.n_edges == 2


def test_containments_on_random_point_sets():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = random_points(15, rng)
        delaunay = build_delaunay(pts)
        gabriel = derive_gabriel(pts)
        soi = derive_soi(pts)
        relative = derive_relative(pts)
        assert relative.edges <= gabriel.edges <= delaunay.edges
        assert soi.edges <= delaunay.edges


@pytest.mark.parametrize("build", [build_delaunay, derive_gabriel, derive_soi, derive_relative])
def test_delaunay_family_forms_no_n_by_n_array(build):
    # half of one 2000 x 2000 float64 matrix; the filters read the edges
    # and their kd-tree neighbours, all O(n) arrays
    pts = random_points(2000, np.random.default_rng(5))
    build(pts)                          # imports and first-call set-up
    tracemalloc.start()
    try:
        build(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{build.__name__} peaked at {peak / 2**20:.1f} MiB"


def test_delaunay_past_a_32_bit_edge_key():
    # qhull numbers vertices in 32 bits; i * n + j exceeds 2**31 from
    # n = 46341 on, so the edge key must not be formed in that type
    from scipy.spatial import Delaunay
    pts = random_points(50_000, np.random.default_rng(8))
    s = Delaunay(_project(pts)).simplices
    sides = np.sort(np.concatenate([s[:, [1, 2]], s[:, [0, 2]], s[:, [0, 1]]]), axis=1)
    assert np.array_equal(build_delaunay(pts).edge_array, np.unique(sides, axis=0))


def test_constructions_are_deterministic(irish_towns):
    for build in (lambda: build_knn(irish_towns, 11),
                  lambda: build_delaunay(irish_towns),
                  lambda: derive_soi(irish_towns)):
        assert build().edges == build().edges


# ---------------------------------------------------------------------------
# Edge lists, hubs, complete
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edge", [(0, 1.5), (0.0, 1), (True, 2)])
def test_graph_rejects_non_integer_edge_index(edge):
    with pytest.raises(InvalidInputError, match="non-integer") as exc:
        Graph(labels=("a", "b", "c"), edges=frozenset({edge}))
    assert repr(edge[0]) in str(exc.value)


def test_graph_from_frozenset_equals_graph_from_array():
    pairs = [(0, 2), (1, 3), (0, 1), (2, 3)]
    labels = ("a", "b", "c", "d")
    from_set = Graph(labels=labels, edges=frozenset(pairs))
    from_array = Graph(labels=labels, edges=np.array(pairs, dtype=np.int32))
    assert from_set == from_array and hash(from_set) == hash(from_array)
    assert from_set.to_json() == from_array.to_json() == {
        "labels": list(labels), "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    assert from_array.edges == frozenset(pairs)
    np.testing.assert_array_equal(from_array.edge_array, [[0, 1], [0, 2], [1, 3], [2, 3]])
    assert Graph(labels, pairs + pairs) == from_set  # duplicates are stored once
    assert Graph(labels, []) != from_set and from_set != "not a graph"


def test_graph_is_immutable():
    g = Graph(labels=("a", "b"), edges=np.array([[0, 1]]))
    with pytest.raises(AttributeError):
        g.labels = ("x", "y")
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 1


@pytest.mark.parametrize("edges, message", [
    (np.array([[0.0, 1.0]]), "integer index pairs"),
    (np.array([[True, False]]), "integer index pairs"),
    (np.array([0, 1]), "integer index pairs"),
    (np.array([[0, 1, 2]]), "integer index pairs"),
    (np.array([[1, 1]]), "self-loop on node 'b'"),
    (np.array([[0, 1], [2, 1]]), r"edge \(2, 1\) out of range for n=3"),
    ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
    ([(-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
])
def test_graph_rejects_bad_edges(edges, message):
    with pytest.raises(InvalidInputError, match=message):
        Graph(labels=("a", "b", "c"), edges=edges)


def test_has_edge_unknown_label_is_an_error():
    g = Graph(labels=("a", "b"), edges=[(0, 1)])
    assert g.has_edge("b", "a")
    with pytest.raises(InvalidInputError, match="unknown node label 'zz'"):
        g.has_edge("a", "zz")


def test_edgelist_single_edge():
    g = build_from_edgelist(["a", "b"], [("a", "b")])
    assert g.n_edges == 1


def test_edgelist_duplicate_stored_once():
    g = build_from_edgelist(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.n_edges == 1


def test_edgelist_unknown_label():
    with pytest.raises(InvalidInputError, match="zz"):
        build_from_edgelist(["a", "b"], [("a", "zz")])


def test_edgelist_self_loop():
    with pytest.raises(InvalidInputError, match="self-loop"):
        build_from_edgelist(["a", "b"], [("a", "a")])


def test_queen_average_degree(queen_graph):
    assert 2 * queen_graph.n_edges / 26 == pytest.approx(4.38, abs=0.5)


def test_hub_star_from_empty_base():
    pts = [GeoPoint("h", 0.0, 0.0), GeoPoint("x", 1.0, 0.0), GeoPoint("y", 0.0, 1.0)]
    base = Graph(labels=("h", "x", "y"), edges=frozenset())
    g = build_economic_hub(base, pts, ["h"])
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_hub_idempotent_when_already_adjacent():
    pts = [GeoPoint("h", 0.0, 0.0), GeoPoint("x", 1.0, 0.0)]
    base = Graph(labels=("h", "x"), edges=frozenset({(0, 1)}))
    g = build_economic_hub(base, pts, ["h"])
    assert g.edges == base.edges


def test_hub_tie_goes_to_the_smaller_label():
    # x is equidistant from both hubs; the hub listed first in the labels
    # has the larger label, so label order and index order disagree
    pts = [GeoPoint("hub_b", 0.0, -1.0), GeoPoint("hub_a", 0.0, 1.0),
           GeoPoint("x", 0.0, 0.0), GeoPoint("y", 0.0, -3.0)]
    base = Graph(labels=("hub_b", "hub_a", "x", "y"), edges=frozenset())
    g = build_economic_hub(base, pts, ["hub_b", "hub_a", "hub_b"])
    assert g.edges == frozenset({(1, 2), (0, 3)})


def test_hub_requires_hubs():
    pts = [GeoPoint("h", 0.0, 0.0), GeoPoint("x", 1.0, 0.0)]
    base = Graph(labels=("h", "x"), edges=frozenset())
    with pytest.raises(InvalidInputError):
        build_economic_hub(base, pts, [])


def test_hub_shipped_degree(queen_graph, irish_towns):
    from gnarlib.datasets import IRISH_HUBS

    g = build_economic_hub(queen_graph, irish_towns, list(IRISH_HUBS))
    assert 2 * g.n_edges / 26 == pytest.approx(5.38, abs=0.5)


def test_complete_basics():
    g = build_complete([f"v{i}" for i in range(26)])
    assert all(d == 25 for d in g.degrees())
    g3 = build_complete(["a", "b", "c"])
    assert g3.n_edges == 3
    with pytest.raises(InvalidInputError):
        build_complete(["only"])


def test_complete_stage_structure():
    g = build_complete(["a", "b", "c", "d"])
    st = stage_neighbourhoods(g, 2)
    for i in range(4):
        assert st.stage(i, 1) == frozenset(set(range(4)) - {i})
        assert st.stage(i, 2) == frozenset()


# ---------------------------------------------------------------------------
# Stages and shortest paths
# ---------------------------------------------------------------------------

def test_stages_on_path():
    g = path_graph(3)
    st = stage_neighbourhoods(g, 2)
    assert st.stage(0, 1) == frozenset({1})
    assert st.stage(0, 2) == frozenset({2})


def test_stages_on_six_cycle():
    g = ring_graph(6)
    st = stage_neighbourhoods(g, 3)
    for i in range(6):
        assert (len(st.stage(i, 1)), len(st.stage(i, 2)), len(st.stage(i, 3))) == (2, 2, 1)


def test_stages_agree_with_spl_bruteforce():
    rng = np.random.default_rng(5)
    from conftest import random_connected_graph

    for _ in range(25):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng)
        st = stage_neighbourhoods(g, n)
        spl = shortest_path_lengths(g)
        oracle = bfs_spl(n, set(g.edges))
        assert np.array_equal(spl, oracle)
        for i in range(n):
            for q in range(n):
                if q == i:
                    continue
                r = spl[i, q]
                if math.isinf(r):
                    continue
                assert q in st.stage(i, int(r))


@pytest.mark.parametrize("r_max", [1.5, True, "2"])
def test_stages_non_integer_r_max_is_an_error(r_max):
    with pytest.raises(InvalidInputError, match="r_max must be an integer"):
        stage_neighbourhoods(ring_graph(6), r_max)


def test_spl_basics():
    g = ring_graph(6)
    spl = shortest_path_lengths(g)
    assert spl.max() == 3.0
    assert np.allclose(spl, spl.T)
    assert np.all(np.diag(spl) == 0.0)

    g2 = Graph(labels=("a", "b", "c"), edges=frozenset({(0, 1)}))
    spl2 = shortest_path_lengths(g2)
    assert math.isinf(spl2[0, 2])

    g3 = path_graph(3)
    assert shortest_path_lengths(g3)[0, 2] == 2.0


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def test_summary_complete_graph():
    g = build_complete([f"v{i}" for i in range(26)])
    s = network_summary(g, brg_samples=3, seed=0)
    assert s.avg_degree == 25.0
    assert s.avg_spl == 1.0
    assert s.avg_local_clustering == 1.0
    # with all edges used, every baseline sample is the complete graph too
    assert s.brg_avg_spl == 1.0
    assert s.brg_avg_clustering == 1.0


def test_summary_four_cycle():
    g = ring_graph(4)
    s = network_summary(g, brg_samples=3, seed=0)
    assert s.avg_degree == 2.0
    assert s.avg_spl == pytest.approx(4.0 / 3.0)
    assert s.avg_local_clustering == 0.0


def test_summary_queen(queen_graph):
    s = network_summary(queen_graph, brg_samples=100, seed=7)
    assert s.avg_spl == pytest.approx(2.74, abs=0.15)
    assert s.avg_local_clustering == pytest.approx(0.51, abs=0.15)
    assert s.disconnected_pair_fraction == 0.0


@pytest.mark.parametrize("samples", [2.5, True, "3"])
def test_summary_non_integer_samples_is_an_error(samples):
    with pytest.raises(InvalidInputError, match="brg_samples must be an integer"):
        network_summary(ring_graph(4), brg_samples=samples)


@pytest.mark.parametrize("n", [0, 1])
def test_summary_needs_two_nodes(n):
    g = Graph(labels=tuple(f"v{i}" for i in range(n)), edges=[])
    with pytest.raises(InvalidInputError, match="at least 2 nodes"):
        network_summary(g, brg_samples=3)


def test_summary_without_edges_is_nan_and_silent():
    g = Graph(labels=("a", "b", "c"), edges=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = network_summary(g, brg_samples=4, seed=1)
    assert math.isnan(s.avg_spl) and math.isnan(s.brg_avg_spl)
    assert s.disconnected_pair_fraction == s.brg_disconnected_pair_fraction == 1.0
    assert s.avg_degree == s.avg_local_clustering == s.brg_avg_clustering == 0.0


def test_summary_rejects_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be a non-negative integer, got -1"):
        network_summary(ring_graph(4), brg_samples=3, seed=-1)


def test_summary_seeded_reproducibility(queen_graph):
    s1 = network_summary(queen_graph, brg_samples=25, seed=123)
    s2 = network_summary(queen_graph, brg_samples=25, seed=123)
    assert s1 == s2
    s3 = network_summary(queen_graph, brg_samples=25, seed=124)
    assert s3.brg_avg_spl != s1.brg_avg_spl


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_points_csv_roundtrip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("node,lat,lon,population\nb,1.0,2.0,10\na,0.0,0.0,\n")
    pts = read_points_csv(str(path))
    assert [p.node_id for p in pts] == ["a", "b"]
    assert pts[0].population is None
    assert pts[1].population == 10.0


def test_edgelist_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to\na,b\nb,c\n")
    assert read_edgelist_csv(str(path)) == [("a", "b"), ("b", "c")]


def test_edgelist_row_starting_with_hash_is_an_edge(tmp_path):
    # '#' marks a metadata line only before the header
    path = tmp_path / "edges.csv"
    path.write_text("# made by hand\nfrom,to\n#1,2\nb,c\n")
    assert read_edgelist_csv(str(path)) == [("#1", "2"), ("b", "c")]


def test_graph_json_roundtrip(tmp_path, queen_graph):
    from gnarlib.geo_graph import read_graph_json, write_graph_json

    path = tmp_path / "g.json"
    write_graph_json(queen_graph, path)
    g2 = read_graph_json(path)
    assert g2.labels == queen_graph.labels
    assert g2.edges == queen_graph.edges
