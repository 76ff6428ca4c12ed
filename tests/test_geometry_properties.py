"""Property tests of the constructions from coordinates against the loop
oracles in ``oracles.py``: KNN and the distance threshold over the
great-circle distance matrix, the Delaunay triangulation, and its Gabriel,
sphere-of-influence and relative-neighbourhood subgraphs with their exact
boundary rules.

Clouds are random (general position; up to 40 points, or 41 to 150 in a
second test of its own), clustered (tight groups far apart),
near-co-circular (points on one circle, where qhull's rounding decides the
triangulation and Gabriel circles pass within 1e-12 of other points), full
lattices (cocircular points, so Gabriel circles and RNG lunes pass through
other points) or subsets of a coarse grid (many tied distances).  Labels
are shuffled against the coordinates, and KNN also runs with copied
points, which tie whole distance rows, so its tie-break by node id is
exercised.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    delaunay_edges_bruteforce,
    dnn_bruteforce,
    gabriel_bruteforce,
    knn_bruteforce,
    relative_bruteforce,
    soi_bruteforce,
)

from gnarlib.geo_graph import (
    GeoPoint,
    _project,
    build_delaunay,
    build_dnn,
    build_knn,
    derive_gabriel,
    derive_relative,
    derive_soi,
    distance_matrix,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _collinear(cells) -> bool:
    (r0, c0), (r1, c1) = cells[0], cells[1]
    return all((r1 - r0) * (c - c0) == (c1 - c0) * (r - r0) for r, c in cells[2:])


def _circle(rng, n, even, radius):
    """n points on a circle of the projected plane, evenly spaced or not, with
    radii jittered by about 1e-12: a diameter sees every other point at a
    right angle, up to that jitter and the rounding."""
    turn = np.arange(n) / n if even else np.sort(rng.uniform(0, 1, n))
    angle = 2 * np.pi * (turn + rng.uniform())
    radius = radius * (1 + 1e-12 * rng.normal(size=n))
    lat = 53.0 + radius * np.sin(angle)
    scale = math.cos(math.radians(sum(lat.tolist()) / n))     # as _project
    return np.column_stack([lat, -8.0 + radius * np.cos(angle) / scale]).tolist()


@st.composite
def clouds(draw, kinds):
    """(kind, points): a cloud near Ireland of one of ``kinds``: random (up to
    40 points), large (random, 41 to 150 points), clustered, near-co-circular,
    lattice or coarse grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind in ("random", "large"):
        n = draw(st.integers(3, 40) if kind == "random" else st.integers(41, 150))
        coords = np.column_stack([53.0 + 2.0 * rng.uniform(-1, 1, n),
                                  -8.0 + 2.0 * rng.uniform(-1, 1, n)]).tolist()
    elif kind == "clustered":
        n, k = draw(st.integers(3, 150)), draw(st.integers(1, 4))
        centres = np.column_stack([rng.uniform(51.5, 55.0, k), rng.uniform(-10.0, -6.0, k)])
        spread = draw(st.sampled_from([0.001, 0.02, 0.2]))
        coords = (centres[rng.integers(0, k, n)] + rng.normal(0.0, spread, (n, 2))).tolist()
    elif kind == "circle":
        n = draw(st.integers(4, 40))
        coords = _circle(rng, n, draw(st.booleans()), draw(st.sampled_from([0.002, 0.05, 1.0])))
    else:
        if kind == "lattice":
            rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
            cells = [(r, c) for r in range(rows) for c in range(cols)]
        else:
            picks = rng.choice(49, size=draw(st.integers(3, 20)), replace=False)
            cells = [(int(v) // 7, int(v) % 7) for v in picks]
            assume(not _collinear(cells))
        step = draw(st.sampled_from([0.25, 0.5, 1.0]))
        coords = [(52.0 + step * r, -8.0 + step * c) for r, c in cells]
    names = [f"q{v:03d}" for v in rng.permutation(len(coords))]
    return kind, [GeoPoint(name, lat, lon) for name, (lat, lon) in zip(names, coords)]


def _check_constructions(kind, points, data):
    n = len(points)
    ids = [p.node_id for p in points]

    d = distance_matrix(points)
    k = data.draw(st.integers(1, n - 1), label="k")
    assert build_knn(points, k).edges == knn_bruteforce(d, ids, k)
    # copies of points share their distances to every other point, so the
    # k-th distance of most rows is tied several ways; "a" sorts first
    twins = points + [GeoPoint(f"{'at'[v % 2]}{v}", p.lat_deg, p.lon_deg)
                      for v, p in enumerate(points[:data.draw(st.integers(1, 4), label="copies")])]
    k = data.draw(st.integers(1, len(twins) - 1), label="k with copies")
    assert build_knn(twins, k).edges == knn_bruteforce(
        distance_matrix(twins), [p.node_id for p in twins], k)
    # a threshold equal to some pairwise distance hits the <= boundary
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                     unique=True), label="pair"))
    assert build_dnn(points, d[i, j]).edges == dnn_bruteforce(d, d[i, j])

    xy = _project(points)
    delaunay = build_delaunay(points).edges
    # the triangle loop is O(n^4), so it checks clouds of up to 40 points,
    # and not circles, whose every triangle is empty only up to rounding:
    # the loop's circumcentres lose those digits and reject some of them.
    # Lattice squares admit either diagonal.
    if kind in ("random", "clustered") and n <= 40:
        assert delaunay == delaunay_edges_bruteforce(xy)
    elif kind in ("lattice", "grid"):
        assert delaunay <= delaunay_edges_bruteforce(xy)
    assert derive_gabriel(points).edges == gabriel_bruteforce(xy, delaunay)
    assert derive_soi(points).edges == soi_bruteforce(xy, delaunay)
    assert derive_relative(points).edges == relative_bruteforce(xy, delaunay)


@PROPERTY
@given(cloud=clouds(["random", "lattice", "grid"]), data=st.data())
def test_constructions_match_loop_oracles(cloud, data):
    _check_constructions(*cloud, data)


@PROPERTY
@given(cloud=clouds(["large", "clustered", "circle"]), data=st.data())
def test_constructions_match_loop_oracles_on_large_clustered_and_circle_clouds(cloud, data):
    _check_constructions(*cloud, data)


@pytest.mark.parametrize("seed", range(60))
def test_metre_wide_clusters_build_and_match_the_loop_oracles(seed):
    # three clusters of five points, 1e-5 degrees (about a metre) in spread:
    # qhull triangulates centred coordinates, so its rounding scales with the
    # spacing of the points, and no point is taken for a copy of another
    rng = np.random.default_rng(seed)
    centres = np.column_stack([rng.uniform(51.5, 55.0, 3), rng.uniform(-10.0, -6.0, 3)])
    coords = np.repeat(centres, 5, axis=0) + rng.normal(0.0, 1e-5, (15, 2))
    points = [GeoPoint(f"q{v:02d}", lat, lon) for v, (lat, lon) in enumerate(coords.tolist())]
    xy = _project(points)
    delaunay = build_delaunay(points).edges
    assert derive_gabriel(points).edges == gabriel_bruteforce(xy, delaunay)
    assert derive_soi(points).edges == soi_bruteforce(xy, delaunay)
    assert derive_relative(points).edges == relative_bruteforce(xy, delaunay)


@pytest.mark.parametrize("seed", range(24))
def test_gabriel_near_a_right_angle_equals_the_loop_oracle(seed):
    # an even count of evenly spaced points has diameters; qhull may join
    # such a pair while both of its opposite vertices round outside the
    # circle and another point rounds inside: the builder must find it
    rng = np.random.default_rng(seed)
    coords = _circle(rng, 2 * int(rng.integers(3, 13)), True, 0.05)
    points = [GeoPoint(f"q{v:03d}", lat, lon) for v, (lat, lon) in enumerate(coords)]
    assert (derive_gabriel(points).edges
            == gabriel_bruteforce(_project(points), build_delaunay(points).edges))
