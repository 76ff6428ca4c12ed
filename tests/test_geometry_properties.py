"""Property tests of the constructions from coordinates against the loop
oracles in ``oracles.py``: KNN and the distance threshold over the
great-circle distance matrix, the Delaunay triangulation, and its Gabriel,
sphere-of-influence and relative-neighbourhood subgraphs with their exact
boundary rules.

Clouds are random (general position), full lattices (cocircular points, so
Gabriel circles and RNG lunes pass through other points) or subsets of a
coarse grid (many tied distances).  Labels are shuffled against the
coordinates, so the KNN tie-break by node id is exercised.
"""

import numpy as np
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


@st.composite
def clouds(draw):
    """(kind, points): a random, lattice or coarse-grid cloud near Ireland."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "grid"]))
    if kind == "random":
        n = draw(st.integers(3, 40))
        coords = np.column_stack([53.0 + 2.0 * rng.uniform(-1, 1, n),
                                  -8.0 + 2.0 * rng.uniform(-1, 1, n)]).tolist()
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
    names = [f"q{v:02d}" for v in rng.permutation(len(coords))]
    return kind, [GeoPoint(name, lat, lon) for name, (lat, lon) in zip(names, coords)]


@PROPERTY
@given(cloud=clouds(), data=st.data())
def test_constructions_match_loop_oracles(cloud, data):
    kind, points = cloud
    n = len(points)
    ids = [p.node_id for p in points]

    d = distance_matrix(points)
    k = data.draw(st.integers(1, n - 1), label="k")
    assert build_knn(points, k).edges == knn_bruteforce(d, ids, k)
    # a threshold equal to some pairwise distance hits the <= boundary
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                     unique=True), label="pair"))
    assert build_dnn(points, d[i, j]).edges == dnn_bruteforce(d, d[i, j])

    xy = _project(points)
    delaunay = build_delaunay(points).edges
    oracle = delaunay_edges_bruteforce(xy)
    # cocircular points admit either diagonal; a random cloud has one answer
    assert delaunay == oracle if kind == "random" else delaunay <= oracle
    assert derive_gabriel(points).edges == gabriel_bruteforce(xy, delaunay)
    assert derive_soi(points).edges == soi_bruteforce(xy, delaunay)
    assert derive_relative(points).edges == relative_bruteforce(xy, delaunay)
