"""Property tests of the edge-array network: hop matrices, stages, the
network summary and the great-circle distance matrix against the loop
oracles in ``oracles.py``, bit for bit.

Random graphs have up to 150 nodes, so the BFS bitsets span several 64-bit
words, and they may be disconnected or hold isolated nodes.  The neighbour
gathers are also run in tiny blocks, the path dense graphs take at scale.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    distance_matrix_loop,
    hops_bruteforce,
    local_clustering_bruteforce,
    network_summary_bruteforce,
)

from gnarlib import geo_graph
from gnarlib.geo_graph import (
    GeoPoint,
    Graph,
    distance_matrix,
    network_summary,
    shortest_path_lengths,
    stage_neighbourhoods,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_n=150):
    """A random edge subset over the pairs of n nodes, restricted to a few
    components; nodes of a one-node component are isolated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    component = rng.integers(0, draw(st.integers(1, 4)), size=n)
    density = draw(st.sampled_from([0.5, 1.5, 3.0, 8.0, 30.0])) / max(n - 1, 1)
    i, j = np.triu_indices(n, 1)
    keep = (component[i] == component[j]) & (rng.random(len(i)) < density)
    return Graph(labels=tuple(f"v{k}" for k in range(n)),
                 edges=np.column_stack([i[keep], j[keep]]))


@PROPERTY
@given(graphs(), st.integers(1, 4), st.sampled_from([geo_graph._GATHER_WORDS, 1, 3]))
def test_hops_and_stages_equal_queue_bfs(g, r_max, gather_words):
    with mock.patch.object(geo_graph, "_GATHER_WORDS", gather_words):
        spl, stages = shortest_path_lengths(g), stage_neighbourhoods(g, r_max)
    full = hops_bruteforce(g.n, g.edges)
    np.testing.assert_array_equal(spl, full)
    np.testing.assert_array_equal(stages.hops, hops_bruteforce(g.n, g.edges, r_max))
    for r in range(1, r_max + 1):
        assert all(stages.stage(i, r) == frozenset(np.flatnonzero(full[i] == r).tolist())
                   for i in range(g.n))


@PROPERTY
@given(graphs(max_n=90), st.integers(1, 3), st.integers(0, 2**16),
       st.sampled_from([geo_graph._GATHER_WORDS, 1]))
def test_summary_equals_loop_oracle(g, samples, seed, gather_words):
    assume(g.n >= 2)
    with mock.patch.object(geo_graph, "_GATHER_WORDS", gather_words):
        s = network_summary(g, brg_samples=samples, seed=seed)
    assert s.avg_local_clustering == local_clustering_bruteforce(g.n, g.edges)
    assert repr(s) == repr(network_summary_bruteforce(g.n, sorted(g.edges), samples, seed))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_popcount_table_counts_every_bit(seed, words):
    # the byte table serves numpy < 2, which has no bitwise_count
    x = np.random.default_rng(seed).integers(0, 2**64, size=(7, words), dtype=np.uint64)
    bits = np.unpackbits(x.view(np.uint8), axis=1).sum(axis=1)
    np.testing.assert_array_equal(geo_graph._popcount_table(x).sum(axis=1), bits)
    np.testing.assert_array_equal(geo_graph._popcount(x).sum(axis=1), bits)


@st.composite
def clouds(draw):
    """Points near Ireland or anywhere on the sphere, with some repeated
    coordinates (a zero distance) and antipodes (a clamped cosine)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        lat, lon = rng.uniform(51.4, 55.4, n), rng.uniform(-10.5, -5.9, n)
    else:
        lat, lon = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
    if n >= 4:
        lat[1], lon[1] = lat[0], lon[0]
        lat[3], lon[3] = -lat[2], lon[2] - 180.0 if lon[2] > 0 else lon[2] + 180.0
    return [GeoPoint(f"q{k:02d}", float(a), float(o)) for k, (a, o) in enumerate(zip(lat, lon))]


@PROPERTY
@given(clouds(), st.sampled_from([6371.0, 1.0, 3389.5]))
def test_distance_matrix_equals_scalar_loop(points, radius):
    assert np.array_equal(distance_matrix(points, radius), distance_matrix_loop(points, radius))
