"""Property tests of the Moran permutation bands against the loop oracle.

Random connected and disconnected graphs, random missing cells, dates with
fewer than two values and constant dates, plain and rank-based statistics,
and seeds on both sides of 2^32 (numpy splits a larger seed into several
entropy words).  Every ``MoranResult`` field must equal the oracle's bit for
bit, and the replayed generator seeding must give ``default_rng``'s own
permutations.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_connected_graph
from oracles import moran_permutation_bruteforce

from gnarlib import diagnostics
from gnarlib.diagnostics import moran_permutation_test
from gnarlib.errors import GnarError
from gnarlib.geo_graph import Graph

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


@st.composite
def cases(draw):
    """A graph, a panel with holes, sparse and constant dates, R and a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        g = random_connected_graph(n, rng, extra_edges=draw(st.integers(0, 4)))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.uniform(size=len(pairs)) < draw(st.sampled_from([0.05, 0.2]))
        g = Graph(labels=tuple(f"n{i:02d}" for i in range(n)),
                  edges=frozenset(p for p, k in zip(pairs, keep) if k))
    T = draw(st.integers(1, 10))
    values = rng.normal(size=(n, T))
    if draw(st.booleans()):
        values = np.round(values)                  # tied values and tied ranks
    values[rng.uniform(size=(n, T)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
    for t in draw(st.lists(st.integers(0, T - 1), max_size=2)):
        values[rng.permutation(n)[1:], t] = np.nan           # fewer than 2 values
    for t in draw(st.lists(st.integers(0, T - 1), max_size=2)):
        values[:, t] = np.where(np.isnan(values[:, t]), np.nan, 1.5)   # constant
    panel = make_panel(values, labels=g.labels)
    return panel, g, draw(st.integers(20, 60)), draw(SEEDS), draw(st.booleans())


def _assert_same(got, ref):
    for name in ("observed", "lower", "median", "upper"):
        assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), name
    for name in ("outside", "tested"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for name in ("dates", "skipped_reasons", "n_m", "R", "seed", "rank_based"):
        assert getattr(got, name) == getattr(ref, name), name


@PROPERTY
@given(cases())
def test_bands_equal_bruteforce(case):
    panel, g, R, seed, rank_based = case
    try:
        ref = moran_permutation_bruteforce(panel, g, R=R, seed=seed, rank_based=rank_based)
    except GnarError as exc:                # no testable date, or all weights zero
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            moran_permutation_test(panel, g, R=R, seed=seed, rank_based=rank_based)
        return
    _assert_same(moran_permutation_test(panel, g, R=R, seed=seed, rank_based=rank_based), ref)


@PROPERTY
@given(SEEDS, st.integers(0, 10**6), st.integers(2, 2000), st.integers(1, 4))
def test_replayed_streams_equal_default_rng(seed, t, n, R):
    gen = np.random.Generator(np.random.PCG64())
    P = diagnostics._shuffled(gen, diagnostics._stream_seeds(seed, [t], R)[:, 0], n)
    for r in range(R):
        assert np.array_equal(P[r], np.random.default_rng([seed, t, r]).permutation(n))


# the lane shuffle runs below the crossover: 2, 3 and both sides of each power of 2
LANE_NS = sorted({2, 3, *(m for k in range(1, 6) for m in (2**k, 2**k + 1))}
                 & set(range(2, diagnostics._LANE_SHUFFLE_N)))


@PROPERTY
@given(SEEDS, st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True),
       st.integers(20, 60), st.sampled_from(LANE_NS), st.sampled_from([0.02, 0.3, 1.0]))
def test_lane_shuffles_equal_default_rng(seed, ts, R, n, ahead):
    # hundreds of lanes; a short first draw buffer makes lanes run past it
    gen = np.random.Generator(np.random.PCG64())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_OUTPUTS_PER_NODE", ahead)
        P = diagnostics._shuffled(gen, diagnostics._stream_seeds(seed, ts, R).reshape(4, -1), n)
    assert P.shape == (len(ts) * R, n)
    for lane, row in enumerate(P):
        t, r = divmod(lane, R)
        assert np.array_equal(row, np.random.default_rng([seed, ts[t], r]).permutation(n))


def _spied_shuffles(monkeypatch, values, R):
    calls = []
    real = diagnostics._shuffled

    def spy(gen, seeds, n):
        calls.append((seeds.shape[1], n))
        return real(gen, seeds, n)

    monkeypatch.setattr(diagnostics, "_shuffled", spy)
    g = random_connected_graph(values.shape[0], np.random.default_rng(2))
    panel = make_panel(values, labels=g.labels)
    _assert_same(moran_permutation_test(panel, g, R=R, seed=9),
                 moran_permutation_bruteforce(panel, g, R=R, seed=9))
    return calls


def test_full_panel_takes_one_shuffle_call(monkeypatch):
    values = np.random.default_rng(5).normal(size=(26, 30))
    assert _spied_shuffles(monkeypatch, values, 40) == [(30 * 40, 26)]


def test_gapped_panel_takes_one_shuffle_call_per_node_count_and_block(monkeypatch):
    values = np.random.default_rng(6).normal(size=(26, 12))
    values[3, [1, 4, 5]] = np.nan          # three dates with 25 nodes
    values[[0, 7], 9] = np.nan             # one date with 24
    monkeypatch.setattr(diagnostics, "_MORAN_CELLS", 4 * 20 * 26)   # four full dates a block
    assert _spied_shuffles(monkeypatch, values, 20) == [
        (20, 24), (3 * 20, 25), (4 * 20, 26), (4 * 20, 26)]


def test_wrong_replayed_seeds_fall_back_to_default_rng(monkeypatch):
    rng = np.random.default_rng(8)
    g = random_connected_graph(12, rng)
    values = rng.normal(size=(12, 6))
    values[3, 2] = np.nan
    panel = make_panel(values, labels=g.labels)
    real = diagnostics._stream_seeds
    monkeypatch.setattr(diagnostics, "_stream_seeds",
                        lambda *args: real(*args) ^ np.uint64(1))
    gen = np.random.Generator(np.random.PCG64())
    broken = diagnostics._shuffled(gen, diagnostics._stream_seeds(5, [0], 1)[:, 0], 12)[0]
    assert not np.array_equal(broken, np.random.default_rng([5, 0, 0]).permutation(12))
    _assert_same(moran_permutation_test(panel, g, R=40, seed=5),
                 moran_permutation_bruteforce(panel, g, R=40, seed=5))
