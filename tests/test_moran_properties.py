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
