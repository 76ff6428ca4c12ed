"""MASE, spatial autocorrelation, permutation bands, KS, Ljung-Box."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, path_graph, star_graph
from oracles import mase_loop, morans_i_bruteforce

from gnarlib.errors import InvalidInputError, UndefinedStatisticError
from gnarlib.diagnostics import (
    ks_normality,
    ks_normality_single,
    ljung_box,
    ljung_box_panel,
    mase,
    moran_permutation_test,
    moran_weights,
    morans_i,
    rank_transform,
)
from gnarlib.geo_graph import Graph, build_complete


# ---------------------------------------------------------------------------
# MASE
# ---------------------------------------------------------------------------

def test_mase_perfect_forecast_is_zero():
    history = np.array([[1.0, 3.0, 2.0, 5.0, 4.0]])
    actual = history[:, -2:]
    res = mase(actual, actual.copy(), history)
    assert np.allclose(res.entries, 0.0)
    assert res.overall_mean == 0.0


def test_mase_hand_example():
    history = np.array([[1.0, 3.0, 2.0, 5.0]])
    res = mase(np.array([[5.0]]), np.array([[4.0]]), history)
    assert res.entries[0, 0] == pytest.approx(0.5)
    assert res.per_node_mean[0] == pytest.approx(0.5)


def test_mase_naive_forecast_is_exactly_one():
    rng = np.random.default_rng(5)
    history = rng.normal(size=(4, 60))
    actual = history[:, 1:]
    predicted = history[:, :-1]
    res = mase(actual, predicted, history)
    assert all(m == 1.0 for m in res.per_node_mean)  # exact, not approximate


def test_mase_constant_history_flagged():
    history = np.array([[2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0]])
    res = mase(history[:, -2:], history[:, -2:] * 0.0, history,
               labels=("flat", "ok"))
    assert res.undefined_nodes == ("flat",)
    assert math.isnan(res.per_node_mean[0])
    assert not math.isnan(res.overall_mean)


def test_mase_entries_nonnegative_and_mean_consistent():
    rng = np.random.default_rng(6)
    history = rng.normal(size=(3, 40))
    actual = history[:, -5:]
    predicted = actual + rng.normal(size=(3, 5))
    res = mase(actual, predicted, history)
    assert np.all(res.entries >= 0.0)
    for i in range(3):
        assert res.per_node_mean[i] == pytest.approx(float(res.entries[i].mean()),
                                                     rel=1e-12)


def test_mase_node_without_a_scored_entry_is_nan_and_warns_nothing():
    rng = np.random.default_rng(7)
    history = rng.normal(size=(3, 40))
    actual = history[:, -2:].copy()
    predicted = actual + rng.normal(size=(3, 2))
    actual[1] = np.nan          # every held-out actual missing
    predicted[2] = np.nan       # every prediction missing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mase(actual, predicted, history, labels=("a", "b", "c"))
    alone = mase(actual[:1], predicted[:1], history[:1])
    assert np.isnan(res.per_node_mean[1:]).all() and np.isnan(res.per_node_std[1:]).all()
    assert np.isnan(res.entries[1:]).all() and res.undefined_nodes == ()
    assert np.array_equal(res.entries[0], alone.entries[0])
    assert (res.per_node_mean[0], res.per_node_std[0], res.overall_mean) == (
        alone.per_node_mean[0], alone.per_node_std[0], alone.overall_mean)


@pytest.mark.parametrize("where", ["actual", "predicted", "history"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_mase_rejects_infinite_values(where, value):
    # an infinite history step once gave a zero score (a perfect forecast) and
    # an infinite actual an infinite one; NaN still marks a missing value
    args = {"actual": np.array([[1.0, 1.0], [2.0, np.nan]]),
            "predicted": np.array([[0.0, 1.0], [2.0, 2.0]]),
            "history": np.array([[0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 4.0, 3.0]])}
    args[where][1, 0] = value
    with pytest.raises(InvalidInputError, match="node 'b' holds infinite values"):
        mase(**args, labels=("a", "b"))


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
def test_mase_needs_one_label_per_row(labels):
    # one label short once left the second row out of the infinite-value
    # check, so an inf in its history scored an overall_mean of 0.0
    with pytest.raises(InvalidInputError, match=f"{len(labels)} labels for 2 rows"):
        mase([[1.0, 2], [3, 4]], [[1.0, 2], [3, 5]], [[0.0, 1, 2], [1, 2, np.inf]],
             labels=labels)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 30), st.integers(1, 6),
       st.sampled_from([0.0, 0.1, 0.4, 1.0]))
def test_mase_by_column_equals_the_node_loop(seed, n, T, H, gaps):
    # bit for bit on a gapless history; with gaps the scale sums its steps in
    # another order, so within 1e-15
    rng = np.random.default_rng(seed)
    history = rng.normal(size=(n, T))
    history[rng.uniform(size=n) < 0.2] = 1.5                 # constant nodes
    history[rng.uniform(size=(n, T)) < gaps * 0.5] = np.nan
    actual, predicted = rng.normal(size=(2, n, H))
    actual[rng.uniform(size=(n, H)) < gaps * 0.3] = np.nan
    predicted[rng.uniform(size=n) < 0.2] = np.nan             # nodes with no scored entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mase(actual, predicted, history)
    entries, per_mean, per_std, overall, undefined = mase_loop(actual, predicted, history)
    assert res.undefined_nodes == tuple(f"v{i}" for i in undefined)
    got = (res.entries, res.per_node_mean, res.per_node_std, np.array(res.overall_mean))
    for a, b in zip(got, (entries, per_mean, per_std, np.array(overall))):
        if np.isnan(history).any():
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)
        else:
            assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# Moran weights and statistic
# ---------------------------------------------------------------------------

def test_moran_weights_values():
    g = path_graph(3)
    w = moran_weights(g)
    assert w[0, 1] == pytest.approx(math.exp(-1.0))
    assert w[0, 2] == pytest.approx(math.exp(-2.0))
    assert np.all(np.diag(w) == 0.0)


def test_moran_weights_disconnected_zero():
    g = Graph(labels=("a", "b", "c"), edges=frozenset({(0, 1)}))
    w = moran_weights(g)
    assert w[0, 2] == 0.0 and w[2, 1] == 0.0


def test_moran_weights_complete_graph_w0():
    n = 7
    g = build_complete([f"v{i}" for i in range(n)])
    w = moran_weights(g)
    assert w.sum() == pytest.approx(n * (n - 1) * math.exp(-1.0))


def test_morans_i_two_node_antithetic():
    g = Graph(labels=("a", "b"), edges=frozenset({(0, 1)}))
    w = moran_weights(g)
    assert morans_i(np.array([1.0, -1.0]), w) == pytest.approx(-1.0, abs=1e-12)


def test_morans_i_matches_bruteforce():
    g = build_complete(["a", "b", "c", "d"])
    w = moran_weights(g)
    x = np.array([1.0, 1.0, 1.0, -3.0])
    assert morans_i(x, w) == pytest.approx(morans_i_bruteforce(x, w), rel=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=4)
        assert morans_i(x, w) == pytest.approx(morans_i_bruteforce(x, w), rel=1e-10)


def test_morans_i_affine_invariance_exact():
    # dyadic values, power-of-two scale and dyadic shift: every intermediate
    # rounds identically, so the statistic is bitwise invariant
    g = path_graph(4)
    w = moran_weights(g)
    x = np.array([1.0, 2.5, -0.75, 3.25])
    base = morans_i(x, w)
    assert morans_i(2.0 * x, w) == base
    assert morans_i(0.25 * x, w) == base
    assert morans_i(x + 3.0, w) == base
    assert morans_i(2.0 * x + 3.0, w) == base


def test_morans_i_affine_invariance_random():
    rng = np.random.default_rng(10)
    g = path_graph(6)
    w = moran_weights(g)
    x = rng.normal(size=6)
    base = morans_i(x, w)
    for _ in range(10):
        a = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        b = rng.normal()
        assert morans_i(a * x + b, w) == pytest.approx(base, abs=1e-12)


def test_morans_i_constant_undefined():
    g = path_graph(3)
    w = moran_weights(g)
    with pytest.raises(UndefinedStatisticError):
        morans_i(np.array([2.0, 2.0, 2.0]), w)


def test_rank_transform():
    assert list(rank_transform([10.0, 20.0, 30.0])) == [1.0, 2.0, 3.0]
    assert list(rank_transform([5.0, 5.0, 1.0])) == [2.5, 2.5, 1.0]
    x = np.array([0.3, -1.0, 2.0, 0.9])
    assert np.array_equal(rank_transform(x), rank_transform(np.exp(x)))


# ---------------------------------------------------------------------------
# permutation test
# ---------------------------------------------------------------------------

def test_permutation_test_null_rate():
    rng = np.random.default_rng(12)
    g = build_complete([f"v{i:02d}" for i in range(10)])
    panel = make_panel(rng.normal(size=(10, 60)), labels=g.labels)
    res = moran_permutation_test(panel, g, R=100, seed=4)
    assert 0.0 <= res.n_m <= 0.15
    assert np.all(res.lower[res.tested] <= res.median[res.tested])
    assert np.all(res.median[res.tested] <= res.upper[res.tested])


def test_permutation_test_detects_planted_signal():
    # smooth spatial gradient on a path: neighbours are similar, so the
    # observed statistic sits far above the permutation band
    rng = np.random.default_rng(13)
    g = path_graph(12)
    base = np.arange(12.0)
    vals = np.vstack([base + rng.normal(0, 0.3, size=12) for _ in range(40)]).T
    panel = make_panel(vals, labels=g.labels)
    res = moran_permutation_test(panel, g, R=100, seed=5)
    assert res.n_m >= 0.9


def test_permutation_test_seeded_determinism_and_observed_independence():
    rng = np.random.default_rng(14)
    g = path_graph(8)
    panel = make_panel(rng.normal(size=(8, 25)), labels=g.labels)
    a = moran_permutation_test(panel, g, R=50, seed=1)
    b = moran_permutation_test(panel, g, R=50, seed=1)
    assert np.array_equal(a.lower, b.lower, equal_nan=True)
    assert a.n_m == b.n_m
    c = moran_permutation_test(panel, g, R=80, seed=2)
    assert np.array_equal(a.observed, c.observed, equal_nan=True)


def test_permutation_test_relabeling_invariance():
    rng = np.random.default_rng(15)
    g = path_graph(6)
    vals = rng.normal(size=(6, 10))
    panel = make_panel(vals, labels=g.labels)
    perm = rng.permutation(6)
    relabeled_edges = set()
    pos = {int(old): int(new) for new, old in enumerate(perm)}
    for i, j in g.edges:
        a, b = pos[i], pos[j]
        relabeled_edges.add((min(a, b), max(a, b)))
    g2 = Graph(labels=tuple(f"m{i}" for i in range(6)),
               edges=frozenset(relabeled_edges))
    panel2 = make_panel(vals[perm], labels=g2.labels)
    a = moran_permutation_test(panel, g, R=40, seed=3)
    b = moran_permutation_test(panel2, g2, R=40, seed=3)
    assert np.allclose(a.observed, b.observed, atol=1e-12)


def test_permutation_test_skips_constant_and_sparse_dates():
    g = path_graph(4)
    vals = np.array([[1.0, 2.0, np.nan, 1.0],
                     [1.0, 1.5, np.nan, 2.0],
                     [1.0, 0.5, 3.0, 0.5],
                     [1.0, 2.5, np.nan, 1.5]])
    panel = make_panel(vals, labels=g.labels)
    res = moran_permutation_test(panel, g, R=30, seed=6)
    assert not res.tested[0]  # constant cross-section
    assert not res.tested[2]  # single observed node
    assert res.tested[1] and res.tested[3]
    assert len(res.skipped_reasons) == 2


def test_permutation_test_refuses_what_morans_i_refuses():
    # the observed statistic is lane 0 of the replicates' product, not a
    # morans_i call, yet it is refused in the same cases: no weights (a
    # graph with no edges), and squared deviations that underflow to zero
    vals = np.random.default_rng(12).normal(size=(4, 6))
    edgeless = Graph(labels=tuple(f"n{i:02d}" for i in range(4)), edges=frozenset())
    with pytest.raises(UndefinedStatisticError, match="all weights are zero"):
        moran_permutation_test(make_panel(vals), edgeless, R=20)
    g = path_graph(4)
    with pytest.raises(UndefinedStatisticError, match="constant cross-section"):
        morans_i(vals[:, 0] * 1e-170, moran_weights(g))
    with pytest.raises(UndefinedStatisticError, match="constant cross-section"):
        moran_permutation_test(make_panel(vals * 1e-170, labels=g.labels), g, R=20)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_permutation_test_rejects_infinite_values(value):
    # one infinite cell once left its date tested, with a NaN statistic and
    # band counted in n_m, and let numpy's warnings escape
    g = path_graph(4)
    vals = np.random.default_rng(13).normal(size=(4, 6))
    vals[2, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="node 'n02' holds infinite values"):
            moran_permutation_test(make_panel(vals, labels=g.labels), g, R=20)


def test_permutation_test_rejects_small_R():
    g = path_graph(4)
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 5)),
                       labels=g.labels)
    with pytest.raises(InvalidInputError):
        moran_permutation_test(panel, g, R=10, seed=0)


@pytest.mark.parametrize("seed", [-1, -3, 2.5])
def test_permutation_test_rejects_bad_seed(seed):
    g = path_graph(4)
    panel = make_panel(np.random.default_rng(0).normal(size=(4, 5)), labels=g.labels)
    with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
        moran_permutation_test(panel, g, R=20, seed=seed)


def test_permutation_test_missing_nodes_excluded():
    rng = np.random.default_rng(16)
    g = path_graph(5)
    vals = rng.normal(size=(5, 8))
    vals[4, :] = np.nan
    panel = make_panel(vals, labels=g.labels)
    res = moran_permutation_test(panel, g, R=30, seed=7)
    assert res.tested.sum() == 8


# ---------------------------------------------------------------------------
# KS normality
# ---------------------------------------------------------------------------

def test_ks_gaussian_rarely_rejected():
    rejections = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        r = ks_normality_single(rng.normal(size=500))
        assert 0.0 <= r.statistic <= 1.0
        if r.p_value <= 0.025:
            rejections += 1
    assert rejections <= 10


def test_ks_uniform_usually_rejected():
    # estimating location and scale from the sample makes the plain
    # asymptotic p-value conservative, which caps power at n = 500 (about
    # three quarters of seeds reject); by n = 1000 rejection is universal
    rejections_500 = 0
    rejections_1000 = 0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        if ks_normality_single(rng.uniform(-1, 1, size=500)).p_value <= 0.025:
            rejections_500 += 1
        if ks_normality_single(rng.uniform(-1, 1, size=1000)).p_value <= 0.025:
            rejections_1000 += 1
    assert rejections_500 >= 60
    assert rejections_1000 >= 90


def test_ks_requires_enough_data():
    with pytest.raises(InvalidInputError):
        ks_normality_single(np.arange(5.0))


def test_ks_zero_variance_undefined():
    with pytest.raises(UndefinedStatisticError):
        ks_normality_single(np.ones(20))


def test_ks_panel_wrapper_flags_bad_nodes():
    rng = np.random.default_rng(17)
    panel = make_panel(np.vstack([rng.normal(size=50), np.ones(50)]),
                       labels=("good", "flat"))
    out = ks_normality(panel)
    assert 0.0 <= out["good"].p_value <= 1.0
    assert math.isnan(out["flat"].p_value)
    assert "error" in out["flat"].parameters


@pytest.mark.parametrize("test", [ks_normality, ljung_box_panel])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_residual_tests_reject_infinite_values(test, value):
    x = np.random.default_rng(3).normal(size=(3, 40))
    x[1, 7] = value
    with pytest.raises(InvalidInputError, match="node 'b' holds infinite values"):
        test(make_panel(x, labels=("a", "b", "c")))
    with pytest.raises(InvalidInputError, match="node 'b' holds infinite values"):
        test({"a": x[0], "b": x[1]})


@pytest.mark.parametrize("call, name", [
    (lambda x: morans_i(x[:5], np.ones((5, 5)) - np.eye(5)), "values"),
    (ljung_box, "series"),
    (ks_normality_single, "residuals"),
])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_single_series_statistics_refuse_an_infinite_value(call, name, value):
    # each returned NaN behind a numpy RuntimeWarning
    x = np.random.default_rng(4).normal(size=40)
    x[2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"{name} must be finite, got {value}"):
            call(x)


# ---------------------------------------------------------------------------
# Ljung-Box
# ---------------------------------------------------------------------------

def test_ljung_box_white_noise_level():
    rejections = 0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        r = ljung_box(rng.normal(size=1000), max_lag=10)
        assert r.statistic >= 0.0
        if r.p_value <= 0.05:
            rejections += 1
    assert rejections <= 10


def test_ljung_box_detects_autocorrelation():
    rejections = 0
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        x = np.zeros(500)
        for t in range(1, 500):
            x[t] = 0.8 * x[t - 1] + rng.normal()
        r = ljung_box(x, max_lag=10)
        if r.p_value <= 0.01:
            rejections += 1
    assert rejections >= 48


def test_ljung_box_default_lag_and_preconditions():
    r = ljung_box(np.random.default_rng(1).normal(size=30))
    assert r.parameters["max_lag"] == 6
    with pytest.raises(InvalidInputError):
        ljung_box(np.arange(8.0), max_lag=10)
    with pytest.raises(UndefinedStatisticError):
        ljung_box(np.ones(50), max_lag=5)


@pytest.mark.parametrize("max_lag", [0, -2])
def test_ljung_box_panel_rejects_bad_max_lag_once(max_lag):
    panel = make_panel(np.random.default_rng(2).normal(size=(3, 40)))
    with pytest.raises(InvalidInputError, match="max_lag"):
        ljung_box_panel(panel, max_lag=max_lag)


_RING = Graph(labels=("a", "b", "c", "d"), edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


@pytest.mark.parametrize("call, message", [
    (lambda: mase(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 5))),
     "actual and predicted shapes differ"),
    (lambda: mase(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 5))),
     "history row count differs from actual"),
    (lambda: mase(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 1))),
     "history needs at least 2 observations"),
    (lambda: morans_i(np.arange(4.0), np.ones((3, 3))), "weights shape (3, 3) does not match n=4"),
    (lambda: morans_i(np.array([1.0, np.nan, 2.0, 3.0]), moran_weights(_RING)),
     "values contain missing entries"),
    (lambda: moran_permutation_test(
        make_panel(np.random.default_rng(5).normal(size=(4, 6)), labels=("d", "c", "b", "a")),
        _RING),
     "panel and graph label order differ"),
    (lambda: ljung_box(np.random.default_rng(6).normal(size=40), max_lag=0),
     "max_lag must be >= 1"),
], ids=["mase-shapes", "mase-history-rows", "mase-history-columns", "moran-weights-shape",
        "moran-nan", "permutation-labels", "ljung-box-max-lag"])
def test_input_checks_raise_their_exact_errors(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert type(info.value) is InvalidInputError
    assert str(info.value) == message
