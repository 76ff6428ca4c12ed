"""The EGLS residual covariance on the one QR.

``estimate_sigma`` factorises the VAR(p) lag window and the responses in one
numpy QR, [Z' X'] = Q R, and reads sigma = R22' R22 / T' off its R, with the
rank rule of every fit: a lag window whose rank is in doubt goes to the
pivoted QR, and a rank-deficient one raises FeasibilityError naming the
dependent (node, lag) columns.  No ``lstsq`` is left on this path.  The
usable time points come from one running count of incomplete columns, and
equal the per-window loop they replaced, also on panels too short for any.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_panel, ring_graph
from oracles import var_residual_covariance_loop

import gnarlib
from gnarlib import gnar_core
from gnarlib.errors import FeasibilityError
from gnarlib.gnar_core import GnarOrder, GnarSpec, estimate_sigma, fit

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def panels(draw):
    """A panel of 1-8 nodes and a lag order 1-3, with NaN cells that drop
    complete columns, long enough for the N*(p+1) bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, holes = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    T = n * (p + 1) + p + (p + 1) * holes + draw(st.integers(0, 30))
    values = rng.normal(size=(n, T)) * rng.uniform(0.1, 10.0, size=(n, 1))
    for _ in range(holes):
        values[rng.integers(n), rng.integers(T)] = np.nan
    return values, p


@PROPERTY
@given(case=panels(), block_rows=st.sampled_from([None, 3, 16]))
def test_estimate_sigma_equals_the_loop_oracle(case, block_rows):
    values, p = case
    # a small row block sends the lag window through the blocked QR
    with mock.patch.object(gnar_core, "_QR_ROWS", block_rows or gnar_core._QR_ROWS):
        sigma = estimate_sigma(make_panel(values), p)
    oracle = var_residual_covariance_loop(values, p)
    assert np.max(np.abs(sigma - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@st.composite
def edge_panels(draw):
    """Panels at the edges of the usable-column scan: at most p + 1 columns
    (no usable time point, or only t = p), or long with an incomplete column
    at t = p, and NaN cells elsewhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, holes = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    short = draw(st.booleans())
    T = (draw(st.integers(1, p + 1)) if short
         else n * (p + 1) + 2 * p + 1 + (p + 1) * holes + draw(st.integers(0, 30)))
    values = rng.normal(size=(n, T)) * rng.uniform(0.1, 10.0, size=(n, 1))
    if T > p and draw(st.booleans()):
        values[rng.integers(n), p] = np.nan
    for _ in range(holes):
        values[rng.integers(n), rng.integers(T)] = np.nan
    return values, p


@PROPERTY
@given(case=edge_panels())
def test_usable_columns_equal_the_window_loop_at_the_edges(case):
    values, p = case
    n, T = values.shape
    complete = (~np.isnan(values)).all(axis=0)
    usable = [t for t in range(p, T) if complete[t - p:t + 1].all()]    # the loop it replaced
    responses = []
    real = gnar_core._dense_r

    def spy(design, response):
        responses.append(response)
        return real(design, response)

    with mock.patch.object(gnar_core, "_dense_r", spy):
        if len(usable) < n * (p + 1):
            with pytest.raises(FeasibilityError, match=rf"^{len(usable)} complete columns < "):
                estimate_sigma(make_panel(values), p)
            assert not responses
            return
        sigma = estimate_sigma(make_panel(values), p)
    assert np.array_equal(responses[0], values.T[usable])      # the same time points, in order
    oracle = var_residual_covariance_loop(values, p)
    assert np.max(np.abs(sigma - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _identical_nodes():
    values = np.random.default_rng(7).normal(size=(5, 80))
    values[3] = values[1]
    return values


def test_identical_nodes_are_infeasible_and_name_the_dependent_column():
    # a minimum-norm VAR fit returned an indefinite sigma here, and EGLS a fit
    panel = make_panel(_identical_nodes())
    message = (r"the VAR lag window is rank deficient \(4/5\); dependent columns: "
               r"\['lag1\[n0[13]\]'\]; .* diagonal fallback")
    with pytest.raises(FeasibilityError, match=message):
        estimate_sigma(panel, 1)
    with pytest.raises(FeasibilityError, match=message):
        fit(panel, ring_graph(5), GnarSpec(GnarOrder(1, (1,))), method="egls")
    fit(panel, ring_graph(5), GnarSpec(GnarOrder(1, (1,))))     # OLS still fits


def test_a_near_copy_is_estimated_and_only_it_loads_scipy_linalg():
    # node 3 copies node 1 up to 1e-9 noise: R11 leaves the rank in doubt,
    # and the pivoted QR finds it full, so R22 stands
    code = ("import sys, numpy as np; from conftest import make_panel; "
            "from oracles import var_residual_covariance_loop; "
            "from gnarlib.gnar_core import estimate_sigma\n"
            "v = np.random.default_rng(7).normal(size=(5, 80))\n"
            "estimate_sigma(make_panel(v), 2)\n"
            "print('scipy.linalg' in sys.modules)\n"
            "v[3] = v[1] + 1e-9 * np.random.default_rng(8).normal(size=80)\n"
            "s, o = estimate_sigma(make_panel(v), 1), var_residual_covariance_loop(v, 1)\n"
            "print('scipy.linalg' in sys.modules, np.max(np.abs(s - o)) / np.max(np.abs(o)))")
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(gnarlib.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])})
    assert proc.returncode == 0, proc.stderr
    clean, near = proc.stdout.splitlines()
    assert clean == "False"
    loaded, rel = near.split()
    assert loaded == "True" and float(rel) < 1e-7


def test_no_lstsq_on_the_egls_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq was called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    values = np.random.default_rng(9).normal(size=(5, 120))
    panel = make_panel(values)
    np.testing.assert_allclose(estimate_sigma(panel, 2), var_residual_covariance_loop(values, 2),
                               rtol=0, atol=1e-12)
    egls = fit(panel, ring_graph(5), GnarSpec(GnarOrder(2, (1, 1))), method="egls")
    assert egls.sigma_full is not None and np.isfinite(egls.gamma).all()
