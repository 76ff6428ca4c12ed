"""The lazy package namespace: public names, submodules, what ``import`` runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnarlib

EXPORTED = {
    "errors": [
        "DataIntegrityError", "DegenerateGeometryError", "FeasibilityError", "GnarError",
        "InsufficientDataError", "InvalidInputError", "ModelInadmissibleError",
        "SelectionFailedError", "SingularDesignError", "UndefinedStatisticError"],
    "geo_graph": [
        "GeoPoint", "Graph", "NetworkSummary", "StageNeighbourhoods", "build_complete",
        "build_delaunay", "build_dnn", "build_economic_hub", "build_from_edgelist", "build_knn",
        "derive_gabriel", "derive_relative", "derive_soi", "great_circle_distance",
        "network_summary", "shortest_path_lengths", "stage_neighbourhoods"],
    "panel": [
        "BoxCoxProfile", "PhaseSpec", "TimeSeriesPanel", "boxcox_profile", "difference",
        "ingest_long_csv", "rolling_average", "split_phases", "weekly_from_cumulative"],
    "gnar_core": [
        "GnarFit", "GnarOrder", "GnarSpec", "RestrictionMatrix", "WeightScheme", "WeightSet",
        "build_design", "compute_weights", "estimate_sigma", "fit", "fit_egls", "fit_ols",
        "forecast", "restriction_matrix", "simulate", "spectral_radius", "stationarity_margin"],
    "selection": [
        "OrderGrid", "SelectionReport", "fit_ar_baseline", "order_grid", "schwert_max_lag",
        "select_model"],
    "diagnostics": [
        "MaseResult", "MoranResult", "TestResult", "ks_normality", "ljung_box", "mase",
        "moran_permutation_test", "moran_weights", "morans_i", "rank_transform"],
}
SRC = str(Path(gnarlib.__file__).resolve().parents[1])


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_all_holds_every_exported_name():
    assert sorted(gnarlib.__all__) == sorted(n for names in EXPORTED.values() for n in names)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"gnarlib.{module}")
    assert getattr(gnarlib, module) is sub
    for name in EXPORTED[module]:
        assert getattr(gnarlib, name) is getattr(sub, name), name


def test_star_import_and_dir_hold_every_name():
    namespace = {}
    exec("from gnarlib import *", namespace)
    listed = dir(gnarlib)
    for module, names in EXPORTED.items():
        assert module in listed
        for name in names:
            assert name in listed and namespace[name] is getattr(gnarlib, name), name
    assert "__version__" in listed


def test_unknown_attribute_is_the_standard_error():
    with pytest.raises(AttributeError, match="^module 'gnarlib' has no attribute 'no_such'$"):
        gnarlib.no_such
    assert not hasattr(gnarlib, "no_such")
    with pytest.raises(ImportError):
        exec("from gnarlib import no_such", {})


def test_import_runs_no_submodule_and_loads_no_numpy():
    # a LazyLoader module is of a subclass of ModuleType until its code runs
    code = ("import sys, types, gnarlib; "
            "print(sorted(n for n in ('errors', 'geo_graph', 'panel', 'gnar_core', "
            "'selection', 'diagnostics') if type(sys.modules['gnarlib.' + n]) "
            "is types.ModuleType)); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"], proc.stdout


def test_submodules_and_datasets_import_as_before():
    code = ("from gnarlib import datasets, network_summary; import gnarlib.cli as c; "
            "from gnarlib.gnar_core import WEIGHT_KINDS; "
            "print(type(network_summary(datasets.irish_queen_graph(), brg_samples=1)).__name__, "
            "WEIGHT_KINDS == c.errors.WEIGHT_KINDS)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NetworkSummary", "True"]


def test_module_run_of_the_cli_warns_nothing():
    proc = _python("-W", "error", "-m", "gnarlib.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "usage: gnar" in proc.stdout
