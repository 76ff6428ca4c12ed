"""Network autoregressive time-series modeling on spatial graphs.

Submodules:
    errors       -- exception types, the CSV and JSON readers and writers
    geo_graph    -- network constructions, stages, shortest paths, summaries
    panel        -- time-series panels and preprocessing
    gnar_core    -- model weights, design, estimation, simulation, forecasting
    selection    -- order grids, BIC search, per-node AR baseline
    diagnostics  -- MASE, spatial autocorrelation, KS and Ljung-Box tests
    datasets     -- the shipped Irish county data
    cli          -- the ``gnar`` command-line tool

The namespace is lazy.  The first six submodules sit in ``sys.modules`` and
on the package from ``import gnarlib`` on, as ``importlib.util.LazyLoader``
modules whose code runs on first attribute access, and every public name is
served from its submodule on first use.  So ``import gnarlib`` loads no
numpy, and a ``gnar`` command runs only what it calls: the ``data`` commands
run ``errors`` and ``panel``, the ``network`` commands ``errors`` and
``geo_graph``, ``diagnose ks`` and ``diagnose ljungbox`` ``errors``,
``panel`` and ``diagnostics`` (and ``scipy.special``, whose p-values the
tests pin bit for bit), and the model commands what they use of the rest.
Before Python 3.12 a first access is not thread-safe; gnarlib is
single-threaded batch code, so load the submodules before sharing them
between threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DataIntegrityError", "DegenerateGeometryError", "FeasibilityError", "GnarError",
        "InsufficientDataError", "InvalidInputError", "ModelInadmissibleError",
        "SelectionFailedError", "SingularDesignError", "UndefinedStatisticError"),
    "geo_graph": (
        "GeoPoint", "Graph", "NetworkSummary", "StageNeighbourhoods", "build_complete",
        "build_delaunay", "build_dnn", "build_economic_hub", "build_from_edgelist", "build_knn",
        "derive_gabriel", "derive_relative", "derive_soi", "great_circle_distance",
        "network_summary", "shortest_path_lengths", "stage_neighbourhoods"),
    "panel": (
        "BoxCoxProfile", "PhaseSpec", "TimeSeriesPanel", "boxcox_profile", "difference",
        "ingest_long_csv", "rolling_average", "split_phases", "weekly_from_cumulative"),
    "gnar_core": (
        "GnarFit", "GnarOrder", "GnarSpec", "RestrictionMatrix", "WeightScheme", "WeightSet",
        "build_design", "compute_weights", "estimate_sigma", "fit", "fit_egls", "fit_ols",
        "forecast", "restriction_matrix", "simulate", "spectral_radius", "stationarity_margin"),
    "selection": (
        "OrderGrid", "SelectionReport", "fit_ar_baseline", "order_grid", "schwert_max_lag",
        "select_model"),
    "diagnostics": (
        "MaseResult", "MoranResult", "TestResult", "ks_normality", "ljung_box", "mase",
        "moran_permutation_test", "moran_weights", "morans_i", "rank_transform"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
