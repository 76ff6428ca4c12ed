"""Network autoregressive time-series modeling on spatial graphs.

Submodules:
    geo_graph    -- network constructions, stages, shortest paths, summaries
    panel        -- time-series panels and preprocessing
    gnar_core    -- model weights, design, estimation, simulation, forecasting
    selection    -- order grids, BIC search, per-node AR baseline
    diagnostics  -- MASE, spatial autocorrelation, KS and Ljung-Box tests
    cli          -- the ``gnar`` command-line tool
"""

__version__ = "0.1.0"

from .errors import (
    DataIntegrityError,
    DegenerateGeometryError,
    FeasibilityError,
    GnarError,
    InsufficientDataError,
    InvalidInputError,
    ModelInadmissibleError,
    SelectionFailedError,
    SingularDesignError,
    UndefinedStatisticError,
)
from .geo_graph import (
    GeoPoint,
    Graph,
    NetworkSummary,
    StageNeighbourhoods,
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
    shortest_path_lengths,
    stage_neighbourhoods,
)
from .panel import (
    BoxCoxProfile,
    PhaseSpec,
    TimeSeriesPanel,
    boxcox_profile,
    difference,
    ingest_long_csv,
    rolling_average,
    split_phases,
    weekly_from_cumulative,
)
from .gnar_core import (
    GnarFit,
    GnarOrder,
    GnarSpec,
    RestrictionMatrix,
    WeightScheme,
    WeightSet,
    build_design,
    compute_weights,
    estimate_sigma,
    fit,
    fit_egls,
    fit_ols,
    forecast,
    restriction_matrix,
    simulate,
    spectral_radius,
    stationarity_margin,
)
from .selection import (
    OrderGrid,
    SelectionReport,
    fit_ar_baseline,
    order_grid,
    schwert_max_lag,
    select_model,
)
from .diagnostics import (
    MaseResult,
    MoranResult,
    TestResult,
    ks_normality,
    ljung_box,
    mase,
    moran_permutation_test,
    moran_weights,
    morans_i,
    rank_transform,
)
