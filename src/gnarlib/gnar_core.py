"""Network autoregressive model: weights, design, estimation, simulation.

The model regresses each node's value on its own past values (one
coefficient per lag, either shared across nodes or node-specific) and on
weighted averages of its r-th stage neighbourhoods' past values (one
coefficient per lag and stage):

    X[i, t] = sum_j ( alpha[i, j] * X[i, t - j]
                      + sum_r beta[j, r] * sum_{q in stage r of i}
                            w[i, q] * X[q, t - j] ) + eps[i, t]

The network is one operator: the stack of row-normalised stage-weight
matrices W_r and, given coefficients, the VAR blocks
B_j = diag(alpha_j) + sum_r beta[j, r] W_r.

Estimation is restricted least squares on a stacked design with one row per
(node, time) pair, cut by lag slicing and one row mask from regressor planes
(the panel and its stage sums W_r X) that a model search shares across all
candidates.  Every fit reads its solution off an R factor in one subset
solve.  The R comes from one numpy QR of the design and response, or, for
node-specific alpha, from eliminating each node's own-lag block (one batched
QR over nodes) without forming the zero-filled N*p alpha columns.  A QR of
column subsets of that R gives each subset's coefficients, standard errors,
RSS and a bound on the smallest singular value.  A standalone fit is the
all-columns subset of a stack of one.  A model search hands its admissible
candidates to one solve, which reads each candidate's kept rows off one
gather of the columns, sets aside those with no more rows than parameters
(or, for node-specific alpha, with a node that has fewer rows than lags),
groups the rest by lag order and kept rows, and factorises once for all
groups: one QR of the rows every group keeps stands in for them in each
group's R, one batched QR adds each group's other rows, and one batched
subset QR serves every candidate; those set aside, and those whose rank is
in doubt, take the standalone fit.  A design whose rank is in doubt goes to one
pivoted QR, which names the dependent columns; it is the only step that
loads ``scipy.linalg``, and the rank rule is one function for every
least-squares problem.  The restriction matrix maps the M free parameters
into the VAR blocks; estimated GLS whitens rows with a residual covariance
estimate, one Cholesky factor per set of present nodes.  That estimate is
the R22' R22 / T' of one numpy QR of the unrestricted VAR(p) lag window and
responses, under the same rank rule (a rank-deficient lag window raises
FeasibilityError naming its dependent columns), so no ``lstsq`` is used.
The VAR blocks [B_p ... B_1] are built in one place, as the nonzeros of
their support in gather form.  Simulation and both forecast modes gather
the stacked lag window at those entries and sum each row's products, and
the companion matrix (whose spectral radius decides stationarity, beside
the sufficient stationarity margin) and the restriction matrix are both
scattered from the same entries.

Estimation assumes i.i.d. Gaussian errors with a single profiled variance;
information criteria are reported under that convention (BIC =
M*log(n_obs) - 2*loglik).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    FeasibilityError,
    GnarError,
    InsufficientDataError,
    InvalidInputError,
    ModelInadmissibleError,
    SingularDesignError,
    WEIGHT_KINDS,
    _check_finite,
    _check_integer,
    _check_seed,
)
from . import geo_graph
from .panel import TimeSeriesPanel, _reject_infinite


# ---------------------------------------------------------------------------
# Specification types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GnarOrder:
    """Model order: lag count p and per-lag maximum neighbourhood stage s.

    ``s`` has length p; ``s[j - 1] == 0`` means lag j enters with no
    neighbourhood term.
    """

    p: int
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_integer("lag order p", self.p)
        if self.p < 1:
            raise InvalidInputError("lag order p must be >= 1")
        s = tuple(self.s)
        for j, v in enumerate(s):
            _check_integer(f"stage order s[{j}]", v)
        object.__setattr__(self, "s", tuple(map(int, s)))
        if len(self.s) != self.p:
            raise InvalidInputError(f"s has length {len(self.s)}, expected p={self.p}")
        if any(v < 0 for v in self.s):
            raise InvalidInputError("stage orders must be nonnegative")

    @property
    def max_stage(self) -> int:
        return max(self.s) if self.s else 0

    def n_beta(self) -> int:
        return int(sum(self.s))

    def name(self) -> str:
        """Compact display form, e.g. GNAR(2,[1,0])."""
        return f"GNAR({self.p},[{','.join(str(v) for v in self.s)}])"


@dataclass(frozen=True)
class WeightScheme:
    """How within-stage neighbour weights are computed.

    Kinds:
        spl      -- normalised inverse shortest path length.  All members of
                    stage r sit at SPL exactly r, so this normalises to the
                    uniform weight 1/|stage|; kept as a separate kind for
                    explicitness.
        uniform  -- 1 / |stage| directly.
        idw      -- proportional to inverse great-circle distance; needs
                    ``dist_km``.
        pb       -- proportional to population / distance; needs ``dist_km``
                    and ``populations``.

    ``dist_km`` is an N x N matrix and ``populations`` a length-N vector,
    both aligned with the graph's label order.
    """

    kind: str
    dist_km: Optional[np.ndarray] = None
    populations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise InvalidInputError(
                f"unknown weight kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        if self.kind in ("idw", "pb") and self.dist_km is None:
            raise InvalidInputError(f"scheme {self.kind!r} requires dist_km")
        if self.kind == "pb" and self.populations is None:
            raise InvalidInputError("scheme 'pb' requires populations")


@dataclass(frozen=True)
class WeightSet:
    """Normalised neighbour weights as an (r_max, N, N) stack.

    ``stack[r - 1]`` is W_r (also ``matrix(r, n)``): row i holds w[i, q]
    over the r-th stage of node i, zeros elsewhere, and sums to 1 when the
    stage is nonempty.  ``stage_weights(i, r)`` and ``weights[i][r - 1]``
    give that row as a dict q -> w[i, q].
    """

    stack: np.ndarray

    @property
    def r_max(self) -> int:
        return self.stack.shape[0]

    @property
    def weights(self) -> tuple[tuple[dict[int, float], ...], ...]:
        return tuple(tuple(self.stage_weights(i, r) for r in range(1, self.r_max + 1))
                     for i in range(self.stack.shape[1]))

    def stage_weights(self, node: int, r: int) -> dict[int, float]:
        row = self.matrix(r, self.stack.shape[1])[node]
        members = np.flatnonzero(row)
        return dict(zip(members.tolist(), row[members].tolist()))

    def matrix(self, r: int, n: int) -> np.ndarray:
        """Dense stage-r weight matrix W with W[l, m] = w[l, m]."""
        if not 1 <= r <= self.r_max:
            raise InvalidInputError(f"stage {r} outside computed range 1..{self.r_max}")
        return self.stack[r - 1]


@dataclass(frozen=True)
class GnarSpec:
    """Full model specification: order, alpha sharing, weight scheme."""

    order: GnarOrder
    global_alpha: bool = True
    scheme: WeightScheme = field(default_factory=lambda: WeightScheme("spl"))

    def n_params(self, n_nodes: int) -> int:
        base = self.order.p if self.global_alpha else n_nodes * self.order.p
        return base + self.order.n_beta()


@dataclass(frozen=True)
class RestrictionMatrix:
    """Linear map from the M free parameters into vec of the VAR matrix.

    ``matrix`` has shape (p * N^2, M); stacking is column-major per lag
    block, lag blocks concatenated.  ``column_names`` label the free
    parameters in design-column order.
    """

    matrix: np.ndarray
    column_names: tuple[str, ...]


@dataclass(frozen=True)
class GnarFit:
    """Fitted model: coefficients, residuals, likelihood and criteria.

    ``alpha`` has shape (p,) for a global-alpha fit and (N, p) otherwise;
    ``beta[j - 1]`` holds the stage coefficients for lag j.  ``residuals``
    is panel-shaped (N x T) with NaN outside the fitted rows.  ``sigma2``
    is the pooled residual variance; ``sigma_full`` carries the N x N
    covariance estimate when the fit used one.
    """

    spec: GnarSpec
    labels: tuple[str, ...]
    gamma: np.ndarray
    gamma_se: np.ndarray
    column_names: tuple[str, ...]
    alpha: np.ndarray
    beta: tuple[np.ndarray, ...]
    sigma2: float
    residuals: Optional[np.ndarray]
    n_obs: int
    M: int
    loglik: float
    bic: float
    aic: float
    sigma_full: Optional[np.ndarray] = None
    weight_set: Optional[WeightSet] = None

    def to_json(self) -> dict:
        return {
            "order": {"p": self.spec.order.p, "s": list(self.spec.order.s)},
            "global_alpha": self.spec.global_alpha,
            "scheme": self.spec.scheme.kind,
            "labels": list(self.labels),
            "alpha": self.alpha.tolist(),
            "beta": [b.tolist() for b in self.beta],
            "gamma": self.gamma.tolist(),
            "gamma_se": self.gamma_se.tolist(),
            "coefficients": dict(zip(self.column_names,
                                     (float(v) for v in self.gamma))),
            "sigma2": self.sigma2,
            "loglik": self.loglik,
            "bic": self.bic,
            "aic": self.aic,
            "n_obs": self.n_obs,
            "M": self.M,
        }


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def compute_weights(g: geo_graph.Graph, stages: geo_graph.StageNeighbourhoods,
                    scheme: WeightScheme) -> WeightSet:
    """Normalised within-stage weights for every node and stage.

    Stage r's members are the mask ``hops == r``; each member gets 1
    (spl, uniform), 1/d (idw) or pop/d (pb), and every row is normalised.
    For 'spl' all stage-r members are at SPL exactly r, so the normalised
    inverse-SPL weights equal the uniform 1/|stage| weights; both kinds go
    through the same computation and produce identical output.
    """
    n = g.n
    if scheme.kind in ("idw", "pb"):
        d = np.asarray(scheme.dist_km, dtype=float)
        if d.shape != (n, n):
            raise InvalidInputError(
                f"dist_km shape {d.shape} does not match n={n}")
    if scheme.kind == "pb":
        pop = np.asarray(scheme.populations, dtype=float)
        if pop.shape != (n,):
            raise InvalidInputError(
                f"populations shape {pop.shape} does not match n={n}")
        if np.any(~np.isfinite(pop)) or np.any(pop <= 0):
            raise InvalidInputError("populations must be finite and positive")

    members = stages.hops == np.arange(1, stages.r_max + 1)[:, None, None]
    if scheme.kind in ("spl", "uniform"):
        # every member of stage r sits at SPL r: inverse SPL is flat
        raw = members.astype(float)
    else:
        bad = members & ~(d > 0)
        if bad.any():
            i, _, q = np.argwhere(bad.transpose(1, 0, 2))[0]
            raise InvalidInputError(
                f"nonpositive distance between nodes {g.labels[i]!r} "
                f"and {g.labels[q]!r}")
        with np.errstate(divide="ignore"):
            per_pair = (1.0 if scheme.kind == "idw" else pop) / d
        raw = np.where(members, per_pair, 0.0)
    total = raw.sum(axis=2, keepdims=True)
    return WeightSet(stack=np.divide(raw, total, out=raw, where=total > 0))


def _weight_stack(g: geo_graph.Graph, max_stage: int, scheme: WeightScheme) -> WeightSet:
    """:func:`compute_weights` over stages 1..max(max_stage, 1) of ``g``."""
    return compute_weights(g, geo_graph.stage_neighbourhoods(g, max(max_stage, 1)), scheme)


# ---------------------------------------------------------------------------
# Restriction matrix and design
# ---------------------------------------------------------------------------

def _validate_stages(order: GnarOrder, weights: WeightSet,
                     labels: Sequence[str]) -> None:
    """Every stage a lag uses must be nonempty for every node."""
    if order.max_stage > weights.r_max:
        raise InvalidInputError(
            f"order uses stage {order.max_stage} but only {weights.r_max} computed")
    nonempty = weights.stack[:order.max_stage].any(axis=2)
    if nonempty.all():
        return
    for j, sj in enumerate(order.s, start=1):
        for r in range(1, sj + 1):
            if not nonempty[r - 1].all():
                raise ModelInadmissibleError(f"stage {r} (lag {j}) is empty for node "
                                             f"{labels[int(np.argmin(nonempty[r - 1]))]!r}")


def coefficient_names(spec: GnarSpec, labels: Sequence[str]) -> tuple[str, ...]:
    """Design column names: alpha block (lag-major) then beta block, in the
    column order of :func:`_lag_columns`."""
    p = spec.order.p
    suffixes = [""] if spec.global_alpha else [f"[{lbl}]" for lbl in labels]
    return (*(f"alpha{j}{sfx}" for j in range(1, p + 1) for sfx in suffixes),
            *(f"beta{j}.{r}" for r, j in _lag_columns(spec.order)[p:]))


def restriction_matrix(spec: GnarSpec, weights: WeightSet, n: int,
                       labels: Optional[Sequence[str]] = None) -> RestrictionMatrix:
    """Matrix R with vec(B) = R gamma.

    Unstacking R gamma into p column-major N x N blocks yields, for block j,
    diag entries equal to the alpha coordinates of gamma and entry (l, m)
    equal to beta[j, r] * w[l, m] whenever m lies in stage r of l.  Column
    c is the vectorised VAR blocks of the unit coefficient vector e_c: the
    entries of :func:`_lag_operator` for e_c, scattered into that column.
    """
    labels = _labels(labels, n)
    _validate_stages(spec.order, weights, labels)
    names = coefficient_names(spec, labels)
    R = np.zeros((spec.order.p * n * n, len(names)))
    for c, unit in enumerate(np.eye(len(names))):
        rows, cols, coef, _ = _lag_operator(*_unstack_gamma(unit, spec, n), weights, n)
        # column-major [B_1 ... B_p]: entry (i, c) sits at c * N + i
        R[_companion_column(cols, n, spec.order.p) * n + rows, c] = coef
    return RestrictionMatrix(matrix=R, column_names=names)


def _stage_planes(panel: TimeSeriesPanel, weights: WeightSet, r_max: int) -> np.ndarray:
    """Regressor planes shared by every order with stages up to ``r_max``:
    a (r_max + 1, T, N) stack of the panel (plane 0) and the stage-r sums
    W_r X, NaN exactly where a missing value meets the support of W_r.  An
    infinite panel value is an error naming its node."""
    _reject_infinite(panel.labels, panel.values)
    n, T = panel.values.shape
    planes = np.empty((r_max + 1, T, n))
    planes[0] = panel.values.T
    missing = np.isnan(panel.values)
    filled, holes = np.where(missing, 0.0, panel.values), missing.astype(float)
    for r, w in enumerate(weights.stack[:r_max], 1):
        planes[r] = (w @ filled).T
        if missing.any():
            planes[r][(((w != 0).astype(float) @ holes) > 0).T] = np.nan
    return planes


@dataclass(frozen=True)
class NodeDesign:
    """A node-specific-alpha design in compact form.

    Row k of the wide design holds ``own[k]`` (its p own lags) in the alpha
    columns of node ``nodes[k]``, zeros in the other (N - 1) * p alpha
    columns, and ``beta[k]`` in the beta columns.  :func:`_subset_solve`
    solves it by block elimination without forming those zeros; ``wide()`` gives
    the full design and ``design @ gamma`` the fitted values.
    """

    own: np.ndarray
    beta: np.ndarray
    nodes: np.ndarray
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        rows, p = self.own.shape
        return rows, p * self.n + self.beta.shape[1]

    def wide(self) -> np.ndarray:
        rows, p = self.own.shape
        design = np.zeros(self.shape)
        design[:, p * self.n:] = self.beta
        design[np.arange(rows)[:, None], np.arange(p) * self.n + self.nodes[:, None]] = self.own
        return design

    def __matmul__(self, gamma: np.ndarray) -> np.ndarray:
        p = self.own.shape[1]
        alpha = gamma[:p * self.n].reshape(p, self.n).T
        return (np.einsum("kj,kj->k", self.own, alpha[self.nodes])
                + self.beta @ gamma[p * self.n:])


def _lag_columns(order: GnarOrder) -> list[tuple[int, int]]:
    """The design's (plane r, lag j) columns: own lags, then beta in (lag, stage) order."""
    return [(0, j) for j in range(1, order.p + 1)] + [
        (r, j) for j in range(1, order.p + 1) for r in range(1, order.s[j - 1] + 1)]


def _design_from_planes(planes: np.ndarray, spec: GnarSpec
                        ) -> tuple[np.ndarray | NodeDesign, np.ndarray, np.ndarray]:
    """One order's stacked design: every column is a lag slice of a plane, and
    one mask keeps the rows whose response and regressors are all observed.
    Node-specific alphas come as a :class:`NodeDesign`.  The row index is an
    (n_rows, 2) array of (node, column) pairs."""
    p = spec.order.p
    _, T, n = planes.shape
    if T <= p:
        raise _short_panel(T, p)
    lagged = np.stack([planes[r, p - j:T - j] for r, j in _lag_columns(spec.order)])
    response = planes[0, p:]
    keep = ~np.isnan(response) & ~np.isnan(lagged).any(axis=0)
    t_off, nodes = np.nonzero(keep)
    if nodes.size == 0:
        raise _no_rows()
    regressors = lagged[:, keep].T
    design = (regressors if spec.global_alpha
              else NodeDesign(regressors[:, :p], regressors[:, p:], nodes, n))
    return design, response[keep], np.column_stack([nodes, t_off + p])


def build_design(panel: TimeSeriesPanel, spec: GnarSpec, weights: WeightSet,
                 stages: geo_graph.StageNeighbourhoods
                 ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Stacked regression design for the model.

    One row per (node i, time t) with t > p for which the response and all
    needed lagged own and neighbourhood terms are observed; a missing value
    anywhere in a node's stage poisons exactly the rows whose neighbourhood
    sums touch it.  Columns are the alpha block (lag-major, node-major
    within a lag for node-specific alphas) followed by beta columns in
    (lag, stage) order.  The design is cut from regressor planes (the panel
    and its stage sums W_r X) by lag slicing and one row mask;
    ``select_model`` builds the planes once and gathers every column its
    search needs from them.  ``weights`` must come from ``stages``; empty stages are detected
    on the weights.  Returns (design, response, row_index) where row_index
    lists (node, column) pairs into the panel, t-major and node-minor.
    """
    _validate_stages(spec.order, weights, panel.labels)
    planes = _stage_planes(panel, weights, spec.order.max_stage)
    design, response, rows = _design_from_planes(planes, spec)
    return _wide(design), response, list(zip(*rows.T.tolist()))


def _wide(design: np.ndarray | NodeDesign) -> np.ndarray:
    return design.wide() if isinstance(design, NodeDesign) else design


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

# A solve is kept only when its lower bound on the design's smallest singular
# value clears the pivoted QR's rank tolerance by this factor, far beyond the
# rounding of either factorisation; closer calls go to the pivoted QR, so the
# rank decision and the dependent columns it names never change.
_RANK_MARGIN = 1e6

# Rows per block of the dense QR: numpy's QR copies its input twice, and a
# block this size keeps those copies far below the design itself.
_QR_ROWS = 4096


def _rank_deficiency(r_fac: np.ndarray, piv: np.ndarray, shape: tuple[int, int],
                     names: Sequence[str]) -> Optional[str]:
    """The one rank rule for a design whose rank is in doubt, read off its
    pivoted QR, D P = Q R: a column is dependent when its |diag(R)| is at most
    max(shape) * eps times the largest.  None at full rank, else the rank and
    the dependent columns by name."""
    diag = np.abs(np.diag(r_fac))
    tol = max(shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    return (f"rank deficient ({rank}/{shape[1]}); dependent columns: "
            f"{sorted(names[int(c)] for c in piv[rank:])}") if rank < shape[1] else None


def _qr_solve(design: np.ndarray, response: np.ndarray,
              names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The fallback solve, for designs whose rank is in doubt: one pivoted
    QR, D P = Q R, with Q applied to the response and never formed.  diag(R)
    gives the rank check of :func:`_rank_deficiency`, a triangular solve
    gives gamma, and the row norms of R^-1 give diag((D'D)^-1)."""
    from scipy import linalg

    qty, r_fac, piv = linalg.qr_multiply(design, response, mode="right", pivoting=True)
    if deficiency := _rank_deficiency(r_fac, piv, design.shape, names):
        raise SingularDesignError(f"design is {deficiency}")
    sol = linalg.solve_triangular(r_fac, np.column_stack([qty, np.eye(design.shape[1])]))
    unpivot = np.argsort(piv)
    return sol[unpivot, 0], np.sum(sol[unpivot, 1:] ** 2, axis=1)


def _require_finite(values: np.ndarray) -> None:
    """numpy's QR does not check its input; the solves refuse NaN and inf here."""
    if not np.isfinite(values).all():
        raise InvalidInputError("design or response holds non-finite values")


def _rank_is_clear(cov_diag: np.ndarray, shape: tuple[int, int], col_norm2):
    """Whether the pivoted QR would surely find full rank.  sum(cov_diag) is
    ||R^-1||_F^2 >= 1 / sigma_min^2, and the pivoted QR keeps every column
    whose R diagonal, itself >= sigma_min, exceeds max(shape) * eps times the
    largest column norm.  The subsets of :func:`_subset_solve` give one
    answer each (cov_diag zero-padded to a common width, one col_norm2 each);
    :func:`estimate_sigma` asks it about the VAR lag window."""
    tol = _RANK_MARGIN * np.maximum(*shape) * np.finfo(float).eps * np.sqrt(col_norm2)
    return cov_diag.sum(axis=-1) * tol * tol < 1.0


def _dense_r(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """The R of one numpy QR of [D y], where y is one response vector or a
    block of response columns.  A design taller than ``_QR_ROWS`` is
    factorised in row blocks and the stacked block factors once more (the
    same R), so numpy's working copies stay small; no rows give an empty R."""
    m, y = design.shape[1], response if response.ndim == 2 else response[:, None]
    factors = []
    for start in range(0, max(len(y), 1), _QR_ROWS):
        rows = slice(start, start + _QR_ROWS)
        # column-major, as LAPACK takes it
        block = np.empty((len(y[rows]), m + y.shape[1]), order="F")
        block[:, :m] = design[rows]
        block[:, m:] = y[rows]
        _require_finite(block)
        factors.append(np.linalg.qr(block, mode="r"))
    return factors[0] if len(factors) == 1 else np.linalg.qr(np.concatenate(factors), mode="r")


def _subset_solve(r: np.ndarray, p: int, group: np.ndarray, use: np.ndarray,
                  n_obs: np.ndarray) -> list[Optional[tuple[np.ndarray, np.ndarray, float]]]:
    """Least squares for column subsets of a stack of designs: all-subsets
    regression in QR form.  ``r[g]`` is design g's R factor with the response
    last: dense (:func:`_dense_r`) when p = 0, else one per node, where
    ``r[g, i]`` is the R of node i's rows [A_i B_i y_i] (own lags, beta
    regressors, response).  Its top p rows are R_Ai, Q_i'B_i and Q_i'y_i, and
    its rows below, [B_i y_i] projected off A_i, stacked over nodes take one
    QR per design, R_B.  Subset k takes the columns ``use[k]`` of design
    ``group[k]``, which has ``n_obs[k]`` rows.  As Q is orthonormal, a
    subset's R is the QR of the dense R's (or R_B's) columns [cols y] and its
    RSS the last diagonal squared.  One stacked numpy QR serves all subsets:
    a narrower one is widened by unit columns on extra rows, which add a unit
    block to R and change none of its own entries.  R^-1 Q'y is gamma and
    the row norms of R^-1 give diag((D'D)^-1).  With p > 0 the first p
    columns are own lags, eliminated per node, and ``use`` marks the ones
    each subset keeps; the rest are unit columns whose alpha (0) and
    covariance entry (1) are dropped.  The R of design g is then
    [[R_A, Q_A'B], [0, R_B]], so alpha_i = R_Ai^-1 (Q_i'y_i - Q_i'B_i beta),
    with R_Ai^-1 shared by the subsets of g, and diag((D'D)^-1) is the row
    norms of R_A^-1 and R_A^-1 Q_A'B R_B^-1 for alpha and of R_B^-1 for
    beta.  Returns (gamma, cov_diag, rss) per subset, or None where the
    rank is not clear; an RSS that overflows is refused (InvalidInputError)."""
    src = np.linalg.qr(r[..., p:, p:].reshape(len(r), -1, r.shape[-1] - p), mode="r") if p else r
    own, subsets = use[:, :p], use[:, p:]
    widths = subsets.sum(axis=1)
    k, w, count = src.shape[-2], int(widths.max()), len(use)
    cols = np.argsort(~subsets, axis=1, kind="stable")[:, :w]     # each subset's columns first
    pad = np.arange(w) >= widths[:, None]               # the unit columns
    x = np.zeros((count, k + w, w + 1))
    x[:, :k, :w] = np.where(pad[:, None], 0.0, np.take_along_axis(src[group], cols[:, None], 2))
    x[:, k + np.arange(w), np.arange(w)] = pad
    x[:, :k, w] = src[group, :, -1]
    small = np.linalg.qr(x, mode="r")
    with np.errstate(over="ignore"):
        rss = small[:, w, w] ** 2
    if not np.isfinite(rss).all():      # refused before the pivoted QR can load scipy
        raise InvalidInputError(_OVERFLOW)
    try:
        r_inv = np.linalg.inv(small[:, :w, :w])
        ra_inv = np.linalg.inv(r[..., :p, :p]) if p else None
    except np.linalg.LinAlgError:
        return [None] * count
    coef = (r_inv @ small[:, :w, w:])[..., 0]
    cov = np.einsum("kij,kij->ki", r_inv, r_inv)
    cov[pad] = 0.0                                      # the unit block
    if p:  # alpha from the shared R_Ai^-1 and each subset's columns of Q_i'B_i
        top, ra_cov = r[..., :p, :][group], np.einsum("gnij,gnij->gni", ra_inv, ra_inv)[group]
        ra_inv = ra_inv[group]
        qb = np.where(pad[:, None, None], 0.0,
                      np.take_along_axis(top[..., p:-1], cols[:, None, None], 3))
        alpha = np.einsum("knij,knj->kni", ra_inv,
                          top[..., -1] - (qb @ coef[:, None, :, None])[..., 0])
        coupling = ra_inv @ qb @ r_inv[:, None]
        cov_alpha = (ra_cov + np.einsum("knij,knij->kni", coupling, coupling)) * own[:, None]
        norms = np.concatenate([np.einsum("gnij,gnij->gnj", r[..., :p], r[..., :p]).max(axis=1),
                                np.einsum("gnij,gnij->gj", r[..., p:-1], r[..., p:-1])], axis=1)
    else:
        alpha = cov_alpha = np.empty((count, 0, 0))
        norms = np.einsum("gij,gij->gj", r[..., :-1], r[..., :-1])
    # gamma's alpha block is lag-major, node-minor
    alpha, cov_alpha = (a.transpose(0, 2, 1) for a in (alpha, cov_alpha))
    kept = np.concatenate([np.repeat(own, alpha.shape[2], axis=1), ~pad], axis=1)
    gamma = np.concatenate([alpha.reshape(count, -1), coef], axis=1)
    cov = np.concatenate([cov_alpha.reshape(count, -1), cov], axis=1)
    clear = _rank_is_clear(cov, (n_obs, widths), np.where(use, norms[group], 0.0).max(axis=1))
    ends = np.cumsum(kept.sum(axis=1)).tolist()
    gamma, cov = gamma[kept], cov[kept]         # each subset's entries, one after another
    return [(gamma[a:b], cov[a:b], e) if c else None
            for a, b, c, e in zip([0] + ends, ends, clear.tolist(), rss.tolist())]


def _least_squares(design: np.ndarray | NodeDesign, response: np.ndarray,
                   names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """gamma and diag((D'D)^-1): the all-columns case of :func:`_subset_solve`
    on a stack of one, or :func:`_qr_solve` on the wide design when that
    finds the rank not clear.  A node with k_i < p rows gives its own-lag
    columns rank k_i at most, so that design is refused at once as singular."""
    if not isinstance(design, NodeDesign):
        p, r = 0, _dense_r(design, response)[None]
    else:
        own, other, nodes, n = design.own, design.beta, design.nodes, design.n
        p, counts = own.shape[1], np.bincount(nodes, minlength=n)
        if counts.min() < p:       # names[i] is alpha1[<label of node i>]
            raise _short_node([name.partition("[")[2][:-1] for name in names[:n]], counts, p)
        # a node occurs at most once in each run of increasing node ids (one date
        # of the t-major rows), so the run number is the row's slot in its block
        slot = np.concatenate([[0], np.cumsum(nodes[1:] <= nodes[:-1])])
        blocks = np.zeros((1, n, slot[-1] + 1, p + other.shape[1] + 1))
        blocks[0, nodes, slot] = np.column_stack([own, other, response])
        _require_finite(blocks)
        r = np.linalg.qr(blocks, mode="r")     # one batched QR over nodes
    use = np.ones((1, r.shape[-1] - 1), dtype=bool)
    solved = _subset_solve(r, p, np.zeros(1, dtype=int), use, np.array([len(response)]))[0]
    return solved[:2] if solved is not None else _qr_solve(_wide(design), response, names)


def _search_solve(planes: np.ndarray, specs: Sequence[GnarSpec], labels: Sequence[str]
                  ) -> dict[GnarOrder, tuple[np.ndarray, float, int, int] | GnarError]:
    """Least squares for the admissible orders of one model search, in one
    alpha mode.  One gather cuts every column an order uses, (plane r, lag j),
    from the planes; it has the same value at row (i, t) for every order that
    uses it, and its NaN pattern gives each order's kept rows: t >= p, with
    the response and every column observed.  An order with no more rows than
    parameters, or, for node-specific alpha, with a node that has fewer rows
    than p, is refused with the error the standalone fit would raise, in its
    order of checks: T <= p, no usable row, n rows <= M parameters, then the
    node (of ``labels``) with the fewest rows.  The rest are
    grouped by lag order and kept rows.  Stage sets are prefixes, so the
    union of a group's columns is the design of its elementwise-largest stage
    vector, and each order is a column subset of it.  One QR of the rows
    every group keeps, over all columns (per node for node-specific alpha),
    stands in for those rows in every group: one batched QR of each group's
    columns of that R over the group's other rows gives each group's R,
    widened to a common layout by unit columns (own lags beyond the group's p
    among them), and one :func:`_subset_solve` serves every grouped order.
    Returns {order: (gamma, rss, n_obs, M)} for the served orders whose rank
    is clear and {order: error} for the refused ones; the rest take the
    standalone fit."""
    _, T, n = planes.shape
    node = not specs[0].global_alpha
    lags = np.array([spec.order.p for spec in specs])
    big, low = int(lags.max()), int(lags.min())
    stages = np.array([spec.order.s + (0,) * (big - spec.order.p) for spec in specs])
    # own lags 1..big, every (plane r, lag j) an order uses, lag-major, then the
    # response: plane 0 at lag 0
    layout = [(0, j) for j in range(1, big + 1)] + [
        (r, j) for j, top in enumerate(stages.max(axis=0), 1) for r in range(1, top + 1)] + [(0, 0)]
    plane, lag = np.array(layout).T
    use = np.where(plane == 0, lag <= lags[:, None], plane <= stages[:, lag - 1])
    times = np.arange(low, T)
    # rows t < j wrap around (an order may be longer than the panel), and no
    # order that uses column (r, j) keeps them
    lagged = planes[plane[:, None], (times - lag[:, None]) % T]
    missing = np.isnan(lagged).reshape(len(layout), -1).astype(float)
    keep = (use @ missing == 0).reshape(len(specs), -1, n) & (times[:, None] >= lags[:, None, None])
    per_node = keep.sum(axis=1)
    n_obs, params = per_node.sum(axis=1), [s.n_params(n) for s in specs]
    enough = (n_obs > params) & ~(node & (per_node < lags[:, None]).any(1))
    refused = {specs[k].order: _refusal(T, lags[k], params[k], per_node[k], labels)
               for k in np.flatnonzero(~enough)}
    groups: dict[tuple[int, bytes], list[int]] = {}
    for k, mask in zip(np.flatnonzero(enough), np.packbits(keep[enough], axis=-1)):
        groups.setdefault((lags[k], mask.tobytes()), []).append(k)
    if not groups:
        return refused
    sizes = [len(g) for g in groups.values()]
    served = [k for g in groups.values() for k in g]
    group = np.repeat(np.arange(len(groups)), sizes)
    # the layout of the served orders alone: a column only unserved orders use
    # may be NaN on the rows every group keeps
    live = use[served].any(axis=0)
    use, lagged = use[served][:, live], lagged[live]
    width, big = len(use[0]) - 1, lags[served].max()
    real = np.logical_or.reduceat(use, np.cumsum(sizes) - sizes)
    keep = keep[[g[0] for g in groups.values()]]
    common = keep.all(axis=0)
    blocks = n if node else 1       # row blocks: one per node, or all rows in one
    lagged = lagged.reshape(width + 1, -1, blocks)

    def rows(mask):
        """The rows of ``mask`` as [columns y], with each one's block and slot in it."""
        *head, t, b = np.nonzero(mask)
        return (*head, b, (np.cumsum(mask, axis=-2) - 1)[(*head, t, b)]), lagged[:, t, b].T

    if node:
        (b, slot), data = rows(common.reshape(-1, blocks))
        base = np.zeros((n, slot.max(initial=-1) + 1, width + 1))
        base[b, slot] = data
        base = np.linalg.qr(base, mode="r")
    else:
        base = _dense_r(lagged[:-1, common.ravel(), 0].T, lagged[-1, common.ravel(), 0])[None]
    extra = (keep & ~common).reshape(len(real), -1, blocks)
    height = base.shape[1]
    depth = height + int(extra.sum(axis=1).max())
    (g, b, slot), data = rows(extra)
    data = np.where(real[g], data, 0.0)     # a column that g leaves may be NaN

    def factor(lo, hi):
        """The R of each group's [columns of base; other rows; unit columns] in blocks lo..hi."""
        x = np.zeros((len(real), len(base[lo:hi]), depth + width, width + 1))
        x[:, :, :height] = base[lo:hi] * real[:, None, None]
        mine = (lo <= b) & (b < hi)
        x[g[mine], b[mine] - lo, height + slot[mine]] = data[mine]
        x[:, :, depth + np.arange(width), np.arange(width)] = ~real[:, None, :-1]   # unit columns
        _require_finite(x)
        return np.linalg.qr(x, mode="r")

    # whole row blocks per QR, at most _QR_ROWS rows of a group where blocks allow
    step = max(1, _QR_ROWS // (depth + width))
    r = np.concatenate([factor(lo, lo + step) for lo in range(0, blocks, step)], axis=1)
    solved = _subset_solve(r if node else r[:, 0], big if node else 0, group,
                           use[:, :-1], n_obs[served])
    return refused | {specs[k].order: (s[0], s[2], int(n_obs[k]), len(s[0]))
                      for k, s in zip(served, solved) if s is not None}


def _refusal(T: int, p: int, M: int, per_node: np.ndarray, labels: Sequence[str]) -> GnarError:
    """The error with which the standalone fit refuses an order of lag p and
    M parameters that keeps ``per_node`` rows of each node, in the order of
    its checks; the last is node-specific alpha's node with fewest rows."""
    n_obs = int(per_node.sum())
    if T <= p:
        return _short_panel(T, p)
    if n_obs == 0:
        return _no_rows()
    if n_obs <= M:
        return _saturated(n_obs, M)
    return _short_node(labels, per_node, p)


# The standalone fit's refusals, each written once: _design_from_planes,
# _checked_system and _least_squares raise them, and _refusal hands the search
# the same error for an order it refuses up front.

def _short_panel(T: int, p: int) -> InsufficientDataError:
    return InsufficientDataError(f"panel length {T} <= lag order {p}")


def _no_rows() -> InsufficientDataError:
    return InsufficientDataError("no usable stacked rows (too much missing data)")


def _saturated(n_obs: int, M: int) -> InsufficientDataError:
    return InsufficientDataError(f"{n_obs} rows <= {M} parameters")


def _short_node(labels: Sequence[str], counts: np.ndarray, p: int) -> SingularDesignError:
    """Node-specific alpha: the node of fewest ``counts`` rows has fewer than p."""
    i = int(np.argmin(counts))
    return SingularDesignError(f"node {labels[i]!r} has {counts[i]} rows for {p} own lags")


_OVERFLOW = "the residual sum of squares overflows; rescale the data"


def _gaussian_criteria(rss: float, n_obs: int, M: int) -> tuple[float, float, float, float]:
    if not math.isfinite(rss):
        raise InvalidInputError(_OVERFLOW)
    sigma2 = rss / n_obs
    if sigma2 <= 0:
        sigma2 = np.finfo(float).tiny  # exact fit; keep loglik finite
    loglik = -0.5 * n_obs * (math.log(2.0 * math.pi * sigma2) + 1.0)
    bic = M * math.log(n_obs) - 2.0 * loglik
    aic = 2.0 * M - 2.0 * loglik
    return sigma2, loglik, bic, aic


def _unstack_gamma(gamma: np.ndarray, spec: GnarSpec, n: int
                   ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    p = spec.order.p
    alpha = gamma[:p].copy() if spec.global_alpha else gamma[:p * n].reshape(p, n).T.copy()
    return alpha, tuple(np.split(gamma[alpha.size:].copy(), np.cumsum(spec.order.s)[:-1]))


def _residual_panel(shape: tuple[int, int], row_index, resid: np.ndarray) -> np.ndarray:
    out = np.full(shape, np.nan)
    nodes, times = np.asarray(row_index, dtype=np.intp).reshape(-1, 2).T
    out[nodes, times] = resid
    return out


def fit_ols(design: np.ndarray | NodeDesign, response: np.ndarray, spec: GnarSpec,
            n: int, T: int,
            row_index: Optional[list[tuple[int, int]]] = None,
            labels: Optional[Sequence[str]] = None,
            weight_set: Optional[WeightSet] = None) -> GnarFit:
    """Restricted least squares under a spherical error covariance.

    With errors i.i.d. across nodes and time, generalised least squares on
    the restricted parametrisation reduces to ordinary least squares on the
    stacked design.  The design must have full column rank, finite values
    and more rows than columns (else InsufficientDataError: a saturated
    fit's RSS is rounding noise).  The solve is the all-columns case
    of :func:`_subset_solve`: one numpy QR of [design, response] for a wide
    design, per-node block elimination for a :class:`NodeDesign`
    (node-specific alpha in compact form, as :func:`fit` and
    ``select_model`` pass it).  It gives gamma, the standard errors and a
    rank bound; when the smallest singular value comes within a safety
    factor of the pivoted QR's tolerance, the wide design goes through that
    pivoted QR instead, which raises SingularDesignError naming the
    dependent columns.  A node with fewer than p rows is SingularDesignError
    at once, naming the node and its row count.
    ``row_index`` (node, column) pairs may be a list or an (n_rows, 2) array.
    """
    design, response = _checked_system(design, response, spec, n)
    names = coefficient_names(spec, _labels(labels, n))
    gamma, cov_diag = _least_squares(design, response, names)
    return _report(design, response, gamma, cov_diag, spec, n, T, row_index, labels,
                   names, weight_set)


def _fit_planes(planes: np.ndarray, spec: GnarSpec, labels,
                weight_set: Optional[WeightSet]) -> GnarFit:
    """The standalone OLS fit of ``spec`` on regressor planes."""
    design, response, rows = _design_from_planes(planes, spec)
    _, T, n = planes.shape
    return fit_ols(design, response, spec, n, T, row_index=rows, labels=labels,
                   weight_set=weight_set)


def _checked_system(design, response, spec: GnarSpec, n: int):
    """The design (2-D, or a NodeDesign) and the flat response, checked
    against each other and against the parameter count of ``spec``."""
    if not isinstance(design, NodeDesign):
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise InvalidInputError("design must be a 2-D array")
    response = np.asarray(response, dtype=float).ravel()
    if design.shape[0] != response.size:
        raise InvalidInputError("design and response shapes do not match")
    n_obs, M = design.shape
    if M != spec.n_params(n):
        raise InvalidInputError(
            f"design has {M} columns but spec implies {spec.n_params(n)}")
    if n_obs <= M:
        raise _saturated(n_obs, M)
    return design, response


def _labels(labels: Optional[Sequence[str]], n: int) -> tuple[str, ...]:
    return tuple(labels) if labels is not None else tuple(f"v{i}" for i in range(n))


def _report(design: np.ndarray | NodeDesign, response: np.ndarray, gamma: np.ndarray,
            cov_diag: np.ndarray, spec: GnarSpec, n: int, T: int, row_index, labels,
            names: tuple[str, ...], weight_set: Optional[WeightSet],
            sigma_full: Optional[np.ndarray] = None) -> GnarFit:
    """Residuals and criteria on the original scale; the errors are scaled by
    sigma2 unless ``sigma_full`` already whitened them."""
    resid = response - design @ gamma
    n_obs, M = design.shape
    with np.errstate(over="ignore"):    # _gaussian_criteria refuses an RSS that overflows
        sigma2, loglik, bic, aic = _gaussian_criteria(float(resid @ resid), n_obs, M)
    gamma_se = np.sqrt(cov_diag * (sigma2 if sigma_full is None else 1.0))
    alpha, beta = _unstack_gamma(gamma, spec, n)
    residuals = (_residual_panel((n, T), row_index, resid)
                 if row_index is not None else None)
    return GnarFit(
        spec=spec, labels=_labels(labels, n), gamma=gamma, gamma_se=gamma_se,
        column_names=names, alpha=alpha, beta=beta, sigma2=sigma2,
        residuals=residuals, n_obs=n_obs, M=M, loglik=loglik, bic=bic,
        aic=aic, sigma_full=sigma_full, weight_set=weight_set,
    )


def estimate_sigma(panel: TimeSeriesPanel, p: int) -> np.ndarray:
    """Residual covariance from an unconstrained VAR(p) least-squares fit.

    Uses only time points whose response and full lag window are observed
    at every node: those over whose window one running count of incomplete
    columns does not grow.  The N x N residual covariance of T' such columns
    has rank at most T' - N*p, so this needs T' >= N*(p + 1); with fewer it
    raises FeasibilityError (no diagonal fallback is applied).  The T' x N*p
    lag window Z' and the responses X' get one numpy QR, [Z' X'] = Q R with
    R = [[R11, R12], [0, R22]], as every fit's solve does; the residual
    cross-product is R22' R22, so sigma = R22' R22 / T'.  Z' takes the rank
    rule of every fit: when R11 does not show full rank clearly, the pivoted
    QR of Z' decides, and a rank-deficient lag window (a node that copies
    another, say) raises FeasibilityError naming the dependent (node, lag)
    columns, where a minimum-norm fit would return an indefinite sigma.
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    X = panel.values
    n, T = X.shape
    # incomplete[t] counts the incomplete columns before t; t - p..t is complete
    # when the count does not grow from t - p to t + 1
    incomplete = np.concatenate([[0], np.cumsum(np.isnan(X).any(axis=0))])
    usable = p + np.flatnonzero(incomplete[p + 1:] == incomplete[:max(T - p, 0)])
    hint = ("the full covariance is not estimable -- use a diagonal fallback from "
            "per-node residual variances of the restricted fit")
    if len(usable) < n * (p + 1):
        raise FeasibilityError(f"{len(usable)} complete columns < N*(p+1) = {n * (p + 1)}; {hint}")
    # one gather gives [X' Z'], lags 0..p, each a T' x N block; Z' is T' x pN
    window = X.T[np.subtract.outer(usable, np.arange(p + 1))].reshape(len(usable), -1)
    Zt, k = window[:, n:], n * p
    r = _dense_r(Zt, window[:, :n])
    with np.errstate(over="ignore", invalid="ignore"):    # non-finite: the rank is in doubt
        r11_inv = np.linalg.inv(r[:k, :k]) if np.diag(r)[:k].all() else np.full((k, k), np.inf)
        clear = _rank_is_clear(np.einsum("ij,ij->i", r11_inv, r11_inv), Zt.shape,
                               np.einsum("ij,ij->j", r[:, :k], r[:, :k]).max())
    if not clear:
        from scipy import linalg
        names = [f"lag{j}[{lbl}]" for j in range(1, p + 1) for lbl in panel.labels]
        if deficiency := _rank_deficiency(*linalg.qr(Zt, mode="r", pivoting=True), Zt.shape, names):
            raise FeasibilityError(f"the VAR lag window is {deficiency}; {hint}")
    return (r[k:, k:].T @ r[k:, k:]) / len(usable)


def fit_egls(design: np.ndarray, response: np.ndarray, spec: GnarSpec,
             n: int, T: int, sigma: np.ndarray,
             row_index: list[tuple[int, int]],
             labels: Optional[Sequence[str]] = None,
             weight_set: Optional[WeightSet] = None) -> GnarFit:
    """Estimated generalised least squares with covariance ``sigma``.

    Rows are grouped by time point and whitened with the inverse Cholesky
    factor of the covariance restricted to that time's present nodes, one
    factorisation per distinct set of present nodes (numpy's ``cholesky``
    and ``inv``; scipy is not loaded).  Whitening mixes nodes, so the
    whitened system is a wide design for the solve of :func:`fit_ols` (one
    numpy QR, with the pivoted-QR fallback when the rank is in doubt), and
    equals that fit when sigma is a multiple of the identity.  Residuals and
    criteria are reported on the original (unwhitened) scale under the
    pooled-variance convention, so criteria stay comparable with OLS fits.
    """
    design, response = _checked_system(np.asarray(design, dtype=float), response, spec, n)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n, n):
        raise InvalidInputError(f"sigma shape {sigma.shape} does not match n={n}")
    if row_index is None or len(row_index) != design.shape[0]:
        raise InvalidInputError("fit_egls needs a row_index aligned with the design")
    _require_finite(design)
    _require_finite(response)

    nodes, times = np.asarray(row_index, dtype=np.intp).reshape(-1, 2).T
    order = np.lexsort((nodes, times))      # time-major, nodes ascending
    first = np.append(True, np.diff(times[order]) != 0)
    starts = np.flatnonzero(first)          # each time point's first row in ``order``
    mask = np.zeros((len(starts), n), dtype=bool)
    mask[np.cumsum(first) - 1, nodes[order]] = True
    if np.count_nonzero(mask) != len(order):
        raise InvalidInputError("row_index repeats a (node, column) pair")
    by_present: dict[bytes, list[int]] = {}     # present-node set -> its time points
    for k, key in enumerate(np.packbits(mask, axis=1)):
        by_present.setdefault(key.tobytes(), []).append(k)

    M = design.shape[1]
    white_design, white_response = np.empty((len(response), M)), np.empty(len(response))
    start = 0
    for group in by_present.values():
        present = np.flatnonzero(mask[group[0]])
        try:
            L = np.linalg.cholesky(sigma[np.ix_(present, present)])
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError(
                "sigma is not positive definite; regularise it (e.g. keep only "
                "the diagonal) before EGLS") from exc
        L_inv = np.linalg.inv(L)
        rows = order[starts[group][:, None] + np.arange(len(present))]   # (time points, nodes)
        stop = start + rows.size
        np.matmul(L_inv, design[rows], out=white_design[start:stop].reshape(rows.shape + (M,)))
        white_response[start:stop] = (L_inv @ response[rows].T).T.ravel()
        start = stop
    names = coefficient_names(spec, _labels(labels, n))
    gamma, cov_diag = _least_squares(white_design, white_response, names)
    return _report(design, response, gamma, cov_diag, spec, n, T, row_index, labels,
                   names, weight_set, sigma_full=sigma)


def fit(panel: TimeSeriesPanel, g: geo_graph.Graph, spec: GnarSpec,
        method: str = "ols") -> GnarFit:
    """Convenience wrapper: stages -> weights -> design -> estimate.

    The design path is :func:`build_design`'s, with the row index kept as an
    array and node-specific alphas kept compact for OLS.  ``method`` is
    'ols' or 'egls'; EGLS estimates the full residual covariance first and
    is only feasible when the panel is long enough (see
    :func:`estimate_sigma`).  That check runs after the planes' check for
    infinite values and before the design is cut, so a panel that fails it
    raises FeasibilityError and no design is built.
    """
    if method not in ("ols", "egls"):
        raise InvalidInputError(f"unknown method {method!r}; expected 'ols' or 'egls'")
    if tuple(panel.labels) != tuple(g.labels):
        raise InvalidInputError(
            "panel and graph label order differ; align them before fitting")
    weights = _weight_stack(g, spec.order.max_stage, spec.scheme)
    _validate_stages(spec.order, weights, panel.labels)
    planes = _stage_planes(panel, weights, spec.order.max_stage)
    if method == "ols":
        return _fit_planes(planes, spec, panel.labels, weights)
    sigma = estimate_sigma(panel, spec.order.p)
    design, response, rows = _design_from_planes(planes, spec)
    return fit_egls(_wide(design), response, spec, panel.n_nodes, panel.n_times,
                    sigma, rows, labels=panel.labels, weight_set=weights)


# ---------------------------------------------------------------------------
# Prediction and simulation
# ---------------------------------------------------------------------------

def _alpha_matrix(alpha: np.ndarray, n: int, p: int) -> np.ndarray:
    """Coefficients as (N, p) regardless of the sharing convention."""
    a = np.asarray(alpha, dtype=float)
    if a.shape == (p,):
        return np.tile(a, (n, 1))
    if a.shape == (n, p):
        return a
    raise InvalidInputError(f"alpha shape {a.shape} fits neither (p,) nor (N, p)")


def _lag_operator(alpha: np.ndarray, beta: Sequence[np.ndarray], weights: WeightSet,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The VAR blocks [B_p ... B_1] on the lag window [X_{t-p}; ...; X_{t-1}]
    as the nonzeros of their support, row after row (CSR): each entry's row,
    column and coefficient, and each row's first entry.  A prediction is
    ``np.add.reduceat(coef * window[cols], starts)``.  Row i holds its own lag
    j with alpha[i, j] and each q with W_r[i, q] != 0, r <= s_j, with
    beta[j, r] * W_r[i, q], each (row, column) once.  Entries are kept when
    their coefficient is 0, so a missing value they reach poisons the
    prediction whatever the coefficients.  It is the one builder of the
    blocks: :func:`spectral_radius` and :func:`restriction_matrix` scatter
    its entries."""
    p, nodes = len(beta), np.arange(n)
    a = _alpha_matrix(alpha, n, p)
    parts = [(nodes, (p - 1 - j) * n + nodes, a[:, j]) for j in range(p)]
    # matrix() refuses a stage that the stack does not hold
    for r, w in enumerate(weights.matrix(k, n) for k in range(1, max(map(len, beta)) + 1)):
        nz = np.flatnonzero(w.ravel() != 0)     # far faster than a 2-D np.nonzero
        i, q, w = nz // n, nz % n, w.ravel()[nz]
        parts += [(i, (p - 1 - j) * n + q, bj[r] * w) for j, bj in enumerate(beta) if r < len(bj)]
    rows, cols, coef = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], coef[order], np.searchsorted(rows[order], nodes)


def _companion_column(cols: np.ndarray, n: int, p: int) -> np.ndarray:
    """Column of [B_1 ... B_p] for a column of the gather's [B_p ... B_1]."""
    return (p - 1 - cols // n) * n + cols % n


def simulate(spec: GnarSpec, alpha: np.ndarray, beta: Sequence[np.ndarray],
             g: geo_graph.Graph, T: int, sigma: float, init_mean: float = 0.0,
             burn_in: int = 0, seed: int = 0,
             start_date: Optional[datetime.date] = None,
             init_values: Optional[np.ndarray] = None) -> TimeSeriesPanel:
    """Simulate a length-T panel from the model on graph ``g``.

    The first p columns are drawn i.i.d. N(init_mean, sigma^2) (or taken
    from ``init_values``, shape (N, p), when given); subsequent columns
    follow the model recursion with i.i.d. N(0, sigma^2) innovations.
    ``burn_in`` extra leading columns are generated and discarded.  Output
    is deterministic given the seed.  ``sigma`` is a standard deviation;
    sigma=0 (or -0.0) gives the deterministic recursion.  alpha, beta, sigma,
    init_mean and init_values must be finite, and a run that overflows to
    +-inf (an explosive recursion, or initial draws past the float range)
    raises InvalidInputError naming the first such step.  Each step sums over
    the support of the VAR blocks (own lags and weighted stage members, kept
    where a coefficient is 0), so the support entries, not the coefficients,
    decide which nodes a non-finite value reaches.
    """
    order = spec.order
    p = order.p
    if sigma < 0:
        raise InvalidInputError("sigma must be >= 0")
    sigma = abs(sigma)      # -0.0 is 0: numpy's normal refuses a scale with the sign bit set
    if T <= p:
        raise InvalidInputError(f"T={T} must exceed the lag order p={p}")
    if burn_in < 0:
        raise InvalidInputError(f"burn_in must be >= 0, got {burn_in}")
    _check_seed(seed)
    n = g.n
    beta = [np.asarray(b, dtype=float) for b in beta]
    if len(beta) != p or any(len(b) != sj for b, sj in zip(beta, order.s)):
        raise InvalidInputError("beta shapes do not match the order's stage counts")
    _check_finite(alpha=alpha, beta=np.concatenate(beta), sigma=sigma, init_mean=init_mean,
                  init_values=() if init_values is None else init_values)

    weights = _weight_stack(g, order.max_stage, spec.scheme)
    _validate_stages(order, weights, g.labels)
    _, cols, coef, starts = _lag_operator(alpha, beta, weights, n)

    rng = np.random.default_rng(seed)
    total = T + burn_in
    Xt = np.empty((total, n))   # time-major, so a lag window is one slice
    if init_values is not None:
        init = np.asarray(init_values, dtype=float)
        if init.shape != (n, p):
            raise InvalidInputError(f"init_values shape {init.shape} != ({n}, {p})")
        Xt[:p] = init.T
    else:
        Xt[:p] = rng.normal(init_mean, sigma, size=(n, p)).T
    Xt[p:] = rng.normal(0.0, sigma, size=(total - p, n)) if sigma > 0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(p, total):     # the innovations, drawn above, plus the mean
            Xt[t] += np.add.reduceat(coef * Xt[t - p:t].ravel()[cols], starts)
    # the initial draws too; a step whose products overflow to +inf and -inf
    # sums them to NaN, with no inf in it
    overflow = np.flatnonzero(~np.isfinite(Xt).all(axis=1))
    if overflow.size:
        raise InvalidInputError(
            f"the simulation overflows to +-inf at step {overflow[0] + 1} of {total} "
            "(burn-in included): the model is explosive")

    X = np.ascontiguousarray(Xt[burn_in:].T)
    if start_date is None:
        start_date = datetime.date(2000, 1, 3)
    dates = tuple(start_date + datetime.timedelta(days=7 * k) for k in range(T))
    return TimeSeriesPanel(labels=g.labels, dates=dates, values=X)


def forecast(fit: GnarFit, panel: TimeSeriesPanel, horizon: int,
             mode: str = "rolling_one_step") -> np.ndarray:
    """Predict ``horizon`` weeks with a fitted model.

    rolling_one_step predicts each of the last ``horizon`` columns of
    ``panel`` from the true observed history before it (the per-week
    evaluation convention).  recursive predicts ``horizon`` new columns
    after the end of ``panel``, feeding its own predictions forward.  Both
    agree at horizon 1 when the rolling panel extends the recursive one by
    the single evaluated column.  Returns an N x horizon array.  A
    prediction is NaN when a value on its support is missing: its own lags,
    or a weighted member of a stage its lags use.  The support entries, not
    the coefficients, decide this: a coefficient of 0 does not hide a
    missing value.  An infinite panel value is an error naming its node.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if tuple(panel.labels) != tuple(fit.labels):
        raise InvalidInputError("panel labels do not match the fitted model")
    _reject_infinite(panel.labels, panel.values)
    if fit.weight_set is None:
        raise InvalidInputError("fit carries no weights; refit via fit()/fit_ols "
                                "with weight_set to enable forecasting")
    p, n = fit.spec.order.p, panel.n_nodes
    _, cols, coef, starts = _lag_operator(fit.alpha, fit.beta, fit.weight_set, n)
    if mode == "rolling_one_step":
        if panel.n_times < p + horizon:
            raise InvalidInputError(
                f"panel has {panel.n_times} columns; need >= p + horizon = {p + horizon}")
        Xt, start = panel.values.T, panel.n_times - horizon
    elif mode == "recursive":
        if panel.n_times < p:
            raise InvalidInputError(f"panel shorter than lag order {p}")
        Xt = np.concatenate([panel.values.T, np.empty((horizon, n))])
        start = panel.n_times
    else:
        raise InvalidInputError(
            f"unknown mode {mode!r}; expected 'rolling_one_step' or 'recursive'")
    preds = np.empty((n, horizon))
    for h, t in enumerate(range(start, start + horizon)):
        preds[:, h] = np.add.reduceat(coef * Xt[t - p:t].ravel()[cols], starts)
        if mode == "recursive":
            Xt[t] = preds[:, h]   # feed the prediction forward
    return preds


def stationarity_margin(alpha: np.ndarray, beta: Sequence[np.ndarray]) -> float:
    """1 minus the summed coefficient magnitudes; positive is sufficient
    (not necessary) for stationarity.

    Computes 1 - sum_j (max_i |alpha[i, j]| + sum_r |beta[j, r]|).  A
    nonpositive margin proves nothing; :func:`spectral_radius` decides.
    """
    a = np.atleast_2d(np.asarray(alpha, dtype=float))
    total = 0.0
    for j in range(a.shape[-1]):
        total += float(np.max(np.abs(a[..., j])))
        if j < len(beta):
            total += float(np.sum(np.abs(beta[j])))
    return 1.0 - total


def spectral_radius(alpha: np.ndarray, beta: Sequence[np.ndarray],
                    weights: WeightSet, n: int) -> float:
    """Largest eigenvalue modulus of the VAR companion matrix built from the
    blocks B_j; the recursion is stationary exactly when it is below 1.  The
    entries of :func:`_lag_operator` are added into its zero top rows, so a
    -0.0 coefficient enters as 0.0, as in the sum diag(alpha_j) + sum_r
    beta[j, r] W_r."""
    p = len(beta)
    rows, cols, coef, _ = _lag_operator(alpha, beta, weights, n)
    companion = np.eye(n * p, k=-n)
    companion[rows, _companion_column(cols, n, p)] += coef
    return float(np.max(np.abs(np.linalg.eigvals(companion))))
