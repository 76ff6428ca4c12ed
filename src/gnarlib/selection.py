"""Order-grid enumeration, BIC model search, and the per-node AR baseline.

The candidate grid is a hand-encoded catalogue of stage vectors (lengths 1
to 5), machine-expanded: entries exceeding the stage cap are dropped and
every base vector is zero-padded to each admissible lag length, so e.g. the
base (1, 1, 1, 1) also yields the lag-5 candidate (1, 1, 1, 1, 0).  The lag
cap itself usually comes from Schwert's rule.

The search fits every admissible candidate on the same panel and ranks by
BIC (or AIC); candidates whose stages are empty somewhere, or whose designs
are singular or too short, are recorded as skipped rather than failing the
whole search.  The search checks stages and ranks; which rows each
candidate keeps, which candidates share a design and which are too short
for the shared solve is decided in one place, ``gnar_core._search_solve``.
The AR baseline is the no-network case, node-specific GNAR(p, [0, ..., 0]):
each node's series is fitted on its own lags only, through the same
``fit_ols`` under the same rows > parameters rule, rank rule and criteria,
which keeps the network-vs-no-network comparison meaningful.  It takes one
fit of all nodes per lag order; a node is fitted alone only when that fit
is refused.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    GnarError,
    InsufficientDataError,
    InvalidInputError,
    ModelInadmissibleError,
    SelectionFailedError,
    SingularDesignError,
)
from . import geo_graph
from .gnar_core import (
    GnarFit,
    GnarOrder,
    GnarSpec,
    WeightScheme,
    _fit_planes,
    _gaussian_criteria,
    _search_solve,
    _stage_planes,
    _validate_stages,
    _weight_stack,
)
from .panel import TimeSeriesPanel, _reject_infinite

# Stage-vector catalogue, lengths 1-5.  Fixed literal data; the grid builder
# filters by the stage cap and zero-pads to higher lag orders.
BETA_CATALOGUE: tuple[tuple[int, ...], ...] = (
    (1,), (2,), (3,), (4,), (5,), (6,), (7,),
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
    (2, 2),
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1),
    (2, 2, 1),
    (2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2),
    (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1), (5, 1, 1, 1),
    (2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (5, 2, 2, 1),
    (2, 2, 2, 2),
    (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (4, 1, 1, 1, 1),
    (5, 1, 1, 1, 1),
    (2, 2, 1, 1, 1), (3, 2, 2, 1, 1), (4, 2, 2, 1, 1), (5, 2, 2, 1, 1),
    (2, 2, 2, 1, 1), (2, 2, 2, 2, 1), (2, 2, 2, 2, 2),
)


# Selection skips a candidate with these errors, recorded under this status.
_SKIP_STATUS = {ModelInadmissibleError: "inadmissible", SingularDesignError: "singular",
               InsufficientDataError: "insufficient"}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderGrid:
    """Deduplicated, deterministically ordered candidate orders."""

    candidates: tuple[GnarOrder, ...]
    p_max: int
    s_max: int

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


@dataclass(frozen=True)
class CandidateResult:
    """One fitted (or skipped) candidate in a selection run.

    The criteria come from the search's solve: the subset QR of its group's
    R factor, itself built on the one factor of the rows every group keeps.
    ``fit`` (None for a skipped candidate) is the candidate's
    :class:`~gnarlib.gnar_core.GnarFit`: the standalone fit on the search's
    regressor planes, so its estimates equal those of ``fit(panel, g,
    spec)``, built on first read unless the search needed it (a candidate
    the search-level solve did not serve).
    """

    order: GnarOrder
    scheme_kind: str
    global_alpha: bool
    status: str  # 'ok', 'inadmissible', 'singular', 'insufficient'
    reason: str = ""
    bic: float = math.nan
    aic: float = math.nan
    loglik: float = math.nan
    M: int = 0
    n_obs: int = 0
    _build: Optional[Callable[[], GnarFit]] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def fit(self) -> Optional[GnarFit]:
        return self._build() if self._build is not None else None

    def to_json(self) -> dict:
        return {
            "order": {"p": self.order.p, "s": list(self.order.s)},
            "name": self.order.name(),
            "scheme": self.scheme_kind,
            "global_alpha": self.global_alpha,
            "status": self.status,
            "reason": self.reason,
            "bic": self.bic,
            "aic": self.aic,
            "loglik": self.loglik,
            "M": self.M,
            "n_obs": self.n_obs,
        }


@dataclass(frozen=True)
class SelectionReport:
    """All candidates of a search plus the criterion-based ranking."""

    candidates: tuple[CandidateResult, ...]
    criterion: str

    def ranked(self) -> list[CandidateResult]:
        """Fitted candidates, ascending criterion; ties broken by smaller M
        then lexicographic order."""
        ok = [c for c in self.candidates if c.status == "ok"]
        key = (lambda c: (c.bic, c.M, (c.order.p, c.order.s))
               if self.criterion == "bic"
               else (c.aic, c.M, (c.order.p, c.order.s)))
        return sorted(ok, key=key)

    @property
    def best(self) -> CandidateResult:
        ranked = self.ranked()
        if not ranked:
            raise SelectionFailedError("no candidate was successfully fitted")
        return ranked[0]

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "best": self.best.to_json() if self.ranked() else None,
            "candidates": [c.to_json() for c in self.ranked()]
                          + [c.to_json() for c in self.candidates
                             if c.status != "ok"],
        }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def schwert_max_lag(T: int) -> int:
    """Maximum lag heuristic: floor(12 * (T / 100)^(1/4))."""
    if T < 1:
        raise InvalidInputError("T must be >= 1")
    return int(math.floor(12.0 * (T / 100.0) ** 0.25))


def order_grid(p_max: int, s_max: int) -> OrderGrid:
    """Expand the stage-vector catalogue into an order grid.

    Keeps catalogue entries whose stages all fit within ``s_max``, then
    zero-pads each to every lag length up to ``p_max``.  Output is
    deduplicated and sorted by (p, s), identical across runs and platforms.
    """
    if p_max < 1 or s_max < 1:
        raise InvalidInputError("p_max and s_max must be >= 1")
    seen: set[tuple[int, ...]] = set()
    for base in BETA_CATALOGUE:
        if len(base) > p_max or max(base) > s_max:
            continue
        for p in range(len(base), p_max + 1):
            seen.add(base + (0,) * (p - len(base)))
    candidates = tuple(GnarOrder(p=len(s), s=s)
                       for s in sorted(seen, key=lambda s: (len(s), s)))
    return OrderGrid(candidates=candidates, p_max=p_max, s_max=s_max)


def select_model(panel: TimeSeriesPanel, g: geo_graph.Graph, scheme: WeightScheme,
                 grid: OrderGrid, criterion: str = "bic",
                 global_alpha: bool = True) -> SelectionReport:
    """Fit every admissible grid candidate and rank by the criterion.

    Inadmissible candidates (an empty stage somewhere), singular designs
    and too-short panels are recorded as skipped with their reason; the
    search only fails when nothing at all could be fitted.  Candidates with
    longer lags use fewer stacked rows and are compared on their own n_obs.
    The regressor planes (the panel and its stage sums) are computed once
    per call, and so is the first stage that is empty for some node: only
    the candidates that reach it are checked for their inadmissible message.
    Every other candidate goes to one search-level solve (see
    :func:`~gnarlib.gnar_core._search_solve`), which finds each candidate's
    kept rows, groups those with more rows than parameters by lag order and
    kept rows, and serves every group at once: one gather of every column
    the candidates use, one QR of the rows all groups keep, one batched QR
    that adds each group's other rows, and one batched subset QR that gives
    each candidate's RSS.  It refuses a candidate with no more rows than
    parameters as insufficient (a saturated fit's RSS is rounding noise and
    its BIC would rank first), and under node-specific alpha one with a node
    that has fewer rows than lags as singular, each with the standalone
    fit's message, and cuts no design for them.  A candidate whose rank is
    in doubt takes the standalone fit, which names the dependent columns of
    a singular design; its criteria and ``fit`` come from that fit.  A
    served candidate's ``fit`` is built when first read.  A non-finite panel value that reaches a design raises
    InvalidInputError instead of skipping the candidate.
    """
    if criterion not in ("bic", "aic"):
        raise InvalidInputError("criterion must be 'bic' or 'aic'")
    if len(grid) == 0:
        raise InvalidInputError("empty candidate grid")
    if tuple(panel.labels) != tuple(g.labels):
        raise InvalidInputError("panel and graph label order differ")

    weights = _weight_stack(g, max(c.max_stage for c in grid), scheme)
    planes = _stage_planes(panel, weights, weights.r_max)

    def skipped(order, exc):
        status = next(v for k, v in _SKIP_STATUS.items() if isinstance(exc, k))
        return CandidateResult(order, scheme.kind, global_alpha, status, str(exc))

    # the first stage that is empty for some node: the orders that reach it
    # are inadmissible, and only they need _validate_stages for its message
    first_empty = 1 + int(np.argmin(np.append(weights.stack.any(axis=2).all(axis=1), False)))
    results: dict[GnarOrder, CandidateResult] = {}
    specs: list[GnarSpec] = []
    for order in grid:
        if order.max_stage >= first_empty:
            try:
                _validate_stages(order, weights, panel.labels)
            except ModelInadmissibleError as exc:
                results[order] = skipped(order, exc)
                continue
        specs.append(GnarSpec(order, global_alpha, scheme))
    solved = _search_solve(planes, specs, panel.labels) if specs else {}
    for spec in specs:
        order = spec.order
        build = functools.partial(_fit_planes, planes, spec, panel.labels, weights)
        if isinstance(solved.get(order), GnarError):
            results[order] = skipped(order, solved[order])
            continue
        if order in solved:
            _, rss, n_obs, M = solved[order]
            _, loglik, bic, aic = _gaussian_criteria(rss, n_obs, M)
        else:   # not served by the search solve: the standalone fit decides
            try:
                fitted = build()
            except (SingularDesignError, InsufficientDataError) as exc:
                results[order] = skipped(order, exc)
                continue
            loglik, bic, aic, M, n_obs = (fitted.loglik, fitted.bic, fitted.aic,
                                          fitted.M, fitted.n_obs)
            build = lambda fitted=fitted: fitted
        results[order] = CandidateResult(
            order, scheme.kind, global_alpha, "ok", "", bic=bic, aic=aic,
            loglik=loglik, M=M, n_obs=n_obs, _build=build)

    report = SelectionReport(candidates=tuple(results[o] for o in grid), criterion=criterion)
    if not report.ranked():
        reasons = "; ".join(f"{c.order.name()}: {c.status} ({c.reason})"
                            for c in report.candidates)
        raise SelectionFailedError(f"all candidates failed -- {reasons}")
    return report


# ---------------------------------------------------------------------------
# Per-node AR baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArNodeResult:
    """Independent AR fit for one node's own series."""

    label: str
    status: str  # 'ok' or 'degenerate'
    order: int = 0
    coefficients: tuple[float, ...] = ()
    sigma2: float = math.nan
    bic: float = math.nan
    n_obs: int = 0

    def to_json(self) -> dict:
        return {
            "node": self.label,
            "status": self.status,
            "order": self.order,
            "coefficients": list(self.coefficients),
            "sigma2": self.sigma2,
            "bic": self.bic,
            "n_obs": self.n_obs,
        }


def fit_ar_baseline(panel: TimeSeriesPanel, p_max: int) -> dict[str, ArNodeResult]:
    """Per-node AR(p) fits with BIC order choice, 1 <= p <= p_max.

    Each node is fitted on its own series only, with no intercept and the
    same Gaussian-likelihood BIC convention as the network model.  The AR(p)
    fits of all nodes are the node-specific GNAR(p, [0, ..., 0]) model, whose
    design is block-diagonal, so each lag order takes one
    :func:`~gnarlib.gnar_core.fit_ols` fit on the plane of the usable nodes,
    under its rows > parameters rule and its rank rule; each node's RSS and
    n_obs come from its row of the residual panel.  Only when that fit is
    refused (a node with no more rows than p, or collinear lags) is each
    node fitted alone, so a refused node loses only its own order.  Nodes
    with a constant series or too few observations are flagged degenerate
    and the rest proceed; an infinite value is an error.
    """
    if p_max < 1:
        raise InvalidInputError("p_max must be >= 1")
    _reject_infinite(panel.labels, panel.values)
    usable = [i for i, x in enumerate(panel.values)
              if np.count_nonzero(~np.isnan(x)) > p_max + 1 and np.nanmax(x) != np.nanmin(x)]
    planes = panel.values[usable].T[None]
    best: dict[int, tuple[float, int, np.ndarray, float, int]] = {}
    # a usable node has more than p_max + 1 values, so the loop stops below
    # the panel length minus 1; with none usable it does not run
    for p in range(1, p_max + 1 if usable else 1):
        spec = GnarSpec(GnarOrder(p, (0,) * p), global_alpha=False)
        try:
            fits = [(_fit_planes(planes, spec, None, None), usable)]
        except (InsufficientDataError, SingularDesignError):   # fit each node alone
            fits = []
            for k, i in enumerate(usable):
                with contextlib.suppress(InsufficientDataError, SingularDesignError):
                    fits.append((_fit_planes(planes[:, :, [k]], spec, None, None), [i]))
        for fitted, nodes in fits:
            for i, coef, resid in zip(nodes, fitted.alpha, fitted.residuals):
                resid = resid[~np.isnan(resid)]
                if resid.size <= p:    # a saturated node's RSS is rounding noise
                    continue
                sigma2, _, bic, _ = _gaussian_criteria(float(resid @ resid), resid.size, p)
                if i not in best or bic < best[i][0]:
                    best[i] = (bic, p, coef, sigma2, resid.size)
    out = {label: ArNodeResult(label=label, status="degenerate") for label in panel.labels}
    for i, (bic, p, coef, sigma2, n_obs) in best.items():
        out[panel.labels[i]] = ArNodeResult(
            label=panel.labels[i], status="ok", order=p,
            coefficients=tuple(float(c) for c in coef), sigma2=sigma2, bic=bic, n_obs=n_obs)
    return out


def ar_rolling_forecast(result: ArNodeResult, history: np.ndarray,
                        horizon: int) -> np.ndarray:
    """One-step predictions for the last ``horizon`` points of ``history``
    using a fitted AR node result and the true preceding values."""
    if result.status != "ok":
        raise InvalidInputError(f"node {result.label!r} has no usable AR fit")
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    p = result.order
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"history must be a 1-D array, got {x.ndim} dimensions")
    if x.size < p + horizon:
        raise InvalidInputError("history too short for the requested horizon")
    coef = np.asarray(result.coefficients)
    preds = np.empty(horizon)
    for h in range(horizon):
        t = x.size - horizon + h
        preds[h] = float(coef @ x[t - p:t][::-1])
    return preds
