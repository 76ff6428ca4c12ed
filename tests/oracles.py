"""Independent brute-force oracles used to freeze expected test values.

Everything here is written from the model definitions directly, with plain
loops and none of the library's vectorised paths, so the tests compare two
independent routes to the same quantity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def bfs_spl(n: int, edges: set[tuple[int, int]]) -> np.ndarray:
    """All-pairs shortest path lengths by Floyd-Warshall."""
    d = np.full((n, n), np.inf)
    for i in range(n):
        d[i, i] = 0.0
    for i, j in edges:
        d[i, j] = d[j, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def hops_bruteforce(n: int, edges, r_max: int | None = None) -> np.ndarray:
    """Hop distances by a queue BFS from every source over neighbour lists,
    cut at depth ``r_max`` when given; inf where not reached."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    d = np.full((n, n), np.inf)
    for s in range(n):
        d[s, s] = 0.0
        queue = [s]
        while queue:
            u = queue.pop(0)
            if r_max is not None and d[s, u] >= r_max:
                continue
            for v in nbrs[u]:
                if math.isinf(d[s, v]):
                    d[s, v] = d[s, u] + 1
                    queue.append(v)
    return d


def distance_matrix_loop(points, radius_km: float = 6371.0) -> np.ndarray:
    """Pairwise great-circle distances, one scalar call per pair i < j."""
    from gnarlib.geo_graph import great_circle_distance

    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = great_circle_distance(points[i], points[j], radius_km)
    return d


def local_clustering_bruteforce(n: int, edges) -> float:
    """Mean over nodes of links among the neighbours / (k (k - 1) / 2), by
    set intersection; nodes of degree < 2 count 0.  Summed in node order."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    local = []
    for i in range(n):
        k = len(nbrs[i])
        links = sum(len(nbrs[a] & nbrs[i]) for a in nbrs[i]) // 2
        local.append(links / (k * (k - 1) // 2) if k >= 2 else 0.0)
    return sum(local) / n


def network_summary_bruteforce(n: int, edges, brg_samples: int, seed: int):
    """The summary from loops: queue-BFS hops, set-intersection clustering,
    and G(n, m) samples drawn by the same ``rng.choice`` over the pairs
    i < j enumerated row by row."""
    from gnarlib.geo_graph import NetworkSummary

    def spl_and_disconnected(edge_list):
        d = hops_bruteforce(n, edge_list)
        finite = [d[i, j] for i in range(n) for j in range(n)
                  if i != j and math.isfinite(d[i, j])]
        avg = float(np.mean(finite)) if finite else math.nan
        return avg, 1.0 - len(finite) / (n * (n - 1))

    edges = list(edges)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(seed)
    spls, clusts, discs = [], [], []
    for _ in range(brg_samples):
        sample = [pairs[k] for k in rng.choice(len(pairs), size=len(edges), replace=False)]
        s, dfrac = spl_and_disconnected(sample)
        spls.append(s)
        discs.append(dfrac)
        clusts.append(local_clustering_bruteforce(n, sample))
    avg_spl, disc = spl_and_disconnected(edges)
    finite_spls = [s for s in spls if not math.isnan(s)]
    return NetworkSummary(
        avg_degree=2.0 * len(edges) / n, avg_spl=avg_spl,
        avg_local_clustering=local_clustering_bruteforce(n, edges),
        disconnected_pair_fraction=disc,
        brg_avg_spl=float(np.nanmean(spls)) if finite_spls else math.nan,
        brg_avg_clustering=float(np.mean(clusts)),
        brg_disconnected_pair_fraction=float(np.mean(discs)),
        brg_samples=brg_samples, seed=seed)


def delaunay_edges_bruteforce(xy: np.ndarray) -> set[tuple[int, int]]:
    """Delaunay edges via the empty-circumcircle test over all triangles.

    An edge is Delaunay iff it belongs to some triangle whose circumcircle
    contains no other point strictly inside.  Degenerate cocircular cases
    accept either diagonal, matching what any valid triangulation returns.
    """
    n = len(xy)
    edges: set[tuple[int, int]] = set()
    for a, b, c in itertools.combinations(range(n), 3):
        center = _circumcenter(xy[a], xy[b], xy[c])
        if center is None:
            continue
        r2 = float(np.sum((xy[a] - center) ** 2))
        empty = True
        for z in range(n):
            if z in (a, b, c):
                continue
            if float(np.sum((xy[z] - center) ** 2)) < r2 - 1e-12 * max(r2, 1.0):
                empty = False
                break
        if empty:
            edges |= {(min(a, b), max(a, b)), (min(a, c), max(a, c)),
                      (min(b, c), max(b, c))}
    return edges


def _circumcenter(p, q, r):
    ax, ay = p
    bx, by = q
    cx, cy = r
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return np.array([ux, uy])


def knn_bruteforce(d: np.ndarray, ids, k: int) -> set[tuple[int, int]]:
    """Union-symmetrized k-nearest-neighbour edges: each node sorts the
    others by (distance, node id) and links to the first k."""
    n = len(ids)
    edges = set()
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (d[i, j], ids[j]))
        for j in order[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def dnn_bruteforce(d: np.ndarray, d_max: float) -> set[tuple[int, int]]:
    """Pairs at distance in (0, d_max]."""
    n = len(d)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if 0.0 < d[i, j] <= d_max}


def gabriel_bruteforce(xy: np.ndarray, edges) -> set[tuple[int, int]]:
    """Edges (i, j) with no other point z strictly inside the disc of
    diameter ij: d(i, j)^2 <= d(i, z)^2 + d(j, z)^2 for every z."""
    kept = set()
    for i, j in edges:
        dij2 = float(np.sum((xy[i] - xy[j]) ** 2))
        if all(dij2 <= float(np.sum((xy[i] - xy[z]) ** 2) + np.sum((xy[j] - xy[z]) ** 2))
               for z in range(len(xy)) if z not in (i, j)):
            kept.add((i, j))
    return kept


def soi_bruteforce(xy: np.ndarray, edges) -> set[tuple[int, int]]:
    """Edges whose nearest-neighbour circles cross twice:
    d(i, j) < r_i + r_j strictly, r the distance to the nearest other point."""
    n = len(xy)
    d = [[math.sqrt(float(np.sum((xy[a] - xy[b]) ** 2))) for b in range(n)]
         for a in range(n)]
    radius = [min(d[a][b] for b in range(n) if b != a) for a in range(n)]
    return {(i, j) for i, j in edges if d[i][j] < radius[i] + radius[j]}


def relative_bruteforce(xy: np.ndarray, edges) -> set[tuple[int, int]]:
    """Edges (i, j) with d(i, j) <= max(d(i, z), d(j, z)) for every other z."""
    n = len(xy)
    d = [[math.sqrt(float(np.sum((xy[a] - xy[b]) ** 2))) for b in range(n)]
         for a in range(n)]
    return {(i, j) for i, j in edges
            if all(d[i][j] <= max(d[i][z], d[j][z]) for z in range(n) if z not in (i, j))}


def gnar_design_bruteforce(values: np.ndarray, p: int, s: tuple[int, ...],
                           stage_sets, stage_weights, global_alpha: bool = True):
    """Stacked design straight from the model equation, loops only.

    ``stage_sets[i][r-1]`` is the set of stage-r members of node i and
    ``stage_weights[i][r-1]`` the matching weight dict.
    """
    n, T = values.shape
    n_alpha = p if global_alpha else p * n
    beta_cols = [(j, r) for j in range(1, p + 1) for r in range(1, s[j - 1] + 1)]
    rows, ys, index = [], [], []
    for t in range(p, T):
        for i in range(n):
            if math.isnan(values[i, t]):
                continue
            row = [0.0] * (n_alpha + len(beta_cols))
            ok = True
            for j in range(1, p + 1):
                v = values[i, t - j]
                if math.isnan(v):
                    ok = False
                    break
                if global_alpha:
                    row[j - 1] = v
                else:
                    row[(j - 1) * n + i] = v
            if not ok:
                continue
            for c, (j, r) in enumerate(beta_cols):
                z = 0.0
                for q in sorted(stage_sets[i][r - 1]):
                    x = values[q, t - j]
                    if math.isnan(x):
                        ok = False
                        break
                    z += stage_weights[i][r - 1][q] * x
                if not ok:
                    break
                row[n_alpha + c] = z
            if not ok:
                continue
            rows.append(row)
            ys.append(values[i, t])
            index.append((i, t))
    return np.asarray(rows), np.asarray(ys), index


def normal_equations_solve(design: np.ndarray, response: np.ndarray,
                           row_weights: np.ndarray | None = None) -> np.ndarray:
    """Explicit (D' W D)^-1 D' W y, the textbook route."""
    if row_weights is None:
        row_weights = np.ones(design.shape[0])
    W = np.diag(row_weights)
    return np.linalg.solve(design.T @ W @ design, design.T @ W @ response)


def boxcox_llf_loop(lmb: float, logx: np.ndarray) -> float:
    """Box-Cox log-likelihood of one lambda from log(x), step for step as
    ``scipy.stats.boxcox_llf``, through three ``scipy.special.logsumexp``
    calls; the profile evaluates a grid of these one lambda at a time."""
    from scipy.special import logsumexp

    log_n = math.log(logx.size)
    if lmb == 0:
        logvar = np.log(np.var(logx))
    else:
        y = lmb * logx
        pair = np.stack((y, np.full_like(y, logsumexp(y, axis=0) - log_n)))
        logdev = logsumexp(pair, axis=0, b=[[1.0], [-1.0]], return_sign=True)[0]
        logvar = logsumexp(2 * logdev, axis=0) - log_n - 2 * math.log(abs(lmb))
    return float((lmb - 1) * np.sum(logx) - logx.size / 2 * logvar)


def morans_i_bruteforce(values: np.ndarray, weights: np.ndarray) -> float:
    """Double-loop evaluation of the spatial autocorrelation formula."""
    x = np.asarray(values, dtype=float)
    n = x.size
    xbar = sum(x) / n
    num = 0.0
    w0 = 0.0
    for i in range(n):
        for j in range(n):
            w0 += weights[i, j]
            if i != j:
                num += weights[i, j] * (x[i] - xbar) * (x[j] - xbar)
    var = sum((v - xbar) ** 2 for v in x) / n
    return num / (w0 * var)


def simulate_gnar_bruteforce(alpha_np: np.ndarray, beta, stage_sets,
                             stage_weights, init: np.ndarray, T: int,
                             innovations: np.ndarray) -> np.ndarray:
    """Model recursion with explicit loops; innovations supplied directly."""
    n, p = init.shape
    X = np.empty((n, T))
    X[:, :p] = init
    for t in range(p, T):
        for i in range(n):
            v = 0.0
            for j in range(1, p + 1):
                v += alpha_np[i, j - 1] * X[i, t - j]
                for r in range(1, len(beta[j - 1]) + 1):
                    z = sum(stage_weights[i][r - 1][q] * X[q, t - j]
                            for q in sorted(stage_sets[i][r - 1]))
                    v += beta[j - 1][r - 1] * z
            X[i, t] = v + innovations[i, t]
    return X


def gnar_one_step_bruteforce(X: np.ndarray, t: int, alpha_np: np.ndarray, beta,
                             stage_sets, stage_weights) -> np.ndarray:
    """Model prediction of column t from columns t-1..t-p, loops only.

    A node's prediction is NaN when its own value, or the value of any
    stage member with nonzero weight, is missing at a lag and stage the
    model uses, whatever the coefficient values.
    """
    n, p = alpha_np.shape
    out = np.empty(n)
    for i in range(n):
        v = 0.0
        for j in range(1, p + 1):
            v += alpha_np[i, j - 1] * X[i, t - j]
            for r in range(1, len(beta[j - 1]) + 1):
                z = 0.0
                for q in sorted(stage_sets[i][r - 1]):
                    w = stage_weights[i][r - 1][q]
                    if w == 0:
                        continue
                    if math.isnan(X[q, t - j]):
                        z = math.nan
                        break
                    z += w * X[q, t - j]
                v += beta[j - 1][r - 1] * z
        out[i] = v
    return out


def moran_permutation_bruteforce(panel, g, R: int = 100, seed: int = 0,
                                 rank_based: bool = False):
    """Per-date Moran permutation bands, one ``default_rng([seed, t, r])``
    per replicate and the quadratic form evaluated replicate by replicate."""
    from gnarlib.diagnostics import MoranResult, moran_weights, morans_i, rank_transform
    from gnarlib.errors import InvalidInputError

    w_full = moran_weights(g)
    T = panel.n_times
    observed = np.full(T, np.nan)
    lower = np.full(T, np.nan)
    median = np.full(T, np.nan)
    upper = np.full(T, np.nan)
    outside = np.zeros(T, dtype=bool)
    tested = np.zeros(T, dtype=bool)
    reasons: list[str] = []

    for t in range(T):
        col = panel.values[:, t]
        present = ~np.isnan(col)
        x = col[present]
        if x.size < 2:
            reasons.append(f"{panel.dates[t].isoformat()}: fewer than 2 observed nodes")
            continue
        if float(np.ptp(x)) == 0.0:
            reasons.append(f"{panel.dates[t].isoformat()}: constant cross-section")
            continue
        w = w_full[np.ix_(present, present)]
        if rank_based:
            x = rank_transform(x)
        obs = morans_i(x, w)
        w0 = float(w.sum())  # morans_i without its checks; diag(w) is zero
        perms = np.empty(R)
        for r in range(R):
            xc = x[np.random.default_rng([seed, t, r]).permutation(x.size)]
            xc = xc - xc.mean()
            perms[r] = float(xc @ (w @ xc)) / (w0 * (float(xc @ xc) / x.size))
        lo, med, hi = np.quantile(perms, [0.025, 0.5, 0.975])
        observed[t] = obs
        lower[t], median[t], upper[t] = lo, med, hi
        tested[t] = True
        outside[t] = bool(obs < lo or obs > hi)

    if not tested.any():
        raise InvalidInputError("no testable dates in the panel")
    n_m = float(outside[tested].mean())
    return MoranResult(
        dates=tuple(panel.dates), observed=observed, lower=lower,
        median=median, upper=upper, outside=outside, tested=tested,
        skipped_reasons=tuple(reasons), n_m=n_m, R=R, seed=seed,
        rank_based=rank_based)


def weekly_from_cumulative_loop(daily, tolerance: float = 0.0):
    """Weekly incidence by walking the week-end dates one at a time and
    testing every week and node, warning as it goes."""
    import datetime
    import warnings

    from gnarlib.panel import DataCorrectionWarning, TimeSeriesPanel

    date_ix = {d: j for j, d in enumerate(daily.dates)}
    week_ends = []
    d = daily.dates[0]
    while d <= daily.dates[-1]:
        week_ends.append(d)
        d = d + datetime.timedelta(days=7)
    n = daily.n_nodes
    out = np.full((n, len(week_ends)), np.nan)
    for w, end in enumerate(week_ends):
        col = daily.values[:, date_ix[end]] if end in date_ix else np.full(n, np.nan)
        if w == 0:
            out[:, 0] = col
        else:
            prev_end = week_ends[w - 1]
            prev = (daily.values[:, date_ix[prev_end]]
                    if prev_end in date_ix else np.full(n, np.nan))
            out[:, w] = col - prev
        for i in range(n):
            if not math.isnan(out[i, w]) and out[i, w] < -tolerance:
                warnings.warn(
                    f"cumulative count for node {daily.labels[i]!r} decreased by "
                    f"{-out[i, w]:g} in week ending {end.isoformat()}; kept as-is",
                    DataCorrectionWarning, stacklevel=2)
    return TimeSeriesPanel(labels=daily.labels, dates=tuple(week_ends), values=out)


def split_phases_loop(panel, spec):
    """Phase restriction by walking the panel's most common day spacing from
    the first to the last date inside the spec, one column at a time."""
    import datetime

    from gnarlib.panel import TimeSeriesPanel

    inside = [d for d in panel.dates if spec.contains(d)]
    step = 7
    if len(panel.dates) >= 2:
        counts: dict[int, int] = {}
        for a, b in zip(panel.dates, panel.dates[1:]):
            counts[(b - a).days] = counts.get((b - a).days, 0) + 1
        step = max(counts, key=lambda s: (counts[s], -s))
    grid = []
    d = inside[0]
    while d <= inside[-1]:
        grid.append(d)
        d = d + datetime.timedelta(days=step)
    date_ix = {d: j for j, d in enumerate(panel.dates)}
    out = np.full((panel.n_nodes, len(grid)), np.nan)
    for j, d in enumerate(grid):
        if spec.contains(d) and d in date_ix:
            out[:, j] = panel.values[:, date_ix[d]]
    return TimeSeriesPanel(labels=panel.labels, dates=tuple(grid), values=out)


def ar_baseline_loop(panel, p_max: int):
    """The per-node AR baseline as one ``np.linalg.lstsq`` per (node, p):
    each node's GNAR(p, [0, ..., 0]) design is cut from its one-row plane,
    an order is refused when it has no more rows than p or an SVD rank
    below p, and the lowest BIC wins (the smaller p on a tie)."""
    from typing import Optional

    from gnarlib.errors import InsufficientDataError, InvalidInputError
    from gnarlib.gnar_core import GnarOrder, GnarSpec, _design_from_planes, _gaussian_criteria
    from gnarlib.panel import _reject_infinite
    from gnarlib.selection import ArNodeResult

    if p_max < 1:
        raise InvalidInputError("p_max must be >= 1")
    _reject_infinite(panel.labels, list(panel.values))    # the per-node loop
    out: dict[str, ArNodeResult] = {}
    for i, label in enumerate(panel.labels):
        x = panel.values[i]
        observed = x[~np.isnan(x)]
        if observed.size <= p_max + 1 or np.nanmax(x) == np.nanmin(x):
            out[label] = ArNodeResult(label=label, status="degenerate")
            continue
        best: Optional[tuple[float, int, np.ndarray, float, int]] = None
        for p in range(1, p_max + 1):
            spec = GnarSpec(order=GnarOrder(p=p, s=(0,) * p))
            try:
                design, y, _ = _design_from_planes(x[None, :, None], spec)
            except InsufficientDataError:
                continue
            if design.shape[0] <= p:
                continue
            coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
            if rank < p:
                continue
            resid = y - design @ coef
            sigma2, _, bic, _ = _gaussian_criteria(float(resid @ resid), y.size, p)
            if best is None or bic < best[0]:
                best = (bic, p, coef, sigma2, y.size)
        if best is None:
            out[label] = ArNodeResult(label=label, status="degenerate")
            continue
        bic, p, coef, sigma2, n_obs = best
        out[label] = ArNodeResult(
            label=label, status="ok", order=p,
            coefficients=tuple(float(c) for c in coef),
            sigma2=sigma2, bic=bic, n_obs=n_obs)
    return out


def var_residual_covariance_loop(values: np.ndarray, p: int) -> np.ndarray:
    """The residual covariance of the unrestricted VAR(p) least-squares fit,
    from its definition: over the time points t whose response and lags 1..p
    are observed at every node, each node's series is projected off the span
    of the N*p lagged series (Gram-Schmidt, each projection done twice), and
    sigma[a, b] is the mean product of the residuals of nodes a and b."""
    n, T = values.shape
    times = [t for t in range(p, T)
             if not any(math.isnan(values[i, t - j]) for i in range(n) for j in range(p + 1))]
    basis: list[np.ndarray] = []

    def residual(column: list[float]) -> np.ndarray:
        v = np.array(column)
        for _ in range(2):
            for q in basis:
                v = v - float(q @ v) * q
        return v

    for j in range(1, p + 1):
        for i in range(n):
            v = residual([values[i, t - j] for t in times])
            basis.append(v / math.sqrt(float(v @ v)))
    resid = [residual([values[i, t] for t in times]) for i in range(n)]
    sigma = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            sigma[a, b] = sum(x * y for x, y in zip(resid[a], resid[b])) / len(times)
    return sigma


def mase_loop(actual: np.ndarray, predicted: np.ndarray, history: np.ndarray):
    """MASE node by node: each scale is the mean of the node's observed absolute
    one-lag changes.  Returns (entries, per-node mean, per-node std, overall
    mean, undefined node indices); a node with no scored entry gets NaN."""
    n = actual.shape[0]
    entries = np.full(actual.shape, np.nan)
    per_mean = np.full(n, np.nan)
    per_std = np.full(n, np.nan)
    undefined = []
    with np.errstate(invalid="ignore"):
        for i in range(n):
            steps = np.abs(np.diff(history[i]))
            steps = steps[~np.isnan(steps)]
            if steps.size == 0 or float(np.mean(steps)) == 0.0:
                undefined.append(i)
                continue
            scale = float(np.mean(steps))
            err = np.abs(actual[i] - predicted[i])
            entries[i] = err / scale
            if not np.isnan(err).all():
                per_mean[i] = float(np.nanmean(err)) / scale
                per_std[i] = float(np.nanstd(entries[i]))
    defined = ~np.isnan(per_mean)
    overall = float(np.mean(per_mean[defined])) if defined.any() else math.nan
    return entries, per_mean, per_std, overall, undefined


def _cell_value(text) -> float:
    """A panel cell: empty is missing, anything else a finite number."""
    if text in (None, ""):
        return math.nan
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_csv_loop(source, layout: str, header_ok, parse):
    """The CSV row loop: ``parse(row, col)`` on each non-blank data row in
    turn, with the messages of ``gnarlib.errors._read_csv``."""
    import csv

    from gnarlib.errors import DataIntegrityError, InvalidInputError

    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return _read_csv_loop(fh, layout, header_ok, parse)
    rows = csv.reader(itertools.dropwhile(lambda line: line.lstrip().startswith("#"), source))
    k, out = -1, []
    try:
        header = next(rows, [])
        if not header_ok(header):
            raise ValueError(f"expected {layout}")
        col = {name: i for i, name in enumerate(header)}
        k = 0
        for row in rows:
            if row:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
                parsed = parse(row, col)
                if parsed is not None:
                    out.append(parsed)
            k += 1
    except DataIntegrityError:
        raise
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            at = "undecodable text"
        else:
            at = f"data row {k + 1}: malformed field" if k >= 0 else "bad header"
        raise InvalidInputError(
            f"{getattr(source, 'name', 'CSV input')}: {at} ({exc})") from exc
    return header, out


def ingest_long_csv_loop(stream):
    """A long ``date,node,value`` CSV pivoted by folding one row at a time
    into a dict keyed by (date, node)."""
    from gnarlib.errors import DataIntegrityError, InvalidInputError
    from gnarlib.panel import TimeSeriesPanel, _iso_date

    cells = {}

    def fold(row, col):
        d, node = _iso_date(row[col["date"]]), row[col["node"]]
        value = _cell_value(row[col["value"]])
        old = cells.get((d, node))
        if old is not None and not (old == value or (math.isnan(old) and math.isnan(value))):
            raise DataIntegrityError(
                f"conflicting duplicate for node {node!r} on {d.isoformat()}: "
                f"{old!r} vs {value!r}")
        cells[d, node] = value

    _read_csv_loop(stream, "header date,node,value",
                   lambda header: {"date", "node", "value"}.issubset(header), fold)
    if not cells:
        raise InvalidInputError("no data rows in long CSV")
    dates = tuple(sorted({d for d, _ in cells}))
    labels = tuple(sorted({node for _, node in cells}))
    values = np.full((len(labels), len(dates)), np.nan)
    date_ix = {d: j for j, d in enumerate(dates)}
    node_ix = {n: i for i, n in enumerate(labels)}
    for (d, node), v in cells.items():
        values[node_ix[node], date_ix[d]] = v
    return TimeSeriesPanel(labels=labels, dates=dates, values=values)


def read_wide_csv_loop(stream):
    """A wide ``date,<node>,...`` CSV read one row and one cell at a time."""
    from gnarlib.panel import TimeSeriesPanel, _iso_date

    header, rows = _read_csv_loop(
        stream, "header date,<node>,...",
        lambda header: header[:1] == ["date"] and len(header) > 1,
        lambda row, col: (_iso_date(row[0]), [_cell_value(cell) for cell in row[1:]]))
    labels = tuple(header[1:])
    dates = tuple(d for d, _ in rows)
    values = (np.asarray([v for _, v in rows], dtype=float).T if rows
              else np.empty((len(labels), 0)))
    return TimeSeriesPanel(labels=labels, dates=dates, values=values)
