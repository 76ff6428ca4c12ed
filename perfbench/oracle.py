"""Independent reference computations for the benchmark's output checks.

Everything here is written against the documented model and constructions,
not against gnarlib's code paths: hop distances by boolean frontier
expansion, stage weights from those distances, the stacked design with NaN
poisoning, a normal-equations solve, one-step predictions, and brute-force
edge rules for the geometric constructions.  Only numpy is used, plus
``scipy.spatial.Delaunay`` for the triangulation itself.
"""

from __future__ import annotations

import math

import numpy as np


def hop_distances(n: int, edges) -> np.ndarray:
    """All-pairs hop counts; inf where unreachable."""
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    r = 0
    while frontier.any():
        r += 1
        nxt = ((frontier @ adj) > 0) & ~reached
        dist[nxt] = r
        reached |= nxt
        frontier = nxt.astype(float)
    return dist


def stage_weights(hops: np.ndarray, r: int, kind: str,
                  dist_km=None, populations=None) -> np.ndarray:
    """Row-normalised weights over the nodes at hop distance exactly r."""
    member = hops == r
    if kind in ("spl", "uniform"):
        raw = member.astype(float)
    else:
        with np.errstate(divide="ignore"):
            inv = np.where(member, 1.0 / np.where(member, dist_km, 1.0), 0.0)
        raw = inv if kind == "idw" else inv * np.asarray(populations)[None, :]
    total = raw.sum(axis=1, keepdims=True)
    return np.divide(raw, total, out=np.zeros_like(raw), where=total > 0)


def gnar_design(values: np.ndarray, p: int, s, global_alpha: bool, w_by_stage):
    """Stacked GNAR design, rows in (time, node) order, with NaN poisoning."""
    n, T = values.shape
    nan = np.isnan(values)
    filled = np.where(nan, 0.0, values)
    nbr = {}
    for r in range(1, max(s, default=0) + 1):
        w = w_by_stage[r]
        sums = w @ filled
        sums[((w != 0).astype(float) @ nan.astype(float)) > 0] = np.nan
        nbr[r] = sums
    n_alpha = p if global_alpha else p * n
    cols = n_alpha + int(sum(s))
    tt, ii = np.meshgrid(np.arange(p, T), np.arange(n), indexing="ij")
    tt, ii = tt.ravel(), ii.ravel()
    design = np.zeros((tt.size, cols))
    for j in range(1, p + 1):
        lag = values[ii, tt - j]
        if global_alpha:
            design[:, j - 1] = lag
        else:
            design[np.arange(tt.size), (j - 1) * n + ii] = lag
    c = n_alpha
    for j in range(1, p + 1):
        for r in range(1, s[j - 1] + 1):
            design[:, c] = nbr[r][ii, tt - j]
            c += 1
    y = values[ii, tt]
    keep = ~np.isnan(y) & ~np.isnan(design).any(axis=1)
    return design[keep], y[keep]


def normal_equations_solve(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(design.T @ design, design.T @ y)


def one_step(values: np.ndarray, t: int, alpha_np: np.ndarray, beta,
             w_by_stage) -> np.ndarray:
    """Prediction of column t from columns t-1..t-p (NaN propagates)."""
    n, p = alpha_np.shape
    pred = np.zeros(n)
    for j in range(1, p + 1):
        v = values[:, t - j]
        pred = pred + alpha_np[:, j - 1] * v
        for r, b in enumerate(beta[j - 1], start=1):
            w = w_by_stage[r]
            z = w @ np.where(np.isnan(v), 0.0, v)
            z[((w != 0).astype(float) @ np.isnan(v).astype(float)) > 0] = np.nan
            pred = pred + b * z
    return pred


def great_circle_matrix(lat_deg, lon_deg, radius_km: float = 6371.0) -> np.ndarray:
    la = np.radians(np.asarray(lat_deg))
    lo = np.radians(np.asarray(lon_deg))
    c = (np.sin(la)[:, None] * np.sin(la)[None, :]
         + np.cos(la)[:, None] * np.cos(la)[None, :] * np.cos(lo[:, None] - lo[None, :]))
    d = radius_km * np.arccos(np.clip(c, -1.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return d


def project(lat_deg, lon_deg) -> np.ndarray:
    """Equirectangular plane used by the Delaunay family (degrees)."""
    lat = [float(v) for v in lat_deg]
    scale = math.cos(math.radians(sum(lat) / len(lat)))
    return np.array([[float(lo) * scale, la] for lo, la in zip(lon_deg, lat)])


def delaunay_edges(xy: np.ndarray) -> set:
    from scipy.spatial import Delaunay

    out = set()
    for a, b, c in Delaunay(xy).simplices:
        for u, v in ((a, b), (a, c), (b, c)):
            out.add((int(min(u, v)), int(max(u, v))))
    return out


def _sq(xy: np.ndarray) -> np.ndarray:
    diff = xy[:, None, :] - xy[None, :, :]
    return (diff ** 2).sum(axis=2)


def gabriel_edges(xy: np.ndarray, tri: set) -> set:
    """Delaunay edges with no point strictly inside the diametral disc."""
    d2 = _sq(xy)
    e = np.array(sorted(tri))
    i, j = e[:, 0], e[:, 1]
    inside = d2[i, j][:, None] > d2[i] + d2[j]
    inside[np.arange(len(e)), i] = False
    inside[np.arange(len(e)), j] = False
    return {tuple(map(int, ed)) for ed, bad in zip(e, inside.any(axis=1)) if not bad}


def relative_edges(xy: np.ndarray, tri: set) -> set:
    d = np.sqrt(_sq(xy))
    e = np.array(sorted(tri))
    i, j = e[:, 0], e[:, 1]
    blocked = d[i, j][:, None] > np.maximum(d[i], d[j])
    blocked[np.arange(len(e)), i] = False
    blocked[np.arange(len(e)), j] = False
    return {tuple(map(int, ed)) for ed, bad in zip(e, blocked.any(axis=1)) if not bad}


def soi_edges(xy: np.ndarray, tri: set) -> set:
    d = np.sqrt(_sq(xy))
    np.fill_diagonal(d, np.inf)
    rad = d.min(axis=1)
    return {(i, j) for i, j in tri if d[i, j] < rad[i] + rad[j]}


def knn_edges(dist: np.ndarray, ids, k: int) -> set:
    """Union-symmetrised KNN with ties broken by node id."""
    n = dist.shape[0]
    rank = np.empty(n, dtype=int)
    rank[np.argsort(np.asarray(ids, dtype=object), kind="stable")] = np.arange(n)
    out = set()
    for i in range(n):
        d = dist[i].copy()
        d[i] = np.inf
        order = np.lexsort((rank, d))[:k]
        out.update((min(i, int(j)), max(i, int(j))) for j in order)
    return out


def dnn_edges(dist: np.ndarray, d_max: float) -> set:
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    keep = (dist[iu, ju] > 0) & (dist[iu, ju] <= d_max)
    return set(zip(iu[keep].tolist(), ju[keep].tolist()))


def hub_edges(base_edges, dist: np.ndarray, labels, hubs) -> set:
    index = {lbl: i for i, lbl in enumerate(labels)}
    hub_ix = sorted(index[h] for h in hubs)
    out = set(base_edges)
    for i, lbl in enumerate(labels):
        if lbl in hubs:
            continue
        best = min(hub_ix, key=lambda h: (dist[i, h], labels[h]))
        out.add((min(i, best), max(i, best)))
    return out
