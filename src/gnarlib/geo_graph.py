"""Spatial network construction and graph machinery.

Builds simple undirected networks over geographic point sets (KNN, distance
threshold, Delaunay triangulation and its Gabriel / sphere-of-influence /
relative-neighbourhood subgraphs, economic-hub augmentation, complete graph,
arbitrary edge lists) and provides the graph-theoretic quantities the
autoregressive model consumes.  All of those come from one hop-distance
matrix, computed by frontier expansion over the dense adjacency matrix:
shortest path lengths, r-th stage neighbourhoods (the mask hops == r),
and summary statistics (clustering by triangle counts on the same
adjacency matrix) with a Bernoulli random graph baseline.

Each construction from coordinates is a keep-mask.  KNN and the distance
threshold mask the one great-circle distance matrix.  The Delaunay family
triangulates once into an (E, 2) array of edge indices and keeps a boolean
mask of it, computed from one projected squared-distance matrix.

Distances between points are great-circle distances on a sphere (default
radius 6371 km).  The Delaunay family operates on an equirectangular local
projection (x = lon * cos(mean lat), y = lat); at regional extent the induced
triangulation matches the spherical one, and only relative distances matter
for the edge filters.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError, _check_seed
from .panel import _row_errors, _skip_comments

EARTH_RADIUS_KM = 6371.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeoPoint:
    """A labeled node with geographic coordinates.

    Args:
        node_id: Unique label within a point set.
        lat_deg: Latitude in decimal degrees, within [-90, 90].
        lon_deg: Longitude in decimal degrees, within [-180, 180].
        population: Optional nonnegative count (used by population-based
            weighting schemes).
    """

    node_id: str
    lat_deg: float
    lon_deg: float
    population: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.node_id:
            raise InvalidInputError("node_id must be a nonempty string")
        if not (math.isfinite(self.lat_deg) and math.isfinite(self.lon_deg)):
            raise InvalidInputError(
                f"non-finite coordinates for node {self.node_id!r}")
        if not -90.0 <= self.lat_deg <= 90.0:
            raise InvalidInputError(
                f"latitude {self.lat_deg} out of [-90, 90] for {self.node_id!r}")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise InvalidInputError(
                f"longitude {self.lon_deg} out of [-180, 180] for {self.node_id!r}")
        if self.population is not None and not self.population >= 0:
            raise InvalidInputError(
                f"population must be nonnegative for {self.node_id!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected unweighted graph over labeled nodes.

    Edges are stored as a frozenset of index pairs (i, j) with i < j,
    indices into ``labels``.  Instances are immutable.
    """

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidInputError("node labels must be unique")
        for i, j in self.edges:
            if not ((type(i) is int or isinstance(i, np.integer))
                    and (type(j) is int or isinstance(j, np.integer))):
                raise InvalidInputError(f"edge ({i!r}, {j!r}) has a non-integer index")
            if i == j:
                raise InvalidInputError(f"self-loop on node {self.labels[i]!r}")
            if not (0 <= i < j < n):
                raise InvalidInputError(f"edge ({i}, {j}) out of range for n={n}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return _adjacency_matrix(self).sum(axis=1).astype(int)

    def has_edge(self, a: str, b: str) -> bool:
        i, j = self.labels.index(a), self.labels.index(b)
        return (min(i, j), max(i, j)) in self.edges

    def to_json(self) -> dict:
        """JSON-ready dict: {labels: [...], edges: [[i, j], ...]}."""
        return {
            "labels": list(self.labels),
            "edges": sorted([i, j] for i, j in self.edges),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        labels = tuple(obj["labels"])
        edges = frozenset(_norm_edge(i, j) for i, j in obj["edges"])
        return cls(labels=labels, edges=edges)


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise InvalidInputError(f"self-loop on index {i}")
    return (i, j) if i < j else (j, i)


def _graph(labels: Sequence[str], edges) -> Graph:
    """Graph from an (E, 2) array of index pairs (i, j) with i < j."""
    i, j = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T.tolist()
    return Graph(labels=tuple(labels), edges=frozenset(zip(i, j)))


@dataclass(frozen=True)
class StageNeighbourhoods:
    """Per-node neighbourhood shells N^(1)(i), ..., N^(r_max)(i).

    ``hops`` is the N x N hop-distance matrix, computed up to ``r_max``
    (pairs further apart, or unreachable, hold inf).  Stage r of node i,
    the set of nodes at shortest-path distance exactly r, is the row
    ``hops[i] == r``: shells for a fixed node are pairwise disjoint and
    never contain the node itself, and shells beyond a node's eccentricity
    are empty.  ``stages[i][r - 1]`` lists them as frozen sets.
    """

    r_max: int
    hops: np.ndarray

    def stage(self, node: int, r: int) -> frozenset[int]:
        """Nodes at SPL exactly ``r`` (1-based) from ``node``."""
        if not 1 <= r <= self.r_max:
            raise InvalidInputError(f"stage {r} outside computed range 1..{self.r_max}")
        return frozenset(np.flatnonzero(self.hops[node] == r).tolist())

    @property
    def stages(self) -> tuple[tuple[frozenset[int], ...], ...]:
        return tuple(tuple(self.stage(i, r) for r in range(1, self.r_max + 1))
                     for i in range(len(self.hops)))


@dataclass(frozen=True)
class NetworkSummary:
    """Structural statistics plus a Bernoulli G(n, m) baseline.

    ``avg_spl`` averages over connected ordered pairs only; the fraction of
    disconnected ordered pairs is reported alongside (same for the baseline,
    averaged over samples).
    """

    avg_degree: float
    avg_spl: float
    avg_local_clustering: float
    disconnected_pair_fraction: float
    brg_avg_spl: float
    brg_avg_clustering: float
    brg_disconnected_pair_fraction: float
    brg_samples: int
    seed: int


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def great_circle_distance(a: GeoPoint, b: GeoPoint,
                          radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in km between two points on a sphere.

    Spherical law of cosines with the cosine clamped to [-1, 1] so that
    coincident points return exactly 0.  Symmetric and nonnegative.
    """
    if not radius_km > 0:
        raise InvalidInputError("radius_km must be positive")
    la, lb = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlon = math.radians(a.lon_deg) - math.radians(b.lon_deg)
    c = math.sin(la) * math.sin(lb) + math.cos(la) * math.cos(lb) * math.cos(dlon)
    return radius_km * math.acos(max(-1.0, min(1.0, c)))


def distance_matrix(points: Sequence[GeoPoint],
                    radius_km: float = EARTH_RADIUS_KM) -> np.ndarray:
    """Symmetric matrix of pairwise great-circle distances (km)."""
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = great_circle_distance(points[i], points[j], radius_km)
    return d


def _check_points(points: Sequence[GeoPoint]) -> None:
    ids = [p.node_id for p in points]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("duplicate node_id in point set")


# ---------------------------------------------------------------------------
# Constructions from coordinates
# ---------------------------------------------------------------------------

def build_knn(points: Sequence[GeoPoint], k: int) -> Graph:
    """K-nearest-neighbour graph, symmetrized by union.

    Edge (i, j) exists iff j is among i's k nearest points by great-circle
    distance or vice versa.  Distance ties are broken by lexicographic
    node_id, which makes the construction deterministic.
    """
    _check_points(points)
    n = len(points)
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k={k} outside 1..{n - 1}")
    d = distance_matrix(points)
    np.fill_diagonal(d, np.inf)
    ids = [p.node_id for p in points]
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    order = np.lexsort((np.broadcast_to(rank, d.shape), d))  # each row by (d, rank)
    near = np.zeros((n, n), dtype=bool)
    near[np.arange(n)[:, None], order[:, :k]] = True
    return _graph(ids, np.argwhere(np.triu(near | near.T, 1)))


def build_dnn(points: Sequence[GeoPoint], d_max: float) -> Graph:
    """Distance-threshold graph: edge iff 0 < distance <= d_max km.

    With d_max at least the maximum pairwise distance this returns the
    complete graph; below the minimum pairwise distance the edge set is
    empty (callers must check for isolated nodes themselves).
    """
    _check_points(points)
    if not d_max > 0:
        raise InvalidInputError("d_max must be positive")
    d = distance_matrix(points)
    return _graph([p.node_id for p in points],
                  np.argwhere(np.triu((d > 0.0) & (d <= d_max), 1)))


def _project(points: Sequence[GeoPoint]) -> np.ndarray:
    """Equirectangular local projection; units are degrees.

    Only relative Euclidean distances on this plane are ever compared, so
    the missing km scale factor is irrelevant.
    """
    mean_lat = math.radians(sum(p.lat_deg for p in points) / len(points))
    scale = math.cos(mean_lat)
    return np.array([[p.lon_deg * scale, p.lat_deg] for p in points])


def _delaunay_subgraph(points: Sequence[GeoPoint], name: str,
                       keep: Optional[Callable] = None) -> Graph:
    """The Delaunay edges (i, j), i < j, on the local projection, filtered by
    ``keep(d2, i, j)``: a boolean mask over the edge index arrays, given the
    projected squared-distance matrix ``d2``.  ``d2`` has an exact zero
    diagonal and is exactly symmetric, so a rule comparing edge (i, j) with
    every point z never drops it for z = i or z = j.  A point that coincides
    with another one would be left out of the triangulation: an error."""
    _check_points(points)
    if len(points) < 3:
        raise InvalidInputError(f"{name} needs at least 3 points")
    from scipy.spatial import Delaunay, QhullError

    labels = [p.node_id for p in points]
    xy = _project(points)
    try:
        tri = Delaunay(xy)
    except QhullError as exc:
        raise DegenerateGeometryError(
            f"no triangulation exists for this point set: {exc}") from exc
    if len(tri.coplanar):
        dropped, _, vertex = tri.coplanar[0]
        raise DegenerateGeometryError(
            f"{name}: node {labels[dropped]!r} coincides with node "
            f"{labels[vertex]!r} and would be dropped from the triangulation")
    s = tri.simplices
    edges = np.unique(np.sort(np.vstack([s[:, [0, 1]], s[:, [0, 2]], s[:, [1, 2]]]),
                              axis=1), axis=0)
    if keep is not None:
        d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
        edges = edges[keep(d2, *edges.T)]
    return _graph(labels, edges)


def build_delaunay(points: Sequence[GeoPoint]) -> Graph:
    """Delaunay triangulation edges on the local projection."""
    return _delaunay_subgraph(points, "Delaunay triangulation")


def derive_gabriel(points: Sequence[GeoPoint]) -> Graph:
    """Gabriel subgraph of the Delaunay triangulation.

    Keeps edge (x, y) iff d(x, y) <= sqrt(d(x, z)^2 + d(y, z)^2) for every
    other point z, i.e. no z lies strictly inside the disc with diameter xy.
    Boundary points (z exactly on the circle) do not remove the edge.
    """
    return _delaunay_subgraph(
        points, "Gabriel graph",
        lambda d2, i, j: ~(d2[i, j][:, None] > d2[i] + d2[j]).any(axis=1))


def derive_soi(points: Sequence[GeoPoint]) -> Graph:
    """Sphere-of-influence subgraph of the Delaunay triangulation.

    Around each point draw a circle whose radius is the distance to its
    nearest neighbour; an edge survives iff the two circles intersect at
    least twice, i.e. d(x, y) < d_x + d_y strictly (tangency is a single
    intersection and does not count).
    """
    def keep(d2, i, j):
        d = np.sqrt(d2)
        radius = np.where(np.eye(len(d), dtype=bool), np.inf, d).min(axis=1)
        return d[i, j] < radius[i] + radius[j]

    return _delaunay_subgraph(points, "sphere-of-influence graph", keep)


def derive_relative(points: Sequence[GeoPoint]) -> Graph:
    """Relative-neighbourhood subgraph of the Delaunay triangulation.

    Keeps edge (x, y) iff d(x, y) <= max(d(x, z), d(y, z)) for every other
    point z; contained in the Gabriel graph by the condition itself.
    """
    def keep(d2, i, j):
        d = np.sqrt(d2)
        return ~(d[i, j][:, None] > np.maximum(d[i], d[j])).any(axis=1)

    return _delaunay_subgraph(points, "relative neighbourhood graph", keep)


# ---------------------------------------------------------------------------
# Constructions from labels / edge lists
# ---------------------------------------------------------------------------

def build_from_edgelist(labels: Sequence[str],
                        edges: Iterable[tuple[str, str]]) -> Graph:
    """Graph with exactly the listed undirected edges, deduplicated.

    Raises on endpoints not present in ``labels`` and on self-loops, naming
    the offending entry.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise InvalidInputError("duplicate node labels")
    index = {lbl: i for i, lbl in enumerate(labels)}
    out = set()
    for a, b in edges:
        if a not in index:
            raise InvalidInputError(f"unknown node label {a!r} in edge ({a!r}, {b!r})")
        if b not in index:
            raise InvalidInputError(f"unknown node label {b!r} in edge ({a!r}, {b!r})")
        if a == b:
            raise InvalidInputError(f"self-loop on node {a!r}")
        out.add(_norm_edge(index[a], index[b]))
    return _graph(labels, list(out))


def build_economic_hub(base: Graph, points: Sequence[GeoPoint],
                       hubs: Sequence[str]) -> Graph:
    """Base graph plus an edge from every non-hub node to its nearest hub.

    Nearest is by great-circle distance, ties broken by lexicographic hub
    label.  Nodes already adjacent to their nearest hub are unaffected.
    """
    _check_points(points)
    if not hubs:
        raise InvalidInputError("hub list must be nonempty")
    by_id = {p.node_id: p for p in points}
    missing = [lbl for lbl in base.labels if lbl not in by_id]
    if missing:
        raise InvalidInputError(f"no coordinates for nodes {missing}")
    for h in hubs:
        if h not in base.labels:
            raise InvalidInputError(f"hub {h!r} is not a node of the base graph")
    index = {lbl: i for i, lbl in enumerate(base.labels)}
    hub_set = set(hubs)
    edges = set(base.edges)
    for lbl in base.labels:
        if lbl in hub_set:
            continue
        nearest = min(sorted(hub_set),
                      key=lambda h: (great_circle_distance(by_id[lbl], by_id[h]), h))
        edges.add(_norm_edge(index[lbl], index[nearest]))
    return Graph(labels=base.labels, edges=frozenset(edges))


def build_complete(labels: Sequence[str]) -> Graph:
    """Complete graph on the given labels (homogeneous mixing)."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise InvalidInputError("complete graph needs at least 2 nodes")
    return _graph(labels, np.column_stack(np.triu_indices(len(labels), 1)))


# ---------------------------------------------------------------------------
# Shortest paths and neighbourhood stages
# ---------------------------------------------------------------------------

def _adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix."""
    adj = np.zeros((g.n, g.n))
    i, j = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    adj[i, j] = adj[j, i] = 1.0
    return adj


def _hop_matrix(adj: np.ndarray, r_max: Optional[int] = None) -> np.ndarray:
    """Hop distances by frontier expansion from every source at once, for at
    most ``r_max`` steps when given; pairs not reached hold inf.  The product
    counts at most N paths per pair: exact in float32, and twice as fast."""
    n = len(adj)
    adj = adj.astype(np.float32)
    hops = np.full((n, n), np.inf)
    np.fill_diagonal(hops, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    r = 0
    while frontier.any() and (r_max is None or r < r_max):
        r += 1
        frontier = (frontier @ adj > 0) & ~reached
        hops[frontier] = r
        reached |= frontier
    return hops


def stage_neighbourhoods(g: Graph, r_max: int) -> StageNeighbourhoods:
    """Neighbourhood shells per node: N^(r)(i) = nodes at SPL exactly r."""
    if r_max < 1:
        raise InvalidInputError("r_max must be >= 1")
    return StageNeighbourhoods(r_max=r_max, hops=_hop_matrix(_adjacency_matrix(g), r_max))


def shortest_path_lengths(g: Graph) -> np.ndarray:
    """All-pairs shortest path lengths in hops; np.inf for unreachable."""
    return _hop_matrix(_adjacency_matrix(g))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _avg_spl_and_disconnected(spl: np.ndarray) -> tuple[float, float]:
    n = spl.shape[0]
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(spl) & off
    n_pairs = int(off.sum())
    n_conn = int(finite.sum())
    avg = float(spl[finite].mean()) if n_conn else math.nan
    return avg, 1.0 - n_conn / n_pairs


def _avg_local_clustering(adj: np.ndarray) -> float:
    """Mean local clustering; nodes of degree < 2 contribute 0.  Row i of
    (A A) * A sums to twice the number of links among i's neighbours."""
    k = adj.sum(axis=1)
    links2 = ((adj @ adj) * adj).sum(axis=1)
    local = np.divide(links2, k * (k - 1), out=np.zeros_like(k), where=k >= 2)
    return sum(local.tolist()) / len(adj)


def _sample_gnm(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Adjacency matrix of a uniform G(n, m): m distinct edges chosen without
    replacement from the pairs i < j in row-major order."""
    picks = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    i, j = (ix[picks] for ix in np.triu_indices(n, 1))
    adj = np.zeros((n, n))
    adj[i, j] = adj[j, i] = 1.0
    return adj


def network_summary(g: Graph, brg_samples: int = 100, seed: int = 0) -> NetworkSummary:
    """Degree / SPL / clustering summary with a G(n, m) baseline.

    The baseline draws ``brg_samples`` uniform random graphs with the same
    node and edge count using a generator seeded with ``seed``; results are
    bit-reproducible for a fixed seed.  Average SPL is taken over connected
    ordered pairs only, with the disconnected fraction reported.
    """
    if brg_samples < 1:
        raise InvalidInputError("brg_samples must be >= 1")
    _check_seed(seed)
    avg_degree = 2.0 * g.n_edges / g.n
    adj = _adjacency_matrix(g)
    avg_spl, disc = _avg_spl_and_disconnected(_hop_matrix(adj))
    clust = _avg_local_clustering(adj)

    rng = np.random.default_rng(seed)
    spls, clusts, discs = [], [], []
    for _ in range(brg_samples):
        sample = _sample_gnm(g.n, g.n_edges, rng)
        s, dfrac = _avg_spl_and_disconnected(_hop_matrix(sample))
        spls.append(s)
        discs.append(dfrac)
        clusts.append(_avg_local_clustering(sample))
    return NetworkSummary(
        avg_degree=avg_degree,
        avg_spl=avg_spl,
        avg_local_clustering=clust,
        disconnected_pair_fraction=disc,
        brg_avg_spl=float(np.nanmean(spls)),
        brg_avg_clustering=float(np.mean(clusts)),
        brg_disconnected_pair_fraction=float(np.mean(discs)),
        brg_samples=brg_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_points_csv(stream) -> list[GeoPoint]:
    """Read points from CSV with header ``node,lat,lon[,population]``.

    Accepts a text stream or a path.  Points are returned sorted by node_id
    so that graphs built from the same file always share label order.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, newline="") as fh:
            return read_points_csv(fh)
    reader = csv.DictReader(_skip_comments(stream))
    required = {"node", "lat", "lon"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise InvalidInputError("points CSV must have header node,lat,lon[,population]")
    where = getattr(stream, "name", "points CSV")
    points = []
    for k, row in enumerate(reader, start=1):
        pop = row.get("population")
        with _row_errors(where, k):
            points.append(GeoPoint(
                node_id=row["node"],
                lat_deg=float(row["lat"]),
                lon_deg=float(row["lon"]),
                population=float(pop) if pop not in (None, "") else None,
            ))
    points.sort(key=lambda p: p.node_id)
    _check_points(points)
    return points


def read_edgelist_csv(stream) -> list[tuple[str, str]]:
    """Read undirected edges from CSV with header ``from,to``."""
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, newline="") as fh:
            return read_edgelist_csv(fh)
    reader = csv.DictReader(_skip_comments(stream))
    if reader.fieldnames is None or not {"from", "to"}.issubset(reader.fieldnames):
        raise InvalidInputError("edge-list CSV must have header from,to")
    where = getattr(stream, "name", "edge-list CSV")
    edges = []
    for k, row in enumerate(reader, start=1):
        with _row_errors(where, k):
            if row["from"] is None or row["to"] is None:
                raise ValueError("row has fewer fields than the header from,to")
            edges.append((row["from"], row["to"]))
    return edges


def write_graph_json(g: Graph, path, meta: Optional[dict] = None) -> None:
    """Write a graph as JSON; optional metadata goes under key ``meta``."""
    obj = g.to_json()
    if meta:
        obj["meta"] = meta
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_graph_json(path) -> Graph:
    with open(path) as fh:
        try:
            return Graph.from_json(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path}: not a graph JSON with 'labels' and 'edges' lists ({exc})") from exc
