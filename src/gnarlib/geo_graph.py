"""Spatial network construction and graph machinery.

Builds simple undirected networks over geographic point sets (KNN, distance
threshold, Delaunay triangulation and its Gabriel / sphere-of-influence /
relative-neighbourhood subgraphs, economic-hub augmentation, complete graph,
arbitrary edge lists) and provides the graph-theoretic quantities the
autoregressive model consumes.  A graph is one sorted (E, 2) array of index
pairs, and every path below works on arrays.  The quantities all come from
one hop-distance matrix, computed by breadth-first search from every source
at once on packed bitsets over the neighbour lists: shortest path lengths,
r-th stage neighbourhoods (the mask hops == r), and summary statistics
(clustering from the common neighbours of each edge) with a Bernoulli
random graph baseline drawn as edge arrays.

KNN and the distance threshold mask the one great-circle distance matrix.
The Delaunay family triangulates once into an (E, 2) array of edge indices
and drops the edges its rule rejects, tested against their opposite
triangle vertices and then the points a kd-tree finds near them: no n x n
array.

Distances between points are great-circle distances on a sphere (default
radius 6371 km), computed for all pairs at once with libm's (``math``)
cosine and arc cosine, so the matrix equals the scalar
``great_circle_distance`` bit for bit.  The Delaunay family operates on an
equirectangular local projection (x = lon * cos(mean lat), y = lat); at
regional extent the induced triangulation matches the spherical one, and
only relative distances matter for the edge filters.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (DegenerateGeometryError, InvalidInputError, _by_row, _check_seed,
                     _read_csv, _read_json, _write_json)

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


class Graph:
    """Simple undirected unweighted graph over labeled nodes.

    ``edges`` is an iterable of index pairs (i, j) with i < j, or an integer
    (E, 2) array of them, indices into ``labels``.  The graph keeps them as
    one sorted, deduplicated, read-only (E, 2) intp array, ``edge_array``,
    ordered by the key i * n + j; ``edges`` is a frozenset view of it, built
    on first use.  Instances are immutable; each keeps the deepest hop
    matrix computed on it (see :func:`_hops`).
    """

    def __init__(self, labels: Sequence[str], edges) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidInputError("node labels must be unique")
        pairs = _pair_array(edges)
        n = len(labels)
        i, j = pairs.T
        loop = np.flatnonzero((i == j) & (i >= 0) & (i < n))
        if len(loop):
            raise InvalidInputError(f"self-loop on node {labels[i[loop[0]]]!r}")
        bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
        if len(bad):
            raise InvalidInputError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
        key = i * n + j
        if (key[1:] <= key[:-1]).any():
            pairs = np.column_stack(np.divmod(np.unique(key), n))
        pairs.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edge_array", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.labels, self.edge_array.tobytes()))

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.edge_array.tolist()))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edge_array)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    def has_edge(self, a: str, b: str) -> bool:
        unknown = [lbl for lbl in (a, b) if lbl not in self.labels]
        if unknown:
            raise InvalidInputError(f"unknown node label {unknown[0]!r}")
        i, j = sorted((self.labels.index(a), self.labels.index(b)))
        return (i, j) in self.edges

    def to_json(self) -> dict:
        """JSON-ready dict: {labels: [...], edges: [[i, j], ...]}."""
        return {"labels": list(self.labels), "edges": self.edge_array.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        return cls(tuple(obj["labels"]), [sorted(e) for e in obj["edges"]])


def _pair_array(edges) -> np.ndarray:
    """Index pairs as an (E, 2) intp array; Python or numpy integers only."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        types = set(map(type, itertools.chain.from_iterable(edges)))
        if not all(t is int or issubclass(t, np.integer) for t in types):
            i, j = next(e for e in edges if not all(
                type(v) is int or isinstance(v, np.integer) for v in e))
            raise InvalidInputError(f"edge ({i!r}, {j!r}) has a non-integer index")
        edges = np.array(edges, dtype=np.intp) if edges else np.empty((0, 2), np.intp)
    if edges.dtype.kind not in "iu" or edges.ndim != 2 or edges.shape[1] != 2:
        raise InvalidInputError(f"edges must be integer index pairs, got {edges.dtype} "
                                f"array of shape {edges.shape}")
    return edges.astype(np.intp)


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
    """Symmetric matrix of pairwise great-circle distances (km), equal bit
    for bit to ``great_circle_distance`` on every pair."""
    return _distances(points, radius_km).copy()


# The last point set's key ((lat, lon) bytes, radius_km) and distance matrix,
# as one tuple: a reader takes both in one step, so no thread sees a mixed pair.
_DISTANCES: list = [(None, None)]


def _distances(points: Sequence[GeoPoint], radius_km: float = EARTH_RADIUS_KM) -> np.ndarray:
    """:func:`distance_matrix`, read-only and shared: a one-entry memo keyed
    by the exact coordinates, in order, and the radius."""
    key = (np.array([(p.lat_deg, p.lon_deg) for p in points], dtype=float).tobytes(), radius_km)
    last, d = _DISTANCES[0]
    if last != key:
        i, j = np.triu_indices(len(points), 1)
        d = np.zeros((len(points), len(points)))
        d[i, j] = d[j, i] = _pair_distances(points, i, j, radius_km)
        d.flags.writeable = False
        _DISTANCES[0] = key, d
    return d


def _pair_distances(points: Sequence[GeoPoint], i: np.ndarray, j: np.ndarray,
                    radius_km: float = EARTH_RADIUS_KM) -> np.ndarray:
    """``great_circle_distance(points[i[k]], points[j[k]])`` for every k, bit
    for bit: ``math`` (libm) takes every sine, cosine and arc cosine, numpy
    only the products, sums and clamp, in the scalar formula's order.
    numpy's SIMD cos and arccos differ from libm in the last bits."""
    if not radius_km > 0:
        raise InvalidInputError("radius_km must be positive")

    def libm(f, x):
        return np.fromiter(map(f, x.tolist()), dtype=float, count=len(x))

    lat = libm(math.radians, np.array([p.lat_deg for p in points], dtype=float))
    lon = libm(math.radians, np.array([p.lon_deg for p in points], dtype=float))
    sin_lat, cos_lat = libm(math.sin, lat), libm(math.cos, lat)
    c = sin_lat[i] * sin_lat[j] + cos_lat[i] * cos_lat[j] * libm(math.cos, lon[i] - lon[j])
    return radius_km * libm(math.acos, np.clip(c, -1.0, 1.0))


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


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
    node_id, which makes the construction deterministic.  Each row's k-th
    distance comes from ``np.partition``: the points nearer than it are all
    taken, and the ties at it fill the remaining places in node_id order,
    which is the first k of the row sorted by (distance, node_id).
    """
    _check_points(points)
    _check_integer("k", k)
    n = len(points)
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k={k} outside 1..{n - 1}")
    d = distance_matrix(points)
    np.fill_diagonal(d, np.inf)
    ids = [p.node_id for p in points]
    by_id = np.array(sorted(range(n), key=ids.__getitem__))
    kth = np.partition(d, k - 1, axis=1)[:, [k - 1]]
    near = d < kth
    row, col = np.nonzero(d == kth)
    row, col = np.divmod(np.sort(row * n + np.argsort(by_id)[col]), n)  # ties by node_id
    take = np.arange(len(row)) - np.searchsorted(row, row) < (k - near.sum(axis=1))[row]
    near[row[take], by_id[col[take]]] = True
    return Graph(ids, np.argwhere(np.triu(near | near.T, 1)))


def build_dnn(points: Sequence[GeoPoint], d_max: float) -> Graph:
    """Distance-threshold graph: edge iff 0 < distance <= d_max km.

    With d_max at least the maximum pairwise distance this returns the
    complete graph; below the minimum pairwise distance the edge set is
    empty (callers must check for isolated nodes themselves).
    """
    _check_points(points)
    if not d_max > 0:
        raise InvalidInputError("d_max must be positive")
    d = _distances(points)
    return Graph([p.node_id for p in points],
                 np.argwhere(np.triu((d > 0.0) & (d <= d_max), 1)))


def _project(points: Sequence[GeoPoint]) -> np.ndarray:
    """Equirectangular local projection; units are degrees.

    Only relative Euclidean distances on this plane are ever compared, so
    the missing km scale factor is irrelevant.
    """
    mean_lat = math.radians(sum(p.lat_deg for p in points) / len(points))
    scale = math.cos(mean_lat)
    return np.array([[p.lon_deg * scale, p.lat_deg] for p in points])


def _sq_dist(xy: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected squared distances of the pairs (a[k], b[k]); symmetric and
    exactly zero for a[k] == b[k]."""
    return ((xy[a] - xy[b]) ** 2).sum(axis=1)


def _witnesses(xy: np.ndarray, i: np.ndarray, j: np.ndarray,
               e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (e, z) over the edge indices e: every point z within
    d(i[e], j[e]) of i[e], from a kd-tree.  The radius is padded by a
    relative 1e-9, far above the rounding of any distance, so the pairs hold
    every point nearer in the floats of :func:`_sq_dist` too (and a few
    more, which the caller's test rejects)."""
    from scipy.spatial import cKDTree

    near = cKDTree(xy).query_ball_point(xy[i[e]], np.sqrt(_sq_dist(xy, i[e], j[e])) * (1 + 1e-9))
    return (np.repeat(e, list(map(len, near))),
            np.fromiter(itertools.chain.from_iterable(near), np.intp))


def _delaunay_subgraph(points: Sequence[GeoPoint], name: str,
                       drop: Optional[Callable] = None) -> Graph:
    """The Delaunay edges (i, j), i < j, on the local projection ``xy``, less
    those ``drop(xy, i, j, e, c)`` names by their index (in any order, maybe
    more than once), given each triangle side as the index e of its edge and
    the vertex c opposite it (one side for a hull edge, two otherwise).  A
    point that coincides with another one would be left out of the
    triangulation: an error."""
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
    # qhull's indices are 32-bit; the key i * n + j would wrap past n = 46340
    s = tri.simplices.astype(np.intp)
    sides = np.sort(np.concatenate([s[:, [1, 2]], s[:, [0, 2]], s[:, [0, 1]]]), axis=1)
    key, e = np.unique(sides[:, 0] * len(xy) + sides[:, 1], return_inverse=True)
    edges = np.column_stack(np.divmod(key, len(xy)))
    if drop is not None:
        edges = np.delete(edges, drop(xy, *edges.T, e, s.T.ravel()), axis=0)
    return Graph(labels, edges)


def _drop_beaten(beats: Callable, xy, i, j, e, c) -> np.ndarray:
    """The indices of the edges some point z beats, ``beats(xy, i, j, z)``
    being the rule's test of pairs (i, j) against points z, as a drop rule
    for :func:`_delaunay_subgraph`.  The vertices opposite each edge are
    tried first, and only the edges they leave are tested against their
    kd-tree witnesses.  The opposite vertices settle no edge alone, since
    qhull's triangulation of near-co-circular points need not be exactly
    Delaunay; they only save kd-tree queries."""
    cut = e[beats(xy, i[e], j[e], c)]
    w, z = _witnesses(xy, i, j, np.delete(np.arange(len(i)), cut))
    return np.concatenate([cut, w[beats(xy, i[w], j[w], z)]])


def build_delaunay(points: Sequence[GeoPoint]) -> Graph:
    """Delaunay triangulation edges on the local projection."""
    return _delaunay_subgraph(points, "Delaunay triangulation")


def derive_gabriel(points: Sequence[GeoPoint]) -> Graph:
    """Gabriel subgraph of the Delaunay triangulation.

    Keeps edge (x, y) iff d(x, y) <= sqrt(d(x, z)^2 + d(y, z)^2) for every
    other point z, i.e. no z lies strictly inside the disc with diameter xy.
    Boundary points (z exactly on the circle) do not remove the edge.  The
    graph is a subgraph of the Delaunay triangulation, and a Delaunay edge
    is Gabriel unless one of its opposite vertices lies inside the disc
    (Matula & Sokal, Geographical Analysis 12(3), 1980); each edge those
    leave is tested against the points a kd-tree finds within d(x, y) of
    x, since a point inside the disc is nearer x than y is.
    """
    def beats(xy, i, j, z):
        return _sq_dist(xy, i, j) > _sq_dist(xy, i, z) + _sq_dist(xy, j, z)

    return _delaunay_subgraph(points, "Gabriel graph", functools.partial(_drop_beaten, beats))


def derive_soi(points: Sequence[GeoPoint]) -> Graph:
    """Sphere-of-influence subgraph of the Delaunay triangulation.

    Around each point draw a circle whose radius is the distance to its
    nearest neighbour; an edge survives iff the two circles intersect at
    least twice, i.e. d(x, y) < d_x + d_y strictly (tangency is a single
    intersection and does not count).  The radius is the shortest of each
    point's Delaunay edges: a nearest neighbour is always a Delaunay
    neighbour, as the disc on that pair as diameter holds no other point.
    """
    def drop(xy, i, j, *_):
        d = np.sqrt(_sq_dist(xy, i, j))
        radius = np.full(len(xy), np.inf)
        np.minimum.at(radius, np.concatenate([i, j]), np.concatenate([d, d]))
        return np.flatnonzero(d >= radius[i] + radius[j])

    return _delaunay_subgraph(points, "sphere-of-influence graph", drop)


def derive_relative(points: Sequence[GeoPoint]) -> Graph:
    """Relative-neighbourhood subgraph of the Delaunay triangulation.

    Keeps edge (x, y) iff d(x, y) <= max(d(x, z), d(y, z)) for every other
    point z; contained in the Gabriel graph by the condition itself
    (Toussaint, Pattern Recognition 12, 1980).  Each edge its opposite
    vertices leave is tested against the points a kd-tree finds within
    d(x, y) of x: any point further away has d(x, z) > d(x, y) and cannot
    remove the edge.
    """
    def beats(xy, i, j, z):
        return np.sqrt(_sq_dist(xy, i, j)) > np.sqrt(
            np.maximum(_sq_dist(xy, i, z), _sq_dist(xy, j, z)))

    drop = functools.partial(_drop_beaten, beats)
    return _delaunay_subgraph(points, "relative neighbourhood graph", drop)


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
    index = {lbl: i for i, lbl in enumerate(labels)}
    pairs = []
    for a, b in edges:
        for lbl in (a, b):
            if lbl not in index:
                raise InvalidInputError(f"unknown node label {lbl!r} in edge ({a!r}, {b!r})")
        pairs.append(sorted((index[a], index[b])))
    return Graph(labels, pairs)


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
    hub_idx = np.array([index[h] for h in sorted(set(hubs))])
    others = np.flatnonzero(~np.isin(np.arange(base.n), hub_idx))
    d = _pair_distances([by_id[lbl] for lbl in base.labels],
                        np.repeat(others, len(hub_idx)), np.tile(hub_idx, len(others)))
    # argmin keeps the first of tied hubs: the smallest label
    nearest = hub_idx[d.reshape(len(others), len(hub_idx)).argmin(axis=1)]
    spokes = np.sort(np.column_stack([others, nearest]), axis=1)
    return Graph(base.labels, np.concatenate([base.edge_array, spokes]))


def build_complete(labels: Sequence[str]) -> Graph:
    """Complete graph on the given labels (homogeneous mixing)."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise InvalidInputError("complete graph needs at least 2 nodes")
    return Graph(labels, np.column_stack(np.triu_indices(len(labels), 1)))


# ---------------------------------------------------------------------------
# Shortest paths and neighbourhood stages
# ---------------------------------------------------------------------------

# Bound on the uint64 words one neighbour gather holds (8 MiB).
_GATHER_WORDS = 1 << 20


def _bitsets(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """n rows of W = ceil(n / 64) uint64 words, with bit s % 64 of word
    s // 64 set in row rows[k] for s = cols[k]."""
    mask = np.zeros((n, -(-n // 64) * 64), dtype=bool)
    mask[rows, cols] = True
    return np.packbits(mask, axis=1, bitorder="little").view("<u8")


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _bfs_levels(n: int, edges: np.ndarray, r_max: Optional[int] = None):
    """Breadth-first search from every source at once, for at most ``r_max``
    steps when given: yields (frontier, unreached) at levels r = 0, 1, ...,
    each n rows of ceil(n / 64) uint64 words, where bit s of
    ``frontier[v]`` is set when v is exactly r hops from source s and bit s
    of ``unreached[v]`` when v is further (bits s >= n are padding).  The
    next step updates both in place, so read them before asking; after the
    last step ``unreached`` holds the pairs never reached.

    The next frontier of v is the OR of its neighbours' rows, one
    ``bitwise_or.reduceat`` over the neighbour lists, less the sources that
    reached v before (multi-source BFS on bitsets; Then et al. 2014, PVLDB
    8(4))."""
    # each node's list also holds row n, which stays zero: reduceat cannot
    # reduce an empty segment, and an isolated node's list would be one
    loops = np.column_stack([np.full(n, n), np.arange(n)])
    u, v = np.concatenate([edges, edges[:, ::-1], loops]).T
    nbr = u[np.argsort(v, kind="stable")]  # grouped by v
    starts = np.concatenate([[0], np.cumsum(np.bincount(v, minlength=n))[:-1]])
    frontier = _bitsets(n + 1, np.arange(n), np.arange(n))
    nxt, unreached = frontier[:n], ~frontier[:n]
    block = max(1, _GATHER_WORDS // max(len(nbr), 1))
    for r in itertools.count():
        yield nxt, unreached
        if not n or r == r_max:
            return
        # word blocks bound the gather; it is a copy, so the next frontier
        # may overwrite this one block by block
        for w in range(0, frontier.shape[1], block):
            np.bitwise_or.reduceat(frontier[nbr, w:w + block], starts, axis=0,
                                   out=frontier[:n, w:w + block])
        nxt &= unreached
        if not nxt.any():
            return
        unreached ^= nxt


def _hop_matrix(n: int, edges: np.ndarray, r_max: Optional[int] = None) -> np.ndarray:
    """Hop counts by :func:`_bfs_levels`, for at most ``r_max`` steps when
    given, in the smallest integer type that holds n; pairs not reached
    hold n.  A pair's hop count is the number of levels before the last it
    is still unreached after; at level r >= 1, those unreached after level
    r - 1 are ``unreached | frontier``."""
    count = np.zeros((n, n), dtype=np.min_scalar_type(n))
    for r, (frontier, unreached) in enumerate(_bfs_levels(n, edges, r_max)):
        if r:
            count += _unpack(unreached | frontier, n)
    count[_unpack(unreached, n)] = n
    return count


def _hops(g: Graph, r_max: int) -> np.ndarray:
    """``g``'s hop distances up to ``r_max`` hops, inf beyond, as a new array.
    The graph keeps the deepest :func:`_hop_matrix` computed, read-only.  A
    shallower request masks it, which equals the shallower search, and a
    deeper one replaces it."""
    depth, counts = g.__dict__.get("_hops", (-math.inf, None))
    if r_max > depth:
        counts = _hop_matrix(g.n, g.edge_array, r_max)
        counts.flags.writeable = False
        g.__dict__["_hops"] = r_max, counts
    hops = counts.astype(float)
    hops[counts > min(r_max, g.n - 1)] = np.inf    # n, where not reached, too
    return hops


def stage_neighbourhoods(g: Graph, r_max: int) -> StageNeighbourhoods:
    """Neighbourhood shells per node: N^(r)(i) = nodes at SPL exactly r."""
    _check_integer("r_max", r_max)
    if r_max < 1:
        raise InvalidInputError("r_max must be >= 1")
    return StageNeighbourhoods(r_max=r_max, hops=_hops(g, r_max))


def shortest_path_lengths(g: Graph) -> np.ndarray:
    """All-pairs shortest path lengths in hops; np.inf for unreachable."""
    return _hops(g, g.n - 1)    # no path is longer


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _avg_spl_and_disconnected(levels: list[int]) -> tuple[float, float]:
    """Mean hop count over the connected ordered pairs and the share of pairs
    not connected, given ``levels[r]``, the number of ordered pairs r hops
    apart (``levels[0]`` = n, each node with itself).  The sums are exact
    integers, so the mean is the correctly rounded one, as numpy's over the
    hop matrix."""
    n, reached = levels[0], sum(levels[1:])
    hop_sum = sum(r * c for r, c in enumerate(levels))
    return hop_sum / reached if reached else math.nan, 1.0 - reached / (n * (n - 1))


_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount_table(words: np.ndarray) -> np.ndarray:
    """Set bits of each byte of ``words``; its row sums are those of
    ``np.bitwise_count``, which numpy < 2 lacks."""
    return _BYTE_BITS[words.view(np.uint8)]


_popcount = getattr(np, "bitwise_count", _popcount_table)


def _avg_local_clustering(n: int, edges: np.ndarray) -> float:
    """Mean local clustering; nodes of degree < 2 contribute 0.  Edge (i, j)
    closes a triangle with each common neighbour of i and j, so these counts,
    summed over i's edges, are twice the links among i's neighbours.  The
    per-node values are summed in node order."""
    adj = _bitsets(n, *np.concatenate([edges, edges[:, ::-1]]).T)
    common = np.zeros(len(edges))
    step = max(1, _GATHER_WORDS // adj.shape[1])
    for e in range(0, len(edges), step):
        i, j = edges[e:e + step].T
        common[e:e + step] = _popcount(adj[i] & adj[j]).sum(axis=1)
    k = np.bincount(edges.ravel(), minlength=n).astype(float)
    links2 = np.bincount(edges.ravel(), weights=np.repeat(common, 2), minlength=n)
    local = np.divide(links2, k * (k - 1), out=np.zeros(n), where=k >= 2)
    return sum(local.tolist()) / n


def _sample_gnm(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Edge array of a uniform G(n, m): m distinct edges chosen without
    replacement from the pairs i < j in row-major order."""
    picks = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2  # position of pair (i, i + 1)
    i = np.searchsorted(first, picks, side="right") - 1
    return np.column_stack([i, picks - first[i] + i + 1])


def network_summary(g: Graph, brg_samples: int = 100, seed: int = 0) -> NetworkSummary:
    """Degree / SPL / clustering summary with a G(n, m) baseline.

    The baseline draws ``brg_samples`` uniform random graphs with the same
    node and edge count using a generator seeded with ``seed``; results are
    bit-reproducible for a fixed seed.  Average SPL is taken over connected
    ordered pairs only, with the disconnected fraction reported; it is NaN
    when no pair is connected (for the baseline: in no sample).  A sample
    forms no hop matrix: its ordered pairs r hops apart are the set bits of
    the BFS frontier at level r, so its hop sum is the sum of
    r * popcount(frontier) over the levels.
    """
    _check_integer("brg_samples", brg_samples)
    if brg_samples < 1:
        raise InvalidInputError("brg_samples must be >= 1")
    _check_seed(seed)
    n, m = g.n, g.n_edges
    if n < 2:
        raise InvalidInputError(f"network summary needs at least 2 nodes, got {n}")
    spl = shortest_path_lengths(g)
    avg_spl, disc = _avg_spl_and_disconnected(np.bincount(spl[spl < n].astype(np.intp)).tolist())
    clust = _avg_local_clustering(n, g.edge_array)

    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(brg_samples):
        sample = _sample_gnm(n, m, rng)
        levels = [int(_popcount(frontier).sum()) for frontier, _ in _bfs_levels(n, sample)]
        stats.append((*_avg_spl_and_disconnected(levels), _avg_local_clustering(n, sample)))
    spls, discs, clusts = zip(*stats)
    return NetworkSummary(
        avg_degree=2.0 * m / n,
        avg_spl=avg_spl,
        avg_local_clustering=clust,
        disconnected_pair_fraction=disc,
        brg_avg_spl=float(np.nanmean(spls)) if m else math.nan,
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
    def point(row, col):
        pop = row[col["population"]] if "population" in col else ""
        return GeoPoint(node_id=row[col["node"]], lat_deg=float(row[col["lat"]]),
                        lon_deg=float(row[col["lon"]]),
                        population=float(pop) if pop else None)

    _, blocks = _read_csv(stream, "header node,lat,lon[,population]",
                          lambda header: {"node", "lat", "lon"}.issubset(header), _by_row(point))
    points = sorted(itertools.chain.from_iterable(blocks), key=lambda p: p.node_id)
    _check_points(points)
    return points


def read_edgelist_csv(stream) -> list[tuple[str, str]]:
    """Read undirected edges from CSV with header ``from,to``."""
    _, blocks = _read_csv(stream, "header from,to", lambda header: {"from", "to"}.issubset(header),
                          _by_row(lambda row, col: (row[col["from"]], row[col["to"]])))
    return list(itertools.chain.from_iterable(blocks))


def write_graph_json(g: Graph, path, meta: Optional[dict] = None) -> None:
    """Write a graph as JSON, atomically; optional metadata goes under key
    ``meta``."""
    obj = g.to_json()
    if meta:
        obj["meta"] = meta
    _write_json(path, obj)


def read_graph_json(path) -> Graph:
    return _read_json(path, Graph.from_json,
                      "a graph JSON with 'labels' and 'edges' lists")
