"""Fixed-resolution voxel grids over feature point sets.

Each occupied voxel stores the mean vector of the largest semantic cluster of
its contained points, and only these visible voxels emit visual tokens. A grid
stores just them (sorted flat indices and feature rows), so building, merging
and reading it cost what a frame touches, not the room; dense arrays are views.

Clustering is connected components of the mutual k-nearest-neighbor graph
built on the semantic block of each point vector (the trailing 3 entries are
normalized coordinates and are excluded from distances: points sharing a
voxel are already spatially co-located, so the graph separates points by what
they are, not where they sit).

Determinism rules, pinned so independent implementations agree bit-exactly:
the neighbor set includes every point tied at the k-th smallest distance (so
identical points always form one component, with no arbitrary tie choice),
the largest-cluster tie breaks toward the smallest member index, and cluster
means are correctly rounded per-column sums (math.fsum) over the members
divided by their count, which makes the feature bits independent of input
point order.

`voxelize` makes one pass over the points sorted by voxel, in blocks of whole
voxels. One bit compare of adjacent rows finds the columns each voxel varies
in. Only voxels with two or more distinct semantic rows call `cluster_voxel`,
and their largest cluster stands in for their points. Then one segmented rule
gives every mean: a (voxel, column) of n copies of x sums to fl(n * x), or to
fsum([x]) for a zero (fsum's sign rule, not n * x's); any other is fsum over
its slice. So fsum is the only summation, and the bits are fsum(col) / n.

Inside `cluster_voxel`, bit-identical semantic rows form one class a with
count c_a, and the graph is built over the u classes: the radius of class a
is the k'-th smallest of (c_a - 1) zeros plus c_b copies of d(a, b) for every
other class b, which is exactly the k'-th nearest distance of any of a's
points, and classes a and b are joined iff d(a, b) <= min(radius_a,
radius_b). Every point of a class lands in the class's component. Squared
distances are (a - b).(a - b) as in the brute-force oracle, so equal rows are
exactly 0 apart and tie decisions agree bit for bit. A voxel with a few
objects' rows over hundreds of points then costs O(u^2), not O(M^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError

# Element budget of one block of row differences in _row_distances (8 MB).
_DIFF_BLOCK = 1 << 20
# voxelize works on blocks of whole voxels of about this many points (bounded memory).
_BLOCK_POINTS = 2048


def _check_resolution(resolution) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ConfigError(f"resolution must be finite and positive, got {resolution}")


@dataclass(frozen=True)
class GridLayout:
    origin: np.ndarray  # 3-vector, componentwise multiple of resolution
    resolution: float  # voxel edge length in meters
    dims: tuple[int, int, int]

    def __post_init__(self):
        _check_resolution(self.resolution)
        if any(not d >= 1 for d in self.dims):
            raise ConfigError(f"grid dims must be >= 1, got {self.dims}")
        # flat voxel indices (i*Y + j)*Z + k are int64, and voxelize sorts on them
        if any(math.isinf(d) for d in self.dims) or math.prod(int(d) for d in self.dims) >= 2**63:
            shape = " x ".join(f"{d:.4g}" for d in self.dims)
            raise ConfigError(f"resolution {self.resolution} gives a {shape} grid, more voxels "
                              "than int64 indices can number")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def box_min(self) -> np.ndarray:
        return self.origin

    @property
    def box_max(self) -> np.ndarray:
        return self.origin + np.array(self.dims, dtype=np.float64) * self.resolution

    @property
    def n_voxels(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def cells(self, points: np.ndarray) -> np.ndarray:
        """Each point's voxel index triple floor((p - origin)/r), as floats."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return np.floor((pts - self.origin) / self.resolution)

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's voxel index triple (`cells` as int64), and whether
        that voxel lies in the grid (0 <= idx < dims on every axis)."""
        idx = self.cells(points).astype(np.int64)
        return idx, np.all((idx >= 0) & (idx < self.dims), axis=1)


@dataclass(frozen=True)
class VoxelClusterConfig:
    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True, init=False)
class VoxelGrid:
    """A layout's visible voxels. Built from dense arrays whose invisible voxels
    hold +0.0 bits only, or by `from_rows` from sorted flat indices and rows.
    `features` (+0.0 where invisible) and `visibility` are fresh read-only
    X x Y x Z (x D+3) arrays on each access."""

    layout: GridLayout
    index: np.ndarray  # K int64 flat voxel indices, strictly increasing
    rows: np.ndarray  # K x (D+3) features of those voxels

    def __init__(self, layout: GridLayout, features, visibility):
        feats = np.asarray(features, dtype=np.float64)
        vis = np.asarray(visibility, dtype=bool)
        if feats.ndim != 4 or feats.shape[:3] != layout.dims or vis.shape != layout.dims:
            raise ConfigError("grid array shapes do not match layout dims")
        flat_feats, flat_vis = feats.reshape(-1, feats.shape[3]), vis.reshape(-1)
        if flat_feats[~flat_vis].view(np.uint64).any():
            raise ConfigError("invisible voxels must store exact zero features")
        self._store(layout, np.flatnonzero(flat_vis), flat_feats[flat_vis])

    @classmethod
    def from_rows(cls, layout: GridLayout, index, rows) -> "VoxelGrid":
        grid = cls.__new__(cls)
        grid._store(layout, np.asarray(index, dtype=np.int64), np.asarray(rows, dtype=np.float64))
        return grid

    def _store(self, layout: GridLayout, index: np.ndarray, rows: np.ndarray) -> None:
        if rows.ndim != 2 or index.shape != rows.shape[:1]:
            raise ConfigError(f"{index.shape} voxel indices do not pair with {rows.shape} rows")
        if index.size and (index[0] < 0 or index[-1] >= layout.n_voxels
                           or np.any(index[1:] <= index[:-1])):
            raise ConfigError("voxel indices must be strictly increasing within the layout")
        if not np.all(np.isfinite(rows)):
            raise ConfigError("visible voxel features must be finite")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "rows", rows)

    @property
    def feature_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_visible(self) -> int:
        return len(self.index)

    @property
    def features(self) -> np.ndarray:
        dense = np.zeros((self.layout.n_voxels, self.feature_dim))
        dense[self.index] = self.rows
        dense.flags.writeable = False
        return dense.reshape(self.layout.dims + (self.feature_dim,))

    @property
    def visibility(self) -> np.ndarray:
        dense = np.zeros(self.layout.n_voxels, dtype=bool)
        dense[self.index] = True
        dense.flags.writeable = False
        return dense.reshape(self.layout.dims)


def _snap_down(lo: np.ndarray, r: float) -> np.ndarray:
    """The largest multiple of r at or below lo: floor(lo/r)*r can round above lo."""
    n = np.floor(lo / r)
    return (n - (n * r > lo)) * r


def grid_layout(points: np.ndarray, resolution: float, explicit_bounds=None) -> GridLayout:
    """Lay out a grid of half-open voxels [origin + i*r, origin + (i+1)*r).

    The origin is the largest multiple of the resolution at or below the
    minimum. With auto bounds the dims are floor((max - origin)/r) + 1 per
    axis, which matches ceil((max - origin)/r) except when the span is an
    exact multiple of r; the extra voxel there keeps the max point inside the
    half-open range. An auto layout therefore contains every point it was
    built from: `locate` reports all of them inside. Explicit bounds keep
    [min, max) on each axis, so points at the max may fall outside.
    """
    _check_resolution(resolution)
    r = float(resolution)
    if explicit_bounds is not None:
        box_min = np.asarray(explicit_bounds[0], dtype=np.float64).reshape(3)
        box_max = np.asarray(explicit_bounds[1], dtype=np.float64).reshape(3)
        if np.any(box_max < box_min):
            raise ConfigError("explicit bounds have max < min")
        origin = _snap_down(box_min, r)
        dims = np.maximum(np.ceil((box_max - origin) / r), 1)
        return GridLayout(origin, r, tuple(dims.tolist()))
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInputError("grid_layout needs points or explicit bounds")
    origin = _snap_down(pts.min(axis=0), r)
    # the max point's own cell, by the rule every later placement uses
    top = GridLayout(origin, r, (1, 1, 1)).cells(pts.max(axis=0))[0]
    return GridLayout(origin, r, tuple((top + 1).tolist()))


def semantic_block(vectors: np.ndarray) -> np.ndarray:
    """The feature part of (D+3) point vectors: everything but the trailing coords."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[1] < 4:
        raise ConfigError(f"point vectors must be N x (D+3) with D >= 1, got {vectors.shape}")
    return vectors[:, :-3]


def _row_distances(rows: np.ndarray) -> np.ndarray:
    """Squared distances as (a-b).(a-b), the oracle's expression: equal rows are
    exactly 0 apart, and each entry has the bits of a 1-D `diff @ diff`.
    Computed in row blocks so the difference tensor stays small."""
    u, d = rows.shape
    d2 = np.empty((u, u))
    step = max(1, _DIFF_BLOCK // (u * d))
    for s in range(0, u, step):
        diff = rows[s:s + step, None, :] - rows[None, :, :]
        d2[s:s + step] = np.vecdot(diff, diff)
    return d2


def _row_radii(d2: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Each distinct row's k-th smallest distance to the voxel's other points.

    For row a that is the k-th smallest of (counts[a] - 1) zeros and
    counts[b] copies of d2[a, b] for every other row b. No group needs more
    than k + 1 copies for that (one of row a's own is itself, set to inf), so
    with all rows distinct this is a plain partition of d2 with an inf
    diagonal.
    """
    copies = np.minimum(counts, k + 1)
    expanded = d2[:, np.repeat(np.arange(len(counts)), copies)]
    expanded[np.arange(len(counts)), np.cumsum(copies) - copies] = np.inf
    return np.partition(expanded, k - 1, axis=1)[:, k - 1]


def _component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of a symmetric boolean graph.

    Min-label propagation with pointer jumping: a label is always a node of
    the same component, no larger than the node, so the labels only fall; at
    the fixed point both ends of every edge carry the same label.
    """
    n = adjacency.shape[0]
    labels = np.arange(n)
    while True:
        step = np.minimum(labels, np.where(adjacency, labels, n).min(axis=1))
        step = step[step]
        if np.array_equal(step, labels):
            return labels
        labels = step


def cluster_voxel(point_vectors: np.ndarray, cfg: VoxelClusterConfig) -> list[list[int]]:
    """Cluster one voxel's points: connected components of the mutual-kNN graph.

    Distances are Euclidean over the semantic block only. With M points the
    effective neighbor count is k' = min(k, M-1), and the neighbor set includes
    every point tied at the k'-th smallest distance, so coincident points never
    fragment. The graph is built over the voxel's distinct rows (see the module
    docstring). Components come back sorted by (size desc, smallest member
    asc), members ascending.
    """
    vectors = np.asarray(point_vectors, dtype=np.float64)
    m = vectors.shape[0]
    if m == 0:
        raise EmptyInputError("cluster_voxel needs at least one point")
    if m == 1:
        return [[0]]
    feats = np.ascontiguousarray(semantic_block(vectors))
    # Sorting the rows by their raw bytes makes bit-identical rows adjacent.
    keys = feats.view(np.dtype((np.void, feats[0].nbytes))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    bounds = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    if bounds.size == 0:
        return [list(range(m))]
    bounds = np.concatenate(([0], bounds, [m]))
    counts = np.diff(bounds)
    d2 = _row_distances(feats[order[bounds[:-1]]])
    radius = _row_radii(d2, counts, min(cfg.k, m - 1))
    mutual = (d2 <= radius[:, None]) & (d2 <= radius[None, :])
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.repeat(_component_labels(mutual), counts)
    members = np.argsort(labels, kind="stable")  # stable: members stay ascending
    splits = np.flatnonzero(np.diff(labels[members])) + 1
    components = [c.tolist() for c in np.split(members, splits)]
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def _varied_columns(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """S x C: does column c change bits in rows[starts[j]:starts[j+1]] (-0.0 != 0.0)."""
    bits = rows.view(np.uint64)
    changed = np.empty(rows.shape, dtype=bool)
    changed[0] = False
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    changed[starts] = False  # a segment's first row changes nothing
    return np.logical_or.reduceat(changed, starts, axis=0)


def _segment_means(rows: np.ndarray, starts: np.ndarray, varied: np.ndarray) -> np.ndarray:
    """Column means of each segment (see _varied_columns) by the segmented
    rule of the module docstring: the bits of per-segment fsum(column) / n."""
    counts = np.diff(starts, append=rows.shape[0])
    first = rows[starts]
    sums = first * counts[:, None]
    zero = first == 0.0
    sums[zero] = np.where(np.signbit(first[zero]), math.fsum([-0.0]), math.fsum([0.0]))
    bounds = np.append(starts, rows.shape[0]).tolist()
    for c in np.flatnonzero(varied.any(axis=0)).tolist():
        col = memoryview(np.ascontiguousarray(rows[:, c]))  # slices yield floats, no list
        segs = np.flatnonzero(varied[:, c]).tolist()
        sums[segs, c] = [math.fsum(col[bounds[j]:bounds[j + 1]]) for j in segs]
    return sums / counts[:, None]


def exact_mean(rows: np.ndarray) -> np.ndarray:
    """Correctly-rounded column means: the bits of fsum(column) / n, so they
    do not depend on row order."""
    rows = np.asarray(rows, dtype=np.float64)
    one = np.zeros(1, dtype=np.int64)
    return _segment_means(rows, one, _varied_columns(rows, one))[0]


def _block_means(rows: np.ndarray, starts: np.ndarray, cfg: VoxelClusterConfig) -> np.ndarray:
    """Features of whole voxels: rows sorted by voxel (index-ascending within
    one), starts their first rows. Voxels of 2+ distinct semantic rows cluster."""
    varied = _varied_columns(rows, starts)
    multi = np.flatnonzero(semantic_block(varied).any(axis=1))
    if multi.size:
        ends = np.append(starts[1:], rows.shape[0])
        keep = np.ones(rows.shape[0], dtype=bool)
        for s, e in zip(starts[multi].tolist(), ends[multi].tolist()):
            keep[s:e] = False
            keep[s + np.asarray(cluster_voxel(rows[s:e], cfg)[0])] = True
        starts = (np.cumsum(keep) - keep)[starts]  # kept rows ahead of each voxel
        rows = rows[keep]
        varied = _varied_columns(rows, starts)
    return _segment_means(rows, starts, varied)


def voxelize(
    positions: np.ndarray,
    vectors: np.ndarray,
    layout: GridLayout,
    cfg: VoxelClusterConfig,
) -> VoxelGrid:
    """Build the feature grid: per occupied voxel, mean of the largest cluster.

    Points outside the layout are dropped with one UserWarning counting them
    ("dropped N of M points outside the grid layout"); the layout never grows,
    so a frame fused into a frozen scene grid keeps the scene's shape. Only
    touched voxels get a row; the dense views show others as 0.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    vectors = np.asarray(vectors, dtype=np.float64)
    semantic_block(vectors)  # N x (D+3) with D >= 1
    if vectors.shape[0] != positions.shape[0]:
        raise ConfigError("positions and point vectors disagree on count")
    n = positions.shape[0]
    idx, inside = layout.locate(positions)
    kept_ids = np.flatnonzero(inside)
    if kept_ids.size < n:
        warnings.warn(f"dropped {n - kept_ids.size} of {n} points outside the grid layout",
                      stacklevel=2)
        idx = idx[kept_ids]
    flat = (idx[:, 0] * layout.dims[1] + idx[:, 1]) * layout.dims[2] + idx[:, 2]
    order = np.argsort(flat, kind="stable")  # stable: members stay index-ascending
    flat_sorted = flat[order]
    starts = np.flatnonzero(np.diff(flat_sorted, prepend=-1))
    point_ids = kept_ids[order]
    bounds = np.append(starts, point_ids.size)
    rows = np.empty((starts.size, vectors.shape[1]))
    v = 0
    while v < starts.size:  # blocks of whole voxels, about _BLOCK_POINTS points each
        w = max(v + 1, int(np.searchsorted(bounds, bounds[v] + _BLOCK_POINTS, side="right")) - 1)
        block = vectors[point_ids[bounds[v]:bounds[w]]]
        rows[v:w] = _block_means(block, starts[v:w] - bounds[v], cfg)
        v = w
    return VoxelGrid.from_rows(layout, flat_sorted[starts], rows)


def token_matrix(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    """One visual token per visible voxel, in lexicographic voxel order:
    (K x 3 voxel indices, K x (D+3) features: the grid's own rows, not a copy)."""
    coords = np.stack(np.unravel_index(grid.index, grid.layout.dims), axis=1)
    return coords, grid.rows
