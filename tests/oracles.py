"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the library's code paths: distances come from
explicit Python loops over a full pairwise matrix, components from
union-find, voxel membership from per-point floor arithmetic. The shared
conventions (pinned by the voxelizer's contract) are: neighbor sets include
all ties at the k-th smallest distance, and cluster means are the correctly
rounded per-column sums (math.fsum) over index-sorted members.

`full_image_render` is the other kind of oracle: the renderer's slab test run
on every pixel for every box, with no screen-window culling, so a culled
renderer must match it byte for byte. `quadratic_split_heldout` is the
held-out selection done the direct way: for each candidate, rebuild the set
of answer words left in training and test the candidate's words against it.
`dense_merge` is the masked scene update on dense arrays: a select that takes
the frame's features where the frame sees, and the OR of the visibilities.
"""

import math

import numpy as np

from scenefusion.worldsim import COLOR_TABLE


def brute_layout(points, r):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    origin = np.empty(3)
    for a in range(3):  # the largest multiple of r at or below lo
        n = math.floor(lo[a] / r)
        while n * r > lo[a]:
            n -= 1
        origin[a] = n * r
    dims = tuple(int(np.floor((hi[a] - origin[a]) / r)) + 1 for a in range(3))
    return origin, dims


def brute_assign(points, origin, r):
    return [tuple(int(np.floor((p[a] - origin[a]) / r)) for a in range(3)) for p in points]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def brute_clusters(feats, k):
    """Connected components of the mutual-kNN graph, exhaustively.

    feats: M x D semantic block only. A point's neighbors are everything
    whose squared distance is <= its k'-th smallest (k' = min(k, M-1)),
    so distance ties are all included; self excluded.
    """
    m = len(feats)
    if m == 1:
        return [[0]]
    kk = min(k, m - 1)
    d2 = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            diff = feats[i] - feats[j]
            d2[i, j] = float(diff @ diff)
    knn = []
    for i in range(m):
        ranked = sorted(d2[i, j] for j in range(m) if j != i)
        radius = ranked[kk - 1]
        knn.append({j for j in range(m) if j != i and d2[i, j] <= radius})
    uf = _UnionFind(m)
    for i in range(m):
        for j in knn[i]:
            if i in knn[j]:
                uf.union(i, j)
    comps = {}
    for i in range(m):
        comps.setdefault(uf.find(i), []).append(i)
    out = [sorted(c) for c in comps.values()]
    out.sort(key=lambda c: (-len(c), c[0]))
    return out


def brute_voxelize(positions, vectors, origin, dims, r, k):
    """Exhaustive reference voxelization: per-voxel mutual-kNN components,
    largest component's mean with index-sorted np.add.reduce summation."""
    feat_dim = vectors.shape[1]
    features = np.zeros(dims + (feat_dim,))
    visibility = np.zeros(dims, dtype=bool)
    cells = {}
    for i, p in enumerate(positions):
        idx = tuple(int(np.floor((p[a] - origin[a]) / r)) for a in range(3))
        cells.setdefault(idx, []).append(i)
    sem = vectors[:, :-3]
    for idx, members in cells.items():
        comps = brute_clusters(sem[members], k)
        largest = [members[i] for i in comps[0]]
        cols = [math.fsum(vectors[i, j] for i in largest) for j in range(feat_dim)]
        features[idx] = np.array(cols) / len(largest)
        visibility[idx] = True
    return features, visibility


def full_image_render(world, intr, pose):
    """Nearest slab-test hit of every pixel ray against every box.

    Returns (depth, valid, features, colors, object_ids) with the renderer's
    conventions: misses have depth 0, zero features and colors, and id -1.
    """
    h, w = intr.height, intr.width
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    dirs_cam = np.stack(
        [(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy, np.ones((h, w))], axis=-1
    ).reshape(-1, 3)
    dirs = dirs_cam @ pose.rotation.T
    d_safe = [np.where(d == 0.0, 1e-300, d) for d in np.ascontiguousarray(dirs.T)]
    origin = pose.translation
    best_t = np.full(h * w, np.inf)
    best = np.full(h * w, -1, dtype=np.int64)
    for i, obj in enumerate(world.objects):
        if obj.held:
            continue
        lo = obj.box_min - origin
        hi = obj.box_max - origin
        tmin, tmax = -np.inf, np.inf
        for a in range(3):
            t1 = lo[a] / d_safe[a]
            t2 = hi[a] / d_safe[a]
            tmin = np.maximum(tmin, np.minimum(t1, t2))
            tmax = np.minimum(tmax, np.maximum(t1, t2))
        t_hit = np.where(tmin > 1e-9, tmin, tmax)
        closer = (tmax >= tmin) & (t_hit > 1e-9) & (t_hit < best_t)
        best_t[closer] = t_hit[closer]
        best[closer] = i
    n_obj = len(world.objects)
    feat_table = np.zeros((n_obj + 1, world.feature_dim))
    color_table = np.zeros((n_obj + 1, 3))
    id_table = np.full(n_obj + 1, -1, dtype=np.int64)
    for i, obj in enumerate(world.objects):
        feat_table[i] = np.concatenate([world.category_embeddings[obj.category],
                                        COLOR_TABLE[obj.color]])
        color_table[i] = COLOR_TABLE[obj.color]
        id_table[i] = obj.oid
    depth = np.where(np.isfinite(best_t), best_t, 0.0).reshape(h, w)
    return (depth, (best >= 0).reshape(h, w), feat_table[best].reshape(h, w, -1),
            color_table[best].reshape(h, w, 3), id_table[best].reshape(h, w))


def quadratic_split_heldout(scene_records, n_heldout, seed):
    """{record index: "train" | "heldout"}, checking every candidate against
    the answer words of all records outside the trial held-out set."""
    rng = np.random.default_rng(seed)
    eligible_kinds = {"qa_existence", "qa_negation", "qa_counting"}
    order = rng.permutation(len(scene_records))
    split = {i: "train" for i in range(len(scene_records))}
    chosen = []
    for i in map(int, order):
        if len(chosen) >= n_heldout:
            break
        if scene_records[i].record_kind not in eligible_kinds:
            continue
        trial = set(chosen) | {i}
        train_answers = set()
        for j, r in enumerate(scene_records):
            if j not in trial:
                train_answers.update(r.answer.lower().split())
        if set(scene_records[i].answer.lower().split()) <= train_answers:
            chosen.append(i)
    for i in chosen:
        split[i] = "heldout"
    return split


def dense_merge(scene_features, scene_visibility, frame_features, frame_visibility):
    """The hard-mask merge on dense X x Y x Z (x D) arrays: (features, visibility)."""
    features = np.where(frame_visibility[..., None], frame_features, scene_features)
    return features, scene_visibility | frame_visibility
