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
`full_backward` is the transformer's backward pass as one pass that computes
every gradient, with its own GELU, layer-norm and projection helpers; the
stage-aware backward must return the same bits for every key it returns.
`numpy_look_at` is the camera frame built from `np.cross`, `np.linalg.norm`
and `np.stack`, which `look_at_pose` must match bit for bit.
"""

import math

import numpy as np
from scipy.special import erf

from scenefusion.worldsim import COLOR_TABLE


def numpy_look_at(eye, target, up=(0.0, 0.0, 1.0)):
    """(rotation, translation) of the camera at `eye` looking at `target`,
    from numpy's vector routines; None when eye and target coincide."""
    eye = np.asarray(eye, dtype=np.float64).reshape(3)
    fwd = np.asarray(target, dtype=np.float64).reshape(3) - eye
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        return None
    fwd = fwd / n
    right = np.cross(fwd, np.asarray(up, dtype=np.float64).reshape(3))
    if np.linalg.norm(right) < 1e-12:  # forward (anti)parallel to up
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    return np.stack([right, np.cross(fwd, right), fwd], axis=1), eye


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


# ---------------------------------------------------------------------------
# the transformer's one-pass backward, kept as the reference for the
# stage-aware one: same operations on the same operands, so every gradient
# must match bit for bit


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_formula(x):
    """Exact GELU as one expression."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad_formula(x):
    """d gelu / dx as one expression."""
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _project_backward(visual_tokens, params, dout):
    x = np.atleast_2d(np.asarray(visual_tokens, dtype=np.float64))
    dout = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    pre = x @ params["proj.w1"] + params["proj.b1"]
    hidden = gelu_formula(pre)
    dhidden = dout @ params["proj.w2"].T
    dpre = dhidden * gelu_grad_formula(pre)
    grads = {
        "proj.w2": hidden.T @ dout,
        "proj.b2": dout.sum(axis=0),
        "proj.w1": x.T @ dpre,
        "proj.b1": dpre.sum(axis=0),
    }
    return grads, dpre @ params["proj.w1"].T


def _ln_backward(dout, g, cache):
    xhat, rstd = cache
    axes = tuple(range(dout.ndim - 1))
    dg = np.sum(dout * xhat, axis=axes)
    db = np.sum(dout, axis=axes)
    dxhat = dout * g
    dx = rstd * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dg, db


def _split_heads(x, n_heads):
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def full_backward(params, cfg, batch, cache, dlogits):
    """Every gradient of the loss in one pass, with the helpers above: the
    reference for `align.model._backward`, which must give the same bits for
    every gradient it computes."""
    grads = {}
    xf = cache["xf"]
    b, t, _ = xf.shape

    def flat(arr):
        return arr.reshape(b * t, -1)

    grads["lm.head.w"] = flat(xf).T @ flat(dlogits)
    grads["lm.head.b"] = dlogits.sum(axis=(0, 1))
    dxf = dlogits @ params["lm.head.w"].T
    dx, dgf, dbf = _ln_backward(dxf, params["lm.ln_f.g"], cache["lnf"])
    grads["lm.ln_f.g"] = dgf
    grads["lm.ln_f.b"] = dbf

    scale = 1.0 / np.sqrt(cfg.head_dim)
    dist = np.maximum(np.subtract.outer(np.arange(t), np.arange(t)), 0)
    for l in reversed(range(cfg.n_layers)):
        p = f"lm.layers.{l}."
        c = cache["layers"][l]
        # MLP block: x = x_mid + gelu(a2 @ w1 + b1) @ w2 + b2
        dm = dx
        grads[p + "mlp.w2"] = flat(c["hg"]).T @ flat(dm)
        grads[p + "mlp.b2"] = dm.sum(axis=(0, 1))
        dhg = dm @ params[p + "mlp.w2"].T
        dh1 = dhg * gelu_grad_formula(c["h1"])
        grads[p + "mlp.w1"] = flat(c["a2"]).T @ flat(dh1)
        grads[p + "mlp.b1"] = dh1.sum(axis=(0, 1))
        da2 = dh1 @ params[p + "mlp.w1"].T
        dx_mid_ln, dg2, db2 = _ln_backward(da2, params[p + "ln2.g"], c["ln2"])
        grads[p + "ln2.g"] = dg2
        grads[p + "ln2.b"] = db2
        dx_mid = dx + dx_mid_ln
        # Attention block: x_mid = x_in + merge(att @ v) @ wo + bo
        dattn_out = dx_mid
        grads[p + "attn.wo"] = flat(c["ctx"]).T @ flat(dattn_out)
        grads[p + "attn.bo"] = dattn_out.sum(axis=(0, 1))
        dctx = _split_heads(dattn_out @ params[p + "attn.wo"].T, cfg.n_heads)
        att, q, k, v = c["att"], c["q"], c["k"], c["v"]
        datt = dctx @ v.transpose(0, 1, 3, 2)
        dv = att.transpose(0, 1, 3, 2) @ dctx
        dscores = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
        drel = np.zeros_like(params[p + "attn.rel"])
        dscores_heads = dscores.sum(axis=0)  # (nh, T, T)
        for hd in range(cfg.n_heads):
            np.add.at(drel[hd], dist.ravel(), dscores_heads[hd].ravel())
        grads[p + "attn.rel"] = drel
        draw = dscores * scale
        dq = draw @ k
        dk = draw.transpose(0, 1, 3, 2) @ q
        dqf, dkf, dvf = (_merge_heads(z) for z in (dq, dk, dv))
        a = c["a"]
        da = np.zeros_like(a)
        for name, dz in (("q", dqf), ("k", dkf), ("v", dvf)):
            grads[p + f"attn.w{name}"] = flat(a).T @ flat(dz)
            grads[p + f"attn.b{name}"] = dz.sum(axis=(0, 1))
            da += dz @ params[p + f"attn.w{name}"].T
        dx_in_ln, dg1, db1 = _ln_backward(da, params[p + "ln1.g"], c["ln1"])
        grads[p + "ln1.g"] = dg1
        grads[p + "ln1.b"] = db1
        dx = dx_mid + dx_in_ln

    # Input: x = scatter(embed, projected visuals) + pos
    grads["lm.pos"] = np.zeros_like(params["lm.pos"])
    grads["lm.pos"][:t] = dx.sum(axis=0)
    dembed = np.zeros_like(params["lm.embed"])
    text_mask = ~batch.visual_mask
    np.add.at(dembed, batch.tokens[text_mask], dx[text_mask])
    grads["lm.embed"] = dembed
    if batch.visuals.shape[0]:
        dvis_out = dx[batch.visual_mask]
        proj_grads, _ = _project_backward(batch.visuals, params, dvis_out)
        grads.update(proj_grads)
    else:
        for nm in ("proj.w1", "proj.b1", "proj.w2", "proj.b2"):
            grads[nm] = np.zeros_like(params[nm])
    return grads
