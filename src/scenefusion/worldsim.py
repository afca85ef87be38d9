"""Synthetic interactive rooms: axis-aligned box objects, raycast depth and
feature rendering, state-changing actions, and templated language data with
recomputed ground-truth answers.

Boxes are rendered by exact slab tests, so depths are analytically checkable
and every rendered feature vector is exactly one category embedding with the
object's color appended. Category embeddings are seeded random unit vectors
with a minimum-separation rejection rule and are derived from the category
pool (not the world seed), so the same category has the same embedding in
every world that shares a pool.

A box wholly in front of the camera is slab-tested only on its screen window:
the bounding rectangle of its projected corners, widened by 2 pixels on the
low side and 3 on the high side. A box wholly behind the camera is skipped,
and one that straddles the camera plane (some corner in front, some within
1e-6 of the plane or behind it) is tested on every pixel. Each tested pixel
computes the same elementwise expressions either way, so the rendered bits
equal those of a whole-image test.
"""

from __future__ import annotations

import functools
import json
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArtifactFormatError, ConfigError, GenerationError
from .geometry import CameraIntrinsics, DepthImage, Pose, look_at_pose
from .frame import FeatureImage

INTERACT_RADIUS = 0.75  # max xy distance for pick/toggle
GOTO_STANDOFF = 0.45  # how far from the target an object-goto stops
PLACE_RADIUS = 0.5  # ring radius around the agent for placing
NEAR_DISTANCE = 1.2  # "near" goal threshold between object centers
EYE_HEIGHT = 1.5  # camera height above the agent's ground position
_NEAR_PLANE = 1e-6  # boxes with a corner this close to the camera plane render unculled

COLOR_TABLE = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
    "purple": (0.6, 0.0, 0.8),
    "orange": (1.0, 0.55, 0.0),
    "cyan": (0.0, 0.9, 0.9),
    "white": (1.0, 1.0, 1.0),
}

DEFAULT_CATEGORIES = (
    "mug", "book", "lamp", "box", "can", "bottle", "plant", "toy",
    "cup", "bowl", "vase", "clock", "shoe",
)

RELATION_WORDS = ("left", "right", "front", "behind", "above", "below")

ACTION_VERBS = ("goto", "pick", "place", "toggle", "done")


def plural(category: str) -> str:
    return category + "es" if category.endswith(("x", "s")) else category + "s"


# ---------------------------------------------------------------------------
# world state


@dataclass(frozen=True)
class SimObject:
    oid: int
    category: str
    color: str
    center: np.ndarray  # 3-vector
    size: np.ndarray  # 3-vector edge lengths
    held: bool = False
    is_on: bool = False
    is_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=np.float64).reshape(3))

    @property
    def box_min(self) -> np.ndarray:
        return self.center - self.size / 2

    @property
    def box_max(self) -> np.ndarray:
        return self.center + self.size / 2

    @property
    def ref(self) -> str:
        return f"{self.color} {self.category}"


@dataclass(frozen=True)
class AgentState:
    position: np.ndarray  # ground position, z = 0
    look_at: np.ndarray  # world point the camera faces

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64).reshape(3))
        object.__setattr__(self, "look_at", np.asarray(self.look_at, dtype=np.float64).reshape(3))


@dataclass(frozen=True)
class WorldState:
    bounds_min: np.ndarray
    bounds_max: np.ndarray
    objects: tuple[SimObject, ...]
    agent: AgentState
    category_embeddings: dict[str, np.ndarray]  # category -> (D-3)-dim unit vector
    feature_dim: int  # rendered feature dim D = embedding + 3 color channels
    seed: int
    embed_seed: int
    categories_pool: tuple[str, ...]
    colors_pool: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "bounds_min", np.asarray(self.bounds_min, dtype=np.float64).reshape(3))
        object.__setattr__(self, "bounds_max", np.asarray(self.bounds_max, dtype=np.float64).reshape(3))

    @property
    def centroid(self) -> np.ndarray:
        return (self.bounds_min + self.bounds_max) / 2

    def object_by_id(self, oid: int) -> SimObject:
        for o in self.objects:
            if o.oid == oid:
                return o
        raise KeyError(f"no object with id {oid}")

    def feature_of(self, obj: SimObject) -> np.ndarray:
        emb = self.category_embeddings[obj.category]
        return np.concatenate([emb, np.array(COLOR_TABLE[obj.color])])


def build_category_embeddings(categories, dim: int, seed: int,
                              max_cos: float = 0.5) -> dict[str, np.ndarray]:
    """Seeded random unit vectors with enforced pairwise separation.

    When the pool fits inside the embedding dimension the vectors come from a
    random orthonormal frame (the separation rule's limit: pairwise cosine
    exactly zero, which keeps distinct categories from bleeding into each
    other in downstream feature matching). Larger pools fall back to
    rejection sampling under the max_cos bound. Embeddings depend only on
    (pool order, dim, seed), never on the world, so categories keep their
    identity across worlds.
    """
    if dim < 1:
        raise ConfigError("embedding dim must be >= 1")
    rng = np.random.default_rng(seed)
    categories = list(categories)
    if len(categories) <= dim:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return {cat: q[:, i].copy() for i, cat in enumerate(categories)}
    table: dict[str, np.ndarray] = {}
    for cat in categories:
        for _ in range(1000):
            v = rng.normal(size=dim)
            v = v / np.linalg.norm(v)
            if all(abs(float(v @ u)) < max_cos for u in table.values()):
                table[cat] = v
                break
        else:
            raise GenerationError(
                f"could not draw a separated embedding for {cat!r} (dim {dim} too small?)"
            )
    return table


@dataclass(frozen=True)
class WorldConfig:
    room_size: tuple[float, float, float] = (3.2, 3.2, 2.0)
    n_objects: int = 5
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    colors: tuple[str, ...] = tuple(COLOR_TABLE)
    feature_dim: int = 16
    embed_seed: int = 7
    min_size: float = 0.18
    max_size: float = 0.42
    min_gap: float = 0.2
    snap: float = 0.05  # placement lattice, keeps coordinate text vocab small


def _boxes_overlap(cmin, cmax, omin, omax, gap=0.0) -> bool:
    return bool(np.all(cmin - gap < omax) and np.all(cmax + gap > omin))


def gen_world(config: WorldConfig, seed: int) -> WorldState:
    """Deterministic random room: non-overlapping floor-standing boxes."""
    if config.n_objects < 0:
        raise ConfigError("object count must be >= 0")
    if config.feature_dim < 4:
        raise ConfigError("feature_dim must be >= 4 (embedding plus 3 color channels)")
    rng = np.random.default_rng(seed)
    bmin = np.zeros(3)
    bmax = np.asarray(config.room_size, dtype=np.float64)
    objects: list[SimObject] = []
    for oid in range(config.n_objects):
        cat = config.categories[int(rng.integers(len(config.categories)))]
        col = config.colors[int(rng.integers(len(config.colors)))]
        placed = False
        for _ in range(200):
            size = rng.uniform(config.min_size, config.max_size, size=3)
            size = np.round(size / config.snap) * config.snap
            cx = rng.uniform(bmin[0] + size[0] / 2 + 0.1, bmax[0] - size[0] / 2 - 0.1)
            cy = rng.uniform(bmin[1] + size[1] / 2 + 0.1, bmax[1] - size[1] / 2 - 0.1)
            center = np.array([cx, cy, 0.0])
            center[:2] = np.round(center[:2] / config.snap) * config.snap
            center[2] = size[2] / 2
            cand_min, cand_max = center - size / 2, center + size / 2
            if any(
                _boxes_overlap(cand_min, cand_max, o.box_min, o.box_max, config.min_gap)
                for o in objects
            ):
                continue
            objects.append(SimObject(oid, cat, col, center, size))
            placed = True
            break
        if not placed:
            raise GenerationError(f"could not place object {oid} after 200 attempts")
    agent_pos = np.array([bmin[0] + 0.35, bmin[1] + 0.35, 0.0])
    centroid = (bmin + bmax) / 2
    emb = build_category_embeddings(config.categories, config.feature_dim - 3, config.embed_seed)
    return WorldState(
        bounds_min=bmin,
        bounds_max=bmax,
        objects=tuple(objects),
        agent=AgentState(agent_pos, centroid),
        category_embeddings=emb,
        feature_dim=config.feature_dim,
        seed=seed,
        embed_seed=config.embed_seed,
        categories_pool=tuple(config.categories),
        colors_pool=tuple(config.colors),
    )


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True)
class RenderResult:
    depth: DepthImage
    features: FeatureImage
    colors: np.ndarray  # H x W x 3, zeros at misses
    object_ids: np.ndarray  # H x W, -1 at misses


# Which of box_min / box_max each of a box's 8 corners takes, per axis.
_CORNER_SIDES = np.array([[(c >> a) & 1 for a in range(3)] for c in range(8)], dtype=bool)


@functools.lru_cache(maxsize=8)
def _camera_rays(intr: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray direction of every pixel, row-major (H*W x 3), z = 1.

    Every view with the same intrinsics shares these; the array is read-only.
    """
    h, w = intr.height, intr.width
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    rays = np.stack(
        [(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy, np.ones((h, w))], axis=-1
    ).reshape(-1, 3)
    rays.flags.writeable = False
    return rays


def _screen_windows(lo: np.ndarray, hi: np.ndarray, intr: CameraIntrinsics,
                    rotation: np.ndarray) -> list:
    """Per box, the pixel rows and columns it can cover: None when it is
    behind the camera or projects wholly off the image, the whole image when
    it straddles the camera plane. lo and hi are n x 3 box corners minus the
    camera position."""
    corners = np.where(_CORNER_SIDES, hi[:, None, :], lo[:, None, :])
    cam = corners @ rotation  # n x 8 x 3, camera frame
    z = cam[..., 2]
    # (u, v) of every corner; used only for boxes wholly beyond the near plane
    uv = cam[..., :2] / np.maximum(z, _NEAR_PLANE)[..., None] * (intr.fx, intr.fy)
    uv += (intr.cx, intr.cy)
    first_px = np.floor(uv.min(axis=1)) - 2
    stop_px = np.ceil(uv.max(axis=1)) + 3
    h, w = intr.height, intr.width
    windows = []
    for z_lo, z_hi, (c0, r0), (c1, r1) in zip(z.min(axis=1).tolist(), z.max(axis=1).tolist(),
                                              first_px.tolist(), stop_px.tolist()):
        if z_hi <= 0.0:
            windows.append(None)
        elif z_lo <= _NEAR_PLANE:
            windows.append((slice(0, h), slice(0, w)))
        else:
            r0, r1 = max(int(r0), 0), min(int(r1), h)
            c0, c1 = max(int(c0), 0), min(int(c1), w)
            windows.append((slice(r0, r1), slice(c0, c1)) if r0 < r1 and c0 < c1 else None)
    return windows


def render(world: WorldState, intr: CameraIntrinsics, pose: Pose) -> RenderResult:
    """Raycast every pixel against the object boxes (nearest slab-test hit).

    Depth is the distance along the optical axis; the per-pixel feature is the
    hit object's category embedding with its RGB color appended; misses are
    invalid pixels (depth 0, zero feature and color, id -1). Held objects do
    not render. The feature image is the hit index + 1 into a table whose row
    0 is the miss's zero row and row i + 1 is world.objects[i]'s feature.

    Each box is slab-tested only on its screen window: the bounding rectangle
    of its 8 projected corners, widened to [floor(min) - 2, ceil(max) + 3) and
    clipped to the image. A box with every corner at camera depth <= 0 is
    skipped (no ray meets it at t > 1e-9), and a box with some corners in
    front and some within 1e-6 of the camera plane or behind it is tested on
    the whole image. Every tested pixel runs the same elementwise expressions
    as a whole-image test, so the output bits do not depend on the window.
    """
    h, w = intr.height, intr.width
    dirs = _camera_rays(intr) @ pose.rotation.T  # camera z has length 1, so t == depth
    if not dirs.all():  # an exact zero component would make the slab test 0/0
        dirs = np.where(dirs == 0.0, 1e-300, dirs)
    d_safe = dirs.reshape(h, w, 3)
    best_t = np.full((h, w), np.inf)
    best = np.full((h, w), -1, dtype=np.int64)  # index into world.objects; -1 is a miss
    shown = [i for i, obj in enumerate(world.objects) if not obj.held]
    los = np.array([world.objects[i].box_min for i in shown]).reshape(-1, 3) - pose.translation
    his = np.array([world.objects[i].box_max for i in shown]).reshape(-1, 3) - pose.translation
    windows = _screen_windows(los, his, intr, pose.rotation)
    for i, lo, hi, window in zip(shown, los, his, windows):
        if window is None:
            continue
        tmin, tmax = -np.inf, np.inf
        for a in range(3):
            d = d_safe[window + (a,)]
            t1 = lo[a] / d
            t2 = hi[a] / d
            tmin = np.maximum(tmin, np.minimum(t1, t2))
            tmax = np.minimum(tmax, np.maximum(t1, t2))
        t_hit = np.where(tmin > 1e-9, tmin, tmax)
        best_t_win = best_t[window]
        closer = (tmax >= tmin) & (t_hit > 1e-9) & (t_hit < best_t_win)
        best_t_win[closer] = t_hit[closer]
        best[window][closer] = i
    valid = best >= 0
    hit = np.flatnonzero(valid)
    hit_obj = best.reshape(-1)[hit]
    n_obj = len(world.objects)
    feat_table = np.zeros((n_obj + 1, world.feature_dim))  # row 0: a miss's zero feature
    color_table = np.zeros((n_obj, 3))
    for i, obj in enumerate(world.objects):
        feat_table[i + 1] = world.feature_of(obj)
        color_table[i] = COLOR_TABLE[obj.color]
    id_table = np.array([obj.oid for obj in world.objects], dtype=np.int64)
    depth_vals = np.zeros(h * w)
    depth_vals[hit] = best_t.reshape(-1)[hit]
    colors = np.zeros((h * w, 3))
    colors[hit] = color_table[hit_obj]
    obj_ids = np.full(h * w, -1, dtype=np.int64)
    obj_ids[hit] = id_table[hit_obj]
    return RenderResult(
        depth=DepthImage(depth_vals.reshape(h, w), valid),
        features=FeatureImage.from_table(best + 1, feat_table),
        colors=colors.reshape(h, w, 3),
        object_ids=obj_ids.reshape(h, w),
    )


def default_intrinsics(width: int = 32, height: int = 32, fov_deg: float = 90.0) -> CameraIntrinsics:
    f = (width / 2) / np.tan(np.deg2rad(fov_deg) / 2)
    return CameraIntrinsics(fx=f, fy=f, cx=width / 2, cy=height / 2, width=width, height=height)


def agent_camera(world: WorldState, intr: CameraIntrinsics | None = None) -> tuple[CameraIntrinsics, Pose]:
    """The egocentric camera: at the agent's head, facing its look target."""
    if intr is None:
        intr = default_intrinsics()
    eye = world.agent.position + np.array([0.0, 0.0, EYE_HEIGHT])
    target = world.agent.look_at
    if np.allclose(target[:2], eye[:2]):
        target = world.centroid  # avoid straight-down degenerate view
    return intr, look_at_pose(eye, target)


def capture_views(world: WorldState, n_views: int = 20, seed: int = 0,
                  intr: CameraIntrinsics | None = None) -> list[tuple[CameraIntrinsics, Pose]]:
    """Deterministic inward-looking ring of cameras with seeded jitter.

    Heights alternate between a low and a high band so both the sides and the
    tops of objects get covered.
    """
    if n_views < 1:
        raise ConfigError("n_views must be >= 1")
    if intr is None:
        intr = default_intrinsics()
    rng = np.random.default_rng(seed)
    center = world.centroid
    span = world.bounds_max - world.bounds_min
    radius = 0.42 * min(span[0], span[1])
    look = center.copy()
    look[2] = 0.3 * span[2]
    views = []
    for i in range(n_views):
        angle = 2 * np.pi * i / n_views + rng.uniform(-0.08, 0.08)
        height = (0.55 if i % 2 == 0 else 0.92) * span[2] + rng.uniform(-0.03, 0.03)
        eye = np.array(
            [center[0] + radius * np.cos(angle), center[1] + radius * np.sin(angle), height]
        )
        views.append((intr, look_at_pose(eye, look)))
    return views


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class ActionResult:
    ok: bool
    world: WorldState
    reason: str = ""


def resolve_object(world: WorldState, text: str) -> SimObject | None:
    """Match "color category", bare category, or "obj<N>"; None if ambiguous."""
    text = text.strip().lower()
    if text.startswith("obj"):
        try:
            return world.object_by_id(int(text[3:]))
        except (ValueError, KeyError):
            return None
    matches = [o for o in world.objects if o.ref == text]
    if not matches:
        matches = [o for o in world.objects if o.category == text]
    return matches[0] if len(matches) == 1 else None


def _parse_coords(text: str) -> np.ndarray | None:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        return None
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        return None


def _find_place_spot(world: WorldState, obj: SimObject) -> np.ndarray | None:
    base = world.agent.position
    others = [o for o in world.objects if o.oid != obj.oid and not o.held]
    for ang in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
        center = np.array([
            base[0] + PLACE_RADIUS * np.cos(ang),
            base[1] + PLACE_RADIUS * np.sin(ang),
            obj.size[2] / 2,
        ])
        cmin, cmax = center - obj.size / 2, center + obj.size / 2
        if np.any(cmin[:2] < world.bounds_min[:2]) or np.any(cmax[:2] > world.bounds_max[:2]):
            continue
        if any(_boxes_overlap(cmin, cmax, o.box_min, o.box_max, 0.02) for o in others):
            continue
        return center
    return None


def _replace_object(world: WorldState, obj: SimObject) -> WorldState:
    objs = tuple(obj if o.oid == obj.oid else o for o in world.objects)
    return replace(world, objects=objs)


def apply_action(world: WorldState, action) -> ActionResult:
    """Execute one high-level action; rejections carry a reason and leave the
    world untouched. Accepted actions always succeed physically (the simulator
    plays the part of a perfect low-level controller)."""
    verb = action.verb
    arg = action.argument
    if verb not in ACTION_VERBS:
        return ActionResult(False, world, f"unknown verb {verb!r}")
    if verb == "done":
        return ActionResult(True, world)
    if verb == "goto":
        coords = _parse_coords(arg)
        if coords is not None:
            pos = np.clip(coords, world.bounds_min + 0.05, world.bounds_max - 0.05)
            pos[2] = 0.0
            agent = AgentState(pos, world.centroid)
            return ActionResult(True, replace(world, agent=agent))
        obj = resolve_object(world, arg)
        if obj is None:
            return ActionResult(False, world, f"unknown object reference {arg!r}")
        direction = world.agent.position[:2] - obj.center[:2]
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 1e-9 else np.array([1.0, 0.0])
        pos = np.array([
            obj.center[0] + direction[0] * GOTO_STANDOFF,
            obj.center[1] + direction[1] * GOTO_STANDOFF,
            0.0,
        ])
        pos[:2] = np.clip(pos[:2], world.bounds_min[:2] + 0.05, world.bounds_max[:2] - 0.05)
        return ActionResult(True, replace(world, agent=AgentState(pos, obj.center.copy())))
    obj = resolve_object(world, arg)
    if obj is None:
        return ActionResult(False, world, f"unknown object reference {arg!r}")
    if verb == "pick":
        if obj.held:
            return ActionResult(False, world, f"{obj.ref} is already held")
        if any(o.held for o in world.objects):
            return ActionResult(False, world, "already holding an object")
        dist = np.linalg.norm(world.agent.position[:2] - obj.center[:2])
        if dist > INTERACT_RADIUS:
            return ActionResult(False, world, f"too far from {obj.ref} ({dist:.2f} m)")
        held = replace(obj, held=True, center=world.agent.position.copy())
        return ActionResult(True, _replace_object(world, held))
    if verb == "place":
        if not obj.held:
            return ActionResult(False, world, f"not holding {obj.ref}")
        spot = _find_place_spot(world, obj)
        if spot is None:
            return ActionResult(False, world, "no free spot near the agent")
        placed = replace(obj, held=False, center=spot)
        return ActionResult(True, _replace_object(world, placed))
    if verb == "toggle":
        dist = np.linalg.norm(world.agent.position[:2] - obj.center[:2])
        if dist > INTERACT_RADIUS:
            return ActionResult(False, world, f"too far from {obj.ref} ({dist:.2f} m)")
        toggled = replace(obj, is_on=not obj.is_on, is_open=not obj.is_open)
        return ActionResult(True, _replace_object(world, toggled))
    return ActionResult(False, world, f"unhandled verb {verb!r}")


# ---------------------------------------------------------------------------
# language data


@dataclass(frozen=True)
class InstructionRecord:
    kind: str
    scene_ref: str
    instruction: str
    answer: str


INSTRUCTION_KINDS = (
    "dense_caption",
    "object_caption",
    "qa_existence",
    "qa_negation",
    "qa_counting",
    "qa_spatial",
    "qa_comparison",
    "task_decomposition",
    "function_improvement",
    "dialogue",
)


def _unique_ref_objects(world: WorldState) -> list[SimObject]:
    refs = Counter(o.ref for o in world.objects)
    return [o for o in world.objects if refs[o.ref] == 1]


def box_text(obj: SimObject) -> str:
    """Scan-style bounding box text: two-decimal [x, y, z, lx, ly, lz]."""
    c, s = obj.center, obj.size
    return f"[{c[0]:.2f}, {c[1]:.2f}, {c[2]:.2f}, {s[0]:.2f}, {s[1]:.2f}, {s[2]:.2f}]"


def spatial_relation(a: SimObject, b: SimObject) -> str:
    """Dominant-axis relation of a relative to b."""
    d = a.center - b.center
    axis = int(np.argmax(np.abs(d)))
    return (
        ("right" if d[0] > 0 else "left"),
        ("behind" if d[1] > 0 else "front"),
        ("above" if d[2] > 0 else "below"),
    )[axis]


def object_list_text(objects) -> str:
    return " and ".join(f"a {o.ref}" for o in objects)


def gen_instructions(world: WorldState, kinds, count: int, seed: int) -> list[InstructionRecord]:
    """Templated instruction/answer pairs with answers recomputed from ground
    truth. `count` caps each kind; kinds with no grounding in this world are
    skipped with a warning."""
    for k in kinds:
        if k not in INSTRUCTION_KINDS:
            raise ConfigError(f"unknown instruction kind {k!r}")
    rng = np.random.default_rng(seed)
    scene_ref = f"world-{world.seed}"
    counts = Counter(o.category for o in world.objects)
    unique_objs = _unique_ref_objects(world)
    records: list[InstructionRecord] = []

    def emit(kind, instruction, answer):
        records.append(InstructionRecord(kind, scene_ref, instruction, answer))

    for kind in kinds:
        made = 0
        if kind == "dense_caption":
            if world.objects:
                emit(kind, "describe the room", f"the room contains {object_list_text(world.objects)}")
                made = 1
        elif kind == "object_caption":
            for o in unique_objs[:count]:
                emit(kind, f"describe the {o.ref}", f"the {o.ref} is at {box_text(o)}")
                made += 1
        elif kind == "qa_existence":
            present = sorted(counts)
            rng.shuffle(present)
            for cat in present[:count]:
                emit(kind, f"is there a {cat}", "yes")
                made += 1
        elif kind == "qa_negation":
            absent = sorted(set(world.categories_pool) - set(counts))
            rng.shuffle(absent)
            for cat in absent[:count]:
                emit(kind, f"is there a {cat}", "no")
                made += 1
        elif kind == "qa_counting":
            cats = sorted(set(world.categories_pool))
            rng.shuffle(cats)
            for cat in cats[:count]:
                emit(kind, f"how many {plural(cat)}", str(counts.get(cat, 0)))
                made += 1
        elif kind == "qa_spatial":
            pairs = [
                (a, b) for a in unique_objs for b in unique_objs if a.oid != b.oid
            ]
            rng.shuffle(pairs)
            for a, b in pairs[:count]:
                emit(
                    kind,
                    f"where is the {a.ref} relative to the {b.ref} ?",
                    spatial_relation(a, b),
                )
                made += 1
        elif kind == "qa_comparison":
            cats = sorted(counts)
            pairs = [(a, b) for a in cats for b in cats if a < b]
            rng.shuffle(pairs)
            for a, b in pairs[:count]:
                ca, cb = counts[a], counts[b]
                ans = "equal" if ca == cb else (plural(a) if ca > cb else plural(b))
                emit(kind, f"are there more {plural(a)} or {plural(b)} ?", ans)
                made += 1
        elif kind == "task_decomposition":
            tasks = gen_tasks(world, seed)
            for t in tasks[:count]:
                emit(kind, f"how would you {t.text} ?", t.plan_text())
                made += 1
        elif kind == "function_improvement":
            lamps = [o for o in unique_objs if o.category == "lamp"]
            if lamps:
                emit(kind, "suggest one improvement for the room",
                     f"turn on the {lamps[0].ref} for better lighting")
                made = 1
            elif len(unique_objs) >= 2:
                a, b = unique_objs[0], unique_objs[1]
                emit(kind, "suggest one improvement for the room",
                     f"move the {a.ref} near the {b.ref} for easier reach")
                made = 1
        elif kind == "dialogue":
            if world.objects:
                emit(kind, "human : what do you see robot :",
                     f"i see {object_list_text(world.objects)}")
                made = 1
        if made == 0:
            warnings.warn(f"gen_instructions: kind {kind!r} has no grounding in {scene_ref}")
    return records


# ---------------------------------------------------------------------------
# tasks


@dataclass(frozen=True)
class TaskSpec:
    text: str  # "put the <a> near the <b>"
    subject_id: int
    target_id: int
    plan: tuple = ()  # of interact.PlannerAction; kept generic to avoid a cycle

    def plan_text(self) -> str:
        return " ".join(a.to_text() for a in self.plan)


def check_goal(world: WorldState, task: TaskSpec) -> bool:
    a = world.object_by_id(task.subject_id)
    b = world.object_by_id(task.target_id)
    if a.held:
        return False
    return float(np.linalg.norm(a.center - b.center)) <= NEAR_DISTANCE


def pick_place_task(a: SimObject, b: SimObject) -> TaskSpec:
    """The task "put the <a> near the <b>" with its ground-truth plan: go to
    a, pick it up, go to b, place it, done."""
    from .interact import PlannerAction  # local import; interact depends on us

    plan = (
        PlannerAction("goto", a.ref),
        PlannerAction("pick", a.ref),
        PlannerAction("goto", b.ref),
        PlannerAction("place", a.ref),
        PlannerAction("done", ""),
    )
    return TaskSpec(f"put the {a.ref} near the {b.ref}", a.oid, b.oid, plan)


def gen_tasks(world: WorldState, seed: int) -> list[TaskSpec]:
    """Pick-and-place tasks over unambiguous object pairs, with ground-truth
    plans valid under apply_action semantics."""
    uniq = _unique_ref_objects(world)
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in uniq for b in uniq if a.oid != b.oid]
    rng.shuffle(pairs)
    return [pick_place_task(a, b) for a, b in pairs]


# ---------------------------------------------------------------------------
# vocabulary support and persistence


def word_grounding(world: WorldState) -> dict[str, np.ndarray]:
    """Category and color words mapped into rendered-feature space.

    This is the desk-scale stand-in for the text/image alignment a pretrained
    contrastive feature extractor provides: the words naming a category (or a
    color) and the rendered features of that category (or color) share a
    vector. Vectors are D-dimensional (embedding block followed by the color
    block), matching the semantic block of every visual token.
    """
    e_dim = world.feature_dim - 3
    table: dict[str, np.ndarray] = {}
    for cat, emb in world.category_embeddings.items():
        vec = np.concatenate([emb, np.zeros(3)])
        table[cat] = vec
        table[plural(cat)] = vec
    for color in world.colors_pool:
        table[color] = np.concatenate([np.zeros(e_dim), COLOR_TABLE[color]])
    return table


def base_vocab_words(categories=DEFAULT_CATEGORIES, colors=tuple(COLOR_TABLE)) -> list[str]:
    """Every template word the simulator can emit, excluding coordinate text."""
    words = set()
    for c in categories:
        words.add(c)
        words.add(plural(c))
    words.update(colors)
    words.update(str(n) for n in range(21))
    words.update(RELATION_WORDS)
    words.update(ACTION_VERBS)
    words.update(
        "the a an is are in room view there how many where relative to of and or i saw "
        "describe equal yes no more put near human robot : ? ( ) what do you see "
        "suggest one improvement for turn on better lighting move easier reach "
        "would task completed next-step: contains at".split()
    )
    return sorted(words)


def world_to_dict(world: WorldState) -> dict:
    return {
        "format": 1,
        "kind": "world",
        "bounds_min": world.bounds_min.tolist(),
        "bounds_max": world.bounds_max.tolist(),
        "agent": {
            "position": world.agent.position.tolist(),
            "look_at": world.agent.look_at.tolist(),
        },
        "objects": [
            {
                "oid": o.oid,
                "category": o.category,
                "color": o.color,
                "center": o.center.tolist(),
                "size": o.size.tolist(),
                "held": o.held,
                "is_on": o.is_on,
                "is_open": o.is_open,
            }
            for o in world.objects
        ],
        "feature_dim": world.feature_dim,
        "seed": world.seed,
        "embed_seed": world.embed_seed,
        "categories_pool": list(world.categories_pool),
        "colors_pool": list(world.colors_pool),
    }


def world_from_dict(d: dict) -> WorldState:
    if d.get("kind") != "world" or d.get("format") != 1:
        raise ConfigError("not a version-1 world file")
    objects = tuple(
        SimObject(
            oid=o["oid"], category=o["category"], color=o["color"],
            center=np.array(o["center"]), size=np.array(o["size"]),
            held=o["held"], is_on=o["is_on"], is_open=o["is_open"],
        )
        for o in d["objects"]
    )
    pool = tuple(d["categories_pool"])
    emb = build_category_embeddings(pool, d["feature_dim"] - 3, d["embed_seed"])
    return WorldState(
        bounds_min=np.array(d["bounds_min"]),
        bounds_max=np.array(d["bounds_max"]),
        objects=objects,
        agent=AgentState(np.array(d["agent"]["position"]), np.array(d["agent"]["look_at"])),
        category_embeddings=emb,
        feature_dim=d["feature_dim"],
        seed=d["seed"],
        embed_seed=d["embed_seed"],
        categories_pool=pool,
        colors_pool=tuple(d["colors_pool"]),
    )


def save_world(world: WorldState, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(world_to_dict(world), f, indent=1, sort_keys=True)


def load_world(path) -> WorldState:
    """Read a world file; ArtifactFormatError names the file when it is not
    valid JSON or lacks a key or value a world needs."""
    try:
        with open(path, "rb") as f:
            d = json.load(f)
        return world_from_dict(d)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactFormatError(f"{path}: bad world file ({exc!r})") from None
