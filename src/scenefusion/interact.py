"""Two-step interactive inference: describe the current view, fold it into
the scene grid, then plan the next high-level action.

The episode loop per step: render a frame from the agent's pose, generate an
egocentric description ("i saw ..."), apply the masked scene update, build
the planning prompt (scene tokens ++ frame description ++ task ++ completed
steps ++ "next-step:"), and execute the parsed action in the simulator. The
simulator doubles as a perfect low-level controller: accepted actions always
succeed physically, so outcomes measure high-level planning alone.

Scripted planners stand in for the model where tests need ground truth: the
oracle planner replays a task's reference plan; the grid-belief planner acts
only on what the scene grid says, which makes episode success depend on the
scene updates actually happening.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .align.model import AlignmentModel, generate
from .align.sequence import SEQ_KIND_FRAME, SEQ_KIND_SCENE, assemble_sequence
from .datagen import frame_from_view, frame_tokens, room_scene
from .errors import ConfigError, EpisodeFailure, SceneFusionError
from .frame import Frame3D
from .scene import SceneState, update_scene
from .voxelizer import VoxelClusterConfig, token_matrix
from .worldsim import (
    ACTION_VERBS,
    INTERACT_RADIUS,
    TaskSpec,
    WorldState,
    agent_camera,
    apply_action,
    capture_views,
    check_goal,
)

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_BUDGET = "budget_exhausted"

_ACTION_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")


@dataclass(frozen=True)
class PlannerAction:
    verb: str
    argument: str = ""

    def to_text(self) -> str:
        return f"{self.verb} ( {self.argument} )" if self.argument else self.verb


def parse_action(text: str) -> PlannerAction | None:
    """Parse "verb ( argument )" or a bare verb; None when unparseable."""
    text = text.strip().lower()
    if text in ACTION_VERBS:
        return PlannerAction(text)
    m = _ACTION_RE.match(text)
    if m and m.group(1) in ACTION_VERBS:
        return PlannerAction(m.group(1), m.group(2))
    return None


@dataclass(frozen=True)
class EpisodeState:
    scene: SceneState
    task: str
    completed_steps: tuple[str, ...]
    frame_description: str


@dataclass(frozen=True)
class Observation:
    """Proprioception handed to scripted planners: never object positions."""

    agent_position: np.ndarray
    held_ids: tuple[int, ...]


def egocentric_step(frame: Frame3D, model: AlignmentModel, resolution: float,
                    cfg: VoxelClusterConfig, max_len: int = 24) -> str:
    """Generate the current-view description, prefixed by the frame identifier.

    Generation failures degrade to an empty description with a warning; the
    episode keeps going.
    """
    try:
        tokens = frame_tokens(frame, resolution, cfg)
        seq = assemble_sequence(SEQ_KIND_FRAME, tokens, "", "", model.vocab)
        body = generate(seq.prefix_before_answer(), model, max_len=max_len)
    except SceneFusionError as exc:
        warnings.warn(f"egocentric description failed: {exc}")
        return ""
    return f"i saw {body}".strip()


def planning_prompt(ep: EpisodeState, egocentric: bool = True) -> str:
    parts = []
    if egocentric and ep.frame_description:
        parts.append(ep.frame_description)
    parts.append(f"task : {ep.task}")
    if ep.completed_steps:
        parts.append("completed : " + " ".join(ep.completed_steps))
    parts.append("next-step:")
    return " ".join(parts)


def plan_step(ep: EpisodeState, model: AlignmentModel, egocentric: bool = True,
              max_len: int = 12) -> tuple[PlannerAction, str]:
    """Ask the model for the next action, once: greedy decoding repeats a bad answer."""
    _, visual = token_matrix(ep.scene.grid)
    prompt_text = planning_prompt(ep, egocentric)
    seq = assemble_sequence(SEQ_KIND_SCENE, visual, prompt_text, "", model.vocab)
    out = generate(seq.prefix_before_answer(), model, max_len=max_len)
    action = parse_action(out)
    if action is None:
        raise EpisodeFailure(f"planner output unparseable: {out!r}", transcript=[out])
    return action, prompt_text


# ---------------------------------------------------------------------------
# scripted planners


class OraclePlanner:
    """Replays a task's ground-truth plan, one action per call."""

    def __init__(self, task: TaskSpec):
        self.plan = list(task.plan)

    def __call__(self, ep: EpisodeState, obs: Observation) -> PlannerAction:
        i = len(ep.completed_steps)
        if i < len(self.plan):
            return self.plan[i]
        return PlannerAction("done")


def survey_point(world: WorldState) -> np.ndarray:
    """A fixed corner vantage from which one wide frame covers the room."""
    return world.bounds_min + np.array([0.3, 0.3, 0.0])


class GridBeliefPlanner:
    """Plans pick-and-place from the scene grid only.

    Object positions come from voxels whose feature rows match the target's
    category embedding and color; the simulator's true state is never read.
    The first action is always a goto to the survey corner so the next render
    covers the room. If the grid holds stale object positions (scene updates
    disabled while the world changed), the planner walks to the wrong spot
    and its pick is rejected for being too far.
    """

    def __init__(self, world: WorldState, task: TaskSpec):
        self.task = task
        self.subject = world.object_by_id(task.subject_id)
        self.target = world.object_by_id(task.target_id)
        self.embeddings = world.category_embeddings
        # room bounds are static map knowledge; object positions are not
        x, y = survey_point(world)[:2]
        self.survey = PlannerAction("goto", f"{x:.2f} {y:.2f} 0.00")
        self.surveyed = False
        self.placed = False

    def _believed_position(self, scene: SceneState, obj) -> np.ndarray | None:
        coords, feats = token_matrix(scene.grid)
        if not len(feats):
            return None
        emb_dim = len(self.embeddings[obj.category])
        emb = feats[:, :emb_dim]
        colors = feats[:, emb_dim:emb_dim + 3]
        target_emb = self.embeddings[obj.category]
        norms = np.linalg.norm(emb, axis=1)
        cos = (emb @ target_emb) / np.maximum(norms, 1e-12)
        from .worldsim import COLOR_TABLE

        target_col = np.array(COLOR_TABLE[obj.color])
        col_ok = np.max(np.abs(colors - target_col), axis=1) < 0.2
        match = (cos > 0.98) & col_ok
        if not match.any():
            return None
        layout = scene.layout
        centers = layout.origin + (coords[match] + 0.5) * layout.resolution
        return centers.mean(axis=0)

    def __call__(self, ep: EpisodeState, obs: Observation) -> PlannerAction:
        if not self.surveyed:
            self.surveyed = True
            return self.survey
        if self.placed:
            return PlannerAction("done")
        holding = self.subject.oid in obs.held_ids
        pos = self._believed_position(ep.scene, self.target if holding else self.subject)
        if pos is None:
            return self.survey
        if np.linalg.norm(obs.agent_position[:2] - pos[:2]) > INTERACT_RADIUS:
            return PlannerAction("goto", f"{pos[0]:.2f} {pos[1]:.2f} 0.00")
        if holding:
            self.placed = True
            return PlannerAction("place", self.subject.ref)
        return PlannerAction("pick", self.subject.ref)


def make_swap_scenario(seed: int, feature_dim: int = 16):
    """A pick-and-place world where two equal-sized objects swap places after
    the planner's first step.

    The scene initializes from the survey camera, and the swapped boxes have
    identical footprints, so the post-swap survey frame re-observes exactly
    the voxels the init saw: the masked update cleanly relabels both sites,
    and a grid-belief planner succeeds iff scene updates are enabled.

    Returns (world, task, disturbance, init_views).
    """
    from .geometry import look_at_pose
    from .worldsim import (
        COLOR_TABLE,
        DEFAULT_CATEGORIES,
        EYE_HEIGHT,
        WorldConfig,
        WorldState,
        AgentState,
        SimObject,
        build_category_embeddings,
        default_intrinsics,
        pick_place_task,
    )

    rng = np.random.default_rng(seed)
    cfg = WorldConfig(feature_dim=feature_dim)
    bmin = np.zeros(3)
    bmax = np.asarray(cfg.room_size)
    cats = list(DEFAULT_CATEGORIES)
    colors = list(COLOR_TABLE)
    cat_ids = rng.permutation(len(cats))[:3]
    col_ids = rng.permutation(len(colors))[:3]

    def jitter():
        return rng.uniform(-0.1, 0.1, size=2).round(2)

    size_ac = np.array([0.3, 0.3, 0.3])
    size_b = np.array([0.35, 0.35, 0.3])
    pa = np.array([0.9, 2.3]) + jitter()
    pc = np.array([2.3, 0.9]) + jitter()
    pb = np.array([2.3, 2.3]) + jitter()
    a = SimObject(0, cats[cat_ids[0]], colors[col_ids[0]],
                  np.array([pa[0], pa[1], size_ac[2] / 2]), size_ac)
    b = SimObject(1, cats[cat_ids[1]], colors[col_ids[1]],
                  np.array([pb[0], pb[1], size_b[2] / 2]), size_b)
    c = SimObject(2, cats[cat_ids[2]], colors[col_ids[2]],
                  np.array([pc[0], pc[1], size_ac[2] / 2]), size_ac)
    emb = build_category_embeddings(tuple(cats), feature_dim - 3, cfg.embed_seed)
    corner = bmin + np.array([0.3, 0.3, 0.0])
    centroid = (bmin + bmax) / 2
    world = WorldState(
        bounds_min=bmin, bounds_max=bmax, objects=(a, b, c),
        agent=AgentState(corner, centroid),
        category_embeddings=emb, feature_dim=feature_dim, seed=seed,
        embed_seed=cfg.embed_seed, categories_pool=tuple(cats),
        colors_pool=tuple(colors),
    )
    task = pick_place_task(a, b)
    disturbance = Disturbance(after_step=0, kind="swap", object_a=a.oid, object_b=c.oid)
    survey_eye = corner + np.array([0.0, 0.0, EYE_HEIGHT])
    init_views = [(default_intrinsics(), look_at_pose(survey_eye, centroid))]
    return world, task, disturbance, init_views


# ---------------------------------------------------------------------------
# disturbances and the episode loop


@dataclass(frozen=True)
class Disturbance:
    """Scripted world change fired after a given step's action resolves."""

    after_step: int
    kind: str  # "swap" or "move"
    object_a: int
    object_b: int = -1
    new_center: np.ndarray | None = None

    def check(self, world: WorldState) -> None:
        """Raise ConfigError unless the kind is known and `world` holds every
        object the disturbance names."""
        if self.kind not in ("swap", "move"):
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        ids = [o.oid for o in world.objects]
        named = (self.object_a, self.object_b) if self.kind == "swap" else (self.object_a,)
        missing = [oid for oid in named if oid not in ids]
        if missing:
            raise ConfigError(f"disturbance names object ids {missing} the world lacks "
                              f"(it has {sorted(ids)})")

    def apply(self, world: WorldState) -> WorldState:
        self.check(world)
        a = world.object_by_id(self.object_a)
        if self.kind == "swap":
            b = world.object_by_id(self.object_b)
            moved = {a.oid: replace(a, center=np.array([b.center[0], b.center[1], a.size[2] / 2])),
                     b.oid: replace(b, center=np.array([a.center[0], a.center[1], b.size[2] / 2]))}
        else:
            moved = {a.oid: replace(a, center=np.asarray(self.new_center, dtype=np.float64))}
        return replace(world, objects=tuple(moved.get(o.oid, o) for o in world.objects))


@dataclass
class StepRecord:
    step: int
    description: str
    prompt_hash: str
    action: str
    accepted: bool
    reason: str = ""


@dataclass
class EpisodeResult:
    outcome: str
    steps: list[StepRecord]
    frames: list[Frame3D]  # rendered-frame log, one per step
    grids: list[SceneState]  # scene state after each step's update
    world: WorldState  # final world
    task: TaskSpec


def _prompt_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_episode(
    world: WorldState,
    task: TaskSpec,
    model: AlignmentModel | None = None,
    planner=None,
    budget: int = 12,
    resolution: float = 0.25,
    cluster_cfg: VoxelClusterConfig | None = None,
    n_views: int = 8,
    seed: int = 0,
    scene_updates: bool = True,
    egocentric: bool = True,
    disturbance: Disturbance | None = None,
    init_views=None,
) -> EpisodeResult:
    """Run the two-step loop until DONE, failure, or budget exhaustion.

    Success means the planner declared DONE and the simulator's goal predicate
    holds. Rejected actions are recorded and replanning continues. With
    scene_updates off the grid stays frozen at its initial state ("w/o scene");
    with egocentric off the frame description is omitted from prompts. A
    disturbance of unknown kind, or naming an object the world lacks, raises
    ConfigError before the first step.
    """
    if disturbance is not None:
        disturbance.check(world)
    cfg = cluster_cfg or VoxelClusterConfig()
    if init_views is None:
        init_views = capture_views(world, n_views, seed)
    # the room extent is static map knowledge: a room-sized layout keeps every
    # later egocentric frame inside the grid
    scene = room_scene(world, [frame_from_view(world, iv, pv) for iv, pv in init_views],
                       resolution, cfg)
    ep = EpisodeState(scene, task.text, (), "")
    current = world
    steps: list[StepRecord] = []
    frames_log: list[Frame3D] = []
    grids_log: list[SceneState] = []
    outcome = OUTCOME_BUDGET

    for step in range(budget):
        intr, pose = agent_camera(current)
        frame = frame_from_view(current, intr, pose)
        frames_log.append(frame)
        desc = ""
        if egocentric and model is not None and frame.n_points:
            desc = egocentric_step(frame, model, resolution, cfg)
        if scene_updates and frame.n_points:
            scene = update_scene(scene, frame, cfg)
        grids_log.append(scene)
        ep = replace(ep, scene=scene, frame_description=desc)
        held = tuple(o.oid for o in current.objects if o.held)
        obs = Observation(current.agent.position.copy(), held)
        if planner is not None:
            action = planner(ep, obs)
            prompt = planning_prompt(ep, egocentric)
        else:
            if model is None:
                raise SceneFusionError("run_episode needs a model or a planner")
            action, prompt = plan_step(ep, model, egocentric)
        if action.verb == "done":
            ok = check_goal(current, task)
            steps.append(StepRecord(step, desc, _prompt_hash(prompt), action.to_text(), ok,
                                    "" if ok else "goal predicate false"))
            outcome = OUTCOME_SUCCESS if ok else OUTCOME_FAILURE
            break
        result = apply_action(current, action)
        steps.append(StepRecord(step, desc, _prompt_hash(prompt), action.to_text(),
                                result.ok, result.reason))
        if result.ok:
            current = result.world
            ep = replace(ep, completed_steps=ep.completed_steps + (action.to_text(),))
        if disturbance is not None and disturbance.after_step == step:
            current = disturbance.apply(current)
    return EpisodeResult(outcome, steps, frames_log, grids_log, current, task)
