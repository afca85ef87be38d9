"""Bridges the simulator and the alignment model: renders worlds into visual
tokens and pairs them with templated language records.

Frame records carry a single view's tokens and its ground-truth caption (both
in camera and in world coordinates, which doubles the stage-1 data and exposes
the model to egocentric and scene-centric geometry). Scene records carry the
full multi-view scene grid's tokens plus an instruction/answer pair.
"""

from __future__ import annotations

import fnmatch
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .align.sequence import SEQ_KIND_FRAME, SEQ_KIND_SCENE, TokenSequence, assemble_sequence
from .align.vocab import Vocabulary, build_vocab
from .config import config_from_dict
from .errors import ArtifactFormatError, ConfigError, EmptyInputError
from .frame import CAMERA_FRAME, WORLD_FRAME, Frame3D, build_frame
from .geometry import CameraIntrinsics, Pose
from .scene import SceneState, init_scene, points_to_grid
from .voxelizer import VoxelClusterConfig, grid_layout, token_matrix
from .worldsim import (
    RenderResult,
    WorldConfig,
    WorldState,
    base_vocab_words,
    capture_views,
    gen_instructions,
    gen_world,
    load_world,
    object_list_text,
    plural,
    render,
    save_world,
)


@dataclass(frozen=True)
class AlignedRecord:
    """One training example: visual tokens plus instruction/answer text."""

    kind: str  # SEQ_KIND_FRAME or SEQ_KIND_SCENE
    scene_ref: str
    record_kind: str  # instruction taxonomy kind, or "frame_caption"
    instruction: str
    answer: str
    visual: np.ndarray  # (K, D+3)
    # "frame" and "scene_subset" records regenerate from world files and are
    # never serialized; only "scene" records carry ground-truth room answers
    group: str = "scene"


def frame_from_view(world: WorldState, intr: CameraIntrinsics, pose: Pose,
                    coord_frame: str = WORLD_FRAME) -> Frame3D:
    rr = render(world, intr, pose)
    return build_frame(rr.depth, rr.colors, rr.features, intr, pose, coord_frame)


def frame_tokens(frame: Frame3D, resolution: float, cfg: VoxelClusterConfig) -> np.ndarray:
    """Voxelize a lone frame over its own bounds and emit its token vectors."""
    if frame.n_points == 0:
        return np.zeros((0, frame.feature_dim + 3))
    layout = grid_layout(frame.positions, resolution)
    _, tokens = token_matrix(points_to_grid(frame.positions, frame.features, layout, cfg))
    return tokens


def room_scene(world: WorldState, frames: list[Frame3D], resolution: float,
               cfg: VoxelClusterConfig) -> SceneState:
    """Fuse a room's frames into a scene grid over the room's own bounds.

    Anchoring the layout to the room (rather than the aggregate's bounds)
    keeps voxel indices and normalized coordinates identical across view
    selections of the same world, so re-observed voxels carry bit-identical
    tokens no matter which cameras saw them. Empty frames are dropped.
    """
    nonempty = [f for f in frames if f.n_points]
    if not nonempty:
        raise EmptyInputError("no view captured any points; is the room empty?")
    return init_scene(nonempty, resolution, cfg,
                      explicit_bounds=(world.bounds_min, world.bounds_max))


def scene_from_world(world: WorldState, resolution: float, cfg: VoxelClusterConfig,
                     n_views: int = 20, seed: int = 0,
                     intr: CameraIntrinsics | None = None) -> tuple[SceneState, list[Frame3D]]:
    """Multi-view scene grid of a room from its seeded capture ring."""
    views = capture_views(world, n_views, seed, intr=intr)
    frames = [frame_from_view(world, iv, pv, WORLD_FRAME) for iv, pv in views]
    return room_scene(world, frames, resolution, cfg), frames


def _hit_ids(rr: RenderResult) -> list[int]:
    """Ids of the objects a render's pixels hit, ascending."""
    return [int(i) for i in np.unique(rr.object_ids) if i >= 0]


def frame_caption(world: WorldState, rr: RenderResult) -> str:
    """Ground-truth caption of a rendered view: the objects its pixels hit,
    id order."""
    ids = _hit_ids(rr)
    if not ids:
        return "nothing"
    return object_list_text([world.object_by_id(i) for i in ids])


def _render_views(world: WorldState, views, coords=(WORLD_FRAME,)):
    """Render each view once: (its render, its frames in `coords`) per view."""
    for iv, pv in views:
        rr = render(world, iv, pv)
        yield rr, [build_frame(rr.depth, rr.colors, rr.features, iv, pv, c) for c in coords]


@dataclass(frozen=True)
class DatagenConfig:
    resolution: float = 0.25
    knn_k: int = 5
    n_views: int = 6
    n_frame_views: int = 3  # views turned into frame-caption records
    per_kind: int = 6
    kinds: tuple[str, ...] = ("qa_existence", "qa_negation", "qa_counting", "qa_spatial")
    # per-view QA records (existence balanced yes/no, plus counting): cheap,
    # highly varied token sets that force answers to be grounded in the
    # visual tokens rather than memorized per world
    frame_qa_existence: int = 4
    frame_qa_counting: int = 3
    # partial scenes aggregated from view subsets bridge the token-count gap
    # between single frames and the full multi-view scene
    scene_subset_sizes: tuple[int, ...] = (1, 2, 4)
    subset_qa_existence: int = 4
    subset_qa_counting: int = 3
    # full-size scene rebuilt from other view seeds: same room, different
    # token fingerprint, so held-out questions on the canonical tokens are
    # never answered by raw token-set lookup
    scene_variants: int = 3
    variant_qa_existence: int = 8
    variant_qa_counting: int = 6
    seed: int = 0

    def __post_init__(self):
        for name in ("n_views", "n_frame_views"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.per_kind < 0:
            raise ConfigError(f"per_kind must be >= 0, got {self.per_kind}")


def frame_qa_records(world: WorldState, visible_ids, rng: np.random.Generator,
                     n_existence: int, n_counting: int) -> list[tuple[str, str, str]]:
    """(kind, instruction, answer) triples grounded in one view's contents.

    Existence questions are balanced between visible and not-visible
    categories so the answer prior carries no information.
    """
    visible_cats = sorted({world.object_by_id(i).category for i in visible_ids})
    absent_cats = sorted(set(world.categories_pool) - set(visible_cats))
    out: list[tuple[str, str, str]] = []
    n_yes = (n_existence + 1) // 2
    rng.shuffle(visible_cats)
    rng.shuffle(absent_cats)
    # same templates as the scene-level records: the "i saw" frame identifier
    # already marks these as view-grounded, and a shared phrasing makes the
    # token-matching rule transfer between frame and scene data. Prompts end
    # on the category word so the answer predictor position carries the
    # queried concept directly.
    for cat in visible_cats[:n_yes]:
        out.append(("qa_existence", f"is there a {cat}", "yes"))
    for cat in absent_cats[: n_existence - min(n_yes, len(visible_cats))]:
        out.append(("qa_existence", f"is there a {cat}", "no"))
    counts = Counter(world.object_by_id(i).category for i in visible_ids)
    pool = list(world.categories_pool)
    rng.shuffle(pool)
    for cat in pool[:n_counting]:
        out.append(("qa_counting", f"how many {plural(cat)}", str(counts[cat])))
    return out


def world_records(world: WorldState, cfg: DatagenConfig,
                  intr: CameraIntrinsics | None = None) -> list[AlignedRecord]:
    """All aligned records for one world: frame captions, per-view QA,
    partial-scene QA, and full-scene QA. Every view is rendered once."""
    vcfg = VoxelClusterConfig(k=cfg.knn_k)
    scene_ref = f"world-{world.seed}"
    records: list[AlignedRecord] = []

    views = capture_views(world, cfg.n_frame_views, seed=cfg.seed + 1, intr=intr)
    for vi, (rr, frames) in enumerate(_render_views(world, views, (CAMERA_FRAME, WORLD_FRAME))):
        if not rr.depth.validity.any():
            continue
        caption = frame_caption(world, rr)
        qa_rng = np.random.default_rng((cfg.seed + 1) * 7919 + world.seed * 31 + vi)
        qa = frame_qa_records(world, _hit_ids(rr), qa_rng,
                              cfg.frame_qa_existence, cfg.frame_qa_counting)
        for frame in frames:
            tokens = frame_tokens(frame, cfg.resolution, vcfg)
            for kind, instr, ans in [("frame_caption", "", caption)] + qa:
                records.append(AlignedRecord(
                    SEQ_KIND_FRAME, scene_ref, kind, instr, ans, tokens, group="frame",
                ))

    def world_views(seed):  # (world-frame frame, hit ids) per captured view
        views = capture_views(world, cfg.n_views, seed, intr=intr)
        return [(f, _hit_ids(rr)) for rr, (f,) in _render_views(world, views)]

    # (group, views, (rng, n_existence, n_counting) for QA on what the views
    # hit): partial scenes from subsets of the canonical views and full-size
    # variants from other view seeds; last the canonical full scene, whose
    # QA is ground truth about the whole room
    scene_views = world_views(cfg.seed)
    scenes = []
    for si, size in enumerate(cfg.scene_subset_sizes):
        rng = np.random.default_rng(cfg.seed * 104729 + world.seed * 83 + si)
        picked = [scene_views[i] for i in rng.permutation(len(scene_views))[:size]]
        scenes.append(("scene_subset", picked,
                       (rng, cfg.subset_qa_existence, cfg.subset_qa_counting)))
    for vi in range(cfg.scene_variants):
        rng = np.random.default_rng(cfg.seed * 15485863 + world.seed * 97 + vi)
        scenes.append(("scene_variant", world_views(cfg.seed + 101 + 13 * vi),
                       (rng, cfg.variant_qa_existence, cfg.variant_qa_counting)))
    scenes.append(("scene", scene_views, None))

    for group, picked, view_qa in scenes:
        frames = [f for f, _ in picked]
        if view_qa and not any(f.n_points for f in frames):
            continue  # a partial or variant scene that saw nothing
        _, tokens = token_matrix(room_scene(world, frames, cfg.resolution, vcfg).grid)
        if view_qa:
            ids = sorted({i for _, hit in picked for i in hit})
            qa = frame_qa_records(world, ids, *view_qa)
        else:
            qa = [(r.kind, r.instruction, r.answer)
                  for r in gen_instructions(world, cfg.kinds, cfg.per_kind, cfg.seed)]
        for kind, instr, ans in qa:
            records.append(AlignedRecord(
                SEQ_KIND_SCENE, scene_ref, kind, instr, ans, tokens, group=group,
            ))
    return records


def corpus_vocab(records: list[AlignedRecord], world: WorldState | None = None) -> Vocabulary:
    texts = []
    for r in records:
        texts.append(r.instruction)
        texts.append(r.answer)
    extra = base_vocab_words(world.categories_pool, world.colors_pool) if world else base_vocab_words()
    return build_vocab(texts, extra_words=extra)


def record_sequence(record: AlignedRecord, vocab: Vocabulary) -> TokenSequence:
    return assemble_sequence(record.kind, record.visual, record.instruction, record.answer, vocab)


def sequences_for(records: list[AlignedRecord], vocab: Vocabulary) -> list[TokenSequence]:
    return [record_sequence(r, vocab) for r in records]


# ---------------------------------------------------------------------------
# dataset directories (worlds + JSON-lines records, visual tokens regenerable)


@dataclass(frozen=True)
class DatasetBundle:
    worlds: dict[str, WorldState]  # scene_ref -> world
    frame_records: list[AlignedRecord]  # always train
    train_records: list[AlignedRecord]  # scene-kind, train split
    heldout_records: list[AlignedRecord]  # scene-kind, held-out split
    vocab: Vocabulary
    datagen: DatagenConfig


def _split_heldout(scene_records: list[AlignedRecord], n_heldout: int,
                   seed: int) -> list[str]:
    """Mark up to n_heldout QA records held-out, requiring every held-out
    answer word to also appear among the remaining training answers.

    `n_train[w]` counts the training records whose answer contains word w;
    a candidate (itself still counted) qualifies when each of its words has
    another training record, i.e. a count of at least 2.
    """
    rng = np.random.default_rng(seed)
    eligible_kinds = {"qa_existence", "qa_negation", "qa_counting"}
    words = [set(r.answer.lower().split()) for r in scene_records]
    n_train = Counter(w for ws in words for w in ws)
    split = ["train"] * len(scene_records)
    n_chosen = 0
    for i in map(int, rng.permutation(len(scene_records))):
        if n_chosen >= n_heldout:
            break
        if scene_records[i].record_kind in eligible_kinds and \
                all(n_train[w] >= 2 for w in words[i]):
            n_train.subtract(words[i])
            split[i] = "heldout"
            n_chosen += 1
    return split


def build_dataset_dir(out_dir, n_worlds: int, world_cfg: WorldConfig,
                      dg_cfg: DatagenConfig, n_heldout: int = 50) -> dict:
    """Generate worlds plus a JSON-lines record file under out_dir.

    Visual tokens are not stored; they regenerate bit-identically from the
    world files and the recorded datagen config. Every world's records are
    generated before any file is written, so a rejected config writes none.
    """
    if n_worlds < 1:
        raise ConfigError(f"a dataset needs at least 1 world, got {n_worlds}")
    if n_heldout < 0:
        raise ConfigError(f"n_heldout must be >= 0, got {n_heldout}")
    worlds = [gen_world(world_cfg, seed=dg_cfg.seed * 100000 + i) for i in range(n_worlds)]
    scene_records: list[AlignedRecord] = []
    n_frame = 0
    for world in worlds:
        for rec in world_records(world, dg_cfg):
            if rec.group == "scene":
                scene_records.append(rec)
            else:
                n_frame += 1
    split = _split_heldout(scene_records, n_heldout, dg_cfg.seed)
    os.makedirs(os.path.join(out_dir, "worlds"), exist_ok=True)
    for world in worlds:
        save_world(world, os.path.join(out_dir, "worlds", f"world-{world.seed}.json"))
    with open(os.path.join(out_dir, "records.jsonl"), "w", encoding="utf-8") as f:
        for i, r in enumerate(scene_records):
            f.write(json.dumps({
                "kind": r.record_kind,
                "scene_ref": r.scene_ref,
                "instruction": r.instruction,
                "answer": r.answer,
                "split": split[i],
            }, sort_keys=True) + "\n")
    meta = {
        "format": 1,
        "n_worlds": n_worlds,
        "world_cfg": asdict(world_cfg),
        "datagen_cfg": asdict(dg_cfg),
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    return {"n_scene_records": len(scene_records), "n_frame_records": n_frame,
            "n_heldout": split.count("heldout")}


_RECORD_KEYS = ("kind", "scene_ref", "instruction", "answer", "split")


def _read_record(line: bytes, lineno: int, stokens_by_ref: dict[str, np.ndarray]):
    """One records.jsonl line as (split, record); ArtifactFormatError names
    the line when it is not a well-formed record."""
    where = f"records.jsonl line {lineno}"
    try:
        d = json.loads(line)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ArtifactFormatError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(d, dict):
        raise ArtifactFormatError(f"{where}: expected a JSON object")
    missing = [k for k in _RECORD_KEYS if not isinstance(d.get(k), str)]
    if missing:
        raise ArtifactFormatError(f"{where}: missing or non-string keys {missing}")
    if d["scene_ref"] not in stokens_by_ref:
        raise ArtifactFormatError(f"{where}: unknown scene_ref {d['scene_ref']!r}")
    if d["split"] not in ("train", "heldout"):
        raise ArtifactFormatError(f"{where}: split must be train or heldout, got {d['split']!r}")
    return d["split"], AlignedRecord(SEQ_KIND_SCENE, d["scene_ref"], d["kind"], d["instruction"],
                                     d["answer"], stokens_by_ref[d["scene_ref"]])


def load_dataset_dir(data_dir) -> DatasetBundle:
    """Rebuild the aligned dataset (tokens included) from a dataset directory.

    A dataset file that is not valid JSON or lacks what it must hold raises
    ArtifactFormatError naming the file, and a worlds directory with no world
    file, or with another number of `world-*.json` files than meta.json's
    `n_worlds` (a rebuild over a larger dataset leaves its extra worlds
    behind), raises it naming the directory.
    """
    meta_path = os.path.join(data_dir, "meta.json")
    try:
        with open(meta_path, "rb") as f:
            meta = json.load(f)
        dg_cfg = config_from_dict(DatagenConfig, meta.get("datagen_cfg"))
        n_worlds = meta.get("n_worlds")
        if type(n_worlds) is not int or n_worlds < 1:
            raise ConfigError(f"n_worlds must be a positive int, got {n_worlds!r}")
    except (ValueError, AttributeError, ConfigError) as exc:
        raise ArtifactFormatError(f"{meta_path}: bad dataset meta ({exc})") from None
    wdir = os.path.join(data_dir, "worlds")
    names = [n for n in sorted(os.listdir(wdir)) if fnmatch.fnmatch(n, "world-*.json")]
    if not names:
        raise ArtifactFormatError(f"{wdir}: no world files; a dataset needs at least 1 world")
    if len(names) != n_worlds:
        raise ArtifactFormatError(
            f"{wdir}: {len(names)} world files, but meta.json records n_worlds={n_worlds}")
    worlds: dict[str, WorldState] = {}
    for name in names:
        world = load_world(os.path.join(wdir, name))
        worlds[f"world-{world.seed}"] = world

    frame_records: list[AlignedRecord] = []
    stokens_by_ref: dict[str, np.ndarray] = {}
    for world in worlds.values():
        # every record regenerates via the same code path as datagen; the
        # full-scene text comes from the JSONL (it carries the splits), so
        # only those records' scene tokens are kept
        for r in world_records(world, dg_cfg):
            if r.group == "scene":
                stokens_by_ref[r.scene_ref] = r.visual
            else:
                frame_records.append(r)

    by_split: dict[str, list[AlignedRecord]] = {"train": [], "heldout": []}
    with open(os.path.join(data_dir, "records.jsonl"), "rb") as f:
        for lineno, line in enumerate(f, 1):
            split, rec = _read_record(line, lineno, stokens_by_ref)
            by_split[split].append(rec)
    train_records, heldout_records = by_split["train"], by_split["heldout"]

    all_records = frame_records + train_records + heldout_records
    first_world = next(iter(worlds.values()))
    vocab = corpus_vocab(all_records, first_world)
    return DatasetBundle(worlds, frame_records, train_records, heldout_records, vocab, dg_cfg)
