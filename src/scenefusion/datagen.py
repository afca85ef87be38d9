"""Bridges the simulator and the alignment model: renders worlds into visual
tokens and pairs them with templated language records.

Frame records carry a single view's tokens and its ground-truth caption (both
in camera and in world coordinates, which doubles the stage-1 data and exposes
the model to egocentric and scene-centric geometry). Scene records carry the
full multi-view scene grid's tokens plus an instruction/answer pair.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .align.sequence import SEQ_KIND_FRAME, SEQ_KIND_SCENE, TokenSequence, assemble_sequence
from .align.vocab import Vocabulary, build_vocab
from .errors import ConfigError, EmptyInputError
from .frame import CAMERA_FRAME, WORLD_FRAME, Frame3D, build_frame, feature_vectors
from .geometry import CameraIntrinsics, Pose
from .scene import SceneState, init_scene
from .voxelizer import VoxelClusterConfig, grid_layout, token_matrix, voxelize
from .worldsim import (
    InstructionRecord,
    WorldConfig,
    WorldState,
    base_vocab_words,
    capture_views,
    gen_instructions,
    gen_world,
    load_world,
    object_list_text,
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
    vectors = feature_vectors(frame.positions, frame.features, layout.box_min, layout.box_max)
    grid = voxelize(frame.positions, vectors, layout, cfg)
    _, tokens = token_matrix(grid)
    return tokens


def scene_from_world(world: WorldState, resolution: float, cfg: VoxelClusterConfig,
                     n_views: int = 20, seed: int = 0,
                     intr: CameraIntrinsics | None = None) -> tuple[SceneState, list[Frame3D]]:
    """Multi-view scene grid over the room's own bounds.

    Anchoring the layout to the room (rather than the aggregate's bounds)
    keeps voxel indices and normalized coordinates identical across view
    selections of the same world, so re-observed voxels carry bit-identical
    tokens no matter which cameras saw them.
    """
    views = capture_views(world, n_views, seed, intr=intr)
    frames = [frame_from_view(world, iv, pv, WORLD_FRAME) for iv, pv in views]
    frames_nonempty = [f for f in frames if f.n_points]
    if not frames_nonempty:
        raise EmptyInputError("no view captured any points; is the room empty?")
    state = init_scene(frames_nonempty, resolution, cfg,
                       explicit_bounds=(world.bounds_min, world.bounds_max))
    return state, frames


def scene_tokens(state: SceneState) -> np.ndarray:
    _, tokens = token_matrix(state.grid)
    return tokens


def frame_caption(world: WorldState, frame_or_ids) -> str:
    """Ground-truth caption of a view: the objects its pixels hit, id order."""
    if hasattr(frame_or_ids, "object_ids"):
        ids = np.unique(frame_or_ids.object_ids)
    else:
        ids = np.unique(np.asarray(frame_or_ids))
    ids = [int(i) for i in ids if i >= 0]
    if not ids:
        return "nothing"
    objs = [world.object_by_id(i) for i in sorted(ids)]
    return object_list_text(objs)


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

    @classmethod
    def from_dict(cls, d: dict) -> "DatagenConfig":
        """Inverse of `asdict` after a JSON round trip: lists come back as
        tuples, missing keys keep their defaults (files written before the
        field existed) and unknown keys raise ConfigError."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown datagen config keys: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def frame_qa_records(world: WorldState, visible_ids, rng: np.random.Generator,
                     n_existence: int, n_counting: int) -> list[tuple[str, str, str]]:
    """(kind, instruction, answer) triples grounded in one view's contents.

    Existence questions are balanced between visible and not-visible
    categories so the answer prior carries no information.
    """
    from .worldsim import plural

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
    counts: dict[str, int] = {}
    for i in visible_ids:
        c = world.object_by_id(i).category
        counts[c] = counts.get(c, 0) + 1
    pool = list(world.categories_pool)
    rng.shuffle(pool)
    for cat in pool[:n_counting]:
        out.append(("qa_counting", f"how many {plural(cat)}", str(counts.get(cat, 0))))
    return out


def world_records(world: WorldState, cfg: DatagenConfig,
                  intr: CameraIntrinsics | None = None) -> list[AlignedRecord]:
    """All aligned records for one world: frame captions, per-view QA,
    partial-scene QA, and full-scene QA."""
    vcfg = VoxelClusterConfig(k=cfg.knn_k)
    scene_ref = f"world-{world.seed}"
    records: list[AlignedRecord] = []

    views = capture_views(world, cfg.n_frame_views, seed=cfg.seed + 1, intr=intr)
    for vi, (iv, pv) in enumerate(views):
        rr = render(world, iv, pv)
        if not rr.depth.validity.any():
            continue
        caption = frame_caption(world, rr)
        visible_ids = sorted(int(i) for i in np.unique(rr.object_ids) if i >= 0)
        qa_rng = np.random.default_rng((cfg.seed + 1) * 7919 + world.seed * 31 + vi)
        qa = frame_qa_records(world, visible_ids, qa_rng,
                              cfg.frame_qa_existence, cfg.frame_qa_counting)
        for coord in (CAMERA_FRAME, WORLD_FRAME):
            frame = build_frame(rr.depth, rr.colors, rr.features, iv, pv, coord)
            tokens = frame_tokens(frame, cfg.resolution, vcfg)
            records.append(AlignedRecord(
                SEQ_KIND_FRAME, scene_ref, "frame_caption", "", caption, tokens,
                group="frame",
            ))
            for kind, instr, ans in qa:
                records.append(AlignedRecord(
                    SEQ_KIND_FRAME, scene_ref, kind, instr, ans, tokens, group="frame",
                ))

    scene_views = capture_views(world, cfg.n_views, cfg.seed, intr=intr)
    scene_frames = [frame_from_view(world, iv, pv, WORLD_FRAME) for iv, pv in scene_views]
    scene_visible: list[list[int]] = []
    for iv, pv in scene_views:
        rr = render(world, iv, pv)
        scene_visible.append([int(i) for i in np.unique(rr.object_ids) if i >= 0])

    for si, size in enumerate(cfg.scene_subset_sizes):
        sub_rng = np.random.default_rng(cfg.seed * 104729 + world.seed * 83 + si)
        order = sub_rng.permutation(len(scene_frames))[:size]
        picked = [scene_frames[i] for i in order if scene_frames[i].n_points]
        if not picked:
            continue
        state = init_scene(picked, cfg.resolution, vcfg,
                           explicit_bounds=(world.bounds_min, world.bounds_max))
        tokens = scene_tokens(state)
        visible_ids = sorted({oid for i in order for oid in scene_visible[i]})
        qa = frame_qa_records(world, visible_ids, sub_rng,
                              cfg.subset_qa_existence, cfg.subset_qa_counting)
        for kind, instr, ans in qa:
            records.append(AlignedRecord(
                SEQ_KIND_SCENE, scene_ref, kind, instr, ans, tokens,
                group="scene_subset",
            ))

    for vi in range(cfg.scene_variants):
        vseed = cfg.seed + 101 + 13 * vi
        v_views = capture_views(world, cfg.n_views, vseed, intr=intr)
        v_frames = []
        v_visible: set[int] = set()
        for iv, pv in v_views:
            rr = render(world, iv, pv)
            v_visible.update(int(i) for i in np.unique(rr.object_ids) if i >= 0)
            f = build_frame(rr.depth, rr.colors, rr.features, iv, pv, WORLD_FRAME)
            if f.n_points:
                v_frames.append(f)
        if not v_frames:
            continue
        state = init_scene(v_frames, cfg.resolution, vcfg,
                           explicit_bounds=(world.bounds_min, world.bounds_max))
        tokens = scene_tokens(state)
        v_rng = np.random.default_rng(cfg.seed * 15485863 + world.seed * 97 + vi)
        qa = frame_qa_records(world, sorted(v_visible), v_rng,
                              cfg.variant_qa_existence, cfg.variant_qa_counting)
        for kind, instr, ans in qa:
            records.append(AlignedRecord(
                SEQ_KIND_SCENE, scene_ref, kind, instr, ans, tokens,
                group="scene_variant",
            ))

    nonempty = [f for f in scene_frames if f.n_points]
    state = init_scene(nonempty, cfg.resolution, vcfg,
                       explicit_bounds=(world.bounds_min, world.bounds_max))
    stokens = scene_tokens(state)
    for rec in gen_instructions(world, cfg.kinds, cfg.per_kind, cfg.seed):
        records.append(AlignedRecord(
            SEQ_KIND_SCENE, scene_ref, rec.kind, rec.instruction, rec.answer, stokens,
            group="scene",
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


def instruction_to_aligned(rec: InstructionRecord, stokens: np.ndarray) -> AlignedRecord:
    return AlignedRecord(SEQ_KIND_SCENE, rec.scene_ref, rec.kind, rec.instruction, rec.answer, stokens)


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
                   seed: int) -> dict[int, str]:
    """Mark up to n_heldout QA records held-out, requiring every held-out
    answer word to also appear among the remaining training answers."""
    rng = np.random.default_rng(seed)
    eligible_kinds = {"qa_existence", "qa_negation", "qa_counting"}
    order = rng.permutation(len(scene_records))
    split = {i: "train" for i in range(len(scene_records))}
    chosen: list[int] = []
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


def build_dataset_dir(out_dir, n_worlds: int, world_cfg: WorldConfig,
                      dg_cfg: DatagenConfig, n_heldout: int = 50) -> dict:
    """Generate worlds plus a JSON-lines record file under out_dir.

    Visual tokens are not stored; they regenerate bit-identically from the
    world files and the recorded datagen config.
    """
    os.makedirs(os.path.join(out_dir, "worlds"), exist_ok=True)
    scene_records: list[AlignedRecord] = []
    n_frame = 0
    for i in range(n_worlds):
        world = gen_world_for_dataset(world_cfg, i, dg_cfg.seed)
        save_world(world, os.path.join(out_dir, "worlds", f"world-{world.seed}.json"))
        for rec in world_records(world, dg_cfg):
            if rec.group == "scene":
                scene_records.append(rec)
            else:
                n_frame += 1
    split = _split_heldout(scene_records, n_heldout, dg_cfg.seed)
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
    n_heldout_actual = sum(1 for v in split.values() if v == "heldout")
    return {"n_scene_records": len(scene_records), "n_frame_records": n_frame,
            "n_heldout": n_heldout_actual}


def gen_world_for_dataset(world_cfg: WorldConfig, index: int, base_seed: int) -> WorldState:
    return gen_world(world_cfg, seed=base_seed * 100000 + index)


def load_dataset_dir(data_dir) -> DatasetBundle:
    """Rebuild the aligned dataset (tokens included) from a dataset directory."""
    with open(os.path.join(data_dir, "meta.json"), encoding="utf-8") as f:
        meta = json.load(f)
    dg_cfg = DatagenConfig.from_dict(meta["datagen_cfg"])
    worlds: dict[str, WorldState] = {}
    wdir = os.path.join(data_dir, "worlds")
    for name in sorted(os.listdir(wdir)):
        world = load_world(os.path.join(wdir, name))
        worlds[f"world-{world.seed}"] = world

    vcfg = VoxelClusterConfig(k=dg_cfg.knn_k)
    frame_records: list[AlignedRecord] = []
    stokens_by_ref: dict[str, np.ndarray] = {}
    for ref, world in worlds.items():
        # frame and partial-scene records regenerate via the same code path as
        # datagen; full-scene text comes from the JSONL (it carries the splits)
        frame_records.extend(
            r for r in world_records(world, dg_cfg) if r.group != "scene"
        )
        state, _ = scene_from_world(world, dg_cfg.resolution, vcfg, dg_cfg.n_views, dg_cfg.seed)
        stokens_by_ref[ref] = scene_tokens(state)

    train_records: list[AlignedRecord] = []
    heldout_records: list[AlignedRecord] = []
    with open(os.path.join(data_dir, "records.jsonl"), encoding="utf-8") as f:
        for line in f:
            d = json.loads(line)
            rec = AlignedRecord(
                SEQ_KIND_SCENE, d["scene_ref"], d["kind"], d["instruction"], d["answer"],
                stokens_by_ref[d["scene_ref"]],
            )
            (heldout_records if d["split"] == "heldout" else train_records).append(rec)

    all_records = frame_records + train_records + heldout_records
    first_world = next(iter(worlds.values()))
    vocab = corpus_vocab(all_records, first_world)
    return DatasetBundle(worlds, frame_records, train_records, heldout_records, vocab, dg_cfg)
