"""Command-line driver tying the pipeline together.

Every subcommand is deterministic given its flags and seeds; repeated runs
produce byte-identical output files. Errors print one machine-parseable line
("error: <Type>: <message>") and exit 1; usage problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .align.model import AlignmentModel, ModelConfig, generate
from .align.sequence import SEQ_KIND_SCENE, assemble_sequence
from .align.training import TrainConfig, train
from .datagen import (
    DatagenConfig,
    build_dataset_dir,
    frame_from_view,
    load_dataset_dir,
    record_sequence,
    scene_from_world,
    sequences_for,
)
from .errors import ConfigError, SceneFusionError
from .interact import Disturbance, GridBeliefPlanner, OraclePlanner, run_episode
from .io_formats import (
    load_checkpoint,
    load_frame,
    load_grid_or_scene,
    load_scene,
    save_artifact,
    save_checkpoint,
    save_frame,
    save_grid,
    save_scene,
)
from .scene import init_scene, points_to_grid, update_scene
from .voxelizer import VoxelClusterConfig, grid_layout, token_matrix
from .worldsim import (
    WorldConfig,
    agent_camera,
    capture_views,
    gen_instructions,
    gen_tasks,
    gen_world,
    load_world,
    render,
    save_world,
    word_grounding,
)


def _count(text: str) -> int:
    """argparse type of counts and indices: a negative one is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _camera_for(args, world):
    if getattr(args, "agent", False):
        return agent_camera(world)
    views = capture_views(world, max(args.n_views, args.view + 1), seed=args.seed)
    return views[args.view]


def _cmd_world_gen(args) -> int:
    cfg = WorldConfig(
        room_size=tuple(args.room),
        n_objects=args.objects,
        feature_dim=args.feature_dim,
    )
    world = gen_world(cfg, seed=args.seed)
    save_world(world, args.out)
    print(f"world-{world.seed}: {len(world.objects)} objects -> {args.out}")
    return 0


def _cmd_render(args) -> int:
    world = load_world(args.world)
    intr, pose = _camera_for(args, world)
    rr = render(world, intr, pose)
    save_artifact(
        args.out,
        "render",
        {
            "intrinsics": [intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height],
            "pose_rotation": pose.rotation.tolist(),
            "pose_translation": pose.translation.tolist(),
        },
        {
            "depth": rr.depth.values,
            "validity": rr.depth.validity,
            "features": rr.features.values,
            "colors": rr.colors,
            "object_ids": rr.object_ids,
        },
    )
    print(f"rendered {int(rr.depth.validity.sum())} valid pixels -> {args.out}")
    return 0


def _cmd_frame_build(args) -> int:
    world = load_world(args.world)
    intr, pose = _camera_for(args, world)
    frame = frame_from_view(world, intr, pose, args.coord)
    save_frame(frame, args.out)
    print(f"frame with {frame.n_points} points ({args.coord} coords) -> {args.out}")
    return 0


def _cmd_scene_init(args) -> int:
    world = load_world(args.world)
    views = capture_views(world, args.n_views, seed=args.seed)
    frames = [frame_from_view(world, iv, pv) for iv, pv in views]
    frames = [f for f in frames if f.n_points]
    state = init_scene(frames, args.r, VoxelClusterConfig(k=args.k))
    save_scene(state, args.out)
    print(f"scene grid {state.layout.dims} with {state.grid.n_visible} visible voxels -> {args.out}")
    return 0


def _cmd_scene_update(args) -> int:
    state = load_scene(args.scene)
    frame = load_frame(args.frame)
    new_state = update_scene(state, frame, VoxelClusterConfig(k=args.k))
    save_scene(new_state, args.out)
    # the old rows aligned onto the new index, a superset of the old one
    old = np.zeros_like(new_state.grid.rows)
    old[np.searchsorted(new_state.grid.index, state.grid.index)] = state.grid.rows
    changed = int(np.count_nonzero(np.any(new_state.grid.rows != old, axis=1)))
    print(f"updated t={state.t}->{new_state.t}, {changed} voxels changed -> {args.out}")
    return 0


def _cmd_voxelize(args) -> int:
    frame = load_frame(args.frame_in)
    layout = grid_layout(frame.positions, args.r)
    grid = points_to_grid(frame.positions, frame.features, layout, VoxelClusterConfig(k=args.k))
    save_grid(grid, args.out)
    print(f"grid {grid.layout.dims} with {grid.n_visible} visible voxels -> {args.out}")
    return 0


def _cmd_tokens(args) -> int:
    coords, feats = token_matrix(load_grid_or_scene(args.grid_in))
    if args.out:
        save_artifact(args.out, "tokens", {"count": len(coords)},
                      {"coords": coords, "features": feats})
    print(len(coords))
    return 0


def _cmd_datagen(args) -> int:
    world_cfg = WorldConfig(n_objects=args.objects, feature_dim=args.feature_dim)
    dg_cfg = DatagenConfig(
        resolution=args.r, knn_k=args.k, n_views=args.n_views,
        n_frame_views=args.frame_views, per_kind=args.per_kind, seed=args.seed,
    )
    summary = build_dataset_dir(args.out, args.worlds, world_cfg, dg_cfg, n_heldout=args.heldout)
    print(json.dumps({"out": args.out, **summary}, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    bundle = load_dataset_dir(args.data)
    if args.init:
        model = load_checkpoint(args.init)
    else:
        first = bundle.frame_records[0] if bundle.frame_records else bundle.train_records[0]
        cfg = ModelConfig(
            vocab_size=len(bundle.vocab), h=args.h, n_layers=args.layers,
            n_heads=args.heads, max_len=args.max_len,
            proj_in=first.visual.shape[1], proj_mid=args.h_mid,
        )
        grounding = word_grounding(next(iter(bundle.worlds.values())))
        model = AlignmentModel.create(cfg, bundle.vocab, seed=args.seed,
                                      word_grounding=grounding)
    stage = f"stage{args.stage}"
    if args.stage == 1:
        records = [r for r in bundle.frame_records if r.group == "frame"]
    else:
        records = bundle.frame_records + bundle.train_records
    seqs = sequences_for(records, model.vocab)
    # calibrated desk defaults: short gentle stage 1, longer joint stage 2
    lr = args.lr if args.lr else (3e-4 if args.stage == 1 else 2e-3)
    steps = args.steps if args.steps else (200 if args.stage == 1 else 2800)
    tcfg = TrainConfig(
        stage=stage, lr=lr, warmup_steps=args.warmup, warmup_lr=lr / 10,
        batch_size=args.batch, steps=steps, seed=args.seed,
    )
    trained, trace = train(seqs, tcfg, model)
    save_checkpoint(trained, args.out, extra_meta={"stage": stage, "final_loss": trace[-1]})
    print(json.dumps({
        "stage": stage, "steps": len(trace),
        "first_loss": round(trace[0], 6), "final_loss": round(trace[-1], 6),
        "out": args.out,
    }, sort_keys=True))
    return 0


def _exact_match_hits(model, prompts, max_len: int) -> int:
    """How many (sequence, answer) pairs the model answers exactly: greedy
    decoding after the sequence's prompt, compared without case or edge space."""
    return sum(generate(seq.prefix_before_answer(), model, max_len=max_len).strip()
               == answer.lower().strip() for seq, answer in prompts)


def _cmd_eval_qa(args) -> int:
    model = load_checkpoint(args.checkpoint)
    bundle = load_dataset_dir(args.data)
    records = bundle.heldout_records if args.split == "heldout" else bundle.train_records
    if args.limit:
        records = records[: args.limit]
    prompts = ((record_sequence(r, model.vocab), r.answer) for r in records)
    hits, total = _exact_match_hits(model, prompts, max_len=16), len(records)
    em = hits / total if total else 0.0
    print(json.dumps({"split": args.split, "exact_match": round(em, 4),
                      "hits": hits, "total": total}, sort_keys=True))
    return 0


def _cmd_episode_run(args) -> int:
    world = load_world(args.world)
    tasks = gen_tasks(world, seed=args.task_seed)
    if not tasks:
        raise SceneFusionError("world has no unambiguous task pairs")
    task = tasks[args.task_index % len(tasks)]
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    planner = None
    if args.planner == "oracle":
        planner = OraclePlanner(task)
    elif args.planner == "belief":
        planner = GridBeliefPlanner(world, task)
    disturbance = None
    if args.disturb_swap:
        disturbance = Disturbance(args.disturb_after, "swap",
                                  args.disturb_swap[0], args.disturb_swap[1])
    result = run_episode(
        world, task, model=model, planner=planner, budget=args.budget,
        resolution=args.r, cluster_cfg=VoxelClusterConfig(k=args.k),
        n_views=args.n_views, seed=args.seed,
        scene_updates=not args.no_scene_update,
        egocentric=not args.no_egocentric,
        disturbance=disturbance,
    )
    steps_json = []
    for i, s in enumerate(result.steps):
        frame_ref = None
        if args.frames_dir:
            os.makedirs(args.frames_dir, exist_ok=True)
            frame_ref = os.path.join(args.frames_dir, f"frame-{i:03d}.bin")
            save_frame(result.frames[i], frame_ref)
        steps_json.append({
            "step": s.step, "frame_ref": frame_ref, "description": s.description,
            "prompt_hash": s.prompt_hash, "action": s.action,
            "accepted": s.accepted, "reason": s.reason,
        })
    transcript = {
        "format": 1, "kind": "transcript", "task": task.text,
        "outcome": result.outcome, "steps": steps_json,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(transcript, f, indent=1, sort_keys=True)
    print(json.dumps({"task": task.text, "outcome": result.outcome,
                      "n_steps": len(result.steps), "out": args.out}, sort_keys=True))
    return result.outcome != "success"


def _cmd_ablate(args) -> int:
    world = load_world(args.world)
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    records = gen_instructions(world, ("qa_existence", "qa_negation", "qa_counting"),
                               count=6, seed=args.seed) if model else []
    by_resolution = args.axis == "resolution"
    kind = float if by_resolution else int
    try:
        values = sorted(map(kind, args.values.split(",")), reverse=by_resolution)
    except ValueError:
        raise ConfigError(f"--values must be comma-separated {kind.__name__}s, "
                          f"got {args.values!r}") from None
    if by_resolution:  # coarse to fine
        pairs = [(r, args.n_views) for r in values]
    else:
        pairs = [(args.r, n) for n in values]
    rows = []
    for r, n in pairs:
        state, _ = scene_from_world(world, r, VoxelClusterConfig(k=args.k),
                                    n_views=n, seed=args.seed)
        row = {"resolution": r} if by_resolution else {"n_views": n}
        row["tokens"] = int(state.grid.n_visible)
        if model:
            _, tokens = token_matrix(state.grid)
            prompts = [(assemble_sequence(SEQ_KIND_SCENE, tokens, r.instruction, "", model.vocab),
                        r.answer) for r in records]
            em = _exact_match_hits(model, prompts, max_len=8) / len(records) if records else 0.0
            row["exact_match"] = round(em, 4)
        rows.append(row)
    counts = [row["tokens"] for row in rows]
    if by_resolution and any(b < a for a, b in zip(counts, counts[1:])):
        raise SceneFusionError(
            f"token counts not non-decreasing as resolution shrinks: {counts}"
        )
    report = {"axis": args.axis, "rows": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_pca_dump(args) -> int:
    grid = load_grid_or_scene(args.grid_in)
    coords, feats = token_matrix(grid)
    if len(coords) == 0:
        raise SceneFusionError("grid has no visible voxels to project")
    centers = grid.layout.origin + (coords + 0.5) * grid.layout.resolution
    centered = feats - feats.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    n_comp = min(3, vt.shape[0])
    comps = np.zeros((feats.shape[0], 3))
    for i in range(n_comp):
        axis = vt[i]
        if axis[np.argmax(np.abs(axis))] < 0:  # deterministic sign
            axis = -axis
        comps[:, i] = centered @ axis
    lo, hi = comps.min(axis=0), comps.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    rgb = (comps - lo) / span
    with open(args.out, "w", encoding="utf-8") as f:
        for c, col in zip(centers, rgb):
            f.write(f"{c[0]:.6f} {c[1]:.6f} {c[2]:.6f} "
                    f"{col[0]:.6f} {col[1]:.6f} {col[2]:.6f}\n")
    print(f"wrote {len(centers)} colored points -> {args.out}")
    return 0


def _add_camera_flags(p):
    p.add_argument("--view", type=_count, default=0, help="view index from capture_views")
    p.add_argument("--n-views", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agent", action="store_true", help="use the agent's egocentric camera")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenefusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    world_p = sub.add_parser("world", help="world operations")
    world_sub = world_p.add_subparsers(dest="subcommand", required=True)
    p = world_sub.add_parser("gen", help="generate a random room")
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--room", type=float, nargs=3, default=[3.2, 3.2, 2.0])
    p.add_argument("--feature-dim", type=int, default=16)
    p.set_defaults(func=_cmd_world_gen)

    p = sub.add_parser("render", help="raycast one view to a render artifact")
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True)
    _add_camera_flags(p)
    p.set_defaults(func=_cmd_render)

    frame_p = sub.add_parser("frame", help="frame operations")
    frame_sub = frame_p.add_subparsers(dest="subcommand", required=True)
    p = frame_sub.add_parser("build", help="render a view and unproject it to a frame")
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coord", choices=["camera", "world"], default="world")
    _add_camera_flags(p)
    p.set_defaults(func=_cmd_frame_build)

    scene_p = sub.add_parser("scene", help="scene operations")
    scene_sub = scene_p.add_subparsers(dest="subcommand", required=True)
    p = scene_sub.add_parser("init", help="aggregate multi-view frames into a scene grid")
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r", type=float, default=0.18)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n-views", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_scene_init)
    p = scene_sub.add_parser("update", help="apply the masked update from a frame")
    p.add_argument("--scene", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=_cmd_scene_update)

    p = sub.add_parser("voxelize", help="voxelize a frame into a feature grid")
    p.add_argument("--in", dest="frame_in", required=True)
    p.add_argument("--r", type=float, default=0.18)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("tokens", help="count (and optionally dump) visual tokens")
    p.add_argument("--in", dest="grid_in", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tokens)

    p = sub.add_parser("datagen", help="generate a dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--worlds", type=int, default=30)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n-views", type=int, default=6)
    p.add_argument("--frame-views", type=int, default=3)
    p.add_argument("--per-kind", type=_count, default=6)
    p.add_argument("--heldout", type=_count, default=50)
    p.add_argument("--feature-dim", type=int, default=16)
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("train", help="train the alignment model")
    p.add_argument("--data", required=True)
    p.add_argument("--stage", type=int, choices=[1, 2], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None, help="checkpoint to continue from")
    p.add_argument("--steps", type=int, default=0, help="0 = stage default (200/2800)")
    p.add_argument("--lr", type=float, default=0.0, help="0 = stage default (3e-4/2e-3)")
    p.add_argument("--warmup", type=int, default=50)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=int, default=32)
    p.add_argument("--h-mid", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--max-len", type=int, default=512)
    p.set_defaults(func=_cmd_train)

    eval_p = sub.add_parser("eval", help="evaluation")
    eval_sub = eval_p.add_subparsers(dest="subcommand", required=True)
    p = eval_sub.add_parser("qa", help="exact-match QA evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["heldout", "train"], default="heldout")
    p.add_argument("--limit", type=_count, default=0, help="0 = every record")
    p.set_defaults(func=_cmd_eval_qa)

    episode_p = sub.add_parser("episode", help="interactive episodes")
    episode_sub = episode_p.add_subparsers(dest="subcommand", required=True)
    p = episode_sub.add_parser("run", help="run one pick-and-place episode")
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--planner", choices=["oracle", "belief"], default=None)
    p.add_argument("--task-seed", type=int, default=0)
    p.add_argument("--task-index", type=int, default=0)
    p.add_argument("--budget", type=_count, default=12)
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n-views", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-scene-update", action="store_true")
    p.add_argument("--no-egocentric", action="store_true")
    p.add_argument("--disturb-swap", type=int, nargs=2, default=None,
                   metavar=("OID_A", "OID_B"))
    p.add_argument("--disturb-after", type=_count, default=0)
    p.add_argument("--frames-dir", default=None)
    p.set_defaults(func=_cmd_episode_run)

    p = sub.add_parser("ablate", help="resolution / view-count sweeps")
    p.add_argument("axis", choices=["resolution", "views"])
    p.add_argument("--world", required=True)
    p.add_argument("--r", type=float, default=0.18, help="fixed resolution for the views sweep")
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--n-views", type=int, default=20)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ablate)

    pca_p = sub.add_parser("pca", help="feature visualization dumps")
    pca_sub = pca_p.add_subparsers(dest="subcommand", required=True)
    p = pca_sub.add_parser("dump", help="3-component feature projection point list")
    p.add_argument("--in", dest="grid_in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pca_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SceneFusionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
