"""Outside-in span tracing for the benchmark.

Spans are recorded by wrapping public functions of the ``scenefusion.*``
modules from the outside: every module namespace that binds the original
function object gets the wrapper, so calls made through ``datagen.render`` or
``model.forward_logits`` are traced as well as direct ones. Nothing under
``src/`` is edited; the wrappers are removed again when tracing ends.

A span is (name, start, end, parent span, op id, attrs). Spans stay in memory
and are written as JSON lines at the end of a run. A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans under a root add up to that root's duration.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# Prompts shorter than this many tokens count as "short" for per-token decode
# cost, prompts at least LONG_PROMPT tokens long as "long".
SHORT_PROMPT = 64
LONG_PROMPT = 96


class Tracer:
    """In-memory span recorder; while inactive, span() records nothing."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def set(self, i: int, **attrs) -> None:
        self.attrs.setdefault(i, {}).update(attrs)

    def write_jsonl(self, path, max_spans: int | None = None) -> int:
        n = len(self.names) if max_spans is None else min(max_spans, len(self.names))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i in range(n):
                rec = {"id": i, "name": self.names[i], "start": self.start[i],
                       "end": self.end[i], "parent": self.parent[i], "op": self.op[i]}
                if i in self.attrs:
                    rec["attrs"] = self.attrs[i]
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        return n


# ---------------------------------------------------------------------------
# wrapping


def _stage_of_prefixes(args, kwargs):
    prefixes = kwargs.get("trainable_prefixes", args[2] if len(args) > 2 else None)
    return "stage1" if tuple(prefixes or ()) == ("proj.",) else "stage2"


def _stage_of_cfg(args, kwargs):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return cfg.stage


def _render_attrs(args, kwargs, out):
    return {"pixels": int(out.depth.validity.size)}


def _frame_attrs(args, kwargs, out):
    return {"points": int(out.n_points)}


def _voxelize_attrs(args, kwargs, out):
    return {"points_in": int(len(args[0])), "voxels_out": int(out.n_visible)}


def _cluster_attrs(args, kwargs, out):
    return {"m": int(len(args[0])), "largest": int(len(out[0]))}


def _scene_attrs(args, kwargs, out):
    return {"grid_bytes": int(out.grid.features.nbytes + out.grid.visibility.nbytes)}


def _save_attrs(args, kwargs, out):
    return {"bytes": int(os.path.getsize(args[1]))}


def _generate_attrs(args, kwargs, out):
    return {"prompt_tokens": int(len(args[0]))}


# (module, function, stage suffix or None, attribute hook or None). The span
# name is "<layer>.<function>" with the module path below "scenefusion.",
# plus ".stage1"/".stage2" where the stage is read off the call's arguments.
TARGETS = (
    ("scenefusion.worldsim", "render", None, _render_attrs),
    ("scenefusion.geometry", "unproject", None, None),
    ("scenefusion.geometry", "to_world", None, None),
    ("scenefusion.frame", "build_frame", None, _frame_attrs),
    ("scenefusion.frame", "feature_vectors", None, None),
    ("scenefusion.voxelizer", "voxelize", None, _voxelize_attrs),
    ("scenefusion.voxelizer", "cluster_voxel", None, _cluster_attrs),
    ("scenefusion.voxelizer", "exact_mean", None, None),
    ("scenefusion.voxelizer", "token_matrix", None, None),
    ("scenefusion.scene", "init_scene", None, _scene_attrs),
    ("scenefusion.scene", "update_scene", None, _scene_attrs),
    ("scenefusion.scene", "merge_frame_grid", None, None),
    ("scenefusion.io_formats", "save_scene", None, _save_attrs),
    ("scenefusion.io_formats", "load_scene", None, None),
    ("scenefusion.datagen", "load_dataset_dir", None, None),
    ("scenefusion.datagen", "world_records", None, None),
    ("scenefusion.datagen", "scene_from_world", None, None),
    ("scenefusion.datagen", "frame_tokens", None, None),
    ("scenefusion.align.model", "pack_batch", None, None),
    ("scenefusion.align.model", "batch_loss_and_grads", _stage_of_prefixes, None),
    ("scenefusion.align.model", "forward_logits", None, None),
    ("scenefusion.align.model", "generate", None, _generate_attrs),
    ("scenefusion.align.projector", "gelu", None, None),
    ("scenefusion.align.projector", "gelu_grad", None, None),
    ("scenefusion.align.projector", "project", None, None),
    ("scenefusion.align.projector", "project_backward", None, None),
    ("scenefusion.align.training", "adamw_step", _stage_of_cfg, None),
    ("scenefusion.interact", "run_episode", None, None),
    ("scenefusion.interact", "egocentric_step", None, None),
)


def _make_wrapper(tracer: Tracer, fn, name: str, stage_fn, attr_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span_name = f"{name}.{stage_fn(args, kwargs)}" if stage_fn else name
        i = tracer.open(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if attr_fn is not None:
            tracer.set(i, **attr_fn(args, kwargs, out))
        return out

    return wrapper


def _bindings(fn):
    """Every (module, attribute) in the scenefusion package bound to fn."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "scenefusion" or mod_name.startswith("scenefusion.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


@contextmanager
def patched(fn, replacement):
    """Rebind fn to replacement in every scenefusion namespace, then restore."""
    bindings = _bindings(fn)
    for mod, attr in bindings:
        setattr(mod, attr, replacement)
    try:
        yield
    finally:
        for mod, attr in bindings:
            setattr(mod, attr, fn)


@contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers on every TARGETS function while active."""
    saved = []
    try:
        for mod_name, fn_name, stage_fn, attr_fn in TARGETS:
            fn = getattr(sys.modules[mod_name], fn_name)
            name = mod_name[len("scenefusion."):] + "." + fn_name
            wrapper = _make_wrapper(tracer, fn, name, stage_fn, attr_fn)
            for mod, attr in _bindings(fn):
                setattr(mod, attr, wrapper)
                saved.append((mod, attr, fn))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics

LAYERS = ("worldsim", "geometry", "frame", "voxelizer", "scene", "io_formats",
          "datagen", "align", "interact", "bench")


def _per_name(tracer: Tracer):
    n = len(tracer.names)
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    parent = np.array(tracer.parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    by_name: dict[str, list[int]] = {}
    for i, nm in enumerate(tracer.names):
        by_name.setdefault(nm, []).append(i)
    return dur, self_t, parent, by_name


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans; totals are per op (n_ops)."""
    dur, self_t, parent, by_name = _per_name(tracer)
    ops = max(n_ops, 1)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name)) / ops

    def self_ms(name):
        return float(self_t[idx(name)].sum()) * 1e3 / ops if idx(name) else 0.0

    def ms_per_call(name):
        ii = idx(name)
        return float(dur[ii].mean()) * 1e3 if ii else 0.0

    def attr_sum(name, key):
        return sum(tracer.attrs.get(i, {}).get(key, 0) for i in idx(name)) / ops

    m: dict[str, float] = {}
    m["worldsim.render.calls"] = calls("worldsim.render")
    m["worldsim.render.self_ms"] = self_ms("worldsim.render")
    m["worldsim.render.pixels"] = attr_sum("worldsim.render", "pixels")
    m["geometry.unproject.self_ms"] = self_ms("geometry.unproject")
    m["geometry.to_world.self_ms"] = self_ms("geometry.to_world")
    m["frame.build_frame.calls"] = calls("frame.build_frame")
    m["frame.build_frame.self_ms"] = self_ms("frame.build_frame")
    m["frame.build_frame.points"] = attr_sum("frame.build_frame", "points")
    m["frame.feature_vectors.self_ms"] = self_ms("frame.feature_vectors")

    clusters = idx("voxelizer.cluster_voxel")
    sizes = np.array([tracer.attrs[i]["m"] for i in clusters], dtype=np.float64)
    largest = np.array([tracer.attrs[i]["largest"] for i in clusters], dtype=np.float64)
    # cluster_voxel runs once per occupied voxel inside voxelize, so the points
    # voxelize took in but never clustered are the ones it dropped
    dropped = attr_sum("voxelizer.voxelize", "points_in") * ops - sizes.sum()
    m["voxelizer.voxelize.calls"] = calls("voxelizer.voxelize")
    m["voxelizer.voxelize.self_ms"] = self_ms("voxelizer.voxelize")
    m["voxelizer.voxelize.points_in"] = attr_sum("voxelizer.voxelize", "points_in")
    m["voxelizer.voxelize.voxels_out"] = attr_sum("voxelizer.voxelize", "voxels_out")
    m["voxelizer.voxelize.points_dropped"] = float(dropped) / ops
    m["voxelizer.cluster_voxel.calls"] = calls("voxelizer.cluster_voxel")
    m["voxelizer.cluster_voxel.self_ms"] = self_ms("voxelizer.cluster_voxel")
    m["voxelizer.exact_mean.self_ms"] = self_ms("voxelizer.exact_mean")
    m["voxelizer.token_matrix.self_ms"] = self_ms("voxelizer.token_matrix")
    m["voxelizer.points_per_voxel_p50"] = float(np.median(sizes)) if sizes.size else 0.0
    m["voxelizer.points_per_voxel_max"] = float(sizes.max()) if sizes.size else 0.0
    m["voxelizer.largest_cluster_frac"] = float(largest.sum() / sizes.sum()) if sizes.size else 0.0

    m["scene.init_scene.calls"] = calls("scene.init_scene")
    m["scene.init_scene.self_ms"] = self_ms("scene.init_scene")
    m["scene.update_scene.calls"] = calls("scene.update_scene")
    m["scene.update_scene.self_ms"] = self_ms("scene.update_scene")
    m["scene.merge_frame_grid.self_ms"] = self_ms("scene.merge_frame_grid")
    grid_bytes = [tracer.attrs[i]["grid_bytes"]
                  for i in idx("scene.init_scene") + idx("scene.update_scene")]
    m["scene.grid_mb"] = max(grid_bytes) / 2**20 if grid_bytes else 0.0

    m["io_formats.save_scene.self_ms"] = self_ms("io_formats.save_scene")
    m["io_formats.save_scene.bytes"] = attr_sum("io_formats.save_scene", "bytes")
    m["io_formats.load_scene.self_ms"] = self_ms("io_formats.load_scene")

    m["datagen.load_dataset_dir.self_ms"] = self_ms("datagen.load_dataset_dir")
    m["datagen.world_records.calls"] = calls("datagen.world_records")
    m["datagen.world_records.self_ms"] = self_ms("datagen.world_records")
    m["datagen.scene_from_world.self_ms"] = self_ms("datagen.scene_from_world")
    m["datagen.frame_tokens.calls"] = calls("datagen.frame_tokens")

    m["align.model.pack_batch.self_ms"] = self_ms("align.model.pack_batch")
    for stage in ("stage1", "stage2"):
        m[f"align.model.batch_loss_and_grads.{stage}_ms_per_call"] = ms_per_call(
            f"align.model.batch_loss_and_grads.{stage}")
    for fn in ("gelu", "gelu_grad", "project", "project_backward"):
        m[f"align.projector.{fn}.self_ms"] = self_ms(f"align.projector.{fn}")
    for stage in ("stage1", "stage2"):
        m[f"align.training.adamw_step.{stage}_ms_per_call"] = ms_per_call(
            f"align.training.adamw_step.{stage}")

    m["align.model.forward_logits.calls"] = calls("align.model.forward_logits")
    m["align.model.forward_logits.self_ms"] = self_ms("align.model.forward_logits")
    gens = idx("align.model.generate")
    steps_of = {g: 0 for g in gens}
    for i in idx("align.model.forward_logits"):
        if parent[i] in steps_of:
            steps_of[parent[i]] += 1
    steps = np.array([steps_of[g] for g in gens], dtype=np.float64)
    prompts = np.array([tracer.attrs[i]["prompt_tokens"] for i in gens], dtype=np.float64)
    gdur = dur[gens] if gens else np.zeros(0)
    m["align.model.generate.calls"] = calls("align.model.generate")
    m["align.model.generate.tokens_out"] = float(steps.sum()) / ops
    m["align.model.generate.prompt_tokens_mean"] = float(prompts.mean()) if gens else 0.0
    for label, sel in (("short", prompts < SHORT_PROMPT), ("long", prompts >= LONG_PROMPT)):
        n_tok = steps[sel].sum()
        m[f"align.model.generate.ms_per_token_{label}"] = (
            float(gdur[sel].sum()) * 1e3 / n_tok if n_tok else 0.0)

    m["interact.run_episode.self_ms"] = self_ms("interact.run_episode")
    m["interact.egocentric_step.calls"] = calls("interact.egocentric_step")
    m["interact.egocentric_step.self_ms"] = self_ms("interact.egocentric_step")
    m["interact.planner.self_ms"] = self_ms("interact.planner")

    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    root_total = float(dur[roots].sum()) if roots else 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for nm, ii in by_name.items():
        layer = nm.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(self_t[ii].sum())
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / root_total if root_total else 0.0
    m["trace.self_sum_frac"] = float(self_t.sum()) / root_total if root_total else 0.0
    m["trace.spans_per_op"] = len(tracer.names) / ops
    return m
