"""The three benchmark workloads: fusion, episode and train_qa.

Each workload is a closed loop with one client and no think time: the next
unit of work starts as soon as the previous one (and its correctness check)
finished. A unit is one room for ``fusion``, one episode for ``episode`` and
one load/train/answer round for ``train_qa``; a unit yields one or more ops,
the requests whose latency the benchmark reports (a scene, a step, an answer).

Inputs come from the workload seed only. Library calls go through module
attributes (``worldsim.render``, ``scene.init_scene``, ...) so the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import scenefusion.align.model as align_model
import scenefusion.align.training as training
from scenefusion import datagen, interact, io_formats, scene, voxelizer, worldsim
from scenefusion import frame as sf_frame
from scenefusion.align.sequence import SEQ_KIND_SCENE, TokenSequence, assemble_sequence
from scenefusion.align.vocab import build_vocab
from scenefusion.errors import GenerationError

from oracles import brute_voxelize

from spans import Tracer, patched


@dataclass
class Unit:
    """One unit of measured work, plus what its check needs."""

    op_ms: list[float]  # latency samples of the workload's op
    op_factor: list[float]  # machine-speed factor while each op ran (run.machine_factor)
    ops: int  # ops attempted, the denominator of fail_frac
    work: float  # work done, in the workload's work unit
    seconds: float  # measured wall time of the unit
    scaled_seconds: float  # the same, scaled phase by phase by the machine-speed factor
    digest: str  # hash of the unit's outputs
    payload: dict = field(default_factory=dict)  # outputs the check reads
    extra: dict = field(default_factory=dict)  # per-unit numbers for the report
    failed: int = 0


# Model initialisation and training seed: the model is part of the system under
# test, not an input, and its seed changes how many tokens it decodes.
MODEL_SEED = 0

# Unit index of the warm-up unit each set-up runs; measured units count from 0.
# Its inputs do not depend on the workload seed, so set-up does the same work
# on every seed.
WARMUP_UNIT = 1_000_000


def input_seed(seed: int, i: int) -> int:
    return 0 if i == WARMUP_UNIT else seed


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()[:16]


def _grid_bytes(grid) -> bytes:
    return grid.features.tobytes() + grid.visibility.tobytes()


def gen_room(seed: int, *path: int) -> worldsim.WorldState:
    """A 5-object room; placement retries move on to the next sub-seed."""
    for attempt in range(100):
        try:
            return worldsim.gen_world(worldsim.WorldConfig(n_objects=5),
                                      seed=sub_seed(seed, *path, attempt))
        except GenerationError:
            continue
    raise GenerationError(f"no room for seed {seed} path {path}")


# ---------------------------------------------------------------------------
# fusion


class Fusion:
    """One op turns one generated room into a persisted scene.

    Why: the voxelizer's target configuration (20 views at 128x128, r=0.18,
    k=5): ~20k points, hundreds of points per occupied voxel, so raycasting
    and per-voxel clustering dominate. The model is never called, which makes
    this the bypass workload for model-side changes.
    """

    name = "fusion"
    op_name = "scene_ms"
    work_name = "fused_points_per_s"
    N_VIEWS = 20
    IMAGE = 128
    RESOLUTION = 0.18
    K = 5
    ORACLE_UNITS = 4  # the brute-force oracle costs O(m^2) Python per voxel

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tracer: Tracer, probe) -> None:
        self.intr = worldsim.default_intrinsics(self.IMAGE, self.IMAGE)
        self.cfg = voxelizer.VoxelClusterConfig(k=self.K)
        self.path = os.path.join(self.workdir, "scene.bin")
        self.run_unit(WARMUP_UNIT, tracer, probe)  # warm-up op

    def unit_inputs(self, i: int):
        return gen_room(input_seed(self.seed, i), 0, i)

    def input_digest(self, i: int) -> str:
        return _sha(worldsim.world_to_dict(self.unit_inputs(i)))

    def run_unit(self, i: int, tracer: Tracer, probe) -> Unit:
        world = self.unit_inputs(i)
        tracer.op_id += 1
        f0 = probe()
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            views = worldsim.capture_views(world, self.N_VIEWS, seed=input_seed(self.seed, i),
                                           intr=self.intr)
            frames = []
            for iv, pv in views:
                rr = worldsim.render(world, iv, pv)
                frames.append(sf_frame.build_frame(rr.depth, rr.colors, rr.features, iv, pv))
            frames = [f for f in frames if f.n_points]
            state = scene.init_scene(frames, self.RESOLUTION, self.cfg,
                                     explicit_bounds=(world.bounds_min, world.bounds_max))
            coords, tokens = voxelizer.token_matrix(state.grid)
            io_formats.save_scene(state, self.path)
            loaded = io_formats.load_scene(self.path)
        dt = time.perf_counter() - t0
        f = (f0 + probe()) / 2
        points = sum(fr.n_points for fr in frames)
        return Unit([dt * 1e3], [f], 1, float(points), dt, dt * f,
                    _sha(_grid_bytes(loaded.grid), len(tokens)),
                    {"i": i, "frames": frames, "state": state, "coords": coords,
                     "tokens": tokens, "loaded": loaded})

    def corrupt(self, unit: Unit) -> None:
        unit.payload["tokens"] = unit.payload["tokens"][:-1]

    def check(self, unit: Unit) -> int:
        p = unit.payload
        state, loaded = p["state"], p["loaded"]
        ok = len(p["tokens"]) == len(p["coords"]) == state.grid.n_visible
        ok &= _grid_bytes(loaded.grid) == _grid_bytes(state.grid)
        ok &= loaded.t == state.t and loaded.layout.dims == state.layout.dims
        ok &= loaded.layout.origin.tobytes() == state.layout.origin.tobytes()
        ok &= loaded.layout.resolution == state.layout.resolution
        if ok and p["i"] < self.ORACLE_UNITS:
            ok = self._oracle_ok(p["i"], p["frames"], state)
        return 0 if ok else 1

    def _oracle_ok(self, i: int, frames, state) -> bool:
        """One seeded voxel against the brute-force oracle, bit for bit."""
        layout = state.layout
        positions = np.concatenate([f.world_positions() for f in frames])
        features = np.concatenate([f.features for f in frames])
        vectors = sf_frame.feature_vectors(positions, features, layout.box_min, layout.box_max)
        visible = np.argwhere(state.grid.visibility)
        rng = np.random.default_rng([self.seed, 1, i])
        target = tuple(int(c) for c in visible[rng.integers(len(visible))])
        idx = np.floor((positions - layout.origin) / layout.resolution).astype(np.int64)
        members = np.nonzero(np.all(idx == np.array(target), axis=1))[0]
        feats, vis = brute_voxelize(positions[members], vectors[members], layout.origin,
                                    layout.dims, layout.resolution, self.K)
        expected = feats[target].tobytes()
        return bool(vis[target]) and expected == state.grid.features[target].tobytes()


# ---------------------------------------------------------------------------
# episode


class BenchPlanner:
    """The planner callable the benchmark supplies: it stamps each call, so
    step latency is the interval between successive calls."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls: list[float] = []

    def __call__(self, ep, obs):
        self.calls.append(time.perf_counter())
        self.tracer.op_id += 1
        with self.tracer.span("interact.planner"):
            return self.inner(ep, obs)


class Episode:
    """One op is one step of run_episode.

    Why: the scene layer's write path. Many small 32x32 egocentric frames merge
    into a fine (r=0.09) persistent room-sized grid, next to short-prompt
    decoding of 24-token descriptions by a seeded, untrained model.
    """

    name = "episode"
    op_name = "step_ms"
    work_name = "fused_points_per_s"
    RESOLUTION = 0.09
    K = 5
    N_VIEWS = 8
    BUDGET = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self, tracer: Tracer, probe) -> None:
        vocab = build_vocab([], extra_words=worldsim.base_vocab_words())
        cfg = align_model.ModelConfig(vocab_size=len(vocab), proj_in=19)
        self.model = align_model.AlignmentModel.create(cfg, vocab, seed=MODEL_SEED)
        self.cfg = voxelizer.VoxelClusterConfig(k=self.K)
        self.run_unit(WARMUP_UNIT, tracer, probe)  # warm-up episode

    def unit_inputs(self, i: int):
        """A seeded mix of swap-scenario rooms and generated rooms with tasks."""
        seed = input_seed(self.seed, i)
        rng = np.random.default_rng([seed, 2, i])
        if rng.random() < 0.5:
            world, task, dist, init_views = interact.make_swap_scenario(sub_seed(seed, 2, i))
            return world, task, dist, init_views
        for attempt in range(100):
            world = gen_room(seed, 3, i, attempt)
            tasks = worldsim.gen_tasks(world, seed=sub_seed(seed, 4, i))
            if tasks:
                return world, tasks[int(rng.integers(len(tasks)))], None, None
        raise GenerationError(f"no task room for seed {seed} unit {i}")

    def input_digest(self, i: int) -> str:
        world, task, _, _ = self.unit_inputs(i)
        return _sha(worldsim.world_to_dict(world), task.text)

    def run_unit(self, i: int, tracer: Tracer, probe) -> Unit:
        world, task, dist, init_views = self.unit_inputs(i)
        planner = BenchPlanner(interact.GridBeliefPlanner(world, task), tracer)
        f0 = probe()
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with tracer.span("bench.episode"):
                result = interact.run_episode(
                    world, task, model=self.model, planner=planner, budget=self.BUDGET,
                    resolution=self.RESOLUTION, cluster_cfg=self.cfg, n_views=self.N_VIEWS,
                    seed=input_seed(self.seed, i), disturbance=dist, init_views=init_views)
        dt = time.perf_counter() - t0
        f = (f0 + probe()) / 2
        steps = np.diff(np.array(planner.calls)) * 1e3
        points = sum(fr.n_points for fr in result.frames)
        digest = _sha(result.outcome, [(s.action, s.description, s.accepted) for s in result.steps],
                      *(_grid_bytes(g.grid) for g in result.grids[-1:]))
        return Unit(steps.tolist(), [f] * len(steps), len(result.steps), float(points), dt,
                    dt * f, digest,
                    {"world": world, "init_views": init_views, "i": i, "frames": result.frames,
                     "grids": [g.grid for g in result.grids]})

    def corrupt(self, unit: Unit) -> None:
        g = unit.payload["grids"][0]
        feats = g.features.copy()
        j = int(np.flatnonzero(g.visibility)[0]) * g.feature_dim
        feats.reshape(-1).view(np.uint64)[j] ^= np.uint64(1)
        unit.payload["grids"][0] = voxelizer.VoxelGrid(g.layout, feats, g.visibility)

    def check(self, unit: Unit) -> int:
        """Replay every logged grid under the masked-update rule, bit for bit:
        voxels the step's frame observed take the frame's bits, all others keep
        the previous grid's bits, and visibility accumulates by OR."""
        p = unit.payload
        world = p["world"]
        views = p["init_views"] or worldsim.capture_views(world, self.N_VIEWS,
                                                          input_seed(self.seed, p["i"]))
        frames0 = [f for f in (datagen.frame_from_view(world, iv, pv) for iv, pv in views)
                   if f.n_points]
        prev = scene.init_scene(frames0, self.RESOLUTION, self.cfg,
                                explicit_bounds=(world.bounds_min, world.bounds_max)).grid
        failed = 0
        for frame, logged in zip(p["frames"], p["grids"]):
            if frame.n_points:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fg = scene.frame_to_grid(frame, prev.layout, self.cfg)
                feats = np.where(fg.visibility[..., None], fg.features, prev.features)
                vis = prev.visibility | fg.visibility
            else:
                feats, vis = prev.features, prev.visibility
            failed += feats.tobytes() != logged.features.tobytes() or \
                vis.tobytes() != logged.visibility.tobytes()
            prev = logged
        return failed


# ---------------------------------------------------------------------------
# train_qa


class TrainQA:
    """One unit is one round: load the dataset directory, train stage 1 then
    stage 2 for a fixed number of steps, then answer every world's QA at three
    scene resolutions. One op is one greedy answer.

    Why: the only workload with backward passes and optimizer steps, and its
    decoding spans prompt lengths where cost per token grows with the prompt.
    The voxelizer runs only inside the dataset load, as many small calls.
    """

    name = "train_qa"
    op_name = "answer_ms"
    work_name = "rounds_per_s"
    N_WORLDS = 3  # worlds in the training dataset
    QA_WORLDS = 12  # rooms the trained model answers questions about
    RESOLUTIONS = (0.25, 0.18, 0.12)
    QA_KINDS = ("qa_existence", "qa_negation", "qa_counting")
    QA_PER_KIND = 3
    ANSWER_LEN = 16
    STAGE_STEPS = 60
    BATCH = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.verified: dict[str, tuple[str, int]] = {}

    def setup(self, tracer: Tracer, probe) -> None:
        data_dir = os.path.join(self.workdir, "data")
        shutil.rmtree(data_dir, ignore_errors=True)
        # The dataset is the CLI's default (datagen seed 0), so every workload
        # seed trains the same model. The seed makes the rooms the model is
        # asked about, their questions and their scene views, as
        # `ablate resolution --world W --seed S --checkpoint C` does.
        world_cfg = worldsim.WorldConfig(n_objects=5, feature_dim=16)
        datagen.build_dataset_dir(data_dir, self.N_WORLDS, world_cfg, datagen.DatagenConfig(),
                                  n_heldout=50)
        self.data_dir = data_dir
        cfg = voxelizer.VoxelClusterConfig(k=5)
        self.queries = []  # (world ref, resolution, instruction, visual tokens)
        for w in range(self.QA_WORLDS):
            world = gen_room(self.seed, 5, w)
            records = worldsim.gen_instructions(world, self.QA_KINDS, self.QA_PER_KIND, self.seed)
            for r in self.RESOLUTIONS:
                state, _ = datagen.scene_from_world(world, r, cfg, n_views=20, seed=self.seed)
                _, tokens = voxelizer.token_matrix(state.grid)
                self.queries += [(f"world-{world.seed}", r, rec.instruction, tokens)
                                 for rec in records]
        self.run_unit(WARMUP_UNIT, tracer, probe)  # warm-up round: the first training run is slow

    def input_digest(self, i: int) -> str:
        return _sha(*(q[2].encode() + q[3].tobytes() for q in self.queries))

    def _train(self, seqs, stage, lr, model):
        tcfg = training.TrainConfig(stage=stage, lr=lr, warmup_steps=50, warmup_lr=lr / 10,
                                    batch_size=self.BATCH, steps=self.STAGE_STEPS,
                                    seed=MODEL_SEED)
        t0 = time.perf_counter()
        trained, _ = training.train(seqs, tcfg, model)
        return trained, time.perf_counter() - t0

    def run_unit(self, i: int, tracer: Tracer, probe) -> Unit:
        # probes between phases, so each phase is scaled by its own factor
        tracer.op_id += 1
        f = [probe()]
        marks = [time.perf_counter()]
        with tracer.span("bench.load"):
            bundle = datagen.load_dataset_dir(self.data_dir)
        marks.append(time.perf_counter())
        f.append(probe())
        with tracer.span("bench.stage1"):
            first = bundle.frame_records[0]
            cfg = align_model.ModelConfig(
                vocab_size=len(bundle.vocab), h=32, n_layers=2, n_heads=2, max_len=512,
                proj_in=first.visual.shape[1], proj_mid=32)
            grounding = worldsim.word_grounding(next(iter(bundle.worlds.values())))
            model0 = align_model.AlignmentModel.create(cfg, bundle.vocab, seed=MODEL_SEED,
                                                       word_grounding=grounding)
            seqs1 = datagen.sequences_for(
                [r for r in bundle.frame_records if r.group == "frame"], bundle.vocab)
            model1, s1 = self._train(seqs1, "stage1", 3e-4, model0)
        marks.append(time.perf_counter())
        f.append(probe())
        with tracer.span("bench.stage2"):
            seqs2 = datagen.sequences_for(bundle.frame_records + bundle.train_records,
                                          bundle.vocab)
            model2, s2 = self._train(seqs2, "stage2", 2e-3, model1)
        marks.append(time.perf_counter())
        f.append(probe())
        answers, answer_ms, prompts = [], [], []
        for _, _, instruction, tokens in self.queries:
            a0 = time.perf_counter()
            with tracer.span("bench.answer"):
                seq = assemble_sequence(SEQ_KIND_SCENE, tokens, instruction, "", model2.vocab)
                prefix = seq.prefix_before_answer()
                out = align_model.generate(prefix, model2, max_len=self.ANSWER_LEN)
            answer_ms.append((time.perf_counter() - a0) * 1e3)
            answers.append(out)
            prompts.append(prefix)
        marks.append(time.perf_counter())
        f.append(probe())
        # the factor of each phase is the mean of the probes around it
        phase_f = [(a + b) / 2 for a, b in zip(f, f[1:])]
        phase_s = [b - a for a, b in zip(marks, marks[1:])]
        h0 = align_model.param_hash(model0.params)
        h1 = align_model.param_hash(model1.params)
        h2 = align_model.param_hash(model2.params)
        return Unit(answer_ms, [phase_f[3]] * len(answer_ms), len(answers) + 1, 1.0,
                    marks[-1] - marks[0], sum(s * g for s, g in zip(phase_s, phase_f)),
                    _sha(h0, h1, h2, *answers),
                    {"model0": model0, "model1": model1, "model2": model2, "h2": h2,
                     "prompts": prompts, "answers": answers},
                    {"load_s": phase_s[0] * phase_f[0], "stage1_s": s1 * phase_f[1],
                     "stage2_s": s2 * phase_f[2], "answer_s": phase_s[3] * phase_f[3]})

    def corrupt(self, unit: Unit) -> None:
        unit.payload["answers"][0] += " yes"

    def check(self, unit: Unit) -> int:
        """Stage 1 leaves every lm.* parameter bit-identical, and each answer is
        the greedy argmax of one teacher-forced pass over prompt plus answer."""
        p = unit.payload
        failed = int(align_model.param_hash(p["model0"].params, "lm.")
                     != align_model.param_hash(p["model1"].params, "lm."))
        decode_tokens = 0
        for prefix, answer in zip(p["prompts"], p["answers"]):
            key = _sha(p["h2"], prefix.tokens.tobytes(), prefix.visuals.tobytes())
            if key not in self.verified:
                self.verified[key] = self._teacher_forced(p["model2"], prefix)
            expected, n_tokens = self.verified[key]
            failed += answer != expected
            decode_tokens += n_tokens
        unit.extra["decode_tokens"] = decode_tokens
        return failed

    def _teacher_forced(self, model, prefix) -> tuple[str, int]:
        """Greedy answer re-derived from one forward pass; ("<mismatch>", n) if
        greedy decoding and the teacher-forced argmax disagree."""
        ids: list[int] = []
        forward = align_model.forward_logits

        def capture(m, seq):
            logits = forward(m, seq)
            ids.append(int(np.argmax(logits[-1])))
            return logits

        with patched(forward, capture):
            out = align_model.generate(prefix, model, max_len=self.ANSWER_LEN)
        full = np.concatenate([prefix.tokens, np.array(ids[:-1], dtype=np.int64)])
        logits = forward(model, TokenSequence(full, prefix.visuals, np.zeros(len(full), bool)))
        forced = np.argmax(logits[len(prefix) - 1:], axis=1).tolist()
        eos = model.vocab.eos_id
        words = model.vocab.decode([t for t in ids if t != eos])
        if forced != ids or words != out:
            return "<mismatch>", len(ids)
        return out, len(ids)


WORKLOADS = {w.name: w for w in (Fusion, Episode, TrainQA)}
