"""Simulator tests: deterministic generation, slab-test rendering against a
per-ray oracle, action semantics, views, and templated language records."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from scenefusion.errors import GenerationError
from scenefusion.frame import build_frame
from scenefusion.geometry import CameraIntrinsics, Pose, look_at_pose
from scenefusion.interact import PlannerAction
from scenefusion.worldsim import (
    COLOR_TABLE,
    NEAR_DISTANCE,
    AgentState,
    SimObject,
    WorldConfig,
    WorldState,
    _screen_windows,
    agent_camera,
    apply_action,
    build_category_embeddings,
    capture_views,
    check_goal,
    default_intrinsics,
    gen_instructions,
    gen_tasks,
    gen_world,
    render,
    spatial_relation,
    world_from_dict,
    world_to_dict,
)

from oracles import full_image_render


def _ray_box_oracle(origin, direction, bmin, bmax):
    """Textbook slab test, one ray at a time. Returns t_hit or None."""
    t_near, t_far = -np.inf, np.inf
    for a in range(3):
        if direction[a] == 0.0:
            if origin[a] < bmin[a] or origin[a] > bmax[a]:
                return None
            continue
        t1 = (bmin[a] - origin[a]) / direction[a]
        t2 = (bmax[a] - origin[a]) / direction[a]
        t_near = max(t_near, min(t1, t2))
        t_far = min(t_far, max(t1, t2))
    if t_far < t_near:
        return None
    t = t_near if t_near > 1e-9 else t_far
    return t if t > 1e-9 else None


class TestGenWorld:
    def test_count_zero_gives_empty_room(self):
        w = gen_world(WorldConfig(n_objects=0), seed=0)
        assert w.objects == ()

    def test_same_seed_identical_worlds(self):
        a = gen_world(WorldConfig(n_objects=5), seed=42)
        b = gen_world(WorldConfig(n_objects=5), seed=42)
        assert world_to_dict(a) == world_to_dict(b)

    def test_no_pairwise_overlaps_across_seeds(self):
        cfg = WorldConfig(n_objects=10, min_gap=0.0)
        for seed in range(100):
            w = gen_world(cfg, seed=seed)
            for i, a in enumerate(w.objects):
                for b in w.objects[i + 1:]:
                    overlap = np.all(a.box_min < b.box_max) and np.all(a.box_max > b.box_min)
                    assert not overlap, f"seed {seed}: {a.oid} overlaps {b.oid}"

    def test_unplaceable_raises(self):
        cfg = WorldConfig(room_size=(0.8, 0.8, 1.0), n_objects=12, min_size=0.3,
                          max_size=0.4)
        with pytest.raises(GenerationError):
            gen_world(cfg, seed=0)

    def test_embeddings_separated_and_world_independent(self):
        emb = build_category_embeddings(("a", "b", "c", "d"), 13, seed=7)
        for k, v in emb.items():
            assert np.linalg.norm(v) == pytest.approx(1.0)
        names = list(emb)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert abs(emb[a] @ emb[b]) < 0.9
        w1 = gen_world(WorldConfig(), seed=1)
        w2 = gen_world(WorldConfig(), seed=99)
        for cat in w1.category_embeddings:
            np.testing.assert_array_equal(
                w1.category_embeddings[cat], w2.category_embeddings[cat]
            )


class TestRender:
    def test_camera_facing_away_sees_nothing(self):
        w = gen_world(WorldConfig(n_objects=3), seed=0)
        eye = w.centroid + np.array([0.0, 0.0, 1.0])
        pose = look_at_pose(eye, eye + np.array([0.0, 0.0, 50.0]))  # straight up
        rr = render(w, default_intrinsics(16, 16), pose)
        assert not rr.depth.validity.any()

    def test_unit_cube_on_axis_depth(self):
        # camera at origin looking down +z; unit cube centered 2 m ahead:
        # the on-axis pixel hits the near face at depth 1.5
        obj = SimObject(0, "box", "red", np.array([0.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        emb = build_category_embeddings(("box",), 13, seed=0)
        from scenefusion.worldsim import AgentState, WorldState

        w = WorldState(
            bounds_min=np.array([-5.0, -5.0, -5.0]), bounds_max=np.array([5.0, 5.0, 5.0]),
            objects=(obj,), agent=AgentState(np.zeros(3), np.array([0, 0, 1.0])),
            category_embeddings=emb, feature_dim=16, seed=0, embed_seed=0,
            categories_pool=("box",), colors_pool=("red",),
        )
        intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=8.0, cy=8.0, width=16, height=16)
        rr = render(w, intr, Pose.identity())
        # pixel (8,8) is the principal point: the exact on-axis ray
        assert rr.depth.validity[8, 8]
        assert rr.depth.values[8, 8] == pytest.approx(1.5, abs=1e-12)

    def test_every_pixel_matches_per_ray_oracle(self):
        w = gen_world(WorldConfig(n_objects=5), seed=3)
        views = capture_views(w, 2, seed=1, intr=default_intrinsics(16, 16))
        for intr, pose in views:
            rr = render(w, intr, pose)
            for v in range(16):
                for u in range(16):
                    d_cam = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
                    d_world = pose.rotation @ d_cam
                    best, best_oid = np.inf, -1
                    for obj in w.objects:
                        t = _ray_box_oracle(pose.translation, d_world, obj.box_min, obj.box_max)
                        if t is not None and t < best:
                            best, best_oid = t, obj.oid
                    if best_oid < 0:
                        assert not rr.depth.validity[v, u]
                    else:
                        assert rr.depth.validity[v, u]
                        assert rr.depth.values[v, u] == pytest.approx(best, rel=1e-12)
                        assert rr.object_ids[v, u] == best_oid

    def test_feature_rows_are_exact_embedding_color_pairs(self):
        w = gen_world(WorldConfig(n_objects=4), seed=5)
        intr, pose = capture_views(w, 1, seed=0)[0]
        rr = render(w, intr, pose)
        for obj in w.objects:
            mask = rr.object_ids == obj.oid
            if not mask.any():
                continue
            expected = np.concatenate([w.category_embeddings[obj.category],
                                       COLOR_TABLE[obj.color]])
            rows = rr.features.values[mask]
            assert np.all(rows == expected)

    def test_feature_image_equals_pixel_by_pixel_dense_image(self):
        w = gen_world(WorldConfig(n_objects=5), seed=8)
        for intr, pose in capture_views(w, 3, seed=4):
            rr = render(w, intr, pose)
            expected = np.zeros((intr.height, intr.width, w.feature_dim))
            for v, u in np.ndindex(intr.height, intr.width):
                oid = int(rr.object_ids[v, u])
                if oid >= 0:
                    expected[v, u] = w.feature_of(w.object_by_id(oid))
            assert rr.features.values.tobytes() == expected.tobytes()
            assert rr.features.table.shape[0] <= len(w.objects) + 1

    def test_render_unproject_points_lie_on_hit_boxes(self):
        w = gen_world(WorldConfig(n_objects=5), seed=6)
        intr, pose = capture_views(w, 1, seed=2)[0]
        rr = render(w, intr, pose)
        frame = build_frame(rr.depth, rr.colors, rr.features, intr, pose, "world")
        ids = rr.object_ids.reshape(-1)[frame.pixel_indices]
        for p, oid in zip(frame.positions, ids):
            obj = w.object_by_id(int(oid))
            # on the surface: inside the box within tolerance, on some face
            assert np.all(p >= obj.box_min - 1e-6) and np.all(p <= obj.box_max + 1e-6)
            face_dist = min(np.min(np.abs(p - obj.box_min)), np.min(np.abs(p - obj.box_max)))
            assert face_dist < 1e-6

    def test_held_objects_do_not_render(self):
        w = gen_world(WorldConfig(n_objects=3), seed=7)
        intr, pose = capture_views(w, 1, seed=0)[0]
        before = render(w, intr, pose)
        target = w.objects[0]
        res = apply_action(w, PlannerAction("goto", target.ref))
        res = apply_action(res.world, PlannerAction("pick", target.ref))
        assert res.ok
        after = render(res.world, intr, pose)
        assert not np.any(after.object_ids == target.oid)
        assert np.any(before.object_ids == target.oid) or True  # seed-dependent


def _assert_render_matches_oracle(world, intr, pose):
    rr = render(world, intr, pose)
    got = (rr.depth.values, rr.depth.validity, rr.features.values, rr.colors, rr.object_ids)
    for name, g, want in zip(("depth", "validity", "features", "colors", "ids"), got,
                             full_image_render(world, intr, pose)):
        assert g.dtype == want.dtype and g.shape == want.shape, name
        assert g.tobytes() == want.tobytes(), name
    return rr


def _box_world(*boxes):
    """A world of (center, size, held) boxes, ids in argument order."""
    cats = ("box", "mug", "lamp", "vase")
    objects = tuple(
        SimObject(i, cats[i % 4], ("red", "green", "blue")[i % 3], np.array(c, dtype=float),
                  np.array(sz, dtype=float), held=held)
        for i, (c, sz, held) in enumerate(boxes)
    )
    return WorldState(
        bounds_min=np.full(3, -5.0), bounds_max=np.full(3, 5.0), objects=objects,
        agent=AgentState(np.zeros(3), np.array([0.0, 0.0, 1.0])),
        category_embeddings=build_category_embeddings(cats, 13, seed=0), feature_dim=16,
        seed=0, embed_seed=0, categories_pool=cats, colors_pool=("red", "green", "blue"),
    )


# sha256 over every output array of `render` (depth, validity, feature ids
# and table, colors, object ids; dtype, shape and bytes) for seeded 5-object
# rooms 0..39, each seen from its 20 ring views and its agent camera. Pinned
# before the ray rotation became a contiguous matmul; a speedup must keep
# every bit.
RENDER_DIGESTS = {
    32: "74f1d7d4532ac5754d5c9dc79a46411e7190be069cc8cf46b732596c074a338b",
    128: "35c61e0570e0d80c0ec5678532970e77e0bcf44d2efbc3d509280834c3c09e08",
}


@pytest.mark.parametrize("size", sorted(RENDER_DIGESTS))
def test_render_bits_are_pinned_across_many_views(size):
    intr = default_intrinsics(size, size)
    h = hashlib.sha256()
    for seed in range(40):
        w = gen_world(WorldConfig(n_objects=5), seed=seed)
        for iv, pv in capture_views(w, 20, seed=seed, intr=intr) + [agent_camera(w, intr)]:
            rr = render(w, iv, pv)
            for arr in (rr.depth.values, rr.depth.validity, rr.features.ids,
                        rr.features.table, rr.colors, rr.object_ids):
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == RENDER_DIGESTS[size]


class TestRenderWindows:
    """Screen-window culling never changes a bit of the whole-image slab test."""

    INTR = CameraIntrinsics(fx=16.0, fy=16.0, cx=16.0, cy=16.0, width=32, height=32)

    def test_ring_views_match_full_image_oracle(self):
        intr = default_intrinsics(128, 128)
        for seed in (0, 1):
            w = gen_world(WorldConfig(n_objects=5), seed=seed)
            for iv, pv in capture_views(w, 20, seed=seed, intr=intr):
                _assert_render_matches_oracle(w, iv, pv)

    def test_agent_views_match_full_image_oracle(self):
        rng = np.random.default_rng(4)
        intr = default_intrinsics(32, 32)
        for j in range(60):
            w = gen_world(WorldConfig(n_objects=6), seed=100 + j % 12)
            pick = w.objects[j % len(w.objects)]
            if j % 3 == 0:  # the picked object is held at the agent's position
                held = replace(pick, held=True, center=w.agent.position.copy())
                w = replace(w, objects=tuple(held if o.oid == pick.oid else o
                                             for o in w.objects))
            pos = pick.center.copy() if j % 4 == 1 else rng.uniform(w.bounds_min, w.bounds_max)
            pos[2] = 0.0
            w = replace(w, agent=AgentState(pos, rng.uniform(w.bounds_min, w.bounds_max)))
            _assert_render_matches_oracle(w, *agent_camera(w, intr))

    def _windows(self, world):
        """Camera at the origin looking down +z, so box corners are camera-relative."""
        lo = np.array([o.box_min for o in world.objects])
        hi = np.array([o.box_max for o in world.objects])
        return _screen_windows(lo, hi, self.INTR, np.eye(3))

    def test_box_crossing_the_image_border(self):
        w = _box_world(((2.2, 0.3, 3.0), (1.2, 1.2, 1.2), False),
                       ((-0.3, -0.2, 4.0), (0.5, 0.5, 0.5), False))
        _, cols = self._windows(w)[0]
        assert cols.stop == 32 and 0 < cols.start < 32  # clipped at the right edge
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert rr.object_ids[:, -1].max() == 0 and (rr.object_ids == 1).any()

    def test_box_straddling_the_camera_plane_uses_whole_image(self):
        # x in [0.2, 0.8] and z in [-0.5, 0.5]: partly behind the camera
        w = _box_world(((0.5, 0.1, 0.0), (0.6, 0.6, 1.0), False),
                       ((0.0, 0.0, 3.0), (0.5, 0.5, 0.5), False))
        assert self._windows(w)[0] == (slice(0, 32), slice(0, 32))
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert (rr.object_ids == 0).any()

    def test_camera_inside_a_box(self):
        w = _box_world(((0.1, 0.0, 0.2), (2.0, 2.0, 2.0), False),
                       ((0.0, 0.0, 0.6), (0.2, 0.2, 0.2), False))
        assert self._windows(w)[0] == (slice(0, 32), slice(0, 32))
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert rr.depth.validity.all()  # every ray leaves through a face
        assert (rr.object_ids == 0).any() and (rr.object_ids == 1).any()

    def test_box_wholly_behind_the_camera_is_skipped(self):
        w = _box_world(((0.0, 0.0, -3.0), (1.0, 1.0, 1.0), False),
                       ((0.0, 0.0, -0.6), (3.0, 3.0, 1.0), False),  # back face at z = -0.1
                       ((0.2, 0.0, 2.0), (0.5, 0.5, 0.5), False))
        windows = self._windows(w)
        assert windows[0] is None and windows[1] is None and windows[2] is not None
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert set(np.unique(rr.object_ids).tolist()) == {-1, 2}

    def test_ray_lying_in_a_box_face_plane(self):
        # the principal ray (0, 0, 1) runs inside the face plane x = 0
        w = _box_world(((0.5, 0.0, 2.5), (1.0, 1.0, 1.0), False))
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert rr.object_ids[16, 16] == 0 and rr.depth.values[16, 16] == 2.0

    def test_held_object_does_not_occlude(self):
        w = _box_world(((0.0, 0.0, 1.0), (0.6, 0.6, 0.6), True),
                       ((0.0, 0.0, 3.0), (1.0, 1.0, 1.0), False))
        rr = _assert_render_matches_oracle(w, self.INTR, Pose.identity())
        assert rr.object_ids[16, 16] == 1 and not (rr.object_ids == 0).any()


class TestActions:
    def _world(self):
        return gen_world(WorldConfig(n_objects=4), seed=11)

    def test_goto_reaches_interaction_radius(self):
        w = self._world()
        obj = w.objects[0]
        res = apply_action(w, PlannerAction("goto", obj.ref))
        assert res.ok
        dist = np.linalg.norm(res.world.agent.position[:2] - obj.center[:2])
        assert dist <= 0.75

    def test_pick_without_goto_rejected(self):
        w = self._world()
        # agent starts in the corner, objects are placed >= 0.1 from walls
        far = max(w.objects, key=lambda o: np.linalg.norm(o.center[:2] - w.agent.position[:2]))
        res = apply_action(w, PlannerAction("pick", far.ref))
        assert not res.ok and "too far" in res.reason

    def test_pick_place_round_trip(self):
        w = self._world()
        obj = w.objects[0]
        w2 = apply_action(w, PlannerAction("goto", obj.ref)).world
        r_pick = apply_action(w2, PlannerAction("pick", obj.ref))
        assert r_pick.ok
        assert r_pick.world.object_by_id(obj.oid).held
        r_place = apply_action(r_pick.world, PlannerAction("place", obj.ref))
        assert r_place.ok
        placed = r_place.world.object_by_id(obj.oid)
        assert not placed.held
        assert np.all(placed.box_min[:2] >= w.bounds_min[:2])
        assert np.all(placed.box_max[:2] <= w.bounds_max[:2])
        # no overlap with the others after placement
        for other in r_place.world.objects:
            if other.oid == obj.oid:
                continue
            overlap = np.all(placed.box_min < other.box_max) and np.all(
                placed.box_max > other.box_min)
            assert not overlap

    def test_unknown_reference_rejected(self):
        w = self._world()
        res = apply_action(w, PlannerAction("goto", "purple dragon"))
        assert not res.ok and "unknown object" in res.reason

    def test_toggle_requires_proximity_and_flips(self):
        w = self._world()
        obj = w.objects[1]
        res = apply_action(w, PlannerAction("toggle", obj.ref))
        assert not res.ok
        w2 = apply_action(w, PlannerAction("goto", obj.ref)).world
        res2 = apply_action(w2, PlannerAction("toggle", obj.ref))
        assert res2.ok
        assert res2.world.object_by_id(obj.oid).is_on != obj.is_on

    def test_goto_coordinates(self):
        w = self._world()
        res = apply_action(w, PlannerAction("goto", "1.50 1.20 0.00"))
        assert res.ok
        np.testing.assert_allclose(res.world.agent.position[:2], [1.5, 1.2])


class TestCaptureViews:
    def test_single_view_inside_room_looking_inward(self):
        w = gen_world(WorldConfig(n_objects=3), seed=0)
        [(intr, pose)] = capture_views(w, 1, seed=0)
        assert np.all(pose.translation >= w.bounds_min)
        assert np.all(pose.translation <= w.bounds_max)
        fwd = pose.rotation[:, 2]
        to_center = w.centroid - pose.translation
        assert fwd @ to_center > 0

    def test_same_seed_identical_poses(self):
        w = gen_world(WorldConfig(n_objects=3), seed=0)
        a = capture_views(w, 8, seed=5)
        b = capture_views(w, 8, seed=5)
        for (ia, pa), (ib, pb) in zip(a, b):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_20_views_cover_object_surfaces(self):
        # every object should be visible from several views; surface voxels
        # seen across the ring should cover nearly all of what any single
        # denser scan sees
        from scenefusion.voxelizer import grid_layout
        from scenefusion.worldsim import default_intrinsics

        # dense pixels so the comparison isolates view geometry, not ray count
        intr64 = default_intrinsics(64, 64)
        w = gen_world(WorldConfig(n_objects=5), seed=9)
        views = capture_views(w, 20, seed=0, intr=intr64)
        pts = []
        for intr, pose in views:
            rr = render(w, intr, pose)
            frame = build_frame(rr.depth, rr.colors, rr.features, intr, pose, "world")
            pts.append(frame.positions)
        pts = np.concatenate(pts)
        seen_ids = set()
        for intr, pose in views:
            rr = render(w, intr, pose)
            seen_ids.update(int(i) for i in np.unique(rr.object_ids) if i >= 0)
        assert seen_ids == {o.oid for o in w.objects}
        # aggregate point cloud covers >= 95% of the voxels that a dense
        # 60-view scan covers
        dense_views = capture_views(w, 60, seed=1, intr=intr64)
        dense_pts = []
        for intr, pose in dense_views:
            rr = render(w, intr, pose)
            frame = build_frame(rr.depth, rr.colors, rr.features, intr, pose, "world")
            dense_pts.append(frame.positions)
        dense_pts = np.concatenate(dense_pts)
        layout = grid_layout(np.concatenate([pts, dense_pts]), 0.18)

        def occupied(p):
            idx = np.floor((p - layout.origin) / layout.resolution).astype(int)
            return {tuple(i) for i in idx}

        cover_20 = occupied(pts)
        cover_dense = occupied(dense_pts)
        frac = len(cover_20 & cover_dense) / len(cover_dense)
        assert frac >= 0.95, f"20-view coverage only {frac:.2%} of dense scan"


class TestInstructions:
    def _world(self):
        return gen_world(WorldConfig(n_objects=5), seed=21)

    def test_counting_matches_ground_truth(self):
        w = self._world()
        recs = gen_instructions(w, ("qa_counting",), count=10, seed=0)
        truth = {}
        for o in w.objects:
            truth[o.category] = truth.get(o.category, 0) + 1
        for r in recs:
            cat = next(c for c in w.categories_pool if f"many {c}" in r.instruction
                       or f"many {c}s" in r.instruction or f"many {c}es" in r.instruction)
            assert r.answer == str(truth.get(cat, 0))

    def test_negation_answers_no(self):
        w = self._world()
        recs = gen_instructions(w, ("qa_negation",), count=10, seed=0)
        present = {o.category for o in w.objects}
        for r in recs:
            assert r.answer == "no"
            cat = r.instruction.split(" a ")[1].split(" in")[0]
            assert cat not in present

    def test_spatial_matches_independent_classifier(self):
        w = self._world()
        recs = gen_instructions(w, ("qa_spatial",), count=20, seed=0)
        by_ref = {o.ref: o for o in w.objects}
        for r in recs:
            # "where is the <a> relative to the <b> ?"
            body = r.instruction[len("where is the "):-len(" ?")]
            a_ref, b_ref = body.split(" relative to the ")
            a, b = by_ref[a_ref], by_ref[b_ref]
            d = a.center - b.center
            axis = int(np.argmax(np.abs(d)))
            expected = [["left", "right"], ["front", "behind"], ["below", "above"]][axis][
                int(d[axis] > 0)]
            assert r.answer == expected
            assert spatial_relation(a, b) == expected

    def test_box_text_two_decimals(self):
        w = self._world()
        recs = gen_instructions(w, ("object_caption",), count=10, seed=0)
        assert recs, "world should have unique objects to caption"
        import re

        pat = re.compile(r"\[(-?\d+\.\d{2}, ){5}-?\d+\.\d{2}\]$")
        for r in recs:
            assert pat.search(r.answer), r.answer

    def test_deterministic_records(self):
        w = self._world()
        a = gen_instructions(w, ("qa_existence", "qa_counting"), count=5, seed=3)
        b = gen_instructions(w, ("qa_existence", "qa_counting"), count=5, seed=3)
        assert a == b

    def test_dialogue_and_improvement_grounded(self):
        w = self._world()
        recs = gen_instructions(w, ("dialogue", "function_improvement"), count=2, seed=0)
        kinds = {r.kind for r in recs}
        assert "dialogue" in kinds and "function_improvement" in kinds


class TestTasks:
    def test_plans_replay_to_goal(self):
        replayed = 0
        for seed in range(50):
            w = gen_world(WorldConfig(n_objects=4), seed=seed)
            tasks = gen_tasks(w, seed=0)
            if not tasks:
                continue
            task = tasks[0]
            cur = w
            for action in task.plan:
                if action.verb == "done":
                    break
                res = apply_action(cur, action)
                assert res.ok, f"seed {seed}: {action} rejected: {res.reason}"
                cur = res.world
            assert check_goal(cur, task), f"seed {seed}: goal not reached"
            replayed += 1
        assert replayed >= 45  # nearly every world yields at least one task

    def test_goal_threshold(self):
        w = gen_world(WorldConfig(n_objects=2), seed=1)
        tasks = gen_tasks(w, seed=0)
        task = tasks[0]
        a = w.object_by_id(task.subject_id)
        b = w.object_by_id(task.target_id)
        d = float(np.linalg.norm(a.center - b.center))
        assert check_goal(w, task) == (d <= NEAR_DISTANCE)


class TestWorldSerialization:
    def test_round_trip_dict(self):
        w = gen_world(WorldConfig(n_objects=6), seed=13)
        d = world_to_dict(w)
        w2 = world_from_dict(d)
        assert world_to_dict(w2) == d
        for cat in w.category_embeddings:
            np.testing.assert_array_equal(
                w.category_embeddings[cat], w2.category_embeddings[cat]
            )
