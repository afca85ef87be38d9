"""Scene aggregation and the masked incremental update."""

import warnings

import numpy as np
import pytest

from scenefusion.errors import ConfigError, EmptyInputError
from scenefusion.frame import Frame3D
from scenefusion.geometry import Pose
from scenefusion.scene import (
    SceneState,
    aggregate_frames,
    frame_to_grid,
    init_scene,
    merge_frame_grid,
    update_scene,
)
from scenefusion.voxelizer import (
    GridLayout,
    VoxelClusterConfig,
    VoxelGrid,
    token_matrix,
    voxelize,
)

from oracles import dense_merge

CFG = VoxelClusterConfig(k=3)


def _frame(positions, features=None, d=4, coord="world"):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if features is None:
        features = np.arange(n * d, dtype=float).reshape(n, d)
    return Frame3D(positions, np.zeros((n, 3)), features, Pose.identity(), coord, np.arange(n))


def _random_frame(rng, n, lo=0.0, hi=1.0, d=4):
    positions = rng.uniform(lo, hi, size=(n, 3))
    features = rng.normal(size=(n, d))
    return _frame(positions, features)


class TestAggregate:
    def test_single_frame_returns_own_points(self):
        f = _frame([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        positions, features = aggregate_frames([f])
        np.testing.assert_array_equal(positions, f.positions)
        np.testing.assert_array_equal(features, f.features)

    def test_two_disjoint_frames_concatenate(self):
        f1 = _frame([[0.0, 0.0, 0.0]])
        f2 = _frame([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        positions, features = aggregate_frames([f1, f2])
        assert positions.shape == (3, 3) and features.shape == (3, 4)
        np.testing.assert_array_equal(positions[:1], f1.positions)
        np.testing.assert_array_equal(positions[1:], f2.positions)

    def test_camera_frames_convert_via_pose(self):
        pose = Pose(np.eye(3), [5.0, 0.0, 0.0])
        f = Frame3D(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)), np.ones((1, 4)),
                    pose, "camera", [0])
        positions, _ = aggregate_frames([f])
        np.testing.assert_array_equal(positions, [[6.0, 0.0, 0.0]])

    def test_empty_list_raises(self):
        with pytest.raises(EmptyInputError):
            aggregate_frames([])

    def test_feature_dim_mismatch_raises(self):
        with pytest.raises(ConfigError):
            aggregate_frames([_frame([[0, 0, 0]], d=4), _frame([[1, 1, 1]], d=5)])


class TestInitScene:
    def test_single_frame_scene_equals_voxelize(self):
        rng = np.random.default_rng(0)
        f = _random_frame(rng, 50)
        state = init_scene([f], 0.25, CFG)
        assert state.t == 0
        from scenefusion.frame import feature_vectors
        from scenefusion.voxelizer import grid_layout

        layout = grid_layout(f.positions, 0.25)
        vectors = feature_vectors(f.positions, f.features, layout.box_min, layout.box_max)
        expected = voxelize(f.positions, vectors, layout, CFG)
        np.testing.assert_array_equal(state.grid.features, expected.features)
        np.testing.assert_array_equal(state.grid.visibility, expected.visibility)

    def test_explicit_bounds_drop_outside_points_with_a_warning(self):
        f = _frame([[0.1, 0.1, 0.1], [0.6, 0.2, 0.3], [2.0, 0.1, 0.1]])
        with pytest.warns(UserWarning, match="dropped 1 of 3 points outside the grid layout"):
            state = init_scene([f], 0.25, CFG, explicit_bounds=([0, 0, 0], [1, 1, 1]))
        assert state.layout.dims == (4, 4, 4) and state.grid.n_visible == 2

    def test_empty_frame_list_raises(self):
        with pytest.raises(EmptyInputError):
            init_scene([], 0.25, CFG)


class TestFrameToGrid:
    def test_frame_outside_layout_all_invisible(self):
        rng = np.random.default_rng(1)
        base = _random_frame(rng, 30, 0.0, 1.0)
        state = init_scene([base], 0.25, CFG)
        far = _random_frame(rng, 10, 10.0, 11.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = frame_to_grid(far, state.layout, CFG)
        assert grid.n_visible == 0

    def test_out_of_layout_points_warn_with_count(self):
        rng = np.random.default_rng(2)
        base = _random_frame(rng, 30, 0.0, 1.0)
        state = init_scene([base], 0.25, CFG)
        far = _random_frame(rng, 7, 10.0, 11.0)
        with pytest.warns(UserWarning, match="dropped 7 of 7"):
            frame_to_grid(far, state.layout, CFG)

    def test_self_consistency_with_init(self):
        rng = np.random.default_rng(3)
        f = _random_frame(rng, 80)
        state = init_scene([f], 0.25, CFG)
        grid = frame_to_grid(f, state.layout, CFG)
        np.testing.assert_array_equal(grid.visibility, state.grid.visibility)
        np.testing.assert_array_equal(grid.features, state.grid.features)

    def test_camera_frame_rejected(self):
        rng = np.random.default_rng(4)
        f = _random_frame(rng, 10)
        state = init_scene([f], 0.25, CFG)
        cam = Frame3D(f.positions, f.colors, f.features, Pose.identity(), "camera",
                      f.pixel_indices)
        with pytest.raises(ConfigError):
            frame_to_grid(cam, state.layout, CFG)


class TestUpdateScene:
    def _setup(self, seed=0, n_base=120, n_new=40):
        rng = np.random.default_rng(seed)
        base = _random_frame(rng, n_base)
        state = init_scene([base], 0.25, CFG)
        new = _random_frame(rng, n_new)
        return rng, state, new

    def test_empty_visibility_keeps_features_exactly(self):
        rng, state, _ = self._setup()
        far = _random_frame(rng, 5, 20.0, 21.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new_state = update_scene(state, far, CFG)
        np.testing.assert_array_equal(new_state.grid.features, state.grid.features)
        np.testing.assert_array_equal(new_state.grid.visibility, state.grid.visibility)
        assert new_state.t == state.t + 1

    def test_empty_frame_leaves_scene_unchanged(self):
        rng = np.random.default_rng(9)
        state = init_scene([_random_frame(rng, 60, d=16)], 0.25, CFG)
        assert state.grid.feature_dim == 19
        empty = _frame(np.zeros((0, 3)), np.zeros((0, 16)))
        new_state = update_scene(state, empty, CFG)
        assert new_state.t == state.t + 1
        assert new_state.grid.index.tobytes() == state.grid.index.tobytes()
        assert new_state.grid.rows.tobytes() == state.grid.rows.tobytes()

    def test_full_visibility_takes_frame_exactly(self):
        rng, state, _ = self._setup()
        # a frame whose points cover every voxel center of the scene layout
        layout = state.layout
        coords = np.argwhere(np.ones(layout.dims, dtype=bool))
        centers = layout.origin + (coords + 0.5) * layout.resolution
        frame = _frame(centers, np.ones((len(centers), 4)))
        new_state = update_scene(state, frame, CFG)
        expected = frame_to_grid(frame, layout, CFG)
        assert new_state.grid.visibility.all()
        np.testing.assert_array_equal(new_state.grid.features, expected.features)

    def test_mixed_mask_elementwise_oracle(self):
        _, state, new = self._setup(seed=5)
        frame_grid = frame_to_grid(new, state.layout, CFG)
        new_state = update_scene(state, new, CFG)
        v = frame_grid.visibility
        # element-wise oracle, written long-hand
        expected = state.grid.features.copy()
        expected[v] = frame_grid.features[v]
        np.testing.assert_array_equal(new_state.grid.features, expected)
        np.testing.assert_array_equal(new_state.grid.visibility,
                                      state.grid.visibility | v)
        # input state untouched
        assert new_state.grid.features is not state.grid.features

    def test_idempotence_bit_exact(self):
        _, state, new = self._setup(seed=6)
        once = update_scene(state, new, CFG)
        twice = update_scene(once, new, CFG)
        np.testing.assert_array_equal(once.grid.features, twice.grid.features)
        np.testing.assert_array_equal(once.grid.visibility, twice.grid.visibility)

    def test_disjoint_masks_commute(self):
        rng = np.random.default_rng(7)
        base = _random_frame(rng, 100, 0.0, 2.0)
        state = init_scene([base], 0.25, CFG)
        # two frames confined to disjoint half-spaces of the layout
        f1 = _random_frame(rng, 30, 0.0, 0.9)
        f2 = _random_frame(rng, 30, 1.1, 2.0)
        ab = update_scene(update_scene(state, f1, CFG), f2, CFG)
        ba = update_scene(update_scene(state, f2, CFG), f1, CFG)
        np.testing.assert_array_equal(ab.grid.features, ba.grid.features)
        np.testing.assert_array_equal(ab.grid.visibility, ba.grid.visibility)

    def test_visibility_monotone(self):
        rng, state, new = self._setup(seed=8)
        s = state
        for _ in range(4):
            f = _random_frame(rng, 20)
            s2 = update_scene(s, f, CFG)
            assert np.all(s2.grid.visibility >= s.grid.visibility)
            s = s2

    def test_signed_zeros_keep_their_bits(self):
        layout = GridLayout(np.zeros(3), 0.5, (2, 1, 1))
        stored = np.array([[-0.0, 1.0], [2.0, 3.0]]).reshape(2, 1, 1, 2)
        state = SceneState(VoxelGrid(layout, stored, np.ones((2, 1, 1), dtype=bool)))
        observed = np.array([False, True]).reshape(2, 1, 1)
        frame = np.array([[0.0, 0.0], [-0.0, 4.0]]).reshape(2, 1, 1, 2)
        merged = merge_frame_grid(state, VoxelGrid(layout, frame, observed)).grid.features
        # voxel 0 is unobserved and keeps its stored -0.0; voxel 1 takes the frame's -0.0
        expected = np.array([[-0.0, 1.0], [-0.0, 4.0]]).reshape(2, 1, 1, 2)
        assert merged.tobytes() == expected.tobytes()

    def test_random_pairs_match_dense_merge_oracle(self):
        # the sparse merge against a dense select: empty frames, full overlap,
        # disjoint sets, one-voxel grids, and rows holding -0.0 and +0.0
        rng = np.random.default_rng(12)
        cases = ("random", "empty", "overlap", "disjoint", "one_voxel")
        for trial in range(250):
            case = cases[trial % len(cases)]
            dims = (1, 1, 1) if case == "one_voxel" else tuple(rng.integers(1, 5, size=3))
            d = int(rng.integers(1, 6))
            layout = GridLayout(np.zeros(3), 0.5, dims)
            scene_vis = rng.random(dims) < rng.random()
            frame_vis = rng.random(dims) < rng.random()
            if case == "empty":
                frame_vis[:] = False
            elif case == "overlap":
                frame_vis = scene_vis.copy()
            elif case == "disjoint":
                frame_vis &= ~scene_vis
            dense = []
            for vis in (scene_vis, frame_vis):
                feats = np.zeros(dims + (d,))
                rows = rng.normal(size=(int(vis.sum()), d))
                rows[rng.random(rows.shape) < 0.2] = -0.0
                rows[rng.random(rows.shape) < 0.1] = 0.0
                feats[vis] = rows
                dense += [feats, vis]
            want_f, want_v = dense_merge(*dense)
            scene, frame = VoxelGrid(layout, *dense[:2]), VoxelGrid(layout, *dense[2:])
            merged = merge_frame_grid(SceneState(scene, t=trial), frame)
            assert merged.t == trial + 1
            assert merged.grid.features.tobytes() == want_f.tobytes(), (trial, case)
            assert merged.grid.visibility.tobytes() == want_v.tobytes(), (trial, case)
            coords, rows = token_matrix(merged.grid)
            assert coords.tobytes() == np.argwhere(want_v).tobytes(), (trial, case)
            assert rows.tobytes() == want_f[want_v].tobytes(), (trial, case)

    def test_layout_mismatch_raises(self):
        _, state, new = self._setup(seed=9)
        other = init_scene([_frame([[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])], 0.5, CFG)
        with pytest.raises(ConfigError):
            merge_frame_grid(state, other.grid)

    @pytest.mark.parametrize("origin, r", [((5.0, 5.0, 5.0), 0.25), ((0.0, 0.0, 0.0), 0.25),
                                           ((0.5, 0.0, 0.0), 0.5)])
    def test_same_dims_other_origin_or_resolution_raises(self, origin, r):
        scene_layout = GridLayout(np.zeros(3), 0.5, (2, 1, 1))
        state = SceneState(VoxelGrid.from_rows(scene_layout, [0], [[1.0, 0.0, 0.0, 0.0]]))
        frame = VoxelGrid.from_rows(GridLayout(origin, r, (2, 1, 1)), [1], [[2.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ConfigError):
            merge_frame_grid(state, frame)


class TestSimulatorScenes:
    """Scene contracts driven by the built-in simulator."""

    def test_20_view_aggregate_matches_per_view_oracle(self):
        from scenefusion.datagen import frame_from_view
        from scenefusion.geometry import to_world, unproject
        from scenefusion.worldsim import WorldConfig, capture_views, gen_world, render

        world = gen_world(WorldConfig(n_objects=4), seed=17)
        views = capture_views(world, 20, seed=0)
        frames = [frame_from_view(world, iv, pv) for iv, pv in views]
        positions, _ = aggregate_frames(frames)
        # independent union: per-view unprojection + transform, concatenated
        parts = []
        for iv, pv in views:
            rr = render(world, iv, pv)
            _, cam_pts = unproject(rr.depth, iv)
            parts.append(to_world(cam_pts, pv))
        expected = np.concatenate(parts, axis=0)
        assert len(positions) == len(expected)
        np.testing.assert_array_equal(positions, expected)

    def test_init_scene_matches_brute_force_pipeline(self):
        from oracles import brute_voxelize

        from scenefusion.datagen import frame_from_view
        from scenefusion.frame import feature_vectors
        from scenefusion.worldsim import WorldConfig, capture_views, gen_world

        world = gen_world(WorldConfig(n_objects=4), seed=23)
        views = capture_views(world, 3, seed=0)
        frames = [frame_from_view(world, iv, pv) for iv, pv in views]
        state = init_scene(frames, 0.25, CFG)
        positions, features = aggregate_frames(frames)
        layout = state.layout
        vectors = feature_vectors(positions, features, layout.box_min, layout.box_max)
        feats, vis = brute_voxelize(positions, vectors, layout.origin,
                                    layout.dims, 0.25, CFG.k)
        np.testing.assert_array_equal(state.grid.visibility, vis)
        np.testing.assert_array_equal(state.grid.features, feats)

    def test_update_equals_rebuild_on_observed_voxels(self):
        # after the world changes and the agent re-observes every changed
        # voxel, the updated grid equals a fresh initialization, restricted
        # to voxels the rebuild sees
        from scenefusion.interact import make_swap_scenario
        from scenefusion.datagen import frame_from_view

        world, _, disturbance, init_views = make_swap_scenario(5)
        iv, pv = init_views[0]
        bounds = (world.bounds_min, world.bounds_max)
        state = init_scene([frame_from_view(world, iv, pv)], 0.25, CFG,
                           explicit_bounds=bounds)
        swapped = disturbance.apply(world)
        frame2 = frame_to_grid(frame_from_view(swapped, iv, pv), state.layout, CFG)
        updated = merge_frame_grid(state, frame2)
        rebuilt = init_scene([frame_from_view(swapped, iv, pv)], 0.25, CFG,
                             explicit_bounds=bounds)
        v = rebuilt.grid.visibility
        np.testing.assert_array_equal(updated.grid.features[v],
                                      rebuilt.grid.features[v])
        assert np.all(updated.grid.visibility[v])
