"""Voxelizer tests: layout arithmetic, half-open assignment, mutual-kNN
clustering, and bit-exact agreement with the brute-force oracle."""

import math

import numpy as np
import pytest

from scenefusion import voxelizer
from scenefusion.errors import ConfigError, EmptyInputError
from scenefusion.frame import build_frame, feature_vectors
from scenefusion.voxelizer import (
    GridLayout,
    VoxelClusterConfig,
    VoxelGrid,
    cluster_voxel,
    exact_mean,
    grid_layout,
    token_matrix,
    voxelize,
)
from scenefusion.scene import points_to_grid
from scenefusion.worldsim import WorldConfig, capture_views, gen_world, render

from oracles import brute_assign, brute_clusters, brute_layout, brute_voxelize


def _vectors(rng, n, d=16, spread=1.0):
    positions = rng.uniform(0.0, spread, size=(n, 3))
    feats = rng.normal(size=(n, d))
    norm = (positions - positions.min(0)) / np.maximum(np.ptp(positions, axis=0), 1e-9)
    return positions, np.concatenate([feats, norm], axis=1)


class TestGridLayout:
    def test_single_point(self):
        layout = grid_layout(np.array([[0.05, 0.05, 0.05]]), 0.1)
        np.testing.assert_array_equal(layout.origin, [0.0, 0.0, 0.0])
        assert layout.dims == (1, 1, 1)

    def test_half_open_unit_cube(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.999, 0.999, 0.999]])
        layout = grid_layout(pts, 0.5)
        assert layout.dims == (2, 2, 2)

    def test_max_point_on_voxel_boundary_stays_in_range(self):
        # span is an exact multiple of r: the max point needs its own voxel
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        layout = grid_layout(pts, 0.5)
        assert layout.dims == (3, 3, 3)
        assert layout.locate(pts)[1].all()

    def test_matches_minmax_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2.0, 3.0, size=(500, 3))
        layout = grid_layout(pts, 0.18)
        origin, dims = brute_layout(pts, 0.18)
        np.testing.assert_array_equal(layout.origin, origin)
        assert layout.dims == dims

    def test_empty_without_bounds_raises(self):
        with pytest.raises(EmptyInputError):
            grid_layout(np.zeros((0, 3)), 0.1)

    def test_explicit_bounds(self):
        layout = grid_layout(None, 0.5, explicit_bounds=([0.1, 0.1, 0.1], [0.9, 0.9, 0.9]))
        np.testing.assert_array_equal(layout.origin, [0.0, 0.0, 0.0])
        assert layout.dims == (2, 2, 2)

    @pytest.mark.parametrize("lo, r", [(-1.8, 0.18), (-0.9, 0.18), (-0.45, 0.09), (-2.97, 0.09)])
    def test_contains_minimum_where_floor_times_r_rounds_above_it(self, lo, r):
        # fl(floor(lo/r) * r) > lo for these: the naive origin leaves lo out
        assert np.floor(lo / r) * r > lo
        pts = np.array([[lo, lo, lo], [lo + 1.0, 0.3, lo + 0.05]])
        layout = grid_layout(pts, r)
        assert layout.locate(pts)[1].all()
        assert layout.locate(pts)[1].all()
        bounded = grid_layout(None, r, explicit_bounds=(pts[0], pts[0] + 1.0))
        assert bounded.locate(pts[:1])[1].all()
        assert np.all(bounded.origin <= pts[0])

    def test_auto_layout_contains_its_points_on_random_boxes(self):
        rng = np.random.default_rng(42)
        resolutions = np.array([0.05, 0.09, 0.1, 0.12, 0.18, 0.2, 0.25, 0.3])
        for trial in range(10_000):
            r = float(rng.choice(resolutions))
            lo = rng.uniform(-5.0, 5.0, size=3)
            # lattice-aligned minima are the ones the rounding can miss
            if trial % 2:
                lo = np.round(lo / r) * r
            pts = lo + rng.uniform(0.0, 2.0, size=(4, 3)) * rng.integers(0, 2, size=(4, 3))
            layout = grid_layout(pts, r)
            assert layout.locate(pts)[1].all(), (trial, r, pts.min(axis=0))
            bounded = grid_layout(None, r, explicit_bounds=(pts.min(axis=0), pts.max(axis=0)))
            assert np.all(bounded.origin <= pts.min(axis=0)), (trial, r)


    def test_rejects_layouts_whose_flat_indices_overflow_int64(self):
        # a 3 x 4 x 2 m box at r = 1e-6 has 2.4e19 voxels; (i*Y + j)*Z + k would wrap
        with pytest.raises(ConfigError, match="resolution 1e-06 gives a "):
            grid_layout(None, 1e-6, explicit_bounds=([0, 0, 0], [3, 4, 2]))
        with pytest.raises(ConfigError, match="resolution 1e-300 gives a "):
            grid_layout(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 2.0]]), 1e-300)
        with pytest.raises(ConfigError, match="more voxels than int64"):
            GridLayout(np.zeros(3), 1.0, (2**21, 2**21, 2**21))
        assert GridLayout(np.zeros(3), 1.0, (2**21, 2**21, 2**21 - 1)).n_voxels < 2**63


class TestLocate:
    def test_origin_point(self):
        layout = GridLayout(np.zeros(3), 0.1, (2, 2, 2))
        idx, inside = layout.locate(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(idx, [[0, 0, 0]])
        assert inside.all()

    def test_half_open_boundary(self):
        layout = GridLayout(np.zeros(3), 0.1, (2, 1, 1))
        idx, inside = layout.locate(np.array([[0.1, 0.0, 0.0]]))
        np.testing.assert_array_equal(idx, [[1, 0, 0]])
        assert inside.all()

    def test_out_of_bounds_points_are_flagged_outside(self):
        layout = GridLayout(np.zeros(3), 0.1, (1, 1, 1))
        pts = np.array([[0.05, 0.05, 0.05], [0.5, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        idx, inside = layout.locate(pts)
        np.testing.assert_array_equal(inside, [True, False, False])
        np.testing.assert_array_equal(idx, [[0, 0, 0], [5, 0, 0], [-2, 0, 0]])

    def test_matches_floor_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.0, 2.0, size=(200, 3))
        layout = grid_layout(pts, 0.3)
        idx, inside = layout.locate(pts)
        assert inside.all()
        expected = brute_assign(pts, layout.origin, 0.3)
        assert [tuple(i) for i in idx] == expected


class TestClusterVoxel:
    def test_singleton(self):
        v = np.zeros((1, 7))
        assert cluster_voxel(v, VoxelClusterConfig(k=3)) == [[0]]

    def test_two_far_groups_sizes_5_and_3(self):
        # two groups of identical features, far apart in feature space
        a = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (5, 1))
        b = np.tile(np.array([-10.0, 0.0, 0.0, 0.0]), (3, 1))
        feats = np.concatenate([a, b])
        coords = np.zeros((8, 3))
        vectors = np.concatenate([feats, coords], axis=1)
        comps = cluster_voxel(vectors, VoxelClusterConfig(k=2))
        assert [len(c) for c in comps] == [5, 3]
        assert comps[0] == [0, 1, 2, 3, 4]
        assert comps[1] == [5, 6, 7]

    def test_all_identical_points_one_component(self):
        vectors = np.tile(np.array([1.0, 2.0, 3.0, 0.5, 0.5, 0.5, 0.5]), (6, 1))
        comps = cluster_voxel(vectors, VoxelClusterConfig(k=2))
        assert comps == [[0, 1, 2, 3, 4, 5]]

    def test_matches_exhaustive_graph_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            m = int(rng.integers(1, 14))
            k = int(rng.integers(1, 6))
            vectors = rng.normal(size=(m, 8))
            comps = cluster_voxel(vectors, VoxelClusterConfig(k=k))
            expected = brute_clusters(vectors[:, :-3], k)
            assert comps == expected, f"trial {trial}: m={m} k={k}"
        # larger voxels; m=300 takes more than one block of row differences
        for m, k in ((60, 4), (300, 3)):
            vectors = rng.normal(size=(m, 19))
            comps = cluster_voxel(vectors, VoxelClusterConfig(k=k))
            assert comps == brute_clusters(vectors[:, :-3], k), f"m={m} k={k}"

    def test_copies_of_one_row_form_one_component(self):
        # Copies of this row are not all 0 apart under |a|^2 + |b|^2 - 2a.b
        # (checked below), so distances formed that way split them.
        rng = np.random.default_rng(1)
        row = rng.normal(size=16)
        layout = grid_layout(None, 0.5, explicit_bounds=([0, 0, 0], [0.5, 0.5, 0.5]))
        for m in (15, 26):
            positions = rng.uniform(0.0, 0.5, size=(m, 3))
            vectors = np.concatenate([np.tile(row, (m, 1)), positions / 0.5], axis=1)
            feats = vectors[:, :-3]
            sq = np.sum(feats * feats, axis=1)
            assert np.any(sq[:, None] + sq[None, :] - 2.0 * (feats @ feats.T) != 0)
            assert cluster_voxel(vectors, VoxelClusterConfig(k=5)) == [list(range(m))]
            grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=5))
            feats_o, vis_o = brute_voxelize(positions, vectors, layout.origin, layout.dims,
                                            0.5, 5)
            np.testing.assert_array_equal(grid.visibility, vis_o)
            np.testing.assert_array_equal(grid.features, feats_o)

    def test_repeated_rows_match_exhaustive_oracle(self):
        # 1-5 distinct rows with random multiplicities. Small-integer rows put
        # exact distance ties at the k'-th radius; zeros get a random sign so
        # numerically equal rows can differ in their bytes.
        rng = np.random.default_rng(10)
        for trial in range(120):
            u = int(rng.integers(1, 6))
            if trial % 2:
                rows = rng.integers(-2, 3, size=(u, 4)).astype(float)
            else:
                rows = rng.normal(size=(u, 4))
            counts = rng.integers(1, 13, size=u)
            sem = rows[rng.permutation(np.repeat(np.arange(u), counts))]
            sem[sem == 0.0] *= rng.choice([1.0, -1.0], size=int(np.sum(sem == 0.0)))
            m = len(sem)
            vectors = np.concatenate([sem, rng.uniform(size=(m, 3))], axis=1)
            k = int(rng.integers(1, 16))
            comps = cluster_voxel(vectors, VoxelClusterConfig(k=k))
            assert comps == brute_clusters(sem, k), f"trial {trial}: m={m} k={k} counts={counts}"


class TestVoxelize:
    def test_empty_input_with_explicit_bounds(self):
        layout = grid_layout(None, 0.5, explicit_bounds=([0, 0, 0], [1, 1, 1]))
        grid = voxelize(np.zeros((0, 3)), np.zeros((0, 7)), layout, VoxelClusterConfig())
        assert grid.n_visible == 0
        assert grid.feature_dim == 7
        assert not grid.features.any()

    def test_one_point_per_voxel_copies_vectors(self):
        positions = np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1], [0.1, 0.9, 0.1]])
        vectors = np.arange(21, dtype=float).reshape(3, 7)
        layout = grid_layout(positions, 0.5)
        grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=3))
        assert grid.n_visible == 3
        np.testing.assert_array_equal(grid.features[0, 0, 0], vectors[0])
        np.testing.assert_array_equal(grid.features[1, 0, 0], vectors[1])
        np.testing.assert_array_equal(grid.features[0, 1, 0], vectors[2])

    def test_matches_brute_force_oracle_bit_exactly(self):
        rng = np.random.default_rng(4)
        positions, vectors = _vectors(rng, 1000, spread=1.5)
        layout = grid_layout(positions, 0.25)
        grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=4))
        feats, vis = brute_voxelize(positions, vectors, layout.origin, layout.dims, 0.25, 4)
        np.testing.assert_array_equal(grid.visibility, vis)
        np.testing.assert_array_equal(grid.features, feats)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(5)
        positions, vectors = _vectors(rng, 300)
        layout = grid_layout(positions, 0.3)
        grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=3))
        perm = rng.permutation(300)
        grid_p = voxelize(positions[perm], vectors[perm], layout, VoxelClusterConfig(k=3))
        np.testing.assert_array_equal(grid.visibility, grid_p.visibility)
        np.testing.assert_array_equal(grid.features, grid_p.features)

    def test_mean_lies_in_member_convex_hull_componentwise(self):
        rng = np.random.default_rng(7)
        positions, vectors = _vectors(rng, 60, d=4, spread=0.4)
        layout = grid_layout(positions, 0.2)
        grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=3))
        idx, _ = layout.locate(positions)
        for coord in np.argwhere(grid.visibility):
            members = np.all(idx == coord, axis=1)
            lo = vectors[members].min(axis=0) - 1e-12
            hi = vectors[members].max(axis=0) + 1e-12
            row = grid.features[tuple(coord)]
            assert np.all(row >= lo) and np.all(row <= hi)

    def test_doubling_resolution_never_increases_visible_count(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            positions, vectors = _vectors(rng, int(rng.integers(50, 400)))
            fine = voxelize(positions, vectors, grid_layout(positions, 0.1),
                            VoxelClusterConfig(k=3))
            coarse = voxelize(positions, vectors, grid_layout(positions, 0.2),
                              VoxelClusterConfig(k=3))
            assert coarse.n_visible <= fine.n_visible

    def test_points_to_grid_drops_outside_points(self):
        layout = GridLayout(np.zeros(3), 0.5, (1, 1, 1))
        positions = np.array([[0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
        with pytest.warns(UserWarning, match="dropped 1 of 2 points outside the grid layout"):
            grid = points_to_grid(positions, np.ones((2, 4)), layout, VoxelClusterConfig())
        assert grid.n_visible == 1
        assert grid.feature_dim == 7

    def test_dropping_outside_points_keeps_the_inside_grid_bits(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            positions, vectors = _vectors(rng, int(rng.integers(40, 300)), spread=2.0)
            layout = grid_layout(None, 0.25, explicit_bounds=([0.4, 0.3, 0.5], [1.6, 1.5, 1.4]))
            inside = layout.locate(positions)[1]
            assert 0 < inside.sum() < len(positions)
            with pytest.warns(UserWarning) as record:
                every = voxelize(positions, vectors, layout, VoxelClusterConfig(k=3))
            assert [str(w.message) for w in record] == [
                f"dropped {(~inside).sum()} of {len(positions)} points outside the grid layout"]
            only = voxelize(positions[inside], vectors[inside], layout, VoxelClusterConfig(k=3))
            assert every.index.tobytes() == only.index.tobytes(), trial
            assert every.rows.tobytes() == only.rows.tobytes(), trial


def _assert_oracle_bits(positions, vectors, r, k):
    """voxelize against brute_voxelize, byte for byte (so -0.0 != +0.0)."""
    layout = grid_layout(positions, r)
    grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=k))
    feats, vis = brute_voxelize(positions, vectors, layout.origin, layout.dims, r, k)
    assert grid.visibility.tobytes() == vis.tobytes()
    assert grid.features.tobytes() == feats.tobytes()


def _palette_points(rng, palette, voxels, spread=0.3):
    """Points in the given voxels of a lattice with r = 1, each voxel holding
    (count, palette row ids to draw from); semantic rows come from palette."""
    positions, rows = [], []
    for cell, (count, choices) in voxels.items():
        positions.append(np.array(cell) + 0.5 + rng.uniform(-spread, spread, size=(count, 3)))
        rows.append(palette[rng.choice(choices, size=count)])
    positions = np.concatenate(positions)
    norm = (positions - positions.min(0)) / np.ptp(positions, axis=0)
    return positions, np.concatenate([np.concatenate(rows), norm], axis=1)


class TestSegmentedPass:
    """The one-pass voxelizer: voxels whose semantic rows are all bit-identical
    skip clustering, the others go through cluster_voxel, and all means come
    from one segmented rule. Every case is checked against the oracle."""

    @pytest.fixture
    def cluster_calls(self, monkeypatch):
        calls = []

        def counted(point_vectors, cfg):
            calls.append(len(point_vectors))
            return cluster_voxel(point_vectors, cfg)

        monkeypatch.setattr(voxelizer, "cluster_voxel", counted)
        return calls

    @pytest.mark.parametrize("r", [0.09, 0.18, 0.36])
    def test_rendered_room_matches_oracle(self, r, cluster_calls):
        world = gen_world(WorldConfig(n_objects=4), seed=13)
        frames = [build_frame(rr.depth, rr.colors, rr.features, intr, pose)
                  for intr, pose in capture_views(world, 3, seed=2)
                  for rr in [render(world, intr, pose)]]
        positions = np.concatenate([f.positions for f in frames])
        features = np.concatenate([f.features for f in frames])
        vectors = feature_vectors(positions, features, positions.min(0), positions.max(0))
        _assert_oracle_bits(positions, vectors, r, 5)
        # most voxels hold one object's row, so most skip clustering
        assert len(cluster_calls) < grid_layout(positions, r).n_voxels

    def test_duplicated_rows_and_signed_zeros(self, cluster_calls):
        rng = np.random.default_rng(21)
        palette = np.array([[0.0, 1.5, -0.0, 2.0],
                            [-0.0, 1.5, -0.0, 2.0],  # differs from row 0 only in a zero's sign
                            [0.0, 1.5, 0.0, 2.0],
                            [-0.0, -0.0, -0.0, -0.0],
                            [0.1, -0.0, 3.0, 1e-300],
                            [5.0, 5.0, 5.0, 5.0]])
        voxels = {(0, 0, 0): (40, [0]), (1, 0, 0): (1, [1]), (2, 0, 0): (30, [3]),
                  (0, 1, 0): (25, [0, 1]), (1, 1, 0): (33, [0, 1, 2]), (2, 1, 0): (12, [4, 5]),
                  (0, 0, 1): (9, [4, 5, 3]), (1, 0, 1): (17, [5]), (2, 0, 1): (2, [2, 3])}
        positions, vectors = _palette_points(rng, palette, voxels)
        _assert_oracle_bits(positions, vectors, 1.0, 3)
        # both paths ran in one call: mixed voxels clustered, one-row voxels not
        assert 0 < len(cluster_calls) < sum(count > 1 for count, _ in voxels.values())

    def test_voxels_mixing_two_or_three_rows(self, cluster_calls):
        rng = np.random.default_rng(22)
        palette = rng.normal(size=(5, 6))
        voxels = {}
        for cell in np.ndindex(3, 3, 2):
            count = int(rng.integers(1, 60))
            voxels[cell] = (count, rng.choice(5, size=int(rng.integers(1, 4)), replace=False))
        positions, vectors = _palette_points(rng, palette, voxels)
        for k in (1, 4, 9):
            _assert_oracle_bits(positions, vectors, 1.0, k)
        assert cluster_calls

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_voxels_larger_than_a_block(self, block, monkeypatch):
        monkeypatch.setattr(voxelizer, "_BLOCK_POINTS", block)
        rng = np.random.default_rng(23)
        palette = rng.normal(size=(4, 3))
        voxels = {(0, 0, 0): (70, [0]), (1, 0, 0): (3, [1, 2]), (0, 1, 0): (90, [0, 3]),
                  (1, 1, 0): (1, [2]), (1, 1, 1): (20, [1, 2, 3])}
        positions, vectors = _palette_points(rng, palette, voxels)
        _assert_oracle_bits(positions, vectors, 1.0, 4)

    def test_voxel_larger_than_the_default_block(self):
        # the oracle's O(m^2) clustering is too slow here; for one row and a few
        # far outliers the largest cluster is known, so its fsum means are too
        rng = np.random.default_rng(24)
        m = voxelizer._BLOCK_POINTS + 500
        positions = rng.uniform(0.0, 1.0, size=(m, 3))
        semantic = np.tile([0.25, -0.0, 7.0], (m, 1))
        semantic[:5] = [9.0, 9.0, 9.0]  # 5 copies of one far row: not mutual with the rest
        vectors = np.concatenate([semantic, rng.normal(size=(m, 3))], axis=1)
        layout = grid_layout(None, 1.0, explicit_bounds=([0, 0, 0], [1, 1, 1]))
        grid = voxelize(positions, vectors, layout, VoxelClusterConfig(k=5))
        assert grid.n_visible == 1
        assert grid.rows[0].tobytes() == _fsum_means(vectors[5:]).tobytes()


class TestTokenMatrix:
    def _grid(self, vis, d=4, rows=None):
        dims = vis.shape
        feats = np.zeros(dims + (d,))
        feats[vis] = 1.0 if rows is None else rows
        layout = GridLayout(np.zeros(3), 0.1, dims)
        return VoxelGrid(layout, feats, vis)

    def test_all_invisible_empty(self):
        coords, feats = token_matrix(self._grid(np.zeros((2, 3, 4), dtype=bool)))
        assert coords.shape == (0, 3) and feats.shape == (0, 4)

    def test_ordering_lexicographic(self):
        vis = np.zeros((2, 3, 4), dtype=bool)
        vis[1, 2, 3] = True
        vis[0, 0, 0] = True
        coords, _ = token_matrix(self._grid(vis))
        assert [tuple(c) for c in coords.tolist()] == [(0, 0, 0), (1, 2, 3)]

    def test_count_equals_popcount(self):
        rng = np.random.default_rng(9)
        vis = rng.random((5, 6, 7)) < 0.3
        dense = np.zeros(vis.shape + (4,))
        dense[vis] = rng.normal(size=(int(vis.sum()), 4))
        coords, feats = token_matrix(self._grid(vis, rows=dense[vis]))
        # independent popcount and per-voxel lookup, one entry at a time
        visible = [idx for idx in np.ndindex(vis.shape) if vis[idx]]
        assert len(coords) == len(feats) == len(visible)
        assert [tuple(c) for c in coords.tolist()] == visible
        np.testing.assert_array_equal(feats, np.stack([dense[i] for i in visible]))
        assert len(np.unique(feats)) == feats.size  # the rows are the random ones

    def test_dense_views_are_read_only(self):
        grid = self._grid(np.ones((1, 2, 1), dtype=bool))
        for view in (grid.features, grid.visibility):
            with pytest.raises(ValueError):
                view[0, 0, 0] = 0


def _fsum_means(rows):
    """The contract, one column at a time: math.fsum over the column, / n."""
    return np.array([math.fsum(rows[:, j].tolist()) for j in range(rows.shape[1])]) / len(rows)


class TestExactMean:
    def _assert_same_bits(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        assert exact_mean(rows).tobytes() == _fsum_means(rows).tobytes()

    def test_constant_columns_where_n_times_x_rounds(self):
        rounded = 0
        for n in list(range(1, 40)) + [97, 255, 1000, 1999, 2000]:
            rows = np.tile([0.1, 1.0 / 3.0, -2.7, 1e-300], (n, 1))
            self._assert_same_bits(rows)
            rounded += sum(0.1 for _ in range(n)) != n * 0.1
        assert rounded  # naive summation of these columns would differ

    def test_zero_columns_keep_fsum_sign(self):
        for n in (1, 2, 5, 64):
            self._assert_same_bits(np.full((n, 3), -0.0))
            mixed = np.zeros((n, 4))
            mixed[::2, 0] = -0.0
            mixed[1::2, 1] = -0.0
            mixed[:, 2] = -0.0
            mixed[-1, 2] = 0.0
            self._assert_same_bits(mixed)

    def test_one_row(self):
        rng = np.random.default_rng(3)
        self._assert_same_bits(rng.normal(size=(1, 19)))
        self._assert_same_bits([[0.0, -0.0, 0.1, -5.5]])

    def test_constant_column_with_one_differing_row(self):
        for n in (2, 3, 17, 400):
            for at in (0, n // 2, n - 1):
                rows = np.full((n, 3), 0.1)
                rows[at, 0] = np.nextafter(0.1, 1.0)  # one ulp away
                rows[at, 1] = -0.1
                rows[at, 2] = 0.0
                self._assert_same_bits(rows)

    def test_segmented_means_match_fsum_on_1e5_segment_columns(self):
        """The ROADMAP gate for the segmented rule: per (segment, column),
        fsum(column) / n bit for bit, n from 1 to 2,000, magnitudes from 1e-300
        to 1e300, cancelling, constant nonzero and constant +-0.0 columns."""
        rng = np.random.default_rng(2024)
        n_segments, n_cols, rounds = 50, 40, 50

        def segment(n):
            kind = rng.integers(7, size=n_cols)
            seg = rng.normal(size=(n, n_cols)) * 10.0 ** rng.uniform(-300, 300, size=n_cols)
            wide = kind == 1  # magnitudes spread over the whole range within one column
            seg[:, wide] = rng.normal(size=(n, wide.sum())) * 10.0 ** rng.uniform(
                -300, 300, size=(n, wide.sum()))
            cancel = kind == 2  # pairs x, -x (plus one leftover term when n is odd)
            seg[n // 2:2 * (n // 2), cancel] = -seg[:n // 2, cancel]
            seg[:, cancel] = seg[rng.permutation(n)][:, cancel]
            seg[:, kind == 3] = seg[0, kind == 3]
            seg[:, kind == 4] = 0.0
            seg[:, kind == 5] = -0.0
            signed = kind == 6
            seg[:, signed] = np.where(rng.random((n, signed.sum())) < 0.5, 0.0, -0.0)
            return seg

        pairs = 0
        for _ in range(rounds):
            # mostly short segments, as in a voxel grid, with a tail out to 2,000
            counts = (2000.0 ** rng.uniform(0.0, 1.0, size=n_segments) ** 3).astype(np.int64)
            counts[:2] = (1, 2000)
            segments = [segment(n) for n in counts]
            rows = np.concatenate(segments)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            got = voxelizer._segment_means(rows, starts, voxelizer._varied_columns(rows, starts))
            want = np.stack([_fsum_means(seg) for seg in segments])
            assert got.tobytes() == want.tobytes()
            pairs += got.size
        assert pairs >= 100_000

    def test_mixed_columns_match_fsum(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 9, 150):
            rows = rng.normal(size=(n, 19))
            rows[:, 4:16] = rng.normal(size=12)  # constant feature columns
            rows[:, 16] = 0.0
            self._assert_same_bits(rows)


class TestInvariants:
    LAYOUT = GridLayout(np.zeros(3), 0.1, (2, 2, 2))

    def test_invisible_rows_must_be_zero(self):
        layout = GridLayout(np.zeros(3), 0.1, (1, 1, 1))
        feats = np.ones((1, 1, 1, 4))
        with pytest.raises(ConfigError):
            VoxelGrid(layout, feats, np.zeros((1, 1, 1), dtype=bool))

    def test_invisible_negative_zero_rejected(self):
        feats = np.zeros((2, 2, 2, 3))
        feats[1, 0, 1, 2] = -0.0
        with pytest.raises(ConfigError, match="exact zero"):
            VoxelGrid(self.LAYOUT, feats, np.zeros((2, 2, 2), dtype=bool))

    def test_from_rows_equals_dense_construction(self):
        rows = np.array([[1.0, -0.0], [2.0, 3.0]])
        grid = VoxelGrid.from_rows(self.LAYOUT, [1, 6], rows)
        feats, vis = np.zeros((8, 2)), np.zeros(8, dtype=bool)
        feats[[1, 6]], vis[[1, 6]] = rows, True
        dense = VoxelGrid(self.LAYOUT, feats.reshape(2, 2, 2, 2), vis.reshape(2, 2, 2))
        assert grid.features.tobytes() == feats.tobytes()
        assert grid.index.tobytes() == dense.index.tobytes()
        assert grid.rows.tobytes() == dense.rows.tobytes()
        assert (grid.n_visible, grid.feature_dim) == (2, 2)

    def _rejected(self, index, rows, match):
        with pytest.raises(ConfigError, match=match):
            VoxelGrid.from_rows(self.LAYOUT, np.array(index, dtype=np.int64), np.asarray(rows))

    def test_from_rows_rejects_unsorted_index(self):
        self._rejected([3, 1], np.ones((2, 4)), "strictly increasing")

    def test_from_rows_rejects_duplicate_index(self):
        self._rejected([1, 1], np.ones((2, 4)), "strictly increasing")

    def test_from_rows_rejects_out_of_range_index(self):
        self._rejected([0, 8], np.ones((2, 4)), "within the layout")
        self._rejected([-1, 2], np.ones((2, 4)), "within the layout")

    def test_from_rows_rejects_non_finite_row(self):
        self._rejected([0, 5], [[1.0, 2.0], [np.nan, 0.0]], "finite")
        self._rejected([0], [[np.inf, 2.0]], "finite")

    def test_from_rows_rejects_length_mismatch_and_non_2d_rows(self):
        self._rejected([0, 1, 2], np.ones((2, 4)), "do not pair")
        self._rejected([0, 1], np.ones(2), "do not pair")
        self._rejected([0, 1], np.ones((2, 4, 1)), "do not pair")

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_resolution_must_be_finite_and_positive(self, r):
        with pytest.raises(ConfigError, match=f"finite and positive, got {r}"):
            GridLayout(np.zeros(3), r, (1, 1, 1))
        with pytest.raises(ConfigError, match=f"finite and positive, got {r}"):
            grid_layout(np.zeros((2, 3)), r)
        with pytest.raises(ConfigError, match=f"finite and positive, got {r}"):
            grid_layout(None, r, explicit_bounds=(np.zeros(3), np.ones(3)))

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            VoxelClusterConfig(k=0)
