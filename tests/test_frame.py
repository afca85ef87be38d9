"""Frame construction: unprojection composition, feature copying, the
(D+3) point vectors."""

import numpy as np
import pytest

from scenefusion.errors import ConfigError
from scenefusion.frame import (
    FeatureImage,
    Frame3D,
    build_frame,
    feature_vectors,
    point_feature_vector,
)
from scenefusion.geometry import CameraIntrinsics, DepthImage, Pose, to_world, unproject


def _intr(w=8, h=8):
    return CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=4.0, width=w, height=h)


def _inputs(rng, w=8, h=8, d=5, valid_frac=0.5):
    vals = rng.uniform(0.5, 3.0, size=(h, w))
    mask = rng.random((h, w)) < valid_frac
    color = rng.random((h, w, 3))
    feats = rng.normal(size=(h, w, d))
    return DepthImage(vals, mask), color, FeatureImage(feats)


class TestFeatureImage:
    def test_dense_constructor_round_trips_bits(self):
        feats = np.random.default_rng(4).normal(size=(3, 5, 2))
        feats[0, 0] = [-0.0, 0.0]
        image = FeatureImage(feats)
        assert image.values.tobytes() == feats.tobytes()
        assert image.ids.shape == (3, 5) and image.dim == 2

    def test_values_is_the_table_gathered_by_id(self):
        ids = np.array([[0, 2, 2], [1, 0, 2]])
        table = np.array([[0.0, 0.0], [1.5, -2.0], [3.0, 4.0]])
        image = FeatureImage.from_table(ids, table)
        dense = image.values
        assert dense.shape == (2, 3, 2)
        for v, u in np.ndindex(2, 3):
            assert dense[v, u].tobytes() == table[ids[v, u]].tobytes()
        with pytest.raises(ValueError):
            dense[0, 0, 0] = 1.0  # read-only, and a fresh array on each access
        assert image.values is not dense

    @pytest.mark.parametrize("ids, table", [
        ([[0, 1]], [[0.0], [np.nan]]),  # non-finite entry, even on a row no pixel uses
        ([[0, 1]], [[0.0], [np.inf]]),
        ([[0, 2]], [[0.0], [1.0]]),  # id past the table
        ([[-1, 0]], [[0.0], [1.0]]),  # negative id
        ([0, 1], [[0.0], [1.0]]),  # ids of rank 1
        ([[[0]]], [[0.0], [1.0]]),  # ids of rank 3
        ([[0, 1]], [0.0, 1.0]),  # table of rank 1
        ([[0, 1]], [[[0.0]], [[1.0]]]),  # table of rank 3
        ([[0, 0]], np.zeros((1, 0))),  # D = 0
    ])
    def test_from_table_rejects(self, ids, table):
        with pytest.raises(ConfigError):
            FeatureImage.from_table(ids, table)

    def test_dense_constructor_rejects(self):
        for bad in (np.zeros((4, 4)), np.zeros((4, 4, 0)), np.full((2, 2, 3), np.nan)):
            with pytest.raises(ConfigError):
                FeatureImage(bad)


class TestBuildFrame:
    def test_single_valid_pixel(self):
        vals = np.zeros((8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        vals[3, 5] = 2.0
        mask[3, 5] = True
        color = np.zeros((8, 8, 3))
        color[3, 5] = [0.2, 0.4, 0.6]
        feats = np.zeros((8, 8, 4))
        feats[3, 5] = [1.0, 2.0, 3.0, 4.0]
        frame = build_frame(DepthImage(vals, mask), color, FeatureImage(feats),
                            _intr(), Pose.identity(), "camera")
        assert frame.n_points == 1
        np.testing.assert_array_equal(frame.features[0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(frame.colors[0], [0.2, 0.4, 0.6])
        assert frame.pixel_indices[0] == 3 * 8 + 5

    def test_identity_pose_camera_equals_world(self):
        rng = np.random.default_rng(0)
        depth, color, feats = _inputs(rng)
        cam = build_frame(depth, color, feats, _intr(), Pose.identity(), "camera")
        wld = build_frame(depth, color, feats, _intr(), Pose.identity(), "world")
        np.testing.assert_array_equal(cam.positions, wld.positions)
        np.testing.assert_array_equal(cam.features, wld.features)

    def test_world_positions_match_unproject_then_transform(self):
        rng = np.random.default_rng(1)
        depth, color, feats = _inputs(rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        pose = Pose(q, rng.normal(size=3))
        frame = build_frame(depth, color, feats, _intr(), pose, "world")
        idx, cam_pts = unproject(depth, _intr())
        np.testing.assert_array_equal(frame.positions, to_world(cam_pts, pose))
        vs, us = idx // 8, idx % 8
        np.testing.assert_array_equal(frame.features, feats.values[vs, us])

    def test_point_count_equals_valid_pixels(self):
        rng = np.random.default_rng(2)
        depth, color, feats = _inputs(rng, valid_frac=0.3)
        frame = build_frame(depth, color, feats, _intr(), Pose.identity(), "world")
        assert frame.n_points == depth.validity.sum()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        depth, color, feats = _inputs(rng)
        with pytest.raises(ConfigError):
            build_frame(depth, color[:4], feats, _intr(), Pose.identity(), "world")


class TestPointFeatureVector:
    def _frame(self, positions, d=4):
        n = len(positions)
        return Frame3D(
            positions=np.asarray(positions, dtype=float),
            colors=np.zeros((n, 3)),
            features=np.arange(n * d, dtype=float).reshape(n, d),
            pose=Pose.identity(),
            coord_frame="world",
            pixel_indices=np.arange(n),
        )

    def test_point_at_box_min(self):
        frame = self._frame([[0.0, 0.0, 0.0]])
        vec = point_feature_vector(frame, 0, [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(vec[-3:], [0.0, 0.0, 0.0])

    def test_point_at_box_center(self):
        frame = self._frame([[1.0, 1.0, 1.0]])
        vec = point_feature_vector(frame, 0, [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(vec[-3:], [0.5, 0.5, 0.5])

    def test_hand_assembled_concatenation_d16(self):
        rng = np.random.default_rng(4)
        pos = rng.normal(size=(1, 3))
        feats = rng.normal(size=(1, 16))
        frame = Frame3D(pos, np.zeros((1, 3)), feats, Pose.identity(), "world", [0])
        lo, hi = pos[0] - 1.0, pos[0] + 3.0
        vec = point_feature_vector(frame, 0, lo, hi)
        assert vec.shape == (19,)
        np.testing.assert_array_equal(vec[:16], feats[0])
        np.testing.assert_allclose(vec[16:], (pos[0] - lo) / (hi - lo))

    def test_length_is_d_plus_3_for_every_point(self):
        frame = self._frame([[0.1, 0.2, 0.3], [0.5, 0.6, 0.7]], d=6)
        for i in range(2):
            assert point_feature_vector(frame, i, [0, 0, 0], [1, 1, 1]).shape == (9,)

    def test_degenerate_box_axis_raises(self):
        frame = self._frame([[0.0, 0.0, 0.0]])
        with pytest.raises(ConfigError):
            point_feature_vector(frame, 0, [0.0, 0.0, 0.0], [1.0, 0.0, 1.0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(7, 3))
        feats = rng.normal(size=(7, 5))
        frame = Frame3D(pos, np.zeros((7, 3)), feats, Pose.identity(), "world", np.arange(7))
        lo, hi = pos.min(0) - 0.1, pos.max(0) + 0.1
        batch = feature_vectors(pos, feats, lo, hi)
        for i in range(7):
            np.testing.assert_array_equal(batch[i], point_feature_vector(frame, i, lo, hi))
