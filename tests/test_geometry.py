"""Geometry tests: unprojection arithmetic, rigid transforms, round trips."""

import numpy as np
import pytest
from oracles import numpy_look_at

from scenefusion.errors import ConfigError
from scenefusion.geometry import (
    CameraIntrinsics,
    DepthImage,
    Pose,
    look_at_pose,
    project_to_pixels,
    to_world,
    unproject,
)


def _intr(fx=2.0, fy=2.0, cx=2.0, cy=2.0, w=4, h=4):
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _random_pose(rng):
    # QR of a random matrix gives an orthonormal frame; fix the handedness
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(q, rng.normal(size=3))


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ConfigError):
            _intr(fx=-1.0)
        with pytest.raises(ConfigError):
            _intr(cx=4.0)  # principal point must lie inside the image

    def test_pose_rejects_non_orthonormal(self):
        with pytest.raises(ConfigError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_pose_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ConfigError):
            Pose(r, np.zeros(3))

    @pytest.mark.parametrize("rotation, message", [
        (np.eye(3) + 2e-9, "not orthonormal"),  # just past np.allclose's atol
        (np.full((3, 3), np.nan), "not orthonormal"),
        (np.diag([np.inf, 1.0, 1.0]), "not orthonormal"),
        (np.diag([-np.inf, 1.0, 1.0]), "not orthonormal"),
        (np.eye(3) * 1e200, "not orthonormal"),  # r.T @ r overflows
        (np.diag([1.0, -1.0, 1.0]), "improper rotation"),
        (-np.eye(3), "improper rotation"),
    ])
    def test_pose_rejects_bad_rotations_by_name(self, rotation, message):
        with pytest.raises(ConfigError, match=message):
            Pose(rotation, np.zeros(3))

    def test_pose_accepts_within_allclose_tolerance(self):
        """np.allclose's rule: off the diagonal, |r.T r - I| <= 1e-9."""
        off = np.eye(3)
        off[0, 1] = 4e-10
        Pose(off, np.zeros(3))
        off[0, 1] = 2e-9
        with pytest.raises(ConfigError, match="not orthonormal"):
            Pose(off, np.zeros(3))

    def test_depth_rejects_negative_valid_depth(self):
        vals = np.full((2, 2), -1.0)
        with pytest.raises(ConfigError):
            DepthImage(vals, np.ones((2, 2), dtype=bool))

    def test_depth_auto_mask_from_values(self):
        vals = np.array([[1.0, 0.0], [np.inf, 2.0]])
        d = DepthImage(vals)
        assert d.validity.tolist() == [[True, False], [False, True]]


class TestUnproject:
    def test_principal_point_ray(self):
        vals = np.zeros((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        vals[2, 2] = 2.0
        mask[2, 2] = True
        idx, pts = unproject(DepthImage(vals, mask), _intr())
        assert idx.tolist() == [2 * 4 + 2]
        np.testing.assert_array_equal(pts, [[0.0, 0.0, 2.0]])

    def test_all_invalid_gives_empty(self):
        d = DepthImage(np.ones((4, 4)), np.zeros((4, 4), dtype=bool))
        idx, pts = unproject(d, _intr())
        assert idx.size == 0 and pts.shape == (0, 3)

    def test_full_image_matches_per_pixel_arithmetic(self):
        # 4x4, fx=fy=2, cx=cy=2, all depths 1: hand-compute every pixel
        d = DepthImage(np.ones((4, 4)), np.ones((4, 4), dtype=bool))
        idx, pts = unproject(d, _intr())
        assert pts.shape == (16, 3)
        i = 0
        for v in range(4):
            for u in range(4):
                expected = [(u - 2.0) * 1.0 / 2.0, (v - 2.0) * 1.0 / 2.0, 1.0]
                assert idx[i] == v * 4 + u
                np.testing.assert_allclose(pts[i], expected, rtol=0, atol=0)
                i += 1

    def test_dimension_mismatch_raises(self):
        d = DepthImage(np.ones((3, 4)))
        with pytest.raises(ConfigError):
            unproject(d, _intr())

    def test_count_equals_valid_pixels(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 3.0, size=(8, 8))
        mask = rng.random((8, 8)) < 0.4
        intr = _intr(cx=4.0, cy=4.0, w=8, h=8)
        idx, pts = unproject(DepthImage(vals, mask), intr)
        assert len(pts) == mask.sum()

    def test_project_round_trip(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.5, 5.0, size=(6, 6))
        mask = np.ones((6, 6), dtype=bool)
        intr = CameraIntrinsics(fx=3.0, fy=4.0, cx=2.5, cy=3.0, width=6, height=6)
        idx, pts = unproject(DepthImage(vals, mask), intr)
        uv, depth = project_to_pixels(pts, intr)
        us, vs = idx % 6, idx // 6
        assert np.max(np.abs(uv[:, 0] - us)) < 0.5
        assert np.max(np.abs(uv[:, 1] - vs)) < 0.5
        np.testing.assert_allclose(depth, vals[vs, us], rtol=1e-9)


class TestToWorld:
    def test_identity(self):
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(to_world(pts, Pose.identity()), pts)

    def test_pure_translation(self):
        pose = Pose(np.eye(3), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(to_world(np.zeros(3), pose), [1.0, 0.0, 0.0])

    def test_z_rotation_90deg(self):
        pose = Pose(_rot_z(np.pi / 2), np.zeros(3))
        out = to_world(np.array([1.0, 0.0, 0.0]), pose)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(2)
        pose = _random_pose(rng)
        pts = rng.normal(size=(40, 3))
        out = to_world(pts, pose)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        np.testing.assert_allclose(d_out, d_in, rtol=1e-9, atol=1e-12)

    def test_matches_matmul_by_transposed_rotation_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 500):
            pose = _random_pose(rng)
            pts = rng.normal(size=(n, 3)) * 10.0
            expected = pts @ pose.rotation.T + pose.translation
            assert to_world(pts, pose).tobytes() == expected.tobytes()


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        pose = look_at_pose([0.0, 0.0, 1.0], [2.0, 0.0, 1.0])
        fwd = pose.rotation[:, 2]
        np.testing.assert_allclose(fwd, [1.0, 0.0, 0.0], atol=1e-12)

    def test_pose_is_valid_rotation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            eye = rng.normal(size=3)
            target = rng.normal(size=3)
            if np.linalg.norm(target - eye) < 1e-6:
                continue
            pose = look_at_pose(eye, target)  # Pose validates orthonormality
            assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9

    def test_matches_numpy_cross_formula_bit_for_bit(self):
        """1,200 seeded eye/target pairs over six scales, then every axis
        direction and near-vertical views, where forward is (anti)parallel to
        up and the fallback perpendicular is taken."""
        rng = np.random.default_rng(21)
        pairs = [rng.normal(size=(2, 3)) * scale
                 for scale in (1e-3, 0.1, 1.0, 3.0, 50.0, 1e4) for _ in range(200)]
        eye = rng.normal(size=3)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            pairs.append(np.stack([eye, eye + 2.5 * axis]))
        pairs.append(np.stack([eye, eye + [1e-14, 0.0, -1.0]]))  # |right| < 1e-12
        fallbacks = 0
        for e, t in pairs:
            rot, trans = numpy_look_at(e, t)
            pose = look_at_pose(e, t)
            assert pose.rotation.tobytes() == rot.tobytes()
            assert pose.rotation.flags.c_contiguous
            assert pose.translation.tobytes() == trans.tobytes()
            fallbacks += bool(np.linalg.norm(np.cross(rot[:, 2], [0.0, 0.0, 1.0])) < 1e-12)
        assert len(pairs) >= 1000 and fallbacks == 3

    @pytest.mark.parametrize("target, up, message", [
        ([1.0, 2.0, 3.0], (0.0, 0.0, 1.0), "coincide"),
        ([3.0, 2.0, 3.0], (1.0, 0.0, 0.0), "parallel to the view"),
    ])
    def test_degenerate_views_are_errors(self, target, up, message):
        with pytest.raises(ConfigError, match=message):
            look_at_pose([1.0, 2.0, 3.0], target, up)
