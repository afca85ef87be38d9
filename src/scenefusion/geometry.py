"""Pinhole camera model, depth unprojection, and rigid transforms.

Conventions (fixed here, used consistently by the synthetic renderer and
every test): pixel centers sit at integer coordinates (u, v) with u the
column and v the row; the camera looks down +z, so a pixel with depth d
unprojects to ((u - cx) * d / fx, (v - cy) * d / fy, d). All geometry is
double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_ORTHO_TOL = 1e-9
_EYE3 = np.eye(3)
# np.allclose(r.T @ r, I, atol=_ORTHO_TOL)'s bound on |r.T @ r - I|: atol + rtol * |I|
_ORTHO_BOUND = _ORTHO_TOL + 1e-5 * _EYE3


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ConfigError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_world = rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ConfigError(f"rotation must be 3x3, got {r.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf fail the test below
            err = np.abs(r.T @ r - _EYE3)
        if not (err <= _ORTHO_BOUND).all():
            raise ConfigError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ConfigError("rotation determinant is not +1 (improper rotation)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel depths in meters plus an explicit validity mask.

    Invalid pixels carry no depth information; the mask (not a sentinel)
    keeps NaNs out of downstream feature math.
    """

    values: np.ndarray
    validity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ConfigError(f"depth values must be HxW, got shape {v.shape}")
        mask = self.validity
        if mask is None:
            mask = np.isfinite(v) & (v > 0)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != v.shape:
            raise ConfigError(f"validity shape {mask.shape} != depth shape {v.shape}")
        if mask.any():
            valid_vals = v[mask]
            if not np.all(np.isfinite(valid_vals)) or not np.all(valid_vals > 0):
                raise ConfigError("valid depths must be positive and finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "validity", mask)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def unproject(depth: DepthImage, intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Lift every valid depth pixel to a camera-frame 3D point.

    Returns (pixel_indices, points): flat row-major pixel indices (v * width + u)
    and an N x 3 array of camera-frame points, in row-major pixel order.
    """
    if (depth.height, depth.width) != (intr.height, intr.width):
        raise ConfigError(
            f"depth image {depth.height}x{depth.width} does not match "
            f"intrinsics {intr.height}x{intr.width}"
        )
    vs, us = np.nonzero(depth.validity)
    d = depth.values[vs, us]
    x = (us - intr.cx) * d / intr.fx
    y = (vs - intr.cy) * d / intr.fy
    points = np.stack([x, y, d], axis=1)
    return vs * intr.width + us, points


def project_to_pixels(points: np.ndarray, intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of unproject for round-trip checks: camera points -> (u, v) and depth."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    z = p[:, 2]
    u = p[:, 0] * intr.fx / z + intr.cx
    v = p[:, 1] * intr.fy / z + intr.cy
    return np.stack([u, v], axis=1), z


def to_world(camera_points: np.ndarray, pose: Pose) -> np.ndarray:
    """Apply the rigid transform: p -> rotation @ p + translation."""
    p = np.asarray(camera_points, dtype=np.float64)
    single = p.ndim == 1
    p = p.reshape(-1, 3)
    out = p @ np.ascontiguousarray(pose.rotation.T) + pose.translation
    return out[0] if single else out


def _norm(v: list[float]) -> float:
    """np.linalg.norm of a 3-vector: the square root of numpy's dot, whose
    rounding a Python sum of squares does not reproduce."""
    a = np.array(v)
    return math.sqrt(a.dot(a))


def _cross(a: list[float], b: list[float]) -> list[float]:
    """np.cross of two 3-vectors, in Python floats: the same multiplies and
    subtracts, so the same bits."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def look_at_pose(eye: np.ndarray, target: np.ndarray, up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera-to-world pose for a camera at `eye` whose +z axis points at `target`.

    The camera's +x spans image columns and +y spans rows (pointing "down" in
    world terms so that up in the image is up in the world).
    """
    eye = np.asarray(eye, dtype=np.float64).reshape(3)
    fwd = (np.asarray(target, dtype=np.float64).reshape(3) - eye).tolist()
    n = _norm(fwd)
    if n < 1e-12:
        raise ConfigError("look_at: eye and target coincide")
    fwd = [c / n for c in fwd]
    right = _cross(fwd, np.asarray(up, dtype=np.float64).reshape(3).tolist())
    rn = _norm(right)
    if rn < 1e-12:
        # Forward is (anti)parallel to up; pick an arbitrary perpendicular.
        right = _cross(fwd, [1.0, 0.0, 0.0])
        rn = _norm(right)
        if rn == 0.0:
            raise ConfigError("look_at: up and the x axis are both parallel to the view")
    right = [c / rn for c in right]
    down = _cross(fwd, right)
    rot = np.array(list(zip(right, down, fwd)))  # columns: camera x, y, z in world
    return Pose(rot, eye)
