"""3D frames: per-view point sets carrying per-point semantic features.

A frame is what one rendered view contributes to the scene: one point per
valid depth pixel, each carrying the feature row of that pixel (synthetic
embedding with the color folded in), plus the camera pose so the frame can
be expressed in camera or world coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import CameraIntrinsics, DepthImage, Pose, to_world, unproject

CAMERA_FRAME = "camera"
WORLD_FRAME = "world"


@dataclass(frozen=True, init=False)
class FeatureImage:
    """H x W x D per-pixel features: H x W ids into a K x D table of finite rows
    (a render's table is the zero row of a miss plus one row per object). A
    dense image is ids = arange over its pixels; `values` is a fresh read-only
    dense array on each access."""

    ids: np.ndarray  # H x W int64, each in [0, K)
    table: np.ndarray  # K x D

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] < 1:
            raise ConfigError(f"feature image must be HxWxD with D >= 1, got {v.shape}")
        h, w, d = v.shape
        self._store(np.arange(h * w).reshape(h, w), v.reshape(h * w, d))

    @classmethod
    def from_table(cls, ids, table) -> "FeatureImage":
        image = cls.__new__(cls)
        image._store(np.asarray(ids, dtype=np.int64), np.asarray(table, dtype=np.float64))
        return image

    def _store(self, ids: np.ndarray, table: np.ndarray) -> None:
        if ids.ndim != 2 or table.ndim != 2 or table.shape[1] < 1:
            raise ConfigError(f"feature image needs H x W ids and a K x D table with D >= 1, "
                              f"got {ids.shape} and {table.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
            raise ConfigError(f"feature image ids must lie in [0, {table.shape[0]})")
        if not np.all(np.isfinite(table)):
            raise ConfigError("feature image contains non-finite entries")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "table", table)

    @property
    def values(self) -> np.ndarray:
        dense = self.table[self.ids]
        dense.flags.writeable = False
        return dense

    @property
    def dim(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class Frame3D:
    positions: np.ndarray  # N x 3 meters, in coord_frame
    colors: np.ndarray  # N x 3 in [0, 1], for rendering/debug only
    features: np.ndarray  # N x D
    pose: Pose  # camera-to-world
    coord_frame: str  # CAMERA_FRAME or WORLD_FRAME
    pixel_indices: np.ndarray  # N flat row-major pixel indices

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        col = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        feat = np.asarray(self.features, dtype=np.float64)
        idx = np.asarray(self.pixel_indices, dtype=np.int64).reshape(-1)
        n = pos.shape[0]
        if not (col.shape[0] == feat.shape[0] == idx.shape[0] == n):
            raise ConfigError("frame arrays disagree on point count")
        if self.coord_frame not in (CAMERA_FRAME, WORLD_FRAME):
            raise ConfigError(f"unknown coord_frame {self.coord_frame!r}")
        if n and not np.all(np.isfinite(pos)):
            raise ConfigError("frame positions contain non-finite entries")
        if n and not np.all(np.isfinite(feat)):
            raise ConfigError("frame features contain non-finite entries")
        if n and (col.min() < 0.0 or col.max() > 1.0):
            raise ConfigError("frame colors must lie in [0, 1]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        object.__setattr__(self, "features", feat)
        object.__setattr__(self, "pixel_indices", idx)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def world_positions(self) -> np.ndarray:
        if self.coord_frame == WORLD_FRAME:
            return self.positions
        return to_world(self.positions, self.pose)


def build_frame(
    depth: DepthImage,
    color: np.ndarray,
    feats: FeatureImage,
    intr: CameraIntrinsics,
    pose: Pose,
    coord_frame: str = WORLD_FRAME,
) -> Frame3D:
    """Unproject a rendered view into a Frame3D.

    One point per valid depth pixel, row-major; positions land in the requested
    coordinate frame; each point copies its pixel's feature and color row.
    """
    color = np.asarray(color, dtype=np.float64)
    if color.shape != (depth.height, depth.width, 3):
        raise ConfigError(f"color image shape {color.shape} does not match depth")
    if feats.ids.shape != (depth.height, depth.width):
        raise ConfigError(f"feature image shape {feats.ids.shape} does not match depth")
    pixel_idx, cam_points = unproject(depth, intr)
    vs, us = pixel_idx // intr.width, pixel_idx % intr.width
    if coord_frame == WORLD_FRAME:
        positions = to_world(cam_points, pose)
    elif coord_frame == CAMERA_FRAME:
        positions = cam_points
    else:
        raise ConfigError(f"unknown coord_frame {coord_frame!r}")
    return Frame3D(
        positions=positions,
        colors=color[vs, us],
        features=feats.table[feats.ids[vs, us]],
        pose=pose,
        coord_frame=coord_frame,
        pixel_indices=pixel_idx,
    )


def _check_box(box_min: np.ndarray, box_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    box_min = np.asarray(box_min, dtype=np.float64).reshape(3)
    box_max = np.asarray(box_max, dtype=np.float64).reshape(3)
    if np.any(box_max - box_min <= 0):
        raise ConfigError(f"bounding box has non-positive extent: min={box_min}, max={box_max}")
    return box_min, box_max


def normalize_positions(positions: np.ndarray, box_min, box_max) -> np.ndarray:
    """Map positions into [0, 1]^3 relative to a bounding box."""
    box_min, box_max = _check_box(box_min, box_max)
    return (np.asarray(positions, dtype=np.float64) - box_min) / (box_max - box_min)


def point_feature_vector(frame: Frame3D, i: int, box_min, box_max) -> np.ndarray:
    """Per-point (D+3) vector: feature row followed by box-normalized position."""
    if not 0 <= i < frame.n_points:
        raise ConfigError(f"point index {i} out of range for frame with {frame.n_points} points")
    norm = normalize_positions(frame.positions[i], box_min, box_max)
    return np.concatenate([frame.features[i], norm])


def feature_vectors(positions: np.ndarray, features: np.ndarray, box_min, box_max) -> np.ndarray:
    """Batch form of point_feature_vector: N x (D+3) = features || normalized positions."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != positions.shape[0]:
        raise ConfigError("positions and features disagree on point count")
    norm = normalize_positions(positions, box_min, box_max)
    return np.concatenate([features, norm], axis=1)
