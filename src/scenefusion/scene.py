"""Scene-level state: frame aggregation, the persistent voxel grid, and
masked incremental updates.

The scene grid's layout is frozen at init. A new observation is voxelized
into the same layout (frame grid F_hat with visibility V_hat) and merged by
the hard-mask rule

    F[t+1] = F[t] * (1 - V_hat) + F_hat * V_hat

applied element-wise with V_hat broadcast across the feature axis. It is
computed as a sorted merge of the two grids' visible-voxel index sets: the
scene's rows are placed first and the frame's rows overwrite theirs verbatim,
so observed voxels take the frame's bits and all others keep their old bits,
signed zeros included, as a dense select would. Visibility accumulates by OR,
so once-seen voxels stay on the map. A frame that looks at a now-empty region
contributes no points there (V_hat = 0), so stale features persist until
something is observed in that voxel again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError
from .frame import Frame3D, feature_vectors
from .voxelizer import (
    GridLayout,
    VoxelClusterConfig,
    VoxelGrid,
    count_outside_layout,
    grid_layout,
    voxelize,
)


@dataclass(frozen=True)
class AggregatePoints:
    """World-frame union of frames: positions, raw features, and data bounds."""

    positions: np.ndarray  # N x 3
    features: np.ndarray  # N x D
    bounds_min: np.ndarray
    bounds_max: np.ndarray

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SceneState:
    grid: VoxelGrid
    t: int = 0

    @property
    def layout(self) -> GridLayout:
        return self.grid.layout


def aggregate_frames(frames: list[Frame3D]) -> AggregatePoints:
    """Concatenate frames into one world-frame point set (no deduplication).

    Point order is frame order then per-frame point order, so re-aggregation
    is bit-reproducible.
    """
    if not frames:
        raise EmptyInputError("aggregate_frames needs at least one frame")
    dims = {f.feature_dim for f in frames}
    if len(dims) != 1:
        raise ConfigError(f"frames disagree on feature dimension: {sorted(dims)}")
    positions = np.concatenate([f.world_positions() for f in frames], axis=0)
    features = np.concatenate([f.features for f in frames], axis=0)
    if positions.shape[0] == 0:
        raise EmptyInputError("aggregate_frames: frames contain no points")
    return AggregatePoints(
        positions=positions,
        features=features,
        bounds_min=positions.min(axis=0),
        bounds_max=positions.max(axis=0),
    )


def _layout_vectors(positions: np.ndarray, features: np.ndarray, layout: GridLayout) -> np.ndarray:
    # Positions normalize against the layout box (not the raw data bounds) so
    # that init-time and update-time vectors for the same point are identical.
    return feature_vectors(positions, features, layout.box_min, layout.box_max)


def init_scene(
    frames: list[Frame3D],
    resolution: float,
    cfg: VoxelClusterConfig,
    explicit_bounds=None,
) -> SceneState:
    """Aggregate frames, freeze the layout over their bounds, and voxelize."""
    agg = aggregate_frames(frames)
    if explicit_bounds is not None:
        layout = grid_layout(None, resolution, explicit_bounds=explicit_bounds)
    else:
        layout = grid_layout(agg.positions, resolution)
    vectors = _layout_vectors(agg.positions, agg.features, layout)
    oob = "drop" if explicit_bounds is not None else "error"
    grid = voxelize(agg.positions, vectors, layout, cfg, out_of_bounds=oob)
    return SceneState(grid=grid, t=0)


def frame_to_grid(
    frame: Frame3D,
    layout: GridLayout,
    cfg: VoxelClusterConfig,
) -> VoxelGrid:
    """Voxelize one frame into the scene's frozen layout.

    Frame points outside the layout are dropped with a counted warning; the
    masked merge requires the frame grid and scene grid to share a shape, so
    the layout never grows.
    """
    if frame.coord_frame != "world":
        raise ConfigError("frame_to_grid needs a world-frame Frame3D (convert first)")
    n_out = count_outside_layout(frame.positions, layout)
    if n_out:
        warnings.warn(
            f"frame_to_grid: dropped {n_out} of {frame.n_points} points outside scene layout",
            stacklevel=2,
        )
    vectors = _layout_vectors(frame.positions, frame.features, layout)
    return voxelize(frame.positions, vectors, layout, cfg, out_of_bounds="drop")


def update_scene(
    state: SceneState,
    frame: Frame3D,
    cfg: VoxelClusterConfig,
) -> SceneState:
    """Masked overwrite of the scene grid by a fresh observation.

    Returns a new SceneState; the input is untouched. Voxels the frame sees
    take the frame's features exactly; all others keep their previous bits.
    """
    frame_grid = frame_to_grid(frame, state.layout, cfg)
    return merge_frame_grid(state, frame_grid)


def merge_frame_grid(state: SceneState, frame_grid: VoxelGrid) -> SceneState:
    """Apply the hard-mask merge given an already-voxelized frame grid."""
    if frame_grid.layout.dims != state.layout.dims or frame_grid.feature_dim != state.grid.feature_dim:
        raise ConfigError("frame grid layout/feature dim does not match scene grid")
    index = np.union1d(state.grid.index, frame_grid.index)
    rows = np.empty((len(index), frame_grid.feature_dim))
    rows[np.searchsorted(index, state.grid.index)] = state.grid.rows
    rows[np.searchsorted(index, frame_grid.index)] = frame_grid.rows
    return SceneState(grid=VoxelGrid.from_rows(state.layout, index, rows), t=state.t + 1)
