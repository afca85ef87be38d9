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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError
from .frame import Frame3D, feature_vectors
from .voxelizer import GridLayout, VoxelClusterConfig, VoxelGrid, grid_layout, voxelize


@dataclass(frozen=True)
class SceneState:
    grid: VoxelGrid
    t: int = 0

    @property
    def layout(self) -> GridLayout:
        return self.grid.layout


def aggregate_frames(frames: list[Frame3D]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate frames into one world-frame point set (no deduplication):
    N x 3 positions and N x D raw features.

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
    return positions, features


def points_to_grid(positions: np.ndarray, features: np.ndarray, layout: GridLayout,
                   cfg: VoxelClusterConfig) -> VoxelGrid:
    """Voxelize raw points into `layout`: each point's vector is its features
    followed by its position normalized against the layout box (not the data
    bounds), so init-time and update-time vectors of one point are identical.
    Points outside the layout are dropped with one counted warning (`voxelize`).
    """
    vectors = feature_vectors(positions, features, layout.box_min, layout.box_max)
    return voxelize(positions, vectors, layout, cfg)


def init_scene(
    frames: list[Frame3D],
    resolution: float,
    cfg: VoxelClusterConfig,
    explicit_bounds=None,
) -> SceneState:
    """Aggregate frames, freeze the layout over their bounds (or the explicit
    bounds), and voxelize."""
    positions, features = aggregate_frames(frames)
    layout = grid_layout(positions, resolution, explicit_bounds)
    return SceneState(grid=points_to_grid(positions, features, layout, cfg), t=0)


def frame_to_grid(
    frame: Frame3D,
    layout: GridLayout,
    cfg: VoxelClusterConfig,
) -> VoxelGrid:
    """Voxelize one frame into the scene's frozen layout.

    Frame points outside the layout are dropped with a counted warning; the
    masked merge requires the frame grid and scene grid to share a layout, so
    the layout never grows.
    """
    if frame.coord_frame != "world":
        raise ConfigError("frame_to_grid needs a world-frame Frame3D (convert first)")
    return points_to_grid(frame.positions, frame.features, layout, cfg)


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
    ours, theirs = state.layout, frame_grid.layout
    if (theirs.dims != ours.dims or theirs.resolution != ours.resolution
            or theirs.origin.tobytes() != ours.origin.tobytes()
            or frame_grid.feature_dim != state.grid.feature_dim):
        raise ConfigError("frame grid layout/feature dim does not match scene grid")
    index = np.union1d(state.grid.index, frame_grid.index)
    rows = np.empty((len(index), frame_grid.feature_dim))
    rows[np.searchsorted(index, state.grid.index)] = state.grid.rows
    rows[np.searchsorted(index, frame_grid.index)] = frame_grid.rows
    return SceneState(grid=VoxelGrid.from_rows(state.layout, index, rows), t=state.t + 1)
