"""
From a depth image to visual tokens
===================================

Renders one view of a synthetic room, unprojects the depth image into a 3D
frame, voxelizes the frame into a fixed-resolution feature grid, and emits
the visible voxels as visual tokens.
"""

import numpy as np

from scenefusion import WorldConfig, gen_world, capture_views, render, token_matrix
from scenefusion.datagen import frame_from_view
from scenefusion.frame import feature_vectors
from scenefusion.voxelizer import VoxelClusterConfig, grid_layout, voxelize

# A small room with five box-shaped objects.
world = gen_world(WorldConfig(n_objects=5), seed=7)
print(f"room {world.bounds_max - world.bounds_min} m with objects:")
for obj in world.objects:
    print(f"  {obj.ref:16s} at {np.round(obj.center, 2)}")

# Render the first ring camera: depth + per-pixel semantic features.
intr, pose = capture_views(world, n_views=4, seed=0)[0]
rr = render(world, intr, pose)
print(f"\nrendered {intr.width}x{intr.height} view: "
      f"{int(rr.depth.validity.sum())} pixels hit an object")

# Unproject every valid pixel into a world-frame point with its feature row.
frame = frame_from_view(world, intr, pose)
print(f"frame: {frame.n_points} points, feature dim {frame.feature_dim}")

# Voxelize at 0.25 m: each occupied voxel keeps the mean vector of its
# largest semantic cluster; empty voxels stay invisible.
layout = grid_layout(frame.positions, resolution=0.25)
vectors = feature_vectors(frame.positions, frame.features, layout.box_min, layout.box_max)
grid = voxelize(frame.positions, vectors, layout, VoxelClusterConfig(k=5))
print(f"grid dims {layout.dims}: {grid.n_visible} visible voxels "
      f"of {layout.n_voxels}")

coords, tokens = token_matrix(grid)
print(f"\n{len(tokens)} visual tokens (lexicographic voxel order); first three:")
for coord, vec in zip(coords[:3], tokens[:3]):
    print(f"  voxel {tuple(coord.tolist())}: feature head {np.round(vec[:4], 3)} "
          f"... coords {np.round(vec[-3:], 3)}")
