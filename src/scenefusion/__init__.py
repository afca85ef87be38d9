"""scenefusion: desk-scale 3D scene-feature fusion with language alignment.

The pipeline: depth images unproject into per-view 3D frames carrying
semantic features; frames fuse into a fixed-resolution point-voxel grid with
a visibility map; visible voxels become visual tokens; a projection layer
lifts tokens into a tiny trainable language model for captioning, QA, and
interactive planning against the built-in box-world simulator.
"""

from .geometry import CameraIntrinsics, DepthImage, Pose, to_world, unproject
from .frame import FeatureImage, Frame3D, build_frame, feature_vectors, point_feature_vector
from .voxelizer import (
    GridLayout,
    VoxelClusterConfig,
    VoxelGrid,
    cluster_voxel,
    grid_layout,
    token_matrix,
    voxelize,
)
from .scene import (SceneState, aggregate_frames, frame_to_grid, init_scene, points_to_grid,
                    update_scene)
from .align import (
    AlignmentModel,
    ModelConfig,
    TokenSequence,
    TrainConfig,
    Vocabulary,
    assemble_sequence,
    build_vocab,
    generate,
    gradients,
    loss,
    project,
    train,
)
from .worldsim import (
    WorldConfig,
    WorldState,
    apply_action,
    capture_views,
    gen_instructions,
    gen_tasks,
    gen_world,
    render,
)
from .interact import (
    Disturbance,
    EpisodeState,
    GridBeliefPlanner,
    OraclePlanner,
    PlannerAction,
    egocentric_step,
    parse_action,
    plan_step,
    run_episode,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentModel",
    "CameraIntrinsics",
    "DepthImage",
    "Disturbance",
    "EpisodeState",
    "FeatureImage",
    "Frame3D",
    "GridBeliefPlanner",
    "GridLayout",
    "ModelConfig",
    "OraclePlanner",
    "PlannerAction",
    "Pose",
    "SceneState",
    "TokenSequence",
    "TrainConfig",
    "VoxelClusterConfig",
    "VoxelGrid",
    "Vocabulary",
    "WorldConfig",
    "WorldState",
    "aggregate_frames",
    "apply_action",
    "assemble_sequence",
    "build_frame",
    "build_vocab",
    "capture_views",
    "cluster_voxel",
    "egocentric_step",
    "feature_vectors",
    "frame_to_grid",
    "gen_instructions",
    "gen_tasks",
    "gen_world",
    "generate",
    "gradients",
    "grid_layout",
    "init_scene",
    "loss",
    "parse_action",
    "plan_step",
    "point_feature_vector",
    "points_to_grid",
    "project",
    "render",
    "run_episode",
    "to_world",
    "token_matrix",
    "train",
    "unproject",
    "update_scene",
    "voxelize",
]
