"""Bit-exact persistence: one versioned binary container for all array
artifacts plus JSON for human-facing metadata.

Container layout (all little-endian):
    magic   4 bytes  b"SCFA"
    version u32      currently 1
    kind    u32 len + utf-8 payload kind
    meta    u32 len + utf-8 JSON metadata
    count   u32      number of arrays
    per array: u16 name len + name, u8 dtype code (0=f8, 1=i8, 2=bool),
               u8 ndim, ndim x u64 shape, u64 byte length, raw row-major bytes

Floats are 64-bit little-endian, row-major; a write/read round trip is
bit-identical. Truncated or corrupt files raise a clean format error and
never return a partial object: that covers a shape whose element count does
not match the byte length, kind or name bytes that are not UTF-8, and bytes
after the last array. Writes are atomic: a temp file in the target's
directory, renamed over the target once complete.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import secrets
import struct
from dataclasses import asdict

import numpy as np

from .align.model import AlignmentModel, ModelConfig, init_params
from .align.vocab import Vocabulary
from .config import config_from_dict
from .errors import ArtifactFormatError, ConfigError
from .frame import Frame3D
from .geometry import Pose
from .scene import SceneState
from .voxelizer import GridLayout, VoxelGrid

MAGIC = b"SCFA"
VERSION = 1

ARTIFACT_KINDS = ("frame", "grid", "scene", "checkpoint", "render", "tokens")

_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "|b1"}


def _code_for(arr: np.ndarray) -> tuple[int, np.ndarray]:
    if arr.dtype == bool:
        return 2, np.ascontiguousarray(arr)
    if np.issubdtype(arr.dtype, np.integer):
        return 1, np.ascontiguousarray(arr, dtype="<i8")
    return 0, np.ascontiguousarray(arr, dtype="<f8")


def save_artifact(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    kind_b = kind.encode()
    buf.write(struct.pack("<I", len(kind_b)))
    buf.write(kind_b)
    meta_b = json.dumps(meta, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta_b)))
    buf.write(meta_b)
    buf.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        name_b = name.encode()
        code, data = _code_for(np.asarray(arr))
        buf.write(struct.pack("<H", len(name_b)))
        buf.write(name_b)
        buf.write(struct.pack("<B", code))
        buf.write(struct.pack("<B", data.ndim))
        for s in data.shape:
            buf.write(struct.pack("<Q", s))
        raw = data.tobytes()
        buf.write(struct.pack("<Q", len(raw)))
        buf.write(raw)
    # write a temp file beside the target, then rename it over the target:
    # a failed write leaves any old file intact and no partial file behind
    tmp = f"{os.fspath(path)}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ArtifactFormatError(f"truncated artifact file while reading {what}")
    return data


def _read_text(f, n: int, what: str) -> str:
    try:
        return _read_exact(f, n, what).decode()
    except UnicodeDecodeError as exc:
        raise ArtifactFormatError(f"{what} is not valid UTF-8: {exc}") from exc


def load_artifact(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, meta, arrays) of a container file; ArtifactFormatError naming
    the file when it is not a well-formed container."""
    with open(path, "rb") as f:
        try:
            return _read_container(f)
        except ArtifactFormatError as exc:
            raise ArtifactFormatError(f"{path}: {exc}") from None


def _read_container(f) -> tuple[str, dict, dict[str, np.ndarray]]:
    magic = _read_exact(f, 4, "magic")
    if magic != MAGIC:
        raise ArtifactFormatError(f"bad magic {magic!r}; not a scenefusion artifact")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != VERSION:
        raise ArtifactFormatError(f"unsupported artifact version {version} (want {VERSION})")
    (kl,) = struct.unpack("<I", _read_exact(f, 4, "kind length"))
    kind = _read_text(f, kl, "kind")
    (ml,) = struct.unpack("<I", _read_exact(f, 4, "meta length"))
    try:
        meta = json.loads(_read_text(f, ml, "metadata"))
    except json.JSONDecodeError as exc:
        raise ArtifactFormatError(f"corrupt metadata block: {exc}") from exc
    (count,) = struct.unpack("<I", _read_exact(f, 4, "array count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nl,) = struct.unpack("<H", _read_exact(f, 2, "array name length"))
        name = _read_text(f, nl, "array name")
        (code,) = struct.unpack("<B", _read_exact(f, 1, "dtype code"))
        if code not in _DTYPE_CODES:
            raise ArtifactFormatError(f"unknown dtype code {code}")
        (ndim,) = struct.unpack("<B", _read_exact(f, 1, "ndim"))
        shape = tuple(
            struct.unpack("<Q", _read_exact(f, 8, "shape"))[0] for _ in range(ndim)
        )
        (nbytes,) = struct.unpack("<Q", _read_exact(f, 8, "byte length"))
        dtype = np.dtype(_DTYPE_CODES[code])
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise ArtifactFormatError(
                f"array {name!r}: shape {shape} does not fit its {nbytes} data bytes"
            )
        raw = _read_exact(f, nbytes, f"array {name!r} data")
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        arrays[name] = arr.astype(bool) if code == 2 else arr.copy()
    if f.read(1):
        raise ArtifactFormatError("trailing bytes after the last array")
    return kind, meta, arrays


# ---------------------------------------------------------------------------
# typed wrappers


def save_frame(frame: Frame3D, path) -> None:
    save_artifact(
        path,
        "frame",
        {"coord_frame": frame.coord_frame, "feature_dim": frame.feature_dim},
        {
            "positions": frame.positions,
            "colors": frame.colors,
            "features": frame.features,
            "pixel_indices": frame.pixel_indices,
            "pose_rotation": frame.pose.rotation,
            "pose_translation": frame.pose.translation,
        },
    )


def load_frame(path) -> Frame3D:
    kind, meta, arrays = load_artifact(path)
    if kind != "frame":
        raise ArtifactFormatError(f"expected a frame artifact, got {kind!r}")
    return Frame3D(
        positions=arrays["positions"],
        colors=arrays["colors"],
        features=arrays["features"],
        pose=Pose(arrays["pose_rotation"], arrays["pose_translation"]),
        coord_frame=meta["coord_frame"],
        pixel_indices=arrays["pixel_indices"],
    )


def _grid_payload(grid: VoxelGrid) -> tuple[dict, dict]:
    layout = grid.layout
    # the payload stores the dense features, so they must fit in one array
    if layout.n_voxels * grid.feature_dim * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"resolution {layout.resolution} gives a {layout.dims} grid, too "
                          f"many voxels for a dense {grid.feature_dim}-column features array")
    meta = {
        "origin": layout.origin.tolist(),
        "resolution": layout.resolution,
        "dims": list(layout.dims),
    }
    return meta, {"features": grid.features, "visibility": grid.visibility}


def _grid_from_payload(path, meta: dict, arrays: dict) -> VoxelGrid:
    """ArtifactFormatError naming the file when a field is missing or bad, the
    visibility is not bool, or an invisible voxel has a nonzero bit (-0.0 too)."""
    try:
        layout = GridLayout(np.array(meta["origin"]), meta["resolution"], tuple(meta["dims"]))
        if arrays["visibility"].dtype != bool:
            raise ConfigError(f"visibility is {arrays['visibility'].dtype}, not bool")
        return VoxelGrid(layout, arrays["features"], arrays["visibility"])
    except KeyError as exc:
        raise ArtifactFormatError(f"{path}: grid lacks {exc}") from None
    except (ConfigError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: bad grid ({exc})") from None


def save_grid(grid: VoxelGrid, path) -> None:
    meta, arrays = _grid_payload(grid)
    save_artifact(path, "grid", meta, arrays)


def save_scene(state: SceneState, path) -> None:
    meta, arrays = _grid_payload(state.grid)
    meta["t"] = state.t
    save_artifact(path, "scene", meta, arrays)


def _scene_from_payload(path, meta: dict, arrays: dict) -> SceneState:
    if not isinstance(meta.get("t"), int):
        raise ArtifactFormatError(f"{path}: scene lacks an integer step t")
    return SceneState(grid=_grid_from_payload(path, meta, arrays), t=meta["t"])


def load_scene(path) -> SceneState:
    kind, meta, arrays = load_artifact(path)
    if kind != "scene":
        raise ArtifactFormatError(f"expected a scene artifact, got {kind!r}")
    return _scene_from_payload(path, meta, arrays)


def load_grid_or_scene(path) -> VoxelGrid:
    """The voxel grid of a grid or a scene artifact. The file is read once,
    and a bad payload fails with the error of the kind the file declares."""
    kind, meta, arrays = load_artifact(path)
    if kind == "scene":
        return _scene_from_payload(path, meta, arrays).grid
    if kind != "grid":
        raise ArtifactFormatError(f"{path}: expected a grid or scene artifact, got {kind!r}")
    return _grid_from_payload(path, meta, arrays)


def save_checkpoint(model: AlignmentModel, path, extra_meta: dict | None = None) -> None:
    meta = {
        "model_cfg": asdict(model.cfg),
        "vocab": list(model.vocab.words),
        "param_order": list(model.params.keys()),
    }
    if extra_meta:
        meta.update(extra_meta)
    save_artifact(path, "checkpoint", meta, dict(model.params))


def load_checkpoint(path) -> AlignmentModel:
    """Read a checkpoint; ArtifactFormatError when its config, vocabulary or
    parameters (names, shapes, float64) do not make the model it describes."""
    kind, meta, arrays = load_artifact(path)
    if kind != "checkpoint":
        raise ArtifactFormatError(f"expected a checkpoint artifact, got {kind!r}")
    try:
        cfg = config_from_dict(ModelConfig, meta.get("model_cfg"))
    except ConfigError as exc:
        raise ArtifactFormatError(f"bad checkpoint model_cfg: {exc}") from None
    words, order = meta.get("vocab"), meta.get("param_order")
    if not isinstance(words, list) or not isinstance(order, list):
        raise ArtifactFormatError("checkpoint meta needs the lists vocab and param_order")
    try:
        vocab = Vocabulary(tuple(words))
    except ConfigError as exc:
        raise ArtifactFormatError(f"bad checkpoint vocab: {exc}") from None
    if len(vocab) != cfg.vocab_size:
        raise ArtifactFormatError(
            f"checkpoint vocab has {len(vocab)} words, model_cfg says {cfg.vocab_size}")
    missing = [name for name in order if name not in arrays]
    if missing:
        raise ArtifactFormatError(f"checkpoint lacks the listed arrays {missing}")
    shapes = {name: p.shape for name, p in init_params(cfg).items()}
    if sorted(order) != sorted(shapes):
        raise ArtifactFormatError(
            f"checkpoint parameters {sorted(set(order) ^ set(shapes))} do not match model_cfg")
    for name in order:
        arr = arrays[name]
        if arr.shape != shapes[name] or arr.dtype != np.float64:
            raise ArtifactFormatError(
                f"checkpoint parameter {name} is {arr.dtype} {arr.shape}, "
                f"model_cfg needs float64 {shapes[name]}")
    return AlignmentModel(cfg, {name: arrays[name] for name in order}, vocab)
