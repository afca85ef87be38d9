"""Artifact container: bit-exact round trips, version/magic checks, and
truncation fault injection."""

import errno
import struct
from dataclasses import asdict

import numpy as np
import pytest

from scenefusion import io_formats
from scenefusion.align.model import AlignmentModel, ModelConfig, param_hash
from scenefusion.align.vocab import build_vocab
from scenefusion.datagen import frame_from_view
from scenefusion.errors import ArtifactFormatError
from scenefusion.io_formats import (
    MAGIC,
    load_artifact,
    load_checkpoint,
    load_frame,
    load_grid_or_scene,
    load_scene,
    save_artifact,
    save_checkpoint,
    save_frame,
    save_grid,
    save_scene,
)
from scenefusion.scene import init_scene
from scenefusion.voxelizer import VoxelClusterConfig
from scenefusion.worldsim import WorldConfig, capture_views, gen_world


@pytest.fixture(scope="module")
def sample():
    w = gen_world(WorldConfig(n_objects=4), seed=8)
    intr, pose = capture_views(w, 1, seed=0)[0]
    frame = frame_from_view(w, intr, pose)
    state = init_scene([frame], 0.25, VoxelClusterConfig(k=5))
    return w, frame, state


class TestContainer:
    def test_round_trip_mixed_dtypes(self, tmp_path):
        arrays = {
            "floats": np.random.default_rng(0).normal(size=(3, 4, 5)),
            "ints": np.arange(7, dtype=np.int64),
            "bools": np.array([True, False, True]),
        }
        path = tmp_path / "a.bin"
        save_artifact(path, "grid", {"x": 1, "y": [1.5, "s"]}, arrays)
        kind, meta, out = load_artifact(path)
        assert kind == "grid" and meta == {"x": 1, "y": [1.5, "s"]}
        for k in arrays:
            assert out[k].dtype == arrays[k].dtype
            np.testing.assert_array_equal(out[k], arrays[k])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ArtifactFormatError, match="magic"):
            load_artifact(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.bin"
        path.write_bytes(MAGIC + (9).to_bytes(4, "little") + b"\x00" * 32)
        with pytest.raises(ArtifactFormatError, match="version"):
            load_artifact(path)

    def test_truncation_fault_injection(self, tmp_path):
        path = tmp_path / "full.bin"
        save_artifact(path, "grid", {"n": 3},
                      {"a": np.arange(24.0).reshape(2, 3, 4), "b": np.ones(5, dtype=bool)})
        data = path.read_bytes()
        rng = np.random.default_rng(1)
        cuts = sorted(set(int(c) for c in rng.integers(1, len(data) - 1, size=20)))
        for cut in cuts:
            trunc = tmp_path / f"cut{cut}.bin"
            trunc.write_bytes(data[:cut])
            with pytest.raises(ArtifactFormatError):
                load_artifact(trunc)


class _HalfWriter:
    """A file that keeps half of what it is given, then fails as a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "a.bin"
        save_artifact(path, "grid", {"n": 1}, {"a": np.arange(4.0)})
        old = path.read_bytes()
        real_open = open
        monkeypatch.setattr(io_formats, "open",
                            lambda *a, **k: _HalfWriter(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_artifact(path, "grid", {"n": 2}, {"a": np.arange(1000.0)})
        with pytest.raises(OSError, match="No space left"):
            save_artifact(tmp_path / "new.bin", "grid", {"n": 2}, {"a": np.arange(1000.0)})
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_write_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "a.bin"
        save_artifact(path, "grid", {"n": 1}, {"a": np.arange(4.0)})
        save_artifact(path, "grid", {"n": 2}, {"a": np.arange(9.0)})
        _, meta, arrays = load_artifact(path)
        assert meta == {"n": 2}
        np.testing.assert_array_equal(arrays["a"], np.arange(9.0))
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


class TestContainerErrorsNameTheFile:
    def test_each_container_error_names_the_path(self, tmp_path):
        ok = tmp_path / "ok.bin"
        save_artifact(ok, "grid", {"n": 1}, {"ab": np.arange(6.0).reshape(2, 3)})
        data = ok.read_bytes()
        shape_at = data.index(struct.pack("<QQ", 2, 3))
        cases = {
            "magic": b"NOPE" + data[4:],
            "version": MAGIC + (9).to_bytes(4, "little") + data[8:],
            "truncated": data[:-5],
            "shape": data[:shape_at] + struct.pack("<QQ", 3, 3) + data[shape_at + 16:],
            "trailing": data + b"\x00",
        }
        for match, mutated in cases.items():
            path = tmp_path / f"{match}.bin"
            path.write_bytes(mutated)
            with pytest.raises(ArtifactFormatError, match=match) as info:
                load_artifact(path)
            assert str(info.value).startswith(f"{path}: "), match


class TestMutatedFiles:
    """Each header field that can lie about the data gives a format error."""

    def _saved(self, tmp_path):
        path = tmp_path / "ok.bin"
        save_artifact(path, "grid", {"n": 1}, {"ab": np.arange(6.0).reshape(2, 3)})
        return path, path.read_bytes()

    def _assert_rejected(self, tmp_path, data, match):
        path = tmp_path / "mutated.bin"
        path.write_bytes(data)
        with pytest.raises(ArtifactFormatError, match=match):
            load_artifact(path)

    def test_shape_that_does_not_fit_the_bytes(self, tmp_path):
        _, data = self._saved(tmp_path)
        shape_at = data.index(struct.pack("<QQ", 2, 3))
        for shape in ((2, 4), (3, 3), (1, 3), (0, 3)):
            mutated = data[:shape_at] + struct.pack("<QQ", *shape) + data[shape_at + 16:]
            self._assert_rejected(tmp_path, mutated, "shape")

    def test_kind_meta_and_name_bytes_not_utf8(self, tmp_path):
        _, data = self._saved(tmp_path)
        for field in (b"grid", b'{"n"', b"ab"):
            at = data.index(field)
            mutated = data[:at] + b"\xff" + data[at + 1:]
            self._assert_rejected(tmp_path, mutated, "UTF-8")

    def test_trailing_bytes(self, tmp_path):
        path, data = self._saved(tmp_path)
        assert load_artifact(path)[0] == "grid"
        for tail in (b"\x00", b"SCFA" + data):
            self._assert_rejected(tmp_path, data + tail, "trailing")


class TestBadGridFiles:
    """A grid or scene file whose fields do not make a valid grid gives an
    ArtifactFormatError naming the file."""

    META = {"origin": [0.0, 0.0, 0.0], "resolution": 0.5, "dims": [2, 1, 1]}

    def _arrays(self):
        feats = np.zeros((2, 1, 1, 3))
        feats[0, 0, 0] = [1.0, -0.0, 2.0]
        return {"features": feats, "visibility": np.array([True, False]).reshape(2, 1, 1)}

    def _assert_rejected(self, tmp_path, kind, meta, arrays, match):
        path = tmp_path / f"bad-{kind}.bin"
        save_artifact(path, kind, meta, arrays)
        loader = load_grid_or_scene if kind == "grid" else load_scene
        with pytest.raises(ArtifactFormatError, match=match) as info:
            loader(path)
        assert str(path) in str(info.value)

    def test_valid_payload_loads(self, tmp_path):
        path = tmp_path / "ok.bin"
        save_artifact(path, "scene", dict(self.META, t=3), self._arrays())
        state = load_scene(path)
        assert state.t == 3
        assert state.grid.features.tobytes() == self._arrays()["features"].tobytes()

    @pytest.mark.parametrize("key", ["origin", "resolution", "dims"])
    def test_missing_meta_field(self, tmp_path, key):
        meta = {k: v for k, v in self.META.items() if k != key}
        self._assert_rejected(tmp_path, "grid", meta, self._arrays(), key)

    def test_missing_visibility(self, tmp_path):
        arrays = self._arrays()
        del arrays["visibility"]
        self._assert_rejected(tmp_path, "grid", self.META, arrays, "visibility")

    def test_missing_scene_step(self, tmp_path):
        self._assert_rejected(tmp_path, "scene", self.META, self._arrays(), "step t")

    def test_bad_dims(self, tmp_path):
        self._assert_rejected(tmp_path, "grid", dict(self.META, dims=[0, 1, 1]),
                              self._arrays(), "dims")
        self._assert_rejected(tmp_path, "grid", dict(self.META, dims=[1, 1, 1]),
                              self._arrays(), "shapes")

    def test_invisible_nonzero_voxel(self, tmp_path):
        arrays = self._arrays()
        arrays["features"][1, 0, 0, 1] = 5.0
        self._assert_rejected(tmp_path, "scene", dict(self.META, t=0), arrays, "exact zero")

    def test_float_visibility(self, tmp_path):
        arrays = self._arrays()
        arrays["visibility"] = arrays["visibility"].astype(np.float64)
        self._assert_rejected(tmp_path, "grid", self.META, arrays, "not bool")

    def test_negative_zero_in_invisible_voxel(self, tmp_path):
        arrays = self._arrays()
        arrays["features"][1, 0, 0, 2] = -0.0
        self._assert_rejected(tmp_path, "grid", self.META, arrays, "exact zero")


class TestTypedArtifacts:
    def test_frame_round_trip_bit_exact(self, sample, tmp_path):
        _, frame, _ = sample
        path = tmp_path / "frame.bin"
        save_frame(frame, path)
        back = load_frame(path)
        np.testing.assert_array_equal(back.positions, frame.positions)
        np.testing.assert_array_equal(back.features, frame.features)
        np.testing.assert_array_equal(back.colors, frame.colors)
        np.testing.assert_array_equal(back.pixel_indices, frame.pixel_indices)
        np.testing.assert_array_equal(back.pose.rotation, frame.pose.rotation)
        assert back.coord_frame == frame.coord_frame

    def test_grid_and_scene_round_trip(self, sample, tmp_path):
        _, _, state = sample
        gpath, spath = tmp_path / "g.bin", tmp_path / "s.bin"
        save_grid(state.grid, gpath)
        grid = load_grid_or_scene(gpath)
        np.testing.assert_array_equal(grid.features, state.grid.features)
        np.testing.assert_array_equal(grid.visibility, state.grid.visibility)
        assert grid.layout.dims == state.layout.dims
        save_scene(state, spath)
        back = load_scene(spath)
        assert back.t == state.t
        np.testing.assert_array_equal(back.grid.features, state.grid.features)

    def test_empty_grid_round_trip(self, tmp_path):
        from scenefusion.voxelizer import GridLayout, VoxelGrid

        layout = GridLayout(np.zeros(3), 0.5, (2, 2, 2))
        grid = VoxelGrid(layout, np.zeros((2, 2, 2, 7)), np.zeros((2, 2, 2), dtype=bool))
        path = tmp_path / "empty.bin"
        save_grid(grid, path)
        back = load_grid_or_scene(path)
        np.testing.assert_array_equal(back.features, grid.features)
        assert back.n_visible == 0

    def test_checkpoint_round_trip_hash_identical(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma"])
        cfg = ModelConfig(vocab_size=len(vocab), h=8, n_layers=1, n_heads=2,
                          ff=16, max_len=32, proj_in=7, proj_mid=4)
        model = AlignmentModel.create(cfg, vocab, seed=5)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert param_hash(back.params) == param_hash(model.params)
        assert back.vocab.words == model.vocab.words
        assert back.cfg == model.cfg

    def test_checkpoint_loss_identical_after_round_trip(self, tmp_path):
        from scenefusion.align.model import loss
        from scenefusion.align.sequence import assemble_sequence

        vocab = build_vocab(["alpha beta gamma delta"])
        cfg = ModelConfig(vocab_size=len(vocab), h=8, n_layers=1, n_heads=2,
                          ff=16, max_len=32, proj_in=7, proj_mid=4)
        model = AlignmentModel.create(cfg, vocab, seed=6)
        seq = assemble_sequence("frame", np.random.default_rng(0).normal(size=(2, 7)),
                                "alpha beta", "gamma", vocab)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert loss(seq, back) == loss(seq, model)  # 0 ulp

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "hidden": 8},
        lambda d: {**d, "h": "wide"},
        lambda d: [d],
    ], ids=["unknown_key", "value_it_cannot_check", "not_an_object"])
    def test_checkpoint_with_bad_model_cfg_rejected(self, tmp_path, edit):
        vocab = build_vocab(["alpha beta"])
        cfg = ModelConfig(vocab_size=len(vocab), h=8, n_layers=1, n_heads=2,
                          ff=16, max_len=32, proj_in=7, proj_mid=4)
        model = AlignmentModel.create(cfg, vocab, seed=5)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, extra_meta={"model_cfg": edit(asdict(cfg))})
        with pytest.raises(ArtifactFormatError, match="model_cfg"):
            load_checkpoint(path)

    def _checkpoint_parts(self):
        vocab = build_vocab(["alpha beta"])
        cfg = ModelConfig(vocab_size=len(vocab), h=8, n_layers=1, n_heads=2,
                          ff=16, max_len=32, proj_in=7, proj_mid=4)
        model = AlignmentModel.create(cfg, vocab, seed=5)
        meta = {"model_cfg": asdict(cfg), "vocab": list(vocab.words),
                "param_order": list(model.params)}
        return meta, dict(model.params)

    @pytest.mark.parametrize("key", ["vocab", "param_order"])
    def test_checkpoint_without_vocab_or_order_rejected(self, tmp_path, key):
        meta, arrays = self._checkpoint_parts()
        del meta[key]
        save_artifact(tmp_path / "ckpt.bin", "checkpoint", meta, arrays)
        with pytest.raises(ArtifactFormatError, match="vocab and param_order"):
            load_checkpoint(tmp_path / "ckpt.bin")

    def test_checkpoint_missing_a_listed_array_rejected(self, tmp_path):
        meta, arrays = self._checkpoint_parts()
        del arrays["lm.head.b"]
        save_artifact(tmp_path / "ckpt.bin", "checkpoint", meta, arrays)
        with pytest.raises(ArtifactFormatError, match="lm.head.b"):
            load_checkpoint(tmp_path / "ckpt.bin")

    @pytest.mark.parametrize("edit", ["rename", "drop", "shape", "dtype"])
    def test_checkpoint_params_must_match_model_cfg(self, tmp_path, edit):
        meta, arrays = self._checkpoint_parts()
        if edit == "rename":
            arrays["lm.head.bias"] = arrays.pop("lm.head.b")
        elif edit == "drop":
            del arrays["lm.head.b"]
        elif edit == "shape":
            arrays["lm.head.b"] = arrays["lm.head.b"][:-1]
        else:
            arrays["lm.head.b"] = arrays["lm.head.b"].astype(np.int64)
        meta["param_order"] = list(arrays)
        save_artifact(tmp_path / "ckpt.bin", "checkpoint", meta, arrays)
        with pytest.raises(ArtifactFormatError, match="lm.head.b"):
            load_checkpoint(tmp_path / "ckpt.bin")

    def test_wrong_kind_rejected(self, sample, tmp_path):
        _, frame, _ = sample
        path = tmp_path / "frame.bin"
        save_frame(frame, path)
        with pytest.raises(ArtifactFormatError, match="expected a grid"):
            load_grid_or_scene(path)
