"""Dataset pipeline: aligned records, vocabulary coverage, and dataset
directory reconstruction."""

import hashlib
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from oracles import quadratic_split_heldout
from scenefusion import datagen
from scenefusion.align.sequence import SEQ_KIND_FRAME, SEQ_KIND_SCENE
from scenefusion.config import config_from_dict
from scenefusion.errors import ArtifactFormatError, ConfigError
from scenefusion.datagen import (
    AlignedRecord,
    DatagenConfig,
    _split_heldout,
    build_dataset_dir,
    corpus_vocab,
    frame_caption,
    frame_tokens,
    load_dataset_dir,
    record_sequence,
    scene_from_world,
    world_records,
)
from scenefusion.frame import CAMERA_FRAME, Frame3D
from scenefusion.geometry import Pose
from scenefusion.voxelizer import VoxelClusterConfig
from scenefusion.worldsim import WorldConfig, capture_views, gen_world, render


class TestWorldRecords:
    def test_frame_records_come_in_both_coordinate_frames(self):
        w = gen_world(WorldConfig(n_objects=3), seed=1)
        recs = world_records(w, DatagenConfig(n_frame_views=2))
        captions = [r for r in recs
                    if r.kind == SEQ_KIND_FRAME and r.record_kind == "frame_caption"]
        assert len(captions) % 2 == 0 and captions
        # each view contributes a camera-frame and a world-frame variant with
        # the same caption text but different token geometry
        for a, b in zip(captions[::2], captions[1::2]):
            assert a.answer == b.answer
            assert a.visual.shape[1] == b.visual.shape[1]
            assert not np.array_equal(a.visual, b.visual)

    def test_frame_qa_answers_grounded_in_view(self):
        w = gen_world(WorldConfig(n_objects=4), seed=7)
        recs = world_records(w, DatagenConfig(n_frame_views=2))
        qa = [r for r in recs if r.kind == SEQ_KIND_FRAME and r.record_kind != "frame_caption"]
        assert qa
        # recompute the view contents independently per record batch
        views = capture_views(w, 2, seed=1)
        visible_by_view = []
        for iv, pv in views:
            rr = render(w, iv, pv)
            ids = [int(i) for i in np.unique(rr.object_ids) if i >= 0]
            visible_by_view.append({w.object_by_id(i).category for i in ids})
        for r in qa:
            if r.record_kind != "qa_existence":
                continue
            cat = r.instruction.split(" a ")[1].split(" in")[0]
            # the category's presence in at least one view must match somewhere
            assert r.answer in ("yes", "no")
            if r.answer == "yes":
                assert any(cat in s for s in visible_by_view)

    def test_canonical_scene_records_share_scene_tokens(self):
        w = gen_world(WorldConfig(n_objects=3), seed=2)
        recs = world_records(w, DatagenConfig())
        scene = [r for r in recs if r.group == "scene"]
        assert scene
        first = scene[0].visual
        for r in scene[1:]:
            assert r.visual is first or np.array_equal(r.visual, first)
        # the subset/variant groups exist and carry their own token sets
        groups = {r.group for r in recs}
        assert {"frame", "scene_subset", "scene_variant", "scene"} <= groups

    def test_frame_caption_lists_visible_objects(self):
        w = gen_world(WorldConfig(n_objects=4), seed=3)
        intr, pose = capture_views(w, 1, seed=0)[0]
        rr = render(w, intr, pose)
        caption = frame_caption(w, rr)
        visible = sorted(int(i) for i in np.unique(rr.object_ids) if i >= 0)
        for oid in visible:
            assert w.object_by_id(oid).ref in caption

    def test_sequences_tokenize_under_corpus_vocab(self):
        w = gen_world(WorldConfig(n_objects=4), seed=4)
        recs = world_records(w, DatagenConfig())
        vocab = corpus_vocab(recs, w)
        for r in recs:
            seq = record_sequence(r, vocab)  # must not raise
            assert len(seq) >= 3


class TestDatasetDir:
    def test_build_and_reload(self, tmp_path):
        cfg = DatagenConfig(per_kind=3, n_views=4, n_frame_views=1, seed=2)
        summary = build_dataset_dir(tmp_path, 3, WorldConfig(n_objects=3), cfg, n_heldout=4)
        assert summary["n_scene_records"] > 0
        bundle = load_dataset_dir(tmp_path)
        assert len(bundle.worlds) == 3
        assert len(bundle.heldout_records) == summary["n_heldout"]
        assert bundle.frame_records
        # held-out answers covered by training answers, word by word
        train_answers = set()
        for r in bundle.train_records:
            train_answers.update(r.answer.split())
        for r in bundle.heldout_records:
            assert set(r.answer.split()) <= train_answers

    def test_reload_is_deterministic(self, tmp_path):
        cfg = DatagenConfig(per_kind=2, n_views=4, n_frame_views=1, seed=5)
        build_dataset_dir(tmp_path, 2, WorldConfig(n_objects=3), cfg, n_heldout=2)
        b1 = load_dataset_dir(tmp_path)
        b2 = load_dataset_dir(tmp_path)
        assert b1.vocab.words == b2.vocab.words
        for r1, r2 in zip(b1.train_records, b2.train_records):
            assert r1.instruction == r2.instruction
            np.testing.assert_array_equal(r1.visual, r2.visual)


class TestDatagenConfigRoundTrip:
    def test_dataset_reloads_with_the_config_it_was_built_with(self, tmp_path):
        cfg = DatagenConfig(per_kind=2, n_views=2, n_frame_views=1, scene_subset_sizes=(1,),
                            scene_variants=0, variant_qa_existence=2, variant_qa_counting=1,
                            kinds=("qa_existence", "qa_counting"), resolution=0.4, seed=3)
        build_dataset_dir(tmp_path, 1, WorldConfig(n_objects=2), cfg, n_heldout=1)
        assert load_dataset_dir(tmp_path).datagen == cfg

    def test_json_round_trip_of_every_field(self):
        cfg = DatagenConfig(kinds=("qa_counting",), scene_subset_sizes=(2, 3), scene_variants=1,
                            variant_qa_existence=0, frame_qa_counting=5, knn_k=4, seed=9)
        assert config_from_dict(DatagenConfig, json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_missing_keys_keep_defaults(self):
        d = asdict(DatagenConfig(seed=4))
        for key in ("scene_variants", "variant_qa_existence", "variant_qa_counting"):
            del d[key]
        assert config_from_dict(DatagenConfig, d) == DatagenConfig(seed=4)

    def test_unknown_key_raises(self):
        d = asdict(DatagenConfig())
        d["scene_variant"] = 0
        with pytest.raises(ConfigError, match="scene_variant"):
            config_from_dict(DatagenConfig, d)


class TestFrameTokens:
    def test_camera_frame_whose_minimum_sits_on_the_lattice(self):
        # fl(floor(-0.9 / 0.18) * 0.18) > -0.9: a layout snapped that way
        # would leave the frame's own minimum point outside the grid
        rng = np.random.default_rng(4)
        positions = rng.uniform(-0.9, 0.7, size=(60, 3)) + [0.0, 0.0, 1.5]
        positions[7, 0] = -0.9
        frame = Frame3D(positions, np.zeros((60, 3)), rng.normal(size=(60, 4)),
                        Pose.identity(), CAMERA_FRAME, np.arange(60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tokens = frame_tokens(frame, 0.18, VoxelClusterConfig(k=3))
        assert tokens.shape[1] == 7 and len(tokens) > 0


class TestSceneFromWorld:
    def test_tokens_nonempty_and_layout_reasonable(self):
        w = gen_world(WorldConfig(n_objects=4), seed=6)
        state, frames = scene_from_world(w, 0.25, VoxelClusterConfig(k=5), n_views=6, seed=0)
        assert state.grid.n_visible > 0
        assert len(frames) == 6
        assert state.t == 0


def _counting(monkeypatch, name):
    """Count the calls datagen makes to its module-level `name`."""
    calls = []
    fn = getattr(datagen, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(datagen, name, counted)
    return calls


class TestRenderOnce:
    def test_world_records_renders_each_view_once(self, monkeypatch):
        w = gen_world(WorldConfig(), seed=11)
        renders = _counting(monkeypatch, "render")
        world_records(w, DatagenConfig())
        # 3 frame-caption views + 6 scene views + 3 variants x 6 views
        assert len(renders) == 27

    def test_load_reuses_the_full_scene_of_world_records(self, monkeypatch, tmp_path):
        build_dataset_dir(tmp_path, 2, WorldConfig(n_objects=3), DatagenConfig(), n_heldout=4)
        rebuilt = _counting(monkeypatch, "scene_from_world")
        scenes = _counting(monkeypatch, "init_scene")
        renders = _counting(monkeypatch, "render")
        load_dataset_dir(tmp_path)
        assert len(rebuilt) == 0
        # 3 view subsets + 3 variants + the full scene, per world
        assert len(scenes) == 2 * 7
        assert len(renders) == 2 * 27


def _bundle_digest(bundle) -> str:
    h = hashlib.sha256()
    for r in bundle.frame_records + bundle.train_records + bundle.heldout_records:
        for text in (r.group, r.kind, r.record_kind, r.scene_ref, r.instruction, r.answer):
            h.update(text.encode() + b"\0")
        h.update(repr(r.visual.shape).encode() + r.visual.tobytes())
    h.update("\0".join(bundle.vocab.words).encode())
    return h.hexdigest()


class TestGoldenDataset:
    def test_reload_matches_pinned_digest(self, tmp_path):
        """Records (text and token bytes) and vocab of a 2-world dataset, as
        the generator produced them before its scene path was consolidated."""
        build_dataset_dir(tmp_path, 2, WorldConfig(n_objects=4), DatagenConfig(seed=1),
                          n_heldout=6)
        bundle = load_dataset_dir(tmp_path)
        assert (len(bundle.frame_records), len(bundle.train_records),
                len(bundle.heldout_records), len(bundle.vocab)) == (222, 37, 6, 124)
        assert _bundle_digest(bundle) == \
            "b4c7766913ef795e297931039c244ef23669930b22e93aff8a71c2ff4ee360f8"


class TestSplitHeldout:
    KINDS = ("qa_existence", "qa_negation", "qa_counting", "qa_spatial")
    WORDS = ("yes", "no", "0", "1", "2", "red", "cup", "left")

    def _records(self, rng, n):
        out = []
        for _ in range(n):
            # 0-3 words drawn with repeats from a small pool, so answers
            # repeat, share words, and sometimes hold a word twice
            words = rng.choice(self.WORDS, size=int(rng.integers(0, 4)))
            answer = " ".join(w.upper() if rng.random() < 0.2 else w for w in words)
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            out.append(AlignedRecord(SEQ_KIND_SCENE, "world-0", kind, "q", answer,
                                     np.zeros((0, 4))))
        return out

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(20)
        n_heldout_total = 0
        for trial in range(300):
            records = self._records(rng, int(rng.integers(0, 40)))
            n_heldout = int(rng.integers(0, 25))
            expected = quadratic_split_heldout(records, n_heldout, seed=trial)
            got = _split_heldout(records, n_heldout, seed=trial)
            assert got == [expected[i] for i in range(len(records))]
            n_heldout_total += got.count("heldout")
        assert n_heldout_total > 300  # the trials do hold records out

    def test_word_held_out_only_while_another_record_keeps_it(self):
        recs = [AlignedRecord(SEQ_KIND_SCENE, "world-0", "qa_counting", "q", a, np.zeros((0, 4)))
                for a in ("2", "2", "2 red")]
        # "red" has no other record, so "2 red" stays and keeps "2" in training
        for seed in range(6):
            assert _split_heldout(recs, 3, seed) == ["heldout", "heldout", "train"]


class TestRecordsFile:
    """Each malformed records.jsonl line fails with the line number."""

    def _dataset(self, tmp_path):
        cfg = DatagenConfig(per_kind=2, n_views=2, n_frame_views=1, scene_subset_sizes=(1,),
                            scene_variants=0, seed=3)
        build_dataset_dir(tmp_path, 1, WorldConfig(n_objects=3), cfg, n_heldout=1)
        path = tmp_path / "records.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        return path, lines

    def _assert_line_2_rejected(self, tmp_path, edit, match):
        path, lines = self._dataset(tmp_path)
        lines[1] = edit(lines[1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactFormatError, match=f"line 2: {match}"):
            load_dataset_dir(tmp_path)

    def _edit_json(self, **changes):
        def edit(line):
            d = json.loads(line)
            d.update(changes)
            return json.dumps({k: v for k, v in d.items() if v is not None})
        return edit

    def test_missing_key(self, tmp_path):
        self._assert_line_2_rejected(tmp_path, self._edit_json(answer=None), "missing")

    def test_unknown_scene_ref(self, tmp_path):
        self._assert_line_2_rejected(tmp_path, self._edit_json(scene_ref="world-99"),
                                     "unknown scene_ref 'world-99'")

    def test_bad_split(self, tmp_path):
        self._assert_line_2_rejected(tmp_path, self._edit_json(split="test"), "split")

    def test_invalid_json(self, tmp_path):
        self._assert_line_2_rejected(tmp_path, lambda line: line[:-3], "invalid JSON")

    def test_bytes_not_utf8(self, tmp_path):
        path, lines = self._dataset(tmp_path)
        data = "\n".join(lines).encode("utf-8") + b"\n"
        at = data.index(b"\n") + 2  # inside line 2
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(ArtifactFormatError, match="line 2: invalid JSON"):
            load_dataset_dir(tmp_path)


class TestDatasetJsonFiles:
    """A truncated or incomplete meta.json or world file fails with a format
    error that names the file."""

    def _dataset(self, tmp_path):
        cfg = DatagenConfig(per_kind=1, n_views=2, n_frame_views=1, scene_subset_sizes=(1,),
                            scene_variants=0, seed=3)
        build_dataset_dir(tmp_path, 1, WorldConfig(n_objects=2), cfg, n_heldout=1)
        (world,) = sorted((tmp_path / "worlds").iterdir())
        return tmp_path / "meta.json", world

    def _truncate(self, path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def test_truncated_meta(self, tmp_path):
        meta, _ = self._dataset(tmp_path)
        self._truncate(meta)
        with pytest.raises(ArtifactFormatError, match="meta.json"):
            load_dataset_dir(tmp_path)

    def test_truncated_world(self, tmp_path):
        _, world = self._dataset(tmp_path)
        self._truncate(world)
        with pytest.raises(ArtifactFormatError, match=world.name):
            load_dataset_dir(tmp_path)

    def test_world_missing_a_key(self, tmp_path):
        _, world = self._dataset(tmp_path)
        d = json.loads(world.read_text(encoding="utf-8"))
        del d["objects"][0]["size"]
        world.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ArtifactFormatError, match=f"{world.name}.*size"):
            load_dataset_dir(tmp_path)

    def test_no_world_file(self, tmp_path):
        _, world = self._dataset(tmp_path)
        world.unlink()
        with pytest.raises(ArtifactFormatError, match=f"{tmp_path / 'worlds'}: no world files"):
            load_dataset_dir(tmp_path)

    def test_negative_per_kind_in_meta(self, tmp_path):
        meta, _ = self._dataset(tmp_path)
        d = json.loads(meta.read_text(encoding="utf-8"))
        d["datagen_cfg"]["per_kind"] = -1
        meta.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ArtifactFormatError, match="meta.json.*per_kind must be >= 0"):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("n_worlds", [0, -1, "1", 1.0, True, None])
    def test_bad_n_worlds_in_meta(self, tmp_path, n_worlds):
        meta, _ = self._dataset(tmp_path)
        d = json.loads(meta.read_text(encoding="utf-8"))
        d["n_worlds"] = n_worlds
        meta.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ArtifactFormatError, match="meta.json.*n_worlds must be a positive int"):
            load_dataset_dir(tmp_path)

    def test_world_files_left_by_a_larger_build(self, tmp_path):
        """A 2-world build over a 3-world dataset leaves world-2.json behind:
        loading names the directory and both counts instead of training on
        the stale world's records. A fresh 2-world build still loads."""
        cfg = DatagenConfig(per_kind=1, n_views=2, n_frame_views=1, scene_subset_sizes=(1,),
                            scene_variants=0, seed=0)
        for out, n in ((tmp_path / "rebuilt", 3), (tmp_path / "rebuilt", 2),
                       (tmp_path / "fresh", 2)):
            build_dataset_dir(out, n, WorldConfig(n_objects=2), cfg, n_heldout=1)
        assert len(list((tmp_path / "rebuilt" / "worlds").iterdir())) == 3
        with pytest.raises(ArtifactFormatError,
                           match=f"{tmp_path / 'rebuilt' / 'worlds'}: 3 world files, "
                                 "but meta.json records n_worlds=2"):
            load_dataset_dir(tmp_path / "rebuilt")
        assert len(load_dataset_dir(tmp_path / "fresh").worlds) == 2


class TestDatasetCounts:
    """Counts that would silently write an empty or partial dataset are a
    ConfigError, raised before anything is written."""

    @pytest.mark.parametrize("n_worlds, n_heldout, message", [
        (0, 1, "a dataset needs at least 1 world, got 0"),
        (-2, 1, "a dataset needs at least 1 world, got -2"),
        (1, -1, "n_heldout must be >= 0, got -1"),
    ])
    def test_build_rejects(self, tmp_path, n_worlds, n_heldout, message):
        out = tmp_path / "data"
        with pytest.raises(ConfigError, match=message):
            build_dataset_dir(out, n_worlds, WorldConfig(n_objects=2), DatagenConfig(),
                              n_heldout=n_heldout)
        assert not out.exists()

    def test_negative_per_kind(self):
        with pytest.raises(ConfigError, match="per_kind must be >= 0, got -1"):
            DatagenConfig(per_kind=-1)
