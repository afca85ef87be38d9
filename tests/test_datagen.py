"""Dataset pipeline: aligned records, vocabulary coverage, and dataset
directory reconstruction."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from scenefusion.align.sequence import SEQ_KIND_FRAME
from scenefusion.errors import ConfigError
from scenefusion.datagen import (
    DatagenConfig,
    build_dataset_dir,
    corpus_vocab,
    frame_caption,
    load_dataset_dir,
    record_sequence,
    scene_from_world,
    world_records,
)
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
        assert DatagenConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_missing_keys_keep_defaults(self):
        d = asdict(DatagenConfig(seed=4))
        for key in ("scene_variants", "variant_qa_existence", "variant_qa_counting"):
            del d[key]
        assert DatagenConfig.from_dict(d) == DatagenConfig(seed=4)

    def test_unknown_key_raises(self):
        d = asdict(DatagenConfig())
        d["scene_variant"] = 0
        with pytest.raises(ConfigError, match="scene_variant"):
            DatagenConfig.from_dict(d)


class TestSceneFromWorld:
    def test_tokens_nonempty_and_layout_reasonable(self):
        w = gen_world(WorldConfig(n_objects=4), seed=6)
        state, frames = scene_from_world(w, 0.25, VoxelClusterConfig(k=5), n_views=6, seed=0)
        assert state.grid.n_visible > 0
        assert len(frames) == 6
        assert state.t == 0
