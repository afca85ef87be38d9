"""CLI surface: subcommand behavior, cross-command consistency, exit codes,
and byte-identical reruns."""

import json

import numpy as np
import pytest

from scenefusion.cli import main
from scenefusion.io_formats import load_artifact, load_grid, save_artifact


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "world.json"
    assert main(["world", "gen", "--out", str(path), "--objects", "4", "--seed", "3"]) == 0
    return path


class TestBasicCommands:
    def test_world_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["world", "gen", "--out", str(a), "--seed", "5"]) == 0
        assert main(["world", "gen", "--out", str(b), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_render_and_frame_build(self, world_file, tmp_path):
        render_out = tmp_path / "render.bin"
        assert main(["render", "--world", str(world_file), "--out", str(render_out)]) == 0
        kind, meta, arrays = load_artifact(render_out)
        assert kind == "render"
        assert arrays["depth"].shape == (32, 32)

        frame_out = tmp_path / "frame.bin"
        assert main(["frame", "build", "--world", str(world_file),
                     "--out", str(frame_out)]) == 0
        kind, meta, arrays = load_artifact(frame_out)
        assert kind == "frame"
        assert arrays["positions"].shape[0] == int(load_artifact(render_out)[2]["validity"].sum())

    def test_voxelize_token_count_matches_tokens_command(self, world_file, tmp_path, capsys):
        frame_out = tmp_path / "frame.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out)])
        grid_out = tmp_path / "grid.bin"
        assert main(["voxelize", "--in", str(frame_out), "--r", "0.25",
                     "--out", str(grid_out)]) == 0
        grid = load_grid(grid_out)
        capsys.readouterr()
        assert main(["tokens", "--in", str(grid_out)]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == grid.n_visible

    def test_scene_init_update_round(self, world_file, tmp_path):
        scene_out = tmp_path / "scene.bin"
        assert main(["scene", "init", "--world", str(world_file), "--out", str(scene_out),
                     "--r", "0.25", "--n-views", "6"]) == 0
        frame_out = tmp_path / "frame.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out),
              "--view", "1", "--n-views", "6"])
        out2 = tmp_path / "scene2.bin"
        assert main(["scene", "update", "--scene", str(scene_out),
                     "--frame", str(frame_out), "--out", str(out2)]) == 0
        from scenefusion.io_formats import load_scene

        assert load_scene(out2).t == 1

    def test_pca_dump(self, world_file, tmp_path):
        frame_out, grid_out = tmp_path / "f.bin", tmp_path / "g.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out)])
        main(["voxelize", "--in", str(frame_out), "--r", "0.25", "--out", str(grid_out)])
        pts = tmp_path / "points.txt"
        assert main(["pca", "dump", "--in", str(grid_out), "--out", str(pts)]) == 0
        lines = pts.read_text().strip().splitlines()
        assert len(lines) == load_grid(grid_out).n_visible
        vals = np.array([[float(x) for x in ln.split()] for ln in lines])
        assert vals.shape[1] == 6
        assert vals[:, 3:].min() >= 0.0 and vals[:, 3:].max() <= 1.0


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_file_error_line(self, capsys, tmp_path):
        rc = main(["tokens", "--in", str(tmp_path / "nope.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_corrupt_artifact_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        rc = main(["tokens", "--in", str(bad)])
        assert rc == 1
        assert "error: ArtifactFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["tokens"], ["pca", "dump"]])
    def test_bad_grid_payload_reports_the_grid_error(self, tmp_path, capsys, command):
        feats = np.zeros((2, 1, 1, 4))
        feats[1, 0, 0, 0] = 1.0  # a nonzero invisible voxel
        bad = tmp_path / "bad-grid.bin"
        save_artifact(bad, "grid", {"origin": [0.0, 0.0, 0.0], "resolution": 0.5,
                                    "dims": [2, 1, 1]},
                      {"features": feats, "visibility": np.array([True, False]).reshape(2, 1, 1)})
        assert main(command + ["--in", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ArtifactFormatError: {bad}: bad grid")
        assert "invisible voxels must store exact zero features" in err

    @pytest.mark.parametrize("command", [["tokens"], ["pca", "dump"]])
    def test_truncated_grid_error_names_the_file(self, world_file, tmp_path, capsys, command):
        frame_out, grid_out = tmp_path / "f.bin", tmp_path / "g.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out)])
        main(["voxelize", "--in", str(frame_out), "--r", "0.25", "--out", str(grid_out)])
        data = grid_out.read_bytes()
        grid_out.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert main(command + ["--in", str(grid_out), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: ArtifactFormatError: {grid_out}: "
            "truncated artifact file while reading array 'features' data\n")

    def test_wrong_kind_names_grid_and_scene(self, world_file, tmp_path, capsys):
        frame_out = tmp_path / "f.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out)])
        capsys.readouterr()
        assert main(["tokens", "--in", str(frame_out)]) == 1
        assert "expected a grid or scene artifact, got 'frame'" in capsys.readouterr().err


class TestEpisodeCommand:
    def test_oracle_episode_transcript(self, world_file, tmp_path):
        out = tmp_path / "transcript.json"
        rc = main(["episode", "run", "--world", str(world_file), "--out", str(out),
                   "--planner", "oracle", "--r", "0.25", "--n-views", "4"])
        assert rc == 0
        transcript = json.loads(out.read_text())
        assert transcript["kind"] == "transcript"
        assert transcript["outcome"] == "success"
        assert transcript["steps"][-1]["action"] == "done"
        for step in transcript["steps"]:
            assert set(step) == {"step", "frame_ref", "description", "prompt_hash",
                                 "action", "accepted", "reason"}

    def test_episode_frames_dir(self, world_file, tmp_path):
        out = tmp_path / "t.json"
        fdir = tmp_path / "frames"
        rc = main(["episode", "run", "--world", str(world_file), "--out", str(out),
                   "--planner", "oracle", "--r", "0.25", "--n-views", "4",
                   "--frames-dir", str(fdir)])
        assert rc == 0
        transcript = json.loads(out.read_text())
        from scenefusion.io_formats import load_frame

        for step in transcript["steps"]:
            assert step["frame_ref"] is not None
            load_frame(step["frame_ref"])  # must parse


class TestAblate:
    def test_resolution_sweep_monotone_tokens(self, world_file, tmp_path, capsys):
        rc = main(["ablate", "resolution", "--world", str(world_file),
                   "--values", "0.36,0.18,0.09", "--n-views", "6"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        rows = report["rows"]
        assert [r["resolution"] for r in rows] == [0.36, 0.18, 0.09]
        counts = [r["tokens"] for r in rows]
        assert counts[0] <= counts[1] <= counts[2]

    def test_resolution_sweep_rejects_falling_token_counts(self, world_file, monkeypatch,
                                                           capsys):
        import scenefusion.cli as cli

        real = cli.scene_from_world
        # a stand-in scene builder whose finer grid sees fewer voxels
        monkeypatch.setattr(cli, "scene_from_world", lambda world, r, cfg, **kw:
                            real(world, 0.5 if r < 0.3 else 0.2, cfg, **kw))
        rc = main(["ablate", "resolution", "--world", str(world_file),
                   "--values", "0.36,0.18", "--n-views", "6"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SceneFusionError: token counts not non-decreasing "
                              "as resolution shrinks: [")

    def test_views_sweep(self, world_file, capsys):
        rc = main(["ablate", "views", "--world", str(world_file),
                   "--values", "2,6", "--r", "0.25"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert [r["n_views"] for r in report["rows"]] == [2, 6]


class TestDatagenTrainEval:
    def test_small_end_to_end(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        rc = main(["datagen", "--out", str(data_dir), "--worlds", "2", "--objects", "3",
                   "--per-kind", "2", "--heldout", "2", "--n-views", "4",
                   "--frame-views", "1"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["n_scene_records"] > 0
        assert (data_dir / "records.jsonl").exists()

        ckpt = tmp_path / "ckpt1.bin"
        rc = main(["train", "--data", str(data_dir), "--stage", "1", "--out", str(ckpt),
                   "--steps", "5", "--batch", "2", "--h", "16", "--h-mid", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["steps"] == 5

        ckpt2 = tmp_path / "ckpt2.bin"
        rc = main(["train", "--data", str(data_dir), "--stage", "2", "--out", str(ckpt2),
                   "--init", str(ckpt), "--steps", "5", "--batch", "2"])
        assert rc == 0
        capsys.readouterr()

        rc = main(["eval", "qa", "--checkpoint", str(ckpt2), "--data", str(data_dir),
                   "--split", "heldout"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["total"] == 2
        assert 0.0 <= report["exact_match"] <= 1.0

    @pytest.mark.parametrize("flags", [["--steps", "-3"], ["--warmup", "-5"], ["--lr", "nan"]])
    def test_train_rejects_bad_schedule_flags(self, tmp_path, capsys, flags):
        data_dir = tmp_path / "data"
        assert main(["datagen", "--out", str(data_dir), "--worlds", "1", "--objects", "3",
                     "--per-kind", "2", "--heldout", "1", "--n-views", "4",
                     "--frame-views", "1"]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "ckpt.bin"
        rc = main(["train", "--data", str(data_dir), "--stage", "1", "--out", str(ckpt),
                   "--batch", "2", "--h", "16", "--h-mid", "8", *flags])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ConfigError: ")
        assert not ckpt.exists()
