"""CLI surface: subcommand behavior, cross-command consistency, exit codes,
and byte-identical reruns."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from scenefusion.cli import build_parser, main
from scenefusion.io_formats import load_artifact, load_grid_or_scene, save_artifact


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

    @pytest.mark.parametrize("room", [["0", "0", "0"], ["nan", "3", "2"], ["3", "3", "-1"]])
    def test_world_gen_rejects_degenerate_rooms(self, tmp_path, capsys, room):
        out = tmp_path / "world.json"
        assert main(["world", "gen", "--out", str(out), "--room", *room]) == 1
        assert capsys.readouterr().err.startswith("error: ConfigError: room size (")
        assert not out.exists()

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
        grid = load_grid_or_scene(grid_out)
        capsys.readouterr()
        assert main(["tokens", "--in", str(grid_out)]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == grid.n_visible

    def test_scene_init_update_round(self, world_file, tmp_path, capsys):
        scene_out = tmp_path / "scene.bin"
        assert main(["scene", "init", "--world", str(world_file), "--out", str(scene_out),
                     "--r", "0.25", "--n-views", "6"]) == 0
        frame_out = tmp_path / "frame.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out),
              "--view", "1", "--n-views", "6"])
        out2 = tmp_path / "scene2.bin"
        capsys.readouterr()
        assert main(["scene", "update", "--scene", str(scene_out),
                     "--frame", str(frame_out), "--out", str(out2)]) == 0
        from scenefusion.io_formats import load_scene

        before, after = load_scene(scene_out), load_scene(out2)
        assert after.t == 1
        # the printed count is the dense voxel-by-voxel compare of both grids
        dense = int(np.sum(np.any(after.grid.features != before.grid.features, axis=-1)))
        assert f", {dense} voxels changed -> " in capsys.readouterr().out

    def test_pca_dump(self, world_file, tmp_path):
        frame_out, grid_out = tmp_path / "f.bin", tmp_path / "g.bin"
        main(["frame", "build", "--world", str(world_file), "--out", str(frame_out)])
        main(["voxelize", "--in", str(frame_out), "--r", "0.25", "--out", str(grid_out)])
        pts = tmp_path / "points.txt"
        assert main(["pca", "dump", "--in", str(grid_out), "--out", str(pts)]) == 0
        lines = pts.read_text().strip().splitlines()
        assert len(lines) == load_grid_or_scene(grid_out).n_visible
        vals = np.array([[float(x) for x in ln.split()] for ln in lines])
        assert vals.shape[1] == 6
        assert vals[:, 3:].min() >= 0.0 and vals[:, 3:].max() <= 1.0


def _command_paths(parser, path=()):
    """Every command path the parser accepts, depth first: () for the top
    level, then ("world",), ("world", "gen"), ..."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, path + (name,))


class TestExitCodes:
    @pytest.mark.parametrize("path", list(_command_paths(build_parser())),
                             ids=lambda path: "-".join(path) or "top")
    def test_help_exits_0_with_usage(self, capsys, path):
        # builds every parser and formats its help, so a bad default or help
        # string fails here
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: scenefusion")

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

    def test_dataset_without_worlds_is_an_error_line(self, tmp_path, capsys):
        data_dir, ckpt = tmp_path / "data", tmp_path / "ckpt.bin"
        assert main(["datagen", "--out", str(data_dir), "--worlds", "1", "--objects", "3",
                     "--per-kind", "2", "--heldout", "1", "--n-views", "4",
                     "--frame-views", "1"]) == 0
        assert main(["train", "--data", str(data_dir), "--stage", "1", "--out", str(ckpt),
                     "--steps", "0", "--h", "8", "--h-mid", "4"]) == 0
        for world in (data_dir / "worlds").iterdir():
            world.unlink()
        capsys.readouterr()
        for argv in (["train", "--data", str(data_dir), "--stage", "1",
                      "--out", str(tmp_path / "c2.bin")],
                     ["eval", "qa", "--checkpoint", str(ckpt), "--data", str(data_dir)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: ArtifactFormatError: {data_dir / 'worlds'}: "
                "no world files; a dataset needs at least 1 world\n")
        assert not (tmp_path / "c2.bin").exists()

    @pytest.mark.parametrize("flags", [["--steps", "-3"], ["--warmup", "-5"], ["--lr", "nan"],
                                       ["--heads", "0"]])
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


class TestFlagValidation:
    @pytest.mark.parametrize("argv, code", [
        (["ablate", "resolution", "--world", "{world}", "--values", "0.3,abc"], 1),
        (["ablate", "views", "--world", "{world}", "--values", ""], 1),
        (["render", "--world", "{world}", "--out", "{out}", "--view", "-1"], 2),
        (["frame", "build", "--world", "{world}", "--out", "{out}", "--view", "-1"], 2),
        (["eval", "qa", "--checkpoint", "{out}", "--data", "{out}", "--limit", "-2"], 2),
        (["episode", "run", "--world", "{world}", "--out", "{out}", "--planner", "oracle",
          "--budget", "-2"], 2),
        (["episode", "run", "--world", "{world}", "--out", "{out}", "--planner", "oracle",
          "--disturb-swap", "0", "1", "--disturb-after", "-1"], 2),
        (["datagen", "--out", "{out}", "--worlds", "1", "--per-kind", "-1"], 2),
        (["datagen", "--out", "{out}", "--worlds", "1", "--heldout", "-1"], 2),
    ])
    def test_bad_values_fail_cleanly(self, world_file, tmp_path, capsys, argv, code):
        # unparsable sweep values are a ConfigError (exit 1), negative counts
        # and indices a usage error (exit 2); neither writes an output
        out = tmp_path / "out"
        argv = [a.format(world=world_file, out=out) for a in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith("error: ConfigError: --values") if code == 1 else "usage:" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["ablate", "resolution", "--world", "{world}", "--values", "nan"],
         "resolution must be finite and positive, got nan"),
        (["ablate", "resolution", "--world", "{world}", "--values", "0.3,-inf"],
         "resolution must be finite and positive, got -inf"),
        (["scene", "init", "--world", "{world}", "--out", "{out}", "--r", "inf"],
         "resolution must be finite and positive, got inf"),
        (["episode", "run", "--world", "{world}", "--out", "{out}", "--planner", "oracle",
          "--disturb-swap", "0", "9"], "disturbance names object ids [9] the world lacks"),
        # finite but so fine that flat voxel indices would overflow int64
        (["scene", "init", "--world", "{world}", "--out", "{out}", "--r", "1e-300"],
         "resolution 1e-300 gives a "),
        (["ablate", "resolution", "--world", "{world}", "--values", "1e-9"],
         "resolution 1e-09 gives a "),
        # subnormal: the origin's division overflows
        (["scene", "init", "--world", "{world}", "--out", "{out}", "--r", "5e-324"],
         "grid origin must be finite, got [inf, inf, inf] at resolution 5e-324"),
        # int64 indices fit, but the saved dense features array could not exist
        (["scene", "init", "--world", "{world}", "--out", "{out}", "--r", "1e-6"],
         "resolution 1e-06 gives a (2640640, 1621468, 299638) grid, too many voxels"),
        # a dataset with no world
        (["datagen", "--out", "{out}", "--worlds", "0"],
         "a dataset needs at least 1 world, got 0"),
        # a rejected datagen config writes no world file
        (["datagen", "--out", "{out}", "--worlds", "1", "--n-views", "0"],
         "n_views must be >= 1, got 0"),
        (["datagen", "--out", "{out}", "--worlds", "1", "--frame-views", "-1"],
         "n_frame_views must be >= 1, got -1"),
        (["datagen", "--out", "{out}", "--worlds", "1", "--k", "0"],
         "k must be >= 1, got 0"),
        (["datagen", "--out", "{out}", "--worlds", "1", "--r", "0"],
         "resolution must be finite and positive, got 0.0"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_resolution_or_object_id_is_an_error_line(self, world_file, tmp_path, capsys,
                                                          argv, message):
        out = tmp_path / "out"
        rc = main([a.format(world=world_file, out=out) for a in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ConfigError: ")
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()


# The CLI chain short of training, run in an empty directory, with the
# sha256 of each file it writes and of its joined stdout. Refactors must keep
# every one of these bytes; a change that alters an output on purpose re-pins
# the digests it moves and says why.
BYTE_CHAIN = [
    ["world", "gen", "--out", "world.json", "--objects", "4", "--seed", "3"],
    ["render", "--world", "world.json", "--out", "render.bin", "--view", "2"],
    ["frame", "build", "--world", "world.json", "--out", "frame.bin"],
    ["frame", "build", "--world", "world.json", "--out", "frame1.bin", "--view", "1",
     "--n-views", "6"],
    ["frame", "build", "--world", "world.json", "--out", "camera.bin", "--coord", "camera"],
    ["voxelize", "--in", "frame.bin", "--r", "0.25", "--out", "grid.bin"],
    ["tokens", "--in", "grid.bin", "--out", "tokens.bin"],
    ["scene", "init", "--world", "world.json", "--out", "scene.bin", "--r", "0.25",
     "--n-views", "6"],
    ["scene", "update", "--scene", "scene.bin", "--frame", "frame1.bin", "--out", "scene1.bin"],
    ["tokens", "--in", "scene1.bin", "--out", "scene-tokens.bin"],
    ["pca", "dump", "--in", "scene1.bin", "--out", "pca.txt"],
    ["datagen", "--out", "data", "--worlds", "2", "--objects", "3", "--per-kind", "2",
     "--heldout", "2", "--n-views", "4", "--frame-views", "1"],
    ["episode", "run", "--world", "world.json", "--out", "oracle.json", "--planner", "oracle",
     "--r", "0.25", "--n-views", "4", "--frames-dir", "frames"],
    ["episode", "run", "--world", "world.json", "--out", "belief.json", "--planner", "belief",
     "--r", "0.25", "--n-views", "4", "--disturb-swap", "0", "1", "--disturb-after", "1"],
    ["ablate", "views", "--world", "world.json", "--values", "2,6", "--r", "0.25",
     "--out", "ablate.json"],
]
BYTE_CHAIN_STDOUT = "287a2b61d8d1b95675b966154381003adff3d989304febb1498a2c0b52a88f61"
BYTE_CHAIN_FILES = {
    "ablate.json": "67bc70f92ff0c861675a827dfdbf08f031062a7bbac3ba011610592d6e1b9f8f",
    "belief.json": "0ddde619906d575f87eae4660f80d2c001ca0cdfcf71bacf3eb0f8916d55efbe",
    "camera.bin": "11706ce38cbecccd00284de6864f6af02b2574fd2bf1766f4dd3745757456261",
    "data/meta.json": "3a476c307b345f17d8002e56d5462bdd3904e2616bc181afe4961ae4beea3c39",
    "data/records.jsonl": "04eaf2dbc61d5ba0fc9301a1c4a41190f11b551259a20765367a6d7aa9292b37",
    "data/worlds/world-0.json": "393d949a44a87e1a3dcd05a52708f168340f6421621680ca7bfd12cf8037bde3",
    "data/worlds/world-1.json": "f47b41572f72892401b0d6ca0e2fd7fb83fc79d32f1758c7525c739141d38ab0",
    "frame.bin": "37b2c45d7fbb303f3108941a4fa7ec7ede03701b79340f0878bad2a194954634",
    "frame1.bin": "561bc9449a7fc559e0d243fa6b2eb896b8ee3206d4d80fa0ce7d92a7c67493bc",
    "frames/frame-000.bin": "412b80ce0d0f5e97cac58ad1d765c892d45bc1933bf7e0e321055d750ad901ee",
    "frames/frame-001.bin": "7458bba6816737b340451254d2431384e3f0ee06c0e0f274e03d7add7e53242a",
    "frames/frame-002.bin": "015b9982fe68022d80d6e1cf12675fc4bf8a6996f2f27fbc5a386fbcc6f83fd4",
    "frames/frame-003.bin": "284b5f9033299639a2a99fc56207a03f206627bca5f149786b986e01fe48f990",
    "frames/frame-004.bin": "75f27834391b57eb56117df88eca2aec7721694849f1b263ea5ff8eb1364c6a7",
    "grid.bin": "9370d641ebf59788a3cc89c707f88330b0c1423a2c839377608cc4b855d613d9",
    "oracle.json": "ec822bd751c2ddcad2df06828e532858c7fdc63bc21007c6520705849bdf108c",
    "pca.txt": "badc2ed98e23f2d1f44a8551e9ad6d114a4452adc3b865d62d7ddb630c8637fd",
    "render.bin": "419ba5566bd602d1eea08b454f6645725df9f12a3c7fda3f89ee0c35795d30be",
    "scene-tokens.bin": "e3bbb9827ea5879c5702122a74a3b2a44aecc69e048e85889f91a627c3042f8e",
    "scene.bin": "5c87179b938e5d7d04c16c0d562e4794ba10ce61390ecbc63a527a7bdffa5533",
    "scene1.bin": "79522d31debf621c5a8e348781cdccec953475c21ff512d362007784f758c5a7",
    "tokens.bin": "6646edd96bc8da793574d04e5638d192c4ac74c5e43a197f7e61fff900840121",
    "world.json": "347dc54e1b4bed7255ec1670987b91659b1da6addfeee011655fc90c88e4ec2e",
}


def test_cli_chain_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stdout = []
    for argv in BYTE_CHAIN:
        assert main(argv) == 0, argv
        stdout.append(capsys.readouterr().out)
    files = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert files == BYTE_CHAIN_FILES
    assert hashlib.sha256("".join(stdout).encode()).hexdigest() == BYTE_CHAIN_STDOUT
