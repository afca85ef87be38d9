"""Two-stage training: freeze contract, warmup schedule, determinism,
divergence handling, and memorization-level trainability."""

import hashlib

import numpy as np
import pytest

from scenefusion.align.model import AlignmentModel, ModelConfig, generate, param_hash
from scenefusion.align.sequence import assemble_sequence
from scenefusion.align.training import STAGE1, STAGE2, TrainConfig, train
from scenefusion.align.vocab import build_vocab
from scenefusion.datagen import DatagenConfig, build_dataset_dir, load_dataset_dir, sequences_for
from scenefusion.errors import ConfigError, TrainingDivergedError
from scenefusion.worldsim import WorldConfig, word_grounding

# sha256 over the stage-1 and stage-2 parameter hashes and both loss traces of
# `test_two_stage_run_matches_pinned_digest` (float64, this numpy/OpenBLAS
# build on one BLAS thread, see conftest.py), pinned with the one-pass
# backward and allocating AdamW
GOLDEN_TWO_STAGE = "9cfe83f5b59e26ef02fc5f14f195080bb9e4b79e08c575c8add66d67886199f4"


@pytest.fixture(scope="module")
def setup():
    vocab = build_vocab(["red cube blue ball green box what color is the thing"])
    cfg = ModelConfig(vocab_size=len(vocab), h=16, n_layers=1, n_heads=2, ff=32,
                      max_len=64, proj_in=7, proj_mid=8)
    model = AlignmentModel.create(cfg, vocab, seed=0)
    rng = np.random.default_rng(0)
    red = rng.normal(size=7)
    blue = rng.normal(size=7)
    dataset = [
        assemble_sequence("frame", np.tile(red, (2, 1)), "", "red cube", vocab),
        assemble_sequence("frame", np.tile(blue, (2, 1)), "", "blue ball", vocab),
        assemble_sequence("scene", np.tile(red, (3, 1)), "what color", "red", vocab),
        assemble_sequence("scene", np.tile(blue, (3, 1)), "what color", "blue", vocab),
    ]
    return vocab, model, dataset


class TestTrainContract:
    def test_zero_steps_leaves_model_unchanged(self, setup):
        _, model, dataset = setup
        trained, trace = train(dataset, TrainConfig(steps=0), model)
        assert trace == []
        assert param_hash(trained.params) == param_hash(model.params)

    def test_stage1_freezes_lm_and_moves_projection(self, setup):
        _, model, dataset = setup
        cfg = TrainConfig(stage=STAGE1, steps=100, lr=1e-3, warmup_steps=10,
                          warmup_lr=1e-4, batch_size=2, seed=1)
        trained, _ = train(dataset, cfg, model)
        assert param_hash(trained.params, "lm.") == param_hash(model.params, "lm.")
        assert param_hash(trained.params, "proj.") != param_hash(model.params, "proj.")

    def test_stage2_moves_both(self, setup):
        _, model, dataset = setup
        cfg = TrainConfig(stage=STAGE2, steps=50, lr=1e-3, warmup_steps=5,
                          warmup_lr=1e-4, batch_size=2, seed=1)
        trained, _ = train(dataset, cfg, model)
        assert param_hash(trained.params, "lm.") != param_hash(model.params, "lm.")
        assert param_hash(trained.params, "proj.") != param_hash(model.params, "proj.")

    def test_input_model_never_mutated(self, setup):
        _, model, dataset = setup
        before = param_hash(model.params)
        train(dataset, TrainConfig(steps=20, batch_size=2), model)
        assert param_hash(model.params) == before

    def test_fixed_seed_bit_identical_checkpoints(self, setup):
        _, model, dataset = setup
        cfg = TrainConfig(stage=STAGE2, steps=60, batch_size=2, seed=7)
        a, trace_a = train(dataset, cfg, model)
        b, trace_b = train(dataset, cfg, model)
        assert trace_a == trace_b
        assert param_hash(a.params) == param_hash(b.params)

    def test_nan_loss_aborts_with_step(self, setup):
        _, model, dataset = setup
        params = {k: v.copy() for k, v in model.params.items()}
        params["lm.embed"][:] = np.inf
        broken = model.with_params(params)
        with pytest.raises(TrainingDivergedError) as exc, np.errstate(all="ignore"):
            train(dataset, TrainConfig(steps=5, batch_size=2), broken)
        assert exc.value.step == 0

    def test_empty_dataset_rejected(self, setup):
        _, model, _ = setup
        with pytest.raises(ConfigError):
            train([], TrainConfig(steps=1), model)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("name,value", [
        ("steps", -3), ("warmup_steps", -5),
        ("lr", float("nan")), ("lr", float("inf")),
        ("warmup_lr", float("nan")), ("warmup_lr", -float("inf")),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", float("nan")),
        ("beta2", -1e-9), ("beta2", 1.0),
        ("eps", 0.0), ("eps", -1e-8), ("eps", float("nan")), ("eps", float("inf")),
        ("weight_decay", -0.01), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_bad_value_raises_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must"):
            TrainConfig(**{name: value})

    def test_edges_of_the_legal_ranges_are_accepted(self):
        TrainConfig(steps=0, warmup_steps=0, warmup_lr=0.0, beta1=0.0, beta2=0.0,
                    eps=5e-324, weight_decay=0.0)


class TestWarmup:
    def test_linear_schedule_shape(self):
        cfg = TrainConfig(lr=1e-3, warmup_steps=10, warmup_lr=1e-4)
        assert cfg.lr_at(0) == pytest.approx(1e-4)
        assert cfg.lr_at(5) == pytest.approx(1e-4 + (1e-3 - 1e-4) * 0.5)
        assert cfg.lr_at(10) == pytest.approx(1e-3)
        assert cfg.lr_at(500) == pytest.approx(1e-3)

    def test_no_warmup(self):
        cfg = TrainConfig(lr=1e-3, warmup_steps=0)
        assert cfg.lr_at(0) == pytest.approx(1e-3)


class TestTrainability:
    def test_stage2_memorizes_and_generates(self, setup):
        vocab, model, dataset = setup
        cfg = TrainConfig(stage=STAGE2, steps=300, lr=3e-3, warmup_steps=20,
                          warmup_lr=3e-4, batch_size=4, seed=3)
        trained, trace = train(dataset, cfg, model)
        assert trace[-1] < 0.1, f"failed to memorize 4 sequences: {trace[-1]}"
        out = generate(dataset[0].prefix_before_answer(), trained, max_len=8)
        assert out == "red cube"
        out2 = generate(dataset[3].prefix_before_answer(), trained, max_len=8)
        assert out2 == "blue"

    def test_loss_decreases(self, setup):
        _, model, dataset = setup
        cfg = TrainConfig(stage=STAGE2, steps=120, lr=1e-3, batch_size=4, seed=4)
        _, trace = train(dataset, cfg, model)
        assert np.mean(trace[-10:]) < np.mean(trace[:10])


class TestPinnedTwoStageRun:
    def test_two_stage_run_matches_pinned_digest(self, tmp_path):
        """A 2-world dataset and model with default configs, the CLI's stage
        learning rates, 40 steps a stage: every parameter and loss bit."""
        build_dataset_dir(tmp_path, 2, WorldConfig(), DatagenConfig())
        bundle = load_dataset_dir(tmp_path)
        cfg = ModelConfig(vocab_size=len(bundle.vocab),
                          proj_in=bundle.frame_records[0].visual.shape[1])
        grounding = word_grounding(next(iter(bundle.worlds.values())))
        model = AlignmentModel.create(cfg, bundle.vocab, seed=0, word_grounding=grounding)
        s1 = sequences_for([r for r in bundle.frame_records if r.group == "frame"], bundle.vocab)
        s2 = sequences_for(bundle.frame_records + bundle.train_records, bundle.vocab)
        m1, trace1 = train(s1, TrainConfig(stage=STAGE1, lr=3e-4, warmup_lr=3e-5, steps=40), model)
        m2, trace2 = train(s2, TrainConfig(stage=STAGE2, lr=2e-3, warmup_lr=2e-4, steps=40), m1)
        h = hashlib.sha256()
        for m in (m1, m2):
            h.update(param_hash(m.params).encode())
        h.update(np.array(trace1 + trace2, dtype=np.float64).tobytes())
        assert h.hexdigest() == GOLDEN_TWO_STAGE
