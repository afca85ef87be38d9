"""The benchmark's span tracer wraps package functions by (module, name);
every one of them has to exist, or traced benchmark runs fail. Some of its
hooks read call arguments by position, so those positions are pinned too."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from scenefusion.align import training
from scenefusion.align.model import AlignmentModel, ModelConfig
from scenefusion.align.sequence import assemble_sequence
from scenefusion.align.vocab import build_vocab

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("module, name", [(t[0], t[1]) for t in _targets()])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


# (module, function, position, parameter name) of every argument a hook in
# perfbench/spans.py reads off args: a refactor that reorders one of them
# breaks only traced runs, silently, so it has to fail here
POSITIONAL_READS = [
    ("scenefusion.align.training", "adamw_step", 3, "cfg"),
    ("scenefusion.align.model", "batch_loss_and_grads", 2, "trainable_prefixes"),
    ("scenefusion.io_formats", "save_scene", 1, "path"),
    ("scenefusion.voxelizer", "voxelize", 0, "positions"),
    ("scenefusion.voxelizer", "cluster_voxel", 0, "point_vectors"),
    ("scenefusion.align.model", "generate", 0, "prefix"),
]


@pytest.mark.parametrize("module, name, position, param", POSITIONAL_READS)
def test_hook_argument_positions(module, name, position, param):
    assert (module, name) in [(t[0], t[1]) for t in _targets()]
    fn = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(fn).parameters)[position] == param


@pytest.mark.parametrize("stage", [training.STAGE1, training.STAGE2])
def test_train_calls_label_their_stage(monkeypatch, stage):
    """The tracer labels a `batch_loss_and_grads` span stage1 or stage2 from
    the prefixes `train` passes it; a rewrite of that call that moved or
    renamed them would mislabel every traced training span."""
    vocab = build_vocab(["red cube blue ball"])
    cfg = ModelConfig(vocab_size=len(vocab), h=8, n_layers=1, n_heads=2, ff=16,
                      max_len=32, proj_in=7, proj_mid=4)
    model = AlignmentModel.create(cfg, vocab, seed=0)
    rng = np.random.default_rng(0)
    dataset = [assemble_sequence("frame", rng.normal(size=(2, 7)), "", "red cube", vocab),
               assemble_sequence("scene", rng.normal(size=(3, 7)), "", "blue ball", vocab)]
    calls = []
    real = training.batch_loss_and_grads

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "batch_loss_and_grads", record)
    training.train(dataset, training.TrainConfig(stage=stage, steps=1, batch_size=2), model)
    stage_of = _spans()._stage_of_prefixes
    assert [stage_of(args, kwargs) for args, kwargs in calls] == [stage]
