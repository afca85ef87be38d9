"""The benchmark's span tracer wraps package functions by (module, name);
every one of them has to exist, or traced benchmark runs fail. Some of its
hooks read call arguments by position, so those positions are pinned too."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


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
