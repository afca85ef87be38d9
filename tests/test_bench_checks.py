"""The benchmark's own correctness checks, run against the library: a check
that refuses correct output shows up otherwise only as a refused benchmark
run. The benchmark's modules are loaded from their files and only read."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from scenefusion.align import model as model_module
from scenefusion.align.model import AlignmentModel, ModelConfig, init_params
from scenefusion.align.sequence import assemble_sequence
from scenefusion.align.vocab import build_vocab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports its sibling as `spans`; the entry goes at teardown
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    _load("spans", monkeypatch)
    return _load("workloads", monkeypatch)


def _model(vocab, seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=len(vocab), h=12, n_layers=2, n_heads=2, ff=24,
                      max_len=64, proj_in=7, proj_mid=5)
    params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
              for k, v in init_params(cfg, seed).items()}
    return AlignmentModel(cfg, params, vocab)


def test_train_qa_decode_check_passes_on_a_warm_prefix(workloads, monkeypatch):
    """`TrainQA._teacher_forced` over 9 questions about one scene: the first
    question finds the shared prefix cold, the other 8 warm, and no answer is
    refused as a mismatch."""
    vocab = build_vocab([" ".join(f"w{i}" for i in range(30))])
    words = list(vocab.words[5:])
    train_qa = workloads.TrainQA(seed=0, workdir="")
    full = model_module.forward_logits
    held = []  # rows the decode state held as each decode call began

    def spy(m, seq):
        if hasattr(seq, "state"):  # not the check's own teacher-forced pass
            held.append(seq.state.n)
        return full(m, seq)

    monkeypatch.setattr(model_module, "forward_logits", spy)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = _model(vocab, seed)
        visuals = rng.normal(size=(int(rng.integers(3, 12)), 7))
        first_rows = []
        for _ in range(9):
            instr = " ".join(rng.choice(words, size=int(rng.integers(1, 8))))
            prefix = assemble_sequence("scene", visuals, instr, "", vocab).prefix_before_answer()
            n_before = len(held)
            answer, n_tokens = train_qa._teacher_forced(model, prefix)
            assert answer != "<mismatch>"
            assert n_tokens == len(held) - n_before
            first_rows.append(held[n_before])
        # cold for a new model object, then warm: the scene prefix is reused
        assert first_rows == [0] + [len(visuals) + 3] * 8
