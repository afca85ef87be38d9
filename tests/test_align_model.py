"""Model-level contracts: loss values against an independent softmax/NLL
recomputation, finite-difference gradients, loss-mask soundness, causality,
and cached greedy decoding against full recomputation."""

import gc
import hashlib
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from oracles import full_backward
from scenefusion.align import model as model_module
from scenefusion.align.model import (
    AlignmentModel,
    ModelConfig,
    _forward,
    _loss_backward_into_dlogits,
    _loss_from_logits,
    batch_loss_and_grads,
    forward_logits,
    generate,
    gradients,
    init_params,
    loss,
    pack_batch,
    param_hash,
)
from scenefusion.align.sequence import TokenSequence, assemble_sequence
from scenefusion.align.training import (
    STAGE1,
    STAGE2,
    AdamWState,
    TrainConfig,
    adamw_step,
    train,
    trainable_prefixes,
)
from scenefusion.align.vocab import build_vocab
from scenefusion.errors import ConfigError
from scenefusion.io_formats import load_checkpoint, save_checkpoint

GOLDEN_FULL_PASS = "6c759af485d677b2fb444dff67881fcb1108d106a226fe036e0ea48e0eed530f"
GOLDEN_DECODE = "97b1f55853d6afba7cbcb72494d9e595f0045467442691feae4faac8f2b34145"


def tiny_model(vocab, h=8, layers=1, heads=2, ff=16, proj_in=7, proj_mid=4, seed=1):
    cfg = ModelConfig(vocab_size=len(vocab), h=h, n_layers=layers, n_heads=heads,
                      ff=ff, max_len=64, proj_in=proj_in, proj_mid=proj_mid)
    return AlignmentModel(cfg, init_params(cfg, seed), vocab)


@pytest.fixture(scope="module")
def vocab():
    words = [f"w{i}" for i in range(40)]
    return build_vocab([" ".join(words), "red cube near box how many"])


def _random_seq(rng, vocab, n_vis=3, n_instr=4, n_ans=3, proj_in=7, kind="frame"):
    words = [w for w in vocab.words[5:]]
    instr = " ".join(rng.choice(words, size=n_instr))
    ans = " ".join(rng.choice(words, size=n_ans))
    vis = rng.normal(size=(n_vis, proj_in))
    return assemble_sequence(kind, vis, instr, ans, vocab)


class TestLoss:
    def test_uniform_logits_give_log_vocab(self, vocab):
        # all-zero parameters force logits identically zero -> uniform softmax
        model = tiny_model(vocab)
        zero = {k: np.zeros_like(v) for k, v in model.params.items()}
        model = model.with_params(zero)
        seq = _random_seq(np.random.default_rng(0), vocab)
        expected = np.log(len(vocab))
        assert loss(seq, model) == pytest.approx(expected, abs=1e-9)

    def test_dominant_logit_drives_loss_to_zero(self, vocab):
        model = tiny_model(vocab)
        params = {k: np.zeros_like(v) for k, v in model.params.items()}
        target = vocab.encode_word("w0")
        params["lm.head.b"][target] = 1e4
        model = model.with_params(params)
        seq = assemble_sequence("scene", np.zeros((1, 7)), "w1 w2", "w0 w0", vocab)
        # mask covers w0, w0, eos; the two w0 terms are ~0, the eos term huge:
        # check the single-answer limiting case by masking only w0 positions
        seq_one = assemble_sequence("scene", np.zeros((1, 7)), "w1 w2", "w0", vocab)
        full = loss(seq_one, model)
        # nll(w0) ~ 0; nll(eos) ~ 1e4; mean over 2 masked ~ 5e3. Instead check
        # via logits that the w0 position itself contributes ~0.
        logits = forward_logits(model, seq_one)
        row = logits[-3]  # predictor position for the answer token
        p = np.exp(row - row.max())
        p /= p.sum()
        assert -np.log(p[target]) < 1e-8
        assert full > 100  # the eos term dominates the mean, as constructed

    def test_matches_independent_softmax_nll(self, vocab):
        rng = np.random.default_rng(2)
        model = tiny_model(vocab, layers=2)
        seq = _random_seq(rng, vocab)
        logits = forward_logits(model, seq)
        masked = np.nonzero(seq.loss_mask)[0]
        nlls = []
        for i in masked:
            row = logits[i - 1].astype(np.float64)
            z = np.exp(row) / np.sum(np.exp(row))
            nlls.append(-np.log(z[seq.tokens[i]]))
        assert loss(seq, model) == pytest.approx(np.mean(nlls), abs=1e-10)

    def test_no_masked_positions_raises(self, vocab):
        model = tiny_model(vocab)
        seq = _random_seq(np.random.default_rng(3), vocab).prefix_before_answer()
        with pytest.raises(ConfigError):
            loss(seq, model)


class TestGradients:
    def test_finite_difference_every_parameter(self, vocab):
        rng = np.random.default_rng(4)
        model = tiny_model(vocab)
        n_params = sum(p.size for p in model.params.values())
        assert n_params <= 5000
        seq = _random_seq(rng, vocab)
        grads = gradients(seq, model)
        eps = 1e-4
        for name, p in model.params.items():
            for idx in np.ndindex(p.shape):
                pp = {k: v.copy() for k, v in model.params.items()}
                pp[name][idx] += eps
                lp = loss(seq, model.with_params(pp))
                pp[name][idx] -= 2 * eps
                lm = loss(seq, model.with_params(pp))
                fd = (lp - lm) / (2 * eps)
                an = grads[name][idx]
                tol = 1e-4 * max(abs(fd), abs(an)) + 1e-6
                assert abs(fd - an) <= tol, f"{name}{idx}: fd={fd} analytic={an}"

    def test_unused_embedding_rows_get_zero_gradient(self, vocab):
        rng = np.random.default_rng(5)
        model = tiny_model(vocab)
        seq = _random_seq(rng, vocab)
        grads = gradients(seq, model)
        used = set(t for t in seq.tokens.tolist() if t >= 0)
        for tid in range(len(vocab)):
            if tid not in used:
                assert not grads["lm.embed"][tid].any()

    def test_stage1_prefix_restriction(self, vocab):
        rng = np.random.default_rng(6)
        model = tiny_model(vocab)
        seq = _random_seq(rng, vocab)
        grads = gradients(seq, model, trainable_prefixes=("proj.",))
        assert sorted(grads) == ["proj.b1", "proj.b2", "proj.w1", "proj.w2"]

    def test_positions_beyond_sequence_get_zero_gradient(self, vocab):
        rng = np.random.default_rng(7)
        model = tiny_model(vocab)
        seq = _random_seq(rng, vocab)
        grads = gradients(seq, model)
        assert not grads["lm.pos"][len(seq):].any()


def _random_training_case(rng, vocab, case):
    """A seeded random model (every parameter perturbed off its init, so LN
    gains, biases and the relative bias are generic) and a padded batch."""
    heads = int(rng.integers(1, 4))
    h = heads * int(rng.integers(1, 5))
    proj_in = int(rng.integers(4, 10))
    cfg = ModelConfig(vocab_size=len(vocab), h=h, n_layers=int(rng.integers(1, 4)),
                      n_heads=heads, ff=int(rng.integers(2, 25)), max_len=64,
                      proj_in=proj_in, proj_mid=int(rng.integers(2, 9)))
    params = {k: v + rng.normal(0.0, 0.1, size=v.shape)
              for k, v in init_params(cfg, case).items()}
    n_seqs = 1 if case % 5 == 0 else int(rng.integers(2, 6))
    no_visuals = case % 7 == 0
    seqs = [_random_seq(rng, vocab, n_vis=0 if no_visuals else int(rng.integers(0, 5)),
                        n_instr=int(rng.integers(1, 8)), n_ans=int(rng.integers(1, 4)),
                        proj_in=proj_in, kind="scene" if rng.integers(2) else "frame")
            for _ in range(n_seqs)]
    return AlignmentModel(cfg, params, vocab), seqs


class TestStageAwareBackward:
    """`batch_loss_and_grads` skips the lm.* weight gradients when no trainable
    prefix covers them; every gradient it does return equals the one-pass
    reference (`oracles.full_backward`) bit for bit."""

    def test_matches_one_pass_reference_bit_for_bit(self, vocab):
        proj_keys = ["proj.b1", "proj.b2", "proj.w1", "proj.w2"]
        shapes = {"single": 0, "padded": 0, "no_visuals": 0}
        for case in range(60):
            rng = np.random.default_rng(9000 + case)
            model, seqs = _random_training_case(rng, vocab, case)
            batch = pack_batch(seqs, vocab.pad_id)
            logits, cache = _forward(model.params, model.cfg, batch, want_cache=True)
            ref_loss, _, filler = _loss_from_logits(logits, batch)
            dlogits = _loss_backward_into_dlogits(logits.shape, filler)
            ref = full_backward(model.params, model.cfg, batch, cache, dlogits)
            assert sorted(ref) == sorted(model.params)
            shapes["single"] += len(seqs) == 1
            shapes["padded"] += len({len(s) for s in seqs}) > 1
            shapes["no_visuals"] += not batch.visuals.shape[0]
            for prefixes in (trainable_prefixes(STAGE1), trainable_prefixes(STAGE2), None):
                loss_val, _, grads = batch_loss_and_grads(model, seqs, prefixes)
                assert loss_val == ref_loss
                want = [k for k in ref if prefixes is None or k.startswith(prefixes)]
                assert list(grads) == want, f"case {case} {prefixes}"
                for k in want:
                    assert grads[k].shape == ref[k].shape
                    assert grads[k].tobytes() == ref[k].tobytes(), f"case {case} {prefixes} {k}"
                if prefixes == trainable_prefixes(STAGE1):
                    assert sorted(grads) == proj_keys
        assert all(n >= 5 for n in shapes.values()), shapes


class TestMaskAndCausality:
    def test_loss_mask_soundness(self, vocab):
        # perturbing logits at non-masked predictor positions leaves the loss
        # unchanged: emulate by checking dlogits support directly
        rng = np.random.default_rng(8)
        model = tiny_model(vocab)
        seq = _random_seq(rng, vocab)
        from scenefusion.align.model import (
            _forward,
            _loss_backward_into_dlogits,
            _loss_from_logits,
            pack_batch,
        )

        batch = pack_batch([seq], model.vocab.pad_id)
        logits, _ = _forward(model.params, model.cfg, batch, want_cache=False)
        _, _, filler = _loss_from_logits(logits, batch)
        dlogits = _loss_backward_into_dlogits(logits.shape, filler)
        pred_positions = set((np.nonzero(seq.loss_mask)[0] - 1).tolist())
        for t in range(len(seq)):
            if t not in pred_positions:
                assert not dlogits[0, t].any()

    def test_causality_suffix_change_leaves_earlier_logits(self, vocab):
        rng = np.random.default_rng(9)
        model = tiny_model(vocab, layers=2)
        seq = _random_seq(rng, vocab, n_ans=4)
        logits = forward_logits(model, seq)
        cut = len(seq) - 2
        toks = seq.tokens.copy()
        toks[-2] = model.vocab.encode_word("w9")  # change a suffix token
        seq2 = type(seq)(toks, seq.visuals, seq.loss_mask)
        logits2 = forward_logits(model, seq2)
        np.testing.assert_array_equal(logits[:cut], logits2[:cut])

    def test_causality_on_random_sequences(self, vocab):
        rng = np.random.default_rng(10)
        model = tiny_model(vocab)
        for _ in range(10):
            seq = _random_seq(rng, vocab, n_vis=int(rng.integers(0, 4)),
                              n_instr=int(rng.integers(1, 5)))
            logits = forward_logits(model, seq)
            pos = int(rng.integers(1, len(seq)))
            toks = seq.tokens.copy()
            if toks[pos] == -1:
                continue
            toks[pos] = model.vocab.encode_word("w1")
            seq2 = type(seq)(toks, seq.visuals, seq.loss_mask)
            np.testing.assert_array_equal(forward_logits(model, seq2)[:pos],
                                          logits[:pos])


class TestGenerate:
    def test_eos_dominant_gives_empty(self, vocab):
        model = tiny_model(vocab)
        params = {k: np.zeros_like(v) for k, v in model.params.items()}
        params["lm.head.b"][vocab.eos_id] = 1e4
        model = model.with_params(params)
        seq = assemble_sequence("scene", np.zeros((1, 7)), "w1", "", vocab)
        assert generate(seq.prefix_before_answer(), model) == ""

    def test_constant_logit_model_repeats_argmax(self, vocab):
        model = tiny_model(vocab)
        params = {k: np.zeros_like(v) for k, v in model.params.items()}
        target = vocab.encode_word("w3")
        params["lm.head.b"][target] = 10.0
        model = model.with_params(params)
        seq = assemble_sequence("scene", np.zeros((1, 7)), "w1", "", vocab)
        out = generate(seq.prefix_before_answer(), model, max_len=5)
        assert out == "w3 w3 w3 w3 w3"

    def test_argmax_tie_breaks_to_lowest_id(self, vocab):
        model = tiny_model(vocab)
        params = {k: np.zeros_like(v) for k, v in model.params.items()}
        model = model.with_params(params)  # all logits equal -> argmax = id 0 = pad
        seq = assemble_sequence("scene", np.zeros((1, 7)), "w1", "", vocab)
        out = generate(seq.prefix_before_answer(), model, max_len=3)
        assert out == ""  # pad is a special token, stripped from the text


def _decode_model(vocab, seed):
    """A seeded random model whose every parameter (biases, norms and the
    relative bias included) is perturbed away from its initial value."""
    rng = np.random.default_rng(seed)
    heads = (1, 2, 3)[seed % 3]
    cfg = ModelConfig(vocab_size=len(vocab), h=6 * heads, n_layers=1 + seed % 3,
                      n_heads=heads, ff=20, max_len=40, proj_in=7, proj_mid=5)
    params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
              for k, v in init_params(cfg, seed).items()}
    # a random <eos> offset, so some decodes stop early and some run out
    params["lm.head.b"][vocab.eos_id] += rng.normal(0.0, 1.5)
    return AlignmentModel(cfg, params, vocab)


def _prompt(rng, vocab, n_vis, n_instr):
    words = list(vocab.words[5:])
    instr = " ".join(rng.choice(words, size=n_instr))
    return assemble_sequence("scene", rng.normal(size=(n_vis, 7)), instr, "",
                             vocab).prefix_before_answer()


def _plain(tokens, visuals):
    return TokenSequence(np.array(tokens, dtype=np.int64), visuals,
                         np.zeros(len(tokens), dtype=bool))


def _reference_decode(prefix, model, max_len):
    """Greedy decoding as a loop of full passes over plain sequences: the
    generated ids and the logits of every pass."""
    tokens, ids, passes = prefix.tokens.tolist(), [], []
    for _ in range(max_len):
        if len(tokens) >= model.cfg.max_len:
            break
        logits = forward_logits(model, _plain(tokens, prefix.visuals))
        passes.append(logits)
        nxt = int(np.argmax(logits[-1]))
        if nxt == model.vocab.eos_id:
            break
        ids.append(nxt)
        tokens.append(nxt)
    return ids, passes


def _cached_decode(monkeypatch, prefix, model, max_len):
    """`generate`'s text, plus the sequence and logits of each
    `forward_logits` call it made."""
    calls = []
    full = model_module.forward_logits

    def spy(m, seq):
        logits = full(m, seq)
        calls.append((seq, logits.copy()))
        return logits

    monkeypatch.setattr(model_module, "forward_logits", spy)
    out = generate(prefix, model, max_len=max_len)
    monkeypatch.setattr(model_module, "forward_logits", full)
    return out, calls


def _decode_rows(monkeypatch, prefix, model, max_len):
    """`generate`'s text, the logits of each `forward_logits` call it made,
    and the rows its decode state held when the first call began: the
    shared scene prefix's length on a hit, 0 on a miss."""
    logits_seen, held = [], []
    full = model_module.forward_logits

    def spy(m, seq):
        held.append(seq.state.n)
        logits = full(m, seq)
        logits_seen.append(logits.copy())
        return logits

    monkeypatch.setattr(model_module, "forward_logits", spy)
    out = generate(prefix, model, max_len=max_len)
    monkeypatch.setattr(model_module, "forward_logits", full)
    return out, logits_seen, held[0] if held else None


def _same_scene(rng, vocab, prefix):
    """Another question, as many words long, about `prefix`'s scene (a
    copy of its visuals, so only their bytes match)."""
    n_instr = len(prefix) - prefix.n_visual - 3
    instr = " ".join(rng.choice(list(vocab.words[5:]), size=n_instr))
    return assemble_sequence("scene", prefix.visuals.copy(), instr, "",
                             vocab).prefix_before_answer()


def _assert_matches_full_recompute(monkeypatch, prompt, model, max_len):
    """Decode `prompt` and check it against a loop of full passes: the same
    text, one call per pass, logits within 1e-12 and the same greedy token
    per call, and a miss's prompt pass bit for bit. Returns the rows the
    first call found cached."""
    ids, passes = _reference_decode(prompt, model, max_len)
    out, seen, held = _decode_rows(monkeypatch, prompt, model, max_len)
    assert out == model.vocab.decode(ids)
    assert len(seen) == len(passes)
    for logits, ref in zip(seen, passes):
        assert logits.shape == ref.shape
        assert np.max(np.abs(logits - ref)) <= 1e-12
        assert np.argmax(logits[-1]) == np.argmax(ref[-1])
    if held == 0:
        np.testing.assert_array_equal(seen[0], passes[0])
    return held


def _decode_cases(vocab):
    """(model, prompt, max_len): 20 seeded random cases, then the edges."""
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        model = _decode_model(vocab, seed)
        n_vis = 0 if seed % 4 == 0 else int(rng.integers(1, 6))
        cases.append((model, _prompt(rng, vocab, n_vis, int(rng.integers(1, 6))),
                      int(rng.integers(1, 30))))
    rng = np.random.default_rng(7)
    model = _decode_model(vocab, 3)
    short = model.cfg.max_len - 1  # the prompt leaves room for one token
    cases.append((model, _prompt(rng, vocab, 2, short - 5), 10))
    cases.append((model, _prompt(rng, vocab, 0, 3), 1))
    cases.append((model, _prompt(rng, vocab, 0, 0), 50))  # more than cfg.max_len allows
    return cases


class TestCachedDecode:
    """`generate` computes one row per token after the prompt pass; it must
    emit what a loop of full passes over plain sequences emits."""

    def test_same_tokens_and_logits_as_full_recompute(self, vocab, monkeypatch):
        n_steps = 0
        for model, prefix, max_len in _decode_cases(vocab):
            ids, passes = _reference_decode(prefix, model, max_len)
            out, calls = _cached_decode(monkeypatch, prefix, model, max_len)
            assert out == vocab.decode(ids)
            assert len(calls) == len(passes)
            for (seq, logits), ref in zip(calls, passes):
                assert logits.shape == ref.shape
                assert np.max(np.abs(logits - ref)) <= 1e-12
                assert np.argmax(logits[-1]) == np.argmax(ref[-1])
            # the prompt pass is the full pass itself
            np.testing.assert_array_equal(calls[0][1], passes[0])
            n_steps += len(calls)
        assert n_steps > 200

    def test_edge_cases_make_one_call(self, vocab, monkeypatch):
        """A prompt one token short of cfg.max_len, and max_len=1: one pass."""
        (model, short, _), (_, single, _) = _decode_cases(vocab)[20:22]
        assert len(short) == model.cfg.max_len - 1
        assert len(_cached_decode(monkeypatch, short, model, 10)[1]) == 1
        assert len(_cached_decode(monkeypatch, single, model, 1)[1]) == 1

    def test_call_count_is_tokens_plus_eos(self, vocab, monkeypatch):
        """Cold, and again warm: each case's scene asked a second question."""
        stopped_at_eos = ran_out = warm = 0
        rng = np.random.default_rng(11)
        for model, prefix, max_len in _decode_cases(vocab):
            for prompt in (prefix, _same_scene(rng, vocab, prefix)):
                ids, passes = _reference_decode(prompt, model, max_len)
                out, calls, held = _decode_rows(monkeypatch, prompt, model, max_len)
                eos = bool(passes) and int(np.argmax(passes[-1][-1])) == vocab.eos_id
                assert len(calls) == len(ids) + eos == len(passes)
                stopped_at_eos += eos
                ran_out += not eos
                warm += bool(held)
        assert stopped_at_eos and ran_out
        assert warm >= 10

    def test_warm_calls_match_full_recompute(self, vocab, monkeypatch):
        """Each case's scene asked a second question reuses the first one's
        prefix and still emits what full passes emit, within 1e-12."""
        rng = np.random.default_rng(12)
        warm = 0
        for model, prefix, max_len in _decode_cases(vocab):
            assert _assert_matches_full_recompute(monkeypatch, prefix, model, max_len) == 0
            again = _same_scene(rng, vocab, prefix)
            held = _assert_matches_full_recompute(monkeypatch, again, model, max_len)
            assert held in (0, prefix.n_visual + 3)
            warm += bool(held)
        assert warm >= 10

    def test_other_sequences_get_the_full_pass(self, vocab, monkeypatch):
        """A sequence whose decode state does not cover exactly its tokens but
        the last, for this model and these visuals, gets the plain full pass
        bit for bit: a re-run, another model object, an edited earlier token,
        a copy of the visuals."""
        model, prefix, max_len = _decode_cases(vocab)[1]
        twin = model.with_params(model.params)
        full = model_module.forward_logits
        n_checked = 0

        def check_then_run(m, seq):
            nonlocal n_checked
            if seq.state.n == len(seq) - 1:  # the next call takes the one-row path
                toks = seq.tokens.copy()
                toks[-2] = (toks[-2] + 1) % len(vocab)
                for other_model, other in (
                        (twin, seq),
                        (model, replace(seq, tokens=toks)),
                        (model, replace(seq, visuals=seq.visuals.copy()))):
                    plain = full(model, _plain(other.tokens, other.visuals))
                    np.testing.assert_array_equal(full(other_model, other), plain)
                n_checked += 1
            logits = full(m, seq)
            # the state now covers the whole sequence, so a re-run is plain too
            np.testing.assert_array_equal(full(m, seq), full(m, _plain(seq.tokens, seq.visuals)))
            return logits

        monkeypatch.setattr(model_module, "forward_logits", check_then_run)
        generate(prefix, model, max_len=max_len)
        assert n_checked >= 2

    def test_full_pass_matches_pinned_digest(self, vocab):
        """sha256 over `forward_logits` of plain sequences, pinned before the
        decode cache existed (float64, this numpy/OpenBLAS build)."""
        h = hashlib.sha256()
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            model = _decode_model(vocab, seed)
            for n_vis in (0, 3):
                seq = _prompt(rng, vocab, n_vis, int(rng.integers(1, 12)))
                h.update(forward_logits(model, seq).tobytes())
        assert h.hexdigest() == GOLDEN_FULL_PASS

    def test_decoded_logits_match_pinned_digest(self, vocab, monkeypatch):
        """sha256 over every `forward_logits` output `generate` makes on the
        decode cases, each cold and then warm, pinned before the one-row
        step existed (float64, this numpy/OpenBLAS build)."""
        h = hashlib.sha256()
        rng = np.random.default_rng(13)
        for model, prefix, max_len in _decode_cases(vocab):
            for prompt in (prefix, _same_scene(rng, vocab, prefix)):
                for logits in _decode_rows(monkeypatch, prompt, model, max_len)[1]:
                    h.update(logits.tobytes())
        assert h.hexdigest() == GOLDEN_DECODE


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDecodeRow:
    """`forward_logits` computes a decode sequence's one new row on vectors
    (`_decode_row`): the operations of the one-row `_forward(past=state)`,
    so every bit is the same."""

    @pytest.mark.parametrize("h, heads, layers", [(32, 2, 2), (48, 3, 3), (8, 1, 1)])
    def test_matches_one_row_forward_bit_for_bit(self, vocab, h, heads, layers):
        rng = np.random.default_rng(h)
        cfg = ModelConfig(vocab_size=len(vocab), h=h, n_layers=layers, n_heads=heads,
                          max_len=24, proj_in=7, proj_mid=5)
        params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
                  for k, v in init_params(cfg, h).items()}
        model = AlignmentModel(cfg, params, vocab)
        prompt = _prompt(rng, vocab, 3, cfg.max_len - 6)  # <bos> [3d] v v v [/3d] words
        assert len(prompt) == cfg.max_len
        # a real decode state: the prompt pass over every row
        source = model_module._DecodeState(model, prompt.visuals, cfg.max_len)
        forward_logits(model, model_module._DecodeSequence(
            prompt.tokens, prompt.visuals, prompt.loss_mask, source))
        for t in (1, cfg.max_len // 2, cfg.max_len - 1):
            row_state, ref_state = (model_module._DecodeState(model, prompt.visuals, cfg.max_len)
                                    for _ in range(2))
            row_state.fork(source, t)
            ref_state.fork(source, t)
            token = prompt.tokens[t:t + 1]
            none = np.zeros((1, 1), dtype=bool)
            batch = model_module.PackedBatch(token[None], none, np.zeros((0, 1)), none)
            ref, _ = _forward(model.params, cfg, batch, False, past=ref_state)
            row = model_module._decode_row(model.params, cfg, row_state, token[0])
            assert _same_bits(row, ref[0, 0])
            for mine, theirs in zip(row_state.keys + row_state.values,
                                    ref_state.keys + ref_state.values):
                assert _same_bits(mine[:, :, :t + 1], theirs[:, :, :t + 1])

    def test_runs_once_per_call_after_the_first(self, vocab, monkeypatch):
        """Cold and warm: every call whose state holds all rows but the last
        takes the row step once (each call after the first, and a hit's first
        call on a one-word question); max_len=1 never does."""
        real = model_module._decode_row
        rows = []

        def spy(params, cfg, state, token):
            rows.append(state.n)
            return real(params, cfg, state, token)

        monkeypatch.setattr(model_module, "_decode_row", spy)
        rng = np.random.default_rng(14)
        n_rows = 0
        for model, prefix, max_len in _decode_cases(vocab):
            for prompt in (prefix, _same_scene(rng, vocab, prefix)):
                rows.clear()
                _, calls, held = _decode_rows(monkeypatch, prompt, model, max_len)
                # call i holds len(prompt) - 1 + i rows; the first holds `held`
                first = 0 if held == len(prompt) - 1 else 1
                assert rows == [len(prompt) - 1 + i for i in range(first, len(calls))]
                n_rows += len(rows)
        assert n_rows > 200
        model, single, _ = _decode_cases(vocab)[21]
        rows.clear()
        assert len(_cached_decode(monkeypatch, single, model, 1)[1]) == 1
        assert rows == []

    def test_other_sequences_never_take_the_row_step(self, vocab, monkeypatch):
        """A re-run, another model object, an edited earlier token and a copy
        of the visuals get the plain full pass, without the row step."""
        model, prefix, max_len = _decode_cases(vocab)[1]
        twin = model.with_params(model.params)
        full = model_module.forward_logits
        real = model_module._decode_row
        n_rows = n_checked = 0

        def count(*args):
            nonlocal n_rows
            n_rows += 1
            return real(*args)

        def plain_without_row_step(others):
            before = n_rows
            for other_model, other in others:
                plain = full(model, _plain(other.tokens, other.visuals))
                assert _same_bits(full(other_model, other), plain)
            assert n_rows == before

        def check_then_run(m, seq):
            nonlocal n_checked
            if seq.state.n == len(seq) - 1:  # the next call takes the row step
                toks = seq.tokens.copy()
                toks[-2] = (toks[-2] + 1) % len(vocab)
                plain_without_row_step([(twin, seq), (model, replace(seq, tokens=toks)),
                                        (model, replace(seq, visuals=seq.visuals.copy()))])
                n_checked += 1
            logits = full(m, seq)
            plain_without_row_step([(m, seq)])  # a re-run: the state covers it all
            return logits

        monkeypatch.setattr(model_module, "_decode_row", count)
        monkeypatch.setattr(model_module, "forward_logits", check_then_run)
        generate(prefix, model, max_len=max_len)
        assert n_checked >= 2 and n_rows == n_checked


def _flip_one_bit(visuals, rng):
    """A copy of the visuals with the lowest mantissa bit of one entry flipped."""
    out = visuals.copy()
    out.reshape(-1).view(np.int64)[int(rng.integers(out.size))] ^= 1
    return out


class TestSharedPrefix:
    """`generate` keeps the last scene prefix's rows and reuses them only for
    the same model object with equal prefix tokens and byte-equal visuals
    (a model's weights cannot change); with or without the reuse it emits
    what a loop of full passes emits."""

    def test_reuse_matches_full_recompute_on_20_models(self, vocab, monkeypatch):
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            model = _decode_model(vocab, seed)
            n_vis = int(rng.integers(1, 6))
            scene = _prompt(rng, vocab, n_vis, int(rng.integers(1, 6)))
            p = n_vis + 3  # <bos> [3d] v_1 .. v_K [/3d]
            max_len = int(rng.integers(1, 20))

            def ask(prompt, m=model):
                return _assert_matches_full_recompute(monkeypatch, prompt, m, max_len)

            def question(visuals=scene.visuals):
                instr = " ".join(rng.choice(list(vocab.words[5:]), size=int(rng.integers(1, 6))))
                return assemble_sequence("scene", visuals.copy(), instr, "",
                                         vocab).prefix_before_answer()

            assert ask(scene) == 0  # a new model object: cold
            # the same scene asked repeatedly; the prompts differ only after [/3d]
            for _ in range(3):
                assert ask(question()) == p
            assert ask(scene) == p
            # one visual bit differs: a miss, which then holds that scene
            flipped = _flip_one_bit(scene.visuals, rng)
            assert ask(question(flipped)) == 0
            assert ask(question(flipped)) == p
            assert ask(question()) == 0
            # another model object with equal weights misses, and so does the
            # first one after it
            twin = model.with_params(model.params)
            assert ask(question(), twin) == 0
            assert ask(question()) == 0
            # a prompt with no visual slot neither stores nor reuses
            text_only = _prompt(rng, vocab, 0, int(rng.integers(1, 6)))
            assert ask(text_only) == 0
            assert ask(question()) == p
            # new weights (one AdamW step on copies) are a new model object,
            # which misses once and then hits
            copies = {k: v.copy() for k, v in model.params.items()}
            grads = gradients(_random_seq(rng, vocab), model)
            adamw_step(copies, grads, AdamWState(), TrainConfig(stage=STAGE2), 0.05)
            model = model.with_params(copies)
            assert ask(question(), model) == 0
            assert ask(question(), model) == p

    @pytest.mark.parametrize("source", ["create", "load_checkpoint", "train"])
    def test_every_write_to_the_weights_raises(self, vocab, monkeypatch, tmp_path, source):
        """After a call stores a model's scene prefix, every write to one of
        its parameters raises: in place, through `setflags(write=True)` on
        the array, on its base or on a slice view (`ValueError`), or by
        rebinding the name (`TypeError`). The weights keep their bytes, and
        the next call on that scene still hits and matches the full pass."""
        rng = np.random.default_rng(17)
        scene = _prompt(rng, vocab, 3, 4)
        p = 3 + 3  # <bos> [3d] v_1 v_2 v_3 [/3d]
        model = _decode_model(vocab, 5)
        if source == "create":
            model = AlignmentModel.create(model.cfg, vocab, seed=5)
        elif source == "load_checkpoint":
            save_checkpoint(model, tmp_path / "model.ckpt")
            model = load_checkpoint(tmp_path / "model.ckpt")
        else:
            dataset = [_random_seq(rng, vocab) for _ in range(4)]
            model, _ = train(dataset, TrainConfig(stage=STAGE2, steps=1, batch_size=2), model)
        before = param_hash(model.params)
        writes = (
            lambda arr: arr.__iadd__(0.5),
            lambda arr: arr.reshape(-1).__setitem__(0, 0.5),
            lambda arr: arr.setflags(write=True),
            lambda arr: arr.base.setflags(write=True),
            lambda arr: arr.reshape(-1)[1:].setflags(write=True),
        )
        assert _assert_matches_full_recompute(monkeypatch, scene, model, 8) == 0
        for name in ("proj.w1", "lm.pos", "lm.layers.0.attn.wk", "lm.layers.0.attn.rel",
                     "lm.ln_f.g"):
            for write in writes:
                with pytest.raises(ValueError):
                    write(model.params[name])
            with pytest.raises(TypeError):
                model.params[name] = model.params[name] + 0.5
            assert param_hash(model.params) == before
            assert _assert_matches_full_recompute(
                monkeypatch, _same_scene(rng, vocab, scene), model, 8) == p

    def test_callers_arrays_stay_theirs(self, vocab):
        """The arrays a caller hands `AlignmentModel(...)` or `with_params`
        stay writeable after a `generate` call with a scene prompt, and
        writing to them afterwards changes neither the model's logits nor
        its `param_hash`."""
        rng = np.random.default_rng(29)
        scene = _prompt(rng, vocab, 3, 4)
        base = _decode_model(vocab, 7)
        for build in (lambda params: AlignmentModel(base.cfg, params, vocab), base.with_params):
            mine = {k: v.copy() for k, v in base.params.items()}
            model = build(mine)
            logits, digest = forward_logits(model, scene), param_hash(model.params)
            generate(scene, model, max_len=4)
            for arr in mine.values():
                assert arr.flags.writeable
                arr += 1.0
            assert param_hash(model.params) == digest
            np.testing.assert_array_equal(forward_logits(model, scene), logits)

    def test_prefix_ends_at_the_close_after_the_last_visual(self, vocab):
        rng = np.random.default_rng(3)
        close = vocab.vis_close_id
        assert model_module._shared_length(_prompt(rng, vocab, 4, 2), close) == 7
        assert model_module._shared_length(_prompt(rng, vocab, 0, 2), close) == 0
        # nothing after the [/3d]: nothing to share
        assert model_module._shared_length(_prompt(rng, vocab, 4, 0), close) == 0
        # a visual slot that no [/3d] follows
        bare = TokenSequence(np.array([vocab.bos_id, -1, 7, 8]), np.zeros((1, 7)),
                             np.zeros(4, dtype=bool))
        assert model_module._shared_length(bare, close) == 0

    def test_concurrent_callers_get_the_full_pass_text(self, vocab):
        """Four threads, two per model and scene, replace and fork the one
        entry under each other: each answer is still the full-pass text."""
        jobs = []
        for seed in range(2):
            rng = np.random.default_rng(700 + seed)
            model = _decode_model(vocab, seed)
            scene = rng.normal(size=(int(rng.integers(1, 6)), 7))
            words = list(vocab.words[5:])
            prompts = [assemble_sequence("scene", scene, " ".join(rng.choice(words, 3)), "",
                                         vocab).prefix_before_answer() for _ in range(4)]
            want = [vocab.decode(_reference_decode(p, model, 8)[0]) for p in prompts]
            jobs += [(model, prompts, want), (model, prompts[::-1], want[::-1])]
        wrong = []

        def ask(model, prompts, want):
            for _ in range(10):
                wrong.extend(p for p, w in zip(prompts, want) if generate(p, model, max_len=8) != w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=job) for job in jobs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    def test_entry_does_not_keep_the_model_alive(self, vocab):
        """The stored scene prefix holds its model weakly: once the caller
        drops the model, nothing keeps it alive."""
        rng = np.random.default_rng(9)
        model = _decode_model(vocab, 4)
        generate(_prompt(rng, vocab, 3, 4), model, max_len=3)
        ref = weakref.ref(model)
        assert model_module._shared_prefix[1].model() is model  # this call stored it
        del model
        gc.collect()
        assert ref() is None
