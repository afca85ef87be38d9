"""Tiny causal transformer over mixed visual/text sequences, in numpy.

Everything is float64 and every gradient is derived by hand, which keeps the
whole model finite-difference checkable and bit-reproducible: fixed seeds and
fixed batch order give bit-identical parameters, losses, and checkpoints.

Forward pass per sequence:
  x = embed[text tokens] with projected visual vectors scattered into their
      slots, plus learned absolute position embeddings
  n_layers pre-norm blocks: x += attn(LN(x)); x += mlp(LN(x))
  logits = head(LN(x))

Attention carries a learned per-head relative-distance bias added to the
scores. Sequences here have variable-length visual prefixes, so "the word k
positions back" is invisible to absolute position embeddings; the relative
bias gives heads that addressing mode directly.

The answer loss at position i reads the logits at position i-1, so only
masked positions (answer tokens and <eos>) contribute. Per-sequence mean
over masked tokens, then mean over the batch.

Backward, in two halves. The activation-gradient chain always runs: head ->
ln_f -> every layer in reverse -> dx at the visual slots -> the projection's
backward. The weight-gradient half (head, ln_f, each layer's LN, attention,
MLP and relative bias, pos, embed) runs only when a trainable prefix covers
an lm.* parameter, so a stage-1 step, which trains the projection alone,
skips every lm.* weight-gradient matmul. Each MLP keeps its GELU's erf term
from the forward pass for the backward. Both halves do the operations of a
single all-gradients pass on the same operands, so every gradient bit, and
with it every checkpoint, is the same whichever stage asks.

Decoding: `generate` checks its prompt once, then runs it through the
model once, keeping each layer's keys and values in a decode state. Every
later `forward_logits` call on the sequence `generate` built computes one
new row per layer against those keys and values (relative bias
`rel[:, t-j]`, position embedding `pos[t]`); the visual prefix is packed and
projected only once. `generate` builds those sequences without re-running
`TokenSequence`'s checks, since each is the checked prompt plus argmax ids.
A call with exactly one new row runs `_decode_row`, the same operations on
1-D vectors, reading each layer's weights from its record in
`AlignmentModel.layers` (a tuple of views built once per model) instead of
by name. Any other sequence gets the full recompute.

Attention is causal, so a prompt's scene prefix (`<bos> [3d] v_1 ... v_K
[/3d]`, the rows up to the [/3d] after the last visual slot) has keys and
values that do not depend on the question after it. The module keeps one
entry: the decode state of the last prompt pass over a scene prefix, and
its key, the prefix tokens and the visuals' dtype, shape and bytes (bytes,
not identity: prompts slice their visuals anew). A state never rewrites a
computed row, so the next `generate` call for the same model object with an
equal key copies that state's prefix rows; its prompt pass then computes
only the rows after them. A prompt with no visual slot, or nothing after
the [/3d], neither stores nor reuses. The entry is replaced, never changed
in place, so concurrent callers at worst miss a reuse.

A model's weights never change: `AlignmentModel` keeps an immutable copy
of each parameter array, so an entry stays current for as long as its model
object lives, and new weights mean a new model object (`with_params`).

Contract: a prompt pass that misses is the plain full pass, bit for bit.
On a hit, and on every row computed against cached keys and values, the
logits are within 1e-12 of a full recompute (rounding differs with the
number of rows a matmul or a softmax sum covers) and the greedy tokens are
the same. So a hit's logits depend, within rounding, on the call that
stored the entry; the generated text does not.
"""

from __future__ import annotations

import hashlib
import math
import types
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError
from .projector import (
    gelu_grad_from_term,
    gelu_with_term,
    init_projection_params,
    project,
    project_backward,
)
from .sequence import VISUAL_SLOT, TokenSequence
from .vocab import Vocabulary

_LN_EPS = 1e-5

# One layer's parameters, in the order of `AlignmentModel.layers` records.
_LAYER_PARAMS = ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv",
                 "attn.bv", "attn.rel", "attn.wo", "attn.bo", "ln2.g", "ln2.b",
                 "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    h: int = 32
    n_layers: int = 2
    n_heads: int = 2
    ff: int = 0  # 0 means 4*h
    max_len: int = 512
    proj_in: int = 19  # feature dim + 3 coordinate dims
    proj_mid: int = 32

    def __post_init__(self):
        if self.ff == 0:
            object.__setattr__(self, "ff", 4 * self.h)
        for name in ("vocab_size", "h", "n_layers", "n_heads", "ff", "max_len", "proj_in", "proj_mid"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.h % self.n_heads != 0:
            raise ConfigError(f"h={self.h} not divisible by n_heads={self.n_heads}")

    @property
    def head_dim(self) -> int:
        return self.h // self.n_heads


def init_params(cfg: ModelConfig, seed: int = 0,
                word_grounding: dict[int, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Parameter dict in a fixed insertion order (serialization depends on it).

    `word_grounding` maps token ids to visual-space feature vectors (the
    simulator's category embeddings). When given, those word embeddings and
    the projection layer initialize into one shared random lift of the visual
    feature space, mirroring the text/image alignment a pretrained
    contrastive feature extractor hands the full-scale pipeline for free.
    Everything stays trainable; this only shapes the starting point.
    """
    rng = np.random.default_rng(seed)
    params = init_projection_params(rng, cfg.proj_in, cfg.proj_mid, cfg.h)
    params["lm.embed"] = rng.normal(0.0, 0.1, size=(cfg.vocab_size, cfg.h))
    params["lm.pos"] = rng.normal(0.0, 0.05, size=(cfg.max_len, cfg.h))
    for l in range(cfg.n_layers):
        p = f"lm.layers.{l}."
        params[p + "ln1.g"] = np.ones(cfg.h)
        params[p + "ln1.b"] = np.zeros(cfg.h)
        for nm in ("wq", "wk", "wv", "wo"):
            params[p + "attn." + nm] = rng.normal(0.0, 0.05, size=(cfg.h, cfg.h))
        for nm in ("bq", "bk", "bv", "bo"):
            params[p + "attn." + nm] = np.zeros(cfg.h)
        params[p + "attn.rel"] = np.zeros((cfg.n_heads, cfg.max_len))
        params[p + "ln2.g"] = np.ones(cfg.h)
        params[p + "ln2.b"] = np.zeros(cfg.h)
        params[p + "mlp.w1"] = rng.normal(0.0, 0.05, size=(cfg.h, cfg.ff))
        params[p + "mlp.b1"] = np.zeros(cfg.ff)
        params[p + "mlp.w2"] = rng.normal(0.0, 0.05, size=(cfg.ff, cfg.h))
        params[p + "mlp.b2"] = np.zeros(cfg.h)
    params["lm.ln_f.g"] = np.ones(cfg.h)
    params["lm.ln_f.b"] = np.zeros(cfg.h)
    params["lm.head.w"] = rng.normal(0.0, 0.05, size=(cfg.h, cfg.vocab_size))
    params["lm.head.b"] = np.zeros(cfg.vocab_size)
    if word_grounding:
        e_dim = len(next(iter(word_grounding.values())))
        if e_dim > cfg.proj_in - 3:
            raise ConfigError("grounding dim exceeds the projection input's feature block")
        lift = rng.normal(0.0, 1.0, size=(e_dim, cfg.h)) / np.sqrt(e_dim)
        for tid, vec in word_grounding.items():
            params["lm.embed"][tid] = np.asarray(vec, dtype=np.float64) @ lift
        if e_dim <= cfg.proj_mid:
            # the projection starts out as (roughly) the same lift applied to
            # the leading feature block: identity into the hidden layer, lift
            # on the way out, so matching words and voxels begin nearby in
            # model space (skipped when the hidden layer is too narrow)
            w1 = rng.normal(0.0, 0.02, size=(cfg.proj_in, cfg.proj_mid))
            w1[:e_dim, :e_dim] += np.eye(e_dim)
            w2 = rng.normal(0.0, 0.02, size=(cfg.proj_mid, cfg.h))
            w2[:e_dim] += lift
            params["proj.w1"] = w1
            params["proj.w2"] = w2
        # head 0 of every layer starts as a similarity head: query and key
        # share one random projection, so grounded words already attend to
        # voxels of their own category before any training. Its distance-0
        # relative bias starts strongly negative, otherwise self-attention
        # (the most similar vector of all) swallows the whole softmax.
        g = rng.normal(0.0, 1.0, size=(cfg.h, cfg.head_dim)) * 0.3
        for l in range(cfg.n_layers):
            p = f"lm.layers.{l}."
            params[p + "attn.wq"][:, : cfg.head_dim] = g
            params[p + "attn.wk"][:, : cfg.head_dim] = g
            params[p + "attn.rel"][0, 0] = -6.0
    return params


@dataclass(frozen=True)
class AlignmentModel:
    """Configuration, weights and vocabulary of one model.

    The weights are immutable from construction: `params` is a read-only
    mapping over float64 copies of the given arrays, each a view of a
    `bytes` object, so an in-place write raises `ValueError`, and so does
    `setflags(write=True)` on an array, its base or any view of it. The
    caller's arrays stay its own. Training builds new models. `layers`
    holds, per layer, views of its `_LAYER_PARAMS` arrays in that order,
    for the one-row decode step.
    """

    cfg: ModelConfig
    params: dict[str, np.ndarray]
    vocab: Vocabulary
    layers: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frozen = {}
        for name, v in self.params.items():
            arr = np.asarray(v, dtype=np.float64)
            frozen[name] = np.frombuffer(arr.tobytes()).reshape(arr.shape)
        object.__setattr__(self, "params", types.MappingProxyType(frozen))
        object.__setattr__(self, "layers", tuple(
            tuple(frozen[f"lm.layers.{l}.{nm}"] for nm in _LAYER_PARAMS)
            for l in range(self.cfg.n_layers)))

    @staticmethod
    def create(cfg: ModelConfig, vocab: Vocabulary, seed: int = 0,
               word_grounding: dict[str, np.ndarray] | None = None) -> "AlignmentModel":
        if cfg.vocab_size != len(vocab):
            cfg = replace(cfg, vocab_size=len(vocab))
        grounding_ids = None
        if word_grounding:
            grounding_ids = {
                vocab.index[w.lower()]: v for w, v in word_grounding.items()
                if w.lower() in vocab.index
            }
        return AlignmentModel(cfg, init_params(cfg, seed, grounding_ids), vocab)

    def with_params(self, params: dict[str, np.ndarray]) -> "AlignmentModel":
        """A new model with this one's config and vocabulary and immutable
        copies of `params`."""
        return AlignmentModel(self.cfg, params, self.vocab)


def param_hash(params: dict[str, np.ndarray], prefix: str = "") -> str:
    """Byte-level hash of (a subset of) the parameter set, key-sorted."""
    h = hashlib.sha256()
    for name in sorted(params):
        if not name.startswith(prefix):
            continue
        h.update(name.encode())
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# batching


@dataclass
class PackedBatch:
    tokens: np.ndarray  # (B, T) int64, PAD-filled, 0 at visual slots
    visual_mask: np.ndarray  # (B, T) bool
    visuals: np.ndarray  # (K, Din) all visual vectors, batch-major order
    loss_mask: np.ndarray  # (B, T) bool


def _check_token_ids(tokens: np.ndarray, vocab_size: int) -> None:
    """ConfigError unless every id is VISUAL_SLOT or in [0, vocab_size).
    VISUAL_SLOT is -1, the one negative id, so two bounds say it all."""
    if tokens.size and (tokens.min() < VISUAL_SLOT or tokens.max() >= vocab_size):
        bad = tokens[(tokens < VISUAL_SLOT) | (tokens >= vocab_size)]
        raise ConfigError(f"token id {int(bad[0])} is outside the vocabulary [0, {vocab_size})")


def pack_batch(seqs: list[TokenSequence], pad_id: int, vocab_size: int) -> PackedBatch:
    """Pad the sequences into one batch; ConfigError on an empty batch or a
    token id outside [0, vocab_size) that is not a visual slot."""
    if not seqs:
        raise ConfigError("cannot pack an empty batch")
    b = len(seqs)
    t = max(len(s) for s in seqs)
    tokens = np.full((b, t), pad_id, dtype=np.int64)
    visual_mask = np.zeros((b, t), dtype=bool)
    loss_mask = np.zeros((b, t), dtype=bool)
    vis_parts = []
    for i, s in enumerate(seqs):
        n = len(s)
        row = s.tokens.copy()
        slots = row == VISUAL_SLOT
        row[slots] = 0
        tokens[i, :n] = row
        visual_mask[i, :n] = slots
        loss_mask[i, :n] = s.loss_mask
        if s.n_visual:
            vis_parts.append(s.visuals)
    _check_token_ids(tokens, vocab_size)  # visual slots are 0 here
    if vis_parts:
        visuals = np.concatenate(vis_parts, axis=0)
    else:
        visuals = np.zeros((0, 1))
    return PackedBatch(tokens, visual_mask, visuals, loss_mask)


# ---------------------------------------------------------------------------
# forward / backward


def _ln_forward(x, g, b):
    # sum / n is what np.mean computes, bit for bit, without its per-call overhead
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    rstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * rstd
    return xhat * g + b, (xhat, rstd)


def _ln_backward(dout, g, cache):
    """Input gradient of `_ln_forward` (means as there: sum / n)."""
    xhat, rstd = cache
    n = dout.shape[-1]
    dxhat = dout * g
    dx = rstd * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )
    return dx


def _ln_param_grads(dout, cache):
    """Gradients of `_ln_forward`'s gain and bias."""
    xhat, _ = cache
    axes = tuple(range(dout.ndim - 1))
    return np.sum(dout * xhat, axis=axes), np.sum(dout, axis=axes)


def _split_heads(x, n_heads):
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def _forward(params, cfg: ModelConfig, batch: PackedBatch, want_cache: bool,
             past: "_DecodeState | None" = None):
    """Logits for rows t0..T-1 of the batch's sequences.

    Without `past`, t0 = 0 and the batch holds every row. With `past` (one
    sequence), t0 = past.n: the keys and values of positions < t0 come from
    it, the batch holds only rows t0..T-1, and their keys and values are
    written into it. At t0 = 0 the operations are those of the plain pass.
    """
    t0 = past.n if past is not None else 0
    b, tn = batch.tokens.shape
    t = t0 + tn
    if t > cfg.max_len:
        raise ConfigError(f"sequence length {t} exceeds model max_len {cfg.max_len}")
    if batch.visuals.shape[0] and batch.visuals.shape[1] != cfg.proj_in:
        raise ConfigError(
            f"visual vector dim {batch.visuals.shape[1]} does not match proj_in {cfg.proj_in}"
        )
    x = params["lm.embed"][batch.tokens].copy()
    if batch.visuals.shape[0]:
        projected = project(batch.visuals, params)
        x[batch.visual_mask] = projected
    x = x + params["lm.pos"][t0:t]

    offset = np.subtract.outer(np.arange(t0, t), np.arange(t))
    future = offset < 0
    dist = np.maximum(offset, 0)
    scale = 1.0 / np.sqrt(cfg.head_dim)
    layer_caches = []
    for l in range(cfg.n_layers):
        p = f"lm.layers.{l}."
        a, ln1_cache = _ln_forward(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = _split_heads(a @ params[p + "attn.wq"] + params[p + "attn.bq"], cfg.n_heads)
        k = _split_heads(a @ params[p + "attn.wk"] + params[p + "attn.bk"], cfg.n_heads)
        v = _split_heads(a @ params[p + "attn.wv"] + params[p + "attn.bv"], cfg.n_heads)
        if past is not None:
            past.keys[l][:, :, t0:t] = k
            past.values[l][:, :, t0:t] = v
            if t0:
                k = past.keys[l][:, :, :t]
                v = past.values[l][:, :, :t]
        # scores, then the causal mask and the softmax, all in place
        att = q @ k.transpose(0, 1, 3, 2)
        att *= scale
        att += params[p + "attn.rel"][:, dist]
        np.copyto(att, -np.inf, where=future)
        att -= att.max(axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(att @ v)
        attn_out = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        x_mid = x + attn_out
        a2, ln2_cache = _ln_forward(x_mid, params[p + "ln2.g"], params[p + "ln2.b"])
        h1 = a2 @ params[p + "mlp.w1"] + params[p + "mlp.b1"]
        hg, erf_h1 = gelu_with_term(h1)
        x = x_mid + hg @ params[p + "mlp.w2"] + params[p + "mlp.b2"]
        if want_cache:
            layer_caches.append(
                dict(a=a, ln1=ln1_cache, q=q, k=k, v=v, att=att, ctx=ctx,
                     a2=a2, ln2=ln2_cache, h1=h1, erf_h1=erf_h1, hg=hg)
            )
    xf, lnf_cache = _ln_forward(x, params["lm.ln_f.g"], params["lm.ln_f.b"])
    logits = xf @ params["lm.head.w"] + params["lm.head.b"]
    cache = dict(layers=layer_caches, xf=xf, lnf=lnf_cache) if want_cache else None
    return logits, cache


def _ln_row(x, g, b):
    """`_ln_forward` of one row: its operations, with the means and 1/sqrt as
    Python floats and the affine step in place."""
    n = x.shape[0]
    xc = x - float(np.add.reduce(x)) / n
    xc *= 1.0 / math.sqrt(float(np.add.reduce(xc * xc)) / n + _LN_EPS)
    xc *= g
    xc += b
    return xc


def _decode_row(model: AlignmentModel, state: "_DecodeState", token) -> np.ndarray:
    """Logits of row t = state.n, holding text `token`, on 1-D vectors: the
    operations of the one-row `_forward(past=state)`, whose k and v rows go
    straight into the state. A last row has no future, so no causal mask.
    Each layer's weights come from its record in `model.layers`; the max and
    sum are the ufunc reductions `ndarray.max` and `ndarray.sum` call."""
    cfg, params = model.cfg, model.params
    t, nh, dh = state.n, cfg.n_heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dh)
    x = params["lm.embed"][token] + params["lm.pos"][t]
    for layer, keys, values in zip(model.layers, state.keys, state.values):
        g1, c1, wq, bq, wk, bk, wv, bv, rel, wo, bo, g2, c2, w1, b1, w2, b2 = layer
        keys, values = keys[0], values[0]
        a = _ln_row(x, g1, c1)
        q = a @ wq + bq
        keys[:, t] = (a @ wk + bk).reshape(nh, dh)
        values[:, t] = (a @ wv + bv).reshape(nh, dh)
        att = q.reshape(nh, 1, dh) @ keys[:, :t + 1].transpose(0, 2, 1)
        att *= scale
        att += rel[:, None, t::-1]  # distances t, ..., 0
        att -= np.maximum.reduce(att, axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= np.add.reduce(att, axis=-1, keepdims=True)
        ctx = (att @ values[:, :t + 1]).reshape(cfg.h)
        x_mid = x + (ctx @ wo + bo)
        hg, _ = gelu_with_term(_ln_row(x_mid, g2, c2) @ w1 + b1)
        x = x_mid + hg @ w2 + b2
    xf = _ln_row(x, params["lm.ln_f.g"], params["lm.ln_f.b"])
    return xf @ params["lm.head.w"] + params["lm.head.b"]


def _loss_from_logits(logits, batch: PackedBatch):
    """Per-sequence mean NLL over masked positions, then batch mean.

    Also returns the pieces needed to seed the backward pass.
    """
    bs, cols = np.nonzero(batch.loss_mask)
    if bs.size == 0:
        raise ConfigError("batch has no masked positions to score")
    if np.any(cols == 0):
        raise ConfigError("masked position at index 0 has no predictor position")
    b = batch.tokens.shape[0]
    counts = batch.loss_mask.sum(axis=1)
    rows = logits[bs, cols - 1]  # (M, V)
    m = rows.max(axis=1)
    logz = m + np.log(np.exp(rows - m[:, None]).sum(axis=1))
    targets = batch.tokens[bs, cols]
    nll = logz - rows[np.arange(bs.size), targets]
    per_seq = np.zeros(b)
    np.add.at(per_seq, bs, nll)
    per_seq = per_seq / np.maximum(counts, 1)
    loss_val = per_seq.mean()
    weights = 1.0 / (counts[bs] * b)
    return float(loss_val), per_seq, (bs, cols, targets, rows, logz, weights)


def _loss_backward_into_dlogits(logits_shape, filler):
    bs, cols, targets, rows, logz, weights = filler
    probs = np.exp(rows - logz[:, None])
    probs[np.arange(bs.size), targets] -= 1.0
    probs *= weights[:, None]
    dlogits = np.zeros(logits_shape)
    # (b, i-1) pairs are unique within a batch, so plain fancy assignment is safe.
    dlogits[bs, cols - 1] = probs
    return dlogits


def _backward(params, cfg: ModelConfig, batch: PackedBatch, cache, dlogits, lm_weights: bool):
    """Gradients of the loss: the projection's always, the lm.* ones only
    when `lm_weights`. The `if lm_weights:` blocks are the weight-gradient
    half (module docstring); the rest is the activation-gradient chain."""
    grads = {}
    xf = cache["xf"]
    b, t, _ = xf.shape

    def flat(arr):
        return arr.reshape(b * t, -1)

    if lm_weights:
        grads["lm.head.w"] = flat(xf).T @ flat(dlogits)
        grads["lm.head.b"] = dlogits.sum(axis=(0, 1))
    dxf = dlogits @ params["lm.head.w"].T
    dx = _ln_backward(dxf, params["lm.ln_f.g"], cache["lnf"])
    if lm_weights:
        grads["lm.ln_f.g"], grads["lm.ln_f.b"] = _ln_param_grads(dxf, cache["lnf"])

    scale = 1.0 / np.sqrt(cfg.head_dim)
    dist = np.maximum(np.subtract.outer(np.arange(t), np.arange(t)), 0)
    for l in reversed(range(cfg.n_layers)):
        p = f"lm.layers.{l}."
        c = cache["layers"][l]
        # MLP block: x = x_mid + gelu(a2 @ w1 + b1) @ w2 + b2
        dm = dx
        dh1 = gelu_grad_from_term(c["h1"], c["erf_h1"])
        dh1 *= dm @ params[p + "mlp.w2"].T
        da2 = dh1 @ params[p + "mlp.w1"].T
        dx_mid = dx + _ln_backward(da2, params[p + "ln2.g"], c["ln2"])
        if lm_weights:
            grads[p + "mlp.w2"] = flat(c["hg"]).T @ flat(dm)
            grads[p + "mlp.b2"] = dm.sum(axis=(0, 1))
            grads[p + "mlp.w1"] = flat(c["a2"]).T @ flat(dh1)
            grads[p + "mlp.b1"] = dh1.sum(axis=(0, 1))
            grads[p + "ln2.g"], grads[p + "ln2.b"] = _ln_param_grads(da2, c["ln2"])
        # Attention block: x_mid = x_in + merge(att @ v) @ wo + bo
        dctx = _split_heads(dx_mid @ params[p + "attn.wo"].T, cfg.n_heads)
        att, q, k, v = c["att"], c["q"], c["k"], c["v"]
        dscores = dctx @ v.transpose(0, 1, 3, 2)  # d att, then d scores in place
        dv = att.transpose(0, 1, 3, 2) @ dctx
        dscores -= np.add.reduce(dscores * att, axis=-1, keepdims=True)
        dscores *= att
        draw = dscores * scale
        dqkv = [_merge_heads(z) for z in (draw @ k, draw.transpose(0, 1, 3, 2) @ q, dv)]
        a = c["a"]
        da = np.zeros_like(a)
        for name, dz in zip("qkv", dqkv):
            da += dz @ params[p + f"attn.w{name}"].T
        dx_in_ln = _ln_backward(da, params[p + "ln1.g"], c["ln1"])
        if lm_weights:
            grads[p + "attn.wo"] = flat(c["ctx"]).T @ flat(dx_mid)
            grads[p + "attn.bo"] = dx_mid.sum(axis=(0, 1))
            drel = np.zeros_like(params[p + "attn.rel"])
            dscores_heads = dscores.sum(axis=0)  # (nh, T, T)
            for hd in range(cfg.n_heads):
                np.add.at(drel[hd], dist.ravel(), dscores_heads[hd].ravel())
            grads[p + "attn.rel"] = drel
            for name, dz in zip("qkv", dqkv):
                grads[p + f"attn.w{name}"] = flat(a).T @ flat(dz)
                grads[p + f"attn.b{name}"] = dz.sum(axis=(0, 1))
            grads[p + "ln1.g"], grads[p + "ln1.b"] = _ln_param_grads(da, c["ln1"])
        dx = dx_mid + dx_in_ln

    # Input: x = scatter(embed, projected visuals) + pos
    if lm_weights:
        grads["lm.pos"] = np.zeros_like(params["lm.pos"])
        grads["lm.pos"][:t] = dx.sum(axis=0)
        dembed = np.zeros_like(params["lm.embed"])
        text_mask = ~batch.visual_mask
        np.add.at(dembed, batch.tokens[text_mask], dx[text_mask])
        grads["lm.embed"] = dembed
    if batch.visuals.shape[0]:
        dvis_out = dx[batch.visual_mask]
        proj_grads, _ = project_backward(batch.visuals, params, dvis_out)
        grads.update(proj_grads)
    else:
        for nm in ("proj.w1", "proj.b1", "proj.w2", "proj.b2"):
            grads[nm] = np.zeros_like(params[nm])
    return grads


def batch_loss_and_grads(model: AlignmentModel, seqs: list[TokenSequence],
                         trainable_prefixes: tuple[str, ...] | None = None):
    """Mean masked NLL over a batch plus gradients for the trainable subset.

    The lm.* weight gradients are computed only when some trainable prefix
    covers an lm.* parameter (stage 2, or no prefixes at all).
    """
    batch = pack_batch(seqs, model.vocab.pad_id, model.cfg.vocab_size)
    logits, cache = _forward(model.params, model.cfg, batch, want_cache=True)
    loss_val, per_seq, filler = _loss_from_logits(logits, batch)
    dlogits = _loss_backward_into_dlogits(logits.shape, filler)
    lm_weights = trainable_prefixes is None or any(
        k.startswith(trainable_prefixes) for k in model.params if k.startswith("lm."))
    grads = _backward(model.params, model.cfg, batch, cache, dlogits, lm_weights)
    if trainable_prefixes is not None:
        grads = {k: g for k, g in grads.items() if k.startswith(trainable_prefixes)}
    return loss_val, per_seq, grads


def loss(seq: TokenSequence, model: AlignmentModel) -> float:
    """Mean NLL over the sequence's masked (answer + <eos>) positions."""
    if not seq.loss_mask.any():
        raise ConfigError("sequence has no masked positions; nothing to score")
    batch = pack_batch([seq], model.vocab.pad_id, model.cfg.vocab_size)
    logits, _ = _forward(model.params, model.cfg, batch, want_cache=False)
    val, _, _ = _loss_from_logits(logits, batch)
    return val


def gradients(seq: TokenSequence, model: AlignmentModel,
              trainable_prefixes: tuple[str, ...] = ("proj.", "lm.")) -> dict[str, np.ndarray]:
    """Exact loss gradients for every parameter matching the trainable prefixes."""
    _, _, grads = batch_loss_and_grads(model, [seq], trainable_prefixes)
    return grads


class _DecodeState:
    """Keys, values and logits of the rows one `generate` call has computed.

    The buffers are sized to the decode horizon once and never re-allocated,
    and a computed row is never rewritten.
    """

    def __init__(self, model: AlignmentModel, visuals: np.ndarray, horizon: int):
        cfg = model.cfg
        self.model = weakref.ref(model)  # the stored state does not keep a model alive
        self.visuals = visuals
        self.n = 0  # rows computed so far
        self.tokens = np.empty(horizon, dtype=np.int64)
        shape = (1, cfg.n_heads, horizon, cfg.head_dim)
        self.keys = [np.empty(shape) for _ in range(cfg.n_layers)]
        self.values = [np.empty(shape) for _ in range(cfg.n_layers)]
        self.logits = np.empty((horizon, cfg.vocab_size))

    def fork(self, source: "_DecodeState", p: int) -> None:
        """Take `source`'s first `p` rows as this state's first rows."""
        for mine, theirs in zip(self.keys + self.values, source.keys + source.values):
            mine[:, :, :p] = theirs[:, :, :p]
        self.logits[:p] = source.logits[:p]
        self.tokens[:p] = source.tokens[:p]
        self.n = p

    def continues(self, model: AlignmentModel, seq: TokenSequence) -> bool:
        """Whether `seq` is this state's rows plus new ones: same model and
        visuals, and either no row yet or the cached rows a prefix of
        `seq.tokens` whose new rows hold no visual slot."""
        t, n = len(seq), self.n
        if model is not self.model() or seq.visuals is not self.visuals or t > len(self.tokens):
            return False
        # bytes and list compares: a ufunc call per decoded token costs more
        return n == 0 or (
            n < t and self.tokens[:n].tobytes() == seq.tokens[:n].tobytes()
            and VISUAL_SLOT not in seq.tokens[n:].tolist())


def _shared_length(prompt: TokenSequence, close_id: int) -> int:
    """Rows of `prompt` up to and including the [/3d] right after its last
    visual slot; 0 when it has no visual slot or nothing after that [/3d]."""
    slots = np.flatnonzero(prompt.tokens == VISUAL_SLOT)
    if not slots.size:
        return 0
    p = int(slots[-1]) + 2
    if p >= len(prompt) or prompt.tokens[p - 1] != close_id:
        return 0
    return p


# The one shared prefix: (key, the decode state of the last prompt pass
# over a scene prefix).
_shared_prefix: tuple[tuple, _DecodeState] | None = None


@dataclass(frozen=True)
class _DecodeSequence(TokenSequence):
    """A sequence built by `generate`; `state` holds its rows computed so far."""

    state: _DecodeState = field(repr=False)

    @classmethod
    def unchecked(cls, tokens: np.ndarray, visuals: np.ndarray, loss_mask: np.ndarray,
                  state: _DecodeState) -> "_DecodeSequence":
        """The sequence of these fields, without `TokenSequence`'s checks:
        for `generate`'s sequences, a checked prompt plus argmax ids in
        [0, V) under an all-false mask, valid by construction."""
        seq = cls.__new__(cls)
        seq.__dict__.update(tokens=tokens, visuals=visuals, loss_mask=loss_mask, state=state)
        return seq


def forward_logits(model: AlignmentModel, seq: TokenSequence) -> np.ndarray:
    """(T, vocab) logits for one sequence; row i predicts the token at i+1.

    On a sequence built by `generate` whose decode state covers a prefix of
    `seq.tokens`, only the rows after that prefix are computed.
    """
    state = getattr(seq, "state", None)
    if state is None or not state.continues(model, seq):
        batch = pack_batch([seq], model.vocab.pad_id, model.cfg.vocab_size)
        logits, _ = _forward(model.params, model.cfg, batch, want_cache=False)
        return logits[0]
    t0, t = state.n, len(seq)
    # the new rows are text tokens (`continues` checked): no visual slot, no loss
    if t0 and t == t0 + 1:
        logits = _decode_row(model, state, seq.tokens[t0])
    else:
        if t0 == 0:
            batch = pack_batch([seq], model.vocab.pad_id, model.cfg.vocab_size)
        else:
            new = seq.tokens[None, t0:]
            none = np.zeros(new.shape, dtype=bool)
            batch = PackedBatch(new, none, np.zeros((0, 1)), none)
        logits = _forward(model.params, model.cfg, batch, want_cache=False, past=state)[0][0]
    state.tokens[t0:t] = seq.tokens[t0:]
    state.logits[t0:t] = logits
    state.n = t
    return state.logits[:t].copy()


def generate(prefix: TokenSequence, model: AlignmentModel, max_len: int = 32) -> str:
    """Greedily extend a prompt until <eos> or max_len new tokens.

    Ties break toward the lowest token id (argmax semantics). Returns the
    generated words (specials stripped). The prompt is checked once, up
    front: ConfigError when it is empty, reaches into the answer region or
    holds a token id outside [0, V) that is not a visual slot. Each new
    token, and the closing <eos>, is one `forward_logits` call on the whole
    sequence so far, a `_DecodeSequence` built without re-running those
    checks: the prompt plus argmax ids, so valid by construction.
    When the prompt's scene prefix, for the same model object, has the key
    of the stored entry (its tokens and its visuals' dtype, shape and bytes),
    the first call computes only the rows after it; otherwise the first call
    is the plain full pass, and its decode state becomes the entry. A
    model's weights never change, so the entry needs no other check. See
    the module docstring for what each call computes and for how close the
    logits are to a full pass.
    """
    global _shared_prefix
    n = len(prefix)
    if not n:
        raise ConfigError("generation prompt is empty")
    if prefix.loss_mask.any():
        raise ConfigError("generation prefix must end before the answer region")
    _check_token_ids(prefix.tokens, model.cfg.vocab_size)
    horizon = min(model.cfg.max_len, n + max(max_len, 0))
    state = _DecodeState(model, prefix.visuals, horizon)
    # the sequence so far, and the all-false mask, as views of fixed buffers
    tokens = np.empty(max(horizon, n), dtype=np.int64)
    tokens[:n] = prefix.tokens
    no_loss = np.zeros(len(tokens), dtype=bool)
    to_share = _shared_length(prefix, model.vocab.vis_close_id)
    if to_share:
        vis = prefix.visuals
        key = (prefix.tokens[:to_share].tobytes(), vis.dtype.str, vis.shape, vis.tobytes())
        shared = _shared_prefix
        if shared is not None and shared[1].model() is model and shared[0] == key:
            state.fork(shared[1], to_share)
            to_share = 0
    eos = model.vocab.eos_id
    for _ in range(max_len):
        if n >= model.cfg.max_len:
            break
        seq = _DecodeSequence.unchecked(tokens[:n], prefix.visuals, no_loss[:n], state)
        logits = forward_logits(model, seq)
        if to_share and state.n >= to_share:  # the prompt pass filled the state
            _shared_prefix = (key, state)
            to_share = 0
        nxt = int(logits[-1].argmax())
        if nxt == eos:
            break
        tokens[n] = nxt
        n += 1
    return model.vocab.decode(tokens[len(prefix):n].tolist())
