"""Two-stage training: projection-only pretraining, then joint fine-tuning.

Stage 1 updates only the projection parameters and leaves the language model
bit-identical; stage 2 updates everything. The optimizer is AdamW (adaptive
moments with decoupled weight decay) with a linear learning-rate warmup.
Training is deterministic: a fixed seed fixes the batch order, and parameter
updates run in the params dict's fixed key order. A model's weights never
change, so `train` updates private writable copies and builds a new model
from them for each step and for its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, TrainingDivergedError
from .model import AlignmentModel, batch_loss_and_grads
from .sequence import TokenSequence

STAGE1 = "stage1"
STAGE2 = "stage2"


@dataclass(frozen=True)
class TrainConfig:
    stage: str = STAGE1
    lr: float = 1e-3
    warmup_steps: int = 50
    warmup_lr: float = 1e-4
    batch_size: int = 8
    steps: int = 500
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.stage not in (STAGE1, STAGE2):
            raise ConfigError(f"stage must be '{STAGE1}' or '{STAGE2}', got {self.stage!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not math.isfinite(self.warmup_lr):
            raise ConfigError(f"warmup_lr must be finite, got {self.warmup_lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")

    def lr_at(self, step: int) -> float:
        """Linear warmup from warmup_lr to lr, then constant."""
        if self.warmup_steps <= 0 or step >= self.warmup_steps:
            return self.lr
        frac = step / self.warmup_steps
        return self.warmup_lr + (self.lr - self.warmup_lr) * frac


def trainable_prefixes(stage: str) -> tuple[str, ...]:
    return ("proj.",) if stage == STAGE1 else ("proj.", "lm.")


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    # room for one update's two temporaries, reused by every parameter
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamWState, cfg: TrainConfig, lr: float) -> None:
    """In-place AdamW update of the parameter arrays named in grads, which
    must be writable copies: a model's own weights are immutable.

    Decoupled weight decay applies to 2-D weight matrices only (biases,
    layernorm vectors, and embeddings stay undecayed). Per parameter:
        m = b1 m + (1 - b1) g;   v = b2 v + (1 - b2) g^2
        p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay p])
    evaluated in that order through two reused scratch buffers, so no
    temporary array is allocated once the state has seen every parameter.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        n = p.size
        if state.scratch.size < 2 * n:
            state.scratch = np.empty(2 * n)
        tmp = state.scratch[:n].reshape(p.shape)
        update = state.scratch[n: 2 * n].reshape(p.shape)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        if cfg.weight_decay and p.ndim == 2 and not name.startswith("lm.embed"):
            update += np.multiply(p, cfg.weight_decay, out=tmp)
        update *= lr
        p -= update


def train(dataset: list[TokenSequence], cfg: TrainConfig,
          model: AlignmentModel) -> tuple[AlignmentModel, list[float]]:
    """Run cfg.steps optimizer steps; returns the trained model and loss trace.

    The input model is untouched: each step updates private copies of its
    weights, and the returned model is a new one with immutable copies of
    the final values. Batches cycle through seeded permutations of the
    dataset; a non-finite loss aborts with the offending step.
    """
    if not dataset:
        raise ConfigError("train needs a nonempty dataset")
    params = {k: v.copy() for k, v in model.params.items()}
    prefixes = trainable_prefixes(cfg.stage)
    state = AdamWState()
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    trace: list[float] = []
    for step in range(cfg.steps):
        batch_ids = []
        while len(batch_ids) < cfg.batch_size:
            if not order:
                order = rng.permutation(len(dataset)).tolist()
            batch_ids.append(order.pop())
        batch = [dataset[i] for i in batch_ids]
        loss_val, _, grads = batch_loss_and_grads(model.with_params(params), batch, prefixes)
        if not math.isfinite(loss_val):
            raise TrainingDivergedError(
                f"non-finite loss {loss_val} at step {step}", step=step, loss=loss_val
            )
        trace.append(loss_val)
        adamw_step(params, grads, state, cfg, cfg.lr_at(step))
    return model.with_params(params), trace
