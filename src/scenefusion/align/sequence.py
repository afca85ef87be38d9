"""Mixed visual/text token sequences with an answer-only loss mask.

Layout of every training/inference sequence:

    <bos> [3d] v_1 ... v_K [/3d] ("i saw" iff frame-kind) instruction answer <eos>

Visual items carry the raw voxel feature vectors (projection input); the
projection is applied inside the model forward so that training can reach
the projection weights. The loss mask is 1 exactly on answer tokens and the
closing <eos>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .vocab import FRAME_PREFIX_WORDS, Vocabulary

VISUAL_SLOT = -1

SEQ_KIND_FRAME = "frame"
SEQ_KIND_SCENE = "scene"


@dataclass(frozen=True)
class TokenSequence:
    tokens: np.ndarray  # (T,) int64; VISUAL_SLOT at visual positions
    visuals: np.ndarray  # (K, Din) feature vectors, in slot order
    loss_mask: np.ndarray  # (T,) bool

    def __post_init__(self):
        tok = np.asarray(self.tokens, dtype=np.int64).reshape(-1)
        vis = np.asarray(self.visuals, dtype=np.float64)
        if vis.ndim != 2:
            vis = vis.reshape(0, 1) if vis.size == 0 else np.atleast_2d(vis)
        mask = np.asarray(self.loss_mask, dtype=bool).reshape(-1)
        if mask.shape != tok.shape:
            raise ConfigError("loss mask length does not match token length")
        slots = np.nonzero(tok == VISUAL_SLOT)[0]
        if slots.size != vis.shape[0]:
            raise ConfigError(
                f"{slots.size} visual slots but {vis.shape[0]} visual vectors"
            )
        if mask[slots].any():
            raise ConfigError("loss mask must be 0 on visual positions")
        if mask.size and mask[0]:
            raise ConfigError("loss mask cannot cover the first position")
        object.__setattr__(self, "tokens", tok)
        object.__setattr__(self, "visuals", vis)
        object.__setattr__(self, "loss_mask", mask)

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def n_visual(self) -> int:
        return self.visuals.shape[0]

    def prefix_before_answer(self) -> "TokenSequence":
        """Everything before the first masked position (the generation prompt)."""
        masked = np.nonzero(self.loss_mask)[0]
        end = int(masked[0]) if masked.size else len(self)
        tok = self.tokens[:end]
        n_vis = int(np.sum(tok == VISUAL_SLOT))
        return TokenSequence(tok, self.visuals[:n_vis], np.zeros(end, dtype=bool))


def assemble_sequence(
    kind: str,
    visual: np.ndarray,
    instruction: str,
    answer: str,
    vocab: Vocabulary,
) -> TokenSequence:
    """Build the standard sequence layout; see the module docstring.

    Frame-kind sequences get the "i saw" identifier words right after the
    visual span; scene-kind sequences do not.
    """
    if kind not in (SEQ_KIND_FRAME, SEQ_KIND_SCENE):
        raise ConfigError(f"sequence kind must be 'frame' or 'scene', got {kind!r}")
    visual = np.asarray(visual, dtype=np.float64)
    if visual.size == 0:
        visual = visual.reshape(0, visual.shape[1] if visual.ndim == 2 else 1)
    else:
        visual = np.atleast_2d(visual)
    n_vis = visual.shape[0]

    ids: list[int] = [vocab.bos_id, vocab.vis_open_id]
    ids.extend([VISUAL_SLOT] * n_vis)
    ids.append(vocab.vis_close_id)
    if kind == SEQ_KIND_FRAME:
        ids.extend(vocab.encode_word(w) for w in FRAME_PREFIX_WORDS)
    ids.extend(vocab.encode(instruction))
    answer_ids = vocab.encode(answer)
    answer_start = len(ids)
    ids.extend(answer_ids)
    ids.append(vocab.eos_id)

    mask = np.zeros(len(ids), dtype=bool)
    mask[answer_start:] = True  # answer tokens and the closing <eos>
    return TokenSequence(np.array(ids, dtype=np.int64), visual, mask)
