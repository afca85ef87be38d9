"""Projection layer lifting voxel feature vectors into the language model's
embedding space: affine, GELU, affine. The production-sized preset uses
1030 -> 768 -> 768; desk-scale dimensions are configurable."""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from ..errors import ConfigError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_with_term(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x) for a float64 array x, and its erf term c = 1 + erf(x / sqrt 2),
    which `gelu_grad_from_term` reuses so a backward pass needs no second erf.
    Same operations as gelu's formula, in place."""
    c = x * _INV_SQRT2
    erf(c, out=c)
    c += 1.0
    y = x * 0.5
    y *= c
    return y, c


def gelu_grad_from_term(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """gelu_grad(x) for a float64 array x, given the erf term c of
    `gelu_with_term(x)`. Same operations as gelu_grad's formula, in place."""
    dy = x * -0.5
    dy *= x
    np.exp(dy, out=dy)
    dy *= x
    dy *= _INV_SQRT_2PI
    dy += c * 0.5
    return dy


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU: 0.5 * x * (1 + erf(x / sqrt 2))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:  # the helpers work in place, so give them an array
        return gelu(x[None])[0]
    return gelu_with_term(x)[0]


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d gelu / dx: 0.5 * (1 + erf(x / sqrt 2)) + x * exp(-x^2 / 2) / sqrt(2 pi)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return gelu_grad(x[None])[0]
    return gelu_grad_from_term(x, gelu_with_term(x)[1])


def init_projection_params(rng: np.random.Generator, in_dim: int, mid_dim: int, out_dim: int,
                           scale: float = 0.05) -> dict[str, np.ndarray]:
    return {
        "proj.w1": rng.normal(0.0, scale, size=(in_dim, mid_dim)),
        "proj.b1": np.zeros(mid_dim),
        "proj.w2": rng.normal(0.0, scale, size=(mid_dim, out_dim)),
        "proj.b2": np.zeros(out_dim),
    }


def project(visual_tokens: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Apply the two-layer projection to a stack of vectors, order preserved."""
    x = np.asarray(visual_tokens, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    w1 = params["proj.w1"]
    if x.shape[1] != w1.shape[0]:
        raise ConfigError(
            f"projection input dim {x.shape[1]} does not match weights ({w1.shape[0]})"
        )
    out = gelu(x @ w1 + params["proj.b1"]) @ params["proj.w2"] + params["proj.b2"]
    return out[0] if single else out


def project_backward(visual_tokens: np.ndarray, params: dict[str, np.ndarray],
                     dout: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of the projection w.r.t. its parameters and inputs."""
    x = np.atleast_2d(np.asarray(visual_tokens, dtype=np.float64))
    dout = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    pre = x @ params["proj.w1"] + params["proj.b1"]
    hidden, c = gelu_with_term(pre)
    dpre = gelu_grad_from_term(pre, c)
    dpre *= dout @ params["proj.w2"].T
    grads = {
        "proj.w2": hidden.T @ dout,
        "proj.b2": dout.sum(axis=0),
        "proj.w1": x.T @ dpre,
        "proj.b1": dpre.sum(axis=0),
    }
    return grads, dpre @ params["proj.w1"].T
