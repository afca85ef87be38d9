"""Run configuration with desk-scale defaults, and the one reader that turns
JSON dicts back into config dataclasses.

Desk-scale numbers keep everything CPU-trainable in minutes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError

ENV_CONFIG_PATH = "SCENEFUSION_CONFIG"


def config_from_dict(cls, d):
    """Inverse of `dataclasses.asdict` after a JSON round trip.

    Lists come back as tuples and missing keys keep their defaults (files
    written before a field existed). Unknown keys, a non-object and values
    the dataclass rejects raise ConfigError.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    except TypeError as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    resolution: float = 0.18
    knn_k: int = 5
    feature_dim: int = 16
    h: int = 32
    h_mid: int = 32
    n_layers: int = 2
    n_heads: int = 2
    max_len: int = 512
    n_views: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ConfigError(f"resolution must be finite and positive, got {self.resolution}")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if self.feature_dim < 4:
            raise ConfigError("feature_dim must be >= 4")


def load_config(path=None) -> RunConfig:
    """Load a config JSON; falls back to $SCENEFUSION_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return RunConfig()
    with open(path, encoding="utf-8") as f:
        return config_from_dict(RunConfig, json.load(f))
