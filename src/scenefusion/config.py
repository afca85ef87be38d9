"""The one reader that turns JSON dicts back into config dataclasses."""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError


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
