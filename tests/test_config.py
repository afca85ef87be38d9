"""The one config reader: JSON dicts back into config dataclasses
(DatagenConfig has its own cases in test_datagen.py)."""

import json
from dataclasses import asdict

import pytest

from scenefusion.align.model import ModelConfig
from scenefusion.align.training import TrainConfig
from scenefusion.config import config_from_dict
from scenefusion.errors import ConfigError
from scenefusion.worldsim import WorldConfig

CONFIGS = [
    ModelConfig(vocab_size=40, h=16, n_heads=4, proj_in=7),
    TrainConfig(stage="stage2", lr=2e-5, batch_size=4, steps=9),
    WorldConfig(room_size=(4.0, 3.0, 2.5), categories=("cup", "vase"), n_objects=2),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
def test_json_round_trip(cfg):
    assert config_from_dict(type(cfg), json.loads(json.dumps(asdict(cfg)))) == cfg


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
def test_unknown_key_raises(cfg):
    d = asdict(cfg)
    d["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(type(cfg), d)


def test_missing_keys_keep_defaults():
    assert config_from_dict(TrainConfig, {"steps": 7}) == TrainConfig(steps=7)
    assert config_from_dict(WorldConfig, {}) == WorldConfig()


@pytest.mark.parametrize("d", [
    [1, 2],                     # not an object
    {},                         # a required field is missing
    {"vocab_size": 9, "h": "wide"},  # a value __post_init__ cannot compare
])
def test_bad_input_raises_config_error(d):
    with pytest.raises(ConfigError):
        config_from_dict(ModelConfig, d)
