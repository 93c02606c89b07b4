"""The shipped configs load, build and run; the protocol tables agree."""

import dataclasses
import inspect
from pathlib import Path

import pytest

from papsim import (ConfigError, PhaseFrame, SyntheticMoleculeSpec,
                    build_system, build_three_level, load_config, scan_2d,
                    validate_config)
from papsim.config import (_FRAME_KEYS, _JSON_TYPES, _SYNTHETIC_KEYS,
                           _SYNTHETIC_REQUIRED, _THREE_LEVEL_KEYS, _TRAIN_KEYS,
                           axis_values)
from papsim.protocols import RUNNERS

SHIPPED = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


def test_config_keys_and_runners_agree():
    assert list(_TRAIN_KEYS) == [*RUNNERS, "scan"]
    for protocol, runner in RUNNERS.items():
        # a train section may set exactly its runner's keywords but three,
        # each to the JSON form of its annotation
        params = inspect.signature(runner).parameters
        assert set(_TRAIN_KEYS[protocol]) == set(params) - {"levels", "frame",
                                                            "record"}
        for key, types in _TRAIN_KEYS[protocol].items():
            assert types == [_JSON_TYPES[part]
                             for part in params[key].annotation.split(" | ")]
    names = lambda key: [name for name, _ in _TRAIN_KEYS["pairs"][key]]
    assert names("steps") == ["an int", "null"]
    assert names("dump_phase_mask") == ["a list of numbers", "null"]
    assert names("delta_t_small") == ["a number", "null"]
    # a scan's train is a pairs train but for the two delays its axes set
    assert _TRAIN_KEYS["scan"] == {
        key: types for key, types in _TRAIN_KEYS["pairs"].items()
        if key not in ("delta_T", "delta_t_small")}


def test_system_and_frame_keys_are_their_builders_keywords():
    assert set(_THREE_LEVEL_KEYS) == set(
        inspect.signature(build_three_level).parameters)
    fields = dataclasses.fields(SyntheticMoleculeSpec)
    assert set(_SYNTHETIC_KEYS) == {f.name for f in fields}
    # the spec's fields without a default, in field order
    assert _SYNTHETIC_REQUIRED == ["n_intermediate", "center_energy",
                                   "spacing_pattern"]
    assert set(_FRAME_KEYS) == set(
        inspect.signature(PhaseFrame.for_system).parameters) - {"system"}


@pytest.mark.parametrize("protocol", list(RUNNERS))
def test_train_section_rejects_frame_and_record(protocol):
    train = {"n_pairs": 2, "delta_T": 10.0, "delta_t_small": 4.0,
             "pump_area": 1.0, "dump_area": 1.0, "alpha_pump": 0.1,
             "alpha_dump": 0.1}
    train = {k: v for k, v in train.items() if k in _TRAIN_KEYS[protocol]}
    cfg = {"protocol": protocol, "system": {"three_level": {}}}
    validate_config({**cfg, "train": train})
    for key, value in (("frame", None), ("record", "none")):
        with pytest.raises(ConfigError,
                           match=rf"unknown keys in train: \['{key}'\]"):
            validate_config({**cfg, "train": {**train, key: value}})


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_runs(path):
    cfg = load_config(str(path))
    system = build_system(cfg)
    train = dict(cfg["train"], n_pairs=2, steps=50)
    if cfg["protocol"] == "scan":
        delta_T = axis_values(cfg["scan"], "delta_T")[:1]
        delta_t = axis_values(cfg["scan"], "delta_t")[:1]
        emap = scan_2d(system, train, delta_T, delta_t, workers=1)
        efficiency = emap.efficiency[0, 0]
    else:
        result = RUNNERS[cfg["protocol"]](system, record="none", **train)
        efficiency = result.final_target_population
    assert 0.0 <= efficiency <= 1.0
