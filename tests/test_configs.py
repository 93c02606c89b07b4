"""The shipped configs load, build and run; the protocol tables agree."""

import inspect
from pathlib import Path

import pytest

from papsim import build_system, load_config, scan_2d
from papsim.config import _TRAIN_KEYS, axis_values
from papsim.protocols import RUNNERS

SHIPPED = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


def test_config_keys_and_runners_agree():
    assert set(_TRAIN_KEYS) == set(RUNNERS)
    for protocol, keys in _TRAIN_KEYS.items():
        # every train key a config may set is a keyword of its runner
        assert keys <= set(inspect.signature(RUNNERS[protocol]).parameters)


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
