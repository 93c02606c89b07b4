"""Run configuration files.

Configs are JSON documents with a ``protocol`` field, a ``system``
section, and the sections that protocol's command reads. Unknown keys
anywhere are rejected, and so are a section or an output path the
protocol does not read: a typo or a stray section must fail loudly, not
silently fall back to a default or be ignored.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from .fields import PULSE_SHAPES
from .levels import (LevelSystem, SyntheticMoleculeSpec, build_synthetic_molecule,
                     build_three_level, load_system, strip_decay, validate_system)
from .propagator import PhaseFrame
from .protocols import RUNNERS


class ConfigError(ValueError):
    """A config file is malformed or inconsistent."""


# per protocol: the sections its command reads, required and optional,
# and the output paths it writes; every config may set the common keys
_COMMON_KEYS = {"protocol", "system", "decay", "output", "rng_seed", "comment"}
_PROTOCOL_TABLE = {
    **dict.fromkeys(RUNNERS, (("train",), ("frame",), {"result", "trajectory"})),
    "scan": (("train", "scan"), (), {"map"}),
    "revivals": (("revivals",), (), {"revivals"}),
    "sweep": (("train", "sweep"), ("frame",), {"sweep"})}
PROTOCOLS = tuple(_PROTOCOL_TABLE)

_SYSTEM_KEYS = {"three_level", "synthetic", "file"}

# a train section sets its runner's keywords, all but these three; it
# must set the ones without a default and both areas
_RUNNER_PARAMS = {name: inspect.signature(runner).parameters
                  for name, runner in RUNNERS.items()}
_TRAIN_KEYS = {name: set(params) - {"levels", "frame", "record"}
               for name, params in _RUNNER_PARAMS.items()}
_TRAIN_REQUIRED = {name: [key for key, param in params.items()
                          if param.default is param.empty and key != "levels"]
                   + ["pump_area", "dump_area"]
                   for name, params in _RUNNER_PARAMS.items()}

# every other train key is a number; null in these means the runner's default
_TRAIN_NUMBERS = set().union(*_TRAIN_KEYS.values()) - {"shape", "dump_phase_mask"}
_TRAIN_NULLABLE = {key for params in _RUNNER_PARAMS.values()
                   for key, param in params.items() if param.default is None}

SWEEP_PARAMETERS = ("n_pairs", "area_scale", "alpha")

_AXIS_KEYS = ("values", "start", "stop", "points")

_SCAN_KEYS = ({axis + key for axis in ("delta_T_", "delta_t_")
               for key in _AXIS_KEYS} | {"workers"})

_REVIVALS_KEYS = {"t_max", "dt", "threshold", "weights"}

_SWEEP_KEYS = {"protocol", "parameter", *_AXIS_KEYS}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    _require(isinstance(section, dict), f"{where} must be an object")
    extra = set(section) - allowed
    _require(not extra, f"unknown keys in {where}: {sorted(extra)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON form of each annotation the system and frame builders use
_JSON_TYPES = {
    "int": ("an int", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "None": ("null", lambda v: v is None),
    "tuple[float, ...]": ("a list of numbers",
                          lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _json_types(builder) -> dict:
    """keyword -> (name, check) of each JSON type its annotation allows,
    for every keyword of builder but the system PhaseFrame.for_system takes."""
    return {key: [_JSON_TYPES[part] for part in param.annotation.split(" | ")]
            for key, param in inspect.signature(builder).parameters.items()
            if key != "system"}


_THREE_LEVEL_KEYS = _json_types(build_three_level)
_SYNTHETIC_KEYS = _json_types(SyntheticMoleculeSpec)
_SYNTHETIC_REQUIRED = [key for key, param in inspect.signature(
    SyntheticMoleculeSpec).parameters.items() if param.default is param.empty]
_FRAME_KEYS = _json_types(PhaseFrame.for_system)


def _check_types(section: dict, types: dict, where: str) -> None:
    """section sets only keys of types, each to a value of its JSON type."""
    _check_keys(section, types.keys(), where)
    for key, value in section.items():
        _require(any(check(value) for _, check in types[key]),
                 f"{where}.{key} must be "
                 f"{' or '.join(name for name, _ in types[key])}, got {value!r}")


def _check_numbers(section: dict, keys: set, where: str,
                   nullable: set = frozenset()) -> None:
    """Each of keys present in section is an int or float (not a bool)."""
    for key in sorted(keys & set(section)):
        value = section[key]
        _require(_is_number(value) or (value is None and key in nullable),
                 f"{where}.{key} must be a number, got {value!r}")


def _check_number_list(value, name: str) -> None:
    _require(isinstance(value, list) and len(value) > 0
             and all(_is_number(v) for v in value),
             f"{name} must be a non-empty list of numbers, got {value!r}")


def _check_axis(section: dict, prefix: str, where: str) -> None:
    """Non-empty numeric values, else numeric start/stop and points >= 1."""
    ranged = [prefix + key for key in _AXIS_KEYS[1:] if prefix + key in section]
    if prefix + "values" in section:
        _require(not ranged, f"{where}.{prefix}values excludes "
                 + ", ".join(f"{where}.{key}" for key in ranged))
        _check_number_list(section[prefix + "values"],
                           f"{where}.{prefix}values")
        return
    _require(len(ranged) == 3,
             f"{where} needs {prefix}values or {prefix}start/stop/points")
    _check_numbers(section, {prefix + "start", prefix + "stop"}, where)
    points = section[prefix + "points"]
    _require(type(points) is int and points >= 1,
             f"{where}.{prefix}points must be an int >= 1, got {points!r}")


def load_config(path: str) -> dict:
    """Read and validate a config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Raise ConfigError on the first structural problem found."""
    _require(isinstance(cfg, dict), "config must be an object")
    protocol = cfg.get("protocol")
    _require(protocol in PROTOCOLS,
             f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    required, optional, outputs = _PROTOCOL_TABLE[protocol]
    _check_keys(cfg, _COMMON_KEYS.union(required, optional), f"a {protocol} config")
    for section in ("system", *required):
        _require(section in cfg, f"protocol {protocol!r} needs a {section} section")
    _validate_system_section(cfg["system"])

    if protocol in _TRAIN_KEYS:
        _validate_train(cfg["train"], protocol)
    if protocol == "scan":
        # the scanned delays come from the scan axes, not the train section
        _check_keys(cfg["train"], _TRAIN_KEYS["pairs"] - {"delta_T", "delta_t_small"},
                    "train")
        _validate_train_values(cfg["train"])
        _validate_scan(cfg["scan"])
    if protocol == "revivals":
        rev = cfg["revivals"]
        _check_keys(rev, _REVIVALS_KEYS, "revivals")
        _check_numbers(rev, {"t_max", "dt", "threshold"}, "revivals")
        if rev.get("weights") is not None:
            _check_number_list(rev["weights"], "revivals.weights")
        _require(float(rev.get("t_max", 0)) > 0, "revivals.t_max must be positive")
        _require(float(rev.get("dt", 0)) > 0, "revivals.dt must be positive")
    if protocol == "sweep":
        sweep = cfg["sweep"]
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
        swept = sweep.get("protocol")
        _require(swept in _TRAIN_KEYS,
                 f"sweep.protocol must be one of {tuple(_TRAIN_KEYS)}, "
                 f"got {swept!r}")
        _validate_train(cfg["train"], swept)
        _require(sweep.get("parameter") in SWEEP_PARAMETERS,
                 f"sweep.parameter must be one of {SWEEP_PARAMETERS}")
        _check_axis(sweep, "", "sweep")
    if "frame" in cfg:
        _check_types(cfg["frame"], _FRAME_KEYS, "frame")
    if "output" in cfg:
        _check_keys(cfg["output"], outputs, f"output of a {protocol} config")
        for key, value in cfg["output"].items():
            _require(isinstance(value, str), f"output.{key} must be a path")
    if "decay" in cfg:
        _require(isinstance(cfg["decay"], bool), "decay must be true or false")
    # rng_seed is still accepted so older configs load; nothing is random
    if "rng_seed" in cfg:
        _require(isinstance(cfg["rng_seed"], int), "rng_seed must be an integer")


def _validate_system_section(section: dict) -> None:
    _check_keys(section, _SYSTEM_KEYS, "system")
    _require(len(section) == 1,
             f"system must have exactly one of {sorted(_SYSTEM_KEYS)}")
    if "three_level" in section:
        _check_types(section["three_level"], _THREE_LEVEL_KEYS, "system.three_level")
    elif "synthetic" in section:
        syn = section["synthetic"]
        _check_types(syn, _SYNTHETIC_KEYS, "system.synthetic")
        _require(all(key in syn for key in _SYNTHETIC_REQUIRED),
                 f"system.synthetic needs {', '.join(_SYNTHETIC_REQUIRED)}")
    else:
        _require(isinstance(section["file"], str), "system.file must be a path")


def _validate_train(train: dict, protocol: str) -> None:
    _check_keys(train, _TRAIN_KEYS[protocol], "train")
    for key in _TRAIN_REQUIRED[protocol]:
        _require(key in train, f"train.{key} is required for {protocol}")
    _validate_train_values(train)


def _validate_train_values(train: dict) -> None:
    if "n_pairs" in train:
        n = train["n_pairs"]
        _require(type(n) is int and n >= 0, "train.n_pairs must be an int >= 0")
    _check_numbers(train, _TRAIN_NUMBERS, "train", _TRAIN_NULLABLE)
    if train.get("dump_phase_mask") is not None:
        _check_number_list(train["dump_phase_mask"], "train.dump_phase_mask")
    for key in ("delta_T", "fwhm"):
        if key in train:
            _require(float(train[key]) > 0, f"train.{key} must be positive")
    for key in ("pump_area", "dump_area"):
        if key in train:
            _require(float(train[key]) >= 0, f"train.{key} must be >= 0")
    if "shape" in train:
        _require(train["shape"] in PULSE_SHAPES,
                 f"train.shape must be one of {PULSE_SHAPES}")


def _validate_scan(scan: dict) -> None:
    _check_keys(scan, _SCAN_KEYS, "scan")
    for axis in ("delta_T_", "delta_t_"):
        _check_axis(scan, axis, "scan")
    if "workers" in scan:
        workers = scan["workers"]
        _require(type(workers) is int and workers >= 1,
                 f"scan.workers must be an int >= 1, got {workers!r}")


def build_system(cfg: dict) -> LevelSystem:
    """Construct the LevelSystem a validated config describes."""
    section = cfg["system"]
    if "three_level" in section:
        system = build_three_level(**section["three_level"])
    elif "synthetic" in section:
        # the spec's sequences are tuples where JSON has lists
        syn = {key: tuple(value) if isinstance(value, list) else value
               for key, value in section["synthetic"].items()}
        system = build_synthetic_molecule(SyntheticMoleculeSpec(**syn))
    else:
        try:
            system = load_system(section["file"])
        except (OSError, ValueError, KeyError) as err:
            raise ConfigError(f"cannot load system file: {err}") from err
    if not cfg.get("decay", True):
        system = strip_decay(system)
    problems = validate_system(system)
    if problems:
        raise ConfigError("system is inconsistent: " + "; ".join(problems))
    return system


def axis_values(section: dict, axis: str) -> np.ndarray:
    """A validated scan axis ("delta_T" or "delta_t") or, with axis "",
    the sweep values: explicit values or start/stop/points."""
    p = axis + "_" if axis else ""
    if p + "values" in section:
        return np.asarray(section[p + "values"], dtype=float)
    return np.linspace(float(section[p + "start"]),
                       float(section[p + "stop"]), section[p + "points"])


def _canonical(obj):
    """JSON-stable form: sorted keys, lists for sequences, plain floats."""
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def config_fingerprint(obj) -> str:
    """Short stable hash of a config-shaped object.

    Exports carry this so a CSV can be matched to the exact
    configuration that produced it; any change to any field changes the
    fingerprint.
    """
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
