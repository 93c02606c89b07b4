"""Run configuration files.

Configs are JSON documents with a ``protocol`` field, a ``system``
section, and the sections that protocol's command reads. Unknown keys
anywhere are rejected, and so are a section or an output path the
protocol does not read: a typo or a stray section must fail loudly, not
silently fall back to a default or be ignored. Every value takes the
JSON type its reader declares, checked by the one ``_check_types``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math

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
_COMMON_KEYS = {"protocol", "system", "decay", "output", "comment"}
_PROTOCOL_TABLE = {
    **dict.fromkeys(RUNNERS, (("train",), ("frame",), {"result", "trajectory"})),
    "scan": (("train", "scan"), (), {"map"}),
    "revivals": (("revivals",), (), {"revivals"}),
    "sweep": (("train", "sweep"), ("frame",), {"sweep"})}
PROTOCOLS = tuple(_PROTOCOL_TABLE)

_SYSTEM_KEYS = {"three_level", "synthetic", "file"}

SWEEP_PARAMETERS = ("n_pairs", "area_scale", "alpha")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    _require(isinstance(section, dict), f"{where} must be an object")
    extra = set(section) - allowed
    _require(not extra, f"unknown keys in {where}: {sorted(extra)}")


def _is_number(value) -> bool:
    """A JSON number; json.loads also reads NaN, Infinity and -Infinity,
    which are none."""
    return (type(value) is int
            or isinstance(value, float) and math.isfinite(value))


# the JSON form of each annotation a config's readers use
_JSON_TYPES = {
    "int": ("an int", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "None": ("null", lambda v: v is None),
    "tuple[float, ...]": ("a list of numbers",
                          lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _types(annotations: dict) -> dict:
    """key -> (name, check) of each JSON type its annotation allows."""
    return {key: [_JSON_TYPES[part] for part in annotation.split(" | ")]
            for key, annotation in annotations.items()}


def _json_types(reader, skip=("system",)) -> dict:
    """The types of every keyword of reader but those in skip."""
    return _types({key: param.annotation for key, param
                   in inspect.signature(reader).parameters.items()
                   if key not in skip})


_THREE_LEVEL_KEYS = _json_types(build_three_level)
_SYNTHETIC_KEYS = _json_types(SyntheticMoleculeSpec)
_SYNTHETIC_REQUIRED = [key for key, param in inspect.signature(
    SyntheticMoleculeSpec).parameters.items() if param.default is param.empty]
_FRAME_KEYS = _json_types(PhaseFrame.for_system)

# a train section sets its runner's keywords, all but these three; it
# must set the ones without a default and both areas; a scan's train is
# a pairs train without the two delays its axes set, and sets n_pairs
_TRAIN_KEYS = {name: _json_types(runner, ("levels", "frame", "record"))
               for name, runner in RUNNERS.items()}
_TRAIN_REQUIRED = {name: [key for key, param
                          in inspect.signature(runner).parameters.items()
                          if param.default is param.empty and key != "levels"]
                   + ["pump_area", "dump_area"]
                   for name, runner in RUNNERS.items()}
_TRAIN_KEYS["scan"] = {key: types for key, types in _TRAIN_KEYS["pairs"].items()
                       if key not in ("delta_T", "delta_t_small")}
_TRAIN_REQUIRED["scan"] = ["n_pairs"]

# every other section; scan.py reads scan, sweep and revivals and
# imports config, so their annotation tables are literal here
_AXIS_TYPES = {"values": "tuple[float, ...]", "start": "float",
               "stop": "float", "points": "int"}
_SECTION_KEYS = {
    "frame": _FRAME_KEYS,
    "scan": _types({"workers": "int",
                    **{axis + key: annotation
                       for axis in ("delta_T_", "delta_t_")
                       for key, annotation in _AXIS_TYPES.items()}}),
    "sweep": _types({"protocol": "str", "parameter": "str", **_AXIS_TYPES}),
    "revivals": _types({"t_max": "float", "dt": "float", "threshold": "float",
                        "weights": "tuple[float, ...] | None"}),
}
_SECTION_REQUIRED = {"revivals": ("t_max", "dt"), "sweep": ("protocol", "parameter")}

# the bounds a type does not say, by key: (what the value must be, test)
_BOUNDS = {
    **dict.fromkeys(("train.delta_T", "train.fwhm", "revivals.t_max",
                     "revivals.dt"), ("positive", lambda v: v > 0)),
    **dict.fromkeys(("train.n_pairs", "train.pump_area", "train.dump_area"),
                    (">= 0", lambda v: v >= 0)),
    "train.steps": (">= 4", lambda v: v >= 4),
    **dict.fromkeys(("scan.workers", "scan.delta_T_points",
                     "scan.delta_t_points", "sweep.points"),
                    (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(("train.dump_phase_mask", "revivals.weights",
                     "scan.delta_T_values", "scan.delta_t_values",
                     "sweep.values"), ("non-empty", len)),
    "train.shape": (f"one of {PULSE_SHAPES}", PULSE_SHAPES.__contains__),
    "sweep.protocol": (f"one of {tuple(RUNNERS)}", RUNNERS.__contains__),
    "sweep.parameter": (f"one of {SWEEP_PARAMETERS}", SWEEP_PARAMETERS.__contains__),
}


def _check_types(section: dict, types: dict, where: str, required=()) -> None:
    """section sets only keys of types, each to a value of its JSON type
    inside its bound, and sets every required key."""
    _check_keys(section, types.keys(), where)
    for key, value in section.items():
        _require(any(check(value) for _, check in types[key]),
                 f"{where}.{key} must be "
                 f"{' or '.join(name for name, _ in types[key])}, got {value!r}")
        what, within = _BOUNDS.get(f"{where}.{key}", (None, None))
        _require(value is None or within is None or within(value),
                 f"{where}.{key} must be {what}, got {value!r}")
    for key in required:
        _require(key in section, f"{where}.{key} is required")


def _check_axis(section: dict, prefix: str, where: str) -> None:
    """Either prefix + values or the start/stop/points range, not both."""
    ranged = [prefix + key for key in ("start", "stop", "points")
              if prefix + key in section]
    if prefix + "values" in section:
        _require(not ranged, f"{where}.{prefix}values excludes "
                 + ", ".join(f"{where}.{key}" for key in ranged))
    else:
        _require(len(ranged) == 3,
                 f"{where} needs {prefix}values or {prefix}start/stop/points")


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
    for section, types in _SECTION_KEYS.items():
        if section in cfg:
            _check_types(cfg[section], types, section,
                         _SECTION_REQUIRED.get(section, ()))
    if protocol == "scan":
        for axis in ("delta_T_", "delta_t_"):
            _check_axis(cfg["scan"], axis, "scan")
    if protocol == "sweep":
        _check_axis(cfg["sweep"], "", "sweep")
    if "train" in cfg:
        # a sweep's train is the swept protocol's
        trains = cfg["sweep"]["protocol"] if protocol == "sweep" else protocol
        _check_types(cfg["train"], _TRAIN_KEYS[trains], "train",
                     _TRAIN_REQUIRED[trains])
        _require(not cfg.get("frame") or "f0_pump" not in cfg["train"],
                 "train.f0_pump sets the comb-locked frame, which the frame "
                 "section replaces")
    if "output" in cfg:
        _check_keys(cfg["output"], outputs, f"output of a {protocol} config")
        for key, value in cfg["output"].items():
            _require(isinstance(value, str), f"output.{key} must be a path")
    if "decay" in cfg:
        _require(isinstance(cfg["decay"], bool), "decay must be true or false")


def _validate_system_section(section: dict) -> None:
    _check_keys(section, _SYSTEM_KEYS, "system")
    _require(len(section) == 1,
             f"system must have exactly one of {sorted(_SYSTEM_KEYS)}")
    if "three_level" in section:
        _check_types(section["three_level"], _THREE_LEVEL_KEYS, "system.three_level")
    elif "synthetic" in section:
        _check_types(section["synthetic"], _SYNTHETIC_KEYS, "system.synthetic",
                     _SYNTHETIC_REQUIRED)
    else:
        _require(isinstance(section["file"], str), "system.file must be a path")


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
    """JSON-stable form: sorted keys, lists for sequences, plain floats,
    and a dataclass instance (a PhaseFrame) as the dict of its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical({f.name: getattr(obj, f.name)
                           for f in dataclasses.fields(obj)})
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
    fingerprint. A non-finite float hashes as NaN, Infinity or -Infinity,
    so a scan whose cells fail on one still returns its map.
    """
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
