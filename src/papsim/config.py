"""Run configuration files.

Configs are JSON documents with a ``protocol`` field, a ``system``
section, and per-protocol parameter sections. Unknown keys anywhere are
rejected: a typo in a config must fail loudly, not silently fall back to
a default.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .fields import PULSE_SHAPES
from .levels import (LevelSystem, SyntheticMoleculeSpec, build_synthetic_molecule,
                     build_three_level, load_system, strip_decay, validate_system)


class ConfigError(ValueError):
    """A config file is malformed or inconsistent."""


_TOP_KEYS = {"protocol", "system", "decay", "train", "frame", "scan",
             "revivals", "sweep", "output", "rng_seed", "comment"}

_SYSTEM_KEYS = {"three_level", "synthetic", "file"}

_THREE_LEVEL_KEYS = {"pump_detuning", "dump_detuning", "decay_rate"}

_SYNTHETIC_KEYS = {"n_intermediate", "center_energy", "spacing_pattern",
                   "dipole_profile", "decay_lifetime", "ground_a_energies",
                   "ground_b_energies", "initial_index", "target_index",
                   "dipole_phases"}

_TRAIN_COMMON = {"n_pairs", "delta_T", "delta_t_small", "pump_area",
                 "dump_area", "shape", "fwhm", "dump_phase_mask", "steps",
                 "f0_pump"}

_TRAIN_KEYS = {
    "stirap": _TRAIN_COMMON,
    "crp": (_TRAIN_COMMON - {"dump_phase_mask"})
           | {"alpha_pump", "alpha_dump", "sigma_pairs",
              "extra_pump_dump_delay"},
    "pairs": _TRAIN_COMMON,
}

# every other train key is a number; null in these means the runner's default
_TRAIN_NUMBERS = set().union(*_TRAIN_KEYS.values()) - {"shape", "dump_phase_mask"}
_TRAIN_NULLABLE = {"delta_t_small", "steps", "sigma_pairs"}

PROTOCOLS = (*_TRAIN_KEYS, "scan", "revivals", "sweep")

SWEEP_PARAMETERS = ("n_pairs", "area_scale", "alpha")

_OUTPUT_KEYS = {"trajectory", "result", "map", "spectrum", "revivals", "sweep"}

_FRAME_KEYS = {"pump_offset", "two_photon_offset"}

_AXIS_SUFFIXES = ("_start", "_stop", "_points", "_values")

_SCAN_KEYS = ({"delta_T" + s for s in _AXIS_SUFFIXES}
              | {"delta_t" + s for s in _AXIS_SUFFIXES}
              | {"workers"})

_REVIVALS_KEYS = {"t_max", "dt", "threshold", "weights"}

_SWEEP_KEYS = {"protocol", "parameter", "values", "start", "stop", "points"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    _require(isinstance(section, dict), f"{where} must be an object")
    extra = set(section) - allowed
    _require(not extra, f"unknown keys in {where}: {sorted(extra)}")


def _check_numbers(section: dict, keys: set, where: str,
                   nullable: set = frozenset()) -> None:
    """Each of keys present in section is an int or float (not a bool)."""
    for key in sorted(keys & set(section)):
        value = section[key]
        _require((isinstance(value, (int, float))
                  and not isinstance(value, bool))
                 or (value is None and key in nullable),
                 f"{where}.{key} must be a number, got {value!r}")


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
    _check_keys(cfg, _TOP_KEYS, "config")
    protocol = cfg.get("protocol")
    _require(protocol in PROTOCOLS,
             f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    _require("system" in cfg, "config needs a system section")
    _validate_system_section(cfg["system"])

    if protocol in _TRAIN_KEYS:
        _require("train" in cfg, f"protocol {protocol!r} needs a train section")
        _validate_train(cfg["train"], protocol)
    if protocol == "scan":
        _require("train" in cfg, "protocol 'scan' needs a train section")
        train = dict(cfg["train"])
        # the scanned delays come from the scan axes, not the train section
        _check_keys(train, _TRAIN_KEYS["pairs"] - {"delta_T", "delta_t_small"},
                    "train")
        _validate_train_values(train)
        _require("scan" in cfg, "protocol 'scan' needs a scan section")
        _validate_scan(cfg["scan"])
    if protocol == "revivals":
        _require("revivals" in cfg, "protocol 'revivals' needs a revivals section")
        rev = cfg["revivals"]
        _check_keys(rev, _REVIVALS_KEYS, "revivals")
        _check_numbers(rev, {"t_max", "dt", "threshold"}, "revivals")
        _require(float(rev.get("t_max", 0)) > 0, "revivals.t_max must be positive")
        _require(float(rev.get("dt", 0)) > 0, "revivals.dt must be positive")
    if protocol == "sweep":
        _require("train" in cfg, "protocol 'sweep' needs a train section")
        _require("sweep" in cfg, "protocol 'sweep' needs a sweep section")
        sweep = cfg["sweep"]
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
        swept = sweep.get("protocol")
        _require(swept in _TRAIN_KEYS,
                 f"sweep.protocol must be one of {tuple(_TRAIN_KEYS)}, "
                 f"got {swept!r}")
        _validate_train(cfg["train"], swept)
        _require(sweep.get("parameter") in SWEEP_PARAMETERS,
                 f"sweep.parameter must be one of {SWEEP_PARAMETERS}")
        has_values = "values" in sweep
        has_range = all(k in sweep for k in ("start", "stop", "points"))
        _require(has_values or has_range,
                 "sweep needs either values or start/stop/points")
    if "frame" in cfg:
        _check_keys(cfg["frame"], _FRAME_KEYS, "frame")
        _check_numbers(cfg["frame"], _FRAME_KEYS, "frame")
    if "output" in cfg:
        _check_keys(cfg["output"], _OUTPUT_KEYS, "output")
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
        _check_keys(section["three_level"], _THREE_LEVEL_KEYS, "system.three_level")
    elif "synthetic" in section:
        syn = section["synthetic"]
        _check_keys(syn, _SYNTHETIC_KEYS, "system.synthetic")
        _require("n_intermediate" in syn and "center_energy" in syn
                 and "spacing_pattern" in syn,
                 "system.synthetic needs n_intermediate, center_energy, "
                 "spacing_pattern")
    else:
        _require(isinstance(section["file"], str), "system.file must be a path")


def _validate_train(train: dict, protocol: str) -> None:
    _check_keys(train, _TRAIN_KEYS[protocol], "train")
    for key in ("n_pairs", "delta_T", "pump_area", "dump_area"):
        _require(key in train, f"train.{key} is required")
    _validate_train_values(train)
    if protocol == "crp":
        _require("alpha_pump" in train and "alpha_dump" in train,
                 "train.alpha_pump and train.alpha_dump are required for crp")
    if protocol == "pairs":
        _require("delta_t_small" in train,
                 "train.delta_t_small is required for pair trains")


def _validate_train_values(train: dict) -> None:
    if "n_pairs" in train:
        n = train["n_pairs"]
        _require(type(n) is int and n >= 0, "train.n_pairs must be an int >= 0")
    _check_numbers(train, _TRAIN_NUMBERS, "train", _TRAIN_NULLABLE)
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
    for axis in ("delta_T", "delta_t"):
        has_values = axis + "_values" in scan
        has_range = all(axis + s in scan for s in ("_start", "_stop", "_points"))
        _require(has_values or has_range,
                 f"scan needs {axis}_values or {axis}_start/_stop/_points")
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
        syn = dict(section["synthetic"])
        for key in ("spacing_pattern", "ground_a_energies", "ground_b_energies",
                    "dipole_phases"):
            if key in syn and syn[key] is not None:
                syn[key] = tuple(syn[key])
        if isinstance(syn.get("dipole_profile"), list):
            syn["dipole_profile"] = tuple(syn["dipole_profile"])
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
    """A scan axis ("delta_T" or "delta_t") or, with axis "", the sweep
    values: explicit values or start/stop/points."""
    p = axis + "_" if axis else ""
    if p + "values" in section:
        vals = np.asarray(section[p + "values"], dtype=float)
        _require(vals.ndim == 1 and len(vals) > 0,
                 f"{p}values must be a non-empty list")
        return vals
    start = float(section[p + "start"])
    stop = float(section[p + "stop"])
    points = int(section[p + "points"])
    _require(points >= 1, f"{p}points must be >= 1")
    return np.linspace(start, stop, points)


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
