"""Level systems: three coupled manifolds driven by pump and dump fields.

A system holds three ordered manifolds of levels. The pump field couples
``ground_a`` to ``excited``, the dump field couples ``ground_b`` to
``excited``. Global state indexing is ground_a ++ excited ++ ground_b.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace

import numpy as np

SYSTEM_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Level:
    """One bound level.

    Parameters
    ----------
    label : str
        Free-form identifier, unique within the system.
    energy : float
        Level energy in cm^-1.
    decay_rate : float
        Amplitude decay rate Gamma in 1/ps; populations decay as
        exp(-Gamma * t). Zero for stable levels.
    """

    label: str
    energy: float
    decay_rate: float = 0.0


@dataclass(frozen=True, eq=False)
class LevelSystem:
    """Three manifolds plus the dipole couplings between them.

    ``pump_dipoles[i, j]`` couples ground_a level i to excited level j,
    ``dump_dipoles[i, j]`` couples ground_b level i to excited level j.
    Dipoles are relative (dimensionless); a transition with dipole 1.0
    sees exactly the nominal pulse area.

    ``dipole_phases``, when given, holds one phase (rad) per excited
    level, applied to the dump couplings of that level. ``carrier_anchor``
    is the excited-manifold energy (cm^-1) the nominal pump carrier points
    at; None selects the excited level with the largest pump dipole from
    the initial level.
    """

    ground_a: tuple[Level, ...]
    excited: tuple[Level, ...]
    ground_b: tuple[Level, ...]
    pump_dipoles: np.ndarray
    dump_dipoles: np.ndarray
    dipole_phases: np.ndarray | None = None
    initial_index: int = 0
    target_index: int = 0
    carrier_anchor: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pump_dipoles", np.asarray(self.pump_dipoles, dtype=float))
        object.__setattr__(self, "dump_dipoles", np.asarray(self.dump_dipoles, dtype=float))
        if self.dipole_phases is not None:
            object.__setattr__(self, "dipole_phases", np.asarray(self.dipole_phases, dtype=float))

    # --- manifold bookkeeping ---

    @property
    def n_ground_a(self) -> int:
        return len(self.ground_a)

    @property
    def n_excited(self) -> int:
        return len(self.excited)

    @property
    def n_ground_b(self) -> int:
        return len(self.ground_b)

    @property
    def n_levels(self) -> int:
        return self.n_ground_a + self.n_excited + self.n_ground_b

    @property
    def levels(self) -> tuple[Level, ...]:
        return self.ground_a + self.excited + self.ground_b

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    def energies(self) -> np.ndarray:
        """Level energies (cm^-1) in global order."""
        return np.array([lv.energy for lv in self.levels])

    def decay_rates(self) -> np.ndarray:
        """Amplitude decay rates (1/ps) in global order."""
        return np.array([lv.decay_rate for lv in self.levels])

    def slice_ground_a(self) -> slice:
        return slice(0, self.n_ground_a)

    def slice_excited(self) -> slice:
        return slice(self.n_ground_a, self.n_ground_a + self.n_excited)

    def slice_ground_b(self) -> slice:
        return slice(self.n_ground_a + self.n_excited, self.n_levels)

    @property
    def target_global_index(self) -> int:
        return self.n_ground_a + self.n_excited + self.target_index

    @property
    def initial_level(self) -> Level:
        return self.ground_a[self.initial_index]

    @property
    def target_level(self) -> Level:
        return self.ground_b[self.target_index]

    def anchor_energy(self) -> float:
        """Excited-manifold energy the nominal pump carrier points at."""
        if self.carrier_anchor is not None:
            return self.carrier_anchor
        dipoles = np.abs(self.pump_dipoles[self.initial_index])
        return self.excited[int(np.argmax(dipoles))].energy


@dataclass(frozen=True)
class SyntheticMoleculeSpec:
    """Recipe for a synthetic molecule-like system.

    Intermediate levels sit at ``center_energy`` plus the cumulative
    ``spacing_pattern`` (cycled if shorter than n_intermediate - 1), so
    an anharmonic ladder or two interleaved progressions are one list
    away. ``dipole_profile`` is ``"uniform"``, ``"gaussian"`` (over the
    level index, sigma = n_intermediate / 4), or an explicit sequence of
    n_intermediate relative dipoles. ``decay_lifetime`` is the 1/e
    population lifetime of the intermediate levels in ns; None means no
    decay. Ground manifold energies are listed explicitly in cm^-1.
    """

    n_intermediate: int
    center_energy: float
    spacing_pattern: tuple[float, ...]
    dipole_profile: str | tuple[float, ...] = "uniform"
    decay_lifetime: float | None = None
    ground_a_energies: tuple[float, ...] = (0.0,)
    ground_b_energies: tuple[float, ...] = (-2333.0,)
    initial_index: int = 0
    target_index: int = 0
    dipole_phases: tuple[float, ...] | None = None


def build_three_level(pump_detuning: float = 0.0, dump_detuning: float = 0.0,
                      decay_rate: float = 0.0) -> LevelSystem:
    """Minimal 1+1+1 system with unit dipoles.

    In the rotating frame only detunings matter, so the stored energies
    are (0, pump_detuning, pump_detuning - dump_detuning) and the carrier
    anchor is pinned at energy 0: the excited level then sits
    ``pump_detuning`` above pump-carrier resonance, and the two-photon
    detuning of the target is ``pump_detuning - dump_detuning``.
    ``decay_rate`` (1/ps) applies to the excited level only.

    Parameters are wavenumbers (cm^-1).
    """
    return LevelSystem(
        ground_a=(Level("g", 0.0),),
        excited=(Level("e", pump_detuning, decay_rate),),
        ground_b=(Level("t", pump_detuning - dump_detuning),),
        pump_dipoles=np.array([[1.0]]),
        dump_dipoles=np.array([[1.0]]),
        carrier_anchor=0.0,
    )


def build_synthetic_molecule(spec: SyntheticMoleculeSpec) -> LevelSystem:
    """Construct the LevelSystem described by a SyntheticMoleculeSpec.

    Raises ValueError for non-positive level counts, empty or non-positive
    spacing patterns, or a dipole profile of the wrong length.
    """
    n = spec.n_intermediate
    if n < 1:
        raise ValueError("n_intermediate must be >= 1")
    if n > 1:
        if not spec.spacing_pattern:
            raise ValueError("spacing_pattern must be non-empty for n_intermediate > 1")
        if any(gap <= 0 for gap in spec.spacing_pattern):
            raise ValueError("spacing_pattern gaps must be positive")

    gaps = [spec.spacing_pattern[i % len(spec.spacing_pattern)] for i in range(n - 1)] if n > 1 else []
    offsets = np.concatenate([[0.0], np.cumsum(gaps)])
    energies = spec.center_energy + offsets

    if isinstance(spec.dipole_profile, str):
        if spec.dipole_profile == "uniform":
            profile = np.ones(n)
        elif spec.dipole_profile == "gaussian":
            j0 = (n - 1) / 2.0
            sigma = max(n / 4.0, 1e-12)
            profile = np.exp(-((np.arange(n) - j0) ** 2) / (2.0 * sigma**2))
        else:
            raise ValueError(f"unknown dipole_profile {spec.dipole_profile!r}")
    else:
        profile = np.asarray(spec.dipole_profile, dtype=float)
        if profile.shape != (n,):
            raise ValueError("explicit dipole_profile must have n_intermediate entries")

    gamma = 0.0
    if spec.decay_lifetime is not None:
        if spec.decay_lifetime <= 0:
            raise ValueError("decay_lifetime must be positive")
        gamma = 1.0 / (1000.0 * spec.decay_lifetime)  # ns -> ps

    excited = tuple(Level(f"e{j}", float(energies[j]), gamma) for j in range(n))
    ground_a = tuple(Level(f"a{i}", float(e)) for i, e in enumerate(spec.ground_a_energies))
    ground_b = tuple(Level(f"b{i}", float(e)) for i, e in enumerate(spec.ground_b_energies))

    # every ground level couples through the same profile
    pump = np.tile(profile, (len(ground_a), 1))
    dump = np.tile(profile, (len(ground_b), 1))

    phases = None
    if spec.dipole_phases is not None:
        phases = np.asarray(spec.dipole_phases, dtype=float)
        if phases.shape != (n,):
            raise ValueError("dipole_phases must have n_intermediate entries")

    return LevelSystem(
        ground_a=ground_a,
        excited=excited,
        ground_b=ground_b,
        pump_dipoles=pump,
        dump_dipoles=dump,
        dipole_phases=phases,
        initial_index=spec.initial_index,
        target_index=spec.target_index,
    )


def raman_shift(system: LevelSystem) -> float:
    """E(initial) - E(target) in cm^-1; positive when the target lies below."""
    return system.initial_level.energy - system.target_level.energy


def strip_decay(system: LevelSystem) -> LevelSystem:
    """The same system with every decay rate zeroed."""
    stable = lambda levels: tuple(replace(lv, decay_rate=0.0) for lv in levels)
    return replace(system, ground_a=stable(system.ground_a),
                   excited=stable(system.excited),
                   ground_b=stable(system.ground_b))


def validate_system(system: LevelSystem) -> list[str]:
    """Collect diagnostics for a possibly inconsistent system.

    Returns a list of human-readable problem descriptions; an empty list
    means the system is usable. Never raises.
    """
    problems: list[str] = []
    if system.n_ground_a == 0:
        problems.append("ground_a manifold is empty")
    if system.n_excited == 0:
        problems.append("excited manifold is empty")
    if system.n_ground_b == 0:
        problems.append("ground_b manifold is empty")

    want_pump = (system.n_ground_a, system.n_excited)
    if system.pump_dipoles.shape != want_pump:
        problems.append(
            f"pump_dipoles shape {system.pump_dipoles.shape} != {want_pump}")
    elif not np.any(system.pump_dipoles):
        problems.append("pump_dipoles are all zero: pump channel is dead")

    want_dump = (system.n_ground_b, system.n_excited)
    if system.dump_dipoles.shape != want_dump:
        problems.append(
            f"dump_dipoles shape {system.dump_dipoles.shape} != {want_dump}")
    elif not np.any(system.dump_dipoles):
        problems.append("dump_dipoles are all zero: dump channel is dead")

    if not (0 <= system.initial_index < max(system.n_ground_a, 1)):
        problems.append(f"initial_index {system.initial_index} out of range")
    if not (0 <= system.target_index < max(system.n_ground_b, 1)):
        problems.append(f"target_index {system.target_index} out of range")

    labels = system.labels
    if len(set(labels)) != len(labels):
        problems.append("level labels are not unique")
    for lv in system.levels:
        if not np.isfinite(lv.energy):
            problems.append(f"level {lv.label}: energy is not finite")
        if lv.decay_rate < 0:
            problems.append(f"level {lv.label}: negative decay rate")

    if system.dipole_phases is not None and system.dipole_phases.shape != (system.n_excited,):
        problems.append("dipole_phases must hold one phase per excited level")
    return problems


# --- file round-trip (versioned, unknown keys rejected) ---

_SYSTEM_KEYS = {
    "format_version", "ground_a", "excited", "ground_b",
    "pump_dipoles", "dump_dipoles", "dipole_phases",
    "initial_index", "target_index", "carrier_anchor",
}


def _manifold_record(levels: tuple[Level, ...]) -> list[dict]:
    return [{"label": lv.label, "energy": lv.energy, "decay_rate": lv.decay_rate}
            for lv in levels]


def _typed(value, kind: type, key: str):
    """value as kind, an int or a float; a ValueError naming key if it is
    not integral (for int) or real (for float), or if it is a bool."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{key} must be {'an int' if kind is int else 'a number'}"
                         f", got {value!r}")
    return kind(value)


def _numbers(value, key: str) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array; a
    ValueError naming key if any entry is not a number."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            _typed(item, float, f"each entry of {key}")
    return np.asarray(value, dtype=float)


def _manifold_from_record(rows: list[dict]) -> tuple[Level, ...]:
    out = []
    for row in rows:
        extra = set(row) - {"label", "energy", "decay_rate"}
        if extra:
            raise ValueError(f"unknown level keys: {sorted(extra)}")
        label = str(row["label"])
        out.append(Level(label, _typed(row["energy"], float, f"{label}.energy"),
                         _typed(row.get("decay_rate", 0.0), float,
                                f"{label}.decay_rate")))
    return tuple(out)


def system_to_dict(system: LevelSystem) -> dict:
    return {
        "format_version": SYSTEM_FORMAT_VERSION,
        "ground_a": _manifold_record(system.ground_a),
        "excited": _manifold_record(system.excited),
        "ground_b": _manifold_record(system.ground_b),
        "pump_dipoles": system.pump_dipoles.tolist(),
        "dump_dipoles": system.dump_dipoles.tolist(),
        "dipole_phases": None if system.dipole_phases is None else system.dipole_phases.tolist(),
        "initial_index": system.initial_index,
        "target_index": system.target_index,
        "carrier_anchor": system.carrier_anchor,
    }


def system_from_dict(data: dict) -> LevelSystem:
    extra = set(data) - _SYSTEM_KEYS
    if extra:
        raise ValueError(f"unknown system keys: {sorted(extra)}")
    version = data.get("format_version")
    if version != SYSTEM_FORMAT_VERSION:
        raise ValueError(f"unsupported system format_version: {version!r}")
    phases, anchor = data.get("dipole_phases"), data.get("carrier_anchor")
    return LevelSystem(
        ground_a=_manifold_from_record(data["ground_a"]),
        excited=_manifold_from_record(data["excited"]),
        ground_b=_manifold_from_record(data["ground_b"]),
        pump_dipoles=_numbers(data["pump_dipoles"], "pump_dipoles"),
        dump_dipoles=_numbers(data["dump_dipoles"], "dump_dipoles"),
        dipole_phases=None if phases is None else _numbers(phases, "dipole_phases"),
        initial_index=_typed(data.get("initial_index", 0), int, "initial_index"),
        target_index=_typed(data.get("target_index", 0), int, "target_index"),
        carrier_anchor=None if anchor is None else _typed(anchor, float, "carrier_anchor"),
    )


def save_system(system: LevelSystem, path: str) -> None:
    """Write a system to a versioned, human-readable file. A system that
    fails to serialise leaves any earlier file at path as it was."""
    from .io import _write_text  # io imports protocols, which imports levels

    _write_text(path, json.dumps(system_to_dict(system), indent=2) + "\n")


def load_system(path: str) -> LevelSystem:
    """Read a system written by save_system. Rejects unknown keys."""
    with open(path) as fh:
        return system_from_dict(json.load(fh))
