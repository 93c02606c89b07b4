"""Delay-scan landscapes, beat extraction, revivals, robustness sweeps.

The 2D scan evaluates the unshaped pair-train transfer on a grid of
inter-pair delays delta_T (columns) and intra-pair delays delta_t
(rows). Cells are independent runs, so the scan parallelizes over
columns; a failed cell (overlapping pulses, numerical blowup) becomes
NaN rather than aborting the scan, and the map's details keep its reason.

A column binds run_pair_train's signature once. Its cells' schedules
then differ only by delta_t, a broadcast shift of the pump times: they
are built as one stack of (cells, events) arrays, each row sorted on
its own (with delta_t > delta_T the pumps pass the next pairs' dumps),
and a row whose supports overlap is dropped with its reason. The rest
run as they are, one ground state per row from its first pulse start:
the cells share the frame and both pulse operators, so one batched pass
and one train runner serve them all, which takes each cell's periodic
middle as a power of one comb period.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import SWEEP_PARAMETERS, config_fingerprint
from .levels import LevelSystem, system_to_dict
from .propagator import NumericsError, _run_events
# run_pair_train stays a module attribute: the benchmark wraps it here
from .protocols import RUNNERS, _pair_column, run_pair_train  # noqa: F401
from .units import C_CM_PER_PS, K_RAD_PS_PER_CM

@dataclass(frozen=True)
class EfficiencyMap:
    """Transfer efficiency over the (delta_T, delta_t) delay plane.

    efficiency[i, j] belongs to delta_t_axis[i] and delta_T_axis[j];
    NaN marks cells whose run failed, and details["failures"] maps each
    such cell's (delta_t, delta_T) to its error message. config_fingerprint
    hashes the full scan configuration so exports can be traced back to
    the run that made them.
    """

    delta_T_axis: np.ndarray
    delta_t_axis: np.ndarray
    efficiency: np.ndarray
    config_fingerprint: str
    details: dict = field(default_factory=dict)

    def column(self, j: int) -> np.ndarray:
        """Efficiency against delta_t at delta_T_axis[j]."""
        return self.efficiency[:, j]


def _validate_axis(axis: np.ndarray, name: str) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError(f"{name} must be a non-empty 1D grid")
    if not np.isfinite(axis).all():
        raise ValueError(f"{name} must be finite")
    if axis.size > 1 and not np.all(np.diff(axis) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return axis


def _attempt(run, keys, failures: dict):
    """run(), or None with failures[key] the reason it failed, per key."""
    try:
        return run()
    except (ValueError, NumericsError) as err:
        failures.update(dict.fromkeys(keys, str(err)))
        return None


def _scan_column(args) -> tuple[np.ndarray, dict]:
    """One delta_T column of the map and the reasons of its failed cells;
    module-level so workers can pickle it. A cell whose pulses overlap
    fails alone; the others' stack goes to _run_events as it is, whose
    one operator pass, and its failure, is each one's. It keeps no
    per-event states, so each cell's periodic middle (every event after
    the first, when 0 < delta_t < delta_T) takes O(log n_pairs) small
    matrix products, as the cell's direct run_pair_train(record="none")
    does, bit for bit."""
    system, base, delta_T, delta_t_axis = args
    keys = [(float(dt_small), float(delta_T)) for dt_small in delta_t_axis]
    failures = {}
    out = np.full(len(keys), math.nan)
    column = _attempt(partial(_pair_column, system, delta_t_axis,
                              delta_T=float(delta_T), **base), keys, failures)
    if column is not None:
        stack, errors, frame, steps = column
        failures.update({keys[c]: reason for c, reason in errors.items()})
        valid = [c for c in range(len(keys)) if c not in errors]
        if valid:
            starts = (stack.time[:, 0] - stack.support[:, 0] / 2.0
                      if stack.time.shape[1] else np.zeros(len(valid)))
            amps = np.zeros((len(valid), system.n_levels), dtype=complex)
            amps[:, system.initial_index] = 1.0
            run = _attempt(partial(_run_events, system, frame, stack, steps,
                                   amps, starts), [keys[c] for c in valid],
                           failures)
            if run is not None:
                out[valid] = (np.abs(run[0]) ** 2)[:, system.target_global_index]
    return out, {key: failures[key] for key in keys if key in failures}


def scan_2d(levels: LevelSystem, base_config: dict,
            delta_T_grid, delta_t_grid, *, workers: int = 1) -> EfficiencyMap:
    """Pair-train efficiency on the delay grid, Raman lock per delta_T.

    base_config holds the run_pair_train keyword arguments that stay
    fixed across the grid (n_pairs, areas, shape, fwhm, f0_pump, ...).
    Each cell rebuilds its comb-locked frame from its own delta_T, which
    is how a repetition-rate scan with a maintained Raman lock works.
    Results are deterministic and independent of the worker count: cells
    are pure functions of (levels, base_config, delta_T, delta_t). The
    pool never has more processes than columns or cores.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    delta_T_axis = _validate_axis(delta_T_grid, "delta_T_grid")
    delta_t_axis = _validate_axis(delta_t_grid, "delta_t_grid")
    base = dict(base_config)
    if "n_pairs" not in base:
        raise ValueError("base_config must set n_pairs")
    base.pop("record", None)

    jobs = [(levels, base, dT, delta_t_axis) for dT in delta_T_axis]
    n_workers = min(workers, len(jobs), os.cpu_count() or 1)
    if n_workers == 1:
        results = [_scan_column(job) for job in jobs]
    else:
        # loaded only here, so that importing papsim loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_scan_column, jobs))

    fingerprint = config_fingerprint({
        "protocol": "pairs",
        "system": system_to_dict(levels),
        "base": base,
        "delta_T_grid": [float(x) for x in delta_T_axis],
        "delta_t_grid": [float(x) for x in delta_t_axis],
    })
    failures = {}
    for _, column_failures in results:
        failures.update(column_failures)
    details = {"n_pairs": base.get("n_pairs"), "workers": n_workers,
               "failures": failures}
    return EfficiencyMap(delta_T_axis, delta_t_axis,
                         np.column_stack([col for col, _ in results]),
                         fingerprint, details)


@dataclass(frozen=True)
class BeatSpectrum:
    """Magnitude spectrum of one delta_t efficiency column.

    frequency_axis is in wavenumbers (cm^-1): the delay-domain
    frequency over the speed of light. signal is the mean-subtracted
    column the spectrum came from, kept for energy checks.
    """

    frequency_axis: np.ndarray
    magnitude: np.ndarray
    delta_t_axis: np.ndarray
    signal: np.ndarray

    @property
    def bin_width(self) -> float:
        """Frequency resolution in cm^-1."""
        return float(self.frequency_axis[1] - self.frequency_axis[0])

    @property
    def peak_frequency(self) -> float:
        """Frequency (cm^-1) of the largest nonzero-frequency magnitude."""
        if self.magnitude.size < 2:
            return 0.0
        return float(self.frequency_axis[1 + int(np.argmax(self.magnitude[1:]))])


def fft_delta_t(map: EfficiencyMap, delta_T_index: int) -> BeatSpectrum:
    """Beat spectrum of the delta_t dependence at one delta_T.

    The column is mean-subtracted and Fourier transformed along the
    (uniform) delta_t axis; magnitudes of the non-negative half-spectrum
    are returned with the axis converted from 1/ps to cm^-1. Efficiency
    oscillating as cos(K * spacing * delta_t) therefore peaks at
    spacing.
    """
    delta_t = np.asarray(map.delta_t_axis, dtype=float)
    if delta_t.size < 8:
        raise ValueError("need at least 8 delta_t samples")
    steps = np.diff(delta_t)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("delta_t axis must be uniform")
    column = np.asarray(map.column(delta_T_index), dtype=float)
    if np.any(~np.isfinite(column)):
        raise ValueError("column contains missing cells")

    signal = column - column.mean()
    spectrum = np.fft.rfft(signal)
    freq_cm1 = np.fft.rfftfreq(signal.size, d=h) / C_CM_PER_PS
    return BeatSpectrum(freq_cm1, np.abs(spectrum), delta_t, signal)


@dataclass(frozen=True)
class RevivalReport:
    """Free-evolution rephasing fidelity of an excited wave packet."""

    times: np.ndarray
    fidelity: np.ndarray
    revival_times: np.ndarray
    revival_fidelities: np.ndarray


def revival_diagnostics(levels: LevelSystem, initial_excited_amplitudes,
                        t_max: float, dt: float, *,
                        threshold: float = 0.5) -> RevivalReport:
    """Autocorrelation fidelity of a freely evolving excited packet.

    F(t) = |sum_k p_k exp(-i K E_k t)|^2 with p_k the normalized level
    populations of the given amplitudes: the chance of finding the
    packet back in its initial shape, decay excluded. Local maxima of
    F above threshold, best first, are the candidate inter-pair delays
    for a train that wants to hit the packet in phase.
    """
    amps = np.asarray(initial_excited_amplitudes, dtype=complex)
    if amps.size != levels.n_excited:
        raise ValueError("need one amplitude per excited level")
    weights = np.abs(amps) ** 2
    total = weights.sum()
    if total <= 0:
        raise ValueError("excited amplitudes are all zero")
    if t_max <= 0 or dt <= 0 or dt > t_max:
        raise ValueError("need 0 < dt <= t_max")
    weights = weights / total

    energies = np.array([lv.energy for lv in levels.excited])
    times = np.arange(0.0, t_max + dt / 2.0, dt)
    phases = np.exp(-1j * K_RAD_PS_PER_CM * np.outer(times, energies))
    fidelity = np.abs(phases @ weights) ** 2

    interior = np.flatnonzero(
        (fidelity[1:-1] >= fidelity[:-2]) & (fidelity[1:-1] > fidelity[2:])
        & (fidelity[1:-1] >= threshold)) + 1
    interior = interior[times[interior] > 0.0]
    order = np.argsort(fidelity[interior])[::-1]
    ranked = interior[order]
    return RevivalReport(times, fidelity, times[ranked], fidelity[ranked])


@dataclass(frozen=True)
class SweepResult:
    """Efficiency table of a one-parameter robustness sweep.

    details["failures"] maps each NaN row's value to its error message.
    """

    parameter: str
    values: np.ndarray
    efficiency: np.ndarray
    details: dict = field(default_factory=dict)

    def spread(self) -> float:
        """max - min efficiency over the swept values (NaN-aware); NaN
        when every row failed."""
        done = self.efficiency[~np.isnan(self.efficiency)]
        return float(done.max() - done.min()) if done.size else math.nan


def robustness_sweep(levels: LevelSystem, protocol: str, parameter: str,
                     values, *, base_config: dict | None = None) -> SweepResult:
    """One protocol run per parameter value, everything else constant.

    parameter "n_pairs" varies the pulse count, whole numbers only, at
    fixed total integral action (areas are totals, so the per-pulse
    action rescales by itself), "area_scale" multiplies both channel
    areas, "alpha" sets both chirp staircases of the crp protocol.
    Failed rows become NaN.
    """
    if protocol not in RUNNERS:
        raise ValueError(f"protocol must be one of {tuple(RUNNERS)}")
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
    if parameter == "alpha" and protocol != "crp":
        raise ValueError("alpha sweeps only apply to the crp protocol")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if parameter == "n_pairs":
        fractional = vals[~np.isfinite(vals) | (vals != np.round(vals))]
        if fractional.size:
            raise ValueError(f"n_pairs values must be integers, got {fractional[0]}")
    base = dict(base_config or {})
    base.setdefault("record", "none")

    effs = np.empty(vals.size)
    failures = {}
    for i, v in enumerate(vals):
        kwargs = dict(base)
        if parameter == "n_pairs":
            kwargs["n_pairs"] = int(v)
        elif parameter == "area_scale":
            for key in ("pump_area", "dump_area"):
                ref = base.get(key)
                if ref is None:
                    raise ValueError(f"area_scale sweep needs {key} in base_config")
                kwargs[key] = ref * v
        else:
            kwargs["alpha_pump"] = v
            kwargs["alpha_dump"] = v
        result = _attempt(partial(RUNNERS[protocol], levels, **kwargs), [float(v)], failures)
        effs[i] = math.nan if result is None else result.final_target_population
    return SweepResult(parameter, vals, effs,
                       {"protocol": protocol, "base": base,
                        "failures": failures})

