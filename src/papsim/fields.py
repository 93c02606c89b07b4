"""Pulses and pulse-train schedules.

A train realizes a smooth adiabatic passage piecewise: each short pulse
carries the integral action of one interval of the reference envelope.
Carrier phases here are the train's own phase schedule; the comb's
part is added analytically by the propagator's PhaseFrame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# every shape is even about its centre, rabi_envelope(p, T - tau) =
# rabi_envelope(p, tau): a pulse pass integrates only the first half of a
# pulse and takes the second as its transpose (propagator._pulse_pass)
PULSE_SHAPES = ("sin2", "gaussian")
CHANNELS = ("pump", "dump")
TRAIN_KINDS = ("stirap", "crp", "flat_pairs")

# fraction of the sin^2 support occupied by the intensity FWHM:
# sin^4(pi t / T) = 1/2 at the edges
SIN2_FWHM_FRACTION = 1.0 - 2.0 * math.asin(2.0 ** -0.25) / math.pi

# gaussian envelopes are truncated at +-4 sigma and renormalized
GAUSSIAN_TRUNC_SIGMAS = 4.0
_GAUSS_TRUNC_NORM = math.erf(GAUSSIAN_TRUNC_SIGMAS / math.sqrt(2.0))


@dataclass(frozen=True)
class PulseSpec:
    """One pulse of a train.

    Parameters
    ----------
    shape : str
        "sin2" or "gaussian" field envelope.
    fwhm : float
        Intensity FWHM in femtoseconds.
    area : float
        Integrated Rabi angle of the peak-coupled channel, rad. The
        envelope is normalized so its integral over the support equals
        this value exactly.
    carrier_phase : float
        Carrier phase at the pulse center, rad. The carrier frequency is
        the channel's frequency of the frame (propagator.PhaseFrame),
        which a detuned carrier shifts.
    channel : str
        "pump" (ground_a <-> excited) or "dump" (ground_b <-> excited).
    phase_mask : tuple of float, optional
        Per-excited-level phases (rad) multiplied onto this pulse's
        couplings, e.g. a shaped dump.
    """

    shape: str
    fwhm: float
    area: float
    carrier_phase: float = 0.0
    channel: str = "pump"
    phase_mask: tuple[float, ...] | None = None

    @property
    def fwhm_ps(self) -> float:
        return self.fwhm * 1e-3

    @property
    def support_ps(self) -> float:
        """Length of the interval on which the envelope is nonzero."""
        if self.shape == "sin2":
            return self.fwhm_ps / SIN2_FWHM_FRACTION
        # gaussian, truncated
        return 2.0 * GAUSSIAN_TRUNC_SIGMAS * self.gaussian_sigma_ps

    @property
    def gaussian_sigma_ps(self) -> float:
        # intensity FWHM = 2*sigma*sqrt(2 ln 2) / sqrt(2): the field is
        # exp(-t^2 / 2 sigma^2), the intensity its square
        return self.fwhm_ps / (2.0 * math.sqrt(math.log(2.0)))


def make_pulse(shape: str, fwhm: float, area: float, *,
               carrier_phase: float = 0.0, channel: str = "pump",
               phase_mask: Sequence[float] | None = None) -> PulseSpec:
    """Validated PulseSpec constructor. fwhm is fs, area is rad."""
    if shape not in PULSE_SHAPES:
        raise ValueError(f"shape must be one of {PULSE_SHAPES}, got {shape!r}")
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    mask = None if phase_mask is None else tuple(float(p) for p in phase_mask)
    for name, value in (("fwhm", fwhm), ("area", area),
                        ("carrier_phase", carrier_phase)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if mask is not None and not all(map(math.isfinite, mask)):
        raise ValueError(f"phase_mask must be finite, got {mask}")
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    if area < 0:
        raise ValueError("area must be non-negative")
    return PulseSpec(shape, float(fwhm), float(area), float(carrier_phase),
                     channel, mask)


def rabi_envelope(pulse: PulseSpec, tau) -> np.ndarray:
    """Rabi envelope (rad/ps) at time tau (ps) past the support start.

    Zero outside [0, support]. The integral over the support equals
    pulse.area by construction.
    """
    return _profile(pulse, np.asarray(tau, dtype=float), pulse.area)


def _envelopes(pulses, nodes, steps) -> np.ndarray:
    """The (len(pulses),) + nodes.shape Rabi envelopes (rad/ps) at tau =
    nodes * (support / steps) ps past each pulse's support start. The
    profile is sampled once per shape and fwhm, whose pulses differ only
    in area, and scaled by each pulse's amplitude: the bits of a
    rabi_envelope call per pulse."""
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty((len(pulses),) + nodes.shape)
    shared = {}
    for i, pulse in enumerate(pulses):
        shared.setdefault((pulse.shape, pulse.fwhm), []).append(i)
    for i in shared.values():
        pulse = pulses[i[0]]
        area = np.reshape([pulses[k].area for k in i], (-1,) + (1,) * nodes.ndim)
        out[i] = _profile(pulse, nodes * (pulse.support_ps / steps), area)
    return out


def _profile(pulse: PulseSpec, tau: np.ndarray, area) -> np.ndarray:
    """The Rabi envelope (rad/ps) of the pulse's shape and fwhm at tau
    (ps) past the support start, for `area`: a float, or an array of
    areas that broadcasts against tau."""
    T = pulse.support_ps
    if pulse.shape == "sin2":
        amp = 2.0 * area / T
        out = amp * np.sin(np.pi * np.clip(tau, 0.0, T) / T) ** 2
    else:
        sigma = pulse.gaussian_sigma_ps
        amp = area / (sigma * math.sqrt(2.0 * math.pi) * _GAUSS_TRUNC_NORM)
        out = amp * np.exp(-((tau - T / 2.0) ** 2) / (2.0 * sigma**2))
    return np.where((tau >= 0.0) & (tau <= T), out, 0.0)


# --- train schedules ---

@dataclass(frozen=True)
class TrainEvent:
    """One pulse at an absolute center time (ps)."""

    time: float
    pulse: PulseSpec


def _pulse_key(pulse: PulseSpec) -> tuple:
    """A pulse up to its carrier phase, which its operator absorbs."""
    return (pulse.shape, pulse.fwhm, pulse.area, pulse.channel,
            pulse.phase_mask)


@dataclass(frozen=True, eq=False)
class TrainSchedule:
    """Pulse events in time order, as arrays, plus the recipe that
    generated them.

    Event k is centered at time[k] (ps) and is the pulse pulses[pulse[k]]
    at carrier phase carrier_phase[k]. pulses holds each distinct pulse
    once, whatever its carrier phase; in a built train they differ only
    in area. delta_T is the inter-pair period (ps); delta_t_small the
    intra-pair pump offset (ps, positive = pump after dump).

    Inside papsim a stack of C schedules of one recipe, whose rows order
    the same events differently and differ only in delta_t_small, holds
    (C, E) arrays and a (C,) delta_t_small; a scan column is one.
    """

    time: np.ndarray
    pulse: np.ndarray
    carrier_phase: np.ndarray
    pulses: tuple[PulseSpec, ...]
    n_pairs: int
    delta_T: float
    delta_t_small: float
    envelope_profile: str

    @cached_property
    def support(self) -> np.ndarray:
        """Support length (ps) of every event, read-only, built on first
        use."""
        support = np.array([p.support_ps for p in self.pulses])[self.pulse]
        support.flags.writeable = False
        return support

    @property
    def start_time(self) -> float:
        if not self.time.size:
            return 0.0
        return float(self.time[0] - self.support[0] / 2.0)

    @cached_property
    def events(self) -> tuple[TrainEvent, ...]:
        """The events as objects, derived from the arrays on first use."""
        return tuple(TrainEvent(t, replace(self.pulses[i], carrier_phase=phi))
                     for t, i, phi in zip(self.time.tolist(), self.pulse.tolist(),
                                          self.carrier_phase.tolist()))


def _schedules(time, pulse, carrier_phase, pulses, n_pairs, delta_T,
               delta_t_small, envelope_profile):
    """The stack of the schedules whose pulse supports do not overlap,
    one per row of the (C, E) event times, and {row: reason} of the others.

    pulse and carrier_phase are (E,) and shared by the rows, and
    delta_t_small holds one value per row. Each row is sorted once by a
    stable argsort, so events at equal times keep their order.
    """
    order = np.argsort(time, axis=1, kind="stable")
    time = np.take_along_axis(time, order, axis=1)
    pulse, carrier_phase = pulse[order], carrier_phase[order]
    support = np.array([p.support_ps for p in pulses])[pulse]
    gap = np.diff(time, axis=1)
    need = (support[:, :-1] + support[:, 1:]) / 2.0
    bad = ~(gap >= need)  # a NaN gap overlaps too
    errors = {}
    for c in np.flatnonzero(bad.any(axis=1)).tolist():
        k = int(np.argmax(bad[c]))
        errors[c] = (
            f"pulse supports overlap: events at {time[c, k]:.6f} ps and "
            f"{time[c, k + 1]:.6f} ps need a gap of {need[c, k]:.6f} ps, "
            f"have {gap[c, k]:.6f} ps")
    rows = ~bad.any(axis=1)
    return TrainSchedule(time[rows], pulse[rows], carrier_phase[rows], pulses,
                         n_pairs, delta_T, np.asarray(delta_t_small)[rows],
                         envelope_profile), errors


def _one(stack: TrainSchedule, errors: dict) -> TrainSchedule:
    """The schedule of a one-row stack, or its overlap as a ValueError."""
    if errors:
        raise ValueError(errors[0])
    return replace(stack, time=stack.time[0], pulse=stack.pulse[0],
                   carrier_phase=stack.carrier_phase[0],
                   delta_t_small=stack.delta_t_small[0])


def make_schedule(events: Iterable[TrainEvent], n_pairs: int, delta_T: float,
                  delta_t_small: float, envelope_profile: str) -> TrainSchedule:
    """Validated schedule constructor: events sorted, supports disjoint.

    The events may mix any pulses. An empty event list is a legal
    do-nothing schedule.
    """
    distinct: dict = {}
    columns = np.array([
        (ev.time, distinct.setdefault(_pulse_key(ev.pulse), (len(distinct), ev.pulse))[0],
         ev.pulse.carrier_phase)
        for ev in events], dtype=float).reshape(-1, 3)
    return _one(*_schedules(
        columns[None, :, 0], columns[:, 1].astype(int), columns[:, 2],
        tuple(p for _, p in distinct.values()), n_pairs, delta_T,
        [delta_t_small], envelope_profile))


def build_train(kind: str, n_pairs: int, delta_T: float, delta_t_small: float,
                pump_pulse: PulseSpec, dump_pulse: PulseSpec, *,
                alpha_pump: float = 0.0, alpha_dump: float = 0.0,
                sigma_pairs: float | None = None) -> TrainSchedule:
    """Build a pump-dump pair train from one prototype pulse per channel.

    Within pair n the dump pulse is centered at n*delta_T and the pump at
    n*delta_T + delta_t_small, so positive delta_t_small means the pump
    comes after the dump. The prototypes' ``area`` is the TOTAL integral
    action of that channel (rad); pulse n carries the fraction
    w(n)/sum(w) of it. Shape, width, carrier phase and phase mask of
    every pulse come from its channel's prototype; the prototype phase
    adds to the train's phase schedule. n_pairs = 0 yields an empty
    schedule. Both delays must be finite.

    Kinds
    -----
    stirap
        Counterintuitive linear envelope ramps, pump (0 -> 1) and dump
        (1 -> 0) inclusive, constant carrier phase.
    crp
        Gaussian envelope weights (sigma_pairs defaults to n_pairs/4,
        centered on the train midpoint n0 = (n_pairs - 1)/2) with
        quadratic carrier phase alpha*(n - n0)^2/2 on each channel. The
        dump staircase is applied in the emission quadrature (stored phase
        -alpha_dump*(n - n0)^2/2), so the two-photon phase of pair n
        advances by (alpha_pump + alpha_dump)*(n - n0)^2/2 and sweeps
        through the Raman resonance: that sweep is what makes the
        passage adiabatic.
    flat_pairs
        Identical pairs, constant carrier phase.
    """
    return _one(*_pair_trains(kind, n_pairs, delta_T, [delta_t_small],
                              pump_pulse, dump_pulse, alpha_pump=alpha_pump,
                              alpha_dump=alpha_dump, sigma_pairs=sigma_pairs))


def _pair_trains(kind: str, n_pairs: int, delta_T: float, delta_t_small,
                 pump_pulse: PulseSpec, dump_pulse: PulseSpec, *,
                 alpha_pump: float = 0.0, alpha_dump: float = 0.0,
                 sigma_pairs: float | None = None):
    """build_train for every value of the sequence delta_t_small at once,
    as _schedules returns them: the trains differ only by a broadcast
    shift of the pump times."""
    if kind not in TRAIN_KINDS:
        raise ValueError(f"kind must be one of {TRAIN_KINDS}, got {kind!r}")
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    if not 0 < delta_T < math.inf:
        raise ValueError(f"delta_T must be positive and finite, got {delta_T}")
    shifts = np.asarray(delta_t_small, dtype=float)
    if not np.isfinite(shifts).all():
        raise ValueError(f"delta_t_small must be finite, got "
                         f"{shifts[~np.isfinite(shifts)][0]}")
    if pump_pulse.channel != "pump" or dump_pulse.channel != "dump":
        raise ValueError("prototype pulses must carry their own channel")

    n = np.arange(n_pairs)
    w_pump = w_dump = np.ones(n_pairs)
    ph_pump = ph_dump = np.zeros(n_pairs)
    if kind == "stirap":
        if n_pairs == 1:  # n_pairs = 0 is the empty train
            raise ValueError("stirap ramps need n_pairs >= 2")
        w_pump = n / (n_pairs - 1)
        w_dump = 1.0 - w_pump
    elif kind == "crp":
        center = (n_pairs - 1) / 2.0
        sigma = n_pairs / 4.0 if sigma_pairs is None else float(sigma_pairs)
        w_pump = w_dump = np.exp(-((n - center) ** 2) / (2.0 * sigma**2))
        ph_pump = alpha_pump * (n - center) ** 2 / 2.0
        ph_dump = -(alpha_dump * (n - center) ** 2 / 2.0)

    # pair by pair, dump first
    t_pair = n * delta_T  # multiplication, not accumulation: no drift
    time = np.empty((len(shifts), n_pairs, 2))
    time[:, :, 0] = t_pair
    time[:, :, 1] = t_pair + shifts[:, None]
    channels = (dump_pulse, w_dump, ph_dump), (pump_pulse, w_pump, ph_pump)
    area = np.column_stack([p.area * w / w.sum() for p, w, _ in channels])
    phase = np.column_stack([p.carrier_phase + ph for p, _, ph in channels])
    distinct: dict = {}
    pulse = [distinct.setdefault(key, len(distinct))
             for key in zip([0, 1] * n_pairs, area.ravel().tolist())]
    pulses = tuple(replace(channels[c][0], area=a) for c, a in distinct)
    return _schedules(time.reshape(len(shifts), -1), np.array(pulse, dtype=int),
                      phase.ravel(), pulses, n_pairs, delta_T, delta_t_small,
                      kind)


# --- dump shaping ---

def design_dump_phase_mask(wavepacket: np.ndarray,
                           dump_couplings: np.ndarray) -> np.ndarray:
    """Phase mask that dumps a given excited wave packet best.

    For excited amplitudes c_k reached before the dump and complex dump
    couplings d_k to the target, the mask phi_k = arg(c_k) - arg(d_k)
    makes every level's transfer amplitude interfere constructively (the
    mask the time-reversed dump would carry). Phases are normalized so
    the largest-|c_k| level carries mask 0. Levels with zero amplitude or
    coupling get mask 0.
    """
    c = np.asarray(wavepacket, dtype=complex)
    d = np.asarray(dump_couplings, dtype=complex)
    if c.shape != d.shape:
        raise ValueError("wavepacket and dump_couplings must have the same length")
    mask = np.where((c != 0) & (d != 0), np.angle(c) - np.angle(d), 0.0)
    ref = int(np.argmax(np.abs(c)))
    mask = mask - mask[ref]
    return np.mod(mask + np.pi, 2.0 * np.pi) - np.pi
