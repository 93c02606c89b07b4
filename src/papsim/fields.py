"""Pulses and pulse-train schedules.

A train realizes a smooth adiabatic passage piecewise: each short pulse
carries the integral action of one interval of the reference envelope.
Carrier phases here are the train's own phase schedule; the comb's
part is added analytically by the propagator's PhaseFrame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .units import K_RAD_PS_PER_CM

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
    carrier_detuning : float
        Offset of the carrier from the frame reference transition, cm^-1.
    carrier_phase : float
        Carrier phase at the pulse center, rad.
    channel : str
        "pump" (ground_a <-> excited) or "dump" (ground_b <-> excited).
    phase_mask : tuple of float, optional
        Per-excited-level phases (rad) multiplied onto this pulse's
        couplings, e.g. a shaped dump.
    """

    shape: str
    fwhm: float
    area: float
    carrier_detuning: float = 0.0
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
               carrier_detuning: float = 0.0, carrier_phase: float = 0.0,
               channel: str = "pump",
               phase_mask: Sequence[float] | None = None) -> PulseSpec:
    """Validated PulseSpec constructor. fwhm is fs, area is rad."""
    if shape not in PULSE_SHAPES:
        raise ValueError(f"shape must be one of {PULSE_SHAPES}, got {shape!r}")
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    if area < 0:
        raise ValueError("area must be non-negative")
    mask = None if phase_mask is None else tuple(float(p) for p in phase_mask)
    return PulseSpec(shape, float(fwhm), float(area), float(carrier_detuning),
                     float(carrier_phase), channel, mask)


def rabi_envelope(pulse: PulseSpec, tau) -> np.ndarray:
    """Rabi envelope (rad/ps) at time tau (ps) past the support start.

    Zero outside [0, support]. The integral over the support equals
    pulse.area by construction.
    """
    tau = np.asarray(tau, dtype=float)
    T = pulse.support_ps
    if pulse.shape == "sin2":
        amp = 2.0 * pulse.area / T
        out = amp * np.sin(np.pi * np.clip(tau, 0.0, T) / T) ** 2
    else:
        sigma = pulse.gaussian_sigma_ps
        amp = pulse.area / (sigma * math.sqrt(2.0 * math.pi) * _GAUSS_TRUNC_NORM)
        out = amp * np.exp(-((tau - T / 2.0) ** 2) / (2.0 * sigma**2))
    return np.where((tau >= 0.0) & (tau <= T), out, 0.0)


def spectral_amplitude(pulse: PulseSpec, detuning_cm) -> np.ndarray:
    """Relative spectral amplitude of the envelope at a detuning (cm^-1).

    Analytic Fourier transform of the field envelope, normalized to 1 at
    zero detuning. This is the weight with which the pulse addresses a
    level offset from the carrier, useful for mask design and for reading
    which intermediate levels a given pulse can see at all.
    """
    omega = K_RAD_PS_PER_CM * np.asarray(detuning_cm, dtype=float)
    if pulse.shape == "sin2":
        # F(w)/F(0) = sinc(x) / (1 - (x/pi)^2) with x = w T / 2; the poles
        # at x = +-pi are removable (limit 1/2)
        x = np.atleast_1d(omega * pulse.support_ps / 2.0)
        denom = 1.0 - (x / np.pi) ** 2
        safe = np.abs(denom) > 1e-9
        out = np.empty_like(x)
        out[safe] = np.sinc(x[safe] / np.pi) / denom[safe]
        out[~safe] = np.pi / (2.0 * np.abs(x[~safe]))
        out = np.abs(out)
        return out if np.ndim(detuning_cm) else float(out[0])
    sigma = pulse.gaussian_sigma_ps
    return np.exp(-(sigma * omega) ** 2 / 2.0)


# --- train schedules ---

@dataclass(frozen=True)
class TrainEvent:
    """One pulse at an absolute center time (ps)."""

    time: float
    pulse: PulseSpec


@dataclass(frozen=True)
class TrainSchedule:
    """Ordered pulse events plus the recipe that generated them.

    delta_T is the inter-pair period (ps); delta_t_small the intra-pair
    pump offset (ps, positive = pump after dump).
    """

    events: tuple[TrainEvent, ...]
    n_pairs: int
    delta_T: float
    delta_t_small: float
    envelope_profile: str

    @property
    def start_time(self) -> float:
        if not self.events:
            return 0.0
        ev = self.events[0]
        return ev.time - ev.pulse.support_ps / 2.0


def quadratic_phase(n, n0: float, alpha: float) -> np.ndarray:
    """Pulse-number phase law alpha*(n - n0)^2/2; second difference is alpha."""
    n = np.asarray(n, dtype=float)
    return alpha * (n - n0) ** 2 / 2.0


def stirap_weights(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Counterintuitive linear ramps: pump 0 -> 1, dump 1 -> 0, inclusive."""
    if n_pairs < 2:
        raise ValueError("stirap ramps need n_pairs >= 2")
    ramp = np.arange(n_pairs) / (n_pairs - 1)
    return ramp, 1.0 - ramp


def crp_weights(n_pairs: int, n0: float, sigma_pairs: float) -> np.ndarray:
    """Gaussian pair weights exp(-(n - n0)^2 / 2 sigma^2)."""
    n = np.arange(n_pairs)
    return np.exp(-((n - n0) ** 2) / (2.0 * sigma_pairs**2))


def _check_no_overlap(events: Sequence[TrainEvent]) -> None:
    for prev, cur in zip(events, events[1:]):
        gap = cur.time - prev.time
        need = (prev.pulse.support_ps + cur.pulse.support_ps) / 2.0
        if gap < need:
            raise ValueError(
                f"pulse supports overlap: events at {prev.time:.6f} ps and "
                f"{cur.time:.6f} ps need a gap of {need:.6f} ps, have {gap:.6f} ps")


def make_schedule(events: Iterable[TrainEvent], n_pairs: int, delta_T: float,
                  delta_t_small: float, envelope_profile: str) -> TrainSchedule:
    """Validated schedule constructor: events sorted, supports disjoint.

    An empty event list is a legal do-nothing schedule.
    """
    ordered = tuple(sorted(events, key=lambda ev: ev.time))
    _check_no_overlap(ordered)
    return TrainSchedule(ordered, n_pairs, delta_T, delta_t_small,
                         envelope_profile)


def build_train(kind: str, n_pairs: int, delta_T: float, delta_t_small: float,
                pump_pulse: PulseSpec, dump_pulse: PulseSpec, *,
                alpha_pump: float = 0.0, alpha_dump: float = 0.0,
                sigma_pairs: float | None = None) -> TrainSchedule:
    """Build a pump-dump pair train from one prototype pulse per channel.

    Within pair n the dump pulse is centered at n*delta_T and the pump at
    n*delta_T + delta_t_small, so positive delta_t_small means the pump
    comes after the dump. The prototypes' ``area`` is the TOTAL integral
    action of that channel (rad); pulse n carries the fraction
    w(n)/sum(w) of it. Shape, width, carrier detuning, carrier phase and
    phase mask of every pulse come from its channel's prototype; the
    prototype phase adds to the train's phase schedule. n_pairs = 0
    yields an empty schedule.

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
    if kind not in TRAIN_KINDS:
        raise ValueError(f"kind must be one of {TRAIN_KINDS}, got {kind!r}")
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    if delta_T <= 0:
        raise ValueError("delta_T must be positive")
    if pump_pulse.channel != "pump" or dump_pulse.channel != "dump":
        raise ValueError("prototype pulses must carry their own channel")
    if n_pairs == 0:
        return make_schedule((), 0, delta_T, delta_t_small, kind)

    center = (n_pairs - 1) / 2.0

    if kind == "stirap":
        w_pump, w_dump = stirap_weights(n_pairs)
        ph_pump = np.zeros(n_pairs)
        ph_dump = np.zeros(n_pairs)
    elif kind == "crp":
        sigma = n_pairs / 4.0 if sigma_pairs is None else float(sigma_pairs)
        w_pump = crp_weights(n_pairs, center, sigma)
        w_dump = w_pump.copy()
        ph_pump = quadratic_phase(np.arange(n_pairs), center, alpha_pump)
        ph_dump = -quadratic_phase(np.arange(n_pairs), center, alpha_dump)
    else:
        w_pump = np.ones(n_pairs)
        w_dump = np.ones(n_pairs)
        ph_pump = np.zeros(n_pairs)
        ph_dump = np.zeros(n_pairs)

    area_pump = pump_pulse.area * w_pump / w_pump.sum()
    area_dump = dump_pulse.area * w_dump / w_dump.sum()

    events = []
    for n in range(n_pairs):
        t_pair = n * delta_T  # multiplication, not accumulation: no drift
        events.append(TrainEvent(t_pair, replace(
            dump_pulse, area=float(area_dump[n]),
            carrier_phase=dump_pulse.carrier_phase + float(ph_dump[n]))))
        events.append(TrainEvent(t_pair + delta_t_small, replace(
            pump_pulse, area=float(area_pump[n]),
            carrier_phase=pump_pulse.carrier_phase + float(ph_pump[n]))))

    return make_schedule(events, n_pairs, delta_T, delta_t_small, kind)


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
