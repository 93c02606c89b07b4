"""State propagation in the two-frequency rotating frame.

One rotation per channel: ground_a amplitudes rotate at the initial
level's frequency, excited amplitudes additionally at the pump frame
frequency, ground_b additionally at pump minus dump. In this frame the
Hamiltonian of level k carries the diagonal d_k - i Gamma_k / 2 with

    d_g = K (E_g - E_i)                      (ground_a)
    d_e = K (E_e - E_i) - omega_pump         (excited)
    d_b = K (E_b - E_i) - omega_pump + omega_dump   (ground_b)

and a pulse couples its channel with the envelope Rabi rate times
exp(-i phi(t)) on the absorption leg (lower manifold -> excited for the
pump, ground_b -> excited for the dump). phi(t) is the carrier phase,
d phi = K * carrier_detuning per unit time plus the per-pulse constant;
it is evaluated analytically from the schedule, never integrated.

Free evolution is exact: a_k <- a_k exp(-i d_k dt - Gamma_k dt / 2),
from the same diagonal the kernel uses.

Every pulse and window goes through one fixed-step RK4 kernel, _rk4,
which advances a pass in one of two ways. Its inputs are the diagonal,
a list of channels (A_c, drive_c), start states or operators y and a
step h; the P problems of a pass share each of A_c, y and h or give one
per problem. drive_c = w exp(-i phi) is sampled once per pulse on the
RK4 half-step grid, by one vectorized rabi_envelope call. Large passes
step y through the RK4 stages. The ODE is linear, so a step is also a
step matrix I + X built from the step's three generators: small passes
(P n^2 <= 512 and n <= 16), whose loop pays numpy call overhead rather
than flops, build the matrices of 64 steps in three batched products,
multiply them out pairwise and apply the product to y. A scan column's
two n = 4 operators take 4.1x less time that way; at P n^2 = 784 and
900 the gain was gone, and one n = 25 state column took 1.6x longer.

A schedule holds each distinct pulse once and, per event, its time, an
index into those pulses and a carrier phase; a scan column stacks C
such rows. The one event loop, _run_events, integrates the distinct
pulses in one batched pass, then steps a (C, n) stack of states
through them by exact phase conjugation, each row with its own events.
It reads the event starts, supports and center phases
(pulse_center_phase element by element) straight from the schedule's
arrays. run_schedule is one row (record="dense" applies operator
snapshots kept 40 times per pulse, every max(1, N // 40) of the pass's
N steps), a scan column one row per cell. propagate_pulse calls the
kernel directly.

Step counts come from a tolerance unless they are given. Before the
pass, _train_steps integrates the largest-area pulse of each group of
pulses that differ only in area at N0 = 25 and 50 steps; the
step-doubling estimate of their error sets the fewest steps at which the
row's E events add up to half of _TOLERANCE = 1e-9, between N0 and the
cap MIN_STEPS_PER_PULSE = 800. A window estimates on its state over the
whole window, with the cap max(4000, 200 per ps) (_window_cap). Both
report the steps, the estimate at those steps and the events in the
trajectory's diagnostics.

propagate_window samples its callables once on the half-step grid of
the whole window and records the state every max(1, steps // 400)
steps. Its ODE is linear, so U(t2, t0) = U(t2, t1) U(t1, t0): up to
_WINDOW_SEGMENT_MAX_LEVELS levels the window is cut into segments of
that many steps, whose operators are one batched kernel pass, each
problem with its own slice of the samples (the steps left over are one
more small pass, which the size rule sends to the step matrices), and
the state is chained through the operators in time order. An operator
costs n times the flops of one state column, so larger systems step
their one state through the window instead and record kernel
snapshots. oracle_propagate is the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import PulseSpec, TrainSchedule, rabi_envelope
from .levels import LevelSystem, raman_shift
from .units import K_RAD_PS_PER_CM

# the cap of the RK4 steps per pulse support that a default count may take
# (see _TOLERANCE), and propagate_pulse's default. A given count (steps=,
# train.steps) may be any int >= 4; it bypasses the error estimate.
MIN_STEPS_PER_PULSE = 800

# Default step counts come from a tolerance. A pass whose cap is `cap`
# steps first takes the step-doubling (Richardson) estimate of the error
# of N0 = cap // 32 steps, err(N0) = 16/15 max |y_N0 - y_2N0| (Hairer,
# Norsett and Wanner, Solving ODEs I, II.4), then runs RK4's N^-4 law
# backwards: N = ceil(N0 (2 E err(N0) / _TOLERANCE)^(1/4)) in [N0, cap],
# so that the E events of a row add up to half the tolerance. A run held
# at the cap with its estimate above the tolerance is logged as a warning.
_TOLERANCE = 1e-9

ORACLE_MAX_LEVELS = 32
# steps per stacked expm call of the oracle: 500 x 32 x 32 complex is 8 MB
_ORACLE_CHUNK = 500

# record="dense" samples inside each pulse every max(1, steps // this) RK4
# steps: every 20 at 800 steps
_DENSE_SAMPLES = 40

# propagate_window integrates segment operators up to this many levels.
# The batch removes per-step call overhead but costs n times the flops
# of one state column; on a 2-core x86 host the 20 000-step reference
# broke even at n = 17-19 (n = 16: 0.34-0.39 s batched, 0.46-0.60 s
# stepped; n = 25: 0.77-1.13 s batched, 0.48-0.72 s stepped).
_WINDOW_SEGMENT_MAX_LEVELS = 16


class NumericsError(RuntimeError):
    """Propagation produced non-finite amplitudes."""


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Complex amplitudes over ground_a ++ excited ++ ground_b at a time (ps)."""

    amplitudes: np.ndarray
    time: float

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def ground_state(system: LevelSystem, time: float = 0.0) -> QuantumState:
    """All population in the system's initial level."""
    amps = np.zeros(system.n_levels, dtype=complex)
    amps[system.initial_index] = 1.0
    return QuantumState(amps, time)


@dataclass(frozen=True)
class PhaseFrame:
    """Reference frequencies (rad/ps) of the two rotating channels.

    Carrier phases of scheduled pulses are exact functions of the event
    times and comb parameters; nothing here is ever obtained by
    integrating optical cycles.
    """

    omega_pump: float
    omega_dump: float

    @classmethod
    def for_system(cls, system: LevelSystem, pump_offset: float = 0.0,
                   two_photon_offset: float = 0.0) -> "PhaseFrame":
        """Raman-locked frame resonant with the system's carrier anchor.

        pump_offset detunes the pump reference (cm^-1, positive = carrier
        above the anchor transition); two_photon_offset detunes the
        two-photon reference so the target level sits that many cm^-1
        from two-photon resonance.
        """
        e_init = system.initial_level.energy
        omega_pump = K_RAD_PS_PER_CM * (system.anchor_energy() - e_init + pump_offset)
        omega_dump = omega_pump + K_RAD_PS_PER_CM * (raman_shift(system) - two_photon_offset)
        return cls(omega_pump, omega_dump)

    @classmethod
    def comb_locked(cls, system: LevelSystem, delta_T: float,
                    f0_pump: float = 0.0) -> "PhaseFrame":
        """Frame at the comb tooth nearest the anchor transition.

        The comb has f_rep = 1/delta_T (THz) and pump offset f0_pump; the
        pump carrier snaps to the nearest tooth 2 pi (N f_rep + f0_pump)
        and the dump carrier keeps the exact Raman offset from it, which
        is what a locked dump comb provides. Detunings of the levels from
        the snapped carrier then vary with delta_T exactly as the teeth
        slide across the spectrum.
        """
        if not 0 < delta_T < math.inf:
            raise ValueError(f"delta_T must be positive and finite, got {delta_T}")
        f_rep = 1.0 / delta_T
        e_init = system.initial_level.energy
        f_nominal = K_RAD_PS_PER_CM * (system.anchor_energy() - e_init) / (2.0 * math.pi)
        n_tooth = round((f_nominal - f0_pump) / f_rep)
        omega_pump = 2.0 * math.pi * (n_tooth * f_rep + f0_pump)
        omega_dump = omega_pump + K_RAD_PS_PER_CM * raman_shift(system)
        return cls(omega_pump, omega_dump)

    def detunings(self, system: LevelSystem) -> np.ndarray:
        """Frame-referenced diagonal (rad/ps) of every level, global order."""
        e = system.energies()
        e_init = system.initial_level.energy
        d = K_RAD_PS_PER_CM * (e - e_init)
        d[system.slice_excited()] -= self.omega_pump
        d[system.slice_ground_b()] -= self.omega_pump - self.omega_dump
        return d


def pulse_center_phase(pulse: PulseSpec, center_time: float) -> float:
    """Analytic carrier phase of a pulse at its center time (rad)."""
    return pulse.carrier_phase + K_RAD_PS_PER_CM * pulse.carrier_detuning * center_time


# --- Hamiltonian assembly ---

def _absorption_matrix(system: LevelSystem, channel: str,
                       phase_mask=None) -> np.ndarray:
    """Absorption-leg coupling matrix A (excited rows) for a unit envelope.

    H(t) = diag + w(t) * (exp(-i phi(t)) A + exp(+i phi(t)) A^dagger).
    Dump couplings carry the per-level dipole phases and any pulse phase
    mask in this (absorption) quadrature.
    """
    n = system.n_levels
    A = np.zeros((n, n), dtype=complex)
    sl_e = system.slice_excited()
    if channel == "pump":
        sl_g = system.slice_ground_a()
        A[sl_e, sl_g] = -0.5 * system.pump_dipoles.T
    else:
        couplings = system.dump_dipoles.T.astype(complex)
        if system.dipole_phases is not None:
            couplings = couplings * np.exp(1j * system.dipole_phases)[:, None]
        if phase_mask is not None:
            if len(phase_mask) != system.n_excited:
                raise ValueError("phase_mask must hold one phase per excited level")
            couplings = couplings * np.exp(1j * np.asarray(phase_mask))[:, None]
        sl_b = system.slice_ground_b()
        A[sl_e, sl_b] = -0.5 * couplings
    return A


def _diagonal(system: LevelSystem, frame: PhaseFrame) -> np.ndarray:
    return frame.detunings(system) - 0.5j * system.decay_rates()


# --- the RK4 kernel ---

# steps, and (problem, step) pairs, whose drive coefficients are laid out
# at once; bounds the kernel's scratch memory independently of the number
# of steps and of problems
_BLOCK_STEPS = 64
_BLOCK_CELLS = 4096

# Passes of P problems on n levels multiply step matrices instead of
# looping over steps when P n^2 <= _PRODUCT_MAX_WORK and n <=
# _PRODUCT_MAX_LEVELS. Speedup over the loop, 800 steps, 2-core x86 host,
# one BLAS thread: operators (m = n) 6.3x at P n^2 = 9, 4.1x at 32, 1.5x
# at 180, 1.1x at 504, 1.0x at 784 and 900, 0.74x at n = 25, P = 2; one
# state column (m = 1), where the loop does n times fewer flops, 5.8x at
# n = 3, 1.5x at n = 16, 1.0x at 17, 0.81x at 20, 0.62x at 25.
_PRODUCT_MAX_WORK = 512
_PRODUCT_MAX_LEVELS = 16


def _rk4(diag: np.ndarray, channels, y: np.ndarray, h, stride: int | None = None):
    """Fixed-step RK4 of P independent problems in one vectorized pass.

    diag is the (n,) diagonal; channels is a list of (A_c, drive_c),
    drive_c the (P, 2 steps + 1) complex drive w e^{-i phi} sampled on the
    half-step grid tau_j = j h / 2. Shared by all problems or given per
    problem, and stored once when shared: the step h, a scalar or (P,);
    each absorption matrix A_c, (n, n) or (P, n, n); the start y, (n, m)
    or (P, n, m), state columns (m = 1) or operators (m = n).

    G(tau_j) = -i h H(tau_j) is one small product of the samples at
    tau_j, (1, drive_c, conj(drive_c), ...), with the basis (diag, A_c,
    A_c^dagger, ...); the samples are laid out one block of steps at a
    time. Large passes step y through the RK4 stages, a block of at
    most _BLOCK_CELLS (problem, step) pairs at a time, with extra memory
    O(P n^2) besides the drives. Small ones (see _PRODUCT_MAX_WORK),
    whose steps cost numpy calls rather than flops, use that the ODE is
    linear: a step is y <- (I + X) y with

        X = (G_s + 2 K_2 + 2 K_3 + K_4) / 6,    K_2 = G_m (I + G_s / 2),
        K_3 = G_m (I + K_2 / 2),    K_4 = G_e (I + K_3)

    from G at the step's start, middle and end. A block of _BLOCK_STEPS
    steps, or of stride steps so that every snapshot ends a block, forms
    all its X in three batched products and multiplies them out pairwise
    (an associative scan: Blelloch, CMU-CS-90-190, 1990), keeping
    (I + X_b)(I + X_a) as X_b + X_a + X_b X_a so that nothing small is
    rounded against the identity; y <- y + X y then applies the block,
    with extra memory O(block P n^2). The results differ from the loop's
    by association order only, about 1e-15 per pass, and sit closer to
    exact RK4 arithmetic than the loop's.

    Returns (y, snapshots): y is (P, n, m); snapshots stacks y after
    every stride-th step strictly inside the run, (k, P, n, m), or None.
    """
    P, n = channels[0][1].shape[0], diag.size
    mats = [np.diag(diag)]
    for A, _ in channels:
        mats += [A, A.conj().swapaxes(-1, -2)]
    M = len(mats)
    mats = np.stack(np.broadcast_arrays(*mats), axis=-3)
    basis = (-1j * np.reshape(h, (-1, 1, 1, 1)) * mats).reshape(-1, M, n * n)
    steps = (channels[0][1].shape[1] - 1) // 2
    product = P * n * n <= _PRODUCT_MAX_WORK and n <= _PRODUCT_MAX_LEVELS
    if product:
        block = stride or _BLOCK_STEPS
    else:
        block = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // P))
    coef = np.ones((2 * block + 1, P, 1, M), dtype=complex)
    eye = np.eye(n)

    def generator(j: int) -> np.ndarray:
        return (coef[j] @ basis).reshape(P, n, n)

    snapshots = (np.empty(((steps - 1) // stride, P) + y.shape[-2:], dtype=complex)
                 if stride else None)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        rows = slice(2 * start, 2 * stop + 1)
        for c, (_, drive) in enumerate(channels):
            samples = drive[:, rows].T
            coef[:samples.shape[0], :, 0, 1 + 2 * c] = samples
            coef[:samples.shape[0], :, 0, 2 + 2 * c] = samples.conj()
        if product:
            g = (coef[:2 * (stop - start) + 1] @ basis).reshape(-1, P, n, n)
            g_start, g_mid, g_end = g[:-1:2], g[1::2], g[2::2]
            stage = g_mid @ (eye + 0.5 * g_start)
            x = g_start + 2.0 * stage
            stage = g_mid @ (eye + 0.5 * stage)
            x += 2.0 * stage
            x += g_end @ (eye + stage)
            x /= 6.0
            # M_{b-1} ... M_1 M_0 kept as M - I, later steps on the left
            while len(x) > 1:
                a, b = x[:len(x) - 1:2], x[1::2]
                x = np.concatenate([b + a + b @ a, x[len(x) - len(x) % 2:]])
            y = y + x[0] @ y
            if stride and stop % stride == 0 and stop < steps:
                snapshots[stop // stride - 1] = y
            continue
        g_end = generator(0)
        for k in range(start, stop):
            j = 2 * (k - start)
            g_start, g_mid, g_end = g_end, generator(j + 1), generator(j + 2)
            k1 = g_start @ y
            k2 = g_mid @ (y + 0.5 * k1)
            k3 = g_mid @ (y + 0.5 * k2)
            k4 = g_end @ (y + k3)
            y = y + (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            if stride and (k + 1) % stride == 0 and k + 1 < steps:
                snapshots[(k + 1) // stride - 1] = y
    return y, snapshots


def _pulse_drive(pulse: PulseSpec, center_phase: float, steps: int) -> np.ndarray:
    """w e^{-i phi} on the half-step grid of the pulse support.

    The carrier phase is center_phase at the support midpoint and slides
    at K * carrier_detuning away from it.
    """
    T = pulse.support_ps
    tau = np.linspace(0.0, T, 2 * steps + 1)
    phi = center_phase + K_RAD_PS_PER_CM * pulse.carrier_detuning * (tau - T / 2.0)
    return rabi_envelope(pulse, tau) * np.exp(-1j * phi)


def _integrate_pulses(system: LevelSystem, frame: PhaseFrame, pulses,
                      center_phases, y: np.ndarray, steps: int,
                      stride: int | None = None):
    """RK4 over each pulse's support, all pulses in one batched pass.

    y is (n, m), shared by all pulses, or (P, n, m), one state column or
    operator per pulse. Raises NumericsError naming the channel of the
    first pulse that blew up.
    """
    A = np.stack([_absorption_matrix(system, p.channel, p.phase_mask)
                  for p in pulses])
    drive = np.empty((len(pulses), 2 * steps + 1), dtype=complex)
    for row, pulse, phi in zip(drive, pulses, center_phases):
        row[:] = _pulse_drive(pulse, phi, steps)
    h = np.array([p.support_ps / steps for p in pulses])
    y, snapshots = _rk4(_diagonal(system, frame), [(A, drive)], y, h, stride)
    bad = ~np.isfinite(y).all(axis=(1, 2))
    if bad.any():
        raise NumericsError(
            f"non-finite amplitudes while integrating a "
            f"{pulses[int(np.argmax(bad))].channel} pulse")
    return y, snapshots


def _steps(steps: int | None) -> int:
    return MIN_STEPS_PER_PULSE if steps is None else max(int(steps), 4)


# --- step counts from a tolerance ---

def _doubling_error(diag: np.ndarray, A, drives, y: np.ndarray, h) -> float:
    """16/15 max |y_N - y_2N|, the step-doubling estimate of the error of
    N RK4 steps of size h; each drive is sampled once, on the half-step
    grid of 2N steps, whose every other sample is that of N steps. A
    pass that blows up estimates an infinite error."""
    with np.errstate(all="ignore"):
        coarse, _ = _rk4(diag, [(a, d[:, ::2]) for a, d in zip(A, drives)], y, h)
        fine, _ = _rk4(diag, list(zip(A, drives)), y, h / 2.0)
    err = 16.0 / 15.0 * float(np.max(np.abs(coarse - fine)))
    return err if math.isfinite(err) else math.inf


def _pulse_error(system: LevelSystem, frame: PhaseFrame, pulses, n0: int) -> float:
    """The step-doubling error of n0 steps per pulse, taken on the
    largest-area pulse of each group of pulses that differ only in area
    (for a runner's train, one pump and one dump)."""
    largest = {}
    for p in pulses:
        key = replace(p, area=0.0)
        if key not in largest or p.area > largest[key].area:
            largest[key] = p
    group = list(largest.values())
    A = np.stack([_absorption_matrix(system, p.channel, p.phase_mask) for p in group])
    drive = np.array([_pulse_drive(p, 0.0, 2 * n0) for p in group])
    h = np.array([p.support_ps / n0 for p in group])
    return _doubling_error(_diagonal(system, frame), [A], [drive],
                           np.eye(system.n_levels, dtype=complex), h)


def _window_cap(duration: float) -> int:
    """The default steps of a window: 200 per ps, at least 4000."""
    return max(4000, int(200.0 * duration))


def _chosen_steps(steps: int | None, cap: int, events: int,
                  error) -> tuple[int, dict]:
    """The given steps (at least 4), or the tolerance rule's for a pass
    whose count defaults to cap, and their diagnostics; error(n0)
    estimates one event's error at n0 steps."""
    if steps is not None:
        n = _steps(steps)
        return n, {"steps": n, "error_estimate": None, "events": events}
    n0 = cap // 32
    err = error(n0)
    ratio = 2.0 * events * err / _TOLERANCE
    n = cap if ratio >= (cap / n0) ** 4 else max(n0, math.ceil(n0 * ratio ** 0.25))
    estimate = events * err * (n0 / n) ** 4
    if n == cap and estimate > _TOLERANCE:
        # loaded only here, so that importing papsim loads numpy only
        import logging

        logging.getLogger(__name__).warning(
            "RK4 held at its cap of %d steps: estimated error %.2g exceeds "
            "the tolerance %.2g", cap, estimate, _TOLERANCE)
    return n, {"steps": n, "error_estimate": estimate, "events": events}


def _train_steps(system: LevelSystem, frame: PhaseFrame,
                 schedule: TrainSchedule, steps: int | None) -> tuple[int, dict]:
    """The RK4 steps per pulse of a schedule and their diagnostics: the
    given steps, or the tolerance rule over the events of one row, at
    most MIN_STEPS_PER_PULSE."""
    pulses = schedule.pulses
    n, diagnostics = _chosen_steps(
        steps, MIN_STEPS_PER_PULSE, schedule.time.shape[-1],
        lambda n0: _pulse_error(system, frame, pulses, n0) if pulses else 0.0)
    return n, {**diagnostics, "distinct_pulses": len(pulses)}


def propagate_pulse(state: QuantumState, system: LevelSystem, pulse: PulseSpec,
                    frame: PhaseFrame, steps: int | None = None) -> QuantumState:
    """Propagate through one pulse whose support starts at state.time.

    Fixed-step RK4, by default MIN_STEPS_PER_PULSE steps over the
    support (override via ``steps``). The carrier phase at the pulse
    center is pulse.carrier_phase plus the analytic comb slip
    K * carrier_detuning * t_center.
    """
    t_center = state.time + pulse.support_ps / 2.0
    y = state.amplitudes.astype(complex)[None, :, None]
    y, _ = _integrate_pulses(system, frame, [pulse],
                             [pulse_center_phase(pulse, t_center)], y,
                             _steps(steps))
    return QuantumState(y[0, :, 0], state.time + pulse.support_ps)


def free_evolve(state: QuantumState, system: LevelSystem, dt: float,
                frame: PhaseFrame | None = None) -> QuantumState:
    """Exact field-free evolution for dt >= 0 picoseconds."""
    if dt < 0:
        raise ValueError("free evolution requires dt >= 0")
    if frame is None:
        frame = PhaseFrame.for_system(system)
    factor = np.exp(-1j * _diagonal(system, frame) * dt)
    return QuantumState(state.amplitudes * factor, state.time + dt)


# --- schedules ---

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded populations along a run.

    times (ps), populations (len(times) x n_levels), norms (total
    population, i.e. 1 minus what has decayed away), the final state and
    the diagnostics of the RK4 steps: the steps taken, their error
    estimate (None for a given count), the events and, for a schedule,
    its distinct pulses.
    """

    times: np.ndarray
    populations: np.ndarray
    norms: np.ndarray
    labels: tuple[str, ...]
    final_state: QuantumState
    diagnostics: dict = field(default_factory=dict)


def _run_events(system: LevelSystem, frame: PhaseFrame,
                schedule: TrainSchedule, steps: int | None, amps: np.ndarray,
                t0, stride: int | None = None, visit=None):
    """Integrate schedule.pulses, in their stored order, in one batched
    pass of _train_steps(steps) RK4 steps, then step the (C, n) stack amps, row
    c from time t0[c] through row c of the schedule (one train for C = 1,
    or a (C, E) column stack), and return the final (amps, times). Event
    k applies operator schedule.pulse[k]; a row's result does not depend
    on the other rows. visit(k, start, op, rotated, z, amps, end,
    snapshots) sees each event k; snapshots are the operators' states
    every stride steps of the pass."""
    n, pulses = system.n_levels, schedule.pulses
    ops = snapshots = None
    if pulses:
        ops, snapshots = _integrate_pulses(
            system, frame, pulses, [0.0] * len(pulses), np.eye(n, dtype=complex),
            _train_steps(system, frame, schedule, steps)[0], stride)
    op_rows, time, phase, support = np.atleast_2d(
        schedule.pulse, schedule.time, schedule.carrier_phase, schedule.support)
    starts = time - support / 2.0
    times = np.column_stack([t0, starts + support])
    gaps = starts - times[:, :-1]
    # pulse_center_phase, element by element
    detuning = np.array([K_RAD_PS_PER_CM * p.carrier_detuning for p in pulses])
    phases = np.exp(1j * (phase + detuning[op_rows] * time))
    # the levels whose phase each pulse carries: ground_a for a pump,
    # ground_b for a dump
    level, excited = np.arange(n), system.slice_excited()
    carried = np.array([level >= excited.stop if p.channel == "dump"
                        else level < excited.start for p in pulses])[op_rows]
    # every event's free evolution over the gap before it and its phase
    # conjugation z, laid out before the loop
    moved = gaps > 0
    drift = np.exp(-1j * _diagonal(system, frame) * gaps[..., None])
    z = np.where(carried, phases[..., None], 1.0)
    z_conj = np.conj(z)
    for k in range(time.shape[1]):
        amps = np.where(moved[:, k, None], amps * drift[:, k], amps)
        rotated = z_conj[:, k] * amps
        amps = z[:, k] * np.matmul(ops[op_rows[:, k]], rotated[:, :, None])[:, :, 0]
        if visit is not None:
            visit(k, starts[:, k], op_rows[:, k], rotated, z[:, k], amps,
                  times[:, k + 1], snapshots)
    return amps, times[:, -1]


def run_schedule(state: QuantumState, system: LevelSystem,
                 schedule: TrainSchedule, frame: PhaseFrame | None = None,
                 record: str = "compressed",
                 steps: int | None = None) -> Trajectory:
    """Propagate a state through every event of a schedule.

    record policies: "compressed" stores populations at every event
    boundary, "dense" additionally samples inside each pulse every
    max(1, steps // 40) RK4 steps, "none" records only the endpoints.

    Unless steps are given, each pulse takes the RK4 steps that the
    tolerance rule (_TOLERANCE) picks from a step-doubling estimate on the
    train's largest pulses, at most MIN_STEPS_PER_PULSE; the trajectory's
    diagnostics report them.

    The distinct pulses of the schedule (equal up to carrier phase) are
    integrated together in one batched pass, each into its evolution
    operator; per-event carrier phases enter through an exact diagonal
    conjugation, so a train costs one pass plus matrix-vector products.
    Dense recording keeps operator snapshots from the same pass and
    applies them to the state entering each pulse.
    """
    if record not in ("compressed", "dense", "none"):
        raise ValueError(f"unknown record policy {record!r}")
    dense = record == "dense"
    if frame is None:
        frame = PhaseFrame.for_system(system)
    if len(state.amplitudes) != system.n_levels:
        raise ValueError("state length does not match system")
    if schedule.time.size and state.time > schedule.start_time + 1e-12:
        raise ValueError(
            f"state at t={state.time} ps starts after the first pulse support "
            f"({schedule.start_time} ps)")

    n_steps, diagnostics = _train_steps(system, frame, schedule, steps)
    stride = max(1, n_steps // _DENSE_SAMPLES) if dense else None
    support = schedule.support
    times = [state.time]
    pops = [state.populations()]

    def visit(k, start, op, rotated, z, amps, end, snapshots):
        if dense:
            inner = z[0] * (snapshots[:, op[0]] @ rotated[0])
            h = support[k] / n_steps
            times.extend(start[0] + stride * np.arange(1, len(inner) + 1) * h)
            pops.extend(np.abs(inner) ** 2)
        if record != "none" or k == len(support) - 1:
            times.append(end[0])
            pops.append(np.abs(amps[0]) ** 2)

    amps, end = _run_events(system, frame, schedule, n_steps,
                            state.amplitudes[None], [state.time], stride, visit)
    pops_arr = np.array(pops)
    return Trajectory(
        times=np.array(times),
        populations=pops_arr,
        norms=pops_arr.sum(axis=1),
        labels=system.labels,
        # an empty schedule hands back the state it was given
        final_state=QuantumState(amps[0], float(end[0])) if len(support) else state,
        diagnostics=diagnostics,
    )


def propagate_window(state: QuantumState, system: LevelSystem,
                     pump_rabi, dump_rabi, frame: PhaseFrame,
                     duration: float, steps: int | None = None,
                     pump_phase=None, dump_phase=None) -> Trajectory:
    """RK4 over a window where both channels may drive simultaneously.

    pump_rabi / dump_rabi are callables Omega(t) (rad/ps) of absolute
    time; pump_phase / dump_phase optionally give the carrier phases
    phi(t) (rad). Each callable is sampled once on the half-step grid of
    max(steps, 4) RK4 steps. Smooth adiabatic references with
    overlapping envelopes use this; scheduled trains never need it.

    steps=None takes the count from the tolerance (_TOLERANCE): the
    state is integrated over the whole window at N0 = cap // 32 and
    2 N0 steps, from one sampling on the finer grid, and the
    step-doubling estimate sets the count, between N0 and the cap
    max(4000, 200 per ps) (_window_cap). The trajectory's diagnostics
    report the steps and the estimate at them.

    The trajectory records the state every s = max(1, steps // 400)
    steps and at the end. Up to _WINDOW_SEGMENT_MAX_LEVELS levels the
    window is cut into segments of s steps; their evolution operators,
    each with its own slice of the drive samples, are integrated as one
    batched RK4 pass, the steps % s tail steps as one more small pass,
    and the state is chained through the operators in time order.
    Larger systems, where the operators' flops outweigh the call
    overhead they save, step the state itself and record a kernel
    snapshot every s steps.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    t0 = state.time
    A = (_absorption_matrix(system, "pump"), _absorption_matrix(system, "dump"))
    diag, n = _diagonal(system, frame), system.n_levels
    amps = [state.amplitudes.astype(complex)]

    def sampled(steps: int):
        grid = t0 + np.linspace(0.0, duration, 2 * steps + 1)
        drives = []
        for rabi, phase in ((pump_rabi, pump_phase), (dump_rabi, dump_phase)):
            d = np.fromiter(map(rabi, grid), complex, grid.size)
            if phase is not None:
                d *= np.exp(-1j * np.fromiter(map(phase, grid), float, grid.size))
            drives.append(d)
        return drives

    steps, diagnostics = _chosen_steps(
        steps, _window_cap(duration), 1, lambda n0: _doubling_error(
            diag, A, [d[None] for d in sampled(2 * n0)], amps[0][:, None],
            duration / n0))
    stride = max(1, steps // 400)
    h = duration / steps
    drives = sampled(steps)
    if n > _WINDOW_SEGMENT_MAX_LEVELS:
        y, snapshots = _rk4(diag, [(a, d[None]) for a, d in zip(A, drives)],
                            amps[0][:, None], h, stride)
        amps += [*snapshots[:, 0, :, 0], y[0, :, 0]]
    else:
        # segment k spans half-step samples 2 k stride ... 2 (k + 1)
        # stride, a view into the samples; the tail is one more pass
        K, width = steps // stride, 2 * stride
        passes = [[sliding_window_view(d, width + 1)[::width] for d in drives]]
        if steps % stride:
            passes.append([d[None, K * width:] for d in drives])
        for segments in passes:
            ops, _ = _rk4(diag, list(zip(A, segments)), np.eye(n, dtype=complex), h)
            for op in ops:
                amps.append(op @ amps[-1])
    if not np.all(np.isfinite(amps[-1])):
        raise NumericsError("non-finite amplitudes in windowed propagation")
    final = QuantumState(amps[-1], t0 + duration)
    times = np.concatenate([[t0], t0 + stride * np.arange(1, len(amps) - 1) * h,
                            [final.time]])
    pops = np.abs(np.array(amps)) ** 2
    return Trajectory(times, pops, pops.sum(axis=1), system.labels, final,
                      diagnostics)


# --- dense matrix-exponential oracle (tests only) ---

def oracle_propagate(state: QuantumState, system: LevelSystem,
                     schedule: TrainSchedule, frame: PhaseFrame,
                     steps_per_pulse: int = 2000) -> QuantumState:
    """Reference propagation: piecewise-constant H, one expm per step.

    Deliberately independent of the RK4 path: the Hamiltonian is
    reassembled entrywise here and each step applies
    expm(-i H(midpoint) h), stacked per pulse in chunks of _ORACLE_CHUNK
    steps. At least 2000 steps per pulse; systems are capped at 32
    levels. Intended for verification, not production.
    """
    from scipy.linalg import expm

    if system.n_levels > ORACLE_MAX_LEVELS:
        raise ValueError(f"oracle supports at most {ORACLE_MAX_LEVELS} levels")
    steps = max(int(steps_per_pulse), 2000)
    if not schedule.events:
        return state
    if state.time > schedule.start_time + 1e-12:
        raise ValueError("state starts after the first pulse support")

    energies = system.energies()
    gammas = system.decay_rates()
    e_init = system.initial_level.energy
    n = system.n_levels
    sl_e = system.slice_excited()
    excited = np.arange(sl_e.start, sl_e.stop)

    # excited levels rotate with the pump, ground_b levels with pump - dump
    offset = np.zeros(n)
    offset[sl_e] = frame.omega_pump
    offset[sl_e.stop:] = frame.omega_pump - frame.omega_dump
    diag = K_RAD_PS_PER_CM * (energies - e_init) - offset - 0.5j * gammas

    amps = state.amplitudes.astype(complex)
    t_now = state.time
    for ev in schedule.events:
        start = ev.time - ev.pulse.support_ps / 2.0
        gap = start - t_now
        if gap > 0:
            amps = amps * np.exp(-1j * diag * gap)
        pulse = ev.pulse
        T = pulse.support_ps
        h = T / steps
        phi_c = pulse_center_phase(pulse, ev.time)
        dw = K_RAD_PS_PER_CM * pulse.carrier_detuning
        tau = (np.arange(steps) + 0.5) * h
        phi = phi_c + dw * (tau - T / 2.0)
        field = rabi_envelope(pulse, tau) * np.exp(-1j * phi)
        if pulse.channel == "pump":
            mu = system.pump_dipoles.astype(complex)
            ground = np.arange(system.n_ground_a)
        else:
            mu = system.dump_dipoles.astype(complex)
            if system.dipole_phases is not None:
                mu = mu * np.exp(1j * np.asarray(system.dipole_phases))
            if pulse.phase_mask is not None:
                mu = mu * np.exp(1j * np.asarray(pulse.phase_mask))
            ground = np.arange(sl_e.stop, n)
        # c[k, i, j] couples ground level i to excited level j at step k
        c = -0.5 * mu[None] * field[:, None, None]
        for lo in range(0, steps, _ORACLE_CHUNK):
            part = c[lo:lo + _ORACLE_CHUNK]
            H = np.zeros((len(part), n, n), dtype=complex)
            H[:, np.arange(n), np.arange(n)] = diag
            H[:, excited[None, :], ground[:, None]] = part
            H[:, ground[:, None], excited[None, :]] = np.conj(part)
            for factor in expm(-1j * H * h):
                amps = factor @ amps
        t_now = start + T
        if not np.all(np.isfinite(amps)):
            raise NumericsError("oracle produced non-finite amplitudes")
    return QuantumState(amps, t_now)
