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

Every pulse and window goes through one fixed-step RK4 kernel, _rk4.
Its inputs are the diagonal, a list of channels (A_c, drive_c), start
states or operators y and a step h; the P problems of a pass share
each of A_c, y and h or give one per problem. drive_c = w exp(-i phi)
is sampled once per pulse on the RK4 half-step grid, by one vectorized
rabi_envelope call. A schedule holds
each distinct pulse once and, per event, its time, an index into those
pulses and a carrier phase; a scan column stacks C such rows. The one
event loop, _run_events, integrates the distinct pulses in one batched
pass, then steps a (C, n) stack of states through them by exact phase
conjugation, each row with its own events. It reads the event starts,
supports and center phases (pulse_center_phase element by element)
straight from the schedule's arrays. run_schedule is one row
(record="dense" applies operator snapshots kept every
_DENSE_STRIDE = 20 steps of that pass), a scan column one row per cell.
propagate_pulse calls the kernel directly.

propagate_window samples its callables once on the half-step grid of
the whole window and records the state every max(1, steps // 400)
steps. Its ODE is linear, so U(t2, t0) = U(t2, t1) U(t1, t0): up to
_WINDOW_SEGMENT_MAX_LEVELS levels the window is cut into segments of
that many steps, whose operators are one batched kernel pass, each
problem with its own slice of the samples (the steps left over are one
more small pass), and the state is chained through the operators in
time order. An operator costs n times the flops of one state column, so
larger systems step their one state through the window instead and
record kernel snapshots. oracle_propagate is the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import PulseSpec, TrainSchedule, rabi_envelope
from .levels import LevelSystem, raman_shift
from .units import K_RAD_PS_PER_CM

# fixed-step RK4 with at least this many steps per pulse support; the
# contract caps the step at support/400, the default stays 2x inside it
MIN_STEPS_PER_PULSE = 800

ORACLE_MAX_LEVELS = 32
# steps per stacked expm call of the oracle: 500 x 32 x 32 complex is 8 MB
_ORACLE_CHUNK = 500

# record="dense" samples inside each pulse every this many RK4 steps
_DENSE_STRIDE = 20

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
    time, so extra memory is O(P n^2) besides the drives.

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
    block = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // P))
    coef = np.ones((2 * block + 1, P, 1, M), dtype=complex)

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
    population, i.e. 1 minus what has decayed away), and the final state.
    """

    times: np.ndarray
    populations: np.ndarray
    norms: np.ndarray
    labels: tuple[str, ...]
    final_state: QuantumState


def _run_events(system: LevelSystem, frame: PhaseFrame,
                schedule: TrainSchedule, steps: int | None, amps: np.ndarray,
                t0, stride: int | None = None, visit=None):
    """Integrate schedule.pulses, in their stored order, in one batched
    pass of _steps(steps) RK4 steps, then step the (C, n) stack amps, row
    c from time t0[c] through row c of the schedule (one train for C = 1,
    or a (C, E) column stack), and return the final (amps, times). Event
    k applies operator schedule.pulse[k]; a row's result does not depend
    on the other rows. visit(k, start, op, rotated, z, amps, end,
    snapshots) sees each event k; snapshots are the operators' states
    every stride steps of the pass."""
    n, pulses = system.n_levels, schedule.pulses
    ops = snapshots = None
    if pulses:
        ops, snapshots = _integrate_pulses(system, frame, pulses, [0.0] * len(pulses),
                                           np.eye(n, dtype=complex), _steps(steps),
                                           stride)
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
    free = -1j * _diagonal(system, frame)
    for k in range(time.shape[1]):
        amps = np.where(gaps[:, k, None] > 0,
                        amps * np.exp(free * gaps[:, k, None]), amps)
        z = np.where(carried[:, k], phases[:, k, None], 1.0)
        rotated = np.conj(z) * amps
        amps = z * np.matmul(ops[op_rows[:, k]], rotated[:, :, None])[:, :, 0]
        if visit is not None:
            visit(k, starts[:, k], op_rows[:, k], rotated, z, amps,
                  times[:, k + 1], snapshots)
    return amps, times[:, -1]


def run_schedule(state: QuantumState, system: LevelSystem,
                 schedule: TrainSchedule, frame: PhaseFrame | None = None,
                 record: str = "compressed",
                 steps: int | None = None) -> Trajectory:
    """Propagate a state through every event of a schedule.

    record policies: "compressed" stores populations at every event
    boundary, "dense" additionally samples inside each pulse every
    _DENSE_STRIDE (20) RK4 steps, "none" records only the endpoints.

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

    n_steps = _steps(steps)
    support = schedule.support
    times = [state.time]
    pops = [state.populations()]

    def visit(k, start, op, rotated, z, amps, end, snapshots):
        if dense:
            inner = z[0] * (snapshots[:, op[0]] @ rotated[0])
            h = support[k] / n_steps
            times.extend(start[0] + _DENSE_STRIDE * np.arange(1, len(inner) + 1) * h)
            pops.extend(np.abs(inner) ** 2)
        if record != "none" or k == len(support) - 1:
            times.append(end[0])
            pops.append(np.abs(amps[0]) ** 2)

    amps, end = _run_events(system, frame, schedule, n_steps,
                            state.amplitudes[None], [state.time],
                            _DENSE_STRIDE if dense else None, visit)
    pops_arr = np.array(pops)
    return Trajectory(
        times=np.array(times),
        populations=pops_arr,
        norms=pops_arr.sum(axis=1),
        labels=system.labels,
        # an empty schedule hands back the state it was given
        final_state=QuantumState(amps[0], float(end[0])) if len(support) else state,
    )


def propagate_window(state: QuantumState, system: LevelSystem,
                     pump_rabi, dump_rabi, frame: PhaseFrame,
                     duration: float, steps: int,
                     pump_phase=None, dump_phase=None) -> Trajectory:
    """RK4 over a window where both channels may drive simultaneously.

    pump_rabi / dump_rabi are callables Omega(t) (rad/ps) of absolute
    time; pump_phase / dump_phase optionally give the carrier phases
    phi(t) (rad). Each callable is sampled once on the half-step grid of
    max(steps, 4) RK4 steps. Smooth adiabatic references with
    overlapping envelopes use this; scheduled trains never need it.

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
    steps = _steps(steps)
    stride = max(1, steps // 400)
    h = duration / steps
    t0 = state.time
    grid = t0 + np.linspace(0.0, duration, 2 * steps + 1)

    def drive(rabi, phase) -> np.ndarray:
        d = np.fromiter(map(rabi, grid), complex, grid.size)
        if phase is not None:
            d *= np.exp(-1j * np.fromiter(map(phase, grid), float, grid.size))
        return d

    A = (_absorption_matrix(system, "pump"), _absorption_matrix(system, "dump"))
    drives = (drive(pump_rabi, pump_phase), drive(dump_rabi, dump_phase))
    diag, n = _diagonal(system, frame), system.n_levels
    amps = [state.amplitudes.astype(complex)]
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
    return Trajectory(times, pops, pops.sum(axis=1), system.labels, final)


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
