"""Dense matrix-exponential oracle, the independent check of the kernels.

Tests import it by basename (tests/ is no package, so pytest puts it on
the path). It needs scipy, which papsim itself does not.
"""

import numpy as np
from scipy.linalg import expm

from papsim import (K_RAD_PS_PER_CM, LevelSystem, NumericsError, PhaseFrame,
                    QuantumState, TrainSchedule, rabi_envelope)

ORACLE_MAX_LEVELS = 32
# steps per stacked expm call of the oracle: 500 x 32 x 32 complex is 8 MB
_ORACLE_CHUNK = 500


def oracle_propagate(state: QuantumState, system: LevelSystem,
                     schedule: TrainSchedule, frame: PhaseFrame,
                     steps_per_pulse: int = 2000) -> QuantumState:
    """Reference propagation: piecewise-constant H, one expm per step.

    Deliberately independent of the kernels: the Hamiltonian is
    reassembled entrywise here and each step applies
    expm(-i H(midpoint) h), stacked per pulse in chunks of _ORACLE_CHUNK
    steps. At least 2000 steps per pulse; systems are capped at 32
    levels. Intended for verification, not production.
    """
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
        tau = (np.arange(steps) + 0.5) * h
        field = rabi_envelope(pulse, tau) * np.exp(-1j * pulse.carrier_phase)
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
