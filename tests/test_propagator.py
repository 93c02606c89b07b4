"""Rotating-frame propagation: pulses, gaps, schedules, and the oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from papsim import (C_CM_PER_PS, K_RAD_PS_PER_CM, NumericsError, PhaseFrame,
                    QuantumState, TrainEvent, build_three_level,
                    build_synthetic_molecule, build_train, free_evolve,
                    ground_state, make_pulse, make_schedule, oracle_propagate,
                    propagate_pulse, propagate_window, run_reference_ap,
                    run_schedule, SyntheticMoleculeSpec)
from papsim import propagator
from papsim.levels import Level
from papsim.fields import _pair_trains
from papsim.propagator import _run_events, pulse_center_phase


def _resonant():
    return build_three_level()


def _train(system, n_pairs=10, delta_T=10.0, total=math.pi, kind="flat_pairs",
           **kw):
    pump = make_pulse("sin2", 100.0, total, channel="pump")
    dump = make_pulse("sin2", 100.0, total, channel="dump")
    return build_train(kind, n_pairs, delta_T, 5.0, pump, dump, **kw)


def test_ground_state():
    sys3 = _resonant()
    st = ground_state(sys3, time=1.5)
    assert st.time == 1.5
    assert st.populations()[0] == 1.0
    assert st.populations().sum() == 1.0


def test_zero_area_pulse_is_free_evolution():
    sys3 = build_three_level(pump_detuning=7.0, dump_detuning=-2.0)
    frame = PhaseFrame.for_system(sys3)
    rng = np.random.default_rng(1)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    st = QuantumState(amps, 0.0)
    pulse = make_pulse("sin2", 100.0, 0.0, channel="pump")
    moved = propagate_pulse(st, sys3, pulse, frame)
    ref = free_evolve(st, sys3, pulse.support_ps, frame)
    assert np.max(np.abs(moved.amplitudes - ref.amplitudes)) < 1e-12
    assert moved.time == ref.time


def test_resonant_rabi_areas():
    """A pi pump pulse inverts g <-> e, a pi/2 pulse splits 50/50."""
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    st = ground_state(sys3)

    after_pi = propagate_pulse(st, sys3, make_pulse("sin2", 100.0, math.pi), frame)
    pops = after_pi.populations()
    assert abs(pops[1] - 1.0) < 1e-8
    assert pops[0] < 1e-8

    after_half = propagate_pulse(st, sys3,
                                 make_pulse("sin2", 100.0, math.pi / 2.0), frame)
    pops = after_half.populations()
    assert abs(pops[0] - 0.5) < 1e-8
    assert abs(pops[1] - 0.5) < 1e-8


def test_free_evolution_phase_and_decay():
    sys3 = build_three_level(pump_detuning=5.0, decay_rate=1.0 / 15000.0)
    frame = PhaseFrame.for_system(sys3)
    amps = np.array([0.0, 1.0, 0.0], dtype=complex)
    st = QuantumState(amps, 0.0)
    dt = 1310.59
    moved = free_evolve(st, sys3, dt, frame)
    # excited population decays by exp(-dt / 15 ns); phase is the frame detuning
    assert abs(moved.populations()[1] - math.exp(-dt / 15000.0)) < 1e-12
    d_e = frame.detunings(sys3)[1]
    expected = math.exp(-dt / 30000.0) * np.exp(-1j * d_e * dt)
    assert abs(moved.amplitudes[1] - expected) < 1e-12
    with pytest.raises(ValueError):
        free_evolve(st, sys3, -1.0, frame)


def test_comb_slip_phase_is_analytic():
    # a carrier offset f0 slips the pulse-to-pulse phase by 2 pi f0 delta_T
    f0 = 0.017  # THz
    from papsim import C_CM_PER_PS
    pulse = make_pulse("sin2", 100.0, 1.0, carrier_detuning=f0 / C_CM_PER_PS,
                       carrier_phase=0.3)
    delta_T = 10.0
    slip = pulse_center_phase(pulse, delta_T) - pulse_center_phase(pulse, 0.0)
    assert abs(slip - 2.0 * math.pi * f0 * delta_T) < 1e-12


def test_frame_offsets_move_detunings():
    sys3 = build_three_level(pump_detuning=5.0)
    base = PhaseFrame.for_system(sys3)
    d = base.detunings(sys3)
    # anchor pinned at zero: the excited level sits 5 cm^-1 above the carrier
    assert abs(d[1] - K_RAD_PS_PER_CM * 5.0) < 1e-12
    assert abs(d[0]) == 0.0 and abs(d[2]) < 1e-12

    shifted = PhaseFrame.for_system(sys3, pump_offset=2.0)
    assert abs(shifted.detunings(sys3)[1] - K_RAD_PS_PER_CM * 3.0) < 1e-12
    # two-photon offset moves only the ground_b detuning
    tp = PhaseFrame.for_system(sys3, two_photon_offset=1.3)
    assert abs(tp.detunings(sys3)[2] + K_RAD_PS_PER_CM * 1.3) < 1e-12
    assert abs(tp.detunings(sys3)[1] - K_RAD_PS_PER_CM * 5.0) < 1e-12


def test_comb_locked_frame_keeps_raman_offset_exact():
    spec = SyntheticMoleculeSpec(3, 11200.0, (25.0,),
                                 ground_b_energies=(-2333.0,))
    mol = build_synthetic_molecule(spec)
    for delta_T in (7.3, 10.0, 40.027691, 1310.59):
        frame = PhaseFrame.comb_locked(mol, delta_T)
        d = frame.detunings(mol)
        # dump comb locked to the pump comb: target exactly on two-photon
        # resonance, pump carrier within half a tooth of the anchor
        assert abs(d[mol.target_global_index]) < 1e-9
        tooth = 2.0 * math.pi / delta_T
        anchor_det = K_RAD_PS_PER_CM * (mol.anchor_energy()
                                        - mol.initial_level.energy) - frame.omega_pump
        assert abs(anchor_det) <= tooth / 2.0 + 1e-9
    with pytest.raises(ValueError):
        PhaseFrame.comb_locked(mol, 0.0)


def test_global_phase_invariance():
    sys3 = build_three_level(pump_detuning=3.0)
    frame = PhaseFrame.for_system(sys3)
    sched = _train(sys3, n_pairs=5)
    st = ground_state(sys3, sched.start_time)
    base = run_schedule(st, sys3, sched, frame, record="compressed")

    rotated = QuantumState(st.amplitudes * np.exp(1j * 1.234), st.time)
    other = run_schedule(rotated, sys3, sched, frame, record="compressed")
    assert np.max(np.abs(other.populations - base.populations)) < 1e-12

    # a common carrier phase on every pump pulse is a gauge choice too
    events = tuple(
        type(ev)(ev.time, replace(ev.pulse,
                                  carrier_phase=ev.pulse.carrier_phase + 0.77))
        if ev.pulse.channel == "pump" else ev
        for ev in sched.events)
    shifted = make_schedule(events, sched.n_pairs, sched.delta_T,
                            sched.delta_t_small, sched.envelope_profile)
    third = run_schedule(st, sys3, shifted, frame, record="compressed")
    assert np.max(np.abs(third.populations - base.populations)) < 1e-12


def test_frame_consistency_under_energy_shifts():
    """The same physics in shifted coordinates gives the same populations.

    Reading (a): every stored energy including the carrier anchor moves
    by a constant. Reading (b): only the excited manifold moves and both
    carriers follow it. Either way the rotating-frame problem is
    unchanged.
    """
    sys3 = build_three_level(pump_detuning=5.0, dump_detuning=-3.0)
    sched = _train(sys3, n_pairs=8)
    st = ground_state(sys3, sched.start_time)
    base = run_schedule(st, sys3, sched, PhaseFrame.for_system(sys3)).populations

    C = 1000.0
    bump = lambda levels: tuple(replace(lv, energy=lv.energy + C) for lv in levels)
    all_shifted = replace(sys3, ground_a=bump(sys3.ground_a),
                          excited=bump(sys3.excited),
                          ground_b=bump(sys3.ground_b),
                          carrier_anchor=sys3.carrier_anchor + C)
    pops_a = run_schedule(ground_state(all_shifted, sched.start_time),
                          all_shifted, sched,
                          PhaseFrame.for_system(all_shifted)).populations
    assert np.max(np.abs(pops_a - base)) < 1e-9

    exc_shifted = replace(sys3, excited=bump(sys3.excited),
                          carrier_anchor=sys3.carrier_anchor + C)
    pops_b = run_schedule(ground_state(exc_shifted, sched.start_time),
                          exc_shifted, sched,
                          PhaseFrame.for_system(exc_shifted)).populations
    assert np.max(np.abs(pops_b - base)) < 1e-9


def test_cached_operators_match_direct_integration():
    # compressed mode reuses one operator per distinct pulse via an exact
    # diagonal phase conjugation; the dense path integrates every pulse
    sys3 = build_three_level(pump_detuning=4.0)
    frame = PhaseFrame.comb_locked(sys3, 10.0)
    sched = _train(sys3, n_pairs=12, kind="crp", alpha_pump=0.1, alpha_dump=0.1)
    st = ground_state(sys3, sched.start_time)
    fast = run_schedule(st, sys3, sched, frame, record="compressed")

    current = st
    for ev in sched.events:
        gap = ev.time - ev.pulse.support_ps / 2.0 - current.time
        if gap > 0:
            current = free_evolve(current, sys3, gap, frame)
        current = propagate_pulse(current, sys3, ev.pulse, frame)
    assert np.max(np.abs(fast.final_state.amplitudes - current.amplitudes)) < 1e-12
    assert abs(fast.final_state.time - current.time) < 1e-9


def test_record_policies():
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    sched = _train(sys3, n_pairs=4)
    st = ground_state(sys3, sched.start_time)

    none = run_schedule(st, sys3, sched, frame, record="none")
    assert len(none.times) == 2
    compressed = run_schedule(st, sys3, sched, frame, record="compressed")
    assert len(compressed.times) == 1 + 8
    dense = run_schedule(st, sys3, sched, frame, record="dense")
    assert len(dense.times) > len(compressed.times)
    assert np.all(np.diff(dense.times) > 0.0)
    # all three agree on the endpoint
    for traj in (none, compressed):
        assert np.max(np.abs(traj.final_state.amplitudes
                             - dense.final_state.amplitudes)) < 1e-9

    with pytest.raises(ValueError):
        run_schedule(st, sys3, sched, frame, record="sparse")


def test_dense_keeps_the_last_in_pulse_sample():
    # 810 steps at stride 20: samples after steps 20 .. 800 lie inside the
    # pulse, then the pulse end follows 10 steps later
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    pulse = make_pulse("sin2", 100.0, math.pi / 2.0)
    sched = make_schedule([TrainEvent(pulse.support_ps / 2.0, pulse)],
                          1, 1.0, 0.0, "single")
    st = ground_state(sys3, 0.0)
    dense = run_schedule(st, sys3, sched, frame, record="dense", steps=810)
    assert len(dense.times) == 1 + 40 + 1
    gaps = np.diff(dense.times) / (pulse.support_ps / 810)
    assert np.allclose(gaps, [20.0] * 40 + [10.0])
    whole = run_schedule(st, sys3, sched, frame, record="dense", steps=800)
    assert len(whole.times) == 1 + 39 + 1


def test_late_state_rejected():
    sys3 = _resonant()
    sched = _train(sys3, n_pairs=2)
    late = ground_state(sys3, sched.start_time + 1.0)
    with pytest.raises(ValueError):
        run_schedule(late, sys3, sched, PhaseFrame.for_system(sys3))


@pytest.mark.parametrize("record", ["dense", "compressed"])
def test_early_state_evolves_freely_to_the_first_pulse(record):
    """A state that starts before the first pulse reaches it by exact free
    evolution, with decaying ground levels and detuned pulses."""
    base = build_three_level(pump_detuning=3.0, decay_rate=0.05)
    sys3 = replace(base, ground_a=(Level("g", 0.0, 0.004),),
                   ground_b=(Level("t", base.ground_b[0].energy, 0.002),))
    frame = PhaseFrame.for_system(sys3, pump_offset=1.5, two_photon_offset=-0.5)
    events = [TrainEvent(2.0 * k + 0.8 * c, make_pulse(
        "sin2", 100.0, 0.6, carrier_detuning=4.0 - 9.0 * c,
        carrier_phase=0.3 * k, channel=channel))
        for k in range(3) for c, channel in enumerate(("dump", "pump"))]
    sched = make_schedule(events, 3, 2.0, 0.8, "custom")
    early = ground_state(sys3, sched.start_time - 0.7)
    moved = free_evolve(early, sys3, sched.start_time - early.time, frame)
    a = run_schedule(early, sys3, sched, frame, record=record, steps=80)
    b = run_schedule(moved, sys3, sched, frame, record=record, steps=80)
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    assert a.final_state.time == b.final_state.time
    assert np.linalg.norm(a.final_state.amplitudes) < np.linalg.norm(
        run_schedule(ground_state(sys3, sched.start_time), sys3, sched, frame,
                     record=record, steps=80).final_state.amplitudes)


def test_empty_schedule_is_identity():
    sys3 = _resonant()
    sched = _train(sys3, n_pairs=0)
    st = ground_state(sys3)
    traj = run_schedule(st, sys3, sched, PhaseFrame.for_system(sys3))
    assert len(traj.times) == 1
    assert traj.final_state is st


def test_unitarity_and_monotone_loss():
    spec = SyntheticMoleculeSpec(4, 11200.0, (20.0,), decay_lifetime=15.0)
    mol = build_synthetic_molecule(spec)
    frame = PhaseFrame.comb_locked(mol, 10.0)
    sched = _train(mol, n_pairs=20, total=3.0 * math.pi)
    st = ground_state(mol, sched.start_time)

    lossy = run_schedule(st, mol, sched, frame, record="compressed")
    # decay only removes population: norms never increase
    assert np.all(np.diff(lossy.norms) <= 1e-12)
    assert lossy.norms[-1] < 1.0

    from papsim import strip_decay
    stable = strip_decay(mol)
    clean = run_schedule(ground_state(stable, sched.start_time), stable,
                         sched, frame, record="compressed")
    assert np.max(np.abs(clean.norms - 1.0)) < 1e-8


def test_nonfinite_amplitudes_raise():
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    huge = make_pulse("sin2", 100.0, 1e12)
    with np.errstate(all="ignore"), pytest.raises(NumericsError):
        propagate_pulse(ground_state(sys3), sys3, huge, frame, steps=50)


def test_blowup_in_a_batch_names_its_channel():
    # one huge pulse among ordinary ones: the batch raises, naming the
    # channel of the pulse that blew up, instead of returning NaN operators
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    for bad in ("pump", "dump"):
        good = "dump" if bad == "pump" else "pump"
        pulses = [make_pulse("sin2", 100.0, 1.0, channel=good),
                  make_pulse("sin2", 100.0, 1e12, channel=bad),
                  make_pulse("gaussian", 80.0, 2.0, channel=good)]
        events, t = [], 0.0
        for p in pulses:
            events.append(TrainEvent(t + p.support_ps / 2.0, p))
            t += p.support_ps + 1.0
        sched = make_schedule(events, 1, 1.0, 0.0, "mixed")
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match=bad):
            run_schedule(ground_state(sys3, 0.0), sys3, sched, frame, steps=50)


def test_window_with_silent_drives_is_free_evolution():
    sys3 = build_three_level(pump_detuning=3.0, decay_rate=1e-4)
    frame = PhaseFrame.for_system(sys3)
    amps = np.array([0.6, 0.48, 0.64], dtype=complex)
    st = QuantumState(amps, 0.0)
    zero = lambda t: 0.0
    traj = propagate_window(st, sys3, zero, zero, frame, 12.5, 2000)
    ref = free_evolve(st, sys3, 12.5, frame)
    assert np.max(np.abs(traj.final_state.amplitudes - ref.amplitudes)) < 1e-9
    with pytest.raises(ValueError):
        propagate_window(st, sys3, zero, zero, frame, -1.0, 100)


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("steps, duration", [(2000, 10.0), (2003, 10.0),
                                             (7, 0.07)])
def test_window_with_constant_drives_is_the_exponential(steps, duration,
                                                        stepped, monkeypatch):
    # 2000 steps are 400 segments of 5, 2003 leave a 3-step tail, and 7
    # steps are segments of one step each; stepped lowers the level
    # limit of segment operators so the three-level window takes the
    # path of large systems
    from scipy.linalg import expm

    if stepped:
        monkeypatch.setattr(propagator, "_WINDOW_SEGMENT_MAX_LEVELS", 2)

    sys3 = build_three_level(pump_detuning=3.0, dump_detuning=-1.0,
                             decay_rate=0.05)
    frame = PhaseFrame.for_system(sys3)
    rabi_p, rabi_d = 0.8, 0.5
    H = np.diag(frame.detunings(sys3) - 0.5j * sys3.decay_rates())
    H[1, 0] = H[0, 1] = -0.5 * rabi_p
    H[1, 2] = H[2, 1] = -0.5 * rabi_d
    amps = np.array([0.6, 0.48j, 0.64], dtype=complex)
    t0 = 1.5
    traj = propagate_window(QuantumState(amps, t0), sys3, lambda t: rabi_p,
                            lambda t: rabi_d, frame, duration, steps)
    exact = expm(-1j * H * duration) @ amps
    assert np.max(np.abs(traj.final_state.amplitudes - exact)) < 1e-9
    assert traj.final_state.time == t0 + duration

    # a row every max(1, steps // 400) steps, then the end
    stride, h = max(1, steps // 400), duration / steps
    assert len(traj.times) == (steps - 1) // stride + 2
    inner = stride * np.arange(1, len(traj.times) - 1) * h
    assert np.array_equal(traj.times, np.concatenate([[t0], t0 + inner,
                                                      [t0 + duration]]))
    # each row is the exact state at its time
    for t, pops in zip(traj.times, traj.populations):
        assert np.max(np.abs(pops - np.abs(expm(-1j * H * (t - t0)) @ amps) ** 2)) < 1e-9


def test_window_follows_a_chirped_drive_and_never_gains_norm():
    from scipy.integrate import solve_ivp

    sys3 = build_three_level(pump_detuning=2.0, decay_rate=0.2)
    frame = PhaseFrame.for_system(sys3)
    pump = lambda t: 1.5 * math.exp(-0.5 * ((t - 6.0) / 2.0) ** 2)
    dump = lambda t: 1.5 * math.exp(-0.5 * ((t - 4.0) / 2.0) ** 2)
    pump_phase = lambda t: 0.3 * (t - 5.0) ** 2
    traj = propagate_window(ground_state(sys3, 0.0), sys3, pump, dump, frame,
                            10.0, 2003, pump_phase=pump_phase)
    assert np.all(np.diff(traj.norms) <= 1e-14)
    assert traj.norms[-1] < 0.99

    # every row is the state at its time of the same time-dependent drive
    diag = frame.detunings(sys3) - 0.5j * sys3.decay_rates()

    def rhs(t, a):
        w_p = -0.5 * pump(t) * np.exp(-1j * pump_phase(t))
        w_d = -0.5 * dump(t)
        return -1j * (diag * a + np.array([np.conj(w_p) * a[1],
                                           w_p * a[0] + w_d * a[2],
                                           np.conj(w_d) * a[1]]))

    sol = solve_ivp(rhs, (0.0, 10.0), ground_state(sys3).amplitudes,
                    method="DOP853", t_eval=traj.times, rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(traj.populations - np.abs(sol.y.T) ** 2)) < 1e-8
    assert np.max(np.abs(traj.final_state.amplitudes - sol.y[:, -1])) < 1e-8


@pytest.mark.parametrize("P", [3, 100])
@pytest.mark.parametrize("m", [1, 5])
def test_kernel_inputs_shared_or_per_problem_give_the_same_bits(P, m):
    """_rk4 given h, the couplings and the start once per pass returns the
    operators and snapshots of the same inputs repeated per problem; 100
    problems take blocks shorter than _BLOCK_STEPS."""
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        3, 11200.0, (12.0,), decay_lifetime=0.5, ground_b_energies=(-2333.0,)))
    n, steps, stride, h = mol.n_levels, 150, 7, 0.013
    frame = PhaseFrame.for_system(mol)
    diag = propagator._diagonal(mol, frame)
    A = [propagator._absorption_matrix(mol, c) for c in ("pump", "dump")]
    rng = np.random.default_rng(7)
    drives = [rng.normal(size=(P, 2 * steps + 1))
              + 1j * rng.normal(size=(P, 2 * steps + 1)) for _ in A]
    y = (np.eye(n, dtype=complex) if m == n
         else rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1)))

    shared = propagator._rk4(diag, list(zip(A, drives)), y, h, stride)
    per_problem = propagator._rk4(
        diag, [(np.broadcast_to(a, (P, n, n)).copy(), d) for a, d in zip(A, drives)],
        np.broadcast_to(y, (P, n, m)).copy(), np.full(P, h), stride)
    assert shared[0].shape == (P, n, m)
    assert shared[1].shape == ((steps - 1) // stride, P, n, m)
    for ours, theirs in zip(shared, per_problem):
        assert np.array_equal(ours, theirs)


def test_reference_window_keeps_one_copy_of_what_segments_share():
    """The traced peak of a default 100 ps reference on a 16-level band,
    the largest window taking segment operators, stays under 24 MB; a
    basis copied per segment lifted it to 30 MB."""
    import tracemalloc

    tooth = 1.0 / (C_CM_PER_PS * 10.0)
    band = build_synthetic_molecule(SyntheticMoleculeSpec(
        12, 11145.0, (tooth,), dipole_profile="gaussian",
        ground_a_energies=(0.0, 37.0), ground_b_energies=(-2333.0, -2291.0)))
    assert band.n_levels == propagator._WINDOW_SEGMENT_MAX_LEVELS
    run_reference_ap(band, "stirap", 100.0, 1.47)
    tracemalloc.start()
    try:
        run_reference_ap(band, "stirap", 100.0, 1.47)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_oracle_agrees_on_a_small_train():
    sys3 = build_three_level(pump_detuning=2.0)
    frame = PhaseFrame.comb_locked(sys3, 10.0)
    sched = _train(sys3, n_pairs=5, kind="stirap", total=2.0 * math.pi)
    st = ground_state(sys3, sched.start_time)
    rk = run_schedule(st, sys3, sched, frame, record="none").final_state
    ora = oracle_propagate(st, sys3, sched, frame, steps_per_pulse=2000)
    assert np.max(np.abs(rk.amplitudes - ora.amplitudes)) < 1e-7

    # empty schedule passes through, oversized systems are refused
    empty = _train(sys3, n_pairs=0)
    assert oracle_propagate(st, sys3, empty, frame) is st
    big = build_synthetic_molecule(
        SyntheticMoleculeSpec(40, 11200.0, (5.0,)))
    with pytest.raises(ValueError):
        oracle_propagate(ground_state(big), big, _train(big, n_pairs=1),
                         PhaseFrame.for_system(big))


def test_event_rows_do_not_depend_on_the_stack():
    """A row of the stacked event loop has the same bits at C = 1, 7, 256."""
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        5, 11200.0, (12.0,), dipole_profile="gaussian", decay_lifetime=15.0,
        ground_b_energies=(-2333.0,)))
    frame = PhaseFrame.comb_locked(mol, 10.0)
    pump = make_pulse("sin2", 100.0, 1.3, channel="pump")
    dump = make_pulse("gaussian", 100.0, 0.7, channel="dump",
                      phase_mask=(0.1, -0.4, 0.0, 0.9, 2.0))
    # rows in and out of pair order, so operators and phases differ per row
    dts = np.concatenate([np.linspace(-9.0, -1.0, 64),
                          np.linspace(0.6, 9.0, 96), np.linspace(11.0, 19.0, 96)])
    stack, errors = _pair_trains("flat_pairs", 3, 10.0, dts, pump, dump)
    assert not errors and len(stack.pulses) == 2
    starts = stack.time[:, 0] - stack.support[:, 0] / 2.0
    ground = ground_state(mol).amplitudes

    def run(rows):
        rows = list(rows)
        part = replace(stack, time=stack.time[rows], pulse=stack.pulse[rows],
                       carrier_phase=stack.carrier_phase[rows],
                       delta_t_small=stack.delta_t_small[rows])
        return _run_events(mol, frame, part, 60, np.tile(ground, (len(rows), 1)),
                           starts[rows])

    all_amps, all_times = run(range(len(dts)))
    for rows in ([0], [100], [255], list(range(0, 256, 37)), list(range(90, 97))):
        part_amps, part_times = run(rows)
        assert np.array_equal(part_amps, all_amps[rows])
        assert np.array_equal(part_times, all_times[rows])
    # one row of the stack is what run_schedule computes
    for i in (0, 100, 255):
        single = build_train("flat_pairs", 3, 10.0, dts[i], pump, dump)
        assert single.start_time == starts[i]
        direct = run_schedule(ground_state(mol, starts[i]), mol, single, frame,
                              record="none", steps=60).final_state
        assert np.array_equal(direct.amplitudes, all_amps[i])
        assert direct.time == all_times[i]
