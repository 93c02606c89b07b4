"""Rotating-frame propagation: pulses, gaps, schedules, and the oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from papsim import (C_CM_PER_PS, K_RAD_PS_PER_CM, NumericsError, PhaseFrame,
                    QuantumState, TrainEvent, build_three_level,
                    build_synthetic_molecule, build_train, free_evolve,
                    ground_state, make_pulse, make_schedule, oracle_propagate,
                    propagate_pulse, propagate_window, run_piecewise_crp,
                    run_piecewise_stirap, run_reference_ap, run_schedule,
                    SyntheticMoleculeSpec)
from papsim import propagator
from papsim.levels import Level, LevelSystem
from papsim.fields import _pair_trains, rabi_envelope
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
    # diagonal phase conjugation; the dense path integrates every pulse.
    # Both take the count that propagate_pulse takes by default.
    sys3 = build_three_level(pump_detuning=4.0)
    frame = PhaseFrame.comb_locked(sys3, 10.0)
    sched = _train(sys3, n_pairs=12, kind="crp", alpha_pump=0.1, alpha_dump=0.1)
    st = ground_state(sys3, sched.start_time)
    fast = run_schedule(st, sys3, sched, frame, record="compressed",
                        steps=propagator.MIN_STEPS_PER_PULSE)

    current = st
    for ev in sched.events:
        gap = ev.time - ev.pulse.support_ps / 2.0 - current.time
        if gap > 0:
            current = free_evolve(current, sys3, gap, frame)
        current = propagate_pulse(current, sys3, ev.pulse, frame)
    assert np.max(np.abs(fast.final_state.amplitudes - current.amplitudes)) < 1e-12
    assert abs(fast.final_state.time - current.time) < 1e-9


def _two_three_one(decay=0.0):
    """2 + 3 + 1 levels, each decaying at `decay`: a pulse's block holds
    b = 5 levels, so a dump pulse's block also holds the ground_a level
    g1, which it does not couple."""
    return LevelSystem(
        ground_a=(Level("g0", 0.0, decay), Level("g1", 37.0, decay)),
        excited=tuple(Level(f"e{j}", 11140.0 + 10.0 * j, decay) for j in range(3)),
        ground_b=(Level("t0", -2333.0, decay),),
        pump_dipoles=np.array([[0.5, 1.0, 0.5], [0.5, -0.5, 0.8]]),
        dump_dipoles=np.array([[0.7, 0.4, -0.6]]),
        dipole_phases=np.array([0.3, -1.2, 2.0]), carrier_anchor=11150.0)


def _full_pass(system, frame, pulses, phases, steps, stride=None):
    """The pulse pass on all n levels: every pulse's block holds the
    whole system."""
    n = system.n_levels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagator, "_blocks",
                      lambda system, pulses: np.tile(np.arange(n), (len(pulses), 1)))
        return propagator._integrate_pulses(system, frame, pulses, phases,
                                            steps, stride)


@pytest.mark.parametrize("case", ["asymmetric", "masked_dump", "decaying",
                                  "dense"])
def test_block_passes_match_the_full_pass_and_the_oracle(case):
    """Pulses integrated on their blocks of levels, the levels outside
    taking their exact free phase, give the operators and snapshots of
    the same pass on all n levels to 1e-13, and their trains agree with
    the oracle. The pump is detuned by 5 cm^-1, so both passes run in its
    carrier's frame. The dense case also runs propagate_pulse on a
    state."""
    system = _two_three_one(0.05 if case == "decaying" else 0.0)
    frame = PhaseFrame.for_system(system, pump_offset=3.0)
    mask = (0.4, -2.0, 1.1) if case == "masked_dump" else None
    pulses = [make_pulse("sin2", 100.0, 2.0, carrier_detuning=5.0),
              make_pulse("gaussian", 80.0, 1.5, channel="dump",
                         phase_mask=mask)]
    phases, steps, stride = [0.3, -1.1], 40, 3
    ops, snapshots = propagator._integrate_pulses(system, frame, pulses,
                                                  phases, steps, stride)
    full, full_snapshots = _full_pass(system, frame, pulses, phases, steps,
                                      stride)
    assert ops.shape == full.shape and snapshots.shape == full_snapshots.shape
    assert np.max(np.abs(ops - full)) < 1e-13
    assert np.max(np.abs(snapshots - full_snapshots)) < 1e-13

    events = [TrainEvent(0.5, pulses[0]), TrainEvent(1.5, pulses[1]),
              TrainEvent(2.5, pulses[0])]
    sched = make_schedule(events, 2, 1.0, 0.0, "mixed")
    record = "dense" if case == "dense" else "none"
    st = ground_state(system, sched.start_time)
    traj = run_schedule(st, system, sched, frame, record=record)
    ora = oracle_propagate(st, system, sched, frame, steps_per_pulse=4000)
    assert np.max(np.abs(traj.final_state.amplitudes - ora.amplitudes)) < 1e-7
    if case == "dense":
        state = QuantumState(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8j]), 0.0)
        for pulse in pulses:
            phi = pulse_center_phase(pulse, pulse.support_ps / 2.0)
            out = propagate_pulse(state, system, pulse, frame, steps)
            op, _ = _full_pass(system, frame, [pulse], [phi], steps)
            assert np.max(np.abs(out.amplitudes - op[0] @ state.amplitudes)) < 1e-13


def _lab_drive(pulse, center_phase, steps):
    """w e^{-i phi} at the three Gauss-Legendre nodes of each step, the
    carrier phase sliding at K carrier_detuning from center_phase at the
    support midpoint: the drive of the lab frame."""
    T = pulse.support_ps
    tau = ((np.arange(steps)[:, None] + propagator._GAUSS_NODES)
           * (T / steps)).ravel()
    phi = center_phase + K_RAD_PS_PER_CM * pulse.carrier_detuning * (tau - T / 2.0)
    return rabi_envelope(pulse, tau) * np.exp(-1j * phi)


def _omegas(monkeypatch, run):
    """The Omega stacks that run() hands to _expm1, in step order."""
    stacks, taylor = [], propagator._expm1

    def spy(omega):
        stacks.append(omega.copy())
        return taylor(omega)

    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_expm1", spy)
        run()
    return np.concatenate(stacks)


@pytest.mark.parametrize("b", [2, 3, 6, 23])
@pytest.mark.parametrize("P", [1, 3])
def test_the_basis_omega_is_the_commutator_omega(P, b, monkeypatch):
    """Each step's Omega of a pulse pass, built from the pulse's basis,
    equals the alpha-commutator Omega of the window assembly (_magnus6)
    on the same block, drive and h to 1e-14 max(1, ||Omega||_1): pulses
    at zero detuning on blocks of b levels with decay, a phase-masked
    dump, a nonzero centre phase (Z Omega Z^dagger of the basis pass,
    which runs at phase 0) and h per problem."""
    system = build_synthetic_molecule(SyntheticMoleculeSpec(
        b - 1, 11150.0, (7.0,), dipole_profile="gaussian", decay_lifetime=0.3,
        ground_b_energies=(-2333.0,)))
    frame = PhaseFrame.for_system(system, pump_offset=2.0)
    mask = tuple(np.linspace(-2.0, 2.5, b - 1))
    pulses = [make_pulse("gaussian", 80.0, 1.5, channel="dump", phase_mask=mask),
              make_pulse("sin2", 100.0, 2.0),
              make_pulse("gaussian", 120.0, 0.7)][:P]
    phases = np.array([0.9, -1.3, 2.1])[:P]
    steps = 12
    bases = propagator._pulse_bases(system, frame, pulses, {})
    basis_omega = _omegas(monkeypatch, lambda: propagator._pulse_pass(
        bases, pulses, steps))

    rows = propagator._blocks(system, pulses)
    problems = np.arange(P)[:, None, None]
    A = np.stack([propagator._absorption_matrix(system, p.channel, p.phase_mask)
                  for p in pulses])[problems, rows[:, :, None], rows[:, None, :]]
    drive = np.stack([_lab_drive(p, phi, steps) for p, phi in zip(pulses, phases)])
    h = np.array([p.support_ps / steps for p in pulses])
    alpha_omega = _omegas(monkeypatch, lambda: propagator._magnus6(
        propagator._diagonal(system, frame)[rows], [(A, drive)],
        np.eye(b, dtype=complex), h))

    excited = system.slice_excited()
    z = np.where((rows >= excited.start) & (rows < excited.stop),
                 np.exp(-1j * phases)[:, None], 1.0)
    z = np.tile(z, (steps, 1))
    basis_omega = z[:, :, None] * basis_omega * z.conj()[:, None, :]
    assert basis_omega.shape == alpha_omega.shape == (steps * P, b, b)
    norm = np.abs(alpha_omega).sum(axis=-2).max(axis=-1)
    assert norm.max() > 0.1
    dev = np.abs(basis_omega - alpha_omega).max(axis=(-2, -1))
    assert np.all(dev <= 1e-14 * np.maximum(1.0, norm))


@pytest.mark.parametrize("detuning", [5.0, -12.0, 30.0])
def test_a_detuned_pulse_in_its_carrier_frame_converges_to_the_lab_frame(
        detuning):
    """A pulse detuned from the frame, integrated in its carrier's frame,
    and the same pulse on Magnus steps in the lab frame (its phase
    sliding in the drive) converge to each other at sixth order: their
    difference falls at least 40x per doubling of the steps, for the
    operators and the dense snapshots. A train of such pulses agrees
    with the oracle."""
    system = _two_three_one(0.05)
    frame = PhaseFrame.for_system(system)
    n = system.n_levels
    for channel in ("pump", "dump"):
        pulse = make_pulse("sin2", 100.0, 2.0, carrier_detuning=detuning,
                           channel=channel)
        diffs = []
        for steps in (8, 16, 32):
            ops, snapshots = propagator._integrate_pulses(
                system, frame, [pulse], [0.4], steps, steps // 8)
            lab, lab_snapshots = propagator._magnus6(
                propagator._diagonal(system, frame),
                [(propagator._absorption_matrix(system, channel),
                  _lab_drive(pulse, 0.4, steps)[None])],
                np.eye(n, dtype=complex), pulse.support_ps / steps, steps // 8)
            assert snapshots.shape == lab_snapshots.shape == (7, 1, n, n)
            diffs.append((np.max(np.abs(ops - lab)),
                          np.max(np.abs(snapshots - lab_snapshots))))
        for coarse, fine in zip(diffs, diffs[1:]):
            assert fine[0] > 1e-13 and fine[1] > 1e-13
            assert coarse[0] / fine[0] >= 40.0 and coarse[1] / fine[1] >= 40.0

    pump = make_pulse("sin2", 100.0, 2.0, carrier_detuning=detuning)
    dump = make_pulse("gaussian", 80.0, 1.5, carrier_detuning=-detuning,
                      channel="dump")
    events = [TrainEvent(0.5, pump), TrainEvent(1.5, dump), TrainEvent(2.5, pump)]
    sched = make_schedule(events, 2, 1.0, 0.0, "mixed")
    st = ground_state(system, sched.start_time)
    traj = run_schedule(st, system, sched, frame, record="none")
    ora = oracle_propagate(st, system, sched, frame, steps_per_pulse=4000)
    assert np.max(np.abs(traj.final_state.amplitudes - ora.amplitudes)) < 1e-7


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
    # one pulse among ordinary ones whose steps leave the convergence
    # bound of the H' it is integrated with, by a huge area or by a
    # carrier frame far from the levels: the batch raises, naming the
    # channel of that pulse, instead of returning finite, wrong operators
    sys3 = _resonant()
    frame = PhaseFrame.for_system(sys3)
    for strong in ({"area": 1e12}, {"area": 1.0, "carrier_detuning": 1e4}):
        for bad in ("pump", "dump"):
            good = "dump" if bad == "pump" else "pump"
            pulses = [make_pulse("sin2", 100.0, 1.0, channel=good),
                      make_pulse("sin2", 100.0, channel=bad, **strong),
                      make_pulse("gaussian", 80.0, 2.0, channel=good)]
            events, t = [], 0.0
            for p in pulses:
                events.append(TrainEvent(t + p.support_ps / 2.0, p))
                t += p.support_ps + 1.0
            sched = make_schedule(events, 1, 1.0, 0.0, "mixed")
            with np.errstate(all="ignore"), pytest.raises(NumericsError,
                                                          match=bad):
                run_schedule(ground_state(sys3, 0.0), sys3, sched, frame,
                             steps=50)


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


@pytest.mark.parametrize("path", ["magnus", "segments", "stepped"])
@pytest.mark.parametrize("steps, duration", [(2000, 10.0), (2003, 10.0),
                                             (7, 0.07)])
def test_window_with_constant_drives_is_the_exponential(steps, duration,
                                                        path, monkeypatch):
    # 2000 steps are 400 segments of 5, 2003 leave a 3-step tail, and 7
    # steps are segments of one step each. The three-level window takes
    # Magnus segments; lowering the level limits sends it to RK4
    # segments, or to the RK4 path of large systems, which steps the state
    from scipy.linalg import expm

    if path != "magnus":
        monkeypatch.setattr(propagator, "_WINDOW_MAGNUS_MAX_LEVELS", 2)
    if path == "stepped":
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


def _kernel_inputs(P, m):
    """A decaying 1 + 3 + 1 system with random two-channel drives over 150
    steps, h and a start of m columns, for _rk4."""
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        3, 11200.0, (12.0,), decay_lifetime=0.5, ground_b_energies=(-2333.0,)))
    n, steps = mol.n_levels, 150
    diag = propagator._diagonal(mol, PhaseFrame.for_system(mol))
    A = [propagator._absorption_matrix(mol, c) for c in ("pump", "dump")]
    rng = np.random.default_rng(7)
    drives = [rng.normal(size=(P, 2 * steps + 1))
              + 1j * rng.normal(size=(P, 2 * steps + 1)) for _ in A]
    y = (np.eye(n, dtype=complex) if m == n
         else rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1)))
    return diag, list(zip(A, drives)), y, 0.013


@pytest.mark.parametrize("P", [3, 100])
@pytest.mark.parametrize("m", [1, 5])
def test_kernel_inputs_shared_or_per_problem_give_the_same_bits(P, m):
    """_rk4 given h, the couplings and the start once per pass returns the
    operators and snapshots of the same inputs repeated per problem; 100
    problems take blocks shorter than _BLOCK_STEPS."""
    diag, channels, y, h = _kernel_inputs(P, m)
    n, steps, stride = diag.size, 150, 7
    A, drives = zip(*channels)

    shared = propagator._rk4(diag, channels, y, h, stride)
    per_problem = propagator._rk4(
        diag, [(np.broadcast_to(a, (P, n, n)).copy(), d)
               for a, d in zip(A, drives)],
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


# --- step counts from a tolerance ---

# the tolerance of the default step counts
TOL = 1e-9


def _packet_molecule():
    """1 + 5 + 1 levels one 1310.59 ps comb tooth apart, 15 ns lifetime."""
    delta_T = 1310.59
    tooth = 1.0 / (C_CM_PER_PS * delta_T)
    e0 = round(11200.0 * C_CM_PER_PS * delta_T) * tooth
    return build_synthetic_molecule(SyntheticMoleculeSpec(
        5, e0, (tooth,), dipole_profile="gaussian", decay_lifetime=15.0,
        ground_b_energies=(-2333.0,))), delta_T


def _band_molecule(intermediates=21):
    """2 + k + 2 levels, intermediates one 10 ps comb tooth apart."""
    tooth = 1.0 / (C_CM_PER_PS * 10.0)
    return build_synthetic_molecule(SyntheticMoleculeSpec(
        intermediates, 11145.0, (tooth,), dipole_profile="gaussian",
        ground_a_energies=(0.0, 37.0), ground_b_energies=(-2333.0, -2291.0)))


def _ramped_run(case, **kw):
    if case == "crp_n3_strong":
        # 1000 fs pulses of 100 pi per channel, 200 cm^-1 off resonance
        return run_piecewise_crp(build_three_level(pump_detuning=200.0), 10,
                                 10.0, 0.2, 0.2, fwhm=1000.0,
                                 pump_area=100.0 * math.pi,
                                 dump_area=100.0 * math.pi, record="none", **kw)
    if case == "stirap_n3":
        return run_piecewise_stirap(build_three_level(), 10, 10.0,
                                    record="none", **kw)
    if case == "crp_n3_decaying":
        return run_piecewise_crp(build_three_level(pump_detuning=2.0,
                                                   decay_rate=0.05),
                                 10, 10.0, 0.2, 0.2, record="none", **kw)
    if case == "stirap_n7":
        mol, delta_T = _packet_molecule()
        return run_piecewise_stirap(mol, 8, delta_T, delta_t_small=2.0,
                                    record="none", **kw)
    return run_piecewise_crp(_band_molecule(), 8, 10.0, 0.2, 0.2,
                             record="none", **kw)


@pytest.mark.parametrize("case", ["stirap_n3", "crp_n3_decaying", "stirap_n7"])
def test_default_steps_meet_the_tolerance(case):
    """The count the rule picks lands within the tolerance of 6400 steps
    per pulse, well below the cap."""
    run = _ramped_run(case)
    steps = run.details["diagnostics"]["steps"]
    assert steps < propagator.MIN_STEPS_PER_PULSE
    fine = _ramped_run(case, steps=6400)
    dev = np.max(np.abs(run.trajectory.final_state.amplitudes
                        - fine.trajectory.final_state.amplitudes))
    assert dev < TOL


def test_default_reference_meets_the_tolerance():
    """The default 100 ps reference lands within the tolerance of 4x its
    steps, and within 1.5x its reported estimate: three levels on Magnus
    steps, and bands on RK4 steps on each side of
    _WINDOW_SEGMENT_MAX_LEVELS (12 levels on segment operators, 25 on the
    stepped state), whose estimate needs an N0 inside half the stability
    bound."""
    for system in (build_three_level(), _band_molecule(8), _band_molecule()):
        ref = run_reference_ap(system, "stirap", 100.0, 1.47)
        diagnostics = ref.details["diagnostics"]
        steps = diagnostics["steps"]
        assert steps < propagator._window_cap(100.0)
        fine = run_reference_ap(system, "stirap", 100.0, 1.47, steps=4 * steps)
        dev = np.max(np.abs(ref.trajectory.final_state.amplitudes
                            - fine.trajectory.final_state.amplitudes))
        assert dev < TOL
        assert dev <= 1.5 * diagnostics["error_estimate"]


def test_given_steps_keep_their_bits(monkeypatch):
    """A given count takes no estimate and keeps its bits: pulses on the
    Magnus kernel, above the cap too, a three-level window on Magnus
    steps, and band windows on RK4 segments (12 levels) and RK4 steps
    of the state (25 levels). The sha256 prefixes were taken on x86-64
    with numpy 2.4 and one OpenBLAS thread."""
    import hashlib

    def no_estimate(*args):
        raise AssertionError("a given count took the estimate")

    monkeypatch.setattr(propagator, "_doubling_error", no_estimate)
    sys3 = build_three_level(pump_detuning=4.0, decay_rate=0.02)
    frame = PhaseFrame.comb_locked(sys3, 10.0)
    sched = _train(sys3, n_pairs=3, kind="crp", alpha_pump=0.1, alpha_dump=0.1)
    expected = {(60, "none"): "ea58b88b4686b60c",
                (60, "compressed"): "25eb3bbedc8527ec",
                (800, "none"): "1658dabd2fec0ee8",
                (800, "compressed"): "9fe3811f28a521e6"}
    for (steps, record), digest in expected.items():
        traj = run_schedule(ground_state(sys3, sched.start_time), sys3, sched,
                            frame, record=record, steps=steps)
        data = traj.final_state.amplitudes.tobytes() + traj.populations.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
        assert traj.diagnostics == {"steps": steps, "error_estimate": None,
                                    "events": 6,
                                    "distinct_pulses": len(sched.pulses)}
    windows = [(sys3, 5003, "0c2bd41531250f19"),
               (_band_molecule(8), 1001, "566e04766b2e8e8d"),
               (_band_molecule(), 401, "55c217d26013f15b")]
    for system, steps, digest in windows:
        ref = run_reference_ap(system, "stirap", 20.0, 1.47, steps=steps).trajectory
        data = ref.final_state.amplitudes.tobytes() + ref.populations.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


@pytest.mark.parametrize("case, expected", [
    ("weak", "n0"), ("stirap_n3", "n0"), ("crp_n25", "between"),
    ("crp_n3_strong", "cap")])
def test_default_steps_stay_between_n0_and_the_cap(case, expected):
    cap = propagator.MIN_STEPS_PER_PULSE
    if case == "weak":
        sys3 = build_three_level()
        sched = _train(sys3, total=0.01)
        traj = run_schedule(ground_state(sys3, sched.start_time), sys3, sched,
                            PhaseFrame.comb_locked(sys3, 10.0))
        diagnostics = traj.diagnostics
    else:
        diagnostics = _ramped_run(case).details["diagnostics"]
    steps = diagnostics["steps"]
    assert cap // 32 <= steps <= cap
    assert {"n0": steps == cap // 32, "cap": steps == cap,
            "between": cap // 32 < steps < cap}[expected]


def test_window_steps_stay_between_n0_and_the_cap():
    """A three-level window on Magnus steps takes at least twice its N0,
    the fewest steps that keep h max ||H|| < pi / 2 (8 at least), and at
    most the cap. On the resonant, lossless system max ||H|| is at most
    the peak Rabi rate, since each channel's ||A||_F is 1/2."""
    cap = propagator._window_cap(10.0)
    sys3 = build_three_level()
    for peak in (0.0, 1.47, 40.0):
        steps = run_reference_ap(sys3, "stirap", 10.0, peak).details[
            "diagnostics"]["steps"]
        n0 = max(8, int(10.0 * peak // (math.pi / 2.0)) + 1)
        assert 2 * n0 <= steps <= cap
        # an undriven window is exact at any count: the rule's floor
        assert steps == 2 * n0 or peak > 0.0


def test_the_packet_reference_meets_the_tolerance_below_the_cap(caplog):
    """The 20 ps reference on the n = 7 packet at peak 7 rad/ps, which
    RK4 held at its cap of 4000 steps with the estimate over the
    tolerance, meets the tolerance on Magnus steps below the cap, logs
    no warning and lands within the tolerance of 4x its steps."""
    mol, _ = _packet_molecule()
    with caplog.at_level("WARNING", logger="papsim.propagator"):
        ref = run_reference_ap(mol, "stirap", 20.0, 7.0)
    diagnostics = ref.details["diagnostics"]
    assert diagnostics["steps"] < propagator._window_cap(20.0)
    assert diagnostics["error_estimate"] <= TOL
    assert not caplog.records
    fine = run_reference_ap(mol, "stirap", 20.0, 7.0,
                            steps=4 * diagnostics["steps"])
    dev = np.max(np.abs(ref.trajectory.final_state.amplitudes
                        - fine.trajectory.final_state.amplitudes))
    assert dev < TOL


@pytest.mark.parametrize("kernel", ["magnus", "rk4"])
def test_window_failures_are_numerics_errors(kernel, monkeypatch):
    """Four steps over a strong 10 ps window leave the kernel's bound
    (Magnus convergence, RK4 stability) and raise instead of returning
    finite, wrong amplitudes; so does a drive that is not a number, with
    a default count as with a given one."""
    if kernel == "rk4":
        monkeypatch.setattr(propagator, "_WINDOW_MAGNUS_MAX_LEVELS", 2)
    sys3 = build_three_level()
    with pytest.raises(NumericsError, match="bound"):
        run_reference_ap(sys3, "stirap", 10.0, 40.0, steps=4)
    frame = PhaseFrame.for_system(sys3)
    nan = lambda t: math.nan if t > 5.0 else 1.0
    for steps in (None, 100):
        with pytest.raises(NumericsError, match="not finite"):
            propagate_window(ground_state(sys3), sys3, nan, lambda t: 1.0,
                             frame, 10.0, steps)
        with pytest.raises(NumericsError, match="not finite"):
            propagate_window(ground_state(sys3), sys3, lambda t: 1.0,
                             lambda t: 1.0, frame, 10.0, steps,
                             pump_phase=nan)


def test_a_run_held_at_the_cap_is_flagged(caplog):
    """A crp train of strong, long, far-detuned pulses needs more than
    the cap of Magnus steps per pulse for the tolerance: it keeps the cap
    and says so."""
    with caplog.at_level("WARNING", logger="papsim.propagator"):
        run = _ramped_run("crp_n3_strong")
    diagnostics = run.details["diagnostics"]
    assert diagnostics["steps"] == propagator.MIN_STEPS_PER_PULSE
    assert diagnostics["error_estimate"] > TOL
    assert diagnostics["events"] == 20
    assert any("held at their cap" in r.getMessage() for r in caplog.records)


def test_the_band_crp_run_meets_the_tolerance_below_the_cap(caplog):
    """The n = 25 band crp train, which RK4 could not resolve in 800
    steps per pulse, meets the tolerance in fewer Magnus steps than the
    cap and logs no warning."""
    with caplog.at_level("WARNING", logger="papsim.propagator"):
        run = _ramped_run("crp_n25")
    diagnostics = run.details["diagnostics"]
    assert diagnostics["steps"] < propagator.MIN_STEPS_PER_PULSE
    assert diagnostics["error_estimate"] <= TOL
    assert not caplog.records


def test_the_estimate_bounds_the_error_of_too_few_steps():
    """At 4, 8 and 16 steps the step-doubling estimate of one 40 fs,
    area-1 pump pulse on a lossless 2 + 3 + 2 system is at least the
    operator's error against 1024 steps, and the default count keeps
    the amplitudes and the norm within the tolerance."""
    system = LevelSystem(
        ground_a=(Level("g0", 0.0), Level("g1", 37.0)),
        excited=(Level("e0", 11140.0), Level("e1", 11150.0),
                 Level("e2", 11160.0)),
        ground_b=(Level("t0", -520.0), Level("t1", -480.0)),
        pump_dipoles=np.array([[0.5, 1.0, 0.5], [0.5, 0.5, 0.5]]),
        dump_dipoles=np.full((2, 3), 0.5), carrier_anchor=11150.0)
    frame = PhaseFrame.for_system(system)
    pulse = make_pulse("sin2", 40.0, 1.0, channel="pump")

    def operator(steps):
        return propagator._integrate_pulses(system, frame, [pulse], [0.0],
                                            steps)[0]

    fine = operator(1024)
    for steps in (4, 8, 16):
        error = np.max(np.abs(operator(steps) - fine))
        assert error > 1e-11
        assert propagator._pulse_error(system, frame, [pulse], steps) >= error
    sched = make_schedule([TrainEvent(pulse.support_ps / 2.0, pulse)],
                          1, 1.0, 0.0, "single")
    traj = run_schedule(ground_state(system), system, sched, frame,
                        record="none")
    assert traj.diagnostics["steps"] < propagator.MIN_STEPS_PER_PULSE
    assert np.max(np.abs(traj.final_state.amplitudes - fine[0, :, 0])) < TOL
    assert abs(traj.norms[-1] - 1.0) < TOL


def _band_crp_pulse():
    """The band, the frame of its crp train and that train's strongest
    pump pulse."""
    run = _ramped_run("crp_n25")
    pump = max((p for p in run.schedule.pulses if p.channel == "pump"),
               key=lambda p: p.area)
    return _band_molecule(), run.frame, pump


def test_the_magnus_error_falls_as_the_sixth_power_of_the_step():
    """On the strongest pump pulse of the band crp train the operator's
    error against 1024 steps falls at least 50x per doubling of the
    steps from 16 steps on: 2^6 = 64 for a sixth-order method."""
    band, frame, pulse = _band_crp_pulse()

    def operator(steps):
        return propagator._integrate_pulses(band, frame, [pulse], [0.0],
                                            steps)[0]

    fine = operator(1024)
    errors = [np.max(np.abs(operator(steps) - fine)) for steps in (16, 32, 64)]
    assert errors[-1] > 1e-12
    for coarse, finer in zip(errors, errors[1:]):
        assert coarse / finer >= 50.0


def test_lossless_operators_are_unitary_at_any_step_count():
    """Without decay each exp(Omega) is unitary, so their product is too:
    from the fewest steps inside the convergence bound up to the cap,
    odd counts included."""
    band, frame, pulse = _band_crp_pulse()
    eye = np.eye(band.n_levels, dtype=complex)
    counts = []
    for steps in [*range(4, 24), 101, propagator.MIN_STEPS_PER_PULSE]:
        try:
            u = propagator._integrate_pulses(band, frame, [pulse], [0.0],
                                             steps)[0][0]
        except NumericsError:
            assert not counts  # only counts below the fewest fail
            continue
        counts.append(steps)
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-13
    assert 4 < counts[0] < 23


def test_the_taylor_exponential_matches_expm(monkeypatch):
    """exp(Omega) - I from the Taylor series matches scipy's expm - I to
    1e-14 on the Omega stacks of the n = 3 and n = 25 runs, at their
    default counts and at 8 steps, where many steps are scaled. Their
    pulses are integrated on blocks of 2 and 23 levels."""
    from scipy.linalg import expm

    stacks = []
    taylor = propagator._expm1

    def spy(omega):
        stacks.append(omega.copy())
        return taylor(omega)

    monkeypatch.setattr(propagator, "_expm1", spy)
    for case in ("stirap_n3", "crp_n3_decaying", "crp_n25"):
        for steps in (None, 8):
            _ramped_run(case, steps=steps)
    monkeypatch.undo()
    scaled = 0
    for n in (2, 23):
        omega = np.concatenate([s for s in stacks if s.shape[-1] == n])
        norms = np.abs(omega).sum(axis=-2).max(axis=-1)
        scaled += np.count_nonzero(norms > propagator._TAYLOR_NORM)
        eye = np.eye(n)
        reference = np.array([expm(w) - eye for w in omega])
        assert np.max(np.abs(propagator._expm1(omega) - reference)) < 1e-14
    assert scaled > 100


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_broadcast_product_matches_matmul(n):
    """_mm gives a @ b, shape and values to rounding, on stacks of
    operators, on an operator stack times one shared matrix and on
    stacks of operators and state columns."""
    rng = np.random.default_rng(n)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    K, m = 7, 5
    for a, b in ((draw(K, n, n), draw(K, n, n)), (draw(K, n, n), draw(n, m)),
                 (draw(K, n, n), draw(K, n, 1))):
        product = propagator._mm(a, b)
        assert product.shape == (a @ b).shape
        assert np.max(np.abs(product - a @ b)) < 1e-14


def test_dense_runs_keep_forty_samples_per_pulse():
    """Dense recording samples every max(1, steps // 40) steps, so a run
    at the default count keeps at least the 39 in-pulse samples of 800
    steps at stride 20."""
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, 50, 10.0)
    steps = res.details["diagnostics"]["steps"]
    assert steps < propagator.MIN_STEPS_PER_PULSE
    times = res.trajectory.times
    sched = res.schedule
    starts = sched.time - sched.support / 2.0
    for lo, hi in zip(starts, starts + sched.support):
        inside = np.count_nonzero((times > lo + 1e-12) & (times < hi - 1e-12))
        assert inside == (steps - 1) // max(1, steps // 40) >= 39
