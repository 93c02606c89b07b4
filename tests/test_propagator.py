"""Rotating-frame propagation: pulses, gaps, schedules, and the oracle."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from papsim import (C_CM_PER_PS, K_RAD_PS_PER_CM, NumericsError, PhaseFrame,
                    QuantumState, TrainEvent, build_three_level,
                    build_synthetic_molecule, build_train, free_evolve,
                    ground_state, make_pulse, make_schedule, propagate_pulse,
                    propagate_window, run_pair_train, run_piecewise_crp,
                    run_piecewise_stirap, run_reference_ap, run_schedule,
                    scan_2d, SyntheticMoleculeSpec)
from papsim import propagator
from papsim.levels import Level, LevelSystem
from papsim.fields import _pair_trains, rabi_envelope
from papsim.propagator import _run_events
from oracle import oracle_propagate


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
    # a comb offset f0 moves both carriers by 2 pi f0 on the same tooth,
    # so the excited level's phase slips by 2 pi f0 delta_T from one
    # pulse to the next
    f0, delta_T = 0.017, 10.0  # THz, ps
    sys3 = build_three_level(pump_detuning=3.0)
    base = PhaseFrame.comb_locked(sys3, delta_T)
    comb = PhaseFrame.comb_locked(sys3, delta_T, f0)
    assert abs(comb.omega_pump - base.omega_pump - 2.0 * math.pi * f0) < 1e-12
    assert abs(comb.omega_dump - base.omega_dump - 2.0 * math.pi * f0) < 1e-12
    excited = QuantumState(np.array([0.0, 1.0, 0.0], dtype=complex), 0.0)
    base_phase, comb_phase = (
        free_evolve(excited, sys3, delta_T, frame).amplitudes[1]
        for frame in (base, comb))
    slip = np.angle(comb_phase / base_phase)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["pump_offset", "two_photon_offset", "f0_pump",
                                  "omega_pump", "omega_dump"])
def test_non_finite_frame_inputs_fail_by_name(name, bad):
    """A NaN or infinite frame offset or frequency, also of a frame built
    directly, is a ValueError that names it, not a NaN frame that fails
    deep in a run, steps blamed on the numerics or an OverflowError. Such
    an f0_pump given with a frame is named too, not taken for a conflict
    with it; a scan at it returns NaN cells, each failed for that reason."""
    sys3 = build_three_level()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if name == "f0_pump":
            PhaseFrame.comb_locked(sys3, 10.0, bad)
        elif name.startswith("omega"):
            PhaseFrame(**{"omega_pump": 0.0, "omega_dump": 0.0, name: bad})
        else:
            PhaseFrame.for_system(sys3, **{name: bad})
    if name == "f0_pump":
        with pytest.raises(ValueError, match="f0_pump must be finite"):
            run_pair_train(sys3, 3, 10.0, 4.0,
                           frame=PhaseFrame.for_system(sys3), f0_pump=bad)
        emap = scan_2d(sys3, {"n_pairs": 3, "f0_pump": bad}, [10.0, 12.0],
                       [2.0, 3.0, 4.0])
        assert np.isnan(emap.efficiency).all()
        failures = emap.details["failures"]
        assert len(failures) == emap.efficiency.size
        assert all("f0_pump must be finite" in r for r in failures.values())


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


def _embedded(system, frame, pulses, phases, dense):
    """The (S, P, n, n) snapshots of a pass on all n levels, rebuilt from
    the block snapshots of the real gauge that _integrate_pulses returns
    as the pass used to embed them: g U'(t) conj(g) on each pulse's
    block, g = exp(-i (phi_c - theta)) on its excited levels and 1
    elsewhere, and the free phase exp(-i d t) outside the block. Also
    checks the returned gauge against conj(g)."""
    snapshots, times, rows, gauge = dense
    excited = system.slice_excited()
    inside = (rows >= excited.start) & (rows < excited.stop)
    phi = np.zeros(rows.shape)
    phi[inside] = -np.concatenate([propagator._row_angles(system, p)
                                   for p in pulses])
    phi += np.asarray(phases, dtype=float)[:, None]
    g = np.where(inside, np.exp(-1j * phi), 1.0)
    assert np.max(np.abs(gauge - np.conj(g))) <= 1e-15
    block = g[:, :, None] * snapshots * np.conj(g)[:, None, :]
    diag = propagator._diagonal(system, frame)
    out = np.exp(-1j * diag * times)[..., None] * np.eye(system.n_levels)
    out[:, np.arange(len(pulses))[:, None, None], rows[:, :, None],
        rows[:, None, :]] = block
    return out


def _pass(system, frame, pulses, phases, steps, samples=None):
    """The (P, n, n) operators of _integrate_pulses and, with samples, its
    snapshots embedded on all n levels (_embedded)."""
    ops, dense, _ = propagator._integrate_pulses(system, frame, pulses, phases,
                                                 steps, samples=samples)
    return ops, dense and _embedded(system, frame, pulses, phases, dense)


def _full_pass(system, frame, pulses, phases, steps, samples=None):
    """The operators and snapshots of the pulse pass on all n levels:
    every pulse's block holds the whole system."""
    n = system.n_levels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagator, "_blocks",
                      lambda system, pulses: np.tile(np.arange(n), (len(pulses), 1)))
        return _pass(system, frame, pulses, phases, steps, samples)


@pytest.mark.parametrize("case", ["asymmetric", "masked_dump", "decaying",
                                  "dense", "dense_short_blocks"])
def test_block_passes_match_the_full_pass_and_the_oracle(case, monkeypatch):
    """Pulses integrated on their blocks of levels, the levels outside
    taking their exact free phase, give the operators and snapshots of
    the same pass on all n levels to 1e-13, and their trains agree with
    the oracle. The frame is 8 cm^-1 off the pump anchor and 5 cm^-1 off
    two-photon resonance. The dense cases also run propagate_pulse on a
    state; in the last, a block of the 5-level pass holds 2 steps and
    one of the 6-level pass 1, fewer than a stride of 3, so the steps
    between two snapshots come from more than one block."""
    if case == "dense_short_blocks":
        monkeypatch.setattr(propagator, "_BLOCK_ENTRIES", 100)
    system = _two_three_one(0.05 if case == "decaying" else 0.0)
    frame = PhaseFrame.for_system(system, pump_offset=8.0,
                                  two_photon_offset=5.0)
    mask = (0.4, -2.0, 1.1) if case == "masked_dump" else None
    pulses = [make_pulse("sin2", 100.0, 2.0),
              make_pulse("gaussian", 80.0, 1.5, channel="dump",
                         phase_mask=mask)]
    # 13 samples of 40 steps: a stride of 3
    phases, steps, samples = [0.3, -1.1], 40, 13
    ops, snapshots = _pass(system, frame, pulses, phases, steps, samples)
    full, full_snapshots = _full_pass(system, frame, pulses, phases, steps,
                                      samples)
    assert ops.shape == full.shape and snapshots.shape == full_snapshots.shape
    assert np.max(np.abs(ops - full)) < 1e-13
    assert np.max(np.abs(snapshots - full_snapshots)) < 1e-13

    events = [TrainEvent(0.5, pulses[0]), TrainEvent(1.5, pulses[1]),
              TrainEvent(2.5, pulses[0])]
    sched = make_schedule(events, 2, 1.0, 0.0, "mixed")
    record = "dense" if case.startswith("dense") else "none"
    st = ground_state(system, sched.start_time)
    traj = run_schedule(st, system, sched, frame, record=record)
    ora = oracle_propagate(st, system, sched, frame, steps_per_pulse=4000)
    assert np.max(np.abs(traj.final_state.amplitudes - ora.amplitudes)) < 1e-7
    if record == "dense":
        state = QuantumState(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8j]), 0.0)
        for pulse in pulses:
            out = propagate_pulse(state, system, pulse, frame, steps)
            op, _ = _full_pass(system, frame, [pulse], [pulse.carrier_phase],
                               steps)
            assert np.max(np.abs(out.amplitudes - op[0] @ state.amplitudes)) < 1e-13


def test_the_propagator_source_stays_below_8192_code_tokens():
    """Past 8192 tokens the parser's token array grows, and compiling
    propagator.py takes about 0.5 MB more, which the benchmark reads as
    peak_rss_mb: it runs fresh exports without bytecode caches. Comments,
    NL and ENCODING tokens do not count."""
    import tokenize

    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(propagator.__file__, "rb") as source:
        count = sum(token.type not in skip
                    for token in tokenize.tokenize(source.readline))
    assert count < 8192, count


def _lab_drive(pulse, center_phase, steps, detuning=0.0):
    """w e^{-i phi} at the three Gauss-Legendre nodes of each step, the
    carrier phase sliding at K detuning (cm^-1) from center_phase at the
    support midpoint: the drive of a carrier detuned from the frame."""
    T = pulse.support_ps
    tau = ((np.arange(steps)[:, None] + propagator._GAUSS_NODES)
           * (T / steps)).ravel()
    phi = center_phase + K_RAD_PS_PER_CM * detuning * (tau - T / 2.0)
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
    """Each Omega that a pulse pass forms from the pulse's basis, over
    the first ceil(N / 2) of its N steps, equals the alpha-commutator
    Omega of the window assembly (_magnus6, one call per pulse) on the
    same block, drive and h to 1e-14 max(1, ||Omega||_1): pulses at zero
    detuning on blocks of b levels with decay, dipole phases, a
    phase-masked dump, a nonzero centre phase (Z Omega Z^dagger of the
    basis pass, which runs at phase 0 in the real gauge: Z takes the
    centre phase and the row phases of the dump) and each pulse's own h.
    The pass's Omegas come step by step, each step's over its pulses."""
    dipole_phases = tuple(np.linspace(0.7, -1.9, b - 1))
    system = build_synthetic_molecule(SyntheticMoleculeSpec(
        b - 1, 11150.0, (7.0,), dipole_profile="gaussian", decay_lifetime=0.3,
        ground_b_energies=(-2333.0,), dipole_phases=dipole_phases))
    frame = PhaseFrame.for_system(system, pump_offset=2.0)
    mask = np.linspace(-2.0, 2.5, b - 1)
    pulses = [make_pulse("gaussian", 80.0, 1.5, channel="dump", phase_mask=mask),
              make_pulse("sin2", 100.0, 2.0),
              make_pulse("gaussian", 120.0, 0.7)][:P]
    phases = np.array([0.9, -1.3, 2.1])[:P]
    steps, taken = 13, 7
    bases = propagator._pulse_bases(system, frame, pulses)
    basis_omega = _omegas(monkeypatch, lambda: propagator._pulse_pass(
        bases, pulses, steps))

    rows = propagator._blocks(system, pulses)
    excited = system.slice_excited()
    inside = (rows >= excited.start) & (rows < excited.stop)
    # the phase of each pulse's couplings to the excited levels
    theta = np.array([mask + dipole_phases if p.channel == "dump"
                      else np.zeros(b - 1) for p in pulses])
    A = np.stack([propagator._absorption_matrix(system, p.channel)
                  for p in pulses])
    A[:, excited] *= np.exp(1j * np.where(
        [[p.channel == "dump"] for p in pulses], mask, 0.0))[:, :, None]
    problems = np.arange(P)[:, None, None]
    A = A[problems, rows[:, :, None], rows[:, None, :]]
    drive = np.stack([_lab_drive(p, phi, steps)[:3 * taken]
                      for p, phi in zip(pulses, phases)])
    h = np.array([p.support_ps / steps for p in pulses])
    diag = propagator._diagonal(system, frame)[rows]
    alpha_omega = np.stack([_omegas(monkeypatch, lambda: propagator._magnus6(
        diag[p], [(A[p], drive[p])], np.eye(b, dtype=complex), h[p]))
        for p in range(P)], axis=1).reshape(taken * P, b, b)

    angle = np.zeros(rows.shape)
    angle[inside] = theta.ravel()
    z = np.where(inside, np.exp(-1j * (phases[:, None] - angle)), 1.0)
    z = np.tile(z, (taken, 1))
    basis_omega = z[:, :, None] * basis_omega * z.conj()[:, None, :]
    assert basis_omega.shape == alpha_omega.shape == (taken * P, b, b)
    norm = np.abs(alpha_omega).sum(axis=-2).max(axis=-1)
    assert norm.max() > 0.1
    dev = np.abs(basis_omega - alpha_omega).max(axis=(-2, -1))
    assert np.all(dev <= 1e-14 * np.maximum(1.0, norm))


def _symmetric_case():
    """The decaying 2 + 3 + 1 system with dipole phases in a frame 8 cm^-1
    off the pump anchor, and a pump and a phase-masked dump pulse of
    each shape."""
    system = _two_three_one(0.05)
    frame = PhaseFrame.for_system(system, pump_offset=8.0)
    pulses = [make_pulse(shape, fwhm, area, channel=channel,
                         phase_mask=(0.4, -2.0, 1.1) if channel == "dump" else None)
              for shape, fwhm, area in (("sin2", 100.0, 2.0),
                                        ("gaussian", 80.0, 1.5))
              for channel in ("pump", "dump")]
    return system, frame, pulses


def test_half_passes_match_the_full_pass():
    """A pass without snapshots integrates the first ceil(N / 2) steps
    and folds the rest in by transposition, U' = U_a^T Y; its operators
    equal the full N-step pass (the final operator of a pass with stride
    1, which multiplies out every step in order, the second half's
    exponentials being the first half's transposed) to 1e-14 at even and
    odd N and at the count the tolerance picks: both shapes on both
    channels, decay, dipole phases, a phase mask, a detuned frame and
    nonzero centre phases."""
    system, frame, pulses = _symmetric_case()
    phases = [0.3, -1.1, 2.4, 0.8]
    # the count of a row of 4 events, one per pulse
    default = propagator._integrate_pulses(system, frame, pulses, phases,
                                           None, 4)[2]["steps"]
    assert default > 13
    for steps in (4, 5, 8, 13, default):
        half = propagator._integrate_pulses(system, frame, pulses, phases,
                                            steps)[0]
        full, snapshots = _pass(system, frame, pulses, phases, steps, steps)
        assert snapshots.shape == (steps - 1, 4, 6, 6)
        assert np.max(np.abs(half - full)) < 1e-14


def _exponentiated(monkeypatch, run):
    """(pulses, steps, stride, matrices) of each _pulse_pass of run():
    how many matrices _expm1 exponentiates in it; and how many pulse
    bases run() builds."""
    passes, counted, built = [], [0], [0]
    taylor, pulse_pass = propagator._expm1, propagator._pulse_pass
    pulse_basis = propagator._PulseBasis

    def expm1(omega):
        counted[0] += len(omega)
        return taylor(omega)

    def spy(bases, pulses, steps, stride=None):
        before = counted[0]
        out = pulse_pass(bases, pulses, steps, stride)
        passes.append((len(pulses), steps, stride, counted[0] - before))
        return out

    def build(*args):
        built[0] += 1
        return pulse_basis(*args)

    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_expm1", expm1)
        patch.setattr(propagator, "_pulse_pass", spy)
        patch.setattr(propagator, "_PulseBasis", build)
        run()
    return passes, built[0]


def test_passes_without_snapshots_exponentiate_half_their_steps(monkeypatch):
    """A pass exponentiates P ceil(N / 2) matrices, with a stride or
    without: step N - 1 - k takes the transpose of step k's. The default
    crp run on the 25-level band takes 88 steps per pulse: its
    production pass over 8 distinct pulses exponentiates 352 matrices
    and its estimate, on 2 pulses at 16 and 32 steps, 48 (704 and 96
    when every pass took all its steps). A dense default-count train,
    whose production pass exponentiated P N matrices before it mirrored
    them too, and a scan column also take one estimate, two half passes
    on their largest pulses, and one production pass.
    Each call builds one basis per channel, which the estimate and the
    production pass share."""
    system, frame, pulses = _symmetric_case()
    for steps in (4, 5, 8, 13):
        # steps // 2 samples: a stride of 2
        for samples, stride in ((None, None), (steps // 2, 2)):
            passes, built = _exponentiated(
                monkeypatch, lambda: propagator._integrate_pulses(
                    system, frame, pulses, [0.0] * 4, steps, samples=samples))
            assert passes == [(4, steps, stride, 4 * ((steps + 1) // 2))]
            assert built == 2
    passes, built = _exponentiated(monkeypatch, lambda: _ramped_run("crp_n25"))
    assert passes == [(2, 16, None, 16), (2, 32, None, 32), (8, 88, None, 352)]
    assert built == 2
    # 40 steps, a multiple of the 40 samples, at a stride of 1
    passes, built = _exponentiated(
        monkeypatch, lambda: _ramped_run("stirap_n3", record="dense"))
    assert passes == [(2, 8, None, 8), (2, 16, None, 16), (20, 40, 1, 400)]
    assert built == 2
    passes, built = _exponentiated(monkeypatch, lambda: scan_2d(
        build_three_level(pump_detuning=4.0), {"n_pairs": 3, "pump_area": math.pi,
                                               "dump_area": math.pi},
        [10.0], [2.0, 3.0, 4.0, 6.0]))
    assert passes == [(2, 8, None, 8), (2, 16, None, 16), (2, 10, None, 10)]
    assert built == 2


@pytest.mark.parametrize("detuning", [5.0, -12.0, 30.0])
def test_a_detuned_pulse_in_its_carrier_frame_converges_to_the_lab_frame(
        detuning):
    """A carrier detuned by K detuning from its channel's frame frequency
    is the frame with that frequency shifted (PhaseFrame). A pulse
    integrated in its carrier's frame, and the same pulse on Magnus
    steps in the unshifted lab frame (its phase sliding in the drive)
    converge to each other at sixth order once the rotation exp(-i s t)
    between the frames' diagonals takes the lab operator into the
    carrier's frame, where the phase of the drive is its value at the
    support start: their difference falls at least 40x per doubling of
    the steps, for the operators and the dense snapshots (in the lab
    frame, passes over the first k steps). A train of such pulses in
    the carrier frame agrees with the oracle."""
    system = _two_three_one(0.05)
    frame = PhaseFrame.for_system(system)
    n, shift = system.n_levels, K_RAD_PS_PER_CM * detuning
    for channel in ("pump", "dump"):
        pulse = make_pulse("sin2", 100.0, 2.0, channel=channel)
        carrier = (PhaseFrame(frame.omega_pump + shift, frame.omega_dump)
                   if channel == "pump" else
                   PhaseFrame(frame.omega_pump, frame.omega_dump + shift))
        rotation = (propagator._diagonal(system, carrier)
                    - propagator._diagonal(system, frame)).real
        T = pulse.support_ps
        diffs = []
        for steps in (8, 16, 32):
            ops, snapshots = _pass(system, carrier, [pulse],
                                   [0.4 - shift * T / 2.0], steps, 8)
            drive = _lab_drive(pulse, 0.4, steps, detuning)

            def lab_after(stop):
                # the lab-frame operator after the first `stop` steps, in
                # the carrier's frame
                op = propagator._magnus6(
                    propagator._diagonal(system, frame),
                    [(propagator._absorption_matrix(system, channel),
                      drive[:3 * stop])],
                    np.eye(n, dtype=complex), T / steps)[0]
                return np.exp(-1j * rotation * T * stop / steps)[:, None] * op

            lab = lab_after(steps)[None]
            lab_snapshots = np.array([lab_after(k * steps // 8)[None]
                                      for k in range(1, 8)])
            assert snapshots.shape == lab_snapshots.shape == (7, 1, n, n)
            diffs.append((np.max(np.abs(ops - lab)),
                          np.max(np.abs(snapshots - lab_snapshots))))
        for coarse, fine in zip(diffs, diffs[1:]):
            assert fine[0] > 1e-13 and fine[1] > 1e-13
            assert coarse[0] / fine[0] >= 40.0 and coarse[1] / fine[1] >= 40.0

    pump = make_pulse("sin2", 100.0, 2.0)
    dump = make_pulse("gaussian", 80.0, 1.5, channel="dump")
    carrier = PhaseFrame(frame.omega_pump + shift, frame.omega_dump - shift)
    events = [TrainEvent(0.5, pump), TrainEvent(1.5, dump), TrainEvent(2.5, pump)]
    sched = make_schedule(events, 2, 1.0, 0.0, "mixed")
    st = ground_state(system, sched.start_time)
    traj = run_schedule(st, system, sched, carrier, record="none")
    ora = oracle_propagate(st, system, sched, carrier, steps_per_pulse=4000)
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

    # at one given count, a dense run's rows at the event ends are the
    # compressed run's, at the same times: 80 steps sample every 2 steps,
    # 39 samples inside each pulse and its end
    given = {record: run_schedule(st, sys3, sched, frame, record=record,
                                  steps=80)
             for record in ("compressed", "dense")}
    ends = given["dense"].times[::40]
    assert len(given["dense"].times) == 1 + 8 * 40
    assert np.array_equal(ends, given["compressed"].times)
    assert np.max(np.abs(given["dense"].populations[::40]
                         - given["compressed"].populations)) < 1e-13

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
    evolution, with decaying ground levels and both carriers detuned
    from the anchors."""
    base = build_three_level(pump_detuning=3.0, decay_rate=0.05)
    sys3 = replace(base, ground_a=(Level("g", 0.0, 0.004),),
                   ground_b=(Level("t", base.ground_b[0].energy, 0.002),))
    frame = PhaseFrame.for_system(sys3, pump_offset=-3.5, two_photon_offset=-9.5)
    events = [TrainEvent(2.0 * k + 0.8 * c, make_pulse(
        "sin2", 100.0, 0.6, carrier_phase=0.3 * k, channel=channel))
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


@pytest.mark.parametrize("record", ["compressed", "dense", "none"])
def test_empty_schedule_is_identity(record):
    """An empty schedule, which has no pulses and so no snapshots, records
    the state it was given and hands it back, whatever the policy."""
    sys3 = _resonant()
    sched = _train(sys3, n_pairs=0)
    st = ground_state(sys3)
    traj = run_schedule(st, sys3, sched, PhaseFrame.for_system(sys3),
                        record=record)
    assert len(traj.times) == 1
    assert np.array_equal(traj.populations, [st.populations()])
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
    # bound of the H' it is integrated with, by a huge area, or every
    # pulse, in a frame far from the levels: the batch raises, naming the
    # channel of the first such pulse, instead of returning finite, wrong
    # operators
    sys3 = _resonant()
    near, far = PhaseFrame.for_system(sys3), PhaseFrame.for_system(sys3, 1e4)
    for frame, areas in ((near, (1.0, 1e12, 2.0)), (far, (1.0, 1.0, 2.0))):
        for bad in ("pump", "dump"):
            good = "dump" if bad == "pump" else "pump"
            first = good if frame is near else bad
            pulses = [make_pulse("sin2", 100.0, areas[0], channel=first),
                      make_pulse("sin2", 100.0, areas[1], channel=bad),
                      make_pulse("gaussian", 80.0, areas[2], channel=good)]
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


@pytest.mark.parametrize("levels", ["three_level", "band"])
@pytest.mark.parametrize("steps, duration", [(2000, 10.0), (2003, 10.0),
                                             (7, 0.07)])
def test_window_with_constant_drives_is_the_exponential(steps, duration,
                                                        levels):
    # 2000 steps are 400 groups of 5, 2003 leave a 3-step last group, and
    # 7 steps are groups of one step each; on the decaying three-level
    # system and on a 12-level band
    from scipy.linalg import expm

    if levels == "three_level":
        system = build_three_level(pump_detuning=3.0, dump_detuning=-1.0,
                                   decay_rate=0.05)
        amps = np.array([0.6, 0.48j, 0.64], dtype=complex)
    else:
        system = _band_molecule(8)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        amps /= np.linalg.norm(amps)
    frame = PhaseFrame.for_system(system)
    rabi_p, rabi_d = 0.8, 0.5
    H = np.diag(propagator._diagonal(system, frame))
    for rabi, channel in ((rabi_p, "pump"), (rabi_d, "dump")):
        A = propagator._absorption_matrix(system, channel)
        H += rabi * (A + A.conj().T)
    t0 = 1.5
    traj = propagate_window(QuantumState(amps, t0), system, lambda t: rabi_p,
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


def test_band_reference_windows_trace_under_4_mb():
    """The traced peak of a default 100 ps reference on a 9- and a
    16-level band, the state stepped through its groups, stays under 4
    MB; batched segment operators took it to 10 and 19 MB."""
    import tracemalloc

    for band in (_band_molecule(5), _band_molecule(12)):
        run_reference_ap(band, "stirap", 100.0, 1.47)
        tracemalloc.start()
        try:
            run_reference_ap(band, "stirap", 100.0, 1.47)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


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
                           starts[rows])[:2]

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


def _delay_scan_column(n_pairs):
    """The molecule, delta_T, delta_t axis, n_pairs and pulses of the
    shipped delay_scan.cfg column at n_pairs."""
    from papsim import build_system, load_config

    cfg = load_config(str(Path(__file__).parent.parent / "configs"
                          / "delay_scan.cfg"))
    scan = cfg["scan"]
    delta_T = scan["delta_T_values"][0]
    axis = np.linspace(scan["delta_t_start"], scan["delta_t_stop"],
                       scan["delta_t_points"])
    pump = make_pulse("sin2", 110.0, cfg["train"]["pump_area"], channel="pump")
    dump = make_pulse("sin2", 110.0, cfg["train"]["dump_area"], channel="dump")
    return build_system(cfg), delta_T, axis, n_pairs, pump, dump


def _offset_comb(system, delta_T):
    """The comb-locked frame at f0_pump = 0.013 THz with the pump_offset
    0.7 cm^-1 and the two_photon_offset 1.1 cm^-1 of
    PhaseFrame.for_system: both carriers off their teeth, the pump by
    0.7 cm^-1 and the dump by -0.4 cm^-1."""
    comb = PhaseFrame.comb_locked(system, delta_T, 0.013)
    return PhaseFrame(comb.omega_pump + K_RAD_PS_PER_CM * 0.7,
                      comb.omega_dump + K_RAD_PS_PER_CM * (0.7 - 1.1))


def _long_double_loop(system, frame, stack, n_pairs, delta_T):
    """The event loop of a flat pair-train stack in np.longdouble, from
    the operators of the same pass: each row's event times n delta_T and
    n delta_T + delta_t_small, its gaps from the differences of n and of
    those offsets (so that no gap is rounded at the scale of the train),
    and the carrier phases and free evolution from them, as run_schedule
    applies them."""
    wide = np.longdouble
    ops = propagator._integrate_pulses(
        system, frame, stack.pulses, [0.0] * len(stack.pulses), None,
        stack.time.shape[1])[0].astype(np.clongdouble)
    pair = np.repeat(np.arange(n_pairs), 2)
    offset = np.array([[wide(0.0), wide(dt)] * n_pairs for dt in stack.delta_t_small])
    order = np.argsort(pair * delta_T + offset.astype(float), axis=1, kind="stable")
    pair, offset = pair[order], np.take_along_axis(offset, order, axis=1)
    time = pair * wide(delta_T) + offset
    assert np.max(np.abs(time.astype(float) - stack.time)) < 1e-9
    half = stack.support.astype(wide) / 2
    gaps = np.zeros(time.shape, dtype=wide)
    gaps[:, 1:] = (np.diff(pair, axis=1) * wide(delta_T) + np.diff(offset, axis=1)
                   - half[:, 1:] - half[:, :-1])
    drift = np.exp(-1j * propagator._diagonal(system, frame).astype(np.clongdouble)
                   * gaps[..., None])
    dump = np.array([p.channel == "dump" for p in stack.pulses])[stack.pulse]
    level, excited = np.arange(system.n_levels), system.slice_excited()
    carried = np.where(dump[..., None], level >= excited.stop,
                       level < excited.start)
    z = np.where(carried, np.exp(1j * stack.carrier_phase.astype(wide))[..., None],
                 1.0)
    amps = np.zeros((len(time), system.n_levels), dtype=np.clongdouble)
    amps[:, system.initial_index] = 1.0
    for k in range(time.shape[1]):
        rotated = np.conj(z[:, k]) * drift[:, k] * amps
        amps = z[:, k] * (ops[stack.pulse[:, k]] @ rotated[..., None])[..., 0]
    return amps


@pytest.mark.parametrize("column, framed, bound", [
    # the shipped delay scan at 50 and 200 pairs: Delta T is no round
    # number, so the loop's gaps carry the rounding of times up to n Delta T
    pytest.param(_delay_scan_column(50), PhaseFrame.comb_locked, 1e-10,
                 id="delay_scan_50"),
    pytest.param(_delay_scan_column(200), PhaseFrame.comb_locked, 2e-10,
                 id="delay_scan_200"),
    # decay, an offset comb and both carriers detuned through the frame
    pytest.param((build_synthetic_molecule(SyntheticMoleculeSpec(
        2, 11145.0, (45.0,), ground_b_energies=(-500.0,), decay_lifetime=0.5)),
        *_delay_scan_column(200)[1:]), _offset_comb, 1e-10, id="detuned_200"),
    # the 3-pair column of test_default_counts_keep_their_bits
    pytest.param((build_three_level(pump_detuning=4.0, decay_rate=0.02), 10.0,
                  np.array([2.0, 3.0, 4.0, 6.0]), 3,
                  make_pulse("sin2", 110.0, math.pi),
                  make_pulse("sin2", 110.0, math.pi, channel="dump")),
                 PhaseFrame.comb_locked, 1e-10, id="three_pairs"),
])
def test_flat_train_powers_are_nearer_a_long_double_loop(column, framed,
                                                         bound):
    """A scan column's periodic middle, taken as a power, is at least as
    near an event loop in np.longdouble as the float64 loop of its
    recorded runs is, and agrees with that loop. framed(system, delta_T)
    is the column's frame."""
    system, delta_T, axis, n_pairs, pump, dump = column
    frame = framed(system, delta_T)
    stack, errors = _pair_trains("flat_pairs", n_pairs, delta_T, axis, pump, dump)
    assert not errors
    starts = stack.time[:, 0] - stack.support[:, 0] / 2.0
    ground = np.tile(ground_state(system).amplitudes, (len(axis), 1))
    power = _run_events(system, frame, stack, None, ground, starts)[0]
    loop = _run_events(system, frame, stack, None, ground, starts,
                       "compressed")[0]
    single = build_train("flat_pairs", n_pairs, delta_T, axis[-1], pump, dump)
    recorded = run_schedule(ground_state(system, starts[-1]), system, single,
                            frame, record="compressed")
    assert np.array_equal(recorded.final_state.amplitudes, loop[-1])
    exact = _long_double_loop(system, frame, stack, n_pairs, delta_T)
    assert np.max(np.abs(power - exact)) <= np.max(np.abs(loop - exact))
    assert np.max(np.abs(power - loop)) <= bound


def test_the_event_stage_grows_as_log_n_pairs(monkeypatch):
    """A flat train without records takes its middle in about two stacked
    products per doubling of n_pairs: 64 times the pairs, with every
    pulse the same in both runs, add at most 12 + 2 products through _mm
    and np.matmul. An event loop adds two matrix-vector products per
    pair."""
    from papsim import run_pair_train

    counts, product, matmul = [], propagator._mm, np.matmul

    def counted(call):
        def spy(*args, **kwargs):
            counts[-1] += 1
            return call(*args, **kwargs)
        return spy

    monkeypatch.setattr(propagator, "_mm", counted(product))
    monkeypatch.setattr(np, "matmul", counted(matmul))
    for n_pairs in (64, 4096):
        counts.append(0)
        run = run_pair_train(build_three_level(), n_pairs, 10.0, 4.0,
                             pump_area=0.05 * n_pairs, dump_area=0.05 * n_pairs,
                             record="none", steps=40)
        assert np.isfinite(run.efficiency)
    assert counts[1] - counts[0] <= 12 + 2

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


def _band_molecule(intermediates=21, **spec):
    """2 + k + 2 levels, intermediates one 10 ps comb tooth apart; spec
    adds SyntheticMoleculeSpec fields."""
    tooth = 1.0 / (C_CM_PER_PS * 10.0)
    return build_synthetic_molecule(SyntheticMoleculeSpec(
        intermediates, 11145.0, (tooth,), dipole_profile="gaussian",
        ground_a_energies=(0.0, 37.0), ground_b_energies=(-2333.0, -2291.0),
        **spec))


def _ramped_run(case, record="none", **kw):
    if case == "crp_n3_strong":
        # 1000 fs pulses of 100 pi per channel, 200 cm^-1 off resonance
        return run_piecewise_crp(build_three_level(pump_detuning=200.0), 10,
                                 10.0, 0.2, 0.2, fwhm=1000.0,
                                 pump_area=100.0 * math.pi,
                                 dump_area=100.0 * math.pi, record=record, **kw)
    if case == "stirap_n3":
        return run_piecewise_stirap(build_three_level(), 10, 10.0,
                                    record=record, **kw)
    if case == "crp_n3_decaying":
        return run_piecewise_crp(build_three_level(pump_detuning=2.0,
                                                   decay_rate=0.05),
                                 10, 10.0, 0.2, 0.2, record=record, **kw)
    if case == "stirap_n7":
        mol, delta_T = _packet_molecule()
        return run_piecewise_stirap(mol, 8, delta_T, delta_t_small=2.0,
                                    record=record, **kw)
    return run_piecewise_crp(_band_molecule(), 8, 10.0, 0.2, 0.2,
                             record=record, **kw)


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
    steps, and within 1.1x its reported estimate, on three levels and on
    12- and 25-level bands."""
    for system in (build_three_level(), _band_molecule(8), _band_molecule()):
        ref = run_reference_ap(system, "stirap", 100.0, 1.47)
        diagnostics = ref.details["diagnostics"]
        steps = diagnostics["steps"]
        assert steps < propagator._window_cap(100.0)
        fine = run_reference_ap(system, "stirap", 100.0, 1.47, steps=4 * steps)
        dev = np.max(np.abs(ref.trajectory.final_state.amplitudes
                            - fine.trajectory.final_state.amplitudes))
        assert dev < TOL
        assert dev <= 1.1 * diagnostics["error_estimate"]


def test_given_steps_keep_their_bits(monkeypatch):
    """A given count takes no estimate and keeps its bits: pulses on the
    Magnus kernel, above the cap too, and windows of 3, 12 and 25
    levels, and a stirap and a chirped crp window on a 14-level band with
    dipole phases and 0.3 ns decay. The sha256 prefixes were taken on
    x86-64 with numpy 2.4 and one OpenBLAS thread. The pulse digests were
    retaken when pulse passes began to integrate half their steps;
    amplitudes and populations moved by at most 6.7e-16 from the full
    passes. The dense digest was retaken (45e6c0208514f359 ->
    f1eeaaa8aab56f79) when dense passes began to take their second half's
    exponentials as the first half's transposed and to sample
    populations from vectors: its amplitudes moved by 1.6e-16 and its
    populations by 4.4e-16
    (test_dense_samples_match_the_embedded_operators). The none and
    compressed digests and those of the windows of 5003 and 1001 steps
    were retaken when a pass began to take its steps one at a time
    (test_passes_stay_near_their_steps_multiplied_in_long_double): 60
    steps 852a671e3691f563 -> abdd998715000c0d (none) and
    921d716467f0c28e -> a3a1908ff6300000 (compressed), amplitudes moved
    by 6.1e-16 and populations by 6.7e-16; 800 steps a4c9ee9e4649e540 ->
    fb217358a5eb3b9e (none) and d700db6af5ee2401 -> f9465f2efb9b375b
    (compressed), 5.1e-16 and 5.6e-16; the 5003-step window
    25a4fd466e3dd97c -> 30fe52dbb01b9b0c, 2.2e-15 and 6.0e-15; the
    1001-step window fdf8bb9d809bf08f -> f9a20650cc1bcb0f, 1.4e-15 and
    3.1e-15. The dense digest and those of the windows of 401 and 601
    steps, which already took one step at a time, kept their bits."""
    import hashlib

    def no_estimate(*args):
        raise AssertionError("a given count took the estimate")

    monkeypatch.setattr(propagator, "_doubling_error", no_estimate)
    sys3 = build_three_level(pump_detuning=4.0, decay_rate=0.02)
    frame = PhaseFrame.comb_locked(sys3, 10.0)
    sched = _train(sys3, n_pairs=3, kind="crp", alpha_pump=0.1, alpha_dump=0.1)
    expected = {(60, "none"): "abdd998715000c0d",
                (60, "compressed"): "a3a1908ff6300000",
                (60, "dense"): "f1eeaaa8aab56f79",
                (800, "none"): "fb217358a5eb3b9e",
                (800, "compressed"): "f9465f2efb9b375b"}
    for (steps, record), digest in expected.items():
        traj = run_schedule(ground_state(sys3, sched.start_time), sys3, sched,
                            frame, record=record, steps=steps)
        data = traj.final_state.amplitudes.tobytes() + traj.populations.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
        assert traj.diagnostics == {"steps": steps, "error_estimate": None,
                                    "events": 6,
                                    "distinct_pulses": len(sched.pulses)}
    phased = _band_molecule(10, decay_lifetime=0.3,
                            dipole_phases=tuple(np.linspace(0.7, -1.9, 10)))
    windows = [(sys3, "stirap", 0.0, 5003, "30fe52dbb01b9b0c"),
               (_band_molecule(8), "stirap", 0.0, 1001, "f9a20650cc1bcb0f"),
               (_band_molecule(), "stirap", 0.0, 401, "46ab714626683055"),
               (phased, "stirap", 0.0, 601, "468a51c2a3b4a8b1"),
               (phased, "crp", 0.3, 601, "c25166229071a72d")]
    for system, kind, chirp, steps, digest in windows:
        ref = run_reference_ap(system, kind, 20.0, 1.47, chirp,
                               steps=steps).trajectory
        data = ref.final_state.amplitudes.tobytes() + ref.populations.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_default_counts_keep_their_bits():
    """Default counts take the estimate and keep their bits: the shipped
    stirap3_resonant.cfg recorded densely, a 4-cell scan column and
    propagate_pulse. The sha256 prefixes were taken on x86-64 with numpy
    2.4 and one OpenBLAS thread. The column's was retaken when flat trains
    began to take their periodic middle as a power: its amplitudes came
    4.9e-17 from an event loop in np.longdouble, against 7.9e-16 for the
    float64 loop (test_flat_train_powers_are_nearer_a_long_double_loop).
    The dense run's was retaken (10960148d8eeb06f -> 57c76f4a5ffb4c06)
    when dense passes began to mirror their exponentials and to sample
    from vectors: its amplitudes moved by 3.3e-16, its populations by
    4.4e-16 and its times not at all. The column's (731e0808ec86083f ->
    f865fa499227cf26, efficiencies moved by 2.2e-16) and propagate_pulse's
    (bca81fa8a25fa239 -> fadb57e9d55c9bcc, amplitudes moved by 4.4e-16)
    were retaken when a pass began to take its steps one at a time
    (test_passes_stay_near_their_steps_multiplied_in_long_double); the
    dense run, whose stride of 1 already took one step at a time, kept
    its bits. propagate_pulse's was retaken (fadb57e9d55c9bcc ->
    04a9ebbe382a9a11) when pulses lost their own carrier detuning: its
    pulse, 5 cm^-1 above the pump carrier, became the same pulse in the
    frame whose pump carrier is 5 cm^-1 higher. Its populations kept
    their bits; the excited amplitude turned by the frame's phase over
    the support."""
    import hashlib

    from papsim import build_system, load_config
    from papsim.protocols import RUNNERS

    def digest(*arrays):
        data = b"".join(a.tobytes() for a in arrays)
        return hashlib.sha256(data).hexdigest()[:16]

    cfg = load_config(str(Path(__file__).parent.parent / "configs"
                          / "stirap3_resonant.cfg"))
    traj = RUNNERS["stirap"](build_system(cfg), record="dense",
                             **cfg["train"]).trajectory
    assert traj.diagnostics["steps"] == 40
    assert digest(traj.final_state.amplitudes, traj.populations,
                  traj.times) == "57c76f4a5ffb4c06"
    sys3 = build_three_level(pump_detuning=4.0, decay_rate=0.02)
    emap = scan_2d(sys3, {"n_pairs": 3, "pump_area": math.pi,
                          "dump_area": math.pi}, [10.0], [2.0, 3.0, 4.0, 6.0])
    assert digest(emap.efficiency) == "f865fa499227cf26"
    comb = PhaseFrame.comb_locked(sys3, 10.0)
    state = propagate_pulse(ground_state(sys3), sys3,
                            make_pulse("sin2", 100.0, 2.0),
                            PhaseFrame(comb.omega_pump + 5.0 * K_RAD_PS_PER_CM,
                                       comb.omega_dump))
    assert digest(state.amplitudes) == "04a9ebbe382a9a11"


def test_one_sample_keeps_no_snapshots():
    """One sample per pulse is a stride of N steps, after which no
    snapshot lies strictly inside the pass: an empty stack of the
    5-level blocks."""
    system, frame, pulses = _symmetric_case()
    _, (snapshots, times, rows, gauge), _ = propagator._integrate_pulses(
        system, frame, pulses, [0.0] * 4, 8, samples=1)
    assert snapshots.shape == (0, 4, 5, 5)
    assert times.shape == (0, 4, 1)
    assert rows.shape == gauge.shape == (4, 5)


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


def test_window_failures_are_numerics_errors():
    """Four steps over a strong 10 ps window leave the Magnus convergence
    bound and raise instead of returning finite, wrong amplitudes; so
    does a drive that is not a number, with a default count as with a
    given one."""
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


def _pulse_error(system, frame, pulse, n0, monkeypatch):
    """The step-doubling estimate that a default count of one pulse
    takes, at N0 = n0 steps."""
    errors, doubling = [], propagator._doubling_error

    def spy(coarse, fine):
        errors.append(doubling(coarse, fine))
        return errors[-1]

    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_estimate_n0", lambda length, bound: n0)
        patch.setattr(propagator, "_doubling_error", spy)
        propagator._integrate_pulses(system, frame, [pulse], [0.0], None)
    [error] = errors
    return error


def test_the_estimate_bounds_the_error_of_too_few_steps(monkeypatch):
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
        assert _pulse_error(system, frame, pulse, steps, monkeypatch) >= error
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
    """exp(Omega) - I from T18 matches scipy's expm - I to 1e-14 on the
    Omega stacks of the n = 3, 7 and 25 runs, at their default counts
    and at 8 steps, where many steps are scaled; at 8 steps also
    recorded densely, and at 9 steps recorded densely, whose step h
    differs. Every pass exponentiates the first half of its steps only,
    so the 8-step dense runs repeat the Omegas of the others and the
    9-step runs bring more scaled ones (136 against 96 without them).
    Their pulses are integrated on blocks of 2, 6 and 23
    levels. The Omegas of a block size go in as one stack, whose rows
    take different numbers of squarings, and its scaled rows as
    another, where every row takes the first squaring."""
    from scipy.linalg import expm

    stacks = []
    taylor = propagator._expm1

    def spy(omega):
        stacks.append(omega.copy())
        return taylor(omega)

    monkeypatch.setattr(propagator, "_expm1", spy)
    for case in ("stirap_n3", "crp_n3_decaying", "stirap_n7", "crp_n25"):
        for steps, record in ((None, "none"), (8, "none"), (8, "dense"),
                              (9, "dense")):
            _ramped_run(case, record, steps=steps)
    monkeypatch.undo()
    halvings = []
    for n in (2, 6, 23):
        omega = np.concatenate([s for s in stacks if s.shape[-1] == n])
        norms = np.abs(omega).sum(axis=-2).max(axis=-1)
        halvings.append(np.maximum(
            np.frexp(norms / propagator._TAYLOR_NORM)[1], 0))
        eye = np.eye(n)
        for stack in (omega, omega[norms > propagator._TAYLOR_NORM]):
            if len(stack):
                reference = np.array([expm(w) - eye for w in stack])
                assert np.max(np.abs(propagator._expm1(stack) - reference)) < 1e-14
    halvings = np.concatenate(halvings)
    assert np.count_nonzero(halvings) > 100 and halvings.max() >= 3


def test_the_t18_coefficients_give_the_taylor_polynomial():
    """Multiplied out in exact arithmetic of the float constants, T18 =
    B2 + (B3 + A9) A9 with A9 = B1 B5 + B4 has degree 18 and the
    coefficient 1 / k! of w^k to 1e-15 of itself, k <= 18; its constant
    is 1 to rounding. The kernel's form of T18 - I, from its rows and
    the factor of E, has the same coefficients and no constant."""
    from fractions import Fraction
    from itertools import zip_longest

    def poly(row):
        # a row over (w, w^2, w^3, w^6), or (I, w, w^2, w^3, w^6)
        out = [Fraction(0)] * 7
        for k, c in zip((0, 1, 2, 3, 6)[5 - len(row):], row):
            out[k] = Fraction(c)
        return out

    def add(*polys):
        return [sum(c) for c in zip_longest(*polys, fillvalue=Fraction(0))]

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    b1, b2, b3, b4, b5 = map(poly, propagator._T18)
    a9 = add(mul(b1, b5), b4)
    t18 = add(b2, mul(add(b3, a9), a9))
    r1, r5, r4, r3, r2 = map(poly, propagator._T18_ROWS)
    e = add(mul(r1, r5), r4)
    expm1 = add(r2, [Fraction(propagator._T18_E) * c for c in e],
                mul(add(r3, e), e))
    for t in (t18, expm1):
        assert max(k for k, c in enumerate(t) if c) == 18
        assert all(abs(t[k] * math.factorial(k) - 1) <= 1e-15
                   for k in range(1, 19))
    assert abs(t18[0] - 1) <= 1e-15 and expm1[0] == 0


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


def _dense_case(case):
    """The system, frame and schedule of a dense-sampling case."""
    if case == "band":
        run = _ramped_run("crp_n25")
        return _band_molecule(), run.frame, run.schedule
    if case == "packet":
        # the decaying packet on an offset comb, its pump carrier 3 cm^-1
        # off its tooth, and a phase-masked dump, pulses repeating
        system, delta_T = _packet_molecule()
        comb = PhaseFrame.comb_locked(system, delta_T, 0.013)
        frame = PhaseFrame(comb.omega_pump + 3.0 * K_RAD_PS_PER_CM,
                           comb.omega_dump)
        mask = tuple(np.linspace(-1.5, 2.0, 5))
        pulses = [make_pulse("sin2", 110.0, 2.5),
                  make_pulse("gaussian", 90.0, 3.0, channel="dump",
                             phase_mask=mask, carrier_phase=0.7)]
    else:
        system, frame, pulses = _symmetric_case()
    events = [TrainEvent(0.5 + 0.4 * k, pulses[k % len(pulses)])
              for k in range(6)]
    return system, frame, make_schedule(events, 3, 0.8, 0.0, "mixed")


@pytest.mark.parametrize("case, steps", [
    ("band", None), ("packet", None), ("symmetric", 5), ("symmetric", 13),
    ("symmetric", 41), ("symmetric", 123)])
def test_dense_samples_match_the_embedded_operators(case, steps):
    """A dense run forms each sample from vectors: the block snapshot of
    the real gauge on the entering state's block, in that gauge, and the
    free phase outside the block. Its populations equal, to 1e-14 at
    every sample, the sampling that embedded the snapshots on all n
    levels with their frame and gauge phases (_embedded) and formed z_k
    U_s[p_k] entering_k, on the same pass and event loop. The cases: the
    crp train of the 25-level band (blocks of 23 levels) and the decaying
    1 + 5 + 1 packet with a detuned pump carrier and a phase-masked dump, at
    their default counts (multiples of 40: strides 3 and 1), and the
    2 + 3 + 1 system at given counts 5, 13 and 41 (stride 1, odd: the
    mirror's middle step) and 123 (stride 3, a short last group). The
    dense run's final amplitudes and its populations at the event ends
    match a compressed run at the same count, whose pass takes half its
    steps and U_a^T Y, to 1e-14."""
    system, frame, schedule = _dense_case(case)
    state = ground_state(system, schedule.start_time)
    traj = run_schedule(state, system, schedule, frame, record="dense",
                        steps=steps)
    count = traj.diagnostics["steps"]
    assert steps is None and count % 40 == 0 or count == steps
    _, _, row, _ = _run_events(system, frame, schedule, count,
                               state.amplitudes[None], [state.time], "dense")
    _, _, entering, leaving, dense = row
    pulses = schedule.pulses
    snapshots = _embedded(system, frame, pulses, [0.0] * len(pulses), dense)
    assert len(snapshots) == (count - 1) // max(1, count // 40)
    # the conjugation of each event, as run_schedule used to apply it
    level, excited = np.arange(system.n_levels), system.slice_excited()
    dump = np.array([p.channel == "dump" for p in pulses])[schedule.pulse]
    z = np.where(np.where(dump[:, None], level >= excited.stop,
                          level < excited.start),
                 np.exp(1j * schedule.carrier_phase)[:, None], 1.0)
    inner = [np.abs(z * (s[schedule.pulse] @ entering[:, :, None])[..., 0]) ** 2
             for s in snapshots]
    old = np.stack(inner + [np.abs(leaving) ** 2], axis=1)
    new = traj.populations[1:].reshape(old.shape)
    assert np.max(np.abs(new - old)) <= 1e-14
    compressed = run_schedule(state, system, schedule, frame,
                              record="compressed", steps=count)
    assert np.max(np.abs(traj.final_state.amplitudes
                         - compressed.final_state.amplitudes)) <= 1e-14
    assert np.max(np.abs(new[:, -1] - compressed.populations[1:])) <= 1e-14


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


def test_dense_passes_exponentiate_per_block(monkeypatch):
    """A dense pass takes one _expm1 call per block of steps in the first
    half of the pass, not one per stride, and none in the second, whose
    exponentials are the first half's transposed: the 100 distinct
    pulses of a 50-pair ramped stirap train, on blocks of 2 levels, fill
    blocks of 8192 // (100 * 4) = 20 steps, so 40 steps at stride 1 take
    1 call. Its operators and snapshots, and the operators of the pass
    without snapshots, have the bits of the same passes at one step per
    block (_BLOCK_ENTRIES = 400), which take one call per step of the
    first half: every step multiplies y on its own, whatever its block."""
    sys3 = build_three_level()
    frame = PhaseFrame.for_system(sys3)
    sched = run_piecewise_stirap(sys3, 50, 10.0, record="none", steps=40).schedule
    pulses = sched.pulses
    assert len(pulses) == 100
    calls, taylor = [], propagator._expm1

    def spy(omega):
        calls.append(omega.shape)
        return taylor(omega)

    def dense_pass(samples=40):
        calls.clear()
        ops, dense, _ = propagator._integrate_pulses(
            sys3, frame, pulses, [0.0] * len(pulses), 40, samples=samples)
        return ops, dense and dense[0]

    monkeypatch.setattr(propagator, "_expm1", spy)
    ops, snapshots = dense_pass()
    assert calls == [(20 * 100, 2, 2)]
    assert snapshots.shape == (39, 100, 2, 2)
    plain = dense_pass(None)[0]
    monkeypatch.setattr(propagator, "_BLOCK_ENTRIES", 400)
    per_step = dense_pass()
    assert len(calls) == 20
    assert np.array_equal(ops, per_step[0])
    assert np.array_equal(snapshots, per_step[1])
    assert np.array_equal(plain, dense_pass(None)[0])
    assert len(calls) == 20


@pytest.mark.parametrize("case, steps", [
    ("band", 88), ("band", 87), ("symmetric", 123), ("ramped_stirap", 88)])
def test_a_pulse_has_the_same_bits_alone_and_in_any_batch(case, steps):
    """Each step multiplies y on its own, so a pulse's operator, and its
    snapshots in a dense pass, have the same bits integrated alone and
    in its batch, whose block of _BLOCK_ENTRIES // (P b^2) steps is
    shorter than the half pass's steps: the 8 distinct pulses of the
    band crp train on 23 levels (1 step per block against 15 alone), the
    4 decaying 6-level pulses (56 against 227) and the 100 pulses of a
    50-pair ramped stirap train on 2 levels (20 against 2048)."""
    if case == "ramped_stirap":
        system = build_three_level()
        frame = PhaseFrame.for_system(system)
        pulses = run_piecewise_stirap(system, 50, 10.0, record="none",
                                      steps=steps).schedule.pulses
    else:
        system, frame, schedule = _dense_case(case)
        pulses = schedule.pulses
    phases = np.linspace(-2.0, 2.5, len(pulses))
    for samples in (None, 8):
        ops, dense, _ = propagator._integrate_pulses(
            system, frame, pulses, phases, steps, samples=samples)
        for i, (pulse, phi) in enumerate(zip(pulses, phases)):
            alone, alone_dense, _ = propagator._integrate_pulses(
                system, frame, [pulse], [phi], steps, samples=samples)
            assert np.array_equal(ops[i], alone[0])
            if samples:
                assert np.array_equal(dense[0][:, i], alone_dense[0][:, 0])


@pytest.mark.parametrize("case, steps, stride", [
    ("band", 256, None), ("band", 87, None), ("band", 87, 2),
    ("symmetric", 41, 3)])
def test_passes_stay_near_their_steps_multiplied_in_long_double(
        case, steps, stride, monkeypatch):
    """A pass takes its steps one at a time in float64. Its operators,
    and its snapshots with a stride, stay within 4e-15 of the same
    exp(Omega) - I multiplied out step by step in np.clongdouble, the
    second half's as the first half's transposed: the 8 distinct pulses
    of the band crp train on 23 of 25 levels at 256 steps and at an odd
    count, and the decaying 6-level pulses with their masks and
    detunings. The pass without snapshots folds its second half in by
    transposition, U' = U_a^T Y."""
    system, frame, schedule = _dense_case(case)
    pulses = schedule.pulses
    xs, taylor = [], propagator._expm1

    def spy(omega):
        xs.append(taylor(omega))
        return xs[-1]

    monkeypatch.setattr(propagator, "_expm1", spy)
    bases = propagator._pulse_bases(system, frame, pulses)
    ops, snapshots, _ = propagator._pulse_pass(bases, pulses, steps, stride)
    P, b = ops.shape[:2]
    taken = (steps + 1) // 2
    xs = np.concatenate(xs).reshape(taken, P, b, b).astype(np.clongdouble)
    y = np.tile(np.eye(b, dtype=np.clongdouble), (P, 1, 1))
    kept = []
    for k in range(steps):
        y = y + (xs[k] if k < taken else xs[steps - 1 - k].swapaxes(-1, -2)) @ y
        if stride and (k + 1) % stride == 0 and k + 1 < steps:
            kept.append(y)
    assert np.max(np.abs(ops - y)) < 4e-15
    if stride:
        assert snapshots.shape == ((steps - 1) // stride, P, b, b)
        assert np.max(np.abs(snapshots - np.array(kept))) < 4e-15
