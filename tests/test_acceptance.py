"""Acceptance suite: one test per criterion, one pass/fail line each.

Runs the full physics stack end to end; expect a few minutes of wall
time. Each test prints one quantitative line (visible with -s or -rA)
and asserts exactly the stated tolerance.
"""

import math
import time

import numpy as np

from papsim import (C_CM_PER_PS, K_RAD_PS_PER_CM, Level, LevelSystem,
                    PhaseFrame, QuantumState, SyntheticMoleculeSpec,
                    build_synthetic_molecule, build_three_level, build_train,
                    design_dump_phase_mask, fft_delta_t, ground_state,
                    make_pulse, oracle_propagate, propagate_pulse,
                    rabi_envelope, read_map_csv, robustness_sweep,
                    run_pair_train, run_piecewise_crp, run_piecewise_stirap,
                    run_reference_ap, run_schedule, scan_2d,
                    train_from_reference, write_map_csv)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# --- AC1: Magnus train propagation matches an independent expm oracle ---

def _random_system(rng, n_a, n_exc, n_b):
    e_exc = 11000.0 + np.sort(rng.uniform(-40.0, 40.0, n_exc))
    e_a = np.concatenate([[0.0], rng.uniform(5.0, 60.0, max(n_a - 1, 0))])
    e_b = -2333.0 + np.concatenate([[0.0], rng.uniform(5.0, 60.0, max(n_b - 1, 0))])
    gamma = float(rng.choice([0.0, 5e-4]))
    sign = lambda shape: rng.choice([-1.0, 1.0], shape)
    return LevelSystem(
        ground_a=tuple(Level(f"a{i}", float(e)) for i, e in enumerate(e_a)),
        excited=tuple(Level(f"e{j}", float(e), gamma)
                      for j, e in enumerate(e_exc)),
        ground_b=tuple(Level(f"b{i}", float(e)) for i, e in enumerate(e_b)),
        pump_dipoles=rng.uniform(0.2, 1.0, (n_a, n_exc)) * sign((n_a, n_exc)),
        dump_dipoles=rng.uniform(0.2, 1.0, (n_b, n_exc)) * sign((n_b, n_exc)),
        dipole_phases=rng.uniform(-math.pi, math.pi, n_exc),
        initial_index=int(rng.integers(n_a)),
        target_index=int(rng.integers(n_b)),
    )


def _random_case(rng, trial):
    if trial == 0:
        system = _random_system(rng, 6, 13, 6)  # the 25-level cap
    else:
        system = _random_system(rng, int(rng.integers(1, 5)),
                                int(rng.integers(1, 8)),
                                int(rng.integers(1, 5)))
    shapes = ("sin2", "gaussian")
    delta_T = float(rng.uniform(6.0, 12.0))
    mask = None
    if rng.random() < 0.5:
        mask = tuple(rng.uniform(-math.pi, math.pi, system.n_excited))
    # each channel's carrier detuning (cm^-1) shifts its frame frequency
    detunings = []

    def pulse(**kwargs):
        shape = shapes[int(rng.integers(2))]
        fwhm, area = float(rng.uniform(80.0, 150.0)), float(rng.uniform(1.5, 12.0))
        detunings.append(float(rng.uniform(-30.0, 30.0)))
        return make_pulse(shape, fwhm, area,
                          carrier_phase=float(rng.uniform(-3.0, 3.0)), **kwargs)

    pump = pulse(channel="pump")
    dump = pulse(channel="dump", phase_mask=mask)
    kind = ("flat_pairs", "crp")[int(rng.integers(2))]
    schedule = build_train(kind, int(rng.integers(2, 5)), delta_T,
                           float(rng.uniform(1.0, delta_T - 1.0)), pump, dump,
                           alpha_pump=float(rng.uniform(-0.3, 0.3)),
                           alpha_dump=float(rng.uniform(-0.3, 0.3)))
    if rng.random() < 0.5:
        frame = PhaseFrame.comb_locked(system, delta_T)
    else:
        frame = PhaseFrame.for_system(
            system, pump_offset=float(rng.uniform(-10.0, 10.0)),
            two_photon_offset=float(rng.uniform(-5.0, 5.0)))
    frame = PhaseFrame(frame.omega_pump + K_RAD_PS_PER_CM * detunings[0],
                       frame.omega_dump + K_RAD_PS_PER_CM * detunings[1])
    return system, schedule, frame


def test_ac01_propagator_matches_the_oracle():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        system, schedule, frame = _random_case(rng, trial)
        state = ground_state(system, schedule.start_time)
        run = run_schedule(state, system, schedule, frame, record="none")
        ora = oracle_propagate(state, system, schedule, frame,
                               steps_per_pulse=4000)
        dev = float(np.max(np.abs(run.final_state.amplitudes - ora.amplitudes)))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _report("AC01", worst < 1e-6 and elapsed < 60.0,
            f"worst amplitude deviation {worst:.3e} over 20 random systems "
            f"(tol 1e-6), {elapsed:.1f} s (limit 60 s)")


# --- AC2: norm conservation over a long decay-free train ---

def test_ac02_unitarity_over_200_pairs():
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=200, delta_T=10.0,
                               record="compressed")
    drift = float(np.max(np.abs(res.trajectory.norms - 1.0)))
    _report("AC02", drift < 1e-8,
            f"norm drift {drift:.3e} over 200 pairs (tol 1e-8), "
            f"efficiency {res.efficiency:.6f}")


# --- AC3: many weak pulses transfer like the smooth passage ---

def test_ac03_piecewise_stirap_efficiency_and_transient():
    sys3 = build_three_level()
    start = time.perf_counter()
    res = run_piecewise_stirap(sys3, n_pairs=50, delta_T=10.0, record="dense")
    elapsed = time.perf_counter() - start
    ok = (res.efficiency >= 0.95 and res.max_transient_excited <= 0.1
          and elapsed < 10.0)
    _report("AC03", ok,
            f"efficiency {res.efficiency:.6f} (>= 0.95), transient excited "
            f"{res.max_transient_excited:.4f} (<= 0.1), {elapsed * 1e3:.1f} ms (< 10 s)")


# --- AC4: chirped passage is robust to chirp sign and extra delay ---

def test_ac04_crp_sign_and_delay_robustness():
    sys3 = build_three_level()
    kw = dict(n_pairs=40, delta_T=10.0, record="none")
    up = run_piecewise_crp(sys3, alpha_pump=0.2, alpha_dump=0.2, **kw)
    down = run_piecewise_crp(sys3, alpha_pump=-0.2, alpha_dump=-0.2, **kw)
    delayed = run_piecewise_crp(sys3, alpha_pump=0.2, alpha_dump=0.2,
                                extra_pump_dump_delay=0.5, **kw)
    d_sign = abs(up.efficiency - down.efficiency)
    d_delay = abs(up.efficiency - delayed.efficiency)
    ok = up.efficiency >= 0.90 and d_sign <= 0.05 and d_delay <= 0.05
    _report("AC04", ok,
            f"efficiency {up.efficiency:.4f} (>= 0.90), sign flip changes "
            f"{d_sign:.2e}, 0.5 ps delay changes {d_delay:.2e} (both <= 0.05)")


# --- AC5: chopping a smooth passage into 100 kicks changes little ---

def test_ac05_piecewise_equals_smooth_at_100_pairs():
    sys3 = build_three_level()
    frame = PhaseFrame.for_system(sys3)
    smooth = run_reference_ap(sys3, "stirap", 100.0, 1.5, frame=frame)
    schedule = train_from_reference("stirap", 100.0, 1.5, 100)
    state = ground_state(sys3, schedule.start_time)
    chopped = run_schedule(state, sys3, schedule, frame, record="none")
    diff = float(np.max(np.abs(chopped.final_state.populations()
                               - smooth.trajectory.final_state.populations())))
    _report("AC05", diff < 0.02,
            f"max population difference {diff:.5f} between the 100-kick train "
            f"and the smooth reference (tol 0.02)")


# --- the synthetic wave-packet molecule used by AC6 to AC8 ---

def _packet_molecule(delta_T: float, lifetime_ns):
    # put the lowest intermediate exactly on a comb tooth and space the
    # progression by one tooth, so every level rides the comb
    tooth_cm = 1.0 / (C_CM_PER_PS * delta_T)
    e0 = round(11200.0 * C_CM_PER_PS * delta_T) * tooth_cm
    return build_synthetic_molecule(SyntheticMoleculeSpec(
        5, e0, (tooth_cm,), dipole_profile="gaussian",
        decay_lifetime=lifetime_ns, ground_b_energies=(-2333.0,)))


def test_ac06_decay_costs_less_than_half_at_revival_spacing():
    delta_T = 1310.59  # ~11.4 percent of the 15 ns lifetime per pair
    kw = dict(n_pairs=200, delta_T=delta_T, delta_t_small=2.0,
              record="compressed")
    clean = run_piecewise_stirap(_packet_molecule(delta_T, None), **kw)
    lossy = run_piecewise_stirap(_packet_molecule(delta_T, 15.0), **kw)
    ratio = lossy.efficiency / clean.efficiency
    ok = 0.5 < ratio < 1.0
    _report("AC06", ok,
            f"efficiency ratio with/without 15 ns decay {ratio:.4f} "
            f"(in (0.5, 1)), absolute {lossy.efficiency:.4f}/{clean.efficiency:.4f}")


def test_ac07_pulse_count_barely_matters():
    delta_T = 1310.59
    mol = _packet_molecule(delta_T, None)
    sweep = robustness_sweep(mol, "stirap", "n_pairs", [35, 100, 200, 300],
                             base_config={"delta_T": delta_T,
                                          "delta_t_small": 2.0})
    spread = sweep.spread()
    _report("AC07", np.all(np.isfinite(sweep.efficiency)) and spread <= 0.15,
            f"efficiency spread {spread:.4f} over n_pairs in {{35,100,200,300}} "
            f"(tol 0.15), values {np.round(sweep.efficiency, 4).tolist()}")


# --- AC8: the delay map beats at the intermediate level spacing ---

def test_ac08_delay_scan_fft_finds_the_45_cm_spacing(tmp_path):
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        2, 11145.0, (45.0,), ground_b_energies=(-500.0,)))
    # both levels on teeth: c * delta_T = 6/5 so multiples of 5 cm^-1 land
    delta_T = 18.0 / (15.0 * C_CM_PER_PS)
    beat = 1.0 / (C_CM_PER_PS * 45.0)
    dts = 1.0 + (beat / 10.0) * np.arange(256)
    start = time.perf_counter()
    emap = scan_2d(mol, {"n_pairs": 50, "pump_area": math.pi,
                         "dump_area": math.pi}, [delta_T], dts)
    elapsed = time.perf_counter() - start

    path = tmp_path / "map.csv"
    write_map_csv(str(path), emap)
    spectrum = fft_delta_t(read_map_csv(str(path)), 0)
    err = abs(spectrum.peak_frequency - 45.0)
    ok = err <= spectrum.bin_width and elapsed < 300.0
    _report("AC08", ok,
            f"beat peak at {spectrum.peak_frequency:.4f} cm^-1, off by "
            f"{err:.4f} (bin {spectrum.bin_width:.4f}), 256-point column in "
            f"{elapsed * 1e3:.1f} ms (< 300 s)")


# --- AC9: trains only transfer when the comb rides the resonance ---

def test_ac09_half_tooth_detuning_kills_the_train():
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        1, 11145.0, (), ground_b_energies=(-500.0,)))
    tooth_ps = 1.0 / (C_CM_PER_PS * 11145.0)
    m = round(40.0 / tooth_ps)
    kw = dict(n_pairs=50, delta_t_small=5.0, pump_area=math.pi,
              dump_area=math.pi, record="none")
    res = run_pair_train(mol, delta_T=m * tooth_ps, **kw)
    off = run_pair_train(mol, delta_T=(m + 0.5) * tooth_ps, **kw)
    ok = off.efficiency < 0.01 and res.efficiency > 50.0 * off.efficiency
    _report("AC09", ok,
            f"off-tooth efficiency {off.efficiency:.2e} (< 0.01), on-tooth "
            f"{res.efficiency:.4f} ({res.efficiency / max(off.efficiency, 1e-300):.0f}x)")


# --- AC10: the designed dump mask beats every random mask ---

def _batch_dump_transfer(masks, c0, dips, dipole_phases, d_exc, d_b, pulse,
                         steps):
    """Target population after one dump pulse, one row per mask.

    The same envelope and coupling conventions as the production
    integrator, integrated by RK4 on the dump-coupled subspace. A mask
    enters only as phases on the excited rows: with a_e = e^{i mask}
    a_e', the masked equations are the unmasked ones for a_e' from
    e^{-i mask} c0. So the target amplitude is u . (e^{-i mask} c0),
    u the unmasked final a_b of the five unit columns, and 10^4 masks
    cost one integration of five columns. The
    amplitudes are laid out as (levels, columns), -i is folded into the
    coefficients, and the envelope is sampled once at every step's
    start, middle and end.
    """
    base = -0.5 * (dips * np.exp(1j * dipole_phases))[:, None]  # (n, 1)
    coup, back = -1j * base, -1j * base.conj()
    rot, rot_b = -1j * d_exc[:, None], -1j * d_b
    a_e = np.eye(len(c0), dtype=complex)
    a_b = np.zeros(len(c0), dtype=complex)
    T = pulse.support_ps
    h = T / steps
    t = np.arange(steps) * h
    w_start, w_mid, w_end = (rabi_envelope(pulse, tau)
                             for tau in (t, t + h / 2.0, t + h))

    def rhs(w, ae, ab):
        return rot * ae + coup * (w * ab), rot_b * ab + w * np.sum(back * ae, axis=0)

    for k in range(steps):
        k1e, k1b = rhs(w_start[k], a_e, a_b)
        k2e, k2b = rhs(w_mid[k], a_e + (h / 2.0) * k1e, a_b + (h / 2.0) * k1b)
        k3e, k3b = rhs(w_mid[k], a_e + (h / 2.0) * k2e, a_b + (h / 2.0) * k2b)
        k4e, k4b = rhs(w_end[k], a_e + h * k3e, a_b + h * k3b)
        a_e = a_e + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        a_b = a_b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return np.abs((np.exp(-1j * masks) * c0) @ a_b) ** 2


def test_ac10_designed_mask_is_never_beaten():
    rng = np.random.default_rng(7)
    steps = 400
    pulse = make_pulse("sin2", 110.0, math.pi / 2.0, channel="dump")
    margins = []
    worst_check = 0.0
    for packet in range(20):
        offsets = np.sort(rng.uniform(-3.0, 3.0, 5))
        dips = rng.uniform(0.3, 1.0, 5)
        phases = rng.uniform(-math.pi, math.pi, 5)
        c0 = rng.normal(size=5) + 1j * rng.normal(size=5)
        c0 /= np.linalg.norm(c0)

        system = LevelSystem(
            ground_a=(Level("g", 0.0),),
            excited=tuple(Level(f"e{j}", 11150.0 + offsets[j])
                          for j in range(5)),
            ground_b=(Level("t", -500.0),),
            pump_dipoles=np.ones((1, 5)),
            dump_dipoles=dips[None, :],
            dipole_phases=phases,
            carrier_anchor=11150.0,
        )
        frame = PhaseFrame.for_system(system)
        d = frame.detunings(system)
        d_exc = d[system.slice_excited()]
        d_b = d[system.slice_ground_b()][0]

        # free evolution to the pulse center, then align every leg there
        c_center = c0 * np.exp(-1j * d_exc * pulse.support_ps / 2.0)
        designed = design_dump_phase_mask(c_center, dips * np.exp(1j * phases))

        masks = np.vstack([designed, rng.uniform(-math.pi, math.pi, (10000, 5))])
        effs = _batch_dump_transfer(masks, c0, dips, phases, d_exc, d_b,
                                    pulse, steps)
        margins.append(float(effs[0] - effs[1:].max()))

        # cross-check the batch integrator against the production path
        amps = np.zeros(7, dtype=complex)
        amps[system.slice_excited()] = c0
        lib = propagate_pulse(QuantumState(amps, 0.0), system,
                              make_pulse("sin2", 110.0, math.pi / 2.0,
                                         channel="dump",
                                         phase_mask=tuple(designed)),
                              frame, steps=steps)
        worst_check = max(worst_check,
                          abs(lib.populations()[-1] - effs[0]))

    margins = np.array(margins)
    ok = bool(np.all(margins >= 0.0)) and worst_check < 1e-8
    _report("AC10", ok,
            f"designed mask wins on all 20 packets (min margin over the best "
            f"of 10^4 random masks {margins.min():.2e}); batch vs production "
            f"integrator agree to {worst_check:.1e}")


# --- AC11: results do not depend on worker count, exports are stable ---

def test_ac11_determinism_and_worker_independence(tmp_path):
    sys3 = build_three_level()
    base = {"n_pairs": 5, "pump_area": math.pi, "dump_area": math.pi}
    dTs = [8.0, 10.0]
    dts = [2.0, 3.0, 4.0]
    serial = scan_2d(sys3, base, dTs, dts, workers=1)
    parallel = scan_2d(sys3, base, dTs, dts, workers=3)
    same_values = np.array_equal(serial.efficiency, parallel.efficiency)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_map_csv(str(p1), serial)
    write_map_csv(str(p2), parallel)
    same_bytes = p1.read_bytes() == p2.read_bytes()
    _report("AC11", same_values and same_bytes,
            f"1 vs 3 workers: identical values {same_values}, "
            f"byte-identical CSV {same_bytes}")
