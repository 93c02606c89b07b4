"""Delay scans, beat spectra, revival diagnostics, robustness sweeps."""

import math
import os

import numpy as np
import pytest

from papsim import (C_CM_PER_PS, EfficiencyMap, K_RAD_PS_PER_CM, propagator,
                    SweepResult, SyntheticMoleculeSpec, build_synthetic_molecule,
                    build_three_level, fft_delta_t, revival_diagnostics,
                    robustness_sweep, run_pair_train, scan_2d)
from papsim.protocols import RUNNERS

BASE = {"n_pairs": 5, "pump_area": math.pi, "dump_area": math.pi}


def test_single_cell_matches_direct_run():
    sys3 = build_three_level()
    emap = scan_2d(sys3, BASE, [10.0], [4.0])
    direct = run_pair_train(sys3, delta_T=10.0, delta_t_small=4.0,
                            record="none", **BASE)
    assert emap.efficiency.shape == (1, 1)
    assert emap.efficiency[0, 0] == direct.final_target_population
    assert emap.config_fingerprint


def test_worker_count_does_not_change_values():
    sys3 = build_three_level()
    dTs = [8.0, 10.0, 12.0]
    dts = [2.0, 3.0, 4.0]
    serial = scan_2d(sys3, BASE, dTs, dts, workers=1)
    parallel = scan_2d(sys3, BASE, dTs, dts, workers=2)
    assert np.array_equal(serial.efficiency, parallel.efficiency)
    assert serial.config_fingerprint == parallel.config_fingerprint


def test_importing_papsim_loads_no_process_pool():
    """scan_2d loads concurrent.futures only when it starts workers."""
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(propagator.__file__)))
    code = ("import sys, papsim; "
            "print('concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_invalid_cells_become_nan():
    sys3 = build_three_level()
    # 0.05 ps is inside one pulse support: that schedule cannot exist
    emap = scan_2d(sys3, BASE, [10.0], [0.05, 4.0])
    assert math.isnan(emap.efficiency[0, 0])
    assert np.isfinite(emap.efficiency[1, 0])
    # the failed cell keeps its reason, keyed by (delta_t, delta_T)
    failures = emap.details["failures"]
    assert list(failures) == [(0.05, 10.0)]
    assert "overlap" in failures[(0.05, 10.0)]


def _packet_molecule():
    """1 + 5 + 1 levels with decay, the progression one 20 ps tooth apart."""
    tooth = 1.0 / (C_CM_PER_PS * 20.0)
    return build_synthetic_molecule(SyntheticMoleculeSpec(
        5, round(11200.0 / tooth) * tooth, (tooth,), dipole_profile="gaussian",
        decay_lifetime=15.0, ground_b_energies=(-2333.0,)))


@pytest.mark.parametrize("system, base, delta_T, dts, failing", [
    # a shaped gaussian dump, an offset comb and a set step count
    pytest.param(_packet_molecule(),
                 {"n_pairs": 4, "pump_area": 2.0, "dump_area": 1.5,
                  "dump_phase_mask": [0.1, -0.3, 0.7, 0.0, 1.2],
                  "f0_pump": 0.013, "shape": "gaussian", "steps": 300},
                 20.0, [2.0, 3.0, 4.5, 6.0], [], id="shaped_packet"),
    # at 9.95 ps the pump runs into the next pair's dump
    pytest.param(build_three_level(), BASE, 10.0, [2.0, 9.95, 12.0], [9.95],
                 id="overlap_in_the_middle"),
    # delta_t_small > delta_T: each pump lands after the next pair's dump
    pytest.param(build_three_level(pump_detuning=3.0, decay_rate=0.01), BASE,
                 3.0, [3.5, 4.0, 5.5, 7.5], [], id="interleaved"),
    # delta_t_small < 0: each pump comes before its pair's dump
    pytest.param(build_three_level(pump_detuning=3.0), BASE, 10.0,
                 [-7.0, -4.5, -2.0], [], id="pump_first"),
    # 2 delta_T < delta_t_small < 3 delta_T: three dumps before the first pump
    pytest.param(build_three_level(pump_detuning=3.0, decay_rate=0.01),
                 {**BASE, "n_pairs": 9}, 3.0, [6.5, 7.0, 8.5], [],
                 id="three_dumps_first"),
    # a longer shaped packet train on an offset comb, at its default steps
    pytest.param(_packet_molecule(),
                 {"n_pairs": 17, "pump_area": 2.0, "dump_area": 1.5,
                  "dump_phase_mask": [0.1, -0.3, 0.7, 0.0, 1.2],
                  "f0_pump": 0.013},
                 20.0, [-3.0, 2.0, 4.5, 27.0], [], id="shaped_packet_long"),
    # no whole period repeats: the middle is empty
    pytest.param(build_three_level(), {**BASE, "n_pairs": 1}, 10.0,
                 [-2.0, 2.0, 4.0], [], id="one_pair"),
    pytest.param(build_three_level(), {**BASE, "n_pairs": 2}, 10.0,
                 [-2.0, 2.0, 4.0, 12.0], [], id="two_pairs"),
])
def test_column_cells_match_direct_runs(system, base, delta_T, dts, failing):
    """Valid cells keep the bits of their direct runs, failed ones their
    row and reason."""
    emap = scan_2d(system, base, [delta_T], dts)
    failures = emap.details["failures"]
    assert list(failures) == [(dt, delta_T) for dt in failing]
    assert all("overlap" in reason for reason in failures.values())
    for dt, cell in zip(dts, emap.column(0)):
        if dt in failing:
            assert math.isnan(cell)
        else:
            direct = run_pair_train(system, delta_T=delta_T, delta_t_small=dt,
                                    record="none", **base)
            assert cell == direct.final_target_population


def test_column_integrates_its_operators_once(monkeypatch):
    calls, passes = [], []
    integrate, pulse_pass = propagator._integrate_pulses, propagator._pulse_pass

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return integrate(*args, **kwargs)

    def counted_pass(bases, pulses, steps, stride=None):
        passes.append((len(pulses), steps))
        return pulse_pass(bases, pulses, steps, stride)

    monkeypatch.setattr(propagator, "_integrate_pulses", counted)
    monkeypatch.setattr(propagator, "_pulse_pass", counted_pass)
    emap = scan_2d(build_three_level(), BASE, [8.0, 10.0],
                   [0.05, 2.0, 3.0, 4.0])
    assert np.isfinite(emap.efficiency[1:]).all()
    # one pass per column, over the pump and the dump pulse, after one
    # step-doubling estimate per column on the same two pulses: its
    # passes at N0 and 2 N0 steps
    assert calls == [2, 2]
    assert len(passes) == 6
    for coarse, fine, production in (passes[:3], passes[3:]):
        assert coarse[0] == fine[0] == production[0] == 2
        assert fine[1] == 2 * coarse[1]


def test_column_failure_gives_every_cell_a_reason():
    sys3 = build_three_level()
    # a mask needs one phase per excited level; the three-level system has
    # one. The overlapping middle cell fails first, and keeps its row.
    emap = scan_2d(sys3, {**BASE, "dump_phase_mask": [0.1, 0.2]}, [10.0],
                   [2.0, 9.95, 12.0])
    assert np.all(np.isnan(emap.efficiency))
    failures = emap.details["failures"]
    assert list(failures) == [(2.0, 10.0), (9.95, 10.0), (12.0, 10.0)]
    assert "overlap" in failures[(9.95, 10.0)]
    for key in ((2.0, 10.0), (12.0, 10.0)):
        assert failures[key] == "phase_mask must hold one phase per excited level"


def test_scan_grid_validation():
    sys3 = build_three_level()
    with pytest.raises(ValueError):
        scan_2d(sys3, BASE, [10.0, 9.0], [4.0])
    with pytest.raises(ValueError):
        scan_2d(sys3, BASE, [], [4.0])
    with pytest.raises(ValueError):
        scan_2d(sys3, {"pump_area": math.pi}, [10.0], [4.0])
    with pytest.raises(ValueError):
        scan_2d(sys3, BASE, [10.0], [4.0], workers=0)


def test_non_finite_grids_are_rejected_by_name(monkeypatch):
    sys3 = build_three_level()
    # the check comes before any cell is integrated
    monkeypatch.setattr(propagator, "_integrate_pulses", None)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta_t_grid must be finite"):
            scan_2d(sys3, BASE, [10.0], [4.0, bad])
        with pytest.raises(ValueError, match="delta_T_grid must be finite"):
            scan_2d(sys3, BASE, [bad], [4.0])


def test_scan_pool_is_bounded_by_columns_and_cores(monkeypatch):
    sys3 = build_three_level()
    assert scan_2d(sys3, BASE, [10.0], [4.0], workers=4).details["workers"] == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    emap = scan_2d(sys3, BASE, [8.0, 10.0], [4.0], workers=4)
    assert emap.details["workers"] == 1


def _cosine_map(freq_cm=45.0, n=64, h=0.05):
    dts = 1.0 + h * np.arange(n)
    col = 0.5 + 0.1 * np.cos(K_RAD_PS_PER_CM * freq_cm * dts)
    return EfficiencyMap(np.array([10.0]), dts, col[:, None], "")


def test_fft_peak_and_halfspectrum():
    emap = _cosine_map()
    spec = fft_delta_t(emap, 0)
    n = len(emap.delta_t_axis)
    assert len(spec.frequency_axis) == n // 2 + 1
    assert np.all(spec.frequency_axis >= 0.0)
    assert np.all(spec.magnitude >= 0.0)
    # mean subtraction empties the zero bin
    assert spec.magnitude[0] < 1e-12
    assert abs(spec.peak_frequency - 45.0) <= spec.bin_width
    assert abs(spec.bin_width - 1.0 / (C_CM_PER_PS * n * 0.05)) < 1e-9


def test_fft_parseval():
    rng = np.random.default_rng(7)
    dts = 1.0 + 0.05 * np.arange(64)
    col = 0.3 + 0.1 * rng.normal(size=64)
    spec = fft_delta_t(EfficiencyMap(np.array([10.0]), dts, col[:, None], ""), 0)
    mag2 = spec.magnitude ** 2
    n = len(spec.signal)
    # rfft halves carry interior bins twice
    energy_f = (mag2[0] + 2.0 * mag2[1:-1].sum()
                + (mag2[-1] if n % 2 == 0 else 2.0 * mag2[-1])) / n
    assert abs(energy_f - np.sum(spec.signal ** 2)) < 1e-9


def test_fft_window_and_validation():
    ragged = EfficiencyMap(np.array([10.0]),
                           np.array([1.0, 1.1, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]),
                           np.ones((8, 1)), "")
    with pytest.raises(ValueError):
        fft_delta_t(ragged, 0)

    short = EfficiencyMap(np.array([10.0]), 1.0 + 0.1 * np.arange(4),
                          np.ones((4, 1)), "")
    with pytest.raises(ValueError):
        fft_delta_t(short, 0)

    holed = _cosine_map()
    eff = holed.efficiency.copy()
    eff[3, 0] = math.nan
    with pytest.raises(ValueError):
        fft_delta_t(EfficiencyMap(holed.delta_T_axis, holed.delta_t_axis,
                                  eff, ""), 0)


def test_revivals_of_an_even_progression():
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(3, 11200.0, (25.0,)))
    T_rev = 1.0 / (C_CM_PER_PS * 25.0)
    rep = revival_diagnostics(mol, np.ones(3), t_max=3.0 * T_rev,
                              dt=T_rev / 100.0)
    # full rephasing once per 1/(c * spacing)
    k = int(np.argmin(np.abs(rep.times - T_rev)))
    assert rep.fidelity[k] > 1.0 - 1e-10
    assert len(rep.revival_times) >= 2
    assert rep.revival_fidelities[0] > 1.0 - 1e-10
    residues = rep.revival_times / T_rev
    assert np.max(np.abs(residues - np.round(residues))) < 0.02


def test_revivals_single_level_and_incommensurate():
    single = build_synthetic_molecule(SyntheticMoleculeSpec(1, 11200.0, ()))
    rep = revival_diagnostics(single, np.ones(1), t_max=5.0, dt=0.01)
    assert np.max(np.abs(rep.fidelity - 1.0)) < 1e-12

    golden = (1.0 + 5.0 ** 0.5) / 2.0
    mol = build_synthetic_molecule(
        SyntheticMoleculeSpec(3, 11200.0, (25.0, 25.0 * golden)))
    rep2 = revival_diagnostics(mol, np.ones(3), t_max=3.0, dt=1e-3,
                               threshold=0.9999)
    assert len(rep2.revival_times) == 0
    assert rep2.fidelity[rep2.times > 0.05].max() < 0.95


def test_revival_validation():
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(3, 11200.0, (25.0,)))
    with pytest.raises(ValueError):
        revival_diagnostics(mol, np.ones(2), t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        revival_diagnostics(mol, np.zeros(3), t_max=1.0, dt=0.01)
    with pytest.raises(ValueError):
        revival_diagnostics(mol, np.ones(3), t_max=1.0, dt=2.0)


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
def test_sweep_rows_match_individual_runs(protocol):
    sys3 = build_three_level()
    base = {"delta_T": 10.0, "delta_t_small": 5.0,
            "pump_area": math.pi, "dump_area": math.pi}
    if protocol == "crp":
        base.update(alpha_pump=0.2, alpha_dump=0.2)
    sweep = robustness_sweep(sys3, protocol, "n_pairs", [5, 20],
                             base_config=base)
    for v, eff in zip(sweep.values, sweep.efficiency):
        direct = RUNNERS[protocol](sys3, n_pairs=int(v), record="none", **base)
        assert eff == direct.final_target_population
    assert sweep.spread() >= 0.0


def test_area_scale_sweep_stays_efficient():
    sys3 = build_three_level()
    base = {"n_pairs": 50, "delta_T": 10.0,
            "pump_area": 5.0 * math.pi, "dump_area": 5.0 * math.pi}
    sweep = robustness_sweep(sys3, "stirap", "area_scale", [0.8, 1.0, 1.2],
                             base_config=base)
    # a 20 percent calibration error must not matter much
    assert np.all(sweep.efficiency >= 0.9)
    assert sweep.efficiency[1] >= 0.99


def test_sweep_validation_and_failures():
    sys3 = build_three_level()
    with pytest.raises(ValueError):
        robustness_sweep(sys3, "ramsey", "n_pairs", [5])
    with pytest.raises(ValueError):
        robustness_sweep(sys3, "pairs", "fwhm", [100.0])
    with pytest.raises(ValueError):
        robustness_sweep(sys3, "stirap", "alpha", [0.1])
    with pytest.raises(ValueError):
        robustness_sweep(sys3, "pairs", "n_pairs", [])
    with pytest.raises(ValueError):
        robustness_sweep(sys3, "stirap", "area_scale", [1.0],
                         base_config={"n_pairs": 5, "delta_T": 10.0})
    # pair counts that are not whole numbers fail before any run, by the
    # first of them, instead of running rounded counts
    for values, first in (([2, 2.5, 3.4, 3.6], "2.5"), ([3, math.nan], "nan"),
                          ([math.inf], "inf")):
        with pytest.raises(ValueError,
                           match=f"n_pairs values must be integers, got {first}"):
            robustness_sweep(sys3, "pairs", "n_pairs", values)
    # impossible schedules turn into NaN rows, not a crash
    bad = robustness_sweep(sys3, "pairs", "n_pairs", [2],
                           base_config={"delta_T": 10.0, "delta_t_small": 0.01,
                                        "pump_area": 1.0, "dump_area": 1.0})
    assert math.isnan(bad.efficiency[0])
    assert list(bad.details["failures"]) == [2.0]
    assert "overlap" in bad.details["failures"][2.0]
    # each NaN row keeps its reason, keyed by the swept value
    ramps = robustness_sweep(sys3, "stirap", "n_pairs", [1, 4],
                             base_config={"delta_T": 10.0, "steps": 100})
    assert math.isnan(ramps.efficiency[0]) and ramps.efficiency[1] > 0.0
    assert list(ramps.details["failures"]) == [1.0]
    assert "n_pairs >= 2" in ramps.details["failures"][1.0]


def test_spread_skips_failed_rows_and_is_nan_when_all_failed():
    """spread() ignores NaN rows and, with no row left, is NaN without
    numpy's all-NaN warning (which the test filter turns into an error)."""
    values = np.array([1.0, 2.0, 3.0])
    mixed = SweepResult("area_scale", values, np.array([0.5, np.nan, 0.9]))
    assert mixed.spread() == 0.9 - 0.5
    failed = SweepResult("area_scale", values, np.full(3, np.nan))
    assert math.isnan(failed.spread())


def _beat_probe_system(dipole_phases=None):
    """Anchor on a comb tooth plus a probe level 18 teeth above it."""
    e_anchor = 11145.0
    tooth = 1.0 / (C_CM_PER_PS * e_anchor)
    delta_T = round(20.0 / tooth) * tooth
    probe_offset = 18.0 / (C_CM_PER_PS * delta_T)
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        2, e_anchor, (probe_offset,), ground_b_energies=(-500.0,),
        dipole_phases=dipole_phases))
    return mol, delta_T, probe_offset


def _oscillation_column(mol, delta_T, period):
    dts = 1.0 + (period / 16.0) * np.arange(240)
    base = {"n_pairs": 8, "pump_area": math.pi / 5.0,
            "dump_area": math.pi / 5.0}
    emap = scan_2d(mol, base, [delta_T], dts)
    return dts, emap.column(0)


def _fitted_period(dts, column):
    signal = column - column.mean()
    padded = np.fft.rfft(signal, n=8 * len(signal))
    mag = np.abs(padded)
    j = int(np.argmax(mag[1:])) + 1
    # quadratic interpolation around the peak bin
    num = 0.5 * (mag[j - 1] - mag[j + 1])
    den = mag[j - 1] - 2.0 * mag[j] + mag[j + 1]
    shift = num / den if den != 0.0 else 0.0
    df = 1.0 / (8.0 * len(signal) * (dts[1] - dts[0]))
    return 1.0 / ((j + shift) * df)


def test_weak_train_oscillates_at_the_level_spacing():
    """Intra-pair delay scans beat at the probe's offset from the anchor.

    The pump kicks a two-level superposition; the pump-dump delay sets
    the accumulated relative phase, so the per-pair transfer amplitude
    interferes with period 2 pi / (K * offset). A probe 30 cm^-1 above
    the anchor therefore shows a 1.11 ps beat.
    """
    mol, delta_T, probe_offset = _beat_probe_system()
    period = 2.0 * math.pi / (K_RAD_PS_PER_CM * probe_offset)
    dts, column = _oscillation_column(mol, delta_T, period)
    assert np.ptp(column) > 1e-3
    fitted = _fitted_period(dts, column)
    assert abs(fitted - period) / period < 0.02


def test_dump_dipole_phase_shifts_the_beat():
    # a pi/2 dipole phase on the probe's dump leg moves the oscillation
    # by 3 pi / 2: the interference term picks up the phase twice over
    mol0, delta_T, probe_offset = _beat_probe_system()
    mol1, _, _ = _beat_probe_system(dipole_phases=(0.0, math.pi / 2.0))
    period = 2.0 * math.pi / (K_RAD_PS_PER_CM * probe_offset)
    dts, col0 = _oscillation_column(mol0, delta_T, period)
    _, col1 = _oscillation_column(mol1, delta_T, period)

    f = 1.0 / period
    probe = np.exp(-2j * math.pi * f * dts)
    z0 = np.sum((col0 - col0.mean()) * probe)
    z1 = np.sum((col1 - col1.mean()) * probe)
    shift = (np.angle(z1) - np.angle(z0)) % (2.0 * math.pi)
    assert abs(shift - 1.5 * math.pi) < 0.1
