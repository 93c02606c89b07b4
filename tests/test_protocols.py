"""Transfer protocols: population accounting, transients, references."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import papsim
from papsim import (PhaseFrame, build_three_level, reference_envelopes,
                    run_pair_train, run_piecewise_crp, run_piecewise_stirap,
                    run_reference_ap, train_from_reference)


def test_accounting_closes_without_decay():
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=20, delta_T=10.0, record="compressed")
    assert abs(res.accounted_total() - 1.0) < 1e-8
    assert res.decayed_loss < 1e-8


def test_accounting_closes_with_decay():
    sys3 = build_three_level(decay_rate=1.0 / 1500.0)
    res = run_piecewise_stirap(sys3, n_pairs=20, delta_T=10.0, record="compressed")
    assert abs(res.accounted_total() - 1.0) < 1e-8
    assert res.decayed_loss > 1e-3


def test_zero_dump_area_transfers_nothing():
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=10, delta_T=10.0,
                               pump_area=math.pi, dump_area=0.0,
                               record="compressed")
    assert res.final_target_population <= 1e-15


def test_zero_pairs_is_identity():
    sys3 = build_three_level()
    res = run_pair_train(sys3, n_pairs=0, delta_T=10.0, delta_t_small=5.0)
    assert res.final_initial_population == 1.0
    assert res.final_target_population == 0.0
    assert res.max_transient_excited == 0.0
    assert len(res.trajectory.times) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_delays_fail_loudly(bad):
    """A non-finite delay is a ValueError naming it, never a NaN run."""
    sys3 = build_three_level()
    with pytest.raises(ValueError, match="delta_t_small must be finite"):
        run_pair_train(sys3, 5, 10.0, bad, record="none")
    with pytest.raises(ValueError, match="delta_T must be positive and finite"):
        run_pair_train(sys3, 5, bad, 4.0, record="none")
    # with a given frame, the train itself rejects the period
    with pytest.raises(ValueError, match="delta_T must be positive and finite"):
        run_piecewise_stirap(sys3, 5, bad, frame=PhaseFrame.for_system(sys3),
                             record="none")


def test_comb_locked_default_frame():
    sys3 = build_three_level()
    res = run_pair_train(sys3, n_pairs=2, delta_T=10.0, delta_t_small=5.0)
    assert res.frame == PhaseFrame.comb_locked(sys3, 10.0)
    assert res.details["delta_t_small"] == 5.0
    # stirap defaults the intra-pair delay to half a period
    res2 = run_piecewise_stirap(sys3, n_pairs=2, delta_T=10.0, record="none")
    assert res2.details["delta_t_small"] == 5.0


def test_summary_line():
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=10, delta_T=10.0, record="none")
    line = res.summary()
    assert "final_target=" in line and "max_transient_excited=" in line


def test_stirap_beats_crp_on_transient_population():
    """Counterintuitive ordering keeps the intermediate nearly empty.

    Both protocols reach >= 0.99 here, but the chirped passage runs
    through the bright states and parks ~half the population in the
    excited level mid-train, while the stirap train stays dark.
    """
    sys3 = build_three_level()
    st = run_piecewise_stirap(sys3, n_pairs=50, delta_T=10.0, record="dense")
    cr = run_piecewise_crp(sys3, n_pairs=40, delta_T=10.0,
                           alpha_pump=0.1, alpha_dump=0.1, record="dense")
    assert st.efficiency >= 0.99
    assert cr.efficiency >= 0.99
    assert st.max_transient_excited < 0.10
    assert cr.max_transient_excited > 0.30
    assert st.max_transient_excited < 0.5 * cr.max_transient_excited


def test_decay_only_hurts():
    effs = []
    for rate in (0.0, 1.0 / 15000.0, 1.0 / 1500.0):
        sys3 = build_three_level(decay_rate=rate)
        res = run_piecewise_stirap(sys3, n_pairs=20, delta_T=10.0,
                                   record="compressed")
        effs.append(res.efficiency)
    assert effs[0] > effs[1] > effs[2]


def test_pair_train_area_grid_has_a_good_point():
    sys3 = build_three_level()
    best = 0.0
    for scale in (0.75, 1.0, 1.25, 1.5, 2.0):
        res = run_pair_train(sys3, n_pairs=50, delta_T=10.0, delta_t_small=5.0,
                             pump_area=scale * math.pi,
                             dump_area=scale * math.pi, record="none")
        best = max(best, res.efficiency)
    assert best >= 0.8


def test_reference_envelope_shapes():
    pump, dump, php, dph = reference_envelopes("stirap", 100.0, 1.5)
    t = np.linspace(0.0, 100.0, 2001)
    p = np.array([pump(x) for x in t])
    d = np.array([dump(x) for x in t])
    # dump first: its peak precedes the pump peak
    assert t[np.argmax(d)] < t[np.argmax(p)]
    assert php is None and dph is None

    pump, dump, php, dph = reference_envelopes("crp", 100.0, 0.8, chirp_rate=0.05)
    assert abs(pump(50.0) - 0.8) < 1e-12
    assert abs(pump(30.0) - dump(30.0)) < 1e-12
    # opposite chirps: the two-photon phase sweeps at twice the rate
    assert abs(php(70.0) + dph(70.0)) < 1e-12
    assert abs(php(70.0) - 0.5 * 0.05 * 400.0) < 1e-12

    with pytest.raises(ValueError):
        reference_envelopes("rap", 100.0, 1.0)
    with pytest.raises(ValueError):
        reference_envelopes("stirap", -1.0, 1.0)


def test_smooth_references_transfer():
    sys3 = build_three_level()
    st = run_reference_ap(sys3, "stirap", 100.0, 1.5)
    assert st.efficiency >= 0.99
    assert st.max_transient_excited < 0.1

    cr = run_reference_ap(sys3, "crp", 100.0, 0.8, chirp_rate=0.05)
    assert cr.efficiency >= 0.95
    assert cr.max_transient_excited > 0.3

    off = run_reference_ap(sys3, "stirap", 100.0, 0.0)
    assert off.final_target_population < 1e-12
    assert off.final_initial_population > 1.0 - 1e-12


def test_chopping_preserves_interval_actions():
    """Each kick carries the integral of its interval of the envelope."""
    n_pairs = 25
    duration = 100.0
    sched = train_from_reference("stirap", duration, 1.5, n_pairs)
    assert sched.n_pairs == n_pairs
    assert abs(sched.delta_T - duration / n_pairs) < 1e-15

    pump_env, dump_env, _, _ = reference_envelopes("stirap", duration, 1.5)
    pump_areas = [ev.pulse.area for ev in sched.events
                  if ev.pulse.channel == "pump"]
    dump_areas = [ev.pulse.area for ev in sched.events
                  if ev.pulse.channel == "dump"]
    for n in (0, 7, 24):
        lo, hi = n * sched.delta_T, (n + 1) * sched.delta_T
        want_p, _ = quad(pump_env, lo, hi)
        want_d, _ = quad(dump_env, lo, hi)
        assert abs(pump_areas[n] - want_p) < 1e-9
        assert abs(dump_areas[n] - want_d) < 1e-9

    # chirped chopping stamps the smooth phase onto each kick
    crp = train_from_reference("crp", duration, 0.8, n_pairs, chirp_rate=0.05)
    mid = duration / 2.0
    for ev in crp.events:
        expected = 0.5 * 0.05 * (ev.time - mid) ** 2
        if ev.pulse.channel == "dump":
            expected = -expected
        assert abs(ev.pulse.carrier_phase - expected) < 1e-12

    with pytest.raises(ValueError):
        train_from_reference("stirap", duration, 1.5, 0)


def test_import_loads_no_scipy():
    """import papsim loads numpy only; scipy waits for train_from_reference
    and the oracle, the two places that use it."""
    code = "import sys, papsim; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(Path(papsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("runner, args, keyword", [
    (run_piecewise_stirap, (4, 10.0), "alpha_pump"),
    (run_piecewise_stirap, (4, 10.0), "extra_pump_dump_delay"),
    (run_piecewise_crp, (4, 10.0, 0.2, 0.2), "dump_phase_mask"),
    (run_pair_train, (4, 10.0, 4.0), "alpha_pump"),
    (run_pair_train, (4, 10.0, 4.0), "sigma_pairs"),
])
def test_runners_reject_keywords_of_other_protocols(runner, args, keyword):
    # the three runners share one body, but each keeps its own signature
    with pytest.raises(TypeError):
        runner(build_three_level(), *args, record="none", **{keyword: 0.1})
