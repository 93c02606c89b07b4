"""Pulse envelopes, train schedules, and mask design."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from papsim import (build_train, design_dump_phase_mask, make_pulse,
                    make_schedule, rabi_envelope)
from papsim.fields import PULSE_SHAPES, TrainEvent


def test_pulse_widths():
    p = make_pulse("sin2", 100.0, 1.0)
    assert p.fwhm_ps == 0.1
    # intensity FWHM sits inside the support
    assert p.support_ps > p.fwhm_ps
    # sin^4 at the half-width points is 1/2
    tau = (p.support_ps - p.fwhm_ps) / 2.0
    val = np.sin(np.pi * tau / p.support_ps) ** 4
    assert abs(val - 0.5) < 1e-12

    g = make_pulse("gaussian", 100.0, 1.0)
    assert abs(g.gaussian_sigma_ps - 0.1 / (2.0 * math.sqrt(math.log(2.0)))) < 1e-15
    assert g.support_ps == 8.0 * g.gaussian_sigma_ps


@pytest.mark.parametrize("shape", ["sin2", "gaussian"])
def test_envelope_integral_is_area(shape):
    p = make_pulse(shape, 150.0, 2.7)
    integral, err = quad(lambda t: float(rabi_envelope(p, t)), 0.0, p.support_ps,
                         limit=200)
    assert abs(integral - 2.7) < 1e-9
    # zero outside the support
    assert rabi_envelope(p, -1e-6) == 0.0
    assert rabi_envelope(p, p.support_ps + 1e-6) == 0.0


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_every_envelope_is_even_about_its_centre(shape):
    """rabi_envelope(p, T - tau) = rabi_envelope(p, tau) to rounding, for
    every shape: the pulse pass integrates only the first half of a
    pulse and takes the second as its transpose."""
    p = make_pulse(shape, 120.0, 1.9)
    T = p.support_ps
    tau = np.concatenate([np.linspace(0.0, T, 257),
                          np.random.default_rng(3).uniform(0.0, T, 500)])
    peak = rabi_envelope(p, T / 2.0)
    assert peak > 0.0
    assert np.max(np.abs(rabi_envelope(p, T - tau) - rabi_envelope(p, tau))) <= 1e-14 * peak


def test_make_pulse_validation():
    with pytest.raises(ValueError):
        make_pulse("square", 100.0, 1.0)
    with pytest.raises(ValueError):
        make_pulse("sin2", -100.0, 1.0)
    with pytest.raises(ValueError):
        make_pulse("sin2", 100.0, -1.0)
    with pytest.raises(ValueError):
        make_pulse("sin2", 100.0, 1.0, channel="probe")
    # non-finite inputs fail by name, not later in the overlap check or RK4
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fwhm must be finite"):
            make_pulse("sin2", bad, 1.0)
        with pytest.raises(ValueError, match="area must be finite"):
            make_pulse("sin2", 100.0, bad)
        with pytest.raises(ValueError, match="carrier_detuning must be finite"):
            make_pulse("sin2", 100.0, 1.0, carrier_detuning=bad)
        with pytest.raises(ValueError, match="carrier_phase must be finite"):
            make_pulse("sin2", 100.0, 1.0, carrier_phase=bad)
        with pytest.raises(ValueError, match="phase_mask must be finite"):
            make_pulse("sin2", 100.0, 1.0, channel="dump", phase_mask=(0.0, bad))


def _prototypes(total=math.pi):
    pump = make_pulse("sin2", 100.0, total, channel="pump")
    dump = make_pulse("sin2", 100.0, total, channel="dump")
    return pump, dump


def _channel(sched, channel, attr):
    return np.array([getattr(ev.pulse, attr) for ev in sched.events
                      if ev.pulse.channel == channel])


def test_quadratic_phase_closed_form():
    pump, dump = _prototypes()
    n = np.arange(40)
    n0 = 19.5
    alpha = 0.2
    sched = build_train("crp", 40, 10.0, 5.0, pump, dump,
                        alpha_pump=alpha, alpha_dump=alpha)
    ph = _channel(sched, "pump", "carrier_phase")
    # bitwise the closed form, second difference alpha up to cancellation
    assert np.all(ph == alpha * (n - n0) ** 2 / 2.0)
    assert np.all(_channel(sched, "dump", "carrier_phase") == -ph)
    assert np.max(np.abs(np.diff(ph, 2) - alpha)) < 1e-12


def test_stirap_weights_ramps():
    pump, dump = _prototypes()
    sched = build_train("stirap", 50, 10.0, 5.0, pump, dump)
    # areas are the ramp weights over their sum; the ends rescale them
    a_pump = _channel(sched, "pump", "area")
    a_dump = _channel(sched, "dump", "area")
    w_pump, w_dump = a_pump / a_pump[-1], a_dump / a_dump[0]
    assert w_pump[0] == 0.0 and w_pump[-1] == 1.0
    assert w_dump[0] == 1.0 and w_dump[-1] == 0.0
    assert np.all(np.diff(w_pump) > 0.0)
    assert np.all(np.diff(w_dump) < 0.0)
    assert np.allclose(w_pump + w_dump, 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="n_pairs >= 2"):
        build_train("stirap", 1, 10.0, 5.0, pump, dump)


def test_crp_weights_peak_at_center():
    pump, dump = _prototypes()
    # sigma_pairs defaults to n_pairs / 4
    sched = build_train("crp", 41, 10.0, 5.0, pump, dump)
    for channel in ("pump", "dump"):
        areas = _channel(sched, channel, "area")
        w = areas / areas[20]
        assert w[20] == 1.0
        assert np.all(w[:20] == w[40:20:-1])
        assert np.all(np.diff(w[:21]) > 0.0)
        assert np.allclose(w, np.exp(-((np.arange(41) - 20.0) ** 2)
                                     / (2.0 * (41.0 / 4.0) ** 2)),
                           rtol=1e-14, atol=0.0)


def test_train_event_times_exact():
    pump, dump = _prototypes()
    sched = build_train("flat_pairs", 300, 1310.59, 2.0, pump, dump)
    dumps = [ev for ev in sched.events if ev.pulse.channel == "dump"]
    pumps = [ev for ev in sched.events if ev.pulse.channel == "pump"]
    assert len(dumps) == len(pumps) == 300
    # multiplication, not accumulation: no drift anywhere in the train
    assert all(dumps[n].time == n * 1310.59 for n in range(300))
    assert all(pumps[n].time == n * 1310.59 + 2.0 for n in range(300))
    assert sched.start_time == -dumps[0].pulse.support_ps / 2.0


def test_train_support_is_built_once_and_read_only():
    """A schedule's supports are one read-only array, built on first use:
    a run reads them several times."""
    pump, dump = _prototypes()
    sched = build_train("stirap", 5, 10.0, 2.0, pump, dump)
    support = sched.support
    assert sched.support is support
    assert np.array_equal(support, [ev.pulse.support_ps for ev in sched.events])
    with pytest.raises(ValueError):
        support[0] = 1.0


def test_train_total_area_is_conserved():
    pump, dump = _prototypes(total=5.0 * math.pi)
    for kind in ("stirap", "crp", "flat_pairs"):
        sched = build_train(kind, 50, 10.0, 5.0, pump, dump,
                            alpha_pump=0.1, alpha_dump=0.1)
        a_pump = sum(ev.pulse.area for ev in sched.events
                     if ev.pulse.channel == "pump")
        a_dump = sum(ev.pulse.area for ev in sched.events
                     if ev.pulse.channel == "dump")
        assert abs(a_pump - 5.0 * math.pi) < 1e-12
        assert abs(a_dump - 5.0 * math.pi) < 1e-12


def test_stirap_train_counterintuitive_ramps():
    pump, dump = _prototypes()
    sched = build_train("stirap", 10, 10.0, 5.0, pump, dump)
    pump_areas = [ev.pulse.area for ev in sched.events if ev.pulse.channel == "pump"]
    dump_areas = [ev.pulse.area for ev in sched.events if ev.pulse.channel == "dump"]
    assert pump_areas[0] == 0.0 and dump_areas[-1] == 0.0
    assert np.all(np.diff(pump_areas) > 0.0)
    assert np.all(np.diff(dump_areas) < 0.0)
    # constant carrier phase throughout
    assert all(ev.pulse.carrier_phase == 0.0 for ev in sched.events)


def test_crp_train_phase_staircases():
    pump, dump = _prototypes(total=8.0 * math.pi)
    alpha = 0.2
    sched = build_train("crp", 40, 10.0, 5.0, pump, dump,
                        alpha_pump=alpha, alpha_dump=alpha)
    php = np.array([ev.pulse.carrier_phase for ev in sched.events
                    if ev.pulse.channel == "pump"])
    phd = np.array([ev.pulse.carrier_phase for ev in sched.events
                    if ev.pulse.channel == "dump"])
    # pump staircase curves up by alpha per step squared, dump down: the
    # two-photon phase then advances by alpha_pump + alpha_dump
    assert np.max(np.abs(np.diff(php, 2) - alpha)) < 1e-12
    assert np.max(np.abs(np.diff(phd, 2) + alpha)) < 1e-12
    # both parabolas are centered on the train midpoint, pair index 19.5
    assert np.array_equal(php, php[::-1]) and np.array_equal(phd, phd[::-1])
    # gaussian weights peak at the center of the train
    areas = np.array([ev.pulse.area for ev in sched.events
                      if ev.pulse.channel == "pump"])
    assert np.argmax(areas) in (19, 20)


def test_empty_and_invalid_trains():
    pump, dump = _prototypes()
    empty = build_train("stirap", 0, 10.0, 5.0, pump, dump)
    assert empty.events == ()
    assert empty.start_time == 0.0
    with pytest.raises(ValueError):
        build_train("ramsey", 5, 10.0, 5.0, pump, dump)
    with pytest.raises(ValueError):
        build_train("stirap", -1, 10.0, 5.0, pump, dump)
    with pytest.raises(ValueError):
        build_train("stirap", 5, -10.0, 5.0, pump, dump)
    with pytest.raises(ValueError):
        build_train("stirap", 5, 10.0, 5.0, dump, pump)


def test_overlap_rejected():
    pump, dump = _prototypes()
    # intra-pair gap smaller than one support
    with pytest.raises(ValueError, match="supports overlap"):
        build_train("flat_pairs", 5, 10.0, 0.1, pump, dump)
    # two events at the same time via make_schedule
    ev = TrainEvent(0.0, pump)
    with pytest.raises(ValueError, match="supports overlap"):
        make_schedule([ev, TrainEvent(0.05, dump)], 1, 10.0, 0.05, "flat_pairs")


def test_non_finite_times_are_rejected():
    pump, dump = _prototypes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta_t_small must be finite"):
            build_train("flat_pairs", 5, 10.0, bad, pump, dump)
        with pytest.raises(ValueError, match="delta_T must be positive and finite"):
            build_train("crp", 5, bad, 4.0, pump, dump)
    # a NaN gap fails the overlap check: no order puts it clear of the rest
    with pytest.raises(ValueError, match="supports overlap"):
        make_schedule([TrainEvent(0.0, dump), TrainEvent(math.nan, pump)],
                      1, 10.0, math.nan, "flat_pairs")


def test_dump_mask_design():
    # mask rotates every coupling onto the packet's phase
    c = np.array([1.0, np.exp(1j * 0.8), 0.5 * np.exp(-1j * 2.0)])
    d = np.array([1.0, 1.0, np.exp(1j * 0.3)])
    mask = design_dump_phase_mask(c, d)
    assert mask.shape == (3,)
    # largest packet amplitude carries mask zero
    assert mask[0] == 0.0
    # relative phases: arg(c_k) - arg(d_k) minus the reference
    assert abs(mask[1] - 0.8) < 1e-12
    assert abs(mask[2] - (-2.3)) < 1e-12
    assert np.all(mask >= -np.pi) and np.all(mask < np.pi)

    # dead levels get mask zero
    c2 = np.array([1.0, 0.0])
    d2 = np.array([1.0, 1.0])
    assert design_dump_phase_mask(c2, d2)[1] == 0.0

    with pytest.raises(ValueError):
        design_dump_phase_mask(np.ones(3), np.ones(2))
