"""Property tests: batching changes no operator, a global phase changes
no population, decay never raises the norm, a map survives its CSV round
trip bitwise, a config's fingerprint survives JSON, key order and
sequence types, and a train's arrays give what its pulse objects give."""

import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from papsim import (EfficiencyMap, PhaseFrame, QuantumState, TrainEvent,
                    build_train, config_fingerprint, free_evolve, ground_state,
                    make_pulse, make_schedule, read_map_csv, run_schedule,
                    write_map_csv)
from papsim.fields import _pair_trains
from papsim.levels import Level, LevelSystem
from papsim.propagator import MIN_STEPS_PER_PULSE, _integrate_pulses

STEPS = 60


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _matrix(draw, rows, cols):
    values = draw(st.lists(_floats(0.0, 1.0), min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


@st.composite
def systems_and_pulses(draw):
    """A small random system and a mix of pulses on both channels."""
    n_a, n_e, n_b = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                     draw(st.integers(1, 2)))
    system = LevelSystem(
        ground_a=tuple(Level(f"g{i}", 0.0 if i == 0 else draw(_floats(0.0, 60.0)))
                       for i in range(n_a)),
        excited=tuple(Level(f"e{j}", 11150.0 + draw(_floats(-30.0, 30.0)),
                            draw(_floats(0.0, 0.05)))
                      for j in range(n_e)),
        ground_b=tuple(Level(f"t{i}", -500.0 + draw(_floats(-30.0, 30.0)))
                       for i in range(n_b)),
        pump_dipoles=_matrix(draw, n_a, n_e),
        dump_dipoles=_matrix(draw, n_b, n_e),
        dipole_phases=draw(st.none() | st.lists(
            _floats(-math.pi, math.pi), min_size=n_e, max_size=n_e)),
        carrier_anchor=11150.0,
    )
    pulses = []
    for _ in range(draw(st.integers(1, 5))):
        channel = draw(st.sampled_from(("pump", "dump")))
        mask = None
        if channel == "dump":
            mask = draw(st.none() | st.lists(_floats(-math.pi, math.pi),
                                             min_size=n_e, max_size=n_e))
        pulses.append(make_pulse(
            draw(st.sampled_from(("sin2", "gaussian"))),
            draw(_floats(40.0, 200.0)), draw(_floats(0.0, 3.0 * math.pi)),
            channel=channel, phase_mask=mask))
    phases = draw(st.lists(_floats(-math.pi, math.pi), min_size=len(pulses),
                           max_size=len(pulses)))
    return system, pulses, phases


@settings(max_examples=40, deadline=None)
@given(systems_and_pulses())
def test_batched_operators_match_pulses_integrated_alone(case):
    system, pulses, phases = case
    frame = PhaseFrame.for_system(system)
    batch = _integrate_pulses(system, frame, pulses, phases, STEPS)[0]
    for i, (pulse, phi) in enumerate(zip(pulses, phases)):
        alone = _integrate_pulses(system, frame, [pulse], [phi], STEPS)[0]
        assert np.array_equal(batch[i], alone[0])


def _sequence(pulses, phases, gap=1.0):
    """The pulses one after another, gap ps apart, each at its phase."""
    events, t = [], 0.0
    for pulse, phi in zip(pulses, phases):
        events.append(TrainEvent(t + pulse.support_ps / 2.0,
                                 replace(pulse, carrier_phase=phi)))
        t += pulse.support_ps + gap
    return make_schedule(events, len(events), gap, 0.0, "sequence")


@settings(max_examples=25, deadline=None)
@given(systems_and_pulses(), _floats(-math.pi, math.pi),
       st.sampled_from(("compressed", "dense", "none")), st.data())
def test_global_phase_leaves_populations_unchanged(case, theta, record, data):
    system, pulses, phases = case
    schedule = _sequence(pulses, phases)
    n = system.n_levels
    parts = np.array(data.draw(st.lists(_floats(-1.0, 1.0), min_size=2 * n,
                                        max_size=2 * n)))
    amps = parts[:n] + 1j * parts[n:]
    amps[0] += 1.0  # never the zero vector
    amps /= np.linalg.norm(amps)
    frame = PhaseFrame.for_system(system)
    plain, turned = (run_schedule(QuantumState(a, 0.0), system, schedule, frame,
                                  record=record, steps=STEPS)
                     for a in (amps, amps * np.exp(1j * theta)))
    assert np.array_equal(plain.times, turned.times)
    assert np.max(np.abs(plain.populations - turned.populations)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(systems_and_pulses(), _floats(0.01, 10.0), _floats(0.0, 50.0), st.data())
def test_norm_never_rises_under_decay(case, gap, tail, data):
    system, pulses, phases = case
    rates = data.draw(st.lists(_floats(0.0, 2.0), min_size=system.n_excited,
                               max_size=system.n_excited))
    system = replace(system, excited=tuple(
        replace(level, decay_rate=rate)
        for level, rate in zip(system.excited, rates)))
    frame = PhaseFrame.for_system(system)
    schedule = _sequence(pulses, phases, gap)
    # at the cap of steps per pulse decay never raises the norm; the
    # default count, which holds the amplitudes to 1e-9, may gain up to
    # that tolerance
    for steps, rise in ((MIN_STEPS_PER_PULSE, 1e-12), (None, 1e-9)):
        traj = run_schedule(ground_state(system, 0.0), system, schedule,
                            frame, record="compressed", steps=steps)
        after = free_evolve(traj.final_state, system, tail, frame)
        norms = np.append(traj.norms, after.populations().sum())
        assert np.all(np.diff(norms) <= rise)


_cells = _floats(-1e300, 1e300) | st.just(math.nan)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_random_maps_round_trip_bitwise(rows, cols, data):
    axis = lambda size: np.array(data.draw(st.lists(
        _floats(-1e6, 1e6), min_size=size, max_size=size)))
    efficiency = np.array(data.draw(st.lists(
        _cells, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    emap = EfficiencyMap(axis(cols), axis(rows), efficiency,
                         data.draw(st.text("0123456789abcdef", min_size=16,
                                           max_size=16)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.csv")
        write_map_csv(path, emap)
        back = read_map_csv(path)
    for name in ("delta_T_axis", "delta_t_axis", "efficiency"):
        assert getattr(back, name).tobytes() == getattr(emap, name).tobytes()
    assert back.config_fingerprint == emap.config_fingerprint


_leaves = _floats(-1e300, 1e300) | st.integers(-10**6, 10**6) | st.text(max_size=4)
_configs = st.dictionaries(st.text(max_size=4), st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=16),
    max_size=5)


def _reordered(obj):
    """obj with every dict's keys in reverse order."""
    if isinstance(obj, dict):
        return {key: _reordered(obj[key]) for key in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reordered(v) for v in obj]
    return obj


def _as_sequences(obj):
    """obj with lists of only floats or only ints as arrays, other lists
    as tuples."""
    if isinstance(obj, dict):
        return {key: _as_sequences(v) for key, v in obj.items()}
    if isinstance(obj, list):
        for kind in (float, int):
            if obj and all(type(v) is kind for v in obj):
                return np.array(obj)
        return tuple(_as_sequences(v) for v in obj)
    return obj


@settings(max_examples=50, deadline=None)
@given(_configs)
def test_fingerprint_survives_json_key_order_and_sequence_types(cfg):
    base = config_fingerprint(cfg)
    assert config_fingerprint(json.loads(json.dumps(cfg))) == base
    assert config_fingerprint(_reordered(cfg)) == base
    assert config_fingerprint(_as_sequences(cfg)) == base


# --- train schedules as arrays ---

def _reference_train(kind, n_pairs, delta_T, delta_t_small, pump, dump,
                     alpha, sigma_pairs):
    """The events of build_train one object at a time: pair by pair, dump
    first, sorted by time, supports checked pair by pair."""
    if kind == "stirap" and n_pairs == 1:
        raise ValueError("stirap ramps need n_pairs >= 2")
    n = np.arange(n_pairs)
    w = np.ones(n_pairs), np.ones(n_pairs)
    ph = np.zeros(n_pairs), np.zeros(n_pairs)
    if kind == "stirap" and n_pairs:
        w = n / (n_pairs - 1), 1.0 - n / (n_pairs - 1)
    elif kind == "crp" and n_pairs:
        center = (n_pairs - 1) / 2.0
        sigma = n_pairs / 4.0 if sigma_pairs is None else sigma_pairs
        gauss = np.exp(-((n - center) ** 2) / (2.0 * sigma**2))
        w = gauss, gauss
        ph = alpha * (n - center) ** 2 / 2.0, -(alpha * (n - center) ** 2 / 2.0)
    areas = [p.area * wc / wc.sum() for p, wc in zip((pump, dump), w)]
    events = []
    for k in range(n_pairs):
        for proto, t, c in ((dump, k * delta_T, 1),
                            (pump, k * delta_T + delta_t_small, 0)):
            events.append(TrainEvent(t, replace(
                proto, area=float(areas[c][k]),
                carrier_phase=proto.carrier_phase + float(ph[c][k]))))
    events.sort(key=lambda ev: ev.time)
    for prev, cur in zip(events, events[1:]):
        gap = cur.time - prev.time
        need = (prev.pulse.support_ps + cur.pulse.support_ps) / 2.0
        if gap < need:
            raise ValueError(
                f"pulse supports overlap: events at {prev.time:.6f} ps and "
                f"{cur.time:.6f} ps need a gap of {need:.6f} ps, have {gap:.6f} ps")
    return events


def _outcome(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


@st.composite
def _prototype(draw, channel):
    mask = (draw(st.none() | st.lists(_floats(-math.pi, math.pi), min_size=1,
                                      max_size=3))
            if channel == "dump" else None)
    return make_pulse(draw(st.sampled_from(("sin2", "gaussian"))),
                      draw(_floats(40.0, 400.0)), draw(_floats(0.0, 10.0)),
                      carrier_phase=draw(_floats(-math.pi, math.pi)),
                      channel=channel, phase_mask=mask)


# delays, ps: any sign, past the period, at ties and just inside a support
_delays = _floats(-30.0, 30.0) | st.sampled_from([0.0, 0.05, -0.3, 2.0, 7.5])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("stirap", "crp", "flat_pairs")), st.integers(0, 7),
       _floats(0.5, 12.0) | st.just(2.0), st.lists(_delays, min_size=1, max_size=4),
       _prototype("pump"), _prototype("dump"), _floats(-0.5, 0.5),
       st.none() | _floats(0.5, 4.0))
def test_array_schedules_match_their_events(kind, n_pairs, delta_T, dts, pump,
                                            dump, alpha, sigma_pairs):
    """build_train's arrays give the events, start time and distinct
    pulses of the object path; a column stack gives each row's arrays."""
    chirp = {"alpha_pump": alpha, "alpha_dump": alpha, "sigma_pairs": sigma_pairs}
    singles, valid = {}, []
    for dt in dts:
        ref = _outcome(lambda: _reference_train(kind, n_pairs, delta_T, dt, pump,
                                                dump, alpha, sigma_pairs))
        sched = _outcome(lambda: build_train(kind, n_pairs, delta_T, dt, pump,
                                             dump, **chirp))
        if isinstance(ref, str):
            assert sched == ref  # the overlap verdict and its message
            continue
        valid.append(dt)
        assert sched.events == tuple(ref)
        assert sched.start_time == (ref[0].time - ref[0].pulse.support_ps / 2.0
                                    if ref else 0.0)
        # each distinct pulse once, up to the carrier phase its operator absorbs
        phaseless = [replace(p, carrier_phase=0.0) for p in sched.pulses]
        assert len(set(phaseless)) == len(phaseless)
        assert set(phaseless) == {replace(ev.pulse, carrier_phase=0.0) for ev in ref}
        # the object round trip gives back the same arrays
        again = make_schedule(sched.events, n_pairs, delta_T, dt, kind)
        for name in ("time", "carrier_phase", "support"):
            assert np.array_equal(getattr(again, name), getattr(sched, name))
        assert again.events == sched.events
        singles[dt] = sched
    if kind == "stirap" and n_pairs == 1:
        return
    stack, errors = _pair_trains(kind, n_pairs, delta_T, dts, pump, dump, **chirp)
    assert [dts[c] for c in range(len(dts)) if c not in errors] == valid
    for row, dt in enumerate(valid):
        sched = singles[dt]
        for name in ("time", "carrier_phase", "support"):
            assert np.array_equal(getattr(stack, name)[row], getattr(sched, name))
        assert ([stack.pulses[i] for i in stack.pulse[row]]
                == [sched.pulses[i] for i in sched.pulse])
