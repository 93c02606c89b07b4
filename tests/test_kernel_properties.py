"""Property tests of the batched RK4 kernel: batching changes no operator."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from papsim import PhaseFrame, make_pulse
from papsim.levels import Level, LevelSystem
from papsim.propagator import _integrate_pulses

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
            carrier_detuning=draw(_floats(-20.0, 20.0)), channel=channel,
            phase_mask=mask))
    phases = draw(st.lists(_floats(-math.pi, math.pi), min_size=len(pulses),
                           max_size=len(pulses)))
    return system, pulses, phases


@settings(max_examples=40, deadline=None)
@given(systems_and_pulses())
def test_batched_operators_match_pulses_integrated_alone(case):
    system, pulses, phases = case
    frame = PhaseFrame.for_system(system)
    n = system.n_levels
    eye = np.broadcast_to(np.eye(n, dtype=complex), (len(pulses), n, n))
    batch, _ = _integrate_pulses(system, frame, pulses, phases, eye, STEPS)
    for i, (pulse, phi) in enumerate(zip(pulses, phases)):
        alone, _ = _integrate_pulses(system, frame, [pulse], [phi], eye[:1], STEPS)
        assert np.max(np.abs(batch[i] - alone[0])) < 1e-12
