"""Single-layer timings of the traced run.

Each probe times one public papsim function on a tiny fixed input and
returns the median of a few repeats. They run after the traced passes,
never inside a timing that feeds an end-to-end metric.
"""

from __future__ import annotations

import statistics
import time

from papsim import fields, levels, propagator

import workloads

REPEATS = 5
FWHM_FS = 110.0
SCALAR_CALLS = 4000  # rabi_envelope and free_evolve calls per timing
WINDOW_STEPS = 2000
EVENT_PAIRS = (50, 2000)  # flat trains whose time difference gives event_apply_us


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _one_pulse_schedule():
    pulse = fields.make_pulse("sin2", FWHM_FS, 0.3, channel="pump")
    event = fields.TrainEvent(pulse.support_ps / 2.0, pulse)
    return pulse, fields.make_schedule([event], 1, 1.0, 0.0, "probe")


def rabi_scalar_us() -> float:
    pulse, _ = _one_pulse_schedule()
    tau = pulse.support_ps / 3.0

    def loop():
        for _ in range(SCALAR_CALLS):
            fields.rabi_envelope(pulse, tau)
    return _median_time(loop) / SCALAR_CALLS * 1e6


def pulse_op_ms(system) -> float:
    """One operator integration, through a one-event run_schedule."""
    _, schedule = _one_pulse_schedule()
    frame = propagator.PhaseFrame.for_system(system)
    state = propagator.ground_state(system, 0.0)
    return _median_time(lambda: propagator.run_schedule(
        state, system, schedule, frame, record="none"), 3) * 1e3


def pulse_state_ms(system) -> float:
    pulse, _ = _one_pulse_schedule()
    frame = propagator.PhaseFrame.for_system(system)
    state = propagator.ground_state(system, 0.0)
    return _median_time(lambda: propagator.propagate_pulse(
        state, system, pulse, frame), 3) * 1e3


def window_step_us(system) -> float:
    frame = propagator.PhaseFrame.for_system(system)
    state = propagator.ground_state(system, 0.0)

    def rabi(t):
        return 0.5
    return _median_time(lambda: propagator.propagate_window(
        state, system, rabi, rabi, frame, 10.0, WINDOW_STEPS), 3) / WINDOW_STEPS * 1e6


def event_apply_us(system) -> float:
    """Slope of flat-train run_schedule time per event, 50 to 2000 pairs.

    Four RK4 steps per pulse keep the two operator integrations out of
    the difference, which is then the per-event cost: free evolution,
    phase conjugation and the operator-vector product.
    """
    pump = fields.make_pulse("sin2", FWHM_FS, 0.1, channel="pump")
    dump = fields.make_pulse("sin2", FWHM_FS, 0.1, channel="dump")
    frame = propagator.PhaseFrame.for_system(system)

    def timed(n_pairs: int) -> float:
        schedule = fields.build_train("flat_pairs", n_pairs, 10.0, 5.0, pump, dump)
        state = propagator.ground_state(system, schedule.start_time)
        return _median_time(lambda: propagator.run_schedule(
            state, system, schedule, frame, record="none", steps=4), 3)
    small, large = EVENT_PAIRS
    return (timed(large) - timed(small)) / (2 * (large - small)) * 1e6


def free_evolve_us(system) -> float:
    frame = propagator.PhaseFrame.for_system(system)
    state = propagator.ground_state(system, 0.0)

    def loop():
        for _ in range(SCALAR_CALLS):
            propagator.free_evolve(state, system, 0.5, frame)
    return _median_time(loop) / SCALAR_CALLS * 1e6


def run_all() -> dict[str, float]:
    """Every probe, on fixed systems of 3, 7 and 25 levels."""
    n3 = levels.build_three_level()
    return {
        "fields.rabi_envelope.scalar_us": rabi_scalar_us(),
        "propagator.pulse_op.n3_ms": pulse_op_ms(n3),
        "propagator.pulse_op.n7_ms": pulse_op_ms(workloads.packet_molecule(15.0)),
        "propagator.pulse_op.n25_ms": pulse_op_ms(workloads.band_molecule()),
        "propagator.pulse_state.n3_ms": pulse_state_ms(n3),
        "propagator.window_step_us": window_step_us(n3),
        "propagator.event_apply_us": event_apply_us(n3),
        "propagator.free_evolve_us": free_evolve_us(n3),
    }
