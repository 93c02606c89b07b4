"""Tests of the benchmark's own arithmetic and input generation.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import math
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from papsim import (TrainEvent, build_train, make_pulse,  # noqa: E402
                    make_schedule)


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_times_subtract_the_children_they_cover():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 9.0, parent=0),
        _span("b.child", 6.0, 7.0, parent=2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_times_count_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 5.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_by_name(spans + [_span("a", 20.0, 21.0)])["a"] == \
        pytest.approx(4.0)


def test_tracer_patches_and_restores_both_lookup_kinds():
    calls = []

    def inner():
        calls.append("inner")
        return 1

    def outer():
        return ns.inner() + table["f"]()

    ns = types.SimpleNamespace(inner=inner)
    table = {"f": inner}
    tracer = tracing.Tracer()
    tracer.patch(ns, "inner", "ns.inner")
    tracer.patch(table, "f", "table.f", counter=True)
    with tracer.span("root"):
        assert outer() == 2
    tracer.restore()
    assert ns.inner is inner and table["f"] is inner
    assert [sp.name for sp in tracer.spans] == ["root", "ns.inner"]
    assert tracer.spans[1].parent == 0
    assert tracer.counters["table.f"] == 1
    assert calls == ["inner", "inner"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.prepare(workload, 7, tmp_path / "a").canonical_bytes()
    again = workloads.prepare(workload, 7, tmp_path / "b").canonical_bytes()
    other = workloads.prepare(workload, 8, tmp_path / "c").canonical_bytes()
    assert first == again
    assert first != other


def _train(kind, n_pairs, **kw):
    pump = make_pulse("sin2", 110.0, 1.0, channel="pump")
    dump = make_pulse("sin2", 110.0, 1.0, channel="dump")
    return build_train(kind, n_pairs, 10.0, 5.0, pump, dump, **kw)


def test_distinct_pulses_ignore_the_carrier_phase():
    # flat pairs: one pump and one dump operator for the whole train
    assert workloads.distinct_pulses(_train("flat_pairs", 3)) == 2
    # stirap ramps pump 0, 1/2, 1 and dump 1, 1/2, 0 of the area: 6 pulses
    assert workloads.distinct_pulses(_train("stirap", 3)) == 6
    # crp over 4 pairs: the Gaussian weights pair up (0, 3) and (1, 2)
    crp = _train("crp", 4, alpha_pump=0.3, alpha_dump=0.3)
    assert workloads.distinct_pulses(crp) == 4
    # equal pulses that differ only in carrier phase share one operator
    phased = make_schedule(
        [TrainEvent(10.0 * k, make_pulse("sin2", 110.0, 0.5, channel="pump",
                                          carrier_phase=0.1 * k))
         for k in range(3)], 3, 10.0, 0.0, "phased")
    assert workloads.distinct_pulses(phased) == 1


def test_column_reuse_ratio_by_hand():
    flat = _train("flat_pairs", 3)
    cells = [("col_a", flat), ("col_a", flat), ("col_b", flat)]
    # 2 + 2 + 2 distinct per cell, 2 per column over two columns
    assert workloads.column_reuse_ratio(cells) == pytest.approx(1.0 - 4.0 / 6.0)
    assert workloads.column_reuse_ratio([("c", flat)]) == 0.0
    assert workloads.column_reuse_ratio([]) == 0.0
    many = [("c", flat)] * 32
    assert workloads.column_reuse_ratio(many) == pytest.approx(1.0 - 1.0 / 32)
    assert not math.isnan(workloads.column_reuse_ratio(many))


def test_speed_clock_takes_its_samples_out_of_the_block():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with calibrate.SpeedClock() as clock:
        time.sleep(0.35)
        inside = time.perf_counter() - t0
    # one sample on entry, one per alarm, one on exit
    assert len(clock.samples) >= 4
    assert clock.elapsed < inside
    assert clock.elapsed + sum(clock.samples[1:-1]) == pytest.approx(
        inside, abs=0.02)
    assert clock.scaled == pytest.approx(clock.elapsed * clock.speed)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
