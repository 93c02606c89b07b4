"""papsim benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload delay_scan --seed 1 --seconds 20 --trace 0

--trace 0 times untraced passes of the workload and reports the
end-to-end metrics: wall_s (median pass) and setup_s (median of seven
fresh interpreters), both scaled to the reference host speed by
calibrate.py, and peak_rss_mb. --trace 1 runs untraced and traced
passes in turn, then the single-layer probes, and reports the per-layer
metrics. Every pass's outputs are checked.
The last line of stdout is one JSON object with correct, attempted,
failed and metrics; the run's record (environment, failures, spans) is
written to .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# one BLAS thread: the matrices are at most 25 x 25 and a second thread
# only adds scheduling noise on a small shared machine
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
MIN_PASSES = 2
SCAN_CELL_SAMPLES = 64  # p84 is the highest percentile with 10 samples above it
AC03_LIMIT_S = 10.0
AC08_LIMIT_S = 300.0
AC08_CELLS = 256


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int, run_dir: Path) -> list[dict]:
    """Elapsed and scaled set-up times of SETUP_REPEATS fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(run_dir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy as np
    import scipy
    import papsim

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "papsim": papsim.__version__,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def _room_for_another(walls: list[float], spent: float, seconds: float) -> bool:
    """True while one more pass of the mean length still ends within `seconds`."""
    return spent + sum(walls) / len(walls) <= seconds


def timed_passes(wl, inp, ref, seconds: float, tally) -> list:
    """Untraced passes: at least MIN_PASSES, then as many as fit in `seconds`.

    Returns one SpeedClock per pass.
    """
    clocks = []
    spent = 0.0
    while (len(clocks) < MIN_PASSES
           or _room_for_another([c.elapsed for c in clocks], spent, seconds)):
        t0 = time.perf_counter()
        with calibrate.SpeedClock() as clock:
            out = wl.run_pass_tallied(inp, f"p{len(clocks)}", tally)
        spent += time.perf_counter() - t0
        clocks.append(clock)
        wl.check(inp, out, ref, tally)
    return clocks


def install_patches(tracer, wl) -> None:
    """Wrap each public papsim function where its caller looks it up."""
    from papsim import cli, propagator, protocols, scan

    def on_schedule(span, args, kwargs, result):
        bound = _bind(protocols_run_schedule, args, kwargs)
        span.attrs["schedule"] = bound["schedule"]
        frame = bound.get("frame")
        span.attrs["column"] = (frame.omega_pump, frame.omega_dump) if frame else ()

    def on_map(span, args, kwargs, emap):
        import numpy as np
        span.attrs["cells"] = int(emap.efficiency.size)
        span.attrs["cells_failed"] = int(np.isnan(emap.efficiency).sum())

    def on_write(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    protocols_run_schedule = protocols.run_schedule
    tracer.patch(cli, "main", "cli.main")
    for key, fn in list(cli._RUNNERS.items()):
        tracer.patch(cli._RUNNERS, key, f"protocols.{fn.__name__}")
    for name in ("load_config", "build_system"):
        tracer.patch(cli, name, f"config.{name}")
    tracer.patch(cli, "scan_2d", "scan.scan_2d", observe=on_map)
    tracer.patch(cli, "fft_delta_t", "scan.fft_delta_t")
    tracer.patch(cli, "read_map_csv", "io.read_map_csv")
    for name in ("write_map_csv", "write_spectrum_csv",
                 "write_trajectory_csv", "write_result_json"):
        tracer.patch(cli, name, f"io.{name}", observe=on_write)
    tracer.patch(scan, "run_pair_train", "protocols.run_pair_train")
    for name in ("run_piecewise_stirap", "run_piecewise_crp",
                 "run_reference_ap", "result_from_trajectory"):
        tracer.patch(protocols, name, f"protocols.{name}")
    tracer.patch(protocols, "build_train", "fields.build_train")
    tracer.patch(protocols, "run_schedule", "propagator.run_schedule",
                 observe=on_schedule)
    tracer.patch(protocols, "propagate_window", "propagator.propagate_window")
    tracer.patch(propagator, "rabi_envelope", "fields.rabi_envelope",
                 counter=True)


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def traced_passes(wl, tracing, inp, ref, seconds: float, tally):
    """Untraced and traced passes in turn, as many as fit in `seconds`.

    There is at least one of each; delay_scan runs enough traced passes
    for SCAN_CELL_SAMPLES cells. Returns (tracer, untraced, traced walls).
    """
    tracer = tracing.Tracer()
    min_traced = (-(-SCAN_CELL_SAMPLES // wl.SCAN_CELLS)
                  if inp.workload == "delay_scan" else 1)
    untraced, traced = [], []
    while (len(traced) < min_traced
           or _room_for_another(untraced + traced, sum(untraced + traced),
                                seconds)):
        tag = f"p{len(untraced) + len(traced)}"
        if len(untraced) <= len(traced):
            t0 = time.perf_counter()
            out = wl.run_pass_tallied(inp, tag, tally)
            untraced.append(time.perf_counter() - t0)
        else:
            install_patches(tracer, wl)
            try:
                with tracer.span("bench.pass") as root:
                    out = wl.run_pass_tallied(inp, tag, tally)
            finally:
                tracer.restore()
            traced.append(root.duration)
        wl.check(inp, out, ref, tally)
    return tracer, untraced, traced


def _percentile_top(samples: list[float]) -> float:
    """Highest order statistic with at least 10 samples above it."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)]


def layer_metrics(wl, tracing, tracer, untraced: list, traced: list,
                  tally) -> dict:
    spans = tracer.spans
    n = len(traced)
    selfs = tracing.self_times(spans)
    by_name = tracing.self_by_name(spans)

    def self_s(name):
        return by_name.get(name, 0.0) / n

    def named(name):
        return [sp for sp in spans if sp.name == name]

    parent_name = {i: spans[sp.parent].name if sp.parent is not None else None
                   for i, sp in enumerate(spans)}
    cells = [sp for i, sp in enumerate(spans)
             if sp.name == "protocols.run_pair_train"
             and parent_name[i] == "scan.scan_2d"]
    cell_ms = [sp.duration * 1e3 for sp in cells[:SCAN_CELL_SAMPLES]]
    cell_ids = {id(sp) for sp in cells}
    # a column is one frame within one scan
    cell_schedules = [
        ((spans[sp.parent].parent, sp.attrs["column"]), sp.attrs["schedule"])
        for sp in named("propagator.run_schedule")
        if sp.parent is not None and id(spans[sp.parent]) in cell_ids]
    schedules = [sp.attrs["schedule"] for sp in named("propagator.run_schedule")
                 if "schedule" in sp.attrs]
    maps = named("scan.scan_2d")
    writes = [sp for sp in spans if sp.name.startswith("io.write_")]
    dense_runner = [sp for i, sp in enumerate(spans)
                    if sp.name == "protocols.run_piecewise_stirap"
                    and parent_name[i] == "cli.main"]

    # self times partition each traced pass exactly
    self_sum = sum(selfs) / n
    wall = sum(traced) / n
    tally.record(abs(self_sum - wall) <= 1e-6 * wall,
                 f"self times sum to {self_sum} s, traced pass {wall} s")

    p50 = statistics.median(cell_ms) if cell_ms else 0.0
    m = {
        "fields.rabi_envelope.calls": tracer.counters["fields.rabi_envelope"] / n,
        "fields.build_train.self_s": self_s("fields.build_train"),
        "fields.scheduled_pulses": sum(len(s.events) for s in schedules) / n,
        "fields.distinct_pulses": sum(wl.distinct_pulses(s) for s in schedules) / n,
        "propagator.run_schedule.self_s": self_s("propagator.run_schedule"),
        "propagator.run_schedule.calls": len(named("propagator.run_schedule")) / n,
        "propagator.propagate_window.self_s": self_s("propagator.propagate_window"),
        "protocols.run_piecewise_stirap.self_s": self_s("protocols.run_piecewise_stirap"),
        "protocols.run_piecewise_crp.self_s": self_s("protocols.run_piecewise_crp"),
        "protocols.run_pair_train.self_s": self_s("protocols.run_pair_train"),
        "protocols.run_reference_ap.self_s": self_s("protocols.run_reference_ap"),
        "protocols.result_from_trajectory.self_s": self_s("protocols.result_from_trajectory"),
        "scan.cells": sum(sp.attrs.get("cells", 0) for sp in maps) / n,
        "scan.cells_failed": sum(sp.attrs.get("cells_failed", 0) for sp in maps) / n,
        "scan.cell_ms.p50": p50,
        "scan.cell_ms.p84": _percentile_top(cell_ms) if cell_ms else 0.0,
        "scan.column_reuse_ratio": wl.column_reuse_ratio(cell_schedules),
        "scan.scan_2d.self_s": self_s("scan.scan_2d"),
        "scan.fft_delta_t.self_s": self_s("scan.fft_delta_t"),
        "config.load_config.self_s": self_s("config.load_config"),
        "config.build_system.self_s": self_s("config.build_system"),
        "cli.main.self_s": self_s("cli.main"),
        "io.bytes_written": sum(sp.attrs.get("bytes", 0) for sp in writes) / n,
        "io.write.self_s": sum(by_name.get(name, 0.0) for name in
                               {sp.name for sp in writes}) / n,
        "io.read_map_csv.self_s": self_s("io.read_map_csv"),
        "gate.ac03_margin_s": (AC03_LIMIT_S - sum(sp.duration for sp in dense_runner)
                               / len(dense_runner)) if dense_runner else 0.0,
        "gate.ac08_margin_s": (AC08_LIMIT_S - AC08_CELLS * p50 / 1e3) if cell_ms else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_frac": min(traced) / min(untraced) - 1.0,
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (SRC / "papsim" / "__init__.py").is_file():
        print(f"error: no papsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    tally = wl.Tally()
    metrics = {}
    try:
        if not args.trace:
            record["setup_samples"] = setup_seconds(
                args.workload, args.seed, run_dir)
            metrics["setup_s"] = statistics.median(
                s["scaled_s"] for s in record["setup_samples"])
        inp = wl.prepare(args.workload, args.seed, run_dir / "inputs")
        ref = wl.check_reference(inp)
        if not args.trace:
            clocks = timed_passes(wl, inp, ref, args.seconds, tally)
            metrics["wall_s"] = statistics.median(c.scaled for c in clocks)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            record["passes"] = [{"elapsed_s": c.elapsed, "scaled_s": c.scaled,
                                 "speed": c.speed} for c in clocks]
        else:
            import probes
            tracer, untraced, traced = traced_passes(
                wl, tracing, inp, ref, args.seconds, tally)
            metrics.update(layer_metrics(wl, tracing, tracer, untraced,
                                         traced, tally))
            metrics.update(probes.run_all())
            metrics["checks.failed_frac"] = tally.failed / tally.attempted
            record.update(untraced_walls_s=untraced, traced_walls_s=traced,
                          spans=tracer.dump())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(env=env, failures=tally.reasons, result=result)
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:42s} {entry['value']:16.6g} {entry['unit']}")
    for p in record.get("passes", []):
        print(f"pass: {p['elapsed_s']:.4f} s elapsed, speed {p['speed']:.3f},"
              f" {p['scaled_s']:.4f} s scaled")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
