"""Seeded inputs, one timed pass and the output checks of each workload.

prepare() turns (workload, seed) into configs and systems; papsim only
ever sees those. run_pass() is the work a user waits for and is what the
benchmark times. check() verifies a pass's outputs after the timing and
tallies every operation attempted and every one that failed.

Every call into papsim goes through a module attribute (cli.main,
protocols.run_piecewise_stirap, ...), looked up at call time, so a
Tracer can swap in its recording wrappers.
"""

from __future__ import annotations

import json
import math
import random
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from papsim import cli, config, io, levels, protocols
from papsim.units import C_CM_PER_PS

WORKLOADS = ("delay_scan", "ramped_trains", "trajectory")

# delay_scan: the shipped delay_scan.cfg geometry. c * delta_T = 1.2 cm,
# so the comb teeth are 1/1.2 cm^-1 apart; 11145 cm^-1 and every spacing
# k/1.2 cm^-1 sit on teeth, as in AC08.
SCAN_DELTA_T = 1.2 / C_CM_PER_PS
SCAN_TOOTH_CM = 1.0 / 1.2
SCAN_CENTER_CM = 11145.0
SCAN_TEETH = (36, 72)  # spacing 30 .. 60 cm^-1
SCAN_CELLS = 32
# 4 samples per 45 cm^-1 beat: 32 cells give a 5.6 cm^-1 FFT bin, so the
# seeded spacings span more than five bins, below the 90 cm^-1 Nyquist limit
SCAN_STEP_PS = 1.0 / (C_CM_PER_PS * 45.0) / 4.0

PACKET_DELTA_T = 1310.59  # AC06 geometry

# the smooth reference: 100 ps, 20 000 RK4 window steps at the default.
# Its efficiency oscillates with the peak Rabi rate; 1.47 rad/ps +- 3 %
# stays where the passage reaches 0.99 (0.994 at the edges).
REFERENCE_DURATION = 100.0
REFERENCE_PEAK_RABI = 1.47


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(label)


@dataclass
class Inputs:
    """Everything generated from one seed."""

    workload: str
    seed: int
    workdir: Path
    params: dict
    files: dict = field(default_factory=dict)
    systems: dict = field(default_factory=dict)

    def canonical_bytes(self) -> bytes:
        """Generated configs, systems and run parameters as stable bytes."""
        doc = {
            "params": self.params,
            "files": {k: Path(p).read_text() for k, p in sorted(self.files.items())},
            "systems": {k: levels.system_to_dict(s)
                        for k, s in sorted(self.systems.items())},
        }
        return json.dumps(doc, sort_keys=True, allow_nan=False).encode()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scale(rng: random.Random) -> float:
    """Perturbation factor within +-5 %."""
    return 1.0 + rng.uniform(-0.05, 0.05)


def _write_config(workdir: Path, name: str, cfg: dict) -> Path:
    path = workdir / f"{name}.cfg"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def packet_molecule(lifetime_ns):
    """1 + 5 + 1 levels, progression spaced by one comb tooth (AC06)."""
    tooth = 1.0 / (C_CM_PER_PS * PACKET_DELTA_T)
    e0 = round(11200.0 * C_CM_PER_PS * PACKET_DELTA_T) * tooth
    return levels.build_synthetic_molecule(levels.SyntheticMoleculeSpec(
        5, e0, (tooth,), dipole_profile="gaussian",
        decay_lifetime=lifetime_ns, ground_b_energies=(-2333.0,)))


def band_molecule():
    """2 + 21 + 2 levels, intermediates one 10 ps comb tooth apart."""
    tooth = 1.0 / (C_CM_PER_PS * 10.0)
    return levels.build_synthetic_molecule(levels.SyntheticMoleculeSpec(
        21, 11145.0, (tooth,), dipole_profile="gaussian",
        ground_a_energies=(0.0, 37.0), ground_b_energies=(-2333.0, -2291.0)))


def prepare(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate one workload's configs and systems from its seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    inp = Inputs(workload, seed, workdir, {})

    if workload == "delay_scan":
        spacing = rng.randint(*SCAN_TEETH) * SCAN_TOOTH_CM
        dt_start = rng.uniform(1.0, 2.0)
        cfg = {
            "protocol": "scan",
            "system": {"synthetic": {
                "n_intermediate": 2, "center_energy": SCAN_CENTER_CM,
                "spacing_pattern": [spacing], "ground_b_energies": [-500.0]}},
            "train": {"n_pairs": 50, "pump_area": math.pi,
                      "dump_area": math.pi},
            "scan": {"delta_T_values": [SCAN_DELTA_T],
                     "delta_t_start": dt_start,
                     "delta_t_stop": dt_start + (SCAN_CELLS - 1) * SCAN_STEP_PS,
                     "delta_t_points": SCAN_CELLS},
        }
        inp.params = {"spacing_cm": spacing, "cells": SCAN_CELLS}
        inp.files["config"] = _write_config(workdir, "delay_scan", cfg)
        inp.systems["scan"] = config.build_system(
            config.load_config(str(inp.files["config"])))

    elif workload == "ramped_trains":
        inp.systems["n3"] = levels.build_three_level()
        inp.systems["n7"] = packet_molecule(15.0)
        inp.systems["n25"] = band_molecule()
        alpha = 0.2 * _scale(rng)
        base3 = {"n_pairs": 10, "delta_T": 10.0, "record": "none"}
        runs = [
            ("stirap_n3", "run_piecewise_stirap", "n3",
             dict(base3, pump_area=5 * math.pi * _scale(rng),
                  dump_area=5 * math.pi * _scale(rng))),
        ]
        crp_areas = dict(pump_area=8 * math.pi * _scale(rng),
                         dump_area=8 * math.pi * _scale(rng))
        for tag, sign in (("plus", 1.0), ("minus", -1.0)):
            runs.append((f"crp_n3_{tag}", "run_piecewise_crp", "n3",
                         dict(base3, alpha_pump=sign * alpha,
                              alpha_dump=sign * alpha, **crp_areas)))
        runs.append(("stirap_n7", "run_piecewise_stirap", "n7", {
            "n_pairs": 8, "delta_T": PACKET_DELTA_T, "delta_t_small": 2.0,
            "pump_area": 5 * math.pi * _scale(rng),
            "dump_area": 5 * math.pi * _scale(rng), "record": "none"}))
        runs.append(("crp_n25", "run_piecewise_crp", "n25", {
            "n_pairs": 8, "delta_T": 10.0, "alpha_pump": alpha,
            "alpha_dump": alpha, "pump_area": 8 * math.pi * _scale(rng),
            "dump_area": 8 * math.pi * _scale(rng), "record": "none"}))
        inp.params = {"runs": runs}

    else:  # trajectory
        cfg = {
            "protocol": "stirap",
            "system": {"three_level": {}},
            "train": {"n_pairs": 50, "delta_T": 10.0,
                      "pump_area": 5 * math.pi * _scale(rng),
                      "dump_area": 5 * math.pi * _scale(rng)},
        }
        inp.params = {"train": cfg["train"],
                      "reference_peak_rabi":
                          REFERENCE_PEAK_RABI * (1.0 + rng.uniform(-0.03, 0.03))}
        inp.files["config"] = _write_config(workdir, "trajectory", cfg)
        inp.systems["traj"] = config.build_system(
            config.load_config(str(inp.files["config"])))
    return inp


# --- one pass ---

def _cli(argv: list[str]) -> int:
    return cli.main(argv + ["--quiet"])


def run_pass(inp: Inputs, tag: str) -> dict:
    """The timed work of one pass. Output files are named after tag."""
    wd = inp.workdir
    if inp.workload == "delay_scan":
        map_path = wd / f"{tag}_map.csv"
        spec_path = wd / f"{tag}_beats.csv"
        code_scan = _cli(["scan", "--config", str(inp.files["config"]),
                          "--out", str(map_path), "--workers", "1"])
        code_fft = _cli(["analyze-fft", "--map", str(map_path),
                         "--out", str(spec_path)])
        return {"codes": {"scan": code_scan, "analyze-fft": code_fft},
                "map": map_path, "spectrum": spec_path}

    if inp.workload == "ramped_trains":
        results = {}
        for label, runner, system, kwargs in inp.params["runs"]:
            run = getattr(protocols, runner)
            results[label] = run(inp.systems[system], **kwargs)
        return {"results": results}

    csv_path = wd / f"{tag}_trajectory.csv"
    json_path = wd / f"{tag}_result.json"
    kept = {}
    runner = cli._RUNNERS["stirap"]

    def keep(*args, **kwargs):
        kept["dense"] = runner(*args, **kwargs)
        return kept["dense"]

    cli._RUNNERS["stirap"] = keep
    try:
        code = _cli(["stirap", "--config", str(inp.files["config"]),
                     "--trajectory", str(csv_path), "--out", str(json_path)])
    finally:
        cli._RUNNERS["stirap"] = runner
    reference = protocols.run_reference_ap(
        inp.systems["traj"], "stirap", REFERENCE_DURATION,
        inp.params["reference_peak_rabi"])
    return {"codes": {"stirap": code}, "trajectory": csv_path,
            "result": json_path, "dense": kept.get("dense"),
            "reference": reference}


def run_pass_tallied(inp: Inputs, tag: str, tally: Tally):
    """run_pass, with an exception counted as one failed operation."""
    try:
        return run_pass(inp, tag)
    except Exception:  # the benchmark keeps going and reports the failure
        traceback.print_exc()
        tally.record(False, f"{inp.workload} pass raised")
        return None


# --- checks ---

def check_reference(inp: Inputs) -> dict:
    """Once-per-run values the checks compare against, computed untimed."""
    if inp.workload != "trajectory":
        return {}
    compressed = protocols.run_piecewise_stirap(
        inp.systems["traj"], record="compressed", **inp.params["train"])
    return {"compressed": compressed.trajectory.final_state.amplitudes}


def _read_spectrum(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


def check(inp: Inputs, out: dict | None, ref: dict, tally: Tally) -> None:
    """Verify one pass's outputs; every operation and check is tallied."""
    if out is None:
        return
    for cmd, code in out.get("codes", {}).items():
        tally.record(code == 0, f"{cmd} exited {code}")

    if inp.workload == "delay_scan":
        if out["codes"]["scan"] != 0:
            return
        emap = io.read_map_csv(str(out["map"]))
        for value in emap.efficiency.ravel():
            tally.record(bool(np.isfinite(value)), "NaN scan cell")
        again = out["map"].with_name(out["map"].stem + "_again.csv")
        io.write_map_csv(str(again), emap)
        tally.record(again.read_bytes() == out["map"].read_bytes(),
                     "map CSV does not round-trip bitwise")
        if out["codes"]["analyze-fft"] == 0:
            freq, mag = _read_spectrum(out["spectrum"])
            peak = freq[1 + int(np.argmax(mag[1:]))]
            tally.record(abs(peak - inp.params["spacing_cm"]) <= freq[1] - freq[0],
                         f"beat peak {peak} cm^-1 off the spacing")
        return

    if inp.workload == "ramped_trains":
        res = out["results"]
        for label, r in res.items():
            tally.record(bool(np.isfinite(r.efficiency))
                         and abs(r.accounted_total() - 1.0) <= 1e-8,
                         f"{label}: accounting {r.accounted_total()!r}")
        tally.record(res["stirap_n3"].efficiency >= 0.95,
                     f"stirap efficiency {res['stirap_n3'].efficiency}")
        flip = abs(res["crp_n3_plus"].efficiency - res["crp_n3_minus"].efficiency)
        tally.record(flip <= 0.05, f"crp sign flip changes efficiency by {flip}")
        return

    if out["codes"]["stirap"] != 0:
        return
    summary = json.loads(out["result"].read_text())["result"]
    tally.record(summary["final_target_population"] >= 0.95,
                 f"efficiency {summary['final_target_population']}")
    tally.record(summary["max_transient_excited"] <= 0.1,
                 f"transient {summary['max_transient_excited']}")
    last = out["trajectory"].read_text().rstrip("\n").rsplit("\n", 1)[-1]
    pops = [float(x) for x in last.split(",")[1:-1]]
    tally.record(pops == summary["final_populations"],
                 "last trajectory row differs from the final populations")
    dense = out["dense"].trajectory.final_state.amplitudes
    dev = float(np.max(np.abs(dense - ref["compressed"])))
    tally.record(dev <= 1e-10, f"dense vs compressed amplitudes differ by {dev}")
    tally.record(out["reference"].efficiency >= 0.99,
                 f"smooth reference efficiency {out['reference'].efficiency}")


# --- operator counts for the traced run ---

def pulse_key(pulse):
    """A pulse up to its carrier phase, which a cached operator absorbs."""
    return replace(pulse, carrier_phase=0.0)


def distinct_pulses(schedule) -> int:
    return len({pulse_key(ev.pulse) for ev in schedule.events})


def column_reuse_ratio(cells) -> float:
    """1 - distinct operators per column / sum of distinct operators per cell.

    cells is a sequence of (column_key, schedule), one per scan cell; a
    column key identifies everything besides the pulse that fixes an
    operator (the frame). 0 when there are no cells.
    """
    per_cell = 0
    per_column: dict = {}
    for column, schedule in cells:
        keys = {pulse_key(ev.pulse) for ev in schedule.events}
        per_cell += len(keys)
        per_column.setdefault(column, set()).update(keys)
    if per_cell == 0:
        return 0.0
    return 1.0 - sum(len(k) for k in per_column.values()) / per_cell
