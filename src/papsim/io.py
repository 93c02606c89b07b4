"""Result export and import.

Every file written here starts with comment lines carrying the package
version and, when known, the config fingerprint, so any output can be
traced back to the exact inputs that produced it. Floats are written
with repr, which round-trips exactly: re-importing a map reproduces its
values bitwise.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .protocols import RunResult
from .scan import BeatSpectrum, EfficiencyMap, RevivalReport, SweepResult

MAP_FORMAT = "papsim-map v1"


def _r(value) -> str:
    """repr of a scalar as a plain float: exact round-trip, no numpy tags."""
    return repr(float(value))


def _write_text(path: str, text: str) -> None:
    """Write text to path atomically: a temporary file beside it, then a rename.

    A failed write leaves any earlier file at path as it was and removes
    the temporary file. The file gets the mode a plain open gives a new
    file.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _header_lines(kind: str, fingerprint: str | None) -> list[str]:
    lines = [f"# {kind}", f"# version={__version__}"]
    if fingerprint:
        lines.append(f"# fingerprint={fingerprint}")
    return lines


def write_map_csv(path: str, emap: EfficiencyMap) -> None:
    """Efficiency map as CSV: rows are delta_t, columns delta_T.

    The first data row holds the delta_T axis; each following row starts
    with its delta_t value. NaN cells (invalid schedules) are written
    literally, never as zeros.
    """
    lines = _header_lines(MAP_FORMAT, emap.config_fingerprint)
    lines.append("# rows=delta_t_ps cols=delta_T_ps values=target_population")
    lines.append("delta_t_ps," + ",".join(_r(v) for v in emap.delta_T_axis))
    for i, dt in enumerate(emap.delta_t_axis):
        row = ",".join(_r(v) for v in emap.efficiency[i])
        lines.append(f"{_r(dt)},{row}")
    _write_text(path, "\n".join(lines) + "\n")


def read_map_csv(path: str) -> EfficiencyMap:
    """Read a map written by write_map_csv; other files are a ValueError."""
    meta: dict = {}
    rows: list[list[float]] = []
    delta_T: np.ndarray | None = None
    dts: list[float] = []
    with open(path) as fh:
        tag = fh.readline().strip()
        if tag != f"# {MAP_FORMAT}":
            raise ValueError(f"{path} is not a map file: its first line is "
                             f"{tag!r}, expected '# {MAP_FORMAT}'")
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body and " " not in body.split("=", 1)[0]:
                    key, val = body.split("=", 1)
                    meta[key] = val
                continue
            cells = line.split(",")
            if cells[0] == "delta_t_ps":
                delta_T = np.array([float(c) for c in cells[1:]])
                continue
            dts.append(float(cells[0]))
            rows.append([float(c) for c in cells[1:]])
    if delta_T is None or not rows:
        raise ValueError(f"{path} is not a map file (missing axis row)")
    eff = np.array(rows)
    if eff.shape[1] != len(delta_T):
        raise ValueError(f"{path}: ragged rows")
    return EfficiencyMap(delta_T, np.array(dts), eff,
                         meta.get("fingerprint", ""), meta)


def write_spectrum_csv(path: str, spectrum: BeatSpectrum,
                       fingerprint: str | None = None) -> None:
    lines = _header_lines("papsim-spectrum v1", fingerprint)
    lines.append("frequency_cm1,magnitude")
    for w, a in zip(spectrum.frequency_axis, spectrum.magnitude):
        lines.append(f"{_r(w)},{_r(a)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_sweep_csv(path: str, sweep: SweepResult,
                    fingerprint: str | None = None) -> None:
    lines = _header_lines("papsim-sweep v1", fingerprint)
    lines.append(f"{sweep.parameter},efficiency")
    for v, e in zip(sweep.values, sweep.efficiency):
        lines.append(f"{_r(v)},{_r(e)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_revivals_csv(path: str, report: RevivalReport,
                       fingerprint: str | None = None) -> None:
    lines = _header_lines("papsim-revivals v1", fingerprint)
    lines.append("time_ps,fidelity")
    for t, f in zip(report.times, report.fidelity):
        lines.append(f"{_r(t)},{_r(f)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path: str, result: RunResult,
                         fingerprint: str | None = None) -> None:
    """Population trajectory of a run, one labeled column per level."""
    traj = result.trajectory
    lines = _header_lines("papsim-trajectory v1", fingerprint)
    lines.append("time_ps," + ",".join(traj.labels) + ",norm")
    for k in range(len(traj.times)):
        pops = ",".join(_r(p) for p in traj.populations[k])
        lines.append(f"{_r(traj.times[k])},{pops},{_r(traj.norms[k])}")
    _write_text(path, "\n".join(lines) + "\n")


def result_to_dict(result: RunResult,
                   trajectory_path: str | None = None) -> dict:
    """JSON-ready summary of a run: scalars plus a trajectory reference."""
    final = result.trajectory.final_state
    data = {
        "final_target_population": result.final_target_population,
        "final_initial_population": result.final_initial_population,
        "leaked_ground_a": result.leaked_ground_a,
        "leaked_ground_b": result.leaked_ground_b,
        "residual_excited": result.residual_excited,
        "decayed_loss": result.decayed_loss,
        "max_transient_excited": result.max_transient_excited,
        "final_populations": final.populations().tolist(),
        "labels": list(result.trajectory.labels),
        "end_time_ps": final.time,
        "frame": {"omega_pump": result.frame.omega_pump,
                  "omega_dump": result.frame.omega_dump},
        "details": result.details,
    }
    if trajectory_path is not None:
        data["trajectory_file"] = trajectory_path
    return data


def write_result_json(path: str, result: RunResult, config: dict | None = None,
                      fingerprint: str | None = None,
                      trajectory_path: str | None = None) -> None:
    data = {"version": __version__,
            "result": result_to_dict(result, trajectory_path)}
    if fingerprint:
        data["fingerprint"] = fingerprint
    if config is not None:
        data["config"] = config
    _write_text(path, json.dumps(data, indent=2) + "\n")
