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


def _write_csv(path: str, kind: str, fingerprint: str | None,
               header: list[str], rows) -> None:
    """The one CSV layout: tag, version and fingerprint comment lines, the
    given header lines, then one line of repr floats per row of the 2-D
    array rows."""
    lines = [f"# {kind}", f"# version={__version__}"]
    if fingerprint:
        lines.append(f"# fingerprint={fingerprint}")
    lines += header
    # plain floats, since numpy 2 reprs a numpy scalar as np.float64(...);
    # one row at a time, so that no list of every row's floats is held
    lines += (",".join(map(repr, row.tolist()))
              for row in np.asarray(rows, float))
    _write_text(path, "\n".join(lines) + "\n")


def write_map_csv(path: str, emap: EfficiencyMap) -> None:
    """Efficiency map as CSV: rows are delta_t, columns delta_T.

    The first data row holds the delta_T axis; each following row starts
    with its delta_t value. NaN cells (invalid schedules) are written
    literally, never as zeros.
    """
    _write_csv(path, MAP_FORMAT, emap.config_fingerprint,
               ["# rows=delta_t_ps cols=delta_T_ps values=target_population",
                "delta_t_ps," + ",".join(map(repr, np.asarray(
                    emap.delta_T_axis, float).tolist()))],
               np.column_stack([emap.delta_t_axis, emap.efficiency]))


def read_map_csv(path: str) -> EfficiencyMap:
    """Read a map written by write_map_csv; other files are a ValueError.

    Each row is checked as it is read: a data row before the axis row, a
    cell that is not a float or a row without one value per delta_T
    names the file and its line."""
    meta: dict = {}
    rows: list[list[float]] = []
    delta_T: np.ndarray | None = None
    dts: list[float] = []
    with open(path) as fh:
        tag = fh.readline().strip()
        if tag != f"# {MAP_FORMAT}":
            raise ValueError(f"{path} is not a map file: its first line is "
                             f"{tag!r}, expected '# {MAP_FORMAT}'")
        for number, raw in enumerate(fh, 2):
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
            is_axis = cells[0] == "delta_t_ps"
            where = f"{path}, line {number}"
            try:
                values = [float(c) for c in (cells[1:] if is_axis else cells)]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if is_axis:
                delta_T, axis = np.array(values), where
            elif delta_T is None:
                raise ValueError(f"{where}: a data row before the delta_t_ps "
                                 f"axis row; {path} is not a map file")
            elif len(values) != len(delta_T) + 1:
                raise ValueError(f"{where}: expected one value per delta_T, "
                                 f"{len(delta_T)}, after delta_t, got "
                                 f"{len(values) - 1}")
            else:
                dts.append(values[0])
                rows.append(values[1:])
    if delta_T is None:
        raise ValueError(f"{path} is not a map file (missing axis row)")
    if not rows:
        raise ValueError(f"{axis}: an axis row but no data rows after it")
    return EfficiencyMap(delta_T, np.array(dts), np.array(rows),
                         meta.get("fingerprint", ""), meta)


def write_spectrum_csv(path: str, spectrum: BeatSpectrum,
                       fingerprint: str | None = None) -> None:
    _write_csv(path, "papsim-spectrum v1", fingerprint,
               ["frequency_cm1,magnitude"],
               np.column_stack([spectrum.frequency_axis, spectrum.magnitude]))


def write_sweep_csv(path: str, sweep: SweepResult,
                    fingerprint: str | None = None) -> None:
    _write_csv(path, "papsim-sweep v1", fingerprint,
               [f"{sweep.parameter},efficiency"],
               np.column_stack([sweep.values, sweep.efficiency]))


def write_revivals_csv(path: str, report: RevivalReport,
                       fingerprint: str | None = None) -> None:
    _write_csv(path, "papsim-revivals v1", fingerprint, ["time_ps,fidelity"],
               np.column_stack([report.times, report.fidelity]))


def write_trajectory_csv(path: str, result: RunResult,
                         fingerprint: str | None = None) -> None:
    """Population trajectory of a run, one labeled column per level."""
    traj = result.trajectory
    _write_csv(path, "papsim-trajectory v1", fingerprint,
               ["time_ps," + ",".join(traj.labels) + ",norm"],
               np.column_stack([traj.times, traj.populations, traj.norms]))


def write_result_json(path: str, result: RunResult, config: dict | None = None,
                      fingerprint: str | None = None,
                      trajectory_path: str | None = None) -> None:
    """JSON summary of a run: its scalars plus a trajectory reference."""
    final = result.trajectory.final_state
    summary = {
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
        summary["trajectory_file"] = trajectory_path
    data = {"version": __version__, "result": summary}
    if fingerprint:
        data["fingerprint"] = fingerprint
    if config is not None:
        data["config"] = config
    _write_text(path, json.dumps(data, indent=2) + "\n")
