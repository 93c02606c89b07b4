"""Command-line interface.

One subcommand per capability: stirap, crp, pairs (single runs), scan
(2D delay map), revivals (wave-packet timing diagnostics), sweep
(1D robustness scan), analyze-fft (beat spectrum of a stored map).

Exit codes: 0 success, 2 config or input problem, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import (ConfigError, axis_values, build_system,
                     config_fingerprint, load_config)
from .io import (read_map_csv, write_map_csv, write_result_json,
                 write_revivals_csv, write_spectrum_csv, write_sweep_csv,
                 write_trajectory_csv)
from .propagator import NumericsError, PhaseFrame
from .protocols import RUNNERS as _RUNNERS
from .scan import fft_delta_t, revival_diagnostics, robustness_sweep, scan_2d

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

# read at import, before anything can wrap an entry of _RUNNERS
_TRAIN_HELP = {name: runner.__doc__.split("\n", 1)[0]
               for name, runner in _RUNNERS.items()}


def _frame_from_config(cfg: dict, system) -> PhaseFrame | None:
    frame_cfg = cfg.get("frame")
    if not frame_cfg:
        return None
    return PhaseFrame.for_system(system, **frame_cfg)


def _load_for(protocol: str, path: str):
    cfg = load_config(path)
    if cfg["protocol"] != protocol:
        raise ConfigError(
            f"config declares protocol {cfg['protocol']!r}, expected {protocol!r}")
    return cfg, build_system(cfg), config_fingerprint(cfg)


def _out_path(cfg: dict, key: str, flag_value):
    return flag_value if flag_value else cfg.get("output", {}).get(key)


def _report_failures(failures: dict, total: int, what: str, where) -> None:
    """Failure count and the first reason on stderr, also under --quiet."""
    if failures:
        key, reason = next(iter(failures.items()))
        print(f"{len(failures)} of {total} {what} failed; "
              f"first at {where(key)}: {reason}", file=sys.stderr)


def _cmd_run(args, protocol: str) -> int:
    cfg, system, fingerprint = _load_for(protocol, args.config)
    frame = _frame_from_config(cfg, system)
    kwargs = dict(cfg["train"])
    traj_path = _out_path(cfg, "trajectory", args.trajectory)
    record = "dense" if traj_path else "compressed"
    result = _RUNNERS[protocol](system, frame=frame, record=record, **kwargs)
    if not args.quiet:
        print(result.summary())
    out = _out_path(cfg, "result", args.out)
    if traj_path:
        write_trajectory_csv(traj_path, result, fingerprint)
    if out:
        write_result_json(out, result, cfg, fingerprint, traj_path)
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg, system, fingerprint = _load_for("scan", args.config)
    scan_cfg = cfg["scan"]
    dT = axis_values(scan_cfg, "delta_T")
    dts = axis_values(scan_cfg, "delta_t")
    workers = scan_cfg.get("workers", 1) if args.workers is None else args.workers
    out = _out_path(cfg, "map", args.out)
    if not out:
        raise ConfigError("scan needs --out or an output.map path")
    emap = scan_2d(system, dict(cfg["train"]), dT, dts, workers=workers)
    write_map_csv(out, emap)
    _report_failures(emap.details["failures"], emap.efficiency.size,
                     "scan cells",
                     lambda cell: f"delta_t={cell[0]:g}, delta_T={cell[1]:g}")
    if not args.quiet:
        finite = np.isfinite(emap.efficiency)
        print(f"map {emap.efficiency.shape[0]}x{emap.efficiency.shape[1]} "
              f"({finite.sum()} valid cells) -> {out}")
        if finite.any():
            print(f"peak efficiency: {np.nanmax(emap.efficiency):.6f}")
    return EXIT_OK


def _cmd_revivals(args) -> int:
    cfg, system, fingerprint = _load_for("revivals", args.config)
    rev_cfg = dict(cfg["revivals"])
    weights = rev_cfg.pop("weights", None)
    if weights is None:
        # the packet a weak pump kick would excite from the initial level
        weights = system.pump_dipoles[system.initial_index]
    report = revival_diagnostics(system, weights, **rev_cfg)
    out = _out_path(cfg, "revivals", args.out)
    if out:
        write_revivals_csv(out, report, fingerprint)
    if not args.quiet:
        n_top = min(5, len(report.revival_times))
        print("top revival candidates (time_ps, fidelity):")
        for t, f in zip(report.revival_times[:n_top],
                        report.revival_fidelities[:n_top]):
            print(f"  {t:12.4f}  {f:.6f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg, system, fingerprint = _load_for("sweep", args.config)
    sweep_cfg = cfg["sweep"]
    values = axis_values(sweep_cfg, "")
    base = dict(cfg["train"])
    frame = _frame_from_config(cfg, system)
    if frame is not None:
        base["frame"] = frame
    out = _out_path(cfg, "sweep", args.out)
    if not out:
        raise ConfigError("sweep needs --out or an output.sweep path")
    result = robustness_sweep(system, sweep_cfg["protocol"],
                              sweep_cfg["parameter"], values,
                              base_config=base)
    write_sweep_csv(out, result, fingerprint)
    _report_failures(result.details["failures"], len(values), "sweep points",
                     lambda value: f"{result.parameter}={value:g}")
    if not args.quiet:
        finite = np.isfinite(result.efficiency)
        print(f"sweep of {result.parameter}: {finite.sum()}/{len(values)} "
              f"valid points -> {out}")
        if finite.any():
            best = int(np.nanargmax(result.efficiency))
            print(f"best efficiency {result.efficiency[best]:.6f} "
                  f"at {result.parameter}={result.values[best]:g}")
    return EXIT_OK


def _cmd_analyze_fft(args) -> int:
    emap = read_map_csv(args.map)
    if args.delta_T is not None:
        j = int(np.argmin(np.abs(emap.delta_T_axis - args.delta_T)))
    else:
        j = args.column
        if not (-len(emap.delta_T_axis) <= j < len(emap.delta_T_axis)):
            raise ConfigError(f"column {j} out of range for "
                              f"{len(emap.delta_T_axis)} delta_T columns")
    spectrum = fft_delta_t(emap, j)
    write_spectrum_csv(args.out, spectrum, emap.config_fingerprint or None)
    if not args.quiet:
        print(f"column delta_T={emap.delta_T_axis[j]:g} ps, "
              f"bin width {spectrum.bin_width:.4f} cm^-1")
        print(f"strongest beat: {spectrum.peak_frequency:.4f} cm^-1")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="papsim",
        description="Piecewise adiabatic passage in driven multi-level systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--quiet", action="store_true", help="suppress summary output")

    for name, doc in _TRAIN_HELP.items():
        p = sub.add_parser(name, help=doc)
        common(p)
        p.add_argument("--out", help="write run summary JSON here")
        p.add_argument("--trajectory", help="write population trajectory CSV here")

    p = sub.add_parser("scan", help="2D delay scan of a pair train")
    common(p)
    p.add_argument("--out", help="write map CSV here")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes, at most one per column "
                        "and core (default: scan.workers or 1)")

    p = sub.add_parser("revivals", help="wave-packet revival diagnostics")
    common(p)
    p.add_argument("--out", help="write fidelity trace CSV here")

    p = sub.add_parser("sweep", help="1D robustness sweep of a protocol")
    common(p)
    p.add_argument("--out", help="write sweep CSV here")

    p = sub.add_parser("analyze-fft", help="beat spectrum of a stored map column")
    common(p, needs_config=False)
    p.add_argument("--map", required=True, help="map CSV from the scan command")
    p.add_argument("--column", type=int, default=0,
                   help="delta_T column index (default 0)")
    p.add_argument("--delta-T", type=float, default=None, dest="delta_T",
                   help="pick the column nearest this delta_T instead")
    p.add_argument("--out", required=True, help="write spectrum CSV here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _RUNNERS:
            return _cmd_run(args, args.command)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "revivals":
            return _cmd_revivals(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_analyze_fft(args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
