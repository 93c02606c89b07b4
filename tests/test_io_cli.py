"""File formats, config validation, and the command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from papsim import (ConfigError, EfficiencyMap, RevivalReport, SweepResult,
                    __version__, build_system, build_three_level,
                    config_fingerprint, fft_delta_t, load_config,
                    read_map_csv, run_piecewise_stirap, save_system, scan_2d,
                    validate_config, write_map_csv, write_result_json,
                    write_spectrum_csv, write_sweep_csv, write_trajectory_csv)
from papsim import cli
from papsim.cli import main
from papsim.io import write_revivals_csv


# --- exports ---

def test_map_csv_round_trips_bitwise(tmp_path):
    sys3 = build_three_level()
    base = {"n_pairs": 2, "pump_area": math.pi, "dump_area": math.pi}
    emap = scan_2d(sys3, base, [8.0, 10.0], [0.05, 3.0, 4.0])
    assert math.isnan(emap.efficiency[0, 0])  # overlapping cell

    path = tmp_path / "map.csv"
    write_map_csv(str(path), emap)
    back = read_map_csv(str(path))
    # repr round-trip: every finite value identical to the last bit
    assert np.array_equal(back.delta_T_axis, emap.delta_T_axis)
    assert np.array_equal(back.delta_t_axis, emap.delta_t_axis)
    assert np.array_equal(back.efficiency, emap.efficiency, equal_nan=True)
    assert back.config_fingerprint == emap.config_fingerprint

    bad = tmp_path / "not_a_map.csv"
    bad.write_text("# papsim-map v1\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_map_csv(str(bad))


def test_map_reader_checks_the_format_tag(tmp_path):
    emap = EfficiencyMap(np.array([10.0]), np.array([4.0]),
                         np.array([[0.5]]), "fp")
    path = tmp_path / "map.csv"
    write_map_csv(str(path), emap)
    retagged = tmp_path / "retagged.csv"
    retagged.write_text(path.read_text().replace("papsim-map v1",
                                                 "papsim-sweep v1", 1))
    with pytest.raises(ValueError, match="papsim-sweep v1") as err:
        read_map_csv(str(retagged))
    assert str(retagged) in str(err.value)

    dts = 1.0 + 0.05 * np.arange(16)
    col = np.cos(2.0 * np.pi * dts)
    spec = fft_delta_t(EfficiencyMap(np.array([10.0]), dts, col[:, None], ""), 0)
    spectrum = tmp_path / "spec.csv"
    write_spectrum_csv(str(spectrum), spec, "fp")
    with pytest.raises(ValueError, match="papsim-spectrum v1") as err:
        read_map_csv(str(spectrum))
    assert str(spectrum) in str(err.value)


def test_trajectory_csv_shape(tmp_path):
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=4, delta_T=10.0, record="dense")
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), res, "abc123")
    lines = path.read_text().strip().split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("fingerprint=abc123" in ln for ln in comments)
    header = data[0].split(",")
    # time + one column per level + norm
    assert len(header) == sys3.n_levels + 2
    assert header[0] == "time_ps" and header[-1] == "norm"
    assert tuple(header[1:-1]) == sys3.labels
    assert len(data) - 1 == len(res.trajectory.times)
    row = data[-1].split(",")
    assert abs(float(row[0]) - res.trajectory.times[-1]) == 0.0


def test_result_json(tmp_path):
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=4, delta_T=10.0, record="none")
    path = tmp_path / "result.json"
    write_result_json(str(path), res, config={"protocol": "stirap"},
                      fingerprint="abc123", trajectory_path="traj.csv")
    data = json.loads(path.read_text())
    assert data["fingerprint"] == "abc123"
    assert data["config"] == {"protocol": "stirap"}
    r = data["result"]
    assert r["final_target_population"] == res.final_target_population
    assert r["trajectory_file"] == "traj.csv"
    total = (r["final_target_population"] + r["final_initial_population"]
             + r["leaked_ground_a"] + r["leaked_ground_b"]
             + r["residual_excited"] + r["decayed_loss"])
    assert abs(total - 1.0) < 1e-8


def test_failed_write_keeps_the_earlier_file(tmp_path):
    sys3 = build_three_level()
    res = run_piecewise_stirap(sys3, n_pairs=4, delta_T=10.0, record="none")
    path = tmp_path / "result.json"
    write_result_json(str(path), res, config={"protocol": "stirap"})
    before = path.read_bytes()
    # an ndarray in the config is not JSON: the write must fail whole
    with pytest.raises(TypeError):
        write_result_json(str(path), res, config={"mask": np.zeros(2)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]

    # same mode as a file made by a plain open
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    assert path.stat().st_mode == plain.stat().st_mode


def test_spectrum_csv(tmp_path):
    dts = 1.0 + 0.05 * np.arange(16)
    col = np.cos(2.0 * np.pi * dts)
    spec = fft_delta_t(EfficiencyMap(np.array([10.0]), dts, col[:, None], ""), 0)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(str(path), spec, "fp")
    lines = path.read_text().strip().split("\n")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "frequency_cm1,magnitude"
    assert len(data) - 1 == len(spec.frequency_axis)


def test_sweep_and_revivals_csv_bytes(tmp_path):
    sweep = SweepResult("n_pairs", np.array([1.0, 4.0]),
                        np.array([math.nan, 0.1 + 0.2]))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), sweep, "fp123")
    assert path.read_bytes() == (
        f"# papsim-sweep v1\n# version={__version__}\n# fingerprint=fp123\n"
        "n_pairs,efficiency\n1.0,nan\n4.0,0.30000000000000004\n").encode()

    report = RevivalReport(np.array([0.0, 0.1]), np.array([1.0, 1.0 / 3.0]),
                           np.array([]), np.array([]))
    path = tmp_path / "revivals.csv"
    write_revivals_csv(str(path), report)
    assert path.read_bytes() == (
        f"# papsim-revivals v1\n# version={__version__}\n"
        "time_ps,fidelity\n0.0,1.0\n0.1,0.3333333333333333\n").encode()


# --- config fingerprints ---

def test_fingerprint_sensitivity():
    cfg = {"protocol": "pairs", "train": {"n_pairs": 5, "delta_T": 10.0},
           "grid": [1.0, 2.0]}
    base = config_fingerprint(cfg)
    assert len(base) == 16
    # key order is irrelevant, every value change matters
    reordered = {"grid": [1.0, 2.0],
                 "train": {"delta_T": 10.0, "n_pairs": 5}, "protocol": "pairs"}
    assert config_fingerprint(reordered) == base
    assert config_fingerprint({**cfg, "protocol": "stirap"}) != base
    deep = {"protocol": "pairs", "train": {"n_pairs": 5, "delta_T": 10.5},
            "grid": [1.0, 2.0]}
    assert config_fingerprint(deep) != base
    assert config_fingerprint({**cfg, "grid": [1.0, 2.5]}) != base
    # numpy payloads hash like their list form
    assert config_fingerprint({**cfg, "grid": np.array([1.0, 2.0])}) == base


# --- config validation ---

def _pairs_cfg(**train):
    base = {"n_pairs": 2, "delta_T": 10.0, "delta_t_small": 4.0,
            "pump_area": 1.0, "dump_area": 1.0}
    base.update(train)
    return {"protocol": "pairs", "system": {"three_level": {}}, "train": base}


SYNTHETIC = {"n_intermediate": 2, "center_energy": 11145.0,
             "spacing_pattern": [45.0]}


def test_config_validation_accepts_good_configs():
    validate_config(_pairs_cfg())
    validate_config({
        "protocol": "crp", "system": {"three_level": {"pump_detuning": 1.0}},
        "decay": False,
        "train": {"n_pairs": 4, "delta_T": 10.0, "pump_area": 1.0,
                  "dump_area": 1.0, "alpha_pump": 0.1, "alpha_dump": 0.1}})


def test_config_validation_rejects_problems():
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config({**_pairs_cfg(), "typo": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(_pairs_cfg(typo=1))
    with pytest.raises(ConfigError, match="protocol"):
        validate_config({"protocol": "ramsey", "system": {"three_level": {}}})
    with pytest.raises(ConfigError, match="train.n_pairs"):
        cfg = _pairs_cfg()
        del cfg["train"]["n_pairs"]
        validate_config(cfg)
    with pytest.raises(ConfigError, match="alpha_pump"):
        validate_config({"protocol": "crp", "system": {"three_level": {}},
                         "train": {"n_pairs": 4, "delta_T": 10.0,
                                   "pump_area": 1.0, "dump_area": 1.0}})
    with pytest.raises(ConfigError, match="delta_t_small"):
        cfg = _pairs_cfg()
        del cfg["train"]["delta_t_small"]
        validate_config(cfg)
    with pytest.raises(ConfigError, match="decay"):
        validate_config({**_pairs_cfg(), "decay": "no"})
    # nothing is random, so nothing reads a seed
    with pytest.raises(ConfigError,
                       match=r"unknown keys in a pairs config: \['rng_seed'\]"):
        validate_config({**_pairs_cfg(), "rng_seed": 7})
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config({"protocol": "pairs",
                         "system": {"three_level": {}, "file": "x.json"},
                         "train": _pairs_cfg()["train"]})
    with pytest.raises(ConfigError, match="shape"):
        validate_config(_pairs_cfg(shape="square"))
    with pytest.raises(ConfigError, match="output"):
        validate_config({**_pairs_cfg(), "output": {"result": 3}})
    with pytest.raises(ConfigError, match="scan"):
        validate_config({"protocol": "scan", "system": {"three_level": {}},
                         "train": {"n_pairs": 2, "pump_area": 1.0,
                                   "dump_area": 1.0},
                         "scan": {"delta_T_values": [10.0]}})
    # a list of pairs is not a train section, though dict() would take it
    with pytest.raises(ConfigError, match="train must be an object"):
        validate_config({"protocol": "scan", "system": {"three_level": {}},
                         "train": [["n_pairs", 2]],
                         "scan": {"delta_T_values": [10.0],
                                  "delta_t_values": [4.0]}})


def test_scan_workers_must_be_a_positive_int(tmp_path):
    cfg = {"protocol": "scan", "system": {"three_level": {}},
           "train": {"n_pairs": 2, "pump_area": 1.0, "dump_area": 1.0},
           "scan": {"delta_T_values": [10.0], "delta_t_values": [4.0]}}
    validate_config({**cfg, "scan": {**cfg["scan"], "workers": 2}})
    for bad in ("2", 2.5, 0, True):
        with pytest.raises(ConfigError, match="scan.workers"):
            validate_config({**cfg, "scan": {**cfg["scan"], "workers": bad}})

    map_path = tmp_path / "map.csv"
    text = _write_cfg(tmp_path, "text.cfg",
                      {**cfg, "scan": {**cfg["scan"], "workers": "2"}})
    proc = _cli("scan", "--config", text, "--out", str(map_path))
    assert proc.returncode == 2 and "scan.workers" in proc.stderr
    # --workers 0 is an error, not the default
    ok = _write_cfg(tmp_path, "ok.cfg", cfg)
    proc = _cli("scan", "--config", ok, "--out", str(map_path),
                "--workers", "0")
    assert proc.returncode == 2 and "workers" in proc.stderr
    assert not map_path.exists()


def test_config_numbers_must_be_numbers(tmp_path, capsys):
    revivals = {"protocol": "revivals", "system": {"three_level": {}},
                "revivals": {"t_max": 3.0, "dt": 0.001, "weights": [1.0]}}
    scan = {"protocol": "scan", "system": {"three_level": {}},
            "train": {"n_pairs": 2, "pump_area": 1.0, "dump_area": 1.0},
            "scan": {"delta_T_values": [10.0], "delta_t_start": 3.0,
                     "delta_t_stop": 4.0, "delta_t_points": 2}}
    sweep = {"protocol": "sweep", "system": {"three_level": {}},
             "train": _pairs_cfg()["train"],
             "sweep": {"protocol": "pairs", "parameter": "n_pairs",
                       "values": [2]}}
    for good in (revivals, scan, sweep):
        validate_config(good)
    # a system file's indices are ints, and its energies, carrier anchor
    # and dipoles numbers
    save_system(build_three_level(), str(tmp_path / "sys.json"))
    data = json.loads((tmp_path / "sys.json").read_text())
    system_files = {}
    for key, value in (("target_index", 0.7), ("energy", "5"),
                       ("carrier_anchor", "5"), ("pump_dipoles", [["a"]]),
                       ("dump_dipoles", [[True]]), ("dipole_phases", ["x"])):
        bad = json.loads(json.dumps(data))
        (bad["ground_a"][0] if key == "energy" else bad)[key] = value
        system_files[key] = tmp_path / f"{key}.json"
        system_files[key].write_text(json.dumps(bad))
    for name, cfg, key in (
            # steps is an int of at least 4: a fraction is an error, never
            # truncated, and too few steps are never raised to 4
            *(("pairs", _pairs_cfg(steps=steps), "train.steps")
              for steps in (50.7, 3.5, 3, 0, -5)),
            ("pairs", _pairs_cfg(dump_phase_mask=[]), "train.dump_phase_mask"),
            ("revivals", {**revivals, "revivals": {**revivals["revivals"],
                                                   "weights": []}},
             "revivals.weights"),
            # a scan train sets n_pairs; the scanned delays come from the axes
            ("scan", {**scan, "train": {"pump_area": 1.0, "dump_area": 1.0}},
             "train.n_pairs"),
            *(("pairs", {**_pairs_cfg(), "system": {"file": str(path)}}, key)
              for key, path in system_files.items()),
            ("stirap", {**STIRAP_CFG, "train": {**STIRAP_CFG["train"],
                                               "delta_T": "10"}},
             "train.delta_T"),
            ("pairs", _pairs_cfg(delta_t_small="4"), "train.delta_t_small"),
            ("revivals", {**revivals, "revivals": {**revivals["revivals"],
                                                   "threshold": "x"}},
             "revivals.threshold"),
            ("revivals", {**revivals, "revivals": {**revivals["revivals"],
                                                   "t_max": "x"}},
             "revivals.t_max"),
            # scan axes, sweep values and revival weights name their key
            ("revivals", {**revivals, "revivals": {**revivals["revivals"],
                                                   "weights": ["a"]}},
             "revivals.weights"),
            ("scan", {**scan, "scan": {**scan["scan"], "delta_t_start": "x"}},
             "scan.delta_t_start"),
            ("scan", {**scan, "scan": {**scan["scan"], "delta_T_values": []}},
             "scan.delta_T_values"),
            ("scan", {**scan, "scan": {**scan["scan"], "delta_t_points": 2.5}},
             "scan.delta_t_points"),
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "values": ["a"]}},
             "sweep.values"),
            # json.loads reads NaN, Infinity and -Infinity; none is a number
            *(("pairs", _pairs_cfg(**{key: value}), f"train.{key}")
              for key, value in (("delta_t_small", math.nan),
                                 ("delta_T", math.inf),
                                 ("pump_area", -math.inf),
                                 ("dump_phase_mask", [0.1, math.nan]))),
            ("scan", {**scan, "scan": {**scan["scan"], "delta_t_stop": math.inf}},
             "scan.delta_t_stop"),
            ("scan", {**scan, "scan": {"delta_T_values": [10.0, math.nan],
                                       "delta_t_values": [3.0]}},
             "scan.delta_T_values"),
            ("revivals", {**revivals, "revivals": {**revivals["revivals"],
                                                   "dt": math.nan}},
             "revivals.dt"),
            # a dump phase mask is a list of numbers
            ("pairs", _pairs_cfg(dump_phase_mask="x"), "train.dump_phase_mask"),
            ("scan", {**scan, "train": {**scan["train"],
                                        "dump_phase_mask": ["a"]}},
             "train.dump_phase_mask"),
            # system values have the types of their builder's parameters
            ("pairs", {**_pairs_cfg(), "system": {"three_level": {
                "pump_detuning": "x"}}}, "system.three_level.pump_detuning"),
            *(("pairs", {**_pairs_cfg(), "system": {"synthetic": {
                **SYNTHETIC, key: value}}}, f"system.synthetic.{key}")
              for key, value in (("n_intermediate", "3"), ("center_energy", "a"),
                                 ("spacing_pattern", 45.0),
                                 ("decay_lifetime", "1"),
                                 ("dipole_profile", 1.0),
                                 ("ground_b_energies", ["a"]),
                                 ("initial_index", 0.0)))):
        path = _write_cfg(tmp_path, "bad.cfg", cfg)
        assert main([name, "--config", path, "--quiet"]) == 2
        assert key in capsys.readouterr().err
    for bad in (_pairs_cfg(fwhm=True), _pairs_cfg(n_pairs=True),
                {**_pairs_cfg(), "frame": {"pump_offset": "1"}}):
        with pytest.raises(ConfigError, match="must be"):
            validate_config(bad)
    # null keeps the runner's default where the runner has one
    validate_config(_pairs_cfg(delta_t_small=None, steps=None,
                               dump_phase_mask=None))
    validate_config({"protocol": "crp", "system": {"three_level": {}},
                     "train": {"n_pairs": 4, "delta_T": 10.0, "pump_area": 1.0,
                               "dump_area": 1.0, "alpha_pump": 0.1,
                               "alpha_dump": 0.1, "sigma_pairs": None}})
    validate_config(_pairs_cfg(dump_phase_mask=[0.5], steps=4))
    for synthetic in ({"decay_lifetime": None, "dipole_phases": None},
                      {"dipole_profile": "gaussian", "dipole_phases": [0.1, 0.2]},
                      {"dipole_profile": [1.0, 0.5], "decay_lifetime": 15}):
        validate_config({**_pairs_cfg(),
                         "system": {"synthetic": {**SYNTHETIC, **synthetic}}})


_TRAIN = {"n_pairs": 2, "delta_T": 10.0, "pump_area": 1.0, "dump_area": 1.0}
# per protocol: valid sections its command reads, and the outputs it writes
_READS = {
    "stirap": {"train": _TRAIN},
    "crp": {"train": {**_TRAIN, "alpha_pump": 0.1, "alpha_dump": 0.1}},
    "pairs": {"train": {**_TRAIN, "delta_t_small": 4.0}},
    "scan": {"train": {"n_pairs": 2},
             "scan": {"delta_T_values": [10.0], "delta_t_values": [4.0]}},
    "revivals": {"revivals": {"t_max": 3.0, "dt": 0.001}},
    "sweep": {"train": _TRAIN, "sweep": {"protocol": "stirap",
                                         "parameter": "n_pairs", "values": [2]}},
}
_WRITES = {"stirap": ("result", "trajectory"), "crp": ("result", "trajectory"),
           "pairs": ("result", "trajectory"), "scan": ("map",),
           "revivals": ("revivals",), "sweep": ("sweep",)}
# (protocol, what its config adds to that, the key the error must name)
_UNREAD = [
    *(("stirap", {section: _READS[section][section]}, section)
      for section in ("scan", "sweep", "revivals")),
    ("scan", {"frame": {"pump_offset": 1.0}}, "frame"),
    ("revivals", {"train": _TRAIN}, "train"),
    ("revivals", {"frame": {"pump_offset": 1.0}}, "frame"),
    *((protocol, {"output": {key: key}}, key)
      for protocol in _READS
      for key in ("result", "trajectory", "map", "spectrum", "revivals", "sweep")
      if key not in _WRITES[protocol]),
    ("scan", {"scan": {**_READS["scan"]["scan"], "delta_t_start": "x"}},
     "scan.delta_t_start"),
    ("sweep", {"sweep": {**_READS["sweep"]["sweep"], "points": 3}},
     "sweep.points"),
    # f0_pump sets the comb-locked frame, which a frame section replaces
    *((protocol, {"train": {**_READS[protocol]["train"], "f0_pump": 0.37},
                  "frame": {"pump_offset": 0.5}}, "train.f0_pump")
      for protocol in ("stirap", "sweep")),
]


@pytest.mark.parametrize(
    "protocol, extra, key", _UNREAD,
    ids=[f"{p}-{'output.' if 'output' in e else ''}{k}" for p, e, k in _UNREAD])
def test_config_rejects_what_its_command_does_not_read(protocol, extra, key,
                                                       tmp_path, capsys):
    """A section, an output path or half an axis that the protocol's
    command would ignore exits 2, names the key and writes nothing."""
    cfg = {"protocol": protocol, "system": {"three_level": {}},
           **_READS[protocol],
           "output": {k: str(tmp_path / k) for k in _WRITES[protocol]}}
    validate_config(cfg)
    extra = {**extra, "output": {**cfg["output"], **extra.get("output", {})}}
    path = _write_cfg(tmp_path, "bad.cfg", {**cfg, **extra})
    assert main([protocol, "--config", path, "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_sweep_of_fractional_pair_counts_exits_2(tmp_path, capsys):
    """A start/stop/points range of n_pairs that falls between integers
    fails before any run instead of running rounded counts."""
    path = _write_cfg(tmp_path, "sweep.cfg", {
        "protocol": "sweep", "system": {"three_level": {}}, "train": _TRAIN,
        "sweep": {"protocol": "stirap", "parameter": "n_pairs",
                  "start": 2, "stop": 4, "points": 4}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 2
    assert "n_pairs values must be integers, got 2.66" in capsys.readouterr().err
    assert not out.exists()


def test_scan_and_sweep_check_the_output_path_first(tmp_path, monkeypatch,
                                                   capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "scan_2d", never)
    monkeypatch.setattr(cli, "robustness_sweep", never)
    train = _pairs_cfg()["train"]
    scan = {"protocol": "scan", "system": {"three_level": {}},
            "train": {"n_pairs": 2, "pump_area": 1.0, "dump_area": 1.0},
            "scan": {"delta_T_values": [10.0], "delta_t_values": [4.0]}}
    sweep = {"protocol": "sweep", "system": {"three_level": {}},
             "train": train, "sweep": {"protocol": "pairs",
                                       "parameter": "n_pairs", "values": [2]}}
    for name, cfg, message in (
            ("scan", scan, "scan needs --out or an output.map path"),
            ("sweep", sweep, "sweep needs --out or an output.sweep path")):
        path = _write_cfg(tmp_path, f"{name}.cfg", cfg)
        assert main([name, "--config", path, "--quiet"]) == 2
        assert message in capsys.readouterr().err


def test_build_system_from_config(tmp_path):
    cfg = {"protocol": "pairs",
           "system": {"three_level": {"pump_detuning": 5.0}},
           "train": _pairs_cfg()["train"]}
    sys3 = build_system(cfg)
    assert sys3.energies()[1] == 5.0

    syn = {"protocol": "pairs",
           "system": {"synthetic": {"n_intermediate": 3,
                                    "center_energy": 11200.0,
                                    "spacing_pattern": [25.0],
                                    "decay_lifetime": 15.0}},
           "train": _pairs_cfg()["train"]}
    mol = build_system(syn)
    assert mol.n_excited == 3
    assert mol.decay_rates()[mol.slice_excited()].max() > 0.0
    # decay false strips every rate
    stripped = build_system({**syn, "decay": False})
    assert np.all(stripped.decay_rates() == 0.0)

    path = tmp_path / "sys.json"
    save_system(build_three_level(), str(path))
    from_file = build_system({"protocol": "pairs",
                              "system": {"file": str(path)},
                              "train": _pairs_cfg()["train"]})
    assert from_file.labels == ("g", "e", "t")
    with pytest.raises(ConfigError, match="cannot load"):
        build_system({"protocol": "pairs",
                      "system": {"file": str(tmp_path / "nope.json")},
                      "train": _pairs_cfg()["train"]})


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


# --- command line ---

def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "papsim", *args],
                          capture_output=True, text=True, cwd=cwd)


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


STIRAP_CFG = {
    "protocol": "stirap",
    "system": {"three_level": {}},
    "train": {"n_pairs": 10, "delta_T": 10.0, "pump_area": 5.0 * math.pi,
              "dump_area": 5.0 * math.pi},
}


def test_cli_stirap_run(tmp_path):
    cfg = _write_cfg(tmp_path, "run.cfg", STIRAP_CFG)
    out = tmp_path / "result.json"
    traj = tmp_path / "traj.csv"
    proc = _cli("stirap", "--config", cfg, "--out", str(out),
                "--trajectory", str(traj))
    assert proc.returncode == 0, proc.stderr
    assert "final_target=" in proc.stdout
    data = json.loads(out.read_text())
    direct = run_piecewise_stirap(build_three_level(), n_pairs=10,
                                  delta_T=10.0, pump_area=5.0 * math.pi,
                                  dump_area=5.0 * math.pi, record="dense")
    assert abs(data["result"]["final_target_population"]
               - direct.final_target_population) < 1e-12
    assert data["result"]["trajectory_file"] == str(traj)
    assert traj.exists()
    # config carried verbatim, fingerprint present
    assert data["config"]["train"]["n_pairs"] == 10
    assert len(data["fingerprint"]) == 16


def test_cli_is_deterministic_and_does_not_mutate_the_config(tmp_path):
    cfg_path = _write_cfg(tmp_path, "run.cfg", STIRAP_CFG)
    before = open(cfg_path, "rb").read()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"result_{tag}.json"
        proc = _cli("stirap", "--config", cfg_path, "--out", str(out), "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert open(cfg_path, "rb").read() == before


def test_cli_scan_and_fft(tmp_path):
    tooth = 1.0 / (0.0299792458 * 11145.0)
    delta_T = round(20.0 / tooth) * tooth
    cfg = _write_cfg(tmp_path, "scan.cfg", {
        "protocol": "scan",
        "system": {"synthetic": {"n_intermediate": 2,
                                 "center_energy": 11145.0,
                                 "spacing_pattern": [45.0],
                                 "ground_b_energies": [-500.0]}},
        "train": {"n_pairs": 4, "pump_area": 1.0, "dump_area": 1.0},
        "scan": {"delta_T_values": [delta_T],
                 "delta_t_start": 1.0, "delta_t_stop": 3.9645, "delta_t_points": 16},
    })
    map_path = tmp_path / "map.csv"
    proc = _cli("scan", "--config", cfg, "--out", str(map_path))
    assert proc.returncode == 0, proc.stderr
    assert "map 16x1" in proc.stdout

    spec_path = tmp_path / "spec.csv"
    proc = _cli("analyze-fft", "--map", str(map_path), "--column", "0",
                "--out", str(spec_path))
    assert proc.returncode == 0, proc.stderr
    assert "strongest beat" in proc.stdout
    assert spec_path.exists()

    proc = _cli("analyze-fft", "--map", str(map_path), "--column", "5",
                "--out", str(spec_path))
    assert proc.returncode == 2


def test_cli_scan_reports_failed_cells(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "scan.cfg", {
        "protocol": "scan", "system": {"three_level": {}},
        "train": {"n_pairs": 2, "pump_area": 1.0, "dump_area": 1.0,
                  "steps": 100},
        "scan": {"delta_T_values": [10.0], "delta_t_values": [0.05, 4.0]}})
    map_path = tmp_path / "map.csv"
    assert main(["scan", "--config", cfg, "--out", str(map_path),
                 "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "1 of 2 scan cells failed" in err
    assert "delta_t=0.05, delta_T=10: pulse supports overlap" in err


def test_cli_sweep_and_revivals(tmp_path):
    sweep_cfg = _write_cfg(tmp_path, "sweep.cfg", {
        "protocol": "sweep",
        "system": {"three_level": {}},
        "train": {"n_pairs": 5, "delta_T": 10.0, "delta_t_small": 5.0,
                  "pump_area": math.pi, "dump_area": math.pi},
        "sweep": {"protocol": "pairs", "parameter": "n_pairs",
                  "values": [2, 5]},
    })
    out = tmp_path / "sweep.csv"
    proc = _cli("sweep", "--config", sweep_cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "sweep of n_pairs" in proc.stdout

    # failed points are counted on stderr with the first reason
    ramps_cfg = _write_cfg(tmp_path, "ramps.cfg", {
        "protocol": "sweep",
        "system": {"three_level": {}},
        "train": {"n_pairs": 4, "delta_T": 10.0, "pump_area": math.pi,
                  "dump_area": math.pi, "steps": 100},
        "sweep": {"protocol": "stirap", "parameter": "n_pairs",
                  "values": [1, 4]},
    })
    proc = _cli("sweep", "--config", ramps_cfg, "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert "1 of 2 sweep points failed" in proc.stderr
    assert "n_pairs=1: stirap ramps need n_pairs >= 2" in proc.stderr

    rev_cfg = _write_cfg(tmp_path, "rev.cfg", {
        "protocol": "revivals",
        "system": {"synthetic": {"n_intermediate": 3,
                                 "center_energy": 11200.0,
                                 "spacing_pattern": [25.0]}},
        "revivals": {"t_max": 3.0, "dt": 0.001},
    })
    rev_out = tmp_path / "revivals.csv"
    proc = _cli("revivals", "--config", rev_cfg, "--out", str(rev_out))
    assert proc.returncode == 0, proc.stderr
    assert "revival" in proc.stdout
    assert rev_out.exists()


def test_cli_exit_codes(tmp_path):
    # 2: malformed config
    bad = _write_cfg(tmp_path, "bad.cfg", {**STIRAP_CFG, "typo": 1})
    proc = _cli("stirap", "--config", bad)
    assert proc.returncode == 2
    assert "unknown keys" in proc.stderr

    # 2: config protocol does not match the subcommand
    cfg = _write_cfg(tmp_path, "ok.cfg", STIRAP_CFG)
    proc = _cli("crp", "--config", cfg)
    assert proc.returncode == 2

    # 3: numerical blow-up is reported, not hidden
    hot = dict(STIRAP_CFG)
    hot["train"] = {**STIRAP_CFG["train"], "n_pairs": 2,
                    "pump_area": 1e12, "dump_area": 1e12, "steps": 50}
    hot_path = _write_cfg(tmp_path, "hot.cfg", hot)
    proc = _cli("stirap", "--config", hot_path, "--quiet")
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr

    # 4: missing config file names the path
    proc = _cli("stirap", "--config", str(tmp_path / "absent.cfg"))
    assert proc.returncode == 4
    assert "absent.cfg" in proc.stderr


def test_cli_version():
    proc = _cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()
