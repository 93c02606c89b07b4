"""Level-system builders, validation, and file round-trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from papsim import (Level, LevelSystem, SyntheticMoleculeSpec,
                    build_synthetic_molecule, build_three_level, load_system,
                    raman_shift, save_system, strip_decay, system_from_dict,
                    system_to_dict, validate_system)


def test_three_level_layout():
    sys3 = build_three_level(pump_detuning=5.0, dump_detuning=-3.0)
    assert sys3.n_levels == 3
    assert sys3.labels == ("g", "e", "t")
    assert np.allclose(sys3.energies(), [0.0, 5.0, 8.0])
    assert validate_system(sys3) == []
    # anchor pinned at zero so the nominal carrier is detuned by pump_detuning
    assert sys3.anchor_energy() == 0.0
    assert raman_shift(sys3) == -8.0


def test_three_level_decay():
    sys3 = build_three_level(decay_rate=1.0 / 15000.0)
    assert np.allclose(sys3.decay_rates(), [0.0, 1.0 / 15000.0, 0.0])
    stable = strip_decay(sys3)
    assert np.all(stable.decay_rates() == 0.0)
    # original untouched
    assert sys3.decay_rates()[1] > 0.0


def test_global_ordering_and_slices():
    spec = SyntheticMoleculeSpec(3, 11200.0, (25.0,),
                                 ground_a_energies=(0.0, 90.0),
                                 ground_b_energies=(-2333.0,))
    mol = build_synthetic_molecule(spec)
    assert mol.n_levels == 6
    assert mol.slice_ground_a() == slice(0, 2)
    assert mol.slice_excited() == slice(2, 5)
    assert mol.slice_ground_b() == slice(5, 6)
    assert mol.initial_index == 0
    assert mol.target_global_index == 5
    assert mol.labels == ("a0", "a1", "e0", "e1", "e2", "b0")


def test_synthetic_spacings_cycle():
    # two-gap pattern over five levels cycles 7, 3, 7, 3
    spec = SyntheticMoleculeSpec(5, 11000.0, (7.0, 3.0))
    mol = build_synthetic_molecule(spec)
    e = np.array([lv.energy for lv in mol.excited])
    assert e[0] == 11000.0
    assert np.allclose(np.diff(e), [7.0, 3.0, 7.0, 3.0], rtol=0, atol=0)


def test_synthetic_gaussian_profile():
    spec = SyntheticMoleculeSpec(5, 11200.0, (25.0,), dipole_profile="gaussian")
    mol = build_synthetic_molecule(spec)
    prof = mol.pump_dipoles[0]
    j = np.arange(5)
    expected = np.exp(-((j - 2.0) ** 2) / (2.0 * (5.0 / 4.0) ** 2))
    assert np.allclose(prof, expected)
    assert np.allclose(mol.dump_dipoles[0], expected)
    # symmetric about the middle level, peaked there
    assert prof[2] == 1.0
    assert abs(prof[0] - prof[4]) < 1e-15


def test_synthetic_explicit_profile_and_lifetime():
    spec = SyntheticMoleculeSpec(3, 11200.0, (25.0,),
                                 dipole_profile=(0.2, 1.0, 0.4),
                                 decay_lifetime=15.0)
    mol = build_synthetic_molecule(spec)
    assert np.allclose(mol.pump_dipoles[0], [0.2, 1.0, 0.4])
    # 15 ns lifetime in 1/ps units
    assert np.allclose([lv.decay_rate for lv in mol.excited], 1.0 / 15000.0)
    assert np.all(mol.decay_rates()[mol.slice_ground_a()] == 0.0)


def test_synthetic_rejects_bad_input():
    with pytest.raises(ValueError):
        build_synthetic_molecule(SyntheticMoleculeSpec(0, 11200.0, (25.0,)))
    with pytest.raises(ValueError):
        build_synthetic_molecule(SyntheticMoleculeSpec(3, 11200.0, ()))
    with pytest.raises(ValueError):
        build_synthetic_molecule(SyntheticMoleculeSpec(3, 11200.0, (25.0, -1.0)))
    with pytest.raises(ValueError):
        build_synthetic_molecule(
            SyntheticMoleculeSpec(3, 11200.0, (25.0,), dipole_profile=(1.0, 1.0)))
    with pytest.raises(ValueError):
        build_synthetic_molecule(
            SyntheticMoleculeSpec(3, 11200.0, (25.0,), decay_lifetime=0.0))
    with pytest.raises(ValueError):
        build_synthetic_molecule(
            SyntheticMoleculeSpec(3, 11200.0, (25.0,), dipole_phases=(0.0,)))


def test_raman_shift_sign():
    spec = SyntheticMoleculeSpec(2, 11200.0, (25.0,),
                                 ground_a_energies=(0.0,),
                                 ground_b_energies=(-2333.0,))
    mol = build_synthetic_molecule(spec)
    # initial above target: positive shift
    assert raman_shift(mol) == 2333.0
    swapped = SyntheticMoleculeSpec(2, 11200.0, (25.0,),
                                    ground_a_energies=(-2333.0,),
                                    ground_b_energies=(0.0,))
    assert raman_shift(build_synthetic_molecule(swapped)) == -2333.0


def test_anchor_follows_strongest_pump_dipole():
    spec = SyntheticMoleculeSpec(4, 11000.0, (10.0,),
                                 dipole_profile=(0.1, 0.3, 1.0, 0.2))
    mol = build_synthetic_molecule(spec)
    assert mol.anchor_energy() == 11020.0


def test_validate_reports_problems():
    good = build_three_level()
    bad_shape = LevelSystem(
        ground_a=good.ground_a, excited=good.excited, ground_b=good.ground_b,
        pump_dipoles=np.ones((2, 1)), dump_dipoles=np.ones((1, 1)))
    assert any("pump_dipoles shape" in p for p in validate_system(bad_shape))

    dead = LevelSystem(
        ground_a=good.ground_a, excited=good.excited, ground_b=good.ground_b,
        pump_dipoles=np.zeros((1, 1)), dump_dipoles=np.ones((1, 1)))
    assert any("pump channel is dead" in p for p in validate_system(dead))

    neg = LevelSystem(
        ground_a=good.ground_a,
        excited=(Level("e", 11200.0, -1.0),),
        ground_b=good.ground_b,
        pump_dipoles=np.ones((1, 1)), dump_dipoles=np.ones((1, 1)))
    assert any("negative decay rate" in p for p in validate_system(neg))

    dup = LevelSystem(
        ground_a=(Level("x", 0.0),), excited=(Level("x", 11200.0),),
        ground_b=(Level("t", -2333.0),),
        pump_dipoles=np.ones((1, 1)), dump_dipoles=np.ones((1, 1)))
    assert any("not unique" in p for p in validate_system(dup))

    oob = LevelSystem(
        ground_a=good.ground_a, excited=good.excited, ground_b=good.ground_b,
        pump_dipoles=np.ones((1, 1)), dump_dipoles=np.ones((1, 1)),
        initial_index=3)
    assert any("initial_index" in p for p in validate_system(oob))


def test_dict_round_trip():
    spec = SyntheticMoleculeSpec(3, 11200.0, (25.0,),
                                 dipole_profile="gaussian",
                                 decay_lifetime=15.0,
                                 dipole_phases=(0.0, 0.5, -0.5))
    mol = build_synthetic_molecule(spec)
    back = system_from_dict(system_to_dict(mol))
    assert back.labels == mol.labels
    assert np.allclose(back.energies(), mol.energies(), rtol=0, atol=0)
    assert np.allclose(back.decay_rates(), mol.decay_rates(), rtol=0, atol=0)
    assert np.allclose(back.pump_dipoles, mol.pump_dipoles, rtol=0, atol=0)
    assert np.allclose(back.dipole_phases, mol.dipole_phases, rtol=0, atol=0)
    assert back.initial_index == mol.initial_index
    assert back.target_index == mol.target_index


def test_file_round_trip_and_unknown_keys(tmp_path):
    mol = build_three_level(pump_detuning=2.0)
    path = tmp_path / "system.json"
    save_system(mol, str(path))
    back = load_system(str(path))
    assert np.allclose(back.energies(), mol.energies(), rtol=0, atol=0)
    assert back.carrier_anchor == 0.0

    data = system_to_dict(mol)
    data["typo_field"] = 1
    with pytest.raises(ValueError):
        system_from_dict(data)

    data = system_to_dict(mol)
    data["format_version"] = 99
    with pytest.raises(ValueError):
        system_from_dict(data)


def test_a_failed_save_keeps_the_earlier_file(tmp_path):
    """A system that fails to serialise (a numpy float is not JSON) leaves
    the file it would replace byte for byte, and no temporary file."""
    path = tmp_path / "system.json"
    save_system(build_three_level(), str(path))
    before = path.read_bytes()
    bad = replace(build_three_level(), carrier_anchor=np.float32(0.5))
    with pytest.raises(TypeError):
        save_system(bad, str(path))
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    assert load_system(str(path)).carrier_anchor == 0.0


def test_system_file_values_take_their_types():
    data = json.loads(json.dumps(system_to_dict(build_three_level())))
    # JSON ints are fine energies, decay rates and anchors, and load as floats
    data["excited"][0].update(energy=11000, decay_rate=0)
    data["carrier_anchor"] = 5
    back = system_from_dict(data)
    assert type(back.excited[0].energy) is float
    assert type(back.carrier_anchor) is float and back.carrier_anchor == 5.0
    assert back.excited[0].energy == 11000.0
    for manifold, key, value in (
            (None, "target_index", 0.7), (None, "initial_index", True),
            ("excited", "energy", "5"), ("excited", "decay_rate", None),
            ("ground_b", "energy", [1.0]), (None, "carrier_anchor", "5"),
            (None, "pump_dipoles", [["a"]]), (None, "dump_dipoles", [[None]]),
            (None, "dipole_phases", [True])):
        bad = json.loads(json.dumps(data))
        (bad if manifold is None else bad[manifold][0])[key] = value
        with pytest.raises(ValueError, match=key):
            system_from_dict(bad)
