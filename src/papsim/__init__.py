"""Piecewise adiabatic population transfer in driven multi-level systems.

Pulse-train protocols (piecewise STIRAP, chirped Raman passage, plain
pump-dump pair trains), their smooth adiabatic references, delay-scan
maps with beat-spectrum analysis, and wave-packet revival diagnostics.
Units throughout: energies in cm^-1, times in ps, Rabi rates and phases
in rad (rad/ps).
"""

__version__ = "0.1.0"

from .units import C_CM_PER_PS, K_RAD_PS_PER_CM
from .levels import (Level, LevelSystem, SyntheticMoleculeSpec,
                     build_synthetic_molecule, build_three_level, load_system,
                     raman_shift, save_system, strip_decay, system_from_dict,
                     system_to_dict, validate_system)
from .fields import (PulseSpec, TrainEvent, TrainSchedule, build_train,
                     design_dump_phase_mask, make_pulse, make_schedule,
                     rabi_envelope)
from .propagator import (NumericsError, QuantumState, PhaseFrame, Trajectory,
                         free_evolve, ground_state, propagate_pulse,
                         propagate_window, run_schedule)
from .protocols import (RunResult, reference_envelopes, result_from_trajectory,
                        run_pair_train, run_piecewise_crp,
                        run_piecewise_stirap, run_reference_ap,
                        train_from_reference)
from .scan import (BeatSpectrum, EfficiencyMap, RevivalReport, SweepResult,
                   fft_delta_t, revival_diagnostics, robustness_sweep,
                   scan_2d)
from .config import (ConfigError, build_system, config_fingerprint,
                     load_config, validate_config)
from .io import (read_map_csv, write_map_csv, write_result_json,
                 write_spectrum_csv, write_sweep_csv, write_trajectory_csv)

__all__ = [
    "C_CM_PER_PS", "K_RAD_PS_PER_CM",
    "Level", "LevelSystem", "SyntheticMoleculeSpec", "build_synthetic_molecule",
    "build_three_level", "load_system", "raman_shift", "save_system",
    "strip_decay", "system_from_dict", "system_to_dict", "validate_system",
    "PulseSpec", "TrainEvent", "TrainSchedule", "build_train",
    "design_dump_phase_mask", "make_pulse", "make_schedule", "rabi_envelope",
    "NumericsError", "QuantumState", "PhaseFrame", "Trajectory",
    "free_evolve", "ground_state", "propagate_pulse", "propagate_window",
    "run_schedule",
    "RunResult", "reference_envelopes", "result_from_trajectory",
    "run_pair_train", "run_piecewise_crp", "run_piecewise_stirap",
    "run_reference_ap", "train_from_reference",
    "BeatSpectrum", "EfficiencyMap", "RevivalReport", "SweepResult",
    "fft_delta_t", "revival_diagnostics", "robustness_sweep", "scan_2d",
    "ConfigError", "build_system", "load_config", "validate_config",
    "config_fingerprint", "read_map_csv", "write_map_csv", "write_result_json",
    "write_spectrum_csv", "write_sweep_csv", "write_trajectory_csv",
]
