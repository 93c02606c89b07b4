"""High-level runners for the piecewise transfer schemes.

The three train protocols (stirap, crp, pairs) differ only in the
train kind, which sets the pulse weights and phases, so their runners
wrap one private runner. It assembles the schedule, propagates the
system's initial state through it, and reduces the trajectory to a
RunResult: the end-state population accounting plus the peak transient
excited population seen anywhere along the run. RUNNERS maps each
protocol name to its runner.

The smooth reference passage (run_reference_ap) drives the same
Hamiltonian with continuous overlapping envelopes instead of a train;
train_from_reference chops such a reference into a schedule whose
pulses carry the integral action of the envelope over each interval,
which is the piecewise prescription.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

from .fields import (
    TrainEvent,
    TrainSchedule,
    _pair_trains,
    build_train,
    make_pulse,
    make_schedule,
)
from .levels import LevelSystem
from .propagator import (
    PhaseFrame,
    Trajectory,
    ground_state,
    propagate_window,
    run_schedule,
)

DEFAULT_SHAPE = "sin2"
DEFAULT_FWHM_FS = 110.0

# Total integral action (rad) per channel when a runner is not told
# otherwise. 5 pi over 50 stirap pairs is pi/10 per pulse on average,
# comfortably in the many-weak-kicks regime; crp needs more action for
# the same adiabaticity because the passage runs through the bright
# states.
DEFAULT_STIRAP_AREA = 5.0 * math.pi
DEFAULT_CRP_AREA = 8.0 * math.pi
DEFAULT_PAIR_AREA = math.pi


@dataclass(frozen=True)
class RunResult:
    """End-state accounting of one transfer run.

    Fractions refer to populations at the final trajectory sample:
    final_target_population and final_initial_population are the target
    and initial levels themselves, leaked_ground_a / leaked_ground_b the
    remaining population of their manifolds (neighbor leakage),
    residual_excited the excited manifold, and decayed_loss the norm
    lost to decay. These six add to 1 up to rounding. None is clamped at
    0, so a negative decayed_loss shows norm growth (integrator error).
    max_transient_excited is the largest excited-manifold population at
    any recorded sample, so it is only as sharp as the run's sampling
    (records inside pulses when the run uses record="dense").
    """

    final_target_population: float
    final_initial_population: float
    leaked_ground_a: float
    leaked_ground_b: float
    residual_excited: float
    decayed_loss: float
    max_transient_excited: float
    trajectory: Trajectory
    schedule: TrainSchedule | None
    frame: PhaseFrame
    details: dict = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        return self.final_target_population

    def accounted_total(self) -> float:
        """Sum of the six population fractions; 1 up to rounding."""
        return (self.final_target_population + self.final_initial_population
                + self.leaked_ground_a + self.leaked_ground_b
                + self.residual_excited + self.decayed_loss)

    def summary(self) -> str:
        return (f"final_target={self.final_target_population:.6f} "
                f"final_initial={self.final_initial_population:.6f} "
                f"leaked_a={self.leaked_ground_a:.3e} "
                f"leaked_b={self.leaked_ground_b:.3e} "
                f"residual_excited={self.residual_excited:.3e} "
                f"decayed={self.decayed_loss:.3e} "
                f"max_transient_excited={self.max_transient_excited:.4f}")


def result_from_trajectory(system: LevelSystem, trajectory: Trajectory,
                           schedule: TrainSchedule | None, frame: PhaseFrame,
                           details: dict | None = None) -> RunResult:
    """Reduce a propagated trajectory to the RunResult accounting."""
    pops = trajectory.final_state.populations()
    i0 = system.initial_index
    it = system.target_global_index
    final_target = float(pops[it])
    final_initial = float(pops[i0])
    leaked_a = float(pops[system.slice_ground_a()].sum()) - final_initial
    leaked_b = float(pops[system.slice_ground_b()].sum()) - final_target
    residual = float(pops[system.slice_excited()].sum())
    decayed = 1.0 - float(pops.sum())
    transient = float(
        trajectory.populations[:, system.slice_excited()].sum(axis=1).max())
    return RunResult(
        final_target_population=final_target,
        final_initial_population=final_initial,
        leaked_ground_a=leaked_a,
        leaked_ground_b=leaked_b,
        residual_excited=residual,
        decayed_loss=decayed,
        max_transient_excited=transient,
        trajectory=trajectory,
        schedule=schedule,
        frame=frame,
        details=details or {},
    )


def _train(protocol: str, kind: str, levels: LevelSystem, n_pairs: int,
           delta_T: float, delta_t_small: float | None, pump_area: float,
           dump_area: float, *, shape: str, fwhm: float,
           frame: PhaseFrame | None, f0_pump: float,
           dump_phase_mask: tuple[float, ...] | None = None, alpha_pump: float = 0.0,
           alpha_dump: float = 0.0, sigma_pairs: float | None = None,
           extra_pump_dump_delay: float = 0.0):
    """build_train's (args, kwargs), the frame and the details of a
    runner; only "crp" reads the chirp."""
    if delta_t_small is None:
        delta_t_small = delta_T / 2.0
    chirp = {}
    if kind == "crp":
        delta_t_small += extra_pump_dump_delay
        chirp = {"alpha_pump": alpha_pump, "alpha_dump": alpha_dump}
    if frame is None:
        frame = PhaseFrame.comb_locked(levels, delta_T, f0_pump)
    elif f0_pump:
        raise ValueError("f0_pump sets the comb-locked frame and cannot be "
                         "combined with a frame")
    pump = make_pulse(shape, fwhm, pump_area, channel="pump")
    dump = make_pulse(shape, fwhm, dump_area, channel="dump",
                      phase_mask=dump_phase_mask)
    train = ((kind, n_pairs, delta_T, delta_t_small, pump, dump),
             {"sigma_pairs": sigma_pairs, **chirp})
    details = {"protocol": protocol, "n_pairs": n_pairs, "delta_T": delta_T,
               "delta_t_small": delta_t_small, **chirp,
               "pump_area": pump_area, "dump_area": dump_area,
               "shape": shape, "fwhm": fwhm}
    if kind == "crp":
        details["extra_pump_dump_delay"] = extra_pump_dump_delay
    return train, frame, details


def _run_train(protocol: str, kind: str, levels: LevelSystem, *args,
               record: str, steps: int | None, **kwargs) -> RunResult:
    """The body of the three train runners."""
    (train_args, train_kwargs), frame, details = _train(
        protocol, kind, levels, *args, **kwargs)
    schedule = build_train(*train_args, **train_kwargs)
    state = ground_state(levels, schedule.start_time)
    traj = run_schedule(state, levels, schedule, frame, record=record,
                        steps=steps)
    details["diagnostics"] = traj.diagnostics
    return result_from_trajectory(levels, traj, schedule, frame, details)


def _pair_column(levels: LevelSystem, delta_t_axis, **kwargs):
    """The stacked schedules of run_pair_train(levels, delta_t_small=dt,
    **kwargs) for every dt of delta_t_axis whose pulses do not overlap,
    {row: reason} of those that do, the frame and the steps. The
    signature, whose defaults are the only ones, is bound once per
    column; scan columns use it."""
    args = inspect.signature(run_pair_train).bind(levels, delta_t_small=None,
                                                  **kwargs)
    args.apply_defaults()
    steps, _ = args.arguments.pop("steps"), args.arguments.pop("record")
    ((kind, n_pairs, delta_T, _, pump, dump), chirp), frame, _ = _train(
        "pairs", "flat_pairs", **args.arguments)
    schedules, errors = _pair_trains(kind, n_pairs, delta_T, delta_t_axis,
                                     pump, dump, **chirp)
    return schedules, errors, frame, steps


def run_piecewise_stirap(levels: LevelSystem, n_pairs: int, delta_T: float,
                         pump_area: float = DEFAULT_STIRAP_AREA,
                         dump_area: float = DEFAULT_STIRAP_AREA, *,
                         delta_t_small: float | None = None,
                         shape: str = DEFAULT_SHAPE,
                         fwhm: float = DEFAULT_FWHM_FS,
                         dump_phase_mask: tuple[float, ...] | None = None,
                         frame: PhaseFrame | None = None,
                         f0_pump: float = 0.0,
                         record: str = "dense",
                         steps: int | None = None) -> RunResult:
    """Piecewise STIRAP: linear counter-ramped train, constant phase.

    pump_area and dump_area are the total integral action (rad) of each
    channel over the whole train; pulse n carries its ramp weight's
    share. The frame defaults to the comb-locked one for delta_T, so
    both carriers sit on comb teeth and the two-photon (Raman) offset is
    kept exact.
    """
    return _run_train(
        "stirap", "stirap", levels, n_pairs, delta_T, delta_t_small,
        pump_area, dump_area, shape=shape, fwhm=fwhm,
        dump_phase_mask=dump_phase_mask, frame=frame, f0_pump=f0_pump,
        record=record, steps=steps)


def run_piecewise_crp(levels: LevelSystem, n_pairs: int, delta_T: float,
                      alpha_pump: float, alpha_dump: float,
                      extra_pump_dump_delay: float = 0.0, *,
                      pump_area: float = DEFAULT_CRP_AREA,
                      dump_area: float = DEFAULT_CRP_AREA,
                      delta_t_small: float | None = None,
                      sigma_pairs: float | None = None,
                      shape: str = DEFAULT_SHAPE,
                      fwhm: float = DEFAULT_FWHM_FS,
                      frame: PhaseFrame | None = None,
                      f0_pump: float = 0.0,
                      record: str = "dense",
                      steps: int | None = None) -> RunResult:
    """Piecewise chirped Raman passage: Gaussian weights, quadratic phases.

    The pulse-to-pulse phase staircases alpha_pump and alpha_dump (rad
    per pair index squared) implement the frequency chirp; their sum
    sets the two-photon sweep rate. extra_pump_dump_delay shifts the
    pump comb as a delay stage would; a transfer this adiabatic should
    barely notice.
    """
    return _run_train(
        "crp", "crp", levels, n_pairs, delta_T, delta_t_small,
        pump_area, dump_area, shape=shape, fwhm=fwhm, frame=frame,
        f0_pump=f0_pump, record=record, steps=steps, alpha_pump=alpha_pump,
        alpha_dump=alpha_dump, sigma_pairs=sigma_pairs,
        extra_pump_dump_delay=extra_pump_dump_delay)


def run_pair_train(levels: LevelSystem, n_pairs: int, delta_T: float,
                   delta_t_small: float | None, *,
                   pump_area: float = DEFAULT_PAIR_AREA,
                   dump_area: float = DEFAULT_PAIR_AREA,
                   shape: str = DEFAULT_SHAPE,
                   fwhm: float = DEFAULT_FWHM_FS,
                   dump_phase_mask: tuple[float, ...] | None = None,
                   frame: PhaseFrame | None = None,
                   f0_pump: float = 0.0,
                   record: str = "compressed",
                   steps: int | None = None) -> RunResult:
    """Unshaped train of identical pump-dump pairs.

    All pulses share the per-pulse area (total area / n_pairs) and a
    constant phase; transfer lives or dies by the interference of the
    per-pair transition amplitudes, which is what the delay scans map
    out. The comb-locked default frame keeps the Raman offset exact
    while delta_T moves the teeth, matching how a locked scan is run.
    n_pairs = 0 is the identity.
    """
    return _run_train(
        "pairs", "flat_pairs", levels, n_pairs, delta_T, delta_t_small,
        pump_area, dump_area, shape=shape, fwhm=fwhm,
        dump_phase_mask=dump_phase_mask, frame=frame, f0_pump=f0_pump,
        record=record, steps=steps)


# the CLI and the robustness sweeps dispatch through this table;
# config._TRAIN_KEYS holds the same protocol names
RUNNERS = {"stirap": run_piecewise_stirap, "crp": run_piecewise_crp,
           "pairs": run_pair_train}


# --- smooth reference passage ---

def reference_envelopes(kind: str, duration: float, peak_rabi: float,
                        chirp_rate: float = 0.0):
    """Envelope and phase callables of the smooth reference passage.

    Returns (pump_rabi, dump_rabi, pump_phase, dump_phase), each a
    function of absolute time over [0, duration]. Both envelopes are
    Gaussians of width sigma = duration/8 and peak peak_rabi.

    stirap: dump centered 1.1 sigma ahead of the pump, plain carriers.
    crp: coincident Gaussians at the midpoint with opposite quadratic
    phase chirp_rate*(t - t_mid)^2 / 2, so the two-photon detuning
    sweeps at 2*chirp_rate through the Raman resonance.
    """
    if kind not in ("stirap", "crp"):
        raise ValueError(f"kind must be 'stirap' or 'crp', got {kind!r}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    for name, value in (("peak_rabi", peak_rabi), ("chirp_rate", chirp_rate)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    sig = duration / 8.0
    t_mid = duration / 2.0

    if kind == "stirap":
        t_dump = t_mid - 1.1 * sig / 2.0
        t_pump = t_mid + 1.1 * sig / 2.0
        pump = lambda t: peak_rabi * math.exp(-0.5 * ((t - t_pump) / sig) ** 2)
        dump = lambda t: peak_rabi * math.exp(-0.5 * ((t - t_dump) / sig) ** 2)
        return pump, dump, None, None

    pump = lambda t: peak_rabi * math.exp(-0.5 * ((t - t_mid) / sig) ** 2)
    dump = pump
    pump_phase = lambda t: 0.5 * chirp_rate * (t - t_mid) ** 2
    dump_phase = lambda t: -0.5 * chirp_rate * (t - t_mid) ** 2
    return pump, dump, pump_phase, dump_phase


def run_reference_ap(levels: LevelSystem, kind: str, duration: float,
                     peak_rabi: float, chirp_rate: float = 0.0, *,
                     frame: PhaseFrame | None = None,
                     steps: int | None = None) -> RunResult:
    """Smooth adiabatic reference: continuous envelopes, same Hamiltonian.

    kind "stirap" drives the counterintuitive Gaussian pair, "crp" the
    coincident chirped pair, both shaped as in reference_envelopes.
    Everything else (frame, couplings, decay) is identical to the train
    runners, which is the point: differences against a chopped train
    isolate the piecewise discretization. steps=None takes the count
    from the tolerance rule of propagate_window (sixth-order Magnus
    steps), at most max(4000, 200 per ps);
    details["diagnostics"] reports it. The trajectory records every
    max(1, steps // 400) steps.
    """
    pump, dump, pump_phase, dump_phase = reference_envelopes(
        kind, duration, peak_rabi, chirp_rate)
    if frame is None:
        frame = PhaseFrame.for_system(levels)
    state = ground_state(levels, 0.0)
    traj = propagate_window(state, levels, pump, dump, frame, duration,
                            steps, pump_phase=pump_phase,
                            dump_phase=dump_phase)
    details = {"protocol": f"reference_{kind}", "duration": duration,
               "peak_rabi": peak_rabi, "chirp_rate": chirp_rate,
               "diagnostics": traj.diagnostics}
    return result_from_trajectory(levels, traj, None, frame, details)


def train_from_reference(kind: str, duration: float, peak_rabi: float,
                         n_pairs: int, *, chirp_rate: float = 0.0,
                         delta_t_small: float | None = None,
                         shape: str = DEFAULT_SHAPE,
                         fwhm: float = DEFAULT_FWHM_FS) -> TrainSchedule:
    """Chop a smooth reference passage into a pulse-pair schedule.

    The duration splits into n_pairs equal intervals. Pulse n of each
    channel carries the integral of that channel's smooth Rabi envelope
    over interval n (the piecewise prescription: same integral action,
    delivered as a kick) and the smooth carrier phase evaluated at the
    kick center. Kicks sit symmetrically about each interval midpoint,
    dump first, delta_t_small apart (default half an interval).
    """
    from scipy.integrate import quad

    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    pump_env, dump_env, pump_phase, dump_phase = reference_envelopes(
        kind, duration, peak_rabi, chirp_rate)
    delta_T = duration / n_pairs
    if delta_t_small is None:
        delta_t_small = delta_T / 2.0

    events = []
    for n in range(n_pairs):
        lo = n * delta_T
        hi = lo + delta_T
        mid = lo + delta_T / 2.0
        t_dump = mid - delta_t_small / 2.0
        t_pump = mid + delta_t_small / 2.0
        area_p, _ = quad(pump_env, lo, hi)
        area_d, _ = quad(dump_env, lo, hi)
        ph_p = pump_phase(t_pump) if pump_phase else 0.0
        ph_d = dump_phase(t_dump) if dump_phase else 0.0
        events.append(TrainEvent(t_dump, make_pulse(
            shape, fwhm, max(area_d, 0.0), carrier_phase=ph_d,
            channel="dump")))
        events.append(TrainEvent(t_pump, make_pulse(
            shape, fwhm, max(area_p, 0.0), carrier_phase=ph_p,
            channel="pump")))
    return make_schedule(events, n_pairs, delta_T, delta_t_small,
                         f"chopped_{kind}")
