"""State propagation in the two-frequency rotating frame.

One rotation per channel: ground_a amplitudes rotate at the initial
level's frequency, excited amplitudes additionally at the pump frame
frequency, ground_b additionally at pump minus dump. In this frame the
Hamiltonian of level k carries the diagonal d_k - i Gamma_k / 2 with

    d_g = K (E_g - E_i)                      (ground_a)
    d_e = K (E_e - E_i) - omega_pump         (excited)
    d_b = K (E_b - E_i) - omega_pump + omega_dump   (ground_b)

and a pulse couples its channel with the envelope Rabi rate times
exp(-i phi) on the absorption leg (lower manifold -> excited for the
pump, ground_b -> excited for the dump). The frame's frequencies are
the carriers' (PhaseFrame), so phi is the pulse's constant carrier
phase, read from the schedule, never integrated.

Free evolution is exact: a_k <- a_k exp(-i d_k dt - Gamma_k dt / 2),
from the same diagonal the kernel uses.

Pulse passes and windows take sixth-order Magnus steps. A pulse has
one carrier and is short and
resonant, so its H(t) nearly commutes with itself over its support, and
a Magnus step integrates a commuting H(t) exactly; a smooth reference
passage changes slowly, which Magnus steps also resolve in few steps.
Both share one step loop, _magnus_steps: a block of steps forms its
Omega stack, exp(Omega) - I comes from a batched degree-18 Taylor
polynomial in five products with scaling and squaring (_expm1), and y
takes the block's steps one at a time in order, y <- y + X y with X =
exp(Omega) - I, a snapshot after every stride steps. A block only bounds
memory: no step's product depends on how many steps or pulses share its
block, so a pulse's operator has the same bits alone and in any batch.
Every product of these goes through _mm, which multiplies stacks of at
most 3 levels as broadcast multiply-adds: there numpy's stacked matmul
costs more per tiny matrix than the arithmetic; a state column takes
each step by one matmul, which costs less. For a lossless H each
exp(Omega) is unitary, whatever the steps. The Magnus series converges
for h max ||H|| < pi; a pass whose steps leave that bound raises
NumericsError rather than return a finite, wrong operator.

The two assemble Omega differently. A window drives both channels
through phase callables, so _magnus6 forms three commutators of its
alphas per step, which have no small basis; one basis -i h (diag, A_c,
A_c^dagger) turns its drive samples into generators -i h H. A window
is one problem: its own step, diagonal and couplings. A pulse drives
one channel with one carrier and a real envelope, and is integrated in
a real gauge (_integrate_pulses). There every commutator of Omega is a
fixed combination of eight matrices built once per channel in each
call (_pulse_bases; Munthe-Kaas and Owren, Phil. Trans. R. Soc. A 357,
957 (1999)), without h, and shared by the step-doubling estimate and
the production pass. A block's Omega stack is one product of per-step
coefficients in the envelope with that basis (_pulse_pass): no
commutator is formed per step. The envelope is sampled once per pass,
one vectorized call per shape and fwhm (fields._envelopes, which
rabi_envelope uses too): a built train's pulses differ only in area.
Every pass exponentiates only the first half of its steps: step
N - 1 - k takes the transpose of step k's exp(Omega) - I. A pass without
snapshots also multiplies out only that half, and the second half is
its transpose; a pass with snapshots multiplies out every step in
order (_pulse_pass).

A pulse couples only its own channel: a pump pulse ground_a and the
excited levels, a dump pulse the excited levels and ground_b. So the
pulse pass integrates each pulse from the identity on a contiguous
block of b = n - min(n_ga, n_gb) levels (_blocks), the first b for a
pump pulse and the last b for a dump pulse: 2 of 3 levels on the Lambda
system, 23 of 25 on the band. The levels outside the block take their
exact free phase exp(-i d_k t), decay included, and _integrate_pulses
embeds both into the (P, n, n) operators its callers read; its (S, P,
b, b) snapshots stay on the blocks, in the real gauge. The step-doubling
estimate compares the block operators
of the pass directly, since both of its passes carry the same phases of
modulus 1 outside the blocks and in the gauge; the convergence bound
and N0 take max |D| over all n levels.

A schedule holds each distinct pulse once and, per event, its time, an
index into those pulses and a carrier phase; a scan column stacks C
such rows. The one train runner, _run_events, has the distinct pulses
integrated in one batched pass (_integrate_pulses), then steps a (C,
n) stack of states through them by exact phase conjugation, each row
with its own events. It reads the event starts, supports and carrier
phases straight from the schedule's arrays. A run that keeps no
per-event states (record="none", and every scan column) takes each
row's periodic middle as a power: in a flat pair train pair j is pair
1 shifted by (j - 1) delta_T, a shift that leaves its operator as it
is, so the middle's J periods are P^J, P one period's operator, formed
in long double and squared about log2 J times. Its events before and
after, and every event of a recorded run, go through the loop, which
keeps row 0's states entering and leaving each event when recorded.
run_schedule is one row and records after the loop: record="dense"
samples each event at the 40 snapshots per pulse that the pass keeps,
every max(1, N // 40) of its N steps, all events at once per sample,
at the sample times the pass returns. A sample's populations come from
vectors: on the pulse's block, |B_s (conj(g) . entering)|^2 with B_s
the block snapshot of the real gauge and g the gauge phases; outside
it, |exp(-i d t_s) . entering|^2. Every other factor of the operator
is a phase of modulus 1, so no snapshot is embedded on all n levels or
conjugated. A scan column is one row per cell. propagate_pulse calls
the pulse pass directly.

Step counts come from a tolerance unless they are given, and the pass
picks them itself (_integrate_pulses): it integrates the largest-area
pulse of each group of pulses that differ only in area at N0 and 2 N0
Magnus steps, N0 = 8 or the fewest steps inside half the convergence
bound, on the bases of its production pass; the step-doubling
estimate of their error sets the fewest steps at which the row's E
events add up to half of _TOLERANCE = 1e-9, between N0 and the cap
MIN_STEPS_PER_PULSE = 256, and a dense run rounds them up to a multiple
of 40, so that its samples sit at k / 40 of each support whatever the
count. A window estimates on its state over the whole window
(propagate_window). Both report the steps, the estimate at those steps
and the events in the trajectory's diagnostics, and their production
steps must keep h max ||H|| inside the convergence bound, or
NumericsError is raised.

propagate_window steps its state through _magnus_steps and records it
every stride steps. oracle_propagate is the independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import PulseSpec, TrainSchedule, _envelopes, rabi_envelope
from .levels import LevelSystem, raman_shift
from .units import K_RAD_PS_PER_CM

# the cap of the Magnus steps per pulse support that a default count may
# take (see _TOLERANCE), and propagate_pulse's default. A given count
# (steps=, train.steps) may be any int >= 4 inside the convergence bound;
# it bypasses the error estimate.
MIN_STEPS_PER_PULSE = 256

# Default step counts come from a tolerance. A pass of Magnus steps, of
# order p = 6, whose cap is `cap` steps first takes the step-doubling
# (Richardson) estimate of the error of N0 >= 8 steps, err(N0) = 2^p /
# (2^p - 1) max |y_N0 - y_2N0| (Hairer, Norsett and Wanner, Solving ODEs
# I, II.4), then runs the N^-p law backwards: N = ceil(N0 (2 E err(N0) /
# _TOLERANCE)^(1/p)) in [N0, cap], so that the E events of a row add up
# to half the tolerance. A run held at the cap with its estimate above
# the tolerance is logged as a warning.
_TOLERANCE = 1e-9

ORACLE_MAX_LEVELS = 32
# steps per stacked expm call of the oracle: 500 x 32 x 32 complex is 8 MB
_ORACLE_CHUNK = 500

# record="dense" samples inside each pulse every max(1, steps // this)
# steps; a default count is a multiple of it, so a dense run samples at
# k / 40 of each support
_DENSE_SAMPLES = 40


class NumericsError(RuntimeError):
    """Propagation met non-finite drives or amplitudes, or steps outside
    its kernel's bound."""


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Complex amplitudes over ground_a ++ excited ++ ground_b at a time (ps)."""

    amplitudes: np.ndarray
    time: float

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def ground_state(system: LevelSystem, time: float = 0.0) -> QuantumState:
    """All population in the system's initial level."""
    amps = np.zeros(system.n_levels, dtype=complex)
    amps[system.initial_index] = 1.0
    return QuantumState(amps, time)


@dataclass(frozen=True)
class PhaseFrame:
    """Reference frequencies (rad/ps) of the two rotating channels, and
    the carrier frequencies of every pump and dump pulse: a pulse holds
    only a constant carrier phase. Carriers detuned by delta_p and
    delta_d cm^-1 are the frame PhaseFrame(omega_pump + K delta_p,
    omega_dump + K delta_d), which for_system's offsets and comb_locked's
    f0_pump build.

    Carrier phases of scheduled pulses are exact functions of the event
    times and comb parameters; nothing here is ever obtained by
    integrating optical cycles.
    """

    omega_pump: float
    omega_dump: float

    @classmethod
    def for_system(cls, system: LevelSystem, pump_offset: float = 0.0,
                   two_photon_offset: float = 0.0) -> "PhaseFrame":
        """Raman-locked frame resonant with the system's carrier anchor.

        pump_offset detunes the pump reference (cm^-1, positive = carrier
        above the anchor transition); two_photon_offset detunes the
        two-photon reference so the target level sits that many cm^-1
        from two-photon resonance. Both must be finite.
        """
        for name, value in (("pump_offset", pump_offset),
                            ("two_photon_offset", two_photon_offset)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        e_init = system.initial_level.energy
        omega_pump = K_RAD_PS_PER_CM * (system.anchor_energy() - e_init + pump_offset)
        omega_dump = omega_pump + K_RAD_PS_PER_CM * (raman_shift(system) - two_photon_offset)
        return cls(omega_pump, omega_dump)

    @classmethod
    def comb_locked(cls, system: LevelSystem, delta_T: float,
                    f0_pump: float = 0.0) -> "PhaseFrame":
        """Frame at the comb tooth nearest the anchor transition.

        The comb has f_rep = 1/delta_T (THz) and pump offset f0_pump; the
        pump carrier snaps to the nearest tooth 2 pi (N f_rep + f0_pump)
        and the dump carrier keeps the exact Raman offset from it, which
        is what a locked dump comb provides. Detunings of the levels from
        the snapped carrier then vary with delta_T exactly as the teeth
        slide across the spectrum.
        """
        if not 0 < delta_T < math.inf:
            raise ValueError(f"delta_T must be positive and finite, got {delta_T}")
        if not math.isfinite(f0_pump):
            raise ValueError(f"f0_pump must be finite, got {f0_pump}")
        f_rep = 1.0 / delta_T
        e_init = system.initial_level.energy
        f_nominal = K_RAD_PS_PER_CM * (system.anchor_energy() - e_init) / (2.0 * math.pi)
        n_tooth = round((f_nominal - f0_pump) / f_rep)
        omega_pump = 2.0 * math.pi * (n_tooth * f_rep + f0_pump)
        omega_dump = omega_pump + K_RAD_PS_PER_CM * raman_shift(system)
        return cls(omega_pump, omega_dump)

    def detunings(self, system: LevelSystem) -> np.ndarray:
        """Frame-referenced diagonal (rad/ps) of every level, global order."""
        e = system.energies()
        e_init = system.initial_level.energy
        d = K_RAD_PS_PER_CM * (e - e_init)
        d[system.slice_excited()] -= self.omega_pump
        d[system.slice_ground_b()] -= self.omega_pump - self.omega_dump
        return d


# --- Hamiltonian assembly ---

def _absorption_matrix(system: LevelSystem, channel: str) -> np.ndarray:
    """Absorption-leg coupling matrix A (excited rows) for a unit envelope.

    H(t) = diag + w(t) * (exp(-i phi(t)) A + exp(+i phi(t)) A^dagger).
    Dump couplings carry the per-level dipole phases in this (absorption)
    quadrature.
    """
    n = system.n_levels
    A = np.zeros((n, n), dtype=complex)
    sl_e = system.slice_excited()
    if channel == "pump":
        sl_g = system.slice_ground_a()
        A[sl_e, sl_g] = -0.5 * system.pump_dipoles.T
    else:
        couplings = system.dump_dipoles.T.astype(complex)
        if system.dipole_phases is not None:
            couplings = couplings * np.exp(1j * system.dipole_phases)[:, None]
        sl_b = system.slice_ground_b()
        A[sl_e, sl_b] = -0.5 * couplings
    return A


def _row_angles(system: LevelSystem, pulse: PulseSpec) -> np.ndarray:
    """The phase (rad) of a pulse's couplings to each excited level: a
    dump pulse's dipole phases plus its phase mask, zero for a pump."""
    theta = np.zeros(system.n_excited)
    if pulse.channel == "dump":
        if pulse.phase_mask is not None:
            if len(pulse.phase_mask) != system.n_excited:
                raise ValueError("phase_mask must hold one phase per excited level")
            theta += pulse.phase_mask
        if system.dipole_phases is not None:
            theta += system.dipole_phases
    return theta


def _diagonal(system: LevelSystem, frame: PhaseFrame) -> np.ndarray:
    return frame.detunings(system) - 0.5j * system.decay_rates()


# --- the kernels ---

# the order of the Magnus steps' global error, for the step-doubling rule
_MAGNUS_ORDER = 6

# (pulse, step) pairs times n^2: the complex entries of each Omega stack
# that a Magnus pass lays out at once, at least one step's. It bounds
# memory only: the steps multiply y one at a time (_magnus_steps)
_BLOCK_ENTRIES = 2 ** 13

# the three Gauss-Legendre nodes of a step, as fractions of it, and the
# weights that turn a step's drive at those nodes into the drive
# coefficients of alpha_1, alpha_2 and alpha_3 (see _magnus6)
_GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_ALPHA_WEIGHTS = np.array([
    [0.0, 1.0, 0.0],
    [-math.sqrt(15.0) / 3.0, 0.0, math.sqrt(15.0) / 3.0],
    [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])

# _mm multiplies stacks of matrices of up to this many levels as
# broadcast multiply-adds, which beat numpy's stacked matmul there on
# stacks of 2^13 / n^2 matrices and lose to it above 4 levels.
_BROADCAST_MAX_LEVELS = 3

# exp(Omega) - I is the degree-18 Taylor polynomial T18 at w = Omega / 2^s,
# s the fewest halvings that bring the 1-norm to at most this (remainder
# below 0.9^19 / 19! = 1.1e-18), in five products (Bader, Blanes and
# Casas, Mathematics 7, 1174 (2019)): with rows B1, ..., B5 over (I, w,
# w^2, w^3, w^6), A9 = B1 B5 + B4 and T18 = B2 + (B3 + A9) A9. Their
# values, refined to T18_k = 1 / k! for k <= 18 and rounded to doubles,
# as text: as literals they would take this module past 8192 tokens,
# where compiling it takes 0.5 MB more
_TAYLOR_NORM = 0.9
_T18 = np.array("""
    0 -0.10036558103014462 -0.00802924648241157 -0.00089213849804573 0
    0 0.3978497494996451 1.3678377846041172 0.49828962252538267
      -0.0006378981945947233
    -10.967639605296206 1.680158138789062 0.05717798464788655
      -0.0069821012248805206 3.3497501708607054e-05
    -0.09043168323908106 -0.06764045190713819 0.06759613017704597
      0.029555257042931552 -1.391802575160607e-05
    0 0 -0.09233646193671186 -0.016936493900208172 -1.4008679818203616e-05
    """.split(), float).reshape(5, 5)
# T18 - I = B2 + b03 B3' + (b02 + 2 b03) E + (B3' + E) E with B3' = B3 -
# b02 I and E = A9 - b03 I, since (b02 + b03) b03 = 1: the rows of B1,
# B5, E - B1 B5, B3' and B2 + b03 B3' over (w, w^2, w^3, w^6)
_T18_ROWS = np.array([_T18[0], _T18[4], _T18[3], _T18[2],
                      _T18[1] + _T18[3, 0] * _T18[2]])[:, 1:]
_T18_E = _T18[2, 0] + 2.0 * _T18[3, 0]


def _mm(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b of stacks of matrices, into `out` if given (not a or b). Up
    to _BROADCAST_MAX_LEVELS levels it is a sum of n broadcast products
    of a column of a with a row of b: numpy's stacked matmul costs more
    per tiny matrix than those few elementwise passes."""
    n = a.shape[-1]
    if n > _BROADCAST_MAX_LEVELS:
        return np.matmul(a, b, out=out)
    out = np.multiply(a[..., :1], b[..., :1, :], out=out)
    for k in range(1, n):
        out += a[..., k:k + 1] * b[..., k:k + 1, :]
    return out


def _expm1(omega: np.ndarray) -> np.ndarray:
    """exp(omega) - I of a (K, n, n) stack, each matrix on its own.

    Scaling and squaring: w = omega / 2^s, s the fewest halvings that
    bring its 1-norm to at most _TAYLOR_NORM, goes through T18 - I in
    five products (_T18_ROWS), each sum of powers one real product of a
    row with their floats into a scratch stack; s squarings X <- 2 X +
    X X bring it back, in place where all matrices take them. No
    identity term is formed: nothing small is rounded against it.
    """
    norm = np.abs(omega).sum(axis=-2).max(axis=-1)
    halvings = np.maximum(np.frexp(norm / _TAYLOR_NORM)[1], 0)
    a, b = np.empty(omega.shape, complex), np.empty(omega.shape, complex)
    powers = np.empty((4,) + omega.shape, complex)
    w, w2, w3, w6 = powers
    np.multiply(omega, (0.5 ** halvings)[:, None, None], out=w)
    _mm(w, w, out=w2)
    _mm(w2, w, out=w3)
    _mm(w3, w3, out=w6)
    floats = powers.view(float).reshape(4, -1)

    def row(j, out):
        np.matmul(_T18_ROWS[j], floats, out=out.view(float).reshape(-1))
        return out

    e = _mm(row(0, a), row(1, b))  # E = B1 B5 + (E - B1 B5)
    e += row(2, b)
    f = row(3, b)  # B3' + E
    f += e
    x = _mm(f, e, out=a)  # + (b02 + 2 b03) E + B2 + b03 B3'
    e *= _T18_E
    x += e
    del e
    x += row(4, b)
    for r in range(int(halvings.max(initial=0))):
        sel = halvings > r
        xs = x if sel.all() else x[sel]
        sq = _mm(xs, xs, out=b[:len(xs)])
        xs *= 2.0
        xs += sq
        if xs is not x:
            x[sel] = xs
    return x


def _magnus_steps(exps, y: np.ndarray, steps: int, entries: int,
                  stride: int | None = None):
    """The Magnus step loop that pulses and windows share: y <- y + X y
    for each of `steps` steps in order, exps(start, stop) giving X =
    exp(Omega) - I of those steps (_expm1): (stop - start, P, n, n) for
    the P pulses of a pass, (stop - start, n, n) for a window, with y
    shaped alike; a state column takes each step by matmul, anything
    else by _mm. `entries` = P n^2, or n^2, is the size of one step's
    Omega, and exps is asked for at most max(1, _BLOCK_ENTRIES //
    entries) steps at once: that bounds memory only, since each step
    multiplies y on its own. So a pulse's bits do not depend on the
    other pulses of its pass.

    Returns (y, snapshots): y after the last step and, with a stride, the
    stack of y after every stride steps strictly inside the run, (steps
    - 1) // stride of them, laid out once the first block's X are formed;
    without a stride, None.
    """
    block = max(1, _BLOCK_ENTRIES // entries)
    product = np.matmul if y.shape[-1] == 1 else _mm
    ys = None
    for start in range(0, steps, block):
        x = exps(start, min(start + block, steps))
        if stride and ys is None:
            ys = np.empty(((steps - 1) // stride,) + y.shape, complex)
        for j, xj in enumerate(x, start + 1):
            y = y + product(xj, y)
            if stride and j % stride == 0 and j < steps:
                ys[j // stride - 1] = y
        del x, xj  # freed before the next block's are formed
    return y, ys


def _magnus6(diag: np.ndarray, channels, y: np.ndarray, h: float,
             stride: int | None = None):
    """Sixth-order Magnus steps of one window.

    diag is the (n,) diagonal; channels is a list of (A_c, drive_c), A_c
    an (n, n) absorption matrix and drive_c the (3 steps,) complex drive
    w e^{-i phi} at the three Gauss-Legendre nodes of every step; h is
    the step and y the (n, m) start, a state column (m = 1) or operators
    (m = n). With G_i = -i h H at node i, a step is y <- exp(Omega) y with

        alpha_1 = G_2,    alpha_2 = (sqrt(15) / 3) (G_3 - G_1),
        alpha_3 = (10 / 3) (G_3 - 2 G_2 + G_1),
        C_1 = [alpha_1, alpha_2],    C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60,
        Omega = alpha_1 + alpha_3 / 12
                + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2] / 240

    (Blanes, Casas and Ros, BIT 40, 434 (2000); Blanes, Casas, Oteo and
    Ros, Phys. Rep. 470, 151 (2009)). Omega is exact for an H(t) that
    commutes with itself, and exp(Omega) is unitary for a lossless H at
    any step count. The series converges for h max ||H(tau)|| < pi, which
    the caller checks.

    The generator -i h H(tau) is the row (1, drive_1(tau),
    conj(drive_1(tau)), ...) times the basis -i h (diag, A_1, A_1^dagger,
    A_2, ...), each of its M matrices flattened to n^2 entries; so the
    alphas of a block of steps are one product of their drive
    coefficients with it, and Omega takes three commutators of them per
    step. A window drives two channels with phase callables, so its
    commutators have no small basis; a pulse's do (_pulse_pass).
    The steps are _magnus_steps, whose (y, snapshots) it returns: the
    (n, m) y after the last step and, with a stride, the (steps - 1) //
    stride snapshots of y every stride steps, or None.
    """
    n = diag.size
    mats = [np.diag(diag)]
    for A, _ in channels:
        mats += [A, A.conj().T]
    basis = -1j * h * np.reshape(mats, (len(mats), n * n))
    steps = channels[0][1].size // 3

    def exps(start, stop):
        k = stop - start
        coef = np.zeros((3, k, len(mats)), dtype=complex)
        coef[0, :, 0] = 1.0  # the diagonal enters alpha_1 only
        for c, (_, drive) in enumerate(channels):
            weights = drive[3 * start:3 * stop].reshape(k, 3) @ _ALPHA_WEIGHTS.T
            coef[..., 1 + 2 * c] = weights.T
            coef[..., 2 + 2 * c] = weights.T.conj()
        a1, a2, a3 = (coef @ basis).reshape(3, k, n, n)
        c1 = _mm(a1, a2) - _mm(a2, a1)
        b = 2.0 * a3 + c1
        c2 = (_mm(b, a1) - _mm(a1, b)) / 60.0
        left, right = c1 - 20.0 * a1 - a3, a2 + c2
        return _expm1(a1 + a3 / 12.0 + (_mm(left, right) - _mm(right, left)) / 240.0)
    return _magnus_steps(exps, y, steps, n * n, stride)


def _estimate_n0(length, bound) -> int:
    """The N0 of a step-doubling estimate of Magnus steps over `length`
    ps (per problem, with the norm bound per problem):
    MIN_STEPS_PER_PULSE // 32 = 8, or the fewest steps that keep h bound
    < pi / 2. Nearer the convergence bound h max ||H|| < pi the error
    falls faster than N^-6."""
    return max(MIN_STEPS_PER_PULSE // 32,
               int(np.max(length * bound // (math.pi / 2.0))) + 1)


def _blocks(system: LevelSystem, pulses) -> np.ndarray:
    """The (P, b) levels each pulse's pass integrates: b = n - min(n_ga,
    n_gb) contiguous levels, the first b for a pump pulse and the last b
    for a dump pulse. A block holds every level its pulse couples, and
    levels it does not when n_ga != n_gb; H does not couple the block to
    the levels outside it, which only keep their free phase."""
    n = system.n_levels
    size = n - min(system.n_ground_a, system.n_ground_b)
    lo = np.array([0 if p.channel == "pump" else n - size for p in pulses])
    return lo[:, None] + np.arange(size)


# the nesting depth of each element of a pulse basis (Y, B3, ..., B10):
# with the step's factor -i h in X and Y, an element of depth d carries
# (-i h)^d, which the step coefficients take (_pulse_pass)
_BASIS_DEPTH = np.array([1, 2, 3, 3, 4, 4, 4, 5, 5])
# and the factor of each element's term in Omega (_pulse_pass)
_BASIS_WEIGHTS = np.array([1.0] + [1.0 / 240.0] * 8)


@dataclass(frozen=True, eq=False)
class _PulseBasis:
    """What a pulse's pass needs besides its envelope, shared by the
    pulses of its channel whatever their area, shape, width or phase
    mask: the frame's diagonal D on its block, the (9, b^2) basis Y, B3,
    ..., B10 of the real V_0 without h, and the two parts of the norm
    bound max ||H'||_2 <= max |D| + max f ||A||_F over all n levels (A
    couples ground columns to excited rows only, so ||f V_0||_2 = f
    ||A||_2, whatever its row phases)."""

    diag: np.ndarray
    basis: np.ndarray
    offset: float
    coupling: float


def _pulse_bases(system: LevelSystem, frame: PhaseFrame, pulses) -> list:
    """Each pulse's _PulseBasis, built once per channel of the pulses.

    With H' = D + f(t) V_0 in the real gauge (_integrate_pulses), x =
    diag(D), Delta_ij = x_i - x_j and Y = V_0,
    every commutator of Omega is one of

        B3 = Delta . Y,  B4 = Delta . B3,  B6 = Delta . B4,
        B5 = [Y, B3],  B7 = Delta . B5,  B8 = [Y, B5],
        B9 = [B3, B4],  B10 = [B3, B5]

    (. elementwise: [X, M] = Delta . M for a diagonal X), as in the
    free-Lie-algebra computations of Munthe-Kaas and Owren, Phil. Trans.
    R. Soc. A 357, 957 (1999); [Y, B4] = B7 by the Jacobi identity.
    """
    built, out = {}, []
    for pulse in pulses:
        if pulse.channel not in built:
            rows = _blocks(system, [pulse])[0]
            full = _diagonal(system, frame)
            A = _absorption_matrix(replace(system, dipole_phases=None),
                                   pulse.channel)
            y = A[np.ix_(rows, rows)]
            y = y + y.conj().T
            x = full[rows]
            delta = x[:, None] - x[None, :]
            b3 = delta * y
            b4 = delta * b3
            b5 = y @ b3 - b3 @ y
            basis = np.stack([y, b3, b4, b5, delta * b4, delta * b5,
                              y @ b5 - b5 @ y, b3 @ b4 - b4 @ b3,
                              b3 @ b5 - b5 @ b3])
            built[pulse.channel] = _PulseBasis(x, basis.reshape(9, -1),
                                               float(np.abs(full).max()),
                                               float(np.linalg.norm(A)))
        out.append(built[pulse.channel])
    return out


def _pulse_pass(bases, pulses, steps: int, stride: int | None = None):
    """Magnus steps from the identity over each pulse's support in the
    real gauge (_integrate_pulses), on its block of levels
    (_pulse_bases): returns the (P, b, b) operators U', their
    snapshots and h max ||H'|| per pulse, the bound taken over all n
    levels.

    f_1, f_2, f_3 are _ALPHA_WEIGHTS applied to the envelope at the
    step's three Gauss-Legendre nodes; with X = -i h D and Y = -i h V_0
    the alphas of _magnus6 are X + f_1 Y, f_2 Y and f_3 Y, and its Omega
    is

        X + (f_1 + f_3 / 12) Y + (l_2 r_1 B3 + l_2 r_2 B4
            + (l_3 r_2 - l_1 r_1) B5 + l_2 r_3 B6 + (l_2 r_4 + l_3 r_3) B7
            + l_3 r_4 B8 + l_1 r_3 B9 + l_1 r_4 B10) / 240,
        l = (f_2, -20, -(20 f_1 + f_3)),
        r = (f_2, -f_3 / 30, -f_2 / 60, -f_1 f_2 / 60),

    where the Bs carry their (-i h)^depth (_BASIS_DEPTH). So a block's
    Omega stack is one batched product of these coefficients with the
    basis, plus X on the diagonal: no commutator is formed per step.

    A pass samples the envelope and forms and exponentiates Omega on the
    first ceil(N / 2) of its N steps only, since step N - 1 - k mirrors
    step k. Three conditions make
    its Omega the transpose of Omega_k: the Gauss-Legendre nodes are
    symmetric, so its nodes are those of step k reflected about T / 2 in
    reverse order; the envelope is even, f(T - t) = f(t) (PULSE_SHAPES);
    and H' is complex-symmetric, V_0 being real. Then alpha_1 and
    alpha_3 are symmetric, alpha_2 and C_1 change sign, and Omega_{N-1-k}
    = Omega_k^T: the scheme is time-symmetric (Blanes, Casas, Oteo and
    Ros, Phys. Rep. 470, 151 (2009)). Without a stride the pass takes
    only those steps: with U_a after floor(N / 2) steps and Y after
    ceil(N / 2), U' = U_a^T Y. A pass with a stride takes every step in
    order, a snapshot after every stride steps, and keeps the first half's
    exp(Omega) - I in one (ceil(N / 2), P, b, b) stack: step N - 1 - k
    takes X_k^T, since exp(Omega^T) - I = X_k^T. Its snapshots are
    those of _magnus_steps, (S, P, b, b).
    """
    P, b = len(pulses), bases[0].diag.size
    h = np.array([p.support_ps / steps for p in pulses])
    taken = (steps + 1) // 2
    f = _envelopes(pulses, np.arange(taken)[:, None] + _GAUSS_NODES, steps)
    f1, f2, f3 = (f @ _ALPHA_WEIGHTS.T).transpose(2, 0, 1)
    l3 = -(20.0 * f1 + f3)  # and l_1 = f_2
    r2, r3, r4 = -f3 / 30.0, -f2 / 60.0, -f1 * f2 / 60.0
    # the (taken, P, 9) real terms of the step coefficients; a block's
    # coefficients of the (P, 9, b^2) basis are its terms times scale
    scale = (-1j * h[:, None]) ** _BASIS_DEPTH * _BASIS_WEIGHTS
    terms = np.array([
        f1 + f3 / 12.0, -20.0 * f2, -20.0 * r2, l3 * r2 - f2 * f2, -20.0 * r3,
        -20.0 * r4 + l3 * r3, l3 * r4, f2 * r3, f2 * r4]).T.copy()
    del f1, f2, f3, l3, r2, r3, r4  # not kept through the pass
    basis = np.array([g.basis for g in bases])
    x = -1j * h[:, None] * np.array([g.diag for g in bases])

    def exps(start, stop):
        coef = np.multiply(terms[start:stop], scale)[:, :, None]
        om = (coef @ basis).reshape(-1, b, b)
        om.reshape(-1, P, b * b)[..., ::b + 1] += x
        return _expm1(om).reshape(-1, P, b, b)

    # one identity per pulse: a stride's snapshot stack takes y's shape
    eye, entries = np.tile(np.eye(b, dtype=complex), (P, 1, 1)), P * b * b
    if stride:
        # the first half's exp(Omega) - I, for the steps that mirror them
        kept = np.empty((taken, P, b, b), complex)

        def mirrored(start, stop):
            # steps start..stop: the first half's fresh, step k >= taken
            # as X_{N-1-k}^T
            fresh = min(stop, taken)
            if start < fresh:
                kept[start:fresh] = exps(start, fresh)
            late = kept[steps - stop:steps - max(start, taken)][::-1]
            return np.concatenate([kept[start:fresh], late.swapaxes(-1, -2)])
        y, snapshots = _magnus_steps(mirrored, eye, steps, entries, stride)
    else:
        half, snapshots = steps // 2, None
        u = y = _magnus_steps(exps, eye, half, entries)[0]
        if taken > half:  # the middle step of an odd count
            y = u + _mm(exps(half, taken)[0], u)
        # a contiguous U_a^T: a product with the transposed view raised
        # the peak memory of the 25-level band's passes by 0.1-0.2 MB
        y = _mm(u.swapaxes(-1, -2).copy(), y)
    bound = (np.array([g.offset for g in bases])
             + np.abs(f).max(axis=(1, 2)) * np.array([g.coupling for g in bases]))
    return y, snapshots, h * bound


def _integrate_pulses(system: LevelSystem, frame: PhaseFrame, pulses,
                      center_phases, steps: int | None, events: int = 1,
                      samples: int | None = None):
    """(ops, dense, diagnostics): the (P, n, n) evolution operators of N
    Magnus steps over each pulse's support, all pulses in one batched
    pass; with `samples`, dense = (snapshots, times, rows, gauge), else
    None; and the diagnostics of the steps. The snapshots are the (S, P,
    b, b) block operators U'(t) of the real gauge every stride = max(1,
    N // samples) steps, at the (S, P, 1) times t past each support
    start; rows are the (P, b) levels of each pulse's block (_blocks) and
    gauge the (P, b) conj(g) on them, g as below, at the centre phases
    given. So on the block the operator up to t is conj(gauge) U'(t)
    gauge, whose populations from a state v are |U'(t) (gauge . v)|^2,
    and outside it the free phase exp(-i d t).

    N is the given steps (at least 4), or with steps=None the tolerance
    rule's count for `events` events in a row, at most
    MIN_STEPS_PER_PULSE, rounded up to a multiple of `samples`. The rule
    estimates on the largest-area pulse of each group of pulses that
    differ only in area (for a runner's train, one pump and one dump),
    at the N0 of _estimate_n0 with the norm bound of H'. Its passes are
    not held to the convergence bound, and compare the block operators
    of _pulse_pass: the phases of the gauge, and those outside the
    blocks, are the same in both passes and of modulus 1. The
    diagnostics are those of _chosen_steps and the distinct pulses P;
    without pulses nothing is integrated, and the operators and dense
    are None.

    The pass runs on each pulse's block of levels (_pulse_pass) in the
    real gauge. The pulse couples with V = e^{-i phi_c} A + h.c., phi_c
    its centre phase, constant over the pulse since the frame's
    frequency is its carrier's (PhaseFrame); A's excited rows carry the
    phases theta of _row_angles over the real couplings A_r. With g =
    exp(-i (phi_c - theta)) on the block's excited levels (1 elsewhere),
    the operator up to time t is g U'(t) conj(g), elementwise in rows
    and columns, U' that of H' = D + f(t) V_0: D the frame's diagonal, f
    the real rabi_envelope and V_0 = A_r + A_r^T. The levels outside the
    block take their exact free phase exp(-i d_k t), decay included,
    over the support. Raises NumericsError naming the channel of the
    first pulse whose steps leave the convergence bound h max ||H'|| <
    pi: past it the Magnus series diverges, and a step would return a
    finite, wrong operator.
    """
    bases = _pulse_bases(system, frame, pulses)
    largest = {}
    for pulse, basis in zip(pulses, bases) if steps is None else ():
        key = (pulse.shape, pulse.fwhm, pulse.carrier_phase, pulse.channel,
               pulse.phase_mask)
        if key not in largest or abs(pulse.area) > abs(largest[key][0].area):
            largest[key] = pulse, basis
    group = [p for p, _ in largest.values()]
    group_bases = [g for _, g in largest.values()]
    n0 = MIN_STEPS_PER_PULSE // 32
    if group:
        peak = np.abs(_envelopes(group, 0.5, 1))  # at half the support
        bound = np.array([g.offset + a * g.coupling
                          for g, a in zip(group_bases, peak)])
        n0 = _estimate_n0(np.array([p.support_ps for p in group]), bound)
    n, diagnostics = _chosen_steps(
        steps, MIN_STEPS_PER_PULSE, events, n0,
        lambda n0: _doubling_error(
            lambda: _pulse_pass(group_bases, group, n0)[0],
            lambda: _pulse_pass(group_bases, group, 2 * n0)[0]) if group else 0.0,
        samples or 1)
    diagnostics["distinct_pulses"] = len(pulses)
    if not pulses:
        return None, None, diagnostics
    stride = max(1, n // samples) if samples else None
    block, snapshots, bound = _pulse_pass(bases, pulses, n, stride)
    outside = ~(bound < math.pi)
    if outside.any():
        first = int(np.argmax(outside))
        raise NumericsError(
            f"{n} steps per pulse leave the Magnus convergence bound "
            f"h max|H| < pi of a {pulses[first].channel} pulse (h max|H| = "
            f"{bound[first]:.3g})")
    rows = _blocks(system, pulses)
    levels = system.slice_excited()
    excited = (rows >= levels.start) & (rows < levels.stop)
    phi = np.zeros(rows.shape)
    phi[excited] = -np.concatenate([_row_angles(system, p) for p in pulses])
    phi += np.asarray(center_phases, dtype=float)[:, None]
    support = np.array([p.support_ps for p in pulses])[:, None]

    # the gauge phases g, the same at every time, and the gauge conj(g)
    g = np.where(excited, np.exp(-1j * phi), 1.0)
    gauge = np.conj(g)
    ops = (np.exp(-1j * _diagonal(system, frame) * support)[..., None]
           * np.eye(system.n_levels))
    ops[np.arange(len(rows))[:, None, None], rows[:, :, None], rows[:, None, :]] = (
        g[:, :, None] * block * gauge[:, None, :])
    if snapshots is not None:
        snapshots = (snapshots, np.arange(stride, n, stride)[:, None, None]
                     * (support / n), rows, gauge)
    return ops, snapshots, diagnostics


def _steps(steps: int | None) -> int:
    return MIN_STEPS_PER_PULSE if steps is None else max(int(steps), 4)


# --- step counts from a tolerance ---

def _doubling_error(coarse, fine) -> float:
    """2^p / (2^p - 1) max |y_N - y_2N|, p = _MAGNUS_ORDER, the
    step-doubling estimate of the error of N Magnus steps; coarse() and
    fine() run the passes of N and 2N steps. A pass that blows up
    estimates an infinite error."""
    with np.errstate(all="ignore"):
        err = float(np.max(np.abs(coarse() - fine())))
    err *= 2.0 ** _MAGNUS_ORDER / (2.0 ** _MAGNUS_ORDER - 1.0)
    return err if math.isfinite(err) else math.inf


def _window_cap(duration: float) -> int:
    """The default steps of a window: 200 per ps, at least 4000."""
    return max(4000, int(200.0 * duration))


def _chosen_steps(steps: int | None, cap: int, events: int, n0: int,
                  error, multiple: int = 1,
                  doubled: bool = False) -> tuple[int, dict]:
    """The given steps (at least 4), or the tolerance rule's for Magnus
    steps whose count defaults to cap, rounded up to a multiple of
    `multiple`, and their diagnostics; error(n0) estimates
    one event's error at n0 <= cap steps. A caller that keeps the
    estimate's pass of 2 n0 steps sets doubled: the rule then takes at
    least those steps, since they cost nothing more."""
    if steps is not None:
        n = _steps(steps)
        return n, {"steps": n, "error_estimate": None, "events": events}
    n0 = min(n0, cap)
    err = error(n0)
    ratio = 2.0 * events * err / _TOLERANCE
    if ratio >= (cap / n0) ** _MAGNUS_ORDER:
        n = cap
    else:
        least = min(2 * n0, cap) if doubled else n0
        n = max(least, math.ceil(n0 * ratio ** (1.0 / _MAGNUS_ORDER)))
    n = -(-n // multiple) * multiple
    estimate = events * err * (n0 / n) ** _MAGNUS_ORDER
    if n >= cap and estimate > _TOLERANCE:
        # loaded only here, so that importing papsim loads numpy only
        import logging

        logging.getLogger(__name__).warning(
            "steps held at their cap of %d: estimated error %.2g exceeds "
            "the tolerance %.2g", cap, estimate, _TOLERANCE)
    return n, {"steps": n, "error_estimate": estimate, "events": events}


def propagate_pulse(state: QuantumState, system: LevelSystem, pulse: PulseSpec,
                    frame: PhaseFrame, steps: int | None = None) -> QuantumState:
    """Propagate through one pulse whose support starts at state.time.

    Fixed-step sixth-order Magnus, by default MIN_STEPS_PER_PULSE steps
    over the support (override via ``steps``); raises NumericsError if
    the steps leave the convergence bound. The pulse couples at
    pulse.carrier_phase, on the frame's carrier (PhaseFrame).
    """
    ops = _integrate_pulses(system, frame, [pulse], [pulse.carrier_phase],
                            _steps(steps))[0]
    return QuantumState(ops[0] @ state.amplitudes, state.time + pulse.support_ps)


def free_evolve(state: QuantumState, system: LevelSystem, dt: float,
                frame: PhaseFrame | None = None) -> QuantumState:
    """Exact field-free evolution for dt >= 0 picoseconds."""
    if dt < 0:
        raise ValueError("free evolution requires dt >= 0")
    if frame is None:
        frame = PhaseFrame.for_system(system)
    factor = np.exp(-1j * _diagonal(system, frame) * dt)
    return QuantumState(state.amplitudes * factor, state.time + dt)


# --- schedules ---

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded populations along a run.

    times (ps), populations (len(times) x n_levels), norms (total
    population, i.e. 1 minus what has decayed away), the final state and
    the diagnostics of the fixed steps (per pulse, or over the window):
    the steps taken, their error estimate (None for a given
    count), the events and, for a schedule, its distinct pulses.
    """

    times: np.ndarray
    populations: np.ndarray
    norms: np.ndarray
    labels: tuple[str, ...]
    final_state: QuantumState
    diagnostics: dict = field(default_factory=dict)


def _run_events(system: LevelSystem, frame: PhaseFrame,
                schedule: TrainSchedule, steps: int | None, amps: np.ndarray,
                t0, record: str = "none"):
    """Integrate schedule.pulses, in their stored order, in one batched
    pass (_integrate_pulses, over the E events of a row), then step the
    (C, n) stack amps, row c from time t0[c] through row c of the
    schedule (one train for C = 1, or a (C, E) column stack). Event k
    applies operator schedule.pulse[k]; a row's result does not depend
    on the other rows.

    With record="none" a row's periodic middle takes a power. Event k
    repeats event k - 2 when it has its pulse, carrier phase and gap
    (equal up to 16 ulp of the row's times, their rounding) and another
    channel than event k - 1: its operator, with its phase conjugation
    and the free evolution over its gap, is then event k - 2's. With the
    two events before it, the first 2 J - 1 >= 3 events of a row's first
    run of such events (all of an odd run) are J periods P_0 and one more
    copy of their first event, so this middle is M_0 P_0^J, M_0 that
    first event and P_0 = M_1 M_0. M_0 and M_1 are formed in long double,
    with their gaps and phases from their own times, near the train's
    start; P_0^J takes about log2 J squarings (_mm) and reaches the state
    by its binary digits.
    A run of two events (the two equal central pairs of a crp train of
    even n_pairs) is no middle. The events before and after the middle,
    and every event of a recorded run, take the loop. A row's split
    depends on that row alone, so its bits do not depend on the stack.

    Returns the final (amps, times), what the loop kept of row 0 and the
    diagnostics of the steps. Of row 0 it keeps its (E,) event starts
    and ends and, when recorded, the (E, n) states entering each event
    after its conjugation and leaving it (the state leaving event k is
    z_k U_k entering_k, z_k its phase conjugation, of modulus 1), and
    with record="dense" the pass's dense tuple of _integrate_pulses,
    block snapshots 40 times per pulse in the real gauge with their
    times, rows and gauge (else None)."""
    n, pulses = system.n_levels, schedule.pulses
    ops, dense, diagnostics = _integrate_pulses(
        system, frame, pulses, [0.0] * len(pulses), steps,
        schedule.time.shape[-1], _DENSE_SAMPLES if record == "dense" else None)
    op_rows, time, phase, support = np.atleast_2d(
        schedule.pulse, schedule.time, schedule.carrier_phase, schedule.support)
    starts = time - support / 2.0
    times = np.column_stack([t0, starts + support])
    gaps = starts - times[:, :-1]
    # the levels whose phase each pulse carries: ground_a for a pump,
    # ground_b for a dump
    level, excited = np.arange(n), system.slice_excited()
    dump = np.array([p.channel == "dump" for p in pulses])
    rides = np.where(dump[:, None], level >= excited.stop, level < excited.start)
    C, E = time.shape
    repeat = np.zeros((C, E + 1), bool)  # the last False ends every run
    if record == "none" and E > 3:
        slack = 16.0 * np.spacing(abs(times).max(axis=1, keepdims=True))
        repeat[:, 2:E] = ((op_rows[:, 2:] == op_rows[:, :-2])
                          & (phase[:, 2:] == phase[:, :-2])
                          & (abs(gaps[:, 2:] - gaps[:, :-2]) <= slack)
                          & (dump[op_rows[:, 2:]] != dump[op_rows[:, 1:-1]]))
    first = np.argmax(repeat, axis=1)
    stop = np.argmin(repeat | (np.arange(E + 1) < first[:, None]), axis=1)
    periods = (stop - first + 1) // 2
    periods *= periods > 1
    head, tail = np.where(periods > 0, [first - 2, first + 2 * periods - 1], E)
    # the events the loop takes, and where each sits among them
    used = np.arange(E)
    used = (used < head.max()) | (used >= tail.min())
    at = np.cumsum(used) - 1
    # their phase conjugations z by the carrier phases and, on entry, its
    # conjugate times the free evolution over the gap before each (none
    # for a gap <= 0: the factor is then exactly 1)
    z = np.where(rides[op_rows[:, used]],
                 np.exp(1j * phase[:, used])[..., None], 1.0)
    diag = _diagonal(system, frame)
    drift = np.exp(-1j * diag * np.maximum(gaps[:, used], 0.0)[..., None])
    entry = np.conj(z) * drift
    amps = np.array(amps, complex)
    kept = record != "none"
    entering, leaving = np.empty((2, E, n), complex) if kept else (None, None)

    def step(rows, k):
        # event k of each row of `rows`
        rotated = entry[rows, at[k]] * amps[rows]
        amps[rows] = z[rows, at[k]] * np.matmul(ops[op_rows[rows, k]],
                                            rotated[..., None])[..., 0]
        return rotated

    for k in range(head.max()):
        rotated = step(slice(None) if head.min() > k else k < head, k)
        if kept:
            entering[k], leaving[k] = rotated[0], amps[0]
    rows = np.flatnonzero(periods)
    if rows.size:
        # the first two events of each middle: their operators, from their
        # gaps and phases, in long double
        r, k, wide = rows[:, None], head[rows, None] + [0, 1], time.astype(np.longdouble)
        t, o = wide[r, k], op_rows[r, k]
        before = np.where(k > 0, wide[r, k - 1] + support[r, k - 1] / 2.0,
                          times[r, 0])
        gap = np.maximum(t - support[r, k] / 2.0 - before, 0.0)
        one = np.where(rides[o], np.exp(1j * phase[r, k].astype(
            np.longdouble))[..., None], 1.0)
        one = one[..., None] * ops[o] * (
            np.conj(one) * np.exp(-1j * diag * gap[..., None]))[..., None, :]
        power = _mm(one[:, 1], one[:, 0])
        count, state = periods[rows], amps[rows].astype(np.clongdouble)
        while True:
            state = np.where((count % 2 > 0)[:, None],
                             np.matmul(power, state[..., None])[..., 0], state)
            count //= 2
            if not count.any():
                break
            power = _mm(power, power)
        # and the copy of its first event that ends the middle
        amps[rows] = np.matmul(one[:, 0], state[..., None])[..., 0]
    for j in range((E - tail).max()):
        rows = tail + j < E
        step(rows, (tail + j)[rows])
    return amps, times[:, -1], (starts[0], times[0, 1:], entering, leaving,
                                dense), diagnostics


def run_schedule(state: QuantumState, system: LevelSystem,
                 schedule: TrainSchedule, frame: PhaseFrame | None = None,
                 record: str = "compressed",
                 steps: int | None = None) -> Trajectory:
    """Propagate a state through every event of a schedule.

    record policies: "compressed" stores populations at every event
    boundary, "dense" additionally samples inside each pulse every
    max(1, steps // 40) steps, "none" records only the endpoints.

    Each pulse takes fixed sixth-order Magnus steps. Unless steps are
    given, their count is the one the tolerance rule (_TOLERANCE) picks
    from a step-doubling estimate on the train's largest pulses, at most
    MIN_STEPS_PER_PULSE, and for a dense run a multiple of 40; the pass
    picks it (_integrate_pulses), and the trajectory's diagnostics
    report it.

    The distinct pulses of the schedule (equal up to carrier phase) are
    integrated together in one batched pass, each into its evolution
    operator; per-event carrier phases enter through an exact diagonal
    conjugation. A recorded train then costs one pass plus a
    matrix-vector product per event: the event loop keeps the states
    entering and leaving each event (_run_events). With record="none" a
    flat pair train's periodic middle is one period's operator raised to
    its J periods by about log2 J squarings, so a train costs one pass
    plus O(log n_pairs) small matrix products. Dense recording keeps
    the block snapshots of the real gauge and their times from the same
    pass, whose second half's exponentials are its first half's
    transposed, and after the loop forms each sample's populations from
    vectors, all events at once per sample index: on the pulse's block
    the snapshot applied to the block of the state entering the event,
    taken into the real gauge, and outside the block that state's free
    phase; the other phases have modulus 1.
    """
    if record not in ("compressed", "dense", "none"):
        raise ValueError(f"unknown record policy {record!r}")
    if frame is None:
        frame = PhaseFrame.for_system(system)
    if len(state.amplitudes) != system.n_levels:
        raise ValueError("state length does not match system")
    if schedule.time.size and state.time > schedule.start_time + 1e-12:
        raise ValueError(
            f"state at t={state.time} ps starts after the first pulse support "
            f"({schedule.start_time} ps)")

    amps, end, row, diagnostics = _run_events(
        system, frame, schedule, steps, state.amplitudes[None], [state.time],
        record)
    starts, ends, entering, leaving, dense = row
    if record == "none":
        ends = ends[-1:]
        pops = np.abs(amps[:len(ends)]) ** 2
    else:
        pops = np.abs(leaving) ** 2
    if dense is not None:
        # (E, S + 1) rows: each event's S in-pulse samples, then its end.
        # Outside its block a sample is the entering state's free phase;
        # on the block, the block snapshot of the real gauge applied to it
        # in that gauge: the other factors are phases of modulus 1
        snapshots, sampled, rows, gauge = dense
        pulse, events = schedule.pulse, np.arange(len(entering))[:, None]
        sampled = sampled[:, pulse]
        inner = np.abs(entering * np.exp(-1j * _diagonal(system, frame) * sampled)) ** 2
        rows = rows[pulse]
        inside = (gauge[pulse] * entering[events, rows])[..., None]
        for out, s in zip(inner, snapshots):
            out[events, rows] = np.abs(s[pulse] @ inside)[..., 0] ** 2
        pops = np.concatenate([inner, pops[None]]).swapaxes(0, 1)
        ends = np.vstack([starts + sampled[..., 0], ends]).T
    pops = np.concatenate([[state.populations()],
                           pops.reshape(-1, system.n_levels)])
    return Trajectory(
        times=np.concatenate([[state.time], ends.ravel()]),
        populations=pops,
        norms=pops.sum(axis=1),
        labels=system.labels,
        # an empty schedule hands back the state it was given
        final_state=QuantumState(amps[0], float(end[0])) if len(ends) else state,
        diagnostics=diagnostics,
    )


def propagate_window(state: QuantumState, system: LevelSystem,
                     pump_rabi, dump_rabi, frame: PhaseFrame,
                     duration: float, steps: int | None = None,
                     pump_phase=None, dump_phase=None) -> Trajectory:
    """Fixed steps over a window where both channels may drive at once.

    pump_rabi / dump_rabi are callables Omega(t) (rad/ps) of absolute
    time; pump_phase / dump_phase optionally give the carrier phases
    phi(t) (rad). Smooth adiabatic references with overlapping envelopes
    use this; scheduled trains never need it. The window takes
    sixth-order Magnus steps (_magnus6), each callable sampled once at
    the three Gauss-Legendre nodes of every step. A callable that
    returns a non-finite value raises NumericsError.

    steps=None takes the count from the tolerance (_TOLERANCE): the
    state is integrated over the whole window at N0 and 2 N0 steps, and
    the step-doubling estimate sets the count, between N0 and the cap
    max(4000, 200 per ps) (_window_cap). N0 is that of _estimate_n0, at
    least 8, its bound read off the samples at N0; the coarser pass keeps
    only its last state, and the count is at least 2 N0, so that the
    estimate's finer pass is the result when that is enough. Otherwise a
    given count is taken as it is, at least 4 steps. The trajectory's
    diagnostics report the steps and the estimate at them. A count whose
    steps leave the convergence bound h max ||H|| < pi raises
    NumericsError; the estimate's passes are exempt.

    The state takes the steps one at a time (_magnus_steps), and the
    trajectory records it every s = max(1, steps // 400) steps and at the
    end.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    t0 = state.time
    A = (_absorption_matrix(system, "pump"), _absorption_matrix(system, "dump"))
    diag = _diagonal(system, frame)
    start = state.amplitudes.astype(complex)[:, None]
    # a constant shift of the diagonal commutes with H and leaves every
    # commutator of Omega as it is: only the spread about the real
    # midpoint counts towards the convergence bound
    offset = np.abs(diag - 0.5 * (diag.real.max() + diag.real.min())).max()

    @functools.cache
    def sampled(steps):
        grid = t0 + ((np.arange(steps)[:, None] + _GAUSS_NODES)
                     * (duration / steps)).ravel()
        drives = []
        for rabi, phase in ((pump_rabi, pump_phase), (dump_rabi, dump_phase)):
            d = np.fromiter(map(rabi, grid), complex, grid.size)
            if phase is not None:
                d *= np.exp(-1j * np.fromiter(map(phase, grid), float, grid.size))
            drives.append(d)
        if not all(np.isfinite(d).all() for d in drives):
            raise NumericsError("a drive of the window is not finite")
        return drives

    def bound(steps):
        # max ||H - centre|| over the samples, at most
        return offset + sum(np.abs(d).max() * np.linalg.norm(a)
                            for a, d in zip(A, sampled(steps)))

    def records(steps, final=False):
        # the recorded states, or only the last one if final
        y, snapshots = _magnus6(
            diag, list(zip(A, sampled(steps))), start, duration / steps,
            None if final else max(1, steps // 400))
        return (y[:, 0] if final
                else [start[:, 0], *snapshots[:, :, 0], y[:, 0]])

    # the estimate's finer pass may be the result; its coarser one never is
    kept = functools.cache(records)
    cap = _window_cap(duration)
    # the peak drive is read off the samples, so N0 rises until its own
    # samples keep it (or it reaches the cap)
    n0 = MIN_STEPS_PER_PULSE // 32
    while (steps is None and n0 < cap
           and (need := _estimate_n0(duration, bound(n0))) > n0):
        n0 = need

    def error(n0):
        return _doubling_error(lambda: records(n0, final=True),
                               lambda: kept(2 * n0)[-1])

    steps, diagnostics = _chosen_steps(steps, cap, 1, n0, error, doubled=True)
    h, stride = duration / steps, max(1, steps // 400)
    reach = h * bound(steps)
    if not reach < math.pi:
        raise NumericsError(
            f"{steps} window steps leave the Magnus convergence bound h "
            f"max|H| < pi (h max|H| = {reach:.3g})")
    amps = kept(steps)
    if not np.all(np.isfinite(amps[-1])):
        raise NumericsError("non-finite amplitudes in windowed propagation")
    final = QuantumState(amps[-1], t0 + duration)
    times = np.concatenate([[t0], t0 + stride * np.arange(1, len(amps) - 1) * h,
                            [final.time]])
    pops = np.abs(np.array(amps)) ** 2
    return Trajectory(times, pops, pops.sum(axis=1), system.labels, final,
                      diagnostics)


# --- dense matrix-exponential oracle (tests only) ---

def oracle_propagate(state: QuantumState, system: LevelSystem,
                     schedule: TrainSchedule, frame: PhaseFrame,
                     steps_per_pulse: int = 2000) -> QuantumState:
    """Reference propagation: piecewise-constant H, one expm per step.

    Deliberately independent of the kernels: the Hamiltonian is
    reassembled entrywise here and each step applies
    expm(-i H(midpoint) h), stacked per pulse in chunks of _ORACLE_CHUNK
    steps. At least 2000 steps per pulse; systems are capped at 32
    levels. Intended for verification, not production.
    """
    from scipy.linalg import expm

    if system.n_levels > ORACLE_MAX_LEVELS:
        raise ValueError(f"oracle supports at most {ORACLE_MAX_LEVELS} levels")
    steps = max(int(steps_per_pulse), 2000)
    if not schedule.events:
        return state
    if state.time > schedule.start_time + 1e-12:
        raise ValueError("state starts after the first pulse support")

    energies = system.energies()
    gammas = system.decay_rates()
    e_init = system.initial_level.energy
    n = system.n_levels
    sl_e = system.slice_excited()
    excited = np.arange(sl_e.start, sl_e.stop)

    # excited levels rotate with the pump, ground_b levels with pump - dump
    offset = np.zeros(n)
    offset[sl_e] = frame.omega_pump
    offset[sl_e.stop:] = frame.omega_pump - frame.omega_dump
    diag = K_RAD_PS_PER_CM * (energies - e_init) - offset - 0.5j * gammas

    amps = state.amplitudes.astype(complex)
    t_now = state.time
    for ev in schedule.events:
        start = ev.time - ev.pulse.support_ps / 2.0
        gap = start - t_now
        if gap > 0:
            amps = amps * np.exp(-1j * diag * gap)
        pulse = ev.pulse
        T = pulse.support_ps
        h = T / steps
        tau = (np.arange(steps) + 0.5) * h
        field = rabi_envelope(pulse, tau) * np.exp(-1j * pulse.carrier_phase)
        if pulse.channel == "pump":
            mu = system.pump_dipoles.astype(complex)
            ground = np.arange(system.n_ground_a)
        else:
            mu = system.dump_dipoles.astype(complex)
            if system.dipole_phases is not None:
                mu = mu * np.exp(1j * np.asarray(system.dipole_phases))
            if pulse.phase_mask is not None:
                mu = mu * np.exp(1j * np.asarray(pulse.phase_mask))
            ground = np.arange(sl_e.stop, n)
        # c[k, i, j] couples ground level i to excited level j at step k
        c = -0.5 * mu[None] * field[:, None, None]
        for lo in range(0, steps, _ORACLE_CHUNK):
            part = c[lo:lo + _ORACLE_CHUNK]
            H = np.zeros((len(part), n, n), dtype=complex)
            H[:, np.arange(n), np.arange(n)] = diag
            H[:, excited[None, :], ground[:, None]] = part
            H[:, ground[:, None], excited[None, :]] = np.conj(part)
            for factor in expm(-1j * H * h):
                amps = factor @ amps
        t_now = start + T
        if not np.all(np.isfinite(amps)):
            raise NumericsError("oracle produced non-finite amplitudes")
    return QuantumState(amps, t_now)
