"""State propagation in the two-frequency rotating frame.

One rotation per channel: ground_a amplitudes rotate at the initial
level's frequency, excited amplitudes additionally at the pump frame
frequency, ground_b additionally at pump minus dump. In this frame the
Hamiltonian of level k carries the diagonal d_k - i Gamma_k / 2 with

    d_g = K (E_g - E_i)                      (ground_a)
    d_e = K (E_e - E_i) - omega_pump         (excited)
    d_b = K (E_b - E_i) - omega_pump + omega_dump   (ground_b)

and a pulse couples its channel with the envelope Rabi rate times
exp(-i phi(t)) on the absorption leg (lower manifold -> excited for the
pump, ground_b -> excited for the dump). phi(t) is the carrier phase,
d phi = K * carrier_detuning per unit time plus the per-pulse constant;
it is evaluated analytically from the schedule, never integrated.

Free evolution is exact: a_k <- a_k exp(-i d_k dt - Gamma_k dt / 2),
from the same diagonal the kernel uses.

Windows go through two fixed-step kernels that share their inputs: the
diagonal, a list of channels (A_c, drive_c), start states or operators
y and a step h; the P problems of a pass share each of the diagonal,
A_c, y and h or give one per problem, and one basis (diag, A_c,
A_c^dagger) turns drive samples into generators -i h H (_basis).

Pulse passes, and windows of up to _WINDOW_MAGNUS_MAX_LEVELS levels,
take sixth-order Magnus steps. A pulse has one carrier and is short and
resonant, so its H(t) nearly commutes with itself over its support, and
a Magnus step integrates a commuting H(t) exactly; a smooth reference
passage changes slowly, which Magnus steps also resolve in few steps.
Both share one step loop, _magnus_steps: a block of steps forms its
Omega stack, exp(Omega) - I comes from a batched Taylor series with
scaling and squaring (_expm1), and the block's step matrices are
multiplied out pairwise (_chain). Every product of these goes through
_mm, which multiplies stacks of at most 3 levels as broadcast
multiply-adds: there numpy's stacked matmul costs more per tiny matrix
than the arithmetic. For a lossless H each exp(Omega) is unitary,
whatever the steps. The Magnus series converges for h max ||H|| < pi; a
pass whose steps leave that bound raises NumericsError rather than
return a finite, wrong operator. Measured on a 2-core x86 host against
RK4 at its tolerance counts: 8 steps per pulse where RK4 took 395 on a
resonant n = 3 train, 12 where it took 715 at n = 7, and 88 on an n =
25 band crp train that RK4 could not resolve in 800; about 200 steps
where RK4 took 5600 on a 100 ps three-level reference.

The two assemble Omega differently. A window drives both channels
through phase callables, so _magnus6 forms three commutators of its
alphas per step, which have no small basis. A pulse drives one channel,
and in its carrier's frame, R(t) = exp(-i omega (t - T/2)) on the
excited levels with omega = K carrier_detuning, its Hamiltonian is H' =
D' + f(t) V_0: D' = D - omega on the excited levels, f the real
rabi_envelope and V_0 = A + A^dagger. Every commutator of Omega is then
a fixed combination of eight matrices built once per channel, phase
mask and detuning from D' and V_0 (_pulse_bases; Munthe-Kaas and Owren,
Phil. Trans. R. Soc. A 357, 957 (1999)), without h, and shared by the
step-doubling estimate and the production pass. A block's Omega stack
is one product of per-step coefficients in f at the three
Gauss-Legendre nodes with that basis, plus -i h D' on the diagonal
(_pulse_pass): no commutator is formed per step. The envelope is
sampled once per pass, one vectorized rabi_envelope call per pulse. The
operator is U = R(T) U' R(0)^dagger, and the centre phase phi_c enters
as V = e^{-i phi_c} A + h.c. by the same diagonal conjugation
(_integrate_pulses); at omega = 0 the carrier frame is the rotating
frame above.

A pulse couples only its own channel: a pump pulse ground_a and the
excited levels, a dump pulse the excited levels and ground_b. So the
pulse pass integrates each pulse from the identity on a contiguous
block of b = n - min(n_ga, n_gb) levels (_blocks), the first b for a
pump pulse and the last b for a dump pulse: 2 of 3 levels on the Lambda
system, 23 of 25 on the band. The levels outside the block take their
exact free phase exp(-i d_k t), decay included, and _integrate_pulses
embeds both into the (P, n, n) operators and (S, P, n, n) snapshots its
callers read. The step-doubling estimate compares the carrier-frame
block operators directly, since both of its passes carry the same
phases of modulus 1 outside the blocks and in the frame; the
convergence bound and N0 take max |D'| over all n levels.

Larger windows take RK4, _rk4: there an operator's n-fold flops
outweigh what the fewer steps save. _rk4 steps y through the four RK4
stages, a block of steps at a time.

A schedule holds each distinct pulse once and, per event, its time, an
index into those pulses and a carrier phase; a scan column stacks C
such rows. The one event loop, _run_events, integrates the distinct
pulses in one batched pass, then steps a (C, n) stack of states
through them by exact phase conjugation, each row with its own events.
It reads the event starts, supports and center phases
(pulse_center_phase element by element) straight from the schedule's
arrays. run_schedule is one row (record="dense" applies operator
snapshots kept 40 times per pulse, every max(1, N // 40) of the pass's
N steps), a scan column one row per cell. propagate_pulse calls the
pulse pass directly.

Step counts come from a tolerance unless they are given. Before the
pass, _train_steps integrates the largest-area pulse of each group of
pulses that differ only in area at N0 and 2 N0 Magnus steps, N0 = 8 or
the fewest steps inside half the convergence bound; the step-doubling
estimate of their error sets the fewest steps at which the row's E
events add up to half of _TOLERANCE = 1e-9, between N0 and the cap
MIN_STEPS_PER_PULSE = 256, and a dense run rounds them up to a multiple
of 40, so that its samples sit at k / 40 of each support whatever the
count. A window estimates with its own kernel on its state over the
whole window, with the cap max(4000, 200 per ps) (_window_cap), from
N0 = the least (8 on Magnus steps, cap // 32 on RK4) or the fewest
steps inside half the kernel's bound, and takes at least the 2 N0 steps
of its estimate's finer pass, which is then its result. Both report the
steps, the estimate at those steps and the events in the trajectory's
diagnostics. A window's production steps, like a pulse's, must keep h
max ||H|| inside the kernel's bound (pi for Magnus, the RK4 stability
limit 2 sqrt(2)), or NumericsError is raised.

propagate_window samples its callables once per pass, at the Magnus
nodes or on the RK4 half-step grid of the whole window, and records the
state every max(1, steps // 400) steps. Its ODE is linear, so U(t2, t0)
= U(t2, t1) U(t1, t0): up to _WINDOW_SEGMENT_MAX_LEVELS levels the
window is cut into segments of that many steps, whose operators are one
batched kernel pass, each problem with its own slice of the samples
(the steps left over are one more small pass), and the state is chained
through the operators in time order. An operator costs n times the
flops of one state column, so larger systems step their one state
through the window instead and record kernel snapshots.
oracle_propagate is the independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import PulseSpec, TrainSchedule, rabi_envelope
from .levels import LevelSystem, raman_shift
from .units import K_RAD_PS_PER_CM

# the cap of the Magnus steps per pulse support that a default count may
# take (see _TOLERANCE), and propagate_pulse's default. Its N0 = 256 // 32
# = 8 steps already meet the tolerance on resonant n = 3 trains; an n = 25
# band crp train takes 88. A given count (steps=, train.steps) may be any
# int >= 4 inside the convergence bound; it bypasses the error estimate.
MIN_STEPS_PER_PULSE = 256

# Default step counts come from a tolerance. A pass of a kernel of order
# p whose cap is `cap` steps first takes the step-doubling (Richardson)
# estimate of the error of N0 >= cap // 32 steps, err(N0) = 2^p / (2^p -
# 1) max |y_N0 - y_2N0| (Hairer, Norsett and Wanner, Solving ODEs I,
# II.4), then runs the N^-p law backwards: N = ceil(N0 (2 E err(N0) /
# _TOLERANCE)^(1/p)) in [N0, cap], so that the E events of a row add up
# to half the tolerance. p is 6 on Magnus steps (pulses, and windows up
# to _WINDOW_MAGNUS_MAX_LEVELS levels) and 4 on RK4 steps (larger
# windows). A run held at the cap with its estimate above the tolerance
# is logged as a warning.
_TOLERANCE = 1e-9

ORACLE_MAX_LEVELS = 32
# steps per stacked expm call of the oracle: 500 x 32 x 32 complex is 8 MB
_ORACLE_CHUNK = 500

# record="dense" samples inside each pulse every max(1, steps // this)
# steps; a default count is a multiple of it, so a dense run samples at
# k / 40 of each support
_DENSE_SAMPLES = 40

# propagate_window integrates segment operators up to this many levels.
# The batch removes per-step call overhead but costs n times the flops
# of one state column; on a 2-core x86 host the 20 000-step RK4
# reference broke even at n = 17-19 (n = 16: 0.34-0.39 s batched,
# 0.46-0.60 s stepped; n = 25: 0.77-1.13 s batched, 0.48-0.72 s
# stepped). Windows up to _WINDOW_MAGNUS_MAX_LEVELS levels always take
# segments.
_WINDOW_SEGMENT_MAX_LEVELS = 16

# propagate_window takes Magnus steps up to this many levels and RK4
# above. Default 100 ps stirap references on a 2-core x86 host, one BLAS
# thread, Magnus against RK4: n = 3, 195 steps against 5653, 4.5 against
# 24 ms; an n = 7 packet 280 against 8305, 7.4 against 47 ms; bands of
# 5, 7 and 8 levels 2.0x, 1.5x and 1.5x as fast, n = 9 even (38 against
# 39 ms), and bands of 13, 16 and 25 levels 0.58x, 0.63x and 0.38x.
_WINDOW_MAGNUS_MAX_LEVELS = 8

# h max ||H|| inside which an RK4 step does not amplify: the stability
# interval of RK4 on the imaginary axis is |h lambda| <= 2 sqrt(2)
_RK4_STABLE = 2.0 * math.sqrt(2.0)


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
    """Reference frequencies (rad/ps) of the two rotating channels.

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
        from two-photon resonance.
        """
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


def pulse_center_phase(pulse: PulseSpec, center_time: float) -> float:
    """Analytic carrier phase of a pulse at its center time (rad)."""
    return pulse.carrier_phase + K_RAD_PS_PER_CM * pulse.carrier_detuning * center_time


# --- Hamiltonian assembly ---

def _absorption_matrix(system: LevelSystem, channel: str,
                       phase_mask=None) -> np.ndarray:
    """Absorption-leg coupling matrix A (excited rows) for a unit envelope.

    H(t) = diag + w(t) * (exp(-i phi(t)) A + exp(+i phi(t)) A^dagger).
    Dump couplings carry the per-level dipole phases and any pulse phase
    mask in this (absorption) quadrature.
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
        if phase_mask is not None:
            if len(phase_mask) != system.n_excited:
                raise ValueError("phase_mask must hold one phase per excited level")
            couplings = couplings * np.exp(1j * np.asarray(phase_mask))[:, None]
        sl_b = system.slice_ground_b()
        A[sl_e, sl_b] = -0.5 * couplings
    return A


def _diagonal(system: LevelSystem, frame: PhaseFrame) -> np.ndarray:
    return frame.detunings(system) - 0.5j * system.decay_rates()


# --- the kernels ---

# steps, and (problem, step) pairs, whose RK4 drive coefficients are laid
# out at once; bounds the kernel's scratch memory independently of the
# number of steps and of problems
_BLOCK_STEPS = 64
_BLOCK_CELLS = 4096

# the order of each kernel's global error, for the step-doubling rule
_RK4_ORDER = 4
_MAGNUS_ORDER = 6

# (problem, step) pairs times n^2: the complex entries of each stack of
# step operators that _magnus6 lays out at once. 2^15 raised the peak
# RSS of the ramped-trains benchmark by 16 %.
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
# broadcast multiply-adds. Speed against numpy's stacked matmul per
# product, on stacks of 2^13 / n^2 complex matrices, 2-core x86 host:
# 3.9-5.4x at n = 2, 1.7-2.3x at n = 3, 1.1x at n = 4, 0.3-0.9x at n =
# 5-8.
_BROADCAST_MAX_LEVELS = 3

# exp(Omega) - I is the degree-12 Taylor polynomial at Omega / 2^s, with
# s the fewest halvings that bring the 1-norm to at most this: the
# remainder is then below 0.25^13 / 13! = 2.4e-18. Degree 10 at norm 0.5
# left 1.2e-11 per step, which raised the estimate of a resonant n = 3
# train from 2.3e-15 to 1.8e-11.
_TAYLOR_NORM = 0.25


def _basis(diag: np.ndarray, channels, h) -> np.ndarray:
    """-i h (diag, A_1, A_1^dagger, A_2, ...) as one (1 or P, M, n^2)
    stack: the generator -i h H(tau) of a problem is the row (1,
    drive_1(tau), conj(drive_1(tau)), ...) times it. It is stored once
    unless h, the diagonal or an A_c is given per problem."""
    n = diag.shape[-1]
    mats = [diag[..., None] * np.eye(n)]
    for A, _ in channels:
        mats += [A, A.conj().swapaxes(-1, -2)]
    M = len(mats)
    mats = np.stack(np.broadcast_arrays(*mats), axis=-3)
    return (-1j * np.reshape(h, (-1, 1, 1, 1)) * mats).reshape(-1, M, n * n)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of stacks of matrices. Up to _BROADCAST_MAX_LEVELS levels it
    is a sum of n broadcast products of a column of a with a row of b:
    numpy's stacked matmul costs more per tiny matrix than those few
    elementwise passes."""
    n = a.shape[-1]
    if n > _BROADCAST_MAX_LEVELS:
        return a @ b
    out = a[..., :1] * b[..., :1, :]
    for k in range(1, n):
        out += a[..., k:k + 1] * b[..., k:k + 1, :]
    return out


def _chain(x: np.ndarray) -> np.ndarray:
    """(I + x[-1]) ... (I + x[1]) (I + x[0]) - I of a stack of step
    matrices I + X, later steps on the left, multiplied out pairwise (an
    associative scan: Blelloch, CMU-CS-90-190, 1990) and kept as
    (I + X_b)(I + X_a) - I = X_b + X_a + X_b X_a, so that nothing small
    is rounded against the identity."""
    while len(x) > 1:
        a, b = x[:len(x) - 1:2], x[1::2]
        x = np.concatenate([b + a + _mm(b, a), x[len(x) - len(x) % 2:]])
    return x[0]


def _rk4(diag: np.ndarray, channels, y: np.ndarray, h, stride: int | None = None):
    """Fixed-step RK4 of P independent problems in one vectorized pass.

    diag is the (n,) diagonal; channels is a list of (A_c, drive_c),
    drive_c the (P, 2 steps + 1) complex drive w e^{-i phi} sampled on the
    half-step grid tau_j = j h / 2. Shared by all problems or given per
    problem, and stored once when shared: the step h, a scalar or (P,);
    each absorption matrix A_c, (n, n) or (P, n, n); the start y, (n, m)
    or (P, n, m), state columns (m = 1) or operators (m = n).

    G(tau_j) = -i h H(tau_j) is one small product of the samples at
    tau_j with _basis; the samples are laid out one block of at most
    _BLOCK_STEPS steps and _BLOCK_CELLS (problem, step) pairs at a time,
    and y steps through the RK4 stages, with extra memory O(P n^2)
    besides the drives.

    Returns (y, snapshots): y is (P, n, m); snapshots stacks y after
    every stride-th step strictly inside the run, (k, P, n, m), or None.
    """
    P, n = channels[0][1].shape[0], diag.size
    basis = _basis(diag, channels, h)
    M = basis.shape[1]
    steps = (channels[0][1].shape[1] - 1) // 2
    block = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // P))
    coef = np.ones((2 * block + 1, P, 1, M), dtype=complex)

    def generator(j: int) -> np.ndarray:
        return (coef[j] @ basis).reshape(P, n, n)

    snapshots = (np.empty(((steps - 1) // stride, P) + y.shape[-2:], dtype=complex)
                 if stride else None)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        rows = slice(2 * start, 2 * stop + 1)
        for c, (_, drive) in enumerate(channels):
            samples = drive[:, rows].T
            coef[:samples.shape[0], :, 0, 1 + 2 * c] = samples
            coef[:samples.shape[0], :, 0, 2 + 2 * c] = samples.conj()
        g_end = generator(0)
        for k in range(start, stop):
            j = 2 * (k - start)
            g_start, g_mid, g_end = g_end, generator(j + 1), generator(j + 2)
            k1 = g_start @ y
            k2 = g_mid @ (y + 0.5 * k1)
            k3 = g_mid @ (y + 0.5 * k2)
            k4 = g_end @ (y + k3)
            y = y + (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            if stride and (k + 1) % stride == 0 and k + 1 < steps:
                snapshots[(k + 1) // stride - 1] = y
    return y, snapshots


def _expm1(omega: np.ndarray) -> np.ndarray:
    """exp(omega) - I of a (K, n, n) stack, each matrix on its own.

    Scaling and squaring: w = omega / 2^s, with s the fewest halvings
    that bring its 1-norm to at most _TAYLOR_NORM, goes through the
    Taylor polynomial sum_{j=1}^{12} w^j / j!, evaluated by Horner's rule
    in w^3 (Paterson and Stockmeyer, SIAM J. Comput. 2, 60 (1973)) in
    five products; then s squarings X <- 2 X + X X bring it back. It is
    kept as exp - I throughout, so that nothing small is rounded against
    the identity.
    """
    eye = np.eye(omega.shape[-1])
    norm = np.abs(omega).sum(axis=-2).max(axis=-1)
    halvings = np.maximum(np.frexp(norm / _TAYLOR_NORM)[1], 0)
    w = omega * (0.5 ** halvings)[:, None, None]
    w2 = _mm(w, w)
    w3 = _mm(w2, w)

    def chunk(j: int) -> np.ndarray:
        # w^j / j! + w^(j+1) / (j+1)! + w^(j+2) / (j+2)!, less a factor w^j
        c = 1.0 / math.factorial(j)
        return c * eye + (c / (j + 1)) * w + (c / ((j + 1) * (j + 2))) * w2

    x = chunk(9) + w3 / math.factorial(12)
    for j in (6, 3):
        x = chunk(j) + _mm(w3, x)
    x = w + 0.5 * w2 + _mm(w3, x)
    for r in range(int(halvings.max(initial=0))):
        sel = halvings > r
        xs = x[sel]
        x[sel] = 2.0 * xs + _mm(xs, xs)
    return x


def _magnus_steps(omega, y: np.ndarray, steps: int, block: int,
                  stride: int | None = None):
    """The Magnus step loop that pulses and windows share: y <- exp(Omega)
    y over `steps` steps, omega(start, stop) giving the (stop - start, P,
    n, n) Omega stack of those steps. A block holds at most `block` steps
    and ends at every stride-th step; _expm1 gives its exp(Omega) - I and
    _chain multiplies them out for y <- y + X y.

    Returns (y, snapshots) as _rk4 does.
    """
    snapshots = None
    start = 0
    while start < steps:
        stop = min(start + block, steps)
        if stride:
            stop = min(stop, start - start % stride + stride)
        om = omega(start, stop)
        x = _chain(_expm1(om.reshape((-1,) + om.shape[-2:])).reshape(om.shape))
        y = y + _mm(x, y)
        if stride and snapshots is None:
            snapshots = np.empty(((steps - 1) // stride,) + y.shape, dtype=complex)
        if stride and stop % stride == 0 and stop < steps:
            snapshots[stop // stride - 1] = y
        start = stop
    return y, snapshots


def _magnus6(diag: np.ndarray, channels, y: np.ndarray, h,
             stride: int | None = None):
    """Sixth-order Magnus steps of P independent windows in one pass.

    The inputs are _rk4's, except that drive_c is (P, 3 steps): the
    drive at the three Gauss-Legendre nodes of every step. With G_i = -i
    h H at node i, a step is y <- exp(Omega) y with

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

    The alphas of a block of steps are one batched product of their
    drive coefficients with _basis, and Omega takes three commutators of
    them per step. A window drives two channels with phase callables, so
    its commutators have no small basis; a pulse's do (_pulse_pass).
    The steps are _magnus_steps, in blocks of at most _BLOCK_ENTRIES /
    n^2 (problem, step) pairs.
    """
    P, n = channels[0][1].shape[0], diag.shape[-1]
    basis = _basis(diag, channels, h)
    steps = channels[0][1].shape[1] // 3
    block = max(1, min(steps, _BLOCK_ENTRIES // (P * n * n)))
    coef = np.zeros((3, block, P, 1, basis.shape[1]), dtype=complex)
    coef[0, ..., 0] = 1.0  # the diagonal enters alpha_1 only

    def omega(start: int, stop: int) -> np.ndarray:
        k = stop - start
        for c, (_, drive) in enumerate(channels):
            nodes = drive[:, 3 * start:3 * stop].reshape(P, k, 3)
            weights = (nodes @ _ALPHA_WEIGHTS.T).transpose(2, 1, 0)
            coef[:, :k, :, 0, 1 + 2 * c] = weights
            coef[:, :k, :, 0, 2 + 2 * c] = weights.conj()
        a1, a2, a3 = (coef[:, :k] @ basis).reshape(3, k, P, n, n)
        c1 = _mm(a1, a2) - _mm(a2, a1)
        b = 2.0 * a3 + c1
        c2 = (_mm(b, a1) - _mm(a1, b)) / 60.0
        left, right = c1 - 20.0 * a1 - a3, a2 + c2
        return a1 + a3 / 12.0 + (_mm(left, right) - _mm(right, left)) / 240.0
    return _magnus_steps(omega, y, steps, block, stride)


def _estimate_n0(length, bound, limit: float = math.pi,
                 least: int = MIN_STEPS_PER_PULSE // 32) -> int:
    """The N0 of a step-doubling estimate over `length` ps (per problem,
    with the norm bound per problem) by a kernel whose steps must keep h
    max ||H|| < limit: `least`, or the fewest steps that keep h bound <
    limit / 2. Nearer the bound the error does not follow the kernel's
    order. On Magnus steps (limit pi) it fell faster than N^-6: on the
    n = 25 band crp train 920x from 8 steps (h max ||H|| = 3.0) to 16,
    and an estimate from 8 steps chose 137 steps where 88 met the
    tolerance. On RK4 steps (the stability limit 2 sqrt(2)) it fell
    slower than N^-4: on the 25-level band reference 8.2x from 625
    steps (h bound = 2.3) to 1250, and an estimate from 625 steps chose
    4657 steps that missed the tolerance 2x."""
    return max(least, int(np.max(length * bound // (limit / 2.0))) + 1)


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
    pulses that differ from it only in area, shape or width: the
    carrier-frame diagonal D' = D - omega (excited levels) on its block,
    the (9, b^2) basis Y, B3, ..., B10 without h, and the two parts of
    the norm bound max ||H'||_2 <= max |D'| + max f ||A||_F over all n
    levels (A couples ground columns to excited rows only, so ||f V_0||_2
    = f ||A||_2)."""

    diag: np.ndarray
    basis: np.ndarray
    offset: float
    coupling: float


def _pulse_bases(system: LevelSystem, frame: PhaseFrame, pulses,
                 cache: dict) -> list:
    """Each pulse's _PulseBasis, built once per channel, phase mask and
    carrier detuning and kept in `cache` for the passes of one system and
    frame.

    In its carrier's frame, R(t) = exp(-i omega (t - T/2)) on the
    excited levels, a pulse's Hamiltonian is H' = D' + f(t) V_0, f the
    real envelope and V_0 = A + A^dagger (the centre phase enters by
    conjugation, _integrate_pulses). With x = diag(D'), Delta_ij = x_i -
    x_j and Y = V_0, every commutator of Omega is one of

        B3 = Delta . Y,  B4 = Delta . B3,  B6 = Delta . B4,
        B5 = [Y, B3],  B7 = Delta . B5,  B8 = [Y, B5],
        B9 = [B3, B4],  B10 = [B3, B5]

    (. elementwise: [X, M] = Delta . M for a diagonal X), as in the
    free-Lie-algebra computations of Munthe-Kaas and Owren, Phil. Trans.
    R. Soc. A 357, 957 (1999); [Y, B4] = B7 by the Jacobi identity.
    """
    out = []
    for pulse in pulses:
        key = (pulse.channel, pulse.phase_mask, pulse.carrier_detuning)
        if key not in cache:
            rows = _blocks(system, [pulse])[0]
            full = _diagonal(system, frame)
            full[system.slice_excited()] -= (K_RAD_PS_PER_CM
                                             * pulse.carrier_detuning)
            A = _absorption_matrix(system, pulse.channel, pulse.phase_mask)
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
            cache[key] = _PulseBasis(x, basis.reshape(9, -1),
                                     float(np.abs(full).max()),
                                     float(np.linalg.norm(A)))
        out.append(cache[key])
    return out


def _pulse_pass(bases, pulses, steps: int, stride: int | None = None):
    """Magnus steps from the identity over each pulse's support in its
    carrier's frame, on its block of levels (_pulse_bases): returns the
    (P, b, b) frame operators U', their snapshots and h max ||H'|| per
    pulse, the bound taken over all n levels.

    f_1, f_2, f_3 are _ALPHA_WEIGHTS applied to the envelope at the
    step's three Gauss-Legendre nodes; with X = -i h D' and Y = -i h V_0
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
    """
    P, b = len(pulses), bases[0].diag.size
    h = np.array([p.support_ps / steps for p in pulses])
    f = np.empty((P, steps, 3))
    nodes = np.arange(steps)[:, None] + _GAUSS_NODES
    for row, p in zip(f, pulses):
        row[:] = rabi_envelope(p, nodes * (p.support_ps / steps))
    f1, f2, f3 = (f @ _ALPHA_WEIGHTS.T).transpose(2, 0, 1)
    l1, l3 = f2, -(20.0 * f1 + f3)
    r2, r3, r4 = -f3 / 30.0, -f2 / 60.0, -f1 * f2 / 60.0
    terms = np.array([f1 + f3 / 12.0, -20.0 * f2, -20.0 * r2,
                      l3 * r2 - l1 * f2, -20.0 * r3, -20.0 * r4 + l3 * r3,
                      l3 * r4, l1 * r3, l1 * r4])
    # (steps, P, 1, 9) coefficients of the (P, 9, b^2) basis
    scale = (-1j * h[:, None]) ** _BASIS_DEPTH * _BASIS_WEIGHTS
    coef = np.multiply(terms.T, scale, order="C")[:, :, None]
    basis = np.array([g.basis for g in bases])
    x = -1j * h[:, None] * np.array([g.diag for g in bases])

    def omega(start: int, stop: int) -> np.ndarray:
        om = (coef[start:stop] @ basis).reshape(stop - start, P, b, b)
        om.reshape(stop - start, P, b * b)[..., ::b + 1] += x
        return om

    block = max(1, min(steps, _BLOCK_ENTRIES // (P * b * b)))
    y, snapshots = _magnus_steps(omega, np.eye(b, dtype=complex), steps,
                                 block, stride)
    bound = (np.array([g.offset for g in bases])
             + np.abs(f).max(axis=(1, 2)) * np.array([g.coupling for g in bases]))
    return y, snapshots, h * bound


def _embed(block: np.ndarray, rows: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(..., P, n, n) operators that are block (..., P, b, b) on each
    problem's rows and the diagonal phase (..., P, n) elsewhere."""
    out = phase[..., None] * np.eye(phase.shape[-1])
    out[..., np.arange(len(rows))[:, None, None], rows[:, :, None],
        rows[:, None, :]] = block
    return out


def _integrate_pulses(system: LevelSystem, frame: PhaseFrame, pulses,
                      center_phases, steps: int, stride: int | None = None,
                      cache: dict | None = None):
    """The (P, n, n) evolution operators of Magnus steps over each
    pulse's support, all pulses in one batched pass, and their (S, P, n,
    n) snapshots every stride steps (or None); `cache` holds the bases
    of earlier passes on this system and frame.

    The pass runs on each pulse's block of levels in its carrier's frame
    (_pulse_pass). With phi_c the centre phase and g(t) = exp(-i (omega
    (t - T/2) + phi_c)) on the block's excited levels (1 elsewhere), the
    operator up to time t is g(t) U'(t) conj(g(0)), elementwise in rows
    and columns: the frame's rotation, and V = e^{-i phi_c} A + h.c.
    from V_0 by the same diagonal conjugation. The levels outside the
    block take their exact free phase exp(-i d_k t), decay included,
    over the support or up to the snapshot. Raises NumericsError naming
    the channel of the first pulse whose steps leave the convergence
    bound h max ||H'|| < pi: past it the Magnus series diverges, and a
    step would return a finite, wrong operator.
    """
    bases = _pulse_bases(system, frame, pulses, {} if cache is None else cache)
    block, snapshots, bound = _pulse_pass(bases, pulses, steps, stride)
    outside = ~(bound < math.pi)
    if outside.any():
        first = int(np.argmax(outside))
        raise NumericsError(
            f"{steps} steps per pulse leave the Magnus convergence bound "
            f"h max|H| < pi of a {pulses[first].channel} pulse (h max|H| = "
            f"{bound[first]:.3g})")
    diag, rows = _diagonal(system, frame), _blocks(system, pulses)
    levels = system.slice_excited()
    excited = (rows >= levels.start) & (rows < levels.stop)
    omega = K_RAD_PS_PER_CM * np.array([[p.carrier_detuning] for p in pulses])
    phi = np.asarray(center_phases, dtype=float)[:, None]
    support = np.array([p.support_ps for p in pulses])[:, None]

    def frame_phase(t):
        return np.where(excited, np.exp(-1j * (omega * (t - support / 2.0) + phi)),
                        1.0)

    right = np.conj(frame_phase(0.0))[:, None, :]
    block = frame_phase(support)[:, :, None] * block * right
    ops = _embed(block, rows, np.exp(-1j * diag * support))
    if snapshots is not None:
        t = (stride * np.arange(1, len(snapshots) + 1)[:, None, None]
             * (support / steps))
        snapshots = frame_phase(t)[..., None] * snapshots * right
        snapshots = _embed(snapshots, rows, np.exp(-1j * diag * t))
    return ops, snapshots


def _steps(steps: int | None) -> int:
    return MIN_STEPS_PER_PULSE if steps is None else max(int(steps), 4)


# --- step counts from a tolerance ---

def _doubling_error(order: int, coarse, fine) -> float:
    """2^p / (2^p - 1) max |y_N - y_2N|, the step-doubling estimate of
    the error of N steps of a kernel of order p; coarse() and fine() run
    the passes of N and 2N steps. A pass that blows up estimates an
    infinite error."""
    with np.errstate(all="ignore"):
        err = float(np.max(np.abs(coarse() - fine())))
    err *= 2.0 ** order / (2.0 ** order - 1.0)
    return err if math.isfinite(err) else math.inf


def _pulse_error(system: LevelSystem, frame: PhaseFrame, pulses, n0: int,
                 cache: dict | None = None) -> float:
    """The step-doubling error of n0 Magnus steps per pulse. Its passes
    are not held to the convergence bound, and compare the carrier-frame
    block operators: the frame's phases and those outside the blocks
    are the same in both passes and of modulus 1."""
    bases = _pulse_bases(system, frame, pulses, {} if cache is None else cache)
    return _doubling_error(_MAGNUS_ORDER,
                           lambda: _pulse_pass(bases, pulses, n0)[0],
                           lambda: _pulse_pass(bases, pulses, 2 * n0)[0])


def _window_cap(duration: float) -> int:
    """The default steps of a window: 200 per ps, at least 4000."""
    return max(4000, int(200.0 * duration))


def _chosen_steps(steps: int | None, cap: int, events: int, order: int,
                  n0: int, error, multiple: int = 1,
                  doubled: bool = False) -> tuple[int, dict]:
    """The given steps (at least 4), or the tolerance rule's for a kernel
    of the given order whose count defaults to cap, rounded up to a
    multiple of `multiple`, and their diagnostics; error(n0) estimates
    one event's error at n0 <= cap steps. A caller that keeps the
    estimate's pass of 2 n0 steps sets doubled: the rule then takes at
    least those steps, since they cost nothing more."""
    if steps is not None:
        n = _steps(steps)
        return n, {"steps": n, "error_estimate": None, "events": events}
    n0 = min(n0, cap)
    err = error(n0)
    ratio = 2.0 * events * err / _TOLERANCE
    if ratio >= (cap / n0) ** order:
        n = cap
    else:
        least = min(2 * n0, cap) if doubled else n0
        n = max(least, math.ceil(n0 * ratio ** (1.0 / order)))
    n = -(-n // multiple) * multiple
    estimate = events * err * (n0 / n) ** order
    if n >= cap and estimate > _TOLERANCE:
        # loaded only here, so that importing papsim loads numpy only
        import logging

        logging.getLogger(__name__).warning(
            "steps held at their cap of %d: estimated error %.2g exceeds "
            "the tolerance %.2g", cap, estimate, _TOLERANCE)
    return n, {"steps": n, "error_estimate": estimate, "events": events}


def _train_steps(system: LevelSystem, frame: PhaseFrame,
                 schedule: TrainSchedule, steps: int | None,
                 dense: bool, cache: dict) -> tuple[int, dict]:
    """The Magnus steps per pulse of a schedule and their diagnostics:
    the given steps, or the tolerance rule over the events of one row,
    at most MIN_STEPS_PER_PULSE, which a dense run rounds up to a
    multiple of _DENSE_SAMPLES.

    The rule estimates on the largest-area pulse of each group of pulses
    that differ only in area (for a runner's train, one pump and one
    dump), at the N0 of _estimate_n0, with the norm bound of H' in the
    carrier frame. `cache` keeps the pulse bases (_pulse_bases) for the
    production pass.
    """
    largest = {}
    if steps is None:
        for p in schedule.pulses:
            key = replace(p, area=0.0)
            if key not in largest or abs(p.area) > abs(largest[key].area):
                largest[key] = p
    group = list(largest.values())
    n0 = MIN_STEPS_PER_PULSE // 32
    if group:
        peak = np.abs([rabi_envelope(p, p.support_ps / 2.0) for p in group])
        bound = np.array([g.offset + a * g.coupling for g, a in
                          zip(_pulse_bases(system, frame, group, cache), peak)])
        n0 = _estimate_n0(np.array([p.support_ps for p in group]), bound)
    n, diagnostics = _chosen_steps(
        steps, MIN_STEPS_PER_PULSE, schedule.time.shape[-1], _MAGNUS_ORDER, n0,
        lambda n0: _pulse_error(system, frame, group, n0, cache) if group else 0.0,
        _DENSE_SAMPLES if dense else 1)
    return n, {**diagnostics, "distinct_pulses": len(schedule.pulses)}


def propagate_pulse(state: QuantumState, system: LevelSystem, pulse: PulseSpec,
                    frame: PhaseFrame, steps: int | None = None) -> QuantumState:
    """Propagate through one pulse whose support starts at state.time.

    Fixed-step sixth-order Magnus, by default MIN_STEPS_PER_PULSE steps
    over the support (override via ``steps``); raises NumericsError if
    the steps leave the convergence bound. The carrier phase at the pulse
    center is pulse.carrier_phase plus the analytic comb slip
    K * carrier_detuning * t_center.
    """
    t_center = state.time + pulse.support_ps / 2.0
    ops, _ = _integrate_pulses(system, frame, [pulse],
                               [pulse_center_phase(pulse, t_center)],
                               _steps(steps))
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
                t0, stride: int | None = None, visit=None,
                cache: dict | None = None):
    """Integrate schedule.pulses, in their stored order, in one batched
    pass of _train_steps(steps) Magnus steps, then step the (C, n) stack amps, row
    c from time t0[c] through row c of the schedule (one train for C = 1,
    or a (C, E) column stack), and return the final (amps, times). Event
    k applies operator schedule.pulse[k]; a row's result does not depend
    on the other rows. visit(k, start, op, rotated, z, amps, end,
    snapshots) sees each event k; snapshots are the operators' states
    every stride steps of the pass. `cache` holds the pulse bases of a
    caller's estimate (_train_steps)."""
    n, pulses = system.n_levels, schedule.pulses
    ops = snapshots = None
    cache = {} if cache is None else cache
    if pulses:
        ops, snapshots = _integrate_pulses(
            system, frame, pulses, [0.0] * len(pulses),
            _train_steps(system, frame, schedule, steps, False, cache)[0],
            stride, cache)
    op_rows, time, phase, support = np.atleast_2d(
        schedule.pulse, schedule.time, schedule.carrier_phase, schedule.support)
    starts = time - support / 2.0
    times = np.column_stack([t0, starts + support])
    gaps = starts - times[:, :-1]
    # pulse_center_phase, element by element
    detuning = np.array([K_RAD_PS_PER_CM * p.carrier_detuning for p in pulses])
    phases = np.exp(1j * (phase + detuning[op_rows] * time))
    # the levels whose phase each pulse carries: ground_a for a pump,
    # ground_b for a dump
    level, excited = np.arange(n), system.slice_excited()
    dump = np.array([p.channel == "dump" for p in pulses], dtype=bool)
    carried = np.where(dump[:, None], level >= excited.stop,
                       level < excited.start)[op_rows]
    # every event's phase conjugation z and, on entry, its conjugate times
    # the free evolution over the gap before it (none for a gap <= 0: the
    # factor is then exactly 1), laid out before the loop
    z = np.where(carried, phases[..., None], 1.0)
    drift = np.exp(-1j * _diagonal(system, frame)
                   * np.maximum(gaps, 0.0)[..., None])
    entry = np.conj(z) * drift
    for k in range(time.shape[1]):
        rotated = entry[:, k] * amps
        amps = z[:, k] * np.matmul(ops[op_rows[:, k]], rotated[:, :, None])[:, :, 0]
        if visit is not None:
            visit(k, starts[:, k], op_rows[:, k], rotated, z[:, k], amps,
                  times[:, k + 1], snapshots)
    return amps, times[:, -1]


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
    MIN_STEPS_PER_PULSE, and for a dense run a multiple of 40; the
    trajectory's diagnostics report it.

    The distinct pulses of the schedule (equal up to carrier phase) are
    integrated together in one batched pass, each into its evolution
    operator; per-event carrier phases enter through an exact diagonal
    conjugation, so a train costs one pass plus matrix-vector products.
    Dense recording keeps operator snapshots from the same pass and
    applies them to the state entering each pulse.
    """
    if record not in ("compressed", "dense", "none"):
        raise ValueError(f"unknown record policy {record!r}")
    dense = record == "dense"
    if frame is None:
        frame = PhaseFrame.for_system(system)
    if len(state.amplitudes) != system.n_levels:
        raise ValueError("state length does not match system")
    if schedule.time.size and state.time > schedule.start_time + 1e-12:
        raise ValueError(
            f"state at t={state.time} ps starts after the first pulse support "
            f"({schedule.start_time} ps)")

    cache = {}
    n_steps, diagnostics = _train_steps(system, frame, schedule, steps, dense,
                                        cache)
    stride = max(1, n_steps // _DENSE_SAMPLES) if dense else None
    support = schedule.support
    times = [state.time]
    pops = [state.populations()]

    def visit(k, start, op, rotated, z, amps, end, snapshots):
        if dense:
            inner = z[0] * (snapshots[:, op[0]] @ rotated[0])
            h = support[k] / n_steps
            times.extend(start[0] + stride * np.arange(1, len(inner) + 1) * h)
            pops.extend(np.abs(inner) ** 2)
        if record != "none" or k == len(support) - 1:
            times.append(end[0])
            pops.append(np.abs(amps[0]) ** 2)

    amps, end = _run_events(system, frame, schedule, n_steps,
                            state.amplitudes[None], [state.time], stride, visit,
                            cache)
    pops_arr = np.array(pops)
    return Trajectory(
        times=np.array(times),
        populations=pops_arr,
        norms=pops_arr.sum(axis=1),
        labels=system.labels,
        # an empty schedule hands back the state it was given
        final_state=QuantumState(amps[0], float(end[0])) if len(support) else state,
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
    use this; scheduled trains never need it. Up to
    _WINDOW_MAGNUS_MAX_LEVELS levels the window takes sixth-order Magnus
    steps, each callable sampled once at the three Gauss-Legendre nodes
    of every step; larger windows take RK4 steps, each callable sampled
    once on the half-step grid. A callable that returns a non-finite
    value raises NumericsError.

    steps=None takes the count from the tolerance (_TOLERANCE): the
    state is integrated over the whole window at N0 and 2 N0 steps, and
    the step-doubling estimate sets the count, between N0 and the cap
    max(4000, 200 per ps) (_window_cap). N0 is that of _estimate_n0 (at
    least 8 on Magnus steps, cap // 32 on RK4), its bound read off the
    samples at N0; both passes run on the records below, and the count
    is at least 2 N0, so that the estimate's finer pass is the result
    when that is enough.
    Otherwise a given count is taken as it is, at least 4 steps. The
    trajectory's diagnostics report the steps and the estimate at them.
    A count whose steps leave h max ||H|| < pi (Magnus convergence) or
    2 sqrt(2) (RK4 stability) raises NumericsError; the estimate's
    passes are exempt.

    The trajectory records the state every s = max(1, steps // 400)
    steps and at the end. Up to _WINDOW_SEGMENT_MAX_LEVELS levels the
    window is cut into segments of s steps; their evolution operators,
    each with its own slice of the drive samples, are integrated as one
    batched pass, the steps % s tail steps as one more small pass, and
    the state is chained through the operators in time order. Larger
    systems, where the operators' flops outweigh the call overhead they
    save, step the state itself and record a kernel snapshot every s
    steps.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    t0 = state.time
    A = (_absorption_matrix(system, "pump"), _absorption_matrix(system, "dump"))
    diag, n = _diagonal(system, frame), system.n_levels
    start = state.amplitudes.astype(complex)
    magnus = n <= _WINDOW_MAGNUS_MAX_LEVELS
    # each kernel's samples per step, whether segments share their end
    # samples, its order, and the bound of h max ||H - centre|| its steps
    # must keep
    if magnus:
        kernel, per_step, shared, order = _magnus6, 3, 0, _MAGNUS_ORDER
        limit, kind = math.pi, "Magnus convergence"
        # a constant shift of the diagonal commutes with H and leaves
        # every commutator of Omega as it is: only the spread about the
        # real midpoint counts towards the convergence bound
        centre = 0.5 * (diag.real.max() + diag.real.min())
    else:
        kernel, per_step, shared, order = _rk4, 2, 1, _RK4_ORDER
        limit, kind = _RK4_STABLE, "RK4 stability"
        centre = 0.0
    offset = np.abs(diag - centre).max()

    @functools.cache
    def sampled(steps: int):
        if magnus:
            tau = ((np.arange(steps)[:, None] + _GAUSS_NODES)
                   * (duration / steps)).ravel()
        else:
            tau = np.linspace(0.0, duration, 2 * steps + 1)
        grid = t0 + tau
        drives = []
        for rabi, phase in ((pump_rabi, pump_phase), (dump_rabi, dump_phase)):
            d = np.fromiter(map(rabi, grid), complex, grid.size)
            if phase is not None:
                d *= np.exp(-1j * np.fromiter(map(phase, grid), float, grid.size))
            drives.append(d)
        if not all(np.isfinite(d).all() for d in drives):
            raise NumericsError("a drive of the window is not finite")
        return drives

    def bound(steps: int) -> float:
        # max ||H - centre|| over the samples, at most
        return offset + sum(np.abs(d).max() * np.linalg.norm(a)
                            for a, d in zip(A, sampled(steps)))

    @functools.cache
    def records(steps: int) -> list:
        h, stride = duration / steps, max(1, steps // 400)
        drives = sampled(steps)
        if n > _WINDOW_SEGMENT_MAX_LEVELS:
            y, snapshots = kernel(diag, [(a, d[None]) for a, d in zip(A, drives)],
                                  start[:, None], h, stride)
            return [start, *snapshots[:, 0, :, 0], y[0, :, 0]]
        # segment k spans samples k w ... (k + 1) w of w = per_step
        # stride, plus the sample it shares with the next segment on the
        # RK4 grid, a view into the samples; the tail is one more pass
        K, width = steps // stride, per_step * stride
        passes = [[sliding_window_view(d, width + shared)[::width] for d in drives]]
        if steps % stride:
            passes.append([d[None, K * width:] for d in drives])
        amps = [start]
        for segments in passes:
            ops, _ = kernel(diag, list(zip(A, segments)), np.eye(n, dtype=complex), h)
            for op in ops:
                amps.append(op @ amps[-1])
        return amps

    cap = _window_cap(duration)
    least = MIN_STEPS_PER_PULSE // 32 if magnus else cap // 32
    # the peak drive is read off the samples, so N0 rises until its own
    # samples keep it (or it reaches the cap)
    n0 = least
    while (steps is None and n0 < cap
           and (need := _estimate_n0(duration, bound(n0), limit, least)) > n0):
        n0 = need

    def error(n0: int) -> float:
        return _doubling_error(order, lambda: records(n0)[-1],
                               lambda: records(2 * n0)[-1])

    steps, diagnostics = _chosen_steps(steps, cap, 1, order, n0, error,
                                       doubled=True)
    h, stride = duration / steps, max(1, steps // 400)
    reach = h * bound(steps)
    if not reach < limit:
        raise NumericsError(
            f"{steps} window steps leave the {kind} bound h max|H| < "
            f"{limit:.3g} (h max|H| = {reach:.3g})")
    amps = records(steps)
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
        phi_c = pulse_center_phase(pulse, ev.time)
        dw = K_RAD_PS_PER_CM * pulse.carrier_detuning
        tau = (np.arange(steps) + 0.5) * h
        phi = phi_c + dw * (tau - T / 2.0)
        field = rabi_envelope(pulse, tau) * np.exp(-1j * phi)
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
