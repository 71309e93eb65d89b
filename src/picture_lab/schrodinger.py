"""Grid-based Schrodinger-picture engine.

Holds the oscillator ground state and its displaced (coherent) form on a
uniform position grid, evaluates position moments by grid quadrature,
and propagates states by split-operator steps: the second-order Strang
step, kinetic-potential-kinetic with any time-dependent drive evaluated
at the half step; the same step with the oscillator's exact shear times,
which has no time error without a drive; or two such exact half-turns,
whose kicks and global phase follow the exact flow of the drive's
quadratic through each step's three table samples.

The exact solution of the linearly driven problem is the ground state
displaced along the classical trajectory q_c(t), momentum-boosted by
m qd_c(t), times a global phase built from the classical action.  The
probability density, and hence every position moment, is independent of
the boost and the global phase; ``propagate`` reproduces the full
complex state so that this can be tested rather than assumed.
"""

from __future__ import annotations

import inspect
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

# build_drive_table is unused here: bench/spans.py wraps this module's attribute
from .classical import ClassicalTrajectory, DriveTable, build_drive_table
from .errors import GridTooNarrow, NotDisplacedGaussian, NotNormalized, StepTooCoarse
from .model import OscillatorParams, TimeGrid, ground_state_width

#: default number of ground-state widths between the state and the grid edge
DEFAULT_PADDING_SIGMAS = 11.0
#: fewest grid cells; also the floor of the sizing rule in PositionGrid.for_state,
#: which gives the ground state 64 at the default padding (121/pi = 38.5 cells)
MIN_N_POINTS = 64

_BOUNDARY_DENSITY_LIMIT = 1e-10  # fraction of peak density tolerated at the edge
#: bytes of each of propagate's block buffers, one row per step: the spectra,
#: the staggered or record states, and each kick's factors; one pass of record
#: transforms, moments and guards serves each block of steps, and its ~50 numpy
#: calls cost some 150 us, so a block of (3, 64) stacks holds 42 steps
_BLOCK_BYTES = 1 << 17

#: one step K(a_0) V_1 K(a_1) ... V_s K(a_s) of a splitting at one (omega0, dt),
#: K(a) = exp(-i a p^2 / 2m hbar), V_j = exp(-i b_j (m omega0^2 x^2 / 2 - F_j x) / hbar):
#: the times a and b, each kick's weights on the step's table samples f = (F(t),
#: F(t + dt/2), F(t + dt)), summing to F_j, and None or the phase form Q, f^T Q f / m hbar
StepRow = namedtuple("StepRow", "kinetic kicks weights phase", defaults=(None,))
#: Strang's kick takes the drive at the midpoint sample
_MIDPOINT = ((0.0, 1.0, 0.0),)


def _strang(omega0, dt):
    """K(dt/2) V(dt) K(dt/2), second order."""
    return StepRow((0.5 * dt, 0.5 * dt), (dt,), _MIDPOINT)


def _rotation(omega0, dt):
    """Strang's row with the oscillator's shear times: a turn of phase space
    by theta = omega0 dt is exactly three shears, K(tan(theta/2)/omega0)
    V(sin theta/omega0) K(tan(theta/2)/omega0) (A. W. Paeth, Graphics
    Interface '86, 77), phase included in the metaplectic representation
    (R. G. Littlejohn, Phys. Rep. 138, 193 (1986)).  Exact undriven and
    under a constant force; a varying drive leaves second order."""
    theta = omega0 * dt
    half = math.tan(0.5 * theta) / omega0
    return StepRow((half, half), (math.sin(theta) / omega0,), _MIDPOINT)


def _lagrange(v):
    """The Lagrange basis through the sample offsets 0, 1/2, 1 of a step, at
    offsets ``v``, an array (in steps): shape (3, *v.shape)."""
    return np.stack(((2.0 * v - 1.0) * (v - 1.0), 4.0 * v * (1.0 - v), v * (2.0 * v - 1.0)))


def _rotation2(omega0, dt):
    """Two exact half-turns K(alpha) V(beta) K(2 alpha) V(beta) K(alpha),
    alpha = tan(theta/4)/omega0, beta = sin(theta/2)/omega0, exact for the
    quadratic F through f.  The impulses J = beta (F_1, F_2) shift the
    step's end by M J, M = [R(theta/2) (alpha/m, 1), (alpha/m, 1)]; the
    exact flow by W f, W the Duhamel weights int_0^dt (sin omega0 (dt - s)
    / m omega0, cos omega0 (dt - s)) L_k(s) ds of the Lagrange basis.  So
    J = M^-1 W f (J_1 = J_2 = beta F for a constant F), and the state is
    off only by the global phase Q: the exact action from the origin,
    (delta_x delta_p + int F q ds)/2, less the scheme's, to which each
    drift adds p^2 a / 2m and each kick J x - b m omega0^2 x^2 / 2 (E. J.
    Heller, J. Chem. Phys. 62, 1544 (1975)).  Computed at m = 1, as W,
    M^-1 W and the actions scale with 1/m together."""
    theta = omega0 * dt
    alpha, beta = math.tan(0.25 * theta) / omega0, math.sin(0.5 * theta) / omega0

    # the scheme from the origin: J_1 at x = 0, a drift to x = 2 alpha J_1,
    # J_2 there, p = c J_1 + J_2, a drift alpha; the action adds alpha J_1^2,
    # J_2 x - beta omega0^2 x^2 / 2 and alpha p^2 / 2, a form in (J_1, J_2)
    c = 1.0 - 2.0 * alpha * beta * omega0**2
    shift = np.array([[(2.0 + c) * alpha, alpha], [c, 1.0]])  # M
    action = alpha * np.array([[c + 0.5 * c * c, 1.0 + 0.5 * c], [1.0 + 0.5 * c, 0.5]])

    # the exact flow of F = sum_k f_k L_k from the origin: its shift, and the
    # path at each node s, int_0^s sin omega0 (s - u) / omega0 F(u) du, by
    # Gauss-Legendre rules of 16 nodes z and weights w on [0, 1]
    z, w = np.polynomial.legendre.leggauss(16)
    z, w = 0.5 * (z + 1.0), 0.5 * w
    s = dt * z
    basis = _lagrange(z) * (dt * w)
    duhamel = np.stack((np.sin(omega0 * (dt - s)) / omega0, np.cos(omega0 * (dt - s)))) @ basis.T
    u = s[:, None] * z
    path = np.sum(_lagrange(u / dt) * (s[:, None] * w)
                  * (np.sin(omega0 * (s[:, None] - u)) / omega0), axis=-1)
    exact = 0.5 * (np.outer(duhamel[0], duhamel[1]) + basis @ path.T)

    impulses = np.linalg.solve(shift, duhamel)  # M^-1 W, duhamel being W
    q = exact - impulses.T @ action @ impulses
    return StepRow((alpha, 2.0 * alpha, alpha), (beta, beta),
                   tuple(map(tuple, impulses / beta)), 0.5 * (q + q.T))


#: each splitting's row of ``StepRow`` at (omega0, dt)
SPLITTINGS = {"strang": _strang, "rotation": _rotation, "rotation2": _rotation2}

#: the core signatures of numpy's pocketfft gufuncs (numpy >= 2.0)
_GUFUNC_SIGNATURES = {"fft": "(n),()->(m)", "ifft": "(m),()->(n)"}


def _copying_out(transform):
    """``transform``, taking ``out=`` by copying its result into it: np.fft
    accepts ``out`` only from numpy 2.0 on."""
    def call(a, out=None):
        if out is None:
            return transform(a)
        out[...] = transform(a)
        return out
    return call


def _resolve_transforms(umath):
    """The last-axis transforms of ``propagate``, of complex128 arrays, as a
    pair (fft, ifft), each called as ``fft(a)`` or ``fft(a, out=buffer)``.

    ``umath`` is numpy's private ``numpy.fft._pocketfft_umath``, or None
    where it cannot be imported.  Its gufuncs are what ``np.fft.fft`` and
    ``np.fft.ifft`` call underneath, with the factor 1 or 1/n; called
    directly they skip numpy's Python wrapper, about half the cost of a
    call at 256 points, and give the same result bit for bit.  Their core
    axis is the last one by default, so they are called with no ``axes``,
    which a gufunc would parse on every call, with ``out`` passed
    positionally, and with their factors as 0-d arrays made once.  When
    ``umath`` is None or its ufuncs lack the expected signatures, the pair
    is ``np.fft.fft``/``ifft`` themselves, wrapped by ``_copying_out`` where
    they take no ``out``.
    """
    fwd, inv = (getattr(umath, name, None) for name in _GUFUNC_SIGNATURES)
    if (getattr(fwd, "signature", None), getattr(inv, "signature", None)) \
            != tuple(_GUFUNC_SIGNATURES.values()):
        if "out" in inspect.signature(np.fft.fft).parameters:
            return np.fft.fft, np.fft.ifft
        return _copying_out(np.fft.fft), _copying_out(np.fft.ifft)

    # the factors as 0-d arrays, which a Python number is converted to on
    # every call; a fresh output unless one is given, as a gufunc cannot size it
    one, inverse = np.array(1.0), {}

    def fft(a, out=None):
        return fwd(a, one, np.empty(a.shape, complex) if out is None else out)

    def ifft(a, out=None):
        n = a.shape[-1]
        if n not in inverse:
            inverse[n] = np.array(1 / n)
        return inv(a, inverse[n], np.empty(a.shape, complex) if out is None else out)

    return fft, ifft


try:
    from numpy.fft import _pocketfft_umath
except ImportError:  # numpy 1.x
    _pocketfft_umath = None
_fft, _ifft = _resolve_transforms(_pocketfft_umath)


@dataclass(frozen=True)
class PositionGrid:
    """Uniform grid of n_points cells on [-L, L), FFT-compatible."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if self.half_width <= 0 or not math.isfinite(self.half_width):
            raise ValueError("half_width must be positive and finite")
        n = self.n_points
        if n < MIN_N_POINTS or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two, at least {MIN_N_POINTS}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n_points)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @classmethod
    def for_state(cls, params: OscillatorParams, max_displacement: float = 0.0,
                  n_points: int | None = None,
                  padding_sigmas: float = DEFAULT_PADDING_SIGMAS,
                  max_momentum: float = 0.0) -> "PositionGrid":
        """Grid for displacements up to ``max_displacement`` and momenta up to ``max_momentum``.

        The half-width is the displacement reach plus ``padding_sigmas``
        ground-state widths.  ``n_points=None`` takes the smallest power of
        two, at least MIN_N_POINTS, whose pi/dx covers the wavenumber reach
        |max_momentum|/hbar plus ``padding_sigmas`` momentum widths
        sqrt(m omega0 / 2 hbar): the phase-space sampling rule of the
        Fourier method (R. Kosloff, J. Phys. Chem. 92, 2087 (1988)).  The
        floor never binds at the default padding, where the ground state
        alone needs 64 points; an explicit ``n_points`` is taken as given.
        """
        sigma = ground_state_width(params)
        half_width = abs(max_displacement) + padding_sigmas * sigma
        if n_points is None:
            k_reach = abs(max_momentum) / params.hbar + padding_sigmas * 0.5 / sigma
            n_points = MIN_N_POINTS
            while math.pi * n_points / (2.0 * half_width) < k_reach:
                n_points *= 2
        return cls(half_width=half_width, n_points=n_points)


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex amplitudes on a position grid, normalized to 1."""

    grid: PositionGrid
    psi: np.ndarray

    def norm(self) -> float:
        return math.sqrt(self.grid.dx * float(np.sum(np.abs(self.psi) ** 2)))

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def overlap(self, other: "GridWavefunction") -> complex:
        """Inner product <self|other> by grid quadrature."""
        return complex(self.grid.dx * np.sum(np.conj(self.psi) * other.psi))

    def fidelity(self, other: "GridWavefunction") -> float:
        return abs(self.overlap(other))


def _require_width(params, grid, center):
    sigma = ground_state_width(params)
    if abs(center) + 8.0 * sigma > grid.half_width:
        raise GridTooNarrow(
            f"grid half-width {grid.half_width:.3g} cannot hold a state at "
            f"{center:.3g} with width {sigma:.3g} (need >= |center| + 8 sigma)")


def ground_state(params: OscillatorParams, grid: PositionGrid) -> GridWavefunction:
    """Oscillator ground state (m omega0 / pi hbar)^(1/4) exp(-m omega0 x^2 / 2 hbar)."""
    return displaced_state(params, grid, 0.0)


def displaced_state(params: OscillatorParams, grid: PositionGrid, center: float,
                    velocity: float = 0.0, phase: float = 0.0) -> GridWavefunction:
    """Ground state displaced to ``center`` with a momentum boost and global phase.

    psi(x) = phi0(x - center) exp(i [m velocity (x - center) / hbar + phase]).
    The density is the shifted Gaussian regardless of velocity and phase.
    """
    _require_width(params, grid, center)
    m, w, hb = params.mass, params.omega0, params.hbar
    u = grid.x - center
    amp = (m * w / (math.pi * hb)) ** 0.25 * np.exp(-m * w * u**2 / (2.0 * hb))
    psi = amp * np.exp(1j * (m * velocity * u / hb + phase))
    psi = psi / (math.sqrt(grid.dx * float(np.sum(np.abs(psi) ** 2))))
    return GridWavefunction(grid=grid, psi=psi)


def _checked_density(psi: GridWavefunction) -> np.ndarray:
    d = psi.density()
    norm = math.sqrt(psi.grid.dx * float(d.sum()))
    if abs(norm - 1.0) > 1e-6:
        raise NotNormalized(f"norm deviates from 1 by {abs(norm - 1.0):.3g}")
    return d


def expectation_x(psi: GridWavefunction) -> float:
    """Mean position dx * sum x |psi|^2."""
    d = _checked_density(psi)
    return float(psi.grid.dx * np.sum(psi.grid.x * d))


def expectation_x2(psi: GridWavefunction) -> float:
    """Second position moment dx * sum x^2 |psi|^2."""
    d = _checked_density(psi)
    return float(psi.grid.dx * np.sum(psi.grid.x**2 * d))


def decompose_x2(psi: GridWavefunction, center: float) -> tuple:
    """Split <x^2> of a displaced ground state into (vacuum term, center^2).

    Shifts the integration variable by ``center``: the vacuum term is the
    quadrature of (x - center)^2 against the density and must match the
    undisplaced ground-state moment; the cross term (x - center) must
    integrate to zero, otherwise the state is not a displaced ground
    state for this displacement and NotDisplacedGaussian is raised.
    """
    d = _checked_density(psi)
    dx = psi.grid.dx
    u = psi.grid.x - center
    cross = float(dx * np.sum(u * d))
    if abs(cross) > 1e-8:
        raise NotDisplacedGaussian(
            f"cross term {cross:.3g} exceeds 1e-8; state is not displaced by {center:.3g}")
    vacuum = float(dx * np.sum(u**2 * d))
    return vacuum, center * center


def phase_history(params: OscillatorParams, traj: ClassicalTrajectory) -> np.ndarray:
    """Global phase S(t) of the exact displaced solution along a trajectory.

    S(t) = action(t)/hbar - omega0 t / 2, with the action taken by the
    RK4 stages along the trajectory (``ClassicalTrajectory.action``).
    """
    rel_t = traj.times - traj.grid.t0
    return traj.action / params.hbar - 0.5 * params.omega0 * rel_t


def exact_state(params: OscillatorParams, grid: PositionGrid,
                traj: ClassicalTrajectory, index: int) -> GridWavefunction:
    """Exact displaced solution at sample ``index`` of a trajectory."""
    S = phase_history(params, traj)
    return displaced_state(params, grid, float(traj.q[index]),
                           float(traj.qdot[index]), float(S[index]))


@dataclass(frozen=True, eq=False)
class StateStack:
    """Wavefunctions of equal n_points, state b on its own grid ``grids[b]``."""

    grids: tuple
    psi: np.ndarray  # shape (len(grids), n_points)

    def __len__(self) -> int:
        return len(self.grids)

    def __getitem__(self, b: int) -> GridWavefunction:
        return GridWavefunction(grid=self.grids[b], psi=self.psi[b])


@dataclass(frozen=True, eq=False)
class PropagationRecord:
    """Final state plus moment series sampled along a propagation.

    Of a batch of B states: ``psi`` is the StateStack of the final states,
    and ``mean_x``, ``mean_x2`` and ``norms`` have one row per state.
    """

    psi: GridWavefunction | StateStack
    steps: np.ndarray  # grid step index of each record
    times: np.ndarray
    mean_x: np.ndarray
    mean_x2: np.ndarray
    norms: np.ndarray

    def max_norm_error(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))

    def row(self, b: int) -> "PropagationRecord":
        """State b's record of a batch, as its own propagation returns it."""
        return PropagationRecord(psi=self.psi[b], steps=self.steps, times=self.times,
                                 mean_x=self.mean_x[b], mean_x2=self.mean_x2[b],
                                 norms=self.norms[b])


def record_steps(n_steps: int, record_every: int) -> np.ndarray:
    """The steps ``propagate`` records at: 0, every ``record_every``-th
    step, and the last."""
    return np.append(np.arange(0, n_steps, record_every), n_steps)


def _samples(drive):
    """Every step's f = (F(t), F(t + dt/2), F(t + dt)): three (n_steps,) views."""
    n = drive.grid.n_steps
    return [drive.values[k:k + 2 * n:2] for k in range(3)]


def _kick_forces(drive, row):
    """The drive at every kick of every step, shape (n_steps, kicks): each
    kick's weights on the step's samples, summed in order; a weight of 1
    reads its sample as it is."""
    f = _samples(drive)
    return np.stack([reduce(np.add, [fk if w == 1.0 else w * fk
                                     for w, fk in zip(weights, f) if w])
                     for weights in row.weights], axis=1)


def _longest_factor(row):
    """Longest |time| of any factor of a step: every kick, every inner
    kinetic factor, and the kinetic factor merged across steps."""
    kin = row.kinetic
    return max(abs(a) for a in (*row.kicks, *kin[1:-1], kin[-1] + kin[0]))


def _guarded_row(drive, splitting, center, step):
    """The row of ``splitting`` at the table's (omega0, dt) and its drive at
    every kick, after the heuristic accuracy guard: (longest step factor) *
    (energy scale) / hbar < 0.1.

    The energy scale is that of a packet at ``center`` spanning ten
    ground-state widths, under the largest drive over the sampled kicks.
    """
    params = drive.params
    row = SPLITTINGS[splitting](params.omega0, drive.grid.dt)
    forces, longest_step = _kick_forces(drive, row), _longest_factor(row)
    span = abs(center) + 10.0 * ground_state_width(params)
    f_max = float(np.max(np.abs(forces)))
    scale = (0.5 * params.mass * params.omega0**2 * span**2 + f_max * span
             + 0.5 * params.hbar * params.omega0)
    if longest_step * scale / params.hbar >= 0.1:
        raise StepTooCoarse(
            f"sub-step {longest_step:.3g} too coarse for energy scale {scale:.3g} "
            f"at step {step} (need sub-step*scale/hbar < 0.1)")
    return row, forces


def check_path_step(drive: DriveTable, path: np.ndarray, splitting: str):
    """The step guard of ``propagate`` for a packet whose mean follows ``path``.

    ``path`` is sampled on the grid of ``drive``.  The energy scale grows with
    the displacement, so the guard is applied where |path| is largest, and
    StepTooCoarse names that step.  ``propagate`` itself can only check
    the state it starts from.
    """
    step = int(np.argmax(np.abs(path)))
    _guarded_row(drive, splitting, float(path[step]), step)


def _row_factors(psi, drive, splitting):
    """The step factors of one state of ``propagate``, after its step guard,
    with params, dt and every kick's F read from its table ``drive``.

    Returns the kinetic factors and the kick exponents (the oscillator's,
    and the drive's per unit F), each a list over the step's factors, the
    drive at every kick, and the run's global phase: its steps' f^T Q f /
    (m hbar), 0 for a row without Q.
    """
    params = drive.params
    grid, hb = psi.grid, params.hbar
    row, forces = _guarded_row(drive, splitting,
                               grid.dx * float(np.dot(grid.x, psi.density())), 0)

    x = grid.x
    kin = [np.exp(-1j * hb * grid.k**2 * tau / (2.0 * params.mass)) for tau in row.kinetic]
    pot_exp = [-1j * (0.5 * params.mass * params.omega0**2 * x**2) * tau / hb
               for tau in row.kicks]
    drive_exp = [(1j * tau / hb) * x for tau in row.kicks]
    phase = 0.0
    if row.phase is not None:
        f = np.stack(_samples(drive))
        phase = float(np.sum(f * (row.phase @ f))) / (hb * params.mass)
    return kin, pot_exp, drive_exp, forces, phase


def _row_dots(d, v):
    """The dot of each row of the (..., B, N) stack ``d`` with the same row
    of the (B, N) stack ``v``, shape (..., B): one stacked product whose
    rows are the dots np.dot takes of each pair, bit for bit."""
    return (d[..., None, :] @ v[..., None])[..., 0, 0]


def propagate(drive, psi, time_grid: TimeGrid, record_every: int = 1,
              splitting: str = "strang") -> PropagationRecord:
    """Split-operator propagation under H(t) = p^2/2m + m omega0^2 x^2/2 - F(t) x.

    ``drive`` is one DriveTable and ``psi`` one GridWavefunction, or a
    batch: B tables and B states of equal n_points, state b on its own
    grid and driven by table b.  A batch runs through the same loop as one
    state, on (B, n_points) stacks whose row b holds state b's factors,
    built exactly as for a single state, so row b of the returned record
    equals the record of state b's own propagation bit for bit;
    ``PropagationRecord.row`` extracts it.

    A table gives its state's params and F(t): the field drive e E(t)
    plus, for gamma > 0, the damping back-action along its reference
    trajectory.  Every table must be sampled on ``time_grid``
    (bench/spans.py reads its n_steps), or ValueError is raised before
    the first step; ``run_equivalence`` passes the triple's own table.

    Each step of length dt is the ``StepRow`` ``SPLITTINGS[splitting](omega0,
    dt)``: its kinetic factors and kicks, every kick's drive weighted from
    the step's table samples, and its phase form, whose phase is summed
    over the run and applied to each final state.  The kinetic factors that
    meet at a step boundary are merged into one between records.  Norm is
    preserved up to roundoff.  Each kick is one exponential of the full
    potential (Feit, Fleck and Steiger, J. Comput. Phys. 47, 412 (1982));
    without a drive in any state it is a fixed factor.  A record step shares one forward FFT
    between the recorded state and the state that continues the run, so a
    run takes 2 * s * n_steps + records transforms of the (B, N) stack,
    s kicks a step.  Every transform goes through the module's pair
    ``_fft``/``_ifft``: numpy's pocketfft gufuncs called directly, or
    ``np.fft.fft``/``ifft`` where those are missing or differ
    (``_resolve_transforms``).  Both give the same result bit for bit.

    Moments are recorded at t0, every ``record_every``-th step, and the
    final time; ``record_every < 1`` raises ValueError.  Two edge guards
    check every step and raise GridTooNarrow naming it: probability
    reaching the position edge (the two edge cells, against 1e-10 of the
    peak density at the last record), and spectral weight reaching
    +-k_max (the two bins beside the Nyquist index, against 1e-10 of the
    spectral peak at the last record), which catches aliasing.  The
    spectrum is the forward FFT that each step takes anyway: its modulus
    is the current state's, as the pending kinetic factor is
    unimodular.  The loop only kicks, transforms and multiplies: each step
    transforms into one row of two (block, B, N) buffers of
    ``_BLOCK_BYTES`` each, its spectrum and its staggered state, and
    reads its kick factors from one more such buffer per kick, built for
    the whole block before it.  Every transform of the loop writes into
    an array made before it: a buffer row, taken from lists of row views
    built once, or one of three (B, N) scratch arrays, which hold the
    transforms between a step's kicks and the state that a record step
    continues with.  One vectorised pass per block transforms
    the spectra of its record steps into their record states in one
    stacked call, takes their moments and peaks, and checks every
    buffered step's edge cells and bins; it names the first step, state
    and edge that a check after every step would, with the same edge
    fraction.  Every state, moment and message equals that of a loop
    doing all this per step, bit for bit.  StepTooCoarse is raised if the
    longest factor of the step (the longest |time| of any kick, inner
    kinetic factor or merged kinetic factor) fails the
    energy-scale heuristic for the initial state only: a direct caller
    applies ``check_path_step`` with the same table along the path of the
    mean, as ``run_equivalence`` does.  Every guard, and every moment, is
    evaluated per state; an error a guard raises, and any error from
    building a state's factors, carries the index of its state as ``row``.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    if splitting not in SPLITTINGS:
        raise ValueError(f"splitting must be one of {', '.join(SPLITTINGS)}, "
                         f"got {splitting!r}")
    single = isinstance(psi, GridWavefunction)
    rows = [(psi, drive)] if single else list(zip(psi, drive, strict=True))
    if len({state.grid.n_points for state, _ in rows}) != 1:
        raise ValueError("a batch needs one or more states of equal n_points")
    factors = []
    for b, (state, table) in enumerate(rows):
        try:
            if table.grid != time_grid:
                raise ValueError(f"drive table sampled on {table.grid}, not {time_grid}")
            factors.append(_row_factors(state, table, splitting))
        except Exception as exc:
            exc.row = b
            raise
    kin, pot_exp, drive_exp, forces, phases = zip(*factors)
    del factors  # frees the rows' factors, which the stacks below replace
    kin, pot_exp, drive_exp = ([np.stack(factor) for factor in zip(*per_row)]
                               for per_row in (kin, pot_exp, drive_exp))
    forces = np.stack(forces, axis=-1)[..., None]  # (n_steps, kicks, B, 1)
    joins = kin[1:-1]  # inside one step
    lead, tail, wrap = kin[0], kin[-1], kin[-1] * kin[0]
    driven = bool(np.any(forces))
    last = len(pot_exp) - 1

    grids = tuple(state.grid for state, _ in rows)
    dx = np.array([grid.dx for grid in grids])
    x = np.stack([grid.x for grid in grids])
    x2 = x * x
    n, batch, size = time_grid.n_steps, len(rows), grids[0].n_points
    rec_steps = record_steps(n, record_every)
    times = time_grid.t0 + time_grid.dt * rec_steps.astype(float)
    mean_x = np.empty((batch, len(rec_steps)))
    mean_x2 = np.empty((batch, len(rec_steps)))
    norms = np.empty((batch, len(rec_steps)))
    fft, ifft = _fft, _ifft
    nyq = size // 2  # -k_max; nyq - 1 is the largest positive k

    # the block buffers, row i of a block for step i of it: the spectrum the
    # step ends on, and the state it leaves, staggered or, at a record, the
    # record state the block pass puts there; and the step's kick factors
    depth = min(n, max(1, _BLOCK_BYTES // (16 * batch * size)))
    spectra, stags = (np.empty((depth, batch, size), complex) for _ in range(2))
    if driven:
        kicks = [np.empty((depth, batch, size), complex) for _ in pot_exp]
    else:
        kicks = [np.broadcast_to(np.exp(e), (depth, batch, size)) for e in pot_exp]
    # the block's first state (step index) and record; the spectral and
    # position edge amplitudes allowed by the last settled record
    first = first_rec = 0
    allowed = np.full((batch, 2), np.inf)

    def load(step):
        """The kick factors exp(pot_exp + F drive_exp) of the block of steps
        from ``step`` on, each built in its buffer row."""
        if driven:
            for j, factors in enumerate(kicks):
                force = forces[step:step + depth, j]
                part = factors[:len(force)]
                np.multiply(force, drive_exp[j], out=part)
                part += pot_exp[j]
                np.exp(part, out=part)

    def settle(count):
        """One pass over the block's ``count`` buffered states: transform the
        spectra of its records into their record states, store their
        moments, then check each state against the edge amplitudes allowed
        by the last record at or before it, 1e-10 of that record's peak
        density and spectral density.  Raises GridTooNarrow for the first
        step, and in it the first state, whose two bins at +-k_max or,
        failing those, two edge cells exceed them."""
        nonlocal first, first_rec, allowed
        steps = np.arange(first, first + count)
        n_rec = int(np.searchsorted(rec_steps, first + count)) - first_rec
        recs = slice(first_rec, first_rec + n_rec)
        held = rec_steps[recs] - first
        held_spectra = spectra[held]
        if first and len(held):  # the initial state (step 0) is given
            stags[held] = ifft(held_spectra * tail)
        d = np.abs(stags[held]) ** 2
        norms[:, recs] = np.sqrt(dx * d.sum(axis=-1)).T
        mean_x[:, recs] = (dx * _row_dots(d, x)).T
        mean_x2[:, recs] = (dx * _row_dots(d, x2)).T
        # the largest modulus squared: rounding is monotone, so this is the
        # largest square bit for bit, NaN included
        peaks = np.stack((np.abs(held_spectra).max(axis=-1) ** 2, d.max(axis=-1)), axis=-1)
        levels = np.concatenate((allowed[None], np.sqrt(_BOUNDARY_DENSITY_LIMIT * peaks)))
        limits = levels[np.searchsorted(rec_steps[recs], steps, side="right")]
        # per state the two bins at +-k_max, then the two edge cells: the
        # cells catch a packet crossing the periodic boundary, the bins aliasing
        block = np.concatenate((spectra[:count, :, nyq - 1:nyq + 1],
                                stags[:count, :, ::size - 1]), axis=-1)
        block = block.reshape(count, batch, 2, 2)
        # np.hypot is abs() of a complex scalar; np.abs may differ in the last bit
        reach = np.hypot(block.real, block.imag).max(axis=-1)
        over = reach > limits
        if over.any():
            i, b, kind = np.unravel_index(np.argmax(over), over.shape)
            exc = GridTooNarrow(
                f"{('spectral density', 'probability density')[kind]} reached the grid "
                f"edge at step {steps[i]} (edge fraction "
                f"{_BOUNDARY_DENSITY_LIMIT * (reach[i, b, kind] / limits[i, b, kind]) ** 2:.3g})")
            exc.row = int(b)
            raise exc
        allowed = levels[-1]
        first, first_rec = first + count, first_rec + n_rec

    # the buffers' row views, built once; and (B, N) outputs for the
    # transforms between a step's kicks and for the state that a record step
    # continues with, as the block pass puts the record state in its row
    spectrum_rows, stag_rows = list(spectra), list(stags)
    kick_rows = [list(factors) for factors in kicks]
    inner_spectrum, inner_stag, carry = (np.empty((batch, size), complex)
                                         for _ in range(3))
    stags[0] = [state.psi for state, _ in rows]
    spectrum = fft(stags[0], out=spectra[0])
    # staggered state: leading kinetic factor applied, trailing one pending
    stag = ifft(spectrum * lead, out=carry)
    settle(1)
    load(0)
    marks, next_rec = rec_steps.tolist(), 1
    for step in range(n):
        i = step % depth
        for j in range(last):
            stag = ifft(fft(stag * kick_rows[j][i], out=inner_spectrum) * joins[j],
                        out=inner_stag)
        spectrum = fft(stag * kick_rows[last][i], out=spectrum_rows[i])
        if marks[next_rec] == step + 1:
            next_rec += 1
            if step < n - 1:  # the last step is a record step
                stag = ifft(spectrum * wrap, out=carry)
        else:
            stag = ifft(spectrum * wrap, out=stag_rows[i])
        if i == depth - 1 or step == n - 1:
            settle(i + 1)
            load(step + 1)

    cur = stags[(n - 1) % depth].copy()
    for b, phase in enumerate(phases):
        if phase:  # the row's phase form
            cur[b] *= np.exp(1j * phase)
    result = PropagationRecord(psi=StateStack(grids, cur), steps=rec_steps,
                               times=times, mean_x=mean_x, mean_x2=mean_x2, norms=norms)
    return result.row(0) if single else result
