"""Grid-based Schrodinger-picture engine.

Holds the oscillator ground state and its displaced (coherent) form on a
uniform position grid, evaluates position moments by grid quadrature,
and propagates states by split-operator steps: the second-order Strang
step, kinetic-potential-kinetic with any time-dependent drive evaluated
at the half step, or Chin's fourth-order force-gradient step, two kicks
between three kinetic factors, each kick carrying the double commutator
[V, [T, V]] = (hbar^2/m) V'^2, which is exact for this potential.

The exact solution of the linearly driven problem is the ground state
displaced along the classical trajectory q_c(t), momentum-boosted by
m qd_c(t), times a global phase built from the classical action.  The
probability density, and hence every position moment, is independent of
the boost and the global phase; ``propagate`` reproduces the full
complex state so that this can be tested rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import ClassicalTrajectory, build_drive_table
from .errors import GridTooNarrow, NotDisplacedGaussian, NotNormalized, StepTooCoarse
from .model import FieldModel, OscillatorParams, TimeGrid, ground_state_width

#: default number of ground-state widths between the state and the grid edge
DEFAULT_PADDING_SIGMAS = 11.0
#: fewest grid cells; also the floor of the sizing rule in PositionGrid.for_state
MIN_N_POINTS = 256

_BOUNDARY_DENSITY_LIMIT = 1e-10  # fraction of peak density tolerated at the edge

_A1 = 0.5 * (1.0 - 1.0 / math.sqrt(3.0))
_G4 = (2.0 - math.sqrt(3.0)) / 48.0
#: step factorisations K(c0) V(d1) K(c1) ... V(ds) K(cs) as (c, d, g): the
#: kinetic coefficients, the kick coefficients, and each kick's
#: force-gradient coefficient.  "gradient4" is scheme 4B of S. A. Chin,
#: Phys. Lett. A 226, 344 (1997); S. A. Chin and C. R. Chen, J. Chem.
#: Phys. 114, 7338 (2001) for the split-operator method.
SPLITTINGS = {"strang": ((0.5, 0.5), (1.0,), (0.0,)),
              "gradient4": ((_A1, 1.0 / math.sqrt(3.0), _A1), (0.5, 0.5), (_G4, _G4))}


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
        sqrt(m omega0 / 2 hbar) (the phase-space sampling rule of the
        Fourier method); an explicit ``n_points`` is taken as given.
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

    S(t) = action(t)/hbar - omega0 t / 2, with the action accumulated by
    the classical integrator.
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
class PropagationRecord:
    """Final state plus moment series sampled along a propagation."""

    psi: GridWavefunction
    steps: np.ndarray  # grid step index of each record
    times: np.ndarray
    mean_x: np.ndarray
    mean_x2: np.ndarray
    norms: np.ndarray

    def max_norm_error(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


def _kick_forces(params, field, time_grid, reference_trajectory, splitting):
    """The drive at every kick of every step, shape (n_steps, kicks).

    Kick j of a step takes the drive at offset c0 + ... + c_{j-1}: the
    time has advanced with the kinetic factors before it.
    """
    c, d, _ = SPLITTINGS[splitting]
    drive = build_drive_table(params, field, time_grid, reference_trajectory)
    return drive.stage_values([sum(c[:j + 1]) for j in range(len(d))])


def _longest_factor(splitting):
    """Largest |coefficient| of any factor of a step: every kick, every
    inner kinetic factor, and the kinetic factor merged across steps."""
    c, d, _ = SPLITTINGS[splitting]
    return max(abs(a) for a in (*d, *c[1:-1], c[-1] + c[0]))


def _check_step_scale(params, center, forces, longest_step, step):
    """Heuristic accuracy guard: (longest step factor) * (energy scale) / hbar < 0.1.

    The energy scale is that of a packet at ``center`` spanning ten
    ground-state widths, under the largest drive over the sampled kicks.
    """
    span = abs(center) + 10.0 * ground_state_width(params)
    f_max = float(np.max(np.abs(forces)))
    scale = (0.5 * params.mass * params.omega0**2 * span**2 + f_max * span
             + 0.5 * params.hbar * params.omega0)
    if longest_step * scale / params.hbar >= 0.1:
        raise StepTooCoarse(
            f"sub-step {longest_step:.3g} too coarse for energy scale {scale:.3g} "
            f"at step {step} (need sub-step*scale/hbar < 0.1)")


def check_path_step(params: OscillatorParams, field: FieldModel, time_grid: TimeGrid,
                    path: np.ndarray, splitting: str,
                    reference_trajectory: ClassicalTrajectory | None):
    """The step guard of ``propagate`` for a packet whose mean follows ``path``.

    ``path`` is sampled on ``time_grid``.  The energy scale grows with the
    displacement, so the guard is applied where |path| is largest, and
    StepTooCoarse names that step.  ``propagate`` itself can only check
    the state it starts from.
    """
    forces = _kick_forces(params, field, time_grid, reference_trajectory, splitting)
    step = int(np.argmax(np.abs(path)))
    _check_step_scale(params, float(path[step]), forces,
                      _longest_factor(splitting) * time_grid.dt, step)


def propagate(psi: GridWavefunction, params: OscillatorParams, field: FieldModel,
              time_grid: TimeGrid, reference_trajectory: ClassicalTrajectory | None = None,
              record_every: int = 1, splitting: str = "strang") -> PropagationRecord:
    """Split-operator propagation under H(t) = p^2/2m + m omega0^2 x^2/2 - F(t) x.

    F(t) is the field drive e E(t) plus, for gamma > 0, the damping
    back-action -m gamma qd(t) evaluated along ``reference_trajectory``
    (which must be sampled on ``time_grid.refined(2)``).

    Each step of length dt is the factorisation ``SPLITTINGS[splitting] =
    (c, d, g)``: K(c0 dt) V_1 K(c1 dt) ... V_s K(cs dt), with kinetic
    factors K(c dt) = exp(-i c dt p^2 / 2m hbar) and kicks
    V_j = exp(-i (dt/hbar) [d_j V - g_j dt^2 V'^2 / m]), where
    V = m omega0^2 x^2/2 - F x takes the drive at the kick's offset
    c0 + ... + c_{j-1}.  The kinetic factors that meet at a step boundary
    are merged into one between records.  "strang" (second order) is
    K(dt/2) V(dt) K(dt/2); "gradient4" is Chin's force-gradient scheme 4B
    (fourth order, two kicks, all coefficients positive).  Norm is
    preserved up to roundoff either way.

    Each kick is one exponential of the full potential (Feit, Fleck and
    Steiger, J. Comput. Phys. 47, 412 (1982)); without a drive it is a
    fixed factor.  Expanded in F, the gradient term only rescales the
    kick's weight to d_j - 2 g_j (omega0 dt)^2 and adds a global phase
    g_j dt^3 F^2 / hbar m, which is summed over the run and applied to
    the final state.  A record step shares one forward FFT between the
    recorded state and the state that continues the run, so a run takes
    2 * len(d) * n_steps + records transforms.

    Moments are recorded at t0, every ``record_every``-th step, and the
    final time; ``record_every < 1`` raises ValueError.  Two edge guards
    run at every step and raise GridTooNarrow naming it: probability
    reaching the position edge (the two edge cells, against 1e-10 of the
    peak density at the last record), and spectral weight reaching
    +-k_max (the two bins beside the Nyquist index, against 1e-10 of the
    spectral peak at the last record), which catches aliasing.  The
    spectrum is the forward FFT that each step takes anyway: its modulus
    is the current state's, as the pending kinetic factor is
    unimodular.  StepTooCoarse is raised if the longest factor of the
    step (the largest |coefficient| of any kick, inner kinetic factor or
    merged kinetic factor, times dt) fails the energy-scale heuristic for
    the initial state; ``check_path_step`` applies the same guard along a
    known path of the mean.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    if splitting not in SPLITTINGS:
        raise ValueError(f"splitting must be one of {', '.join(SPLITTINGS)}, "
                         f"got {splitting!r}")
    c, d, g = SPLITTINGS[splitting]
    grid = psi.grid
    n = time_grid.n_steps
    dt = time_grid.dt
    hb = params.hbar
    forces = _kick_forces(params, field, time_grid, reference_trajectory, splitting)
    _check_step_scale(params, grid.dx * float(np.dot(grid.x, psi.density())), forces,
                      _longest_factor(splitting) * dt, 0)

    x = grid.x
    k = grid.k
    kin = [np.exp(-1j * hb * k**2 * (cj * dt) / (2.0 * params.mass)) for cj in c]
    # V'^2 = m^2 omega0^4 x^2 - 2 m omega0^2 F x + F^2: the gradient term
    # rescales each kick's weight (exactly d where g = 0) and leaves the F^2 phase
    weights = [dj - 2.0 * gj * (params.omega0 * dt) ** 2 for dj, gj in zip(d, g)]
    # kick exponents: the oscillator's, plus the drive's per unit F
    pot_exp = [-1j * (0.5 * params.mass * params.omega0**2 * x**2) * (w * dt) / hb
               for w in weights]
    drive_exp = [(1j * w * dt / hb) * x for w in weights]
    pots = [np.exp(e) for e in pot_exp]
    phase = dt**3 / (hb * params.mass) * float(np.sum(forces**2 * g))
    joins = kin[1:-1]  # inside one step
    lead, tail, wrap = kin[0], kin[-1], kin[-1] * kin[0]
    driven = bool(np.any(forces))
    last = len(d) - 1

    def kick(amplitudes, step, j):
        if driven:
            return amplitudes * np.exp(pot_exp[j] + forces[step, j] * drive_exp[j])
        return amplitudes * pots[j]

    rec_steps = [s for s in range(n + 1) if s % record_every == 0 or s == n]
    times = time_grid.t0 + dt * np.asarray(rec_steps, dtype=float)
    mean_x = np.empty(len(rec_steps))
    mean_x2 = np.empty(len(rec_steps))
    norms = np.empty(len(rec_steps))
    fft, ifft = np.fft.fft, np.fft.ifft
    nyq = grid.n_points // 2  # -k_max; nyq - 1 is the largest positive k

    def record(slot, amplitudes, spectrum):
        """Store the moments at this record.

        Returns the position and spectral edge amplitudes allowed until
        the next record.
        """
        d = np.abs(amplitudes) ** 2
        norms[slot] = math.sqrt(grid.dx * d.sum())
        mean_x[slot] = grid.dx * float(np.dot(x, d))
        mean_x2[slot] = grid.dx * float(np.dot(x * x, d))
        k_peak = (np.abs(spectrum) ** 2).max()
        return (math.sqrt(_BOUNDARY_DENSITY_LIMIT * d.max()),
                math.sqrt(_BOUNDARY_DENSITY_LIMIT * k_peak))

    def check_edges(step, amplitudes, spectrum, allowed):
        """Raise GridTooNarrow naming ``step`` if the two bins at +-k_max,
        then the two edge cells, exceed the amplitudes ``allowed``."""
        for kind, edge, limit in (
                ("spectral density", max(abs(spectrum[nyq - 1]), abs(spectrum[nyq])),
                 allowed[1]),
                ("probability density", max(abs(amplitudes[0]), abs(amplitudes[-1])),
                 allowed[0])):
            if edge > limit:
                raise GridTooNarrow(
                    f"{kind} reached the grid edge at step {step} (edge fraction "
                    f"{_BOUNDARY_DENSITY_LIMIT * (edge / limit) ** 2:.3g})")

    cur = psi.psi
    spectrum = fft(cur)
    allowed = record(0, cur, spectrum)
    check_edges(0, cur, spectrum, allowed)
    next_rec = 1
    # staggered state: leading kinetic factor applied, trailing one pending
    stag = ifft(spectrum * lead)
    for step in range(n):
        for j in range(last):
            stag = ifft(fft(kick(stag, step, j)) * joins[j])
        spectrum = fft(kick(stag, step, last))
        if step < n - 1:  # the last step is a record step
            stag = ifft(spectrum * wrap)
        if rec_steps[next_rec] == step + 1:
            cur = ifft(spectrum * tail)
            allowed = record(next_rec, cur, spectrum)
            next_rec += 1
            check_edges(step + 1, cur, spectrum, allowed)
        else:
            # the two edge cells catch a packet crossing the periodic
            # boundary, and the two bins at +-k_max one aliasing
            check_edges(step + 1, stag, spectrum, allowed)

    if phase:  # the kicks' F^2 terms
        cur = cur * np.exp(1j * phase)
    final = GridWavefunction(grid=grid, psi=cur)
    return PropagationRecord(psi=final, steps=np.asarray(rec_steps), times=times,
                             mean_x=mean_x, mean_x2=mean_x2, norms=norms)
