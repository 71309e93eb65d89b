"""Grid-based Schrodinger-picture engine.

Holds the oscillator ground state and its displaced (coherent) form on a
uniform position grid, evaluates position moments by grid quadrature,
and propagates states with a second-order split-operator (Strang)
scheme, kinetic-potential-kinetic, with any time-dependent drive
evaluated at the half step.

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

from .classical import ClassicalTrajectory, DriveTable, build_drive_table
from .errors import GridTooNarrow, NotDisplacedGaussian, NotNormalized, StepTooCoarse
from .model import FieldModel, OscillatorParams, TimeGrid, ground_state_width

#: default number of ground-state widths between the state and the grid edge
DEFAULT_PADDING_SIGMAS = 11.0

_BOUNDARY_DENSITY_LIMIT = 1e-10  # fraction of peak density tolerated at the edge


@dataclass(frozen=True)
class PositionGrid:
    """Uniform grid of n_points cells on [-L, L), FFT-compatible."""

    half_width: float
    n_points: int = 2048

    def __post_init__(self):
        if self.half_width <= 0 or not math.isfinite(self.half_width):
            raise ValueError("half_width must be positive and finite")
        n = self.n_points
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two, at least 256")

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
                  n_points: int = 2048,
                  padding_sigmas: float = DEFAULT_PADDING_SIGMAS) -> "PositionGrid":
        """Grid wide enough for displacements up to ``max_displacement``."""
        sigma = ground_state_width(params)
        return cls(half_width=abs(max_displacement) + padding_sigmas * sigma,
                   n_points=n_points)


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


@dataclass(frozen=True)
class PhaseRecord:
    """Phase data of the exact displaced solution at one instant."""

    global_phase: float      # dimensionless S(t)
    boost_momentum: float    # m * qdot_c(t)


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


def phase_record(params: OscillatorParams, traj: ClassicalTrajectory,
                 index: int) -> PhaseRecord:
    S = phase_history(params, traj)
    return PhaseRecord(global_phase=float(S[index]),
                       boost_momentum=params.mass * float(traj.qdot[index]))


@dataclass(frozen=True, eq=False)
class PropagationRecord:
    """Final state plus moment series sampled along a propagation."""

    psi: GridWavefunction
    times: np.ndarray
    mean_x: np.ndarray
    mean_x2: np.ndarray
    norms: np.ndarray

    def max_norm_error(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


def _check_propagation_step(params, grid, psi0, drive: DriveTable, dt):
    """Heuristic accuracy guard: dt * (energy scale of the state) / hbar < 0.1."""
    sigma = ground_state_width(params)
    d = psi0.density()
    x0 = float(psi0.grid.dx * np.sum(psi0.grid.x * d))
    span = abs(x0) + 10.0 * sigma
    f_max = float(np.max(np.abs(drive.values))) if drive.values.size else 0.0
    scale = (0.5 * params.mass * params.omega0**2 * span**2 + f_max * span
             + 0.5 * params.hbar * params.omega0)
    if dt * scale / params.hbar >= 0.1:
        raise StepTooCoarse(
            f"dt={dt:.3g} too coarse for energy scale {scale:.3g} "
            f"(need dt*scale/hbar < 0.1)")


def propagate(psi: GridWavefunction, params: OscillatorParams, field: FieldModel,
              time_grid: TimeGrid, reference_trajectory: ClassicalTrajectory | None = None,
              record_every: int = 1) -> PropagationRecord:
    """Split-operator propagation under H(t) = p^2/2m + m omega0^2 x^2/2 - F(t) x.

    F(t) is the field drive e E(t) plus, for gamma > 0, the damping
    back-action -m gamma qd(t) evaluated along ``reference_trajectory``
    (which must be sampled on ``time_grid.refined(2)``).  Strang ordering
    is kinetic-potential-kinetic with the drive at the half step, giving
    second-order accuracy and exact norm preservation up to roundoff.

    Moments are recorded at t0, every ``record_every``-th step (at least
    1), and the final time.  Raises GridTooNarrow if probability reaches the grid
    edge and StepTooCoarse if dt fails the energy-scale heuristic.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    drive = build_drive_table(params, field, time_grid, reference_trajectory)
    grid = psi.grid
    n = time_grid.n_steps
    dt = time_grid.dt
    hb = params.hbar
    _check_propagation_step(params, grid, psi, drive, dt)

    x = grid.x
    k = grid.k
    kin_half = np.exp(-1j * hb * k**2 * dt / (4.0 * params.mass))
    kin_full = kin_half * kin_half
    pot_static = np.exp(-1j * (0.5 * params.mass * params.omega0**2 * x**2) * dt / hb)
    force_mid = drive.midpoint_values
    driven = bool(np.any(force_mid))
    ix_dt = 1j * dt / hb * x  # multiply by F to get the drive phase exponent

    rec_steps = [0] + [s for s in range(1, n + 1)
                       if s % record_every == 0 or s == n]
    rec_steps = sorted(set(rec_steps))
    times = time_grid.t0 + dt * np.asarray(rec_steps, dtype=float)
    mean_x = np.empty(len(rec_steps))
    mean_x2 = np.empty(len(rec_steps))
    norms = np.empty(len(rec_steps))
    fft, ifft = np.fft.fft, np.fft.ifft

    def record(slot, amplitudes):
        d = np.abs(amplitudes) ** 2
        total = d.sum()
        norms[slot] = math.sqrt(grid.dx * total)
        mean_x[slot] = grid.dx * float(np.dot(x, d))
        mean_x2[slot] = grid.dx * float(np.dot(x * x, d))
        edge = max(d[0], d[-1]) / d.max()
        if edge > _BOUNDARY_DENSITY_LIMIT:
            raise GridTooNarrow(f"probability density reached the grid edge "
                                f"(edge fraction {edge:.3g})")

    cur = psi.psi
    record(0, cur)
    next_rec = 1
    # staggered state: leading half kinetic applied, trailing one pending
    stag = ifft(fft(cur) * kin_half)
    for step in range(n):
        if driven:
            stag = stag * (pot_static * np.exp(force_mid[step] * ix_dt))
        else:
            stag = stag * pot_static
        if rec_steps[next_rec] == step + 1:
            cur = ifft(fft(stag) * kin_half)
            record(next_rec, cur)
            next_rec += 1
            if step < n - 1:
                stag = ifft(fft(cur) * kin_half)
        else:
            stag = ifft(fft(stag) * kin_full)

    final = GridWavefunction(grid=grid, psi=cur)
    return PropagationRecord(psi=final, times=times, mean_x=mean_x,
                             mean_x2=mean_x2, norms=norms)
