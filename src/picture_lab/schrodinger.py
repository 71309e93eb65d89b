"""Grid-based Schrodinger-picture engine.

Holds the oscillator ground state and its displaced (coherent) form on a
uniform position grid, evaluates position moments by grid quadrature,
and propagates states by split-operator steps: the second-order Strang
step, kinetic-potential-kinetic with any time-dependent drive evaluated
at the half step, or Yoshida's fourth-order symmetric composition of
three Strang sub-steps, each with the drive at its own midpoint.

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
#: default number of grid cells
DEFAULT_N_POINTS = 2048

_BOUNDARY_DENSITY_LIMIT = 1e-10  # fraction of peak density tolerated at the edge

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
#: sub-step weights of each symmetric composition of the Strang step
#: (Yoshida, Phys. Lett. A 150, 262 (1990) for the fourth-order triple jump)
SPLITTINGS = {"strang": (1.0,), "yoshida4": (_W1, 1.0 - 2.0 * _W1, _W1)}


@dataclass(frozen=True)
class PositionGrid:
    """Uniform grid of n_points cells on [-L, L), FFT-compatible."""

    half_width: float
    n_points: int = DEFAULT_N_POINTS

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
                  n_points: int = DEFAULT_N_POINTS,
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


def _check_propagation_step(params, psi0, forces, longest_step):
    """Heuristic accuracy guard: (longest sub-step) * (energy scale) / hbar < 0.1.

    The energy scale takes the largest drive over the sampled stages.
    """
    sigma = ground_state_width(params)
    d = psi0.density()
    x0 = float(psi0.grid.dx * np.sum(psi0.grid.x * d))
    span = abs(x0) + 10.0 * sigma
    f_max = float(np.max(np.abs(forces)))
    scale = (0.5 * params.mass * params.omega0**2 * span**2 + f_max * span
             + 0.5 * params.hbar * params.omega0)
    if longest_step * scale / params.hbar >= 0.1:
        raise StepTooCoarse(
            f"sub-step {longest_step:.3g} too coarse for energy scale {scale:.3g} "
            f"(need sub-step*scale/hbar < 0.1)")


def _drive_phase(grid: PositionGrid, theta: float) -> np.ndarray:
    """exp(i theta x) on ``grid``, shaped (R, C) with R * C = n_points.

    The grid is uniform, x = x0 + dx (C r + c), so the phase is the outer
    product of exp(i theta (x0 + dx C r)) and exp(i theta dx c): R + C
    complex exponentials instead of n_points.  n_points is a power of two,
    and C is its square root rounded up to a power of two (64 at 2048).
    """
    cols = 1 << (grid.n_points.bit_length() // 2)
    rows = np.exp(1j * theta * grid.x[::cols])
    return rows[:, None] * np.exp((1j * theta * grid.dx) * np.arange(cols))


def propagate(psi: GridWavefunction, params: OscillatorParams, field: FieldModel,
              time_grid: TimeGrid, reference_trajectory: ClassicalTrajectory | None = None,
              record_every: int = 1, splitting: str = "strang") -> PropagationRecord:
    """Split-operator propagation under H(t) = p^2/2m + m omega0^2 x^2/2 - F(t) x.

    F(t) is the field drive e E(t) plus, for gamma > 0, the damping
    back-action -m gamma qd(t) evaluated along ``reference_trajectory``
    (which must be sampled on ``time_grid.refined(2)``).

    Each step of length dt is a symmetric composition of Strang steps
    S(w dt) = K(w dt/2) V(w dt) K(w dt/2), kinetic-potential-kinetic, over
    the weights ``SPLITTINGS[splitting]``, with the drive of each sub-step
    taken at its midpoint.  Kinetic factors of consecutive sub-steps, and
    of consecutive steps between records, are merged into one.  "strang"
    is the single sub-step (second order); "yoshida4" is Yoshida's triple
    jump (fourth order, three FFT pairs per step).  Norm is preserved up
    to roundoff either way.

    The drive phase exp(i F w dt x / hbar) of each kick is built as an
    outer product of two short exponentials (``_drive_phase``), and a record
    step shares one forward FFT between the recorded state and the state
    that continues the run, so a run takes 2 * len(weights) * n_steps +
    records transforms.

    Moments are recorded at t0, every ``record_every``-th step, and the
    final time; ``record_every < 1`` raises ValueError.  Raises
    GridTooNarrow if probability reaches the grid edge, checked at every
    step, and StepTooCoarse if the longest sub-step fails the energy-scale
    heuristic.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    if splitting not in SPLITTINGS:
        raise ValueError(f"splitting must be one of {', '.join(SPLITTINGS)}, "
                         f"got {splitting!r}")
    weights = SPLITTINGS[splitting]
    drive = build_drive_table(params, field, time_grid, reference_trajectory)
    grid = psi.grid
    n = time_grid.n_steps
    dt = time_grid.dt
    hb = params.hbar
    offsets = [sum(weights[:j]) + 0.5 * w for j, w in enumerate(weights)]
    forces = drive.stage_values(offsets)
    _check_propagation_step(params, psi, forces, max(abs(w) for w in weights) * dt)

    x = grid.x
    k = grid.k
    half = [np.exp(-1j * hb * k**2 * (w * dt) / (4.0 * params.mass)) for w in weights]
    pots = [np.exp(-1j * (0.5 * params.mass * params.omega0**2 * x**2) * (w * dt) / hb)
            for w in weights]
    thetas = [w * dt / hb for w in weights]  # multiply by F: the drive phase per unit x
    joins = [a * b for a, b in zip(half[:-1], half[1:])]  # inside one step
    lead, tail, wrap = half[0], half[-1], half[-1] * half[0]
    driven = bool(np.any(forces))
    last = len(weights) - 1

    def kick(amplitudes, step, j):
        if driven:
            phase = _drive_phase(grid, forces[step, j] * thetas[j])
            return ((amplitudes * pots[j]).reshape(phase.shape) * phase).reshape(-1)
        return amplitudes * pots[j]

    rec_steps = [s for s in range(n + 1) if s % record_every == 0 or s == n]
    times = time_grid.t0 + dt * np.asarray(rec_steps, dtype=float)
    mean_x = np.empty(len(rec_steps))
    mean_x2 = np.empty(len(rec_steps))
    norms = np.empty(len(rec_steps))
    fft, ifft = np.fft.fft, np.fft.ifft

    def record(slot, amplitudes):
        """Store the moments; returns the edge amplitude allowed until the next record."""
        d = np.abs(amplitudes) ** 2
        total = d.sum()
        norms[slot] = math.sqrt(grid.dx * total)
        mean_x[slot] = grid.dx * float(np.dot(x, d))
        mean_x2[slot] = grid.dx * float(np.dot(x * x, d))
        peak = d.max()
        edge = max(d[0], d[-1]) / peak
        if edge > _BOUNDARY_DENSITY_LIMIT:
            raise GridTooNarrow(f"probability density reached the grid edge "
                                f"(edge fraction {edge:.3g})")
        return math.sqrt(_BOUNDARY_DENSITY_LIMIT * peak)

    cur = psi.psi
    edge_amp = record(0, cur)
    next_rec = 1
    # staggered state: leading half kinetic applied, trailing one pending
    stag = ifft(fft(cur) * lead)
    for step in range(n):
        for j in range(last):
            stag = ifft(fft(kick(stag, step, j)) * joins[j])
        stag = kick(stag, step, last)
        if rec_steps[next_rec] == step + 1:
            spectrum = fft(stag)
            cur = ifft(spectrum * tail)
            edge_amp = record(next_rec, cur)
            next_rec += 1
            if step < n - 1:
                stag = ifft(spectrum * wrap)
        else:
            stag = ifft(fft(stag) * wrap)
            # between records, the two edge cells catch a packet crossing
            # the periodic boundary
            edge = max(abs(stag[0]), abs(stag[-1]))
            if edge > edge_amp:
                fraction = _BOUNDARY_DENSITY_LIMIT * (edge / edge_amp) ** 2
                raise GridTooNarrow(f"probability density reached the grid edge at step "
                                    f"{step + 1} (edge fraction {fraction:.3g})")

    final = GridWavefunction(grid=grid, psi=cur)
    return PropagationRecord(psi=final, steps=np.asarray(rec_steps), times=times,
                             mean_x=mean_x, mean_x2=mean_x2, norms=norms)
