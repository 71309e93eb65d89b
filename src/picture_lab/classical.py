"""Classical trajectory of the driven, optionally damped oscillator.

Integrates m qdd = -m omega0^2 q - m gamma qd + e E(t) with a fixed-step
classic 4th-order Runge-Kutta scheme.  The classical action along the
trajectory is accumulated by the same integrator because the exact
Schrodinger-picture phase needs it.  A half-step force table, from the
field and, under damping, a given reference trajectory, checks its step
and feeds both quantum engines, so all three share one c-number drive;
the same RK4 kernel integrates the zero-IC response to that table, the
c-number part of the Heisenberg evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, NotDamped, StepTooCoarse
from .model import FieldModel, OscillatorParams, TimeGrid, evaluate_field


@dataclass(frozen=True)
class InitialConditions:
    """Initial position and velocity selecting a solution of the EOM."""

    q0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.q0) and math.isfinite(self.v0)):
            raise ValueError("initial conditions must be finite")


@dataclass(frozen=True, eq=False)
class ClassicalTrajectory:
    """Sampled (t, q, qdot) plus the accumulated classical action.

    ``action[i]`` is the integral of the Lagrangian
    m qd^2/2 - m omega0^2 q^2/2 + F(t) q from t0 to t_i, where F is the
    total c-number force including the damping back-action.
    """

    grid: TimeGrid
    q: np.ndarray
    qdot: np.ndarray
    action: np.ndarray
    params: OscillatorParams
    field: FieldModel
    ics: InitialConditions

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def energy(self) -> np.ndarray:
        """Mechanical energy m qd^2/2 + m omega0^2 q^2/2 at each sample."""
        m, w = self.params.mass, self.params.omega0
        return 0.5 * m * self.qdot**2 + 0.5 * m * w**2 * self.q**2


def _check_step(params: OscillatorParams, field: FieldModel, grid: TimeGrid):
    fastest = max(params.omega0, field.max_angular_frequency())
    dt_max = (2.0 * math.pi / fastest) / 50.0
    if grid.dt > dt_max:
        raise StepTooCoarse(
            f"dt={grid.dt:.3g} exceeds {dt_max:.3g} needed to resolve the fastest "
            f"angular frequency {fastest:.3g}")


def _rk4(params: OscillatorParams, gamma: float, grid: TimeGrid, drive: np.ndarray,
         k: float, q: float, v: float):
    """Classic RK4 for m qdd = -m omega0^2 q - m gamma qd + F, F = k * drive.

    ``drive`` is sampled on the half-step lattice of ``grid``, so every
    stage time has its own sample.  The action (Lagrangian of the
    trajectory class docstring) is advanced by the same stages.  Returns
    the sampled q, qdot and action; raises NonFiniteState on overflow.

    ``k`` stays a separate factor so that each caller keeps its rounding:
    the field trajectory scales E by charge/mass, the tabulated force F
    by 1/mass.
    """
    n = grid.n_steps
    dt = grid.dt
    m = params.mass
    w2 = params.omega0 * params.omega0
    c = k / m
    hm = 0.5 * m
    hmw2 = hm * w2
    mg = m * gamma
    D = drive.tolist()

    q_out = np.empty(n + 1)
    v_out = np.empty(n + 1)
    s_out = np.empty(n + 1)
    s = 0.0
    q_out[0], v_out[0], s_out[0] = q, v, s

    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(n):
        d0 = D[2 * i]
        dm = D[2 * i + 1]
        d1 = D[2 * i + 2]

        a1 = -w2 * q - gamma * v + c * d0
        s1 = hm * v * v - hmw2 * q * q + (k * d0 - mg * v) * q

        qb = q + half * v
        vb = v + half * a1
        a2 = -w2 * qb - gamma * vb + c * dm
        s2 = hm * vb * vb - hmw2 * qb * qb + (k * dm - mg * vb) * qb

        qc = q + half * vb
        vc = v + half * a2
        a3 = -w2 * qc - gamma * vc + c * dm
        s3 = hm * vc * vc - hmw2 * qc * qc + (k * dm - mg * vc) * qc

        qd = q + dt * vc
        vd = v + dt * a3
        a4 = -w2 * qd - gamma * vd + c * d1
        s4 = hm * vd * vd - hmw2 * qd * qd + (k * d1 - mg * vd) * qd

        q = q + sixth * (v + 2.0 * (vb + vc) + vd)
        v = v + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        s = s + sixth * (s1 + 2.0 * (s2 + s3) + s4)
        q_out[i + 1], v_out[i + 1], s_out[i + 1] = q, v, s

    if not (math.isfinite(q) and math.isfinite(v) and math.isfinite(s)):
        raise NonFiniteState("trajectory overflowed; check drive amplitude and parameters")
    return q_out, v_out, s_out


def solve_trajectory(params: OscillatorParams, field: FieldModel,
                     ics: InitialConditions, grid: TimeGrid) -> ClassicalTrajectory:
    """Integrate the classical equation of motion on ``grid``.

    Raises StepTooCoarse if dt does not resolve the fastest drive or
    oscillator period by a factor of 50, and NonFiniteState if any sample
    overflows.
    """
    _check_step(params, field, grid)
    q, v, s = _rk4(params, float(field.gamma), grid,
                   evaluate_field(field, grid.half_times), params.charge,
                   float(ics.q0), float(ics.v0))
    return ClassicalTrajectory(grid=grid, q=q, qdot=v, action=s,
                               params=params, field=field, ics=ics)


def decay_certificate(traj: ClassicalTrajectory, threshold: float):
    """Earliest sample time after which |q| stays below ``threshold``.

    Scanned from the start with no re-entry allowed: the returned time is
    the first sample from which every later sample is below threshold.
    Returns None if |q| still exceeds the threshold at the end of the
    grid.  Raises NotDamped for trajectories produced with gamma = 0,
    where the certificate is meaningless.
    """
    if traj.field.gamma == 0:
        raise NotDamped("decay certificate requires gamma > 0")
    above = np.abs(traj.q) > threshold
    if not above.any():
        return float(traj.grid.t0)
    last = int(np.nonzero(above)[0][-1])
    if last == traj.grid.n_steps:
        return None
    return float(traj.times[last + 1])


@dataclass(frozen=True, eq=False)
class DriveTable:
    """Total c-number force on the half-step lattice of a time grid.

    F(t) = e E(t) - m gamma qdot_ref(t).  The damping back-action is a
    classical field evaluated along a reference trajectory, which keeps
    the quantum evolutions Hamiltonian (commutator-preserving) while the
    mean still follows the damped classical motion.
    """

    grid: TimeGrid
    values: np.ndarray  # length 2 n_steps + 1
    params: OscillatorParams
    field: FieldModel
    reference: ClassicalTrajectory | None = None  # on grid.refined(2); read if gamma > 0

    def stage_values(self, offsets) -> np.ndarray:
        """F at t0 + (i + c) dt for every step i and offset c in [0, 1].

        Returns shape (n_steps, len(offsets)).  Offsets on the half-step
        lattice (c = 0, 1/2, 1) read the table itself.  Any other offset
        evaluates e E(t) in closed form and, for gamma > 0, takes the
        reference velocity by cubic Hermite interpolation between its
        samples, with qdd from the equation of motion: O(dt^4), the order
        of the RK4 reference itself.
        """
        n = self.grid.n_steps
        columns = []
        for c in offsets:
            u = 2.0 * c
            if u.is_integer():
                columns.append(self.values[int(u):int(u) + 2 * n:2])
            else:
                columns.append(self._between_samples(u))
        return np.stack(columns, axis=1)

    def _between_samples(self, u: float) -> np.ndarray:
        """F at half-lattice position 2 i + u, for u not an integer."""
        grid, params = self.grid, self.params
        n = grid.n_steps
        times = grid.t0 + grid.dt * (np.arange(n) + 0.5 * u)
        force = params.charge * evaluate_field(self.field, times)
        if self.field.gamma == 0:
            return force
        # reference sample j sits at half-lattice position j
        j = 2 * np.arange(n) + int(u)
        s = u - int(u)
        h = 0.5 * grid.dt
        qdot = self.reference.qdot
        qddot = self.values / params.mass - params.omega0**2 * self.reference.q
        vel = ((2 * s**3 - 3 * s**2 + 1) * qdot[j] + (s**3 - 2 * s**2 + s) * h * qddot[j]
               + (3 * s**2 - 2 * s**3) * qdot[j + 1] + (s**3 - s**2) * h * qddot[j + 1])
        return force - params.mass * self.field.gamma * vel


def build_drive_table(params: OscillatorParams, field: FieldModel, grid: TimeGrid,
                      reference: ClassicalTrajectory | None = None) -> DriveTable:
    """Sample the total drive force on the half-step lattice of ``grid``.

    For gamma > 0 a reference trajectory sampled on ``grid.refined(2)``
    supplies the velocity in the damping term (ValueError if missing or
    sampled elsewhere).  Raises StepTooCoarse as ``solve_trajectory`` does.
    """
    _check_step(params, field, grid)
    force = params.charge * evaluate_field(field, grid.half_times)
    if field.gamma > 0:
        if reference is None:
            raise ValueError("gamma > 0 needs a reference trajectory on grid.refined(2)")
        if reference.grid.n_steps != 2 * grid.n_steps or \
                reference.grid.t0 != grid.t0 or reference.grid.t1 != grid.t1:
            raise ValueError("reference trajectory must be sampled on grid.refined(2)")
        force = force - params.mass * field.gamma * reference.qdot
    return DriveTable(grid=grid, values=np.asarray(force, dtype=float), params=params,
                      field=field, reference=reference)


def integrate_forced(drive: DriveTable) -> ClassicalTrajectory:
    """Zero-IC solution of m qdd = -m omega0^2 q + F(t) for a tabulated force.

    This is the c-number part of the Heisenberg operator evolution; the
    homogeneous part is undamped because damping enters only through the
    force table.  The action is that of the forced path.
    """
    q, v, s = _rk4(drive.params, 0.0, drive.grid, drive.values, 1.0, 0.0, 0.0)
    return ClassicalTrajectory(grid=drive.grid, q=q, qdot=v, action=s,
                               params=drive.params, field=FieldModel.zero(),
                               ics=InitialConditions(0.0, 0.0))
