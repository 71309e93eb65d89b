"""Classical trajectory of the driven, optionally damped oscillator.

Integrates m qdd = -m omega0^2 q - m gamma qd + e E(t) with a fixed-step
classic 4th-order Runge-Kutta scheme, evaluated as one blocked scan of
its affine step map.  The classical action, which the exact
Schrodinger-picture phase needs, is taken on demand from the same four
RK4 stages along the stored path.  A half-step force table, from the
field and, under damping, the trajectory it solves from given ICs, checks
its step and feeds both quantum engines, so all three share one c-number
drive; the same RK4 kernel integrates the zero-IC response to that table,
the c-number part of the Heisenberg evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
    """Sampled (t, q, qdot), and the classical action along them.

    ``action[i]`` is the integral of the Lagrangian
    m qd^2/2 - m omega0^2 q^2/2 + F(t) q from t0 to t_i, where F is the
    total c-number force including the damping back-action: F = k * drive
    - m gamma qd, with ``drive`` on the half-step lattice of ``grid``.
    """

    grid: TimeGrid
    q: np.ndarray
    qdot: np.ndarray
    params: OscillatorParams
    field: FieldModel
    ics: InitialConditions
    drive: np.ndarray
    k: float

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def energy(self) -> np.ndarray:
        """Mechanical energy m qd^2/2 + m omega0^2 q^2/2 at each sample."""
        m, w = self.params.mass, self.params.omega0
        return 0.5 * m * self.qdot**2 + 0.5 * m * w**2 * self.q**2

    @cached_property
    def action(self) -> np.ndarray:
        """The action at each sample, by the RK4 rule along the sampled path.

        Each step's increment is dt/6 (L1 + 2 L2 + 2 L3 + L4), the
        Lagrangian at the four RK4 stages of the step started from the
        sample (q_i, qdot_i); the increments are summed in step order.
        Raises NonFiniteState on overflow.
        """
        m, gamma, k, dt = self.params.mass, float(self.field.gamma), self.k, self.grid.dt
        w2 = self.params.omega0 * self.params.omega0
        c, hm, mg = k / m, 0.5 * m, m * gamma
        hmw2 = hm * w2
        half, sixth = 0.5 * dt, dt / 6.0
        q, v = self.q[:-1], self.qdot[:-1]
        d0, dm, d1 = self.drive[:-1:2], self.drive[1::2], self.drive[2::2]
        with np.errstate(over="ignore", invalid="ignore"):
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
            s4 = hm * vd * vd - hmw2 * qd * qd + (k * d1 - mg * vd) * qd
            action = np.concatenate(([0.0], np.cumsum(sixth * (s1 + 2.0 * (s2 + s3) + s4))))
        if not np.isfinite(action[-1]):
            raise NonFiniteState("action overflowed; check drive amplitude and parameters")
        return action


def step_limit(params: OscillatorParams, field: FieldModel) -> tuple:
    """The fastest angular frequency, and the largest dt giving its period 50 steps."""
    fastest = max(params.omega0, field.max_angular_frequency())
    return fastest, (2.0 * math.pi / fastest) / 50.0


def _check_step(params: OscillatorParams, field: FieldModel, grid: TimeGrid):
    fastest, dt_max = step_limit(params, field)
    if grid.dt > dt_max:
        raise StepTooCoarse(
            f"dt={grid.dt:.3g} exceeds {dt_max:.3g} needed to resolve the fastest "
            f"angular frequency {fastest:.3g}")


#: fraction bits of the fixed point in which ``_step_map`` takes A^L
_FIXED_BITS = 160


def _split(value: Fraction) -> tuple:
    """``value`` as a double plus the double nearest its remainder."""
    hi = float(value)
    return hi, float(value - Fraction(hi))


@lru_cache(maxsize=16)
def _step_map(dt: float, w2: float, gamma: float, block: int):
    """One step of ``_rk4`` as the affine map y -> y + E y + B u, and A^block.

    y = (q, v), u = (c d0, c dm, c d1) are the step's three scaled drive
    samples, and A = I + E.  E and B are exact: the RK4 step's own
    arithmetic, on its own double constants (dt/2, dt/6, dt, omega0^2,
    gamma), carried out in rationals.  Returns E as a (2, 2) double part
    and the (2, 2) double nearest its remainder, B as (2, 3) doubles, and
    A^block split like E.  A^block comes from squaring in fixed point with
    ``_FIXED_BITS`` fraction bits, far below a double's rounding.
    """
    half, sixth = Fraction(0.5 * dt), Fraction(dt / 6.0)
    w2, gamma, dt = Fraction(w2), Fraction(gamma), Fraction(dt)

    def form(*terms):  # the linear form sum(a * x) over (q, v, u0, um, u1)
        return [sum(a * x[j] for a, x in terms) for j in range(5)]

    q, v, u0, um, u1 = ([Fraction(int(i == j)) for j in range(5)] for i in range(5))
    accel = lambda q, v, u: form((-w2, q), (-gamma, v), (1, u))
    a1 = accel(q, v, u0)
    qb, vb = form((1, q), (half, v)), form((1, v), (half, a1))
    a2 = accel(qb, vb, um)
    qc, vc = form((1, q), (half, vb)), form((1, v), (half, a2))
    a3 = accel(qc, vc, um)
    qd, vd = form((1, q), (dt, vc)), form((1, v), (dt, a3))
    a4 = accel(qd, vd, u1)
    # the increments of q and v: rows of (E | B)
    rows = (form((sixth, v), (2 * sixth, vb), (2 * sixth, vc), (sixth, vd)),
            form((sixth, a1), (2 * sixth, a2), (2 * sixth, a3), (sixth, a4)))

    one = 1 << _FIXED_BITS

    def product(x, y):
        return [[(x[i][0] * y[0][j] + x[i][1] * y[1][j] + one // 2) >> _FIXED_BITS
                 for j in range(2)] for i in range(2)]

    power = [[one, 0], [0, one]]
    base = [[round(((i == j) + rows[i][j]) * one) for j in range(2)] for i in range(2)]
    while block:
        if block & 1:
            power = product(power, base)
        base, block = product(base, base), block >> 1
    e_hi, e_lo = np.moveaxis([[_split(row[j]) for j in range(2)] for row in rows], -1, 0)
    p_hi, p_lo = np.moveaxis([[_split(Fraction(x, one)) for x in row] for row in power], -1, 0)
    b = np.array([[float(row[j]) for j in range(2, 5)] for row in rows])
    for part in (e_hi, e_lo, b, p_hi, p_lo):  # shared by every caller of the cache
        part.flags.writeable = False
    return e_hi, e_lo, b, p_hi, p_lo


def _rk4(params: OscillatorParams, gamma: float, grid: TimeGrid, drive: np.ndarray,
         k: float, q: float, v: float):
    """Classic RK4 for m qdd = -m omega0^2 q - m gamma qd + F, F = k * drive.

    ``drive`` is sampled on the half-step lattice of ``grid``, so every
    stage time has its own sample.  Returns the sampled q and qdot; raises
    NonFiniteState if any sample overflows.

    For this linear ODE one step is the affine map y_{i+1} = y_i + E y_i
    + b_i (``_step_map``), and the n steps are one blocked scan of it
    (G. E. Blelloch, "Prefix sums and their applications", CMU-CS-90-190,
    1990).  A vectorised pass advances every block of L = isqrt(n) steps
    from zero at once; a short loop carries each block's start to the
    next by A^L and the block's end from zero; a second pass re-runs every
    block from its start.  Each step adds its increment to y as the scalar
    RK4 loop does, with E applied as two doubles, so the scan keeps within
    roundoff of that loop rather than drifting from it by the ~n ulps a
    once-rounded A would add.

    ``k`` stays a separate factor so that each caller keeps its rounding:
    the field trajectory scales E by charge/mass, the tabulated force F
    by 1/mass.
    """
    n = grid.n_steps
    block = math.isqrt(n)
    blocks = -(-n // block)
    e_hi, e_lo, b_coef, p_hi, p_lo = _step_map(grid.dt, params.omega0 * params.omega0,
                                               gamma, block)
    # E's columns as (2, 1) factors of the blocks' q and v
    (h0, h1), (l0, l1) = ([e[:, j:j + 1] for j in range(2)] for e in (e_hi, e_lo))

    with np.errstate(over="ignore", invalid="ignore"):
        u = (k / params.mass) * drive
        # b_i of every step, zero past the last, at [position in block, :, block]
        b = np.zeros((2, blocks * block))
        b[:, :n] = b_coef[:, :1] * u[:-1:2] + b_coef[:, 1:2] * u[1::2] + b_coef[:, 2:] * u[2::2]
        b = np.ascontiguousarray(b.reshape(2, blocks, block).transpose(2, 0, 1))
        y = np.empty((block + 1, 2, blocks))

        def sweep():  # every block's steps from its start y[0]
            for i in range(block):
                q, v = y[i]
                np.add(y[i], (h0 * q + h1 * v) + ((l0 * q + l1 * v) + b[i]), out=y[i + 1])

        y[0] = 0.0
        sweep()
        (p00, p01), (p10, p11) = p_hi.tolist()
        (r00, r01), (r10, r11) = p_lo.tolist()
        starts = [(q, v)]
        for zq, zv in y[-1, :, :-1].T.tolist():
            q, v = ((p00 * q + p01 * v) + ((r00 * q + r01 * v) + zq),
                    (p10 * q + p11 * v) + ((r10 * q + r11 * v) + zv))
            starts.append((q, v))
        y[0] = np.transpose(starts)
        sweep()
    # sample j L + i sits at y[i, :, j]; the last is the end of the last block
    samples = np.concatenate((y[:-1].transpose(1, 2, 0).reshape(2, -1), y[-1, :, -1:]), axis=1)
    q_out, v_out = samples[:, :n + 1]
    if not (np.isfinite(q_out).all() and np.isfinite(v_out).all()):
        raise NonFiniteState("trajectory overflowed; check drive amplitude and parameters")
    return q_out, v_out


def solve_trajectory(params: OscillatorParams, field: FieldModel,
                     ics: InitialConditions, grid: TimeGrid) -> ClassicalTrajectory:
    """Integrate the classical equation of motion on ``grid``.

    Raises StepTooCoarse if dt does not resolve the fastest drive or
    oscillator period by a factor of 50, and NonFiniteState if any sample
    overflows.
    """
    _check_step(params, field, grid)
    drive = evaluate_field(field, grid.half_times)
    q, v = _rk4(params, float(field.gamma), grid, drive, params.charge,
                float(ics.q0), float(ics.v0))
    return ClassicalTrajectory(grid=grid, q=q, qdot=v, params=params, field=field,
                               ics=ics, drive=drive, k=params.charge)


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
    classical field evaluated along the damped classical motion from the
    run's ICs, which keeps the quantum evolutions Hamiltonian
    (commutator-preserving) while the mean still follows that motion.
    """

    grid: TimeGrid
    values: np.ndarray  # length 2 n_steps + 1
    params: OscillatorParams
    reference: ClassicalTrajectory | None = None  # on grid.refined(2); None if gamma = 0


def build_drive_table(params: OscillatorParams, field: FieldModel, grid: TimeGrid,
                      ics: InitialConditions | None = None) -> DriveTable:
    """Sample the total drive force on the half-step lattice of ``grid``.

    For gamma > 0 the damping term takes its velocity from the reference
    ``solve_trajectory(params, field, ics, grid.refined(2))``, which the
    table keeps (ValueError if ``ics`` is missing).  Raises StepTooCoarse
    as ``solve_trajectory`` does, and NonFiniteState if the force or the
    reference overflows.
    """
    _check_step(params, field, grid)
    reference = None
    if field.gamma > 0:
        if ics is None:
            raise ValueError("gamma > 0 needs the ICs of its reference trajectory")
        reference = solve_trajectory(params, field, ics, grid.refined(2))
    with np.errstate(over="ignore", invalid="ignore"):
        force = params.charge * evaluate_field(field, grid.half_times)
        if reference is not None:
            force = force - params.mass * field.gamma * reference.qdot
    if not np.isfinite(force).all():
        raise NonFiniteState("drive force overflowed; check drive amplitude and charge")
    return DriveTable(grid=grid, values=np.asarray(force, dtype=float), params=params,
                      reference=reference)


def integrate_forced(drive: DriveTable) -> ClassicalTrajectory:
    """Zero-IC solution of m qdd = -m omega0^2 q + F(t) for a tabulated force.

    This is the c-number part of the Heisenberg operator evolution; the
    homogeneous part is undamped because damping enters only through the
    force table.  The action is that of the forced path.
    """
    q, v = _rk4(drive.params, 0.0, drive.grid, drive.values, 1.0, 0.0, 0.0)
    return ClassicalTrajectory(grid=drive.grid, q=q, qdot=v, params=drive.params,
                               field=FieldModel.zero(), ics=InitialConditions(0.0, 0.0),
                               drive=drive.values, k=1.0)
