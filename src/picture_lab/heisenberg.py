"""Truncated-Fock-basis Heisenberg engine.

Evolves the position and momentum operators of the driven oscillator,

    dX/dt = P/m,   dP/dt = -m omega0^2 X + F(t) 1,

where F(t) is the same c-number force that drives the other engines
(field drive plus damping back-action along a reference trajectory).
Because the inhomogeneity is proportional to the identity, the solution
is X(t) = a(t) X + b(t) P + xi(t) 1 with a = cos(omega0 t),
b = sin(omega0 t)/(m omega0) and xi the zero-IC c-number response; the
evolution is Hamiltonian and preserves canonical commutators exactly.

Two routes are implemented: the closed-form coefficient triple (fast
path), whose xi comes from the classical RK4 kernel, and a
matrix-valued integration by the same RK4 scheme (brute-force oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalTrajectory, _check_step, build_drive_table, integrate_forced
from .errors import TruncationError
from .model import FieldModel, OscillatorParams, TimeGrid

_TAIL_POPULATION_LIMIT = 1e-10


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator matrix in the truncated number basis."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def build_ladder_operators(params: OscillatorParams, n_fock: int):
    """Position and momentum matrices x = s(a + a+), p = i s'(a+ - a).

    s = sqrt(hbar/2 m omega0), s' = sqrt(hbar m omega0 / 2), with the
    usual a|n> = sqrt(n)|n-1>.  Requires n_fock >= 16.
    """
    if n_fock < 16:
        raise ValueError("n_fock must be at least 16")
    lower = np.diag(np.sqrt(np.arange(1, n_fock)), k=1).astype(complex)
    raise_ = lower.conj().T
    sx = math.sqrt(params.hbar / (2.0 * params.mass * params.omega0))
    sp = math.sqrt(params.hbar * params.mass * params.omega0 / 2.0)
    x_op = FockOperator(matrix=sx * (lower + raise_))
    p_op = FockOperator(matrix=1j * sp * (raise_ - lower))
    return x_op, p_op


def commutator_error(x_op: FockOperator, p_op: FockOperator, hbar: float) -> float:
    """Max deviation of [x, p] from i hbar 1 on the interior (N-2) block."""
    comm = x_op.matrix @ p_op.matrix - p_op.matrix @ x_op.matrix
    n = x_op.dim
    target = 1j * hbar * np.eye(n, dtype=complex)
    return float(np.max(np.abs((comm - target)[: n - 2, : n - 2])))


def ground_state_vector(n_fock: int) -> np.ndarray:
    vec = np.zeros(n_fock, dtype=complex)
    vec[0] = 1.0
    return vec


def coherent_state_vector(params: OscillatorParams, n_fock: int,
                          q0: float, v0: float = 0.0) -> np.ndarray:
    """Coherent state centered at (q0, m v0) in the truncated basis."""
    m, w, hb = params.mass, params.omega0, params.hbar
    alpha = math.sqrt(m * w / (2.0 * hb)) * q0 + 1j * (m * v0) / math.sqrt(2.0 * m * w * hb)
    n = np.arange(n_fock)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_fock)))))
    if alpha == 0:
        return ground_state_vector(n_fock)
    coeff = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)
    vec = coeff / np.linalg.norm(coeff)
    _check_tail(vec)
    return vec


def _check_tail(state: np.ndarray):
    tail = float(abs(state[-1]) ** 2 + abs(state[-2]) ** 2)
    if tail > _TAIL_POPULATION_LIMIT:
        raise TruncationError(
            f"last-two-level population {tail:.3g} exceeds {_TAIL_POPULATION_LIMIT:g}; "
            f"increase n_fock")


@dataclass(frozen=True, eq=False)
class HeisenbergSolution:
    """Evolved operators, as a coefficient triple or stored matrices.

    The closed form carries a(t), b(t), xi(t) with
    x_H(t) = a x + b p + xi; the matrix method stores (X, P) pairs every
    ``store_every`` steps.  Both carry the t=0 operators for moment
    evaluation.
    """

    params: OscillatorParams
    grid: TimeGrid
    n_fock: int
    method: str
    x0: FockOperator
    p0: FockOperator
    a: np.ndarray
    b: np.ndarray
    xi: np.ndarray
    stored_steps: tuple = ()
    x_matrices: tuple = ()
    p_matrices: tuple = ()
    oracle_sup: float | None = None

    def index_of(self, t: float) -> int:
        """Grid index of a sample time; raises if t is off the grid."""
        pos = (t - self.grid.t0) / self.grid.dt
        i = int(round(pos))
        if i < 0 or i > self.grid.n_steps or abs(pos - i) > 1e-8:
            raise ValueError(f"t={t!r} is not on the time grid")
        return i

    def _stored_slot(self, step: int) -> int:
        try:
            return self.stored_steps.index(step)
        except ValueError:
            raise ValueError(f"step {step} was not stored (store_every too large)") from None


def _state_moments(x0: FockOperator, p0: FockOperator, state: np.ndarray):
    xv = x0.matrix @ state
    pv = p0.matrix @ state
    return {
        "x": float(np.real(np.vdot(state, xv))),
        "p": float(np.real(np.vdot(state, pv))),
        "xx": float(np.real(np.vdot(xv, xv))),
        "pp": float(np.real(np.vdot(pv, pv))),
        "xp_sym": 2.0 * float(np.real(np.vdot(xv, pv))),
    }


def _closed_form(sol: HeisenbergSolution, state: np.ndarray | None, index=slice(None)):
    """Checked state (default: ground state) and the triple's <x_H>, <x_H^2>.

    The moments are taken at ``index`` of the grid (default: all of it).
    """
    state = ground_state_vector(sol.n_fock) if state is None else state
    _check_tail(state)
    mom = _state_moments(sol.x0, sol.p0, state)
    a, b, xi = sol.a[index], sol.b[index], sol.xi[index]
    x = a * mom["x"] + b * mom["p"] + xi
    x2 = (a**2 * mom["xx"] + b**2 * mom["pp"] + a * b * mom["xp_sym"]
          + 2.0 * xi * (a * mom["x"] + b * mom["p"]) + xi**2)
    return state, x, x2


def moment_x_series(sol: HeisenbergSolution, state: np.ndarray | None = None) -> np.ndarray:
    """<x_H(t)> over the whole grid (closed-form path)."""
    return _closed_form(sol, state)[1]


def moment_x2_series(sol: HeisenbergSolution, state: np.ndarray | None = None) -> np.ndarray:
    """<x_H(t)^2> over the whole grid (closed-form path)."""
    return _closed_form(sol, state)[2]


def moment_x2(sol: HeisenbergSolution, t: float, state: np.ndarray | None = None) -> float:
    """<x_H(t)^2> in ``state`` (default: ground state) at one grid time."""
    i = sol.index_of(t)
    state, _, x2 = _closed_form(sol, state, i)
    if sol.method == "matrix":
        xv = sol.x_matrices[sol._stored_slot(i)] @ state
        return float(np.real(np.vdot(xv, xv)))
    return x2


def moment_x(sol: HeisenbergSolution, t: float, state: np.ndarray | None = None) -> float:
    """<x_H(t)> in ``state`` (default: ground state) at one grid time."""
    i = sol.index_of(t)
    state, x, _ = _closed_form(sol, state, i)
    if sol.method == "matrix":
        x_t = sol.x_matrices[sol._stored_slot(i)]
        return float(np.real(np.vdot(state, x_t @ state)))
    return x


def evolve_heisenberg(params: OscillatorParams, field: FieldModel, time_grid: TimeGrid,
                      n_fock: int = 64, method: str = "closed_form",
                      reference_trajectory: ClassicalTrajectory | None = None,
                      store_every: int = 1,
                      track_oracle: bool = False) -> HeisenbergSolution:
    """Evolve the Heisenberg-picture position and momentum operators.

    ``method="closed_form"`` returns the coefficient triple with xi
    integrated by the shared RK4 scheme (for an undriven, undamped field
    this is the identity evolution of the free oscillator).
    ``method="matrix"`` integrates the full matrix ODE with the same
    scheme, storing operators every ``store_every`` steps; with
    ``track_oracle`` it also records the sup over all steps of the
    elementwise deviation from the closed form.
    """
    _check_step(params, field, time_grid)
    x0, p0 = build_ladder_operators(params, n_fock)
    drive = build_drive_table(params, field, time_grid, reference_trajectory)

    w = params.omega0
    rel_t = time_grid.times - time_grid.t0
    a = np.cos(w * rel_t)
    b = np.sin(w * rel_t) / (params.mass * w)
    xi = integrate_forced(params, drive).q

    if method == "closed_form":
        return HeisenbergSolution(params=params, grid=time_grid, n_fock=n_fock,
                                  method=method, x0=x0, p0=p0, a=a, b=b, xi=xi)
    if method != "matrix":
        raise ValueError(f"unknown method {method!r}")

    n = time_grid.n_steps
    dt = time_grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    inv_m = 1.0 / params.mass
    w2m = params.mass * w * w
    F = drive.values
    dim = n_fock
    eye = np.eye(dim, dtype=complex)

    X = x0.matrix.copy()
    P = p0.matrix.copy()
    store_every = max(1, int(store_every))
    stored_steps = [0]
    xs = [X.copy()]
    ps = [P.copy()]
    oracle_sup = 0.0

    for i in range(n):
        f0, fm, f1 = F[2 * i], F[2 * i + 1], F[2 * i + 2]

        k1x = P * inv_m
        k1p = -w2m * X + f0 * eye
        k2x = (P + half * k1p) * inv_m
        k2p = -w2m * (X + half * k1x) + fm * eye
        k3x = (P + half * k2p) * inv_m
        k3p = -w2m * (X + half * k2x) + fm * eye
        k4x = (P + dt * k3p) * inv_m
        k4p = -w2m * (X + dt * k3x) + f1 * eye

        X = X + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        P = P + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)

        step = i + 1
        if track_oracle:
            expected = a[step] * x0.matrix + b[step] * p0.matrix + xi[step] * eye
            oracle_sup = max(oracle_sup, float(np.max(np.abs(X - expected))))
        if step % store_every == 0 or step == n:
            stored_steps.append(step)
            xs.append(X.copy())
            ps.append(P.copy())

    return HeisenbergSolution(params=params, grid=time_grid, n_fock=n_fock,
                              method="matrix", x0=x0, p0=p0, a=a, b=b, xi=xi,
                              stored_steps=tuple(stored_steps),
                              x_matrices=tuple(xs), p_matrices=tuple(ps),
                              oracle_sup=oracle_sup if track_oracle else None)
