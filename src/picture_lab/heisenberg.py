"""Truncated-Fock-basis Heisenberg engine.

Under H(t) = hbar omega0 (n + 1/2) - F(t) x, where F(t) is the same
c-number force that drives the other engines (field drive plus damping
back-action along a reference trajectory), the position operator
evolves as

    x_H(t) = a(t) x + b(t) p + xi(t) 1,

with a = cos(omega0 t), b = sin(omega0 t)/(m omega0) and xi the zero-IC
c-number response, which the classical RK4 kernel integrates from the
drive table that the solution carries.  ``closed_form_moments`` takes
<x_H> and <x_H^2> in any state from this coefficient triple; the state
vector's length sets the Fock basis.

``fock_state_moments`` is an independent check of the triple: it reads
the same drive table but propagates the Fock state vector itself, by its
own RK4 loop in the interaction picture, and so exercises the ladder
algebra and the truncation rather than the triple's formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalTrajectory, DriveTable, build_drive_table, integrate_forced
from .errors import TruncationError
from .model import FieldModel, OscillatorParams, TimeGrid

_TAIL_POPULATION_LIMIT = 1e-10


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
    return sx * (lower + raise_), 1j * sp * (raise_ - lower)


def commutator_error(x_op: np.ndarray, p_op: np.ndarray, hbar: float) -> float:
    """Max deviation of [x, p] from i hbar 1 on the interior (N-2) block."""
    comm = x_op @ p_op - p_op @ x_op
    n = len(x_op)
    target = 1j * hbar * np.eye(n, dtype=complex)
    return float(np.max(np.abs((comm - target)[: n - 2, : n - 2])))


def ground_state_vector(n_fock: int) -> np.ndarray:
    vec = np.zeros(n_fock, dtype=complex)
    vec[0] = 1.0
    return vec


def coherent_state_vector(params: OscillatorParams, n_fock: int,
                          q0: float, v0: float = 0.0) -> np.ndarray:
    """Coherent state centered at (q0, m v0) in the truncated basis.

    The coefficients alpha^n / sqrt(n!) are normalised in log space,
    shifted by the largest exponent, so that a basis far too small for
    alpha still gives a finite vector for the tail guard to reject.
    """
    m, w, hb = params.mass, params.omega0, params.hbar
    alpha = math.sqrt(m * w / (2.0 * hb)) * q0 + 1j * (m * v0) / math.sqrt(2.0 * m * w * hb)
    n = np.arange(n_fock)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_fock)))))
    if alpha == 0:
        return ground_state_vector(n_fock)
    exponent = n * np.log(complex(alpha)) - 0.5 * log_fact
    coeff = np.exp(exponent - exponent.real.max())
    vec = coeff / np.linalg.norm(coeff)
    _check_tail(vec)
    return vec


def _check_tail(state: np.ndarray):
    tail = float(abs(state[-1]) ** 2 + abs(state[-2]) ** 2)
    if not tail <= _TAIL_POPULATION_LIMIT:  # a NaN tail fails too
        raise TruncationError(
            f"last-two-level population {tail:.3g} exceeds {_TAIL_POPULATION_LIMIT:g}; "
            f"increase n_fock")


@dataclass(frozen=True, eq=False)
class HeisenbergSolution:
    """Evolved position operator as the coefficient triple.

    x_H(t) = a x + b p + xi on every sample of the drive table's grid.
    """

    # Not a field; benchmark spans are named after it.
    method = "closed_form"

    drive: DriveTable
    a: np.ndarray
    b: np.ndarray
    xi: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.drive.grid


def closed_form_moments(sol: HeisenbergSolution, state: np.ndarray):
    """The triple's <x_H> and <x_H^2> in ``state`` on every grid sample.

    The basis has dimension len(state).  Raises TruncationError if the
    state's last two levels hold too much population.
    """
    _check_tail(state)
    x_op, p_op = build_ladder_operators(sol.drive.params, len(state))
    xv = x_op @ state
    pv = p_op @ state
    mx = float(np.real(np.vdot(state, xv)))
    mp = float(np.real(np.vdot(state, pv)))
    xx = float(np.real(np.vdot(xv, xv)))
    pp = float(np.real(np.vdot(pv, pv)))
    xp_sym = 2.0 * float(np.real(np.vdot(xv, pv)))
    a, b, xi = sol.a, sol.b, sol.xi
    x = a * mx + b * mp + xi
    x2 = a**2 * xx + b**2 * pp + a * b * xp_sym + 2.0 * xi * (a * mx + b * mp) + xi**2
    return x, x2


def evolve_heisenberg(params: OscillatorParams, field: FieldModel, time_grid: TimeGrid,
                      reference_trajectory: ClassicalTrajectory | None = None
                      ) -> HeisenbergSolution:
    """Evolve the Heisenberg-picture position operator as its coefficient triple.

    xi is integrated by the shared RK4 kernel from the drive table, which
    for gamma > 0 needs ``reference_trajectory``; for an undriven, undamped
    field this is the identity evolution of the free oscillator.
    """
    drive = build_drive_table(params, field, time_grid, reference_trajectory)

    w = params.omega0
    rel_t = time_grid.times - time_grid.t0
    a = np.cos(w * rel_t)
    b = np.sin(w * rel_t) / (params.mass * w)
    xi = integrate_forced(drive).q
    return HeisenbergSolution(drive=drive, a=a, b=b, xi=xi)


def fock_state_moments(drive: DriveTable, state: np.ndarray):
    """<x> and <x^2> on the table's grid for ``state`` evolved under H(t).

    The basis has dimension len(state).  Classic RK4 integrates
    d psi_I/dt = (i/hbar) F(t) x_I(t) psi_I in the interaction picture of
    hbar omega0 (n + 1/2), where
    x_I(t) = s (a e^{-i omega0 t} + a+ e^{i omega0 t}) and F is read
    from ``drive`` at the half steps.  Then
    <x> = <psi_I|x_I psi_I> and <x^2> = ||x_I psi_I||^2.  Raises
    TruncationError as soon as the last two levels hold too much
    population at any step.
    """
    params, time_grid = drive.params, drive.grid
    dim = len(state)
    x_op, _ = build_ladder_operators(params, dim)
    # s a above the diagonal and s a+ below it, stacked for one product
    ladder = np.vstack((np.triu(x_op, 1), np.tril(x_op, -1)))
    phases = np.exp(-1j * params.omega0 * (time_grid.half_times - time_grid.t0)).tolist()
    gains = (1j / params.hbar * drive.values).tolist()

    def x_times(k, vec):
        y = ladder @ vec
        e = phases[k]
        return e * y[:dim] + e.conjugate() * y[dim:]

    n = time_grid.n_steps
    dt = time_grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    mean_x = np.empty(n + 1)
    mean_x2 = np.empty(n + 1)
    psi = np.asarray(state, dtype=complex)
    for i in range(n + 1):
        _check_tail(psi)
        x_psi = x_times(2 * i, psi)
        mean_x[i] = np.vdot(psi, x_psi).real
        mean_x2[i] = np.vdot(x_psi, x_psi).real
        if i == n:
            break
        k1 = gains[2 * i] * x_psi
        k2 = gains[2 * i + 1] * x_times(2 * i + 1, psi + half * k1)
        k3 = gains[2 * i + 1] * x_times(2 * i + 1, psi + half * k2)
        k4 = gains[2 * i + 2] * x_times(2 * i + 2, psi + dt * k3)
        psi = psi + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return mean_x, mean_x2
