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
algebra and the truncation rather than the triple's formulas.  It applies
x_I(t) by the two bands of x, and runs a batch of (drive table, state)
pairs on one grid and basis through the same loop as a single pair, on a
stack of states whose rows equal their single runs bit for bit.
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


def _check_tail(state: np.ndarray, row: int | None = None):
    tail = float(abs(state[-1]) ** 2 + abs(state[-2]) ** 2)
    if not tail <= _TAIL_POPULATION_LIMIT:  # a NaN tail fails too
        exc = TruncationError(
            f"last-two-level population {tail:.3g} exceeds {_TAIL_POPULATION_LIMIT:g}; "
            f"increase n_fock")
        exc.row = row
        raise exc


@dataclass(frozen=True, eq=False)
class HeisenbergSolution:
    """Evolved position operator as the coefficient triple.

    x_H(t) = a x + b p + xi on every sample of the drive table's grid.
    """

    # Not a field; bench/spans.py names its span after it.
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


def fock_state_moments(drive, state):
    """<x> and <x^2> on the table's grid for ``state`` evolved under H(t).

    The basis has dimension len(state).  Classic RK4 integrates
    d psi_I/dt = (i/hbar) F(t) x_I(t) psi_I in the interaction picture of
    hbar omega0 (n + 1/2), where
    x_I(t) = s (a e^{-i omega0 t} + a+ e^{i omega0 t}) and F is read
    from ``drive`` at the half steps.  Then
    <x> = <psi_I|x_I psi_I> and <x^2> = ||x_I psi_I||^2.  x_I is applied
    as two shifted elementwise products by the bands of x: s a holds the
    one nonzero of each row above the diagonal, s a+ that below it.

    ``drive`` and ``state`` are one table and one state vector, or a
    batch: a sequence of B tables on one time grid, with one mass, omega0
    and hbar, and a sequence of B states of one length (ValueError
    otherwise).  A batch runs through the same loop as one state, on a
    (B, n_fock) stack, and returns (B, n_steps + 1) arrays whose row b
    equals the single run of table b and state b bit for bit.  Raises
    TruncationError as soon as the last two levels of a state hold too
    much population at any step, with the index of that state as ``row``
    (0 for a single state).
    """
    single = isinstance(drive, DriveTable)
    drives = [drive] if single else list(drive)
    states = [state] if single else list(state)
    params, time_grid = drives[0].params, drives[0].grid
    shared = (time_grid, params.mass, params.omega0, params.hbar)
    if len(states) != len(drives) or len({len(vec) for vec in states}) != 1 or any(
            (d.grid, d.params.mass, d.params.omega0, d.params.hbar) != shared
            for d in drives):
        raise ValueError("a batch needs one state of equal length per drive table, "
                         "the tables on one time grid with one mass, omega0 and hbar")
    psi = np.array(states, dtype=complex)
    batch, dim = psi.shape
    x_op, _ = build_ladder_operators(params, dim)
    upper, lower = np.diag(x_op, 1), np.diag(x_op, -1)
    # s a psi and s a+ psi; each leaves one column at zero
    lowered = np.zeros((batch, dim), dtype=complex)
    raised = np.zeros((batch, dim), dtype=complex)
    lowered_body, raised_body = lowered[:, :-1], raised[:, 1:]
    phases = np.exp(-1j * params.omega0 * (time_grid.half_times - time_grid.t0)).tolist()
    # (2 n_steps + 1, B, 1): each half step's gain as a column of the stack
    gains = np.stack([1j / params.hbar * d.values for d in drives], axis=-1)[..., None]

    def x_times(k, vec):
        np.multiply(upper, vec[:, 1:], out=lowered_body)
        np.multiply(lower, vec[:, :-1], out=raised_body)
        e = phases[k]
        return e * lowered + e.conjugate() * raised

    n = time_grid.n_steps
    dt = time_grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    mean_x = np.empty((batch, n + 1))
    mean_x2 = np.empty((batch, n + 1))
    for i in range(n + 1):
        for b in range(batch):
            _check_tail(psi[b], b)
        x_psi = x_times(2 * i, psi)
        for b in range(batch):  # one dot per state keeps each row's sums
            row, x_row = psi[b], x_psi[b]
            mean_x[b, i] = np.vdot(row, x_row).real
            mean_x2[b, i] = np.vdot(x_row, x_row).real
        if i == n:
            break
        k1 = gains[2 * i] * x_psi
        k2 = gains[2 * i + 1] * x_times(2 * i + 1, psi + half * k1)
        k3 = gains[2 * i + 1] * x_times(2 * i + 1, psi + half * k2)
        k4 = gains[2 * i + 2] * x_times(2 * i + 2, psi + dt * k3)
        psi = psi + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    if single:
        return mean_x[0], mean_x2[0]
    return mean_x, mean_x2
