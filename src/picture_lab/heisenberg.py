"""Heisenberg-picture engine: the closed-form triple and its Fock-basis oracle.

Under H(t) = hbar omega0 (n + 1/2) - F(t) x, where F(t) is the same
c-number force that drives the other engines (field drive plus damping
back-action along the classical trajectory from the run's ICs), the
position operator evolves as

    x_H(t) = a(t) x + b(t) p + xi(t) 1,

with a = cos(omega0 t), b = sin(omega0 t)/(m omega0) and xi the zero-IC
c-number response, which the classical RK4 kernel integrates from the
drive table that the solution carries.  ``closed_form_moments`` takes
<x_H> and <x_H^2> from this coefficient triple and a Gaussian state's
means and covariance.

``fock_state_moments`` is an independent check of the triple: it reads
the same drive table but propagates the Fock state vector itself, by its
own RK4 loop in the interaction picture, and so exercises the ladder
algebra and the truncation rather than the triple's formulas.  It takes
each RK4 step in a frame rotating with hbar omega0 n, where the step is
one product by a 9-band matrix, a fixed polynomial in x whose real
coefficients come from the step's three forces.  It runs a batch of
(drive table, state) pairs on one grid and basis through the same loop
as a single pair, on a stack of states whose rows equal their single
runs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import DriveTable, InitialConditions, build_drive_table, integrate_forced
from .errors import TruncationError
from .model import FieldModel, GaussianState, OscillatorParams, TimeGrid

_TAIL_POPULATION_LIMIT = 1e-10
#: bytes of each block buffer of ``fock_state_moments``, as of ``propagate``'s
_BLOCK_BYTES = 1 << 17
#: bands of the oracle's step matrix on each side of its diagonal
_HALF = 4

# einsum's C function, which np.einsum calls after parsing its options in
# Python: the same bits at under half the cost of a call on the oracle's rows
try:
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:
    try:  # numpy 1.x
        from numpy.core._multiarray_umath import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum


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
    tail = float(abs(vec[-1]) ** 2 + abs(vec[-2]) ** 2)
    if not tail <= _TAIL_POPULATION_LIMIT:  # a NaN tail fails too
        raise _tail_error(tail)
    return vec


def _tail_error(tail: float, row: int | None = None,
                step: int | None = None) -> TruncationError:
    at = "" if step is None else f" at step {step}"
    exc = TruncationError(f"last-two-level population {tail:.3g} exceeds "
                          f"{_TAIL_POPULATION_LIMIT:g}{at}; increase n_fock")
    exc.row = row
    return exc


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


def closed_form_moments(sol: HeisenbergSolution, state: GaussianState):
    """The triple's <x_H> and <x_H^2> in ``state`` on every grid sample.

    Raises ValueError if the state's covariance breaks the uncertainty
    relation var_x var_p - cov_xp^2 >= hbar^2/4 by more than 1e-12 of it.
    """
    hbar = sol.drive.params.hbar
    if not 4.0 * (state.var_x * state.var_p - state.cov_xp**2) >= (1.0 - 1e-12) * hbar**2:
        raise ValueError(f"{state} breaks the uncertainty relation at hbar = {hbar!r}")
    a, b = sol.a, sol.b
    x = a * state.q + b * state.p + sol.xi
    x2 = x**2 + a**2 * state.var_x + b**2 * state.var_p + 2.0 * a * b * state.cov_xp
    return x, x2


def evolve_heisenberg(params: OscillatorParams, field: FieldModel, time_grid: TimeGrid,
                      ics: InitialConditions | None = None) -> HeisenbergSolution:
    """Evolve the Heisenberg-picture position operator as its coefficient triple.

    xi is integrated by the shared RK4 kernel from the drive table, which
    for gamma > 0 needs ``ics``, the initial conditions of its damping
    reference (ValueError if missing); for an undriven, undamped field
    this is the identity evolution of the free oscillator.
    """
    drive = build_drive_table(params, field, time_grid, ics)

    w = params.omega0
    rel_t = time_grid.times - time_grid.t0
    a = np.cos(w * rel_t)
    b = np.sin(w * rel_t) / (params.mass * w)
    xi = integrate_forced(drive).q
    return HeisenbergSolution(drive=drive, a=a, b=b, xi=xi)


def _step_terms(above: np.ndarray, below: np.ndarray, omega0: float,
                dt: float) -> np.ndarray:
    """The 10 fixed terms of one RK4 step of the oracle in its rotating frame.

    In the frame chi = Phi(t - t0) psi_I, Phi(tau) = diag(e^{-i omega0 tau n}),
    x_I(t + h) acts on chi as Y(h) = Phi(h)+ x Phi(h), so one classic RK4
    step is chi <- sum_j c_j T_j chi: T_j is Phi(dt) times a product of
    Y1 = Y(0), Y2 = Y(dt/2) and Y3 = Y(dt) with its factors of i and dt,
    and c_j the real product of the step's stage forces f = F/hbar that
    multiplies it, in the order of ``_block_coefficients``.  x chi is
    above chi[k+1] + below chi[k-1].  Returns the 2 _HALF + 1 bands of
    every T_j, band d holding T_j[k, k + d - _HALF] at k, as a
    (10, 2 (2 _HALF + 1) dim) real array.
    """
    dim, width = len(above), 2 * _HALF + 1
    levels = np.arange(dim)

    def y(h, vecs):
        out = np.zeros_like(vecs)
        out[:-1] = np.exp(-1j * omega0 * h) * above[:-1, None] * vecs[1:]
        out[1:] += np.exp(1j * omega0 * h) * below[1:, None] * vecs[:-1]
        return out

    # probe c sums the levels k = c (mod width); no product of up to four Y
    # reaches past _HALF levels, so row k of T @ probes holds
    # T[k, k + d - _HALF] in column (k + d - _HALF) mod width
    probes = (levels[:, None] % width == np.arange(width)).astype(complex)
    y1, y2, y3 = y(0.0, probes), y(0.5 * dt, probes), y(dt, probes)
    y21, y22 = y(0.5 * dt, y1), y(0.5 * dt, y2)
    y221 = y(0.5 * dt, y21)
    products = (probes, y1, y2, y3, y21, y22, y(dt, y2), y221, y(dt, y22), y(dt, y221))
    factors = (1.0, 1j * dt / 6.0, 2j * dt / 3.0, 1j * dt / 6.0, -dt**2 / 6.0, -dt**2 / 6.0,
               -dt**2 / 6.0, -1j * dt**3 / 12.0, -1j * dt**3 / 12.0, dt**4 / 24.0)
    rotation = np.exp(-1j * omega0 * dt * levels)
    columns = (levels + np.arange(width)[:, None] - _HALF) % width
    bands = np.stack([factor * rotation * product[levels, columns]
                      for factor, product in zip(factors, products)])
    return bands.reshape(len(factors), -1).view(float)


def _block_coefficients(forces: np.ndarray) -> np.ndarray:
    """(L, B, 1, 10) coefficients c_j of L steps from their (2 L + 1, B)
    half-step forces f = F/hbar, matching the terms of ``_step_terms``."""
    f1, f2, f3 = forces[:-1:2], forces[1::2], forces[2::2]
    f22 = f2 * f2
    return np.stack((np.ones_like(f1), f1, f2, f3, f2 * f1, f22, f3 * f2,
                     f22 * f1, f3 * f22, f3 * f22 * f1), axis=-1)[:, :, None, :]


def _depths(n_steps: int, batch: int, dim: int) -> tuple:
    """Steps per block of ``fock_state_moments``: of its zero-padded
    states, and of its step bands, each buffer at most ``_BLOCK_BYTES``."""
    states = min(n_steps, max(1, _BLOCK_BYTES // (16 * batch * (dim + 2 * _HALF))))
    bands = min(states, max(1, _BLOCK_BYTES // (16 * batch * (2 * _HALF + 1) * dim)))
    return states, bands


def fock_state_moments(drive, state):
    """<x> and <x^2> on the table's grid for ``state`` evolved under H(t).

    The basis has dimension len(state).  Classic RK4 integrates
    d psi_I/dt = (i/hbar) F(t) x_I(t) psi_I in the interaction picture of
    hbar omega0 (n + 1/2), where
    x_I(t) = s (a e^{-i omega0 t} + a+ e^{i omega0 t}) and F is read
    from ``drive`` at the half steps.  Each step runs in the rotating
    frame chi of ``_step_terms``, as one product by 9 bands that the
    step's three forces weight; <x> = <chi|x chi> and <x^2> = ||x chi||^2.
    Per block of steps, one product per step and state builds the bands,
    and one vectorised pass takes the moments of the block's states and
    checks their tails.  Each step is one call of einsum's C function
    (``np.einsum`` where numpy lacks it), on row views of the block
    buffers built before the loop.

    ``drive`` and ``state`` are one table and one state vector, or a
    batch: a sequence of B tables on one time grid, with one mass, omega0
    and hbar, and a sequence of B states of one length (ValueError
    otherwise).  A batch runs through the same loop as one state, on a
    (B, n_fock) stack, and returns (B, n_steps + 1) arrays whose row b
    equals the single run of table b and state b bit for bit.  Raises
    TruncationError if the last two levels of a state hold too much
    population at any step, naming the first such step and, with the
    index of that state as ``row`` (0 for a single state), the first such
    state in it, as a check after every step would.
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
    batch, dim = len(states), len(states[0])
    n = time_grid.n_steps
    if dim < 16:
        raise ValueError("n_fock must be at least 16")
    sx = math.sqrt(params.hbar / (2.0 * params.mass * params.omega0))  # x = sx (a + a+)
    offdiag = (sx * np.sqrt(np.arange(1, dim))).astype(complex)
    # x chi = above chi[k+1] + below chi[k-1]
    above, below = np.append(offdiag, 0.0), np.insert(offdiag, 0, 0.0)
    terms = _step_terms(above, below, params.omega0, time_grid.dt)
    forces = np.stack([d.values for d in drives], axis=-1) / params.hbar  # (2 n + 1, B)
    mean_x = np.empty((batch, n + 1))
    mean_x2 = np.empty((batch, n + 1))

    # row i of a block holds the state of its step i, zero-padded by _HALF
    # levels on each side, so that each step's windows onto it stay fixed
    depth, band_depth = _depths(n, batch, dim)
    padded = np.zeros((depth + 1, batch, dim + 2 * _HALF), dtype=complex)
    chis = padded[:, :, _HALF:_HALF + dim]
    windows = sliding_window_view(padded, dim, axis=-1)  # (depth + 1, B, 9, dim)
    band_buffer = np.empty((band_depth, batch, 1, terms.shape[1]))
    bands = band_buffer.view(complex).reshape(band_depth, batch, 2 * _HALF + 1, dim)
    chis[0] = states
    chi_rows, window_rows, band_rows = list(chis), list(windows), list(bands)

    def settle(first, count):
        """Check the tails of the block's first ``count`` states, from step
        ``first`` on, then store their moments."""
        chi = chis[:count]
        # np.hypot is abs() of a complex scalar, as coherent_state_vector takes it
        last, second = (np.hypot(chi[..., k].real, chi[..., k].imag) for k in (-1, -2))
        tails = last**2 + second**2
        over = ~(tails <= _TAIL_POPULATION_LIMIT)  # a NaN tail fails too
        if over.any():
            i, b = np.unravel_index(np.argmax(over), over.shape)
            raise _tail_error(float(tails[i, b]), int(b), first + int(i))
        x_chi = (above * padded[:count, :, _HALF + 1:_HALF + 1 + dim]
                 + below * padded[:count, :, _HALF - 1:_HALF - 1 + dim])
        mean_x[:, first:first + count] = (chi.real * x_chi.real
                                          + chi.imag * x_chi.imag).sum(axis=-1).T
        mean_x2[:, first:first + count] = (x_chi.real**2 + x_chi.imag**2).sum(axis=-1).T

    # a state that overflows is caught by the tail check of its step
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, depth):
            count = min(depth, n - first)
            coefficients = _block_coefficients(forces[2 * first:2 * (first + count) + 1])
            for start in range(0, count, band_depth):
                stop = min(count, start + band_depth)
                # one (1, 10) x (10, 2 (2 _HALF + 1) dim) product per step and
                # state: a shape that does not depend on the batch
                np.matmul(coefficients[start:stop], terms, out=band_buffer[:stop - start])
                for i in range(start, stop):
                    _einsum("bdk,bdk->bk", band_rows[i - start], window_rows[i],
                            out=chi_rows[i + 1])
            settle(first, count)
            padded[0] = padded[count]
        settle(n, 1)
    if single:
        return mean_x[0], mean_x2[0]
    return mean_x, mean_x2
