import math

import numpy as np
import pytest
from scipy.integrate import quad

import picture_lab as pl
from picture_lab import InitialConditions, TimeGrid


def test_ladder_matrix_element_with_quadrature_oracle(natural):
    x_op, _ = pl.build_ladder_operators(natural, 16)
    # oracle: <0|x|1> for the first two eigenfunctions (natural units)
    phi0 = lambda x: math.pi ** -0.25 * math.exp(-0.5 * x * x)
    phi1 = lambda x: math.pi ** -0.25 * math.sqrt(2.0) * x * math.exp(-0.5 * x * x)
    overlap, _ = quad(lambda x: phi0(x) * x * phi1(x), -np.inf, np.inf)
    assert overlap == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert x_op.matrix[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_ground_moments(natural):
    x_op, _ = pl.build_ladder_operators(natural, 32)
    e0 = pl.ground_state_vector(32)
    xv = x_op.matrix @ e0
    assert np.real(np.vdot(xv, xv)) == pytest.approx(0.5, abs=1e-14)
    assert abs(np.vdot(e0, xv)) < 1e-15  # parity


def test_hermiticity_and_commutator(natural):
    x_op, p_op = pl.build_ladder_operators(natural, 64)
    assert x_op.hermiticity_error() < 1e-12
    assert p_op.hermiticity_error() < 1e-12
    assert pl.commutator_error(x_op, p_op, natural.hbar) < 1e-10


def test_minimum_dimension_enforced(natural):
    with pytest.raises(ValueError):
        pl.build_ladder_operators(natural, 8)


def test_free_matrix_evolution_periodic(natural):
    params = pl.OscillatorParams(charge=0.0)
    tg = TimeGrid(0.0, params.period, 1500)
    sol = pl.evolve_heisenberg(params, pl.FieldModel.zero(), tg, 64,
                               method="matrix", store_every=1500)
    x0, _ = pl.build_ladder_operators(params, 64)
    assert np.max(np.abs(sol.x_matrices[-1] - x0.matrix)) < 1e-8


def test_driven_xi_matches_classical_oracle(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, math.pi, 2000)
    sol = pl.evolve_heisenberg(natural, field, tg, 64)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    assert np.max(np.abs(sol.xi - traj.q)) < 1e-9
    assert sol.xi[-1] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_matrix_path_agrees_with_closed_form(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 5.0 * natural.period, 5000)
    sol = pl.evolve_heisenberg(natural, field, tg, 64, method="matrix",
                               store_every=500, track_oracle=True)
    assert sol.oracle_sup < 1e-8


def test_commutator_preserved_along_evolution(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 2.0 * natural.period, 2500)
    sol = pl.evolve_heisenberg(natural, field, tg, 64, method="matrix",
                               store_every=500)
    n = sol.n_fock
    eye = np.eye(n)
    for x_t, p_t in zip(sol.x_matrices, sol.p_matrices):
        comm = x_t @ p_t - p_t @ x_t - 1j * natural.hbar * eye
        assert np.max(np.abs(comm[: n - 2, : n - 2])) < 1e-9


def test_ground_mean_follows_zero_ic_trajectory(natural):
    # the operator mean and the classical zero-IC solution coincide
    field = pl.FieldModel.mode_sum([0.4, 0.25], [0.52, 1.77], seed=5)
    tg = TimeGrid(0.0, 3.0 * natural.period, 3000)
    sol = pl.evolve_heisenberg(natural, field, tg, 64, method="matrix",
                               store_every=300)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    for slot, step in enumerate(sol.stored_steps):
        t = tg.times[step]
        assert pl.moment_x(sol, t) == pytest.approx(traj.q[step], abs=1e-8)


def test_ground_moment_x2_values(natural):
    # free: constant 0.5 at every time
    params = pl.OscillatorParams(charge=0.0)
    tg = TimeGrid(0.0, 2.0 * params.period, 2000)
    sol = pl.evolve_heisenberg(params, pl.FieldModel.zero(), tg, 64)
    for t in (0.0, tg.times[700], tg.t1):
        assert pl.moment_x2(sol, t) == pytest.approx(0.5, abs=1e-12)

    # driven at t=pi: 0.5 + (4/3)^2, matrix path as oracle
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg2 = TimeGrid(0.0, math.pi, 2000)
    closed = pl.evolve_heisenberg(natural, field, tg2, 64)
    expected = 0.5 + (4.0 / 3.0) ** 2
    assert pl.moment_x2(closed, math.pi) == pytest.approx(expected, abs=1e-8)
    matrix = pl.evolve_heisenberg(natural, field, tg2, 64, method="matrix",
                                  store_every=2000)
    assert pl.moment_x2(matrix, math.pi) == pytest.approx(expected, abs=1e-8)

    # xi zero crossing reduces to the free value
    assert pl.moment_x2(closed, 0.0) == pytest.approx(0.5, abs=1e-12)
    crossings = np.nonzero(np.diff(np.sign(closed.xi[1:])))[0]
    if crossings.size:
        t_cross = tg2.times[int(crossings[0]) + 1]
        assert pl.moment_x2(closed, t_cross) == pytest.approx(0.5, abs=2e-6)


def test_moment_requires_grid_time(natural):
    sol = pl.evolve_heisenberg(natural, pl.FieldModel.zero(),
                               TimeGrid(0.0, 1.0, 100), 64)
    with pytest.raises(ValueError):
        pl.moment_x2(sol, 0.12345)


def test_moment_n_refinement_stable(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 2.0 * natural.period, 2000)
    series = []
    for n_fock in (32, 64):
        sol = pl.evolve_heisenberg(natural, field, tg, n_fock)
        series.append(pl.moment_x2_series(sol))
    assert np.max(np.abs(series[0] - series[1])) < 1e-10


def test_coherent_state_moments(natural):
    x_op, p_op = pl.build_ladder_operators(natural, 64)
    q0, v0 = 1.0, 0.4
    state = pl.coherent_state_vector(natural, 64, q0, v0)
    xv = x_op.matrix @ state
    pv = p_op.matrix @ state
    assert np.real(np.vdot(state, xv)) == pytest.approx(q0, abs=1e-12)
    assert np.real(np.vdot(state, pv)) == pytest.approx(natural.mass * v0, abs=1e-12)
    assert np.real(np.vdot(xv, xv)) == pytest.approx(0.5 + q0 * q0, abs=1e-12)


def test_truncation_error_for_large_displacement(natural):
    with pytest.raises(pl.TruncationError):
        pl.coherent_state_vector(natural, 16, 5.0, 0.0)


def test_step_too_coarse(natural):
    field = pl.FieldModel.monochromatic(1.0, 30.0)
    with pytest.raises(pl.StepTooCoarse):
        pl.evolve_heisenberg(natural, field, TimeGrid(0.0, 10.0, 100), 64)


def test_damped_reference_consistency(natural):
    # with zero ICs the internally built damped reference makes xi, the
    # undamped response to the tabulated force, reproduce the damped
    # classical solution itself
    field = pl.FieldModel.monochromatic(0.5, 0.7, gamma=0.2)
    tg = TimeGrid(0.0, 3.0 * natural.period, 3000)
    sol = pl.evolve_heisenberg(natural, field, tg, 64)
    damped = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    assert np.max(np.abs(damped.q)) > 0.1  # non-trivial motion
    assert np.max(np.abs(sol.xi - damped.q)) < 1e-10
