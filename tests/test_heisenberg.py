import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import picture_lab as pl
from picture_lab import InitialConditions, TimeGrid, heisenberg


def test_ladder_matrix_element_with_quadrature_oracle(natural):
    x_op, _ = pl.build_ladder_operators(natural, 16)
    # oracle: <0|x|1> for the first two eigenfunctions (natural units)
    phi0 = lambda x: math.pi ** -0.25 * math.exp(-0.5 * x * x)
    phi1 = lambda x: math.pi ** -0.25 * math.sqrt(2.0) * x * math.exp(-0.5 * x * x)
    overlap, _ = quad(lambda x: phi0(x) * x * phi1(x), -np.inf, np.inf)
    assert overlap == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert x_op[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_ground_moments(natural):
    x_op, _ = pl.build_ladder_operators(natural, 32)
    e0 = pl.ground_state_vector(32)
    xv = x_op @ e0
    assert np.real(np.vdot(xv, xv)) == pytest.approx(0.5, abs=1e-14)
    assert abs(np.vdot(e0, xv)) < 1e-15  # parity


def test_hermiticity_and_commutator(natural):
    x_op, p_op = pl.build_ladder_operators(natural, 64)
    assert np.max(np.abs(x_op - x_op.conj().T)) < 1e-12
    assert np.max(np.abs(p_op - p_op.conj().T)) < 1e-12
    assert pl.commutator_error(x_op, p_op, natural.hbar) < 1e-10


def test_minimum_dimension_enforced(natural):
    with pytest.raises(ValueError):
        pl.build_ladder_operators(natural, 8)
    drive = pl.build_drive_table(natural, pl.FieldModel.zero(), TimeGrid(0.0, 1.0, 100))
    with pytest.raises(ValueError, match="at least 16"):
        pl.fock_state_moments(drive, pl.ground_state_vector(8))


def test_free_fock_state_mean_oscillates():
    params = pl.OscillatorParams(charge=0.0)
    tg = TimeGrid(0.0, params.period, 1500)
    q0 = 1.0
    state = pl.coherent_state_vector(params, 64, q0)
    drive = pl.build_drive_table(params, pl.FieldModel.zero(), tg)
    mean_x, _ = pl.fock_state_moments(drive, state)
    assert np.max(np.abs(mean_x - q0 * np.cos(tg.times))) < 1e-8


def test_driven_xi_matches_classical_oracle(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, math.pi, 2000)
    sol = pl.evolve_heisenberg(natural, field, tg)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    assert np.max(np.abs(sol.xi - traj.q)) < 1e-9
    assert sol.xi[-1] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_fock_state_oracle_agrees_with_closed_form(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 5.0 * natural.period, 10_000)
    sol = pl.evolve_heisenberg(natural, field, tg)
    mean_x, mean_x2 = pl.fock_state_moments(sol.drive, pl.ground_state_vector(64))
    x_h, x2_h = pl.closed_form_moments(sol, pl.GaussianState.coherent(natural, 0.0))
    assert np.max(np.abs(mean_x - x_h)) < 1e-8
    assert np.max(np.abs(mean_x2 - x2_h)) < 1e-8


def _squeezed_displaced(params, n_fock, r, angle, q0, v0):
    """D(alpha) S(r e^{i angle}) |0> in n_fock levels, by matrix
    exponentials, and the GaussianState of its own moments."""
    x_op, p_op = pl.build_ladder_operators(params, n_fock)
    lower = np.diag(np.sqrt(np.arange(1, n_fock)), k=1).astype(complex)
    raise_ = lower.conj().T
    zeta = r * np.exp(1j * angle)
    alpha = (math.sqrt(params.mass * params.omega0 / (2.0 * params.hbar)) * q0
             + 1j * params.mass * v0 / math.sqrt(2.0 * params.mass * params.omega0 * params.hbar))
    squeeze = expm(0.5 * (np.conj(zeta) * lower @ lower - zeta * raise_ @ raise_))
    vec = expm(alpha * raise_ - np.conj(alpha) * lower) @ squeeze @ pl.ground_state_vector(n_fock)
    xv, pv = x_op @ vec, p_op @ vec
    mx, mp = float(np.vdot(vec, xv).real), float(np.vdot(vec, pv).real)
    return vec, pl.GaussianState(mx, mp, float(np.vdot(xv, xv).real) - mx**2,
                                 float(np.vdot(pv, pv).real) - mp**2,
                                 float(np.vdot(xv, pv).real) - mx * mp)


@pytest.mark.parametrize("r, angle", [(0.5, 0.0), (0.4, 1.1)])
def test_closed_form_reads_a_squeezed_covariance(r, angle):
    # no coherent state has a covariance other than the vacuum's, so only a
    # squeezed state sees the triple's var_x, var_p and cov_xp terms: with
    # the vacuum's covariance the triple is off by 0.61-0.86, and with
    # cov_xp dropped by 0.40 at angle 1.1; the oracle reads the vector alone
    s = pl.golden_scenarios()["driven"]
    tg = TimeGrid(0.0, 2.0 * s.params.period, 2000)
    sol = pl.evolve_heisenberg(s.params, s.field, tg)
    vec, state = _squeezed_displaced(s.params, 96, r, angle, 1.0, 0.4)
    if angle:
        assert state.cov_xp == pytest.approx(-0.40, abs=0.01)
    mean_x, mean_x2 = pl.fock_state_moments(sol.drive, vec)
    x_h, x2_h = pl.closed_form_moments(sol, state)
    assert np.max(np.abs(mean_x - x_h)) < 1e-9
    assert np.max(np.abs(mean_x2 - x2_h)) < 1e-9


def test_closed_form_rejects_a_state_below_the_uncertainty_bound(natural):
    sol = pl.evolve_heisenberg(natural, pl.FieldModel.zero(), TimeGrid(0.0, 1.0, 100))
    pl.closed_form_moments(sol, pl.GaussianState(0.0, 0.0, 0.25, 1.0, 0.0))
    with pytest.raises(ValueError, match="uncertainty"):
        pl.closed_form_moments(sol, pl.GaussianState(0.0, 0.0, 0.5, 1.0, 0.8))


def test_ground_mean_follows_zero_ic_trajectory(natural):
    # the Fock-state mean and the classical zero-IC solution coincide
    field = pl.FieldModel.mode_sum([0.4, 0.25], [0.52, 1.77], seed=5)
    tg = TimeGrid(0.0, 3.0 * natural.period, 3000)
    mean_x, _ = pl.fock_state_moments(pl.build_drive_table(natural, field, tg),
                                      pl.ground_state_vector(64))
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    for step in range(0, tg.n_steps + 1, 300):
        assert mean_x[step] == pytest.approx(traj.q[step], abs=1e-8)


def test_ground_moment_x2_values(natural):
    # free: constant 0.5 at every time
    params = pl.OscillatorParams(charge=0.0)
    tg = TimeGrid(0.0, 2.0 * params.period, 2000)
    sol = pl.evolve_heisenberg(params, pl.FieldModel.zero(), tg)
    _, x2 = pl.closed_form_moments(sol, pl.GaussianState.coherent(params, 0.0))
    for i in (0, 700, tg.n_steps):
        assert x2[i] == pytest.approx(0.5, abs=1e-12)

    # driven at t=pi: 0.5 + (4/3)^2, Fock state vector as oracle
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg2 = TimeGrid(0.0, math.pi, 2000)
    closed = pl.evolve_heisenberg(natural, field, tg2)
    _, x2 = pl.closed_form_moments(closed, pl.GaussianState.coherent(natural, 0.0))
    expected = 0.5 + (4.0 / 3.0) ** 2
    assert x2[-1] == pytest.approx(expected, abs=1e-8)
    _, fock_x2 = pl.fock_state_moments(closed.drive, pl.ground_state_vector(64))
    assert fock_x2[-1] == pytest.approx(expected, abs=1e-8)

    # xi zero crossing reduces to the free value
    assert x2[0] == pytest.approx(0.5, abs=1e-12)
    crossings = np.nonzero(np.diff(np.sign(closed.xi[1:])))[0]
    if crossings.size:
        assert x2[int(crossings[0]) + 1] == pytest.approx(0.5, abs=2e-6)


def test_moment_n_refinement_stable(natural):
    # the closed form has no basis: the oracle's moments must not see its size
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 2.0 * natural.period, 2000)
    drive = pl.build_drive_table(natural, field, tg)
    series = [pl.fock_state_moments(drive, pl.ground_state_vector(n))[1] for n in (32, 64)]
    assert np.max(np.abs(series[0] - series[1])) < 1e-10


def test_coherent_state_moments(natural):
    x_op, p_op = pl.build_ladder_operators(natural, 64)
    q0, v0 = 1.0, 0.4
    state = pl.coherent_state_vector(natural, 64, q0, v0)
    xv = x_op @ state
    pv = p_op @ state
    assert np.real(np.vdot(state, xv)) == pytest.approx(q0, abs=1e-12)
    assert np.real(np.vdot(state, pv)) == pytest.approx(natural.mass * v0, abs=1e-12)
    assert np.real(np.vdot(xv, xv)) == pytest.approx(0.5 + q0 * q0, abs=1e-12)


def test_truncation_error_for_large_displacement(natural):
    with pytest.raises(pl.TruncationError):
        pl.coherent_state_vector(natural, 16, 5.0, 0.0)


def test_truncation_guard_rejects_an_underflowing_basis(natural):
    # |alpha|^2 = 1800 on 64 levels: every e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    # underflows to zero, so the coefficients must be normalised in log space
    with pytest.raises(pl.TruncationError, match="n_fock"):
        pl.coherent_state_vector(natural, 64, 0.0, 60.0)
    # and a NaN state is rejected before it can reach the triple's moments
    with pytest.raises(ValueError, match="finite"):
        pl.GaussianState(*[np.nan] * 5)


def test_step_too_coarse(natural):
    field = pl.FieldModel.monochromatic(1.0, 30.0)
    with pytest.raises(pl.StepTooCoarse):
        pl.evolve_heisenberg(natural, field, TimeGrid(0.0, 10.0, 100))
    with pytest.raises(pl.StepTooCoarse):  # the oracle's table
        pl.build_drive_table(natural, field, TimeGrid(0.0, 10.0, 100))


def test_truncation_guard_fires_along_the_path(natural):
    # the ground state fits n_fock=16, but the drive displaces it to
    # |q| ~ 8/3 after one period, where the last two levels fill up
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, natural.period, 4000)
    early = TimeGrid(0.0, 0.5, 200)
    pl.fock_state_moments(pl.build_drive_table(natural, field, early),
                          pl.ground_state_vector(16))
    with pytest.raises(pl.TruncationError):
        pl.fock_state_moments(pl.build_drive_table(natural, field, tg),
                              pl.ground_state_vector(16))
    scenario = pl.Scenario(name="leaky", params=natural, field=field,
                           ics=InitialConditions(0.0, 0.0), time_grid=tg,
                           record_every=20, n_fock=16)
    with pytest.raises(pl.TruncationError):
        pl.run_equivalence(scenario)


def test_damped_reference_consistency(natural):
    # with the zero-IC damped solution as reference, xi, the undamped
    # response to the tabulated force, reproduces that solution itself
    field = pl.FieldModel.monochromatic(0.5, 0.7, gamma=0.2)
    tg = TimeGrid(0.0, 3.0 * natural.period, 3000)
    sol = pl.evolve_heisenberg(natural, field, tg, ics=InitialConditions(0.0, 0.0))
    damped = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    assert np.max(np.abs(damped.q)) > 0.1  # non-trivial motion
    assert np.max(np.abs(sol.xi - damped.q)) < 1e-10


def _oracle_batch(batch):
    # charges with 0 among them, a damped row with its reference's ICs, and
    # displaced, boosted coherent states, all on one grid and one basis;
    # past 4 rows they repeat at other charges
    tg = TimeGrid(0.0, 1.5, 600)
    rows = [(0.8, pl.FieldModel.monochromatic(0.3, 0.5), 0.5, 0.2),
            (0.0, pl.FieldModel.monochromatic(0.3, 0.5), -1.0, 0.0),
            (1.0, pl.FieldModel.monochromatic(0.2, 0.7, gamma=0.15), 0.3, -0.6),
            (1.5, pl.FieldModel.mode_sum([0.05, 0.03], [0.41, 1.73], seed=19), 0.0, 0.9)]
    drives, states = [], []
    for k in range(batch):
        charge, field, q0, v0 = rows[k % len(rows)]
        params = pl.OscillatorParams(charge=charge * (1.0 + 0.5 * (k // len(rows))))
        drives.append(pl.build_drive_table(params, field, tg, ics=InitialConditions(q0, v0)))
        states.append(pl.coherent_state_vector(params, 48, q0, v0))
    return drives, states


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
def test_batched_oracle_rows_equal_their_single_calls(batch):
    drives, states = _oracle_batch(batch)
    n = drives[0].grid.n_steps
    if batch == 5:  # the batch's blocks, of states and of bands, are not the single run's
        depths = heisenberg._depths(n, batch, 48)
        assert depths != heisenberg._depths(n, 1, 48)
        assert n % depths[0] and depths[0] % depths[1]
    mean_x, mean_x2 = pl.fock_state_moments(drives, states)
    assert mean_x.shape == mean_x2.shape == (batch, n + 1)
    for b in range(batch):
        alone_x, alone_x2 = pl.fock_state_moments(drives[b], states[b])
        assert np.array_equal(mean_x[b], alone_x), b
        assert np.array_equal(mean_x2[b], alone_x2), b


@pytest.mark.parametrize("batch", [1, 3])
def test_oracle_einsum_equals_np_einsum_bit_for_bit(monkeypatch, batch):
    # the loop calls einsum's C function; np.einsum, its fallback, parses
    # the same call in Python and must give the same bytes
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert heisenberg._einsum is not np.einsum
    drives, states = _oracle_batch(batch)
    if batch == 1:
        drives, states = drives[0], states[0]
    fast = pl.fock_state_moments(drives, states)
    monkeypatch.setattr(heisenberg, "_einsum", np.einsum)
    for got, want in zip(pl.fock_state_moments(drives, states), fast):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _dense_oracle(drive, state):
    """The oracle's RK4 loop with x_I(t) as dense products by the two
    triangles of x, the form that the band products replace, checking the
    tail of every step's state before taking its moments."""
    params, tg = drive.params, drive.grid
    x_op, _ = pl.build_ladder_operators(params, len(state))
    above, below = np.triu(x_op, 1), np.tril(x_op, -1)
    phases = np.exp(-1j * params.omega0 * (tg.half_times - tg.t0))
    gains = 1j / params.hbar * drive.values

    def x_times(k, vec):
        return phases[k] * (above @ vec) + phases[k].conjugate() * (below @ vec)

    psi, dt, moments = state, tg.dt, []
    for i in range(tg.n_steps + 1):
        tail = float(abs(psi[-1]) ** 2 + abs(psi[-2]) ** 2)
        if not tail <= 1e-10:
            raise pl.TruncationError(f"last-two-level population {tail:.3g} exceeds 1e-10 "
                                     f"at step {i}; increase n_fock")
        x_psi = x_times(2 * i, psi)
        moments.append((np.vdot(psi, x_psi).real, np.vdot(x_psi, x_psi).real))
        if i < tg.n_steps:
            k1 = gains[2 * i] * x_psi
            k2 = gains[2 * i + 1] * x_times(2 * i + 1, psi + 0.5 * dt * k1)
            k3 = gains[2 * i + 1] * x_times(2 * i + 1, psi + 0.5 * dt * k2)
            k4 = gains[2 * i + 2] * x_times(2 * i + 2, psi + dt * k3)
            psi = psi + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return np.array(moments).T


def test_band_products_match_the_dense_ladder():
    # rounding may differ with the BLAS build; 1e-13 is ~500 ulps of the moments
    drives, states = _oracle_batch(4)
    mean_x, mean_x2 = pl.fock_state_moments(drives, states)
    for b, (drive, state) in enumerate(zip(drives, states)):
        dense_x, dense_x2 = _dense_oracle(drive, state)
        np.testing.assert_allclose(mean_x[b], dense_x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(mean_x2[b], dense_x2, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["free", "driven", "mode_sum", "damped"])
def test_band_products_match_the_dense_ladder_on_the_golden_fields(name):
    # each golden's field, ICs and basis on its oracle's grid cut to 2 periods
    s = pl.golden_scenarios()[name]
    tg = TimeGrid(s.time_grid.t0, s.time_grid.t0 + 2.0 * s.params.period, 2000)
    drive = pl.build_drive_table(s.params, s.field, tg, s.ics)
    state = pl.coherent_state_vector(s.params, s.n_fock, s.ics.q0, s.ics.v0)
    mean_x, mean_x2 = pl.fock_state_moments(drive, state)
    dense_x, dense_x2 = _dense_oracle(drive, state)
    np.testing.assert_allclose(mean_x, dense_x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(mean_x2, dense_x2, rtol=0, atol=1e-13)


def test_oracle_bands_are_the_dense_diagonals_without_the_dense_matrix(monkeypatch):
    # a 2048-level basis: one dense N x N complex matrix alone is 64 MB
    params, dim = pl.OscillatorParams(mass=1.3, omega0=0.7, hbar=0.9), 2048
    drive = pl.build_drive_table(params, pl.FieldModel.monochromatic(0.1, 0.5),
                                 TimeGrid(0.0, 1.0, 20))
    seen = []
    step_terms = heisenberg._step_terms
    monkeypatch.setattr(heisenberg, "_step_terms",
                        lambda above, below, *args: seen.append((above, below))
                        or step_terms(above, below, *args))
    tracemalloc.start()
    try:
        pl.fock_state_moments(drive, pl.ground_state_vector(dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # built from the dense ladder it peaked at ~270 MB; the bands take ~9 MB
    assert peak < 32e6, peak
    x_op, _ = pl.build_ladder_operators(params, dim)
    (above, below), = seen
    # bit for bit, signed zeros included
    assert above.tobytes() == np.append(np.diag(x_op, 1), 0.0).tobytes()
    assert below.tobytes() == np.insert(np.diag(x_op, -1), 0, 0.0).tobytes()


def _kicked(params, tg, step):
    """A table that is 0 except on the 4 steps before ``step``; None is all
    0.  An RK4 step is a polynomial of degree 4 in x, so from the ground
    state the last two of 16 levels fill at ``step`` and not before."""
    drive = pl.build_drive_table(params, pl.FieldModel.zero(), tg)
    values = np.zeros_like(drive.values)
    if step is not None:
        values[2 * step - 8:2 * step + 1] = 0.5 / tg.dt
    return replace(drive, values=values)


def _blocks(n, batch, dim):
    """The first steps of the oracle's second and last blocks of states."""
    depth = heisenberg._depths(n, batch, dim)[0]
    return depth, (n - 1) // depth * depth


@pytest.mark.parametrize("where", ["first of a block", "last of a block", "final sample"])
def test_blocked_tail_guard_names_the_step_a_per_step_check_would(natural, where):
    tg = TimeGrid(0.0, 1.0, 400)
    second, last = _blocks(tg.n_steps, 2, 16)
    assert 0 < second < last < tg.n_steps
    step = {"first of a block": last, "last of a block": second - 1,
            "final sample": tg.n_steps}[where]
    early = _kicked(natural, tg, step)
    with pytest.raises(pl.TruncationError) as dense:
        _dense_oracle(early, pl.ground_state_vector(16))
    assert f"at step {step};" in str(dense.value)
    # row 0 trips a step later, if there is one: the error names row 1
    late = _kicked(natural, tg, step + 1 if step < tg.n_steps else None)
    ground = pl.ground_state_vector(16)
    with pytest.raises(pl.TruncationError) as batch:
        pl.fock_state_moments([late, early], [ground, ground])
    assert batch.value.row == 1
    assert str(batch.value) == str(dense.value)
    with pytest.raises(pl.TruncationError) as alone:
        pl.fock_state_moments(early, ground)
    assert alone.value.row == 0
    assert str(alone.value) == str(dense.value)


def test_a_state_that_overflows_mid_block_trips_the_tail_guard(natural):
    # F = 1e200 at the midpoint of step 99 overflows its coefficients, and
    # so row 1's state at step 100, inside a block; RuntimeWarning is an
    # error here
    tg = TimeGrid(0.0, 1.0, 400)
    assert 100 < _blocks(tg.n_steps, 2, 16)[0] - 1
    quiet = _kicked(natural, tg, None)
    values = np.zeros_like(quiet.values)
    values[2 * 99 + 1] = 1e200
    ground = pl.ground_state_vector(16)
    with pytest.raises(pl.TruncationError,
                       match="population nan exceeds 1e-10 at step 100;") as caught:
        pl.fock_state_moments([quiet, replace(quiet, values=values)], [ground, ground])
    assert caught.value.row == 1


def test_batched_tail_guard_trips_for_its_row(natural):
    # row 1 is driven out of 16 levels within a period (see
    # test_truncation_guard_fires_along_the_path); row 0 stays undriven
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, natural.period, 4000)
    drives = [pl.build_drive_table(p, field, tg)
              for p in (pl.OscillatorParams(charge=0.0), natural)]
    ground = pl.ground_state_vector(16)
    with pytest.raises(pl.TruncationError) as alone:
        pl.fock_state_moments(drives[1], ground)
    with pytest.raises(pl.TruncationError) as batch:
        pl.fock_state_moments(drives, [ground, ground])
    assert batch.value.row == 1
    assert str(batch.value) == str(alone.value)
    # a NaN row trips it too, where a max over the rows would let it through
    nan = np.full(16, np.nan, dtype=complex)
    with pytest.raises(pl.TruncationError) as caught:
        pl.fock_state_moments([drives[0]] * 3, [ground, nan, ground])
    assert caught.value.row == 1


def test_oracle_batch_needs_one_grid_and_one_basis(natural):
    field = pl.FieldModel.zero()
    drives = [pl.build_drive_table(natural, field, TimeGrid(0.0, 1.0, n)) for n in (100, 200)]
    with pytest.raises(ValueError, match="one time grid"):
        pl.fock_state_moments(drives, [pl.ground_state_vector(16)] * 2)
    with pytest.raises(ValueError, match="equal length"):
        pl.fock_state_moments([drives[0]] * 2,
                              [pl.ground_state_vector(16), pl.ground_state_vector(32)])
