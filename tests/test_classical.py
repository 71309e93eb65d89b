import math
from fractions import Fraction

import numpy as np
import pytest

import picture_lab as pl
from picture_lab import InitialConditions, TimeGrid, classical
from picture_lab.model import evaluate_field


def driven_closed_form(t):
    """Exact solution for m=omega0=e=E0=1, Omega=1/2, zero ICs.

    Particular response E0/(omega0^2 - Omega^2) cos(Omega t) plus the
    homogeneous piece cancelling the initial conditions.
    """
    return (4.0 / 3.0) * (np.cos(0.5 * t) - np.cos(t))


def damped_closed_form(t, gamma):
    """Textbook underdamped free decay from q0=1, v0=0 (omega0=1)."""
    wt = math.sqrt(1.0 - gamma**2 / 4.0)
    return np.exp(-0.5 * gamma * t) * (np.cos(wt * t)
                                       + (gamma / (2.0 * wt)) * np.sin(wt * t))


def _fine_reference(t1, n, q0=0.0, v0=0.0):
    """Independent velocity-Verlet integrator used to validate the oracle."""
    dt = t1 / n
    q, v = q0, v0
    force = lambda t, qq: -qq + math.cos(0.5 * t)
    a = force(0.0, q)
    for i in range(n):
        t = i * dt
        q += dt * v + 0.5 * dt * dt * a
        a_new = force(t + dt, q)
        v += 0.5 * dt * (a + a_new)
        a = a_new
    return q


def test_zero_field_zero_ics_stays_zero(natural):
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(),
                               InitialConditions(0.0, 0.0), TimeGrid(0.0, 10.0, 2000))
    assert np.all(traj.q == 0.0)
    assert np.all(traj.qdot == 0.0)


def test_monochromatic_matches_closed_form(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    grid = TimeGrid(0.0, math.pi, 4000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), grid)
    assert np.max(np.abs(traj.q - driven_closed_form(traj.times))) < 1e-12
    assert traj.q[-1] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_closed_form_oracle_agrees_with_independent_integrator():
    # sanity on the oracle itself: a separate fine-step scheme lands on it
    assert _fine_reference(math.pi, 400_000) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_damped_matches_closed_form(natural):
    gamma = 0.1
    field = pl.FieldModel.zero(gamma=gamma)
    grid = TimeGrid(0.0, 50.0, 20_000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(1.0, 0.0), grid)
    assert np.max(np.abs(traj.q - damped_closed_form(traj.times, gamma))) < 1e-10


def test_action_matches_closed_form(natural):
    # free oscillation q=cos t: action integral of (v^2 - q^2)/2 is -sin(2t)/4
    field = pl.FieldModel.zero()
    grid = TimeGrid(0.0, 20.0, 20_000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(1.0, 0.0), grid)
    assert np.max(np.abs(traj.action + np.sin(2.0 * traj.times) / 4.0)) < 1e-10


def test_energy_conserved_over_100_periods(natural):
    grid = TimeGrid(0.0, 100.0 * 2.0 * math.pi, 200_000)
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(),
                               InitialConditions(1.0, 0.0), grid)
    energy = traj.energy()
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    assert drift < 1e-8


def test_linearity_of_response(natural):
    # superposition of two cosine drives with zero ICs
    a, b = 0.7, -1.3
    grid = TimeGrid(0.0, 30.0, 20_000)
    ics = InitialConditions(0.0, 0.0)
    f1 = pl.FieldModel.monochromatic(1.0, 0.45)
    f2 = pl.FieldModel.monochromatic(1.0, 1.85, phase=0.6)
    combined = pl.FieldModel.mode_sum([a, b], [0.45, 1.85], [0.0, 0.6])
    t1 = pl.solve_trajectory(natural, f1, ics, grid)
    t2 = pl.solve_trajectory(natural, f2, ics, grid)
    tc = pl.solve_trajectory(natural, combined, ics, grid)
    expected = a * t1.q + b * t2.q
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(tc.q - expected)) / scale < 1e-9


def test_fourth_order_convergence(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    t1 = 4.0 * math.pi
    errors, dts = [], []
    for n in (200, 400, 800, 1600, 3200):
        grid = TimeGrid(0.0, t1, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), grid)
        errors.append(np.max(np.abs(traj.q - driven_closed_form(traj.times))))
        dts.append(grid.dt)
    order = pl.observed_order(dts, errors)
    assert 3.8 < order < 4.2
    # halving dt cuts the error by ~16x
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)


def test_decay_certificate_bounds(natural):
    gamma, threshold = 0.1, 1e-3
    grid = TimeGrid(0.0, 250.0, 100_000)
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(gamma=gamma),
                               InitialConditions(1.0, 0.0), grid)
    cert = pl.decay_certificate(traj, threshold)
    assert cert is not None
    envelope_time = (2.0 / gamma) * math.log(1.0 / threshold)
    period = natural.period
    assert envelope_time - period < cert < envelope_time + period
    # the certificate really holds to the end of the grid
    after = traj.q[traj.times >= cert]
    assert np.all(np.abs(after) <= threshold)


def test_decay_certificate_trivial_threshold(natural):
    grid = TimeGrid(0.0, 20.0, 5000)
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(gamma=0.2),
                               InitialConditions(0.5, 0.0), grid)
    assert pl.decay_certificate(traj, threshold=10.0) == grid.t0


def test_decay_certificate_requires_damping(natural):
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(),
                               InitialConditions(1.0, 0.0), TimeGrid(0.0, 10.0, 2000))
    with pytest.raises(pl.NotDamped):
        pl.decay_certificate(traj, 1e-3)


def test_decay_certificate_none_when_not_yet_decayed(natural):
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(gamma=0.01),
                               InitialConditions(1.0, 0.0), TimeGrid(0.0, 10.0, 2000))
    assert pl.decay_certificate(traj, 1e-6) is None


def test_step_too_coarse_rejected(natural):
    field = pl.FieldModel.monochromatic(1.0, 20.0)
    with pytest.raises(pl.StepTooCoarse):
        pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0),
                            TimeGrid(0.0, 10.0, 100))


def test_overflow_raises_non_finite(natural):
    field = pl.FieldModel.monochromatic(1e300, 0.5)
    params = pl.OscillatorParams(mass=1e-6, omega0=1.0, charge=1e9, hbar=1.0)
    with pytest.raises(pl.NonFiniteState):
        pl.solve_trajectory(params, field, InitialConditions(0.0, 0.0),
                            TimeGrid(0.0, 100.0, 10_000))


def test_overflow_of_a_forced_integration_raises_non_finite():
    # the same overflow through the drive table, whose force e E overflows
    # at once, and from a finite table (F up to 1e307) that the scan
    # overflows; each keeps numpy's overflow warning (an error under this
    # suite) to itself
    params = pl.OscillatorParams(mass=1e-6, omega0=1.0, charge=1e9, hbar=1.0)
    grid = TimeGrid(0.0, 100.0, 10_000)
    with pytest.raises(pl.NonFiniteState, match="drive force"):
        pl.build_drive_table(params, pl.FieldModel.monochromatic(1e300, 0.5), grid)
    drive = pl.build_drive_table(params, pl.FieldModel.monochromatic(1e298, 0.5), grid)
    assert np.isfinite(drive.values).all()
    with pytest.raises(pl.NonFiniteState, match="trajectory"):
        pl.integrate_forced(drive)


def test_sample_counts_match_grid(natural):
    grid = TimeGrid(0.0, 5.0, 777)
    traj = pl.solve_trajectory(natural, pl.FieldModel.zero(),
                               InitialConditions(0.3, -0.2), grid)
    assert len(traj.q) == len(traj.qdot) == len(traj.times) == 778


def test_drive_table_and_forced_integration_consistency(natural):
    # with gamma=0 the forced zero-IC integration reproduces solve_trajectory
    # bit for bit: both run the same RK4 kernel on the same force samples
    field = pl.FieldModel.monochromatic(0.5, 0.7)
    grid = TimeGrid(0.0, 25.0, 10_000)
    drive = pl.build_drive_table(natural, field, grid)
    xi = pl.integrate_forced(drive)
    direct = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), grid)
    assert np.array_equal(xi.q, direct.q)
    assert np.array_equal(xi.qdot, direct.qdot)
    assert np.array_equal(xi.action, direct.action)


def test_drive_table_damped_reference(natural):
    # damping back-action: F = -m gamma qdot along the reference, the
    # classical path from the given ICs on grid.refined(2)
    gamma = 0.15
    field = pl.FieldModel.zero(gamma=gamma)
    grid = TimeGrid(0.0, 10.0, 2000)
    ics = InitialConditions(1.0, 0.0)
    ref = pl.solve_trajectory(natural, field, ics, grid.refined(2))
    drive = pl.build_drive_table(natural, field, grid, ics=ics)
    assert drive.reference.grid == grid.refined(2)
    assert np.array_equal(drive.reference.q, ref.q)
    assert np.array_equal(drive.reference.qdot, ref.qdot)
    assert np.allclose(drive.values, -natural.mass * gamma * ref.qdot)
    # undamped, the ICs are not read and no reference is kept
    assert pl.build_drive_table(natural, pl.FieldModel.zero(), grid, ics=ics).reference is None


def test_damped_drive_needs_its_reference(natural):
    # no zero-IC reference is made up from missing ICs: it would undamp a
    # displaced packet
    field = pl.FieldModel.zero(gamma=0.25)
    grid = TimeGrid(0.0, 10.0, 2000)
    for build in (lambda: pl.build_drive_table(natural, field, grid),
                  lambda: pl.evolve_heisenberg(natural, field, grid)):
        with pytest.raises(ValueError, match="reference"):
            build()


def damped_closed_form_velocity(t, gamma):
    """Time derivative of ``damped_closed_form``."""
    wt = math.sqrt(1.0 - gamma**2 / 4.0)
    decay = np.exp(-0.5 * gamma * t)
    return -(1.0 + gamma**2 / (4.0 * wt**2)) * wt * decay * np.sin(wt * t)


def test_drive_table_stage_values(natural):
    # lattice offsets read the table; others interpolate the reference
    # velocity to O(dt^4) between its samples
    gamma = 0.15
    field = pl.FieldModel.zero(gamma=gamma)
    grid = TimeGrid(0.0, 10.0, 2000)
    drive = pl.build_drive_table(natural, field, grid, ics=InitialConditions(1.0, 0.0))
    offsets = (0.0, 0.5, 0.3243964040201711, 0.6756035959798289)
    stages = drive.stage_values(offsets)
    assert stages.shape == (grid.n_steps, 4)
    assert np.array_equal(stages[:, 0], drive.values[:-1:2])
    assert np.array_equal(stages[:, 1], drive.values[1::2])
    t = grid.times[:-1, None] + grid.dt * np.asarray(offsets[2:])
    exact = -natural.mass * gamma * damped_closed_form_velocity(t, gamma)
    assert np.max(np.abs(stages[:, 2:] - exact)) < 1e-12
    # with gamma = 0 the stage values are e E(t) in closed form
    mono = pl.FieldModel.monochromatic(0.5, 0.7)
    drive = pl.build_drive_table(natural, mono, grid)
    t = grid.times[:-1] + 0.3 * grid.dt
    assert np.allclose(drive.stage_values((0.3,))[:, 0],
                       natural.charge * 0.5 * np.cos(0.7 * t), rtol=0, atol=1e-15)


def _loop_rk4(params, gamma, grid, drive, k, q, v, path=None):
    """The scalar RK4 loop the scan replaced, kept as its reference.

    Returns the sampled q, qdot and action.  With ``path`` = (q, qdot)
    given, every step starts from the path's sample instead of the loop's
    own state: the action is then the stage-sum along that path.
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
    Q, V = (None, None) if path is None else (p.tolist() for p in path)

    q_out = np.empty(n + 1)
    v_out = np.empty(n + 1)
    s_out = np.empty(n + 1)
    s = 0.0
    q_out[0], v_out[0], s_out[0] = q, v, s

    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(n):
        if path is not None:
            q, v = Q[i], V[i]
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
    return q_out, v_out, s_out


def _golden_paths():
    """Every golden's classical path, and the forced (zero-IC) path of its
    drive table: as (id, trajectory) pairs.  Damped's classical path is
    its table's reference on grid.refined(2)."""
    for name, s in pl.golden_scenarios().items():
        table = pl.build_drive_table(s.params, s.field, s.time_grid, ics=s.ics)
        traj = table.reference
        if traj is None:
            traj = pl.solve_trajectory(s.params, s.field, s.ics, s.time_grid)
        yield f"{name}-path", traj
        yield f"{name}-forced", pl.integrate_forced(table)


def _short_paths(natural):
    # damped and driven from a moving start: n = 1, 2, 3, and a prime n
    # that no block length divides
    field = pl.FieldModel.monochromatic(0.5, 0.7, gamma=0.15)
    for n in (1, 2, 3, 997):
        grid = TimeGrid(0.0, 0.01 * n, n)
        yield f"n={n}", pl.solve_trajectory(natural, field, InitialConditions(0.7, -0.3), grid)


#: max |scan - loop| of q and of qdot.  Measured: 3.0e-15 (driven and
#: mode_sum), 3.9e-15 (the damped reference, 320 000 steps), 1.5e-14 (the
#: damped forced path); a scan that rounds A once drifted 4e-13
SCAN_BOUND = 5e-14


@pytest.mark.parametrize("case", ["golden", "short"])
def test_scan_matches_the_scalar_loop(natural, case):
    paths = _golden_paths() if case == "golden" else _short_paths(natural)
    for name, traj in paths:
        q, v, _ = _loop_rk4(traj.params, float(traj.field.gamma), traj.grid, traj.drive,
                            traj.k, float(traj.q[0]), float(traj.qdot[0]))
        assert len(traj.q) == len(traj.qdot) == traj.grid.n_steps + 1, name
        assert np.max(np.abs(traj.q - q)) <= SCAN_BOUND, name
        assert np.max(np.abs(traj.qdot - v)) <= SCAN_BOUND, name
        _, _, action = _loop_rk4(traj.params, float(traj.field.gamma), traj.grid, traj.drive,
                                 traj.k, 0.0, 0.0, path=(traj.q, traj.qdot))
        assert np.array_equal(traj.action, action), name


def test_step_map_is_the_loop_step():
    # E and B reproduce one loop step from unit states and unit drives, and
    # A^L is the L-th power of A = I + E to far below a double's rounding
    grid = TimeGrid(0.0, 0.37, 1)
    params = pl.OscillatorParams(mass=1.0, omega0=math.sqrt(1.3), charge=1.0)
    e_hi, e_lo, b, p_hi, p_lo = classical._step_map(grid.dt, params.omega0**2, 0.2, 7)
    for j, (q0, v0, drive) in enumerate([(1.0, 0.0, (0.0,) * 3), (0.0, 1.0, (0.0,) * 3),
                                         (0.0, 0.0, (1.0, 0.0, 0.0)),
                                         (0.0, 0.0, (0.0, 1.0, 0.0)),
                                         (0.0, 0.0, (0.0, 0.0, 1.0))]):
        q, v, _ = _loop_rk4(params, 0.2, grid, np.array(drive), 1.0, q0, v0)
        step = np.array([q[1] - q0, v[1] - v0])
        want = (e_hi + e_lo)[:, j] if j < 2 else b[:, j - 2]
        assert np.allclose(step, want, rtol=1e-15, atol=1e-17)
    exact = lambda hi, lo, add=0: [[Fraction(hi[i, j]) + Fraction(lo[i, j]) + add * (i == j)
                                    for j in range(2)] for i in range(2)]
    a = exact(e_hi, e_lo, 1)
    power = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    for _ in range(7):
        power = [[sum(power[i][k] * a[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
    got = exact(p_hi, p_lo)
    assert max(abs(got[i][j] - power[i][j]) for i in range(2) for j in range(2)) < 1e-30
