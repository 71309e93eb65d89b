import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import picture_lab as pl
from picture_lab import InitialConditions, TimeGrid, schrodinger

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
#: Yoshida's fourth-order triple jump of Strang steps (Phys. Lett. A 150,
#: 262 (1990)) in the table's (c, d, g) form: three kicks, the middle one
#: negative.  It is not a shipped splitting; tests that take the
#: ``yoshida4`` fixture add it to the table, to check that one loop and one
#: step guard serve any entry.
YOSHIDA4 = ((0.5 * _W1, 0.5 * (_W1 + _W0), 0.5 * (_W0 + _W1), 0.5 * _W1),
            (_W1, _W0, _W1), (0.0, 0.0, 0.0))
LOOP_SPLITTINGS = [*sorted(pl.SPLITTINGS), "yoshida4"]


@pytest.fixture()
def yoshida4(monkeypatch):
    monkeypatch.setitem(pl.SPLITTINGS, "yoshida4", YOSHIDA4)


@pytest.fixture()
def free_params():
    return pl.OscillatorParams(charge=0.0)


@pytest.fixture()
def grid(free_params):
    return pl.PositionGrid.for_state(free_params, max_displacement=3.0)


def test_ground_state_peak_and_norm(free_params, grid):
    psi = pl.ground_state(free_params, grid)
    assert np.max(np.abs(psi.psi)) == pytest.approx(math.pi ** -0.25, abs=1e-12)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_ground_state_mean_zero(free_params, grid):
    psi = pl.ground_state(free_params, grid)
    assert abs(pl.expectation_x(psi)) < 1e-12


def test_ground_state_x2_is_half(free_params, grid):
    psi = pl.ground_state(free_params, grid)
    assert pl.expectation_x2(psi) == pytest.approx(0.5, abs=1e-12)


def test_displaced_identity_case(free_params, grid):
    a = pl.ground_state(free_params, grid)
    b = pl.displaced_state(free_params, grid, 0.0, 0.0, 0.0)
    assert np.allclose(a.psi, b.psi, atol=1e-14)


def _quad_moments(center):
    """Independent quadrature oracle for the shifted Gaussian density."""
    density = lambda x: math.sqrt(1.0 / math.pi) * math.exp(-((x - center) ** 2))
    mean, _ = quad(lambda x: x * density(x), -np.inf, np.inf)
    second, _ = quad(lambda x: x * x * density(x), -np.inf, np.inf)
    return mean, second


def test_displaced_mean_and_second_moment(free_params, grid):
    mean_oracle, second_oracle = _quad_moments(2.0)
    assert mean_oracle == pytest.approx(2.0, abs=1e-10)
    assert second_oracle == pytest.approx(4.5, abs=1e-10)
    psi = pl.displaced_state(free_params, grid, 2.0)
    assert pl.expectation_x(psi) == pytest.approx(mean_oracle, abs=1e-10)
    assert pl.expectation_x2(psi) == pytest.approx(second_oracle, abs=1e-10)


def test_x2_sign_independent(free_params, grid):
    plus = pl.expectation_x2(pl.displaced_state(free_params, grid, 2.0))
    minus = pl.expectation_x2(pl.displaced_state(free_params, grid, -2.0))
    assert plus == pytest.approx(minus, abs=1e-12)


@pytest.mark.parametrize("velocity,phase", [(0.0, 0.0), (1.7, 0.0), (0.0, 2.1),
                                            (-2.3, 0.9), (5.0, -4.0)])
def test_moments_independent_of_boost_and_phase(free_params, grid, velocity, phase):
    base = pl.expectation_x2(pl.displaced_state(free_params, grid, 1.5))
    psi = pl.displaced_state(free_params, grid, 1.5, velocity, phase)
    assert pl.expectation_x2(psi) == pytest.approx(base, abs=1e-12)
    assert pl.expectation_x(psi) == pytest.approx(1.5, abs=1e-12)


def test_not_normalized_rejected(free_params, grid):
    psi = pl.ground_state(free_params, grid)
    bad = pl.GridWavefunction(grid=grid, psi=psi.psi * 1.001)
    with pytest.raises(pl.NotNormalized):
        pl.expectation_x2(bad)


def test_decompose_x2_values(free_params, grid):
    zero = pl.decompose_x2(pl.ground_state(free_params, grid), 0.0)
    assert zero[0] == pytest.approx(0.5, abs=1e-12)
    assert zero[1] == 0.0
    vac, shift = pl.decompose_x2(pl.displaced_state(free_params, grid, 2.0), 2.0)
    assert vac == pytest.approx(0.5, abs=1e-10)
    assert shift == pytest.approx(4.0, abs=1e-12)


def test_decompose_x2_sum_consistent(free_params, grid):
    psi = pl.displaced_state(free_params, grid, 1.0)
    vac, shift = pl.decompose_x2(psi, 1.0)
    assert vac + shift == pytest.approx(pl.expectation_x2(psi), abs=1e-9)
    assert vac + shift == pytest.approx(1.5, abs=1e-9)


def test_decompose_x2_rejects_wrong_center(free_params, grid):
    psi = pl.displaced_state(free_params, grid, 1.0)
    with pytest.raises(pl.NotDisplacedGaussian):
        pl.decompose_x2(psi, 0.3)


def test_grid_validation():
    with pytest.raises(ValueError):
        pl.PositionGrid(half_width=5.0, n_points=32)    # too few points
    with pytest.raises(ValueError):
        pl.PositionGrid(half_width=5.0, n_points=1000)  # not a power of two


def test_grid_too_narrow_on_construction(free_params):
    narrow = pl.PositionGrid(half_width=2.0, n_points=256)
    with pytest.raises(pl.GridTooNarrow):
        pl.displaced_state(free_params, narrow, 1.5)


def test_free_eigenstate_stationary_over_one_period(free_params, grid):
    psi0 = pl.ground_state(free_params, grid)
    tg = TimeGrid(0.0, free_params.period, 4000)
    rec = pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg), psi0, tg,
                       record_every=4000)
    assert rec.psi.fidelity(psi0) >= 1.0 - 1e-8


def test_driven_mean_matches_classical_at_pi(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, math.pi, 4000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    pgrid = pl.PositionGrid.for_state(natural, np.max(np.abs(traj.q)))
    rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                       pl.ground_state(natural, pgrid), tg, record_every=4000)
    assert rec.mean_x[-1] == pytest.approx(4.0 / 3.0, abs=1e-5)


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
def test_driven_state_matches_exact_displaced_solution(natural, splitting):
    # the boosted displaced Gaussian with the action phase is exact
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, math.pi, 4000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    pgrid = pl.PositionGrid.for_state(natural, np.max(np.abs(traj.q)))
    rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                       pl.ground_state(natural, pgrid), tg, record_every=4000,
                       splitting=splitting)
    exact = pl.exact_state(natural, pgrid, traj, tg.n_steps)
    overlap = rec.psi.overlap(exact)
    assert abs(overlap) >= 1.0 - 1e-6
    # the global phase from the action integral is also right
    assert abs(np.angle(overlap)) < 1e-5


def test_norm_conserved_along_driven_run(natural):
    field = pl.FieldModel.monochromatic(0.3, 0.5)
    tg = TimeGrid(0.0, 2.0 * natural.period, 8000)
    pgrid = pl.PositionGrid.for_state(natural, 1.0)
    rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                       pl.ground_state(natural, pgrid), tg, record_every=100)
    assert rec.max_norm_error() < 1e-10


def test_ehrenfest_against_classical(natural):
    field = pl.FieldModel.mode_sum([0.2, 0.1], [0.63, 1.41], seed=3)
    tg = TimeGrid(0.0, 2.0 * natural.period, 10_000)
    traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
    pgrid = pl.PositionGrid.for_state(natural, np.max(np.abs(traj.q)))
    rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                       pl.ground_state(natural, pgrid), tg, record_every=25)
    idx = np.rint((rec.times - tg.t0) / tg.dt).astype(int)
    assert np.max(np.abs(rec.mean_x - traj.q[idx])) < 1e-5


def test_grid_refinement_moment_stable(free_params):
    values = []
    for n_points in (1024, 2048):
        g = pl.PositionGrid.for_state(free_params, 1.0, n_points=n_points)
        values.append(pl.expectation_x2(pl.displaced_state(free_params, g, 1.0)))
    assert abs(values[0] - values[1]) < 1e-10


def test_split_step_is_second_order(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    t1 = natural.period
    errors, dts = [], []
    for n in (2500, 5000, 10000, 20000):
        tg = TimeGrid(0.0, t1, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
        pgrid = pl.PositionGrid.for_state(natural, np.max(np.abs(traj.q)))
        rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                           pl.ground_state(natural, pgrid), tg, record_every=n // 100)
        exact = 0.5 + (4.0 / 3.0) ** 2 * (np.cos(0.5 * rec.times)
                                          - np.cos(rec.times)) ** 2
        errors.append(np.max(np.abs(rec.mean_x2 - exact)))
        dts.append(tg.dt)
    order = pl.observed_order(dts, errors)
    assert 1.8 < order < 2.2


def test_propagate_rejects_coarse_step(natural):
    # dt = 0.12 resolves omega0 (the drive table's limit is 0.126), but not
    # the energy scale of the initial state
    pgrid = pl.PositionGrid.for_state(natural, 0.0)
    psi = pl.ground_state(natural, pgrid)
    tg = TimeGrid(0.0, 12.0, 100)
    with pytest.raises(pl.StepTooCoarse, match="sub-step 0.12 too coarse .* at step 0"):
        pl.propagate(pl.build_drive_table(natural, pl.FieldModel.zero(), tg), psi, tg)


def test_propagate_resolves_the_drive_period(natural):
    # dt = 1e-3 passes the energy-scale guard of a weak drive (0.026), but
    # not the drive table's dt <= (2 pi / 200) / 50 = 6.3e-4
    psi = pl.ground_state(natural, pl.PositionGrid.for_state(natural, 0.0))
    field = pl.FieldModel.monochromatic(0.01, 200.0)
    tg = TimeGrid(0.0, 1.0, 1000)
    with pytest.raises(pl.StepTooCoarse, match="angular frequency 200"):
        pl.propagate(pl.build_drive_table(natural, field, tg), psi, tg)


def test_propagate_detects_density_at_edge(free_params):
    # a fast packet crosses the padding and reaches the boundary
    tight = pl.PositionGrid(half_width=8.0 * pl.ground_state_width(free_params) + 0.4,
                            n_points=512)
    psi = pl.displaced_state(free_params, tight, 0.0, velocity=4.0)
    tg = TimeGrid(0.0, free_params.period, 4000)
    with pytest.raises(pl.GridTooNarrow):
        pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg), psi, tg,
                     record_every=40)


def _edge_step(excinfo):
    return int(re.search(r"at step (\d+)", str(excinfo.value)).group(1))


@pytest.mark.usefixtures("yoshida4")
@pytest.mark.parametrize("splitting", LOOP_SPLITTINGS)
def test_propagate_detects_edge_contact_between_records(free_params, splitting):
    # near its turning point at x = 1.6 the packet puts ~4e-9 of its peak
    # density on the edge cells, and it is back in the middle, clear of the
    # edge, when the final record is taken.  Every cadence names the same
    # contact: a record step reads the current state, a step between records
    # the staggered one, half a kinetic step ahead, so the step may differ by one.
    narrow = pl.PositionGrid(half_width=6.0, n_points=512)
    psi = pl.displaced_state(free_params, narrow, 0.0, velocity=1.6)
    tg = TimeGrid(0.0, free_params.period, 4000)
    for record_every in (1, 7, tg.n_steps):
        with pytest.raises(pl.GridTooNarrow, match="probability density .* at step") as exc:
            pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg), psi,
                         tg, record_every=record_every, splitting=splitting)
        assert abs(_edge_step(exc) - 526) <= 1, record_every


@pytest.mark.usefixtures("yoshida4")
@pytest.mark.parametrize("splitting", LOOP_SPLITTINGS)
def test_propagate_detects_spectral_weight_at_k_edge(free_params, splitting):
    # released from x = 15, the packet passes x = 0 with momentum 15 after a
    # quarter period: the grid holds it in position, but 256 points give
    # pi/dx = 17.6, and its spectrum wraps round +-k_max.  Every step reads
    # the same spectrum, so every record cadence names the same step, alone
    # and as row 2 of a batch whose other packets stay clear.
    tg = TimeGrid(0.0, 0.25 * free_params.period, 8000)
    pgrid = pl.PositionGrid.for_state(free_params, 15.0, n_points=256)
    states = [pl.displaced_state(free_params, pgrid, q0) for q0 in (0.0, 1.0, 15.0)]
    for record_every in (1, 7, tg.n_steps):
        with pytest.raises(pl.GridTooNarrow, match="spectral density .* at step") as exc:
            pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg),
                         states[2], tg, record_every=record_every, splitting=splitting)
        assert _edge_step(exc) == 5245, record_every
        with pytest.raises(pl.GridTooNarrow) as batch:
            pl.propagate([pl.build_drive_table(free_params, pl.FieldModel.zero(), tg)] * 3,
                         states, tg, record_every=record_every, splitting=splitting)
        assert batch.value.row == 2 and str(batch.value) == str(exc.value), record_every
    pgrid = pl.PositionGrid.for_state(free_params, 15.0, n_points=512)
    psi = pl.displaced_state(free_params, pgrid, 15.0)
    rec = pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg), psi, tg,
                       record_every=tg.n_steps, splitting=splitting)
    assert abs(rec.mean_x[-1]) < 1e-3  # it did reach x = 0


def test_propagate_checks_the_initial_state(free_params):
    # boosted to momentum 48 on 256 points (pi/dx = 51.7), the packet's
    # spectrum reaches +-k_max before the first step: the guard names step 0
    tg = TimeGrid(0.0, 1.0, 1000)
    pgrid = pl.PositionGrid.for_state(free_params, n_points=256)
    psi = pl.displaced_state(free_params, pgrid, 0.0, velocity=48.0)
    for record_every in (1, 7, tg.n_steps):
        with pytest.raises(pl.GridTooNarrow, match="spectral density .* at step 0 "):
            pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg), psi,
                         tg, record_every=record_every)


def test_for_state_sizes_from_both_reaches(natural):
    # pi/dx = pi n / 2L must cover |p|/hbar + 11 momentum widths sqrt(1/2)
    # half as many points would not do at any reach, the ground state's
    # included: the rule, not the MIN_N_POINTS floor, picks the size
    sigma = pl.ground_state_width(natural)
    assert pl.PositionGrid.for_state(natural).n_points == 64
    for reach, n_points in ((0.0, 64), (15.0, 512), (40.0, 2048)):
        grid = pl.PositionGrid.for_state(natural, reach, max_momentum=reach)
        assert grid.n_points == n_points
        k_reach = reach + 11.0 * 0.5 / sigma
        assert math.pi / grid.dx >= k_reach
        assert math.pi / (2.0 * grid.dx) < k_reach
    assert pl.PositionGrid.for_state(natural, 15.0, n_points=256,
                                     max_momentum=15.0).n_points == 256


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
def test_splittings_are_consistent_and_symmetric(splitting):
    c, d, g = pl.SPLITTINGS[splitting]
    assert len(c) == len(d) + 1 and len(g) == len(d)
    assert sum(c) == pytest.approx(1.0, abs=1e-15)
    assert sum(d) == pytest.approx(1.0, abs=1e-15)
    assert (c, d, g) == (c[::-1], d[::-1], g[::-1])


@pytest.mark.usefixtures("yoshida4")
def test_yoshida_weights_satisfy_order_conditions():
    c, d, g = pl.SPLITTINGS["yoshida4"]
    assert (c, d, g) == (c[::-1], d[::-1], g[::-1]) and not any(g)
    assert sum(d) == pytest.approx(1.0, abs=1e-15)
    assert sum(w**3 for w in d) == pytest.approx(0.0, abs=1e-14)
    # each kick sits at the midpoint of its Strang sub-step
    for j, w in enumerate(d):
        assert sum(c[:j + 1]) == pytest.approx(sum(d[:j]) + 0.5 * w, abs=1e-15)
    assert pl.SPLITTINGS["strang"] == ((0.5, 0.5), (1.0,), (0.0,))


def test_gradient4_is_fourth_order(natural):
    # the full complex state against the exact solution on the 8b setup,
    # global phase included: dropping the kicks' F^2 phase, or a gradient
    # coefficient 1 % off, leaves second order
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    errors, dts = [], []
    for n in (1200, 2400):
        tg = TimeGrid(0.0, natural.period, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
        pgrid = pl.PositionGrid.for_state(natural, float(np.max(np.abs(traj.q))))
        rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                           pl.ground_state(natural, pgrid), tg, record_every=n,
                           splitting="gradient4")
        diff = rec.psi.psi - pl.exact_state(natural, pgrid, traj, n).psi
        errors.append(math.sqrt(pgrid.dx * float(np.sum(np.abs(diff) ** 2))))
        dts.append(tg.dt)
    assert 3.7 <= pl.observed_order(dts, errors) <= 4.3


@pytest.mark.usefixtures("yoshida4")
def test_yoshida_guard_applies_to_longest_sub_step(natural):
    # 2500 steps over one period: dt * scale = 0.082 passes for Strang, but
    # Yoshida's middle kick is 1.70 dt long
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, natural.period, 2500)
    pgrid = pl.PositionGrid.for_state(natural, 4.0 / 3.0 * 2.0)
    psi = pl.ground_state(natural, pgrid)
    with pytest.raises(pl.StepTooCoarse, match="sub-step"):
        pl.propagate(pl.build_drive_table(natural, field, tg), psi, tg, record_every=2500,
                     splitting="yoshida4")
    rec = pl.propagate(pl.build_drive_table(natural, field, tg), psi, tg, record_every=2500,
                       splitting="strang")
    assert rec.max_norm_error() < 1e-10


def test_gradient4_guard_applies_to_longest_factor(natural):
    # 1100 steps over one period: dt * scale / 2 = 0.093 would pass for the
    # two half kicks, but the inner kinetic factor is dt/sqrt(3) long (0.108)
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, natural.period, 1100)
    pgrid = pl.PositionGrid.for_state(natural, 4.0 / 3.0 * 2.0)
    psi = pl.ground_state(natural, pgrid)
    with pytest.raises(pl.StepTooCoarse, match="sub-step 0.0033 "):
        pl.propagate(pl.build_drive_table(natural, field, tg), psi, tg, record_every=1100,
                     splitting="gradient4")


def test_propagate_rejects_unknown_splitting(natural):
    psi = pl.ground_state(natural, pl.PositionGrid.for_state(natural, 0.0))
    tg = TimeGrid(0.0, 1.0, 1000)
    with pytest.raises(ValueError, match="splitting"):
        pl.propagate(pl.build_drive_table(natural, pl.FieldModel.zero(), tg), psi, tg,
                     splitting="rk2")


def test_propagate_rejects_a_table_on_another_grid(natural):
    # alone, and as row 1 of a batch whose other rows' tables are right
    tg = TimeGrid(0.0, 1.0, 1000)
    psi = pl.ground_state(natural, pl.PositionGrid.for_state(natural, 0.0))
    field = pl.FieldModel.monochromatic(0.5, 0.5)
    right = pl.build_drive_table(natural, field, tg)
    for other in (TimeGrid(0.0, 1.0, 2000), TimeGrid(0.0, 2.0, 1000)):
        wrong = pl.build_drive_table(natural, field, other)
        with pytest.raises(ValueError, match="drive table sampled on"):
            pl.propagate(wrong, psi, tg)
        with pytest.raises(ValueError, match="drive table sampled on") as batch:
            pl.propagate([right, wrong, right], [psi] * 3, tg)
        assert batch.value.row == 1


def test_record_times_include_endpoints(natural):
    tg = TimeGrid(0.0, 1.0, 1000)
    pgrid = pl.PositionGrid.for_state(natural, 0.0)
    rec = pl.propagate(pl.build_drive_table(natural, pl.FieldModel.zero(), tg),
                       pl.ground_state(natural, pgrid), tg, record_every=300)
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(rec.times) > 0)
    assert rec.steps.dtype.kind == "i"
    assert rec.steps.tolist() == [0, 300, 600, 900, 1000]
    assert np.array_equal(rec.times, tg.times[rec.steps])


N_RUN = 1000
DRIVE = pl.FieldModel.monochromatic(0.8, 0.7)


def _run(natural, field, splitting, record_every):
    tg = TimeGrid(0.0, 1.5, N_RUN)
    pgrid = pl.PositionGrid.for_state(natural, 1.0, n_points=256)
    return pl.propagate(pl.build_drive_table(natural, field, tg),
                        pl.ground_state(natural, pgrid), tg, record_every=record_every,
                        splitting=splitting)


@pytest.mark.usefixtures("yoshida4")
@pytest.mark.parametrize("splitting", LOOP_SPLITTINGS)
def test_record_steps_do_not_change_the_run(natural, splitting):
    # every step a record step against none between the ends: the shared
    # record spectrum must continue the run exactly as the plain step does
    dense = _run(natural, DRIVE, splitting, 1)
    sparse = _run(natural, DRIVE, splitting, N_RUN)
    assert len(dense.times) == N_RUN + 1 and len(sparse.times) == 2
    assert np.max(np.abs(dense.psi.psi - sparse.psi.psi)) <= 1e-12
    for series in ("mean_x", "mean_x2", "norms"):
        shared = getattr(dense, series)[[0, -1]]
        assert np.max(np.abs(shared - getattr(sparse, series))) <= 1e-12
    assert np.max(np.abs(dense.mean_x)) > 0.1  # the drive moved the packet


@pytest.mark.usefixtures("yoshida4")
@pytest.mark.parametrize("splitting", LOOP_SPLITTINGS)
@pytest.mark.parametrize("record_every", [1, 7, N_RUN])
@pytest.mark.parametrize("field", [DRIVE, pl.FieldModel.zero()], ids=["driven", "free"])
def test_transform_count(natural, monkeypatch, splitting, record_every, field):
    calls = []

    def counting(transform):
        def wrapper(a, *args, **kwargs):
            # each (B, N) stack of the run's states counts once; the block
            # pass transforms several record steps' stacks in one call
            calls.append(math.prod(a.shape[:-2]))
            return transform(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(schrodinger, "_fft", counting(schrodinger._fft))
    monkeypatch.setattr(schrodinger, "_ifft", counting(schrodinger._ifft))
    rec = _run(natural, field, splitting, record_every)
    kicks = pl.SPLITTINGS[splitting][1]
    assert sum(calls) == 2 * len(kicks) * N_RUN + len(rec.times)


def _batch_inputs(batch, n_points=256):
    # different charges (0 among them: an undriven row in a driven batch),
    # reaches and so half-widths, and initial states
    charges = (0.8, 0.0, 1.5, 0.4)[:batch]
    reaches = (1.0, 2.0, 3.0, 1.5)[:batch]
    params = [pl.OscillatorParams(charge=e) for e in charges]
    states = [pl.displaced_state(p, pl.PositionGrid.for_state(p, r, n_points=n_points),
                                 0.1 * b, 0.2 * b)
              for b, (p, r) in enumerate(zip(params, reaches))]
    return states, params


@pytest.mark.parametrize("n_points", [256, 512, 2048])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["1d", "stack"])
def test_transforms_equal_np_fft_bit_for_bit(n_points, stack):
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert schrodinger._fft is not np.fft.fft  # the gufuncs, not the fallback
    rng = np.random.default_rng(n_points + len(stack))
    a = rng.standard_normal((*stack, n_points)) + 1j * rng.standard_normal((*stack, n_points))
    before = a.copy()
    for helper, reference in ((schrodinger._fft, np.fft.fft), (schrodinger._ifft, np.fft.ifft)):
        got, want = helper(a), reference(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included
        assert not np.shares_memory(got, a)  # a new array, not the input
    assert np.array_equal(a, before)


@pytest.mark.parametrize("umath", [
    None,  # the module cannot be imported (numpy 1.x)
    SimpleNamespace(),  # no such ufuncs
    SimpleNamespace(fft=np.matmul, ifft=np.matmul),  # other core signatures
    SimpleNamespace(fft=np.add, ifft=np.add),  # no core signature
], ids=["missing", "empty", "matmul", "add"])
def test_transforms_fall_back_to_np_fft(umath):
    fft, ifft = schrodinger._resolve_transforms(umath)
    assert fft is np.fft.fft and ifft is np.fft.ifft


@pytest.mark.parametrize("name", ["fft", "ifft"])
def test_transforms_write_into_a_buffer_row(name):
    # propagate transforms into rows of its block buffers; np.fft before
    # numpy 2.0 takes no out=, and its fallback copies into the row
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    reference = getattr(np.fft, name)
    want = reference(a)
    for helper in (getattr(schrodinger, "_" + name),
                   schrodinger._copying_out(lambda a: reference(a))):
        assert helper(a).tobytes() == want.tobytes()
        buffer = np.zeros((4, 3, 64), complex)
        got = helper(a, out=buffer[2])
        assert np.shares_memory(got, buffer[2]) and buffer[2].tobytes() == want.tobytes()
        assert not buffer[[0, 1, 3]].any()


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
def test_fallback_transforms_give_the_same_run(natural, monkeypatch, splitting):
    states, params = _batch_inputs(3)
    tg = TimeGrid(0.0, 1.5, 600)

    def runs():
        return (_run(natural, DRIVE, splitting, 7),
                pl.propagate([pl.build_drive_table(p, DRIVE, tg) for p in params], states,
                             tg, record_every=7, splitting=splitting))

    fast = runs()
    monkeypatch.setattr(schrodinger, "_fft", np.fft.fft)
    monkeypatch.setattr(schrodinger, "_ifft", np.fft.ifft)
    for got, want in zip(runs(), fast):
        assert got.psi.psi.tobytes() == want.psi.psi.tobytes()
        for series in ("mean_x", "mean_x2", "norms"):
            assert getattr(got, series).tobytes() == getattr(want, series).tobytes(), series


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_batch_rows_equal_their_single_runs(splitting, batch):
    states, params = _batch_inputs(batch)
    tg = TimeGrid(0.0, 1.5, 600)
    rec = pl.propagate([pl.build_drive_table(p, DRIVE, tg) for p in params], states, tg,
                       record_every=7, splitting=splitting)
    assert rec.mean_x.shape == (batch, len(rec.times)) and len(rec.psi) == batch
    for b in range(batch):
        alone = pl.propagate(pl.build_drive_table(params[b], DRIVE, tg), states[b], tg,
                             record_every=7, splitting=splitting)
        row = rec.row(b)
        assert row.psi.grid is states[b].grid
        # bit for bit, the final state with its F^2 phase included
        for series in ("psi", "mean_x", "mean_x2", "norms"):
            got, want = getattr(row, series), getattr(alone, series)
            if series == "psi":
                got, want = got.psi, want.psi
            assert got.tobytes() == want.tobytes(), (b, series)
        assert np.array_equal(row.steps, alone.steps)
        assert np.array_equal(row.times, alone.times)


def test_batch_guard_names_its_row(free_params, monkeypatch):
    # the packet of row 2 swings out to the edge of its grid (see
    # test_propagate_detects_edge_contact_between_records); rows 0 and 1 stay
    # clear.  Whether a block of guards holds one step, some or the whole
    # run, the guard names the step, row and edge fraction that a check
    # after every step names.
    narrow = pl.PositionGrid(half_width=6.0, n_points=512)
    states = [pl.displaced_state(free_params, narrow, 0.0, velocity=v)
              for v in (0.0, 0.5, 1.6)]
    tg = TimeGrid(0.0, free_params.period, 4000)
    for block_bytes in (1, schrodinger._BLOCK_BYTES, 1 << 22):
        monkeypatch.setattr(schrodinger, "_BLOCK_BYTES", block_bytes)
        for record_every, step, fraction in ((1, 526, "1.01e-10"), (7, 526, "1.02e-10"),
                                             (tg.n_steps, 525, "1e-10")):
            with pytest.raises(pl.GridTooNarrow) as alone:
                pl.propagate(pl.build_drive_table(free_params, pl.FieldModel.zero(), tg),
                             states[2], tg, record_every=record_every)
            with pytest.raises(pl.GridTooNarrow) as batch:
                pl.propagate([pl.build_drive_table(free_params, pl.FieldModel.zero(), tg)] * 3,
                             states, tg, record_every=record_every)
            assert batch.value.row == 2, (block_bytes, record_every)
            assert str(batch.value) == str(alone.value) == (
                f"probability density reached the grid edge at step {step} "
                f"(edge fraction {fraction})")


@pytest.mark.parametrize("n_points", [64, 256, 2048])
@pytest.mark.parametrize("batch", [1, 3, 4])
def test_row_dots_equal_np_dot_bit_for_bit(n_points, batch):
    rng = np.random.default_rng(n_points + batch)
    d = rng.random((5, batch, n_points))
    v = rng.standard_normal((batch, n_points))
    got = schrodinger._row_dots(d, v)
    assert got.shape == (5, batch)
    for r in range(5):
        for b in range(batch):
            assert got[r, b].tobytes() == np.float64(np.dot(v[b], d[r, b])).tobytes()


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
def test_recorded_moments_are_the_per_state_quadratures(natural, splitting):
    # the last record holds the final state's moments, each taken by the
    # per-state formula; no drive, so no F^2 phase alters the final state
    states, params = _batch_inputs(3)
    tg = TimeGrid(0.0, 1.5, 600)
    rec = pl.propagate([pl.build_drive_table(p, pl.FieldModel.zero(), tg) for p in params],
                       states, tg, record_every=7, splitting=splitting)
    for b in range(3):
        grid, d = rec.psi[b].grid, rec.psi[b].density()
        assert rec.norms[b, -1] == math.sqrt(grid.dx * d.sum())
        assert rec.mean_x[b, -1] == grid.dx * float(np.dot(grid.x, d))
        assert rec.mean_x2[b, -1] == grid.dx * float(np.dot(grid.x * grid.x, d))


#: tracemalloc peaks of propagate on the test below, with the guards checked
#: and the moments taken after every step
PER_STEP_PEAK = {"strang": 2.22e6, "gradient4": 3.17e6}


@pytest.mark.parametrize("splitting", sorted(pl.SPLITTINGS))
def test_block_buffers_keep_the_peak(splitting):
    # 2048 points, a batch of 4, records only at the ends: the block buffers
    # hold a few hundred steps' edges and one record
    states, params = _batch_inputs(4, n_points=2048)
    tg = TimeGrid(0.0, 1.5, 600)
    tracemalloc.start()
    try:
        pl.propagate([pl.build_drive_table(p, DRIVE, tg) for p in params], states, tg,
                     record_every=tg.n_steps, splitting=splitting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_STEP_PEAK[splitting]


def test_batch_needs_equal_n_points(free_params):
    states = [pl.ground_state(free_params, pl.PositionGrid.for_state(free_params, 0.0,
                                                                     n_points=n))
              for n in (256, 512)]
    tg = TimeGrid(0.0, 1.0, 1000)
    with pytest.raises(ValueError, match="equal n_points"):
        pl.propagate([pl.build_drive_table(free_params, pl.FieldModel.zero(), tg)] * 2,
                     states, tg)
