from dataclasses import replace

import numpy as np
import pytest

import picture_lab as pl
from picture_lab import classical, heisenberg, schrodinger
from picture_lab import InitialConditions, TimeGrid


def quick_scenario(name="quick", periods=2.0, n_steps=10_000, **kwargs):
    params = kwargs.pop("params", pl.OscillatorParams(charge=1.0))
    defaults = dict(
        name=name, params=params,
        field=pl.FieldModel.monochromatic(0.1, 0.5),
        ics=InitialConditions(0.0, 0.0),
        time_grid=TimeGrid(0.0, periods * params.period, n_steps),
        record_every=max(1, n_steps // 500),
        fock_oracle=False)
    defaults.update(kwargs)
    return pl.Scenario(**defaults)


def test_free_scenario_both_series_near_half():
    s = quick_scenario("free", params=pl.OscillatorParams(charge=0.0),
                       field=pl.FieldModel.zero(), n_steps=20_000)
    report = pl.run_equivalence(s)
    assert np.max(np.abs(report.x2_h - 0.5)) < 1e-12
    assert np.max(np.abs(report.x2_s - 0.5)) < 2e-7  # split-step breathing at this dt
    assert report.equivalence_pass
    assert report.eq51_falsified


def test_driven_scenario_decomposition_and_residual():
    report = pl.run_equivalence(quick_scenario(periods=3.0, n_steps=20_000,
                                               fock_oracle=True))
    assert report.equivalence_pass
    assert report.decomposition_sup < 1e-6
    assert abs(report.residual_min - report.vacuum_term) < 1e-6
    assert abs(report.residual_max - report.vacuum_term) < 1e-6
    assert report.residual_matches_vacuum
    assert report.oracle_matrix_sup < 1e-8
    assert report.oracle_moment_sup < 1e-8


def test_series_follow_vacuum_plus_classical_square():
    report = pl.run_equivalence(quick_scenario(periods=3.0, n_steps=20_000))
    expected = report.vacuum_term + report.q_c**2
    assert np.max(np.abs(report.x2_s - expected)) < 1e-6
    assert np.max(np.abs(report.x2_h - expected)) < 1e-9


def test_flawed_pipeline_value_examples():
    # the criticized substitution: vacuum + <x_H^2> instead of vacuum + q_c^2
    assert pl.flawed_pipeline_value(0.5, 0.5) == 1.0
    assert pl.flawed_pipeline_value(0.5, 0.0) == 0.5
    assert pl.flawed_pipeline_value(0.5, 0.5 + (4.0 / 3.0) ** 2) == \
        pytest.approx(1.0 + 16.0 / 9.0, abs=1e-15)
    with pytest.raises(ValueError):
        pl.flawed_pipeline_value(-0.1, 0.5)


def test_flawed_identification_residual_lookup():
    s = quick_scenario("freeres", params=pl.OscillatorParams(charge=0.0),
                       field=pl.FieldModel.zero(), n_steps=5000, periods=1.0)
    report = pl.run_equivalence(s)
    for t in (0.0, float(report.times[17]), float(report.times[-1])):
        residual = pl.flawed_identification_residual(report, t)
        assert residual == pytest.approx(0.5, abs=1e-9)
        assert residual > 1e-6  # never zero: the identification fails
    with pytest.raises(ValueError):
        pl.flawed_identification_residual(report, 0.1234567)


def test_report_flawed_value_doubles_free_moment():
    report = pl.run_equivalence(quick_scenario(periods=1.0, n_steps=6000))
    assert report.flawed_eq6_value == pytest.approx(2.0 * report.vacuum_term,
                                                    abs=1e-12)


@pytest.mark.parametrize("n_points", [64, 128, 256, 512, 1024])
def test_flawed_value_is_exact_on_every_grid(n_points):
    # the grid's quadrature of the vacuum term can be an ulp off 1/2 (at 512
    # points it is); the flawed pipeline takes the criticized closed form
    free = pl.golden_scenarios()["free"]
    s = replace(free, n_points=n_points, fock_oracle=False,
                time_grid=TimeGrid(0.0, 0.1 * free.params.period, 320))
    report = pl.run_equivalence(s)
    assert report.final_state.grid.n_points == n_points
    assert report.flawed_eq6_value == free.params.hbar / (free.params.mass
                                                          * free.params.omega0)


def test_free_limit_sweep_continuity_and_scaling():
    base = quick_scenario("limit", periods=1.0, n_steps=40_000,
                          field=pl.FieldModel.monochromatic(1.0, 0.5))
    reports = pl.free_limit_sweep([0.0, 0.01, 0.1], base)
    by_e = dict(zip([0.0, 0.01, 0.1], reports))

    # e = 0 collapses to the free value
    assert np.max(np.abs(by_e[0.0].x2_s - 0.5)) < 1e-8
    # both pictures agree for every charge
    for rep in reports:
        assert rep.sup_discrepancy < 1e-5
        assert rep.equivalence_pass
    # linear EOM: peak q_c^2 scales as e^2
    peak_small = np.max(by_e[0.01].q_c**2)
    peak_large = np.max(by_e[0.1].q_c**2)
    assert peak_large / peak_small == pytest.approx(100.0, rel=0.01)


@pytest.mark.parametrize("oracle,tables", [(True, 2), (False, 1)])
def test_one_drive_table_per_heisenberg_grid(monkeypatch, oracle, tables):
    # the triple's table serves the path guard, propagate and, on its own
    # grid, the Fock oracle
    calls = []
    build = pl.build_drive_table

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (classical, heisenberg, schrodinger):
        monkeypatch.setattr(module, "build_drive_table", counting)
    report = pl.run_equivalence(quick_scenario(periods=0.5, n_steps=1000,
                                               fock_oracle=oracle))
    assert report.equivalence_pass
    assert len(calls) == tables


@pytest.mark.parametrize("field", [pl.FieldModel.monochromatic(0.1, 0.5),
                                   pl.FieldModel.zero(gamma=0.1)], ids=["driven", "damped"])
def test_propagate_gets_the_triples_table(monkeypatch, field):
    # the table evolve_heisenberg built on the scenario's grid, the same
    # object, damping reference included; the oracle's triple is on its own
    # grid (here of the same 2000 steps), and both triples are built before
    # the propagation starts
    calls, built, passed = [], [], []
    evolve, propagate = pl.lab.evolve_heisenberg, pl.lab.propagate

    def evolving(*args, **kwargs):
        calls.append("evolve_heisenberg")
        sol = evolve(*args, **kwargs)
        built.append(sol.drive)
        return sol

    def propagating(drive, *args, **kwargs):
        calls.append("propagate")
        passed.append(drive)
        return propagate(drive, *args, **kwargs)

    monkeypatch.setattr(pl.lab, "evolve_heisenberg", evolving)
    monkeypatch.setattr(pl.lab, "propagate", propagating)
    s = quick_scenario(field=field, ics=InitialConditions(1.0, 0.0), periods=0.5,
                       n_steps=2000, fock_oracle=True)
    assert pl.run_equivalence(s).equivalence_pass
    assert calls == ["evolve_heisenberg", "evolve_heisenberg", "propagate"]
    assert passed[0] is built[0] and passed[0].grid == s.time_grid
    assert built[1].grid == s.oracle_grid
    for table in built:
        assert (table.reference is not None) == (field.gamma > 0)


def test_a_wrong_drive_table_is_caught_by_the_checks_that_do_not_read_it(monkeypatch):
    # every drive table 0.1 % too strong, on the driven golden for 2
    # periods.  The triple, the split-step run and the Fock oracle all read
    # the table, so they agree with each other (sup 1.3e-7, oracle 4.4e-12,
    # as with the right table).  The classical path reads evaluate_field,
    # not the table: Ehrenfest, the decomposition and residual - vacuum go
    # from 6.2e-8, 1.3e-7 and 1.7e-16 to 2.7e-4, 1.4e-4 and 1.4e-4.  all_pass
    # stays True: it leaves out residual_matches_vacuum
    build = heisenberg.build_drive_table

    def scaled(*args, **kwargs):
        table = build(*args, **kwargs)
        return replace(table, values=1.001 * table.values)

    monkeypatch.setattr(heisenberg, "build_drive_table", scaled)
    golden = pl.golden_scenarios()["driven"]
    t0, dt = golden.time_grid.t0, golden.time_grid.dt
    s = replace(golden, name="scaled", time_grid=TimeGrid(t0, t0 + 12_800 * dt, 12_800))
    assert s.periods == pytest.approx(2.0) and s.record_every == 16
    report = pl.run_equivalence(s)
    assert report.sup_discrepancy < 1e-5
    assert report.oracle_moment_sup < 1e-9
    assert report.ehrenfest_sup > 1e-5
    assert report.decomposition_sup > 1e-5
    assert np.max(np.abs(report.residual_5_1 - report.vacuum_term)) > 1e-5


def test_batched_guard_names_the_scenario_of_its_row():
    # released from q0 = 15 on 256 points, the third packet's spectrum wraps
    # round +-k_max; it shares its batch with two packets that stay clear
    base = quick_scenario(params=pl.OscillatorParams(charge=0.0),
                          field=pl.FieldModel.zero(), periods=0.3, n_steps=4800,
                          n_points=256, n_fock=256)
    scenarios = [replace(base, name=f"q0={q0:g}", ics=InitialConditions(q0, 0.0))
                 for q0 in (0.0, 1.0, 15.0)]
    with pytest.raises(pl.GridTooNarrow) as batch:
        pl.run_equivalence(scenarios)
    with pytest.raises(pl.GridTooNarrow) as alone:
        pl.run_equivalence(scenarios[2])
    assert str(batch.value).startswith("[scenario q0=15] spectral density reached")
    assert str(batch.value) == str(alone.value)
    assert batch.value.row == 2 and batch.value.scenario == "q0=15"


def test_foreign_error_is_reraised_naming_its_scenario(monkeypatch):
    # b's classical path fails: the error escapes as itself, of its own type
    boom = LookupError("boom")
    solve_trajectory = pl.lab.solve_trajectory

    def failing(params, *args, **kwargs):
        if params.charge == 0.5:
            raise boom
        return solve_trajectory(params, *args, **kwargs)

    monkeypatch.setattr(pl.lab, "solve_trajectory", failing)
    a, b, c = (quick_scenario(f"e={e:g}", params=pl.OscillatorParams(charge=e),
                              periods=0.5, n_steps=2000) for e in (0.0, 0.5, 1.0))
    with pytest.raises(LookupError) as caught:
        pl.run_equivalence([a, b, c])
    assert caught.value is boom
    assert caught.value.scenario == b.name and str(caught.value) == "boom"


def test_foreign_error_from_a_batch_row_names_its_scenario(monkeypatch):
    # the third state's factors fail with an error of no package type
    row_factors = schrodinger._row_factors

    def failing(psi, drive, *args):
        if drive.params.charge == 1.0:
            raise MemoryError("no room")
        return row_factors(psi, drive, *args)

    monkeypatch.setattr(schrodinger, "_row_factors", failing)
    scenarios = [quick_scenario(f"e={e:g}", params=pl.OscillatorParams(charge=e),
                                periods=0.5, n_steps=2000) for e in (0.0, 0.5, 1.0)]
    with pytest.raises(MemoryError) as caught:
        pl.run_equivalence(scenarios)
    assert caught.value.row == 2 and caught.value.scenario == "e=1"


def test_batched_oracle_guard_names_the_scenario_of_its_row(natural):
    # the third scenario's Fock state is driven out of 16 levels within a
    # period (see test_truncation_guard_fires_along_the_path), the others' not
    base = quick_scenario(field=pl.FieldModel.monochromatic(1.0, 0.5), periods=1.0,
                          n_steps=4000, n_fock=16, fock_oracle=True)
    scenarios = [replace(base, name=f"e={e:g}", params=replace(natural, charge=e))
                 for e in (0.0, 0.1, 1.0)]
    with pytest.raises(pl.TruncationError) as batch:
        pl.run_equivalence(scenarios)
    with pytest.raises(pl.TruncationError) as alone:
        pl.run_equivalence(scenarios[2])
    assert str(batch.value).startswith("[scenario e=1] last-two-level population")
    assert str(batch.value) == str(alone.value)
    assert batch.value.row == 2 and batch.value.scenario == "e=1"


def test_free_limit_sweep_requires_zero():
    with pytest.raises(ValueError):
        pl.free_limit_sweep([0.01, 0.1], quick_scenario())


def test_damped_scenario_recovers_free_value():
    params = pl.OscillatorParams(charge=1.0)
    s = pl.Scenario(
        name="damped-quick", params=params,
        field=pl.FieldModel.zero(gamma=0.25),
        ics=InitialConditions(1.0, 0.0),
        time_grid=TimeGrid(0.0, 60.0, 30_000),
        record_every=20, fock_oracle=False)
    report = pl.run_equivalence(s)
    assert report.decay_time is not None
    assert report.decay_time < 60.0
    assert abs(report.x2_s[-1] - 0.5) < 1e-4
    assert abs(report.x2_h[-1] - 0.5) < 1e-4
    assert report.residual_matches_vacuum
    assert report.equivalence_pass
    # the moment really started away from the free value
    assert report.x2_s[0] == pytest.approx(1.5, abs=1e-9)


def test_damped_gradient4_run_agrees_with_heisenberg_and_classical():
    # the damping force at gradient4's off-lattice kick times comes from
    # Hermite interpolation of the reference velocity
    golden = pl.golden_scenarios(fock_oracle=False)["damped"]
    params = golden.params
    s = replace(golden, name="damped-gradient4", splitting="gradient4",
                time_grid=TimeGrid(0.0, 2.0 * params.period, 8000), record_every=20)
    report = pl.run_equivalence(s)
    assert report.equivalence_pass
    assert report.sup_discrepancy < 1e-5
    assert report.ehrenfest_sup < 1e-5


def _driven_for_two_periods(name, q0, v0, **kwargs):
    """The driven golden for 2 periods, 12 800 steps, from (q0, v0)."""
    golden = pl.golden_scenarios()["driven"]
    t0, dt = golden.time_grid.t0, golden.time_grid.dt
    s = replace(golden, name=name, ics=InitialConditions(q0, v0),
                time_grid=TimeGrid(t0, t0 + 12_800 * dt, 12_800), **kwargs)
    assert s.periods == pytest.approx(2.0)
    return s


def test_pictures_agree_on_a_moving_start():
    # every golden starts at rest, so no golden sees the triple's b <p>
    # term. From q0 = 1, v0 = 0.4: the sups read 5.5e-7 and 2.4e-11, and
    # both 0.51 with that term dropped from closed_form_moments.  A
    # coherent state's covariance is the vacuum's wherever it starts; the
    # squeezed states of test_heisenberg.py test the covariance terms
    report = pl.run_equivalence(_driven_for_two_periods("moving", 1.0, 0.4))
    assert report.sup_discrepancy < 1e-5
    assert report.oracle_moment_sup < 1e-9


def test_the_oracle_catches_a_defect_in_its_own_initial_vector(monkeypatch):
    # the triple reads the Gaussian state, not the oracle's Fock vector, so
    # conjugating the vector's coefficients, which flips its momentum,
    # moves the oracle sups alone: they read 0.80 and 0.83
    def flipped(*args):
        return np.conj(heisenberg.coherent_state_vector(*args))

    monkeypatch.setattr(pl.lab, "coherent_state_vector", flipped)
    report = pl.run_equivalence(_driven_for_two_periods("flipped", 1.0, 0.4))
    assert report.sup_discrepancy < 1e-5
    assert report.oracle_matrix_sup > 0.5
    assert report.oracle_moment_sup > 0.5


def test_n_fock_sizes_only_the_oracle():
    # from q0 = 3 a coherent state leaves 2.3e-4 in the last two of 16
    # levels: only the oracle, which reads that vector, may reject it
    s = _driven_for_two_periods("wide", 3.0, 0.0, n_fock=16, fock_oracle=False)
    report = pl.run_equivalence(s)
    assert report.all_pass
    assert report.ehrenfest_sup < 1e-5
    with pytest.raises(pl.TruncationError, match="n_fock"):
        pl.run_equivalence(replace(s, fock_oracle=True))


def test_mismatched_ics_break_identification_but_not_equivalence():
    s = quick_scenario("mismatch", periods=2.0, n_steps=14_000,
                       ics=InitialConditions(1.0, 0.0),
                       match_quantum_ics=False)
    report = pl.run_equivalence(s)
    # the two pictures still agree...
    assert report.equivalence_pass
    # ...but the identification residual swings wildly and is not the vacuum term
    assert report.eq51_falsified
    assert not report.residual_matches_vacuum
    assert report.residual_max - report.residual_min > 0.5


def test_error_context_names_scenario():
    # a time grid too coarse for the field is rejected when the scenario is
    # built; the path guard's sub-step check is raised by the run
    with pytest.raises(ValueError, match="n_steps"):
        quick_scenario("coarse", n_steps=10)
    s = quick_scenario("coarse", field=pl.FieldModel.monochromatic(20.0, 0.5), n_steps=1000)
    with pytest.raises(pl.StepTooCoarse, match=r"^\[scenario coarse\] sub-step") as caught:
        pl.run_equivalence(s)
    assert caught.value.scenario == "coarse"


def test_observed_order_on_synthetic_data():
    dts = [0.1, 0.05, 0.025]
    errors = [c * d**3 for c, d in zip((1.0, 1.0, 1.0), dts)]
    assert pl.observed_order(dts, errors) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        pl.observed_order(dts, [0.0, 1.0, 2.0])


def test_golden_scenarios_well_formed():
    golden = pl.golden_scenarios()
    assert set(golden) == {"free", "driven", "mode_sum", "damped"}
    for s in golden.values():
        assert s.periods >= 10.0 - 1e-9
        assert s.time_grid.dt < 2e-3
    assert golden["free"].params.charge == 0.0
    assert golden["damped"].field.gamma > 0.0
    assert golden["damped"].ics.q0 == 1.0


def test_golden_grids_sized_from_the_state(golden_reports):
    # the sizing rule gives every golden packet 64 points, its ground state's size
    for rep in golden_reports.values():
        assert rep.scenario.n_points is None
        assert rep.final_state.grid.n_points == 64
