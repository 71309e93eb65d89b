from dataclasses import replace

import numpy as np
import pytest

import picture_lab as pl
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
    s = quick_scenario("coarse", n_steps=10)
    with pytest.raises(pl.StepTooCoarse, match="coarse"):
        pl.run_equivalence(s)


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
    # every golden packet's phase-space reach fits the smallest grid
    for rep in golden_reports.values():
        assert rep.scenario.n_points is None
        assert rep.final_state.grid.n_points == 256
