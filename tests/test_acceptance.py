"""Acceptance suite: one test per criterion, each printing a verdict line.

The four golden scenarios (free, driven, mode-sum driven, damped) are run
once per session by the ``golden_reports`` fixture; criteria assert on
those reports at the stated tolerances.
"""

import math

import numpy as np

import picture_lab as pl
from picture_lab import InitialConditions, TimeGrid, cli


def verdict(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {description}: {status}  {detail}")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_1_free_moment_constant(golden_reports):
    rep = golden_reports["free"]
    dev_s = float(np.max(np.abs(rep.x2_s - 0.5)))
    dev_h = float(np.max(np.abs(rep.x2_h - 0.5)))
    ok = dev_s < 1e-8 and dev_h < 1e-8 and rep.scenario.periods >= 10
    verdict(1, "free <x^2> equals 0.5 in both pictures over 10 periods",
            ok, f"max dev S={dev_s:.2e} H={dev_h:.2e} (tol 1e-8)")


def test_criterion_2_picture_equivalence(golden_reports):
    sups = {name: rep.sup_discrepancy for name, rep in golden_reports.items()}
    ok = all(s < 1e-5 for s in sups.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in sups.items())
    verdict(2, "sup_t |<x^2>_S - <x^2>_H| < 1e-5 on the golden suite", ok, detail)


def test_criterion_3_decomposition(golden_reports):
    rep = golden_reports["driven"]
    ok = rep.decomposition_sup < 1e-6
    verdict(3, "driven <x^2>_S(t) = 0.5 + q_c(t)^2 against the classical "
               "integrator", ok, f"sup={rep.decomposition_sup:.2e} (tol 1e-6)")


def test_criterion_4_flawed_identification_residual(golden_reports):
    devs = {name: float(np.max(np.abs(rep.residual_5_1 - 0.5)))
            for name, rep in golden_reports.items()}
    ok = all(d <= 1e-6 for d in devs.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in devs.items())
    verdict(4, "residual <x_H^2> - q_c^2 = 0.5 +- 1e-6 at every sample "
               "(never zero)", ok, detail)


def test_criterion_5_flawed_pipeline_factor_of_two(golden_reports):
    flawed = pl.flawed_pipeline_value(0.5, 0.5)
    rep = golden_reports["free"]
    correct_dev = float(np.max(np.abs(rep.x2_s - 0.5)))
    ok = flawed == 1.0 and rep.flawed_eq6_value == 1.0 and correct_dev < 1e-8
    verdict(5, "flawed substitution yields exactly 1.0 = hbar/(m omega0) while "
               "the engines report 0.5", ok,
            f"flawed={flawed} correct dev={correct_dev:.2e}")


def test_criterion_6_damped_recovery(golden_reports):
    rep = golden_reports["damped"]
    t_end = rep.times[-1]
    dev_s = abs(float(rep.x2_s[-1]) - 0.5)
    dev_h = abs(float(rep.x2_h[-1]) - 0.5)
    ok = (rep.decay_time is not None and math.isfinite(rep.decay_time)
          and abs(t_end - 200.0) < 1e-9 and dev_s < 1e-4 and dev_h < 1e-4)
    verdict(6, "damped run: finite decay certificate and <x^2>(200) within "
               "1e-4 of 0.5 in both pictures", ok,
            f"cert={rep.decay_time}, dev S={dev_s:.2e} H={dev_h:.2e}")


def test_criterion_7_ehrenfest(golden_reports):
    sups = {name: rep.ehrenfest_sup for name, rep in golden_reports.items()}
    ok = all(s < 1e-5 for s in sups.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in sups.items())
    verdict(7, "propagated <x>(t) matches the classical trajectory to 1e-5",
            ok, detail)


def test_criterion_8a_classical_fourth_order(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    closed = lambda t: (4.0 / 3.0) * (np.cos(0.5 * t) - np.cos(t))
    errors, dts = [], []
    for n in (200, 400, 800, 1600, 3200):
        grid = TimeGrid(0.0, 4.0 * math.pi, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), grid)
        errors.append(float(np.max(np.abs(traj.q - closed(traj.times)))))
        dts.append(grid.dt)
    order = pl.observed_order(dts, errors)
    ok = 3.8 <= order <= 4.2
    verdict("8a", "classical integrator converges at 4th order under "
                  "dt-halving", ok, f"slope={order:.3f}")


def test_criterion_8b_split_step_second_order(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    errors, dts = [], []
    for n in (2500, 5000, 10000, 20000):
        tg = TimeGrid(0.0, natural.period, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
        pgrid = pl.PositionGrid.for_state(natural, float(np.max(np.abs(traj.q))))
        rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                           pl.ground_state(natural, pgrid), tg, record_every=n // 100)
        exact = 0.5 + (4.0 / 3.0) ** 2 * (np.cos(0.5 * rec.times)
                                          - np.cos(rec.times)) ** 2
        errors.append(float(np.max(np.abs(rec.mean_x2 - exact))))
        dts.append(tg.dt)
    order = pl.observed_order(dts, errors)
    ok = 1.8 <= order <= 2.2
    verdict("8b", "split-step propagator converges at 2nd order under "
                  "dt-halving", ok, f"slope={order:.3f}")


def test_criterion_8f_rotation2_split_step_at_roundoff(natural):
    # The two exact half-turns follow the exact flow of the drive's
    # quadratic through each step's samples, so the error sits at the
    # roundoff floor (growing slowly with n), and no slope is fitted.
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    errors = {}
    for n in (5000, 10000, 20000):
        tg = TimeGrid(0.0, natural.period, n)
        traj = pl.solve_trajectory(natural, field, InitialConditions(0.0, 0.0), tg)
        pgrid = pl.PositionGrid.for_state(natural, float(np.max(np.abs(traj.q))))
        rec = pl.propagate(pl.build_drive_table(natural, field, tg),
                           pl.ground_state(natural, pgrid), tg, record_every=n // 100,
                           splitting="rotation2")
        exact = 0.5 + (4.0 / 3.0) ** 2 * (np.cos(0.5 * rec.times)
                                          - np.cos(rec.times)) ** 2
        errors[n] = float(np.max(np.abs(rec.mean_x2 - exact)))
    ok = all(e < 1e-10 for e in errors.values())
    detail = " ".join(f"n={n}:{e:.1e}" for n, e in errors.items())
    verdict("8f", "rotation2 split-step <x^2> within 1e-10 of the closed form "
                  "on the 8b setup", ok, detail)


def test_criterion_8g_free_golden_at_roundoff(golden_reports):
    # the free golden's rotation step has no time error on the undriven
    # oscillator, so its moment sits at the roundoff of its norm drift
    rep = golden_reports["free"]
    dev = float(np.max(np.abs(rep.x2_s - 0.5)))
    ok = rep.scenario.splitting == "rotation" and rep.sup_discrepancy < 1e-11 and dev < 1e-11
    verdict("8g", "free golden (rotation step) at roundoff: sup |<x^2>_S - <x^2>_H| "
                  "and max |<x^2>_S - 0.5| below 1e-11", ok,
            f"sup={rep.sup_discrepancy:.2e} dev={dev:.2e}")


def test_criterion_8c_fock_truncation_stable(natural):
    field = pl.FieldModel.monochromatic(1.0, 0.5)
    tg = TimeGrid(0.0, 2.0 * natural.period, 2000)
    drive = pl.build_drive_table(natural, field, tg)
    series = [pl.fock_state_moments(drive, pl.ground_state_vector(n))[1] for n in (32, 64)]
    diff = float(np.max(np.abs(series[0] - series[1])))
    ok = diff < 1e-10
    verdict("8c", "Fock moments stable between N=32 and N=64", ok,
            f"max diff={diff:.2e} (tol 1e-10)")


def test_criterion_8d_grid_refinement_stable():
    params = pl.OscillatorParams(charge=0.0)
    values = []
    for n_points in (1024, 2048):
        g = pl.PositionGrid.for_state(params, 1.0, n_points=n_points)
        values.append(pl.expectation_x2(pl.displaced_state(params, g, 1.0)))
    diff = abs(values[0] - values[1])
    ok = diff < 1e-10
    verdict("8d", "grid moments stable between 1024 and 2048 points", ok,
            f"diff={diff:.2e} (tol 1e-10)")


def test_criterion_8e_fock_oracle_agrees(golden_reports):
    sups = {name: (rep.oracle_matrix_sup, rep.oracle_moment_sup)
            for name, rep in golden_reports.items()}
    ok = all(x < 1e-8 and x2 < 1e-8 for x, x2 in sups.values())
    detail = " ".join(f"{k}={x:.1e}/{x2:.1e}" for k, (x, x2) in sups.items())
    verdict("8e", "Fock state-vector <x>/<x^2> match the closed-form triple to "
                  "1e-8 on the golden suite", ok, detail)


DETERMINISM_CFG = """
[field]
kind = mode_sum
amplitudes = 0.05, 0.03, 0.02
omegas = 0.41, 1.73, 2.19
seed = 23

[time]
periods = 1
n_steps = 4000

[fock]
oracle = false

[run]
name = determinism
record_every = 20
export_trajectory = true
export_fock_moments = true
export_snapshots = true
"""


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(DETERMINISM_CFG)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    names = [p.name for p in sorted(outs[0].iterdir())]
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    ok = identical and len(names) == 5
    verdict(9, "repeated runs with identical configs produce byte-identical "
               "artifacts", ok, f"{len(names)} artifacts compared")
