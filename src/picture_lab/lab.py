"""Scenario runner and picture-equivalence diagnostics.

A scenario drives all three engines on one shared time grid and collects
their second-moment series.  The report then answers three questions:

* do the two pictures agree, sup_t |<x^2>_S - <x^2>_H| below tolerance
  (they always should; this is the point of the exercise);
* what is the residual <x_H^2> - q_c^2, i.e. the quantity a flawed
  identification claims to be zero (it equals the vacuum term instead);
* what value does the flawed pipeline produce when the Heisenberg moment
  is substituted for q_c^2 (the famous spurious factor of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import InitialConditions, decay_certificate, solve_trajectory
from .heisenberg import (closed_form_moments, coherent_state_vector, evolve_heisenberg,
                         fock_state_moments)
from .model import FieldModel, OscillatorParams, TimeGrid
from .schrodinger import (DEFAULT_PADDING_SIGMAS, MIN_N_POINTS, SPLITTINGS,
                          GridWavefunction, PositionGrid, check_path_step, expectation_x2,
                          ground_state, displaced_state, propagate, record_steps)

TOL_EQUIVALENCE = 1e-5   # cross-engine: accumulated integrator + grid error
TOL_RESIDUAL = 1e-6      # engine-level identities
TOL_DECOMPOSITION = 1e-6


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Scenario:
    """Fully deterministic description of one equivalence run."""

    name: str
    params: OscillatorParams
    field: FieldModel
    ics: InitialConditions
    time_grid: TimeGrid
    n_points: int | None = None  # None: sized from the state's reach by _run
    n_fock: int = 64
    padding_sigmas: float = DEFAULT_PADDING_SIGMAS
    record_every: int = 1
    match_quantum_ics: bool = True
    tol_equivalence: float = TOL_EQUIVALENCE
    decay_threshold: float = 1e-3
    fock_oracle: bool = True
    oracle_steps_per_period: int = 1000
    splitting: str = "strang"

    def __post_init__(self):
        n = self.n_points
        checks = (
            ("record_every", self.record_every >= 1, "must be at least 1"),
            ("tol_equivalence", _positive(self.tol_equivalence), "must be finite and > 0"),
            ("decay_threshold", _positive(self.decay_threshold), "must be finite and > 0"),
            ("n_points", n is None or (n >= MIN_N_POINTS and n & (n - 1) == 0),
             f"must be a power of two, at least {MIN_N_POINTS}"),
            ("n_fock", self.n_fock >= 16, "must be at least 16"),
            ("padding_sigmas", _positive(self.padding_sigmas), "must be finite and > 0"),
            ("oracle_steps_per_period", self.oracle_steps_per_period >= 1,
             "must be at least 1"),
            ("splitting", self.splitting in SPLITTINGS,
             f"must be one of {', '.join(SPLITTINGS)}"),
        )
        for key, ok, rule in checks:
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)!r}")

    @property
    def periods(self) -> float:
        return (self.time_grid.t1 - self.time_grid.t0) / self.params.period


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Series, derived numbers, and verdicts of one scenario run.

    Verdict booleans are derived solely from the stored series and the
    tolerances echoed in ``tolerances``.
    """

    scenario: Scenario
    times: np.ndarray
    q_c: np.ndarray
    qdot_c: np.ndarray
    x_s: np.ndarray
    x2_s: np.ndarray
    x_h: np.ndarray
    x2_h: np.ndarray
    xi: np.ndarray
    residual_5_1: np.ndarray
    vacuum_term: float
    sup_discrepancy: float
    ehrenfest_sup: float
    decomposition_sup: float
    residual_min: float
    residual_max: float
    flawed_eq6_value: float
    norm_error_max: float
    decay_time: float | None
    oracle_matrix_sup: float | None  # sup |<x>_Fock - <x_H>|; name kept for report readers
    oracle_moment_sup: float | None  # sup |<x^2>_Fock - <x_H^2>|
    equivalence_pass: bool
    eq51_falsified: bool
    residual_matches_vacuum: bool
    final_state: GridWavefunction
    tolerances: dict

    @property
    def all_pass(self) -> bool:
        return self.equivalence_pass and self.eq51_falsified

    def summary_lines(self) -> list:
        s = self.scenario
        mark = lambda ok: "PASS" if ok else "FAIL"
        lines = [
            f"scenario {s.name}: {s.periods:.4g} periods, {s.time_grid.n_steps} steps, "
            f"{len(self.times)} samples",
            f"  vacuum term <x^2>_0            = {self.vacuum_term:.12g}",
            f"  sup |<x^2>_S - <x^2>_H|        = {self.sup_discrepancy:.3e}  "
            f"[{mark(self.equivalence_pass)}] (tol {self.tolerances['equivalence']:g})",
            f"  residual <x_H^2> - q_c^2       in [{self.residual_min:.9g}, "
            f"{self.residual_max:.9g}]",
            f"  flawed identification refuted  = {mark(self.eq51_falsified)} "
            f"(identity off by > {self.tolerances['residual']:g} somewhere)",
            f"  flawed-pipeline value          = {self.flawed_eq6_value:.12g} "
            f"(correct value {self.vacuum_term:.6g})",
            f"  Ehrenfest sup |<x>_S - q_c|    = {self.ehrenfest_sup:.3e}",
            f"  norm drift                     = {self.norm_error_max:.3e}",
        ]
        if self.decay_time is not None:
            lines.append(f"  decay certificate time         = {self.decay_time:.6g}")
        if self.oracle_matrix_sup is not None:
            lines.append(f"  Fock-oracle <x> sup            = {self.oracle_matrix_sup:.3e}")
        if self.oracle_moment_sup is not None:
            lines.append(f"  Fock-oracle <x^2> sup          = {self.oracle_moment_sup:.3e}")
        return lines


def flawed_pipeline_value(vacuum_term: float, heisenberg_x2: float) -> float:
    """Mechanically substitute <x_H^2> for q_c^2 in the moment decomposition.

    This reproduces the criticized bookkeeping: the correct
    <x^2> = vacuum + q_c^2 becomes vacuum + <x_H^2>, which for the free
    values double-counts the vacuum term and yields hbar/(m omega0),
    twice the correct result.
    """
    if vacuum_term < 0 or heisenberg_x2 < 0:
        raise ValueError("inputs must be non-negative")
    return vacuum_term + heisenberg_x2


def flawed_identification_residual(report: EquivalenceReport, t: float) -> float:
    """<x_H^2(t)> - q_c^2(t) at a sampled time.

    Zero would validate the flawed identification; for this model the
    residual equals the vacuum term whenever the quantum state matches
    the classical initial conditions, and is never zero.
    """
    i = int(np.argmin(np.abs(report.times - t)))
    if abs(report.times[i] - t) > 1e-8 * max(1.0, abs(t)):
        raise ValueError(f"t={t!r} is not a sampled time of this report")
    return float(report.residual_5_1[i])


def run_equivalence(scenarios):
    """Run all three engines on the shared grid and assemble the report.

    Given a sequence of scenarios, returns their reports in order.  The
    scenarios whose propagations share a time grid, splitting, n_points
    and record cadence run as one batched ``propagate``, whose rows they
    share if they also share the initial grid, params, field, ics and
    match_quantum_ics.  After the propagations, the Fock oracles that
    share an oracle grid, n_fock, mass, omega0 and hbar run as one batched
    ``fock_state_moments``, whose rows they share if they also share
    params, field, ics and match_quantum_ics.  Each report equals that of
    its scenario run alone.  An exception that escapes is re-raised as
    itself, with ``scenario`` set to the name of the scenario it arose in:
    its ``row``'s in a batch, or the batch's first if it has none.
    """
    single = isinstance(scenarios, Scenario)
    scenarios = [scenarios] if single else list(scenarios)
    runs = [_run(s) for s in scenarios]
    starts = [_advance(s, run, None) for s, run in zip(scenarios, runs)]
    records = _batched(
        scenarios, starts, _propagate,
        key=lambda s, start: (s.time_grid, s.splitting, start[0].grid.n_points,
                              s.record_every),
        row=lambda s, start: (start[0].grid, s.params, s.field, s.ics, s.match_quantum_ics))
    states = [_advance(s, run, records[i])
              for i, (s, run) in enumerate(zip(scenarios, runs))]
    oracles = _batched(
        scenarios, states, _fock_oracle,
        key=lambda s, state: (_oracle_grid(s), len(state), s.params.mass, s.params.omega0,
                              s.params.hbar),
        row=lambda s, state: (s.params, s.field, s.ics, s.match_quantum_ics))
    reports = [_advance(s, run, oracles.get(i))
               for i, (s, run) in enumerate(zip(scenarios, runs))]
    return reports[0] if single else reports


def _batched(scenarios: list, inputs: list, run, key, row) -> dict:
    """Call ``run(group, group_inputs)`` once per batch of the scenarios whose
    input is not None, and return each one's result by index.

    Scenarios with equal ``key(s, input)`` form a batch, and those that
    also share ``row(s, input)`` one row of it, which its first member
    runs for all.  ``run`` returns one result per row.  An error names the
    scenario of its ``row``, or the batch's first if it has none.
    """
    batches = {}
    for i, (s, item) in enumerate(zip(scenarios, inputs)):
        if item is not None:
            batches.setdefault(key(s, item), {}).setdefault(row(s, item), []).append(i)
    results = {}
    for rows in batches.values():
        firsts = [members[0] for members in rows.values()]
        group = [scenarios[i] for i in firsts]
        try:
            batch = run(group, [inputs[i] for i in firsts])
        except Exception as exc:
            exc.scenario = group[getattr(exc, "row", None) or 0].name
            raise
        for members, result in zip(rows.values(), batch):
            results.update(dict.fromkeys(members, result))
    return results


def _advance(s: Scenario, run, value):
    """Send ``value`` to ``run``, the run of ``s``; returns what it yields
    next or, once it ends, its report."""
    try:
        return run.send(value)
    except StopIteration as done:
        return done.value
    except Exception as exc:
        exc.scenario = s.name
        raise


def _propagate(group: list, starts: list) -> list:
    """One ``propagate`` call for the scenarios ``group``, which share a time
    grid, splitting, n_points and record cadence, from their (initial
    state, drive table) ``starts``; returns their records in order."""
    s = group[0]
    states, drives = zip(*starts)
    if len(group) == 1:  # a single run: bench/spans.py reads n_points as len(psi.psi)
        states, drives = states[0], drives[0]
    record = propagate(drives, states, s.time_grid, s.record_every, s.splitting)
    return [record] if len(group) == 1 else [record.row(b) for b in range(len(group))]


def _run(s: Scenario):
    """The report of ``s``, as a generator: it yields the initial state of
    its propagation and the triple's drive table, is sent the record, yields
    the initial Fock state of its oracle (None with the oracle off), is
    sent the oracle's two sups (None likewise), and returns the report."""
    params, field, grid = s.params, s.field, s.time_grid
    damped = field.gamma > 0

    hsol = _heisenberg(s, grid)
    ref = hsol.drive.reference
    # the classical path; a damped table's reference is that path on
    # grid.refined(2)
    traj = ref if damped else solve_trajectory(params, field, s.ics, grid)
    every = 2 if damped else 1
    q_c, qdot_c = traj.q[::every], traj.qdot[::every]
    xi = hsol.xi

    if s.match_quantum_ics:
        q_init, v_init = s.ics.q0, s.ics.v0
        classical_mean = q_c
    else:
        q_init, v_init = 0.0, 0.0
        classical_mean = xi

    # the cheap guards first: the state's Fock tail, and the step along the
    # path the packet's mean will follow
    state = coherent_state_vector(params, s.n_fock, q_init, v_init)
    check_path_step(hsol.drive, classical_mean, s.splitting)

    reach = float(max(np.max(np.abs(classical_mean)), abs(q_init)))
    speed = float(np.max(np.abs(qdot_c)))
    if not s.match_quantum_ics:
        # the packet follows xi = q_c - (free solution from q0, v0)
        speed += params.omega0 * abs(s.ics.q0) + abs(s.ics.v0)
    pgrid = PositionGrid.for_state(params, reach, s.n_points, s.padding_sigmas,
                                   max_momentum=params.mass * speed)
    # a batch holds the run of each of its scenarios here until it is
    # propagated: keep the series at the record steps only
    rec = record_steps(grid.n_steps, s.record_every)
    x_h, x2_h = closed_form_moments(hsol, state)
    x_h, x2_h, xi, q_c, qdot_c, classical_mean = (
        series[rec] for series in (x_h, x2_h, xi, q_c, qdot_c, classical_mean))
    drive = hsol.drive
    del hsol, traj
    prop = yield displaced_state(params, pgrid, q_init, v_init), drive

    vacuum = expectation_x2(ground_state(params, pgrid))
    residual = x2_h - q_c**2

    sup_disc = float(np.max(np.abs(prop.mean_x2 - x2_h)))
    ehrenfest = float(np.max(np.abs(prop.mean_x - classical_mean)))
    decomposition = float(np.max(np.abs(prop.mean_x2 - vacuum - classical_mean**2)))
    res_min = float(residual.min())
    res_max = float(residual.max())

    # The criticized derivation asserts the Heisenberg moment keeps its
    # free value hbar/(2 m omega0), and takes the vacuum term as that same
    # closed form; feed both through the flawed substitution, whose sum is
    # then exactly hbar/(m omega0) on every grid (the grid's quadrature of
    # the vacuum term can be an ulp off it).
    claimed = params.hbar / (2.0 * params.mass * params.omega0)
    flawed = flawed_pipeline_value(claimed, claimed)

    decay_time = None
    if damped:
        decay_time = decay_certificate(ref, s.decay_threshold)

    oracle = yield state if s.fock_oracle else None
    oracle_x, oracle_x2 = oracle or (None, None)

    tolerances = {"equivalence": s.tol_equivalence, "residual": TOL_RESIDUAL,
                  "decomposition": TOL_DECOMPOSITION}
    return EquivalenceReport(
        scenario=s, times=prop.times, q_c=q_c, qdot_c=qdot_c,
        x_s=prop.mean_x, x2_s=prop.mean_x2, x_h=x_h, x2_h=x2_h, xi=xi,
        residual_5_1=residual, vacuum_term=vacuum,
        sup_discrepancy=sup_disc, ehrenfest_sup=ehrenfest,
        decomposition_sup=decomposition, residual_min=res_min, residual_max=res_max,
        flawed_eq6_value=flawed, norm_error_max=prop.max_norm_error(),
        decay_time=decay_time, oracle_matrix_sup=oracle_x,
        oracle_moment_sup=oracle_x2,
        equivalence_pass=sup_disc < s.tol_equivalence,
        eq51_falsified=bool(np.max(np.abs(residual)) > TOL_RESIDUAL),
        residual_matches_vacuum=bool(np.max(np.abs(residual - vacuum)) <= TOL_RESIDUAL),
        final_state=prop.psi, tolerances=tolerances)


def _heisenberg(s: Scenario, grid: TimeGrid):
    """The triple of ``s`` on ``grid``; a damped table's reference is the
    classical trajectory from the scenario's ICs on ``grid.refined(2)``."""
    ref = None
    if s.field.gamma > 0:
        ref = solve_trajectory(s.params, s.field, s.ics, grid.refined(2))
    return evolve_heisenberg(s.params, s.field, grid, reference_trajectory=ref)


def _oracle_grid(s: Scenario) -> TimeGrid:
    """The Fock oracle's own grid, coarser than the scenario's: the state
    ODE is smooth."""
    steps = max(2000, int(round(s.periods * s.oracle_steps_per_period)))
    return TimeGrid(s.time_grid.t0, s.time_grid.t1, steps)


def _fock_oracle(group: list, states: list) -> list:
    """Independent Fock state-vector check of the closed-form Heisenberg path.

    One ``fock_state_moments`` call for the scenarios ``group``, which
    share an oracle grid, n_fock, mass, omega0 and hbar, from their initial
    Fock ``states``.  Returns per scenario the sups over every step of
    |<x>_Fock - <x_H>| and |<x^2>_Fock - <x_H^2>|.
    """
    grid = _oracle_grid(group[0])
    solutions = []
    for b, s in enumerate(group):
        try:
            solutions.append(_heisenberg(s, grid))
        except Exception as exc:
            exc.row = b
            raise
    x_fock, x2_fock = fock_state_moments([sol.drive for sol in solutions], states)
    sups = []
    for sol, state, x, x2 in zip(solutions, states, x_fock, x2_fock):
        x_h, x2_h = closed_form_moments(sol, state)
        sups.append((float(np.max(np.abs(x - x_h))), float(np.max(np.abs(x2 - x2_h)))))
    return sups


def free_limit_sweep(e_values, base: Scenario) -> list:
    """Run the base scenario across charge values; must include e = 0.

    The values run as one ``run_equivalence`` call, so their propagations
    share one batch.  Verifies continuity of the second moment toward the
    free value: the linear equation of motion makes the classical response
    exactly proportional to e, so the moment excess scales as e^2.
    """
    e_values = list(e_values)
    if 0 not in e_values and 0.0 not in e_values:
        raise ValueError("e_values must include 0")
    return run_equivalence([replace(base, name=f"{base.name}[e={e:g}]",
                                    params=replace(base.params, charge=float(e)))
                            for e in e_values])


def observed_order(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to estimate an order")
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope)
