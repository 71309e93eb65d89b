"""Driven oscillator: the two pictures track each other through the drive.

A monochromatic classical field displaces the ground state along the
classical trajectory q_c(t).  Both engines then report
<x^2>(t) = 0.5 + q_c(t)^2: the wavepacket because its density is the
shifted Gaussian, the operator engine because the c-number part of
x_H(t) carries the same classical response.
"""

import numpy as np

import picture_lab as pl

params = pl.OscillatorParams(mass=1.0, omega0=1.0, charge=1.0, hbar=1.0)
field = pl.FieldModel.monochromatic(amplitude=0.2, omega=0.5)

scenario = pl.Scenario(
    name="driven-demo",
    params=params,
    field=field,
    ics=pl.InitialConditions(0.0, 0.0),
    time_grid=pl.TimeGrid(0.0, 4.0 * params.period, 40_000),
    record_every=20,
)
report = pl.run_equivalence(scenario)

print("driven run over 4 periods (E0=0.2, Omega=0.5):")
print(f"  max classical displacement     = {np.max(np.abs(report.q_c)):.4f}")
print(f"  sup |<x^2>_S - <x^2>_H|        = {report.sup_discrepancy:.3e}")
print(f"  sup |<x^2>_S - 0.5 - q_c^2|    = {report.decomposition_sup:.3e}")
print(f"  Ehrenfest sup |<x>_S - q_c|    = {report.ehrenfest_sup:.3e}")
print(f"  Fock-oracle <x>/<x^2> sup      = {report.oracle_matrix_sup:.3e}"
      f" / {report.oracle_moment_sup:.3e}")
print(f"  pictures equivalent: {report.equivalence_pass}")

# the wavepacket really is the displaced ground state: compare against
# the exact solution including boost and action phase at the final time
tg = scenario.time_grid
traj = pl.solve_trajectory(params, field, scenario.ics, tg)
pgrid = report.final_state.grid
exact = pl.exact_state(params, pgrid, traj, tg.n_steps)
print(f"  final-state fidelity vs exact  = {report.final_state.fidelity(exact):.12f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    axes[0].plot(report.times, report.x2_s, label=r"$\langle x^2\rangle_S$")
    axes[0].plot(report.times, report.x2_h, "--", label=r"$\langle x^2\rangle_H$")
    axes[0].plot(report.times, 0.5 + report.q_c**2, ":",
                 label=r"$1/2 + q_c^2$")
    axes[0].set_ylabel(r"$\langle x^2\rangle$")
    axes[0].legend()
    axes[1].semilogy(report.times, np.abs(report.x2_s - report.x2_h) + 1e-18)
    axes[1].set_xlabel("t")
    axes[1].set_ylabel("picture discrepancy")
    fig.suptitle("Driven oscillator: pictures agree along the drive")
    fig.tight_layout()
    fig.savefig("02_driven_picture_equivalence.png", dpi=150)
    print("\nplot saved to 02_driven_picture_equivalence.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
