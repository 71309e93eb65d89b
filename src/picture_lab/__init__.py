"""Numerical laboratory for picture equivalence of a driven charged oscillator.

The package simulates a 1-D charged harmonic oscillator driven by a
classical electric field in both the Schrodinger picture (grid wavepacket,
split-operator propagation) and the Heisenberg picture (the closed-form
triple of x_H, checked by a Fock state-vector oracle), verifies that the
two pictures yield identical position moments, and mechanically
reproduces the flawed substitution that once suggested otherwise.
"""

from .classical import (ClassicalTrajectory, DriveTable, InitialConditions,
                        build_drive_table, decay_certificate, integrate_forced,
                        solve_trajectory)
from .errors import (ConfigInvalid, GridTooNarrow, NonFiniteState, NotDamped,
                     NotDisplacedGaussian, NotNormalized, PictureLabError,
                     StepTooCoarse, TruncationError)
from .heisenberg import (HeisenbergSolution, build_ladder_operators, closed_form_moments,
                         coherent_state_vector, commutator_error, evolve_heisenberg,
                         fock_state_moments, ground_state_vector)
from .lab import (EquivalenceReport, Scenario, flawed_identification_residual,
                  flawed_pipeline_value, free_limit_sweep, observed_order,
                  run_equivalence)
from .model import (FieldModel, GaussianState, OscillatorParams, TimeGrid,
                    evaluate_field, ground_state_width)
from .schrodinger import (SPLITTINGS, GridWavefunction, PositionGrid,
                          PropagationRecord, decompose_x2, displaced_state,
                          exact_state, expectation_x, expectation_x2, ground_state,
                          phase_history, propagate)

__version__ = "0.1.0"

__all__ = [
    "ClassicalTrajectory", "DriveTable", "InitialConditions", "build_drive_table",
    "decay_certificate", "integrate_forced", "solve_trajectory",
    "ConfigInvalid", "GridTooNarrow", "NonFiniteState", "NotDamped",
    "NotDisplacedGaussian", "NotNormalized", "PictureLabError", "StepTooCoarse",
    "TruncationError",
    "HeisenbergSolution", "build_ladder_operators", "closed_form_moments",
    "coherent_state_vector", "commutator_error", "evolve_heisenberg",
    "fock_state_moments", "ground_state_vector",
    "EquivalenceReport", "Scenario", "flawed_identification_residual",
    "flawed_pipeline_value", "free_limit_sweep", "golden_scenarios",
    "observed_order", "run_equivalence",
    "FieldModel", "GaussianState", "OscillatorParams", "TimeGrid",
    "evaluate_field", "ground_state_width",
    "SPLITTINGS", "GridWavefunction", "PositionGrid", "PropagationRecord",
    "decompose_x2", "displaced_state", "exact_state", "expectation_x",
    "expectation_x2", "ground_state", "phase_history", "propagate",
]


def __getattr__(name):
    # cli is imported on first use (PEP 562), so that importing the package
    # leaves ``python -m picture_lab.cli`` to run it fresh as __main__
    if name == "golden_scenarios":
        from .cli import golden_scenarios
        return golden_scenarios
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
