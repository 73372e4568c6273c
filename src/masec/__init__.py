"""Secrecy-rate maximization for movable-antenna linear arrays.

Maximizes the secrecy rate against colluding eavesdroppers over the
antenna positions and a closed-form optimal transmit beamformer, either
by a line-searched ascent on the best rate at each layout, the default,
or by alternating the beamformer with projected gradient ascent (the
paper's Algorithm 1), and ships the oracles (finite differences, random
sampling, exhaustive grid search) used to verify it.
"""

from .beamformer import (BeamformerSolution, EigensolverError, QuadraticForms,
                         build_forms, optimal_beamformer, solve_beamformer)
from .core import (InfeasibleError, Scenario, beam_gain, check_beamformer,
                   check_positions, mrt_beamformer, rate_difference,
                   secrecy_rate, steering_vector)
from .driver import (OptimizationTrace, OuterRecord, SolveConfig,
                     initial_positions, solve, solve_fpa)
from .oracle import (VerifyCheck, VerifyReport, fd_gradient, grid_search,
                     run_verification, sample_beamformers)
from .positions import (RealLift, gradient_psi, objective_psi,
                        optimize_positions, project_positions,
                        random_positions, real_lift)
from .scenario_io import (RunSpec, ScenarioFileError, load_run_spec,
                          load_solution, parse_run_spec)

__version__ = "0.1.0"

__all__ = [
    "BeamformerSolution", "EigensolverError", "InfeasibleError",
    "OptimizationTrace", "OuterRecord", "QuadraticForms",
    "RealLift", "RunSpec", "Scenario", "ScenarioFileError", "SolveConfig",
    "VerifyCheck", "VerifyReport", "beam_gain", "build_forms",
    "check_beamformer", "check_positions", "fd_gradient", "gradient_psi",
    "grid_search",
    "initial_positions", "load_run_spec", "load_solution", "mrt_beamformer",
    "objective_psi", "optimal_beamformer", "optimize_positions",
    "parse_run_spec", "project_positions", "random_positions",
    "rate_difference", "real_lift", "run_verification",
    "sample_beamformers", "secrecy_rate", "solve", "solve_beamformer",
    "solve_fpa", "steering_vector",
]
