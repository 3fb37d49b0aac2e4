"""decaylab: a desk-scale laboratory for energy decay of the damped wave equation.

Simulates u_tt - Laplace(u) + a(x)|u_t|^(r-1) u_t = 0 on truncated exterior
domains (1D half-line, 2D disk obstacle), tracks the energy and weighted-energy
machinery behind logarithmic / polynomial / compact-support decay estimates,
and fits observed decay exponents against the admissible predictions.
"""

from .weights import (Regime, WeightFamily, TheoremConstants, eval_weight,
                      compute_constants, verify_weight_inequalities)
from .grids import (ExteriorGrid, DampingProfile, CutoffPsi, build_grid_1d,
                    build_grid_2d_disk, build_damping, build_psi)
from .solver import (WaveState, SolverParams, RunResult, run,
                     make_initial_compact, make_initial_weighted)
from .functionals import (TrackerConfig, SampleTracker, energy, weighted_energy,
                          weighted_energy_log, X_functional, data_functionals,
                          prop1_inequality_check, observability_ratio,
                          high_energy_check)
from .decay import fit_decay, theorem_verdict, truncation_contamination
from .scenarios import (ScenarioConfig, ScenarioReport, load_config,
                        run_scenario, run_suite)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "Regime", "WeightFamily", "TheoremConstants", "eval_weight",
    "compute_constants", "verify_weight_inequalities",
    "ExteriorGrid", "DampingProfile", "CutoffPsi",
    "build_grid_1d", "build_grid_2d_disk", "build_damping", "build_psi",
    "WaveState", "SolverParams", "RunResult", "run",
    "make_initial_compact", "make_initial_weighted",
    "TrackerConfig", "SampleTracker",
    "energy", "weighted_energy", "weighted_energy_log", "X_functional",
    "data_functionals", "prop1_inequality_check", "observability_ratio",
    "high_energy_check",
    "fit_decay", "theorem_verdict", "truncation_contamination",
    "ScenarioConfig", "ScenarioReport", "load_config", "run_scenario",
    "run_suite", "presets",
]
