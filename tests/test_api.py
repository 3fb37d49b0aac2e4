"""Public surface: every exported name resolves, the package exports what
README documents, and the names taken out of `__all__` still import."""

import importlib
import pkgutil

import pytest

import decaylab

MODULES = ["decaylab"] + [f"decaylab.{m.name}"
                          for m in pkgutil.iter_modules(decaylab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


# in the order of `decaylab.__all__`
PACKAGE_ALL = """
    Regime WeightFamily TheoremConstants eval_weight compute_constants
    verify_weight_inequalities ExteriorGrid DampingProfile CutoffPsi build_grid_1d
    build_grid_2d_disk build_damping build_psi WaveState SolverParams RunResult run
    make_initial_compact make_initial_weighted TrackerConfig SampleTracker energy
    weighted_energy weighted_energy_log X_functional data_functionals
    prop1_inequality_check observability_ratio high_energy_check fit_decay
    theorem_verdict truncation_contamination ScenarioConfig ScenarioReport
    load_config run_scenario run_suite presets
""".split()


# out of every `__all__`, and still imported from their module by other
# modules and tests; the benchmark harness wraps `solver.step` by name
UNEXPORTED = """
    weights.BValue weights.InequalityCheck weights.WeightInequalityReport
    weights.compute_b decay.DecayFit decay.Verdict functionals.DataFunctionals
    solver.step
""".split()


def test_package_exports_exactly_the_documented_names():
    assert decaylab.__all__ == PACKAGE_ALL


@pytest.mark.parametrize("dotted", UNEXPORTED)
def test_unexported_names_import_from_their_module(dotted):
    module, name = dotted.split(".")
    assert callable(getattr(importlib.import_module(f"decaylab.{module}"), name))
    assert all(name not in importlib.import_module(m).__all__ for m in MODULES)
