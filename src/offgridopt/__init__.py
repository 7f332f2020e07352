"""offgridopt: design, sizing and dispatch of islanded hybrid microgrids."""

from .config import build_config, build_context, load_config, save_config
from .devices import (BatterySpec, ConverterSpec, GeneratorSpec, PvSpec,
                      WindSpec, lead_acid_spec, microturbine_spec)
from .dispatch import Scenario, day_context, optimize_day, robustness_suite
from .economics import CostTable, FinancialParams, ObjectiveVector, Weights
from .simulate import (Design, SimResult, SimulationContext, SizingProblem,
                       StrategyConfig, hourly_power_balance_check,
                       simulate_year)
from .solvers import (SearchSpace, SolverReport, ga_minimize,
                      multistart_minimize, pareto_front,
                      pattern_search_minimize, pso_minimize, sa_minimize)
from .sweeps import SweepSpec, objective_at_fixed_design, run_sweep
from .timeseries import ClimateSeries, LoadSeries

__version__ = "0.1.0"

__all__ = [
    "BatterySpec", "ClimateSeries", "ConverterSpec", "CostTable", "Design",
    "FinancialParams", "GeneratorSpec", "LoadSeries", "ObjectiveVector",
    "PvSpec", "Scenario", "SearchSpace", "SimResult", "SimulationContext",
    "SizingProblem", "SolverReport", "StrategyConfig", "SweepSpec", "Weights",
    "WindSpec", "build_config", "build_context", "day_context",
    "ga_minimize", "hourly_power_balance_check",
    "lead_acid_spec", "load_config", "microturbine_spec",
    "multistart_minimize", "objective_at_fixed_design", "optimize_day",
    "pareto_front", "pattern_search_minimize", "pso_minimize",
    "robustness_suite", "run_sweep", "sa_minimize", "save_config",
    "simulate_year", "__version__",
]
