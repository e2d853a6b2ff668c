"""Surveillance planning with local reward collection on weighted graphs.

The package splits the problem into an offline phase (mission automaton,
product construction, recurrence analysis) and an online phase (attraction
based next-step planning over locally sensed rewards), plus a simulation
layer that runs repeatable experiments and reports statistics.
"""

from .errors import (
    ContractError,
    InternalConsistencyError,
    LtlSyntaxError,
    MissionInfeasible,
    ScenarioError,
    ValidationError,
)
from .ltl import Formula, parse
from .ts import TransitionSystem
from .buchi import BuchiAutomaton, to_buchi
from .product import (
    OfflineResult,
    ProductAutomaton,
    build_product,
    check_accepting_label_condition,
    offline_phase,
)
from .rewards import (
    DecaySpawnDynamics,
    RewardField,
    make_potential,
    make_preference,
    register_potential,
    register_preference,
)
from .planner import CostEvaluator, Planner, StepInfo
from .scenario import Scenario, build_grid, load_scenario
from .sim import (
    ExperimentResult,
    ExperimentStats,
    RunResult,
    compute_stats,
    emit_outputs,
    format_stats,
    recompute_stats_from_trace,
    run_experiment,
    run_single,
)

__all__ = [
    "BuchiAutomaton",
    "ContractError",
    "CostEvaluator",
    "DecaySpawnDynamics",
    "ExperimentResult",
    "ExperimentStats",
    "Formula",
    "InternalConsistencyError",
    "LtlSyntaxError",
    "MissionInfeasible",
    "OfflineResult",
    "Planner",
    "ProductAutomaton",
    "RewardField",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "StepInfo",
    "TransitionSystem",
    "ValidationError",
    "build_grid",
    "build_product",
    "check_accepting_label_condition",
    "compute_stats",
    "emit_outputs",
    "format_stats",
    "load_scenario",
    "make_potential",
    "make_preference",
    "offline_phase",
    "parse",
    "recompute_stats_from_trace",
    "register_potential",
    "register_preference",
    "run_experiment",
    "run_single",
    "to_buchi",
]

__version__ = "0.1.0"
