"""Thrifty two-stage approximation algorithms for multistage k-robust
covering problems (set cover, min-cut, Steiner tree, Steiner forest), with
exact oracles for tiny instances and adversarial instance generators.

Exact arithmetic throughout: every cost, inflation, and report value is a
Fraction; nothing is ever rounded.
"""

from . import fixtures, graphcore, mincut, oracle, setcover, steiner
from .errors import (BadParameters, Disconnected, Infeasible,
                     InstanceFormatError, InvariantViolation, KRobustError,
                     MalformedSchedule, MissingResidual, TooLarge,
                     TrivialInstance, UnknownEdge)
from .graphcore import (Edge, EdgeSet, Pair, WeightedGraph,
                        preprocess_cost_scaling)
from .model import (CARDINALITY, KINDS, MINCUT, PROBLEM_KINDS, SETCOVER,
                    STEINERFOREST, STEINERTREE, SUBSET, CostReport, Kind,
                    ProblemInstance, Schedule, ThriftyPlan, UncertaintySpec,
                    evaluate_thrifty, merge_stages, solve_thrifty)
from .oracle import SizeLimits, exhaustive_robcov, minimax_opt, opt_bounds
from .setcover import SetSystem

__version__ = "0.1.0"

__all__ = [
    "BadParameters", "CARDINALITY", "CostReport", "Disconnected", "Edge",
    "EdgeSet", "Infeasible", "InstanceFormatError", "InvariantViolation",
    "KINDS", "KRobustError", "Kind", "MINCUT", "MalformedSchedule",
    "MissingResidual", "PROBLEM_KINDS", "Pair", "ProblemInstance",
    "SETCOVER", "STEINERFOREST", "STEINERTREE", "SUBSET",
    "Schedule", "SetSystem", "SizeLimits",
    "ThriftyPlan", "TooLarge", "TrivialInstance", "UncertaintySpec",
    "UnknownEdge", "WeightedGraph", "evaluate_thrifty",
    "exhaustive_robcov", "fixtures", "graphcore", "merge_stages", "mincut",
    "minimax_opt", "opt_bounds", "oracle", "preprocess_cost_scaling",
    "setcover", "solve_thrifty", "steiner",
]
