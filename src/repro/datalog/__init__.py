"""Datalog substrate: language, storage, analysis and reference semantics.

This subpackage is the foundation everything else builds on:

* :mod:`~repro.datalog.terms`, :mod:`~repro.datalog.literals`,
  :mod:`~repro.datalog.rules` -- the abstract syntax of Datalog programs
  exactly as defined in Section 2 of the paper;
* :mod:`~repro.datalog.parser` -- a small concrete syntax;
* :mod:`~repro.datalog.database` -- indexed storage for extensional (and
  derived) relations with retrieval instrumentation, plus copy-on-write
  overlays so engines can evaluate over a caller's database without copying
  it;
* :mod:`~repro.datalog.unify` -- substitutions and rule instantiation;
* :mod:`~repro.datalog.plans` -- compiled join plans: every rule body is
  analysed **once** (non-builtin literals greedily reordered by
  bound-argument count, each built-in comparison placed at the earliest
  point its variables are bound, never-ground built-ins rejected at plan
  time) and executed by a flat iterative joiner that drives the relation
  hash indexes with positional binding slots.  All bottom-up engines share
  this layer through a delta-aware plan cache (one variant per recursive
  occurrence for seminaive evaluation), and a reference interpreted executor
  can be selected with ``configured(execution="interpreted")``
  (:mod:`repro.config`) for differential testing -- both executors must
  produce identical answers and identical work counters;
* :mod:`~repro.datalog.analysis` -- the polarity-labelled dependency graph,
  SCCs, the program classes of Section 2 (linear, binary-chain, regular,
  ...) and the stratification pass for negation/aggregation;
* :mod:`~repro.datalog.semantics` -- the least model and the stratified
  (perfect) model, used as ground truth in the test suite.
"""

from .database import Database, Delta, Relation
from .errors import (
    DatalogSyntaxError,
    EvaluationError,
    NonTerminationError,
    NotApplicableError,
    ProgramValidationError,
    ReproError,
    StratificationError,
    UnsafeRuleError,
)
from .literals import Literal, ground_atom
from .parser import parse_literal, parse_program, parse_query, parse_rules
from .plans import (
    AggregateFold,
    JoinPlan,
    aggregate_plan,
    body_plan,
    compile_image,
    compile_plan,
    delta_plan,
    delta_plans,
    drain_planner_events,
    get_execution_mode,
    get_plan_mode,
    rule_plan,
)
from .rules import Program, Rule, program_from_rules, rule
from .semantics import (
    answer_query,
    derived_relation,
    is_true,
    least_model,
    stratified_model,
)
from .terms import AggregateTerm, Constant, Term, Variable, make_constant, make_term
from .analysis import (
    ProgramAnalysis,
    Stratification,
    Stratum,
    analyze,
    strongly_connected_components,
)

__all__ = [
    "AggregateFold",
    "AggregateTerm",
    "Constant",
    "Database",
    "Delta",
    "DatalogSyntaxError",
    "EvaluationError",
    "JoinPlan",
    "Literal",
    "NonTerminationError",
    "NotApplicableError",
    "Program",
    "ProgramAnalysis",
    "ProgramValidationError",
    "Relation",
    "ReproError",
    "Rule",
    "Stratification",
    "StratificationError",
    "Stratum",
    "Term",
    "UnsafeRuleError",
    "Variable",
    "aggregate_plan",
    "analyze",
    "answer_query",
    "body_plan",
    "compile_image",
    "compile_plan",
    "delta_plan",
    "delta_plans",
    "derived_relation",
    "drain_planner_events",
    "get_execution_mode",
    "get_plan_mode",
    "ground_atom",
    "is_true",
    "least_model",
    "make_constant",
    "make_term",
    "rule_plan",
    "stratified_model",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rules",
    "program_from_rules",
    "rule",
    "strongly_connected_components",
]
