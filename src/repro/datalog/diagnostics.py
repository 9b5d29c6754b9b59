"""Program-level static analysis: structured diagnostics over whole programs.

Every evaluation strategy of the paper imposes structural preconditions --
safety, stratifiability, binding/adornment feasibility, regularity -- that
the engines historically discovered piecemeal and late (an unsafe rule at
``Program`` construction with no variable named, a never-ground builtin at
plan-compile time deep inside a fixpoint, a stratification cycle at
materialize time).  This module runs all of those checks *statically*, over
a whole program at once, and reports each finding as a :class:`Diagnostic`:
a stable error code (``DL201``), a severity, a source span (threaded from
the lexer through every parsed term, literal and rule), a human message and
an optional fix hint.

Severities
----------
* **error** -- the program cannot evaluate (unsafe rule, arity clash,
  unstratifiable negation).  The matching exceptions
  (:class:`~repro.datalog.errors.UnsafeRuleError`,
  :class:`~repro.datalog.errors.StratificationError`, ...) carry the same
  diagnostic on their ``.diagnostic`` attribute.
* **warning** -- the program evaluates but almost certainly not as intended
  (undefined predicate, singleton named variable -- the PR-5 wildcard
  aliasing bug class, duplicate/subsumed rules, a provably empty body).
* **hint** -- advisory (a query the constant-driven strategies cannot
  serve; unreachable rules).

Error codes
-----------
==========  ========  =====================================================
code        severity  meaning
==========  ========  =====================================================
``DL101``   error     syntax error (lexer/parser)
``DL201``   error     unsafe rule: head variable never positively bound
``DL202``   error     built-in comparison can never become ground
``DL203``   error     unsafe variable under negation or aggregation
``DL204``   error     predicate used with inconsistent arities
``DL205``   error     predicate is both base (facts) and derived (rules)
``DL206``   error     fact with a non-ground head
``DL301``   error     no stratification (negation/aggregation in recursion)
``DL401``   warning   predicate used in a body but never defined
``DL402``   hint      rule/predicate unreachable from any queried head
``DL403``   warning   singleton named variable (did you mean ``_``?)
``DL404``   warning   exact duplicate rule
``DL405``   warning   rule subsumed by a more general rule
``DL406``   warning   contradictory builtins: body is provably empty
``DL501``   hint      binding modes rule out the demand strategies
``DL701``   warning   join is provably empty (disjoint inferred domains)
``DL702``   warning   sort-mismatched recursion (recursive case vs base case)
``DL703``   warning   built-in comparison over incompatible sorts
``DL704``   hint      rule can never fire under the current EDB
==========  ========  =====================================================

The DL7xx family is produced by the abstract-interpretation layer
(:mod:`repro.datalog.abstract`): a dataflow fixpoint inferring per-column
sorts, constant sets, integer intervals and emptiness for every predicate.
It runs in :func:`check_program` (so ``session.diagnostics`` carries the
findings), in ``QuerySession.explain()`` (for the program it explains) and
in the lint CLI behind ``--analyze``.

Entry points
------------
:func:`lint_source` (text), :func:`lint_rules` (possibly-invalid rule
lists), :func:`lint_program` (validated programs) and :func:`check_program`
(the eager prepare-time driver: errors raise, warnings are returned).  The
binding-mode analysis (:func:`chain_feasibility`,
:func:`query_strategy_report`) reuses :mod:`repro.core.adornment` and backs
the applicability pre-filter in :func:`repro.core.planner.classify_query`.
All checks reuse the memoized :class:`~repro.datalog.analysis
.ProgramAnalysis` / :class:`~repro.datalog.analysis.Stratification`
machinery rather than re-deriving dependency graphs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .errors import DatalogSyntaxError, StratificationError
from .literals import Literal
from .rules import Program, Rule
from .spans import Span, merge_spans
from .terms import AggregateTerm, Constant, Term, Variable

__all__ = [
    "Severity",
    "Diagnostic",
    "Related",
    "CODES",
    "lint_source",
    "lint_rules",
    "lint_program",
    "check_program",
    "chain_feasibility",
    "query_strategy_report",
    "rule_safety_diagnostics",
    "stratification_cycle_diagnostic",
    "eager_validation_enabled",
    "ensure_valid",
    "abstract_diagnostics",
]


class Severity(enum.Enum):
    """How bad a diagnostic is; :attr:`rank` orders errors first."""

    ERROR = "error"
    WARNING = "warning"
    HINT = "hint"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.HINT: 2}

#: Stable code -> (severity, one-line summary).  The lint CLI prints this
#: table with ``--codes``; the README error-code table mirrors it.
CODES: Dict[str, Tuple[Severity, str]] = {
    "DL101": (Severity.ERROR, "syntax error"),
    "DL201": (Severity.ERROR, "unsafe rule: head variable never positively bound"),
    "DL202": (Severity.ERROR, "built-in comparison can never become ground"),
    "DL203": (Severity.ERROR, "unsafe variable under negation or aggregation"),
    "DL204": (Severity.ERROR, "predicate used with inconsistent arities"),
    "DL205": (Severity.ERROR, "predicate is both base (facts) and derived (rules)"),
    "DL206": (Severity.ERROR, "fact with a non-ground head"),
    "DL301": (Severity.ERROR, "no stratification: negation/aggregation through recursion"),
    "DL401": (Severity.WARNING, "predicate used in a body but never defined"),
    "DL402": (Severity.HINT, "rule/predicate unreachable from any queried head"),
    "DL403": (Severity.WARNING, "singleton named variable (did you mean '_'?)"),
    "DL404": (Severity.WARNING, "exact duplicate rule"),
    "DL405": (Severity.WARNING, "rule subsumed by a more general rule"),
    "DL406": (Severity.WARNING, "contradictory builtins: rule body is provably empty"),
    "DL501": (Severity.HINT, "binding modes rule out the demand strategies"),
    "DL601": (Severity.HINT, "cardinality estimate wildly off; plan re-costed at runtime"),
    "DL701": (Severity.WARNING, "join is provably empty: the variable's positive occurrences admit disjoint domains"),
    "DL702": (Severity.WARNING, "sort-mismatched recursion: the recursive case produces sorts no base case produces"),
    "DL703": (Severity.WARNING, "built-in comparison over incompatible sorts can never succeed"),
    "DL704": (Severity.HINT, "rule can never fire under the current extensional database"),
}


@dataclass(frozen=True)
class Related:
    """A secondary source location attached to a diagnostic (cycle steps)."""

    message: str
    span: Optional[Span] = None

    def to_dict(self) -> Dict[str, object]:
        return {"message": self.message, **_span_dict(self.span)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analysis.

    Attributes
    ----------
    code:
        Stable identifier from :data:`CODES` (``DL201``, ...).
    severity:
        :class:`Severity` -- error, warning or hint.
    message:
        Human-readable description naming the offending variable, predicate
        or rule.
    span:
        Source region of the offending token(s); ``None`` for
        programmatically built programs.
    hint:
        Optional fix suggestion.
    rule:
        Printed form of the rule the diagnostic is about, when applicable.
    related:
        Secondary spans, e.g. the witness chain of a stratification cycle
        or the first occurrence shadowed by a duplicate.
    """

    code: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    hint: Optional[str] = None
    rule: Optional[str] = None
    related: Tuple[Related, ...] = ()

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the lint CLI's ``--format json`` rows)."""
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            **_span_dict(self.span),
        }
        if self.hint is not None:
            payload["hint"] = self.hint
        if self.rule is not None:
            payload["rule"] = self.rule
        if self.related:
            payload["related"] = [entry.to_dict() for entry in self.related]
        return payload

    def format(self, path: Optional[str] = None) -> str:
        """The compiler-style one-liner: ``path:3:14: error[DL201]: ...``."""
        location = ""
        if self.span is not None:
            location = f"{self.span.start}: "
        prefix = f"{path}:" if path else ""
        text = f"{prefix}{location}{self.severity.value}[{self.code}]: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        for entry in self.related:
            where = f" at {entry.span.start}" if entry.span is not None else ""
            text += f"\n    note: {entry.message}{where}"
        return text

    def sort_key(self) -> Tuple[int, int, int, str]:
        line = self.span.line if self.span is not None else 1 << 30
        column = self.span.column if self.span is not None else 0
        return (line, column, self.severity.rank, self.code)


def _span_dict(span: Optional[Span]) -> Dict[str, object]:
    if span is None:
        return {"line": None, "column": None, "end_line": None, "end_column": None}
    return {
        "line": span.line,
        "column": span.column,
        "end_line": span.end_line,
        "end_column": span.end_column,
    }


# ---------------------------------------------------------------------------
# Eager validation (Engine.answer and QuerySession)
# ---------------------------------------------------------------------------


def eager_validation_enabled() -> bool:
    """Always ``True``: programs are validated before evaluation starts."""
    return True


def ensure_valid(program: Program) -> None:
    """Raise eagerly when ``program`` cannot evaluate; cheap when it can.

    Positive programs were fully validated at construction; the one check
    that historically fired mid-evaluation is stratifiability, so that is
    what runs here (memoized per program -- repeated calls are O(1)): a
    stratification cycle raises before evaluation starts, not mid-fixpoint.
    """
    if not program.is_positive:
        from .analysis import Stratification

        Stratification.of(program)


def abstract_diagnostics(
    program: Program,
    database: Optional[object] = None,
    known: Iterable[str] = (),
) -> List[Diagnostic]:
    """The DL7xx findings of the abstract interpretation, sorted by span.

    ``database`` supplies the extensional facts (closed world: a base
    predicate it does not store is *known* empty); without one the analysis
    is open-world and only program-text facts seed the domains.  ``known``
    names base predicates whose facts live elsewhere (the lint corpus'
    ``% lint: known`` directive).
    """
    from .abstract import AbstractAnalysis

    analysis = AbstractAnalysis.of(program, database, known=known)
    return _abstract_findings(analysis)


def _abstract_findings(analysis) -> List[Diagnostic]:
    """Convert converged rule insights into DL7xx diagnostics."""
    findings: List[Diagnostic] = []
    for insight in analysis.insights:
        rule = insight.rule
        span = None
        if insight.literal is not None:
            span = insight.literal.span
        if span is None:
            span = rule.span
        if insight.kind == "empty-join":
            findings.append(
                Diagnostic(
                    code="DL701",
                    severity=Severity.WARNING,
                    message=f"join is provably empty: {insight.detail}",
                    span=span,
                    rule=str(rule),
                    hint=(
                        "the rule can never derive a fact; check the "
                        "joined predicates' argument sorts and constants"
                    ),
                )
            )
        elif insight.kind == "builtin-sorts":
            findings.append(
                Diagnostic(
                    code="DL703",
                    severity=Severity.WARNING,
                    message=insight.detail,
                    span=span,
                    rule=str(rule),
                    hint=(
                        "an ordered comparison of incompatible sorts raises "
                        "TypeError at evaluation time"
                    ),
                )
            )
        elif insight.kind == "never-fires" and analysis.seed_facts > 0:
            findings.append(
                Diagnostic(
                    code="DL704",
                    severity=Severity.HINT,
                    message=(
                        "rule can never fire under the current extensional "
                        f"database: {insight.detail}"
                    ),
                    span=span,
                    rule=str(rule),
                )
            )
    for rule, position in analysis.recursion_mismatches:
        head_span = rule.head.span if rule.head.span is not None else rule.span
        findings.append(
            Diagnostic(
                code="DL702",
                severity=Severity.WARNING,
                message=(
                    f"sort-mismatched recursion: column {position} of "
                    f"{rule.head.predicate!r} receives sorts from this "
                    "recursive rule that no base case of the predicate "
                    "produces"
                ),
                span=head_span,
                rule=str(rule),
                hint=(
                    "the recursion can only recirculate values its base "
                    "cases never supply; check the column's sorts"
                ),
            )
        )
    return sorted(findings, key=Diagnostic.sort_key)


# ---------------------------------------------------------------------------
# Per-rule safety (exact variable + position) -- shared with UnsafeRuleError
# ---------------------------------------------------------------------------

def rule_safety_diagnostics(rule: Rule) -> List[Diagnostic]:
    """Every safety violation of ``rule``, naming the exact unbound variable.

    Mirrors :meth:`repro.datalog.rules.Rule.is_safe` check for check, but
    instead of a boolean produces one :class:`Diagnostic` per unbound
    variable with its source span and head/literal position --
    ``UnsafeRuleError`` carries the first of these.
    """
    diagnostics: List[Diagnostic] = []
    rendered = str(rule)
    if not rule.body:
        if not rule.head.is_ground:
            offenders = sorted({v.name for v in rule.head.variables()})
            first = next(iter(rule.head.variables()), None)
            diagnostics.append(
                Diagnostic(
                    code="DL206",
                    severity=Severity.ERROR,
                    message=(
                        f"fact {rule} has a non-ground head: "
                        f"variable(s) {', '.join(offenders)} have no value"
                    ),
                    span=(first.span if first is not None else None) or rule.span,
                    rule=rendered,
                    hint="facts must list constants only; did you mean to add a body?",
                )
            )
        return diagnostics

    bound: Set[Variable] = set()
    for lit in rule.positive_body():
        bound.update(lit.variables())

    for position, term in enumerate(rule.head.args):
        if isinstance(term, Variable) and term not in bound:
            diagnostics.append(
                Diagnostic(
                    code="DL201",
                    severity=Severity.ERROR,
                    message=(
                        f"unsafe rule: head variable {term.name!r} (position "
                        f"{position + 1} of {rule.head.predicate!r}) is not bound "
                        "by any positive body literal"
                    ),
                    span=term.span or rule.span,
                    rule=rendered,
                    hint=(
                        f"add a positive body literal mentioning {term.name} "
                        "or replace it with a constant"
                    ),
                )
            )
        elif isinstance(term, AggregateTerm) and term.var not in bound:
            diagnostics.append(
                Diagnostic(
                    code="DL203",
                    severity=Severity.ERROR,
                    message=(
                        f"unsafe aggregate: variable {term.var.name!r} of "
                        f"{term.func}({term.var.name}) is not bound by any "
                        "positive body literal"
                    ),
                    span=term.span or rule.span,
                    rule=rendered,
                )
            )

    for lit in rule.builtin_body():
        for term in lit.args:
            if isinstance(term, Variable) and term not in bound:
                diagnostics.append(
                    Diagnostic(
                        code="DL202",
                        severity=Severity.ERROR,
                        message=(
                            f"built-in comparison {lit} can never become ground: "
                            f"variable {term.name!r} is not bound by any positive "
                            "body literal"
                        ),
                        span=term.span or lit.span or rule.span,
                        rule=rendered,
                        hint=(
                            "built-ins only filter; bind the variable with a "
                            "positive literal first"
                        ),
                    )
                )

    for lit in rule.negated_body():
        for term in lit.args:
            if (
                isinstance(term, Variable)
                and not term.is_anonymous
                and term not in bound
            ):
                diagnostics.append(
                    Diagnostic(
                        code="DL203",
                        severity=Severity.ERROR,
                        message=(
                            f"unsafe negation: variable {term.name!r} of {lit} is "
                            "not bound by any positive body literal"
                        ),
                        span=term.span or lit.span or rule.span,
                        rule=rendered,
                        hint=(
                            "bind it positively, or use '_' if the position is "
                            "existential within the anti-join"
                        ),
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# Stratification cycle witness (shared with StratificationError)
# ---------------------------------------------------------------------------

def stratification_cycle_diagnostic(
    program: Program,
    dependency_graph: Dict[str, Set[str]],
    component: FrozenSet[str],
    head: str,
    dependency: str,
    message: str,
) -> Diagnostic:
    """The ``DL301`` diagnostic for a negative arc inside ``component``.

    The witness is the full dependency cycle ``head -> dependency -> ... ->
    head`` rendered as a chain of related source spans, one per arc, each
    pointing at the body literal that creates the dependency.
    """
    cycle = _cycle_through(dependency_graph, component, head, dependency)
    related: List[Related] = []
    primary_span: Optional[Span] = None
    for position in range(len(cycle) - 1):
        source, target = cycle[position], cycle[position + 1]
        witness_rule, witness_span, negative = _dependency_witness(
            program, source, target
        )
        if position == 0 and witness_span is not None:
            primary_span = witness_span
        step = f"{source!r} depends {'negatively ' if negative else ''}on {target!r}"
        if witness_rule is not None:
            step += f" in rule {witness_rule}"
        related.append(Related(message=step, span=witness_span))
    return Diagnostic(
        code="DL301",
        severity=Severity.ERROR,
        message=message,
        span=primary_span,
        related=tuple(related),
        hint=(
            "break the cycle: negation and aggregation must only read strata "
            "that are already complete"
        ),
    )


def _cycle_through(
    graph: Dict[str, Set[str]],
    component: FrozenSet[str],
    head: str,
    dependency: str,
) -> List[str]:
    """A shortest ``head -> dependency -> ... -> head`` path in ``component``."""
    if dependency == head:
        return [head, head]
    # BFS from `dependency` back to `head`, staying inside the component.
    parents: Dict[str, str] = {}
    frontier = [dependency]
    seen = {dependency}
    while frontier and head not in parents:
        next_frontier: List[str] = []
        for node in frontier:
            for successor in sorted(graph.get(node, ())):
                if successor not in component or successor in seen:
                    continue
                parents[successor] = node
                seen.add(successor)
                next_frontier.append(successor)
                if successor == head:
                    break
        frontier = next_frontier
    path = [head]
    node = head
    while node != dependency:
        node = parents.get(node, dependency)
        path.append(node)
    path.reverse()  # dependency ... head
    return [head] + path


def _dependency_witness(
    program: Program, source: str, target: str
) -> Tuple[Optional[Rule], Optional[Span], bool]:
    """A rule (and literal span) showing that ``source`` reads ``target``."""
    fallback: Tuple[Optional[Rule], Optional[Span], bool] = (None, None, False)
    for rule in program.rules_for(source):
        for lit in rule.body:
            if lit.is_builtin or lit.predicate != target:
                continue
            negative = lit.negated or rule.is_aggregate
            if negative:
                return rule, lit.span or rule.span, True
            if fallback[0] is None:
                fallback = (rule, lit.span or rule.span, False)
    return fallback


# ---------------------------------------------------------------------------
# Binding-mode analysis (reuses core.adornment)
# ---------------------------------------------------------------------------

def _binding_pattern(query: Literal) -> str:
    return "".join(
        "b" if isinstance(term, Constant) else "f" for term in query.args
    )


def chain_feasibility(
    program: Program,
    query: Literal,
    analysis: Optional[object] = None,
) -> Tuple[bool, str]:
    """Can the Section 4 chain transformation execute ``query``?

    Adorns the program for the query's binding pattern (constants are bound)
    and checks the chain-program condition -- the exact preconditions under
    which the top-down/magic-style demand strategies are equivalence
    preserving.  Returns ``(feasible, reason)``; the reason names the
    violating adorned rule when infeasible.  Memoized per program analysis
    and ``(predicate, binding pattern)``, so the planner can consult it on
    hot per-query paths.
    """
    from ..core.adornment import adorn
    from .analysis import ProgramAnalysis
    from .errors import NotApplicableError

    resolved = analysis if analysis is not None else ProgramAnalysis.of(program)
    memo: Dict[Tuple[str, str], Tuple[bool, str]] = resolved.__dict__.setdefault(
        "_binding_mode_memo", {}
    )
    key = (query.predicate, _binding_pattern(query))
    cached = memo.get(key)
    if cached is not None:
        return cached
    try:
        adorned = adorn(program, query, resolved)  # type: ignore[arg-type]
    except NotApplicableError as exc:
        result = (False, str(exc))
        memo[key] = result
        return result
    violations = adorned.violations()
    if violations:
        result = (
            False,
            f"adorned rule `{violations[0]}` violates the chain condition "
            "(a prefix variable is also a free head variable)",
        )
    else:
        result = (True, "")
    memo[key] = result
    return result


def query_strategy_report(
    program: Program,
    query: Literal,
    analysis: Optional[object] = None,
) -> Dict[str, Tuple[bool, str]]:
    """Per-strategy executability prediction for ``query``.

    Keys are ``"graph"``, ``"chain"`` and ``"magic"``; values are
    ``(feasible, reason)``.  The graph entry mirrors the planner's
    structural test, the chain entry is the adornment-based
    :func:`chain_feasibility`, and the magic entry consults the magic
    engine's own ``applicable`` check.
    """
    from .analysis import ProgramAnalysis

    resolved = analysis if analysis is not None else ProgramAnalysis.of(program)
    report: Dict[str, Tuple[bool, str]] = {}
    if not program.is_positive:
        reason = "stratified programs evaluate bottom-up only"
        return {"graph": (False, reason), "chain": (False, reason), "magic": (False, reason)}
    if (
        query.arity == 2
        and resolved.is_binary_chain_program()  # type: ignore[attr-defined]
        and resolved.is_linear_program()  # type: ignore[attr-defined]
    ):
        report["graph"] = (True, "")
    else:
        report["graph"] = (
            False,
            "graph traversal needs a linear binary-chain program and a binary query",
        )
    if resolved.is_linear_program():  # type: ignore[attr-defined]
        report["chain"] = chain_feasibility(program, query, resolved)
    else:
        report["chain"] = (False, "the chain transformation needs a linear program")
    try:
        from ..engines import get_engine

        magic_ok = get_engine("magic").applicable(program, query)
        report["magic"] = (
            (True, "") if magic_ok else (False, "magic sets reject this program/query")
        )
    except Exception:  # pragma: no cover - engines unavailable mid-bootstrap
        report["magic"] = (False, "magic engine unavailable")
    return report


# ---------------------------------------------------------------------------
# The lint driver
# ---------------------------------------------------------------------------

QueryLike = Union[str, Literal]


def lint_source(
    text: str,
    queries: Sequence[QueryLike] = (),
    known_predicates: Iterable[str] = (),
    analyze: bool = False,
) -> List[Diagnostic]:
    """Lint program *text*: parse errors become ``DL101`` diagnostics."""
    from .parser import parse_query, parse_rules

    try:
        rules = parse_rules(text)
        parsed_queries = [
            parse_query(q) if isinstance(q, str) else q for q in queries
        ]
    except DatalogSyntaxError as exc:
        return [exc.diagnostic]
    return lint_rules(
        rules,
        queries=parsed_queries,
        known_predicates=known_predicates,
        analyze=analyze,
    )


def lint_program(
    program: Program,
    queries: Sequence[QueryLike] = (),
    known_predicates: Iterable[str] = (),
    analyze: bool = False,
) -> List[Diagnostic]:
    """Lint an (already constructed) :class:`Program`."""
    from .parser import parse_query

    parsed = [parse_query(q) if isinstance(q, str) else q for q in queries]
    linter = _Linter(
        program.rules, parsed, known_predicates, program=program, analyze=analyze
    )
    return linter.run()


def lint_rules(
    rules: Sequence[Rule],
    queries: Sequence[Literal] = (),
    known_predicates: Iterable[str] = (),
    analyze: bool = False,
) -> List[Diagnostic]:
    """Run every check over a (possibly invalid) rule list.

    Unlike :class:`Program` construction, nothing raises: every problem --
    including the ones construction would reject -- comes back as a
    :class:`Diagnostic`, sorted by source position.  ``analyze=True`` adds
    the abstract-interpretation DL7xx checks (open-world: predicates in
    ``known_predicates`` are assumed non-empty with unknown domains).
    """
    linter = _Linter(rules, queries, known_predicates, analyze=analyze)
    return linter.run()


def check_program(
    program: Program,
    database: Optional[object] = None,
    queries: Sequence[QueryLike] = (),
) -> List[Diagnostic]:
    """The eager prepare-time driver: errors raise, warnings are returned.

    ``database`` (a :class:`~repro.datalog.database.Database`) contributes
    its relation names as known EDB predicates so externally loaded
    relations do not show up as undefined.  Raises
    :class:`~repro.datalog.errors.StratificationError` (the one error class
    a structurally validated program can still contain); every
    warning/hint-severity diagnostic is returned for the caller to collect.
    """
    from .analysis import Stratification

    if not program.is_positive:
        Stratification.of(program)
    known: Set[str] = set()
    relations = getattr(database, "relations", None)
    if relations:
        known.update(relations.keys())
    diagnostics = lint_program(program, queries=queries, known_predicates=known)
    diagnostics.extend(abstract_diagnostics(program, database=database))
    return sorted(diagnostics, key=Diagnostic.sort_key)


class _Linter:
    """One lint run: rules in, sorted diagnostics out."""

    #: Bodies longer than this skip the (quadratic, backtracking)
    #: subsumption check; everything in the paper is far below it.
    SUBSUMPTION_BODY_LIMIT = 8

    def __init__(
        self,
        rules: Sequence[Rule],
        queries: Sequence[Literal],
        known_predicates: Iterable[str],
        program: Optional[Program] = None,
        analyze: bool = False,
    ):
        self.rules = list(rules)
        self.queries = list(queries)
        self.known = set(known_predicates)
        self.program = program  # reuse the caller's (memoized) analysis
        self.analyze = analyze
        self.diagnostics: List[Diagnostic] = []

    def run(self) -> List[Diagnostic]:
        clashing = self._check_arities()
        for rule in self.rules:
            self.diagnostics.extend(rule_safety_diagnostics(rule))
            self._check_singletons(rule)
            self._check_contradictions(rule)
        self._check_base_derived_overlap()
        self._check_duplicates_and_subsumption()
        # Program construction re-derives arities, so the graph-level checks
        # run on the rules untouched by any arity clash (all of them, in the
        # common case where `clashing` is empty).
        usable = [
            rule
            for rule in self.rules
            if not clashing
            or (
                rule.head.predicate not in clashing
                and all(
                    lit.predicate not in clashing
                    for lit in rule.body
                    if not lit.is_builtin
                )
            )
        ]
        program = (
            self.program
            if self.program is not None and not clashing
            else Program(usable, validate=False)
        )
        self._check_stratification(program)
        self._check_undefined()
        self._check_unused(program)
        self._check_query_feasibility(program)
        if self.analyze:
            self._check_abstract(program)
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def _check_abstract(self, program: Program) -> None:
        """The opt-in DL7xx abstract-interpretation checks (open world)."""
        try:
            self.diagnostics.extend(
                abstract_diagnostics(program, known=self.known)
            )
        except Exception:
            # Lint never raises; a rule list broken enough to defeat the
            # abstract interpreter already produced error diagnostics above.
            pass

    # -- structural errors -------------------------------------------------

    def _check_arities(self) -> Set[str]:
        arities: Dict[str, Tuple[int, Optional[Span]]] = {}
        clashing: Set[str] = set()
        for rule in self.rules:
            literals = [rule.head] + [
                lit for lit in rule.body if not lit.is_builtin
            ]
            for lit in literals:
                known = arities.get(lit.predicate)
                if known is None:
                    arities[lit.predicate] = (lit.arity, lit.span)
                elif known[0] != lit.arity:
                    clashing.add(lit.predicate)
                    self.diagnostics.append(
                        Diagnostic(
                            code="DL204",
                            severity=Severity.ERROR,
                            message=(
                                f"predicate {lit.predicate!r} is used here with "
                                f"arity {lit.arity} but was first used with "
                                f"arity {known[0]}"
                            ),
                            span=lit.span or rule.span,
                            rule=str(rule),
                            related=(
                                Related(
                                    message=f"first use with arity {known[0]}",
                                    span=known[1],
                                ),
                            ),
                        )
                    )
        return clashing

    def _check_base_derived_overlap(self) -> None:
        derived = {r.head.predicate for r in self.rules if r.body}
        for rule in self.rules:
            if not rule.body and rule.head.predicate in derived:
                self.diagnostics.append(
                    Diagnostic(
                        code="DL205",
                        severity=Severity.ERROR,
                        message=(
                            f"predicate {rule.head.predicate!r} has facts here "
                            "but is also defined by rules; base and derived "
                            "predicates must be disjoint"
                        ),
                        span=rule.span,
                        rule=str(rule),
                        hint=(
                            "rename the fact predicate and add a bridging rule "
                            "if both sources are needed"
                        ),
                    )
                )

    def _check_stratification(self, program: Program) -> None:
        if program.is_positive:
            return
        from .analysis import Stratification

        try:
            Stratification.of(program)
        except StratificationError as exc:
            self.diagnostics.append(exc.diagnostic)

    # -- warnings ----------------------------------------------------------

    def _check_singletons(self, rule: Rule) -> None:
        if not rule.body:
            return
        occurrences: Dict[str, int] = {}
        first_span: Dict[str, Optional[Span]] = {}

        def visit(term: Term) -> None:
            if isinstance(term, AggregateTerm):
                visit(term.var)
                return
            if isinstance(term, Variable) and not term.name.startswith("_"):
                occurrences[term.name] = occurrences.get(term.name, 0) + 1
                first_span.setdefault(term.name, term.span)

        for term in rule.head.args:
            visit(term)
        for lit in rule.body:
            for term in lit.args:
                visit(term)
        for name, count in occurrences.items():
            if count == 1:
                self.diagnostics.append(
                    Diagnostic(
                        code="DL403",
                        severity=Severity.WARNING,
                        message=(
                            f"variable {name!r} occurs only once in this rule; "
                            "a name used once never joins with anything"
                        ),
                        span=first_span[name] or rule.span,
                        rule=str(rule),
                        hint=(
                            "replace it with '_' if the position is intentionally "
                            "unused (each '_' is a fresh variable)"
                        ),
                    )
                )

    def _check_contradictions(self, rule: Rule) -> None:
        builtins = rule.builtin_body()
        if not builtins:
            return
        for lit in builtins:
            if lit.arity != 2:
                continue
            if lit.is_ground:
                try:
                    holds = lit.evaluate_builtin()
                except (TypeError, ValueError):
                    continue
                if not holds:
                    self._empty_body(rule, f"comparison {lit} is always false", lit.span)
                    return
            left, right = lit.args
            if (
                isinstance(left, Variable)
                and isinstance(right, Variable)
                and left == right
                and lit.predicate in ("<", ">", "!=")
            ):
                self._empty_body(
                    rule, f"comparison {lit} can never hold", lit.span
                )
                return
        conflict = _interval_conflict(builtins)
        if conflict is not None:
            variable, reason, span = conflict
            self._empty_body(
                rule,
                f"the comparisons on variable {variable!r} are unsatisfiable "
                f"({reason})",
                span,
            )

    def _empty_body(self, rule: Rule, reason: str, span: Optional[Span]) -> None:
        self.diagnostics.append(
            Diagnostic(
                code="DL406",
                severity=Severity.WARNING,
                message=f"{reason}: the rule body is provably empty and the rule "
                "can never derive anything",
                span=span or rule.span,
                rule=str(rule),
                hint="delete the rule or fix the comparison bounds",
            )
        )

    def _check_duplicates_and_subsumption(self) -> None:
        seen: Dict[Rule, Rule] = {}
        for rule in self.rules:
            first = seen.get(rule)
            if first is None:
                seen[rule] = rule
                continue
            kind = "fact" if not rule.body else "rule"
            self.diagnostics.append(
                Diagnostic(
                    code="DL404",
                    severity=Severity.WARNING,
                    message=f"this {kind} is an exact duplicate of an earlier one",
                    span=rule.span,
                    rule=str(rule),
                    related=(
                        Related(message="first occurrence", span=first.span),
                    ),
                )
            )
        # theta-subsumption between distinct rules sharing a head predicate
        by_head: Dict[str, List[Rule]] = {}
        for rule in self.rules:
            if (
                rule.body
                and not rule.is_aggregate
                and len(rule.body) <= self.SUBSUMPTION_BODY_LIMIT
            ):
                by_head.setdefault(rule.head.predicate, []).append(rule)
        for group in by_head.values():
            # Flagged rules by their index within the head group.
            flagged = [False] * len(group)
            for index, specific in enumerate(group):
                if flagged[index]:
                    continue
                for general_index, general in enumerate(group):
                    if general is specific or general == specific:
                        continue
                    if len(general.body) > len(specific.body):
                        continue
                    if flagged[general_index]:
                        continue
                    if general_index > index and _subsumes(specific, general):
                        # Mutual (alpha-equivalent) pair: only the later
                        # occurrence gets flagged, as its own `specific`.
                        continue
                    if _subsumes(general, specific):
                        flagged[index] = True
                        self.diagnostics.append(
                            Diagnostic(
                                code="DL405",
                                severity=Severity.WARNING,
                                message=(
                                    "this rule is subsumed by the more general "
                                    f"rule {general}: every fact it derives is "
                                    "already derived there"
                                ),
                                span=specific.span,
                                rule=str(specific),
                                related=(
                                    Related(
                                        message="subsuming rule",
                                        span=general.span,
                                    ),
                                ),
                                hint="delete the redundant rule",
                            )
                        )
                        break

    def _check_undefined(self) -> None:
        defined = {rule.head.predicate for rule in self.rules} | self.known
        reported: Set[str] = set()
        for rule in self.rules:
            for lit in rule.body:
                if lit.is_builtin or lit.predicate in defined:
                    continue
                if lit.predicate in reported:
                    continue
                reported.add(lit.predicate)
                self.diagnostics.append(
                    Diagnostic(
                        code="DL401",
                        severity=Severity.WARNING,
                        message=(
                            f"predicate {lit.predicate!r}/{lit.arity} is used "
                            "here but has no rule, no fact, and is not a known "
                            "EDB relation"
                        ),
                        span=lit.span or rule.span,
                        rule=str(rule),
                        hint="load facts for it, define it, or fix the spelling",
                    )
                )

    def _check_unused(self, program: Program) -> None:
        if not program.idb_rules():
            return  # a pure fact file is a data file; everything is queryable
        from .analysis import ProgramAnalysis, reachable_from

        analysis = ProgramAnalysis.of(program)
        graph = analysis.dependency_graph
        if self.queries:
            roots = {query.predicate for query in self.queries}
        else:
            # Without explicit queries, assume the caller queries the
            # top-level derived predicates: heads consumed by no rule of a
            # *different* SCC (a recursive predicate reading itself is still
            # top-level, so the condensation decides, not raw bodies).
            component_of = analysis._component_of
            consumed: Set[str] = set()
            for head, targets in graph.items():
                head_component = component_of.get(head, frozenset({head}))
                for target in targets:
                    if target not in head_component:
                        consumed.add(target)
            roots = {
                p for p in program.derived_predicates if p not in consumed
            }
            if not roots:
                roots = set(program.derived_predicates)
        reachable: Set[str] = set(roots)
        for root in roots:
            reachable |= {str(p) for p in reachable_from(graph, root)}
        reported: Set[str] = set()
        for rule in program.rules:
            predicate = rule.head.predicate
            if predicate in reachable or predicate in reported:
                continue
            if not rule.body and predicate in self.known:
                continue
            reported.add(predicate)
            what = "facts for" if not rule.body else "the rules defining"
            self.diagnostics.append(
                Diagnostic(
                    code="DL402",
                    severity=Severity.HINT,
                    message=(
                        f"{what} {predicate!r} are unreachable from "
                        + (
                            "the linted queries"
                            if self.queries
                            else "every top-level predicate"
                        )
                        + "; nothing can ever read them"
                    ),
                    span=rule.span,
                    rule=str(rule),
                    hint="delete the dead definition or query it explicitly",
                )
            )

    def _check_query_feasibility(self, program: Program) -> None:
        if not self.queries or not program.is_positive:
            return
        from ..core.planner import classify_query
        from .analysis import ProgramAnalysis

        analysis = ProgramAnalysis.of(program)
        for query in self.queries:
            if query.predicate not in program.derived_predicates:
                continue
            if not analysis.is_linear_program():
                continue
            feasible, reason = chain_feasibility(program, query, analysis)
            if feasible:
                continue
            served = classify_query(program, query, analysis)
            self.diagnostics.append(
                Diagnostic(
                    code="DL501",
                    severity=Severity.HINT,
                    message=(
                        f"query {query}: the demand (top-down/magic) strategies "
                        f"cannot execute this binding pattern -- {reason}; "
                        f"it will be served {served}"
                    ),
                    span=query.span,
                )
            )


# ---------------------------------------------------------------------------
# Interval constant-folding over builtin conjunctions
# ---------------------------------------------------------------------------

#: lower/upper bound updates per comparison operator, var-on-the-left form.
_NUMERIC = (int, float)


def _interval_conflict(
    builtins: Sequence[Literal],
) -> Optional[Tuple[str, str, Optional[Span]]]:
    """Find a variable whose numeric comparison bounds are unsatisfiable.

    Folds every ``X op constant`` (and mirrored ``constant op X``)
    comparison into one interval per variable -- ``X < 2, X > 5`` leaves an
    empty interval, as does ``X = a, X = b`` for distinct constants of any
    type.  Returns ``(variable, reason, span)`` for the first conflict, or
    ``None``.  Purely static: no rule with a satisfiable conjunction is
    ever reported (near misses like ``X < 2`` in one rule and ``X > 5`` in
    another fold separately).
    """
    lower: Dict[str, Tuple[float, bool, Literal]] = {}  # value, inclusive
    upper: Dict[str, Tuple[float, bool, Literal]] = {}
    equal: Dict[str, Tuple[object, Literal]] = {}
    for lit in builtins:
        if lit.arity != 2:
            continue
        left, right = lit.args
        op = lit.predicate
        if isinstance(left, Variable) and isinstance(right, Constant):
            variable, value = left, right.value
        elif isinstance(left, Constant) and isinstance(right, Variable):
            variable, value = right, left.value
            op = _MIRROR.get(op, op)
        else:
            continue
        name = variable.name
        if op in ("=", "=="):
            previous = equal.get(name)
            if previous is not None and previous[0] != value:
                return (
                    name,
                    f"{name} = {previous[0]!r} conflicts with {name} = {value!r}",
                    merge_spans(previous[1].span, lit.span),
                )
            equal[name] = (value, lit)
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                _tighten(lower, name, float(value), True, lit, is_lower=True)
                _tighten(upper, name, float(value), True, lit, is_lower=False)
        elif op in ("<", "<="):
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                _tighten(upper, name, float(value), op == "<=", lit, is_lower=False)
        elif op in (">", ">="):
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                _tighten(lower, name, float(value), op == ">=", lit, is_lower=True)
    for name, (low, low_inclusive, low_lit) in lower.items():
        bound = upper.get(name)
        if bound is None:
            continue
        high, high_inclusive, high_lit = bound
        if low > high or (low == high and not (low_inclusive and high_inclusive)):
            return (
                name,
                f"{low_lit} conflicts with {high_lit}",
                merge_spans(low_lit.span, high_lit.span),
            )
    return None


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _tighten(
    bounds: Dict[str, Tuple[float, bool, Literal]],
    name: str,
    value: float,
    inclusive: bool,
    lit: Literal,
    is_lower: bool,
) -> None:
    current = bounds.get(name)
    if current is None:
        bounds[name] = (value, inclusive, lit)
        return
    held, held_inclusive, _ = current
    tighter = value > held if is_lower else value < held
    if tighter or (value == held and held_inclusive and not inclusive):
        bounds[name] = (value, inclusive, lit)


# ---------------------------------------------------------------------------
# Theta-subsumption (restricted, for DL405)
# ---------------------------------------------------------------------------

def _subsumes(general: Rule, specific: Rule) -> bool:
    """Does ``general`` theta-subsume ``specific``?

    True when a substitution over ``general``'s variables maps its head to
    ``specific``'s head and every body literal into ``specific``'s body --
    under set semantics the specific rule is then redundant.  Negated
    literals only match negated literals (and vice versa), so the check is
    sound with stratified negation.
    """
    binding: Dict[str, Term] = {}
    if not _match_literal(general.head, specific.head, binding):
        return False
    return _match_body(list(general.body), tuple(specific.body), binding)


def _match_body(
    remaining: List[Literal],
    targets: Tuple[Literal, ...],
    binding: Dict[str, Term],
) -> bool:
    if not remaining:
        return True
    literal = remaining[0]
    for target in targets:
        trial = dict(binding)
        if _match_literal(literal, target, trial):
            if _match_body(remaining[1:], targets, trial):
                binding.clear()
                binding.update(trial)
                return True
    return False


def _match_literal(source: Literal, target: Literal, binding: Dict[str, Term]) -> bool:
    if (
        source.predicate != target.predicate
        or source.negated != target.negated
        or source.arity != target.arity
    ):
        return False
    for source_term, target_term in zip(source.args, target.args):
        if not _match_term(source_term, target_term, binding):
            return False
    return True


def _match_term(source: Term, target: Term, binding: Dict[str, Term]) -> bool:
    if isinstance(source, Constant):
        return isinstance(target, Constant) and source == target
    if isinstance(source, AggregateTerm):
        return (
            isinstance(target, AggregateTerm)
            and source.func == target.func
            and _match_term(source.var, target.var, binding)
        )
    if isinstance(source, Variable):
        bound = binding.get(source.name)
        if bound is None:
            binding[source.name] = target
            return True
        return bound == target
    return False  # pragma: no cover - no other term kinds exist
