"""Semantics-preserving program transformations (the program optimizer).

The abstract interpretation of :mod:`repro.datalog.abstract` proves facts
*about* a program; this module spends them, rewriting the program into a
smaller one that derives exactly the same answers:

* **never-fires elimination** -- a rule the converged analysis proves can
  derive nothing under the current extensional database is dropped;
* **constant propagation** -- a variable whose inferred rule-local domain is
  a single known value is replaced by that value everywhere in the rule;
* **subsumption minimization** -- a rule theta-subsumed by another rule of
  the same predicate is redundant under set semantics and is dropped (the
  rewrite DL405 only warns about);
* **unfolding** -- a non-recursive predicate with a single defining rule
  that never occurs negated is inlined into its callers;
* **dead-rule / dead-predicate elimination** -- rules (and embedded facts)
  whose head is unreachable from the queried predicates are dropped.

Every pass preserves the stratified model restricted to the queried
predicates: the differential test suite proves answers identical against
the untransformed program for every engine x plan mode x execution mode.

The ``optimize`` setting of :class:`repro.config.EvalConfig` selects it:

* ``False`` (default) -- :meth:`repro.engines.base.Engine.answer` runs the
  program as written; every paper-sample counter pin stays bit-identical;
* ``True`` -- ``answer`` rewrites the program (guarded by the engine's
  applicability check: an engine restricted to a syntactic class falls back
  to the original program when the rewrite leaves the class).

Transforms apply to one-shot evaluation only.  Incremental sessions
(:meth:`~repro.session.session.Session.materialize` / resume) keep the
program as written: constant propagation and never-fires elimination are
justified by the *current* EDB and would be unsound across later inserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import current_config
from .abstract import AbstractAnalysis, database_ref
from .analysis import ProgramAnalysis, reachable_from
from .literals import Literal
from .rules import Program, Rule
from .terms import AggregateTerm, Constant, Term, Variable

from .diagnostics import _subsumes

#: Subsumption checks are exponential in the body size; same cap as the
#: diagnostics layer's DL405 (``_Linter.SUBSUMPTION_BODY_LIMIT``).
SUBSUMPTION_BODY_LIMIT = 8

#: Unfolding stops growing a body beyond this many literals; inlining past
#: that trades rule count for join width the planner then has to claw back.
UNFOLD_BODY_LIMIT = 12


def get_program_opt() -> str:
    """The calling thread's ``optimize`` setting as ``"on"`` or ``"off"``."""
    return "on" if current_config().optimize else "off"


@dataclass
class TransformReport:
    """What the optimizer did to one program."""

    rules_in: int = 0
    rules_out: int = 0
    never_fires_removed: int = 0
    constants_propagated: int = 0
    subsumed_removed: int = 0
    unfolded_predicates: Tuple[str, ...] = ()
    dead_rules_removed: int = 0
    dead_facts_removed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return (
            self.rules_in != self.rules_out
            or self.constants_propagated > 0
            or bool(self.unfolded_predicates)
        )

    def format(self) -> List[str]:
        """The ``explain()`` rendering, one fact per line."""
        lines = [f"program optimizer: rules {self.rules_in} -> {self.rules_out}"]
        if self.never_fires_removed:
            lines.append(f"  never-fires rules removed: {self.never_fires_removed}")
        if self.constants_propagated:
            lines.append(f"  constants propagated: {self.constants_propagated}")
        if self.subsumed_removed:
            lines.append(f"  subsumed rules removed: {self.subsumed_removed}")
        if self.unfolded_predicates:
            lines.append(
                "  unfolded predicates: "
                + ", ".join(self.unfolded_predicates)
            )
        if self.dead_rules_removed or self.dead_facts_removed:
            lines.append(
                f"  dead rules removed: {self.dead_rules_removed}"
                f" (+{self.dead_facts_removed} dead facts)"
            )
        lines.extend(f"  {note}" for note in self.notes)
        return lines


@dataclass
class TransformResult:
    """The optimized program plus the report of what changed."""

    program: Program
    report: TransformReport


def optimize(
    program: Program,
    queries: Sequence[str] = (),
    database: Optional[object] = None,
) -> TransformResult:
    """Rewrite ``program`` preserving its answers for ``queries``.

    ``queries`` names the predicates whose extensions must be preserved
    (dead-code elimination is relative to them; when empty, every predicate
    is treated as live).  ``database`` supplies the extensional facts the
    never-fires and constant-propagation passes reason from; results are
    memoized per program instance, database object and database version.
    """
    queries_key = tuple(sorted(set(queries)))
    key = (queries_key, database.version if database is not None else None)
    memo = program.__dict__.get("_transform_memo")
    if memo is not None and memo[0] == key and memo[1]() is database:
        return memo[2]
    result = _optimize(program, queries_key, database)
    program._transform_memo = (key, database_ref(database), result)
    return result


def _optimize(
    program: Program,
    queries: Tuple[str, ...],
    database: Optional[object],
) -> TransformResult:
    report = TransformReport(rules_in=len(program.rules))
    abstract = AbstractAnalysis.of(program, database)

    # Elimination passes only ever drop rules whose evaluation is provably
    # *silent* (abstract.builtin_safe): a rule with an ordered comparison
    # over possibly-incompatible sorts raises TypeError when evaluated, and
    # removing it would turn that raise into a success -- not semantics-
    # preserving, however dead the rule is.
    rules: List[Rule] = []
    for rule in program.rules:
        if rule.body and abstract.never_fires(rule) and abstract.builtin_safe(rule):
            report.never_fires_removed += 1
            continue
        rules.append(rule)

    rules = [_propagate_constants(rule, abstract, report) for rule in rules]
    rules = _minimize_subsumed(rules, abstract, report)
    rules = _unfold(rules, program, report)
    rules = _eliminate_dead(rules, queries, abstract, report)

    report.rules_out = len(rules)
    if not report.changed:
        return TransformResult(program, report)
    optimized = Program(rules, validate=False)
    return TransformResult(optimized, report)


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------

def _propagate_constants(
    rule: Rule, abstract: AbstractAnalysis, report: TransformReport
) -> Rule:
    """Replace singleton-domain variables by their value, rule-locally."""
    if not rule.body:
        return rule
    env = abstract.environment(rule)
    if env is None:
        return rule
    aggregate_vars = {term.var for term in rule.head.aggregate_terms()}
    substitution: Dict[Variable, Term] = {}
    for variable, column in env.items():
        if variable.is_anonymous or variable in aggregate_vars:
            continue
        if column.is_singleton:
            substitution[variable] = Constant(column.singleton_value())
    if not substitution:
        return rule
    report.constants_propagated += len(substitution)
    return _substitute_rule(rule, substitution)


def _substitute_rule(rule: Rule, substitution: Dict[Variable, Term]) -> Rule:
    head = _substitute_literal(rule.head, substitution)
    body = tuple(_substitute_literal(lit, substitution) for lit in rule.body)
    rewritten = Rule(head, body)
    rewritten.span = rule.span
    return rewritten


def _substitute_literal(
    literal: Literal, substitution: Dict[Variable, Term]
) -> Literal:
    args: List[Term] = []
    changed = False
    for term in literal.args:
        replaced = _substitute_term(term, substitution)
        changed = changed or replaced is not term
        args.append(replaced)
    if not changed:
        return literal
    rewritten = literal.with_args(args)
    rewritten.span = literal.span
    return rewritten


def _substitute_term(term: Term, substitution: Dict[Variable, Term]) -> Term:
    if isinstance(term, Variable):
        return substitution.get(term, term)
    if isinstance(term, AggregateTerm):
        folded = substitution.get(term.var)
        if isinstance(folded, Variable):
            return AggregateTerm(term.func, folded)
        return term
    return term


# ---------------------------------------------------------------------------
# Subsumption-based minimization
# ---------------------------------------------------------------------------

def _minimize_subsumed(
    rules: List[Rule], abstract: AbstractAnalysis, report: TransformReport
) -> List[Rule]:
    """Drop rules theta-subsumed by an earlier (or surviving) rule.

    Aggregate-headed rules are exempt: two aggregate rules fold their own
    answer sets independently, so a subsumed rule's *folded* output is not
    a subset of the subsumer's.  A subsumed rule that is not
    :meth:`~AbstractAnalysis.builtin_safe` is kept too -- dropping it would
    also drop the ``TypeError`` its evaluation raises.
    """
    by_head: Dict[str, List[int]] = {}
    for position, rule in enumerate(rules):
        if rule.body:
            by_head.setdefault(rule.head.predicate, []).append(position)
    dropped: Set[int] = set()
    for positions in by_head.values():
        for i_index, i in enumerate(positions):
            if i in dropped:
                continue
            left = rules[i]
            if left.is_aggregate or len(left.body) > SUBSUMPTION_BODY_LIMIT:
                continue
            for j in positions[i_index + 1 :]:
                if j in dropped:
                    continue
                right = rules[j]
                if right.is_aggregate or len(right.body) > SUBSUMPTION_BODY_LIMIT:
                    continue
                if _subsumes(left, right) and abstract.builtin_safe(right):
                    dropped.add(j)
                elif _subsumes(right, left) and abstract.builtin_safe(left):
                    dropped.add(i)
                    break
    if dropped:
        report.subsumed_removed += len(dropped)
        return [rule for position, rule in enumerate(rules) if position not in dropped]
    return rules


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def _unfold(
    rules: List[Rule], original: Program, report: TransformReport
) -> List[Rule]:
    """Inline non-recursive single-definition predicates into their callers.

    A predicate qualifies when it is defined by exactly one surviving rule,
    is not recursive, never occurs negated anywhere, and its defining rule
    carries no negation and no aggregate head (inlining either would move a
    non-monotone construct across a rule boundary).
    """
    program = Program(rules, validate=False)
    analysis = ProgramAnalysis.of(program)
    negated_anywhere: Set[str] = set()
    for rule in rules:
        for literal in rule.body:
            if literal.negated:
                negated_anywhere.add(literal.predicate)

    candidates: Dict[str, Rule] = {}
    for predicate in program.derived_predicates:
        definitions = [r for r in program.rules_for(predicate) if r.body]
        if len(definitions) != 1:
            continue
        definition = definitions[0]
        if (
            predicate in analysis.recursive_predicates
            or predicate in negated_anywhere
            or definition.is_aggregate
            or any(lit.negated for lit in definition.body)
        ):
            continue
        candidates[predicate] = definition

    if not candidates:
        return rules

    unfolded: Set[str] = set()
    result: List[Rule] = []
    for rule in rules:
        rewritten = rule
        for predicate, definition in candidates.items():
            if rewritten.head.predicate == predicate:
                continue
            if any(
                lit.predicate == predicate and not lit.negated
                for lit in rewritten.body
                if not lit.is_builtin
            ):
                inlined = _unfold_rule(rewritten, predicate, definition)
                if inlined is not None:
                    rewritten = inlined
                    unfolded.add(predicate)
        result.append(rewritten)
    if unfolded:
        report.unfolded_predicates = tuple(sorted(unfolded))
    return result


def _unfold_rule(rule: Rule, predicate: str, definition: Rule) -> Optional[Rule]:
    """Unfold every positive ``predicate`` call in ``rule``, one at a time.

    The definition is non-recursive, so each expansion strictly removes one
    call and the loop terminates.  Returns ``None`` when nothing changed or
    the inlined body would exceed :data:`UNFOLD_BODY_LIMIT`.
    """
    changed = False
    while True:
        target_index = next(
            (
                index
                for index, lit in enumerate(rule.body)
                if not lit.is_builtin
                and not lit.negated
                and lit.predicate == predicate
            ),
            None,
        )
        if target_index is None:
            break
        target = rule.body[target_index]
        expansion = _expand_call(target, definition, {v.name for v in rule.variables()})
        if expansion is None:
            # Unification failed (constant clash): the call matches nothing;
            # leave the literal for the never-fires pass.
            break
        substitution, inlined = expansion
        new_body: List[Literal] = []
        for index, lit in enumerate(rule.body):
            if index == target_index:
                new_body.extend(inlined)
            else:
                new_body.append(lit)
        if len(new_body) > UNFOLD_BODY_LIMIT:
            break
        head = rule.head
        if substitution:
            head = _substitute_literal(head, substitution)
            new_body = [_substitute_literal(lit, substitution) for lit in new_body]
        span = rule.span
        rule = Rule(head, new_body)
        rule.span = span
        changed = True
    return rule if changed else None


def _expand_call(
    call: Literal, definition: Rule, taken: Set[str]
) -> Optional[Tuple[Dict[Variable, Term], List[Literal]]]:
    """Inline one call: unify the call args with the definition head.

    Definition-local variables are first renamed apart from every caller
    name, so one substitution over the (now disjoint) variable spaces is
    enough; the caller applies it to its whole rule and to the returned
    body literals alike.  Returns ``None`` when unification fails (two
    distinct constants meet).
    """
    renaming: Dict[Variable, Term] = {}
    counter = 0
    for variable in sorted(definition.variables(), key=lambda v: v.name):
        fresh = variable.name
        while fresh in taken:
            counter += 1
            fresh = f"{variable.name}__u{counter}"
        if fresh != variable.name:
            renaming[variable] = Variable(fresh)
        taken.add(fresh)
    head_args = [_substitute_term(term, renaming) for term in definition.head.args]
    body = [_substitute_literal(lit, renaming) for lit in definition.body]

    subst: Dict[Variable, Term] = {}

    def resolve(term: Term) -> Term:
        while isinstance(term, Variable) and term in subst:
            term = subst[term]
        return term

    for def_term, call_term in zip(head_args, call.args):
        left = resolve(def_term)
        right = resolve(call_term)
        if left == right:
            continue
        if isinstance(left, Variable):
            subst[left] = right
        elif isinstance(right, Variable):
            subst[right] = left
        elif isinstance(left, Constant) and isinstance(right, Constant):
            return None  # distinct constants: the call matches nothing
        else:  # pragma: no cover - aggregate terms never reach a body call
            return None

    # Close substitution chains (X -> A, A -> c  becomes  X -> c).
    closed = {variable: resolve(variable) for variable in subst}
    body = [_substitute_literal(lit, closed) for lit in body]
    return closed, body


# ---------------------------------------------------------------------------
# Query-directed dead-code elimination
# ---------------------------------------------------------------------------

def _eliminate_dead(
    rules: List[Rule],
    queries: Tuple[str, ...],
    abstract: AbstractAnalysis,
    report: TransformReport,
) -> List[Rule]:
    """Keep only rules reachable from the queried predicates.

    With no declared queries every predicate is live and the pass is a
    no-op.  The reachability graph includes negated and aggregate
    dependencies (:attr:`ProgramAnalysis.dependency_graph` is
    polarity-complete), so a stratum a query reads through negation
    survives.
    """
    if not queries:
        return rules
    program = Program(rules, validate=False)
    analysis = ProgramAnalysis.of(program)
    live: Set[str] = set()
    for query in queries:
        live |= reachable_from(analysis.dependency_graph, query)
    # A dead rule that may raise (ordered builtin over possibly-incompatible
    # sorts) must keep evaluating exactly as before: it stays live, and so
    # does everything its body reads -- dropping its input facts would stop
    # the builtin from ever being reached.
    for rule in rules:
        if (
            rule.body
            and rule.head.predicate not in live
            and not abstract.builtin_safe(rule)
        ):
            live.add(rule.head.predicate)
            for literal in rule.body:
                if not literal.is_builtin:
                    live |= reachable_from(
                        analysis.dependency_graph, literal.predicate
                    )
    survivors: List[Rule] = []
    for rule in rules:
        if rule.head.predicate in live:
            survivors.append(rule)
        elif rule.body:
            report.dead_rules_removed += 1
        else:
            report.dead_facts_removed += 1
    return survivors
