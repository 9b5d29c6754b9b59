"""Abstract interpretation of Datalog programs over a product lattice.

The evaluation strategies this repository reproduces all take the program as
written; nothing in the syntactic diagnostics layer (DL1xx-DL6xx) can prove
that a join is empty, that a recursion mixes sorts, or that a rule can never
fire under the current extensional database.  This module closes that gap
with a classic *abstract interpretation*: a bottom-up dataflow fixpoint over
the predicate dependency graph (the same SCC machinery the engines use, see
:mod:`repro.datalog.analysis`) that infers, for every predicate column, an
abstract value in a product lattice:

* **sort** -- the set of value sorts the column may hold (``symbol`` for
  strings, ``int``, ``float``, ``tuple`` for the Section 4 tuple constants,
  ``other`` for anything else);
* **constants** -- the exact set of values, tracked up to
  :data:`CONSTANT_WIDTH` distinct values and widened to "unknown" beyond;
* **interval** -- lower/upper bounds when the column holds integers;
* **may-be-empty** -- whether the predicate may hold at least one fact.

The analysis is *polarity-aware*: positive body literals refine variable
domains, built-in comparisons tighten intervals and constant sets, but a
negated literal refines nothing (its complement is not representable in the
lattice), which keeps every inferred domain a sound over-approximation for
stratified programs.  Aggregate heads fold abstractly (``count`` is a
non-negative integer, ``min``/``max`` stay within the folded variable's
domain, ``sum`` is numeric).

Seeding comes from the extensional database through the :mod:`repro.stats`
summaries: :class:`~repro.stats.ColumnStats.counts` holds the *full*
per-column code frequencies, so decoding its keys through the table's
interner reconstructs the exact distinct-value set in O(distinct) without
touching (or charging for) a single stored row.

Three consumers sit on top:

* the DL7xx diagnostics in :mod:`repro.datalog.diagnostics` (provably-empty
  join, sort-mismatched recursion, incompatible built-in comparison, rule
  that can never fire);
* the semantics-preserving optimizer in :mod:`repro.datalog.transform`
  (constant propagation through singleton domains, never-fires elimination);
* the cost planner (:func:`repro.core.planner.estimate_strategy_costs`),
  which sharpens :class:`~repro.stats.PlanStatistics` overrides from the
  inferred emptiness and domain widths.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .analysis import ProgramAnalysis
from .literals import Literal
from .rules import Program, Rule
from .terms import AggregateTerm, Constant, Term, Variable


def _no_database() -> None:
    return None


def database_ref(database: Optional[object]) -> Callable[[], Optional[object]]:
    """A weak handle on the database a per-program memo was built against.

    Calling the handle returns the database while it lives and ``None``
    after, so a memo recognises its database by identity (``is``) without
    keeping it alive.  An address (``id``) would not do: ``Engine.answer``
    builds a fresh overlay per call, and once one is freed the next may be
    allocated at the same address.  ``None`` gets a handle that always
    returns ``None``.
    """
    return _no_database if database is None else weakref.ref(database)


#: Column sorts of the product lattice.  ``symbol`` covers every string
#: payload (the parser produces plain ``str`` for both identifiers and
#: quoted strings); ``tuple`` covers the Section 4 tuple constants.
SORT_SYMBOL = "symbol"
SORT_INT = "int"
SORT_FLOAT = "float"
SORT_TUPLE = "tuple"
SORT_OTHER = "other"

#: Maximum number of distinct values tracked exactly per column before the
#: constant-set component widens to "unknown finite set".
CONSTANT_WIDTH = 16

#: Hard cap on fixpoint rounds per strongly connected component.  The
#: lattice has no infinite ascending chains reachable from a finite EDB
#: (there is no arithmetic, so every abstract value is built from program
#: and database constants), but the cap keeps termination obvious and
#: cheap to audit: beyond it every still-changing column widens to top.
WIDEN_AFTER = 64

_NUMERIC_SORTS = frozenset((SORT_INT, SORT_FLOAT))

#: Comparison operators with an order requirement (``=``/``!=`` compare any
#: two values without raising; ``<`` over ``int`` vs ``symbol`` raises
#: ``TypeError`` at evaluation time).
_ORDERED_BUILTINS = frozenset(("<", "<=", ">", ">="))


def sort_of(value: object) -> str:
    """The lattice sort of a concrete constant payload."""
    if isinstance(value, str):
        return SORT_SYMBOL
    if isinstance(value, bool):  # bool is an int subtype; keep it apart
        return SORT_OTHER
    if isinstance(value, int):
        return SORT_INT
    if isinstance(value, float):
        return SORT_FLOAT
    if isinstance(value, tuple):
        return SORT_TUPLE
    return SORT_OTHER


def _sorts_comparable(left: str, right: str) -> bool:
    """Whether ``<``-style comparison of the two sorts can succeed."""
    if left == right:
        return left != SORT_OTHER
    return left in _NUMERIC_SORTS and right in _NUMERIC_SORTS


@dataclass(frozen=True)
class AbstractColumn:
    """One column's abstract value: sorts x constant set x interval.

    ``sorts`` is the set of sorts the column may hold -- empty means
    *bottom* (the column provably holds no value).  ``constants`` is the
    exact value set when it is known and at most :data:`CONSTANT_WIDTH`
    wide, ``None`` when unknown (top).  ``low``/``high`` bound the integer
    values the column may hold (``None`` = unbounded on that side); the
    interval is meaningful only while :data:`SORT_INT` is in ``sorts``.
    """

    sorts: FrozenSet[str]
    constants: Optional[FrozenSet[object]]
    low: Optional[int] = None
    high: Optional[int] = None

    @property
    def is_bottom(self) -> bool:
        return not self.sorts

    @property
    def is_singleton(self) -> bool:
        """True when the column provably holds exactly one known value."""
        return self.constants is not None and len(self.constants) == 1

    def singleton_value(self) -> object:
        """The single known value; only legal when :attr:`is_singleton`."""
        if self.constants is None or len(self.constants) != 1:
            raise ValueError("column is not a singleton domain")
        return next(iter(self.constants))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def bottom() -> "AbstractColumn":
        return _BOTTOM

    @staticmethod
    def top() -> "AbstractColumn":
        return _TOP

    @staticmethod
    def from_value(value: object) -> "AbstractColumn":
        """The abstraction of a single concrete value."""
        sort = sort_of(value)
        if sort == SORT_INT:
            return AbstractColumn(
                frozenset((sort,)), frozenset((value,)), value, value  # type: ignore[arg-type]
            )
        return AbstractColumn(frozenset((sort,)), frozenset((value,)))

    @staticmethod
    def from_values(values: Iterable[object]) -> "AbstractColumn":
        """The join of the abstractions of ``values`` (bottom when empty)."""
        collected = list(values)
        if not collected:
            return _BOTTOM
        sorts = frozenset(sort_of(v) for v in collected)
        ints = [v for v in collected if isinstance(v, int) and not isinstance(v, bool)]
        low = min(ints) if ints else None
        high = max(ints) if ints else None
        if len(set(collected)) <= CONSTANT_WIDTH:
            return AbstractColumn(sorts, frozenset(collected), low, high)
        return AbstractColumn(sorts, None, low, high)

    # -- lattice operations -------------------------------------------------

    def admits(self, value: object) -> bool:
        """Whether this abstract value may hold the concrete ``value``."""
        sort = sort_of(value)
        if sort not in self.sorts:
            return False
        if self.constants is not None and value not in self.constants:
            return False
        if sort == SORT_INT:
            if self.low is not None and value < self.low:  # type: ignore[operator]
                return False
            if self.high is not None and value > self.high:  # type: ignore[operator]
                return False
        return True

    def join(self, other: "AbstractColumn") -> "AbstractColumn":
        """Least upper bound (union of behaviours)."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        sorts = self.sorts | other.sorts
        if self.constants is not None and other.constants is not None:
            union = self.constants | other.constants
            constants = union if len(union) <= CONSTANT_WIDTH else None
        else:
            constants = None
        low = _join_bound(self, other, "low")
        high = _join_bound(self, other, "high")
        return AbstractColumn(sorts, constants, low, high)

    def meet(self, other: "AbstractColumn") -> "AbstractColumn":
        """Greatest lower bound (values admitted by both sides)."""
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.constants is not None:
            filtered = frozenset(v for v in self.constants if other.admits(v))
            return AbstractColumn.from_values(filtered)
        if other.constants is not None:
            filtered = frozenset(v for v in other.constants if self.admits(v))
            return AbstractColumn.from_values(filtered)
        sorts = self.sorts & other.sorts
        if not sorts:
            return _BOTTOM
        low = _meet_bound(self.low, other.low, max)
        high = _meet_bound(self.high, other.high, min)
        if SORT_INT in sorts and low is not None and high is not None and low > high:
            sorts = sorts - {SORT_INT}
            low = high = None
            if not sorts:
                return _BOTTOM
        return AbstractColumn(sorts, None, low, high)

    def widened(self) -> "AbstractColumn":
        """Drop the finite components (the :data:`WIDEN_AFTER` escape hatch)."""
        if self.is_bottom:
            return self
        return AbstractColumn(self.sorts, None, None, None)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """A compact deterministic rendering for ``--analyze`` reports."""
        if self.is_bottom:
            return "empty"
        if self == _TOP:
            return "any"
        parts = "|".join(sorted(self.sorts))
        if self.constants is not None:
            values = ",".join(sorted(str(v) for v in self.constants))
            return f"{parts}{{{values}}}"
        if SORT_INT in self.sorts and (self.low is not None or self.high is not None):
            low = "-inf" if self.low is None else str(self.low)
            high = "+inf" if self.high is None else str(self.high)
            return f"{parts}[{low}..{high}]"
        return parts


_BOTTOM = AbstractColumn(frozenset(), frozenset())
_TOP = AbstractColumn(
    frozenset((SORT_SYMBOL, SORT_INT, SORT_FLOAT, SORT_TUPLE, SORT_OTHER)), None
)


def _join_bound(
    left: AbstractColumn, right: AbstractColumn, side: str
) -> Optional[int]:
    """Join the interval bounds; a side without the int sort contributes none."""
    fold = min if side == "low" else max
    bounds = []
    for column in (left, right):
        if SORT_INT not in column.sorts:
            continue
        bound = getattr(column, side)
        if bound is None:
            return None
        bounds.append(bound)
    if not bounds:
        return None
    return fold(bounds)


def _meet_bound(
    left: Optional[int], right: Optional[int], fold
) -> Optional[int]:
    if left is None:
        return right
    if right is None:
        return left
    return fold(left, right)


@dataclass(frozen=True)
class PredicateDomain:
    """The inferred abstract signature of one predicate."""

    predicate: str
    columns: Tuple[AbstractColumn, ...]
    possibly_nonempty: bool

    @property
    def definitely_empty(self) -> bool:
        """True when the predicate provably holds no fact."""
        return not self.possibly_nonempty or any(c.is_bottom for c in self.columns)

    def render(self) -> str:
        inner = ", ".join(c.render() for c in self.columns)
        marker = "" if self.possibly_nonempty else "  -- empty"
        return f"{self.predicate}({inner}){marker}"

    @staticmethod
    def empty(predicate: str, arity: int) -> "PredicateDomain":
        return PredicateDomain(predicate, (_BOTTOM,) * arity, False)

    @staticmethod
    def top(predicate: str, arity: int) -> "PredicateDomain":
        return PredicateDomain(predicate, (_TOP,) * arity, True)


@dataclass(frozen=True)
class RuleInsight:
    """What the converged analysis knows about one rule.

    ``kind`` is one of:

    * ``"ok"`` -- the rule may fire;
    * ``"empty-join"`` -- some join variable's domains are disjoint across
      its positive occurrences (DL701);
    * ``"builtin-sorts"`` -- a built-in comparison whose sides can never
      hold comparable sorts (DL703; the comparison would raise at runtime);
    * ``"never-fires"`` -- the rule cannot derive a fact under the current
      extensional database for any other reason (DL704): an empty body
      predicate, an inadmissible constant argument, or an always-false
      comparison.
    """

    rule: Rule
    kind: str
    detail: str
    variable: Optional[str] = None
    literal: Optional[Literal] = None


class AbstractAnalysis:
    """The converged abstract interpretation of one program (+ database).

    Build through :meth:`of`, which memoizes on the program instance (like
    :meth:`ProgramAnalysis.of`) per database object and version -- the
    engine hot path re-requests the analysis per query.
    """

    def __init__(
        self,
        program: Program,
        domains: Dict[str, PredicateDomain],
        insights: List[RuleInsight],
        seed_facts: int,
        closed_world: bool,
    ) -> None:
        self.program = program
        self.domains = domains
        self.insights = insights
        #: Total extensional facts the seeding saw (program facts + stored
        #: rows).  The never-fires diagnostic is gated on this: with an
        #: entirely empty EDB *every* rule is trivially dormant and the
        #: hint would be pure noise.
        self.seed_facts = seed_facts
        #: True when a database was supplied: base predicates without facts
        #: are then *known* empty (closed world) rather than unknown.
        self.closed_world = closed_world
        #: [(rule, column index)] recursion sort mismatches (DL702).
        self.recursion_mismatches: List[Tuple[Rule, int]] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def of(
        cls,
        program: Program,
        database: Optional[object] = None,
        known: Iterable[str] = (),
    ) -> "AbstractAnalysis":
        """The (memoized) analysis of ``program`` against ``database``.

        ``known`` names base predicates whose facts live outside both the
        program and the database (the lint corpus' ``% lint: known``
        directive); their columns are top and they may be non-empty.
        """
        known_key = frozenset(known)
        key = (database.version if database is not None else None, known_key)
        memo = program.__dict__.get("_abstract_memo")
        if memo is not None and memo[0] == key and memo[1]() is database:
            return memo[2]
        analysis = cls._build(program, database, known_key)
        program._abstract_memo = (key, database_ref(database), analysis)
        return analysis

    @classmethod
    def _build(
        cls,
        program: Program,
        database: Optional[object],
        known: FrozenSet[str],
    ) -> "AbstractAnalysis":
        structure = ProgramAnalysis.of(program)
        domains: Dict[str, PredicateDomain] = {}
        seed_facts = 0
        closed_world = database is not None

        # 1. Seed every base predicate from the program facts and the stored
        #    relations.  The stats summaries expose the full per-column code
        #    frequency maps, so decoding their keys through the interner
        #    rebuilds the exact distinct-value sets in O(distinct) -- no row
        #    scan, no charging.
        fact_columns: Dict[str, List[List[object]]] = {}
        for fact in program.edb_facts():
            predicate = fact.head.predicate
            values = fact.head.constant_values()
            columns = fact_columns.setdefault(
                predicate, [[] for _ in range(len(values))]
            )
            for position, value in enumerate(values):
                columns[position].append(value)
            seed_facts += 1

        for predicate in sorted(program.predicates):
            if predicate in program.derived_predicates:
                continue
            arity = program.arity(predicate)
            per_column = [list(vs) for vs in fact_columns.get(predicate, [[]] * arity)]
            stored = _stored_column_values(database, predicate, arity)
            if stored is not None:
                rows, stored_columns = stored
                seed_facts += rows
                for position in range(arity):
                    per_column[position].extend(stored_columns[position])
            nonempty = any(len(vs) > 0 for vs in per_column)
            if nonempty:
                domains[predicate] = PredicateDomain(
                    predicate,
                    tuple(AbstractColumn.from_values(vs) for vs in per_column),
                    True,
                )
            elif predicate in known or not closed_world:
                # Open world: facts may arrive from outside; assume top.
                domains[predicate] = PredicateDomain.top(predicate, arity)
            else:
                domains[predicate] = PredicateDomain.empty(predicate, arity)

        for predicate in program.derived_predicates:
            domains[predicate] = PredicateDomain.empty(
                predicate, program.arity(predicate)
            )

        # 2. Fixpoint per strongly connected component, dependencies first
        #    (``structure.sccs`` is in reverse topological order).
        rules_by_head: Dict[str, List[Rule]] = {}
        for rule in program.idb_rules():
            rules_by_head.setdefault(rule.head.predicate, []).append(rule)

        for component in structure.sccs:
            component_rules = [
                rule for predicate in component for rule in rules_by_head.get(predicate, ())
            ]
            if not component_rules:
                continue
            rounds = 0
            changed = True
            while changed:
                changed = False
                rounds += 1
                widen = rounds > WIDEN_AFTER
                for rule in component_rules:
                    contribution = _head_contribution(rule, domains)
                    if contribution is None:
                        continue
                    head = rule.head.predicate
                    current = domains[head]
                    merged = _merge_domain(current, contribution)
                    if widen and merged != current:
                        merged = PredicateDomain(
                            head,
                            tuple(c.widened() for c in merged.columns),
                            merged.possibly_nonempty,
                        )
                    if merged != current:
                        domains[head] = merged
                        changed = True

        # 3. One insight pass over the converged domains.
        insights: List[RuleInsight] = []
        recursive_sorts: Dict[str, List[Tuple[Rule, Tuple[AbstractColumn, ...]]]] = {}
        base_sorts: Dict[str, List[Tuple[AbstractColumn, ...]]] = {}
        for rule in program.idb_rules():
            insight, contribution = _classify_rule(rule, domains)
            insights.append(insight)
            if contribution is not None:
                head = rule.head.predicate
                if structure.is_recursive_rule(rule):
                    recursive_sorts.setdefault(head, []).append((rule, contribution))
                else:
                    base_sorts.setdefault(head, []).append(contribution)

        analysis = cls(program, domains, insights, seed_facts, closed_world)
        analysis.recursion_mismatches = cls._recursion_mismatches(
            program, recursive_sorts, base_sorts
        )
        return analysis

    @staticmethod
    def _recursion_mismatches(
        program: Program,
        recursive_sorts: Dict[str, List[Tuple[Rule, Tuple[AbstractColumn, ...]]]],
        base_sorts: Dict[str, List[Tuple[AbstractColumn, ...]]],
    ) -> List[Tuple[Rule, int]]:
        """Recursive rules whose head column sorts are disjoint from every
        base-case contribution of the same predicate (DL702): the recursion
        can only ever recirculate values the base cases never produce."""
        mismatches: List[Tuple[Rule, int]] = []
        for predicate, recursive in recursive_sorts.items():
            bases = base_sorts.get(predicate)
            if not bases:
                continue
            arity = program.arity(predicate)
            for position in range(arity):
                base_union: FrozenSet[str] = frozenset()
                for columns in bases:
                    base_union = base_union | columns[position].sorts
                if not base_union:
                    continue
                for rule, columns in recursive:
                    sorts = columns[position].sorts
                    if sorts and not (sorts & base_union):
                        mismatches.append((rule, position))
        return mismatches

    # -- consumers ---------------------------------------------------------

    def domain_of(self, predicate: str) -> Optional[PredicateDomain]:
        return self.domains.get(predicate)

    def definitely_empty(self, predicate: str) -> bool:
        domain = self.domains.get(predicate)
        return domain is not None and domain.definitely_empty

    def never_fires(self, rule: Rule) -> bool:
        """True when the converged analysis proves ``rule`` derives nothing."""
        for insight in self.insights:
            if insight.rule is rule:
                return insight.kind != "ok"
        return False

    def builtin_safe(self, rule: Rule) -> bool:
        """True when no ordered builtin of ``rule`` can raise ``TypeError``.

        The optimizer may only *eliminate* a rule whose evaluation is
        provably silent: an ordered comparison over incompatible sorts
        raises at run time, and the plan executor may place a builtin after
        any subset of the scans that bind its variables, so a variable's
        possible sorts at comparison time are the *union* over its positive
        occurrences' column domains -- not their meet.  Equality builtins
        compare anything and are always safe.
        """
        ordered = [
            literal
            for literal in rule.builtin_body()
            if literal.predicate in _ORDERED_BUILTINS
        ]
        if not ordered:
            return True
        possible: Dict[str, FrozenSet[str]] = {}
        for literal in rule.positive_body():
            domain = self.domains.get(literal.predicate)
            for position, term in enumerate(literal.args):
                if not isinstance(term, Variable) or term.is_anonymous:
                    continue
                if domain is not None and position < len(domain.columns):
                    sorts = domain.columns[position].sorts
                else:
                    sorts = _TOP.sorts
                possible[term.name] = possible.get(term.name, frozenset()) | sorts
        for literal in ordered:
            sides = []
            for term in literal.args:
                if isinstance(term, Variable):
                    sides.append(possible.get(term.name, _TOP.sorts))
                elif isinstance(term, Constant):
                    sides.append(frozenset((sort_of(term.value),)))
                else:  # pragma: no cover - aggregates never sit in builtins
                    sides.append(_TOP.sorts)
            left, right = sides
            for lsort in left:
                for rsort in right:
                    if not _sorts_comparable(lsort, rsort):
                        return False
        return True

    def environment(
        self, rule: Rule
    ) -> Optional[Dict[Variable, AbstractColumn]]:
        """The converged per-variable domains of ``rule``'s body.

        ``None`` when the rule provably never fires.  The optimizer's
        constant-propagation pass reads this: a variable whose environment
        entry is a singleton can be replaced by its value everywhere in the
        rule without changing the derived facts.
        """
        env, _ = _evaluate_body(rule, self.domains)
        return env

    def signature_report(self) -> List[str]:
        """Deterministic ``--analyze`` rendering of every inferred domain."""
        return [
            self.domains[predicate].render() for predicate in sorted(self.domains)
        ]

    def planner_overrides(self) -> Dict[str, int]:
        """Cardinality overrides for :class:`~repro.stats.PlanStatistics`.

        A definitely-empty derived predicate costs nothing; a derived
        predicate all of whose columns carry finite constant sets can never
        exceed the product of the column widths.  Base predicates carry
        exact stored statistics already and are never overridden.
        """
        overrides: Dict[str, int] = {}
        for predicate in self.program.derived_predicates:
            domain = self.domains.get(predicate)
            if domain is None:
                continue
            if domain.definitely_empty:
                overrides[predicate] = 0
                continue
            product = 1
            finite = True
            for column in domain.columns:
                if column.constants is None:
                    finite = False
                    break
                product *= max(1, len(column.constants))
            if finite:
                overrides[predicate] = product
        return overrides


# ---------------------------------------------------------------------------
# Rule-level abstract evaluation
# ---------------------------------------------------------------------------

def _stored_column_values(
    database: Optional[object], predicate: str, arity: int
) -> Optional[Tuple[int, List[List[object]]]]:
    """(row count, per-column distinct values) of a stored relation.

    Decodes the :class:`~repro.stats.ColumnStats` frequency-map keys through
    the relation's interner -- O(distinct per column), uncharged.  ``None``
    when the database does not store the predicate.
    """
    if database is None:
        return None
    relation = getattr(database, "relations", {}).get(predicate)
    if relation is None or relation.arity != arity:
        return None
    from ..stats import table_stats

    stats = table_stats(relation.table)
    extern = relation.table.interner.extern
    columns = [
        [extern(code) for code in stats.columns[position].counts]
        for position in range(arity)
    ]
    return stats.cardinality, columns


def _abstract_term(
    term: Term, env: Mapping[Variable, AbstractColumn]
) -> AbstractColumn:
    if isinstance(term, Constant):
        return AbstractColumn.from_value(term.value)
    if isinstance(term, Variable):
        return env.get(term, _TOP)
    return _TOP


def _evaluate_body(
    rule: Rule, domains: Mapping[str, PredicateDomain]
) -> Tuple[Optional[Dict[Variable, AbstractColumn]], Optional[RuleInsight]]:
    """Abstractly evaluate a rule body against the current domains.

    Returns ``(env, None)`` when the rule may fire, or ``(None, insight)``
    describing why it provably cannot.
    """
    env: Dict[Variable, AbstractColumn] = {}
    occurrences: Dict[Variable, int] = {}
    for literal in rule.positive_body():
        domain = domains.get(literal.predicate)
        if domain is None:
            domain = PredicateDomain.top(literal.predicate, literal.arity)
        if domain.definitely_empty:
            return None, RuleInsight(
                rule,
                "never-fires",
                f"body predicate {literal.predicate!r} holds no facts",
                literal=literal,
            )
        for position, term in enumerate(literal.args):
            column = domain.columns[position]
            if isinstance(term, Constant):
                if not column.admits(term.value):
                    return None, RuleInsight(
                        rule,
                        "never-fires",
                        f"{literal.predicate!r} never holds "
                        f"{term} at position {position}",
                        literal=literal,
                    )
            elif isinstance(term, Variable):
                occurrences[term] = occurrences.get(term, 0) + 1
                current = env.get(term)
                refined = column if current is None else current.meet(column)
                env[term] = refined
                if refined.is_bottom:
                    kind = "empty-join" if occurrences[term] > 1 else "never-fires"
                    return None, RuleInsight(
                        rule,
                        kind,
                        f"variable {term.name} has no possible value: its "
                        "positive occurrences admit disjoint domains"
                        if kind == "empty-join"
                        else f"variable {term.name} ranges over an empty domain",
                        variable=term.name,
                        literal=literal,
                    )

    # Built-in comparisons: check sort compatibility, then refine.
    for literal in rule.builtin_body():
        left_term, right_term = literal.args
        left = _abstract_term(left_term, env)
        right = _abstract_term(right_term, env)
        if left.is_bottom or right.is_bottom:
            continue
        if literal.predicate in _ORDERED_BUILTINS:
            comparable = any(
                _sorts_comparable(ls, rs)
                for ls in left.sorts
                for rs in right.sorts
            )
            if not comparable:
                return None, RuleInsight(
                    rule,
                    "builtin-sorts",
                    f"comparison {literal} can never succeed: the sides "
                    f"hold {'|'.join(sorted(left.sorts))} vs "
                    f"{'|'.join(sorted(right.sorts))}",
                    literal=literal,
                )
        refinement = _refine_builtin(literal, left, right, env)
        if refinement is not None:
            return None, RuleInsight(rule, "never-fires", refinement, literal=literal)

    # Negated literals refine nothing (polarity awareness); a negated
    # literal over an empty predicate is vacuously true, which needs no
    # special case because no constraint is added either way.
    return env, None


def _refine_builtin(
    literal: Literal,
    left: AbstractColumn,
    right: AbstractColumn,
    env: Dict[Variable, AbstractColumn],
) -> Optional[str]:
    """Tighten the environment through one comparison.

    Returns a reason string when the comparison is provably always false
    (the rule can then never fire), ``None`` otherwise.
    """
    left_term, right_term = literal.args
    op = literal.predicate

    if op in ("=", "=="):
        both = left.meet(right)
        if both.is_bottom:
            return f"equality {literal} can never hold"
        if isinstance(left_term, Variable):
            env[left_term] = both
        if isinstance(right_term, Variable):
            env[right_term] = both
        return None

    if op == "!=":
        if (
            left.is_singleton
            and right.is_singleton
            and left.singleton_value() == right.singleton_value()
        ):
            return f"disequality {literal} can never hold"
        for var_term, other in ((left_term, right), (right_term, left)):
            if isinstance(var_term, Variable) and other.is_singleton:
                current = env.get(var_term, _TOP)
                if current.constants is not None:
                    remaining = current.constants - {other.singleton_value()}
                    env[var_term] = AbstractColumn.from_values(remaining)
                    if env[var_term].is_bottom:
                        return (
                            f"disequality {literal} excludes every "
                            f"possible value of {var_term}"
                        )
        return None

    # Ordered comparisons: normalise ``a <op> b`` to ``low_side < high_side``
    # (or ``<=``) and do interval reasoning over the integer component.
    if op in (">", ">="):
        low_term, high_term = right_term, left_term
        low_col, high_col = right, left
        strict = op == ">"
    else:
        low_term, high_term = left_term, right_term
        low_col, high_col = left, right
        strict = op == "<"
    bounds = _ordered_bounds(strict, low_col, high_col)
    if bounds == "never":
        return f"comparison {literal} can never hold"
    lower_for_high, upper_for_low = bounds
    if isinstance(low_term, Variable) and upper_for_low is not None:
        env[low_term] = _clamp(env.get(low_term, _TOP), high=upper_for_low)
        if env[low_term].is_bottom:
            return f"comparison {literal} excludes every value of {low_term}"
    if isinstance(high_term, Variable) and lower_for_high is not None:
        env[high_term] = _clamp(env.get(high_term, _TOP), low=lower_for_high)
        if env[high_term].is_bottom:
            return f"comparison {literal} excludes every value of {high_term}"
    return None


def _ordered_bounds(strict: bool, low: AbstractColumn, high: AbstractColumn):
    """Interval consequences of ``low < high`` (or ``<=`` when not strict).

    Returns ``"never"`` when the integer intervals alone prove the
    comparison false, else ``(lower-bound-for-high-side,
    upper-bound-for-low-side)`` with ``None`` for "no refinement".  Only
    pure-int columns refine -- a mixed-sort side could satisfy the
    comparison through a non-integer pair the interval cannot see.
    """
    pure_low = low.sorts == frozenset((SORT_INT,))
    pure_high = high.sorts == frozenset((SORT_INT,))
    if pure_low and pure_high:
        if low.low is not None and high.high is not None:
            if low.low > high.high or (strict and low.low == high.high):
                return "never"
    lower_for_high = None
    upper_for_low = None
    if pure_low and low.low is not None:
        lower_for_high = low.low + 1 if strict else low.low
    if pure_high and high.high is not None:
        upper_for_low = high.high - 1 if strict else high.high
    return (lower_for_high, upper_for_low)


def _clamp(
    column: AbstractColumn,
    low: Optional[int] = None,
    high: Optional[int] = None,
) -> AbstractColumn:
    """Meet ``column`` with an integer interval constraint.

    Applies only to pure-int columns (a mixed-sort column may satisfy the
    comparison through non-integer values, which the interval cannot
    constrain soundly per sort).
    """
    if column.sorts != frozenset((SORT_INT,)):
        return column
    bound = AbstractColumn(frozenset((SORT_INT,)), None, low, high)
    return column.meet(bound)


def _head_contribution(
    rule: Rule, domains: Mapping[str, PredicateDomain]
) -> Optional[PredicateDomain]:
    """The abstract facts one rule contributes to its head predicate."""
    env, insight = _evaluate_body(rule, domains)
    if env is None:
        return None
    columns = tuple(_head_column(term, env) for term in rule.head.args)
    return PredicateDomain(rule.head.predicate, columns, True)


def _head_column(
    term: Term, env: Mapping[Variable, AbstractColumn]
) -> AbstractColumn:
    if isinstance(term, Constant):
        return AbstractColumn.from_value(term.value)
    if isinstance(term, Variable):
        return env.get(term, _TOP)
    if isinstance(term, AggregateTerm):
        if term.func == "count":
            return AbstractColumn(frozenset((SORT_INT,)), None, 0, None)
        if term.func == "sum":
            folded = env.get(term.var, _TOP)
            sorts = folded.sorts & _NUMERIC_SORTS
            return AbstractColumn(sorts or _NUMERIC_SORTS, None)
        # min/max select an existing value of the folded variable.
        return env.get(term.var, _TOP)
    return _TOP


def _merge_domain(
    current: PredicateDomain, contribution: PredicateDomain
) -> PredicateDomain:
    columns = tuple(
        a.join(b) for a, b in zip(current.columns, contribution.columns)
    )
    return PredicateDomain(
        current.predicate,
        columns,
        current.possibly_nonempty or contribution.possibly_nonempty,
    )


def _classify_rule(
    rule: Rule, domains: Mapping[str, PredicateDomain]
) -> Tuple[RuleInsight, Optional[Tuple[AbstractColumn, ...]]]:
    """The converged insight for one rule plus its head column contribution."""
    env, insight = _evaluate_body(rule, domains)
    if insight is not None:
        return insight, None
    assert env is not None
    columns = tuple(_head_column(term, env) for term in rule.head.args)
    return RuleInsight(rule, "ok", "rule may fire"), columns
