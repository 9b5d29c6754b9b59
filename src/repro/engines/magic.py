"""Magic-sets rewriting [3, 5] followed by seminaive evaluation.

The magic-sets strategy pushes the query bindings into a bottom-up
evaluation: the program is first adorned with respect to the query (reusing
:mod:`repro.core.adornment`), then rewritten so that every adorned rule is
guarded by a *magic predicate* holding the bound-argument tuples that are
actually relevant to the query, and finally evaluated with the general
seminaive method.

For an adorned rule

    p^a(X) :- b1(Y1), ..., bi(Yi), q^d(Z), bi+1(Yi+1), ..., bn(Yn)

the rewriting produces

    magic_q^d(Z^b)  :- magic_p^a(X^b), b1(Y1), ..., bi(Yi).
    p^a(X)          :- magic_p^a(X^b), <original body with q adorned>.

seeded with the fact ``magic_q0^a0(c)`` for the query's bound constants.
This is the generalized-magic-sets construction restricted to linear
programs with at most one derived literal per body -- the same class the
paper's Section 4 handles, which makes the comparison fair.

The rewritten rules are evaluated through the shared seminaive fixpoint,
whose inner loops run on the compiled join plans of
:mod:`repro.datalog.plans`; because the plan cache is keyed by rule, the
magic and guarded rules produced for one query are compiled once and reused
across the fixpoint rounds (and across repeated queries with the same
binding pattern, whose rewritten rules are structurally identical).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.adornment import AdornedProgram, adorn
from ..datalog.analysis import analyze
from ..datalog.database import Database
from ..datalog.errors import NotApplicableError
from ..datalog.literals import Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term
from ..instrumentation import Counters
from .base import Engine, EngineResult, register
from .seminaive import evaluate_seminaive, resume_seminaive


def magic_name(mangled: str) -> str:
    """Name of the magic predicate guarding an adorned predicate."""
    return f"magic_{mangled}"


def rewrite_magic(adorned: AdornedProgram) -> Tuple[Program, Literal, Rule]:
    """Build the magic program, the rewritten query and the seed fact.

    Returns ``(program, rewritten_query, seed_fact)``.  The caller adds the
    seed fact to the database (it depends on the query constants).
    """
    rules: List[Rule] = []
    for adorned_rule in adorned.rules:
        head_name = adorned_rule.head.mangled_name()
        guard = _magic_literal(adorned_rule.head, adorned_rule.head_args)
        body: List[Literal] = []
        if guard is not None:
            body.append(guard)
        body.extend(adorned_rule.prefix)
        if adorned_rule.derived is not None:
            body.append(
                Literal(adorned_rule.derived.mangled_name(), adorned_rule.derived_args)
            )
            # The magic rule: bindings flow from the head guard through the
            # prefix into the derived literal's bound arguments.
            magic_head_args = adorned_rule.bound_derived_terms()
            magic_head = Literal(
                magic_name(adorned_rule.derived.mangled_name()), magic_head_args
            )
            magic_body: List[Literal] = []
            if guard is not None:
                magic_body.append(guard)
            magic_body.extend(adorned_rule.prefix)
            rules.append(Rule(magic_head, magic_body))
        body.extend(adorned_rule.suffix)
        rules.append(Rule(Literal(head_name, adorned_rule.head_args), body))

    query = adorned.query
    rewritten_query = Literal(adorned.query_predicate.mangled_name(), query.args)
    seed_args = [term for term in query.args if isinstance(term, Constant)]
    seed = Rule(Literal(magic_name(adorned.query_predicate.mangled_name()), seed_args))
    return Program(rules + [seed], validate=False), rewritten_query, seed


def _magic_literal(
    adorned_head, head_args: Tuple[Term, ...]
) -> Optional[Literal]:
    bound_terms = [head_args[i] for i in adorned_head.bound_positions]
    return Literal(magic_name(adorned_head.mangled_name()), bound_terms)


@register
class MagicSetsEngine(Engine):
    """Magic-sets rewriting + seminaive evaluation."""

    name = "magic"

    def applicable(self, program: Program, query: Literal) -> bool:
        if not program.is_positive:
            # The rewriting has no story for negation or aggregation: magic
            # predicates guard positive sideways information passing only.
            return False
        try:
            adorn(program, query)
            return True
        except NotApplicableError:
            return False

    def _run(
        self,
        program: Program,
        query: Literal,
        database: Database,
        counters: Counters,
    ) -> EngineResult:
        if not program.is_positive:
            raise NotApplicableError(
                "magic sets handles positive programs only; stratified programs "
                "are served by the model engines (naive, seminaive)"
            )
        adorned = adorn(program, query)
        magic_program, rewritten_query, seed = rewrite_magic(adorned)
        database.add_fact(seed.head.predicate, seed.head.constant_values())
        evaluate_seminaive(magic_program, database, counters)
        answers = database.answers(rewritten_query)
        magic_facts = sum(
            database.count(p)
            for p in database.predicates()
            if p.startswith("magic_")
        )
        return EngineResult(
            answers=answers,
            engine=self.name,
            counters=counters,
            iterations=counters.iterations,
            details={
                "adorned_program": adorned,
                "magic_program": magic_program,
                "magic_fact_count": magic_facts,
            },
        )

    # -- demand materialization hooks ---------------------------------------
    #
    # The magic strategy *is* seminaive evaluation of a rewritten program, so
    # a cached query's state is continuable: the entry keeps its rewritten
    # program, its evaluation database (seed + magic + adorned relations) and
    # the rewritten program's analysis, and an EDB delta resumes that
    # fixpoint instead of recomputing it -- newly relevant magic tuples and
    # their guarded consequences are derived by the ordinary delta rounds.

    def _materialize_entry(self, materialization, entry, counters):
        program, query = materialization.program, entry.query
        adorned = adorn(program, query)
        magic_program, rewritten_query, seed = rewrite_magic(adorned)
        overlay = Database.overlay(materialization.database, counters=counters)
        overlay.add_fact(seed.head.predicate, seed.head.constant_values())
        analysis = analyze(magic_program)
        evaluate_seminaive(magic_program, overlay, counters, analysis)
        entry.state = (magic_program, rewritten_query, overlay, analysis)
        return self._entry_result(adorned, entry, counters)

    def _refresh_entry(self, materialization, entry, delta_slice, counters):
        magic_program, rewritten_query, overlay, analysis = entry.state
        inserts: Dict[str, List[tuple]] = {}
        visible_delete = False
        for predicate, row, inserted in delta_slice:
            if predicate not in magic_program.predicates:
                continue
            if inserted:
                inserts.setdefault(predicate, []).append(row)
            else:
                visible_delete = True
        if visible_delete:
            # Deletions are not continuable here: the rewritten program's
            # magic seeds would need over-deletion of their own, and the
            # entry's overlay shares relations copy-on-write with the
            # already-updated base.  Recompute the entry's fixpoint over the
            # updated base instead -- exactly what a fresh query would do.
            return self._materialize_entry(materialization, entry, counters)
        previous, overlay.counters = overlay.counters, counters
        try:
            if inserts:
                resume_seminaive(magic_program, overlay, inserts, counters, analysis)
        finally:
            overlay.counters = previous
        adorned = entry.result.details.get("adorned_program")
        return self._entry_result(adorned, entry, counters)

    def _entry_result(self, adorned, entry, counters):
        magic_program, rewritten_query, overlay, _ = entry.state
        answers = overlay.answers(rewritten_query)
        magic_facts = sum(
            overlay.count(p) for p in overlay.predicates() if p.startswith("magic_")
        )
        return EngineResult(
            answers=answers,
            engine=self.name,
            counters=counters,
            iterations=counters.iterations,
            details={
                "adorned_program": adorned,
                "magic_program": magic_program,
                "magic_fact_count": magic_facts,
            },
        )
