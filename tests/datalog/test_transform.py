"""The semantics-preserving program optimizer behind ``configured(optimize=True)``.

Unit tests pin each rewrite pass on hand-built programs; the differential
matrix proves answer identity optimizer-on vs optimizer-off for every
engine x plan mode x execution cell, with the facts written in the program
or handed over as an external database; the golden explain test pins the
dead-rule-elimination report the acceptance criteria ask for.
"""

import gc

import pytest

from repro.config import configured
from repro.datalog import abstract, transform
from repro.datalog.abstract import AbstractAnalysis
from repro.datalog.database import Database
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.datalog.rules import Program
from repro.datalog.semantics import answer_query
from repro.datalog.transform import TransformReport, optimize
from repro.engines import available_engines, get_engine
from repro.session import QuerySession


FIXTURE = """
edge(1, 2). edge(2, 3). edge(3, 4).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
dead(X) :- edge(X, Y), Y > 100.
unused(X) :- tc(X, _).
"""


class TestPasses:
    def test_never_fires_elimination(self):
        program = parse_program("q(1). p(X) :- q(X), X > 5.")
        result = optimize(program)
        assert result.report.never_fires_removed == 1
        assert "p" not in result.program.derived_predicates

    def test_constant_propagation(self):
        program = parse_program("q(1, a). q(1, b).\np(X, Y) :- q(X, Y).")
        result = optimize(program)
        assert result.report.constants_propagated >= 1
        [rule] = result.program.idb_rules()
        # X has the singleton domain {1}: it is folded into the head.
        assert str(rule.head) == "p(1, Y)"

    def test_subsumption_minimization(self):
        program = parse_program(
            """
            e(1, 2).
            p(X) :- e(X, Y).
            p(X) :- e(X, 2).
            """
        )
        result = optimize(program)
        assert result.report.subsumed_removed == 1
        assert len(result.program.idb_rules()) == 1

    def test_unfolding_single_definition(self):
        program = parse_program(
            """
            e(1, 2). e(2, 3).
            mid(X, Y) :- e(X, Y).
            p(X, Y) :- mid(X, Y), X > 1.
            """
        )
        result = optimize(program, queries=("p",))
        assert "mid" in result.report.unfolded_predicates
        rules = result.program.idb_rules()
        assert all(
            literal.predicate != "mid"
            for rule in rules
            for literal in rule.body
        )

    def test_query_directed_dead_elimination(self):
        program = parse_program(FIXTURE)
        result = optimize(program, queries=("tc",))
        assert result.report.dead_rules_removed >= 1
        assert "unused" not in result.program.derived_predicates
        # Without queries nothing is assumed dead.
        undirected = optimize(program)
        assert "unused" in undirected.program.derived_predicates

    def test_dead_fact_elimination_counts_facts(self):
        program = parse_program("e(1, 2). f(9).\np(X) :- e(X, Y).")
        result = optimize(program, queries=("p",))
        assert result.report.dead_facts_removed == 1
        assert "f" not in result.program.predicates

    def test_unchanged_program_is_returned_identically(self):
        program = parse_program("e(1, 2).\np(X) :- e(X, Y), p_aux(Y).\np_aux(2).")
        result = optimize(program, queries=("p",))
        if not result.report.changed:
            assert result.program is program

    def test_report_format_lines(self):
        report = TransformReport(rules_in=7, rules_out=5)
        report.never_fires_removed = 1
        report.dead_rules_removed = 1
        lines = report.format()
        assert lines[0] == "program optimizer: rules 7 -> 5"
        assert any("dead rules removed" in line for line in lines)

    def test_raising_builtin_rule_survives_every_pass(self):
        # ``sg`` ranges over symbols, so ``Y > 100`` raises TypeError when
        # evaluated.  However dead the rule is, eliminating it would turn
        # that raise into silent success -- it must survive, and so must
        # the facts feeding it.
        program = parse_program(
            """
            up(a, b). flat(b, b).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y).
            probe(X) :- sg(X, Y), Y > 100.
            """
        )
        result = optimize(program, queries=("sg",))
        assert "probe" in result.program.derived_predicates
        assert result.report.never_fires_removed == 0

    def test_subsumed_raising_rule_survives(self):
        program = parse_program(
            """
            e(a, b).
            p(X) :- e(X, Y).
            p(X) :- e(X, Y), Y > 2.
            """
        )
        result = optimize(program)
        assert result.report.subsumed_removed == 0
        assert len(result.program.idb_rules()) == 2

    def test_semantics_preserved_on_fixture(self):
        program = parse_program(FIXTURE)
        optimized = optimize(program, queries=("tc",)).program
        query = parse_literal("tc(X, Y)")
        assert answer_query(optimized, query) == answer_query(program, query)


class TestEngineIntegration:
    def test_off_by_default_no_report(self):
        program = parse_program(FIXTURE)
        result = get_engine("seminaive").answer(program, parse_query("tc(1, X)"))
        assert "program_opt" not in result.details

    def test_on_attaches_report_and_preserves_answers(self):
        program = parse_program(FIXTURE)
        query = parse_query("tc(1, X)")
        engine = get_engine("seminaive")
        baseline = engine.answer(program, query)
        with configured(optimize=True):
            optimized = engine.answer(program, query)
        assert optimized.answers == baseline.answers
        report = optimized.details["program_opt"]
        assert report[0].startswith("program optimizer: rules")


class TestMemoIdentity:
    """The analysis and optimizer memos recognise a database by identity.

    ``Engine.answer`` builds a fresh overlay per call.  Once one is freed,
    CPython may allocate the next at the same address, so a memo keyed by
    address (and version) would serve one database's analysis and rewrite
    to another.
    """

    PROGRAM = "q(X) :- e(X, Y), f(Y)."

    @staticmethod
    def edb(i):
        return Database.from_dict({"e": [(i, i + 1)], "f": [(i + 1,)]})

    def test_answers_over_short_lived_overlays(self):
        program = parse_program(self.PROGRAM)
        query = parse_literal("q(X)")
        engine = get_engine("seminaive")
        databases = [self.edb(i) for i in range(20)]
        assert {database.version for database in databases} == {2}
        expected = [answer_query(program, query, database) for database in databases]
        wrong = []
        with configured(optimize=True):
            for _ in range(20):
                for i, database in enumerate(databases):
                    answers = engine.answer(program, query, database).answers
                    if answers != expected[i]:
                        wrong.append((i, answers))
                    gc.collect()
        assert wrong == []

    def test_memos_ignore_addresses(self, monkeypatch):
        # Every database at one address -- the worst case of a sequence of
        # overlays that each die before the next one is allocated.
        for module in (abstract, transform):
            monkeypatch.setattr(module, "id", lambda obj: 0, raising=False)
        program = parse_program(self.PROGRAM)
        query = parse_literal("q(X)")
        for i in range(3):
            database = self.edb(i)
            domain = AbstractAnalysis.of(program, database).domain_of("e")
            assert domain.columns[0].singleton_value() == i
            rewritten = optimize(program, ("q",), database).program
            assert answer_query(rewritten, query, database) == {(i,)}

    def test_optimizer_memo_hits_per_database_version(self):
        program = parse_program(self.PROGRAM)
        database = self.edb(0)
        result = optimize(program, ("q",), database)
        assert optimize(program, ("q",), database) is result
        database.add_fact("e", (5, 6))
        assert optimize(program, ("q",), database) is not result


DIFFERENTIAL_PROGRAMS = [
    (FIXTURE, "tc(1, X)"),
    (FIXTURE, "tc(X, Y)"),
    (
        """
        up(a, b). up(b, c). flat(c, c). down(c, e).
        num(100).
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        probe(X) :- sg(X, Y), num(Y).
        """,
        "sg(a, Y)",
    ),
    (
        """
        e(1, 2). e(2, 3). e(3, 1).
        hop(X, Y) :- e(X, Y).
        p(X, Z) :- hop(X, Y), hop(Y, Z).
        p(X, Z) :- hop(X, Y), p(Y, Z).
        q(X) :- p(X, X).
        """,
        "q(X)",
    ),
]


class TestDifferentialMatrix:
    """Optimizer-on answers == optimizer-off answers, every mode combination.

    ``facts="database"`` moves the program's facts into an external
    :class:`Database`, so the optimizer reads the relations' abstract domains
    from the caller's database rather than from the program's own facts.
    """

    @pytest.mark.parametrize("engine_name", sorted(available_engines()))
    @pytest.mark.parametrize("facts", ["program", "database"])
    @pytest.mark.parametrize("plan", ["legacy", "cost"])
    @pytest.mark.parametrize(
        "execution", ["interpreted", "columnar", "row-fallback"]
    )
    @pytest.mark.parametrize(
        "program_text,query_text",
        DIFFERENTIAL_PROGRAMS,
        ids=["tc-bound", "tc-free", "sg", "cycle"],
    )
    def test_matrix(
        self,
        engine_name,
        facts,
        plan,
        execution,
        program_text,
        query_text,
        execution_cell,
    ):
        program = parse_program(program_text)
        database = None
        if facts == "database":
            database = Database.from_program(program)
            program = Program(rule for rule in program.rules if not rule.is_fact)
        query = parse_literal(query_text)
        engine = get_engine(engine_name)
        with configured(plan=plan), execution_cell(execution):
            try:
                baseline = engine.answer(program, query, database)
            except NotApplicableError:
                pytest.skip(f"{engine_name} not applicable to {query_text}")
            with configured(optimize=True):
                optimized = engine.answer(program, query, database)
        assert optimized.answers == baseline.answers, (
            engine_name,
            facts,
            plan,
            execution,
        )


class TestExplainGolden:
    def test_dead_rule_elimination_shows_in_explain(self):
        session = QuerySession(parse_program(FIXTURE))
        baseline = session.explain("tc(1, X)")
        assert "program optimizer" not in baseline
        with configured(optimize=True):
            text = session.explain("tc(1, X)")
        # The golden acceptance line: query-directed slicing shrank the
        # program (7 rules incl. facts -> 5) and the report says why.
        assert "program optimizer: rules 7 -> 5" in text
        assert "dead rules removed: 1" in text
        assert "never-fires rules removed: 1" in text
        # The rule-plan section reflects the optimized program: the dead
        # and unused predicates' plans are gone.
        assert "dead(" not in text
        assert "unused(" not in text

    def test_session_query_unaffected_by_optimizer(self):
        session = QuerySession(parse_program(FIXTURE))
        baseline = session.query("tc(1, X)")
        with configured(optimize=True):
            optimized = QuerySession(parse_program(FIXTURE)).query("tc(1, X)")
        assert optimized.answers == baseline.answers
