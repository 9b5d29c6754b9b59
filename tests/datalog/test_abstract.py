"""Abstract-interpretation analysis: the lattice, the fixpoint, DL7xx.

Lattice unit tests pin the join/meet/widen algebra; analysis tests pin the
inferred per-predicate signatures against hand-computed domains; the DL7xx
fixture corpus follows the PR-6 idiom -- one trigger and one near-miss per
code, asserting the stable code AND the exact ``line:column`` span.
"""

from repro.config import configured
from repro.datalog.abstract import (
    CONSTANT_WIDTH,
    AbstractAnalysis,
    AbstractColumn,
    sort_of,
)
from repro.datalog.database import Database
from repro.datalog.diagnostics import (
    Severity,
    abstract_diagnostics,
    check_program,
    lint_source,
)
from repro.datalog.parser import parse_literal, parse_program
from repro.engines import get_engine
from repro.session import QuerySession


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    matching = [d for d in diagnostics if d.code == code]
    assert matching, f"expected a {code}, got {codes(diagnostics)}"
    assert len(matching) == 1, f"expected one {code}, got {codes(diagnostics)}"
    return matching[0]


def none_of(diagnostics, code):
    assert code not in codes(diagnostics)


def at(diagnostic, line, column):
    assert diagnostic.span is not None, f"{diagnostic.code} has no span"
    assert (diagnostic.span.line, diagnostic.span.column) == (line, column)


class TestLattice:
    def test_sort_of(self):
        assert sort_of("a") == "symbol"
        assert sort_of(3) == "int"
        assert sort_of(3.5) == "float"
        assert sort_of((1, 2)) == "tuple"
        # bool is an int subtype but deliberately maps elsewhere.
        assert sort_of(True) == "other"

    def test_from_values_tracks_constants_and_interval(self):
        column = AbstractColumn.from_values([1, 2, 3])
        assert column.sorts == frozenset({"int"})
        assert column.constants == frozenset({1, 2, 3})
        assert (column.low, column.high) == (1, 3)
        assert column.admits(2) and not column.admits(4)

    def test_constant_width_cap(self):
        column = AbstractColumn.from_values(range(CONSTANT_WIDTH + 1))
        assert column.constants is None  # widened past the cap
        assert (column.low, column.high) == (0, CONSTANT_WIDTH)
        assert column.admits(5) and not column.admits(CONSTANT_WIDTH + 5)

    def test_join_unions(self):
        left = AbstractColumn.from_values([1, 2])
        right = AbstractColumn.from_values(["a"])
        joined = left.join(right)
        assert joined.sorts == frozenset({"int", "symbol"})
        assert joined.constants == frozenset({1, 2, "a"})

    def test_meet_intersects(self):
        left = AbstractColumn.from_values([1, 2, 3])
        right = AbstractColumn.from_values([2, 3, 4])
        met = left.meet(right)
        assert met.constants == frozenset({2, 3})

    def test_meet_disjoint_sorts_is_bottom(self):
        left = AbstractColumn.from_values([1])
        right = AbstractColumn.from_values(["a"])
        assert left.meet(right).is_bottom

    def test_widened_drops_finite_refinements(self):
        column = AbstractColumn.from_values([1, 2]).widened()
        assert column.constants is None
        assert column.low is None and column.high is None
        assert column.sorts == frozenset({"int"})

    def test_render_is_compact(self):
        assert AbstractColumn.from_values([2, 1]).render() == "int{1,2}"
        assert AbstractColumn.bottom().render() == "empty"
        assert AbstractColumn.top().render() == "any"


class TestAnalysis:
    def test_edb_seeding_and_propagation(self):
        program = parse_program(
            """
            edge(1, 2). edge(2, 3).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            """
        )
        analysis = AbstractAnalysis.of(program)
        edge = analysis.domain_of("edge")
        assert edge.columns[0].constants == frozenset({1, 2})
        tc = analysis.domain_of("tc")
        assert tc.possibly_nonempty
        assert tc.columns[0].constants == frozenset({1, 2})
        assert tc.columns[1].constants == frozenset({2, 3})

    def test_closed_world_database_seeding(self):
        program = parse_program("p(X) :- base(X).")
        database = Database()
        database.add_facts("base", [("a",), ("b",)])
        analysis = AbstractAnalysis.of(program, database)
        domain = analysis.domain_of("p")
        assert domain.columns[0].constants == frozenset({"a", "b"})

    def test_closed_world_empty_base_is_empty(self):
        program = parse_program("p(X) :- base(X).")
        analysis = AbstractAnalysis.of(program, Database())
        assert analysis.definitely_empty("p")

    def test_open_world_known_predicates_are_top(self):
        program = parse_program("p(X) :- base(X).")
        analysis = AbstractAnalysis.of(program, known=("base",))
        assert not analysis.definitely_empty("p")
        assert analysis.domain_of("p").columns[0] == AbstractColumn.top()

    def test_signature_report_sorted(self):
        program = parse_program("q(1). p(X) :- q(X).")
        report = AbstractAnalysis.of(program).signature_report()
        assert report == ["p(int{1})", "q(int{1})"]

    def test_planner_overrides(self):
        program = parse_program(
            """
            edge(1, 2). edge(2, 3).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            dead(X) :- edge(X, Y), Y > 100.
            """
        )
        overrides = AbstractAnalysis.of(program).planner_overrides()
        # Derived-only: exact statistics exist for base predicates.
        assert "edge" not in overrides
        assert overrides["dead"] == 0
        # Width product: 2 possible firsts x 2 possible seconds.
        assert overrides["tc"] == 4

    def test_memoized_per_database_version(self):
        program = parse_program("p(X) :- base(X).")
        database = Database()
        first = AbstractAnalysis.of(program, database)
        assert AbstractAnalysis.of(program, database) is first
        database.add_facts("base", [(1,)])
        second = AbstractAnalysis.of(program, database)
        assert second is not first
        assert not second.definitely_empty("p")

    def test_negation_refines_nothing(self):
        program = parse_program(
            """
            q(1). q(2). r(1).
            p(X) :- q(X), not r(X).
            """
        )
        domain = AbstractAnalysis.of(program).domain_of("p")
        # 1 is still admitted: negative literals must not narrow domains.
        assert domain.columns[0].constants == frozenset({1, 2})

    def test_aggregates_stay_sound(self):
        program = parse_program(
            """
            q(a, 1). q(a, 2).
            t(X, count(V)) :- q(X, V).
            s(X, sum(V)) :- q(X, V).
            """
        )
        analysis = AbstractAnalysis.of(program)
        count_col = analysis.domain_of("t").columns[1]
        assert count_col.sorts == frozenset({"int"})
        assert count_col.low == 0 and count_col.high is None
        sum_col = analysis.domain_of("s").columns[1]
        assert "int" in sum_col.sorts and sum_col.constants is None


class TestDL701EmptyJoin:
    def test_trigger(self):
        diagnostics = lint_source(
            "q(a). r(1).\np(X) :- q(X), r(X).", analyze=True
        )
        diagnostic = only(diagnostics, "DL701")
        assert diagnostic.severity is Severity.WARNING
        assert "variable X" in diagnostic.message
        at(diagnostic, 2, 15)

    def test_near_miss(self):
        clean = lint_source("q(a). r(a).\np(X) :- q(X), r(X).", analyze=True)
        none_of(clean, "DL701")


class TestDL702SortMismatchedRecursion:
    def test_trigger(self):
        diagnostics = lint_source(
            "edge(a, b).\np(X) :- edge(X, Y).\np(3) :- p(X).", analyze=True
        )
        diagnostic = only(diagnostics, "DL702")
        assert diagnostic.severity is Severity.WARNING
        assert "column 0 of 'p'" in diagnostic.message
        at(diagnostic, 3, 1)

    def test_near_miss(self):
        clean = lint_source(
            "edge(a, b).\np(X) :- edge(X, Y).\np(X) :- p(Y), edge(Y, X).",
            analyze=True,
        )
        none_of(clean, "DL702")


class TestDL703IncompatibleBuiltinSorts:
    def test_trigger(self):
        diagnostics = lint_source("q(a).\np(X) :- q(X), X < 3.", analyze=True)
        diagnostic = only(diagnostics, "DL703")
        assert diagnostic.severity is Severity.WARNING
        assert "symbol vs int" in diagnostic.message
        at(diagnostic, 2, 15)

    def test_near_miss(self):
        clean = lint_source("q(1).\np(X) :- q(X), X < 3.", analyze=True)
        none_of(clean, "DL703")


class TestDL704NeverFires:
    def test_trigger(self):
        diagnostics = lint_source(
            "q(1). q(2).\np(X) :- q(X), X > 5.", analyze=True
        )
        diagnostic = only(diagnostics, "DL704")
        assert diagnostic.severity is Severity.HINT
        at(diagnostic, 2, 15)

    def test_near_miss(self):
        clean = lint_source("q(1). q(7).\np(X) :- q(X), X > 5.", analyze=True)
        none_of(clean, "DL704")

    def test_silent_without_any_edb(self):
        # An entirely empty EDB would make every rule dormant -- noise.
        clean = lint_source("p(X) :- q(X), X > 5.", analyze=True)
        none_of(clean, "DL704")


class TestSurfacing:
    def test_check_program_includes_abstract_findings(self):
        program = parse_program("q(1). q(2).\np(X) :- q(X), X > 5.")
        diagnostics = check_program(program, database=Database())
        only(diagnostics, "DL704")

    def test_abstract_diagnostics_closed_world(self):
        program = parse_program("p(X) :- base(X), X > 5.")
        database = Database()
        database.add_facts("base", [(1,), (2,)])
        diagnostics = abstract_diagnostics(program, database=database)
        only(diagnostics, "DL704")

    def test_explain_lists_the_findings_of_its_program(self):
        program = parse_program("q(1). q(2).\np(X) :- q(X), X > 5.")
        report = QuerySession(program, Database()).explain("p(X)")
        assert "analysis findings:" in report
        assert "DL704" in report

    def test_explain_omits_findings_of_other_programs(self):
        """``Engine.answer`` on one program must not leave its findings for
        ``explain()`` of another program to print."""
        empty_join = parse_program("q(X) :- e(X, Y), f(Y).")
        database = Database.from_dict({"e": [(1, "s"), (2, "t")], "f": [(3,)]})
        assert abstract_diagnostics(empty_join, database) != []
        get_engine("seminaive").answer(empty_join, parse_literal("q(X)"), database)
        tc = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).")
        session = QuerySession(tc, Database.from_dict({"e": [(1, 2), (2, 3)]}))
        report = session.explain("tc(1, Y)")
        assert "DL7" not in report
        assert "analysis findings:" not in report

    def test_engine_answer_builds_no_analysis_without_the_optimizer(
        self, monkeypatch
    ):
        builds = []
        original = AbstractAnalysis._build.__func__

        def counting_build(cls, *args):
            builds.append(args)
            return original(cls, *args)

        monkeypatch.setattr(AbstractAnalysis, "_build", classmethod(counting_build))
        program = parse_program("q(1). q(2).\np(X) :- q(X), e(X, Y).")
        query = parse_literal("p(X)")
        database = Database()
        database.add_facts("e", [(1, 5)])
        engine = get_engine("seminaive")
        assert engine.answer(program, query, database).answers == {(1,)}
        database.add_fact("e", (2, 6))
        assert engine.answer(program, query, database).answers == {(1,), (2,)}
        assert builds == []

    def test_optimizer_builds_nothing_on_repeat_answers(self, monkeypatch):
        """With the optimizer on, ``Engine.answer`` must optimize against the
        memoized snapshot too: the per-call overlay missed the optimizer's
        memo, so every answer reran the optimizer and its analysis."""
        builds = []
        original = AbstractAnalysis._build.__func__

        def counting_build(cls, *args):
            builds.append(args)
            return original(cls, *args)

        monkeypatch.setattr(AbstractAnalysis, "_build", classmethod(counting_build))
        program = parse_program("q(1). q(2).\np(X) :- q(X), e(X, Y).")
        query = parse_literal("p(X)")
        database = Database()
        database.add_facts("e", [(1, 5)])
        engine = get_engine("seminaive")
        with configured(optimize=True):
            assert engine.answer(program, query, database).answers == {(1,)}
            warm = len(builds)
            assert engine.answer(program, query, database).answers == {(1,)}
            assert engine.answer(program, query, database).answers == {(1,)}
        assert len(builds) == warm
