"""The session layer: QuerySession, prepared queries, auto-selection, memo."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.session import (
    QuerySession,
    combined_database,
    program_fingerprint,
    select_engine,
)
from repro.workloads import random_genealogy

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- e(X, Y), tc(Y, Z).
"""

NONLINEAR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), anc(Z, Y).
"""


def sg_session(engine=None):
    program = parse_program(SG)
    database = Database.from_dict(
        {
            "up": [("a", "b"), ("b", "c"), ("z", "c")],
            "flat": [("c", "c"), ("b", "d")],
            "down": [("c", "e"), ("e", "f"), ("d", "g")],
        }
    )
    return QuerySession(program, database, engine=engine), program


class TestQueryServing:
    @pytest.mark.parametrize("engine", [None, "seminaive", "naive", "magic", "graph"])
    def test_answers_match_the_least_model(self, engine):
        session, program = sg_session(engine)
        for text in ("sg(a, Y)", "sg(b, Y)", "sg(zzz, Y)"):
            query = parse_literal(text)
            assert session.query(query).answers == answer_query(
                program, query, session.database
            ), (engine, text)

    def test_repeated_queries_reuse_one_materialization(self):
        session, _ = sg_session()
        for _ in range(5):
            session.query("sg(a, Y)")
        assert session.stats["queries"] == 5
        assert session.stats["materializations"] == 1

    def test_second_identical_query_is_served_from_cache(self):
        session, _ = sg_session("graph")
        first = session.query("sg(a, Y)")
        second = session.query("sg(a, Y)")
        assert second.answers == first.answers
        assert second.details.get("cached")
        # a lookup retrieves nothing: its counters are empty
        assert second.counters.total_work() == 0

    def test_alpha_equivalent_queries_share_a_cache_entry(self):
        session, _ = sg_session("graph")
        session.query("sg(a, Y)")
        renamed = session.query("sg(a, Z)")
        assert renamed.details.get("cached")

    def test_base_predicate_queries_are_served(self):
        session, program = sg_session()
        query = parse_literal("up(a, Y)")
        assert session.query(query).answers == {("b",)}

    def test_pinned_engine_session(self):
        session, _ = sg_session("seminaive")
        result = session.query("sg(a, Y)")
        assert result.engine == "seminaive"

    @pytest.mark.parametrize("engine", ["magic", "graph", "seminaive"])
    def test_mutating_a_served_result_leaves_the_cache_intact(self, engine):
        program, database, _ = random_genealogy(60, 4)
        query = parse_literal("sg(p1, Y)")
        expected = answer_query(program, query, database)
        assert expected
        session = QuerySession(program, database, engine=engine)
        for _ in range(3):
            served = session.query(query)
            assert served.answers == expected
            served.answers.clear()
            served.details.clear()
            served.details["cached"] = "tampered"
        again = session.query(query)
        assert again.answers == expected
        assert again.details.get("cached") in (None, True)
        assert session.query(query).answers is not again.answers


class TestIncrementalRefresh:
    def test_insert_facts_refreshes_cached_materializations(self):
        session, program = sg_session()
        query = parse_literal("sg(a, Y)")
        session.query(query)
        session.insert_facts("flat", [("a", "a2")])
        session.insert_facts("up", [("q", "a")])
        updated = session.query(query)
        assert updated.answers == answer_query(program, query, session.database)
        assert session.stats["resumes"] >= 1
        assert session.stats["materializations"] == 1

    def test_duplicate_inserts_trigger_no_resume(self):
        session, _ = sg_session()
        session.query("sg(a, Y)")
        resumes = session.stats["resumes"]
        assert session.insert_facts("up", [("a", "b")]) == 0
        assert not session.database.delta_since(session.database.version)
        assert session.stats["resumes"] == resumes

    def test_multi_predicate_batch_insert(self):
        session, program = sg_session()
        query = parse_literal("sg(a, Y)")
        session.query(query)
        added = session.insert({"up": [("y", "c")], "flat": [("a", "k")]})
        assert added == 2
        assert session.query(query).answers == answer_query(
            program, query, session.database
        )

    def test_direct_database_inserts_are_caught_up_lazily(self):
        session, program = sg_session()
        query = parse_literal("sg(a, Y)")
        session.query(query)
        # bypass the session: the next query sees the version bump and resumes
        session.database.add_fact("flat", [("a", "solo")][0])
        updated = session.query(query)
        assert updated.answers == answer_query(program, query, session.database)
        assert session.stats["materializations"] == 1

    def test_refresh_covers_every_cached_strategy(self):
        session, program = sg_session()
        query = parse_literal("sg(a, Y)")
        session.query(query, engine="seminaive")
        session.query(query, engine="magic")
        session.query(query, engine="graph")
        session.insert_facts("flat", [("a", "a2")])
        expected = answer_query(program, query, session.database)
        for engine in ("seminaive", "magic", "graph"):
            assert session.query(query, engine=engine).answers == expected, engine


class TestPreparedQueries:
    def test_parameter_substitution(self):
        session, program = sg_session()
        same_gen = session.prepare("sg(X, Y)", params=("X",))
        for start in ("a", "b", "z"):
            query = parse_literal(f"sg({start}, Y)")
            assert same_gen(start).answers == answer_query(
                program, query, session.database
            ), start

    def test_repeated_parameter_occurrences_are_all_bound(self):
        program = parse_program(TC)
        session = QuerySession(program, Database.from_dict({"e": [(1, 2), (2, 1)]}))
        loops = session.prepare("tc(X, X)", params=("X",))
        assert loops(1).answers == {()}

    def test_unknown_parameter_is_rejected(self):
        session, _ = sg_session()
        with pytest.raises(ValueError):
            session.prepare("sg(X, Y)", params=("Q",))

    def test_wrong_argument_count_is_rejected(self):
        session, _ = sg_session()
        prepared = session.prepare("sg(X, Y)", params=("X",))
        with pytest.raises(ValueError):
            prepared("a", "b")

    def test_bind_exposes_the_substituted_literal(self):
        session, _ = sg_session()
        prepared = session.prepare("sg(X, Y)", params=("X",))
        assert prepared.bind("a") == parse_literal("sg(a, Y)")


class TestStrategySelection:
    def test_binary_chain_bound_query_goes_to_graph(self):
        program = parse_program(SG)
        assert select_engine(program, parse_literal("sg(a, Y)")) == "graph"

    def test_unbound_query_goes_to_the_model(self):
        program = parse_program(SG)
        assert select_engine(program, parse_literal("sg(X, Y)")) == "seminaive"

    def test_base_query_goes_to_the_model(self):
        program = parse_program(SG)
        assert select_engine(program, parse_literal("up(a, Y)")) == "seminaive"

    def test_nonlinear_program_falls_back_to_the_model(self):
        program = parse_program(NONLINEAR)
        assert select_engine(program, parse_literal("anc(1, Y)")) == "seminaive"

    def test_linear_nary_program_goes_to_magic_or_graph(self):
        program = parse_program(
            """
            cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
            cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1,
                                 is_deptime(DT1), cnx(D1, DT1, D, AT).
            """
        )
        choice = select_engine(program, parse_literal("cnx(hel, 1, D, AT)"))
        assert choice in ("graph", "magic")


class TestProgramFactsMemo:
    def test_combined_database_is_memoized_per_version(self):
        program = parse_program("p(X) :- e(X, Y). e(10, 20).")
        database = Database.from_dict({"e": [(1, 2)]})
        combined_database(program, database)
        snapshot = database._program_facts_memo[program][1]
        combined_database(program, database)
        assert database._program_facts_memo[program][1] is snapshot
        database.add_fact("e", (3, 4))
        combined_database(program, database)
        assert database._program_facts_memo[program][1] is not snapshot

    def test_bare_answer_path_populates_and_reuses_the_memo(self):
        program = parse_program(TC + "e(1, 2).")
        database = Database.from_dict({"e": [(2, 3)]})
        first = run_engine("seminaive", program, parse_literal("tc(1, Y)"), database)
        assert first.answers == {(2,), (3,)}
        snapshot = database._program_facts_memo[program][1]
        second = run_engine("naive", program, parse_literal("tc(1, Y)"), database)
        assert second.answers == {(2,), (3,)}
        assert database._program_facts_memo[program][1] is snapshot

    def test_overlays_of_the_memoized_snapshot_do_not_leak_writes(self):
        program = parse_program(TC + "e(1, 2).")
        database = Database.from_dict({"e": [(2, 3)]})
        run_engine("seminaive", program, parse_literal("tc(1, Y)"), database)
        # derived relations never appear in the caller's database or the memo
        assert database.count("tc") == 0
        snapshot = database._program_facts_memo[program][1]
        assert snapshot.count("tc") == 0
        assert snapshot.rows("e") == frozenset({(1, 2), (2, 3)})

    def test_fingerprint_is_order_insensitive_and_stable(self):
        a = parse_program("p(X) :- e(X, Y). q(X) :- e(Y, X).")
        b = parse_program("q(X) :- e(Y, X). p(X) :- e(X, Y).")
        assert program_fingerprint(a) == program_fingerprint(b)
        assert len(program_fingerprint(a)) == 16


class TestSessionOverVersionedGrowth:
    def test_fact_stream_stays_consistent_across_many_batches(self):
        program = parse_program(TC)
        session = QuerySession(program, Database.from_dict({"e": [(0, 1)]}))
        query = parse_literal("tc(0, Y)")
        reachable = session.prepare("tc(X, Y)", params=("X",))
        for i in range(1, 12):
            session.insert_facts("e", [(i, i + 1)])
            expected = answer_query(program, query, session.database)
            assert session.query(query).answers == expected, i
            assert reachable(0).answers == expected, i
        assert session.database.version == 12
        assert session.stats["materializations"] >= 1


class TestSessionRetraction:
    def test_retract_matches_the_least_model(self):
        program = parse_program(TC)
        session = QuerySession(
            program, Database.from_dict({"e": [(i, i + 1) for i in range(9)]})
        )
        query = parse_literal("tc(0, Y)")
        session.query(query)
        assert session.retract_facts("e", [(4, 5)]) == 1
        expected = answer_query(program, query, session.database)
        assert session.query(query).answers == expected
        assert len(expected) == 4

    def test_retract_resumes_instead_of_rematerializing(self):
        program = parse_program(TC)
        session = QuerySession(
            program,
            Database.from_dict({"e": [(i, i + 1) for i in range(9)]}),
            engine="seminaive",
        )
        session.query("tc(0, Y)")
        materializations = session.stats["materializations"]
        session.retract_facts("e", [(2, 3)])
        session.query("tc(0, Y)")
        assert session.stats["materializations"] == materializations
        assert session.stats["resumes"] >= 1

    def test_absent_retraction_triggers_no_resume(self):
        session, _ = sg_session()
        session.query("sg(a, Y)")
        resumes = session.stats["resumes"]
        assert session.retract_facts("up", [("nope", "nothere")]) == 0
        assert session.stats["resumes"] == resumes

    def test_retract_batch_refreshes_once(self):
        program = parse_program(TC)
        session = QuerySession(
            program, Database.from_dict({"e": [(i, i + 1) for i in range(6)]})
        )
        query = parse_literal("tc(0, Y)")
        session.query(query)
        resumes = session.stats["resumes"]
        assert session.retract({"e": [(1, 2), (3, 4)]}) == 2
        assert session.stats["resumes"] == resumes + 1
        assert session.query(query).answers == answer_query(
            program, query, session.database
        )

    def test_mixed_update_applies_deletes_then_inserts(self):
        program = parse_program(TC)
        session = QuerySession(
            program, Database.from_dict({"e": [(0, 1), (1, 2), (2, 3)]})
        )
        query = parse_literal("tc(0, Y)")
        session.query(query)
        changed = session.update(
            inserts={"e": [(1, 9), (9, 3)]}, deletes={"e": [(1, 2)]}
        )
        assert changed == 3
        assert session.query(query).answers == answer_query(
            program, query, session.database
        )

    def test_interleaved_stream_stays_consistent(self):
        program = parse_program(NONLINEAR)
        session = QuerySession(
            program,
            Database.from_dict(
                {"par": [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7)]}
            ),
        )
        query = parse_literal("anc(1, Y)")
        reachable = session.prepare("anc(X, Y)", params=("X",))
        stream = [
            ("retract", (2, 3)),
            ("insert", (4, 8)),
            ("retract", (5, 6)),
            ("insert", (2, 3)),
            ("retract", (1, 2)),
            ("insert", (1, 5)),
        ]
        for action, row in stream:
            if action == "retract":
                session.retract_facts("par", [row])
            else:
                session.insert_facts("par", [row])
            expected = answer_query(program, query, session.database)
            assert session.query(query).answers == expected, (action, row)
            assert reachable(1).answers == expected, (action, row)

    def test_direct_database_deletes_are_caught_up_lazily(self):
        program = parse_program(TC)
        database = Database.from_dict({"e": [(0, 1), (1, 2), (2, 3)]})
        session = QuerySession(program, database)
        query = parse_literal("tc(0, Y)")
        session.query(query)
        # bypass retract_facts: the next query detects the version bump
        database.remove_fact("e", (1, 2))
        assert session.query(query).answers == answer_query(
            program, query, database
        )

    def test_retraction_on_stratified_program_restarts_strata(self):
        program = parse_program(
            """
            r(X, Y) :- e(X, Y).
            r(X, Z) :- e(X, Y), r(Y, Z).
            un(X, Y) :- n(X), n(Y), not r(X, Y).
            """
        )
        session = QuerySession(
            program,
            Database.from_dict(
                {"e": [(1, 2), (2, 3)], "n": [(1,), (2,), (3,)]}
            ),
        )
        query = parse_literal("un(X, Y)")
        before = session.query(query).answers
        session.retract_facts("e", [(2, 3)])
        after = session.query(query).answers
        assert after == answer_query(program, query, session.database)
        # deleting below the negation *adds* consequences above it
        assert len(after) > len(before)


class TestDerivedPredicateWrites:
    """A write to a derived predicate is rejected before it reaches the
    database; the session keeps answering and accepting EDB writes."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda s: s.insert_facts("tc", [(7, 8)]),
            lambda s: s.insert({"e": [(3, 4)], "tc": [(7, 8)]}),
            lambda s: s.retract_facts("tc", [(0, 1)]),
            lambda s: s.retract({"e": [(0, 1)], "tc": [(0, 1)]}),
            lambda s: s.update(inserts={"tc": [(7, 8)]}),
            lambda s: s.update(inserts={"e": [(3, 4)]}, deletes={"tc": [(0, 1)]}),
        ],
        ids=["insert_facts", "insert", "retract_facts", "retract", "update", "update-deletes"],
    )
    def test_rejected_write_leaves_the_session_usable(self, write):
        program = parse_program(TC)
        session = QuerySession(program, Database.from_dict({"e": [(0, 1), (1, 2)]}))
        query = parse_literal("tc(0, Y)")
        session.query(query)
        version = session.database.version
        with pytest.raises(ValueError, match="derived predicate 'tc'"):
            write(session)
        assert session.database.version == version
        assert session.query(query).answers == {(1,), (2,)}
        assert session.insert_facts("e", [(2, 3)]) == 1
        assert session.query(query).answers == {(1,), (2,), (3,)}
