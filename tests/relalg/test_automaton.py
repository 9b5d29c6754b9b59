"""Unit tests for repro.relalg.automaton (the M(e) construction)."""

import pytest

from repro.relalg.automaton import ID, Automaton, Transition, simulate, thompson
from repro.relalg.expressions import compose, empty, identity, inverse, pred, star, union


class TestAutomatonBasics:
    def test_new_states_are_distinct(self):
        automaton = Automaton()
        assert automaton.new_state() != automaton.new_state()

    def test_add_and_remove_transition(self):
        automaton = Automaton()
        q0, q1 = automaton.new_state(), automaton.new_state()
        transition = automaton.add_transition(q0, "a", q1)
        assert automaton.outgoing(q0) == (transition,)
        automaton.remove_transition(transition)
        assert automaton.outgoing(q0) == ()

    def test_transitions_are_a_multiset(self):
        automaton = Automaton()
        q0, q1, q2 = automaton.new_state(), automaton.new_state(), automaton.new_state()
        first = automaton.add_transition(q0, "a", q1)
        other = automaton.add_transition(q0, "b", q2)
        second = automaton.add_transition(q0, "a", q1)
        assert automaton.transitions == [first, first, other]
        assert automaton.outgoing(q0) == (first, other, second)
        automaton.remove_transition(second)
        assert automaton.transitions == [first, other]
        assert automaton.outgoing(q0) == (other, second)
        automaton.remove_transition(first)
        assert automaton.transitions == [other]
        assert automaton.outgoing(q0) == (other,)

    def test_removing_an_absent_transition_raises(self):
        automaton = Automaton()
        q0, q1 = automaton.new_state(), automaton.new_state()
        transition = automaton.add_transition(q0, "a", q1)
        with pytest.raises(ValueError):
            automaton.remove_transition(Transition(q1, "a", q0))
        automaton.remove_transition(transition)
        with pytest.raises(ValueError):
            automaton.remove_transition(transition)
        assert automaton.transitions == []
        assert automaton.outgoing(q0) == ()

    def test_labels_exclude_id(self):
        automaton = Automaton()
        q0, q1 = automaton.new_state(), automaton.new_state()
        automaton.add_transition(q0, "a", q1)
        automaton.add_transition(q0, ID, q1)
        assert automaton.labels() == {"a"}

    def test_splice_renames_states(self):
        first = thompson(pred("a"))
        second = thompson(pred("b"))
        before = first.state_count()
        mapping, added = first.splice(second)
        assert first.state_count() == before + second.state_count()
        assert set(mapping) == set(second.states)
        assert added == [
            Transition(mapping[t.source], t.label, mapping[t.target], t.inverted)
            for t in second.transitions
        ]
        assert all(t in first.transitions for t in added)

    def test_copy_is_independent(self):
        automaton = thompson(pred("a"))
        clone = automaton.copy()
        clone.add_transition(clone.initial, "zzz", clone.final)
        assert "zzz" not in automaton.labels()
        assert simulate(clone, ["a"])


class TestThompsonLanguages:
    """M(e) must accept exactly the words of e read as a regular expression."""

    def test_single_predicate(self):
        automaton = thompson(pred("a"))
        assert simulate(automaton, ["a"])
        assert not simulate(automaton, [])
        assert not simulate(automaton, ["b"])
        assert not simulate(automaton, ["a", "a"])

    def test_identity_accepts_empty_word(self):
        automaton = thompson(identity())
        assert simulate(automaton, [])
        assert not simulate(automaton, ["a"])

    def test_empty_accepts_nothing(self):
        automaton = thompson(empty())
        assert not simulate(automaton, [])
        assert not simulate(automaton, ["a"])

    def test_union(self):
        automaton = thompson(union(pred("a"), pred("b")))
        assert simulate(automaton, ["a"])
        assert simulate(automaton, ["b"])
        assert not simulate(automaton, ["a", "b"])

    def test_composition(self):
        automaton = thompson(compose(pred("a"), pred("b"), pred("c")))
        assert simulate(automaton, ["a", "b", "c"])
        assert not simulate(automaton, ["a", "b"])
        assert not simulate(automaton, ["a", "c", "b"])

    def test_star(self):
        automaton = thompson(star(pred("a")))
        assert simulate(automaton, [])
        assert simulate(automaton, ["a"])
        assert simulate(automaton, ["a", "a", "a"])
        assert not simulate(automaton, ["b"])

    def test_paper_figure1_expression(self):
        # e_p = (b3 . b4* U b2 . p) . b1   -- Figure 1 of the paper.
        e = compose(
            union(compose(pred("b3"), star(pred("b4"))), compose(pred("b2"), pred("p"))),
            pred("b1"),
        )
        automaton = thompson(e)
        assert simulate(automaton, ["b3", "b1"])
        assert simulate(automaton, ["b3", "b4", "b4", "b1"])
        assert simulate(automaton, ["b2", "p", "b1"])
        assert not simulate(automaton, ["b3"])
        assert not simulate(automaton, ["b2", "b1"])
        assert not simulate(automaton, ["b1"])

    def test_inverse_of_predicate(self):
        automaton = thompson(inverse(pred("a")))
        assert simulate(automaton, ["a^-1"])
        assert not simulate(automaton, ["a"])

    def test_inverse_of_composition_reverses_order(self):
        automaton = thompson(inverse(compose(pred("a"), pred("b"))))
        assert simulate(automaton, ["b^-1", "a^-1"])
        assert not simulate(automaton, ["a^-1", "b^-1"])

    def test_inverse_of_star(self):
        automaton = thompson(inverse(star(pred("a"))))
        assert simulate(automaton, [])
        assert simulate(automaton, ["a^-1", "a^-1"])

    def test_nested_expression(self):
        # (a U b . c)* . d
        e = compose(star(union(pred("a"), compose(pred("b"), pred("c")))), pred("d"))
        automaton = thompson(e)
        assert simulate(automaton, ["d"])
        assert simulate(automaton, ["a", "d"])
        assert simulate(automaton, ["b", "c", "a", "d"])
        assert not simulate(automaton, ["b", "d"])


class TestStructure:
    def test_every_predicate_occurrence_is_one_transition(self):
        e = union(pred("a"), compose(pred("a"), pred("b")))
        automaton = thompson(e)
        on_a = [t for t in automaton.transitions if t.label == "a"]
        on_b = [t for t in automaton.transitions if t.label == "b"]
        assert len(on_a) == 2    # two occurrences of a
        assert len(on_b) == 1

    def test_describe_mentions_counts(self):
        text = thompson(pred("a")).describe()
        assert "states=2" in text and "transitions=1" in text
