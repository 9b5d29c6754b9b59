"""Property tests for join-plan compilation.

The central invariant: plan compilation is *order-insensitive*.  Whatever
order the body literals are written in, the compiled plan enumerates exactly
the same set of satisfying substitutions (the greedy reorder changes only
how much work is done, never the result), and the compiled executor agrees
with the interpreted reference executor on every permutation.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import configured
from repro.datalog.database import Database
from repro.datalog.literals import Literal
from repro.datalog.plans import compile_plan
from repro.datalog.terms import Variable

BASE_PREDICATES = ["e", "f", "g"]
CONSTANTS = list(range(5))
VARIABLES = ["X", "Y", "Z", "W"]


def random_database(seed: int, size: int = 8) -> Database:
    rng = random.Random(seed)
    facts = {}
    for name in BASE_PREDICATES:
        rows = {(rng.choice(CONSTANTS), rng.choice(CONSTANTS)) for _ in range(size)}
        facts[name] = sorted(rows)
    return Database.from_dict(facts)


def random_body(seed: int):
    """A random conjunctive body over binary base predicates plus builtins."""
    rng = random.Random(seed)
    body = []
    bound = []
    for _ in range(rng.randint(1, 4)):
        args = []
        for _ in range(2):
            if rng.random() < 0.2:
                args.append(rng.choice(CONSTANTS))
            else:
                name = rng.choice(VARIABLES)
                args.append(Variable(name))
                bound.append(name)
        body.append(Literal(rng.choice(BASE_PREDICATES), args))
    if bound and rng.random() < 0.6:
        # A comparison over variables that some scan literal binds.
        left, right = rng.choice(bound), rng.choice(bound)
        body.append(Literal(rng.choice(["<", "<=", "!="]), [Variable(left), Variable(right)]))
    return body


def answer_set(plan, database):
    return {frozenset(s.items()) for s in plan.substitutions(database)}


class TestOrderInsensitivity:
    @given(
        body_seed=st.integers(min_value=0, max_value=400),
        data_seed=st.integers(min_value=0, max_value=100),
        shuffle_seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_shuffled_bodies_compile_to_equivalent_plans(
        self, body_seed, data_seed, shuffle_seed
    ):
        body = random_body(body_seed)
        database = random_database(data_seed)
        reference = answer_set(compile_plan(body), database)
        shuffled = list(body)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert answer_set(compile_plan(shuffled), database) == reference

    @given(
        body_seed=st.integers(min_value=0, max_value=400),
        data_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_compiled_executor_matches_interpreted_reference(
        self, body_seed, data_seed
    ):
        body = random_body(body_seed)
        database = random_database(data_seed)
        plan = compile_plan(body)
        compiled = answer_set(plan, database)
        with configured(execution="interpreted"):
            interpreted = answer_set(plan, database)
        assert compiled == interpreted

    @given(
        body_seed=st.integers(min_value=0, max_value=200),
        data_seed=st.integers(min_value=0, max_value=60),
        start=st.sampled_from(CONSTANTS),
    )
    @settings(max_examples=40, deadline=None)
    def test_initial_bindings_commute_with_reordering(self, body_seed, data_seed, start):
        body = random_body(body_seed)
        database = random_database(data_seed)
        initial = {Variable("X"): start}
        bound = frozenset(initial)
        reference = {
            frozenset(s.items())
            for s in compile_plan(body, bound_vars=bound).substitutions(
                database, initial=initial
            )
        }
        shuffled = list(reversed(body))
        result = {
            frozenset(s.items())
            for s in compile_plan(shuffled, bound_vars=bound).substitutions(
                database, initial=initial
            )
        }
        assert result == reference
