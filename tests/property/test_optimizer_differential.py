"""Property-based differential testing of the program optimizer.

Random stratified programs -- recursion, stratified negation, builtins,
dead rules, unused predicates, subsumption-bait duplicates -- are answered
with the optimizer off and on; every engine must return exactly the same
answer set either way.  This is the randomized counterpart of the
hand-built mode matrix in ``tests/datalog/test_transform.py``.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import configured
from repro.datalog.errors import NotApplicableError
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program
from repro.datalog.transform import optimize
from repro.engines import available_engines, get_engine

CONSTANTS = list(range(4))


def random_stratified_program(seed: int) -> str:
    """A random stratified program exercising every optimizer pass."""
    rng = random.Random(seed)
    lines = []
    for name in ("e", "f"):
        rows = {
            (rng.choice(CONSTANTS), rng.choice(CONSTANTS))
            for _ in range(rng.randint(2, 6))
        }
        for a, b in sorted(rows):
            lines.append(f"{name}({a}, {b}).")
    lines.append("p(X, Y) :- e(X, Y).")
    if rng.random() < 0.7:  # recursion
        lines.append("p(X, Z) :- e(X, Y), p(Y, Z).")
    if rng.random() < 0.5:  # subsumption bait: strictly less general copy
        lines.append("p(X, Y) :- e(X, Y), f(X, X).")
    if rng.random() < 0.5:  # stratified negation over a derived predicate
        lines.append("q(X) :- p(X, Y), not f(X, Y).")
    if rng.random() < 0.5:  # never fires (int vs int: safe to eliminate)
        lines.append("dormant(X) :- e(X, Y), Y > 50.")
    if rng.random() < 0.5:  # dead relative to the queried predicates
        lines.append("unused(X) :- p(X, Y), f(Y, X).")
    if rng.random() < 0.4:  # single-definition unfolding candidate
        lines.append("mid(X, Y) :- f(X, Y).")
        lines.append("r(X, Z) :- p(X, Y), mid(Y, Z).")
    return "\n".join(lines)


def random_query(seed: int, program_text: str) -> Literal:
    rng = random.Random(seed)
    heads = [
        name
        for name in ("p", "q", "r")
        if f"{name}(" in program_text.split(":-")[0]
        or any(line.startswith(f"{name}(") for line in program_text.splitlines())
    ]
    predicate = rng.choice(heads or ["p"])
    arity = 1 if predicate == "q" else 2
    args = [
        rng.choice(CONSTANTS) if rng.random() < 0.4 else var
        for var in ("X", "Y")[:arity]
    ]
    return Literal(predicate, args)


class TestOptimizerDifferential:
    @given(
        program_seed=st.integers(min_value=0, max_value=400),
        query_seed=st.integers(min_value=0, max_value=50),
        engine_name=st.sampled_from(sorted(available_engines())),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimized_answers_identical(
        self, program_seed, query_seed, engine_name
    ):
        program_text = random_stratified_program(program_seed)
        program = parse_program(program_text)
        query = random_query(query_seed, program_text)
        engine = get_engine(engine_name)
        try:
            baseline = engine.answer(program, query)
        except NotApplicableError:
            assume(False)
        with configured(optimize=True):
            optimized = engine.answer(program, query)
        assert optimized.answers == baseline.answers, (
            engine_name,
            program_text,
            str(query),
        )

    @given(program_seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_optimize_is_idempotent(self, program_seed):
        program = parse_program(random_stratified_program(program_seed))
        once = optimize(program, queries=("p",)).program
        twice = optimize(once, queries=("p",)).program
        assert {str(r) for r in twice.rules} == {str(r) for r in once.rules}
