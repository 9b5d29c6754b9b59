"""Outside-in layer spans: time calls into each layer's public functions.

The tracer replaces public functions and methods of the library with
wrappers that record a span around each call, without touching ``src/``:

* a module-level function is replaced in *every* ``repro.*`` module that
  holds the identical object, so ``from .runtime import
  evaluate_stratified`` aliases are caught, and function-local imports
  resolve through the patched module attribute at call time;
* a method is replaced on the class that defines it (``classmethod``
  wrappers are kept as such).

Spans are aggregated as they close -- calls, inclusive and child time per
span name -- rather than kept as records: the storage spans close millions
of times per run.  Self time is inclusive time minus the time of child
spans.  The outermost span of an op is its *root*; ``coverage`` is the
share of root time spent inside child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: (module, function, span name); several functions may share a span name.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.datalog.parser", "parse_query", "parser.parse_query"),
    ("repro.datalog.parser", "parse_program", "parser.parse_program"),
    ("repro.datalog.diagnostics", "ensure_valid", "diagnostics.ensure_valid"),
    ("repro.datalog.analysis", "analyze", "analysis.analyze"),
    # Zero calls under the default configuration (optimizer off, legacy
    # plan mode); a change of default shows here first.
    ("repro.datalog.transform", "optimize", "transform.optimize"),
    ("repro.session.session", "select_engine", "planner.select_engine"),
    ("repro.core.planner", "estimate_strategy_costs", "planner.estimate_strategy_costs"),
    ("repro.session.facts", "combined_database", "facts.combined_database"),
    ("repro.datalog.plans", "rule_plan", "plans.lookup"),
    ("repro.datalog.plans", "delta_plan", "plans.lookup"),
    ("repro.datalog.plans", "body_plan", "plans.lookup"),
    ("repro.datalog.plans", "aggregate_plan", "plans.lookup"),
    ("repro.datalog.plans", "compile_plan", "plans.compile_plan"),
    ("repro.datalog.plans", "compile_image", "plans.compile_image"),
    ("repro.engines.runtime", "evaluate_stratified", "runtime.evaluate_stratified"),
    ("repro.engines.runtime", "evaluate_component", "runtime.evaluate_component"),
    ("repro.engines.runtime", "resume_stratified", "runtime.resume_stratified"),
    ("repro.stats", "table_stats", "stats.table_stats"),
)

#: (module, class, method, span name)
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = tuple(
    ("repro.datalog.database", "Database", method, f"storage.{method}")
    for method in (
        "add_fact", "add_rows", "add_facts", "remove_facts", "overlay", "copy", "delta_since"
    )
) + (
    ("repro.engines.base", "ModelMaterialization", "answer", "engines.model.answer"),
    ("repro.engines.base", "DemandMaterialization", "answer", "engines.demand.answer"),
    ("repro.engines.base", "ModelMaterialization", "resume", "engines.model.resume"),
    ("repro.engines.base", "DemandMaterialization", "resume", "engines.demand.resume"),
    ("repro.session.session", "QuerySession", "query", "session.query"),
    ("repro.session.session", "QuerySession", "insert_facts", "session.insert"),
    ("repro.session.session", "QuerySession", "insert", "session.insert"),
    ("repro.session.session", "QuerySession", "retract_facts", "session.retract"),
    ("repro.session.session", "QuerySession", "retract", "session.retract"),
)

#: The registered engines some workload runs; ``Engine.answer`` records
#: ``engines.<name>.answer`` (the naive engine is registered but unused).
ENGINE_NAMES = (
    "counting",
    "graph",
    "henschen-naqvi",
    "magic",
    "reverse-counting",
    "seminaive",
    "topdown",
)

#: Every span the tracer reports.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [span[-1] for span in FUNCTION_SPANS + METHOD_SPANS]
        + [f"engines.{engine}.answer" for engine in ENGINE_NAMES]
        + ["engines.materialize"]
    )
)


class Tracer:
    """Records spans around the wrapped calls while installed.

    ``spans`` maps a span name to ``[calls, inclusive ns, child ns]``;
    ``roots`` holds the inclusive and child ns of the outermost spans.
    """

    def __init__(self):
        self.spans: Dict[str, List[int]] = {}
        self.roots = [0, 0]
        self._stack: List[List[int]] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _cell(self, span: str) -> List[int]:
        return self.spans.setdefault(span, [0, 0, 0])

    def _wrap(self, name, function):
        """``function`` recording a span named ``name`` (or ``name(args)``)."""
        stack, roots = self._stack, self.roots
        push, pop, clock = stack.append, stack.pop, perf_counter_ns
        fixed = self._cell(name) if isinstance(name, str) else None
        cell_of = self._cell

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0]
            push(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                pop()
                cell = fixed or cell_of(name(args))
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    roots[0] += elapsed
                    roots[1] += frame[0]

        return wrapper

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0, 0))[0]

    def inclusive_ns(self, span: str) -> int:
        return self.spans.get(span, (0, 0, 0))[1]

    def self_ns(self, span: str) -> int:
        _, inclusive, children = self.spans.get(span, (0, 0, 0))
        return inclusive - children

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module_name: str, attribute: str, span: str) -> None:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapped = self._wrap(span, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)
                    self._restore.append(functools.partial(setattr, module, alias, original))

    def _patch_method(self, cls, method: str, span) -> None:
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(span, original.__func__))
        else:
            wrapped = self._wrap(span, original)
        setattr(cls, method, wrapped)
        self._restore.append(functools.partial(setattr, cls, method, original))

    def install(self) -> "Tracer":
        """Wrap every listed function and method; see :meth:`uninstall`."""
        import repro

        # Load every module first: one imported later would bind a wrapper
        # that uninstall() never sees.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        from repro.engines import Engine, available_engines

        for module_name, attribute, span in FUNCTION_SPANS:
            self._patch_function(module_name, attribute, span)
        for module_name, class_name, method, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch_method(cls, method, span)
        self._patch_method(Engine, "answer", lambda args: f"engines.{args[0].name}.answer")
        for cls in (Engine, *available_engines().values()):
            if "materialize" in cls.__dict__:
                self._patch_method(cls, "materialize", "engines.materialize")
        return self

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
