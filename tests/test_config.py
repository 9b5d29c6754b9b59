"""The evaluation settings (``repro.config``): defaults, validation, restore,
and per-thread isolation."""

import sys
import threading
from dataclasses import fields, replace

import pytest

from repro.config import EvalConfig, configured, current_config
from repro.datalog.diagnostics import eager_validation_enabled
from repro.datalog.plans import get_execution_mode, get_plan_mode
from repro.datalog.transform import get_program_opt
from repro.engines import get_engine
from repro.parallel import parallelism
from repro.session import QuerySession
from repro.storage.runtime import get_storage_mode
from repro.workloads import chain


def _getters():
    return (
        get_execution_mode(),
        get_plan_mode(),
        get_program_opt(),
        get_storage_mode(),
        parallelism(),
        eager_validation_enabled(),
    )


class TestDefaults:
    def test_defaults(self, monkeypatch):
        assert current_config() == EvalConfig()
        monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
        config = EvalConfig()
        assert [field.name for field in fields(config)] == [
            "execution",
            "plan",
            "optimize",
            "parallelism",
        ]
        assert config == EvalConfig("columnar", "legacy", False, 1)
        with configured(parallelism=1):
            assert _getters() == ("columnar", "legacy", "off", "kernel", 1, True)

    @pytest.mark.parametrize(
        "raw,workers", [("3", 3), (" 2 ", 2), ("", 1), ("0", 1), ("-4", 1), ("two", 1)]
    )
    def test_parallelism_default_from_environment(self, monkeypatch, raw, workers):
        monkeypatch.setenv("REPRO_PARALLELISM", raw)
        assert EvalConfig().parallelism == workers

    def test_getters_read_the_config(self):
        with configured(
            execution="interpreted",
            plan="cost",
            optimize=True,
            parallelism=3,
        ):
            assert _getters() == ("interpreted", "cost", "on", "reference", 3, True)


def _setting(changes):
    return ",".join(f"{name}={value}" for name, value in changes.items())


INVALID = [
    {"execution": "compiled"},
    {"plan": "oracle"},
    {"optimize": "on"},
    {"parallelism": 0},
    {"parallelism": "two"},
]


class TestValidation:
    @pytest.mark.parametrize("changes", INVALID, ids=_setting)
    def test_constructor_rejects(self, changes):
        with pytest.raises(ValueError):
            EvalConfig(**changes)

    @pytest.mark.parametrize("changes", INVALID, ids=_setting)
    def test_configured_rejects_before_the_block(self, changes):
        before = current_config()
        with pytest.raises(ValueError):
            with configured(**changes):
                pytest.fail("the block must not run")
        assert current_config() is before

    def test_storage_is_not_a_setting(self):
        before = current_config()
        with pytest.raises(TypeError):
            with configured(storage="reference"):
                pytest.fail("the block must not run")
        assert current_config() is before


class TestRestore:
    def test_restores_on_exit(self):
        before = current_config()
        with configured(plan="cost") as outer:
            assert current_config() is outer
            assert outer == replace(before, plan="cost")
            with configured(execution="interpreted"):
                assert (current_config().plan, current_config().execution) == (
                    "cost",
                    "interpreted",
                )
            assert current_config() is outer
        assert current_config() is before

    def test_restores_on_error(self):
        before = current_config()
        with pytest.raises(RuntimeError):
            with configured(execution="interpreted"):
                raise RuntimeError("boom")
        assert current_config() is before


def _serve(runs):
    """``runs`` rounds of Engine.answer plus a fresh seminaive session."""
    program, database, query = chain(120)
    engine = get_engine("seminaive")
    observed = []
    for _ in range(runs):
        answered = engine.answer(program, query, database)
        served = QuerySession(program, database, engine="seminaive").query(query)
        observed.append(
            (
                answered.answers,
                answered.counters,
                answered.batch_stats.batches,
                served.answers,
                served.counters,
            )
        )
    return observed


class TestThreads:
    """Two threads evaluate under different settings at the same time.

    A short switch interval interleaves them finely.  Parallelism stays at
    1: forking from a multi-threaded process is unsafe.
    """

    CONFIGS = {
        "interpreted": {"execution": "interpreted"},
        "cost": {"plan": "cost"},
    }
    RUNS = 15

    def test_two_configs_concurrently(self):
        expected = {}
        for name, changes in self.CONFIGS.items():
            with configured(parallelism=1, **changes):
                expected[name] = _serve(1)[0]
        barrier = threading.Barrier(len(self.CONFIGS), timeout=60)
        results, errors = {}, {}

        def worker(name, changes):
            try:
                with configured(parallelism=1, **changes):
                    barrier.wait()
                    results[name] = _serve(self.RUNS)
            except Exception as exc:  # reported by the main thread
                errors[name] = exc
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=item) for item in self.CONFIGS.items()
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == {}
        for name in self.CONFIGS:
            assert results[name] == [expected[name]] * self.RUNS, name
        assert expected["interpreted"][2] == 0
        assert expected["cost"][2] > 0
