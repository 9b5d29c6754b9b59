"""The repo invariant checker (``tools/check_invariants.py``).

Pins three things: the real source tree is clean, a synthetic violation of
each rule (storage encapsulation, no threads, no ``id()``, no ``global``
statements, no ``rows()`` in the engines) is flagged with an exact
``line:column``, and the ``self``/storage-package exemptions hold so the
checker never cries wolf.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECKER = REPO / "tools" / "check_invariants.py"

sys.path.insert(0, str(REPO / "tools"))
import check_invariants  # noqa: E402


class TestCheckFile:
    def test_flags_external_private_access(self, tmp_path):
        source = tmp_path / "client.py"
        source.write_text("def peek(table):\n    return table._rows\n")
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (2, 12)
        assert "_rows" in message and "repro.storage" in message

    def test_self_access_is_exempt(self, tmp_path):
        source = tmp_path / "own_state.py"
        source.write_text(
            "class Database:\n"
            "    def __init__(self):\n"
            "        self._rows = {}\n"
            "    def size(self):\n"
            "        return len(self._rows)\n"
        )
        assert check_invariants.check_file(source) == []

    def test_public_api_is_clean(self, tmp_path):
        source = tmp_path / "consumer.py"
        source.write_text("def rows(table):\n    return table.rows_map\n")
        assert check_invariants.check_file(source) == []

    def test_storage_package_is_exempt(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "storage"
        nested.mkdir(parents=True)
        inside = nested / "table.py"
        inside.write_text("def merge(a, b):\n    a._rows.update(b._rows)\n")
        assert check_invariants.check_tree([tmp_path / "src"]) == 0

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        source = tmp_path / "broken.py"
        source.write_text("def (:\n")
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        assert "cannot parse" in violations[0][2]


class TestNoThreads:
    def test_flags_thread_attribute(self, tmp_path):
        source = tmp_path / "scheduler.py"
        source.write_text(
            "import threading\n"
            "def spawn(run):\n"
            "    threading.Thread(target=run).start()\n"
        )
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (3, 5)
        assert "threading.Thread" in message and "fork-only" in message

    def test_flags_thread_import(self, tmp_path):
        source = tmp_path / "scheduler.py"
        source.write_text("from threading import Lock, Thread\n")
        violations = check_invariants.check_file(source)
        assert [(line, column) for line, column, _ in violations] == [(1, 1)]

    def test_locks_are_allowed(self, tmp_path):
        source = tmp_path / "interner.py"
        source.write_text(
            "import threading\n"
            "from threading import Lock\n"
            "_GROW = threading.Lock()\n"
        )
        assert check_invariants.check_file(source) == []

    def test_storage_package_is_not_exempt(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "storage"
        nested.mkdir(parents=True)
        inside = nested / "table.py"
        inside.write_text("import threading\nclass W(threading.Thread):\n    pass\n")
        assert check_invariants.check_tree([tmp_path / "src"]) == 1


class TestNoIdCalls:
    def test_flags_id_call(self, tmp_path):
        source = tmp_path / "memo.py"
        source.write_text(
            "def key(program, database):\n"
            "    return (program, id(database))\n"
        )
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (2, 22)
        assert "`id()`" in message and "weakref" in message

    def test_identity_without_addresses_is_clean(self, tmp_path):
        source = tmp_path / "memo.py"
        source.write_text(
            "import weakref\n"
            "def hit(memo, database):\n"
            "    return memo[0]() is database\n"
            "def remember(database, rule):\n"
            "    return weakref.ref(database), rule.id\n"
        )
        assert check_invariants.check_file(source) == []


class TestNoGlobals:
    def test_flags_global_statement(self, tmp_path):
        source = tmp_path / "switch.py"
        source.write_text(
            "_mode = 'columnar'\n"
            "def set_mode(mode):\n"
            "    global _mode\n"
            "    _mode = mode\n"
        )
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (3, 5)
        assert "`global`" in message and "configured()" in message

    def test_constants_and_nonlocal_are_clean(self, tmp_path):
        source = tmp_path / "counter.py"
        source.write_text(
            "_LIMIT = 8\n"
            "def counter():\n"
            "    count = 0\n"
            "    def bump():\n"
            "        nonlocal count\n"
            "        count += 1\n"
            "        return min(count, _LIMIT)\n"
            "    return bump\n"
        )
        assert check_invariants.check_file(source) == []


class TestNoRowsInEngines:
    def test_flags_rows_call_in_the_engines(self, tmp_path):
        engines = tmp_path / "src" / "repro" / "engines"
        engines.mkdir(parents=True)
        source = engines / "naive.py"
        source.write_text(
            "def answer(database, query, project):\n"
            "    return project(database.rows(query.predicate), query)\n"
        )
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (2, 20)
        assert "`rows()`" in message and "Database.answers" in message

    def test_answers_row_views_and_other_layers_are_clean(self, tmp_path):
        root = tmp_path / "src" / "repro"
        (root / "engines").mkdir(parents=True)
        (root / "datalog").mkdir()
        (root / "engines" / "seminaive.py").write_text(
            "def answer(database, query, table):\n"
            "    size = database.count(query.predicate)\n"
            "    rows = list(table.all_rows())\n"
            "    return database.answers(query), size, rows, table.rows_map\n"
        )
        (root / "datalog" / "semantics.py").write_text(
            "def derived(model, predicate):\n"
            "    return model.rows(predicate)\n"
        )
        assert check_invariants.check_tree([tmp_path / "src"]) == 0


class TestRepoTree:
    def test_source_tree_holds_the_invariant(self):
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "invariants hold" in result.stdout
