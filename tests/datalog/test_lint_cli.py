"""The ``python -m repro.lint`` command-line driver."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import discover, main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = """\
% lint: known edge
% query: tc(a, Y)
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

WARNING = """\
% lint: known q
p(X) :- q(X, Unused).
"""

BROKEN = """\
p(X, Y) :- q(X).
"""


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.dl"
        path.write_text(CLEAN)
        assert main([str(path)]) == 0
        assert "1 file(s) clean" in capsys.readouterr().out

    def test_error_fails_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.dl"
        path.write_text(BROKEN)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1:6: error[DL201]" in out

    def test_warnings_fail_only_under_strict(self, tmp_path):
        path = tmp_path / "warn.dl"
        path.write_text(WARNING)
        assert main([str(path)]) == 0
        assert main(["--strict", str(path)]) == 1

    def test_json_output_shape(self, tmp_path, capsys):
        path = tmp_path / "broken.dl"
        path.write_text(BROKEN)
        assert main(["--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 1
        assert payload["summary"]["ok"] is False
        (report,) = payload["files"]
        (first, *_) = report["diagnostics"]
        assert first["code"] == "DL201"
        assert (first["line"], first["column"]) == (1, 6)

    def test_directory_discovery_recurses(self, tmp_path):
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "a.dl").write_text(CLEAN)
        (tmp_path / "top.dl").write_text(CLEAN)
        (tmp_path / "ignored.txt").write_text("not datalog")
        found = discover([str(tmp_path)])
        assert [p.name for p in found] == ["a.dl", "top.dl"]

    def test_bad_query_directive_is_reported(self, tmp_path, capsys):
        path = tmp_path / "directive.dl"
        path.write_text("% query: tc(a,\ntc(X, Y) :- e(X, Y).\n")
        assert main([str(path)]) == 1
        assert "bad query directive" in capsys.readouterr().out

    def test_constant_in_literal_position_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "quoted.dl"
        path.write_text("% lint: known q\np(X) :- q(X), not ''(X).\n")
        assert main([str(path)]) == 1
        assert f"{path}:2:19: error[DL101]" in capsys.readouterr().out

    def test_codes_table(self, capsys):
        assert main(["--codes"]) == 0
        out = capsys.readouterr().out
        assert "DL201" in out and "DL501" in out


class TestParallelJobs:
    """``--jobs N`` must not change output, ordering, or exit status."""

    def _populate(self, tmp_path):
        (tmp_path / "a_warn.dl").write_text(WARNING)
        (tmp_path / "b_clean.dl").write_text(CLEAN)
        (tmp_path / "c_broken.dl").write_text(BROKEN)
        (tmp_path / "d_warn.dl").write_text(WARNING)
        (tmp_path / "missing.dl").touch()
        (tmp_path / "missing.dl").unlink()

    def test_jobs_rejects_nonpositive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", str(tmp_path)])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_identical_to_sequential(self, tmp_path, capsys, fmt):
        self._populate(tmp_path)
        sequential_status = main(["--format", fmt, str(tmp_path)])
        sequential = capsys.readouterr()
        parallel_status = main(["--format", fmt, "--jobs", "4", str(tmp_path)])
        parallel = capsys.readouterr()
        assert parallel_status == sequential_status == 1
        assert parallel.out == sequential.out
        assert parallel.err == sequential.err

    def test_jobs_with_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "gone.dl"
        assert main(["--jobs", "2", str(path), str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.dl")]) == 1

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "clean.dl"
        path.write_text(CLEAN)
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(path)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr


class TestRepoCorpusSelfCheck:
    """The CI invariant: every .dl program in the repo lints clean."""

    @pytest.mark.parametrize(
        "tree", ["workloads", "examples"], ids=["workloads", "examples"]
    )
    def test_tree_is_strict_clean(self, tree, capsys):
        root = REPO_ROOT / tree
        assert discover([str(root)]), f"no .dl corpus under {root}"
        assert main(["--strict", "--format", "json", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["error"] == 0
        assert payload["summary"]["warning"] == 0
