import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_md5.py"


@pytest.fixture
def output_md5():
    spec = importlib.util.spec_from_file_location("output_md5", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "second, code",
    [
        ({"run stdout": ("0", "aa"), "file": ("", "bb")}, 0),
        ({"run stdout": ("0", "aa"), "file": ("", "cc")}, 1),  # a file's md5 differs
        ({"run stdout": ("1", "aa"), "file": ("", "bb")}, 1),  # an exit code differs
        ({"run stdout": ("0", "aa")}, 1),  # a file is missing
    ],
)
def test_exit_code_says_whether_any_row_differs(output_md5, monkeypatch, capsys, second, code):
    tables = iter([{"run stdout": ("0", "aa"), "file": ("", "bb")}, second])
    monkeypatch.setattr(output_md5, "hash_checkout", lambda root: next(tables))
    monkeypatch.setattr(output_md5, "hash_workloads", lambda root, seeds: {})
    assert output_md5.main(["a=.", "b=."]) == code
    assert capsys.readouterr().err.endswith(f"2 rows, {code} with differing md5s or exit codes\n")


@pytest.mark.parametrize("roots", [["a=.", "b=."], ["a=."]])
def test_a_run_that_fails_everywhere_fails_the_check(output_md5, monkeypatch, capsys, roots):
    # every checkout exits 1 on the same run with the same output: no row differs
    monkeypatch.setattr(output_md5, "hash_checkout", lambda root: {"run stdout": ("1", "aa"), "file": ("", "bb")})
    monkeypatch.setattr(output_md5, "hash_workloads", lambda root, seeds: {})
    assert output_md5.main(roots) == 1
    err = capsys.readouterr().err
    assert "1 rows whose run exited nonzero\n" in err
    assert err.endswith("2 rows, 0 with differing md5s or exit codes\n")
