"""The line counter behind CI's Summary step (tools/source_lines.py)."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "source_lines.py"
_SPEC = importlib.util.spec_from_file_location("source_lines", _PATH)
source_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(source_lines)


def test_counts_each_line_by_kind():
    source = '''"""Module docstring,
over two lines."""
import os

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = 1  # a trailing comment is code
        "a later string statement"
        return x
'''
    counts = source_lines.count(source)
    assert counts == {"code": 6, "docstring": 5, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(source.splitlines())


def test_a_string_statement_that_opens_no_scope_is_code():
    source = 'x = 1\n"not a docstring"\nif x:\n    "nor this"\n'
    assert source_lines.count(source) == {"code": 4, "docstring": 0, "comment": 0, "blank": 0}


def test_main_without_directories_is_a_usage_error(capsys):
    assert source_lines.main([]) == 2
    assert "Usage" in capsys.readouterr().err


def test_a_py_file_counts_as_itself(tmp_path, capsys):
    (tmp_path / "one.py").write_text('"""Doc."""\nx = 1\n\n# note\n')
    (tmp_path / "two.py").write_text("y = 2\n")
    assert source_lines.main([str(tmp_path / "one.py")]) == 0
    assert capsys.readouterr().out.splitlines() == ["code: 1", "docstring: 1", "comment: 1", "blank: 1", "total: 4"]
    assert source_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 5"


def test_a_missing_path_is_refused_by_name(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert source_lines.main([str(tmp_path), str(missing)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert str(missing) in out.err
