"""tools/check_imports.py: the unused-import check."""

import ast
import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import check_imports  # noqa: E402


def unused(source: str) -> list[tuple[int, str]]:
    return check_imports.unused_imports(ast.parse(textwrap.dedent(source)))


def test_unused_import_reported_with_its_line():
    assert unused("""\
        import os
        from json import dumps, loads

        print(loads("1"))
        """) == [(1, "os"), (2, "dumps")]


def test_alias_reported_by_its_bound_name():
    assert unused("import numpy as np\nimport scipy.sparse\n") == [(1, "np"), (2, "scipy")]


def test_attribute_chain_counts_as_use():
    assert unused("import scipy.sparse\nm = scipy.sparse.eye(2)\n") == []


def test_all_counts_as_use():
    assert unused('from os.path import join, split\n__all__ = ["join", "split"]\n') == []


def test_future_import_not_reported():
    assert unused("from __future__ import annotations\n") == []


def test_main_exit_status(tmp_path, capsys):
    dirty, clean = tmp_path / "dirty", tmp_path / "clean"
    (dirty / "pkg").mkdir(parents=True)
    clean.mkdir()
    (dirty / "pkg" / "mod.py").write_text("import os\nimport sys\nprint(sys.argv)\n")
    (clean / "mod.py").write_text("import sys\nprint(sys.argv)\n")
    assert check_imports.main([str(dirty)]) == 1
    assert capsys.readouterr().out == f"{dirty / 'pkg' / 'mod.py'}:1: os\n"
    assert check_imports.main([str(clean)]) == 0
    assert capsys.readouterr().out == ""
