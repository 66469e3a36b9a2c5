"""Mathematical checks in the package must survive ``python -O``, which
strips assert statements, so the package source may contain none."""

import ast
from pathlib import Path

import gowers


def test_package_has_no_assert_statements():
    package = Path(gowers.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
