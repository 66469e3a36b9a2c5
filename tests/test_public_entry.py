"""The command line and the scripts reach every engine through its public
entry point, so a span or a patch on that name sees all of its work: neither
may import an underscore-prefixed name from a ``gowers`` module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private_imports(path: Path) -> list[str]:
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "gowers")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_front_ends_import_only_public_names():
    paths = [ROOT / "src" / "gowers" / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
    assert len(paths) > 1 and all(path.exists() for path in paths)
    assert [hit for path in paths for hit in _private_imports(path)] == []
