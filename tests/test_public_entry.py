"""The command line and the scripts reach every engine through its public
entry point, so a span or a patch on that name sees all of its work: neither
may import an underscore-prefixed name from a ``gowers`` module.  The package
namespace holds only what its callers import from it."""

import ast
import re
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


def _from_imports(source: str, module: str | None, level: int) -> set[str]:
    """Names that ``source`` imports from ``module`` at relative ``level``;
    a None module stands for any."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.level == level
        and module in (None, node.module)
        for alias in node.names
    }


def test_package_exports_only_what_callers_import():
    init = (ROOT / "src" / "gowers" / "__init__.py").read_text(encoding="utf-8")
    exported = _from_imports(init, None, 1)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S)
    assert library is not None
    sources = [library.group(1)] + [
        path.read_text(encoding="utf-8")
        for folder in ("tests", "scripts")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    imported = set().union(*(_from_imports(source, "gowers", 0) for source in sources))
    assert len(exported) > 50
    assert sorted(exported - imported) == []
