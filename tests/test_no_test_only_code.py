"""Code that only the tests run belongs with the tests (``ap_oracle.py``,
``chain_oracle.py``), not in the package.  So every module-level function
and class of ``src/gowers``, and every method of such a class other than a
dunder, must be read somewhere in the package itself (a re-export in
``__init__.py`` does not count), or in ``scripts/``, or be bound by the
benchmark's tracer, which wraps its functions by module and name
(``perfbench/tracer.py``'s ``SPANS``).  A method counts as read wherever
its name is read as an attribute."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gowers"
TRACER = ROOT / "perfbench" / "tracer.py"


def _reads(node) -> set[str]:
    """The names a syntax tree reads: bare names and attribute names."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
        or isinstance(sub, ast.Attribute)
    }


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function and class, and
    of each method of such a class whose name is not a dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{sub.name}", sub.name)
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
    return found


def _package_reads() -> set[str]:
    """Every name read by a top-level statement of a package module other
    than ``__init__.py``, a definition's reads of its own name (recursion)
    left out."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            read |= _reads(node) - {getattr(node, "name", None)}
    return read


def _traced() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.SPANS.values())


def _unread() -> list[str]:
    read = _package_reads()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    traced = _traced()
    return sorted(
        f"{path.stem}.{qualname}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read and (path.stem, name) not in traced
    )


def test_reads_see_names_and_attributes_but_not_imports():
    tree = ast.parse("from .x import f\ng(h.k)\n")
    assert _reads(tree) == {"g", "h", "k"}


def test_definitions_include_methods_but_not_dunders():
    tree = ast.parse(
        "def f(): pass\n"
        "class C:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    def m(self):\n"
        "        def inner(): pass\n"
    )
    assert _definitions(tree) == [("f", "f"), ("C", "C"), ("C.p", "p"), ("C.m", "m")]


def test_every_package_definition_is_used_outside_the_tests():
    assert _unread() == []
