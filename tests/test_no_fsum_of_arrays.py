"""``math.fsum`` over a numpy array iterates numpy scalars, several times
slower than over the Python floats a ``memoryview`` of the array or its
``.tolist()`` yields, with the same sum; so the package source never hands
it a numpy expression directly."""

import ast
from pathlib import Path

import gowers


def _root_name(node):
    """The name a chain of calls, attributes and subscripts starts from."""
    while isinstance(node, (ast.Call, ast.Attribute, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _fsums_an_array(node) -> bool:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fsum"
        and _root_name(node.func) == "math"
        and node.args
    ):
        return False
    arg = node.args[0]
    listed = (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "tolist"
    )
    return _root_name(arg) == "np" and not listed


def test_fsum_guard_sees_an_array_argument():
    assert _fsums_an_array(ast.parse("math.fsum(np.concatenate(pows))").body[0].value)
    for listed in ("memoryview(np.concatenate(pows))", "np.concatenate(pows).tolist()"):
        assert not _fsums_an_array(ast.parse(f"math.fsum({listed})").body[0].value)


def test_package_never_fsums_a_numpy_expression():
    package = Path(gowers.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _fsums_an_array(node)
    ]
    assert found == []
