"""A weight's linear form is bound to it where it is built, so nothing has to
compare a weight with a form afterwards.  Only ``EdgeFn.formed``, which
builds the values from the form, and ``EdgeFn.centered``, which keeps it,
may set ``form``; and no module of ``src/gowers`` calls a level-set
comparison, which would mean a weight and its form can again come apart."""

import ast
from pathlib import Path

import gowers

# The methods that may set a weight's form, as (class, method).
FORM_SETTERS = {("EdgeFn", "formed"), ("EdgeFn", "centered")}

# Functions that check an array against a form after the fact.
LEVEL_SET_COMPARISONS = {"paired"}


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _sets_form(node) -> bool:
    """An assignment to an attribute ``form``, or a ``setattr`` or
    ``object.__setattr__`` call that names it."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(
            isinstance(sub, ast.Attribute) and sub.attr == "form"
            for target in targets
            for sub in ast.walk(target)
        )
    if isinstance(node, ast.Call) and _callee(node) in ("setattr", "__setattr__"):
        return any(isinstance(a, ast.Constant) and a.value == "form" for a in node.args)
    return False


def _scan(tree) -> tuple[set, set]:
    """The (class, function) owners of every statement that sets ``form``,
    and those of every level-set comparison call; (None, "<module>") for
    module level."""
    setters, comparisons = set(), set()

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if _sets_form(node):
            setters.add((cls, func or "<module>"))
        if isinstance(node, ast.Call) and _callee(node) in LEVEL_SET_COMPARISONS:
            comparisons.add((cls, func or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(tree, None, None)
    return setters, comparisons


def test_guard_sees_every_spelling():
    source = (
        "class A:\n    def a(self):\n        object.__setattr__(self, 'form', 1)\n"
        "def b(x):\n    x.form = 2\n"
        "def c(x):\n    setattr(x, 'form', 3)\n"
        "def d(x):\n    forms.paired(x, 1)\n"
        "def e(x):\n    return paired(x, 1)\n"
        "class F:\n    form: int = 0\n    def clean(self, x):\n        return x.form\n"
    )
    setters, comparisons = _scan(ast.parse(source))
    assert setters == {("A", "a"), (None, "b"), (None, "c")}
    assert comparisons == {(None, "d"), (None, "e")}


def test_only_the_form_setters_set_a_form_and_nothing_compares_levels():
    package = Path(gowers.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    setters, comparisons = set(), set()
    for path in modules:
        found, compared = _scan(ast.parse(path.read_text(encoding="utf-8")))
        setters |= found
        comparisons |= {(path.stem, *owner) for owner in compared}
    assert (setters, comparisons) == (FORM_SETTERS, set())
