"""Every product expectation of the package runs on ``linform._run``, the
planner's executor; the other einsums of ``src/gowers`` are fixed kernels
with a job of their own.  A new private contraction path shows up here as a
new function that calls ``np.einsum``, and has to be argued for."""

import ast
from pathlib import Path

import gowers

# The functions that may call np.einsum, each with its job.
EINSUM_CALLERS = {
    "_run",  # linform: the planner's steps, the one product-expectation path
    "box_norm_brute",  # gowersnorm: the 2^k-operand test oracle of box_norm
    "_u_pows",  # gowersnorm: the weighted row sum of the spectral base
    "nu_prime",  # linform: the conditional-product weight, an array over the edge
}


def _is_einsum(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "einsum"
    return isinstance(func, ast.Name) and func.id == "einsum"


def _einsum_callers(tree) -> set[str]:
    """The innermost named function around each einsum call of a module,
    or "<module>" for a call outside every function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if _is_einsum(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_einsum_guard_sees_every_spelling():
    source = (
        "def a(x):\n    return np.einsum('i->', x)\n"
        "def b(x):\n    def inner():\n        return numpy.einsum('i->', x)\n    return inner\n"
        "class C:\n    def m(self, x):\n        return einsum('i->', x)\n"
        "y = np.einsum('i->', z)\n"
        "def clean(x):\n    return np.sum(x)\n"
    )
    assert _einsum_callers(ast.parse(source)) == {"a", "inner", "m", "<module>"}


def test_einsum_is_called_only_by_the_pinned_functions():
    package = Path(gowers.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    callers = set()
    for path in modules:
        callers |= _einsum_callers(ast.parse(path.read_text(encoding="utf-8")))
    assert callers == EINSUM_CALLERS
