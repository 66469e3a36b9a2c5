"""Linear-forms expectation engines and their Cauchy-Schwarz chains.

Everything here evaluates exact finite-N expectations of products of edge
weights over partially doubled coordinates, and verifies the inequalities
that connect them:

* cube-pattern expectations over a single edge (products of the edge weight
  over chosen cube vertices) and the binomial expansion that relates raw and
  centered patterns, whose centered terms are evaluated once per orbit of
  the coordinate flips (copy swaps) on sub-supports, through a per-k table
  of class representatives, and shared across the patterns of one edge
  weight (``binomial_expansion_identity``);
* the strong-linear-forms expectation with a centered distinguished edge and
  one minorant per remaining edge and copy, together with the doubling chain
  that bounds it by a box-norm power of the centered edge;
* its single-copy variant, which saves one doubling per step;
* the conditional-product weight (mean over vertex 0 of the product of the
  other edge weights), its second moment, and the telescoped decomposition of
  that second moment into centered terms, each with its own doubling chain.

All three chains are one operation applied step by step: double every
factor over the copy patterns of the doubled vertices (``_double``) and split
off the factors whose edge misses the newly doubled vertex.

Every intermediate inequality is checked exactly at finite N with a relative
slack for roundoff; asymptotic statements are never asserted, only reported
as measured ratios.

Free variables are canonically ordered with doubled copies first (vertex
ascending, copy 0 before copy 1) and plain coordinates after (vertex
ascending).  ``expect_product`` evaluates every expectation, of factors
doubled over a vertex set d, by a route that ``_route`` caches for their
structure.  At d=() it is a fixed bucket-elimination plan, each bucket
contracted by unoptimized einsum with its output axes in this order.  At
nonempty d, where every vertex of d must be read and no factor may read a
copy of one, it is the cheaper of two: a box
route, the mean over the other variables z of a box power
(``gowersnorm._box_pows``) of the product of the undoubled factors; and a
split route, when z falls into components that share no variable: the
doubled product then factors pointwise, so the expectation is the mean over
both copies of d of the product of one marginal per component.
``q_value``, ``ybar_sq_expectation`` and ``cube_expectation`` run the plan
on the explicitly doubled factors (``_on_planner``) and are the router's
test oracles.  Every route reduces over fixed shapes, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .budget import check_budget
from .errors import (
    AllZeroPattern,
    CapViolation,
    InvalidSubset,
    NumericalInconsistency,
    ShapeMismatch,
)
from .cyclic import CyclicFn
from .gowersnorm import (
    _CHUNK_ELEMS,
    _LETTERS,
    CubeVertex,
    EdgeFn,
    _box_pows,
    box_norm,
    clamp_cube_average,
    cube_vertices,
    u_norm_fast,
)
from .hypersystem import Edge, WeightedHypergraph, sup_norm
from .report import TOL, VerificationReport, eq_check, ineq_check

# A free variable is a vertex together with a copy index; copy None means the
# coordinate is not doubled.
Var = tuple[int, int | None]
# A factor is an array plus the variable read by each of its axes.
Factor = tuple[np.ndarray, list[Var]]
# The structures of a factor list, hashable, as a cache key.
Structure = tuple[tuple[tuple[int, ...], tuple[Var, ...]], ...]


def _var_order_key(v: Var):
    # Doubled copies outermost (vertex ascending, copy ascending), then the
    # plain coordinates, vertex ascending.  Normative enumeration order.
    vertex, copy = v
    return (copy is None, vertex, 0 if copy is None else copy)


@dataclass(frozen=True)
class _Plan:
    """A fixed contraction order for one factor structure.

    Slots 0..F-1 hold the factors; step i reads the slots in ``steps[i][0]``,
    contracts them with the einsum expression ``steps[i][1]`` and stores the
    result in slot F+i.  ``scalars`` are the slots left holding scalars.
    ``cost`` is the sum over steps of scope points times factors read,
    ``power`` the largest number of variables in one step's scope, and
    ``points`` the number of index points.
    """

    steps: tuple[tuple[tuple[int, ...], str], ...]
    scalars: tuple[int, ...]
    cost: float
    power: int
    points: float


@functools.lru_cache(maxsize=16384)
def _plan(subscripts: str, sizes: tuple[int, ...]) -> _Plan:
    """Bucket-elimination plan for a factor structure: ``subscripts`` holds
    the axes of every factor in einsum form, the i-th variable of the
    canonical order written as the i-th letter, and ``sizes`` the size of
    each variable in that order.

    Each step takes the variable whose bucket (the live factors that read it)
    spans the fewest index points, ties going to the smaller bucket and then
    to the canonical order.  It replaces the bucket by one factor over the
    variables of its scope that some other live factor reads, axes in
    canonical order, and sums out the rest of the scope.  When one bucket
    holding every factor costs no more, the plan is that bucket.  Plans
    depend only on this structure, so they are cached.
    """
    terms = subscripts.split(",")
    order = _LETTERS[: len(sizes)]
    size = dict(zip(order, sizes))
    live = {slot: set(term) for slot, term in enumerate(terms)}
    subs = dict(enumerate(terms))

    def bucket_of(var: str) -> tuple[list[int], str]:
        bucket = [slot for slot, scope in live.items() if var in scope]
        scope = set().union(*(live[slot] for slot in bucket))
        return bucket, "".join(v for v in order if v in scope)

    def rank(var: str) -> tuple[int, int]:
        bucket, scope = bucket_of(var)
        return math.prod(size[v] for v in scope), len(bucket)

    steps = []
    cost = 0.0
    power = 0
    points = float(math.prod(sizes))
    remaining = order
    while remaining:
        var = min(remaining, key=rank)
        bucket, scope = bucket_of(var)
        outside = set().union(*(sc for slot, sc in live.items() if slot not in bucket))
        out = "".join(v for v in scope if v in outside)
        steps.append((tuple(bucket), ",".join(subs.pop(s) for s in bucket) + "->" + out))
        cost += float(math.prod(size[v] for v in scope)) * len(bucket)
        power = max(power, len(scope))
        for s in bucket:
            del live[s]
        slot = len(terms) + len(steps) - 1
        live[slot], subs[slot] = set(out), out
        remaining = "".join(v for v in remaining if v in outside)
    whole = tuple(slot for slot, term in enumerate(terms) if term)
    one_bucket = float(math.prod(sizes)) * len(whole)
    if whole and one_bucket <= cost:
        scalars = tuple(slot for slot, term in enumerate(terms) if not term)
        step = (whole, ",".join(terms[s] for s in whole) + "->")
        return _Plan((step,), scalars + (len(terms),), one_bucket, len(order), points)
    return _Plan(tuple(steps), tuple(live), cost, power, points)


def _run(plan: _Plan, factors: list[Factor]) -> float:
    """Contract the factors step by step as the plan says; the sum divided
    by the number of index points."""
    slots: list[np.ndarray | None] = [arr for arr, _ in factors]
    for inputs, expr in plan.steps:
        slots.append(np.einsum(expr, *[slots[i] for i in inputs], optimize=False))
        for i in inputs:
            slots[i] = None
    return math.prod([float(slots[i]) for i in plan.scalars]) / plan.points


def _double(factors: list[Factor], d: tuple[int, ...]) -> list[Factor]:
    """Each factor once per copy pattern of the doubled vertices d, pattern
    order innermost: a plain axis of a vertex in d reads that vertex's copy
    in the pattern, every other axis is kept.  Only the planner oracle
    ``_on_planner`` doubles factors this way."""
    patterns = [dict(zip(d, omega)) for omega in itertools.product((0, 1), repeat=len(d))]
    return [
        (arr, [(v, copy_of.get(v)) if c is None else (v, c) for v, c in axes])
        for arr, axes in factors
        for copy_of in patterns
    ]


def _view(
    axes: tuple[Var, ...], order: list[Var], size: dict[Var, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that puts a factor's axes in ``order``, and the shape
    that then views it over ``order``: size one on the axes it does not read."""
    perm = tuple(sorted(range(len(axes)), key=lambda a: order.index(axes[a])))
    return perm, tuple(size[v] if v in axes else 1 for v in order)


@dataclass(frozen=True)
class _BoxLayout:
    """How ``_box_route`` builds F for one structure.  F's axes are z in
    canonical order, then d; ``perms`` and ``shapes`` turn each factor into
    a view over them (``_view``).  A block fixes the first ``len(fixed)``
    axes of z, of sizes ``fixed``, and is reshaped to ``block``,
    (functions, *d sizes); ``points`` is the size of z, and ``cost`` and
    ``power`` are the route's charge and its exponent."""

    perms: tuple[tuple[int, ...], ...]
    shapes: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    block: tuple[int, ...]
    points: int
    cost: float
    power: int


def _box_layout(structure: Structure, d: tuple[int, ...]) -> _BoxLayout:
    """The layout of the box route: blocks fix the shortest leading prefix
    of z that leaves at most _CHUNK_ELEMS elements of F (or all of z).  It
    is charged m |d-box| products per factor to build F plus the
    m |d-box|^2 / d_last of the box recursion, m the number of points of z."""
    size = {var: n for shape, axes in structure for var, n in zip(axes, shape)}
    dvars = [(v, None) for v in d]
    zvars = sorted(set(size) - set(dvars), key=_var_order_key)
    order = zvars + dvars
    shape = [size[v] for v in order]
    fixed, elems = 0, math.prod(shape)
    while fixed < len(zvars) and elems > _CHUNK_ELEMS:
        elems //= shape[fixed]
        fixed += 1
    perms, shapes = zip(*[_view(axes, order, size) for _, axes in structure])
    block = (-1, *shape[len(zvars) :])
    points = math.prod(shape[: len(zvars)])
    box = math.prod(shape[len(zvars) :])
    doubled = float(points * box * box)
    cost = doubled / box * len(structure) + doubled / size[dvars[-1]]
    power = len(order) + len(d) - 1
    return _BoxLayout(perms, shapes, tuple(shape[:fixed]), block, points, cost, power)


def _box_route(factors: list[Factor], layout: _BoxLayout) -> float:
    """E_z of the box power over d of F_z, where F is the product of the
    factors and z the variables other than the plain axes of d; no factor
    may read a copy of a vertex in d.  z is walked in blocks, and F is built
    for one block at a time, as the layout says."""
    views = [
        arr.transpose(perm).reshape(shape)
        for (arr, _), perm, shape in zip(factors, layout.perms, layout.shapes)
    ]
    pows = []
    for prefix in itertools.product(*[range(n) for n in layout.fixed]):
        values = None
        for view in views:
            part = view[tuple([i if n > 1 else 0 for i, n in zip(prefix, view.shape)])]
            values = part if values is None else values * part
        pows.append(_box_pows(np.reshape(values, layout.block)))
    return math.fsum(memoryview(np.concatenate(pows))) / layout.points


@dataclass(frozen=True)
class _SplitLayout:
    """How ``_split_route`` builds F_C for each component C: component c
    holds the factors ``members[c]``, which ``perms`` and ``shapes`` turn
    into views (``_view``) over d, then z_C in canonical order, and
    ``points[c]`` is the size of z_C.  ``dims`` are the sizes of d, and a
    block holds ``rows`` values of copy 0 of d's first vertex; ``cost`` and
    ``power`` are the route's charge and its exponent."""

    members: tuple[tuple[int, ...], ...]
    perms: tuple[tuple[int, ...], ...]
    shapes: tuple[tuple[int, ...], ...]
    points: tuple[int, ...]
    dims: tuple[int, ...]
    rows: int
    cost: float
    power: int


def _split_layout(structure: Structure, d: tuple[int, ...]) -> _SplitLayout | None:
    """The layout of the split route for a structure the box route applies
    to, or None where the split route does not apply.

    Two factors share a component when they read a common variable of z,
    the variables other than the plain axes of d.  The route applies when
    there are at least two components, each with some variable of z and
    each reading every vertex of d.  A block fixes whole rows of copy 0 of
    d's first vertex, at most _CHUNK_ELEMS marginal elements or one row
    (all of them when |d| = 1, whose marginal is one Gram matrix).  For
    each component it is charged m |d-box| products per factor to build F,
    the m |d-box| (n1 + n1 n2 + ...) of the pairings and the m |d-box|^2 of
    the Gram, m the size of z_C, plus |d-box|^2 per component for the
    product.
    """
    size = {var: n for shape, axes in structure for var, n in zip(axes, shape)}
    dvars = [(v, None) for v in d]
    groups: list[tuple[list[int], set[Var]]] = []
    for i, (_, axes) in enumerate(structure):
        z = set(axes) - set(dvars)
        joined = [g for g in groups if g[1] & z]
        groups = [g for g in groups if not g[1] & z]
        groups.append(([i] + [m for g in joined for m in g[0]], z.union(*[g[1] for g in joined])))
    groups = sorted((sorted(members), z) for members, z in groups)
    if len(groups) < 2 or any(
        not z or not set(dvars) <= {v for m in members for v in structure[m][1]}
        for members, z in groups
    ):
        return None
    dims = tuple(size[v] for v in dvars)
    box = math.prod(dims)
    pairings = sum(math.prod(dims[: i + 1]) for i in range(len(d) - 1))
    views, points = {}, []
    cost = len(groups) * box * box
    for members, z in groups:
        order = dvars + sorted(z, key=_var_order_key)
        views.update({m: _view(structure[m][1], order, size) for m in members})
        points.append(math.prod(size[v] for v in z))
        cost += points[-1] * box * (len(members) + pairings + box)
    perms, shapes = zip(*[views[i] for i in range(len(structure))])
    rows = dims[0] if len(d) == 1 else max(1, _CHUNK_ELEMS // (box * box // dims[0]))
    power = max(len(z) for _, z in groups) + 2 * len(d)
    return _SplitLayout(
        tuple(tuple(members) for members, _ in groups),
        perms, shapes, tuple(points), dims, rows, float(cost), power,
    )


def _split_route(factors: list[Factor], layout: _SplitLayout) -> float:
    """E over both copies of d of the product over components C of the
    marginal M_C(x^0, x^1) = E_{z_C} prod_omega F_C(z_C, x^omega), F_C the
    product of C's factors: the doubled product factors pointwise because
    no variable of z is read by two components.  Each M_C pairs the first
    |d| - 1 vertices of F_C and takes one batched Gram matrix over z_C on
    the last.  Copy 0 of the first vertex is walked in blocks of whole rows,
    as the layout says; each row is summed over a fixed shape and the rows
    by ``math.fsum``, so the value does not depend on the block size."""
    views = [
        arr.transpose(perm).reshape(shape)
        for (arr, _), perm, shape in zip(factors, layout.perms, layout.shapes)
    ]
    fs = []
    for members, m in zip(layout.members, layout.points):
        f = functools.reduce(np.multiply, [views[i] for i in members])
        fs.append((np.reshape(f, (*layout.dims, m)), m))
    k = len(layout.dims)
    sums = []
    for start in range(0, layout.dims[0], layout.rows):
        prod = None
        for f, m in fs:
            block = f[start : start + layout.rows]
            pairs = block[:, None] * f[None] if k > 1 else block
            for axis in range(2, 2 * k - 2, 2):
                pairs = np.expand_dims(pairs, axis + 1) * np.expand_dims(pairs, axis)
            marginal = pairs @ pairs.swapaxes(-1, -2)
            marginal /= m
            prod = marginal if prod is None else prod * marginal
        sums.append(np.sum(prod.reshape(len(prod), -1), axis=1))
    box = math.prod(layout.dims)
    return math.fsum(memoryview(np.concatenate(sums))) / (box * box)


@functools.lru_cache(maxsize=16384)
def _route(
    structure: Structure, d: tuple[int, ...]
) -> _Plan | _BoxLayout | _SplitLayout:
    """How ``expect_product`` evaluates one structure (the shape and axes of each
    factor) doubled over d.  At d empty it is the plan of the structure
    (``_plan``).  Otherwise every vertex of d must be read by some factor,
    and by none at a copy; the route is then the cheaper of the box route
    (``_box_layout``) and, when the variables outside d fall into
    independent components, the split route (``_split_layout``), ties going
    to the box route.
    """
    sizes: dict[Var, int] = {}
    for shape, axes in structure:
        if len(shape) != len(axes):
            raise ShapeMismatch("factor axis labels do not match array rank")
        for var, size in zip(axes, shape):
            if sizes.setdefault(var, size) != size:
                raise ShapeMismatch(f"variable {var} has conflicting sizes")
    if d:
        if {var for var in sizes if var[0] in d} != {(v, None) for v in d}:
            raise ShapeMismatch(f"every vertex of d={d} must be read, and only plain")
        routes = [_box_layout(structure, d), _split_layout(structure, d)]
        return min([r for r in routes if r is not None], key=lambda route: route.cost)
    order = sorted(sizes, key=_var_order_key)
    if len(order) > len(_LETTERS):
        raise ShapeMismatch("too many free variables")
    letter = dict(zip(order, _LETTERS))
    subscripts = ",".join(["".join([letter[v] for v in axes]) for _, axes in structure])
    return _plan(subscripts, tuple([sizes[v] for v in order]))


def expect_product(
    factors: list[Factor], budget: float | None = None, what: str = "", d: tuple[int, ...] = ()
) -> float:
    """E[prod of factors doubled over d] over all variables that occur,
    uniformly; each factor is an array plus the variable of each of its axes.
    The empty product has expectation one.  The route is the one ``_route``
    takes for the factors' structure and d (at d=() the bucket-elimination
    plan of ``_plan``), charged at its cost before any work happens."""
    if not factors:
        return 1.0
    route = _route(tuple([(arr.shape, tuple(axes)) for arr, axes in factors]), d)
    check_budget(route.cost, budget, what=what or "product expectation", power=route.power)
    if isinstance(route, _BoxLayout):
        return _box_route(factors, route)
    if isinstance(route, _SplitLayout):
        return _split_route(factors, route)
    return _run(route, factors)


def _on_planner(
    factors: list[Factor], d: tuple[int, ...], budget: float | None = None, what: str = ""
) -> float:
    """E[prod of _double(factors, d)] on the planner alone: the test oracle
    of ``expect_product`` at nonempty d, and the route of a chain endpoint
    that ``box_norm`` checks."""
    return expect_product(_double(factors, d), budget, what)


# ---------------------------------------------------------------------------
# Cube patterns over a single edge


@dataclass(frozen=True)
class CubePattern:
    """0/1 exponents on the vertices of the |e|-dimensional cube, stored in
    the order of ``cube_vertices`` (first coordinate slowest)."""

    k: int
    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if self.k < 1:
            raise ValueError("cube dimension must be >= 1")
        if len(bits) != 2**self.k:
            raise ShapeMismatch(f"need {2 ** self.k} exponents, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("exponents must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "CubePattern":
        k = (len(text)).bit_length() - 1
        return cls(k, tuple(int(ch) for ch in text))

    @classmethod
    def all_ones(cls, k: int) -> "CubePattern":
        return cls(k, (1,) * 2**k)

    @classmethod
    def from_support(cls, k: int, support: Iterable[CubeVertex]) -> "CubePattern":
        support = set(support)
        return cls(k, tuple(1 if om in support else 0 for om in cube_vertices(k)))

    def support(self) -> list[CubeVertex]:
        return [om for om, b in zip(cube_vertices(self.k), self.bits) if b]

    def weight(self) -> int:
        return sum(self.bits)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def _cube_factors(g: EdgeFn, support: Iterable[CubeVertex]) -> list[Factor]:
    factors = []
    for omega in support:
        axes: list[Var] = [(v, omega[i]) for i, v in enumerate(g.edge)]
        factors.append((g.values, axes))
    return factors


def cube_expectation(
    g: EdgeFn, pat: CubePattern, budget: float | None = None
) -> float:
    """E[prod over active cube vertices of g(x^omega)], both copies uniform."""
    if pat.k != len(g.edge):
        raise ShapeMismatch("pattern dimension does not match edge size")
    return expect_product(
        _cube_factors(g, pat.support()), budget, what="cube expectation"
    )


def cube_centered_expectation(
    g: EdgeFn,
    pat: CubePattern,
    budget: float | None = None,
) -> float:
    """Same as ``cube_expectation`` with g - 1 at the active vertices.

    The product-form bound |value| <= boxnorm(g-1)^weight is verified (a
    slack of TOL times the bound absorbs roundoff).
    """
    if pat.k != len(g.edge):
        raise ShapeMismatch("pattern dimension does not match edge size")
    if pat.weight() == 0:
        raise AllZeroPattern("centered cube expectation needs an active vertex")
    centered = g.centered()
    value = expect_product(
        _cube_factors(centered, pat.support()), budget, what="centered cube expectation"
    )
    bound = box_norm(centered, budget=budget) ** pat.weight()
    if abs(value) > bound + TOL * max(1.0, bound):
        raise NumericalInconsistency(
            f"centered cube expectation {value} exceeds product bound {bound}"
        )
    return value


# Largest cube dimension with a class table; it has 2^(2^k) entries, so
# 65,536 at k=4 but 2^32 at k=5.
_TABLE_K = 4


def _flipped(mask, t: int, n: int):
    """The sub-support ``mask`` (bit j: the j-th of the n cube vertices)
    with each coordinate flipped where the t-th vertex has a one, so bit j
    moves to bit j ^ t.  ``mask`` is an int or an integer array."""
    out = 0
    for j in range(n):
        out = out | (((mask >> (j ^ t)) & 1) << j)
    return out


@functools.lru_cache(maxsize=None)
def _flip_classes(k: int) -> list[int]:
    """The class representative, the least mask of its orbit under the 2^k
    coordinate flips, of every sub-support mask of the k-dimensional cube."""
    n = 2**k
    masks = np.arange(2**n, dtype=np.int64)
    reps = masks
    for t in range(1, n):
        reps = np.minimum(reps, _flipped(masks, t, n))
    return reps.tolist()


def binomial_expansion_identity(
    g: EdgeFn, patterns: Iterable[CubePattern], budget: float | None = None
) -> list[VerificationReport]:
    """Check E[prod nu] = sum over sub-supports of E[prod (nu-1)] for each
    pattern; one report per pattern.

    The empty sub-support contributes one.  Exact identity by expanding
    nu = (nu - 1) + 1 at each active vertex.  Swapping the two copies of a
    cube coordinate relabels the integration variables, so a centered term
    is constant on each orbit of the coordinate flips.  Each orbit is
    evaluated once across all the patterns, at its representative with its
    vertices in cube-vertex order, and charged before it runs.
    """
    k = len(g.edge)
    vertices = cube_vertices(k)
    n = len(vertices)
    table = _flip_classes(k) if k <= _TABLE_K else None
    centered = g.centered()
    terms: dict[int, float] = {}
    reports = []
    for pat in patterns:
        lhs = cube_expectation(g, pat, budget)
        full = sum([1 << j for j, b in enumerate(pat.bits) if b])
        # Every nonempty submask of ``full``, in falling order; fsum rounds
        # the exact sum, so the order does not show.
        parts = [1.0]
        sub = full
        while sub:
            rep = table[sub] if table is not None else min(
                [_flipped(sub, t, n) for t in range(n)]
            )
            if rep not in terms:
                support = [om for j, om in enumerate(vertices) if rep >> j & 1]
                terms[rep] = expect_product(
                    _cube_factors(centered, support), budget, what="centered cube expectation"
                )
            parts.append(terms[rep])
            sub = (sub - 1) & full
        rhs = math.fsum(parts)
        report = VerificationReport(name="cube-binomial-expansion")
        report.add(eq_check("binomial-expansion", lhs, rhs, TOL))
        report.ratios["raw"] = lhs
        report.ratios["centered-sum"] = rhs
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Strong-linear-forms instances (minorants per edge and copy of vertex 0)


class Cap(Enum):
    """Which majorant dominates a minorant: the constant one or the edge weight."""

    ONE = "one"
    NU = "nu"


def _cap_fn(w: WeightedHypergraph, edge: Edge, cap: Cap) -> EdgeFn:
    if cap is Cap.NU:
        return w.weights[edge]
    return EdgeFn.ones(edge, w.system.edge_dims(edge))


def _slots(r: int, copies: Iterable[int] = (0, 1)) -> list[tuple[Edge, int]]:
    """(edge, copy of vertex 0) for every edge containing vertex 0, edges by
    their omitted vertex ascending, copies inner."""
    return [
        (tuple(v for v in range(r + 1) if v != j), copy)
        for j in range(1, r + 1)
        for copy in copies
    ]


def _validate_minorant(g: EdgeFn, gbar: EdgeFn, where: str) -> None:
    if not g.same_shape(gbar):
        raise ShapeMismatch(f"minorant at {where} has wrong shape")
    if np.any(g.values < 0):
        raise CapViolation(f"minorant at {where} is negative somewhere")
    if np.any(g.values > gbar.values):
        raise CapViolation(f"minorant at {where} exceeds its cap somewhere")


@dataclass(frozen=True)
class SlfInstance:
    """A weighted hypergraph plus, for every edge other than the one omitting
    vertex 0 and for each copy of vertex 0, a cap and a minorant dominated by
    it, keyed (edge, copy).

    The copies are {0, 1}, or {0} alone for the single-copy variant, in
    which vertex 0 is never doubled and each chain step needs half the
    factors.
    """

    hypergraph: WeightedHypergraph
    caps: dict[tuple[Edge, int], Cap]
    gs: dict[tuple[Edge, int], EdgeFn]

    def __post_init__(self):
        w = self.hypergraph
        keys = set(_slots(w.r, self.copies))
        if (
            self.copies not in ((0,), (0, 1))
            or set(self.caps.keys()) != keys
            or set(self.gs.keys()) != keys
        ):
            raise ShapeMismatch(
                "caps and minorants must cover every non-distinguished edge "
                "in copy 0 or in both copies"
            )
        for key in sorted(keys):
            edge, copy = key
            _validate_minorant(
                self.gs[key], _cap_fn(w, edge, self.caps[key]), f"{edge} copy {copy}"
            )

    @property
    def r(self) -> int:
        return self.hypergraph.r

    @property
    def copies(self) -> tuple[int, ...]:
        return tuple(sorted({key[1] for key in self.gs}))

    def gbar(self, key: tuple[Edge, int]) -> EdgeFn:
        return _cap_fn(self.hypergraph, key[0], self.caps[key])


def _distinguished_edge(w: WeightedHypergraph) -> Edge:
    return w.system.edge_omitting(0)


def _normalize_subset(w: WeightedHypergraph, d: Iterable[int]) -> tuple[int, ...]:
    e0 = _distinguished_edge(w)
    dd = tuple(sorted(int(v) for v in d))
    if len(set(dd)) != len(dd) or any(v not in e0 for v in dd):
        raise InvalidSubset(f"{dd} is not a subset of the distinguished edge {e0}")
    return dd


def slf_lhs(inst: SlfInstance, budget: float | None = None) -> float:
    """The strong-linear-forms expectation: centered distinguished weight
    times the product of every minorant, averaged over each copy of vertex 0
    and one copy of each remaining coordinate.

    Evaluated by averaging each copy's minorant product over vertex 0 first;
    this is a different route from ``q_value`` with the empty subset, and the
    two must agree.  Charged the products it forms: r + 1 per point of
    (x_0, x_{e0}) and copy, c (r + 1) N^(r+1) for c copies.
    """
    w = inst.hypergraph
    r = w.r
    n0 = w.system.dims[0]
    e0 = _distinguished_edge(w)
    c = len(inst.copies)
    cost = float(c * (r + 1)) * n0 * math.prod(w.system.edge_dims(e0))
    check_budget(cost, budget, what="strong-linear-forms expectation", power=r + 1)

    # Copy products live on (x_0, x_{e0}); axis a+1 belongs to vertex e0[a].
    full_shape = (n0,) + w.system.edge_dims(e0)
    total = w.weights[e0].values - 1.0
    for copy in inst.copies:
        prod = np.ones(full_shape)
        for j in range(1, r + 1):
            edge = w.system.edge_omitting(j)
            g = inst.gs[(edge, copy)]
            # Expand g onto (x_0, x_{e0}) by inserting the missing vertex axis.
            expanded = np.expand_dims(g.values, axis=1 + e0.index(j))
            prod = prod * expanded
        total = total * prod.mean(axis=0)
    return float(total.mean())


def _origin_axes(edge: Edge, copy: int | None) -> list[Var]:
    """Axes of an edge that reads vertex 0 at ``copy`` and the rest plain."""
    return [(v, copy) if v == 0 else (v, None) for v in edge]


def _slf_base(inst: SlfInstance) -> tuple[list[Factor], list[Factor]]:
    """Undoubled factors of the chain quantity (the centered distinguished
    weight, then each minorant at its own copy of vertex 0) and the caps of
    the minorants on the same axes.  With one copy vertex 0 stays plain."""
    w = inst.hypergraph
    e0 = _distinguished_edge(w)
    two = len(inst.copies) == 2
    slots = [
        (w.system.edge_omitting(j), copy)
        for copy in inst.copies
        for j in range(1, w.r + 1)
    ]
    axes = [_origin_axes(edge, copy if two else None) for edge, copy in slots]
    base = [(w.weights[e0].values - 1.0, _origin_axes(e0, None))]
    base += [(inst.gs[slot].values, ax) for slot, ax in zip(slots, axes)]
    caps = [(inst.gbar(slot).values, ax) for slot, ax in zip(slots, axes)]
    return base, caps


def q_value(
    inst: SlfInstance, d: Iterable[int], budget: float | None = None
) -> float:
    """Chain quantity at doubled subset d of the distinguished edge.

    The empty subset gives the strong-linear-forms expectation; the full edge
    gives the box-norm power of the centered distinguished weight.
    """
    dd = _normalize_subset(inst.hypergraph, d)
    base, _ = _slf_base(inst)
    return _on_planner(_kept(base, dd), dd, budget, what=f"chain quantity at d={dd}")


@dataclass(frozen=True)
class YbarStats:
    """Moments of the capped leave-one-edge-out product at a chain step."""

    mean_sq: float
    mean: float
    factor_count: int
    sup_power_bound: float


def ybar_sq_expectation(
    inst: SlfInstance,
    d: Iterable[int],
    j: int,
    budget: float | None = None,
) -> YbarStats:
    """First and second moments of the capped product over the edge omitting
    j (the one edge missing the next doubling vertex) at doubled subset d,
    plus the exact pointwise bound E[Ybar^2] <= E[Ybar] * sup^(factor count).
    """
    w = inst.hypergraph
    dd = _normalize_subset(w, d)
    if j in dd or j == 0 or j > w.r:
        raise InvalidSubset(f"next vertex {j} must lie outside d and the origin")
    _, caps = _slf_base(inst)
    evaluate = functools.partial(_on_planner, budget=budget)
    return _ybar(_missing(caps, j), dd, sup_norm(w), evaluate)


# ---------------------------------------------------------------------------
# Doubling chains


def _kept(base: list[Factor], d: tuple[int, ...]) -> list[Factor]:
    """The base factors of the chain quantity at doubled set d: those whose
    edge contains d.  The others were split off when their missing vertex
    was doubled."""
    return [f for f in base if set(d) <= {v for v, _ in f[1]}]


def _missing(caps: list[Factor], j: int) -> list[Factor]:
    """The capped factors split off when j is doubled: those whose edge
    misses j."""
    return [f for f in caps if j not in {v for v, _ in f[1]}]


def _ybar(factors: list[Factor], d: tuple[int, ...], sup: float, evaluate) -> YbarStats:
    """Moments of the split-off factors doubled over d, each taken by
    ``evaluate(factors, d=d, what=...)``."""
    mean = evaluate(factors, d=d, what="capped product mean")
    mean_sq = evaluate(factors + factors, d=d, what="capped product second moment")
    count = len(factors) * 2 ** len(d)
    return YbarStats(mean_sq, mean, count, mean * sup**count)


def _root(value: float, denom_log2: int) -> float:
    """(value)^(1/2^denom_log2), clamped to zero at the value's own scale."""
    return clamp_cube_average(value, abs(value)) ** (1.0 / 2.0**denom_log2)


def _chain(
    name: str,
    base: list[Factor],
    caps: list[Factor],
    sets: list[tuple[int, ...]],
    letters: tuple[str, str],
    sup: float,
    budget: float | None,
    planned: tuple[tuple[int, ...], ...] = (),
) -> tuple[VerificationReport, dict[tuple[int, ...], float], float]:
    """Shared core of every doubling chain.

    Evaluates the chain quantity q at each doubled set d in ``sets`` and the
    split-off moments at each step (d, j), one for every vertex j of the last
    set with d and d + j both in ``sets``, then checks every Cauchy-Schwarz step
    q(d)^2 <= q(d + j) * E[Ybar^2] and every pointwise bound
    E[Ybar^2] <= E[Ybar] * sup^(factor count).  ``caps`` replace the base
    factors in Ybar; ``letters`` name d and j in the check ids.  Every
    quantity runs through ``expect_product``, except q at the sets in ``planned``,
    which stays on the planner.  Returns the report, q at each set, and the
    product of the step roots E[Ybar^2]^(1/2^t) along the ascending path to
    the last set.
    """
    a, b = letters
    last = sets[-1]
    steps = [
        (d, j) for d in sets for j in last if j not in d and tuple(sorted(d + (j,))) in sets
    ]
    q_at = {
        d: (_on_planner if d in planned else expect_product)(
            _kept(base, d), d=d, budget=budget, what=f"{name} at {a}={d}"
        )
        for d in sets
    }
    evaluate = functools.partial(expect_product, budget=budget)
    stats_at = {(d, j): _ybar(_missing(caps, j), d, sup, evaluate) for d, j in steps}
    report = VerificationReport(name=name)
    for d, j in sorted(steps):
        stats = stats_at[(d, j)]
        lhs = q_at[d] ** 2
        rhs = q_at[tuple(sorted(d + (j,)))] * stats.mean_sq
        slack = TOL * max(1.0, abs(lhs), abs(rhs))
        report.add(ineq_check(f"cs-step {a}={list(d)} {b}={j}", lhs, rhs, slack))
        slack_sup = TOL * max(1.0, stats.mean_sq, stats.sup_power_bound)
        report.add(
            ineq_check(
                f"sup-pointwise {a}={list(d)} {b}={j}",
                stats.mean_sq,
                stats.sup_power_bound,
                slack_sup,
                note=f"exponent {stats.factor_count}",
            )
        )
    bound = 1.0
    for t in range(len(last)):
        mean_sq = stats_at[(last[:t], last[t])].mean_sq
        bound *= _root(mean_sq, t + 1)
    return report, q_at, bound


def _close(
    report: VerificationReport,
    lhs_abs: float,
    bound: float,
    box: float,
    sup: float,
    sup_power: float,
    ratio_key: str,
) -> VerificationReport:
    """Check the composed bound and record the measured ratios."""
    slack = TOL * max(1.0, lhs_abs, bound)
    report.add(ineq_check("composed-chain-bound", lhs_abs, bound, slack))
    report.ratios["lhs"] = lhs_abs
    report.ratios["composed-bound"] = bound
    report.ratios["box-norm-centered"] = box
    report.ratios["sup"] = sup
    denom = box * sup**sup_power
    if denom > 0:
        report.ratios[ratio_key] = lhs_abs / denom
    return report


def _endpoint_box_power(w: WeightedHypergraph, budget: float | None) -> float:
    """The box power of the centered distinguished weight by a route that
    shares no code with ``expect_product``'s box route, so that it can check the
    chain's endpoint.  For a represented hypergraph it is the order-r
    uniformity power of nu - 1, equal by norm preservation, with
    nu(y) = w_{e0}(y / c, 0, ..., 0) mod N for the first coefficient c of
    the form of e0.  Otherwise (no forms) it is ``box_norm``, and the
    endpoint stays on the planner."""
    r = w.r
    g = w.weights[_distinguished_edge(w)]
    if w.forms is None:
        return box_norm(g.centered(), budget=budget) ** (2.0**r)
    n = w.system.dims[0]
    ys = np.arange(n) * pow(w.forms[0][0], -1, n) % n
    centered = CyclicFn(n, g.values[(ys,) + (0,) * (r - 1)] - 1.0)
    return u_norm_fast(centered, r, budget) ** (2.0**r)


def _slf_chain(inst: SlfInstance, budget: float | None) -> VerificationReport:
    w = inst.hypergraph
    r = w.r
    e0 = _distinguished_edge(w)
    sup = sup_norm(w)
    single = len(inst.copies) == 1
    sets = [d for size in range(r + 1) for d in itertools.combinations(e0, size)]
    base, caps = _slf_base(inst)
    name = "single-copy-chain" if single else "strong-linear-forms-chain"
    planned = () if w.forms is not None else (e0,)
    report, q_at, bound = _chain(name, base, caps, sets, ("d", "j"), sup, budget, planned)
    box_power = _endpoint_box_power(w, budget)
    endpoint = q_at[e0]
    tol = TOL * max(1.0, abs(endpoint), abs(box_power))
    report.add(eq_check("endpoint-box-power", endpoint, box_power, tol))

    bound *= _root(endpoint, r)
    box = _root(box_power, r)
    if single:
        ratio_key, sup_power = "lhs-over-boxnorm-times-sup-half-power", r / 2.0
    else:
        ratio_key, sup_power = "lhs-over-boxnorm-times-sup-power", r
    return _close(report, abs(q_at[()]), bound, box, sup, sup_power, ratio_key)


def chain_verify(inst: SlfInstance, budget: float | None = None) -> VerificationReport:
    """Verify every exact Cauchy-Schwarz step, every pointwise sup bound, the
    endpoint identity, and the composed bound for an instance with one or two
    copies of vertex 0.

    The measured ratio of the expectation to boxnorm * sup^r (sup^(r/2) with
    one copy) is reported but never asserted; at finite N it stands in for an
    asymptotic statement.
    """
    return _slf_chain(inst, budget)


def single_chain_verify(inst: SlfInstance, budget: float | None = None) -> VerificationReport:
    """``chain_verify`` under the name of the single-copy variant, whose
    capped products have 2^|d| factors per step instead of 2^(|d|+1)."""
    return _slf_chain(inst, budget)


def random_slf_instance(
    w: WeightedHypergraph, seed: int, caps_mode: str = "mixed", copies: int = 2
) -> SlfInstance:
    """Seeded random instance with one or two copies of vertex 0: each slot
    draws a cap (or uses the forced mode) and a minorant that is the cap
    times i.i.d. uniforms on [0, 1].  Slots are drawn edge by edge (omitted
    vertex ascending), copies inner."""
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    caps: dict[tuple[Edge, int], Cap] = {}
    gs: dict[tuple[Edge, int], EdgeFn] = {}
    for edge, copy in _slots(w.r, range(copies)):
        dims = w.system.edge_dims(edge)
        if caps_mode == "mixed":
            cap = Cap.NU if rng.random() < 0.5 else Cap.ONE
        else:
            cap = Cap(caps_mode)
        caps[(edge, copy)] = cap
        base = _cap_fn(w, edge, cap).values
        gs[(edge, copy)] = EdgeFn(edge, dims, base * rng.random(dims))
    return SlfInstance(w, caps, gs)


# ---------------------------------------------------------------------------
# Conditional-product weight and its second moment


def nu_prime(w: WeightedHypergraph, budget: float | None = None) -> EdgeFn:
    """Mean over vertex 0 of the product of all non-distinguished edge
    weights, as a function on the distinguished edge's coordinates."""
    r = w.r
    e0 = _distinguished_edge(w)
    n0 = w.system.dims[0]
    cost = float(n0) * math.prod(w.system.edge_dims(e0)) * r
    check_budget(cost, budget, what="conditional product weight", power=r + 1)
    vertices = [0] + list(e0)
    letter = {v: _LETTERS[i] for i, v in enumerate(vertices)}
    subs = []
    operands = []
    for j in range(1, r + 1):
        fn = w.weight_omitting(j)
        subs.append("".join(letter[v] for v in fn.edge))
        operands.append(fn.values)
    shape = w.system.edge_dims(e0)
    out = "".join(letter[v] for v in e0 if letter[v] in "".join(subs))
    vals = np.einsum(",".join(subs) + "->" + out, *operands, optimize=False) / n0
    if not out:  # r=1: no factor reads the one vertex of e0, so nu' is constant
        vals = np.full(shape, float(vals))
    return EdgeFn(e0, shape, vals)


def nu_prime_l2_dev(prime: EdgeFn) -> float:
    """E[(nu' - 1)^2] of a conditional product weight nu' (``nu_prime``),
    with the expansion through the first two moments checked internally to
    TOL."""
    flat = prime.values.ravel().tolist()
    npts = prime.npoints
    dev = math.fsum((v - 1.0) ** 2 for v in flat) / npts
    m1 = math.fsum(flat) / npts
    m2 = math.fsum(v * v for v in flat) / npts
    expanded = m2 - 2.0 * m1 + 1.0
    if abs(dev - expanded) > TOL * max(1.0, abs(m2)):
        raise NumericalInconsistency(
            f"second-moment expansion mismatch: {dev} vs {expanded}"
        )
    return dev


# ---------------------------------------------------------------------------
# Doubled-origin linear-forms expectations (second-moment engine)


@dataclass(frozen=True)
class Lf2Exponents:
    """0/1 exponents indexed by (non-distinguished edge, copy of vertex 0),
    in the slot order: edges by their omitted vertex ascending, copy 0 then 1."""

    r: int
    table: dict[tuple[Edge, int], int]

    def __post_init__(self):
        if set(self.table.keys()) != set(_slots(self.r)):
            raise ShapeMismatch("exponent table must cover every (edge, copy) slot")
        if any(n not in (0, 1) for n in self.table.values()):
            raise ValueError("exponents must be 0 or 1")

    @classmethod
    def all_ones(cls, r: int) -> "Lf2Exponents":
        return cls(r, dict.fromkeys(_slots(r), 1))

    @classmethod
    def from_bits(cls, r: int, bits: Iterable[int]) -> "Lf2Exponents":
        bits = list(int(b) for b in bits)
        slots = _slots(r)
        if len(bits) != len(slots):
            raise ShapeMismatch(f"need {len(slots)} exponent bits, got {len(bits)}")
        return cls(r, dict(zip(slots, bits)))

    def swapped_copies(self) -> "Lf2Exponents":
        table = {(edge, 1 - copy): n for (edge, copy), n in self.table.items()}
        return Lf2Exponents(self.r, table)

    def with_slot(self, edge: Edge, copy: int, n: int) -> "Lf2Exponents":
        table = dict(self.table)
        table[(edge, copy)] = n
        return Lf2Exponents(self.r, table)

    def active_slots(self) -> list[tuple[Edge, int]]:
        return [key for key in sorted(self.table.keys()) if self.table[key] == 1]


def lf2_expectation(
    w: WeightedHypergraph, exps: Lf2Exponents, budget: float | None = None
) -> float:
    """E over two copies of vertex 0 and one copy of the rest of the product
    of the active edge weights, each reading its own copy of vertex 0."""
    if exps.r != w.r:
        raise ShapeMismatch("exponent arity does not match hypergraph")
    factors = [
        (w.weights[edge].values, _origin_axes(edge, copy))
        for edge, copy in exps.active_slots()
    ]
    return expect_product(factors, budget, what="doubled-origin expectation")


def _lf2_factors(w: WeightedHypergraph, ej: Edge, exps: Lf2Exponents) -> list[Factor]:
    """Factors of the centered term at edge ej: (weight - 1) on ej at copy 0
    of vertex 0, then every other active slot's weight at its own copy."""
    if exps.r != w.r:
        raise ShapeMismatch("exponent arity does not match hypergraph")
    factors = [(w.weights[ej].values - 1.0, _origin_axes(ej, 0))]
    factors += [
        (w.weights[edge].values, _origin_axes(edge, copy))
        for edge, copy in exps.active_slots()
        if (edge, copy) != (ej, 0)
    ]
    return factors


def lf2_term(
    w: WeightedHypergraph, j: int, exps: Lf2Exponents, budget: float | None = None
) -> float:
    """Centered term: the edge omitting j, read at copy 0 of vertex 0, is
    replaced by (weight - 1); its own copy-0 exponent is ignored, every other
    active slot contributes its weight unchanged."""
    if not (1 <= j <= w.r):
        raise InvalidSubset(f"edge index {j} must be in 1..{w.r}")
    factors = _lf2_factors(w, w.system.edge_omitting(j), exps)
    return expect_product(factors, budget, what="centered doubled-origin term")


def lf2_telescoping(
    w: WeightedHypergraph, exps: Lf2Exponents, budget: float | None = None
) -> VerificationReport:
    """Peel active slots one at a time (canonical slot order); each step's
    centered term comes from ``lf2_term``, with the two copies of vertex 0
    relabeled when the peeled slot reads copy 1.  The terms must sum to the
    full expectation minus one."""
    full = lf2_expectation(w, exps, budget)
    report = VerificationReport(name="doubled-origin-telescoping")
    current = exps
    terms = []
    for edge, copy in exps.active_slots():
        j = next(v for v in range(w.r + 1) if v not in edge)
        if copy == 0:
            term = lf2_term(w, j, current, budget)
        else:
            term = lf2_term(w, j, current.swapped_copies(), budget)
        terms.append(term)
        report.ratios[f"term-edge-{j}-copy-{copy}"] = term
        current = current.with_slot(edge, copy, 0)
    total = math.fsum(terms)
    scale = max(1.0, abs(full))
    report.add(eq_check("telescoping-sum", full - 1.0, total, TOL * scale))
    report.ratios["expectation"] = full
    return report


def lf2_chain_verify(
    w: WeightedHypergraph,
    j: int,
    exps: Lf2Exponents,
    budget: float | None = None,
) -> VerificationReport:
    """Doubling chain for a centered term: double the coordinates of the
    centered edge other than vertex 0 one at a time (ascending), splitting
    off the one edge that misses the new vertex at each step, then split the
    final two-copy average into the centered box power and the raw cube
    expectation.

    The surviving raw factor applies the centered edge's copy-1 exponent
    uniformly across the final cube; this literal reading is recorded as a
    report note.
    """
    if not (1 <= j <= w.r):
        raise InvalidSubset(f"edge index {j} must be in 1..{w.r}")
    r = w.r
    ej = w.system.edge_omitting(j)
    others = tuple(v for v in ej if v != 0)
    base = _lf2_factors(w, ej, exps)
    sup = sup_norm(w)
    n_final = exps.table[(ej, 1)]
    prefixes = [others[:t] for t in range(len(others) + 1)]
    # The split-off edge weights are their own caps.
    report, q_at, bound = _chain(
        "centered-term-chain", base, base, prefixes, ("c", "v"), sup, budget
    )
    report.notes.append(
        "final raw cube factor applies the centered edge's copy-1 exponent "
        f"uniformly (value {n_final})"
    )

    # Final split: double vertex 0 separately in the centered and raw halves.
    plain = [(v, None) for v in ej]
    box_power = expect_product([(base[0][0], plain)], budget, "centered box power", d=ej)
    if n_final == 1:
        raw = [(w.weights[ej].values, plain)]
        cube_power = expect_product(raw, budget, "cube expectation", d=ej)
    else:
        cube_power = 1.0
    lhs = q_at[others] ** 2
    rhs = box_power * cube_power
    slack = TOL * max(1.0, abs(lhs), abs(rhs))
    report.add(ineq_check("final-split", lhs, rhs, slack))

    box = _root(box_power, r)
    bound *= box
    bound *= _root(cube_power, r)
    ratio_key = "lhs-over-boxnorm-times-sup-power"
    return _close(report, abs(q_at[()]), bound, box, sup, r - 1, ratio_key)
