"""Linear-forms expectation engines and their Cauchy-Schwarz chains.

Everything here evaluates exact finite-N expectations of products of edge
weights over partially doubled coordinates, and verifies the inequalities
that connect them:

* cube-pattern expectations over a single edge (products of the edge weight
  over chosen cube vertices) and the binomial expansion that relates raw and
  centered patterns, whose centered terms are evaluated once per orbit of
  the whole cube group, a class with coloops being a power of the weight's
  mean times the term of its core (``binomial_expansion_identity``);
* the strong-linear-forms expectation with a centered distinguished edge and
  one minorant per remaining edge and copy, together with the doubling chain
  that bounds it by a box-norm power of the centered edge;
* its single-copy variant, which saves one doubling per step;
* the conditional-product weight (mean over vertex 0 of the product of the
  other edge weights), its second moment, and the telescoped decomposition of
  that second moment into centered terms, each with its own doubling chain.

All three chains are one operation applied step by step: double every
factor over the copy patterns of the doubled vertices (``_double``) and split
off the factors whose edge misses the newly doubled vertex.  The expansion
and the slf chains read represented weights alone, nu(L·x) mod a prime N
with every coefficient of L invertible (``_normed``): the box norm of such
a centered weight is the uniformity norm of nu - 1 read off its line, which
checks the chains' endpoint.  Any other weight raises NotRepresentation
before any step is charged.

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
copy of one, it is the cheaper of two: a box route, the mean over the other
variables z of a box power (``gowersnorm._box_pows``) of the product of the
undoubled factors; and a split route, when z falls into components that
share no variable: the doubled product then factors pointwise, so the
expectation is the mean over both copies of d of the product of one
marginal per component.  ``q_value`` runs the plan on the explicitly
doubled factors (``_on_planner``) and is, with ``ybar_sq_expectation`` in
``tests/chain_oracle.py``, the router's test oracle.  ``charge_gcs`` prices
``gowersnorm.gcs_verify``, whose left side is one such plan.

A factor may also carry its form, (array, axes, form), when its values are
h(L·x mod N) for the linear form L and a prime N: the represented weights,
each of which carries its form from the moment it is built
(``EdgeFn.formed``), their centered copies and the constant one (the zero
form).  A product of such formed factors reads x only through the image of
the form map, onto which the uniform x is pushed uniformly, so it takes a
fourth route, the quotient route: a plan that reads the doubled factors
through slices at 0 along the variables outside a basis of the form system
(``_quotient_layout``); a formed structure off one prime modulus that
sizes every axis raises NotRepresentation.  The lf2 engine, the cube
engine, the telescoping terms and their chains, the progression count and
the box norms of represented weights (``formed_box_norm``) pass formed
factors; the slf chains, whose minorants are random, pass plain ones.
Every route reduces over fixed shapes, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .budget import check_budget, power_cost
from .errors import (
    AllZeroPattern,
    BudgetExceeded,
    CapViolation,
    InvalidSubset,
    NotRepresentation,
    NumericalInconsistency,
    ShapeMismatch,
)
from . import forms
from .cyclic import CyclicFn
from .forms import Form
from .genmeasure import philox_random
from .gowersnorm import (
    _CHUNK_ELEMS,
    _LETTERS,
    CubeVertex,
    EdgeFn,
    _box_pows,
    clamp_cube_average,
    cube_vertices,
    u_norm_fast,
)
from .hypersystem import Edge, WeightedHypergraph, is_prime, sup_norm
from .report import TOL, VerificationReport, eq_check, ineq_check

# A free variable is a vertex together with a copy index; copy None means the
# coordinate is not doubled.
Var = tuple[int, int | None]
# A factor is an array plus the variable read by each of its axes, and for
# a formed factor the form of its values as a third item.
Factor = tuple[np.ndarray, list[Var]] | tuple[np.ndarray, list[Var], Form]
# The structures of a factor list, hashable, as a cache key: the shape and
# axes of each factor, and its form when it carries one.
Structure = tuple[tuple, ...]


def _var_order_key(v: Var):
    # Doubled copies outermost (vertex ascending, copy ascending), then the
    # plain coordinates, vertex ascending.  Normative enumeration order.
    vertex, copy = v
    return (copy is None, vertex, 0 if copy is None else copy)


@dataclass(frozen=True)
class _Plan:
    """A fixed contraction order for one factor structure.

    Slots 0..F-1 hold the factors, or with ``slices`` slot i holds factor
    ``slices[i][0]`` indexed by ``slices[i][1]``, a view of it; step i reads
    the slots in ``steps[i][0]``, contracts them with the einsum expression
    ``steps[i][1]`` and stores the result in slot F+i.  ``scalars`` are the
    slots left holding scalars.  ``cost`` is the sum over steps of scope
    points times factors read, ``power`` the largest number of variables in
    one step's scope, and ``points`` the number of index points.
    ``subscripts`` and ``sizes`` are what it was planned from (``_plan``).
    """

    steps: tuple[tuple[tuple[int, ...], str], ...]
    scalars: tuple[int, ...]
    cost: float
    power: int
    points: float
    subscripts: str
    sizes: tuple[int, ...]
    slices: tuple[tuple[int, tuple], ...] = ()


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
        bucket = [scope for scope in live.values() if var in scope]
        return math.prod([size[v] for v in set().union(*bucket)]), len(bucket)

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
        steps, live, cost, power = [step], scalars + (len(terms),), one_bucket, len(order)
    return _Plan(tuple(steps), tuple(live), cost, power, points, subscripts, sizes)


def _run(plan: _Plan, factors: list[Factor]) -> float:
    """Contract the factors, through the plan's slices if any, step by step
    as the plan says; the sum divided by the number of index points."""
    slots: list[np.ndarray | None] = [f[0] for f in factors]
    if plan.slices:
        slots = [slots[i][index] for i, index in plan.slices]
    for inputs, expr in plan.steps:
        slots.append(np.einsum(expr, *[slots[i] for i in inputs], optimize=False))
        for i in inputs:
            slots[i] = None
    return math.prod([float(slots[i]) for i in plan.scalars]) / plan.points


def _double(factors: list[Factor], d: tuple[int, ...]) -> list[Factor]:
    """Each factor once per copy pattern of the doubled vertices d, pattern
    order innermost: a plain axis of a vertex in d reads that vertex's copy
    in the pattern, every other axis is kept, and so is a factor's form.
    The planner oracle ``_on_planner`` doubles factors this way, and
    ``_quotient_layout`` doubles the axes of a structure, each with its
    factor's index in place of the array."""
    patterns = [dict(zip(d, omega)) for omega in itertools.product((0, 1), repeat=len(d))]
    return [
        (f[0], [(v, copy_of.get(v)) if c is None else (v, c) for v, c in f[1]], *f[2:])
        for f in factors
        for copy_of in patterns
    ]


def _view(
    axes: tuple[Var, ...], order: list[Var], size: dict[Var, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that puts a factor's axes in ``order``, and the shape
    that then views it over ``order``: size one on the axes it does not read."""
    perm = tuple(sorted(range(len(axes)), key=lambda a: order.index(axes[a])))
    return perm, tuple(size[v] if v in axes else 1 for v in order)


def _views(factors: list[Factor], layout: _BoxLayout | _SplitLayout) -> list[np.ndarray]:
    """Each factor's array viewed as the layout says (``_view``)."""
    return [
        f[0].transpose(perm).reshape(shape)
        for f, perm, shape in zip(factors, layout.perms, layout.shapes)
    ]


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
    views = _views(factors, layout)
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
    views = _views(factors, layout)
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


def _quotient_layout(structure: Structure, d: tuple[int, ...]) -> _Plan:
    """The quotient route of a formed structure, a plan read through
    slices.  Every form must have one prime modulus N that sizes every
    axis, or NotRepresentation is raised.

    Each factor is doubled over d as ``_double`` doubles it, keeping its
    form on each axis.  Let M be the matrix of the doubled forms over the
    variables in canonical order.  For prime N the map x -> Mx pushes the
    uniform measure onto the uniform measure on its image, and for pivot
    columns P with rank(M_P) = |P| = rank(M) the map of x_P alone reaches
    that image one to one.  So the expectation is unchanged when every
    variable outside P is fixed at 0: each doubled factor is sliced at 0
    along those axes, and the plan of the slices (``_plan``) reads them.  P
    comes from ``forms.pivots``, once per structure, and is certified by
    ``forms.independent_columns``; a pivot set that fails raises
    NumericalInconsistency.
    """
    n = structure[0][2].modulus
    moduli = {f.modulus for _, _, f in structure} | {s for shape, _, _ in structure for s in shape}
    if not is_prime(n) or moduli != {n}:
        raise NotRepresentation(f"one prime must size every form and axis, got {sorted(moduli)}")
    doubled = _double([(i, axes) for i, (_, axes, _) in enumerate(structure)], d)
    order = sorted({var for _, axes in doubled for var in axes}, key=_var_order_key)
    column = {var: k for k, var in enumerate(order)}
    rows = {}
    for i, axes in doubled:
        row = [0] * len(order)
        for var, c in zip(axes, structure[i][2].coeffs):
            row[column[var]] = c % n
        rows[tuple(row)] = None
    rows = list(rows)
    pivots = forms.pivots(rows, n)
    first = [*pivots, *[k for k in range(len(order)) if k not in pivots]]
    if forms.independent_columns([[row[k] for k in first] for row in rows], n) != tuple(
        range(len(pivots))
    ):
        raise NumericalInconsistency(
            f"pivot columns {pivots} are not a basis of the form system mod {n}"
        )
    letter = dict(zip([order[k] for k in pivots], _LETTERS))
    slices, terms = [], []
    for i, axes in doubled:
        slices.append((i, tuple([slice(None) if var in letter else 0 for var in axes])))
        terms.append("".join([letter[var] for var in axes if var in letter]))
    plan = _plan(",".join(terms), (n,) * len(pivots))
    return replace(plan, slices=tuple(slices))


def _structure(factors: list[Factor]) -> Structure:
    """The key of ``_route``: each factor's shape and axes, and its form
    when it carries one."""
    return tuple([(f[0].shape, tuple(f[1]), *f[2:]) for f in factors])


@functools.lru_cache(maxsize=16384)
def _route(structure: Structure, d: tuple[int, ...]) -> _Plan | _BoxLayout | _SplitLayout:
    """How ``expect_product`` evaluates one structure (the shape and axes of
    each factor, and its form when it carries one) doubled over d.

    Every factor or none must carry a form, each must label every axis of
    its array, each variable must have one size, and at nonempty d every
    vertex of d must be read by some factor and by none at a copy.  A
    formed structure takes the quotient route (``_quotient_layout``),
    unpriced: above r=1 and N=3 it is charged less than the other routes on
    every formed structure the engines build; one off a single prime
    modulus is refused.  A plain structure takes at d empty the plan of the
    structure (``_plan``), and otherwise the cheaper of the box route
    (``_box_layout``) and, when the variables outside d fall into
    independent components, the split route (``_split_layout``), ties going
    to the box route.
    """
    if len({len(entry) for entry in structure}) != 1:
        raise ShapeMismatch("every factor or none must carry a form")
    sizes: dict[Var, int] = {}
    for shape, axes, *_ in structure:
        if len(shape) != len(axes):
            raise ShapeMismatch("factor axis labels do not match array rank")
        for var, size in zip(axes, shape):
            if sizes.setdefault(var, size) != size:
                raise ShapeMismatch(f"variable {var} has conflicting sizes")
    if d and {var for var in sizes if var[0] in d} != {(v, None) for v in d}:
        raise ShapeMismatch(f"every vertex of d={d} must be read, and only plain")
    if not d and len(sizes) > len(_LETTERS):
        raise ShapeMismatch("too many free variables")
    if len(structure[0]) == 3:
        return _quotient_layout(structure, d)
    if d:
        routes = [_box_layout(structure, d), _split_layout(structure, d)]
        return min([r for r in routes if r is not None], key=lambda route: route.cost)
    order = sorted(sizes, key=_var_order_key)
    letter = dict(zip(order, _LETTERS))
    subscripts = ",".join(["".join([letter[v] for v in axes]) for _, axes in structure])
    return _plan(subscripts, tuple([sizes[v] for v in order]))


def expect_product(
    factors: list[Factor], budget: float | None = None, what: str = "", d: tuple[int, ...] = ()
) -> float:
    """E[prod of factors doubled over d] over all variables that occur,
    uniformly; each factor is an array plus the variable of each of its axes,
    and a formed factor also its form.  The empty product has expectation
    one.  The route is the one ``_route`` takes for the factors' structure
    and d: the quotient route for formed factors, which must share one
    prime modulus (else NotRepresentation, before any charge), and for
    plain ones at d=() the bucket-elimination plan of ``_plan``.  It is
    charged at its cost before any work happens, and a refusal can price
    the structure at another modulus (``_cost_at``)."""
    if not factors:
        return 1.0
    structure = _structure(factors)
    route = _route(structure, d)
    try:
        check_budget(route.cost, budget, what=what or "product expectation", power=route.power)
    except BudgetExceeded as exc:
        exc.cost_at = functools.partial(_cost_at, route, structure, d)
        raise
    if isinstance(route, _BoxLayout):
        return _box_route(factors, route)
    if isinstance(route, _SplitLayout):
        return _split_route(factors, route)
    return _run(route, factors)


def _cost_at(route, structure: Structure, d: tuple[int, ...], n: int, m: int) -> float:
    """The charge of ``route``, of ``structure`` doubled over d, with every
    axis of size n at m instead: a plan, the quotient's too, planned again,
    any other route taken again on the resized structure."""
    if isinstance(route, _Plan):
        return _plan(route.subscripts, tuple([m if s == n else s for s in route.sizes])).cost
    resized = tuple([(tuple([m if s == n else s for s in f[0]]), f[1]) for f in structure])
    return _route(resized, d).cost


def _on_planner(
    factors: list[Factor], d: tuple[int, ...], budget: float | None = None, what: str = ""
) -> float:
    """E[prod of _double(factors, d)] on the planner alone: the route of
    ``q_value``, and at nonempty d the test oracle of ``expect_product``."""
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

    def support(self) -> list[CubeVertex]:
        return [om for om, b in zip(cube_vertices(self.k), self.bits) if b]

    def weight(self) -> int:
        return sum(self.bits)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def _normed(g: EdgeFn) -> Form:
    """g's form L, when g is nu(L·x) mod a prime with every coefficient of L
    invertible: then norm preservation reads the box norm of g - 1 off g's
    line, and the cube group acts on its centered terms.  Any other g raises
    NotRepresentation."""
    form = g.form
    if form is None or not (is_prime(form.modulus) and all(c % form.modulus for c in form.coeffs)):
        raise NotRepresentation(f"weight on {g.edge} is not nu(L·x) mod a prime, L invertible")
    return form


def _centered_box_norm(g: EdgeFn, budget: float | None) -> float:
    """The box norm of g - 1, the uniformity norm of nu - 1 of g's order, nu
    read along g's ``forms.line`` (``_normed``): it shares no code with the
    expectation routes."""
    form = _normed(g)
    line = CyclicFn(form.modulus, forms.line(g.values, form) - 1.0)
    return u_norm_fast(line, g.values.ndim, budget)


def formed_box_norm(g: EdgeFn, budget: float | None = None) -> float:
    """The box norm of a represented weight g: the 2^k-th root of g's expectation
    at its 2^k cube vertices, on the quotient route, clamped as ``box_norm`` clamps."""
    k = len(g.edge)
    power = expect_product(_cube_factors(g, cube_vertices(k)), budget, f"box norm on edge {g.edge}")
    return clamp_cube_average(power, max(g.values.max(), -g.values.min()) ** 2**k) ** (1 / 2**k)


def _cube_axes(edge: Edge, omega: CubeVertex) -> list[Var]:
    """The axes of a function of ``edge`` at cube vertex omega: its i-th vertex at copy omega_i."""
    return [(v, omega[i]) for i, v in enumerate(edge)]


def _cube_factors(g: EdgeFn, support: Iterable[CubeVertex]) -> list[Factor]:
    """g at each cube vertex of the support; formed when g carries a form."""
    tail = () if g.form is None else (g.form,)
    return [(g.values, _cube_axes(g.edge, omega), *tail) for omega in support]


def charge_gcs(edge: Edge, dims: tuple[int, ...], budget: float | None = None) -> None:
    """Charge ``gowersnorm.gcs_verify`` on functions of ``edge`` with vertex
    set sizes ``dims`` from the shapes alone: the plan of the 2^k cube factors
    (``_route``) and 2^k box norms of npoints^2 / d_k products each.  A
    caller that draws the functions takes it before the draw."""
    kk = len(dims)
    if kk > 5:  # six coordinates of size one plan one einsum of 64 operands; it takes 63
        raise ShapeMismatch(f"the product-form bound takes at most 5 coordinates, got {kk}")
    cost, power = (2.0**kk) * power_cost(math.prod(dims), 2) / dims[-1], 2 * kk - 1
    if cost < math.inf:  # then no scope of the plan leaves the float range
        axes = [tuple(_cube_axes(edge, omega)) for omega in cube_vertices(kk)]
        plan = _route(tuple([(tuple(dims), a) for a in axes]), ())
        cost, power = cost + plan.cost, max(power, plan.power)
    check_budget(cost, budget, what=f"product-form bound on edge {edge}", power=power)


def cube_expectation(g: EdgeFn, pat: CubePattern, budget: float | None = None) -> float:
    """E[prod over active cube vertices of g(x^omega)], both copies uniform;
    on formed factors when g is nu(L·x) with its form L."""
    if pat.k != len(g.edge):
        raise ShapeMismatch("pattern dimension does not match edge size")
    return expect_product(_cube_factors(g, pat.support()), budget, what="cube expectation")


def cube_centered_expectation(g: EdgeFn, pat: CubePattern, budget: float | None = None) -> float:
    """Same as ``cube_expectation`` with g - 1 at the active vertices.

    The product-form bound |value| <= boxnorm(g-1)^weight is verified (a
    slack of TOL times the bound absorbs roundoff), the box norm by
    ``_centered_box_norm``; a g it cannot read raises NotRepresentation
    before any step is charged.
    """
    if pat.k != len(g.edge):
        raise ShapeMismatch("pattern dimension does not match edge size")
    if pat.weight() == 0:
        raise AllZeroPattern("centered cube expectation needs an active vertex")
    _normed(g)
    value = expect_product(
        _cube_factors(g.centered(), pat.support()), budget, what="centered cube expectation"
    )
    bound = _centered_box_norm(g, budget) ** pat.weight()
    if abs(value) > bound + TOL * max(1.0, bound):
        raise NumericalInconsistency(
            f"centered cube expectation {value} exceeds product bound {bound}"
        )
    return value


# Largest cube dimension with a class table; it has 2^(2^k) entries, so
# 65,536 at k=4 but 2^32 at k=5.
MAX_CUBE_K = 4


def _flipped(mask, t: int, n: int):
    """The sub-support ``mask`` (bit j: the j-th of the n cube vertices)
    with each coordinate flipped where the t-th vertex has a one, so bit j
    moves to bit j ^ t.  ``mask`` is an integer array."""
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


@functools.lru_cache(maxsize=None)
def _cube_classes(k: int) -> list[int]:
    """The class representative, the least mask of its orbit under the
    whole cube group (the 2^k flips and the k! coordinate permutations), of
    every sub-support mask of the k-dimensional cube.  Each permutation
    moves the flip representatives alone, and ``_flip_classes`` finds the
    least mask of each image's flip orbit."""
    vertices = cube_vertices(k)
    index = {om: j for j, om in enumerate(vertices)}
    flips = np.asarray(_flip_classes(k))
    reps = np.flatnonzero(flips == np.arange(len(flips)))
    least = reps
    for perm in itertools.permutations(range(k)):
        moved = np.zeros_like(reps)
        for j, om in enumerate(vertices):
            moved |= ((reps >> j) & 1) << index[tuple([om[p] for p in perm])]
        least = np.minimum(least, flips[moved])
    return least[np.searchsorted(reps, flips)].tolist()


@functools.lru_cache(maxsize=None)
def _coloop_split(k: int, n: int, rep: int) -> tuple[int, int]:
    """The number of coloops of the class ``rep`` of the k-cube mod a prime
    n, and the class of its core, the class less its coloops (0 when none
    is left).

    Copy w_i of x_i is y_i + w_i h_i, so the form of vertex w has the row
    (c_i, c_i w_i) over (y_i, h_i).  With every c_i invertible, scaling the
    columns by 1/c_i and merging the k equal y columns leaves the row
    (1, w) and the same matroid.  A coloop lies in every basis, so only the
    vertices of one basis (``forms.independent_columns``) are tested: each
    is a coloop when the rank mod n (``forms.pivots``) drops without it.
    Mod a small n a 0/1 dependency may hold that fails over Q.  No circuit
    holds a coloop, so the core has none.
    """
    vertices = cube_vertices(k)
    bits = [j for j in range(len(vertices)) if rep >> j & 1]
    rows = [(1, *vertices[j]) for j in bits]
    basis = forms.independent_columns([list(col) for col in zip(*rows)], n)
    coloops = [
        at for at in basis if len(forms.pivots(rows[:at] + rows[at + 1 :], n)) < len(basis)
    ]
    core = sum([1 << j for at, j in enumerate(bits) if at not in coloops])
    return len(coloops), _cube_classes(k)[core]


def binomial_expansion_identity(
    g: EdgeFn, patterns: Iterable[CubePattern], budget: float | None = None
) -> list[VerificationReport]:
    """Check E[prod nu] = sum over sub-supports of E[prod (nu-1)] for each
    pattern, the empty one contributing one; one report per pattern.

    g must be nu(L·x) mod a prime with L invertible (``_normed``), and k <=
    MAX_CUBE_K, or NotRepresentation is raised before any step is charged.
    The change of variables x_i -> x_i / c_i makes a centered term a
    function of the rows (1, w) of its vertices w alone, so it is constant
    on each orbit of the whole cube group (``_cube_classes``).  A class with
    c coloops (``_coloop_split``) is m^c times the term of its core, m =
    E(g - 1) read along g's line: the forms of the coloops are uniform and
    independent of the others.  Each class without coloops is evaluated once
    across all the patterns, at its representative.  A pattern's dimension
    is checked first, then the walk of its 2^weight - 1 sub-supports, one
    table lookup each, is charged, and then its expectations, its raw one
    and each class not evaluated before, are charged together as one step
    before any of them runs; its refusal prices each of them at another
    modulus (``_cost_at``).  The raw side is never shared by class.
    """
    k = len(g.edge)
    form = _normed(g)
    if k > MAX_CUBE_K:
        raise NotRepresentation(f"the cube expansion takes k <= {MAX_CUBE_K}, got k={k}")
    vertices = cube_vertices(k)
    table = _cube_classes(k)
    centered = g.centered()
    mean = math.fsum(forms.line(centered.values, form).tolist()) / form.modulus
    terms: dict[int, float] = {0: 1.0}
    reports = []
    for pat in patterns:
        if pat.k != k:
            raise ShapeMismatch("pattern dimension does not match edge size")
        what = f"cube expansion walk (k={k}, 2^{pat.weight()} - 1 sub-supports)"
        check_budget(power_cost(2, pat.weight()) - 1.0, budget, what=what)
        full = sum([1 << j for j, b in enumerate(pat.bits) if b])
        # Every nonempty submask of ``full``, in falling order, as (coloops,
        # core class); fsum rounds the exact sum, so the order does not show.
        parts = []
        sub = full
        while sub:
            parts.append(_coloop_split(k, form.modulus, table[sub]))
            sub = (sub - 1) & full
        new = {
            core: _cube_factors(centered, [om for j, om in enumerate(vertices) if core >> j & 1])
            for core in dict.fromkeys([core for _, core in parts])
            if core not in terms
        }
        raw = _cube_factors(g, pat.support())
        structures = [_structure(factors) for factors in [raw, *new.values()] if factors]
        routes = [_route(structure, ()) for structure in structures]
        try:
            check_budget(
                math.fsum([route.cost for route in routes]),
                budget,
                what=f"cube expansion (k={k}, {len(routes)} expectations)",
                power=max([route.power for route in routes], default=0),
            )
        except BudgetExceeded as exc:
            exc.cost_at = lambda n, m: math.fsum(
                [_cost_at(route, s, (), n, m) for route, s in zip(routes, structures)]
            )
            raise
        lhs = expect_product(raw, budget, what="cube expectation")
        for core, factors in new.items():
            terms[core] = expect_product(factors, budget, what="centered cube expectation")
        rhs = math.fsum([1.0, *[mean**c * terms[core] for c, core in parts]])
        report = VerificationReport(name="cube-binomial-expansion")
        report.add(eq_check("binomial-expansion", lhs, rhs, TOL * max(1.0, abs(lhs), abs(rhs))))
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


def _slots(r: int, copies: Iterable[int] = (0, 1)) -> list[tuple[Edge, int]]:
    """(edge, copy of vertex 0) for every edge containing vertex 0, edges by
    their omitted vertex ascending, copies inner."""
    return [
        (tuple(v for v in range(r + 1) if v != j), copy)
        for j in range(1, r + 1)
        for copy in copies
    ]


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
            g, where = self.gs[key], f"{edge} copy {copy}"
            if g.edge != edge or g.dims != w.system.edge_dims(edge):
                raise ShapeMismatch(f"minorant at {where} has wrong shape")
            if np.any(g.values < 0):
                raise CapViolation(f"minorant at {where} is negative somewhere")
            cap = w.weights[edge].values if self.caps[key] is Cap.NU else 1.0
            if np.any(g.values > cap):
                raise CapViolation(f"minorant at {where} exceeds its cap somewhere")

    @property
    def r(self) -> int:
        return self.hypergraph.r

    @property
    def copies(self) -> tuple[int, ...]:
        return tuple(sorted({key[1] for key in self.gs}))


def _distinguished_edge(w: WeightedHypergraph) -> Edge:
    return w.system.edge_omitting(0)


def _normalize_subset(w: WeightedHypergraph, d: Iterable[int]) -> tuple[int, ...]:
    e0 = _distinguished_edge(w)
    dd = tuple(sorted(int(v) for v in d))
    if len(set(dd)) != len(dd) or any(v not in e0 for v in dd):
        raise InvalidSubset(f"{dd} is not a subset of the distinguished edge {e0}")
    return dd


def _origin_axes(edge: Edge, copy: int | None) -> list[Var]:
    """Axes of an edge that reads vertex 0 at ``copy`` and the rest plain."""
    return [(v, copy) if v == 0 else (v, None) for v in edge]


def weight_factor(
    w: WeightedHypergraph, edge: Edge, copy: int | None = None, centered: bool = False
) -> Factor:
    """The factor of the weight of ``edge``, minus one when ``centered``,
    reading vertex 0 at ``copy`` and its other vertices plain; formed with
    the weight's form when it carries one."""
    g = w.weights[edge]
    tail = () if g.form is None else (g.form,)
    return (g.values - 1.0 if centered else g.values), _origin_axes(edge, copy), *tail


def _cap_factor(w: WeightedHypergraph, edge: Edge, cap: Cap) -> Factor:
    """The single-copy factor of a cap: the weight of the edge, or the
    constant one, which has the zero form and is a single value viewed over
    the edge.  The weight must be normed on its line (``_normed``)."""
    if cap is Cap.NU:
        return weight_factor(w, edge)
    one = np.broadcast_to(np.float64(1.0), w.system.edge_dims(edge))
    return one, _origin_axes(edge, None), Form((0,) * len(edge), _normed(w.weights[edge]).modulus)


def _slf_base(inst: SlfInstance) -> tuple[list[Factor], list[Factor]]:
    """Undoubled factors of the chain quantity (the centered distinguished
    weight, then each minorant at its own copy of vertex 0) and the caps of
    the minorants on the same axes.  With one copy vertex 0 stays plain."""
    w = inst.hypergraph
    e0 = _distinguished_edge(w)
    two = len(inst.copies) == 2
    slots = [(w.system.edge_omitting(j), copy) for copy in inst.copies for j in range(1, w.r + 1)]
    axes = [_origin_axes(edge, copy if two else None) for edge, copy in slots]
    base = [(w.weights[e0].values - 1.0, _origin_axes(e0, None))]
    base += [(inst.gs[slot].values, ax) for slot, ax in zip(slots, axes)]
    one_capped = {edge for (edge, _), cap in inst.caps.items() if cap is not Cap.NU}
    ones = {edge: np.ones(w.system.edge_dims(edge)) for edge in one_capped}
    caps = [
        (w.weights[edge].values if inst.caps[(edge, copy)] is Cap.NU else ones[edge], ax)
        for (edge, copy), ax in zip(slots, axes)
    ]
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
) -> tuple[VerificationReport, dict[tuple[int, ...], float], float]:
    """Shared core of every doubling chain.

    Evaluates the chain quantity q at each doubled set d in ``sets`` and the
    split-off moments at each step (d, j), one for every vertex j of the last
    set with d and d + j both in ``sets``, then checks every Cauchy-Schwarz step
    q(d)^2 <= q(d + j) * E[Ybar^2] and every pointwise bound
    E[Ybar^2] <= E[Ybar] * sup^(factor count).  ``caps`` replace the base
    factors in Ybar; ``letters`` name d and j in the check ids.  Every
    quantity runs through ``expect_product``.  Returns the report, q at each set, and the
    product of the step roots E[Ybar^2]^(1/2^t) along the ascending path to
    the last set.
    """
    a, b = letters
    last = sets[-1]
    steps = [
        (d, j) for d in sets for j in last if j not in d and tuple(sorted(d + (j,))) in sets
    ]
    q_at = {
        d: expect_product(_kept(base, d), d=d, budget=budget, what=f"{name} at {a}={d}")
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
    """Check the composed bound and record the measured ratios, the ratio to
    box * sup^sup_power only where box is above roundoff (TOL; not at r=1)."""
    slack = TOL * max(1.0, lhs_abs, bound)
    report.add(ineq_check("composed-chain-bound", lhs_abs, bound, slack))
    report.ratios["lhs"] = lhs_abs
    report.ratios["composed-bound"] = bound
    report.ratios["box-norm-centered"] = box
    report.ratios["sup"] = sup
    scale = sup**sup_power
    if box * scale > TOL * scale:
        report.ratios[ratio_key] = lhs_abs / (box * scale)
    return report


def _endpoint_box_power(w: WeightedHypergraph, budget: float | None, swap: int = 0) -> float:
    """The box power of the centered weight of the edge omitting ``swap``,
    the order-r uniformity power of nu - 1 (``_centered_box_norm``), which
    shares no code with ``expect_product``: it checks the chain's endpoint."""
    return _centered_box_norm(w.weight_omitting(swap), budget) ** (2.0**w.r)


def _slf_chain(
    w: WeightedHypergraph,
    base: list[Factor],
    caps: list[Factor],
    single: bool,
    budget: float | None,
    swap: int = 0,
) -> tuple[VerificationReport, float]:
    """The chain of an instance on w, of one copy of vertex 0 or two, from
    its base factors and their caps (as ``_slf_base`` lays them out), and
    its signed q(()).  The
    distinguished slot reads the weight of the edge omitting ``swap``: 0
    unless the factors exchange the labels 0 and ``swap``
    (``capped_chain_verify``).  A weight of w not normed on its line
    (``_normed``) raises NotRepresentation before any step is charged."""
    for g in w.weights.values():
        _normed(g)
    r = w.r
    e0 = _distinguished_edge(w)
    sup = sup_norm(w)
    sets = [d for size in range(r + 1) for d in itertools.combinations(e0, size)]
    name = "single-copy-chain" if single else "strong-linear-forms-chain"
    report, q_at, bound = _chain(name, base, caps, sets, ("d", "j"), sup, budget)
    box_power = _endpoint_box_power(w, budget, swap)
    endpoint = q_at[e0]
    tol = TOL * max(1.0, abs(endpoint), abs(box_power))
    report.add(eq_check("endpoint-box-power", endpoint, box_power, tol))

    bound *= _root(endpoint, r)
    box = _root(box_power, r)
    if single:
        ratio_key, sup_power = "lhs-over-boxnorm-times-sup-half-power", r / 2.0
    else:
        ratio_key, sup_power = "lhs-over-boxnorm-times-sup-power", r
    return _close(report, abs(q_at[()]), bound, box, sup, sup_power, ratio_key), q_at[()]


def chain_verify(
    inst: SlfInstance, budget: float | None = None
) -> tuple[VerificationReport, float]:
    """Verify every exact Cauchy-Schwarz step, every pointwise sup bound, the
    endpoint identity, and the composed bound for an instance with one or two
    copies of vertex 0; return the report and the signed strong-linear-forms
    expectation q(()), whose absolute value the report holds as ``lhs``.

    The measured ratio of the expectation to boxnorm * sup^r (sup^(r/2) with
    one copy) is reported but never asserted; at finite N it stands in for an
    asymptotic statement.
    """
    return _slf_chain(inst.hypergraph, *_slf_base(inst), len(inst.copies) == 1, budget)


def single_chain_verify(
    inst: SlfInstance, budget: float | None = None
) -> tuple[VerificationReport, float]:
    """``chain_verify`` under the name of the single-copy variant, whose
    capped products have 2^|d| factors per step instead of 2^(|d|+1)."""
    return _slf_chain(inst.hypergraph, *_slf_base(inst), len(inst.copies) == 1, budget)


def capped_chain_verify(
    w: WeightedHypergraph,
    caps: dict[tuple[Edge, int], Cap],
    budget: float | None = None,
    swap: int = 0,
) -> VerificationReport:
    """The report of ``chain_verify`` on the single-copy instance whose
    every minorant is its cap, the caps keyed (edge, 0) as in
    ``SlfInstance``, on w with vertices 0 and ``swap`` exchanged.  Each
    factor reads the weight of the edge at the exchanged labels, relabeling
    the factor's axes instead of copying the weight.  Its factors are formed
    when the weights carry forms (``weight_factor``, ``_cap_factor``), so
    each expectation takes the quotient route."""
    slots = _slots(w.r, (0,))
    if set(caps) != set(slots):
        raise ShapeMismatch("caps must cover every non-distinguished edge in copy 0")
    label = list(range(w.r + 1))
    label[0], label[swap] = swap, 0

    def exchanged(edge: Edge) -> Edge:
        return tuple(sorted(label[v] for v in edge))

    def relabeled(factor: Factor) -> Factor:
        return (factor[0], [(label[v], c) for v, c in factor[1]], *factor[2:])

    capped = [
        relabeled(_cap_factor(w, exchanged(edge), caps[(edge, copy)])) for edge, copy in slots
    ]
    e0 = exchanged(_distinguished_edge(w))
    base = [relabeled(weight_factor(w, e0, centered=True))] + capped
    return _slf_chain(w, base, capped, True, budget, swap)[0]


def random_slf_instance(
    w: WeightedHypergraph, seed: int, caps_mode: str = "mixed", copies: int = 2
) -> SlfInstance:
    """Seeded random instance with one or two copies of vertex 0: each slot
    has a cap (drawn, or the forced mode) and a minorant that is the cap
    times i.i.d. uniforms on [0, 1).

    All uniforms come from one request of Philox(seed).  Slots follow edge
    by edge (omitted vertex ascending), copies inner; each takes one word
    for its cap when ``caps_mode`` is "mixed" (ν below 0.5, else one), then
    one word per point of its edge in C order."""
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    mixed = caps_mode == "mixed"
    cap = None if mixed else Cap(caps_mode)
    slots = _slots(w.r, range(copies))
    sizes = [math.prod(w.system.edge_dims(edge)) for edge, _ in slots]
    u = philox_random(seed, sum(sizes) + mixed * len(slots))
    caps: dict[tuple[Edge, int], Cap] = {}
    gs: dict[tuple[Edge, int], EdgeFn] = {}
    start = 0
    for (edge, copy), size in zip(slots, sizes):
        if mixed:
            cap = Cap.NU if u[start] < 0.5 else Cap.ONE
            start += 1
        dims = w.system.edge_dims(edge)
        g = u[start : start + size].reshape(dims)
        start += size
        if cap is Cap.NU:
            g = w.weights[edge].values * g
            g.flags.writeable = False  # handed over read-only, so kept uncopied
        caps[(edge, copy)] = cap
        gs[(edge, copy)] = EdgeFn(edge, dims, g)
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
    factors = [weight_factor(w, edge, copy) for edge, copy in exps.active_slots()]
    return expect_product(factors, budget, what="doubled-origin expectation")


def _lf2_factors(w: WeightedHypergraph, ej: Edge, exps: Lf2Exponents) -> list[Factor]:
    """Factors of the centered term at edge ej: (weight - 1) on ej at copy 0
    of vertex 0, then every other active slot's weight at its own copy;
    formed when the weights carry forms (``weight_factor``)."""
    if exps.r != w.r:
        raise ShapeMismatch("exponent arity does not match hypergraph")
    factors = [weight_factor(w, ej, 0, centered=True)]
    factors += [
        weight_factor(w, edge, copy)
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
    centered = [(base[0][0], plain, *base[0][2:])]
    box_power = expect_product(centered, budget, "centered box power", d=ej)
    if n_final == 1:
        cube_power = expect_product([weight_factor(w, ej)], budget, "cube expectation", d=ej)
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
