"""Linear-forms expectation engines and their Cauchy-Schwarz chains.

Everything here evaluates exact finite-N expectations of products of edge
weights over partially doubled coordinates, and verifies the inequalities
that connect them:

* cube-pattern expectations over a single edge (products of the edge weight
  over chosen cube vertices) and the binomial expansion that relates raw and
  centered patterns;
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
ascending).  ``expect_product`` evaluates an expectation by a fixed
bucket-elimination plan, each bucket contracted by unoptimized einsum with
its output axes in this order.  The chains evaluate their doubled quantities
through ``_doubled``, which takes the cheaper of that plan and a box route:
since no factor reads a copy of a doubled vertex, the expectation is the
mean over the other variables of a box power (``gowersnorm._box_pows``) of
the product of the undoubled factors.  ``q_value``, ``ybar_sq_expectation``
and ``cube_expectation`` stay on the planner and are the router's test
oracles.  Both routes reduce over fixed shapes, so repeated runs are
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
# The structure of a factor: the shape of its array and its axes.
Shaped = tuple[tuple[int, ...], list[Var]]
# The structures of a factor list, hashable, as a cache key.
Structure = tuple[tuple[tuple[int, ...], tuple[Var, ...]], ...]

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


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
    ``cost`` is the sum over steps of scope points times factors read, and
    ``power`` the largest number of variables in one step's scope.
    """

    steps: tuple[tuple[tuple[int, ...], str], ...]
    scalars: tuple[int, ...]
    cost: float
    power: int


@functools.lru_cache(maxsize=4096)
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
        return _Plan((step,), scalars + (len(terms),), one_bucket, len(order))
    return _Plan(tuple(steps), tuple(live), cost, power)


def _planned(shaped: list[Shaped]) -> tuple[_Plan, dict[Var, int]]:
    """The plan of a nonempty list of factor structures and the size of
    each variable."""
    sizes: dict[Var, int] = {}
    for shape, axes in shaped:
        if len(shape) != len(axes):
            raise ShapeMismatch("factor axis labels do not match array rank")
        for var, size in zip(axes, shape):
            if sizes.setdefault(var, size) != size:
                raise ShapeMismatch(f"variable {var} has conflicting sizes")
    order = sorted(sizes, key=_var_order_key)
    if len(order) > len(_LETTERS):
        raise ShapeMismatch("too many free variables")
    letter = dict(zip(order, _LETTERS))
    subscripts = ",".join(["".join([letter[v] for v in axes]) for _, axes in shaped])
    return _plan(subscripts, tuple([sizes[v] for v in order])), sizes


def _run(plan: _Plan, factors: list[Factor], points: float) -> float:
    """Contract the factors step by step as the plan says; the sum divided
    by the number of index points."""
    slots: list[np.ndarray | None] = [arr for arr, _ in factors]
    for inputs, expr in plan.steps:
        slots.append(np.einsum(expr, *[slots[i] for i in inputs], optimize=False))
        for i in inputs:
            slots[i] = None
    return math.prod([float(slots[i]) for i in plan.scalars]) / points


def expect_product(
    factors: list[Factor],
    budget: float | None = None,
    what: str = "",
) -> float:
    """E[prod of factors] over all variables that occur, uniformly.

    Each factor is an array plus the variable name of each of its axes.  The
    empty product has expectation one.  The sum runs by a bucket-elimination
    plan (``_plan``) and is charged at the planned cost, the sum over buckets
    of scope points times bucket factors, before any work happens.
    """
    if not factors:
        return 1.0
    plan, sizes = _planned([(arr.shape, axes) for arr, axes in factors])
    check_budget(plan.cost, budget, what=what or "product expectation", power=plan.power)
    return _run(plan, factors, float(math.prod(sizes.values())))


def _double(factors: list, d: tuple[int, ...]) -> list:
    """Each factor (or factor structure) once per copy pattern of the
    doubled vertices d, pattern order innermost: a plain axis of a vertex in
    d reads that vertex's copy in the pattern, every other axis is kept."""
    patterns = [dict(zip(d, omega)) for omega in itertools.product((0, 1), repeat=len(d))]
    return [
        (arr, [(v, copy_of.get(v)) if c is None else (v, c) for v, c in axes])
        for arr, axes in factors
        for copy_of in patterns
    ]


def _on_planner(
    factors: list[Factor], d: tuple[int, ...], budget: float | None = None, what: str = ""
) -> float:
    """E[prod of _double(factors, d)] on the planner alone: the test oracle
    of ``_doubled``, and the route of a chain endpoint that ``box_norm``
    checks."""
    return expect_product(_double(factors, d), budget, what)


def _structure(factors: list[Factor]) -> Structure:
    return tuple([(arr.shape, tuple(axes)) for arr, axes in factors])


@dataclass(frozen=True)
class _BoxLayout:
    """How ``_box_route`` builds F for one structure.  F's axes are z in
    canonical order, then d; ``perms`` and ``shapes`` turn each factor into
    a view over them (size one on the axes it does not read).  A block fixes
    the first ``len(fixed)`` axes of z, of sizes ``fixed``, and is reshaped
    to ``block``, (functions, *d sizes); ``points`` is the size of z."""

    perms: tuple[tuple[int, ...], ...]
    shapes: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    block: tuple[int, ...]
    points: int


@functools.lru_cache(maxsize=4096)
def _box_layout(structure: Structure, d: tuple[int, ...]) -> _BoxLayout:
    """The layout of the box route: blocks fix the shortest leading prefix
    of z that leaves at most _CHUNK_ELEMS elements of F (or all of z)."""
    size = {var: n for shape, axes in structure for var, n in zip(axes, shape)}
    dvars = [(v, None) for v in d]
    zvars = sorted(set(size) - set(dvars), key=_var_order_key)
    order = zvars + dvars
    shape = [size[v] for v in order]
    fixed, elems = 0, math.prod(shape)
    while fixed < len(zvars) and elems > _CHUNK_ELEMS:
        elems //= shape[fixed]
        fixed += 1
    perms = tuple(
        tuple(sorted(range(len(axes)), key=lambda a: order.index(axes[a])))
        for _, axes in structure
    )
    shapes = tuple(
        tuple(n if v in axes else 1 for v, n in zip(order, shape)) for _, axes in structure
    )
    block = (-1, *shape[len(zvars) :])
    points = math.prod(shape[: len(zvars)])
    return _BoxLayout(perms, shapes, tuple(shape[:fixed]), block, points)


def _box_route(factors: list[Factor], d: tuple[int, ...]) -> float:
    """E_z of the box power over d of F_z, where F is the product of the
    factors and z the variables other than the plain axes of d; no factor
    may read a copy of a vertex in d.  z is walked in blocks, and F is built
    for one block at a time (``_box_layout``)."""
    layout = _box_layout(_structure(factors), d)
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
    return math.fsum(np.concatenate(pows)) / layout.points


@functools.lru_cache(maxsize=4096)
def _route(structure: Structure, d: tuple[int, ...]) -> tuple[_Plan | None, float, int, float]:
    """How ``_doubled`` evaluates one structure (the shape and axes of each
    factor) doubled over d: the plan, or None for the box route, then the
    charge, its cost exponent and the number of index points.

    When no factor reads a copy of a vertex in d, the box route is charged
    m |d-box| products per factor to build F plus the m |d-box|^2 / d_last
    products of the box recursion, m the number of points of z.  It is
    taken when that is below the planned cost; ties, d empty and a vertex of
    d that no factor reads go to the planner.
    """
    plan, sizes = _planned(_double([(shape, list(axes)) for shape, axes in structure], d))
    points = float(math.prod(sizes.values()))
    plain = all(c is None for _, axes in structure for v, c in axes if v in d)
    if d and plain and all((v, 1) in sizes for v in d):
        box = float(math.prod([sizes[(v, 0)] for v in d]))
        cost = points / box * len(structure) + points / sizes[(d[-1], 0)]
        if cost < plan.cost:
            return None, cost, len(sizes) - 1, points
    return plan, plan.cost, plan.power, points


def _doubled(
    factors: list[Factor], d: tuple[int, ...], budget: float | None = None, what: str = ""
) -> float:
    """E[prod of _double(factors, d)] by the cheaper of the planner and
    ``_box_route``, charged at the cost of the route taken (``_route``)."""
    if not factors:
        return 1.0
    plan, cost, power, points = _route(_structure(factors), d)
    check_budget(cost, budget, what=what or "product expectation", power=power)
    if plan is None:
        return _box_route(factors, d)
    return _run(plan, _double(factors, d), points)


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


def binomial_expansion_identity(
    g: EdgeFn, pat: CubePattern, budget: float | None = None
) -> VerificationReport:
    """Check E[prod nu] = sum over sub-supports of E[prod (nu-1)].

    The empty sub-support contributes one.  Exact identity by expanding
    nu = (nu - 1) + 1 at each active vertex.
    """
    lhs = cube_expectation(g, pat, budget)
    support = pat.support()
    centered = g.centered()
    terms = [1.0]
    for size in range(1, len(support) + 1):
        # Each subset keeps the cube-vertex order of the support.
        for subset in itertools.combinations(support, size):
            factors = _cube_factors(centered, subset)
            terms.append(expect_product(factors, budget, what="centered cube expectation"))
    rhs = math.fsum(terms)
    report = VerificationReport(name="cube-binomial-expansion")
    report.add(eq_check("binomial-expansion", lhs, rhs, TOL))
    report.ratios["raw"] = lhs
    report.ratios["centered-sum"] = rhs
    return report


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
    sup: float | None = None,
) -> YbarStats:
    """First and second moments of the capped product over the edge omitting
    j (the one edge missing the next doubling vertex) at doubled subset d,
    plus the exact pointwise bound E[Ybar^2] <= E[Ybar] * sup^(factor count).
    """
    w = inst.hypergraph
    dd = _normalize_subset(w, d)
    if j in dd or j == 0 or j > w.r:
        raise InvalidSubset(f"next vertex {j} must lie outside d and the origin")
    if sup is None:
        sup = sup_norm(w)
    _, caps = _slf_base(inst)
    return _ybar(_missing(caps, j), dd, sup, functools.partial(_on_planner, budget=budget))


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
    ``evaluate(factors, d, what=...)``."""
    mean = evaluate(factors, d, what="capped product mean")
    mean_sq = evaluate(factors + factors, d, what="capped product second moment")
    count = len(factors) * 2 ** len(d)
    return YbarStats(mean_sq, mean, count, mean * sup**count)


def _root(value: float, denom_log2: int, scale: float = 1.0) -> float:
    """(value)^(1/2^denom_log2) with the nonnegativity clamp."""
    return clamp_cube_average(value, scale) ** (1.0 / 2.0**denom_log2)


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
    quantity runs through ``_doubled``, except q at the sets in ``planned``,
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
        d: (_on_planner if d in planned else _doubled)(
            _kept(base, d), d, budget, what=f"{name} at {a}={d}"
        )
        for d in sets
    }
    evaluate = functools.partial(_doubled, budget=budget)
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
        bound *= _root(mean_sq, t + 1, scale=max(1.0, abs(mean_sq)))
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
    shares no code with ``_doubled``'s box route, so that it can check the
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

    bound *= _root(endpoint, r, scale=max(1.0, abs(endpoint)))
    box = _root(box_power, r, scale=max(1.0, abs(box_power)))
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
    out = "".join(letter[v] for v in e0)
    vals = np.einsum(",".join(subs) + "->" + out, *operands, optimize=False) / n0
    return EdgeFn(e0, w.system.edge_dims(e0), vals)


def nu_prime_l2_dev(w: WeightedHypergraph, budget: float | None = None) -> float:
    """E[(nu' - 1)^2], with the expansion through the first two moments
    checked internally to TOL."""
    fn = nu_prime(w, budget)
    flat = fn.values.ravel().tolist()
    npts = fn.npoints
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
    box_power = _doubled([(base[0][0], plain)], ej, budget, what="centered box power")
    if n_final == 1:
        raw = [(w.weights[ej].values, plain)]
        cube_power = _doubled(raw, ej, budget, what="cube expectation")
    else:
        cube_power = 1.0
    lhs = q_at[others] ** 2
    rhs = box_power * cube_power
    slack = TOL * max(1.0, abs(lhs), abs(rhs))
    report.add(ineq_check("final-split", lhs, rhs, slack))

    box = _root(box_power, r, scale=max(1.0, abs(box_power)))
    bound *= box
    bound *= _root(cube_power, r, scale=max(1.0, abs(cube_power)))
    ratio_key = "lhs-over-boxnorm-times-sup-power"
    return _close(report, abs(q_at[()]), bound, box, sup, r - 1, ratio_key)
