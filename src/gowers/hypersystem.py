"""Complete r-uniform weighted hypergraphs on r+1 vertices and the
representation of a measure on Z_N as one.

Vertices are labeled 0..r; the edge set consists of the r+1 subsets that omit
exactly one vertex, written e_j for the edge omitting j.  ``represent`` turns
a measure nu on Z_N into edge weights

    nu_{e_j}(x) = nu(sum over i != j of (j - i) * x_i mod N),

which has two exact consequences for prime N > r: the r+1 evaluation points
y_j form an arithmetic progression with common difference sum_i x_i, and each
centered edge weight has box norm equal to the order-r uniformity norm of
nu - 1.  ``represent`` builds each weight nu(L·x), L the form of its edge, as
``EdgeFn.formed``, so every weight carries its form; ``represent_charged``
charges the weights to the budget before ``represent`` allocates them.  The
progression is linear in x, so ``represent`` certifies it from the forms'
difference rows and ``map_failures`` counts its failures from their rank.
``progression_count_check`` takes the product of the weights as one formed
expectation of ``linform``, whose forms have rank 2: a start and a step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .budget import check_budget, power_cost
from .cyclic import Measure
from .errors import (
    CompositeModulus,
    ModulusTooSmall,
    NotRepresentation,
    NumericalInconsistency,
    ShapeMismatch,
    SupBelowOneWarning,
)
from .forms import Form, line, pivots
from .gowersnorm import EdgeFn

Edge = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class HypergraphSystem:
    """The vertex/edge skeleton: r+1 vertex set sizes, edges omitting one
    vertex each."""

    r: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"arity must be >= 1, got {self.r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.r + 1:
            raise ShapeMismatch(
                f"need {self.r + 1} vertex sizes for arity {self.r}, got {len(dims)}"
            )
        if any(d <= 0 for d in dims):
            raise ShapeMismatch(f"vertex sizes must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(self.r + 1))

    def edge_omitting(self, j: int) -> Edge:
        if not (0 <= j <= self.r):
            raise ValueError(f"vertex {j} not in 0..{self.r}")
        return tuple(i for i in range(self.r + 1) if i != j)

    @property
    def edges(self) -> list[Edge]:
        return [self.edge_omitting(j) for j in range(self.r + 1)]

    def edge_dims(self, edge: Edge) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in edge)


@dataclass(frozen=True)
class WeightedHypergraph:
    """Edge weights for every edge of a HypergraphSystem.

    The weights that ``represent`` and ``relabel`` build carry their
    linear forms (``EdgeFn.form``); without them ``ap_values`` refuses to
    answer.
    """

    system: HypergraphSystem
    weights: dict[Edge, EdgeFn]

    def __post_init__(self):
        expected = set(self.system.edges)
        if set(self.weights.keys()) != expected:
            raise ShapeMismatch(
                f"weights must cover exactly the edges {sorted(expected)}"
            )
        for edge, fn in self.weights.items():
            if fn.edge != edge:
                raise ShapeMismatch(f"weight stored under {edge} labels itself {fn.edge}")
            if fn.dims != self.system.edge_dims(edge):
                raise ShapeMismatch(
                    f"edge {edge} needs dims {self.system.edge_dims(edge)}, "
                    f"got {fn.dims}"
                )

    @property
    def r(self) -> int:
        return self.system.r

    def weight_omitting(self, j: int) -> EdgeFn:
        return self.weights[self.system.edge_omitting(j)]


def sup_norm(w: WeightedHypergraph) -> float:
    """Largest weight value over all edges; warns below one, where sup-power
    bounds lose their meaning."""
    sup = max(float(np.max(fn.values)) for fn in w.weights.values())
    if sup < 1.0:
        warnings.warn(
            f"hypergraph sup norm {sup} is below 1",
            SupBelowOneWarning,
            stacklevel=2,
        )
    return sup


def check_modulus(n: int, r: int) -> None:
    """Refuse a modulus that admits no representation at arity r: one not
    prime, or not above r, so that some coefficient j - i is not invertible."""
    if not is_prime(n):
        raise CompositeModulus(f"modulus {n} must be prime")
    if n <= r:
        raise ModulusTooSmall(f"modulus {n} must exceed the arity {r}")


def represent(nu: Measure, r: int) -> WeightedHypergraph:
    """Norm-preserving weighted-hypergraph representation of a measure.

    Requires prime N > r so every coefficient j - i is invertible mod N.
    A difference row of the forms (``_map_rows``) that is not zero raises
    NumericalInconsistency, so no caller receives a broken map.
    """
    n = nu.n
    check_modulus(n, r)
    system = HypergraphSystem(r, (n,) * (r + 1))
    weights: dict[Edge, EdgeFn] = {}
    for j in range(r + 1):
        edge = system.edge_omitting(j)
        coeffs = tuple((j - i) % n for i in edge)
        weights[edge] = EdgeFn.formed(edge, nu.fn.values, Form(coeffs, n))
    w = WeightedHypergraph(system, weights)
    for j, row in enumerate(_map_rows(w)):
        if any(row):
            raise NumericalInconsistency(
                f"progression map: L_{j + 1} - L_{j} - (1, ..., 1) = {row} mod {n}, not zero"
            )
    return w


def represent_charged(nu: Measure, r: int, budget: float | None = None) -> WeightedHypergraph:
    """``represent(nu, r)``, once the (r+1)·N^r edge-weight values it
    allocates fit the budget; the route every caller with a budget takes."""
    what = f"representation (r={r}, n={nu.n})"
    check_budget((r + 1) * power_cost(nu.n, r), budget, what=what, power=r)
    return represent(nu, r)


def _forms(w: WeightedHypergraph) -> list[Form]:
    """The form of each weight, by omitted vertex; NotRepresentation when
    some weight carries none."""
    found = [w.weight_omitting(j).form for j in range(w.r + 1)]
    if None in found:
        raise NotRepresentation("hypergraph was not built by represent()")
    return found


def ap_values(w: WeightedHypergraph, x: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Evaluation points (y_0, ..., y_r) of the weights' linear forms at x
    and the coordinate sum d = sum_i x_i mod N.

    For a correct representation the points form a progression with common
    difference d; callers check that, so a broken map is reported as a
    failed check.  Only available when the weights carry forms.
    """
    forms = _forms(w)
    n = forms[0].modulus
    r = w.r
    if len(x) != r + 1:
        raise ShapeMismatch(f"need {r + 1} coordinates, got {len(x)}")
    ys = []
    for j, form in enumerate(forms):
        edge = w.system.edge_omitting(j)
        ys.append(sum(c * int(x[v]) for c, v in zip(form.coeffs, edge)) % n)
    return tuple(ys), sum(int(v) for v in x) % n


def _map_rows(w: WeightedHypergraph) -> list[tuple[int, ...]]:
    """The r rows L_{j+1} - L_j - (1, ..., 1) mod N, L_j the form of the
    weight omitting j over all r+1 vertices, 0 at vertex j: the evaluation
    points at x step by sum_i x_i exactly where every row vanishes."""
    forms = _forms(w)
    n, full = forms[0].modulus, [[0] * (w.r + 1) for _ in forms]
    for j, form in enumerate(forms):
        for c, v in zip(form.coeffs, w.system.edge_omitting(j)):
            full[j][v] = c
    return [tuple((b - a - 1) % n for a, b in zip(lo, hi)) for lo, hi in zip(full, full[1:])]


def map_failures(w: WeightedHypergraph) -> int:
    """How many points x of Z_N^(r+1) have evaluation points (those of
    ``ap_values``) that do not step by the coordinate sum: for a prime N,
    the N^(r+1) - N^(r+1-rank) points off the kernel of the difference
    rows.  Nothing is walked, so nothing is charged."""
    rows = _map_rows(w)
    n, r = w.weight_omitting(0).form.modulus, w.r
    if not is_prime(n):
        raise CompositeModulus(f"modulus {n} must be prime to count the map by rank")
    return n ** (r + 1) - n ** (r + 1 - len(pivots(rows, n)))


def relabel(w: WeightedHypergraph, perm: tuple[int, ...]) -> WeightedHypergraph:
    """Pull the hypergraph back along a vertex permutation.

    ``perm[i]`` is the old label of new vertex i.  A weight without a form
    is transposed along the axis map; a formed one is formed anew from its
    line with its form pulled back along that map, so each weight stays nu
    at its form and a permuted representation's evaluation points are a
    permuted progression.
    """
    r = w.r
    if sorted(perm) != list(range(r + 1)):
        raise ShapeMismatch(f"perm must permute 0..{r}, got {perm}")
    dims = tuple(w.system.dims[perm[i]] for i in range(r + 1))
    system = HypergraphSystem(r, dims)
    weights: dict[Edge, EdgeFn] = {}
    for j in range(r + 1):
        new_edge = system.edge_omitting(j)
        old = w.weight_omitting(perm[j])
        # Axis a of the new tensor is new vertex new_edge[a], which reads old
        # vertex perm[new_edge[a]]; find that vertex's axis in the old tensor.
        axes = tuple(old.edge.index(perm[v]) for v in new_edge)
        if old.form is None:
            vals = np.transpose(old.values, axes)
            weights[new_edge] = EdgeFn(new_edge, system.edge_dims(new_edge), vals)
        else:
            form = Form(tuple(old.form.coeffs[a] for a in axes), old.form.modulus)
            weights[new_edge] = EdgeFn.formed(new_edge, line(old.values, old.form), form)
    return WeightedHypergraph(system, weights)


def progression_count_check(w: WeightedHypergraph, budget: float | None = None) -> float:
    """E over all coordinates of the product of every edge weight.

    For a represented measure this equals the arithmetic-progression density
    of length r+1 exactly (the evaluation points sweep progressions uniformly).
    One ``linform.expect_product`` of the weights' factors, charged by its
    route: the quotient route for formed weights, the plan otherwise.
    """
    from .linform import expect_product, weight_factor  # linform imports this module

    what = f"progression count (r={w.r}, {math.prod(w.system.dims)} points)"
    return expect_product([weight_factor(w, e) for e in w.system.edges], budget, what=what)
