"""Complete r-uniform weighted hypergraphs on r+1 vertices and the
representation of a measure on Z_N as one.

Vertices are labeled 0..r; the edge set consists of the r+1 subsets that omit
exactly one vertex, written e_j for the edge omitting j.  ``represent`` turns
a measure nu on Z_N into edge weights

    nu_{e_j}(x) = nu(sum over i != j of (j - i) * x_i mod N),

which has two exact consequences for prime N > r: the r+1 evaluation points
y_j form an arithmetic progression with common difference sum_i x_i, and each
centered edge weight has box norm equal to the order-r uniformity norm of
nu - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .cyclic import Measure
from .errors import (
    CompositeModulus,
    ModulusTooSmall,
    NotRepresentation,
    ShapeMismatch,
    SupBelowOneWarning,
)
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

    ``forms`` and ``modulus`` carry the linear-form coefficients when the
    weights came from ``represent``; direct constructions leave them None and
    ``ap_values`` then refuses to answer.
    """

    system: HypergraphSystem
    weights: dict[Edge, EdgeFn]
    forms: tuple[tuple[int, ...], ...] | None = None
    modulus: int | None = None

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


def charge_representation(n: int, r: int, budget: float | None = None) -> None:
    """Charge the (r+1)·N^r edge-weight values ``represent`` allocates.

    A step of its own, taken before ``represent``, so that ``represent``
    keeps its two-argument signature.
    """
    what = f"representation (r={r}, n={n})"
    check_budget((r + 1) * float(n) ** r, budget, what=what, power=r)


def represent(nu: Measure, r: int) -> WeightedHypergraph:
    """Norm-preserving weighted-hypergraph representation of a measure.

    Requires prime N > r so every coefficient j - i is invertible mod N.
    """
    n = nu.n
    if not is_prime(n):
        raise CompositeModulus(f"modulus {n} must be prime")
    if n <= r:
        raise ModulusTooSmall(f"modulus {n} must exceed the arity {r}")
    system = HypergraphSystem(r, (n,) * (r + 1))
    weights: dict[Edge, EdgeFn] = {}
    forms = []
    for j in range(r + 1):
        edge = system.edge_omitting(j)
        coeffs = tuple((j - i) % n for i in edge)
        forms.append(coeffs)
        idx = sum(np.ix_(*[c * np.arange(n) for c in coeffs])) % n
        weights[edge] = EdgeFn(edge, (n,) * r, nu.fn.values[idx])
    return WeightedHypergraph(system, weights, forms=tuple(forms), modulus=n)


def ap_values(w: WeightedHypergraph, x: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Evaluation points (y_0, ..., y_r) of the stored linear forms at x and
    the coordinate sum d = sum_i x_i mod N.

    For a correct representation the points form a progression with common
    difference d; callers check that, so a broken map is reported as a
    failed check.  Only available when the hypergraph came from ``represent``.
    """
    if w.forms is None or w.modulus is None:
        raise NotRepresentation("hypergraph was not built by represent()")
    n = w.modulus
    r = w.r
    if len(x) != r + 1:
        raise ShapeMismatch(f"need {r + 1} coordinates, got {len(x)}")
    ys = []
    for j in range(r + 1):
        edge = w.system.edge_omitting(j)
        coeffs = w.forms[j]
        ys.append(sum(c * int(x[v]) for c, v in zip(coeffs, edge)) % n)
    return tuple(ys), sum(int(v) for v in x) % n


def relabel(w: WeightedHypergraph, perm: tuple[int, ...]) -> WeightedHypergraph:
    """Pull the hypergraph back along a vertex permutation.

    ``perm[i]`` is the old label of new vertex i.  Linear-form metadata is
    dropped: a permuted representation no longer lists its evaluation points
    in progression order.
    """
    r = w.r
    if sorted(perm) != list(range(r + 1)):
        raise ShapeMismatch(f"perm must permute 0..{r}, got {perm}")
    dims = tuple(w.system.dims[perm[i]] for i in range(r + 1))
    system = HypergraphSystem(r, dims)
    weights: dict[Edge, EdgeFn] = {}
    for j in range(r + 1):
        new_edge = system.edge_omitting(j)
        old_fn = w.weight_omitting(perm[j])
        old_edge = old_fn.edge
        # Axis a of the new tensor is new vertex new_edge[a], which reads old
        # vertex perm[new_edge[a]]; find that vertex's axis in the old tensor.
        axes = tuple(old_edge.index(perm[v]) for v in new_edge)
        vals = np.transpose(old_fn.values, axes)
        weights[new_edge] = EdgeFn(new_edge, system.edge_dims(new_edge), vals)
    return WeightedHypergraph(system, weights)


def progression_count_check(w: WeightedHypergraph) -> float:
    """E over all coordinates of the product of every edge weight.

    For a represented measure this equals the arithmetic-progression density
    of length r+1 exactly (the evaluation points sweep progressions uniformly).
    """
    r = w.r
    letters = "abcdefghijklmnopqrstuvwxyz"[: r + 1]
    subs = []
    operands = []
    for j in range(r + 1):
        fn = w.weight_omitting(j)
        subs.append("".join(letters[v] for v in fn.edge))
        operands.append(fn.values)
    total = float(np.einsum(",".join(subs) + "->", *operands, optimize=False))
    npoints = float(math.prod(w.system.dims))
    return total / npoints
