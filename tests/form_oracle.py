"""The level-set comparison of a formed array with its form, kept as the test
oracle of ``EdgeFn.formed``, the dense progression count, kept as the test
oracle of ``hypersystem.progression_count_check``, and hypergraphs stripped
of their forms or formed by other ones.

``expected`` and ``paired`` share no code with ``forms``: they evaluate
L·x mod N at every point from ``np.indices``, and ``paired`` reads h, for
each value y of L·x, at the first point where L·x = y.
"""

from __future__ import annotations

import math

import numpy as np

from gowers import EdgeFn, NumericalInconsistency, ShapeMismatch, WeightedHypergraph
from gowers.forms import Form


def _levels(form: Form) -> np.ndarray:
    """L·x mod N at every point x of the form's k axes of size N."""
    n = form.modulus
    levels = np.zeros((n,) * len(form.coeffs), dtype=np.int64)
    for c, x in zip(form.coeffs, np.indices(levels.shape)):
        levels = (levels + c * x) % n
    return levels


def expected(h: np.ndarray, form: Form) -> np.ndarray:
    """h(L·x mod N) at every point x, read from one N^k index."""
    return np.asarray(h)[_levels(form)]


def paired(values: np.ndarray, form: Form) -> np.ndarray:
    """``values``, once checked equal to h(L·x mod N) at every x, for L the
    form and h read off the values themselves; an array that is not
    constant on the level sets of L raises NumericalInconsistency."""
    n = form.modulus
    if values.shape != (n,) * len(form.coeffs):
        raise ShapeMismatch(f"form {form} does not fit values of shape {values.shape}")
    levels = _levels(form)
    ys, first = np.unique(levels, return_index=True)
    h = np.zeros(n)
    h[ys] = values.ravel()[first]
    if not np.array_equal(values, h[levels]):
        raise NumericalInconsistency(
            f"values are not constant on the level sets of their form {form.coeffs} mod {n}"
        )
    return values


def progression_count(w: WeightedHypergraph) -> float:
    """E over all coordinates of the product of every edge weight, by one
    einsum over the dense weights: r+1 products at each of the N^(r+1)
    points, with no form read."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    weights = [w.weight_omitting(j) for j in range(w.r + 1)]
    subs = ",".join("".join(letters[v] for v in g.edge) for g in weights)
    total = np.einsum(subs + "->", *[g.values for g in weights], optimize=False)
    return float(total) / math.prod(w.system.dims)


def unformed(w: WeightedHypergraph) -> WeightedHypergraph:
    """w with the same values and no forms, as a hand-built hypergraph."""
    return WeightedHypergraph(
        w.system, {edge: EdgeFn(g.edge, g.dims, g.values) for edge, g in w.weights.items()}
    )


def formed_by(w: WeightedHypergraph, h: np.ndarray, coeffs) -> WeightedHypergraph:
    """A hypergraph on w's system whose weight omitting j is h formed by the
    coefficients ``coeffs[j]`` mod len(h)."""
    n = len(h)
    return WeightedHypergraph(
        w.system,
        {e: EdgeFn.formed(e, h, Form(tuple(c), n)) for e, c in zip(w.system.edges, coeffs)},
    )
