"""Linear forms mod a prime and the arithmetic of the quotient route.

A form L = (c_1, ..., c_k) mod N indexes an array with k axes of size N: a
formed array has values h(L·x mod N) for some h on Z_N.  ``paired`` checks
that an array is one, ``line`` reads h back, ``pivots`` picks a basis of the
variables of a system of forms, and ``independent_columns`` certifies that
basis by an elimination that shares no code with ``pivots``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericalInconsistency, ShapeMismatch
from .gowersnorm import _CHUNK_ELEMS


class Form(NamedTuple):
    """A linear form mod ``modulus``: one coefficient per axis of the array
    whose values it indexes."""

    coeffs: tuple[int, ...]
    modulus: int


@functools.lru_cache(maxsize=256)
def _levels(form: Form) -> tuple[tuple, np.ndarray, np.ndarray]:
    """For a form L over k axes of size N: the index of ``line``; the term
    of the first axis in L·x mod N, over that axis; and the sum of the other
    terms, over the other axes, shaped to broadcast with it."""
    n = form.modulus
    k = len(form.coeffs)
    axis = next((a for a, c in enumerate(form.coeffs) if c % n), None)
    index: list = [0] * k
    if axis is None:
        index[0] = np.zeros(n, dtype=np.intp)
    else:
        index[axis] = np.arange(n) * pow(form.coeffs[axis], -1, n) % n
    terms = []
    for a, c in enumerate(form.coeffs):
        shape = [1] * k
        shape[a] = n
        terms.append((c % n) * np.arange(n).reshape(shape))
    rest = functools.reduce(np.add, terms[1:], np.zeros((1,) + (n,) * (k - 1), dtype=np.int64))
    return tuple(index), terms[0], rest


def line(values: np.ndarray, form: Form) -> np.ndarray:
    """The h of a formed array, values[x] = h(L·x mod N): the array read
    along the axis of L's first nonzero coefficient, every other axis at 0
    (N copies of the first value for the zero form)."""
    return values[_levels(form)[0]]


def paired(values: np.ndarray, form: Form) -> np.ndarray:
    """``values``, once checked equal to h(L·x) at every x, for L the form
    and h its ``line``.  An array is checked where a caller pairs it with
    its form (a hypergraph's weights once, in ``WeightedHypergraph.paired``);
    one computed from it value by value, such as the centered weight, is
    formed with the same form unchecked.  L·x is formed for
    blocks of the first axis, at most _CHUNK_ELEMS values or one row each.
    An array that fails raises NumericalInconsistency."""
    n = form.modulus
    if values.shape != (n,) * len(form.coeffs):
        raise ShapeMismatch(f"form {form} does not fit values of shape {values.shape}")
    _, first, rest = _levels(form)
    h = line(values, form)
    rows = max(1, _CHUNK_ELEMS // rest.size)
    for start in range(0, n, rows):
        levels = (first[start : start + rows] + rest) % n
        if not np.array_equal(values[start : start + rows], h[levels]):
            raise NumericalInconsistency(
                f"values are not constant on the level sets of their form {form.coeffs} mod {n}"
            )
    return values


def pivots(rows: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Pivot columns of integer rows mod a prime n.  Each row is reduced by
    the rows kept before it, in order, and kept, scaled to one at its first
    nonzero column, its pivot, when anything is left of it."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        for col, kept in basis.items():
            if row[col]:
                f = row[col]
                row = [(x - f * y) % n for x, y in zip(row, kept)]
        col = next((k for k, x in enumerate(row) if x), None)
        if col is not None:
            inv = pow(row[col], -1, n)
            basis[col] = [x * inv % n for x in row]
    return tuple(sorted(basis))


def independent_columns(rows: list[list[int]], n: int) -> tuple[int, ...]:
    """The columns in which elimination mod a prime n, column by column with
    row swaps, finds a pivot: with the columns of P first, they are the first
    |P| exactly when rank(M_P) = |P| = rank(M).  It certifies ``pivots``
    and shares no code with it."""
    m = [list(row) for row in rows]
    found = []
    for col in range(len(m[0])):
        rank = len(found)
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        top = m[rank]
        scale = pow(top[col], -1, n)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * scale
                m[i] = [(a - f * b) % n for a, b in zip(m[i], top)]
        found.append(col)
    return tuple(found)
