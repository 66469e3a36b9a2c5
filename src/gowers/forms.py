"""Linear forms mod a prime and the arithmetic of the quotient route.

A form L = (c_1, ..., c_k) mod N indexes an array with k axes of size N: a
formed array has values h(L·x mod N) for some h on Z_N.  ``formed`` builds
one block by block, for ``gowersnorm.EdgeFn.formed``, which binds the array
to its form, so that no weight is ever paired with a form after it is
built; ``line`` reads h back.  ``pivots`` picks a basis of the variables
of a system of forms, and ``independent_columns`` certifies that basis by an
elimination that shares no code with ``pivots``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .gowersnorm import _CHUNK_ELEMS


class Form(NamedTuple):
    """A linear form mod ``modulus``: one coefficient per axis of the array
    whose values it indexes."""

    coeffs: tuple[int, ...]
    modulus: int


@functools.lru_cache(maxsize=256)
def _levels(form: Form) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """For a form L over k axes of size N: the index of ``line``, and the
    term of each axis in L·x mod N, over that axis, shaped to broadcast
    with the others (``np.ix_``).  Each holds N values, so the cache keeps
    no array the size of a block."""
    n = form.modulus
    k = len(form.coeffs)
    axis = next((a for a, c in enumerate(form.coeffs) if c % n), None)
    index: list = [0] * k
    if axis is None:
        index[0] = np.zeros(n, dtype=np.intp)
    else:
        index[axis] = np.arange(n) * pow(form.coeffs[axis], -1, n) % n
    return tuple(index), np.ix_(*[(c % n) * np.arange(n) for c in form.coeffs])


def line(values: np.ndarray, form: Form) -> np.ndarray:
    """The h of a formed array, values[x] = h(L·x mod N): the array read
    along the axis of L's first nonzero coefficient, every other axis at 0
    (N copies of the first value for the zero form)."""
    return values[_levels(form)[0]]


def formed(h: np.ndarray, form: Form) -> np.ndarray:
    """The array h(L·x mod N) over the axes of L, written block by block
    along the first axis, at most _CHUNK_ELEMS values or one row each, so
    that no N^k index, and no second N^k array, is ever formed."""
    n = form.modulus
    _, (first, *others) = _levels(form)
    rest = sum(others, np.zeros((1,) * len(form.coeffs), dtype=np.int64))
    rows = max(1, _CHUNK_ELEMS // rest.size)
    out = np.empty((n,) * len(form.coeffs), dtype=h.dtype)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        out[block] = h[(first[block] + rest) % n]
    return out


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
