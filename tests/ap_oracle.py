"""The float walks ``ap_density`` took before it counted progressions in
integers, kept as the test oracle of its count kernels.

Both walks form the products f_0(a) * f_1(a+d) * ... * f_(k-1)(a+(k-1)d),
each in that order, so both form the same products bit for bit, for any
tuple of functions, signed or of any number of values.  The difference walk
reads each f_j through a strided view, one block of differences at a time;
the pair walk forms only the products whose first two terms lie in the
supports S0 of f_0 and S1 of f_1, since every other product is zero.
``walk`` picks one of them by the rule ``ap_density`` used.
"""

from __future__ import annotations

import math

import numpy as np

from gowers import CyclicFn
from gowers.gowersnorm import _CHUNK_ELEMS


def walk(fs: list[CyclicFn]) -> tuple[float, int, int, bool]:
    """Sum, trivial and nontrivial nonzero counts of the products of ``fs``,
    and whether the pair walk formed them.

    The pair walk reads its terms by gathers, each costlier than a strided
    read of the difference walk, so it is taken when 3*|S0|*|S1| is at most
    the walk*N products the difference walk would form (walk = N//2 + 1 for
    a palindrome by value, f_j = f_(k-1-j), and N otherwise).  The factor 3
    is the measured cost of a pair-walk product over a difference-walk one:
    2.6 to 3.6 for indicator measures at N = 1009 and 4093, k = 4 and 5.
    """
    values = [f.values for f in fs]
    n = fs[0].n
    supports = [np.flatnonzero(v) for v in values[:2]]
    palindrome = all(np.array_equal(f, g) for f, g in zip(values, values[::-1]))
    rows = n // 2 + 1 if palindrome else n
    pair_walk = len(fs) >= 2 and 3 * math.prod([s.size for s in supports]) <= rows * n
    if pair_walk:
        return (*_pair_walk(values, *supports), True)
    return (*_difference_walk(values, rows), False)


def _shifts(values: np.ndarray, j: int) -> np.ndarray:
    """Read-only (N, N) view whose entry [d, a] is values[(a + j*d) mod N]:
    values tiled j+1 times, read with strides (j, 1) elements, so no shifted
    copy is formed."""
    n = values.size
    tiled = np.tile(values, j + 1)
    step = tiled.strides[0]
    view = np.ndarray((n, n), tiled.dtype, tiled, 0, (j * step, step))
    view.flags.writeable = False
    return view


def _difference_walk(values: list[np.ndarray], walk: int) -> tuple[float, int, int]:
    """Sum, trivial and nontrivial nonzero counts of the products over
    differences d = 0..walk-1, every start at each.

    Each f_j (j >= 1) is read through the strided view ``_shifts(f_j, j)``,
    whose entry [d, a] is f_j((a + j*d) mod N).  Differences are walked in
    blocks of at most ``_CHUNK_ELEMS`` elements (or one row), each formed in
    one preallocated buffer and summed per row.  The per-difference sums are
    merged with exact compensated summation in ascending difference order,
    so no N x N array is formed.  A half walk (walk < N, a palindrome) counts
    each 0 < d < N/2 twice in the sum and in the nonzero count; doubling is
    exact.
    """
    n = values[0].size
    views = [_shifts(v, j) for j, v in enumerate(values[1:], start=1)]
    rows = max(1, _CHUNK_ELEMS // n)
    buf = np.empty((min(rows, walk), n))
    sum_blocks = []
    count_blocks = []
    for start in range(0, walk, rows):
        stop = min(start + rows, walk)
        prod = buf[: stop - start]
        np.multiply(values[0], views[0][start:stop] if views else 1.0, out=prod)
        for view in views[1:]:
            prod *= view[start:stop]
        sum_blocks.append(np.sum(prod, axis=1))
        count_blocks.append(np.count_nonzero(prod, axis=1))
    sums = np.concatenate(sum_blocks)
    counts = np.concatenate(count_blocks)
    if walk < n:
        sums[1 : (n + 1) // 2] *= 2.0
        counts[1 : (n + 1) // 2] *= 2
    return math.fsum(sums.tolist()), int(counts[0]), int(np.sum(counts[1:]))


def _pair_walk(
    values: list[np.ndarray], s0: np.ndarray, s1: np.ndarray
) -> tuple[float, int, int]:
    """Sum, trivial and nontrivial nonzero counts of the products over the
    start pairs a in s0, b in s1 (k >= 2): the progression with first terms
    a and b has difference b - a and term j at j*b - (j-1)*a mod N.

    Starts a are walked in blocks of at most ``_CHUNK_ELEMS`` products (or
    one row); the term indices and the terms read by ``np.take`` fill
    buffers allocated once, so no N x N array is formed.  Each row is summed
    on its own and the row sums are merged with exact compensated summation.
    The d = 0 progressions are the pairs a = b, whose products are the
    pointwise product f_0 * f_1 * ... * f_(k-1), formed in the same order.
    """
    head = values[1][s1]
    rows = max(1, _CHUNK_ELEMS // max(1, s1.size))
    prod_buf = np.empty((min(rows, s0.size), s1.size))
    term_buf = np.empty_like(prod_buf)
    index_buf = np.empty(prod_buf.shape, np.intp)
    row_sums: list[float] = []
    nonzero = 0
    for start in range(0, s0.size, rows):
        a = s0[start : start + rows, None]
        prod = prod_buf[: a.size]
        term = term_buf[: a.size]
        index = index_buf[: a.size]
        np.multiply(values[0][a], head, out=prod)
        for j, f in enumerate(values[2:], start=2):
            np.subtract(j * s1, (j - 1) * a, out=index)
            np.take(f, index, out=term, mode="wrap")
            prod *= term
        row_sums.extend(np.sum(prod, axis=1).tolist())
        nonzero += int(np.count_nonzero(prod))
    diagonal = values[0] * values[1]
    for f in values[2:]:
        diagonal *= f
    trivial = int(np.count_nonzero(diagonal))
    return math.fsum(row_sums), trivial, nonzero - trivial
