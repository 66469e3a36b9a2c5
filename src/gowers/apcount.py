"""Arithmetic-progression densities on Z_N and the pseudorandomness
experiments built on them.

The density of length-k progressions weighted by functions f_0, ..., f_(k-1)
is E over start a and difference d (d = 0 included) of the product
f_j(a + j*d).  The trivial (d = 0) and nontrivial tuples with nonzero weight
are counted separately; for indicator inputs those are plain progression
counts.  A dense tuple is walked one difference at a time; a sparse one,
such as the measure of a set of density 0.2, is walked over the start pairs
(a, a + d) drawn from the supports of f_0 and f_1, since every other product
is zero.

For a represented measure the product of all edge weights over the hypergraph
coordinates sweeps progressions uniformly, which turns the progression
density into a telescoping sum of single-copy centered expectations, one per
edge; ``telescoping_check`` verifies that identity exactly and can attach the
chain bound for each term.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .budget import check_budget
from .cyclic import CyclicFn, Measure
from .errors import ShapeMismatch
from .gowersnorm import _CHUNK_ELEMS, EdgeFn, u_norm_fast
from .hypersystem import WeightedHypergraph, is_prime, relabel, represent_charged
from .linform import Cap, SlfInstance, q_value, single_chain_verify
from .report import TOL, VerificationReport, eq_check


@dataclass(frozen=True)
class ApReport:
    """Progression-density summary for one tuple of weight functions."""

    n: int
    k: int
    density: float
    prediction: float
    ratio: float
    trivial_count: int
    nontrivial_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


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


def ap_density(fs: list[CyclicFn], budget: float | None = None) -> ApReport:
    """Weighted density of length-k progressions, differences 0..N-1.

    Two walks form the products f_0(a) * f_1(a+d) * ... * f_(k-1)(a+(k-1)d),
    each in that order, so both form the same products bit for bit.  The
    pair walk forms only those whose first two terms lie in the supports S0
    of f_0 and S1 of f_1; every other product is zero.  It reads its terms
    by gathers, each costlier than a strided read of the difference walk, so
    it is taken when 4*|S0|*|S1| is at most the walk*N products the
    difference walk would form (walk = N//2 + 1 for a palindrome, N
    otherwise).  The factor 4 is a constant bounding that cost.  The walk
    taken is charged k products per term it forms: walk*N terms, or
    |S0|*|S1| + N for the pair walk and its d = 0 diagonal.

    When the tuple is a palindrome by value (f_j = f_(k-1-j)), reflecting a
    progression, (a, d) -> (a + (k-1)*d, -d), maps the progressions of
    difference N - d one to one onto those of difference d with the tuple
    reversed, which is the same tuple: both rows hold the same products.
    Then the difference walk forms only d = 0..N//2 (``_difference_walk``).
    """
    if not fs:
        raise ShapeMismatch("need at least one weight function")
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ShapeMismatch("all weight functions must share the modulus")
    k = len(fs)
    values = [f.values for f in fs]
    palindrome = all(np.array_equal(f, g) for f, g in zip(values, values[::-1]))
    walk = n // 2 + 1 if palindrome else n
    supports = [np.flatnonzero(v) for v in values[:2]]
    pairs = math.prod([s.size for s in supports])
    pair_walk = k >= 2 and 4 * pairs <= walk * n
    terms = pairs + n if pair_walk else walk * n
    check_budget(
        float(terms) * k, budget, what=f"progression density (k={k}, n={n})", power=2
    )
    if pair_walk:
        total, trivial, nontrivial = _pair_walk(values, *supports)
    else:
        total, trivial, nontrivial = _difference_walk(values, walk)
    density = total / float(n) ** 2
    prediction = math.prod(f.mean() for f in fs)
    ratio = density / prediction if prediction != 0 else float("nan")
    return ApReport(n, k, density, prediction, ratio, trivial, nontrivial)


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


@dataclass(frozen=True)
class HypothesisRatio:
    """Measured uniformity-norm ratios against the two candidate density
    powers; reported, never asserted."""

    n: int
    r: int
    p: float
    norm: float
    over_p_r: float
    over_p_half_r: float


def hypothesis_ratio(nu: Measure, r: int, budget: float | None = None) -> HypothesisRatio:
    """Order-r uniformity norm of nu - 1 compared with p^r and p^(r/2)."""
    norm = u_norm_fast(nu.centered(), r, budget)
    return HypothesisRatio(
        nu.n, r, nu.p, norm, norm / nu.p**r, norm / nu.p ** (r / 2.0)
    )


def _transposition(r: int, m: int) -> tuple[int, ...]:
    perm = list(range(r + 1))
    perm[0], perm[m] = perm[m], perm[0]
    return tuple(perm)


def telescoping_check(
    w: WeightedHypergraph, density: float, budget: float | None = None, with_chains: bool = False
) -> VerificationReport:
    """Verify that ``density``, the progression density of the measure that
    w represents (``ap_density`` of r + 1 copies), minus one equals the sum
    of the single-copy centered terms of w.

    Term m centers the edge omitting vertex m, keeps the weights of edges
    omitting 0..m-1 and replaces the rest by one; each term is the empty-set
    chain quantity ``q_value(inst, ())`` of a single-copy instance, after
    relabeling vertex m to the distinguished slot.
    With ``with_chains`` the composed chain bound of each term is attached as
    a measured ratio.
    """
    r = w.r
    report = VerificationReport(name="progression-telescoping")
    terms = []
    for m in range(r + 1):
        wm = relabel(w, _transposition(r, m))
        caps: dict[tuple[tuple[int, ...], int], Cap] = {}
        gs = {}
        for j in range(1, r + 1):
            edge = wm.system.edge_omitting(j)
            old = 0 if j == m else j
            if old < m:
                caps[(edge, 0)] = Cap.NU
                gs[(edge, 0)] = wm.weights[edge]
            else:
                caps[(edge, 0)] = Cap.ONE
                gs[(edge, 0)] = EdgeFn.ones(edge, wm.system.edge_dims(edge))
        inst = SlfInstance(wm, caps, gs)
        term = q_value(inst, (), budget)
        terms.append(term)
        report.ratios[f"term-{m}"] = term
        if with_chains:
            chain = single_chain_verify(inst, budget)
            report.ratios[f"term-{m}-chain-bound"] = chain.ratios["composed-bound"]
            for c in chain.checks:
                if not c.passed:
                    report.add(c)
    total = math.fsum(terms)
    report.add(eq_check("telescoping-count-identity", density - 1.0, total, TOL))
    report.ratios["density"] = density
    return report


def relsz_experiment(
    nu: Measure, r: int, with_chains: bool = False, budget: float | None = None
) -> tuple[ApReport, VerificationReport]:
    """Measure how far nu is from density one on length-(r+1) progressions,
    alongside its uniformity-norm ratios and, for prime moduli, the exact
    telescoping decomposition with optional per-term chain bounds."""
    ap = ap_density([nu.fn] * (r + 1), budget)
    ratios = hypothesis_ratio(nu, r, budget)
    if is_prime(nu.n) and nu.n > r:
        w = represent_charged(nu, r, budget)
        report = telescoping_check(w, ap.density, budget, with_chains)
    else:
        report = VerificationReport(name="progression-telescoping")
        report.notes.append("modulus not prime above the arity; telescoping skipped")
    report.ratios["norm"] = ratios.norm
    report.ratios["norm-over-p-r"] = ratios.over_p_r
    report.ratios["norm-over-p-half-r"] = ratios.over_p_half_r
    report.ratios["density-minus-one"] = ap.density - 1.0
    return ap, report
