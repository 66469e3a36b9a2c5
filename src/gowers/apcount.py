"""Arithmetic-progression densities on Z_N and the pseudorandomness
experiments built on them.

The density of length-k progressions weighted by functions f_0, ..., f_(k-1)
is E over start a and difference d (d = 0 included) of the product
f_j(a + j*d).  The trivial (d = 0) and nontrivial tuples with nonzero weight
are counted separately; for indicator inputs those are plain progression
counts.

Three-term progressions of functions that each take one nonzero value,
f_j = c_j * 1_{S_j} (every measure the program builds is c * 1_S), are
counted rather than walked: the density is c_0 c_1 c_2 times the number of
progressions in S_0 x S_1 x S_2, over N^2.  That number is the sum over
b in S_1 of the cyclic convolution 1_{S_0} * 1_{S_2} at 2b, the Fourier sum
of Roth's argument, and one real FFT gives it exactly once rounded to
integers.  Any other tuple is walked: a dense one one difference at a time,
a sparse one over the start pairs (a, a + d) drawn from the supports of f_0
and f_1, since every other product is zero.

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
from .errors import NumericalInconsistency, ShapeMismatch
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

    Three routes, chosen from the tuple alone.  At k = 3, when each f_j
    takes one nonzero value c_j on its support S_j and p = (c_0 * c_1) * c_2
    is finite and nonzero (every measure the program builds, the constant
    measure and every indicator), the count route (``_count_route``) counts
    the progressions with all three terms in the supports by one FFT
    convolution.  Each product the walks would form is then exactly p on
    such a progression and exactly 0 elsewhere, so the counts equal the
    walks' counts and float(count) * p, with count exact, is the sum of
    the products the walks form, correctly rounded; the density is that
    sum over N^2.  The route is charged 4N log2(4N) products per real
    transform, with power 1, before any transform runs: two forward ones
    (one when S2 = S0) and one inverse.  The padded length is below 4N;
    charging 4N rather than that length keeps the charge monotone and
    continuous in N, so the modulus a refusal suggests, scaled as N^1, is
    never itself refused.

    Every other tuple is walked, and the two walks form the products
    f_0(a) * f_1(a+d) * ... * f_(k-1)(a+(k-1)d), each in that order, so both
    form the same products bit for bit.  The pair walk forms only those
    whose first two terms lie in the supports S0 of f_0 and S1 of f_1; every
    other product is zero.  It reads its terms by gathers, each costlier
    than a strided read of the difference walk, so it is taken when
    3*|S0|*|S1| is at most the walk*N products the difference walk would
    form (walk = N//2 + 1 for a palindrome, N otherwise).  The factor 3 is
    the measured cost of a pair-walk product over a difference-walk one:
    2.6 to 3.6 for indicator measures at N = 1009 and 4093, k = 4 and 5.
    The walk taken is charged k products per term it forms, with power 2:
    walk*N terms, or |S0|*|S1| + N for the pair walk and its d = 0
    diagonal.

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
    what = f"progression density (k={k}, n={n})"
    supports = [np.flatnonzero(v) for v in values[:3]]
    p = _level_product(values, supports) if k == 3 else 0.0
    if p != 0.0 and math.isfinite(p):
        squared = np.array_equal(supports[0], supports[2])
        transforms = 2 if squared else 3
        check_budget(transforms * 4.0 * n * math.log2(4.0 * n), budget, what=what, power=1)
        total, trivial, nontrivial = _count_route(n, supports, p, squared)
    else:
        palindrome = all(np.array_equal(f, g) for f, g in zip(values, values[::-1]))
        walk = n // 2 + 1 if palindrome else n
        pairs = math.prod([s.size for s in supports[:2]])
        pair_walk = k >= 2 and 3 * pairs <= walk * n
        terms = pairs + n if pair_walk else walk * n
        check_budget(float(terms) * k, budget, what=what, power=2)
        if pair_walk:
            total, trivial, nontrivial = _pair_walk(values, *supports[:2])
        else:
            total, trivial, nontrivial = _difference_walk(values, walk)
    density = total / float(n) ** 2
    distinct = {id(f): f for f in fs}
    means = {key: f.mean() for key, f in distinct.items()}
    prediction = math.prod(means[id(f)] for f in fs)
    ratio = density / prediction if prediction != 0 else float("nan")
    return ApReport(n, k, density, prediction, ratio, trivial, nontrivial)


def _level_product(values: list[np.ndarray], supports: list[np.ndarray]) -> float:
    """(c_0 * c_1) * ... multiplied in the walks' order, c_j the one nonzero
    value f_j takes on its support; 0.0 when some f_j takes none or two."""
    p = 1.0
    for v, s in zip(values, supports):
        if not s.size or not np.all(v[s] == v[s[0]]):
            return 0.0
        p *= v[s[0]]
    return float(p)


def _count_route(
    n: int, supports: list[np.ndarray], p: float, squared: bool
) -> tuple[float, int, int]:
    """Sum, trivial and nontrivial counts of the products of a k = 3 tuple
    f_j = c_j * 1_{S_j} with p = (c_0 * c_1) * c_2 finite and nonzero, and
    ``squared`` when S2 = S0.

    A progression (a, b, c) has a + c = 2b mod N, so the number with every
    term in its support is the sum over b in S1 of g(2b mod N), where
    g = 1_{S0} * 1_{S2} is the cyclic convolution: g(x) counts the pairs
    (a, c) in S0 x S2 with a + c = x mod N.  g is the linear convolution
    of the two indicators, of length 2N - 1, folded back mod N; it comes
    from one zero-padded power-of-two ``rfft``/``irfft`` pair, with one
    forward transform when S2 = S0, and is rounded to integers.  An entry
    more than 0.25 from an integer, or a count of 2^53 or more (no longer
    exact as a float), raises NumericalInconsistency, so a wrong count never
    passes silently.  The d = 0 progressions are the points of
    S0 & S1 & S2.
    """
    s0, s1, s2 = supports
    size = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2N - 1
    ind0 = np.zeros(n)
    ind0[s0] = 1.0
    spectrum = np.fft.rfft(ind0, size)
    if squared:
        ind2 = ind0
        spectrum *= spectrum
    else:
        ind2 = np.zeros(n)
        ind2[s2] = 1.0
        spectrum *= np.fft.rfft(ind2, size)
    linear = np.fft.irfft(spectrum, size)
    g = linear[:n]
    g[: n - 1] += linear[n : 2 * n - 1]
    rounded = np.rint(g)
    off = float(np.max(np.abs(g - rounded)))
    if not off <= 0.25:
        raise NumericalInconsistency(
            f"progression count convolution is {off:.3g} off an integer (n={n})"
        )
    count = int(np.sum(rounded[2 * s1 % n].astype(np.int64)))
    if count >= 2**53:
        raise NumericalInconsistency(f"progression count {count} is not exact as a float")
    trivial = int(np.count_nonzero(ind0[s1] * ind2[s1]))
    return float(count) * p, trivial, count - trivial


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
