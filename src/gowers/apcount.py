"""Arithmetic-progression densities on Z_N and the pseudorandomness
experiments built on them.

The density of length-k progressions of a measure f is E over start a and
difference d (d = 0 included) of the product f(a + j*d) over j < k.  The
trivial (d = 0) and nontrivial progressions with nonzero weight are counted
separately; for an indicator those are plain progression counts.

Every measure the program builds is c * 1_S, so the density is c^k times
the number of progressions inside S, over N^2, and that number is counted
in integers.  Three-term progressions are counted by the Fourier sum of
Roth's argument, one real FFT convolution; any other length by population
counts of bit-packed indicators (Gowers, GAFA 2001, for the counts; Warren,
Hacker's Delight, 2nd ed., ch. 5, for the population count).

For a represented measure the product of all edge weights over the hypergraph
coordinates sweeps progressions uniformly, which turns the progression
density into a telescoping sum of single-copy centered expectations, one per
edge; ``telescoping_check`` verifies that identity exactly and can attach the
chain bound for each term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .cyclic import CyclicFn, Measure
from .errors import NumericalInconsistency, ShapeMismatch
from .gowersnorm import _CHUNK_ELEMS, u_norm_fast
from .hypersystem import WeightedHypergraph, is_prime, represent_charged
from .linform import Cap, capped_chain_verify, expect_product, weight_factor
from .report import TOL, VerificationReport, eq_check


@dataclass(frozen=True)
class ApReport:
    """Progression-density summary of one measure."""

    n: int
    k: int
    density: float
    prediction: float
    ratio: float
    trivial_count: int
    nontrivial_count: int


def ap_density(f: CyclicFn, k: int, budget: float | None = None) -> ApReport:
    """Weighted density of length-k progressions, differences 0..N-1, of
    one function f = c * 1_S that takes one nonzero value c: E over start a
    and difference d of f(a) * f(a+d) * ... * f(a+(k-1)d).

    Each product, multiplied in that order, is exactly p = (c * c) * ... * c
    on a progression inside S and exactly 0 elsewhere.  So a kernel counts
    those progressions exactly in integers, and float(count) * p is the sum
    of the products, correctly rounded; the density is that sum over N^2.
    The d = 0 progressions are the points of S.  An empty S gives density
    0.0 and counts of 0.  A k below one, an f with two nonzero values, or a
    p that is 0 or not finite as a float raises ShapeMismatch.

    At k = 3 the count is one FFT convolution (``_count_route``), charged
    4N log2(4N) products per real transform, with power 1: one forward
    transform, squared, and one inverse.  The padded length is below 4N;
    charging 4N keeps the charge monotone and continuous in N, so the
    modulus a refusal suggests, scaled as N^1, is never itself refused.  At
    every other k the count is taken from bit-packed indicators
    (``_bit_count``).  Reflecting a progression, (a, d) -> (a + (k-1)*d, -d),
    maps those of difference N - d one to one onto those of difference d,
    so the kernel walks only d = 0..N//2 and counts each 0 < d < N/2 twice;
    it is charged k word operations per difference walked and word of a
    row, k * (N//2 + 1) * ceil(N/64), with power 2.  Either charge is taken
    before any transform or table is built.
    """
    if k < 1:
        raise ShapeMismatch(f"need k >= 1 terms, got {k}")
    n = f.n
    support = np.flatnonzero(f.values)
    if np.any(f.values[support] != f.values[support[:1]]):
        raise ShapeMismatch(
            "the weight function takes more than one nonzero value; "
            "progression densities are counted for functions c * 1_S"
        )
    p = 0.0 if not support.size else 1.0
    for j in range(k if support.size else 0):
        p *= float(f.values[support[0]])
        if p == 0.0 or not math.isfinite(p):
            raise ShapeMismatch(
                f"the product of the nonzero values is {p!r} as a float at term {j}"
            )
    what = f"progression density (k={k}, n={n})"
    if not support.size:
        count = 0
    elif k == 3:
        check_budget(2 * 4.0 * n * math.log2(4.0 * n), budget, what=what, power=1)
        count = _count_route(n, support)
    else:
        check_budget(float(k) * (n // 2 + 1) * -(-n // 64), budget, what=what, power=2)
        count = _bit_count(n, support, k)
    if count >= 2**53:
        raise NumericalInconsistency(f"progression count {count} is not exact as a float")
    density = float(count) * p / float(n) ** 2
    prediction = math.prod([f.mean()] * k)
    ratio = density / prediction if prediction != 0 else float("nan")
    return ApReport(n, k, density, prediction, ratio, support.size, count - support.size)


def _count_route(n: int, support: np.ndarray) -> int:
    """Number of progressions (a, b, c) with every term in the support S.

    A progression has a + c = 2b mod N, so the number is the sum over b in
    S of g(2b mod N), where g = 1_S * 1_S is the cyclic convolution: g(x)
    counts the pairs (a, c) in S x S with a + c = x mod N.  g is the linear
    convolution of the indicator with itself, of length 2N - 1, folded back
    mod N; it comes from one zero-padded power-of-two ``rfft``, squared, and
    its ``irfft``, and is rounded to integers.  An entry more than 0.25 from
    an integer raises NumericalInconsistency, so a wrong count never passes
    silently.
    """
    size = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2N - 1
    indicator = np.zeros(n)
    indicator[support] = 1.0
    spectrum = np.fft.rfft(indicator, size)
    spectrum *= spectrum
    linear = np.fft.irfft(spectrum, size)
    g = linear[:n]
    g[: n - 1] += linear[n : 2 * n - 1]
    rounded = np.rint(g)
    off = float(np.max(np.abs(g - rounded)))
    if not off <= 0.25:
        raise NumericalInconsistency(
            f"progression count convolution is {off:.3g} off an integer (n={n})"
        )
    return int(np.sum(rounded[2 * support % n].astype(np.int64)))


def _bit_table(n: int, support: np.ndarray, words: int) -> np.ndarray:
    """Flat table of 64 bit-offset copies of 1_S, 2W+1 uint64 words each
    (W = ``words``): bit i of copy r is 1_S((i + r) mod N) for i < 2N - r,
    so the W words of copy o % 64 from word o // 64 on hold 1_S read from o."""
    bits = np.zeros(64 * (2 * words + 2), bool)
    bits[support] = bits[support + n] = True
    # The packed words as one integer, bit x at x: copy r is it shifted down r.
    packed = int.from_bytes(np.packbits(bits, bitorder="little"), "little")
    size = 8 * (2 * words + 1)
    copies = b"".join((packed >> r).to_bytes(size + 8, "little")[:size] for r in range(64))
    return np.frombuffer(copies, "<u8")


def _bit_count(n: int, support: np.ndarray, k: int) -> int:
    """Number of length-k progressions inside S, from the differences
    d = 0..N//2, each 0 < d < N/2 counted twice.

    Bit a of row d is 1 when a + j*d mod N is in S for every j < k: the AND
    of the W words of S read from each offset j*d mod N, gathered from its
    ``_bit_table``.  The bits past N in the last word are cleared and each
    row's set bits counted by ``np.bitwise_count``.  Differences are walked
    in blocks of at most ``_CHUNK_ELEMS`` words (or one row), in buffers
    allocated once.
    """
    words = -(-n // 64)
    stride = 2 * words + 1
    table = _bit_table(n, support, words)
    walk = n // 2 + 1
    tail = np.uint64((1 << (n - 64 * (words - 1))) - 1)
    rows = max(1, _CHUNK_ELEMS // words)
    acc_buf = np.empty((min(rows, walk), words), np.uint64)
    term_buf = np.empty_like(acc_buf)
    index_buf = np.empty(acc_buf.shape, np.intp)
    cols = np.arange(words)
    counts = np.empty(walk, np.int64)
    for start in range(0, walk, rows):
        d = np.arange(start, min(start + rows, walk))
        acc, term, index = acc_buf[: d.size], term_buf[: d.size], index_buf[: d.size]
        acc[:] = table[:words]
        for j in range(1, k):
            offset = j * d % n
            np.add((offset % 64 * stride + offset // 64)[:, None], cols, out=index)
            # Every index is in range; under the default mode take buffers out.
            np.take(table, index, out=term, mode="clip")
            acc &= term
        acc[:, -1] &= tail
        counts[start : start + d.size] = np.sum(np.bitwise_count(acc, out=term), axis=1)
    counts[1 : (n + 1) // 2] *= 2
    return int(np.sum(counts))


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


def telescoping_check(
    w: WeightedHypergraph, density: float, budget: float | None = None, with_chains: bool = False
) -> VerificationReport:
    """Verify that ``density``, the progression density of the measure that
    w represents (``ap_density`` of nu.fn at k = r + 1), minus one equals the sum
    of the single-copy centered terms of w.

    Term m is E[(w_m - 1) w_0 ... w_(m-1)], w_i the weight of the edge
    omitting vertex i, on formed factors when the weights carry forms.  It
    is the empty-set chain quantity of the single-copy instance whose minorants are
    their caps, after relabeling vertex m to the distinguished slot: the
    weights of the edges that omitted 0..m-1, and one for the rest.  With
    ``with_chains`` the composed chain bound of that instance
    (``capped_chain_verify`` on w with vertices 0 and m exchanged) is
    attached as a measured ratio, and any check of it that fails is added.
    """
    r = w.r
    report = VerificationReport(name="progression-telescoping")
    edges = w.system.edges
    terms = []
    for m in range(r + 1):
        factors = [weight_factor(w, edges[m], centered=True)]
        factors += [weight_factor(w, edge) for edge in edges[:m]]
        term = expect_product(factors, budget, what="chain quantity at d=()")
        terms.append(term)
        report.ratios[f"term-{m}"] = term
        if with_chains:
            caps = {
                (w.system.edge_omitting(j), 0): Cap.NU if (0 if j == m else j) < m else Cap.ONE
                for j in range(1, r + 1)
            }
            chain = capped_chain_verify(w, caps, budget, swap=m)
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
    ap = ap_density(nu.fn, r + 1, budget)
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
