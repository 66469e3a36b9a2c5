"""Arithmetic-progression densities on Z_N and the pseudorandomness
experiments built on them.

The density of length-k progressions weighted by functions f_0, ..., f_(k-1)
is E over start a and difference d (d = 0 included) of the product
f_j(a + j*d).  The trivial (d = 0) and nontrivial tuples with nonzero weight
are counted separately; for indicator inputs those are plain progression
counts.

For a represented measure the product of all edge weights over the hypergraph
coordinates sweeps progressions uniformly, which turns the progression
density into a telescoping sum of single-copy centered expectations, one per
edge; ``telescoping_check`` verifies that identity exactly and can attach the
chain bound for each term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .cyclic import CyclicFn, Measure
from .errors import ShapeMismatch
from .genmeasure import GeneratorSpec, generate
from .gowersnorm import _CHUNK_ELEMS, EdgeFn, u_norm_fast
from .hypersystem import (
    WeightedHypergraph,
    charge_representation,
    is_prime,
    relabel,
    represent,
)
from .linform import Cap, SlfInstance, q_value, single_chain_verify
from .report import TOL, VerificationReport, eq_check

CSV_HEADER = "n,k,density,prediction,ratio,trivial_count,nontrivial_count"


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

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "density": self.density,
            "prediction": self.prediction,
            "ratio": self.ratio,
            "trivial_count": self.trivial_count,
            "nontrivial_count": self.nontrivial_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def to_csv_row(self) -> str:
        return (
            f"{self.n},{self.k},{self.density!r},{self.prediction!r},"
            f"{self.ratio!r},{self.trivial_count},{self.nontrivial_count}"
        )


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

    Each f_j (j >= 1) is read through the strided view ``_shifts(f_j, j)``,
    whose entry [d, a] is f_j((a + j*d) mod N).  Differences are walked in
    blocks of at most ``_CHUNK_ELEMS`` elements (or one row); each block is
    the product f_0 * f_1 * ... * f_(k-1) in that order, summed per row.
    The per-difference sums are merged with exact compensated summation in
    ascending difference order, so no N x N array is formed.
    """
    if not fs:
        raise ShapeMismatch("need at least one weight function")
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ShapeMismatch("all weight functions must share the modulus")
    k = len(fs)
    check_budget(
        float(n) ** 2 * k, budget, what=f"progression density (k={k}, n={n})", power=2
    )
    views = [_shifts(f.values, j) for j, f in enumerate(fs[1:], start=1)]
    rows = max(1, _CHUNK_ELEMS // n)
    per_diff = []
    trivial = 0
    nontrivial = 0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        prod = np.repeat(fs[0].values[None, :], stop - start, axis=0)
        for view in views:
            prod *= view[start:stop]
        if start == 0:
            trivial = int(np.count_nonzero(prod[0]))
            nontrivial += int(np.count_nonzero(prod[1:]))
        else:
            nontrivial += int(np.count_nonzero(prod))
        per_diff.extend(np.sum(prod, axis=1).tolist())
    density = math.fsum(per_diff) / float(n) ** 2
    prediction = math.prod(f.mean() for f in fs)
    ratio = density / prediction if prediction != 0 else float("nan")
    return ApReport(n, k, density, prediction, ratio, trivial, nontrivial)


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

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "p": self.p,
            "norm": self.norm,
            "over_p_r": self.over_p_r,
            "over_p_half_r": self.over_p_half_r,
        }


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
    nu: Measure, w: WeightedHypergraph, budget: float | None = None, with_chains: bool = False
) -> VerificationReport:
    """Verify that the progression density of nu minus one equals the sum of
    the single-copy centered terms of its representation w.

    Term m centers the edge omitting vertex m, keeps the weights of edges
    omitting 0..m-1 and replaces the rest by one; each term is the empty-set
    chain quantity ``q_value(inst, ())`` of a single-copy instance, after
    relabeling vertex m to the distinguished slot.
    With ``with_chains`` the composed chain bound of each term is attached as
    a measured ratio.
    """
    lam = ap_density([nu.fn] * (w.r + 1), budget).density
    return _telescoping(w, lam, budget, with_chains)


def _telescoping(
    w: WeightedHypergraph, lam: float, budget: float | None, with_chains: bool
) -> VerificationReport:
    """``telescoping_check`` against the already computed progression
    density lam of the represented measure."""
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
    report.add(eq_check("telescoping-count-identity", lam - 1.0, total, TOL))
    report.ratios["density"] = lam
    return report


def relsz_experiment(
    spec: GeneratorSpec, r: int, with_chains: bool = False, budget: float | None = None
) -> tuple[ApReport, VerificationReport]:
    """Measure how far the measure ``spec`` generates is from density one on
    length-(r+1) progressions, alongside its uniformity-norm ratios and, for
    prime moduli, the exact telescoping decomposition with optional per-term
    chain bounds."""
    nu = generate(spec)
    ap = ap_density([nu.fn] * (r + 1), budget)
    ratios = hypothesis_ratio(nu, r, budget)
    if is_prime(spec.n) and spec.n > r:
        charge_representation(spec.n, r, budget)
        report = _telescoping(represent(nu, r), ap.density, budget, with_chains)
    else:
        report = VerificationReport(name="progression-telescoping")
        report.notes.append("modulus not prime above the arity; telescoping skipped")
    report.ratios["norm"] = ratios.norm
    report.ratios["norm-over-p-r"] = ratios.over_p_r
    report.ratios["norm-over-p-half-r"] = ratios.over_p_half_r
    report.ratios["density-minus-one"] = ap.density - 1.0
    return ap, report
