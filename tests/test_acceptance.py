"""Acceptance gate: the eleven shipping criteria, one verdict line each.

Each test prints ``ACCEPTANCE c## PASS/FAIL - detail`` on the real stdout
(bypassing capture) and then asserts, so the verdict lines always appear in
the pytest transcript.  Tolerances are pinned here and never loosened to
match observed values; every expected quantity is either exact by
construction or compared across two independent evaluation routes.
"""

import itertools
import os
import time

import numpy as np
import pytest

from conftest import philox
from gowers import (
    Cap,
    CubePattern,
    CyclicFn,
    EdgeFn,
    EmptySetGenerated,
    GeneratorSpec,
    Lf2Exponents,
    SlfInstance,
    ap_density,
    ap_values,
    binomial_expansion_identity,
    box_norm_brute,
    chain_verify,
    cube_centered_expectation,
    cube_expectation,
    cube_vertices,
    gcs_verify,
    generate,
    hypothesis_ratio,
    lf2_expectation,
    lf2_term,
    nu_prime,
    nu_prime_l2_dev,
    random_slf_instance,
    represent,
    slf_lhs,
    telescoping_check,
    u_norm_brute,
    u_norm_fast,
)
from gowers.cli import main as cli_main

REL_TOL = 1e-9


@pytest.fixture
def verdict(capsys):
    def _verdict(cid: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"{cid}: {detail}"

    return _verdict


def _random_measures(n: int, count: int, start_seed: int, p: float = 0.5):
    """Exactly ``count`` seeded random measures, skipping empty draws."""
    out, seed = [], start_seed
    while len(out) < count:
        try:
            out.append(generate(GeneratorSpec(kind="random", n=n, p=p, seed=seed)))
        except EmptySetGenerated:
            pass
        seed += 1
    return out


# Criterion 1: the spectral/recursive fast route and the explicit cube
# enumeration agree to relative 1e-9 on 200 seeded positive functions with
# moduli spanning 8..64 at every order 1..3, in under a minute.  Positive
# inputs keep the true norm bounded away from zero, so the relative
# comparison is meaningful at every order (an exactly centered input has
# true first-order norm zero and the brute route keeps only roundoff).
def test_c01_oracle_equivalence(verdict):
    ladder_big = (8, 13, 16, 21, 24, 32, 40, 48, 57, 64)
    ladder_small = (8, 12, 16, 20, 24, 28, 32)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        k = 1 + seed % 3
        if k < 3:
            n = ladder_big[(seed // 3) % len(ladder_big)]
        elif seed == 2:
            n = 48
        elif seed == 5:
            n = 64
        else:
            n = ladder_small[(seed // 3) % len(ladder_small)]
        f = CyclicFn(n, philox(seed).random(n))
        brute = u_norm_brute(f, k, budget=3.0e8)
        fast = u_norm_fast(f, k)
        worst = max(worst, abs(brute - fast) / max(brute, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= REL_TOL and elapsed < 60.0
    verdict(
        "c01",
        ok,
        f"dual route agreement on 200 functions, worst rel err {worst:.2e}, "
        f"{elapsed:.1f} s (limit 60 s)",
    )


# Criterion 2: the product-form bound holds on 1000 seeded random tuples of
# edge arity 1..3 with vertex sets of size at most 7, and the all-equal
# tuple attains it to within 1e-9 of the right-hand side.
def test_c02_product_form_bound(verdict):
    for seed in range(1000):
        kk = 1 + seed % 3
        rng = philox(1000 + seed)
        dims = tuple(int(d) for d in rng.integers(2, 8, size=kk))
        edge = tuple(range(1, kk + 1))
        gs = {
            om: EdgeFn(edge, dims, rng.random(dims) * 2.0 - 1.0)
            for om in cube_vertices(kk)
        }
        report = gcs_verify(gs)
        if not report.passed:
            verdict("c02", False, f"bound violated at tuple seed {seed}")
    worst_eq = 0.0
    for seed in range(21):
        kk = 1 + seed % 3
        rng = philox(5000 + seed)
        dims = tuple(int(d) for d in rng.integers(2, 8, size=kk))
        edge = tuple(range(1, kk + 1))
        g = EdgeFn(edge, dims, rng.random(dims) * 2.0 - 1.0)
        report = gcs_verify({om: g for om in cube_vertices(kk)})
        rhs = report.ratios["rhs"]
        rel = abs(report.checks[0].margin) / max(rhs, 1e-300)
        worst_eq = max(worst_eq, rel)
    ok = worst_eq <= REL_TOL
    verdict(
        "c02",
        ok,
        f"bound held on 1000 random tuples; equality case within "
        f"{worst_eq:.2e} of the right-hand side (tol 1e-9)",
    )


# Criterion 3: for 50 seeded measures at prime moduli, the box norm of every
# centered representation weight equals the centered uniformity norm of the
# measure to 1e-9, at both supported arities.
def test_c03_norm_preservation(verdict):
    plan = [(2, 5, 8), (2, 7, 8), (2, 11, 8), (2, 13, 8), (3, 5, 8), (3, 7, 6), (3, 11, 4)]
    assert sum(count for _, _, count in plan) == 50
    worst = 0.0
    measures = 0
    for r, n, count in plan:
        for i, nu in enumerate(_random_measures(n, count, start_seed=37 * r + n)):
            target = u_norm_fast(nu.centered(), r)
            w = represent(nu, r)
            for j in range(r + 1):
                box = box_norm_brute(w.weight_omitting(j).centered())
                worst = max(worst, abs(box - target))
            measures += 1
    ok = worst <= REL_TOL and measures == 50
    verdict(
        "c03",
        ok,
        f"norm preserved for {measures} measures at every edge, "
        f"worst |box - norm| = {worst:.2e} (tol 1e-9)",
    )


# Criterion 4: the stored linear forms map every point of the coordinate
# space to an arithmetic progression whose difference is the coordinate sum,
# exhaustively at N in {5, 7} and both arities.
def test_c04_progression_map(verdict):
    points = 0
    for n in (5, 7):
        for r in (2, 3):
            w = represent(generate(GeneratorSpec(kind="constant", n=n)), r)
            for x in itertools.product(range(n), repeat=r + 1):
                ys, d = ap_values(w, x)
                if d != sum(x) % n:
                    verdict("c04", False, f"difference mismatch at {n=} {r=} {x=}")
                for j in range(r):
                    if (ys[j + 1] - ys[j]) % n != d:
                        verdict("c04", False, f"not a progression at {n=} {r=} {x=}")
                points += 1
    verdict("c04", points == 5**3 + 5**4 + 7**3 + 7**4,
            f"progression property exhaustive on {points} points")


# Criterion 5: on 100 seeded minorant instances every squared chain step,
# every pointwise second-moment bound, and the endpoint box-power identity
# hold (slack 1e-9 relative), in under five minutes.
def test_c05_chain_of_squares(verdict):
    t0 = time.perf_counter()
    total = 0
    for r, n, count in ((2, 5, 30), (2, 7, 30), (2, 11, 30), (3, 5, 10)):
        for i, nu in enumerate(_random_measures(n, count, start_seed=100 * r)):
            w = represent(nu, r)
            inst = random_slf_instance(w, i, "mixed")
            report = chain_verify(inst)
            if not report.passed:
                verdict("c05", False, f"chain failed at {r=} {n=} seed {i}: "
                        f"{[c.check for c in report.failures()]}")
            names = {c.check for c in report.checks}
            has_all = (
                any(name.startswith("cs-step") for name in names)
                and any("sup-pointwise" in name for name in names)
                and any("endpoint-box-power" in name for name in names)
            )
            if not has_all:
                verdict("c05", False, f"chain report incomplete at {r=} {n=} seed {i}")
            total += 1
    elapsed = time.perf_counter() - t0
    ok = total == 100 and elapsed < 300.0
    verdict(
        "c05",
        ok,
        f"all squared steps, pointwise bounds, and endpoints held on "
        f"{total} instances, {elapsed:.1f} s (limit 300 s)",
    )


# Criterion 6: the raw cube expectation equals the subset sum of centered
# cube expectations for all 16 patterns on arity-2 edges, 20 seeded measures.
def test_c06_expansion_identity(verdict):
    worst = 0.0
    for i, nu in enumerate(_random_measures(5, 20, start_seed=600)):
        g = represent(nu, 2).weight_omitting(0)
        for bits in range(16):
            pat_text = format(bits, "04b")
            report = binomial_expansion_identity(g, CubePattern.from_string(pat_text))
            if not report.passed:
                verdict("c06", False, f"expansion failed at measure {i} pattern {pat_text}")
            worst = max(worst, abs(report.checks[0].margin))
    verdict(
        "c06",
        worst <= REL_TOL,
        f"expansion identity held for all 16 patterns on 20 measures, "
        f"worst margin {worst:.2e} (tol 1e-9)",
    )


# Criterion 7: the centered second moment of the conditional product weight
# expands correctly, and its raw second moment matches the doubled-origin
# engine, on 20 seeded hypergraphs.
def test_c07_conditional_weight_moments(verdict):
    worst = 0.0
    count = 0
    for n, per_n in ((5, 7), (7, 7), (11, 6)):
        for nu in _random_measures(n, per_n, start_seed=700 + n):
            w = represent(nu, 2)
            prime = nu_prime(w)
            m1 = float(np.mean(prime.values))
            m2 = float(np.mean(prime.values**2))
            dev = nu_prime_l2_dev(w)
            lf2 = lf2_expectation(w, Lf2Exponents.all_ones(2))
            worst = max(worst, abs(dev - (m2 - 2.0 * m1 + 1.0)))
            worst = max(worst, abs(lf2 - m2) / max(1.0, m2))
            count += 1
    ok = worst <= REL_TOL and count == 20
    verdict(
        "c07",
        ok,
        f"moment expansion and doubled-origin agreement on {count} hypergraphs, "
        f"worst err {worst:.2e} (tol 1e-9)",
    )


# Criterion 8: the constant measure gives exactly zero from every centered
# engine and exactly one from every product engine, with no tolerance.
def test_c08_degenerate_exactness(verdict):
    nu = generate(GeneratorSpec(kind="constant", n=5))
    w = represent(nu, 2)
    g0 = w.weight_omitting(0)
    caps, gs = {}, {}
    for j in (1, 2):
        edge = w.system.edge_omitting(j)
        for copy in (0, 1):
            caps[(edge, copy)] = Cap.ONE
            gs[(edge, copy)] = EdgeFn.ones(edge, w.system.edge_dims(edge))
    inst = SlfInstance(w, caps, gs)
    exps = Lf2Exponents.all_ones(2)
    zeros = {
        "centered-product": slf_lhs(inst),
        "doubled-origin-term-1": lf2_term(w, 1, exps),
        "doubled-origin-term-2": lf2_term(w, 2, exps),
        "product-weight-deviation": nu_prime_l2_dev(w),
        "cube-centered": cube_centered_expectation(g0, CubePattern.from_string("1010")),
    }
    ones = {
        "cube-product": cube_expectation(g0, CubePattern.all_ones(2)),
        "doubled-origin-product": lf2_expectation(w, exps),
        "progression-density": ap_density([nu.fn] * 3).density,
    }
    bad = [k for k, v in zeros.items() if v != 0.0] + [
        k for k, v in ones.items() if v != 1.0
    ]
    verdict(
        "c08",
        not bad,
        "constant measure exact: centered engines all 0.0, product engines all 1.0"
        if not bad
        else f"not exact: {bad}",
    )


# Criterion 9: the progression density minus one is reconstructed from the
# single-copy centered terms to 1e-9 at every prime modulus up to 13.
def test_c09_telescoping_identity(verdict):
    worst = 0.0
    cases = 0
    for n in (5, 7, 11, 13):
        specs = [GeneratorSpec(kind="interval", n=n, p=0.4)]
        specs += [GeneratorSpec(kind="quadratic", n=n, p=0.4)]
        for nu in [generate(s) for s in specs] + _random_measures(n, 2, start_seed=900 + n):
            report = telescoping_check(nu, represent(nu, 2))
            if not report.passed:
                verdict("c09", False, f"telescoping failed at {n=}")
            worst = max(worst, abs(report.checks[-1].margin))
            cases += 1
    verdict(
        "c09",
        worst <= REL_TOL,
        f"density identity reconstructed in {cases} cases over primes 5..13, "
        f"worst margin {worst:.2e} (tol 1e-9)",
    )


# Criterion 10: on the fixture grid (N = 1009 prime, density 0.2, 10 seeds)
# random sets beat the interval strictly on the order-2 ratio for every
# seed, and the seed-averaged random-set norm strictly decreases along
# N in {257, 1009, 4093}.  Measured separation only; no constant asserted.
def test_c10_empirical_separation(verdict):
    interval = hypothesis_ratio(
        generate(GeneratorSpec(kind="interval", n=1009, p=0.2)), 2
    )
    worst_random = 0.0
    for seed in range(10):
        hr = hypothesis_ratio(
            generate(GeneratorSpec(kind="random", n=1009, p=0.2, seed=seed)), 2
        )
        worst_random = max(worst_random, hr.over_p_r)
        if not hr.over_p_r < interval.over_p_r:
            verdict("c10", False, f"random seed {seed} not below interval ratio")
    means = []
    for n in (257, 1009, 4093):
        vals = [
            hypothesis_ratio(
                generate(GeneratorSpec(kind="random", n=n, p=0.2, seed=s)), 2
            ).norm
            for s in range(10)
        ]
        means.append(sum(vals) / len(vals))
    decreasing = means[0] > means[1] > means[2]
    verdict(
        "c10",
        decreasing,
        f"random ratio < interval ratio for all 10 seeds "
        f"(worst {worst_random:.2f} vs {interval.over_p_r:.2f}); mean norm "
        f"{means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f} over N=257,1009,4093",
    )


# Criterion 11: the fast route finishes order 3 at N = 2048 in under 10 s,
# and the full built-in verification suite finishes in under 120 s.
def test_c11_performance(verdict):
    f = CyclicFn(2048, philox(11).random(2048))
    t0 = time.perf_counter()
    u_norm_fast(f, 3)
    t_norm = time.perf_counter() - t0
    t0 = time.perf_counter()
    code = cli_main(["verify", "--r", "2", "--n", "7", "--output", os.devnull])
    t_verify = time.perf_counter() - t0
    ok = t_norm < 10.0 and t_verify < 120.0 and code == 0
    verdict(
        "c11",
        ok,
        f"fast norm k=3 N=2048 in {t_norm:.2f} s (limit 10 s); "
        f"verification suite exit {code} in {t_verify:.1f} s (limit 120 s)",
    )
