"""Centered product expectations, Cauchy-Schwarz chains, and the
doubled-origin engines, each validated against explicit loop oracles."""

import dataclasses
import functools
import inspect
import itertools
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import gowers.cli as cli
import gowers.genmeasure as genmeasure
import gowers.gowersnorm as gowersnorm
import gowers.linform as linform
from chain_oracle import ybar_sq_expectation
from conftest import philox
from form_oracle import unformed
from gowers import (
    AllZeroPattern,
    BudgetExceeded,
    Cap,
    CapViolation,
    CubePattern,
    CyclicFn,
    EdgeFn,
    EmptySetGenerated,
    GeneratorSpec,
    InvalidSubset,
    Lf2Exponents,
    Measure,
    NotRepresentation,
    ShapeMismatch,
    SlfInstance,
    WeightedHypergraph,
    ap_density,
    binomial_expansion_identity,
    box_norm,
    box_norm_brute,
    chain_verify,
    cube_centered_expectation,
    cube_expectation,
    cube_vertices,
    expect_product,
    generate,
    lf2_chain_verify,
    lf2_expectation,
    lf2_telescoping,
    lf2_term,
    nu_prime,
    nu_prime_l2_dev,
    q_value,
    random_slf_instance,
    represent,
    single_chain_verify,
    u_norm_fast,
)
from gowers.forms import Form
from gowers.report import TOL


def _measure(n=5, seed=0, p=0.6):
    return generate(GeneratorSpec(kind="random", n=n, p=p, seed=seed))


def _instance(n=5, seed=0, caps="mixed"):
    w = represent(_measure(n=n, seed=seed), 2)
    return random_slf_instance(w, seed, caps)


class TestExpectProduct:
    def test_empty_product(self):
        assert expect_product([], None, what="empty") == 1.0

    def test_single_factor_is_mean(self):
        rng = philox(1)
        vals = rng.random((3, 4))
        got = expect_product([(vals, [(1, None), (2, None)])], None, what="one")
        assert got == pytest.approx(float(vals.mean()), rel=1e-12)

    def test_disjoint_factors_multiply(self):
        rng = philox(2)
        a, b = rng.random(4), rng.random(5)
        got = expect_product(
            [(a, [(1, None)]), (b, [(2, None)])], None, what="disjoint"
        )
        assert got == pytest.approx(float(a.mean() * b.mean()), rel=1e-12)

    def test_copies_are_independent_axes(self):
        rng = philox(3)
        a = rng.random(6)
        # One factor per copy of the same vertex: independent averages.
        got = expect_product(
            [(a, [(0, 0)]), (a, [(0, 1)])], None, what="copies"
        )
        assert got == pytest.approx(float(a.mean()) ** 2, rel=1e-12)

    def test_factor_order_invariance(self):
        rng = philox(4)
        a, b = rng.random((3, 3)), rng.random(3)
        f1 = [(a, [(1, None), (2, None)]), (b, [(2, None)])]
        f2 = list(reversed(f1))
        x = expect_product(f1, None, what="o1")
        y = expect_product(f2, None, what="o2")
        assert x == pytest.approx(y, rel=1e-12)


def _einsum_oracle(factors) -> float:
    """The whole product summed by one unoptimized einsum over every
    variable at once, divided by the number of index points."""
    names = {v: chr(ord("a") + i) for i, v in enumerate(dict.fromkeys(
        v for _, axes in factors for v in axes))}
    expr = ",".join("".join(names[v] for v in axes) for _, axes in factors) + "->"
    total = float(np.einsum(expr, *[arr for arr, _ in factors], optimize=False))
    sizes = {v: arr.shape[i] for arr, axes in factors for i, v in enumerate(axes)}
    return total / math.prod(sizes.values())


_VARS = [(v, c) for v in range(3) for c in (None, 0, 1)]


@st.composite
def _factor_graphs(draw):
    """1-6 factors over 1-6 variables of sizes 1-5; a factor may read a
    variable twice or read none (a scalar)."""
    used = draw(st.lists(st.sampled_from(_VARS), min_size=1, max_size=6, unique=True))
    size = {v: draw(st.integers(1, 5)) for v in used}
    axes_lists = draw(
        st.lists(st.lists(st.sampled_from(used), max_size=4), min_size=1, max_size=6)
    )
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    return [
        (0.5 + rng.random(tuple(size[v] for v in axes)), axes) for axes in axes_lists
    ]


# Three size-1 variables read pairwise: any elimination order charges 4
# products against 3 for one einsum over the whole (one-point) space.
_TRIANGLE = [
    (np.full((1, 1), 2.0), [(1, None), (2, None)]),
    (np.full((1, 1), 3.0), [(2, None), (3, None)]),
    (np.full((1, 1), 5.0), [(1, None), (3, None)]),
]


class TestPlanner:
    """The bucket-elimination route of ``expect_product`` against one
    unoptimized einsum over the whole product space."""

    @given(_factor_graphs())
    def test_matches_single_einsum(self, factors):
        got = expect_product(factors)
        assert got == pytest.approx(_einsum_oracle(factors), rel=1e-12)
        assert expect_product(factors) == got  # bit-identical on repeat

    @example(_TRIANGLE)
    @given(_factor_graphs())
    def test_charge_at_most_naive(self, factors):
        charges = []

        def record(estimated, *args, **kwargs):
            charges.append(estimated)
            return 1e8

        sizes = {v: arr.shape[i] for arr, axes in factors for i, v in enumerate(axes)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linform, "check_budget", record)
            got = expect_product(factors)
            doubled = expect_product(factors, d=())
        assert len(charges) == 2
        assert charges[0] <= math.prod(sizes.values()) * len(factors)
        # d=() is the default: the same bits at the same charge.
        assert (got, charges[0]) == (doubled, charges[1])

    @given(_factor_graphs())
    def test_tiny_budget_refused_before_any_einsum(self, factors):
        def no_einsum(*args, **kwargs):
            raise RuntimeError("einsum ran before the budget check")

        if not any(axes for _, axes in factors):
            return  # a product of scalars costs nothing
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "einsum", no_einsum)
            with pytest.raises(BudgetExceeded):
                expect_product(factors, budget=0.5)

    def test_charge_is_the_planned_cost(self):
        # A chain a-b-c-d of three matrices: the plan sums a out of the
        # first and d out of the last (n^2 products each), then b (2 n^2),
        # then c (2 n); one einsum over the whole space would charge 3 n^4.
        n = 7
        rng = philox(12)
        factors = [
            (rng.random((n, n)), [(1, None), (2, None)]),
            (rng.random((n, n)), [(2, None), (3, None)]),
            (rng.random((n, n)), [(3, None), (4, None)]),
        ]
        with pytest.raises(BudgetExceeded) as err:
            expect_product(factors, budget=4.0 * n**2 + 2 * n - 1)
        assert err.value.estimated == 4.0 * n**2 + 2 * n
        assert err.value.power == 2
        assert expect_product(factors, budget=4.0 * n**2 + 2 * n) == pytest.approx(
            _einsum_oracle(factors), rel=1e-12
        )


    def test_seen_structure_is_not_planned_again(self, monkeypatch):
        # The route is cached per structure, so a repeat call, even on new
        # values, goes straight to the contraction.
        rng = philox(13)
        factors = [(rng.random((4, 6)), [(1, None), (2, None)]), (rng.random(6), [(2, None)])]
        warm = expect_product(factors)

        def refuse(*args, **kwargs):
            raise RuntimeError("planned a structure already seen")

        monkeypatch.setattr(linform, "_plan", refuse)
        doubled = [(2.0 * arr, axes) for arr, axes in factors]
        assert expect_product(doubled) == pytest.approx(4.0 * warm, rel=1e-12)


class TestOracleIndependence:
    """The oracle side of the endpoint and norm-preservation checks must not
    evaluate through the planner it checks."""

    def test_oracles_compute_without_the_planner(self, monkeypatch):
        class PlannerCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise PlannerCalled

        monkeypatch.setattr(linform, "expect_product", refuse)
        monkeypatch.setattr(linform, "_plan", refuse)
        nu = _measure(n=7, seed=1)
        inst = random_slf_instance(represent(nu, 2), 1)
        with pytest.raises(PlannerCalled):
            q_value(inst, (1, 2))
        centered = inst.hypergraph.weight_omitting(0).centered()
        box_power = box_norm_brute(centered) ** 4
        assert box_power == pytest.approx(u_norm_fast(nu.centered(), 2) ** 4, rel=1e-9)

    def test_box_norm_computes_without_the_other_routes(self, monkeypatch):
        # box_norm is the right side of gcs, the endpoint oracle of a
        # hypergraph without forms and the dense oracle of a represented
        # weight's box norm, so it may share no evaluation code with the
        # planner, the brute-force box or the difference recursion.
        class OtherRouteCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise OtherRouteCalled

        nu = _measure(n=7, seed=1)
        centered = represent(nu, 2).weight_omitting(0).centered()
        for module, name in (
            (linform, "expect_product"),
            (linform, "_plan"),
            (gowersnorm, "box_norm_brute"),
            (gowersnorm, "_u_pows"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = box_norm(centered)
        monkeypatch.undo()
        assert got == pytest.approx(box_norm_brute(centered), rel=1e-9)
        assert got == pytest.approx(u_norm_fast(nu.centered(), 2), rel=1e-9)

    def test_preservation_sides_compute_without_each_other(self, monkeypatch):
        # Norm preservation compares the box norm of each centered
        # represented weight, a formed expectation on the quotient route,
        # with the uniformity norm of nu - 1 by the difference recursion.
        # Neither side may run through the other, and the box side not
        # through the dense box recursion either.
        class OtherSideCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise OtherSideCalled

        nu = _measure(n=7, seed=4)
        assert not hasattr(linform, "box_norm")
        for r in (2, 3):
            w = represent(nu, r)
            for module, name in (
                (gowersnorm, "u_norm_fast"),
                (gowersnorm, "box_norm"),
                (gowersnorm, "_box_pows"),
                (gowersnorm, "_u_pows"),
                (linform, "u_norm_fast"),
                (linform, "_box_pows"),
            ):
                monkeypatch.setattr(module, name, refuse)
            boxes = [linform.formed_box_norm(g.centered()) for g in w.weights.values()]
            monkeypatch.undo()
            for name in ("expect_product", "_plan", "_run"):
                monkeypatch.setattr(linform, name, refuse)
            u = u_norm_fast(nu.centered(), r)
            monkeypatch.undo()
            assert boxes == pytest.approx([u] * (r + 1), rel=1e-9)

    def test_endpoint_oracle_computes_without_the_box_recursion(self, monkeypatch):
        # Once q(e0) runs the box recursion, the endpoint of a represented
        # hypergraph must be checked against the difference recursion.  A
        # hypergraph without forms has no line to read, and is refused.
        class BoxRecursionCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise BoxRecursionCalled

        w = represent(_measure(n=7, seed=2), 3)
        for module, name in (
            (linform, "_box_pows"),
            (gowersnorm, "_box_pows"),
            (gowersnorm, "box_norm"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = linform._endpoint_box_power(w, None)
        with pytest.raises(NotRepresentation):
            linform._endpoint_box_power(unformed(w), None)
        monkeypatch.undo()
        centered = w.weight_omitting(0).centered()
        assert got == pytest.approx(box_norm_brute(centered) ** 8, rel=1e-9)

    def test_router_box_route_computes_without_the_other_routes(self, monkeypatch):
        # The box route of q(e0) may use neither the planner's contraction
        # steps nor the difference recursion of its endpoint oracle.
        class OtherRouteCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise OtherRouteCalled

        inst = random_slf_instance(represent(_measure(n=7, seed=3), 3), 3, copies=1)
        e0 = (1, 2, 3)
        factors = linform._kept(linform._slf_base(inst)[0], e0)
        for module, name in (
            (linform, "_plan"),
            (linform, "_run"),
            (linform, "u_norm_fast"),
            (gowersnorm, "u_norm_fast"),
            (gowersnorm, "_u_pows"),
            (np, "einsum"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = expect_product(factors, d=e0)
        monkeypatch.undo()
        assert got == pytest.approx(q_value(inst, e0), rel=1e-12)

    def test_router_split_route_computes_without_the_other_routes(self, monkeypatch):
        # The split route of a two-copy chain quantity may use neither the
        # planner's contraction steps, the box route and its recursion, nor
        # the difference recursion of the endpoint oracle.
        class OtherRouteCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise OtherRouteCalled

        inst = random_slf_instance(represent(_measure(n=7, seed=3), 3), 3)
        d = (1, 2)
        factors = linform._kept(linform._slf_base(inst)[0], d)
        route = linform._route(_structure(factors), d)
        assert isinstance(route, linform._SplitLayout)
        for module, name in (
            (linform, "_plan"),
            (linform, "_run"),
            (linform, "_box_route"),
            (linform, "_box_pows"),
            (gowersnorm, "_box_pows"),
            (linform, "u_norm_fast"),
            (gowersnorm, "u_norm_fast"),
            (np, "einsum"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = expect_product(factors, d=d)
        monkeypatch.undo()
        assert got == pytest.approx(q_value(inst, d), rel=1e-12)

    def test_spectral_engines_compute_without_the_chain_routes(self, monkeypatch):
        # ap_density and u_norm_fast are the oracles of the progression and
        # endpoint checks, so neither may reach the planner or the box route.
        class ChainRouteCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise ChainRouteCalled

        nu = _measure(n=7, seed=5)
        expect = (ap_density(nu.fn, 4), u_norm_fast(nu.centered(), 3))
        for module, name in (
            (linform, "expect_product"),
            (linform, "_run"),
            (linform, "_box_route"),
            (linform, "_box_pows"),
            (gowersnorm, "_box_pows"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert (ap_density(nu.fn, 4), u_norm_fast(nu.centered(), 3)) == expect

    @pytest.mark.parametrize("represented", [True, False])
    def test_endpoint_route_depends_on_the_oracle(self, represented, monkeypatch):
        # The endpoint oracle reads nu off a represented weight's line, so
        # q(e0) runs on the router.  A hand-built hypergraph has no forms to
        # recover nu from, and is refused before any step is charged.
        w = represent(_measure(n=5, seed=4), 2)
        if not represented:
            w = unformed(w)
        inst = random_slf_instance(w, 4, copies=1)
        routed = []
        real = linform.expect_product

        def spy(factors, budget=None, what="", d=()):
            routed.append(d)
            return real(factors, budget, what, d)

        monkeypatch.setattr(linform, "expect_product", spy)
        if not represented:
            monkeypatch.setattr(linform, "check_budget", None)  # any charge raises
            with pytest.raises(NotRepresentation):
                chain_verify(inst)
            assert routed == []
            return
        report, _ = chain_verify(inst)
        assert report.passed, report.failures()
        assert (1, 2) in routed


def _cube_loop(g: EdgeFn, pattern: CubePattern) -> float:
    """Loop oracle: every vertex of the edge doubled, one factor per vertex
    of the combinatorial cube in the pattern's support."""
    k = len(g.dims)
    support = pattern.support()
    total = 0.0
    count = 0
    for assignment in itertools.product(*(range(d) for d in g.dims for _ in (0, 1))):
        pairs = [(assignment[2 * i], assignment[2 * i + 1]) for i in range(k)]
        prod = 1.0
        for omega in support:
            prod *= g.values[tuple(pairs[i][omega[i]] for i in range(k))]
        total += prod
        count += 1
    return total / count


def _formed_edge(k: int, n: int, seed: int, scale: float = 1.0) -> EdgeFn:
    """A weight h(L·x mod n) on the edge (1, ..., k): h drawn as 0.5 + scale
    times uniforms, every coefficient of L drawn invertible."""
    rng = philox(seed)
    h = 0.5 + scale * rng.random(n)
    coeffs = tuple(int(c) for c in rng.integers(1, n, size=k))
    return EdgeFn.formed(tuple(range(1, k + 1)), h, Form(coeffs, n))


def _pattern_from_support(k: int, support) -> CubePattern:
    """The k-cube pattern whose ones are exactly the vertices of ``support``."""
    support = set(support)
    return CubePattern(k, tuple(1 if om in support else 0 for om in cube_vertices(k)))


class TestCubeEngines:
    @pytest.mark.parametrize("bits", ["1111", "1001", "0100", "1110"])
    def test_loop_oracle(self, bits):
        rng = philox(9)
        g = EdgeFn((1, 2), (3, 3), 0.5 + rng.random((3, 3)))
        pat = CubePattern.from_string(bits)
        assert cube_expectation(g, pat) == pytest.approx(
            _cube_loop(g, pat), rel=1e-12
        )

    def test_centered_matches_loop(self):
        # The bound reads g's line, so a weight without a form is refused.
        g = _formed_edge(2, 5, seed=10)
        pat = CubePattern.from_string("1011")
        centered = EdgeFn((1, 2), (5, 5), g.values - 1.0)
        assert cube_centered_expectation(g, pat) == pytest.approx(
            _cube_loop(centered, pat), rel=1e-10, abs=1e-14
        )
        plain = EdgeFn((1, 2), (3, 4), 0.5 + philox(10).random((3, 4)))
        with pytest.raises(NotRepresentation):
            cube_centered_expectation(plain, pat)

    def test_all_zero_pattern_rejected(self):
        g = EdgeFn.ones((1, 2), (3, 3))
        with pytest.raises(AllZeroPattern):
            cube_centered_expectation(g, CubePattern(2, (0, 0, 0, 0)))

    def test_full_support_is_box_power(self):
        rng = philox(11)
        g = EdgeFn((1, 2), (4, 4), rng.random((4, 4)) * 2 - 1)
        got = cube_expectation(g, CubePattern.all_ones(2))
        assert got == pytest.approx(box_norm_brute(g) ** 4, rel=1e-9, abs=1e-12)

    def test_pattern_constructors(self):
        pat = _pattern_from_support(2, [(0, 0), (1, 1)])
        assert pat.to_string() == "1001"
        assert pat.weight() == 2
        assert CubePattern.from_string("1001") == pat
        with pytest.raises(ShapeMismatch):
            CubePattern(2, (1, 0, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_binomial_expansion(self, seed):
        nu = _measure(seed=seed)
        g = represent(nu, 2).weight_omitting(0)
        for bits in ("1111", "1010", "0111"):
            (report,) = binomial_expansion_identity(g, [CubePattern.from_string(bits)])
            assert report.passed, report.failures()


def _mask(k: int, subset) -> int:
    return sum([1 << j for j, om in enumerate(cube_vertices(k)) if om in subset])


def _binomial_loop(g: EdgeFn, pat: CubePattern) -> dict:
    """Oracle: the centered term of every nonempty sub-support, each from
    its own expectation, keyed by the sub-support in cube-vertex order."""
    support = pat.support()
    centered = g.centered()
    return {
        subset: expect_product(linform._cube_factors(centered, subset))
        for size in range(1, len(support) + 1)
        for subset in itertools.combinations(support, size)
    }


def _cube_patterns(k: int, count: int, seed: int) -> list[CubePattern]:
    rng = philox(seed)
    return [CubePattern.all_ones(k)] + [
        CubePattern(k, tuple(int(b) for b in rng.integers(0, 2, size=2**k)))
        for _ in range(count)
    ]


def _fails_with_largest_term_scaled(monkeypatch, g: EdgeFn) -> None:
    """The all-ones expansion of g passes, and fails on its identity alone
    once the largest centered term is scaled by 1 + 1e-6."""
    pat = CubePattern.all_ones(len(g.edge))
    terms = {}
    real = linform.expect_product

    def recorded(factors, budget=None, what=""):
        value = real(factors, budget, what)
        if what == "centered cube expectation":
            terms[tuple([tuple(factor[1]) for factor in factors])] = value
        return value

    monkeypatch.setattr(linform, "expect_product", recorded)
    assert binomial_expansion_identity(g, [pat])[0].passed
    target = max(terms, key=lambda key: abs(terms[key]))

    def scaled(factors, budget=None, what=""):
        value = real(factors, budget, what)
        if what == "centered cube expectation" and target == tuple(
            [tuple(factor[1]) for factor in factors]
        ):
            value *= 1.0 + 1e-6
        return value

    monkeypatch.setattr(linform, "expect_product", scaled)
    (report,) = binomial_expansion_identity(g, [pat])
    assert [c.check for c in report.failures()] == ["binomial-expansion"]


class TestBinomialClasses:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_class_table_matches_orbits(self, k):
        vertices = cube_vertices(k)
        table = linform._flip_classes(k)
        reps = set()
        for size in range(len(vertices) + 1):
            for subset in itertools.combinations(vertices, size):
                orbit = [
                    [tuple(a ^ b for a, b in zip(om, flip)) for om in subset]
                    for flip in vertices
                ]
                least = min(_mask(k, member) for member in orbit)
                assert table[_mask(k, subset)] == least
                reps.add(least)
        # Burnside over the 2^k flips, the empty class included.
        assert len(reps) == {1: 3, 2: 7, 3: 46}[k]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_group_table_matches_orbits(self, k):
        # Every flip of every coordinate permutation of each sub-support.
        vertices = cube_vertices(k)
        table = linform._cube_classes(k)
        reps = set()
        for size in range(len(vertices) + 1):
            for subset in itertools.combinations(vertices, size):
                orbit = [
                    [tuple(om[p] ^ flip[i] for i, p in enumerate(perm)) for om in subset]
                    for perm in itertools.permutations(range(k))
                    for flip in vertices
                ]
                least = min(_mask(k, member) for member in orbit)
                assert table[_mask(k, subset)] == least
                reps.add(least)
        assert len(reps) == {1: 3, 2: 6, 3: 22}[k]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_group_table_blind_to_vertex_bit_order(self, k):
        # Reading a vertex index with the first coordinate fastest reverses
        # the coordinates, itself a cube permutation, so the table is the
        # same: no check on its values can see that slip, and none needs to.
        source = textwrap.dedent(inspect.getsource(linform._cube_classes))
        assert source.count("index = {om: j") == 1
        source = source.replace("index = {om: j", "index = {om[::-1]: j")
        namespace = {}
        exec(compile(source, linform.__file__, "exec"), vars(linform), namespace)
        assert namespace["_cube_classes"](k) == linform._cube_classes(k)

    @given(
        st.integers(1, 4),
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_every_member_gives_its_class_value(self, k, n, seed, data):
        # On a formed edge with invertible coefficients, any h: a sub-support
        # gives the value of its class's representative, and a class with c
        # coloops gives m^c times the value of its core, m = E(h - 1).
        rng = philox(seed)
        h = 2.0 * rng.random(n)
        coeffs = tuple(int(c) for c in rng.integers(1, n, size=k))
        g = EdgeFn.formed(tuple(range(1, k + 1)), h, Form(coeffs, n)).centered()
        vertices = cube_vertices(k)

        def term(mask):
            support = [om for j, om in enumerate(vertices) if mask >> j & 1]
            return expect_product(linform._cube_factors(g, support)) if support else 1.0

        mask = data.draw(st.integers(1, 2 ** len(vertices) - 1))
        rep = linform._cube_classes(k)[mask]
        value = term(mask)
        assert value == pytest.approx(term(rep), rel=1e-12, abs=1e-15)
        coloops, core = linform._coloop_split(k, n, rep)
        m = math.fsum((h - 1.0).tolist()) / n
        assert value == pytest.approx(m**coloops * term(core), rel=1e-12, abs=1e-15)
        assert core == 0 or linform._coloop_split(k, n, core)[0] == 0

    @pytest.mark.parametrize("r", [2, 3])
    def test_mean_other_than_one_matches_loop_oracle(self, r):
        # Measure.from_fn takes any nonnegative function, so m = E(nu - 1)
        # need not vanish, and a class with coloops is m^c times its core.
        nu = Measure.from_fn(CyclicFn(7, 0.2 + 2.0 * philox(r).random(7)))
        assert abs(nu.mean() - 1.0) > 0.05
        g = represent(nu, r).weight_omitting(0)
        pattern = CubePattern.all_ones(r)
        (report,) = binomial_expansion_identity(g, [pattern])
        assert report.passed, report.failures()
        oracle = math.fsum([1.0, *_binomial_loop(g, pattern).values()])
        assert report.ratios["centered-sum"] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("formed", [False, True], ids=["plain", "zero-coefficient"])
    def test_permuted_term_differs_off_the_group_path(self, monkeypatch, formed):
        # Without a form, or with a zero coefficient, a term is not a
        # function of the rows (1, w) alone: some coordinate permutation of
        # some sub-support changes it.  So the class path would be wrong
        # there, and such an edge is refused before any step is charged.
        rng = philox(7)
        if formed:
            g = EdgeFn.formed((1, 2), 0.5 + rng.random(5), Form((2, 0), 5))
        else:
            g = EdgeFn((1, 2), (5, 5), 0.5 + rng.random((5, 5)))
        centered = g.centered()
        vertices = cube_vertices(2)

        def term(support):
            return expect_product(linform._cube_factors(centered, support))

        moved = [
            subset
            for size in range(1, len(vertices) + 1)
            for subset in itertools.combinations(vertices, size)
            if abs(term(subset) - term([om[::-1] for om in subset])) > 1e-6 * abs(term(subset))
        ]
        assert moved
        monkeypatch.setattr(linform, "check_budget", None)  # any charge raises
        with pytest.raises(NotRepresentation):
            binomial_expansion_identity(g, [CubePattern.all_ones(2)])

    def test_pattern_dimension_checked_before_the_walk(self):
        # A k=5 pattern on a k=3 edge was charged a walk of 2^32 - 1
        # sub-supports, and refused, before its dimension was read.
        g = _formed_edge(3, 2, seed=3)
        with pytest.raises(ShapeMismatch, match="pattern dimension"):
            binomial_expansion_identity(g, [CubePattern.all_ones(5)])

    @pytest.mark.parametrize("r,n", [(2, 7), (3, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_terms_match_loop_oracle(self, r, n, seed):
        g = represent(_measure(n=n, seed=seed), r).weight_omitting(0)
        patterns = [p for p in _cube_patterns(r, 4, seed) if p.weight()]
        centered = g.centered()
        table = linform._flip_classes(r)
        vertices = cube_vertices(r)
        reports = binomial_expansion_identity(g, patterns)
        for pat, report in zip(patterns, reports):
            assert report.passed, report.failures()
            terms = _binomial_loop(g, pat)
            for subset, term in terms.items():
                rep = table[_mask(r, subset)]
                rep_support = [om for j, om in enumerate(vertices) if rep >> j & 1]
                rep_term = expect_product(linform._cube_factors(centered, rep_support))
                assert rep_term == pytest.approx(term, rel=1e-12, abs=1e-15)
            oracle = math.fsum([1.0, *terms.values()])
            assert report.ratios["centered-sum"] == pytest.approx(oracle, rel=1e-12)

    def test_untabled_dimension_matches_loop_oracle(self, monkeypatch):
        # k=5 has no class table (2^32 masks), so even a formed edge with
        # invertible coefficients is refused before any step is charged.
        g = _formed_edge(5, 2, seed=3)
        pat = _pattern_from_support(5, [(0,) * 5, (1, 0, 0, 0, 0), (1, 1, 0, 1, 1)])
        monkeypatch.setattr(linform, "check_budget", None)  # any charge raises
        with pytest.raises(NotRepresentation, match="k <= 4, got k=5"):
            binomial_expansion_identity(g, [pat])

    @pytest.mark.parametrize("k,weight", [(2, 4), (4, 16), (5, 3)], ids=["k2", "k4", "k5"])
    def test_walk_charged_before_any_expectation(self, monkeypatch, k, weight):
        # A table lookup per sub-support; the walk used to run uncharged.
        # Above k=4 there is no table, and no walk is charged.
        g = _formed_edge(k, 2, seed=k)
        pat = _pattern_from_support(k, cube_vertices(k)[:weight])
        estimate = 2.0**weight - 1.0
        monkeypatch.setattr(linform, "expect_product", None)  # any expectation raises
        if k > linform.MAX_CUBE_K:
            with pytest.raises(NotRepresentation):
                binomial_expansion_identity(g, [pat], budget=0.5)
            return
        with pytest.raises(BudgetExceeded) as err:
            binomial_expansion_identity(g, [pat], budget=estimate - 1.0)
        assert (err.value.estimated, err.value.power) == (estimate, 0)
        assert err.value.what == f"cube expansion walk (k={k}, 2^{weight} - 1 sub-supports)"
        monkeypatch.undo()
        (report,) = binomial_expansion_identity(g, [pat], budget=max(estimate, 1e7))
        assert report.passed, report.failures()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_expansion_charged_as_one_step(self, monkeypatch, k):
        # The pattern's expectations are charged together before any runs:
        # the sum of the charges each of them then makes on its own.
        g = _formed_edge(k, 3, seed=k)
        pat = CubePattern.all_ones(k)
        charges = []
        real = linform.check_budget

        def spy(estimated, budget=None, what="", power=0):
            charges.append((what, estimated))
            return real(estimated, budget, what, power)

        monkeypatch.setattr(linform, "check_budget", spy)
        binomial_expansion_identity(g, [pat])
        expansion = [e for what, e in charges if what.startswith("cube expansion (")]
        each = [e for what, e in charges if what.endswith("cube expectation")]
        assert expansion == [math.fsum(each)]
        monkeypatch.setattr(linform, "expect_product", None)  # any expectation raises
        with pytest.raises(BudgetExceeded) as err:
            binomial_expansion_identity(g, [pat], budget=expansion[0] - 1.0)
        assert err.value.what == f"cube expansion (k={k}, {len(each)} expectations)"

    def test_one_expectation_per_class_in_verify_suite(self, monkeypatch):
        # 8 classes under the whole cube group without a coloop at k=3 plus
        # 8 left-hand sides per seed; the 45 flip orbits made 53, and one
        # expectation per sub-support and pattern made 416.
        calls = []
        real = linform.expect_product

        def counted(*args, **kwargs):
            calls.append(kwargs.get("what"))
            return real(*args, **kwargs)

        monkeypatch.setattr(linform, "expect_product", counted)
        measures = []
        for seed in range(2):
            nu = _measure(n=5, seed=seed, p=0.5)
            measures.append((nu, represent(nu, 3)))
        report = cli._suite_cube(measures, 3, None)
        assert report.passed, report.failures()
        assert len(calls) == 2 * 16
        assert calls.count("cube expectation") == 2 * 8

    def test_second_identical_seed_hits_the_route_cache(self):
        # One seed of the r=4 cube suite routes 292 distinct structures: the
        # 285 classes without a coloop and 8 left-hand sides, one of which
        # has a class's structure (4,342 on the flip orbits).  The route and
        # plan caches hold them all, so an identical second seed plans none
        # of them again.
        nu = _measure(n=5, seed=0, p=0.5)
        measures = [(nu, represent(nu, 4))]
        caches = (linform._route, linform._plan)
        for cache in caches:
            cache.cache_clear()
        cli._suite_cube(measures, 4, None)
        first = [cache.cache_info() for cache in caches]
        cli._suite_cube(measures, 4, None)
        second = [cache.cache_info() for cache in caches]
        assert first[0].misses == 292
        assert [info.misses for info in second] == [info.misses for info in first]
        assert second[0].hits - first[0].hits >= first[0].misses

    def test_scaled_class_term_fails(self, monkeypatch):
        g = represent(_measure(n=5, seed=1), 3).weight_omitting(0)
        _fails_with_largest_term_scaled(monkeypatch, g)

    def test_scaled_class_term_fails_at_large_magnitude(self, monkeypatch):
        # The slack scales with the sides, TOL * max(1, |lhs|, |rhs|); at
        # sides near 1.2e8 a relative fault of 1e-6 in one term still fails.
        g = _formed_edge(2, 5, seed=2, scale=200.0)
        _fails_with_largest_term_scaled(monkeypatch, g)

    def test_roundoff_at_large_magnitude_passes(self):
        # Sides near 1.2e8 and 2.0e8 differ by roundoff alone (up to 3e-8
        # here, 1.5e-16 relative), which an absolute slack of TOL refused.
        margins = []
        for seed in (2, 3):
            g = _formed_edge(2, 5, seed=seed, scale=200.0)
            (report,) = binomial_expansion_identity(g, [CubePattern.all_ones(2)])
            assert report.passed, report.failures()
            margins.append(abs(report.checks[0].margin))
        assert max(margins) > TOL


def _slf_lhs_loop(inst: SlfInstance) -> float:
    """Independent loop oracle for the centered expectation at any r and
    either copy count: at each point of the distinguished edge, the
    centered weight times, for each copy of vertex 0, the mean over x_0 of
    that copy's minorant product."""
    w = inst.hypergraph
    n, r = w.system.dims[0], w.r
    nu0 = w.weight_omitting(0).values
    edges = [w.system.edge_omitting(j) for j in range(1, r + 1)]
    total = []
    for x in itertools.product(range(n), repeat=r):
        point = dict(enumerate(x, start=1))
        copy_means = []
        for c in inst.copies:
            products = []
            for x0 in range(n):
                point[0] = x0
                values = [inst.gs[(e, c)].values[tuple(point[v] for v in e)] for e in edges]
                products.append(math.prod(values))
            copy_means.append(math.fsum(products) / n)
        total.append((nu0[x] - 1.0) * math.prod(copy_means))
    return math.fsum(total) / n**r


def _q_loop_d1(inst: SlfInstance) -> float:
    """Loop oracle for the chain quantity with vertex 1 doubled (r = 2)."""
    w = inst.hypergraph
    n = w.system.dims[0]
    nu0 = w.weight_omitting(0).values
    g2 = {c: inst.gs[((0, 1), c)].values for c in (0, 1)}
    total = 0.0
    for x0a, x0b, x1a, x1b, x2 in itertools.product(range(n), repeat=5):
        prod = (nu0[x1a, x2] - 1.0) * (nu0[x1b, x2] - 1.0)
        for c, x0 in ((0, x0a), (1, x0b)):
            prod *= g2[c][x0, x1a] * g2[c][x0, x1b]
        total += prod
    return total / n**5


def _capped_halves(w: WeightedHypergraph, cap: Cap) -> tuple[dict, dict]:
    """Caps and minorants of a valid two-copy instance: every slot capped by
    ``cap`` and its minorant half the cap."""
    caps, gs = {}, {}
    for j in range(1, w.r + 1):
        edge = w.system.edge_omitting(j)
        dims = w.system.edge_dims(edge)
        values = w.weights[edge].values if cap is Cap.NU else np.ones(dims)
        for copy in (0, 1):
            caps[(edge, copy)] = cap
            gs[(edge, copy)] = EdgeFn(edge, dims, 0.5 * values)
    return caps, gs


def _instance_loop(w: WeightedHypergraph, seed: int, caps_mode: str, copies: int):
    """Oracle: the caps and minorant values of an instance, slot by slot
    from numpy's Generator(Philox(key=seed)), each slot its own requests: a
    scalar for a mixed cap, then the slot's uniforms scaled by its cap."""
    rng = philox(seed)
    caps, gs = {}, {}
    for j in range(1, w.r + 1):
        edge = w.system.edge_omitting(j)
        dims = w.system.edge_dims(edge)
        for copy in range(copies):
            if caps_mode == "mixed":
                cap = Cap.NU if rng.random() < 0.5 else Cap.ONE
            else:
                cap = Cap(caps_mode)
            base = w.weights[edge].values if cap is Cap.NU else np.ones(dims)
            caps[(edge, copy)] = cap
            gs[(edge, copy)] = base * rng.random(dims)
    return caps, gs


class TestRandomInstance:
    @pytest.mark.parametrize("caps_mode", ["mixed", "one", "nu"])
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("r,n", [(1, 7), (2, 7), (3, 5), (4, 5), (2, 97)])
    def test_single_request_equals_per_slot_draws(self, r, n, copies, caps_mode):
        w = represent(_measure(n=n, seed=r), r)
        seed = 10 * r + copies
        inst = random_slf_instance(w, seed, caps_mode, copies=copies)
        caps, gs = _instance_loop(w, seed, caps_mode, copies)
        assert list(inst.caps.items()) == list(caps.items())
        assert list(inst.gs) == list(gs)
        for key, values in gs.items():
            assert np.array_equal(inst.gs[key].values, values), key
        if n == 97:
            # Every slot is below the hand-off and the single request above it.
            words = sum(values.size for values in gs.values())
            assert n**r <= genmeasure._HANDOFF_WORDS < words


class TestSlfTwoCopy:
    @pytest.mark.parametrize("copies", [1, 2])
    def test_lhs_charged_the_work_done(self, copies):
        # One charge, the plan of the expectation's factors, below the
        # c (r+1) N^(r+1) products the copy-means evaluation formed.
        w = represent(_measure(n=5, seed=1), 2)
        charges = []

        def record(estimated, budget=None, what="", power=0):
            charges.append((estimated, what, power))
            return 1e8

        inst = random_slf_instance(w, 1, copies=copies)
        plan = linform._route(_structure(linform._slf_base(inst)[0]), ())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linform, "check_budget", record)
            q_value(inst, ())
        assert charges == [(plan.cost, "chain quantity at d=()", plan.power)]
        assert plan.cost < copies * 3 * 5.0**3

    def test_lhs_loop_oracle(self):
        # Both copy counts at every r up to 4.
        for r, n in ((1, 7), (2, 5), (3, 5), (4, 5)):
            w = represent(_measure(n=n, seed=r), r)
            for copies in (1, 2):
                inst = random_slf_instance(w, r, copies=copies)
                assert q_value(inst, ()) == pytest.approx(
                    _slf_lhs_loop(inst), rel=1e-10, abs=1e-14
                ), (r, copies)

    def test_lhs_equals_empty_chain_quantity(self):
        # The chain hands back q(()) from the same route as q_value, and
        # reports its absolute value.
        inst = _instance(seed=2)
        report, lhs = chain_verify(inst)
        assert lhs == q_value(inst, ())
        assert report.ratios["lhs"] == abs(lhs)

    def test_q_loop_oracle(self):
        inst = _instance(seed=3)
        assert q_value(inst, (1,)) == pytest.approx(_q_loop_d1(inst), rel=1e-10, abs=1e-14)

    def test_q_nonnegative_on_nonempty_subsets(self):
        for seed in range(4):
            inst = _instance(seed=seed)
            for d in ((1,), (2,), (1, 2)):
                assert q_value(inst, d) >= -1e-12

    def test_endpoint_is_box_power(self):
        inst = _instance(seed=4)
        centered = inst.hypergraph.weight_omitting(0).centered()
        expect = box_norm_brute(centered) ** 4
        assert q_value(inst, (1, 2)) == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_cs_step_inequality(self):
        for seed in range(4):
            inst = _instance(seed=seed)
            q_empty = q_value(inst, ())
            q1 = q_value(inst, (1,))
            stats = ybar_sq_expectation(inst, (), 1)
            slack = 1e-9 * max(1.0, abs(q_empty))
            assert q_empty**2 <= q1 * stats.mean_sq + slack

    def test_ybar_pointwise_bound_and_count(self):
        inst = _instance(seed=5)
        stats = ybar_sq_expectation(inst, (), 1)
        assert stats.factor_count == 2  # 2^(|d|+1) with d empty
        assert stats.mean_sq <= stats.sup_power_bound + 1e-12
        stats = ybar_sq_expectation(inst, (2,), 1)
        assert stats.factor_count == 4

    def test_invalid_subsets(self):
        inst = _instance()
        with pytest.raises(InvalidSubset):
            q_value(inst, (0,))
        with pytest.raises(InvalidSubset):
            q_value(inst, (3,))
        with pytest.raises(InvalidSubset):
            ybar_sq_expectation(inst, (1,), 1)

    def test_cap_violation_rejected(self):
        w = represent(_measure(seed=6), 2)
        caps = {}
        gs = {}
        for j in (1, 2):
            edge = w.system.edge_omitting(j)
            for copy in (0, 1):
                caps[(edge, copy)] = Cap.ONE
                gs[(edge, copy)] = EdgeFn.ones(edge, w.system.edge_dims(edge))
        bad_edge = w.system.edge_omitting(1)
        gs[(bad_edge, 0)] = EdgeFn(
            bad_edge, w.system.edge_dims(bad_edge), np.full((5, 5), 1.2)
        )
        with pytest.raises(CapViolation):
            SlfInstance(w, caps, gs)

    def test_negative_minorant_rejected(self):
        w = represent(_measure(seed=6), 2)
        caps, gs = _capped_halves(w, Cap.ONE)
        edge = w.system.edge_omitting(2)
        values = gs[(edge, 1)].values.copy()
        values[1, 3] = -1e-300
        gs[(edge, 1)] = EdgeFn(edge, values.shape, values)
        with pytest.raises(CapViolation, match=re.escape(f"minorant at {edge} copy 1 is negative")):
            SlfInstance(w, caps, gs)

    def test_minorant_above_its_nu_cap_at_one_point_rejected(self):
        # At a zero of the weight a minorant of 0.5 lies under the constant
        # one but above its cap.
        w = represent(_measure(seed=6), 2)
        caps, gs = _capped_halves(w, Cap.NU)
        edge = w.system.edge_omitting(1)
        cap = w.weights[edge].values
        SlfInstance(w, caps, {**gs, (edge, 0): EdgeFn(edge, cap.shape, cap)})
        point = np.unravel_index(np.argmin(cap), cap.shape)
        assert cap[point] == 0.0
        values = gs[(edge, 0)].values.copy()
        values[point] = 0.5
        gs[(edge, 0)] = EdgeFn(edge, cap.shape, values)
        with pytest.raises(CapViolation, match=re.escape(f"minorant at {edge} copy 0 exceeds its cap")):
            SlfInstance(w, caps, gs)

    @pytest.mark.parametrize("wrong", ["edge", "dims"])
    def test_minorant_of_wrong_edge_or_dims_rejected(self, wrong):
        w = represent(_measure(seed=6), 2)
        caps, gs = _capped_halves(w, Cap.ONE)
        edge = w.system.edge_omitting(1)
        if wrong == "edge":
            gs[(edge, 1)] = gs[(w.system.edge_omitting(2), 1)]
        else:
            gs[(edge, 1)] = EdgeFn(edge, (5, 4), np.full((5, 4), 0.5))
        with pytest.raises(ShapeMismatch, match=re.escape(f"minorant at {edge} copy 1 has wrong shape")):
            SlfInstance(w, caps, gs)

    def test_chain_verify_passes(self):
        for seed in range(3):
            inst = _instance(seed=seed)
            report, _ = chain_verify(inst)
            assert report.passed, report.failures()
            assert "composed-bound" in report.ratios
            assert abs(report.ratios["lhs"]) <= report.ratios["composed-bound"] + 1e-9

    def test_chain_verify_r3(self):
        w = represent(_measure(seed=7), 3)
        report, _ = chain_verify(random_slf_instance(w, 7))
        assert report.passed, report.failures()

    def test_random_instance_deterministic(self):
        a = _instance(seed=8)
        b = _instance(seed=8)
        for key in a.gs:
            assert np.array_equal(a.gs[key].values, b.gs[key].values)
            assert a.caps[key] == b.caps[key]

    def test_forced_cap_modes(self):
        one = _instance(seed=9, caps="one")
        assert all(cap == Cap.ONE for cap in one.caps.values())
        nu = _instance(seed=9, caps="nu")
        assert all(cap == Cap.NU for cap in nu.caps.values())


def _single_lhs_loop(inst: SlfInstance) -> float:
    w = inst.hypergraph
    n = w.system.dims[0]
    nu0 = w.weight_omitting(0).values
    g1 = inst.gs[((0, 2), 0)].values
    g2 = inst.gs[((0, 1), 0)].values
    total = 0.0
    for x0, x1, x2 in itertools.product(range(n), repeat=3):
        total += (nu0[x1, x2] - 1.0) * g1[x0, x2] * g2[x0, x1]
    return total / n**3


def _q_single_loop_d1(inst: SlfInstance) -> float:
    """Loop oracle for the single-copy chain quantity with vertex 1 doubled
    (r = 2): the edge omitting 1 is split off and vertex 0 stays shared."""
    w = inst.hypergraph
    n = w.system.dims[0]
    nu0 = w.weight_omitting(0).values
    g2 = inst.gs[((0, 1), 0)].values
    total = 0.0
    for x0, x1a, x1b, x2 in itertools.product(range(n), repeat=4):
        total += (
            (nu0[x1a, x2] - 1.0) * (nu0[x1b, x2] - 1.0) * g2[x0, x1a] * g2[x0, x1b]
        )
    return total / n**4


class TestSlfSingleCopy:
    def test_lhs_loop_oracle(self):
        w = represent(_measure(seed=11), 2)
        inst = random_slf_instance(w, 11, copies=1)
        assert q_value(inst, ()) == pytest.approx(
            _single_lhs_loop(inst), rel=1e-10, abs=1e-14
        )

    def test_lhs_equals_empty_chain_quantity(self):
        # The chain hands back q(()) from the same route as q_value, and
        # reports its absolute value.
        w = represent(_measure(seed=12), 2)
        inst = random_slf_instance(w, 12, copies=1)
        report, lhs = single_chain_verify(inst)
        assert lhs == q_value(inst, ())
        assert report.ratios["lhs"] == abs(lhs)

    def test_q_loop_oracle(self):
        w = represent(_measure(n=5, seed=15), 2)
        inst = random_slf_instance(w, 15, copies=1)
        assert q_value(inst, (1,)) == pytest.approx(
            _q_single_loop_d1(inst), rel=1e-10, abs=1e-14
        )

    def test_draw_order_pinned(self):
        # The single-copy stream draws the two-copy slots without the copy-1
        # ones; the first minorant value for seed 11 is pinned.
        w = represent(_measure(seed=11), 2)
        inst = random_slf_instance(w, 11, copies=1)
        assert inst.copies == (0,)
        assert inst.gs[((0, 2), 0)].values.flat[0] == 1.711571533648263

    def test_copies_validated(self):
        w = represent(_measure(seed=16), 2)
        with pytest.raises(ValueError):
            random_slf_instance(w, 16, copies=3)
        inst = random_slf_instance(w, 16, copies=1)
        shifted = {(edge, 1): g for (edge, _), g in inst.gs.items()}
        caps = {(edge, 1): cap for (edge, _), cap in inst.caps.items()}
        with pytest.raises(ShapeMismatch):
            SlfInstance(w, caps, shifted)

    def test_factor_count_halved(self):
        w = represent(_measure(seed=13), 2)
        inst = random_slf_instance(w, 13, copies=1)
        stats = ybar_sq_expectation(inst, (), 1)
        assert stats.factor_count == 1  # 2^|d| with d empty
        stats = ybar_sq_expectation(inst, (2,), 1)
        assert stats.factor_count == 2

    def test_chain_verify_passes(self):
        for seed in range(3):
            w = represent(_measure(seed=seed), 2)
            report, _ = single_chain_verify(random_slf_instance(w, seed, copies=1))
            assert report.passed, report.failures()

    def test_endpoint_is_box_power(self):
        w = represent(_measure(seed=14), 2)
        inst = random_slf_instance(w, 14, copies=1)
        centered = w.weight_omitting(0).centered()
        assert q_value(inst, (1, 2)) == pytest.approx(
            box_norm_brute(centered) ** 4, rel=1e-9, abs=1e-12
        )


def _nu_prime_loop(w) -> np.ndarray:
    n = w.system.dims[0]
    nu1 = w.weight_omitting(1).values  # axes (x0, x2)
    nu2 = w.weight_omitting(2).values  # axes (x0, x1)
    out = np.zeros((n, n))
    for x1 in range(n):
        for x2 in range(n):
            out[x1, x2] = (
                math.fsum(nu1[x0, x2] * nu2[x0, x1] for x0 in range(n)) / n
            )
    return out


class TestNuPrime:
    def test_loop_oracle(self):
        w = represent(_measure(seed=15), 2)
        prime = nu_prime(w)
        assert prime.edge == (1, 2)
        assert np.max(np.abs(prime.values - _nu_prime_loop(w))) < 1e-12

    def test_l2_dev_matches_direct(self):
        w = represent(_measure(seed=16), 2)
        prime = nu_prime(w)
        direct = float(np.mean((prime.values - 1.0) ** 2))
        assert nu_prime_l2_dev(prime) == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_constant_measure_dev_is_zero(self):
        w = represent(generate(GeneratorSpec(kind="constant", n=5)), 2)
        assert nu_prime_l2_dev(nu_prime(w)) == 0.0


class TestLf2:
    def test_all_ones_is_second_moment(self):
        w = represent(_measure(seed=17), 2)
        prime = nu_prime(w)
        direct = float(np.mean(prime.values**2))
        got = lf2_expectation(w, Lf2Exponents.all_ones(2))
        assert got == pytest.approx(direct, rel=1e-10)

    def test_term_loop_oracle(self):
        w = represent(_measure(seed=18), 2)
        n = w.system.dims[0]
        nu1 = w.weight_omitting(1).values
        nu2 = w.weight_omitting(2).values
        total = 0.0
        for x0a, x0b, x1, x2 in itertools.product(range(n), repeat=4):
            total += (
                (nu1[x0a, x2] - 1.0)
                * nu1[x0b, x2]
                * nu2[x0a, x1]
                * nu2[x0b, x1]
            )
        expect = total / n**4
        got = lf2_term(w, 1, Lf2Exponents.all_ones(2))
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-14)

    def test_copy_swap_symmetry(self):
        w = represent(_measure(seed=19), 2)
        exps = Lf2Exponents.from_bits(2, [1, 0, 1, 1])
        a = lf2_expectation(w, exps)
        b = lf2_expectation(w, exps.swapped_copies())
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_telescoping(self, seed):
        w = represent(_measure(seed=seed), 2)
        report = lf2_telescoping(w, Lf2Exponents.all_ones(2))
        assert report.passed, report.failures()

    def test_telescoping_partial_exponents(self):
        w = represent(_measure(seed=20), 2)
        report = lf2_telescoping(w, Lf2Exponents.from_bits(2, [1, 1, 0, 1]))
        assert report.passed, report.failures()

    @pytest.mark.parametrize("j", [1, 2])
    def test_chain(self, j):
        w = represent(_measure(seed=21), 2)
        report = lf2_chain_verify(w, j, Lf2Exponents.all_ones(2))
        assert report.passed, report.failures()
        assert "composed-bound" in report.ratios

    def test_chain_r3(self):
        w = represent(_measure(seed=22), 3)
        report = lf2_chain_verify(w, 2, Lf2Exponents.all_ones(3))
        assert report.passed, report.failures()

    def test_term_index_validated(self):
        w = represent(_measure(seed=23), 2)
        with pytest.raises(InvalidSubset):
            lf2_term(w, 0, Lf2Exponents.all_ones(2))
        with pytest.raises(InvalidSubset):
            lf2_term(w, 3, Lf2Exponents.all_ones(2))

    def test_exponent_table_validated(self):
        with pytest.raises(ShapeMismatch):
            Lf2Exponents.from_bits(2, [1, 1, 1])
        with pytest.raises(ShapeMismatch):
            Lf2Exponents(2, {((1, 2), 0): 1})

    def test_constant_degeneracy(self):
        w = represent(generate(GeneratorSpec(kind="constant", n=5)), 2)
        exps = Lf2Exponents.all_ones(2)
        assert lf2_expectation(w, exps) == 1.0
        assert lf2_term(w, 1, exps) == 0.0


def _chain_factors(kind: str, w: WeightedHypergraph, seed: int):
    """(factors, d, oracle) for every quantity the chain of a random
    instance routes through ``expect_product``; each oracle is a thunk that runs
    on the planner alone."""
    r = w.r
    out = []
    if kind == "lf2":
        exps = Lf2Exponents.all_ones(r)
        ej = w.system.edge_omitting(1 + seed % r)
        # The chain of the plain factors, which the router serves.
        base = caps = [f[:2] for f in linform._lf2_factors(w, ej, exps)]
        others = tuple(v for v in ej if v != 0)
        sets = [others[:t] for t in range(len(others) + 1)]
        plain = [(v, None) for v in ej]
        for fs in ([(base[0][0], plain)], [(w.weights[ej].values, plain)]):
            out.append((fs, ej, functools.partial(linform._on_planner, fs, ej)))
    else:
        inst = random_slf_instance(w, seed, copies=1 if kind == "slf-single" else 2)
        base, caps = linform._slf_base(inst)
        sets = [d for size in range(r + 1) for d in itertools.combinations(range(1, r + 1), size)]
    for d in sets:
        kept = linform._kept(base, d)
        if kind == "lf2":
            out.append((kept, d, functools.partial(linform._on_planner, kept, d)))
        else:
            out.append((kept, d, functools.partial(q_value, inst, d)))
        for j in sets[-1]:
            if j in d or tuple(sorted(d + (j,))) not in sets:
                continue
            fs = linform._missing(caps, j)
            if kind == "lf2":
                mean = functools.partial(linform._on_planner, fs, d)
                mean_sq = functools.partial(linform._on_planner, fs + fs, d)
            else:
                mean = functools.partial(_ybar_moment, inst, d, j, "mean")
                mean_sq = functools.partial(_ybar_moment, inst, d, j, "mean_sq")
            out += [(fs, d, mean), (fs + fs, d, mean_sq)]
    return out


def _ybar_moment(inst: SlfInstance, d: tuple, j: int, name: str) -> float:
    return getattr(ybar_sq_expectation(inst, d, j), name)


def _chain_quantities(kind: str, r: int, n: int, seed: int):
    """``_chain_factors`` of a random measure, each oracle evaluated."""
    w = represent(generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=seed)), r)
    return [(fs, d, oracle()) for fs, d, oracle in _chain_factors(kind, w, seed)]


def _structure(factors):
    return tuple((arr.shape, tuple(axes)) for arr, axes in factors)


class TestDoubledRouter:
    """``expect_product`` and its box route against the planner, which stays the
    oracle of every chain quantity."""

    @given(
        st.sampled_from(["slf", "slf-single", "lf2"]),
        st.sampled_from([(2, 5), (2, 7), (3, 5)]),
        st.integers(0, 2**16),
    )
    def test_matches_the_planner_at_every_d(self, kind, rn, seed):
        try:
            quantities = _chain_quantities(kind, *rn, seed)
        except EmptySetGenerated:
            assume(False)
        for factors, d, oracle in quantities:
            assert expect_product(factors, d=d) == pytest.approx(oracle, rel=1e-12)
            if d:
                layout = linform._box_layout(_structure(factors), d)
                box = linform._box_route(factors, layout)
                assert box == pytest.approx(oracle, rel=1e-12)
                split = linform._split_layout(_structure(factors), d)
                if split is not None:
                    got = linform._split_route(factors, split)
                    assert got == pytest.approx(oracle, rel=1e-12)

    def test_block_size_does_not_change_the_value(self, monkeypatch):
        # Two-copy r=3 at d=(1,): z = (x0 copy 0, x0 copy 1, x2, x3), so F
        # has 11^5 elements at N=11, walked in 11 blocks or one z point at a
        # time.
        inst = random_slf_instance(represent(_measure(n=11, seed=5), 3), 5)
        factors = linform._kept(linform._slf_base(inst)[0], (1,))
        route_key = _structure(factors)
        route = linform._route(route_key, (1,))
        assert isinstance(route, linform._BoxLayout)  # the box route
        whole = expect_product(factors, d=(1,))
        monkeypatch.setattr(linform, "_CHUNK_ELEMS", 1)
        monkeypatch.setattr(gowersnorm, "_CHUNK_ELEMS", 1)
        # A fresh route cache, so that the layout is built again in blocks.
        monkeypatch.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        assert linform._route(route_key, (1,)).fixed == (11,) * 4
        assert expect_product(factors, d=(1,)) == whole

    def test_charge_is_the_box_route(self):
        # Single copy, r=4, N=11, d=(1,2,3): z = (x0, x4), so F takes
        # 2 * 11^5 products and the recursion 11^2 * 11^6 / 11; the planner
        # would charge 2.59e8.
        inst = random_slf_instance(represent(_measure(n=11, seed=6), 4), 6, copies=1)
        factors = linform._kept(linform._slf_base(inst)[0], (1, 2, 3))
        with pytest.raises(BudgetExceeded) as exc:
            expect_product(factors, budget=1e7, d=(1, 2, 3))
        assert exc.value.estimated == 2 * 11.0**5 + 11.0**7
        assert exc.value.power == 7

    def test_memory_stays_within_blocks(self):
        # Built whole, F and the first pairs of the recursion peak near 5 MB.
        inst = random_slf_instance(represent(_measure(n=11, seed=7), 4), 7, copies=1)
        factors = linform._kept(linform._slf_base(inst)[0], (1, 2, 3))
        tracemalloc.start()
        try:
            expect_product(factors, d=(1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_route_taken(self):
        # At r=4, N=7 the split route wins only for the two-copy chain
        # quantity at |d| = r-1, whose z falls into three components: x4 of
        # the centered weight and copy 0 and copy 1 of x0 of the minorants.
        w = represent(_measure(n=7, seed=8), 4)
        routes = {}
        for kind in ("slf", "slf-single", "lf2"):
            for factors, d, _ in _chain_factors(kind, w, 8):
                kind_of = type(linform._route(_structure(factors), d)).__name__
                routes.setdefault(kind_of, set()).add((kind, d, len(factors)))
        assert routes["_SplitLayout"] == {
            ("slf", d, 3) for d in itertools.combinations(range(1, 5), 3)
        }

    def test_split_block_size_does_not_change_the_value(self, monkeypatch):
        # Two-copy r=4, N=11, d=(1,2,3): each marginal row holds 11^5
        # elements, more than a block, so one row per block either way; a
        # one-element block keeps it at one row.
        factors = _two_copy_r4()
        route_key = _structure(factors)
        assert isinstance(linform._route(route_key, (1, 2, 3)), linform._SplitLayout)
        whole = expect_product(factors, d=(1, 2, 3))
        monkeypatch.setattr(linform, "_CHUNK_ELEMS", 1)
        monkeypatch.setattr(gowersnorm, "_CHUNK_ELEMS", 1)
        monkeypatch.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        assert linform._route(route_key, (1, 2, 3)).rows == 1
        assert expect_product(factors, d=(1, 2, 3)) == whole

    def test_split_rows_per_block(self, monkeypatch):
        # At N=7 a default block holds three rows of 7^5 marginal elements;
        # walking one row at a time gives the same bits.
        factors = _two_copy_r4(n=7)
        layout = linform._split_layout(_structure(factors), (1, 2, 3))
        assert layout.rows == 3
        whole = linform._split_route(factors, layout)
        one_row = dataclasses.replace(layout, rows=1)
        assert linform._split_route(factors, one_row) == whole

    def test_charge_is_the_split_route(self):
        # Three components, each of one factor over one z variable: per
        # component 11^4 to build F, 11^4 (11 + 11^2) to pair x1 and x2 and
        # 11^7 for the Gram, plus 11^6 for its share of the product; the box
        # route would charge 3 * 11^6 + 11^8 = 2.20e8.
        factors = _two_copy_r4()
        with pytest.raises(BudgetExceeded) as exc:
            expect_product(factors, budget=1e7, d=(1, 2, 3))
        n = 11
        assert exc.value.estimated == 3.0 * (n**4 + n**5 + n**6 + n**7) + 3.0 * n**6
        assert exc.value.power == 7

    def test_split_memory_stays_within_blocks(self):
        factors = _two_copy_r4()
        tracemalloc.start()
        try:
            expect_product(factors, d=(1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_nonempty_d_never_plans(self, monkeypatch):
        # At nonempty d the router chooses between the box and split routes
        # only; the plan serves d=() and the planner oracle.
        class PlanBuilt(Exception):
            pass

        def refuse(*args, **kwargs):
            raise PlanBuilt

        w = represent(_measure(n=5, seed=9), 3)
        quantities = [
            (factors, d)
            for kind in ("slf", "slf-single", "lf2")
            for factors, d, _ in _chain_factors(kind, w, 9)
            if d
        ]
        monkeypatch.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        monkeypatch.setattr(linform, "_plan", refuse)
        for factors, d in quantities:
            expect_product(factors, d=d)

    @pytest.mark.parametrize(
        "axes",
        [[(1, 0), (2, None)], [(2, None), (3, None)]],
        ids=["reads-a-copy-of-d", "d-unread"],
    )
    def test_malformed_doubled_structure(self, axes):
        # Neither has a box or split route; neither may fall back to the plan.
        with pytest.raises(ShapeMismatch):
            expect_product([(np.ones((3, 3)), axes)], d=(1,))


def _two_copy_r4(n: int = 11) -> list:
    """The two-copy chain quantity's factors at r=4, d=(1,2,3)."""
    inst = random_slf_instance(represent(_measure(n=n, seed=9), 4), 9)
    return linform._kept(linform._slf_base(inst)[0], (1, 2, 3))
