"""Centered product expectations, Cauchy-Schwarz chains, and the
doubled-origin engines, each validated against explicit loop oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import gowers.gowersnorm as gowersnorm
import gowers.linform as linform
from conftest import philox
from gowers import (
    AllZeroPattern,
    BudgetExceeded,
    Cap,
    CapViolation,
    CubePattern,
    EdgeFn,
    EmptySetGenerated,
    GeneratorSpec,
    InvalidSubset,
    Lf2Exponents,
    ShapeMismatch,
    SlfInstance,
    ap_density,
    binomial_expansion_identity,
    box_norm,
    box_norm_brute,
    chain_verify,
    cube_centered_expectation,
    cube_expectation,
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
    relabel,
    represent,
    single_chain_verify,
    slf_lhs,
    u_norm_fast,
    ybar_sq_expectation,
)


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
            expect_product(factors)
        assert len(charges) == 1
        assert charges[0] <= math.prod(sizes.values()) * len(factors)

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
        # box_norm is the runtime side of norm preservation and of the
        # endpoint check, so it may share no evaluation code with the
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
            (gowersnorm, "_box_einsum"),
            (gowersnorm, "_u_pows"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = box_norm(centered)
        monkeypatch.undo()
        assert got == pytest.approx(box_norm_brute(centered), rel=1e-9)
        assert got == pytest.approx(u_norm_fast(nu.centered(), 2), rel=1e-9)

    def test_endpoint_oracle_computes_without_the_box_recursion(self, monkeypatch):
        # Once q(e0) runs the box recursion, the endpoint of a represented
        # hypergraph must be checked against the difference recursion.
        class BoxRecursionCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise BoxRecursionCalled

        w = represent(_measure(n=7, seed=2), 3)
        for module, name in (
            (linform, "_box_pows"),
            (linform, "box_norm"),
            (gowersnorm, "_box_pows"),
            (gowersnorm, "box_norm"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = linform._endpoint_box_power(w, None)
        with pytest.raises(BoxRecursionCalled):
            linform._endpoint_box_power(relabel(w, (0, 1, 2, 3)), None)
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
            (linform, "expect_product"),
            (linform, "_run"),
            (linform, "u_norm_fast"),
            (gowersnorm, "u_norm_fast"),
            (gowersnorm, "_u_pows"),
            (np, "einsum"),
        ):
            monkeypatch.setattr(module, name, refuse)
        got = linform._doubled(factors, e0)
        monkeypatch.undo()
        assert got == pytest.approx(q_value(inst, e0), rel=1e-12)

    def test_spectral_engines_compute_without_the_chain_routes(self, monkeypatch):
        # ap_density and u_norm_fast are the oracles of the progression and
        # endpoint checks, so neither may reach the planner or the box route.
        class ChainRouteCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise ChainRouteCalled

        nu = _measure(n=7, seed=5)
        expect = (ap_density([nu.fn] * 4), u_norm_fast(nu.centered(), 3))
        for module, name in (
            (linform, "expect_product"),
            (linform, "_run"),
            (linform, "_box_route"),
            (linform, "_box_pows"),
            (gowersnorm, "_box_pows"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert (ap_density([nu.fn] * 4), u_norm_fast(nu.centered(), 3)) == expect

    @pytest.mark.parametrize("represented", [True, False])
    def test_endpoint_route_depends_on_the_oracle(self, represented, monkeypatch):
        # A hand-built hypergraph has no forms to recover nu from, so its
        # endpoint oracle is box_norm and q(e0) must stay on the planner.
        w = represent(_measure(n=5, seed=4), 2)
        if not represented:
            w = relabel(w, (0, 1, 2))
        routed = []
        real = linform._doubled

        def spy(factors, d, *args, **kwargs):
            routed.append(d)
            return real(factors, d, *args, **kwargs)

        monkeypatch.setattr(linform, "_doubled", spy)
        report = chain_verify(random_slf_instance(w, 4, copies=1))
        assert report.passed, report.failures()
        assert ((1, 2) in routed) is represented


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
        rng = philox(10)
        g = EdgeFn((1, 2), (3, 4), 0.5 + rng.random((3, 4)))
        pat = CubePattern.from_string("1011")
        centered = EdgeFn((1, 2), (3, 4), g.values - 1.0)
        assert cube_centered_expectation(g, pat) == pytest.approx(
            _cube_loop(centered, pat), rel=1e-10, abs=1e-14
        )

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
        pat = CubePattern.from_support(2, [(0, 0), (1, 1)])
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
            report = binomial_expansion_identity(g, CubePattern.from_string(bits))
            assert report.passed, report.failures()


def _slf_lhs_loop(inst: SlfInstance) -> float:
    """Independent loop oracle for the two-copy centered expectation."""
    w = inst.hypergraph
    n = w.system.dims[0]
    nu0 = w.weight_omitting(0).values
    g1 = {c: inst.gs[((0, 2), c)].values for c in (0, 1)}  # axes (x0, x2)
    g2 = {c: inst.gs[((0, 1), c)].values for c in (0, 1)}  # axes (x0, x1)
    total = 0.0
    for x1 in range(n):
        for x2 in range(n):
            copy_means = []
            for c in (0, 1):
                copy_means.append(
                    math.fsum(g1[c][x0, x2] * g2[c][x0, x1] for x0 in range(n)) / n
                )
            total += (nu0[x1, x2] - 1.0) * copy_means[0] * copy_means[1]
    return total / n**2


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


class TestSlfTwoCopy:
    @pytest.mark.parametrize("copies", [1, 2])
    def test_lhs_charged_the_work_done(self, copies):
        # r + 1 products per point of (x_0, x_1, x_2) and copy: c (r+1) N^(r+1).
        w = represent(_measure(n=5, seed=1), 2)
        charges = []

        def record(estimated, budget=None, what="", power=0):
            charges.append((estimated, what, power))
            return 1e8

        inst = random_slf_instance(w, 1, copies=copies)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linform, "check_budget", record)
            slf_lhs(inst)
        assert charges == [(copies * 3 * 5.0**3, "strong-linear-forms expectation", 3)]

    def test_lhs_loop_oracle(self):
        inst = _instance(seed=1)
        assert slf_lhs(inst) == pytest.approx(_slf_lhs_loop(inst), rel=1e-10, abs=1e-14)

    def test_lhs_equals_empty_chain_quantity(self):
        inst = _instance(seed=2)
        assert slf_lhs(inst) == pytest.approx(q_value(inst, ()), rel=1e-10, abs=1e-14)

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

    def test_chain_verify_passes(self):
        for seed in range(3):
            inst = _instance(seed=seed)
            report = chain_verify(inst)
            assert report.passed, report.failures()
            assert "composed-bound" in report.ratios
            assert abs(report.ratios["lhs"]) <= report.ratios["composed-bound"] + 1e-9

    def test_chain_verify_r3(self):
        w = represent(_measure(seed=7), 3)
        report = chain_verify(random_slf_instance(w, 7))
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
        w = represent(_measure(seed=12), 2)
        inst = random_slf_instance(w, 12, copies=1)
        assert slf_lhs(inst) == pytest.approx(
            q_value(inst, ()), rel=1e-10, abs=1e-14
        )

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
            report = single_chain_verify(random_slf_instance(w, seed, copies=1))
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
        assert nu_prime_l2_dev(w) == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_constant_measure_dev_is_zero(self):
        w = represent(generate(GeneratorSpec(kind="constant", n=5)), 2)
        assert nu_prime_l2_dev(w) == 0.0


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


def _chain_quantities(kind: str, r: int, n: int, seed: int):
    """(factors, d, oracle) for every quantity the chain of a random
    instance routes through ``_doubled``; each oracle runs on the planner
    alone."""
    w = represent(generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=seed)), r)
    out = []
    if kind == "lf2":
        exps = Lf2Exponents.all_ones(r)
        ej = w.system.edge_omitting(1 + seed % r)
        base = caps = linform._lf2_factors(w, ej, exps)
        others = tuple(v for v in ej if v != 0)
        sets = [others[:t] for t in range(len(others) + 1)]
        plain = [(v, None) for v in ej]
        for fs in ([(base[0][0], plain)], [(w.weights[ej].values, plain)]):
            out.append((fs, ej, expect_product(linform._double(fs, ej))))
    else:
        inst = random_slf_instance(w, seed, copies=1 if kind == "slf-single" else 2)
        base, caps = linform._slf_base(inst)
        sets = [d for size in range(r + 1) for d in itertools.combinations(range(1, r + 1), size)]
    for d in sets:
        kept = linform._kept(base, d)
        oracle = q_value(inst, d) if kind != "lf2" else expect_product(linform._double(kept, d))
        out.append((kept, d, oracle))
        for j in sets[-1]:
            if j in d or tuple(sorted(d + (j,))) not in sets:
                continue
            fs = linform._missing(caps, j)
            if kind == "lf2":
                mean = expect_product(linform._double(fs, d))
                mean_sq = expect_product(linform._double(fs + fs, d))
            else:
                stats = ybar_sq_expectation(inst, d, j)
                mean, mean_sq = stats.mean, stats.mean_sq
            out += [(fs, d, mean), (fs + fs, d, mean_sq)]
    return out


class TestDoubledRouter:
    """``_doubled`` and its box route against the planner, which stays the
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
            assert linform._doubled(factors, d) == pytest.approx(oracle, rel=1e-12)
            if d:
                box = linform._box_route(factors, d)
                assert box == pytest.approx(oracle, rel=1e-12)

    def test_block_size_does_not_change_the_value(self, monkeypatch):
        # Two-copy r=3 at d=(1,): z = (x0 copy 0, x0 copy 1, x2, x3), so F
        # has 11^5 elements at N=11, walked in 11 blocks or one z point at a
        # time.
        inst = random_slf_instance(represent(_measure(n=11, seed=5), 3), 5)
        factors = linform._kept(linform._slf_base(inst)[0], (1,))
        route = linform._route(tuple((a.shape, tuple(ax)) for a, ax in factors), (1,))
        assert route[0] is None  # the box route
        whole = linform._doubled(factors, (1,))
        monkeypatch.setattr(linform, "_CHUNK_ELEMS", 1)
        monkeypatch.setattr(gowersnorm, "_CHUNK_ELEMS", 1)
        assert linform._doubled(factors, (1,)) == whole

    def test_charge_is_the_box_route(self):
        # Single copy, r=4, N=11, d=(1,2,3): z = (x0, x4), so F takes
        # 2 * 11^5 products and the recursion 11^2 * 11^6 / 11; the planner
        # would charge 2.59e8.
        inst = random_slf_instance(represent(_measure(n=11, seed=6), 4), 6, copies=1)
        factors = linform._kept(linform._slf_base(inst)[0], (1, 2, 3))
        with pytest.raises(BudgetExceeded) as exc:
            linform._doubled(factors, (1, 2, 3), budget=1e7)
        assert exc.value.estimated == 2 * 11.0**5 + 11.0**7
        assert exc.value.power == 7

    def test_memory_stays_within_blocks(self):
        # Built whole, F and the first pairs of the recursion peak near 5 MB.
        inst = random_slf_instance(represent(_measure(n=11, seed=7), 4), 7, copies=1)
        factors = linform._kept(linform._slf_base(inst)[0], (1, 2, 3))
        tracemalloc.start()
        try:
            linform._doubled(factors, (1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
