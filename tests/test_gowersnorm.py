"""Uniformity norms, box norms, and the product-form bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gowers.gowersnorm as gowersnorm
from conftest import philox, random_cyclic, random_edge_fn
from gowers import (
    BudgetExceeded,
    CyclicFn,
    EdgeFn,
    NumericalInconsistency,
    ShapeMismatch,
    box_norm,
    box_norm_brute,
    clamp_cube_average,
    cube_vertices,
    from_set,
    gcs_verify,
    mixed_cube_expectation,
    u_norm_brute,
    u_norm_fast,
)

# Frozen reference values.  The cosine second-order norm was established by a
# quadruple loop in plain Python before being pinned here: the normalized
# spectrum of cos has two coefficients of modulus 1/2, so the fourth power of
# the norm is 2 * (1/2)^4 = 1/8.
COS16_U2 = 0.5946035575013605


class TestUNormExamples:
    def test_constant_all_orders(self):
        f = CyclicFn.constant(12, 1.0)
        for k in (1, 2, 3, 4):
            assert u_norm_fast(f, k) == pytest.approx(1.0, rel=1e-12)
        for k in (1, 2, 3):
            assert u_norm_brute(f, k) == pytest.approx(1.0, rel=1e-12)

    def test_cosine_second_order(self):
        f = CyclicFn(16, np.cos(2 * np.pi * np.arange(16) / 16))
        assert u_norm_fast(f, 2) == pytest.approx(COS16_U2, rel=1e-12)
        assert u_norm_brute(f, 2) == pytest.approx(COS16_U2, rel=1e-12)
        assert COS16_U2 == pytest.approx((1 / 8) ** 0.25, rel=1e-15)

    @pytest.mark.parametrize("n", [5, 8, 13])
    def test_point_mass(self, n):
        # The normalized point mass has a flat spectrum, so the second-order
        # norm is n^(1/4).
        nu = from_set({0}, n)
        assert u_norm_fast(nu.fn, 2) == pytest.approx(n**0.25, rel=1e-12)
        assert u_norm_brute(nu.fn, 2) == pytest.approx(n**0.25, rel=1e-12)

    def test_first_order_is_mean(self):
        f = random_cyclic(9, seed=4, low=0.2, high=1.0)
        assert u_norm_fast(f, 1) == pytest.approx(f.mean(), rel=1e-12)
        assert u_norm_brute(f, 1) == pytest.approx(f.mean(), rel=1e-9)

    def test_recursion_base_agreement(self):
        # Fourth order exercises the recursive branch of the fast route.
        f = random_cyclic(8, seed=11, low=-1.0, high=1.0)
        direct = u_norm_fast(f, 4)
        total = math.fsum(
            u_norm_fast(CyclicFn(8, f.values * np.roll(f.values, -h)), 3) ** 8
            for h in range(8)
        )
        assert direct == pytest.approx((total / 8) ** (1 / 16), rel=1e-10)


class TestDualRoute:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agreement_positive(self, seed, k):
        n = (8, 11, 16)[seed % 3]
        f = random_cyclic(n, seed=seed, low=0.0, high=1.0)
        b = u_norm_brute(f, k)
        assert u_norm_fast(f, k) == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [2, 3])
    def test_agreement_signed(self, seed, k):
        f = random_cyclic(12, seed=100 + seed, low=-1.0, high=1.0)
        b = u_norm_brute(f, k)
        assert u_norm_fast(f, k) == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_chunked_brute_matches_small(self):
        # Large enough that the brute route splits into several chunks.
        f = random_cyclic(64, seed=8, low=0.0, high=1.0)
        assert u_norm_brute(f, 2) == pytest.approx(u_norm_fast(f, 2), rel=1e-9)


class TestFastRecursion:
    @pytest.mark.parametrize("n,k", [(13, 3), (31, 3), (13, 4), (31, 4), (11, 5)])
    def test_block_size_keeps_every_bit(self, monkeypatch, n, k):
        # The spectral base case and the per-row sums work row by row, so
        # walking one h per block changes no bit of the result.
        f = random_cyclic(n, seed=n + k, low=-1.0, high=1.0)
        fast = u_norm_fast(f, k)
        if float(n) ** (k + 1) * 2.0**k <= 1e8:  # the brute fits the default budget
            assert fast == pytest.approx(u_norm_brute(f, k), rel=1e-9)
        monkeypatch.setattr(gowersnorm, "_CHUNK_ELEMS", 1)
        assert u_norm_fast(f, k) == fast

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 17])
    def test_real_spectrum_matches_complex_formula(self, n):
        # The order-two base transforms only the nonnegative frequencies; the
        # full complex spectrum, each bin counted once, is its reference.
        rows = philox(n).random((3, n)) * 2.0 - 1.0
        coeffs = np.fft.fft(rows, axis=1) / n
        expect = np.sum((coeffs.real**2 + coeffs.imag**2) ** 2, axis=1)
        np.testing.assert_allclose(gowersnorm._u_pows(rows, 2), expect, rtol=1e-13, atol=0)

    def test_order_three_memory_is_blocked(self):
        # An N x N array of differences alone would take 32 MB here.
        f = random_cyclic(2048, seed=3)
        tracemalloc.start()
        try:
            u_norm_fast(f, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_budget_charges_difference_values(self):
        f = CyclicFn.constant(64, 1.0)
        with pytest.raises(BudgetExceeded) as err:
            u_norm_fast(f, 4, budget=64.0**3 - 1.0)
        assert err.value.estimated == 64.0**3 and err.value.power == 3
        assert u_norm_fast(f, 4, budget=64.0**3) == pytest.approx(1.0, rel=1e-12)

    def test_independent_of_the_brute_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fast route called into the brute route")

        for name in ("u_norm_brute", "_kahan_add", "_box_einsum"):
            monkeypatch.setattr(gowersnorm, name, refuse)
        f = random_cyclic(12, seed=5, low=-1.0, high=1.0)
        assert u_norm_fast(f, 3) > 0.0


class TestUNormProperties:
    def test_nesting(self):
        for seed in range(5):
            f = random_cyclic(10, seed=200 + seed, low=-1.0, high=1.0)
            u1, u2, u3 = (u_norm_fast(f, k) for k in (1, 2, 3))
            assert u1 <= u2 + 1e-12
            assert u2 <= u3 + 1e-12

    @given(st.floats(min_value=-4.0, max_value=4.0), st.integers(min_value=1, max_value=3))
    def test_scaling(self, c, k):
        f = random_cyclic(9, seed=7, low=-1.0, high=1.0)
        scaled = CyclicFn(9, c * f.values)
        expect = abs(c) * u_norm_fast(f, k)
        assert u_norm_fast(scaled, k) == pytest.approx(expect, rel=1e-9, abs=1e-12)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=3))
    def test_translation_invariance(self, h, k):
        f = random_cyclic(11, seed=13, low=-1.0, high=1.0)
        assert u_norm_fast(f.shift(h), k) == pytest.approx(
            u_norm_fast(f, k), rel=1e-10
        )

    def test_order_validation(self):
        f = CyclicFn.constant(4, 1.0)
        with pytest.raises(ValueError):
            u_norm_fast(f, 0)
        with pytest.raises(ValueError):
            u_norm_brute(f, 0)

    def test_budget_exceeded(self):
        f = CyclicFn.constant(32, 1.0)
        with pytest.raises(BudgetExceeded) as err:
            u_norm_brute(f, 3, budget=1000.0)
        assert err.value.estimated > err.value.budget == 1000.0


class TestClamp:
    def test_roundoff_negative_clamps(self):
        assert clamp_cube_average(-1e-12) == 0.0
        assert clamp_cube_average(0.0) == 0.0

    def test_scale_widens_window(self):
        assert clamp_cube_average(-5e-10 * 100.0, scale=100.0) == 0.0

    def test_genuinely_negative_raises(self):
        with pytest.raises(NumericalInconsistency):
            clamp_cube_average(-1e-6)

    def test_positive_passthrough(self):
        assert clamp_cube_average(0.25) == 0.25


class TestEdgeFn:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            EdgeFn((2, 1), (3, 3), np.ones((3, 3)))  # labels not ascending
        with pytest.raises(ShapeMismatch):
            EdgeFn((1, 2), (3,), np.ones(3))  # dims length mismatch
        with pytest.raises(ShapeMismatch):
            EdgeFn((1,), (4,), np.ones(3))  # values shape mismatch

    def test_mean_and_centered(self):
        g = EdgeFn((1, 2), (2, 2), [[1.0, 2.0], [3.0, 4.0]])
        assert g.mean() == 2.5
        assert g.centered().values[1, 1] == 3.0


def _box_pow_loop(g: EdgeFn) -> float:
    """Independent nested-loop evaluation of the box power of an edge
    function: every vertex doubled, one factor per choice vector."""
    k = len(g.dims)
    total = 0.0
    for assignment in itertools.product(*(range(d) for d in g.dims for _ in (0, 1))):
        pairs = [(assignment[2 * i], assignment[2 * i + 1]) for i in range(k)]
        prod = 1.0
        for omega in itertools.product((0, 1), repeat=k):
            idx = tuple(pairs[i][omega[i]] for i in range(k))
            prod *= g.values[idx]
        total += prod
    return total / float(np.prod([d * d for d in g.dims]))


class TestBoxNorm:
    def test_constant(self):
        g = EdgeFn.ones((1, 2), (3, 4))
        assert box_norm_brute(g) == pytest.approx(1.0, rel=1e-12)

    def test_single_vertex_is_abs_mean(self):
        g = random_edge_fn((1,), (6,), seed=31)
        assert box_norm_brute(g) == pytest.approx(abs(g.mean()), rel=1e-9)

    @pytest.mark.parametrize("dims", [(3, 4), (2, 3)])
    def test_loop_oracle(self, dims):
        g = random_edge_fn((1, 2), dims, seed=sum(dims))
        expect = _box_pow_loop(g) ** (1 / 4)
        assert box_norm_brute(g) == pytest.approx(expect, rel=1e-10)

    def test_loop_oracle_three_vertices(self):
        g = random_edge_fn((1, 2, 3), (2, 2, 3), seed=77)
        expect = _box_pow_loop(g) ** (1 / 8)
        assert box_norm_brute(g) == pytest.approx(expect, rel=1e-10)

    def test_budget(self):
        g = random_edge_fn((1, 2), (30, 30), seed=1)
        with pytest.raises(BudgetExceeded):
            box_norm_brute(g, budget=100.0)


class TestBoxNormRecursion:
    """The pair recursion of ``box_norm`` against its oracle
    ``box_norm_brute``, which enumerates the whole box."""

    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_agrees_with_brute(self, dims, seed):
        g = random_edge_fn(tuple(range(1, len(dims) + 1)), tuple(dims), seed=seed)
        assert box_norm(g) == pytest.approx(box_norm_brute(g), rel=1e-9)

    @pytest.mark.parametrize("dims", [(7,), (6, 5), (5, 4, 3), (3, 4, 2, 3)])
    def test_block_size_does_not_change_the_value(self, dims, monkeypatch):
        g = random_edge_fn(tuple(range(1, len(dims) + 1)), dims, seed=len(dims))
        blocked = box_norm(g)
        monkeypatch.setattr(gowersnorm, "_CHUNK_ELEMS", 1)
        assert box_norm(g) == blocked

    def test_charge_is_the_work_done(self):
        # npoints^2 / d_k = 60^2 / 5 products, a cost of order 2k - 1.
        g = random_edge_fn((1, 2, 3), (3, 4, 5), seed=8)
        with pytest.raises(BudgetExceeded) as exc:
            box_norm(g, budget=719.0)
        assert exc.value.estimated == 720.0
        assert exc.value.power == 5
        assert box_norm(g, budget=720.0) == box_norm(g)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_returns_a_python_float(self, k):
        g = random_edge_fn(tuple(range(1, k + 1)), (3,) * k, seed=k)
        assert type(box_norm(g)) is float


class TestMixedCube:
    def test_all_equal_reduces_to_box_power(self):
        g = random_edge_fn((1, 2), (3, 4), seed=5)
        gs = {omega: g for omega in cube_vertices(2)}
        assert mixed_cube_expectation(gs) == pytest.approx(
            box_norm_brute(g) ** 4, rel=1e-9, abs=1e-12
        )

    def test_shape_mismatch_rejected(self):
        gs = {omega: random_edge_fn((1, 2), (3, 3), seed=1) for omega in cube_vertices(2)}
        gs[(1, 1)] = random_edge_fn((1, 2), (3, 4), seed=2)
        with pytest.raises(ShapeMismatch):
            mixed_cube_expectation(gs)

    def test_missing_vertex_rejected(self):
        gs = {omega: random_edge_fn((1, 2), (3, 3), seed=1) for omega in cube_vertices(2)}
        del gs[(0, 1)]
        with pytest.raises(ShapeMismatch):
            mixed_cube_expectation(gs)


class TestTwoStepChain:
    """Worked two-vertex case of the product-form bound, both intermediate
    inequalities checked separately.

    With four functions g_ab the mixed expectation M factors through the
    averages over the left coordinate; one application of Cauchy-Schwarz in
    the two right coordinates gives M^2 <= P0 * P1 where P_b is the mixed
    expectation using only the pair (g_b0, g_b1), and a second application
    inside each P_b gives P_b^2 <= boxpow(g_b0) * boxpow(g_b1).
    """

    def test_two_steps(self):
        dims = (4, 5)
        gs = {
            omega: random_edge_fn((1, 2), dims, seed=10 + 2 * omega[0] + omega[1])
            for omega in cube_vertices(2)
        }
        m = mixed_cube_expectation(gs)
        p0 = mixed_cube_expectation(
            {omega: gs[(0, omega[1])] for omega in cube_vertices(2)}
        )
        p1 = mixed_cube_expectation(
            {omega: gs[(1, omega[1])] for omega in cube_vertices(2)}
        )
        assert p0 >= -1e-12 and p1 >= -1e-12
        assert m * m <= p0 * p1 + 1e-12

        boxpow = {omega: box_norm_brute(gs[omega]) ** 4 for omega in cube_vertices(2)}
        assert p0 * p0 <= boxpow[(0, 0)] * boxpow[(0, 1)] + 1e-12
        assert p1 * p1 <= boxpow[(1, 0)] * boxpow[(1, 1)] + 1e-12

        rhs = math.prod(b ** (1 / 4) for b in boxpow.values())
        assert abs(m) <= rhs + 1e-9 * max(1.0, rhs)


class TestGcsVerify:
    @pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 3)])
    def test_random_tuples(self, dims):
        edge = tuple(range(1, len(dims) + 1))
        for seed in range(5):
            rng = philox(1000 + seed)
            gs = {
                omega: EdgeFn(edge, dims, rng.random(dims) * 2 - 1)
                for omega in cube_vertices(len(dims))
            }
            report = gcs_verify(gs)
            assert report.passed, report.failures()

    def test_equality_case_margin(self):
        g = random_edge_fn((1, 2), (4, 4), seed=3)
        gs = {omega: g for omega in cube_vertices(2)}
        report = gcs_verify(gs)
        assert report.passed
        lhs, rhs = report.ratios["lhs"], report.ratios["rhs"]
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_budget(self):
        gs = {
            omega: random_edge_fn((1, 2), (20, 20), seed=omega[0])
            for omega in cube_vertices(2)
        }
        with pytest.raises(BudgetExceeded):
            gcs_verify(gs, budget=50.0)

    def test_charge_is_one_mixed_expectation_and_recursive_norms(self):
        # 2^k npoints^2 for the mixed expectation plus 2^k box norms of
        # npoints^2 / d_k each: 4 * 144 + 4 * 36.
        gs = {
            omega: random_edge_fn((1, 2), (3, 4), seed=omega[0] + 2 * omega[1])
            for omega in cube_vertices(2)
        }
        with pytest.raises(BudgetExceeded) as exc:
            gcs_verify(gs, budget=719.0)
        assert exc.value.estimated == 720.0
        assert exc.value.power == 4
        assert gcs_verify(gs, budget=720.0).passed
