"""The weighted-hypergraph representation of a measure on Z_N."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import gowers.apcount as apcount
import gowers.hypersystem as hypersystem
import gowers.linform as linform
from conftest import random_cyclic
from form_oracle import formed_by, progression_count
from gowers import (
    BudgetExceeded,
    CompositeModulus,
    EdgeFn,
    GeneratorSpec,
    HypergraphSystem,
    Measure,
    ModulusTooSmall,
    NotRepresentation,
    ShapeMismatch,
    WeightedHypergraph,
    ap_density,
    ap_values,
    box_norm,
    box_norm_brute,
    from_set,
    generate,
    is_prime,
    progression_count_check,
    relabel,
    represent,
    sup_norm,
    u_norm_fast,
)
from gowers.forms import Form
from gowers.hypersystem import map_failures, represent_charged


class TestPrimality:
    def test_small_cases(self):
        def reference(m):
            return m >= 2 and all(m % d for d in range(2, m))

        for m in range(0, 200):
            assert is_prime(m) == reference(m)
        assert is_prime(1009)
        assert not is_prime(1007)  # 19 * 53


class TestSystem:
    def test_edges(self):
        sys2 = HypergraphSystem(2, (5, 5, 5))
        assert sys2.vertices == (0, 1, 2)
        assert sys2.edge_omitting(0) == (1, 2)
        assert sys2.edge_omitting(2) == (0, 1)
        assert len(sys2.edges) == 3
        assert sys2.edge_dims((0, 2)) == (5, 5)


def _expected_weight(nu, n, r, j, x):
    """Direct evaluation of the representation's edge weight: the measure at
    the weighted sum of the coordinates omitting one vertex."""
    arg = sum((j - i) * x_i for i, x_i in zip([i for i in range(r + 1) if i != j], x))
    return nu.fn(arg % n)


class TestRepresent:
    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            represent(from_set({0, 1}, 6), 2)

    def test_too_small_rejected(self):
        with pytest.raises(ModulusTooSmall):
            represent(from_set({0, 1}, 3), 3)

    def test_charged_before_allocation(self, monkeypatch):
        # The (r+1) N^r edge-weight values, charged before represent runs.
        nu = from_set({0, 1, 3}, 7)
        monkeypatch.setattr(hypersystem, "represent", None)  # allocation raises
        with pytest.raises(BudgetExceeded) as exc:
            represent_charged(nu, 3, budget=4 * 7**3 - 1)
        assert (exc.value.estimated, exc.value.power) == (4.0 * 7**3, 3)
        assert exc.value.what == "representation (r=3, n=7)"
        monkeypatch.undo()
        w, expect = represent_charged(nu, 3, budget=4 * 7**3), represent(nu, 3)
        assert [g.form for g in w.weights.values()] == [g.form for g in expect.weights.values()]
        for edge, fn in expect.weights.items():
            assert np.array_equal(w.weights[edge].values, fn.values)

    @pytest.mark.parametrize("r", [2, 3])
    def test_weights_match_formula(self, r):
        n = 5
        nu = generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=3))
        w = represent(nu, r)
        for j in range(r + 1):
            g = w.weight_omitting(j)
            for x in itertools.product(range(n), repeat=r):
                assert g.values[x] == _expected_weight(nu, n, r, j, x)

    def test_builds_each_weight_without_an_index(self):
        # Above the four weights it keeps, represent holds only one block's
        # gather index and values (6 of 101 rows) while it builds each
        # weight in place; an N^r index, the blocks concatenated next to
        # their result, or a stored copy of the weight would each be one
        # more weight.  At N=101 one block is a small part of a weight.
        n = 101
        nu = from_set({0, 1, 3}, n)
        represent(nu, 3)
        tracemalloc.start()
        try:
            w = represent(nu, 3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.r == 3 and peak - kept < 0.5 * n**3 * 8
        assert all(not g.values.flags.writeable for g in w.weights.values())

    def test_mean_preserved(self):
        nu = from_set({1, 2, 4}, 7)
        w = represent(nu, 2)
        for j in range(3):
            assert w.weight_omitting(j).mean() == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_matches_measure(self):
        nu = from_set({0}, 7)
        w = represent(nu, 2)
        assert sup_norm(w) == 7.0


class TestNormPreservation:
    @pytest.mark.parametrize(
        "members,n,r",
        [
            ({1, 2, 4}, 7, 2),
            ({0, 3, 5, 9}, 11, 2),
            ({1, 2, 3, 5, 8}, 13, 2),
            ({0, 2}, 5, 3),
            ({1, 2, 4}, 7, 3),
        ],
    )
    def test_box_norm_equals_uniformity_norm(self, members, n, r):
        nu = from_set(members, n)
        u = u_norm_fast(nu.centered(), r)
        w = represent(nu, r)
        for j in range(r + 1):
            box = box_norm_brute(w.weight_omitting(j).centered())
            assert box == pytest.approx(u, abs=1e-12)

    def test_random_measures(self):
        for seed in range(4):
            nu = generate(GeneratorSpec(kind="random", n=11, p=0.5, seed=seed))
            u = u_norm_fast(nu.centered(), 2)
            w = represent(nu, 2)
            for j in range(3):
                assert box_norm_brute(w.weight_omitting(j).centered()) == pytest.approx(
                    u, abs=1e-11
                )


class TestApValues:
    def test_worked_example(self):
        nu = from_set({0, 1, 3}, 7)
        w = represent(nu, 2)
        ys, d = ap_values(w, (1, 2, 3))
        assert ys == (6, 5, 4)
        assert d == 6

    @pytest.mark.parametrize("n,r", [(5, 2), (5, 3), (7, 2)])
    def test_progression_property_exhaustive(self, n, r):
        w = represent(from_set({0, 1}, n), r)
        for x in itertools.product(range(n), repeat=r + 1):
            ys, d = ap_values(w, x)
            assert d == sum(x) % n
            for j in range(r):
                assert (ys[j + 1] - ys[j]) % n == d

    def test_rejects_without_forms(self):
        system = HypergraphSystem(2, (5, 5, 5))
        w = WeightedHypergraph(
            system, {e: EdgeFn.ones(e, system.edge_dims(e)) for e in system.edges}
        )
        with pytest.raises(NotRepresentation):
            ap_values(w, (0, 0, 0))
        with pytest.raises(NotRepresentation):
            map_failures(w)


class TestMapFailures:
    @pytest.mark.parametrize("r,n", [(2, 7), (3, 5), (4, 5)])
    @pytest.mark.parametrize("chunk", [None, 100])
    def test_blocks_count_what_ap_values_counts(self, r, n, chunk):
        # The exact count against one ap_values call per point, on the map
        # and on maps broken by one coefficient or by two swapped forms.
        # The cube is walked whole or in blocks of `chunk` points, and in
        # each block ap_values fails at exactly the points off the kernel
        # of the difference rows.
        nu = from_set({0, 1, 3}, n)
        w = represent(nu, r)
        forms = [w.weight_omitting(j).form.coeffs for j in range(r + 1)]
        changed = forms[:1] + [((forms[1][0] + 1) % n,) + forms[1][1:]] + forms[2:]
        swapped = [forms[1], forms[0]] + forms[2:]
        points = list(itertools.product(range(n), repeat=r + 1))
        step = chunk or len(points)
        for fs in (forms, changed, swapped):
            mapped = formed_by(w, nu.fn.values, fs)
            rows = hypersystem._map_rows(mapped)
            expect = 0
            for start in range(0, len(points), step):
                block = points[start : start + step]
                off = sum(any(np.dot(row, x) % n for row in rows) for x in block)
                assert _ap_failures(mapped, block) == off
                expect += off
            assert (expect == 0) == (fs is forms)
            assert map_failures(mapped) == expect

    @given(st.integers(1, 4), st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
    def test_rank_count_is_the_ap_values_walk(self, r, n, data):
        # The count from the rank of the difference rows against one
        # ap_values call per point, on the map and on maps whose
        # coefficients are shifted in a few drawn places.
        assume(n ** (r + 1) <= 20_000)
        system = HypergraphSystem(r, (n,) * (r + 1))
        forms = [[(j - i) % n for i in system.edge_omitting(j)] for j in range(r + 1)]
        shifts = st.tuples(st.integers(0, r), st.integers(0, r - 1), st.integers(1, n - 1))
        for j, a, delta in data.draw(st.lists(shifts, max_size=3)):
            forms[j][a] = (forms[j][a] + delta) % n
        h = np.arange(n, dtype=np.float64)
        mapped = WeightedHypergraph(
            system,
            {e: EdgeFn.formed(e, h, Form(tuple(c), n)) for e, c in zip(system.edges, forms)},
        )
        points = itertools.product(range(n), repeat=r + 1)
        assert map_failures(mapped) == _ap_failures(mapped, points)

    def test_counts_without_walking_or_charging(self, monkeypatch):
        # At r=4, N=10007 the cube has 1e20 points and no weight could be
        # allocated: the count reads the forms alone, so the weights here
        # carry their forms and no values.
        n, r = 10007, 4
        system = HypergraphSystem(r, (n,) * (r + 1))
        weights = {}
        for j, edge in enumerate(system.edges):
            form = Form(tuple((j - i) % n for i in edge), n)
            weights[edge] = SimpleNamespace(edge=edge, dims=(n,) * r, form=form)
        calls = []
        monkeypatch.setattr(hypersystem, "check_budget", lambda *a, **k: calls.append(a))
        assert map_failures(WeightedHypergraph(system, weights)) == 0
        assert calls == []

    def test_refuses_a_composite_modulus(self):
        # The count by rank holds over a field only.
        n, system = 9, HypergraphSystem(2, (9, 9, 9))
        forms = [Form(tuple((j - i) % n for i in e), n) for j, e in enumerate(system.edges)]
        w = WeightedHypergraph(
            system, {e: EdgeFn.formed(e, np.ones(n), f) for e, f in zip(system.edges, forms)}
        )
        with pytest.raises(CompositeModulus):
            map_failures(w)

    def test_points_need_every_coordinate(self):
        # The count takes no points; the per-point evaluation still wants
        # all r+1 coordinates of each.
        w = represent(from_set({0, 1}, 5), 2)
        assert ap_values(w, (0, 1, 2)) == ((0, 3, 1), 3)
        for x in [(0, 1), (0, 1, 2, 3)]:
            with pytest.raises(ShapeMismatch):
                ap_values(w, x)


def _ap_failures(w, points) -> int:
    """The points whose ap_values do not step by their common difference,
    one ap_values call per point."""
    n, r = w.system.dims[0], w.r
    bad = 0
    for x in points:
        ys, d = ap_values(w, x)
        bad += any((ys[j + 1] - ys[j]) % n != d for j in range(r))
    return bad


class TestRelabel:
    def test_identity(self):
        w = represent(from_set({1, 2}, 5), 2)
        v = relabel(w, (0, 1, 2))
        for j in range(3):
            assert np.array_equal(v.weight_omitting(j).values, w.weight_omitting(j).values)

    def test_transposition_permutes_weights(self):
        n, r = 5, 2
        nu = from_set({1, 2}, n)
        w = represent(nu, r)
        v = relabel(w, (1, 0, 2))  # new 0 <- old 1, new 1 <- old 0
        # The edge omitting new vertex 0 carries the old weight omitting 1,
        # with its coordinates relabeled: new labels (1, 2) read old (0, 2).
        g_new = v.weight_omitting(0)
        g_old = w.weight_omitting(1)
        for a in range(n):
            for b in range(n):
                assert g_new.values[a, b] == g_old.values[a, b]

    def test_relabeled_weights_are_nu_at_their_forms(self):
        # Each form is pulled back along the weight's axis map, so every
        # relabeled weight is still nu at its form.
        n = 5
        for r, perm in ((2, (1, 0, 2)), (2, (2, 0, 1)), (3, (3, 1, 0, 2))):
            nu = generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=r))
            v = relabel(represent(nu, r), perm)
            for edge in v.system.edges:
                form = v.weights[edge].form
                assert form.modulus == n
                for x in itertools.product(range(n), repeat=r):
                    y = sum(c * xi for c, xi in zip(form.coeffs, x)) % n
                    assert v.weights[edge].values[x] == nu.fn.values[y]

    def test_axis_order_transposed(self):
        # A permutation that reorders the labels inside an edge must
        # transpose the tensor, not merely rename the axes.
        n, r = 5, 2
        nu = generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=8))
        w = represent(nu, r)
        v = relabel(w, (2, 1, 0))  # swap vertices 0 and 2
        # New edge (0, 1) omitting 2 is old edge (2, 1) omitting 0, read in
        # ascending old order (1, 2) with axes swapped.
        g_new = v.weight_omitting(2)
        g_old = w.weight_omitting(0)
        for a in range(n):
            for b in range(n):
                assert g_new.values[a, b] == g_old.values[b, a]


class TestCounting:
    def test_constant_hypergraph(self):
        system = HypergraphSystem(2, (4, 4, 4))
        w = WeightedHypergraph(
            system, {e: EdgeFn(e, (4, 4), np.full((4, 4), 1.5)) for e in system.edges}
        )
        assert progression_count_check(w) == pytest.approx(1.5**3, rel=1e-12)

    @pytest.mark.parametrize("n,r", [(5, 2), (7, 2), (5, 3)])
    def test_count_equals_progression_density(self, n, r):
        nu = generate(GeneratorSpec(kind="random", n=n, p=0.5, seed=n + r))
        w = represent(nu, r)
        density = ap_density(nu.fn, r + 1).density
        assert progression_count_check(w) == pytest.approx(density, abs=1e-12)

    def test_budget_charges_every_product(self):
        # The count is charged the plan of its route before it runs: the
        # quotient of the three formed weights, over a start and a step.
        # The dense einsum was charged 3 * 7^3 = 1029.
        w = represent(generate(GeneratorSpec(kind="random", n=7, p=0.5, seed=1)), 2)
        factors = [linform.weight_factor(w, e) for e in w.system.edges]
        route = linform._route(linform._structure(factors), ())
        assert route.slices and (route.cost, route.power) == (112.0, 2)
        assert progression_count_check(w, budget=route.cost) > 0
        with pytest.raises(BudgetExceeded) as exc:
            progression_count_check(w, budget=route.cost - 1)
        assert (exc.value.estimated, exc.value.power) == (route.cost, route.power)
        assert exc.value.what == "progression count (r=2, 343 points)"

    @given(st.integers(1, 4), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 2**32))
    def test_formed_routes_equal_the_dense_oracles(self, r, n, seed):
        # The count and every raw and centered box norm of a represented
        # weight take the quotient route; the dense einsum and box_norm read
        # the same arrays and no form.
        assume(r < n and n ** (r + 1) <= 30_000)
        fn = random_cyclic(n, seed, 0.0, 3.0)
        assume(fn.values.max() >= 1.0)  # no sup-below-one warning
        nu = Measure.from_fn(fn)
        w = represent(nu, r)
        assert progression_count_check(w) == pytest.approx(progression_count(w), rel=1e-12)
        for g in w.weights.values():
            for fn in (g, g.centered()):
                assert linform.formed_box_norm(fn) == pytest.approx(box_norm(fn), rel=1e-12)

    def test_count_computes_without_the_density_kernels(self, monkeypatch):
        # The count is the runtime side of the progression-density check, so
        # it may share no code with the kernels of ap_density, and they none
        # with the planner.
        class OtherSideCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise OtherSideCalled

        for r, n in [(2, 7), (3, 7)]:  # the FFT count route and the bit kernel
            nu = generate(GeneratorSpec(kind="random", n=n, p=0.5, seed=r))
            w = represent(nu, r)
            for name in ("ap_density", "_count_route", "_bit_count"):
                monkeypatch.setattr(apcount, name, refuse)
            count = progression_count_check(w)
            monkeypatch.undo()
            for module, name in ((linform, "expect_product"), (linform, "_plan")):
                monkeypatch.setattr(module, name, refuse)
            with pytest.raises(OtherSideCalled):
                progression_count_check(w)
            density = ap_density(nu.fn, r + 1).density
            monkeypatch.undo()
            assert count == pytest.approx(density, rel=1e-12)
