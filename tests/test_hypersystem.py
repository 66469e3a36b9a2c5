"""The weighted-hypergraph representation of a measure on Z_N."""

import itertools

import numpy as np
import pytest

from gowers import (
    CompositeModulus,
    EdgeFn,
    GeneratorSpec,
    HypergraphSystem,
    ModulusTooSmall,
    NotRepresentation,
    WeightedHypergraph,
    ap_density,
    ap_values,
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

    @pytest.mark.parametrize("r", [2, 3])
    def test_weights_match_formula(self, r):
        n = 5
        nu = generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=3))
        w = represent(nu, r)
        for j in range(r + 1):
            g = w.weight_omitting(j)
            for x in itertools.product(range(n), repeat=r):
                assert g.values[x] == _expected_weight(nu, n, r, j, x)

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

    def test_transposition_drops_forms(self):
        w = represent(from_set({1, 2}, 5), 2)
        v = relabel(w, (1, 0, 2))
        with pytest.raises(NotRepresentation):
            ap_values(v, (0, 0, 0))

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
        density = ap_density([nu.fn] * (r + 1)).density
        assert progression_count_check(w) == pytest.approx(density, abs=1e-12)

