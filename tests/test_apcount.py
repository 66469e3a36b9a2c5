"""Progression densities, the telescoping decomposition, and the density
experiments, validated against explicit loop oracles and frozen values."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gowers.apcount as apcount
from conftest import philox, random_cyclic
from gowers import (
    BudgetExceeded,
    CSV_HEADER,
    CyclicFn,
    GeneratorSpec,
    ap_density,
    from_set,
    generate,
    hypothesis_ratio,
    relsz_experiment,
    represent,
    telescoping_check,
)
from gowers.errors import ShapeMismatch


def _density_loop(fs):
    """Independent double loop over start and difference."""
    n = fs[0].n
    total = []
    trivial = 0
    nontrivial = 0
    for d in range(n):
        for a in range(n):
            prod = 1.0
            for j, f in enumerate(fs):
                prod *= f((a + j * d) % n)
            total.append(prod)
            if prod != 0.0:
                if d == 0:
                    trivial += 1
                else:
                    nontrivial += 1
    return math.fsum(total) / n**2, trivial, nontrivial


def _density_per_difference(fs):
    """The per-difference loop ap_density ran before it read shifts through
    strided views: one np.roll per factor and difference, each difference
    summed on its own, the sums merged by fsum in ascending order."""
    n = fs[0].n
    per_diff = []
    trivial = 0
    nontrivial = 0
    for d in range(n):
        prod = fs[0].values.copy()
        for j in range(1, len(fs)):
            prod *= np.roll(fs[j].values, -(j * d) % n)
        count = int(np.count_nonzero(prod))
        if d == 0:
            trivial = count
        else:
            nontrivial += count
        per_diff.append(float(np.sum(prod)))
    return math.fsum(per_diff) / float(n) ** 2, trivial, nontrivial


def _signed_with_zeros(n, k, seed, zero_share):
    rng = philox(seed)
    return [
        CyclicFn(n, np.where(rng.random(n) < zero_share, 0.0, rng.uniform(-1.0, 1.0, n)))
        for _ in range(k)
    ]


class TestStridedDensity:
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_matches_per_difference_loop(self, n, k, seed, zero_share):
        fs = _signed_with_zeros(n, k, seed, zero_share)
        report = ap_density(fs)
        density, trivial, nontrivial = _density_per_difference(fs)
        assert report.density == density
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial

    @pytest.mark.parametrize("n,k", [(1, 3), (7, 3), (97, 2), (300, 4)])
    def test_block_size_keeps_every_bit(self, monkeypatch, n, k):
        fs = _signed_with_zeros(n, k, seed=n + k, zero_share=0.3)
        report = ap_density(fs)
        monkeypatch.setattr(apcount, "_CHUNK_ELEMS", 1)
        # repr compares floats bit for bit and a NaN ratio equal to itself.
        assert repr(ap_density(fs)) == repr(report)

    def test_memory_is_blocked(self):
        # One N x N array of products would take 134 MB here.
        fs = [random_cyclic(4096, seed=i, low=-1.0, high=1.0) for i in range(4)]
        tracemalloc.start()
        try:
            ap_density(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestApDensity:
    def test_point_indicator_pin(self):
        # Only the constant tuple at 0 survives: exactly one trivial
        # progression out of 49 start/difference pairs.
        ind = CyclicFn(7, np.eye(7)[0])
        report = ap_density([ind] * 3)
        assert report.density == 1.0 / 49.0
        assert report.trivial_count == 1
        assert report.nontrivial_count == 0
        assert report.n == 7
        assert report.k == 3

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3), (5, 4)])
    def test_loop_oracle_random(self, n, k):
        fs = [random_cyclic(n, seed=10 * k + i, low=-1.0, high=1.0) for i in range(k)]
        report = ap_density(fs)
        density, trivial, nontrivial = _density_loop(fs)
        assert report.density == pytest.approx(density, rel=1e-12, abs=1e-15)
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial

    def test_loop_oracle_indicator(self):
        members = {0, 1, 3}
        ind = CyclicFn(7, np.isin(np.arange(7), list(members)).astype(float))
        report = ap_density([ind] * 3)
        density, trivial, nontrivial = _density_loop([ind] * 3)
        assert report.density == pytest.approx(density, rel=1e-12)
        assert report.trivial_count == trivial == len(members)
        assert report.nontrivial_count == nontrivial

    def test_prediction_is_product_of_means(self):
        fs = [random_cyclic(5, seed=i) for i in range(3)]
        report = ap_density(fs)
        expect = math.prod(f.mean() for f in fs)
        assert report.prediction == pytest.approx(expect, rel=1e-12)
        assert report.ratio == pytest.approx(report.density / expect, rel=1e-12)

    def test_scaling_multilinearity(self):
        fs = [random_cyclic(6, seed=i, low=0.1, high=1.0) for i in range(3)]
        scaled = [CyclicFn(6, fs[0].values * 2.0)] + fs[1:]
        base = ap_density(fs)
        twice = ap_density(scaled)
        assert twice.density == pytest.approx(2.0 * base.density, rel=1e-12)
        assert twice.prediction == pytest.approx(2.0 * base.prediction, rel=1e-12)
        assert twice.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_zero_prediction_gives_nan_ratio(self):
        fs = [CyclicFn(4, np.array([1.0, -1.0, 1.0, -1.0]))]
        report = ap_density(fs)
        assert math.isnan(report.ratio)

    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            ap_density([])
        with pytest.raises(ShapeMismatch):
            ap_density([random_cyclic(5, seed=0), random_cyclic(7, seed=0)])

    def test_budget(self):
        fs = [random_cyclic(50, seed=0)] * 3
        with pytest.raises(BudgetExceeded):
            ap_density(fs, budget=100.0)

    def test_report_serialization(self):
        report = ap_density([random_cyclic(5, seed=3)] * 2)
        obj = json.loads(report.to_json())
        assert obj["n"] == 5 and obj["k"] == 2
        assert obj["density"] == report.density
        row = report.to_csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row.split(",")[0] == "5"
        # repr round-trips floats exactly
        assert float(row.split(",")[2]) == report.density

    def test_json_byte_stable(self):
        report = ap_density([random_cyclic(5, seed=4)] * 2)
        assert report.to_json() == report.to_json()


class TestHypothesisRatio:
    def test_frozen_example(self):
        # Established independently: the centered second-order norm of the
        # measure on {1,2,4} mod 7 via the spectral route, then divided by
        # the density powers p^2 and p^1.
        nu = from_set({1, 2, 4}, 7)
        hr = hypothesis_ratio(nu, 2)
        assert hr.norm == pytest.approx(0.7377879464668811, rel=1e-12)
        assert hr.over_p_r == pytest.approx(4.016845486319686, rel=1e-12)
        assert hr.over_p_half_r == pytest.approx(1.7215052084227225, rel=1e-12)
        assert hr.p == pytest.approx(3.0 / 7.0, rel=1e-15)

    def test_power_relations(self):
        nu = from_set({0, 2, 3}, 11)
        for r in (2, 3):
            hr = hypothesis_ratio(nu, r)
            assert hr.over_p_r == pytest.approx(hr.norm / hr.p**r, rel=1e-12)
            assert hr.over_p_half_r == pytest.approx(
                hr.norm / hr.p ** (r / 2.0), rel=1e-12
            )

    def test_json_obj(self):
        hr = hypothesis_ratio(from_set({1, 2}, 5), 2)
        obj = hr.to_json_obj()
        assert set(obj) == {"n", "r", "p", "norm", "over_p_r", "over_p_half_r"}


class TestTelescoping:
    @pytest.mark.parametrize(
        "members,n,r",
        [
            ({1, 2, 4}, 7, 2),
            ({0, 3, 5, 9}, 11, 2),
            ({1, 2, 3, 5, 8}, 13, 2),
            ({0, 2}, 5, 2),
            ({1, 2, 4}, 7, 3),
        ],
    )
    def test_identity_holds(self, members, n, r):
        nu = from_set(members, n)
        report = telescoping_check(nu, represent(nu, r))
        assert report.passed, report.failures()
        assert set(f"term-{m}" for m in range(r + 1)) <= set(report.ratios)
        assert "density" in report.ratios

    def test_first_term_vanishes(self):
        # The first decomposition step replaces every non-distinguished edge
        # weight by one, so the term is the mean of the centered weight: zero.
        nu = from_set({1, 2, 4}, 7)
        report = telescoping_check(nu, represent(nu, 2))
        assert abs(report.ratios["term-0"]) < 1e-12

    def test_sum_matches_density(self):
        nu = from_set({0, 3, 5, 9}, 11)
        report = telescoping_check(nu, represent(nu, 2))
        lam = ap_density([nu.fn] * 3).density
        total = math.fsum(report.ratios[f"term-{m}"] for m in range(3))
        assert lam - 1.0 == pytest.approx(total, abs=1e-12)

    def test_with_chains_attaches_bounds(self):
        nu = from_set({1, 2, 4}, 7)
        report = telescoping_check(nu, represent(nu, 2), with_chains=True)
        assert report.passed, report.failures()
        for m in range(3):
            bound = report.ratios[f"term-{m}-chain-bound"]
            assert abs(report.ratios[f"term-{m}"]) <= bound + 1e-9

    def test_random_measures(self):
        for seed in range(3):
            spec = GeneratorSpec(kind="random", n=11, p=0.4, seed=seed)
            nu = generate(spec)
            report = telescoping_check(nu, represent(nu, 2))
            assert report.passed, report.failures()


class TestRelszExperiment:
    def test_prime_modulus_full_report(self):
        ap, report = relsz_experiment(GeneratorSpec(kind="random", n=7, p=0.5, seed=1), 2)
        assert ap.n == 7 and ap.k == 3
        assert report.passed, report.failures()
        for key in (
            "norm",
            "norm-over-p-r",
            "norm-over-p-half-r",
            "density-minus-one",
        ):
            assert key in report.ratios
        assert report.ratios["density-minus-one"] == pytest.approx(
            ap.density - 1.0, rel=1e-12, abs=1e-15
        )

    def test_composite_modulus_skips_telescoping(self):
        ap, report = relsz_experiment(GeneratorSpec(kind="random", n=8, p=0.5, seed=0), 2)
        assert ap.n == 8
        assert not report.checks
        assert any("telescoping skipped" in note for note in report.notes)
        assert "norm" in report.ratios

    def test_with_chains(self):
        _, report = relsz_experiment(
            GeneratorSpec(kind="random", n=7, p=0.6, seed=2), 2, with_chains=True
        )
        assert report.passed, report.failures()
        assert "term-1-chain-bound" in report.ratios

    def test_deterministic(self):
        spec = GeneratorSpec(kind="random", n=7, p=0.5, seed=3)
        a1, r1 = relsz_experiment(spec, 2)
        a2, r2 = relsz_experiment(spec, 2)
        assert a1 == a2
        assert r1.to_json() == r2.to_json()
