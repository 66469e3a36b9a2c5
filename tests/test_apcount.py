"""Progression densities, the telescoping decomposition, and the density
experiments, validated against explicit loop oracles, the float walks of
``ap_oracle`` and frozen values."""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap_oracle
import gowers.apcount as apcount
import gowers.linform as linform
from conftest import philox, random_cyclic
from form_oracle import unformed
from gowers import (
    BudgetExceeded,
    Cap,
    CyclicFn,
    GeneratorSpec,
    ap_density,
    from_set,
    generate,
    hypothesis_ratio,
    relabel,
    relsz_experiment,
    represent,
    telescoping_check,
)
from gowers.apcount import ApReport
from gowers.linform import capped_chain_verify
from gowers.errors import NotRepresentation, NumericalInconsistency, ShapeMismatch


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


def _two_level(n, k, seed, low=-1.0, high=1.0, zero_share=0.5):
    """k functions c_j * 1_{S_j}: each S_j leaves out about ``zero_share``
    of Z_N, and c_j is drawn from [low, high)."""
    rng = philox(seed)
    return [
        CyclicFn(n, np.where(rng.random(n) < zero_share, 0.0, rng.uniform(low, high)))
        for _ in range(k)
    ]


def _walked(fs):
    """The oracle walk of fs as an ApReport (prediction and ratio NaN), and
    whether it took the pair walk."""
    total, trivial, nontrivial, paired = ap_oracle.walk(fs)
    n = fs[0].n
    density = total / float(n) ** 2
    return ApReport(n, len(fs), density, math.nan, math.nan, trivial, nontrivial), paired


def _indicator_measure(n, p, seed):
    return generate(GeneratorSpec(kind="random", n=n, p=p, seed=seed)).fn


def _palindromic(n, k, seed, zero_share, equal=False):
    """A tuple with f_j = f_(k-1-j): k copies of one function, or ceil(k/2)
    distinct functions mirrored, (f, g, f) at k=3 and (f, g, g, f) at k=4."""
    if equal:
        return _signed_with_zeros(n, 1, seed, zero_share) * k
    half = _signed_with_zeros(n, (k + 1) // 2, seed, zero_share)
    return half + half[: k // 2][::-1]


class TestStridedDensity:
    # The float walks of ap_oracle, the oracle of ap_density's count kernels,
    # against the per-difference loop they replaced, on signed tuples of any
    # number of values.
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_matches_per_difference_loop(self, n, k, seed, zero_share):
        # The difference walk keeps every bit.  The pair walk forms the same
        # products but sums them by start instead of by difference, so its
        # density agrees to roundoff, measured against the density of the
        # |f_j|; the counts agree exactly.
        fs = _signed_with_zeros(n, k, seed, zero_share)
        report, paired = _walked(fs)
        density, trivial, nontrivial = _density_per_difference(fs)
        if paired:
            scale = _density_per_difference([CyclicFn(n, np.abs(f.values)) for f in fs])[0]
            assert report.density == pytest.approx(density, rel=1e-12, abs=1e-12 * scale)
        else:
            assert report.density == density
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial

    def test_sparse_tuples_take_the_pair_walk(self):
        # The pair walk is taken when 3*|S0|*|S1| <= walk*N: sparse tuples
        # and sparse indicator measures, never dense or constant tuples.
        sparse = [
            _signed_with_zeros(101, 3, seed=1, zero_share=0.9),
            [_indicator_measure(4093, 0.2, seed=0)] * 4,
            # f_0 and f_1 sparse enough; the later terms do not matter.
            _signed_with_zeros(64, 2, seed=2, zero_share=0.9)
            + _signed_with_zeros(64, 1, seed=3, zero_share=0.0),
        ]
        dense = [
            _signed_with_zeros(101, 3, seed=1, zero_share=0.0),
            [CyclicFn(101, np.ones(101))] * 4,
            [_indicator_measure(4093, 0.5, seed=0)] * 4,
            # k = 1 has no second term to pair with.
            _signed_with_zeros(64, 1, seed=4, zero_share=0.9),
        ]
        assert [_walked(fs)[1] for fs in sparse] == [True] * len(sparse)
        assert [_walked(fs)[1] for fs in dense] == [False] * len(dense)

    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
        equal=st.booleans(),
    )
    def test_palindromes_match_per_difference_loop(self, n, k, seed, zero_share, equal):
        # A palindromic tuple walks only d = 0..N//2 and counts each
        # 0 < d < N/2 twice.  Rows d and N - d hold the same products summed
        # in another order, so the density agrees to roundoff, measured
        # against the density of the |f_j|; the counts agree exactly.
        fs = _palindromic(n, k, seed, zero_share, equal)
        report, _ = _walked(fs)
        density, trivial, nontrivial = _density_per_difference(fs)
        scale = _density_per_difference([CyclicFn(n, np.abs(f.values)) for f in fs])[0]
        assert report.density == pytest.approx(density, rel=1e-12, abs=1e-12 * scale)
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial

    @pytest.mark.parametrize("pattern", ["fghf", "fgff", "ffgf", "fgfg"])
    def test_near_palindromes_take_the_full_walk(self, pattern):
        # Ends or halves that agree are not enough: rows d and N - d differ,
        # so these tuples keep the full walk and every bit of it.
        named = dict(zip("fgh", _signed_with_zeros(64, 3, seed=9, zero_share=0.3)))
        fs = [named[c] for c in pattern]
        report, _ = _walked(fs)
        expect = _density_per_difference(fs)
        assert (report.density, report.trivial_count, report.nontrivial_count) == expect

    @pytest.mark.parametrize("n", [11, 12])
    def test_palindromes_walk_half_the_differences(self, monkeypatch, n):
        walked = []

        class Rows(np.ndarray):
            def __getitem__(self, item):
                walked.append(item.stop)
                return super().__getitem__(item)

        shifts = ap_oracle._shifts
        monkeypatch.setattr(ap_oracle, "_shifts", lambda values, j: shifts(values, j).view(Rows))
        f, g = _signed_with_zeros(n, 2, seed=n, zero_share=0.0)
        f_copy = CyclicFn(n, f.values.copy())
        for fs, last in [
            ([f, g, f_copy], n // 2 + 1),
            ([f] * 4, n // 2 + 1),
            ([f, g, g], n),
            ([f, f, g, f], n),
        ]:
            walked.clear()
            ap_oracle.walk(fs)
            assert max(walked) == last

    def test_palindrome_is_recognised_by_value(self):
        f = random_cyclic(101, seed=3, low=-1.0, high=1.0)
        copies = [CyclicFn(101, f.values.copy()) for _ in range(4)]
        assert repr(_walked(copies)) == repr(_walked([f] * 4))

    @pytest.mark.parametrize("n,k", [(1, 3), (7, 3), (97, 2), (300, 4)])
    def test_block_size_keeps_every_bit(self, monkeypatch, n, k):
        # The second tuple is a palindrome, so it takes the half walk; the
        # third is sparse, so it takes the pair walk.
        tuples = [
            _signed_with_zeros(n, k, seed=n + k, zero_share=0.3),
            _palindromic(n, k, seed=n + k, zero_share=0.3),
            _signed_with_zeros(n, k, seed=n + k, zero_share=0.9),
        ]
        assert _walked(tuples[2])[1]
        reports = [_walked(fs) for fs in tuples]
        monkeypatch.setattr(ap_oracle, "_CHUNK_ELEMS", 1)
        # repr compares floats bit for bit and a NaN ratio equal to itself.
        assert [repr(_walked(fs)) for fs in tuples] == [repr(r) for r in reports]

    def test_memory_is_blocked(self):
        # One N x N array of products would take 134 MB here.  The second
        # tuple is a palindrome, so it takes the half walk; the third is an
        # indicator measure at p = 0.2, so it takes the pair walk.  ap_density
        # counts the measures and a two-level measure at k = 5.
        fs = [random_cyclic(4096, seed=i, low=-1.0, high=1.0) for i in range(4)]
        sparse = [_indicator_measure(4096, 0.2, seed=0)] * 4
        assert _walked(sparse)[1]
        dense = [_indicator_measure(4096, 0.5, seed=0)] * 4
        for tup, run in [
            (fs, ap_oracle.walk),
            ([fs[0]] * 4, ap_oracle.walk),
            (sparse, ap_oracle.walk),
            (sparse, _counted),
            (dense, _counted),
            (_two_level(4096, 1, seed=1) * 5, _counted),
        ]:
            tracemalloc.start()
            try:
                run(tup)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6


def _level_fn(n, shape, c, seed):
    """c on a support of the named shape and 0 elsewhere."""
    rng = philox(seed)
    if shape == "empty":
        support = np.arange(0)
    elif shape == "full":
        support = np.arange(n)
    elif shape == "singleton":
        support = rng.integers(0, n, size=1)
    else:
        support = np.flatnonzero(rng.random(n) < rng.random())
    values = np.zeros(n)
    values[support] = c
    return CyclicFn(n, values)


def _counted(fs):
    """ap_density of a tuple of k copies of one function."""
    assert all(f is fs[0] for f in fs)
    return ap_density(fs[0], len(fs))


def _walk_oracles(fs):
    """The difference and pair walks of fs: (sum, trivial, nontrivial) each."""
    values = [f.values for f in fs]
    supports = [np.flatnonzero(v) for v in values[:2]]
    difference = ap_oracle._difference_walk(values, fs[0].n)
    pair = ap_oracle._pair_walk(values, *supports) if len(fs) >= 2 else difference
    return difference, pair


_LEVELS = [1.0, 2.5, -0.75, 1.0 / 3.0, -7.0, 4093.0 / 811.0]


class TestCountRoute:
    @settings(max_examples=100)
    @given(
        n=st.integers(1, 300),
        shape=st.sampled_from(["empty", "full", "singleton", "random"]),
        c=st.sampled_from(_LEVELS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_equal_the_walks_and_the_loop(self, n, shape, c, seed):
        # Every product the walks form is p or 0, so the counts are equal and
        # the density is float(count) * p / N^2 exactly; the walks round
        # their partial sums, so they agree with it to roundoff.  An empty
        # support gives no progression, and no kernel runs.
        f = _level_fn(n, shape, c, seed)
        fs = [f] * 3
        with mock.patch.object(apcount, "_count_route", wraps=apcount._count_route) as spy:
            report = ap_density(f, 3)
        assert spy.called == bool(np.any(f.values))
        counts = (report.trivial_count, report.nontrivial_count)
        difference, pair = _walk_oracles(fs)
        assert counts == difference[1:] == pair[1:]
        if n <= 60:
            assert counts == _density_loop(fs)[1:]
        p = (c * c) * c
        assert report.density == float(sum(counts)) * p / float(n) ** 2
        for total, _, _ in (difference, pair):
            assert report.density == pytest.approx(total / float(n) ** 2, rel=1e-15, abs=0.0)

    def test_constant_measure_reads_exactly_one(self):
        wrong = []
        with mock.patch.object(apcount, "_count_route", wraps=apcount._count_route) as spy:
            for n in range(1, 2001):
                nu = generate(GeneratorSpec(kind="constant", n=n))
                if ap_density(nu.fn, 3).density != 1.0:
                    wrong.append(n)
        assert wrong == []
        assert spy.call_count == 2000

    @pytest.mark.parametrize("case", ["three-level", "underflow", "overflow"])
    def test_fallbacks_take_the_walks(self, case):
        # A function with two nonzero values, or a product p that is 0 or
        # infinite as a float, is refused: there the products are not all p
        # on the progressions a kernel would count.  Only the walks of
        # ap_oracle, which form every product, take such functions.
        n = 23
        ind = np.isin(np.arange(n), [0, 1, 3, 7, 8, 12, 19]).astype(float)
        if case == "three-level":
            fs = [CyclicFn(n, ind * np.where(np.arange(n) % 2, 1.0, 2.0))] * 3
            refusal = "the weight function takes more than one nonzero value"
        else:
            c = 1e-200 if case == "underflow" else 1e200
            fs = [CyclicFn(n, ind * c)] * 3
            refusal = f"is {c * c!r} as a float at term 1"
        with mock.patch.object(apcount, "_count_route", wraps=apcount._count_route) as counted:
            with pytest.raises(ShapeMismatch, match=refusal):
                ap_density(fs[0], 3)
        assert not counted.called
        with mock.patch.object(ap_oracle, "_pair_walk", wraps=ap_oracle._pair_walk) as paired, \
                mock.patch.object(ap_oracle, "_difference_walk", wraps=ap_oracle._difference_walk) as walked:
            with np.errstate(over="ignore", invalid="ignore"):
                report, _ = _walked(fs)
        assert paired.called or walked.called
        # repr, because an overflowed product times a zero term is NaN.
        assert repr((report.density, report.trivial_count, report.nontrivial_count)) == repr(
            _density_loop(fs)
        )

    @pytest.mark.parametrize("noise", [0.2, 0.3])
    def test_rounding_check(self, noise):
        # Each count is an integer; an entry of the convolution more than
        # 0.25 from one raises instead of being rounded to a wrong count.
        f = _indicator_measure(64, 0.3, seed=5)
        expect = ap_density(f, 3)
        real = np.fft.irfft

        def noisy(*args, **kwargs):
            out = real(*args, **kwargs)
            out[1] += noise
            return out

        with mock.patch.object(np.fft, "irfft", noisy):
            if noise < 0.25:
                assert repr(ap_density(f, 3)) == repr(expect)
            else:
                with pytest.raises(NumericalInconsistency, match="off an integer"):
                    ap_density(f, 3)

    def test_count_beyond_float_exactness_raises(self):
        # Entries near 2^50 are still exact integers, but their sum over S1
        # passes 2^53, past which a float count is no longer exact.
        f = _indicator_measure(64, 0.3, seed=5)
        real = np.fft.irfft

        def huge(*args, **kwargs):
            return np.rint(real(*args, **kwargs)) + 2.0**49

        with mock.patch.object(np.fft, "irfft", huge):
            with pytest.raises(NumericalInconsistency, match="not exact as a float"):
                ap_density(f, 3)


class TestBitKernel:
    @settings(max_examples=150)
    @given(
        n=st.integers(1, 300),
        k=st.integers(1, 6),
        # Mostly nonempty supports.
        shape=st.sampled_from(["random", "full", "random", "singleton", "random", "empty"]),
        c=st.sampled_from(_LEVELS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_equal_the_walks_and_the_loop(self, n, k, shape, c, seed):
        # At every k the counts equal both walks and the loop, the density
        # is float(count) * p / N^2 exactly, with p multiplied in the walks'
        # order, and the walks' densities agree with it to roundoff.  The
        # bit kernel runs at every k but 3 when the support is not empty.
        f = _level_fn(n, shape, c, seed)
        fs = [f] * k
        with mock.patch.object(apcount, "_bit_count", wraps=apcount._bit_count) as spy:
            report = ap_density(f, k)
        assert spy.called == (k != 3 and bool(np.any(f.values)))
        counts = (report.trivial_count, report.nontrivial_count)
        difference, pair = _walk_oracles(fs)
        assert counts == difference[1:] == pair[1:]
        if n <= 60:
            assert counts == _density_loop(fs)[1:]
        p = 1.0
        for _ in range(k):
            p *= c
        assert report.density == float(sum(counts)) * p / float(n) ** 2
        for total, _, _ in (difference, pair):
            assert report.density == pytest.approx(total / float(n) ** 2, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [4, 5])
    def test_constant_measure_reads_exactly_one(self, k):
        wrong = []
        with mock.patch.object(apcount, "_bit_count", wraps=apcount._bit_count) as spy:
            for n in range(1, 2000):
                nu = generate(GeneratorSpec(kind="constant", n=n))
                if ap_density(nu.fn, k).density != 1.0:
                    wrong.append(n)
        assert wrong == []
        assert spy.call_count == 1999

    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130, 300])
    def test_block_size_keeps_every_bit(self, monkeypatch, n):
        # One difference per block, for two-level measures at k = 1..6.  A
        # block then counts one row, and the kernel counts d = 0..N//2.
        cases = [(_two_level(n, 1, seed=n + k)[0], k) for k in range(1, 7)]
        reports = [repr(ap_density(f, k)) for f, k in cases]
        monkeypatch.setattr(apcount, "_CHUNK_ELEMS", 1)
        with mock.patch.object(np, "bitwise_count", wraps=np.bitwise_count) as rows:
            assert [repr(ap_density(f, k)) for f, k in cases] == reports
        walked = [k != 3 and bool(np.any(f.values)) for f, k in cases]
        assert rows.call_count == sum(walked) * (n // 2 + 1)

    def test_charged_before_any_table(self):
        # k word operations per difference walked, N//2 + 1 of them, and
        # word of a row, with power 2; nothing is packed or counted before a
        # refusal.
        n = 200
        f = _two_level(n, 1, seed=3, zero_share=0.3)[0]
        charge = 5.0 * (n // 2 + 1) * 4
        with mock.patch.object(np, "bitwise_count", side_effect=RuntimeError), \
                mock.patch.object(np, "packbits", side_effect=RuntimeError):
            with pytest.raises(BudgetExceeded) as err:
                ap_density(f, 5, budget=charge - 1.0)
        assert (err.value.estimated, err.value.power) == (charge, 2)
        assert repr(ap_density(f, 5, budget=charge)) == repr(ap_density(f, 5))


class TestApDensity:
    def test_point_indicator_pin(self):
        # Only the constant tuple at 0 survives: exactly one trivial
        # progression out of 49 start/difference pairs.
        ind = CyclicFn(7, np.eye(7)[0])
        report = ap_density(ind, 3)
        assert report.density == 1.0 / 49.0
        assert report.trivial_count == 1
        assert report.nontrivial_count == 0
        assert report.n == 7
        assert report.k == 3

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3), (5, 4)])
    def test_loop_oracle_random(self, n, k):
        f = _two_level(n, 1, seed=10 * k, zero_share=0.3)[0]
        report = ap_density(f, k)
        density, trivial, nontrivial = _density_loop([f] * k)
        assert report.density == pytest.approx(density, rel=1e-12, abs=1e-15)
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial

    @pytest.mark.parametrize("n,k", [(11, 2), (19, 3), (23, 4)])
    def test_loop_oracle_sparse(self, n, k):
        # Sparse signed tuples take the pair walk of the oracle.
        fs = _signed_with_zeros(n, k, seed=n, zero_share=0.6)
        report, paired = _walked(fs)
        assert paired
        density, trivial, nontrivial = _density_loop(fs)
        assert report.density == pytest.approx(density, rel=1e-12, abs=1e-15)
        assert report.trivial_count == trivial
        assert report.nontrivial_count == nontrivial
        assert trivial + nontrivial > 0

    def test_loop_oracle_indicator(self):
        members = {0, 1, 3}
        ind = CyclicFn(7, np.isin(np.arange(7), list(members)).astype(float))
        report = ap_density(ind, 3)
        density, trivial, nontrivial = _density_loop([ind] * 3)
        assert report.density == pytest.approx(density, rel=1e-12)
        assert report.trivial_count == trivial == len(members)
        assert report.nontrivial_count == nontrivial

    def test_prediction_is_product_of_means(self):
        f = _two_level(5, 1, seed=0, low=0.0, high=1.0, zero_share=0.3)[0]
        report = ap_density(f, 3)
        expect = f.mean() * f.mean() * f.mean()
        assert report.prediction == pytest.approx(expect, rel=1e-12)
        assert report.ratio == pytest.approx(report.density / expect, rel=1e-12)

    def test_scaling_multilinearity(self):
        # Each of the k terms reads the measure once, so doubling it
        # multiplies the density and the prediction by 2^k.
        f = _two_level(6, 1, seed=1, low=0.1, high=1.0, zero_share=0.3)[0]
        base = ap_density(f, 3)
        twice = ap_density(CyclicFn(6, f.values * 2.0), 3)
        assert twice.density == pytest.approx(8.0 * base.density, rel=1e-12)
        assert twice.prediction == pytest.approx(8.0 * base.prediction, rel=1e-12)
        assert twice.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_zero_prediction_gives_nan_ratio(self):
        # Only an empty support has mean zero; it gives no progression.
        report = ap_density(CyclicFn(4, np.zeros(4)), 1)
        assert math.isnan(report.ratio)
        assert (report.density, report.trivial_count, report.nontrivial_count) == (0.0, 0, 0)

    def test_validation(self):
        with pytest.raises(ShapeMismatch, match="need k >= 1 terms, got 0"):
            ap_density(CyclicFn(5, np.ones(5)), 0)
        with pytest.raises(ShapeMismatch, match="the weight function takes more than one"):
            ap_density(random_cyclic(5, seed=0), 3)

    def test_budget(self):
        f = _two_level(50, 1, seed=0)[0]
        with pytest.raises(BudgetExceeded):
            ap_density(f, 3, budget=100.0)

    @pytest.mark.parametrize("walk", ["half-difference", "pair", "count"])
    def test_budget_charges_the_walk_taken(self, walk):
        # Priced before it runs, whichever walk the oracle takes.  The bit
        # kernel: k word operations per difference walked, N//2 + 1 of them,
        # and word of a row, with power 2.  The count route: 4N log2(4N) per
        # transform, two of them, with power 1.  No transform runs and no
        # table is built before a refusal.
        n = 100
        words = 2
        f, k = _indicator_measure(n, 0.2, 1), 4
        charge, power = 4.0 * (n // 2 + 1) * words, 2
        if walk == "count":
            k, charge, power = 3, 2 * 4.0 * n * math.log2(4.0 * n), 1
        elif walk == "half-difference":
            f = _two_level(n, 1, seed=0, zero_share=0.3)[0]
        with mock.patch.object(apcount, "_bit_count", side_effect=RuntimeError), \
                mock.patch.object(apcount, "_count_route", side_effect=RuntimeError), \
                mock.patch.object(np.fft, "rfft", side_effect=RuntimeError), \
                mock.patch.object(np, "bitwise_count", side_effect=RuntimeError):
            with pytest.raises(BudgetExceeded) as err:
                ap_density(f, k, budget=charge - 1.0)
        assert (err.value.estimated, err.value.power) == (charge, power)
        # The oracle's rule sends the sparse indicator measure, and only it,
        # to the pair walk.
        assert _walked([f] * k)[1] == (walk != "half-difference")
        assert repr(ap_density(f, k, budget=charge)) == repr(ap_density(f, k))

    def test_report_serialization(self):
        report = ap_density(_two_level(5, 1, seed=3)[0], 2)
        obj = json.loads(json.dumps(dataclasses.asdict(report), sort_keys=True))
        assert obj["n"] == 5 and obj["k"] == 2
        assert obj["density"] == report.density

    def test_json_byte_stable(self):
        report = ap_density(_two_level(5, 1, seed=4)[0], 2)
        text = json.dumps(dataclasses.asdict(report), sort_keys=True)
        assert text == json.dumps(dataclasses.asdict(report), sort_keys=True)


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
        obj = dataclasses.asdict(hr)
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
        report = telescoping_check(represent(nu, r), ap_density(nu.fn, r + 1).density)
        assert report.passed, report.failures()
        assert set(f"term-{m}" for m in range(r + 1)) <= set(report.ratios)
        assert "density" in report.ratios

    def test_first_term_vanishes(self):
        # The first decomposition step replaces every non-distinguished edge
        # weight by one, so the term is the mean of the centered weight: zero.
        nu = from_set({1, 2, 4}, 7)
        report = telescoping_check(represent(nu, 2), ap_density(nu.fn, 3).density)
        assert abs(report.ratios["term-0"]) < 1e-12

    def test_sum_matches_density(self):
        nu = from_set({0, 3, 5, 9}, 11)
        report = telescoping_check(represent(nu, 2), ap_density(nu.fn, 3).density)
        lam = ap_density(nu.fn, 3).density
        total = math.fsum(report.ratios[f"term-{m}"] for m in range(3))
        assert lam - 1.0 == pytest.approx(total, abs=1e-12)

    def test_with_chains_attaches_bounds(self):
        nu = from_set({1, 2, 4}, 7)
        density = ap_density(nu.fn, 3).density
        report = telescoping_check(represent(nu, 2), density, with_chains=True)
        assert report.passed, report.failures()
        for m in range(3):
            bound = report.ratios[f"term-{m}-chain-bound"]
            assert abs(report.ratios[f"term-{m}"]) <= bound + 1e-9

    @pytest.mark.parametrize("rn", [(2, 7), (3, 5)])
    @pytest.mark.parametrize("formed", [True, False], ids=["formed", "plain"])
    def test_exchanged_labels_match_the_relabeled_hypergraph(self, monkeypatch, rn, formed):
        # A term's chain reads the weights of w at exchanged labels; the
        # same chain on the copy that ``relabel`` builds is its oracle.  A
        # hypergraph without forms has no line to check the endpoint on, so
        # its chain is refused before any step is charged.
        r, n = rn
        w = represent(generate(GeneratorSpec(kind="random", n=n, p=0.6, seed=4)), r)
        for m in range(r + 1):
            caps = {
                (w.system.edge_omitting(j), 0): Cap.NU if (0 if j == m else j) < m else Cap.ONE
                for j in range(1, r + 1)
            }
            perm = list(range(r + 1))
            perm[0], perm[m] = m, 0
            if not formed:
                with monkeypatch.context() as mp:
                    mp.setattr(linform, "check_budget", None)  # any charge raises
                    with pytest.raises(NotRepresentation):
                        capped_chain_verify(unformed(w), caps, swap=m)
                continue
            ours = capped_chain_verify(w, caps, swap=m)
            oracle = capped_chain_verify(relabel(w, tuple(perm)), caps)
            assert [c.check for c in ours.checks] == [c.check for c in oracle.checks]
            assert ours.passed and oracle.passed
            for key, value in oracle.ratios.items():
                assert ours.ratios[key] == pytest.approx(value, rel=1e-12, abs=1e-15)

    def test_random_measures(self):
        for seed in range(3):
            spec = GeneratorSpec(kind="random", n=11, p=0.4, seed=seed)
            nu = generate(spec)
            report = telescoping_check(represent(nu, 2), ap_density(nu.fn, 3).density)
            assert report.passed, report.failures()


class TestRelszExperiment:
    def test_prime_modulus_full_report(self):
        nu = generate(GeneratorSpec(kind="random", n=7, p=0.5, seed=1))
        ap, report = relsz_experiment(nu, 2)
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
        nu = generate(GeneratorSpec(kind="random", n=8, p=0.5, seed=0))
        ap, report = relsz_experiment(nu, 2)
        assert ap.n == 8
        assert not report.checks
        assert any("telescoping skipped" in note for note in report.notes)
        assert "norm" in report.ratios

    def test_with_chains(self):
        _, report = relsz_experiment(
            generate(GeneratorSpec(kind="random", n=7, p=0.6, seed=2)), 2, with_chains=True
        )
        assert report.passed, report.failures()
        assert "term-1-chain-bound" in report.ratios

    def test_deterministic(self):
        spec = GeneratorSpec(kind="random", n=7, p=0.5, seed=3)
        a1, r1 = relsz_experiment(generate(spec), 2)
        a2, r2 = relsz_experiment(generate(spec), 2)
        assert a1 == a2
        assert json.dumps(r1.to_json_obj(), sort_keys=True) == json.dumps(
            r2.to_json_obj(), sort_keys=True
        )
