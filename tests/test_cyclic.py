"""Functions on Z_N and measures."""

from fractions import Fraction

import numpy as np
import pytest

from gowers import (
    CyclicFn,
    EmptySet,
    Measure,
    OutOfRange,
    ShapeMismatch,
    SupBelowOneWarning,
    from_set,
)


class TestCyclicFn:
    def test_constant(self):
        f = CyclicFn.constant(5, 3.0)
        assert f.mean() == 3.0
        assert f(0) == f(4) == 3.0

    def test_call_wraps_modulus(self):
        f = CyclicFn(4, [0.0, 1.0, 2.0, 3.0])
        assert f(5) == 1.0
        assert f(-1) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            CyclicFn(4, [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CyclicFn(2, [1.0, float("nan")])

    def test_values_read_only(self):
        f = CyclicFn(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            f.values[0] = 9.0


class TestMeasure:
    def test_from_set_two_point(self):
        nu = from_set({0, 2}, 4)
        assert nu.sup == 2.0
        assert nu.p == 0.5
        assert nu.fn.mean() == 1.0
        assert [nu.fn(x) for x in range(4)] == [2.0, 0.0, 2.0, 0.0]

    def test_from_set_singleton(self):
        nu = from_set({0}, 7)
        assert nu.sup == 7.0
        assert nu.fn(0) == 7.0 and nu.fn(3) == 0.0

    def test_from_set_full(self):
        nu = from_set(range(5), 5)
        assert nu.sup == 1.0
        assert np.array_equal(nu.fn.values, np.ones(5))

    def test_from_set_empty(self):
        with pytest.raises(EmptySet):
            from_set(set(), 5)

    def test_from_set_out_of_range(self):
        with pytest.raises(OutOfRange):
            from_set({5}, 5)

    @pytest.mark.parametrize("members", [[-1, 0], [0, 2**70], (-(2**70),)])
    def test_from_set_negative_or_beyond_int64(self, members):
        with pytest.raises(OutOfRange):
            from_set(members, 5)

    @pytest.mark.parametrize(
        "members,n",
        [
            ({0, 2}, 4),
            ([3, 1, 3, 0], 7),
            (np.array([6, 2, 2], dtype=np.int32), 7),
            ([np.int64(4), 1], 5),
            (range(12), 12),
            (np.flatnonzero(np.arange(4093) % 7 < 2).tolist(), 4093),
        ],
    )
    def test_from_set_matches_the_per_element_route(self, members, n):
        # The per-element conversion, range check and sort the vectorized
        # route replaced; the values agree bit for bit.
        members = list(members)
        S = sorted(frozenset(int(x) for x in members))
        weight = float(Fraction(n, len(S)))
        vals = np.zeros(n)
        vals[S] = weight
        nu = from_set(members, n)
        assert nu.fn.values.tolist() == vals.tolist()
        assert (nu.sup, nu.p) == (weight, 1.0 / weight)

    def test_centered_mean_zero(self):
        nu = from_set({1, 2, 4}, 7)
        assert abs(nu.centered().mean()) < 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Measure.from_fn(CyclicFn(3, [1.0, -0.5, 2.5]))

    def test_sup_must_match(self):
        fn = CyclicFn(3, [1.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            Measure(fn, 3.0, 1.0 / 3.0)

    def test_sup_below_one_warns(self):
        with pytest.warns(SupBelowOneWarning):
            Measure.from_fn(CyclicFn.constant(4, 0.5))

