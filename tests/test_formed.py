"""Weights that carry their own linear form: ``EdgeFn.formed`` against the
level-set oracle (``form_oracle``), the form kept by ``centered`` and by
``relabel``, and dropped by every other way of building a weight."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import philox
from form_oracle import expected, paired
from gowers import EdgeFn, ShapeMismatch, from_set, relabel, represent
from gowers.forms import Form

_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def _forms(draw):
    """A prime N <= 13 and a form of 1..4 coefficients mod N, zeros and the
    zero form among them."""
    n = draw(st.sampled_from(_PRIMES))
    k = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return Form(tuple(coeffs), n)


class TestFormedConstructor:
    @given(form=_forms(), seed=st.integers(0, 2**16))
    @example(form=Form((0, 0, 0), 5), seed=1)
    @example(form=Form((0, 3, 0, 1), 7), seed=2)
    @example(form=Form((12, 0, 5, 7), 13), seed=3)
    def test_formed_is_h_at_the_form(self, form, seed):
        h = philox(seed).random(form.modulus) * 2.0
        edge = tuple(range(1, len(form.coeffs) + 1))
        g = EdgeFn.formed(edge, h, form)
        assert g.form == form and g.edge == edge
        assert g.dims == (form.modulus,) * len(edge)
        assert not g.values.flags.writeable
        assert np.array_equal(g.values, expected(h, form))
        assert paired(g.values, g.form) is g.values

    @given(form=_forms(), seed=st.integers(0, 2**16))
    @example(form=Form((0, 0), 3), seed=4)
    def test_centered_keeps_the_form(self, form, seed):
        h = philox(seed).random(form.modulus) * 2.0
        edge = tuple(range(len(form.coeffs)))
        centered = EdgeFn.formed(edge, h, form).centered()
        assert centered.form == form
        assert centered.values.tobytes() == EdgeFn.formed(edge, h - 1.0, form).values.tobytes()

    @given(form=_forms(), seed=st.integers(0, 2**16))
    def test_other_constructions_carry_no_form(self, form, seed):
        h = philox(seed).random(form.modulus)
        edge = tuple(range(len(form.coeffs)))
        g = EdgeFn.formed(edge, h, form)
        assert EdgeFn(edge, g.dims, g.values).form is None
        assert dataclasses.replace(g).form is None
        assert dataclasses.replace(g, values=g.values + 1.0).form is None
        assert EdgeFn(edge, g.dims, g.values).centered().form is None

    def test_form_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            EdgeFn((0,), (3,), np.ones(3), Form((1,), 3))
        with pytest.raises(TypeError):
            EdgeFn((0,), (3,), np.ones(3), form=Form((1,), 3))

    def test_h_must_fit_the_modulus(self):
        for h in (np.ones(4), np.ones(6), np.ones((5, 1))):
            with pytest.raises(ShapeMismatch):
                EdgeFn.formed((0, 1), h, Form((1, 2), 5))
        with pytest.raises(ShapeMismatch):
            EdgeFn.formed((0, 1), np.ones(5), Form((1, 2, 3), 5))


@st.composite
def _relabelings(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.sampled_from([p for p in _PRIMES if p > r]))
    perm = tuple(draw(st.permutations(range(r + 1))))
    return r, n, perm


class TestRelabelKeepsForms:
    @given(case=_relabelings(), seed=st.integers(0, 2**16))
    @example(case=(4, 13, (4, 2, 0, 3, 1)), seed=0)
    def test_every_relabeled_weight_passes_the_oracle(self, case, seed):
        r, n, perm = case
        nu = from_set({int(x) for x in philox(seed).integers(0, n, size=3)}, n)
        v = relabel(represent(nu, r), perm)
        for g in v.weights.values():
            assert g.form is not None and g.form.modulus == n
            assert all(c % n for c in g.form.coeffs)
            assert paired(g.values, g.form) is g.values
            assert np.array_equal(g.values, expected(nu.fn.values, g.form))
