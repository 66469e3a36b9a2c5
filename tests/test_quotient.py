"""The quotient route of formed expectations: each formed quantity of the
lf2, cube and telescoping engines against the planner on the explicitly
doubled factors, the level-set oracle of formed weights, the certified
pivot columns, and the charges that now bind."""

import contextlib
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import gowers.apcount as apcount
import gowers.cli as cli
import gowers.forms as forms
import gowers.linform as linform
from conftest import philox
from form_oracle import paired
from gowers import (
    BudgetExceeded,
    CubePattern,
    EmptySetGenerated,
    GeneratorSpec,
    Lf2Exponents,
    ap_density,
    binomial_expansion_identity,
    cube_centered_expectation,
    expect_product,
    generate,
    lf2_chain_verify,
    lf2_telescoping,
    represent,
    telescoping_check,
)
from gowers.errors import NotRepresentation, NumericalInconsistency, ShapeMismatch
from gowers.forms import Form


class _OtherRoute(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _OtherRoute


def _measure(n, seed, p=0.6):
    return generate(GeneratorSpec(kind="random", n=n, p=p, seed=seed))


@contextlib.contextmanager
def _recorded(calls, quotient_only=False):
    """Append to ``calls`` the (factors, d, value) of every formed
    expectation taken inside, routed afresh; with ``quotient_only`` the box
    and split routes refuse to run."""
    real = linform.expect_product

    def recorded(factors, budget=None, what="", d=()):
        value = real(factors, budget, what, d)
        if factors and len(factors[0]) == 3:
            calls.append((factors, d, value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        if quotient_only:
            mp.setattr(linform, "_box_route", _refuse)
            mp.setattr(linform, "_split_route", _refuse)
        mp.setattr(linform, "expect_product", recorded)
        mp.setattr(apcount, "expect_product", recorded)
        yield


def _formed_calls(w, nu, exps, pattern, j, quotient_only=False):
    """(factors, d, value) of every formed expectation that the lf2
    telescoping and chains, the cube engines on the edge omitting j and the
    telescoping terms with their chains take on w (``_recorded``)."""
    calls = []
    with _recorded(calls, quotient_only):
        assert lf2_telescoping(w, exps).passed
        for i in range(1, w.r + 1):
            assert lf2_chain_verify(w, i, exps).passed
        g = w.weight_omitting(j)
        assert binomial_expansion_identity(g, [pattern])[0].passed
        cube_centered_expectation(g, pattern)
        density = ap_density(nu.fn, w.r + 1).density
        assert telescoping_check(w, density, with_chains=True).passed
    return calls


def _key(factors):
    return tuple([(arr.shape, tuple(axes), form) for arr, axes, form in factors])


def _engines_at_r3_n7():
    nu = _measure(7, 3)
    return _formed_calls(
        represent(nu, 3), nu, Lf2Exponents.all_ones(3), CubePattern.all_ones(3), 1
    )


def _command(argv):
    """The formed calls (``_recorded``) of one command-line run."""

    def formed():
        calls = []
        with _recorded(calls):
            assert cli.main(argv) == 0
        return calls

    return formed


# (r, N): every prime N <= 11 above r, but at r=4 only those whose planner
# oracle takes at most a few seconds.
_SIZES = [(1, 3), (1, 7), (2, 3), (2, 5), (2, 11), (3, 5), (3, 7), (3, 11), (4, 5), (4, 7)]


class TestQuotientAgainstThePlanner:
    def _check(self, rn, seed, data, quotient_only):
        r, n = rn
        try:
            nu = _measure(n, seed)
        except EmptySetGenerated:
            assume(False)
        w = represent(nu, r)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=2 * r, max_size=2 * r))
        j = data.draw(st.integers(0, r))
        # At most five cube vertices, so that the sub-supports stay few.
        support = data.draw(
            st.lists(st.integers(0, 2**r - 1), min_size=1, max_size=5, unique=True)
        )
        pattern = CubePattern(r, tuple(int(i in support) for i in range(2**r)))
        exps = Lf2Exponents.from_bits(r, bits)
        calls = _formed_calls(w, nu, exps, pattern, j, quotient_only)
        assert calls
        for factors, d, value in calls:
            plain = [(arr, axes) for arr, axes, _ in factors]
            assert value == pytest.approx(linform._on_planner(plain, d), rel=1e-12)

    @given(st.sampled_from(_SIZES), st.integers(0, 2**16), st.data())
    def test_every_formed_quantity(self, rn, seed, data):
        self._check(rn, seed, data, quotient_only=False)

    # Every formed structure takes the quotient at a prime modulus, even at
    # r=1 and N=3, where the box route of the centered box power that ends
    # an lf2 chain is charged no more.
    @given(st.sampled_from(_SIZES), st.integers(0, 2**16), st.data())
    def test_without_the_box_and_split_routes(self, rn, seed, data):
        self._check(rn, seed, data, quotient_only=True)

    def test_every_engine_reaches_the_quotient(self):
        # Each formed structure the engines take, at every d, runs a plan
        # through slices, and the router on the same factors without their
        # forms, the oracle of that decision, is charged more for each; the
        # hypothesis tests above would pass vacuously on structures that
        # left the quotient.
        for formed, ds in [
            (_engines_at_r3_n7, {(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3)}),
            (_command(["lf2", "--r", "4", "--n", "11"]), {(), (2,), (2, 3), (0, 1, 2, 3)}),
            (
                _command(["experiment", "--r", "3", "--n", "29", "--with-chains"]),
                {(), (1,), (1, 2), (1, 2, 3)},
            ),
        ]:
            calls = formed()
            for factors, d, _ in calls:
                route = linform._route(_key(factors), d)
                assert isinstance(route, linform._Plan) and route.slices
                plain = tuple([(arr.shape, tuple(axes)) for arr, axes, _ in factors])
                assert route.cost < linform._route(plain, d).cost
            assert {d for _, d, _ in calls} >= ds

    def test_planner_oracle_keeps_the_forms(self):
        # The cube factors of the weight omitting 0 with formed factors that
        # read vertex 0 plain: the planner oracle doubles them with their
        # forms, as the router does, at d=(0,).
        d = (0,)
        w = represent(_measure(7, 1), 3)
        g = w.weight_omitting(0)
        factors = linform._cube_factors(g.centered(), [(0, 0, 1), (1, 0, 0), (1, 1, 1)])
        for j in (1, 2):
            h = w.weight_omitting(j)
            factors.append((h.values, [(v, None if v == 0 else 0) for v in h.edge], h.form))
        planned = linform._on_planner(factors, d)
        assert all(len(f) == 3 for f in linform._double(factors, d))
        assert planned == pytest.approx(expect_product(factors, d=d), rel=1e-12)
        plain = [(arr, axes) for arr, axes, _ in factors]
        assert planned == pytest.approx(linform._on_planner(plain, d), rel=1e-12)


class TestLevelSetGuard:
    """``form_oracle.paired``, the oracle of ``EdgeFn.formed``, accepts
    exactly the arrays constant on the level sets of their form."""

    @pytest.mark.parametrize("r,n", [(1, 5), (2, 7), (3, 5), (4, 5)])
    def test_every_represented_weight_passes(self, r, n):
        w = represent(_measure(n, r), r)
        for j in range(r + 1):
            g = w.weight_omitting(j)
            assert paired(g.values, g.form) is g.values

    @pytest.mark.parametrize("r,n", [(2, 7), (3, 5), (4, 5), (4, 7)])
    def test_another_edges_form_is_refused(self, r, n):
        # Unless it is a multiple of the edge's own form, whose level sets
        # it then shares: at N=5 the edges omitting 0 and 4 have forms
        # (4, 3, 2, 1) and (4, 3, 2, 1) * 4.
        w = represent(_measure(n, r), r)
        for j, k in itertools.permutations(range(r + 1), 2):
            values, form = w.weight_omitting(j).values, w.weight_omitting(k).form
            own, other = w.weight_omitting(j).form.coeffs, form.coeffs
            if any(tuple(c * a % n for a in own) == other for c in range(1, n)):
                paired(values, form)
                continue
            with pytest.raises(NumericalInconsistency):
                paired(values, form)

    def test_one_changed_value_is_refused_in_the_last_block(self):
        # The last point, which at N=101, r=3 ``forms.formed`` writes in
        # its eighteenth block of six rows of the first axis.
        w = represent(_measure(101, 1, p=0.5), 3)
        values = np.array(w.weight_omitting(2).values)
        values[-1, -1, -1] += 1.0
        with pytest.raises(NumericalInconsistency):
            paired(values, w.weight_omitting(2).form)

    def test_zero_form_accepts_only_constants(self):
        zero = Form((0, 0), 5)
        paired(np.full((5, 5), 2.5), zero)
        with pytest.raises(NumericalInconsistency):
            paired(philox(1).random((5, 5)), zero)

    def test_form_must_fit_the_array(self):
        with pytest.raises(ShapeMismatch):
            paired(np.ones((5, 5)), Form((1, 2, 3), 5))


class TestPivots:
    @given(
        st.sampled_from([2, 3, 5, 7, 13]),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_pivots_are_a_certified_basis(self, n, m, k, data):
        row = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
        rows = [tuple(r) for r in data.draw(st.lists(row, min_size=m, max_size=m))]
        pivots = forms.pivots(rows, n)
        first = [*pivots, *[c for c in range(k) if c not in pivots]]
        permuted = [[r[c] for c in first] for r in rows]
        assert forms.independent_columns(permuted, n) == tuple(range(len(pivots)))
        # The two eliminations, which share no code, agree on the rank, and
        # where the space is small so does the size of the row space.
        assert len(forms.independent_columns(rows, n)) == len(pivots)
        if n**k <= 1000:
            span = {(0,) * k}
            for r in rows:
                span |= {
                    tuple((a + t * b) % n for a, b in zip(v, r)) for v in span for t in range(n)
                }
            assert len(span) == n ** len(pivots)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda pivots, rows: pivots[:-1],
            lambda pivots, rows: tuple(sorted({*pivots, *range(len(rows[0]))})),
        ],
        ids=["last-dropped", "every-column"],
    )
    def test_a_wrong_pivot_set_raises(self, monkeypatch, fault):
        # The chain quantity at c=(2,): 6 variables, rank 4.
        w = represent(_measure(7, 4), 3)
        base = linform._lf2_factors(w, (0, 2, 3), Lf2Exponents.all_ones(3))
        factors = linform._kept(base, (2,))
        real = forms.pivots
        monkeypatch.setattr(forms, "pivots", lambda rows, n: fault(real(rows, n), rows))
        monkeypatch.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        with pytest.raises(NumericalInconsistency):
            expect_product(factors, d=(2,))


class TestQuotientRoute:
    def test_slices_are_views(self, monkeypatch):
        w = represent(_measure(7, 5), 3)
        factors = linform._lf2_factors(w, (0, 2, 3), Lf2Exponents.all_ones(3))
        operands = []
        real = linform._run

        def recorded(plan, sliced):
            operands.extend(f[0] for f in sliced)
            return real(plan, sliced)

        monkeypatch.setattr(linform, "_run", recorded)
        expect_product(factors, d=(2,))
        arrays = [f[0] for f in factors]
        assert operands
        for op in operands:
            assert np.ndim(op) == 0 or any(np.shares_memory(op, arr) for arr in arrays)

    def test_binding_lf2_charges(self):
        # The chain quantity at c=(2,) of the edge omitting 1 is the first
        # step refused at r=3, 7 N^3 + 3 N^2 products over the rank-4 form
        # system, where the router charged 1.03e8 at N=29.
        n = 29
        w = represent(_measure(n, 6, p=0.5), 3)
        with pytest.raises(BudgetExceeded) as err:
            lf2_chain_verify(w, 1, Lf2Exponents.all_ones(3), budget=7.0 * n**3)
        assert err.value.what == "centered-term-chain at c=(2,)"
        assert (err.value.estimated, err.value.power) == (7.0 * n**3 + 3.0 * n**2, 3)

    def test_binding_lf2_charge_at_r4(self):
        n = 17
        w = represent(_measure(n, 6, p=0.5), 4)
        with pytest.raises(BudgetExceeded) as err:
            lf2_chain_verify(w, 1, Lf2Exponents.all_ones(4), budget=1.1e6)
        assert err.value.what == "centered-term-chain at c=(2, 3)"
        assert (err.value.estimated, err.value.power) == (13.0 * n**4 + 3.0 * n**3 + 3.0 * n**2, 4)

    @pytest.mark.parametrize("case", ["composite", "two-primes", "axis-off-the-modulus"])
    def test_formed_structure_off_one_prime_is_refused(self, monkeypatch, case):
        # Every formed factor the package builds has one prime modulus that
        # sizes every axis; any other formed structure is refused before any
        # charge instead of being read without its forms.
        rng = philox(7)
        n, m, size = {"composite": (6, 6, 6), "two-primes": (5, 7, 5),
                      "axis-off-the-modulus": (5, 5, 7)}[case]
        first = (rng.random((n, n)), [(1, None), (2, None)], Form((1, 2), n))
        second = (rng.random((size, n)), [(3, None), (2, None)], Form((1, 1), m))
        monkeypatch.setattr(linform, "check_budget", None)  # any charge raises
        for d in [(), (2,)]:
            with pytest.raises(NotRepresentation, match="one prime must size every form and axis"):
                expect_product([first, second], d=d)

    @pytest.mark.parametrize("case", ["reads-a-copy-of-d", "leaves-d-unread", "labels-too-few-axes"])
    def test_input_checks_run_before_the_quotient(self, monkeypatch, case):
        w = represent(_measure(5, 8), 2)
        arr, axes, form = linform.weight_factor(w, (0, 1))
        factors, d = {
            "reads-a-copy-of-d": ([linform.weight_factor(w, (0, 1), 0)], (0,)),
            "leaves-d-unread": ([(arr, axes, form)], (2,)),
            "labels-too-few-axes": ([(arr, axes[:1], form)], ()),
        }[case]
        entered = []
        real = linform._quotient_layout

        def spy(*args):
            entered.append(args)
            return real(*args)

        monkeypatch.setattr(linform, "_quotient_layout", spy)
        monkeypatch.setattr(linform, "_route", functools.lru_cache()(linform._route.__wrapped__))
        with pytest.raises(ShapeMismatch):
            expect_product(factors, d=d)
        assert entered == []
        # The spy is live: a well-formed list enters the quotient.
        expect_product([(arr, axes, form)], d=(1,))
        assert entered

    def test_mixed_factor_list_is_refused(self):
        w = represent(_measure(5, 8), 2)
        formed = linform.weight_factor(w, (0, 1))
        for factors in ([formed, formed[:2]], [formed[:2], formed]):
            with pytest.raises(ShapeMismatch):
                expect_product(factors)
            structure = tuple((f[0].shape, tuple(f[1]), *f[2:]) for f in factors)
            with pytest.raises(ShapeMismatch):
                linform._route(structure, ())
