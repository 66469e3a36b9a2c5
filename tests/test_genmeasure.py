"""Seeded measure generators: frozen member sets, exact-rational thresholds,
determinism, and validation; the in-package Philox draws against numpy's."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gowers.cli as cli
import gowers.genmeasure as genmeasure
import gowers.linform as linform
from conftest import philox
from gowers import (
    EmptySetGenerated,
    GeneratorSpec,
    KINDS,
    generate,
    generate_set,
    represent,
)
from gowers.errors import NumericalInconsistency
from gowers.genmeasure import philox_integers, philox_random
from gowers.linform import random_slf_instance

ROOT = Path(__file__).resolve().parents[1]


class TestSpecValidation:
    def test_kinds_constant(self):
        assert set(KINDS) == {"constant", "random", "interval", "quadratic", "singleton"}

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="fractal", n=7)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="random", n=0)

    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_negative_seed_names_the_field(self, kind):
        # Philox refused it with "key must be positive and less than 2**128."
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            GeneratorSpec(kind=kind, n=7, seed=-1)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            GeneratorSpec.from_json_obj({"kind": kind, "n": 7, "seed": -1})

    def test_seed_beyond_philox_names_the_field(self):
        # Philox refused it with "key must be positive and less than 2**128."
        with pytest.raises(ValueError, match=rf"seed must be below 2\*\*128, got {2**128}"):
            GeneratorSpec(kind="random", n=7, seed=2**128)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*128"):
            GeneratorSpec.from_json_obj({"kind": "constant", "n": 7, "seed": 2**129})
        assert generate_set(GeneratorSpec(kind="random", n=7, seed=2**128 - 1))

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_bad_density(self, p):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="random", n=7, p=p)

    def test_expected_size_below_one(self):
        # p * n < 1 cannot give a nonempty set reliably; rejected up front.
        with pytest.raises(ValueError):
            GeneratorSpec(kind="random", n=3, p=0.25)
        # The constant kind has no set, so the product rule does not apply.
        GeneratorSpec(kind="constant", n=3, p=0.25)

    def test_json_roundtrip(self):
        spec = GeneratorSpec(kind="quadratic", n=13, p=0.3, seed=5)
        text = json.dumps(spec.to_json_obj(), sort_keys=True)
        assert GeneratorSpec.from_json_obj(json.loads(text)) == spec

    def test_json_defaults(self):
        spec = GeneratorSpec.from_json_obj({"kind": "singleton", "n": 7})
        assert spec.p == 0.5 and spec.seed == 0


class TestGenerateSet:
    def test_random_golden_stream(self):
        # Frozen draw of the pinned pseudorandom stream: first 97 uniforms of
        # Philox keyed by 42, membership below one half.
        members = sorted(generate_set(GeneratorSpec(kind="random", n=97, p=0.5, seed=42)))
        assert len(members) == 50
        assert members[:6] == [1, 3, 4, 5, 6, 7]
        assert members[0] == 1
        assert members[-1] == 95

    def test_random_matches_reference_stream(self):
        spec = GeneratorSpec(kind="random", n=31, p=0.4, seed=9)
        rng = np.random.Generator(np.random.Philox(key=9))
        expect = frozenset(int(x) for x in np.flatnonzero(rng.random(31) < 0.4))
        assert generate_set(spec) == expect

    def test_random_deterministic(self):
        spec = GeneratorSpec(kind="random", n=50, p=0.5, seed=7)
        assert generate_set(spec) == generate_set(spec)

    def test_random_seed_sensitivity(self):
        a = generate_set(GeneratorSpec(kind="random", n=50, p=0.5, seed=0))
        b = generate_set(GeneratorSpec(kind="random", n=50, p=0.5, seed=1))
        assert a != b

    def test_random_empty_draw_raises(self):
        with pytest.raises(EmptySetGenerated):
            generate_set(GeneratorSpec(kind="random", n=8, p=0.125, seed=2))

    def test_random_small_golden(self):
        assert generate_set(GeneratorSpec(kind="random", n=8, p=0.125, seed=0)) == {0, 2}

    def test_interval(self):
        assert generate_set(GeneratorSpec(kind="interval", n=10, p=0.3)) == {0, 1, 2}
        # ceil(0.25 * 10) = 3 members: the length rounds up.
        assert generate_set(GeneratorSpec(kind="interval", n=10, p=0.25)) == {0, 1, 2}
        assert generate_set(GeneratorSpec(kind="interval", n=5, p=1.0)) == set(range(5))

    def test_quadratic_golden(self):
        assert generate_set(GeneratorSpec(kind="quadratic", n=13, p=0.3)) == {
            0, 1, 4, 9, 12,
        }

    def test_quadratic_threshold_exact(self):
        spec = GeneratorSpec(kind="quadratic", n=11, p=0.4)
        expect = {x for x in range(11) if (x * x) % 11 < 0.4 * 11}
        assert generate_set(spec) == expect

    def test_quadratic_matches_rational_threshold(self):
        # One integer threshold ceil(p * n) gives the sets of the exact
        # rational comparison x^2 mod n < p * n, p * n integral or not.
        integral = 0
        for n in range(1, 301):
            for p in (0.1, 0.125, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.7, 1.0, 1 / n, 2 / n, 0.5 + 1 / n):
                if not 0.0 < p <= 1.0 or Fraction(p) * n < 1:
                    continue
                integral += (Fraction(p) * n).denominator == 1
                expect = {x for x in range(n) if (x * x) % n < Fraction(p) * n}
                assert generate_set(GeneratorSpec(kind="quadratic", n=n, p=p)) == expect
        assert integral > 300

    def test_singleton(self):
        assert generate_set(GeneratorSpec(kind="singleton", n=7)) == {0}

    def test_constant_has_no_set(self):
        with pytest.raises(ValueError):
            generate_set(GeneratorSpec(kind="constant", n=7))


class TestGenerate:
    def test_constant_measure(self):
        nu = generate(GeneratorSpec(kind="constant", n=6))
        assert nu.fn.mean() == 1.0
        assert nu.sup == 1.0
        assert np.all(nu.fn.values == 1.0)

    def test_set_measure_mean_one(self):
        nu = generate(GeneratorSpec(kind="random", n=23, p=0.4, seed=3))
        assert nu.fn.mean() == pytest.approx(1.0, abs=1e-12)
        assert nu.n == 23

    def test_density_recorded(self):
        nu = generate(GeneratorSpec(kind="interval", n=10, p=0.3))
        assert nu.p == pytest.approx(0.3, rel=1e-15)

    def test_measure_deterministic(self):
        spec = GeneratorSpec(kind="random", n=29, p=0.5, seed=11)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.fn.values, b.fn.values)


# ---------------------------------------------------------------------------
# The in-package draws, with numpy.random as their oracle

HANDOFF = genmeasure._HANDOFF_WORDS
KEYS = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
# 2**31 + 1 rejects about half of all halves, the others almost none.
BOUNDS = [2, 3, 7, 61, 4093, 2**31 - 1, 2**31 + 1, 2**32 - 1]
# Sizes on both sides of the hand-off, for uniforms (one word each) and for
# integers (half a word each).
SIZES = st.one_of(
    st.integers(0, 9),
    st.tuples(st.integers(1, 4), st.integers(1, 5)),
    st.sampled_from([HANDOFF - 1, HANDOFF, HANDOFF + 1, 2 * HANDOFF - 1, 2 * HANDOFF + 3]),
)


def _same_draw(key: int, bound, size) -> None:
    """One request of the package's draws equals the first draws of numpy's
    generator: uniforms when ``bound`` is "random", else integers below it."""
    if bound == "random":
        got, want = philox_random(key, size), philox(key).random(size)
    else:
        got, want = philox_integers(key, 0, bound, size), philox(key).integers(0, bound, size=size)
    assert type(got) is type(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want), (bound, size)


def _spy_blocks(monkeypatch) -> list:
    """The calls made to ``_philox_blocks`` from now on, one entry each."""
    calls = []
    real = genmeasure._philox_blocks

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(genmeasure, "_philox_blocks", spy)
    return calls


def _numpy_random(key, size):
    return philox(key).random(size)


def _numpy_integers(key, low, high, size):
    return philox(key).integers(low, high, size=size)


class TestPhiloxStream:
    @settings(max_examples=100)
    @given(
        key=st.one_of(st.sampled_from(KEYS), st.integers(0, 2**128 - 1)),
        bound=st.sampled_from(["random", *BOUNDS]),
        size=SIZES,
    )
    @example(key=2**128 - 1, bound=7, size=3)
    @example(key=1, bound="random", size=2 * HANDOFF + 3)
    @example(key=2**64, bound=2**32 - 1, size=2 * HANDOFF + 3)
    def test_matches_numpy_on_one_request(self, key, bound, size):
        _same_draw(key, bound, size)

    @pytest.mark.parametrize("key", KEYS)
    def test_every_bound_across_the_handoff(self, key):
        for bound in ["random", *BOUNDS]:
            for size in (1, HANDOFF + 2, 2 * HANDOFF + 1):
                _same_draw(key, bound, size)

    def test_span_of_2_32_matches_numpy_and_above_is_refused(self):
        _same_draw(5, 2**32, 3)
        _same_draw(5, 2**32, (2, 3))
        with pytest.raises(ValueError, match=r"high - low <= 2\*\*32"):
            philox_integers(5, 0, 2**32 + 1, 3)
        with pytest.raises(ValueError):
            philox_integers(5, 4, 4, 3)

    def test_single_value_draws_nothing(self, monkeypatch):
        calls = _spy_blocks(monkeypatch)
        drawn = philox_integers(3, 6, 7, 4)
        assert np.array_equal(drawn, philox(3).integers(6, 7, size=4))
        assert np.array_equal(drawn, [6, 6, 6, 6]) and drawn.dtype == np.int64
        assert calls == []

    @pytest.mark.parametrize("key", [-1, 2**128])
    def test_key_outside_philox_range_is_refused(self, key):
        # Masking the key would turn -1 into the valid key 2**128 - 1.
        with pytest.raises(ValueError, match="Philox key"):
            philox_random(key, 1)
        with pytest.raises(ValueError, match="Philox key"):
            philox_integers(key, 0, 2, 1)
        w = represent(generate(GeneratorSpec(kind="random", n=5, p=0.6, seed=0)), 2)
        with pytest.raises(ValueError, match="Philox key"):
            random_slf_instance(w, key)

    def test_handoff_block_is_checked(self, monkeypatch):
        real = genmeasure._philox_blocks
        monkeypatch.setattr(genmeasure, "_philox_blocks", lambda key, *rest: real(key ^ 1, *rest))
        assert philox_random(8, HANDOFF).shape == (HANDOFF,)
        with pytest.raises(NumericalInconsistency, match="Philox block"):
            philox_random(8, HANDOFF + 1)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_instance_is_one_request(self, copies, monkeypatch):
        w = represent(generate(GeneratorSpec(kind="random", n=7, p=0.6, seed=0)), 2)
        calls = _spy_blocks(monkeypatch)
        random_slf_instance(w, 3, copies=copies)
        assert len(calls) == 1

    @pytest.mark.parametrize("equal", [[], ["--equal"]], ids=["drawn", "equal"])
    def test_gcs_tuple_is_one_request(self, equal, monkeypatch):
        calls = _spy_blocks(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gcs", "--dims", "3,4", "--tuples", "3", *equal]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["slf", "--r", "2", "--n", "5"],
            ["verify", "--r", "2", "--n", "5", "--seeds", "1"],
            ["gcs", "--tuples", "2"],
            ["represent", "--r", "2", "--n", "59"],
            ["norm", "--k", "2", "--n", "20011"],
            ["slf-single", "--r", "3", "--n", "5"],
            ["verify", "--r", "3", "--n", "5", "--seeds", "1"],
            ["gcs", "--dims", "3,4", "--tuples", "2"],
        ],
        ids=["slf", "verify", "gcs", "represent", "norm", "slf-single", "verify-r3", "gcs-dims"],
    )
    def test_cli_bytes_equal_numpys_generator(self, argv, monkeypatch):
        # numpy's own Generator in place of the package's draws gives the
        # same bytes; norm at N=20011 draws past the hand-off, and verify at
        # r=3 draws its random cube patterns.
        def stdout() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            return out.getvalue()

        ours = stdout()
        for module in (genmeasure, cli, linform):
            monkeypatch.setattr(module, "philox_random", _numpy_random)
        monkeypatch.setattr(cli, "philox_integers", _numpy_integers)
        assert stdout() == ours


_IMPORTS_AFTER = textwrap.dedent(
    """
    import contextlib, io, runpy, sys
    argv, code = sys.argv[1:], 0
    with contextlib.redirect_stdout(io.StringIO()):
        if argv[0].endswith(".py"):
            sys.argv = argv
            try:
                runpy.run_path(argv[0], run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        else:
            from gowers.cli import main
            code = main(argv)
    print(code, "numpy.random" in sys.modules)
    """
)


@pytest.mark.parametrize(
    "argv,imported",
    [
        (["slf", "--r", "2", "--n", "5"], False),
        (["lf2", "--r", "3", "--n", "5"], False),
        (["verify", "--r", "3", "--n", "5", "--seeds", "1"], False),
        (["gcs"], False),
        (["represent", "--r", "2", "--n", "59"], False),  # the sampled map check
        (["scripts/chain_margins.py", "--moduli", "5", "--seeds", "1"], False),
        (["norm", "--k", "2", "--n", "20011"], True),  # past the hand-off
        # Each slot of 67^2 words is below the hand-off, the instance of
        # 4 * 67^2 + 4 words above it, and an instance is one request.
        (["slf", "--r", "2", "--n", "67"], True),
    ],
    ids=["slf", "lf2", "verify", "gcs", "represent", "chain_margins", "norm-handoff", "slf-handoff"],
)
def test_numpy_random_imported_only_past_the_handoff(argv, imported):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", str(imported)]
