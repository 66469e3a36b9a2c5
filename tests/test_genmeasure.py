"""Seeded measure generators: frozen member sets, exact-rational thresholds,
determinism, and validation."""

import numpy as np
import pytest

from gowers import (
    EmptySetGenerated,
    GeneratorSpec,
    KINDS,
    generate,
    generate_set,
)


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
        again = GeneratorSpec.from_json(spec.to_json())
        assert again == spec

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
