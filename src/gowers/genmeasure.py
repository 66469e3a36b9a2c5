"""Seeded generators for test measures on Z_N.

The random kind draws its membership from a Philox (4x64) counter-based
generator keyed directly by the seed: stream id "philox-key-u01-v1", meaning
the first N uniforms of numpy's Philox with key=seed, element x joining the
set when u[x] < p.  The stream is platform independent and pinned by golden
tests; identical specs give bit-identical measures.

Set-based kinds never resample: an empty draw raises EmptySetGenerated.
Thresholds involving p are computed in exact rational arithmetic from the
binary value of p, so membership never depends on float rounding luck.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclic import CyclicFn, Measure, from_set
from .errors import EmptySetGenerated

KINDS = ("constant", "random", "interval", "quadratic", "singleton")
SET_KINDS = ("random", "interval", "quadratic", "singleton")


def _integral(value) -> int:
    """``int(value)``, refusing a bool and a float with a fractional part,
    which ``int`` would silently truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.seed >= 2**128:  # the largest Philox key is 2**128 - 1
            raise ValueError(f"seed must be below 2**128, got {self.seed}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"density must lie in (0, 1], got {self.p}")
        if self.kind in SET_KINDS and Fraction(self.p) * self.n < 1:
            raise ValueError(
                f"set kinds need p * n >= 1, got {self.p} * {self.n}"
            )

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "n": self.n, "p": self.p, "seed": self.seed}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeneratorSpec":
        """The spec a JSON object holds; ``kind`` and ``n`` are required,
        and a missing or unconvertible field raises ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError(f"generator spec must be a JSON object, got {obj!r}")
        fields = (
            ("kind", str, None),
            ("n", _integral, None),
            ("p", float, 0.5),
            ("seed", _integral, 0),
        )
        values = []
        for key, convert, default in fields:
            value = obj.get(key, default)
            if value is None:
                raise ValueError(f"generator spec field {key!r} is missing or null")
            try:
                values.append(convert(value))
            except (TypeError, ValueError):
                raise ValueError(f"generator spec field {key!r} cannot be {value!r}") from None
        return cls(*values)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        return cls.from_json_obj(json.loads(text))


def generate_set(spec: GeneratorSpec) -> frozenset[int]:
    """The member set behind a set-based spec (error if the kind has none)."""
    n, p = spec.n, spec.p
    if spec.kind == "random":
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        members = frozenset(np.flatnonzero(rng.random(n) < p).tolist())
    elif spec.kind == "interval":
        length = math.ceil(Fraction(p) * n)
        members = frozenset(range(length))
    elif spec.kind == "quadratic":
        # For an integer residue, residue < p*n exactly when residue < ceil(p*n).
        x = np.arange(n, dtype=np.int64)
        members = frozenset(np.flatnonzero(x * x % n < math.ceil(Fraction(p) * n)).tolist())
    elif spec.kind == "singleton":
        members = frozenset({0})
    else:
        raise ValueError(f"kind {spec.kind!r} does not generate a set")
    if not members:
        raise EmptySetGenerated(f"spec {spec} produced the empty set")
    return members


def generate(spec: GeneratorSpec) -> Measure:
    """Build the measure a spec describes; set kinds go through ``from_set``
    so the mean is one by construction."""
    if spec.kind == "constant":
        return Measure.from_fn(CyclicFn.constant(spec.n))
    return from_set(generate_set(spec), spec.n)
