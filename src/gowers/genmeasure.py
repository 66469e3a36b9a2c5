"""Seeded generators for test measures on Z_N, and the Philox draws behind
them.

The random kind draws its membership from the Philox4x64-10 counter-based
stream keyed directly by the seed: stream id "philox-key-u01-v1", meaning the
first N uniforms of numpy's ``Generator(Philox(key=seed))``, element x
joining the set when u[x] < p.  Every seeded draw of the package is one
request of the first words of Philox(key): ``philox_random`` and
``philox_integers`` return the first draws of numpy's generator, computed in
the package bit for bit, so a seeded draw never imports numpy.random; a
request of more than ``_HANDOFF_WORDS`` words is handed to numpy's own
Philox, and numpy.random is the oracle of the draws' tests.  The stream is
platform independent and pinned by golden tests; identical specs give
bit-identical measures.

Set-based kinds never resample: an empty draw raises EmptySetGenerated.
Thresholds involving p are computed in exact rational arithmetic from the
binary value of p, so membership never depends on float rounding luck.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclic import CyclicFn, Measure, from_set
from .errors import EmptySetGenerated, NumericalInconsistency

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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011) as numpy runs it.
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_SLOT = b"\x01" + bytes(15)  # a 128-bit slot holding one, little-endian
# A single request of more words is drawn by numpy's Philox.  On a 2-CPU
# Xeon the rounds below take 3.5 ms for 2**14 words, against 13 ms to import
# numpy.random and draw them there; they grow linearly, so the 590,408 words
# of `count --r 2 --n 590407` would take 190 ms in the package and 17 ms in
# numpy.
_HANDOFF_WORDS = 2**14


def _philox_blocks(key: int, first: int, count: int) -> np.ndarray:
    """The words of the Philox4x64-10 blocks at counters first..first+count-1
    under ``key``, in stream order: word 4j + i is lane i of block j.

    Lane i of block j sits in 128-bit slot j of the Python integer x_i, so
    one multiply forms every 64x64 -> 128-bit product of a round and every
    other step is one bitwise operation on all blocks at once."""
    counters = np.zeros((count, 2), dtype="<u8")  # counters stay below 2**64
    counters[:, 0] = np.arange(first, first + count, dtype=np.uint64)
    x0, x1, x2, x3 = int.from_bytes(counters.tobytes(), "little"), 0, 0, 0
    ones = int.from_bytes(_SLOT * count, "little")
    mask = _MASK64 * ones
    k0, k1 = (key & _MASK64) * ones, (key >> 64) * ones
    w0, w1 = _W0 * ones, _W1 * ones
    for _ in range(10):
        p0, p1 = x0 * _M0, x2 * _M1
        x0, x1, x2, x3 = (
            (p1 >> 64) & mask ^ x1 ^ k0,
            p1 & mask,
            (p0 >> 64) & mask ^ x3 ^ k1,
            p0 & mask,
        )
        k0, k1 = (k0 + w0) & mask, (k1 + w1) & mask
    words = np.empty((count, 4), dtype=np.uint64)
    for lane, x in enumerate((x0, x1, x2, x3)):
        words[:, lane] = np.frombuffer(x.to_bytes(16 * count, "little"), dtype="<u8")[::2]
    return words.ravel()


def _words(key: int, m: int) -> np.ndarray:
    """The first m words of numpy's ``Philox(key=key)``: word i is lane
    i mod 4 of the block at counter i // 4 + 1.  More than
    ``_HANDOFF_WORDS`` words come from numpy's Philox, whose first block
    must equal the package's."""
    key = operator.index(key)
    if not 0 <= key < 2**128:
        raise ValueError(f"Philox key must lie in 0..2**128 - 1, got {key}")
    if m <= _HANDOFF_WORDS:
        return _philox_blocks(key, 1, -(-m // 4))[:m]
    from numpy.random import Philox

    raw = Philox(key=key).random_raw(m)
    if not np.array_equal(raw[:4], _philox_blocks(key, 1, 1)):
        raise NumericalInconsistency("numpy's Philox block 1 differs from the package's")
    return raw


def philox_random(key: int, size) -> np.ndarray:
    """The first uniforms on [0, 1) of numpy's ``Generator(Philox(key=key))``,
    an array of shape ``size``: word w gives (w >> 11) * 2**-53."""
    return ((_words(key, int(np.prod(size))) >> 11) * 2.0**-53).reshape(size)


def philox_integers(key: int, low: int, high: int, size) -> np.ndarray:
    """The first integers uniform on low..high-1 of numpy's
    ``Generator(Philox(key=key))``, an int64 array of shape ``size``.

    Each value is numpy's: the words are split into 32-bit halves, low half
    first, and a half h is scaled to m = h * span and kept as m >> 32 unless
    m mod 2**32 < (2**32 - span) mod span.  A span of one draws nothing, as
    in numpy; a span above 2**32 would need numpy's 64-bit rule and is
    refused."""
    span = high - low
    if not 1 <= span <= 2**32:
        raise ValueError(f"integers needs 1 <= high - low <= 2**32, got [{low}, {high})")
    n = int(np.prod(size))
    if span == 1 or n == 0:
        return np.full(size, low, dtype=np.int64)
    threshold = (2**32 - span) % span
    nwords = -(-n // 2)
    while True:
        words = _words(key, nwords)
        scaled = np.stack((words & _MASK32, words >> 32), 1).ravel() * np.uint64(span)
        kept = np.flatnonzero((scaled & _MASK32) >= threshold)
        if len(kept) >= n:
            return (low + (scaled[kept[:n]] >> 32).astype(np.int64)).reshape(size)
        nwords += n - len(kept)


def generate_set(spec: GeneratorSpec) -> frozenset[int]:
    """The member set behind a set-based spec (error if the kind has none)."""
    n, p = spec.n, spec.p
    if spec.kind == "random":
        members = frozenset(np.flatnonzero(philox_random(spec.seed, n) < p).tolist())
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
