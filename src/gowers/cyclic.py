"""Real-valued functions on the cyclic group Z_N.

The expectation convention is uniform: E_x f(x) = (1/N) sum_x f(x), and the
discrete Fourier transform is normalized the same way, fhat(k) =
E_x f(x) exp(-2*pi*i*x*k/N), so that Parseval reads
sum_k |fhat(k)|^2 = E_x f(x)^2.

Reductions over a single period are computed with exact compensated summation
(math.fsum, Shewchuk's algorithm) in ascending index order, so repeated runs
are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable
import warnings

import numpy as np

from .errors import (
    EmptySet,
    NumericalInconsistency,
    OutOfRange,
    ShapeMismatch,
    SupBelowOneWarning,
)


def fsum(values: Iterable[float]) -> float:
    """Exact compensated sum in the iteration order of ``values``."""
    return math.fsum(values)


def fmean(values: np.ndarray) -> float:
    """Compensated mean of a 1-d array in ascending index order."""
    arr = np.asarray(values, dtype=np.float64)
    return math.fsum(arr.tolist()) / arr.size


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CyclicFn:
    """A function Z_N -> R stored as a dense float64 vector of length N."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"modulus must be positive, got {self.n}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n,):
            raise ShapeMismatch(f"expected shape ({self.n},), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    def __call__(self, x: int) -> float:
        return float(self.values[x % self.n])

    def mean(self) -> float:
        return fmean(self.values)

    def shift(self, h: int) -> "CyclicFn":
        """x -> f(x + h)."""
        return CyclicFn(self.n, np.roll(self.values, -(h % self.n)))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "values": [float(v) for v in self.values]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CyclicFn":
        return cls(int(obj["n"]), np.asarray(obj["values"], dtype=np.float64))

    @classmethod
    def from_json(cls, text: str) -> "CyclicFn":
        return cls.from_json_obj(json.loads(text))

    @classmethod
    def constant(cls, n: int, c: float = 1.0) -> "CyclicFn":
        return cls(n, np.full(n, float(c)))


def set_to_json_obj(members: Iterable[int], n: int) -> dict:
    return {"n": int(n), "members": sorted(int(x) for x in members)}


def set_from_json_obj(obj: dict) -> tuple[frozenset[int], int]:
    n = int(obj["n"])
    members = frozenset(int(x) for x in obj["members"])
    _validate_members(members, n)
    return members, n


def _validate_members(members: frozenset[int], n: int) -> None:
    for x in members:
        if not (0 <= x < n):
            raise OutOfRange(f"element {x} not in [0, {n})")


@dataclass(frozen=True)
class Measure:
    """A nonnegative function on Z_N carried with its sup norm and the
    density parameter p = 1/sup (exact float identity, checked)."""

    fn: CyclicFn
    sup: float
    p: float

    def __post_init__(self):
        vals = self.fn.values
        if np.any(vals < 0):
            raise ValueError("measure values must be nonnegative")
        actual_sup = float(np.max(vals))
        if actual_sup <= 0:
            raise ValueError("measure must not be identically zero")
        if actual_sup != self.sup:
            raise ValueError(f"declared sup {self.sup} != max value {actual_sup}")
        if self.p != 1.0 / self.sup:
            raise ValueError("p must equal 1/sup exactly")
        if self.sup < 1.0:
            warnings.warn(
                f"sup norm {self.sup} is below 1; sup-power bounds degrade",
                SupBelowOneWarning,
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.fn.n

    def mean(self) -> float:
        return self.fn.mean()

    def centered(self) -> CyclicFn:
        """nu - 1, the deviation from the uniform measure."""
        return CyclicFn(self.n, self.fn.values - 1.0)

    def to_json_obj(self) -> dict:
        return {"fn": self.fn.to_json_obj(), "sup": self.sup, "p": self.p}

    @classmethod
    def from_fn(cls, fn: CyclicFn) -> "Measure":
        sup = float(np.max(fn.values))
        return cls(fn, sup, 1.0 / sup)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Measure":
        return cls(CyclicFn.from_json_obj(obj["fn"]), float(obj["sup"]), float(obj["p"]))


def from_set(members: Iterable[int], n: int) -> Measure:
    """Normalized indicator measure of a nonempty S subset of Z_N.

    nu(x) = N/|S| on S and 0 elsewhere, so E nu = 1: the identity
    (N/|S|) * |S| == N is checked in exact rational arithmetic at
    construction (the stored values are the correctly rounded float).
    """
    S = frozenset(int(x) for x in members)
    if not S:
        raise EmptySet("from_set requires a nonempty set")
    _validate_members(S, n)
    weight = Fraction(n, len(S))
    if weight * len(S) != n:  # exact rational identity behind E nu = 1
        raise NumericalInconsistency(f"(N/|S|) * |S| = {weight * len(S)}, not N = {n}")
    vals = np.zeros(n)
    vals[sorted(S)] = float(weight)
    fn = CyclicFn(n, vals)
    return Measure(fn, float(weight), 1.0 / float(weight))


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a CyclicFn under the expectation normalization."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.n,):
            raise ShapeMismatch(f"expected shape ({self.n},), got {coeffs.shape}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def power(self, moment: int = 2) -> float:
        """sum_k |fhat(k)|^moment, compensated in ascending frequency order."""
        mags = np.abs(self.coefficients) ** moment
        return math.fsum(mags.tolist())


def dft(f: CyclicFn) -> Spectrum:
    """fhat(k) = E_x f(x) exp(-2*pi*i*x*k/N)."""
    return Spectrum(f.n, np.fft.fft(f.values) / f.n)


def idft(spec: Spectrum) -> CyclicFn:
    """Inverse transform; imaginary parts (roundoff for real inputs) are dropped."""
    vals = np.fft.ifft(spec.coefficients) * spec.n
    return CyclicFn(spec.n, vals.real)


def parseval_gap(f: CyclicFn) -> float:
    """|sum_k |fhat|^2 - E f^2|, which should vanish up to roundoff."""
    lhs = dft(f).power(2)
    rhs = fmean(f.values * f.values)
    return abs(lhs - rhs)


def difference_fn(f: CyclicFn, h: int) -> CyclicFn:
    """The multiplicative difference x -> f(x) * f(x + h)."""
    return CyclicFn(f.n, f.values * np.roll(f.values, -(h % f.n)))
