"""Real-valued functions on the cyclic group Z_N.

The expectation convention is uniform: E_x f(x) = (1/N) sum_x f(x).

Reductions over a single period are computed with exact compensated summation
(math.fsum, Shewchuk's algorithm) in ascending index order, so repeated runs
are bit-identical.
"""

from __future__ import annotations

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

    @classmethod
    def constant(cls, n: int, c: float = 1.0) -> "CyclicFn":
        return cls(n, np.full(n, float(c)))


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

    @classmethod
    def from_fn(cls, fn: CyclicFn) -> "Measure":
        sup = float(np.max(fn.values))
        return cls(fn, sup, 1.0 / sup)


def from_set(members: Iterable[int], n: int) -> Measure:
    """Normalized indicator measure of a nonempty S subset of Z_N.

    nu(x) = N/|S| on S and 0 elsewhere, so E nu = 1: the identity
    (N/|S|) * |S| == N is checked in exact rational arithmetic at
    construction (the stored values are the correctly rounded float).
    """
    try:
        members = np.fromiter(members, dtype=np.int64)
    except OverflowError:
        raise OutOfRange(f"an element is not in [0, {n})") from None
    if not members.size:
        raise EmptySet("from_set requires a nonempty set")
    if members.min() < 0 or members.max() >= n:
        outside = members[(members < 0) | (members >= n)]
        raise OutOfRange(f"element {outside[0]} not in [0, {n})")
    vals = np.zeros(n)
    vals[members] = 1.0
    size = int(vals.sum())  # a repeated member marks its point once
    weight = Fraction(n, size)
    if weight * size != n:  # exact rational identity behind E nu = 1
        raise NumericalInconsistency(f"(N/|S|) * |S| = {weight * size}, not N = {n}")
    vals *= float(weight)
    fn = CyclicFn(n, vals)
    return Measure(fn, float(weight), 1.0 / float(weight))

