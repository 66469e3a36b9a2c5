"""Exception and warning types shared across the package."""

from __future__ import annotations


class GowersError(Exception):
    """Base class for all package-specific errors."""


class EmptySet(GowersError):
    """A set that must be nonempty was empty."""


class EmptySetGenerated(GowersError):
    """A random set generator produced the empty set.

    Raised instead of silently resampling so that seeded runs stay honest.
    """


class OutOfRange(GowersError):
    """An element fell outside the cyclic group it was declared to live in."""


class ShapeMismatch(GowersError):
    """Arrays or edge functions with incompatible shapes were combined."""


class CompositeModulus(GowersError):
    """A prime modulus was required but a composite one was supplied."""


class ModulusTooSmall(GowersError):
    """The modulus does not exceed the hypergraph arity, so the coordinate
    coefficients would not all be invertible."""


class NotRepresentation(GowersError):
    """The weighted hypergraph was built directly, so no linear-form metadata
    is available for arithmetic-progression lookups."""


class AllZeroPattern(GowersError):
    """A centered cube expectation needs at least one active vertex."""


class InvalidSubset(GowersError):
    """A vertex subset argument was not contained in the expected edge."""


class CapViolation(GowersError):
    """A minorant function exceeded its declared cap somewhere."""


class BudgetExceeded(GowersError):
    """A brute-force evaluation would exceed the elementary-product budget.

    Carries the estimated term count so callers can report what was asked
    for, and ``power``, the exponent of the modulus in the step's cost (0 when
    unknown), so they can suggest a modulus that fits.
    """

    def __init__(self, estimated: float, budget: float, what: str = "", power: int = 0):
        self.estimated = float(estimated)
        self.budget = float(budget)
        self.what = what
        self.power = power
        label = f" for {what}" if what else ""
        super().__init__(
            f"estimated {estimated:.3g} elementary products{label} "
            f"exceeds budget {budget:.3g}"
        )


class NumericalInconsistency(GowersError):
    """A quantity that must be nonnegative (or an internal identity) failed
    by more than the documented tolerance."""


class SupBelowOneWarning(UserWarning):
    """A measure or weighted hypergraph has sup norm below one; the chain
    bounds that involve sup-norm powers are still computed but lose their
    usual meaning."""
