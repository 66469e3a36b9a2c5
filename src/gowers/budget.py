"""Elementary-product budget guard for brute-force evaluations.

Every brute-force engine estimates its term count (index-space size times
factors per term) before touching memory and refuses to start if the estimate
exceeds the budget; an estimate beyond the float range is infinite
(``power_cost``) and refused like any other.  The default budget is 1e8 and
can be overridden per call or through the GOWERS_BUDGET environment
variable; a value that is not a finite positive number is refused rather
than taken to switch the guard off.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 1e8
ENV_VAR = "GOWERS_BUDGET"


def resolve_budget(budget: float | None = None) -> float:
    """Explicit argument wins, then the environment variable, then the default.

    Raises ValueError, naming the value, for a budget that is NaN, infinite,
    zero or negative.
    """
    if budget is not None:
        value, source = float(budget), "budget"
    else:
        raw = os.environ.get(ENV_VAR)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value, source = float(raw), ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be a number, got {raw!r}") from exc
    if not 0.0 < value < math.inf:
        raise ValueError(f"{source} must be a finite positive number, got {value!r}")
    return value


def power_cost(base: float, exponent: float) -> float:
    """``base ** exponent`` as a float product count: infinite where a float
    cannot hold it, so a step too large to price is refused, not crashed."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def check_budget(
    estimated: float, budget: float | None = None, what: str = "", power: int = 0
) -> float:
    """Raise BudgetExceeded when ``estimated`` products exceed the budget.

    ``power`` is the exponent of the modulus in the step's cost; a refusal
    carries it so the caller can suggest a modulus that fits.  Returns the
    resolved budget so callers can thread it to sub-steps.
    """
    limit = resolve_budget(budget)
    if estimated > limit:
        raise BudgetExceeded(estimated, limit, what, power)
    return limit
