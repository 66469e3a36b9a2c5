"""The split-off moments of a doubling chain on the planner alone, kept as
the test oracle of the router that ``linform._chain`` takes them by.

``ybar_sq_expectation`` doubles the caps explicitly (``linform._on_planner``)
where the chain passes them to ``expect_product`` with d, and builds the
moments with the chain's own ``linform._ybar``.
"""

from __future__ import annotations

import functools
from typing import Iterable

import gowers.linform as linform
from gowers import InvalidSubset, SlfInstance, sup_norm


def ybar_sq_expectation(
    inst: SlfInstance,
    d: Iterable[int],
    j: int,
    budget: float | None = None,
) -> linform.YbarStats:
    """First and second moments of the capped product over the edge omitting
    j (the one edge missing the next doubling vertex) at doubled subset d,
    plus the exact pointwise bound E[Ybar^2] <= E[Ybar] * sup^(factor count).
    """
    w = inst.hypergraph
    dd = linform._normalize_subset(w, d)
    if j in dd or j == 0 or j > w.r:
        raise InvalidSubset(f"next vertex {j} must lie outside d and the origin")
    _, caps = linform._slf_base(inst)
    evaluate = functools.partial(linform._on_planner, budget=budget)
    return linform._ybar(linform._missing(caps, j), dd, sup_norm(w), evaluate)
