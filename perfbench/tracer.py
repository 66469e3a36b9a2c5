"""Outside-in tracer: spans around the public functions of each layer,
installed by function identity without changing the program.

Each ``from .x import f`` binds its own name, so a wrapper replaces every
binding of the original function object: in every loaded ``gowers.*``
module, in the ``gowers`` package namespace and in the script modules the
caller passes.  ``restore`` puts every original back.

A span is ``[name, start, end, parent, products, peak_bytes, key]``:
``parent`` indexes the enclosing span (-1 for none), ``products`` sums the
estimated products charged through ``check_budget`` while the span is open,
``peak_bytes`` is the tracemalloc peak inside the span (for the layers that
record it) and ``key`` names the input (for the layers whose repeated
inputs count as waste).
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import tracemalloc

# layer -> (module, function) for every span the tracer records.
SPANS = {
    "linform.expect_product": ("linform", "expect_product"),
    "linform.chain_verify": ("linform", "chain_verify"),
    "linform.single_chain_verify": ("linform", "single_chain_verify"),
    "linform.lf2_chain_verify": ("linform", "lf2_chain_verify"),
    "linform.binomial_expansion_identity": ("linform", "binomial_expansion_identity"),
    "linform.nu_prime": ("linform", "nu_prime"),
    "gowersnorm.u_norm_fast": ("gowersnorm", "u_norm_fast"),
    "gowersnorm.box_norm_brute": ("gowersnorm", "box_norm_brute"),
    "gowersnorm.u_norm_brute": ("gowersnorm", "u_norm_brute"),
    "gowersnorm.gcs_verify": ("gowersnorm", "gcs_verify"),
    "hypersystem.represent": ("hypersystem", "represent"),
    "hypersystem.ap_values": ("hypersystem", "ap_values"),
    "hypersystem.relabel": ("hypersystem", "relabel"),
    "hypersystem.progression_count_check": ("hypersystem", "progression_count_check"),
    "apcount.ap_density": ("apcount", "ap_density"),
    "apcount.hypothesis_ratio": ("apcount", "hypothesis_ratio"),
    "apcount.telescoping_check": ("apcount", "telescoping_check"),
    "genmeasure.generate": ("genmeasure", "generate"),
    "cli.emit": ("cli", "_emit"),
}
OP_SPAN = "cli.op"
PEAK_SPANS = {"gowersnorm.u_norm_fast", "hypersystem.represent"}


def _measure_key(nu, r):
    return f"{hashlib.sha1(nu.fn.values.tobytes()).hexdigest()} r={r}"


# Distinct keys per call count the calls that repeat work already done.
KEYS = {
    "genmeasure.generate": lambda spec: repr(spec),
    "hypersystem.represent": _measure_key,
}


class Tracer:
    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mem: list[list] = []
        self._patches: list[tuple] = []
        self._wrappers: list = []
        self.budget_calls = 0
        self.charged_products = 0.0
        self.max_charge_ratio = 0.0
        self.refusals = 0

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, key=None) -> int:
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0, 0.0, key]
        self.spans.append(span)
        self._stack.append(idx)
        if name in PEAK_SPANS:
            owner = not tracemalloc.is_tracing()
            if owner:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, 0, owner])
        span[1] = time.perf_counter()
        return idx

    def leave(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[0] in PEAK_SPANS:
            _, peak = tracemalloc.get_traced_memory()
            base, seen, owner = self._mem.pop()
            top = max(seen, peak)
            span[5] = float(top - base)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)
            if owner:
                tracemalloc.stop()

    def _span_wrapper(self, name: str, fn):
        key_of = KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name, key_of(*args, **kwargs) if key_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(idx)

        return wrapper

    def _budget_wrapper(self, fn):
        from gowers.errors import BudgetExceeded

        @functools.wraps(fn)
        def wrapper(estimated, *args, **kwargs):
            self.budget_calls += 1
            try:
                limit = fn(estimated, *args, **kwargs)
            except BudgetExceeded as exc:
                self.refusals += 1
                self.max_charge_ratio = max(self.max_charge_ratio, exc.estimated / exc.budget)
                raise
            charge = float(estimated)
            self.charged_products += charge
            self.max_charge_ratio = max(self.max_charge_ratio, charge / limit)
            for i in self._stack:
                self.spans[i][4] += charge
            return limit

        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self) -> list:
        loaded = [
            m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gowers"
        ]
        return loaded + self.extra_modules

    def install(self) -> list[str]:
        """Wrap every binding of every traced function; returns the bindings
        as ``module.name``."""
        originals = {
            name: getattr(sys.modules[f"gowers.{mod}"], fn) for name, (mod, fn) in SPANS.items()
        }
        wrappers = {name: self._span_wrapper(name, fn) for name, fn in originals.items()}
        budget = sys.modules["gowers.budget"].check_budget
        originals["budget.check_budget"] = budget
        wrappers["budget.check_budget"] = self._budget_wrapper(budget)
        by_id = {id(fn): name for name, fn in originals.items()}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is originals[name]:
                    setattr(module, attr, wrappers[name])
                    self._patches.append((module, attr, value))
        self._wrappers = list(wrappers.values())
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._patches]

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        intact = all(getattr(m, a) is original for m, a, original in self._patches)
        wrappers = set(map(id, self._wrappers))
        leftover = any(id(v) in wrappers for m in self._modules() for v in vars(m).values())
        self._patches.clear()
        return intact and not leftover

    def counters(self) -> dict:
        return {
            "budget_calls": self.budget_calls,
            "charged_products": self.charged_products,
            "max_charge_ratio": self.max_charge_ratio,
            "refusals": self.refusals,
        }
