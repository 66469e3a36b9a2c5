"""Output check: reduce an operation's output to what must stay the same,
and compare it with the reference recorded from the seed code.

An operation's summary is its exit code, the ordered list of check ids, the
list of ``pass`` flags and the list of numbers it printed (lhs, rhs, values,
ratios, CSV fields).  An operation passes when its exit code matches the
reference, every ``pass`` flag is true, the check ids are identical and --
where the inputs are the reference's -- every number is within
1e-9 * max(1, |a|, |b|) of the reference.  A planner that reorders sums
passes; a renamed check fails.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9


def _walk(obj, ids: list, flags: list, numbers: list) -> None:
    if isinstance(obj, dict):
        if isinstance(obj.get("check"), str):
            ids.append(obj["check"])
        for key in sorted(obj):
            value = obj[key]
            if key == "pass" and isinstance(value, bool):
                flags.append(value)
            else:
                _walk(value, ids, flags, numbers)
    elif isinstance(obj, list):
        for item in obj:
            _walk(item, ids, flags, numbers)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        numbers.append(obj)


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def summarize(exit_code: int | None, stdout: str) -> dict:
    """Exit code, check ids, pass flags and numbers of one operation."""
    ids: list[str] = []
    flags: list[bool] = []
    numbers: list[float] = []
    text = stdout.lstrip()
    if text.startswith("{"):
        _walk(json.loads(text), ids, flags, numbers)
    elif text:
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        ids.append(",".join(header))
        for row in rows[1:]:
            fields = dict(zip(header, row))
            if "pass" in fields:
                flags.append(fields.pop("pass") == "True")
            values = [_number(v) for v in fields.values()]
            ids.append(",".join(v for v, x in zip(fields.values(), values) if x is None))
            numbers.extend(x for x in values if x is not None)
    return {"exit": exit_code, "ids": ids, "flags": flags, "numbers": numbers}


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def compare(got: dict, ref: dict, numbers: bool) -> str | None:
    """None when ``got`` passes against ``ref``, else the first difference."""
    if got["exit"] != ref["exit"]:
        return f"exit code {got['exit']} != reference {ref['exit']}"
    if not all(got["flags"]):
        return f"{got['flags'].count(False)} pass flag(s) false"
    if got["ids"] != ref["ids"]:
        diff = next(
            (i for i, (a, b) in enumerate(zip(got["ids"], ref["ids"])) if a != b),
            min(len(got["ids"]), len(ref["ids"])),
        )
        return f"check ids differ at position {diff}"
    if not numbers:
        return None
    if len(got["numbers"]) != len(ref["numbers"]):
        return f"{len(got['numbers'])} numbers != reference {len(ref['numbers'])}"
    for i, (a, b) in enumerate(zip(got["numbers"], ref["numbers"])):
        if not _close(a, b):
            return f"number {i}: {a!r} != reference {b!r}"
    return None
