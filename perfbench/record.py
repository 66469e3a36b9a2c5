"""Record the reference outputs every operation is checked against.

Usage: python3 perfbench/record.py

Runs each workload operation once at the default workload seed, from the
root of a source checkout, and writes perfbench/reference.json.  Run it on
the commit whose outputs define "the same numbers"; a later change that
moves a number by more than the tolerance in check.py, renames a check or
changes an exit code then fails the benchmark.
"""

from __future__ import annotations

import json
import sys

import check
import workloads as wl
from run import REFERENCE, spawn


def main() -> int:
    seed = wl.program_seed(wl.DEFAULT_SEED)
    reference = {}
    for template in (t for ops in wl.WORKLOADS.values() for t in ops):
        res = spawn({"op": wl.bind(template, seed), "trace": False})
        if "error" in res or res["crashed"]:
            sys.stderr.write(f"{' '.join(template)}: {res.get('error') or res['stderr']}\n")
            return 1
        summary = check.summarize(res["exit"], res["stdout"])
        reference[" ".join(template)] = {"seed": seed, "summary": summary}
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
