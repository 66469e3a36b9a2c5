#!/usr/bin/env python3
"""Run seeded doubling-chain verifications and tabulate every check margin.

One CSV row per recorded check across the two-copy chain, the single-copy
chain, and the doubled-origin chains of each instance, so the slack in each
squared step, pointwise bound, and endpoint identity can be inspected at
desk scale.  A summary of the smallest margin per check family goes to
stderr.  Deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from gowers import (
    EmptySetGenerated,
    GeneratorSpec,
    Lf2Exponents,
    chain_verify,
    generate,
    lf2_chain_verify,
    random_slf_instance,
    represent_charged,
    single_chain_verify,
)
from gowers.cli import csv_text, guarded, modulus_flag, write_text

HEADER = ("variant", "r", "n", "seed", "check", "lhs", "rhs", "margin", "pass")


def _moduli(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _measures(n: int, count: int):
    found, seed = 0, 0
    while found < count:
        try:
            nu = generate(GeneratorSpec(kind="random", n=n, p=0.5, seed=seed))
        except EmptySetGenerated:
            seed += 1
            continue
        yield found, nu
        found += 1
        seed += 1


def margin_rows(args, budget: float):
    for n in args.moduli:
        for idx, nu in _measures(n, args.seeds):
            with modulus_flag("--moduli"):
                w = represent_charged(nu, args.r, budget)
            single = random_slf_instance(w, idx, args.caps, copies=1)
            reports = [
                ("two-copy", chain_verify(random_slf_instance(w, idx, args.caps), budget)[0]),
                ("single-copy", single_chain_verify(single, budget)[0]),
            ]
            exps = Lf2Exponents.all_ones(args.r)
            for j in range(1, args.r + 1):
                reports.append(
                    (f"doubled-origin-j{j}", lf2_chain_verify(w, j, exps, budget))
                )
            for variant, report in reports:
                for c in report.checks:
                    yield (
                        variant,
                        args.r,
                        n,
                        idx,
                        c.check,
                        repr(c.lhs),
                        repr(c.rhs),
                        repr(c.margin),
                        c.passed,
                    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=2, help="hypergraph arity")
    parser.add_argument(
        "--moduli", type=_moduli, default=(5, 7, 11), help="comma-separated prime moduli"
    )
    parser.add_argument("--seeds", type=int, default=10, help="instances per modulus")
    parser.add_argument("--caps", choices=("one", "nu", "mixed"), default="mixed")
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error(f"--seeds must be nonnegative, got {args.seeds}")
    return guarded(lambda budget: _write(args, budget), args.budget)


def _write(args, budget: float) -> int:
    # Every row is computed before the output is opened, so a run that fails
    # part way writes nothing.
    rows = list(margin_rows(args, budget))
    write_text(csv_text(HEADER, rows), args.output)
    worst: dict[str, float] = defaultdict(lambda: float("inf"))
    failures = 0
    for row in rows:
        family = row[4].split(" ")[0]
        worst[family] = min(worst[family], float(row[7]))
        failures += 0 if row[8] else 1
    for family in sorted(worst):
        sys.stderr.write(f"worst margin {family}: {worst[family]:.3e}\n")
    sys.stderr.write(f"failing checks: {failures}\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
