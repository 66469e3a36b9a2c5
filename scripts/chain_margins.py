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
import csv
import sys
from collections import defaultdict
from dataclasses import dataclass, replace

from gowers import (
    EmptySetGenerated,
    GeneratorSpec,
    Lf2Exponents,
    chain_verify,
    generate,
    lf2_chain_verify,
    random_slf_instance,
    represent,
    single_chain_verify,
)

HEADER = ("variant", "r", "n", "seed", "check", "lhs", "rhs", "margin", "pass")


@dataclass(frozen=True)
class MarginConfig:
    r: int = 2
    moduli: tuple[int, ...] = (5, 7, 11)
    seeds: int = 10
    caps: str = "mixed"
    budget: float | None = None


def _measures(cfg: MarginConfig, n: int):
    found, seed = 0, 0
    while found < cfg.seeds:
        try:
            nu = generate(GeneratorSpec(kind="random", n=n, p=0.5, seed=seed))
        except EmptySetGenerated:
            seed += 1
            continue
        yield found, nu
        found += 1
        seed += 1


def margin_rows(cfg: MarginConfig):
    for n in cfg.moduli:
        for idx, nu in _measures(cfg, n):
            w = represent(nu, cfg.r)
            reports = [
                ("two-copy", chain_verify(random_slf_instance(w, idx, cfg.caps), cfg.budget)),
                (
                    "single-copy",
                    single_chain_verify(
                        random_slf_instance(w, idx, cfg.caps, copies=1), cfg.budget
                    ),
                ),
            ]
            exps = Lf2Exponents.all_ones(cfg.r)
            for j in range(1, cfg.r + 1):
                reports.append(
                    (f"doubled-origin-j{j}", lf2_chain_verify(w, j, exps, cfg.budget))
                )
            for variant, report in reports:
                for c in report.checks:
                    yield (
                        variant,
                        cfg.r,
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
    parser.add_argument("--r", type=int, default=None, help="hypergraph arity")
    parser.add_argument("--moduli", default=None, help="comma-separated prime moduli")
    parser.add_argument("--seeds", type=int, default=None, help="instances per modulus")
    parser.add_argument("--caps", choices=("one", "nu", "mixed"), default=None)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    cfg = MarginConfig()
    if args.r is not None:
        cfg = replace(cfg, r=args.r)
    if args.moduli:
        cfg = replace(cfg, moduli=tuple(int(x) for x in args.moduli.split(",")))
    if args.seeds is not None:
        cfg = replace(cfg, seeds=args.seeds)
    if args.caps is not None:
        cfg = replace(cfg, caps=args.caps)
    if args.budget is not None:
        cfg = replace(cfg, budget=args.budget)

    worst: dict[str, float] = defaultdict(lambda: float("inf"))
    failures = 0
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(HEADER)
        for row in margin_rows(cfg):
            writer.writerow(row)
            family = row[4].split(" ")[0]
            worst[family] = min(worst[family], float(row[7]))
            failures += 0 if row[8] else 1
    finally:
        if args.output:
            out.close()
    for family in sorted(worst):
        sys.stderr.write(f"worst margin {family}: {worst[family]:.3e}\n")
    sys.stderr.write(f"failing checks: {failures}\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
