#!/usr/bin/env python3
"""Sweep measure generators across prime moduli and tabulate uniformity-norm
ratios against progression densities.

One CSV row per (kind, modulus, seed): the centered norm, the norm divided
by the two candidate density powers, and the progression density of the
measure, so the decay of random sets against structured sets can be read off
directly.  Deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import sys

from gowers import GeneratorSpec, ap_density, generate, hypothesis_ratio

HEADER = (
    "kind",
    "n",
    "seed",
    "p",
    "norm",
    "over_p_r",
    "over_p_half_r",
    "density",
    "density_minus_one",
)
KINDS = ("random", "interval", "quadratic")


def _moduli(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def sweep_rows(args):
    for n in args.moduli:
        for kind in KINDS:
            seeds = range(args.seeds) if kind == "random" else (0,)
            for seed in seeds:
                nu = generate(GeneratorSpec(kind=kind, n=n, p=args.p, seed=seed))
                hr = hypothesis_ratio(nu, args.r, args.budget)
                ap = ap_density([nu.fn] * (args.r + 1), args.budget)
                yield (
                    kind,
                    n,
                    seed,
                    repr(hr.p),
                    repr(hr.norm),
                    repr(hr.over_p_r),
                    repr(hr.over_p_half_r),
                    repr(ap.density),
                    repr(ap.density - 1.0),
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--moduli", type=_moduli, default=(257, 1009, 4093), help="comma-separated moduli"
    )
    parser.add_argument("--p", type=float, default=0.2, help="target density")
    parser.add_argument("--seeds", type=int, default=10, help="random draws per modulus")
    parser.add_argument("--r", type=int, default=2, help="norm order")
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error(f"--seeds must be nonnegative, got {args.seeds}")

    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(HEADER)
        for row in sweep_rows(args):
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
