"""Workload definitions: the operations each workload runs, the capacity
probe, and how the benchmark seed becomes program inputs.

An operation is one ``gowers`` command or one script run.  It is written as
the argument list a user would type after ``gowers`` (or after ``python3``
for a script); ``{seed}`` marks where the workload seed goes.  Operations
without a seed option (``verify`` and the two scripts) are the same at
every seed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0

SEEDED = ["--seed", "{seed}"]
CHAIN_SEEDED = ["--seed", "{seed}", "--instance-seed", "{seed}"]

WORKLOADS: dict[str, list[list[str]]] = {
    # The shipping acceptance path: thousands of small expect_product calls,
    # so per-call overhead (and any planning cost) decides its time.
    "desk-verify": [
        ["verify", "--r", "2", "--n", "7"],
        ["verify", "--r", "3", "--n", "5"],
        ["scripts/chain_margins.py"],
    ],
    # The largest chain sizes that finish at the default budget: few, large,
    # unoptimised einsums in expect_product and box_norm_brute.
    "chain-deep": [
        ["slf", "--r", "2", "--n", "23", *CHAIN_SEEDED],
        ["slf", "--r", "3", "--n", "7", *CHAIN_SEEDED],
        ["slf", "--r", "4", "--n", "5", *CHAIN_SEEDED],
        ["slf-single", "--r", "3", "--n", "13", *CHAIN_SEEDED],
        ["slf-single", "--r", "4", "--n", "7", *CHAIN_SEEDED],
        ["lf2", "--r", "3", "--n", "13", *SEEDED],
        ["boxnorm", "--r", "3", "--n", "13", *SEEDED],
    ],
    # Never enters linform: u_norm_fast and ap_density do all the work, and
    # the N x N intermediates of u_norm_fast set the peak memory.
    "spectral-sweep": [
        ["scripts/separation_sweep.py"],
        ["norm", "--k", "3", "--n", "4096", *SEEDED],
        ["norm", "--k", "4", "--n", "256", *SEEDED],
        ["experiment", "--r", "3", "--n", "4096", "--p", "0.2", *SEEDED],
    ],
}

# Capacity probe: each engine at each r runs at ascending primes above r
# until the first budget refusal or the ceiling for that r.  slf-single and
# lf2 at r=2 are left out because both already finish at N=61.
CAPACITY_ENGINES = [
    ("slf", 2),
    ("slf", 3),
    ("slf", 4),
    ("slf-single", 3),
    ("slf-single", 4),
    ("lf2", 3),
    ("lf2", 4),
]
CAPACITY_CEILINGS = {2: 61, 3: 23, 4: 11}


def capacity_op(engine: str, r: int, n: int) -> list[str]:
    return [engine, "--r", str(r), "--n", str(n), *(SEEDED if engine == "lf2" else CHAIN_SEEDED)]


def capacity_primes(r: int) -> list[int]:
    """Ascending primes above r, up to the ceiling for r."""
    return [
        n
        for n in range(r + 1, CAPACITY_CEILINGS[r] + 1)
        if all(n % q for q in range(2, int(n**0.5) + 1))
    ]


def _draws(op: list[str]) -> tuple[int, float] | None:
    """(modulus, density) of the random measure an operation generates."""
    if "--seed" not in op or "--n" not in op:
        return None
    p = float(op[op.index("--p") + 1]) if "--p" in op else 0.5
    return int(op[op.index("--n") + 1]), p


def _nonempty(seed: int, n: int, p: float) -> bool:
    # The random generator's documented stream: the first n uniforms of
    # numpy's Philox keyed by the seed; x joins the set when u[x] < p.
    return bool((np.random.Generator(np.random.Philox(key=seed)).random(n) < p).any())


def program_seed(workload_seed: int) -> int:
    """Smallest program seed at or above the workload seed whose random
    measures are all non-empty, so that no operation fails on its input.
    One workload seed gives the same program seed in every workload.

    The generator refuses an empty draw by design; at N=3 and p=0.5 one seed
    in eight draws one.
    """
    draws = {d for d in map(_draws, all_ops()) if d is not None}
    seed = workload_seed % 2**32
    while not all(_nonempty(seed, n, p) for n, p in draws):
        seed += 1
    return seed


def all_ops() -> list[list[str]]:
    """Every operation any run can make, capacity probe steps included."""
    probe = [capacity_op(e, r, n) for e, r in CAPACITY_ENGINES for n in capacity_primes(r)]
    return [op for ops in WORKLOADS.values() for op in ops] + probe


def bind(op: list[str], seed: int) -> list[str]:
    return [str(seed) if a == "{seed}" else a for a in op]
