"""Self-checks of the benchmark on a few tiny operations.

Usage: python3 perfbench/selfcheck.py   (from the root of a source checkout)

Shows that the output check catches a perturbed number and a renamed check
id, that the tracer wraps every binding and restores every wrapped function,
that the capacity probe stops at the first budget refusal, and that the
seed argument changes the generated inputs.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys

import check
import workloads as wl
from run import END_TO_END, PER_LAYER, ROOT, Run, spawn

TINY = ["slf", "--r", "2", "--n", "5", "--seed", "0", "--instance-seed", "0"]
SWEEP = ["scripts/separation_sweep.py", "--moduli", "257", "--seeds", "1"]


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.stderr.write(f"FAIL: {what}\n")
        sys.exit(1)
    print(f"ok: {what}")


def output_check() -> None:
    res = spawn({"op": TINY, "trace": False})
    ref = check.summarize(res["exit"], res["stdout"])
    expect(check.compare(copy.deepcopy(ref), ref, numbers=True) is None, "identical output passes")
    reordered = copy.deepcopy(ref)
    reordered["numbers"] = [x * (1 + 1e-13) for x in ref["numbers"]]
    expect(check.compare(reordered, ref, numbers=True) is None, "roundoff-level change passes")
    perturbed = copy.deepcopy(ref)
    i = next(i for i, x in enumerate(ref["numbers"]) if isinstance(x, float) and x != 0.0)
    perturbed["numbers"][i] *= 1 + 1e-6
    expect(check.compare(perturbed, ref, numbers=True) is not None, "perturbed number is caught")
    renamed = copy.deepcopy(ref)
    renamed["ids"][0] += " renamed"
    expect(check.compare(renamed, ref, numbers=False) is not None, "renamed check id is caught")
    failed = copy.deepcopy(ref)
    failed["flags"][-1] = False
    expect(check.compare(failed, ref, numbers=False) is not None, "false pass flag is caught")
    csv_res = spawn({"op": SWEEP, "trace": False})
    csv_ref = check.summarize(csv_res["exit"], csv_res["stdout"])
    csv_bad = copy.deepcopy(csv_ref)
    csv_bad["numbers"][-1] += 1e-3
    expect(
        check.compare(csv_bad, csv_ref, numbers=True) is not None and len(csv_ref["numbers"]) > 0,
        "perturbed CSV field is caught",
    )


def tracer_restores() -> None:
    res = spawn({"op": TINY, "trace": True})
    patched = set(res["patched"])
    wanted = {f"gowers.{m}.check_budget" for m in ("gowersnorm", "linform", "apcount")}
    wanted |= {"gowers.expect_product", "gowers.cli.represent", "gowers.linform.expect_product"}
    expect(wanted <= patched, "every binding of a traced function is wrapped")
    expect(res["restored"], "tracer restores every wrapped function")
    res = spawn({"op": SWEEP, "trace": True})
    expect("separation_sweep.generate" in res["patched"], "script module bindings are wrapped")

    sys.path.insert(0, str(ROOT / "src"))
    import gowers.cli  # noqa: F401  (loads every gowers module)
    import gowers.linform as linform
    from tracer import Tracer

    original = linform.expect_product
    tracer = Tracer()
    tracer.install()
    linform.stray = linform.expect_product  # a binding restore does not know about
    expect(not tracer.restore(), "a wrapper left behind is detected")
    del linform.stray
    expect(linform.expect_product is original, "original function is back after restore")


def probe_stops() -> None:
    saved = wl.CAPACITY_ENGINES, wl.capacity_op
    wl.CAPACITY_ENGINES = [("slf", 2)]
    wl.capacity_op = lambda e, r, n: saved[1](e, r, n) + ["--budget", "1e4"]
    try:
        run = Run("chain-deep", 0, {})
        capacity, refused = run.probe()
    finally:
        wl.CAPACITY_ENGINES, wl.capacity_op = saved
    largest = capacity["max_n.slf.r2"]
    steps = wl.capacity_primes(2)
    expect(
        len(refused) == 1 and not run.failures and run.attempted == steps.index(largest) + 2,
        f"capacity probe stops at the first refusal (largest passing N={largest})",
    )


def seed_changes_inputs() -> None:
    from gowers.genmeasure import GeneratorSpec, generate_set

    op = wl.WORKLOADS["chain-deep"][0]
    a, b = wl.program_seed(1), wl.program_seed(2)
    expect(wl.bind(op, a) != wl.bind(op, b), "seed argument reaches the operation")
    sets = [generate_set(GeneratorSpec(kind="random", n=23, p=0.5, seed=s)) for s in (a, b)]
    expect(sets[0] != sets[1], "different seeds generate different measures")
    empty = next(s for s in range(1000) if not wl._nonempty(s, 3, 0.5))
    expect(wl.program_seed(empty) != empty, f"seed {empty} (empty draw at N=3) is skipped")


def benchmark_file() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(wl.WORKLOADS), "BENCHMARK.json names every workload")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == END_TO_END, "BENCHMARK.json lists the end-to-end metrics")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == PER_LAYER, "BENCHMARK.json lists the per-layer metrics")


def main() -> int:
    benchmark_file()
    output_check()
    tracer_restores()
    probe_stops()
    seed_changes_inputs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
