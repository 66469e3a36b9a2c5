"""Benchmark of the ``gowers`` command line, run from outside the program.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from its
``src`` directory).  Each operation -- one ``gowers`` command or one script
run -- gets a fresh interpreter, and operations run one at a time: a closed
loop with one client.  A run repeats passes over the workload's operations
for S seconds (at least MIN_PASSES), then probes the capacity of each chain
engine.  Every output is checked (see check.py).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics.  The line before it records the environment, the sample
counts and the per-operation times.  Traced runs write their spans to
``.perfbench_out/`` in the checkout.  See NOTES.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3
# Times are reported in reference seconds: seconds on a machine where the
# child's calibration loop takes REFERENCE_LOOP_S (see scaled()).
REFERENCE_LOOP_S = 0.01
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-layer metrics: name -> (unit, which statistic of which span).
_LAYER_STATS = {
    "linform.expect_product": ("calls", "self_s", "products", "max_products"),
    "linform.chain_verify": ("self_s",),
    "linform.single_chain_verify": ("self_s",),
    "linform.lf2_chain_verify": ("self_s",),
    "linform.binomial_expansion_identity": ("self_s",),
    "linform.nu_prime": ("self_s",),
    "gowersnorm.u_norm_fast": ("calls", "self_s", "peak_mb"),
    "gowersnorm.box_norm_brute": ("calls", "self_s", "products"),
    "gowersnorm.u_norm_brute": ("calls", "self_s"),
    "gowersnorm.gcs_verify": ("calls", "self_s"),
    "hypersystem.represent": ("calls", "self_s", "unique_ratio", "peak_mb"),
    "hypersystem.ap_values": ("calls", "self_s"),
    "hypersystem.relabel": ("calls", "self_s"),
    "hypersystem.progression_count_check": ("calls", "self_s"),
    "apcount.ap_density": ("calls", "self_s"),
    "apcount.hypothesis_ratio": ("self_s",),
    "apcount.telescoping_check": ("self_s",),
    "genmeasure.generate": ("calls", "self_s", "unique_ratio"),
    "cli.emit": ("self_s",),
    "cli.op": ("self_s",),
}
_UNITS = {
    "calls": "count",
    "self_s": "s",
    "products": "count",
    "max_products": "count",
    "peak_mb": "MB",
    "unique_ratio": "ratio",
}
PER_LAYER = {
    f"{layer}.{stat}": _UNITS[stat] for layer, stats in _LAYER_STATS.items() for stat in stats
}
PER_LAYER.update(
    {
        "budget.check_budget.calls": "count",
        "budget.charged_products": "count",
        "budget.max_charge_ratio": "ratio",
        "budget.refusals": "count",
        "budget.refused_after_s": "s",
        "cli.report_bytes": "bytes",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    }
)


def capacity_metric(engine: str, r: int) -> str:
    return f"max_n.{engine}.r{r}"


END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "fraction"}
END_TO_END.update({capacity_metric(e, r): "N" for e, r in wl.CAPACITY_ENGINES})


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            k: [deps.get(k, {}).get("name"), deps.get(k, {}).get("version")]
            for k in ("blas", "lapack")
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload_seed": args.seed,
        "program_seed": seed,
        "capacity_ceilings": {f"r{r}": n for r, n in wl.CAPACITY_CEILINGS.items()},
    }


def spawn(request: dict) -> dict:
    """Run child.py in a fresh interpreter and return its result."""
    request = dict(request, root=str(ROOT), spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(request)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


class Run:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.seed = seed
        self.templates = wl.WORKLOADS[workload]
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def op(self, template: list[str], trace: bool) -> dict | None:
        """One operation: run it, check its output, return the child's result."""
        argv = wl.bind(template, self.seed)
        label = " ".join(argv)
        self.attempted += 1
        res = spawn({"op": argv, "trace": trace})
        if "error" in res:
            self.fail(label, res["error"])
            return None
        self.setup.append(scaled_setup(res))
        ref = self.reference[" ".join(template)]
        numbers = "{seed}" not in template or ref["seed"] == self.seed
        try:
            got = check.summarize(res["exit"], res["stdout"])
            why = check.compare(got, ref["summary"], numbers)
        except ValueError as exc:
            why = f"unreadable output: {exc}"
        if res["crashed"]:
            why = "traceback: " + res["stderr"].strip().splitlines()[-1]
        if trace and not res["restored"]:
            why = "tracer left a wrapped function behind"
        if why:
            self.fail(label, why)
        return res

    def run_pass(self, trace: bool) -> list[dict | None]:
        """One pass over the workload; None stands for an operation whose
        child produced no result (already counted as failed)."""
        return [self.op(t, trace) for t in self.templates]

    def probe(self) -> tuple[dict, list[dict]]:
        """Capacity of each engine: the largest prime N that exits 0 when run
        at ascending primes until the first budget refusal or the ceiling."""
        capacity, refused = {}, []
        for engine, r in wl.CAPACITY_ENGINES:
            primes = wl.capacity_primes(r)
            steps = [wl.bind(wl.capacity_op(engine, r, n), self.seed) for n in primes]
            res = spawn({"steps": steps})
            label = f"capacity {engine} r={r}"
            largest = 0
            if "error" in res:
                self.attempted += 1
                self.fail(label, res["error"])
                capacity[capacity_metric(engine, r)] = largest
                continue
            self.setup.append(scaled_setup(res))
            for n, step in zip(primes, res["steps"]):
                self.attempted += 1
                if step["exit"] == 2 and step["stderr"].startswith("budget exceeded"):
                    refused.append(step)
                    break
                try:
                    summary = check.summarize(step["exit"], step["stdout"])
                except ValueError:
                    summary = None
                ok = step["exit"] == 0 and summary and summary["ids"] and all(summary["flags"])
                if not ok:
                    tail = step["stderr"].strip().splitlines()[-1:] or ["no output"]
                    self.fail(f"{label} n={n}", f"exit {step['exit']}: {tail[0]}")
                    break
                largest = n
            capacity[capacity_metric(engine, r)] = largest
        return capacity, refused


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled(res: dict) -> float:
    """Operation time in reference seconds.

    On a shared machine single-thread speed swings by tens of percent over
    seconds, for plain Python and numpy alike.  The child times a fixed
    Python loop just before the import and just after the operation; the
    operation's time divided by the mean loop time is what stays steady.
    """
    return res["op_s"] * REFERENCE_LOOP_S * 2 / (res["cal_pre"] + res["cal_post"])


def scaled_setup(res: dict) -> float:
    """Set-up time in reference seconds, scaled by the loop timed just
    before the import."""
    return res["setup_s"] * REFERENCE_LOOP_S / res["cal_pre"]


def pass_time(results: list[dict | None]) -> float:
    return sum(scaled(r) for r in results if r)


def layer_stats(results: list[dict]) -> dict:
    """Per-layer statistics of one traced pass (its operations' spans)."""
    calls, self_s, products, max_products, peak = {}, {}, {}, {}, {}
    keys: dict[str, int] = {}
    results = [res for res in results if res is not None]
    for res in results:
        spans = res["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        distinct: dict[str, set] = {}
        for i, (name, start, end, parent, prod, peak_bytes, key) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            products[name] = products.get(name, 0.0) + prod
            max_products[name] = max(max_products.get(name, 0.0), prod)
            peak[name] = max(peak.get(name, 0.0), peak_bytes / 2**20)
            if key is not None:
                distinct.setdefault(name, set()).add(key)
        for name, seen in distinct.items():
            keys[name] = keys.get(name, 0) + len(seen)
    out = {}
    for layer, stats in _LAYER_STATS.items():
        values = {
            "calls": calls.get(layer, 0),
            "self_s": self_s.get(layer, 0.0),
            "products": products.get(layer, 0.0),
            "max_products": max_products.get(layer, 0.0),
            "peak_mb": peak.get(layer, 0.0),
            "unique_ratio": keys.get(layer, 0) / calls[layer] if calls.get(layer) else 0.0,
        }
        out.update({f"{layer}.{stat}": values[stat] for stat in stats})
    counters = [res["counters"] for res in results]
    out["budget.check_budget.calls"] = sum(c["budget_calls"] for c in counters)
    out["budget.charged_products"] = sum(c["charged_products"] for c in counters)
    out["budget.max_charge_ratio"] = max((c["max_charge_ratio"] for c in counters), default=0.0)
    out["cli.report_bytes"] = sum(len(res["stdout"].encode()) for res in results)
    out["trace.wall_s"] = sum(res["op_s"] for res in results)
    out["_self_sum_s"] = sum(self_s.values())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gowers" / "cli.py").is_file():
        sys.stderr.write(f"no gowers source under {ROOT / 'src'}: run from a source checkout\n")
        return 1

    reference = json.loads(REFERENCE.read_text())
    seed = wl.program_seed(args.seed)
    run = Run(args.workload, seed, reference)
    # Warm-up: byte-compiled modules and the file cache are in place before
    # the first timed operation, as they are for a user's second command.
    spawn({"op": ["--help"], "trace": False})
    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    while True:
        plain.append(run.run_pass(trace=False))
        if args.trace:
            traced.append(run.run_pass(trace=True))
        if time.monotonic() >= deadline and len(plain) >= (1 if args.trace else MIN_PASSES):
            break
    capacity, refused = run.probe()

    pass_s = [pass_time(results) for results in plain]
    detail = {
        "workload": args.workload,
        "env": environment(args, seed),
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": {"wall_s": len(pass_s), "setup_s": len(run.setup)},
        "pass_s": pass_s,
        "pass_s_unscaled": [sum(r["op_s"] for r in results if r) for results in plain],
        "op_s": {
            " ".join(wl.bind(t, seed)): _median([scaled(p[i]) for p in plain if p[i]])
            for i, t in enumerate(run.templates)
        },
        "capacity": capacity,
    }
    if args.trace:
        layers = [layer_stats(results) for results in traced]
        for stats in layers:
            if abs(stats.pop("_self_sum_s") - stats["trace.wall_s"]) > 1e-6 * len(run.templates):
                run.fail("trace", "per-layer self times do not sum to the traced operation time")
        values = {name: _median([s[name] for s in layers]) for name in layers[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(detail["pass_s_unscaled"])
        values["budget.refusals"] = len(refused)
        values["budget.refused_after_s"] = sum(step["op_s"] for step in refused)
        units = PER_LAYER
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = [
            {
                "op_id": [p, i],
                "op": " ".join(wl.bind(run.templates[i], seed)),
                "spans": res["spans"],
            }
            for p, results in enumerate(traced)
            for i, res in enumerate(results)
            if res
        ]
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        values = {
            "wall_s": _median(pass_s),
            "peak_rss_mb": _median(
                [max((r["rss_mb"] for r in p if r), default=0.0) for p in plain]
            ),
            "setup_s": _median(run.setup),
            "pass_ratio": (run.attempted - len(run.failures)) / run.attempted,
        }
        values.update(capacity)
        units = END_TO_END
    detail["failures"] = run.failures[:20]
    print(json.dumps(detail))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
