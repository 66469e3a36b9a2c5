"""Batch front-end for every engine in the package.

Each subcommand builds its inputs from a seeded generator spec (or a JSON
file holding one), runs the requested computation, and writes a
machine-readable report to stdout or a file.  Exit code 0 means every check
passed, 1 means at least one check failed, 2 means a usage, budget,
out-of-memory or internal error.
Budget errors carry the estimated elementary-product count and, when the
refused step's cost scales with the modulus, the largest prime modulus at
which that step fits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .apcount import (
    CSV_HEADER,
    ApReport,
    ap_density,
    hypothesis_ratio,
    relsz_experiment,
    telescoping_check,
)
from .budget import DEFAULT_BUDGET, check_budget, resolve_budget
from .errors import BudgetExceeded, GowersError, NumericalInconsistency
from .genmeasure import KINDS, GeneratorSpec, generate
from .gowersnorm import (
    EdgeFn,
    box_norm,
    cube_vertices,
    gcs_verify,
    u_norm_brute,
    u_norm_fast,
)
from .hypersystem import (
    charge_representation,
    is_prime,
    map_failures,
    progression_count_check,
    represent,
)
from .linform import (
    CubePattern,
    Lf2Exponents,
    binomial_expansion_identity,
    chain_verify,
    cube_centered_expectation,
    cube_expectation,
    lf2_chain_verify,
    lf2_expectation,
    lf2_telescoping,
    lf2_term,
    nu_prime,
    nu_prime_l2_dev,
    q_value,
    random_slf_instance,
    single_chain_verify,
    slf_lhs,
)
from .report import TOL, VerificationReport, eq_check

SCHEMA = 1


class UsageError(Exception):
    """Usage error raised after argparse; printed to stderr, exit code 2."""


def _spec_from_args(args) -> GeneratorSpec:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return GeneratorSpec.from_json_obj(json.load(fh))
    if args.n is None:
        raise UsageError("--n is required (or pass --input with a spec file)")
    _seed("--seed", args.seed)
    return GeneratorSpec(kind=args.kind, n=args.n, p=args.p, seed=args.seed)


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be nonnegative, got {value}")


def _seed(flag: str, seed: int, tuples: int = 1) -> None:
    """Refuse a seed that cannot key Philox: negative, or with the last key
    drawn from it, ``seed + tuples - 1``, at 2**128 or above."""
    _nonnegative(flag, seed)
    if seed + max(tuples, 1) - 1 >= 2**128:
        limit = f"2**128 - {tuples - 1} for --tuples {tuples}" if tuples > 1 else "2**128"
        raise UsageError(f"{flag} must be below {limit}, got {seed}")


def _in_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise UsageError(f"{flag} must be in {lo}..{hi}, got {value}")


def _bits(flag: str, text: str) -> list[int]:
    if set(text) - set("01"):
        raise UsageError(f"{flag} must be a string of 0s and 1s, got {text!r}")
    return [int(ch) for ch in text]


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help=f"max elementary products (default {DEFAULT_BUDGET:g}, env GOWERS_BUDGET)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _fold(dst: VerificationReport, sub: VerificationReport, prefix: str) -> None:
    """Merge a sub-report's checks (ids prefixed) and drop its ratios."""
    for c in sub.checks:
        dst.add(replace(c, check=f"{prefix}: {c.check}"))
    dst.notes.extend(f"{prefix}: {note}" for note in sub.notes)


def csv_text(header, rows) -> str:
    """CSV text of a header and its rows, each line ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_text(text: str, path: str | None) -> None:
    """Write text to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj: dict, args) -> None:
    if args.format == "json":
        # Strict JSON: a NaN or infinite number raises ValueError (exit 2).
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif "ap" in obj:
        text = f"{CSV_HEADER}\n{ApReport(**obj['ap']).to_csv_row()}\n"
    elif {"suites", "reports", "report"} & obj.keys():
        reports = obj.get("suites", obj.get("reports", [obj.get("report")]))
        rows = (
            (rep["name"], c["check"], repr(c["lhs"]), repr(c["rhs"]), repr(c["margin"]),
             c["pass"], c.get("note", ""))
            for rep in reports
            for c in rep["checks"]
        )
        text = csv_text(("report", "check", "lhs", "rhs", "margin", "pass", "note"), rows)
    else:
        values = obj.get("values", {})
        text = csv_text(("name", "value"), ((key, repr(values[key])) for key in sorted(values)))
    write_text(text, args.output)


def _result(args, inputs: dict, extra: dict, passed: bool) -> int:
    obj = {"schema": SCHEMA, "command": args.command, "inputs": inputs, "pass": passed}
    obj.update(extra)
    _emit(obj, args)
    return 0 if passed else 1


def _measure(handler, args) -> int:
    """Run a measure subcommand: generate the measure its spec names, once,
    and report the spec along with the (inputs, extra, passed) that
    ``handler(args, spec, nu)`` returns."""
    spec = _spec_from_args(args)
    inputs, extra, passed = handler(args, spec, generate(spec))
    return _result(args, {"spec": spec.to_json_obj(), **inputs}, extra, passed)


# ---------------------------------------------------------------------------
# One helper per check family, each shared by a subcommand and its verify
# suite; the check ids of the two differ only by the tag the caller passes.


def _represent(nu, r: int, budget):
    """represent(nu, r), once its edge weights fit the budget."""
    charge_representation(nu.n, r, budget)
    return represent(nu, r)


def _agreement(check: str, f, k: int, budget):
    """The order-k norm of f by the brute and the fast route, checked equal."""
    brute = u_norm_brute(f, k, budget)
    return eq_check(check, brute, u_norm_fast(f, k, budget), TOL * max(1.0, brute))


def _gcs_case(rep, key: int, dims, prefix: str, margin: str | None, budget) -> None:
    """Fold into rep the product-form bound for one tuple of random functions
    on the product of ``dims``, drawn from Philox(key).  With a ``margin`` id
    every slot holds the same function and the equality margin is checked
    under that id; without one every slot is drawn afresh."""
    rng = np.random.Generator(np.random.Philox(key=key))
    edge = tuple(range(1, len(dims) + 1))

    def draw() -> EdgeFn:
        return EdgeFn(edge, dims, rng.random(dims) * 2.0 - 1.0)

    vertices = cube_vertices(len(dims))
    gs = dict.fromkeys(vertices, draw()) if margin else {om: draw() for om in vertices}
    sub = gcs_verify(gs, budget=budget)
    _fold(rep, sub, prefix)
    if margin:
        lhs, rhs = sub.ratios["lhs"], sub.ratios["rhs"]
        rep.add(eq_check(margin, lhs, rhs, TOL * max(1.0, rhs)))


def _preservation(rep, nu, w, tag: str, budget) -> float:
    """Check the box norm of every centered edge weight of w against the
    uniformity norm of nu - 1, and return that norm."""
    u = u_norm_fast(nu.centered(), w.r, budget)
    for j in range(w.r + 1):
        box = box_norm(w.weight_omitting(j).centered(), budget)
        rep.add(eq_check(f"norm-preservation{tag} j={j}", box, u, TOL))
    return u


def _density(rep, nu, w, tag: str, budget) -> float:
    """Check the product of all edge weights of w against the progression
    density of nu, and return that density."""
    density = ap_density([nu.fn] * (w.r + 1), budget).density
    count = progression_count_check(w, budget)
    rep.add(eq_check(f"progression-density{tag}", count, density, TOL))
    return density


def _map_failures(w, points=None, budget=None) -> int:
    """How many points, every point of the cube when ``points`` is None, map
    to evaluation points that do not step by their common difference.  The
    r+1 evaluation points of each are charged before the walk."""
    n, r = w.modulus, w.r
    if points is None:
        count, power = float(n) ** (r + 1), r + 1
    else:
        count, power = float(len(points)), 0
    what = f"progression map (r={r}, n={n})"
    check_budget((r + 1) * count, budget, what=what, power=power)
    return map_failures(w, points)


def _moments(rep, w, tag: str, budget) -> dict[str, float]:
    """Check the second moment of the conditional product weight against the
    doubled-origin expectation, and its centered moment against the moment
    expansion; return the three moments."""
    prime = nu_prime(w, budget)
    m1 = prime.mean()
    m2_direct = math.fsum((prime.values.ravel() ** 2).tolist()) / prime.npoints
    m2_doubled = lf2_expectation(w, Lf2Exponents.all_ones(w.r), budget)
    dev = nu_prime_l2_dev(prime)
    rep.add(
        eq_check(
            f"doubled-origin-second-moment{tag}",
            m2_direct,
            m2_doubled,
            TOL * max(1.0, abs(m2_direct)),
        )
    )
    rep.add(
        eq_check(
            f"centered-moment-expansion{tag}",
            dev,
            m2_doubled - 2.0 * m1 + 1.0,
            TOL * max(1.0, abs(dev)),
        )
    )
    return {"mean": m1, "second-moment": m2_direct, "centered-second-moment": dev}


def _lf2_reports(w, exps: Lf2Exponents, js, budget) -> list[VerificationReport]:
    """The telescoping report of exps, then the chain of each edge in js."""
    return [lf2_telescoping(w, exps, budget)] + [
        lf2_chain_verify(w, j, exps, budget) for j in js
    ]


# ---------------------------------------------------------------------------
# Subcommand handlers.  A measure subcommand's handler takes the parsed
# arguments, the spec and its measure, and returns (inputs, extra, passed).


def _cmd_norm(args, spec, nu):
    f = nu.centered() if args.centered else nu.fn
    passed = True
    if args.mode == "both":
        check = _agreement("dual-route-agreement", f, args.k, args.budget)
        passed = check.passed
        extra = {
            "values": {"brute": check.lhs, "fast": check.rhs},
            "checks": [check.to_json_obj()],
        }
    elif args.mode == "brute":
        extra = {"values": {"brute": u_norm_brute(f, args.k, args.budget)}}
    else:
        extra = {"values": {"fast": u_norm_fast(f, args.k, args.budget)}}
    return {"k": args.k, "mode": args.mode, "centered": args.centered}, extra, passed


def _cmd_boxnorm(args, spec, nu):
    w = _represent(nu, args.r, args.budget)
    values = {"u-norm-centered": u_norm_fast(nu.centered(), args.r, args.budget)}
    for j in range(args.r + 1):
        g = w.weight_omitting(j)
        values[f"box-norm-raw-j{j}"] = box_norm(g, args.budget)
        values[f"box-norm-centered-j{j}"] = box_norm(g.centered(), args.budget)
    return {"r": args.r}, {"values": values}, True


def _cmd_gcs(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        dims = ()
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"--dims must be positive integers, got {args.dims!r}")
    if len(dims) > 5:
        # One einsum operand per cube vertex, and einsum takes at most 32.
        raise UsageError(f"--dims takes at most 5 coordinates, got {len(dims)}")
    _nonnegative("--tuples", args.tuples)
    _seed("--seed", args.seed, args.tuples)
    merged = VerificationReport(name="box-norm-product-bound")
    for t in range(args.tuples):
        margin = f"tuple {t}: equality-margin" if args.equal else None
        _gcs_case(merged, args.seed + t, dims, f"tuple {t}", margin, args.budget)
    inputs = {
        "dims": list(dims),
        "tuples": args.tuples,
        "seed": args.seed,
        "equal": args.equal,
    }
    return _result(args, inputs, {"report": merged.to_json_obj()}, merged.passed)


def _cmd_represent(args, spec, nu):
    n, r = spec.n, args.r
    w = _represent(nu, r, args.budget)
    report = VerificationReport(name="representation")
    u = _preservation(report, nu, w, "", args.budget)
    points, npoints = None, n ** (r + 1)  # every point of the cube
    if npoints > 50_000:
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        points = [tuple(int(v) for v in rng.integers(0, n, size=r + 1)) for _ in range(2000)]
        npoints = len(points)
    bad = _map_failures(w, points, args.budget)
    report.add(eq_check(f"progression-map ({npoints} points)", bad, 0.0, 0.0))
    _density(report, nu, w, "", args.budget)
    report.ratios["u-norm-centered"] = u
    report.ratios["sup"] = nu.sup
    return {"r": r}, {"report": report.to_json_obj()}, report.passed


def _cmd_cube(args, spec, nu):
    _in_range("--j", args.j, 0, args.r)
    w = _represent(nu, args.r, args.budget)
    g = w.weight_omitting(args.j)
    if args.pattern is None:
        pat = CubePattern.all_ones(len(g.edge))
    elif len(_bits("--pattern", args.pattern)) != 2 ** len(g.edge):
        raise UsageError(
            f"pattern has {len(args.pattern)} bits but the edge cube needs {2 ** len(g.edge)}"
        )
    else:
        pat = CubePattern.from_string(args.pattern)
    values = {
        "cube-expectation": cube_expectation(g, pat, args.budget),
        "cube-centered-expectation": cube_centered_expectation(g, pat, args.budget),
    }
    (report,) = binomial_expansion_identity(g, [pat], args.budget)
    inputs = {"r": args.r, "j": args.j, "pattern": pat.to_string()}
    return inputs, {"values": values, "report": report.to_json_obj()}, report.passed


def _cmd_slf(args, spec, nu):
    """``slf`` (two copies of vertex 0) and ``slf-single`` (one copy)."""
    _seed("--instance-seed", args.instance_seed)
    w = _represent(nu, args.r, args.budget)
    if args.command == "slf":
        inst = random_slf_instance(w, args.instance_seed, args.caps)
        lhs = slf_lhs(inst, args.budget)
        report = chain_verify(inst, args.budget)
    else:
        inst = random_slf_instance(w, args.instance_seed, args.caps, copies=1)
        lhs = q_value(inst, (), args.budget)
        report = single_chain_verify(inst, args.budget)
    inputs = {"r": args.r, "caps": args.caps, "instance_seed": args.instance_seed}
    return inputs, {"values": {"lhs": lhs}, "report": report.to_json_obj()}, report.passed


def _cmd_nuprime(args, spec, nu):
    w = _represent(nu, args.r, args.budget)
    report = VerificationReport(name="product-weight-moments")
    report.ratios.update(_moments(report, w, "", args.budget))
    return {"r": args.r}, {"report": report.to_json_obj()}, report.passed


def _cmd_lf2(args, spec, nu):
    if args.j is not None:
        _in_range("--j", args.j, 1, args.r)
    w = _represent(nu, args.r, args.budget)
    exps = Lf2Exponents.all_ones(args.r)
    if args.exponents is not None:
        exps = Lf2Exponents.from_bits(args.r, _bits("--exponents", args.exponents))
    js = range(1, args.r + 1) if args.j is None else [args.j]
    reports = _lf2_reports(w, exps, js, args.budget)
    inputs = {
        "r": args.r,
        "j": args.j,
        "exponents": "".join(str(exps.table[k]) for k in sorted(exps.table)),
    }
    extra = {"reports": [rep.to_json_obj() for rep in reports]}
    return inputs, extra, all(rep.passed for rep in reports)


def _cmd_count(args, spec, nu):
    ap = ap_density([nu.fn] * (args.r + 1), args.budget)
    hr = hypothesis_ratio(nu, args.r, args.budget)
    return {"r": args.r}, {"ap": ap.to_json_obj(), "ratios": hr.to_json_obj()}, True


def _cmd_experiment(args, spec, nu):
    ap, report = relsz_experiment(nu, args.r, args.with_chains, args.budget)
    inputs = {"r": args.r, "with_chains": args.with_chains}
    return inputs, {"ap": ap.to_json_obj(), "report": report.to_json_obj()}, report.passed


# ---------------------------------------------------------------------------
# Full verification suite.  The suites take the seeded measures that
# ``_cmd_verify`` builds once: ``nus`` holds one measure per seed, ``measures``
# one (measure, representation) pair per seed.


def _suite_dual_route(nus, budget) -> VerificationReport:
    # k = 1 runs on the raw measure only: a centered measure has mean exactly
    # zero, and the brute route's roundoff residue (~n*eps) is amplified by
    # the 2^k-th root far past any fixed tolerance when the true value is 0.
    rep = VerificationReport(name="uniformity-norm-dual-route")
    for s, nu in enumerate(nus):
        for label, f, orders in (("raw", nu.fn, (1, 2, 3)), ("centered", nu.centered(), (2, 3))):
            for k in orders:
                rep.add(_agreement(f"dual-route seed={s} {label} k={k}", f, k, budget))
    return rep


def _suite_gcs(seeds: int, budget) -> VerificationReport:
    rep = VerificationReport(name="box-norm-product-bound")
    for dims in ((5,), (3, 4)):
        for s in range(seeds):
            _gcs_case(rep, s, dims, f"dims={dims} seed={s}", None, budget)
        _gcs_case(rep, seeds, dims, f"dims={dims} equal", f"dims={dims} equality-margin", budget)
    return rep


def _suite_representation(measures, w0, budget) -> tuple[VerificationReport, list[float]]:
    """The suite and the progression density of each measure.  ``w0`` is the
    representation of seed 0, whose map is checked at every point."""
    rep = VerificationReport(name="representation")
    densities = []
    for s, (nu, w) in enumerate(measures):
        _preservation(rep, nu, w, f" seed={s}", budget)
        densities.append(_density(rep, nu, w, f" seed={s}", budget))
    n, r = w0.modulus, w0.r
    bad = _map_failures(w0, budget=budget)
    rep.add(eq_check(f"progression-map exhaustive n={n} r={r}", bad, 0.0, 0.0))
    return rep, densities


def _suite_cube(measures, r: int, budget) -> VerificationReport:
    rep = VerificationReport(name="cube-expansion")
    if r == 2:
        patterns = [
            CubePattern(2, bits) for bits in itertools.product((0, 1), repeat=4)
        ]
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        patterns = [CubePattern.all_ones(r)] + [
            CubePattern(r, tuple(int(b) for b in rng.integers(0, 2, size=2**r)))
            for _ in range(7)
        ]
    patterns = [pat for pat in patterns if pat.weight()]
    for s, (_, w) in enumerate(measures):
        subs = binomial_expansion_identity(w.weight_omitting(0), patterns, budget)
        for pat, sub in zip(patterns, subs):
            _fold(rep, sub, f"seed={s} pattern={pat.to_string()}")
    return rep


def _suite_chains(measures, r: int, budget) -> VerificationReport:
    rep = VerificationReport(name="strong-linear-forms-chain")
    for s, (_, w) in enumerate(measures if r == 2 else measures[:3]):
        _fold(rep, chain_verify(random_slf_instance(w, s), budget), f"two-copy seed={s}")
        _fold(
            rep,
            single_chain_verify(random_slf_instance(w, s, copies=1), budget),
            f"single-copy seed={s}",
        )
    return rep


def _suite_nuprime(measures, budget) -> VerificationReport:
    rep = VerificationReport(name="product-weight-moments")
    for s, (_, w) in enumerate(measures):
        _moments(rep, w, f" seed={s}", budget)
    return rep


def _suite_lf2(measures, r: int, budget) -> VerificationReport:
    rep = VerificationReport(name="doubled-origin-telescoping")
    exps = Lf2Exponents.all_ones(r)
    for s, (_, w) in enumerate(measures):
        telescoping, *chains = _lf2_reports(w, exps, range(1, r + 1), budget)
        _fold(rep, telescoping, f"seed={s}")
        for j, chain in enumerate(chains, start=1):
            _fold(rep, chain, f"seed={s} j={j}")
    return rep


def _suite_count(measures, densities, budget) -> VerificationReport:
    rep = VerificationReport(name="progression-telescoping")
    for s, ((_, w), density) in enumerate(zip(measures, densities)):
        _fold(rep, telescoping_check(w, density, budget), f"seed={s}")
    return rep


def _suite_degenerate(n: int, r: int, budget) -> VerificationReport:
    rep = VerificationReport(name="degenerate-exactness")
    nu = generate(GeneratorSpec(kind="constant", n=n))
    w = _represent(nu, r, budget)
    rep.add(eq_check("u-norm-centered", u_norm_fast(nu.centered(), r, budget), 0.0, 0.0))
    inst = random_slf_instance(w, 0, "one")
    rep.add(eq_check("centered-product", slf_lhs(inst, budget), 0.0, 0.0))
    exps = Lf2Exponents.all_ones(r)
    rep.add(eq_check("doubled-origin-term", lf2_term(w, 1, exps, budget), 0.0, 0.0))
    rep.add(eq_check("product-weight-deviation", nu_prime_l2_dev(nu_prime(w, budget)), 0.0, 0.0))
    g0 = w.weight_omitting(0)
    pat = CubePattern.all_ones(r)
    rep.add(eq_check("cube-centered", cube_centered_expectation(g0, pat, budget), 0.0, 0.0))
    rep.add(eq_check("cube-product", cube_expectation(g0, pat, budget), 1.0, 0.0))
    rep.add(eq_check("doubled-origin-product", lf2_expectation(w, exps, budget), 1.0, 0.0))
    rep.add(
        eq_check("progression-density", ap_density([nu.fn] * (r + 1), budget).density, 1.0, 0.0)
    )
    return rep


def _cmd_verify(args) -> int:
    n, r, seeds, budget = args.n, args.r, args.seeds, args.budget
    _nonnegative("--seeds", seeds)
    # The random measures of density one half, one per seed; seed 0 is drawn
    # even without seeds, because the exhaustive map check reads it.
    nus = [
        generate(GeneratorSpec(kind="random", n=n, p=0.5, seed=s))
        for s in range(max(seeds, 1))
    ]
    suites = [_suite_dual_route(nus[:seeds], budget), _suite_gcs(seeds, budget)]
    # Represented only after the two suites that need no representation, so
    # a size that their budget checks refuse never allocates one.
    pairs = [(nu, _represent(nu, r, budget)) for nu in nus]
    measures = pairs[:seeds]
    representation, densities = _suite_representation(measures, pairs[0][1], budget)
    suites += [
        representation,
        _suite_cube(measures, r, budget),
        _suite_chains(measures, r, budget),
        _suite_nuprime(measures, budget),
        _suite_lf2(measures, r, budget),
        _suite_count(measures, densities, budget),
        _suite_degenerate(n, r, budget),
    ]
    passed = all(s.passed for s in suites)
    inputs = {"n": n, "r": r, "seeds": seeds}
    extra = {"suites": [s.to_json_obj() for s in suites]}
    return _result(args, inputs, extra, passed)


# ---------------------------------------------------------------------------
# Parser and entry point


def _measure_command(sub, name: str, help: str, handler, r: bool = True):
    """Register a measure subcommand: the generator flags, the common flags,
    a required --r unless ``r`` is false, and ``handler`` run by ``_measure``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--kind", choices=KINDS, default="random", help="measure generator")
    p.add_argument("--n", type=int, default=None, help="modulus N")
    p.add_argument("--p", type=float, default=0.5, help="target density in (0, 1]")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--input", default=None, help="JSON file with a generator spec")
    _add_common_args(p)
    if r:
        p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=functools.partial(_measure, handler))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gowers",
        description="Uniformity norms, box norms, and inequality verification on Z_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _measure_command(sub, "norm", "uniformity norm of a generated measure", _cmd_norm, r=False)
    p.add_argument("--k", type=int, required=True, help="norm order")
    p.add_argument("--mode", choices=("brute", "fast", "both"), default="fast")
    p.add_argument("--centered", action="store_true", help="use the measure minus one")

    _measure_command(sub, "boxnorm", "box norms of the representation edge weights", _cmd_boxnorm)

    p = sub.add_parser("gcs", help="product-form bound on seeded random tuples")
    _add_common_args(p)
    p.add_argument("--dims", default="3,4", help="comma-separated vertex set sizes")
    p.add_argument("--tuples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equal", action="store_true", help="use one function for every slot")
    p.set_defaults(func=_cmd_gcs)

    _measure_command(sub, "represent", "build the representation and verify it", _cmd_represent)

    p = _measure_command(sub, "cube", "cube expectations and the expansion identity", _cmd_cube)
    p.add_argument("--j", type=int, default=0, help="edge (omitted vertex) to use")
    p.add_argument("--pattern", default=None, help="bit string over the cube vertices")

    for name, help in (
        ("slf", "centered product expectation and its chain"),
        ("slf-single", "single-copy centered product and chain"),
    ):
        p = _measure_command(sub, name, help, _cmd_slf)
        p.add_argument("--caps", choices=("one", "nu", "mixed"), default="mixed")
        p.add_argument("--instance-seed", type=int, default=0)

    _measure_command(sub, "nuprime", "conditional product weight moments", _cmd_nuprime)

    p = _measure_command(sub, "lf2", "doubled-origin telescoping and chains", _cmd_lf2)
    p.add_argument("--j", type=int, default=None, help="restrict the chain to one edge")
    p.add_argument("--exponents", default=None, help="bit string over (edge, copy) slots")

    _measure_command(sub, "count", "progression density and hypothesis ratios", _cmd_count)

    p = _measure_command(
        sub, "experiment", "density, ratios, and telescoping end to end", _cmd_experiment
    )
    p.add_argument("--with-chains", action="store_true")

    p = sub.add_parser("verify", help="full property suite at fixed sizes")
    _add_common_args(p)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=_cmd_verify)

    return parser


def _suggest_n(
    n: int | None, r: int, power: int, estimated: float, budget: float
) -> int | None:
    """Largest prime m with r < m < n at which a step that costs ``estimated``
    at modulus n, scaled as m^power, fits the budget."""
    if not n or power <= 0:
        return None
    m = min(n - 1, int(n * (budget / estimated) ** (1.0 / power)) + 1)
    while m > r and not (is_prime(m) and estimated * (m / n) ** power <= budget):
        m -= 1
    return m if m > r else None


def guarded(run, budget: float | None, n: int | None = None, r: int = 0) -> int:
    """Exit code of ``run()`` under ``budget``, for the command line and the
    scripts alike: an error is reported on stderr and gives 2, or 1 for a
    numerical inconsistency; any other exception is an internal error, 2.
    A budget refusal suggests a prime below n."""
    try:
        resolve_budget(budget)  # refuse a bad budget before any work
        return run()
    except BudgetExceeded as exc:
        sys.stderr.write(
            f"budget exceeded: estimated {exc.estimated:.3g} elementary products "
            f"> budget {exc.budget:.3g}"
            + (f" ({exc.what})" if exc.what else "")
            + "\n"
        )
        m = _suggest_n(n, r, exc.power, exc.estimated, exc.budget)
        if m is not None:
            sys.stderr.write(
                f"suggestion: retry with --n <= {m} (assuming cost ~ n^{exc.power}) "
                "or raise --budget / GOWERS_BUDGET\n"
            )
        else:
            sys.stderr.write("suggestion: raise --budget / GOWERS_BUDGET\n")
        return 2
    except NumericalInconsistency as exc:
        sys.stderr.write(f"numerical inconsistency: {exc}\n")
        return 1
    except (UsageError, GowersError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write(
            f"error: out of memory{detail}; retry with a smaller --n or a lower "
            "--budget / GOWERS_BUDGET\n"
        )
        return 2
    except Exception as exc:
        sys.stderr.write(f"error: internal error ({type(exc).__name__}: {exc})\n")
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    n, r = getattr(args, "n", None), getattr(args, "r", 0)
    return guarded(lambda: args.func(args), args.budget, n, r)


if __name__ == "__main__":
    sys.exit(main())
