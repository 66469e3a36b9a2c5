"""Batch front-end for every engine in the package.

Each subcommand builds its inputs from a seeded generator spec (or a JSON
file holding one), runs the requested computation, and writes a
machine-readable report to stdout or a file.  Exit code 0 means every check
passed, 1 means at least one check failed, 2 means a usage, budget or
out-of-memory error.
Budget errors carry the estimated elementary-product count and, when the
refused step's cost scales with the modulus, the largest prime modulus at
which that step fits.
"""

from __future__ import annotations

import argparse
import csv
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
from .budget import DEFAULT_BUDGET, resolve_budget
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
    ap_values,
    charge_representation,
    is_prime,
    progression_count_check,
    represent,
)
from .linform import (
    Cap,
    CubePattern,
    Lf2Exponents,
    SlfInstance,
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
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return GeneratorSpec.from_json_obj(json.load(fh))
    if args.n is None:
        raise UsageError("--n is required (or pass --input with a spec file)")
    return GeneratorSpec(kind=args.kind, n=args.n, p=args.p, seed=args.seed)


def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=KINDS, default="random", help="measure generator")
    p.add_argument("--n", type=int, default=None, help="modulus N")
    p.add_argument("--p", type=float, default=0.5, help="target density in (0, 1]")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--input", default=None, help="JSON file with a generator spec")


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


def _checks_csv(reports: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["report", "check", "lhs", "rhs", "margin", "pass", "note"])
    for rep in reports:
        for c in rep["checks"]:
            writer.writerow(
                [
                    rep["name"],
                    c["check"],
                    repr(c["lhs"]),
                    repr(c["rhs"]),
                    repr(c["margin"]),
                    c["pass"],
                    c.get("note", ""),
                ]
            )
    return buf.getvalue()


def _values_csv(values: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value"])
    for key in sorted(values):
        writer.writerow([key, repr(values[key])])
    return buf.getvalue()


def _emit(obj: dict, args) -> None:
    if args.format == "csv":
        if "ap" in obj:
            text = f"{CSV_HEADER}\n{ApReport(**obj['ap']).to_csv_row()}\n"
        elif "suites" in obj:
            text = _checks_csv(obj["suites"])
        elif "reports" in obj:
            text = _checks_csv(obj["reports"])
        elif "report" in obj:
            text = _checks_csv([obj["report"]])
        else:
            text = _values_csv(obj.get("values", {}))
    else:
        # Strict JSON: a NaN or infinite number raises ValueError (exit 2).
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result(args, command: str, inputs: dict, extra: dict, passed: bool) -> int:
    obj = {"schema": SCHEMA, "command": command, "inputs": inputs, "pass": passed}
    obj.update(extra)
    _emit(obj, args)
    return 0 if passed else 1


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


def _density(nu, w, tag: str, budget):
    """The product of all edge weights of w checked against the progression
    density of nu."""
    density = ap_density([nu.fn] * (w.r + 1), budget).density
    return eq_check(f"progression-density{tag}", progression_count_check(w), density, TOL)


def _map_failures(w, points) -> int:
    """How many points map to evaluation points that do not step by their
    common difference."""
    n, r = w.modulus, w.r
    bad = 0
    for x in points:
        ys, d = ap_values(w, x)
        if any((ys[j + 1] - ys[j]) % n != d for j in range(r)):
            bad += 1
    return bad


def _moments(rep, w, tag: str, budget) -> dict[str, float]:
    """Check the second moment of the conditional product weight against the
    doubled-origin expectation, and its centered moment against the moment
    expansion; return the three moments."""
    prime = nu_prime(w, budget)
    m1 = prime.mean()
    m2_direct = math.fsum((prime.values.ravel() ** 2).tolist()) / prime.npoints
    m2_doubled = lf2_expectation(w, Lf2Exponents.all_ones(w.r), budget)
    dev = nu_prime_l2_dev(w, budget)
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
# Subcommand handlers


def _cmd_norm(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
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
    inputs = {"spec": spec.to_json_obj(), "k": args.k, "mode": args.mode, "centered": args.centered}
    return _result(args, "norm", inputs, extra, passed)


def _cmd_boxnorm(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    w = _represent(nu, args.r, args.budget)
    values = {"u-norm-centered": u_norm_fast(nu.centered(), args.r, args.budget)}
    for j in range(args.r + 1):
        g = w.weight_omitting(j)
        values[f"box-norm-raw-j{j}"] = box_norm(g, args.budget)
        values[f"box-norm-centered-j{j}"] = box_norm(g.centered(), args.budget)
    inputs = {"spec": spec.to_json_obj(), "r": args.r}
    return _result(args, "boxnorm", inputs, {"values": values}, True)


def _cmd_gcs(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"--dims must be positive integers, got {args.dims!r}")
    if args.tuples < 0:
        raise UsageError(f"--tuples must be nonnegative, got {args.tuples}")
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
    return _result(args, "gcs", inputs, {"report": merged.to_json_obj()}, merged.passed)


def _cmd_represent(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    n, r = spec.n, args.r
    w = _represent(nu, r, args.budget)
    report = VerificationReport(name="representation")
    u = _preservation(report, nu, w, "", args.budget)
    if float(n) ** (r + 1) <= 50_000:
        points = list(itertools.product(range(n), repeat=r + 1))
    else:
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        points = [tuple(int(v) for v in rng.integers(0, n, size=r + 1)) for _ in range(2000)]
    bad = _map_failures(w, points)
    report.add(eq_check(f"progression-map ({len(points)} points)", bad, 0.0, 0.0))
    report.add(_density(nu, w, "", args.budget))
    report.ratios["u-norm-centered"] = u
    report.ratios["sup"] = nu.sup
    inputs = {"spec": spec.to_json_obj(), "r": args.r}
    return _result(args, "represent", inputs, {"report": report.to_json_obj()}, report.passed)


def _cmd_cube(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    w = _represent(nu, args.r, args.budget)
    g = w.weight_omitting(args.j)
    if args.pattern is None:
        pat = CubePattern.all_ones(len(g.edge))
    else:
        pat = CubePattern.from_string(args.pattern)
        if pat.k != len(g.edge):
            raise UsageError(
                f"pattern has {2 ** pat.k} bits but the edge cube needs {2 ** len(g.edge)}"
            )
    values = {
        "cube-expectation": cube_expectation(g, pat, args.budget),
        "cube-centered-expectation": cube_centered_expectation(g, pat, args.budget),
    }
    report = binomial_expansion_identity(g, pat, args.budget)
    inputs = {
        "spec": spec.to_json_obj(),
        "r": args.r,
        "j": args.j,
        "pattern": pat.to_string(),
    }
    extra = {"values": values, "report": report.to_json_obj()}
    return _result(args, "cube", inputs, extra, report.passed)


def _cmd_slf(args) -> int:
    """``slf`` (two copies of vertex 0) and ``slf-single`` (one copy)."""
    spec = _spec_from_args(args)
    nu = generate(spec)
    w = _represent(nu, args.r, args.budget)
    if args.command == "slf":
        inst = random_slf_instance(w, args.instance_seed, args.caps)
        lhs = slf_lhs(inst, args.budget)
        report = chain_verify(inst, args.budget)
    else:
        inst = random_slf_instance(w, args.instance_seed, args.caps, copies=1)
        lhs = q_value(inst, (), args.budget)
        report = single_chain_verify(inst, args.budget)
    inputs = {
        "spec": spec.to_json_obj(),
        "r": args.r,
        "caps": args.caps,
        "instance_seed": args.instance_seed,
    }
    extra = {"values": {"lhs": lhs}, "report": report.to_json_obj()}
    return _result(args, args.command, inputs, extra, report.passed)


def _cmd_nuprime(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    w = _represent(nu, args.r, args.budget)
    report = VerificationReport(name="product-weight-moments")
    report.ratios.update(_moments(report, w, "", args.budget))
    inputs = {"spec": spec.to_json_obj(), "r": args.r}
    return _result(args, "nuprime", inputs, {"report": report.to_json_obj()}, report.passed)


def _cmd_lf2(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    w = _represent(nu, args.r, args.budget)
    exps = Lf2Exponents.all_ones(args.r)
    if args.exponents is not None:
        exps = Lf2Exponents.from_bits(args.r, [int(ch) for ch in args.exponents])
    js = range(1, args.r + 1) if args.j is None else [args.j]
    reports = _lf2_reports(w, exps, js, args.budget)
    passed = all(rep.passed for rep in reports)
    inputs = {
        "spec": spec.to_json_obj(),
        "r": args.r,
        "j": args.j,
        "exponents": "".join(str(exps.table[k]) for k in sorted(exps.table)),
    }
    extra = {"reports": [rep.to_json_obj() for rep in reports]}
    return _result(args, "lf2", inputs, extra, passed)


def _cmd_count(args) -> int:
    spec = _spec_from_args(args)
    nu = generate(spec)
    ap = ap_density([nu.fn] * (args.r + 1), args.budget)
    hr = hypothesis_ratio(nu, args.r, args.budget)
    inputs = {"spec": spec.to_json_obj(), "r": args.r}
    extra = {"ap": ap.to_json_obj(), "ratios": hr.to_json_obj()}
    return _result(args, "count", inputs, extra, True)


def _cmd_experiment(args) -> int:
    spec = _spec_from_args(args)
    ap, report = relsz_experiment(spec, args.r, args.with_chains, args.budget)
    inputs = {"spec": spec.to_json_obj(), "r": args.r, "with_chains": args.with_chains}
    extra = {"ap": ap.to_json_obj(), "report": report.to_json_obj()}
    return _result(args, "experiment", inputs, extra, report.passed)


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


def _suite_representation(measures, w0, budget) -> VerificationReport:
    """``w0`` is the representation of seed 0, whose map is checked at every
    point."""
    rep = VerificationReport(name="representation")
    for s, (nu, w) in enumerate(measures):
        _preservation(rep, nu, w, f" seed={s}", budget)
        rep.add(_density(nu, w, f" seed={s}", budget))
    n, r = w0.modulus, w0.r
    bad = _map_failures(w0, itertools.product(range(n), repeat=r + 1))
    rep.add(eq_check(f"progression-map exhaustive n={n} r={r}", bad, 0.0, 0.0))
    return rep


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
    for s, (_, w) in enumerate(measures):
        g = w.weight_omitting(0)
        for pat in patterns:
            if pat.weight() == 0:
                continue
            sub = binomial_expansion_identity(g, pat, budget)
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


def _suite_count(measures, budget) -> VerificationReport:
    rep = VerificationReport(name="progression-telescoping")
    for s, (nu, w) in enumerate(measures):
        _fold(rep, telescoping_check(nu, w, budget), f"seed={s}")
    return rep


def _suite_degenerate(n: int, r: int, budget) -> VerificationReport:
    rep = VerificationReport(name="degenerate-exactness")
    nu = generate(GeneratorSpec(kind="constant", n=n))
    w = _represent(nu, r, budget)
    rep.add(eq_check("u-norm-centered", u_norm_fast(nu.centered(), r, budget), 0.0, 0.0))
    caps = {}
    gs = {}
    for j in range(1, r + 1):
        edge = w.system.edge_omitting(j)
        for copy in (0, 1):
            caps[(edge, copy)] = Cap.ONE
            gs[(edge, copy)] = EdgeFn.ones(edge, w.system.edge_dims(edge))
    rep.add(eq_check("centered-product", slf_lhs(SlfInstance(w, caps, gs), budget), 0.0, 0.0))
    exps = Lf2Exponents.all_ones(r)
    rep.add(eq_check("doubled-origin-term", lf2_term(w, 1, exps, budget), 0.0, 0.0))
    rep.add(eq_check("product-weight-deviation", nu_prime_l2_dev(w, budget), 0.0, 0.0))
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
    if seeds < 0:
        raise UsageError(f"--seeds must be nonnegative, got {seeds}")
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
    suites += [
        _suite_representation(measures, pairs[0][1], budget),
        _suite_cube(measures, r, budget),
        _suite_chains(measures, r, budget),
        _suite_nuprime(measures, budget),
        _suite_lf2(measures, r, budget),
        _suite_count(measures, budget),
        _suite_degenerate(n, r, budget),
    ]
    passed = all(s.passed for s in suites)
    inputs = {"n": n, "r": r, "seeds": seeds}
    extra = {"suites": [s.to_json_obj() for s in suites]}
    return _result(args, "verify", inputs, extra, passed)


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gowers",
        description="Uniformity norms, box norms, and inequality verification on Z_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="uniformity norm of a generated measure")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--k", type=int, required=True, help="norm order")
    p.add_argument("--mode", choices=("brute", "fast", "both"), default="fast")
    p.add_argument("--centered", action="store_true", help="use the measure minus one")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("boxnorm", help="box norms of the representation edge weights")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_boxnorm)

    p = sub.add_parser("gcs", help="product-form bound on seeded random tuples")
    _add_common_args(p)
    p.add_argument("--dims", default="3,4", help="comma-separated vertex set sizes")
    p.add_argument("--tuples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equal", action="store_true", help="use one function for every slot")
    p.set_defaults(func=_cmd_gcs)

    p = sub.add_parser("represent", help="build the representation and verify it")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("cube", help="cube expectations and the expansion identity")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, default=0, help="edge (omitted vertex) to use")
    p.add_argument("--pattern", default=None, help="bit string over the cube vertices")
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("slf", help="centered product expectation and its chain")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--caps", choices=("one", "nu", "mixed"), default="mixed")
    p.add_argument("--instance-seed", type=int, default=0)
    p.set_defaults(func=_cmd_slf)

    p = sub.add_parser("slf-single", help="single-copy centered product and chain")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--caps", choices=("one", "nu", "mixed"), default="mixed")
    p.add_argument("--instance-seed", type=int, default=0)
    p.set_defaults(func=_cmd_slf)

    p = sub.add_parser("nuprime", help="conditional product weight moments")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_nuprime)

    p = sub.add_parser("lf2", help="doubled-origin telescoping and chains")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, default=None, help="restrict the chain to one edge")
    p.add_argument("--exponents", default=None, help="bit string over (edge, copy) slots")
    p.set_defaults(func=_cmd_lf2)

    p = sub.add_parser("count", help="progression density and hypothesis ratios")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("experiment", help="density, ratios, and telescoping end to end")
    _add_measure_args(p)
    _add_common_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--with-chains", action="store_true")
    p.set_defaults(func=_cmd_experiment)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_budget(args.budget)  # refuse a bad budget before any work
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(
            f"budget exceeded: estimated {exc.estimated:.3g} elementary products "
            f"> budget {exc.budget:.3g}"
            + (f" ({exc.what})" if exc.what else "")
            + "\n"
        )
        n, r = getattr(args, "n", None), getattr(args, "r", 0)
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


if __name__ == "__main__":
    sys.exit(main())
