"""Command-line interface: exit codes, JSON/CSV stability, budget errors,
and the built-in verification suite."""

import argparse
import collections
import dataclasses
import functools
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import gowers.apcount as apcount
import gowers.budget as budget
import gowers.cli as cli
import gowers.forms as forms
import gowers.genmeasure as genmeasure
import gowers.gowersnorm as gowersnorm
import gowers.hypersystem as hypersystem
import gowers.linform as linform
from form_oracle import formed_by
from gowers import (
    GeneratorSpec,
    ap_density,
    from_set,
    generate,
    is_prime,
    represent,
    telescoping_check,
)
from gowers.cli import build_parser, main
from gowers.report import VerificationReport, eq_check, ineq_check


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    return code, json.loads(out), err


class TestNorm:
    def test_constant_centered_is_zero(self, capsys):
        code, obj, _ = _run_json(
            capsys,
            ["norm", "--kind", "constant", "--n", "8", "--k", "2",
             "--mode", "both", "--centered"],
        )
        assert code == 0
        assert obj["schema"] == 1
        assert obj["command"] == "norm"
        assert obj["pass"] is True
        assert obj["values"]["brute"] == 0.0
        assert obj["values"]["fast"] == 0.0
        assert obj["checks"][0]["check"] == "dual-route-agreement"

    def test_dual_route_on_random_measure(self, capsys):
        code, obj, _ = _run_json(
            capsys,
            ["norm", "--n", "11", "--k", "2", "--seed", "4", "--mode", "both"],
        )
        assert code == 0
        assert obj["values"]["brute"] == pytest.approx(obj["values"]["fast"], abs=1e-9)

    def test_fast_only_has_no_checks(self, capsys):
        code, obj, _ = _run_json(capsys, ["norm", "--n", "7", "--k", "3"])
        assert code == 0
        assert "checks" not in obj
        assert set(obj["values"]) == {"fast"}

    def test_missing_modulus_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["norm", "--k", "2"])
        assert code == 2
        assert "error:" in err

    def test_input_spec_file(self, capsys, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text('{"kind": "interval", "n": 10, "p": 0.3}')
        code, obj, _ = _run_json(capsys, ["norm", "--input", str(f), "--k", "2"])
        assert code == 0
        assert obj["inputs"]["spec"]["kind"] == "interval"
        assert obj["inputs"]["spec"]["n"] == 10


_SMALL_BRUTE = ["norm", "--kind", "constant", "--n", "8", "--k", "2", "--mode", "brute"]


def _infinite_charge(step: str) -> str:
    """The stderr of a refusal whose charge left the float range."""
    return (
        f"budget exceeded: estimated inf elementary products > budget 1e+08 ({step})\n"
        "suggestion: no budget covers this step; retry with a smaller size\n"
    )


class TestBudget:
    def test_over_budget_exits_2_with_suggestion(self, capsys):
        code, _, err = _run(capsys, ["slf", "--n", "31", "--r", "3"])
        assert code == 2
        assert "budget exceeded" in err
        assert "estimated 1.72e+08" in err
        assert "(strong-linear-forms-chain at d=(1,))" in err
        assert "suggestion: retry with --n <=" in err
        assert "GOWERS_BUDGET" in err

    def test_slf_lhs_charged_the_work_done(self, capsys):
        # Charged the defining sum N^(c+r) (cr+1), the strong-linear-forms
        # expectation refused N=67 at 1.01e8, and its copy means, 2 * 3 N^3
        # products, refused N=257.  The expectation is now the plan of its
        # factors, 4 N^3 + 3 N^2: 283 runs, and 293 is refused at 1.01e8
        # with a suggestion that runs.  The chain evaluates it, once, so the
        # refusal names the chain.
        code, _, err = _run(capsys, ["slf", "--r", "2", "--n", "283"])
        assert code == 0, err
        code, out, err = _run(capsys, ["slf", "--r", "2", "--n", "293"])
        assert (code, out) == (2, "")
        assert err == (
            "budget exceeded: estimated 1.01e+08 elementary products > budget 1e+08 "
            "(strong-linear-forms-chain at d=())\n"
            "suggestion: retry with --n <= 283 (assuming cost ~ n^3) "
            "or raise --budget / GOWERS_BUDGET\n"
        )

    def test_two_copy_r4_fits_at_11(self, capsys):
        # The chain quantities at |d|=3 split into three independent
        # marginals, 6.96e7 products; the box route charged 2.20e8.
        code, _, err = _run(capsys, ["slf", "--r", "4", "--n", "11"])
        assert code == 0, err

    def test_two_copy_r4_refused_at_13(self, capsys):
        code, out, err = _run(capsys, ["slf", "--r", "4", "--n", "13"])
        assert code == 2
        assert out == ""
        assert "(strong-linear-forms-chain at d=(1, 2, 3))" in err
        assert "suggestion: retry with --n <= 11 (assuming cost ~ n^7)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # 2048 * 1025 difference values; the full walk's 2048^2 was charged.
            ["norm", "--kind", "constant", "--k", "3", "--mode", "fast", "--n", "2048",
             "--budget", "2.2e6"],
            # The count route: 2 * 4N log2(4N) = 4.59e5 products; 3 N^2 =
            # 5.03e7 was charged before the walks were charged as taken.
            ["count", "--r", "2", "--n", "4096", "--p", "0.2", "--budget", "3e6"],
        ],
        ids=["u-norm-fast", "ap-density"],
    )
    def test_spectral_charges_count_the_walk_taken(self, capsys, argv):
        code, _, err = _run(capsys, argv)
        assert code == 0, err

    def test_count_refusal_suggests_a_size_that_runs(self, capsys):
        # The count route is charged 2 * 4N log2(4N) products with power 1.
        # The half difference walk was charged 3 (N//2 + 1) N and refused
        # N=65537 at 6.44e9, suggesting 8161.
        code, _, err = _run(capsys, ["count", "--r", "2", "--n", "65537"])
        assert code == 0, err
        code, out, err = _run(capsys, ["count", "--r", "2", "--n", "590431"])
        assert (code, out) == (2, "")
        assert "(progression density (k=3, n=590431))" in err
        assert "suggestion: retry with --n <= 590407 (assuming cost ~ n^1)" in err
        code, _, err = _run(capsys, ["count", "--r", "2", "--n", "590407"])
        assert code == 0, err

    def test_count_refused_before_any_transform(self, capsys, monkeypatch):
        def transform(*args, **kwargs):
            raise AssertionError("a transform ran before the refusal")

        monkeypatch.setattr(np.fft, "rfft", transform)
        code, out, err = _run(capsys, ["count", "--r", "2", "--n", "590431"])
        assert (code, out) == (2, "")
        # The estimate, 1.00002e8, is printed to as many digits as it takes
        # to differ from the budget.
        assert err.startswith("budget exceeded: estimated 1.00002e+08 elementary products")

    def test_count_never_walks(self, capsys, monkeypatch):
        # Every measure the program builds is counted: by the FFT count route
        # at k = 3 and by the bit kernel at any other k.
        spies = {
            kernel: mock.Mock(wraps=getattr(apcount, kernel))
            for kernel in ("_count_route", "_bit_count")
        }
        for kernel, spy in spies.items():
            monkeypatch.setattr(apcount, kernel, spy)
        for r, kernel in [(2, "_count_route"), (3, "_bit_count")]:
            code, _, err = _run(capsys, ["count", "--r", str(r), "--n", "4093"])
            assert code == 0, err
            assert spies[kernel].call_count == 1
        assert sum(spy.call_count for spy in spies.values()) == 2

    @pytest.mark.parametrize(
        "argv,estimate,step,largest",
        [
            (
                ["represent", "--r", "2", "--n", "31", "--budget", "3e3"],
                "3.91e+03",
                "box norm on edge (1, 2)",
                23,
            ),
            (
                ["verify", "--r", "2", "--n", "31", "--seeds", "0", "--budget", "5e4"],
                "1.22e+05",
                "chain quantity at d=()",
                19,
            ),
        ],
        ids=["represent", "verify"],
    )
    def test_progression_map_charged(self, capsys, argv, estimate, step, largest):
        # The map once walked 3 * 31^3 points and was refused first.  It is
        # now counted from its forms and charged nothing, so the refusal
        # names the next charged step, still before any output.  For
        # represent that is the box norm of a weight on its quotient route
        # (3,906 products); the progression count that refused here at
        # 8.94e4, 3 * 31^3 by its dense einsum, is now charged 1,984.  For
        # verify it is the degenerate suite's centered product, the plan of
        # its factors, 4 N^3 + 3 N^2 (its copy means were charged 1.79e5).
        # The suggestion prices that plan at each smaller prime: scaled as
        # N^3 alone it was 23, where the plan is charged 5.03e4 and refused.
        # The suggested modulus runs.
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"budget exceeded: estimated {estimate} elementary products "
            f"> budget {float(argv[-1]):.3g} ({step})\n"
        )
        assert "progression map" not in err
        assert f"suggestion: retry with --n <= {largest}" in err
        code, _, err = _run(capsys, [str(largest) if a == "31" else a for a in argv])
        assert code == 0, err

    def test_progression_count_charged(self, capsys, monkeypatch):
        # The count refused this run at 3 * 59^3 products by its dense
        # einsum.  It is now charged the plan of its quotient route, a start
        # and a step, 2 N^2 + 2 N, below the box norm that runs before it;
        # so the box norm refuses, before any output, and the suggested
        # modulus runs with the count charged.
        argv = ["represent", "--r", "2", "--n", "59", "--budget", "1.2e4"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            "budget exceeded: estimated 1.4e+04 elementary products > budget 1.2e+04 "
            "(box norm on edge (1, 2))\n"
        )
        assert "suggestion: retry with --n <= 53 (assuming cost ~ n^2)" in err
        charged = {}
        real = linform.check_budget

        def spy(estimated, budget=None, what="", power=0):
            charged[what] = estimated
            return real(estimated, budget, what, power)

        monkeypatch.setattr(linform, "check_budget", spy)
        code, _, err = _run(capsys, ["53" if a == "59" else a for a in argv])
        assert code == 0, err
        count = charged["progression count (r=2, 148877 points)"]
        assert count == 2 * 53**2 + 2 * 53 < charged["box norm on edge (1, 2)"] <= 1.2e4

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["norm", "--n", "7", "--k", "600"], _infinite_charge("u_norm_fast(k=600, n=7)")),
            (
                ["norm", "--n", "7", "--k", "2000", "--mode", "brute"],
                _infinite_charge("u_norm_brute(k=2000, n=7)"),
            ),
            (["count", "--r", "600", "--n", "7"], _infinite_charge("u_norm_fast(k=600, n=7)")),
            (["experiment", "--r", "600", "--n", "7"], _infinite_charge("u_norm_fast(k=600, n=7)")),
            # Its representation was charged beyond the float range; --r
            # above the cube expansion's 4 is now refused before any charge.
            (
                ["verify", "--r", "300", "--n", "307", "--seeds", "0"],
                "error: --r must be <= 4 for the cube expansion, got 300\n",
            ),
            (
                ["boxnorm", "--r", "300", "--n", "307"],
                _infinite_charge("representation (r=300, n=307)"),
            ),
            (["slf", "--r", "400", "--n", "401"], _infinite_charge("representation (r=400, n=401)")),
            # The plan of the left side is then never built: its scope sizes
            # would leave the float range.
            (
                ["gcs", "--dims", f"{10**155},{10**155}"],
                _infinite_charge("product-form bound on edge (1, 2)"),
            ),
        ],
        ids=["norm-fast", "norm-brute", "count", "experiment", "verify", "boxnorm", "slf", "gcs"],
    )
    def test_charge_beyond_float_range_refused(self, capsys, argv, expected):
        # Each charge overflowed while it was computed (float **) and ended
        # in an internal OverflowError.  No finite budget covers an infinite
        # charge, so the suggestion is a smaller size.
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == expected

    def test_gcs_refused_before_drawing(self, capsys):
        # The four 1000 x 1000 functions (32 MB) were drawn before
        # gcs_verify refused them.  The charge is the plan of the left side,
        # two steps of 2 * 1000^3 and one of 2 * 1000^2, and four box norms
        # of 1000^4 / 1000 each: 8.002e9.
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["gcs", "--dims", "1000,1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith(
            "budget exceeded: estimated 8e+09 elementary products > budget 1e+08 "
            "(product-form bound on edge (1, 2))\n"
        )
        assert peak < 1 << 20

    def test_cube_walk_refused_before_any_expectation(self, capsys, monkeypatch):
        # The expansion tabulates cubes up to k=4.  Above it, cube and verify
        # drew and represented a measure, and verify ran three suites, before
        # a walk of 2^32 - 1 sub-supports was refused at 4.4e12; a larger
        # budget started it.  Now --r is refused before any measure is
        # drawn, at any budget, and verify's r=300 before its representation
        # was charged beyond the float range.
        monkeypatch.setattr(cli, "generate", _refuse_work)
        monkeypatch.setattr(linform, "expect_product", None)  # any expectation raises
        for argv in (
            ["cube", "--r", "5", "--n", "7", "--budget", "1e15"],
            ["verify", "--r", "5", "--n", "7", "--budget", "1e15"],
            ["verify", "--r", "300", "--n", "307", "--seeds", "0"],
        ):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == f"error: --r must be <= 4 for the cube expansion, got {argv[2]}\n"

    def test_explicit_tiny_budget(self, capsys):
        code, _, err = _run(
            capsys,
            ["norm", "--kind", "constant", "--n", "64", "--k", "3",
             "--mode", "brute", "--budget", "10"],
        )
        assert code == 2
        assert "budget exceeded" in err

    def test_nan_budget_refused(self, capsys):
        # NaN compares false against every estimate, so it used to switch
        # every guard off.
        code, out, err = _run(capsys, _SMALL_BRUTE + ["--budget", "nan"])
        assert code == 2
        assert out == ""
        assert "budget must be a finite positive number, got nan" in err

    def test_negative_budget_refused(self, capsys):
        code, out, err = _run(capsys, _SMALL_BRUTE + ["--budget", "-1"])
        assert code == 2
        assert out == ""
        assert "got -1.0" in err

    def test_budget_read_once_per_command(self, capsys, monkeypatch):
        # Every step used to resolve the budget again: 1,531 reads of
        # GOWERS_BUDGET in this run.
        reads = []

        class Environ(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(budget, "os", types.SimpleNamespace(environ=Environ(os.environ)))
        code, _, err = _run(capsys, ["verify", "--r", "3", "--n", "5"])
        assert code == 0, err
        assert reads == ["GOWERS_BUDGET"]

    def test_env_budget_still_decides_a_refusal(self, capsys, monkeypatch):
        monkeypatch.setenv("GOWERS_BUDGET", "1e4")
        code, _, err = _run(capsys, ["lf2", "--r", "3", "--n", "13"])
        assert code == 2
        assert "> budget 1e+04 (centered-term-chain at c=(2,))" in err
        code, _, err = _run(capsys, ["lf2", "--r", "3", "--n", "13", "--budget", "1e8"])
        assert code == 0, err

    def test_nan_env_budget_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("GOWERS_BUDGET", "nan")
        code, out, err = _run(capsys, _SMALL_BRUTE)
        assert code == 2
        assert out == ""
        assert "GOWERS_BUDGET must be a finite positive number, got nan" in err

    def test_suggested_n_fits(self, capsys):
        for mode, n in (("brute", 200), ("fast", 2048)):
            base = ["norm", "--kind", "constant", "--k", "3", "--mode", mode,
                    "--budget", "1000000"]
            code, _, err = _run(capsys, base + ["--n", str(n)])
            assert code == 2, mode
            m = int(err.split("--n <=")[1].split()[0])
            code2, _, err2 = _run(capsys, base + ["--n", str(m)])
            assert code2 == 0, err2

    @pytest.mark.parametrize(
        "command,r,n",
        [("slf", 3, 29), ("represent", 3, 251), ("slf", 2, 293)],
        ids=["slf-29", "represent-251", "slf-293"],
    )
    def test_suggestion_is_prime_and_clears_the_step(self, capsys, command, r, n):
        # The refused step reports its own cost exponent, so the suggestion
        # is a modulus the CLI accepts and the step no longer refuses.  Every
        # suggestion runs: slf's 23, represent's 241, where the box norm of
        # a weight on its quotient route refuses 251 at 1.11e8, and slf's
        # 283, where the r=2 expectation refuses 293 at 1.01e8.
        code, _, err = _run(capsys, [command, "--r", str(r), "--n", str(n)])
        assert code == 2
        refusal = err.splitlines()[0]
        step = refusal[refusal.index(" (") :]
        m = int(err.split("--n <=")[1].split()[0])
        assert r < m < n and is_prime(m)
        code2, _, err2 = _run(capsys, [command, "--r", str(r), "--n", str(m)])
        assert code2 == 0, err2
        assert step not in err2

    def test_suggestion_prices_the_step_at_the_smaller_modulus(self, capsys):
        # A weight's box norm is charged the plan of its quotient route,
        # 4 N^2 + 2 N: 3,906 at 31.  Scaled as N^2 alone the suggestion
        # was 29, where the plan is charged 3,422 and refused again.
        argv = ["represent", "--r", "2", "--n", "31", "--budget", "3420"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            "budget exceeded: estimated 3.91e+03 elementary products > budget 3.42e+03 "
            "(box norm on edge (1, 2))\nsuggestion: retry with --n <= 23 "
        )
        code, _, err = _run(capsys, ["23" if a == "31" else a for a in argv])
        assert code == 0, err

    @pytest.mark.parametrize(
        "command,label,estimate,largest",
        [("slf", "strong-linear-forms-chain", "1.52e+03", 3),
         ("slf-single", "single-copy-chain", "784", 5)],
    )
    def test_lhs_is_the_chains_signed_q(self, capsys, monkeypatch, command, label, estimate,
                                        largest):
        # values.lhs is the q(()) the chain hands back, evaluated once: the
        # front end no longer calls q_value, and the chain's refusal at d=()
        # is the first.
        monkeypatch.setattr(cli, "q_value", _refuse_work)
        code, obj, err = _run_json(capsys, [command, "--r", "2", "--n", "7"])
        assert code == 0, err
        assert abs(obj["values"]["lhs"]) == obj["report"]["ratios"]["lhs"]
        code, out, err = _run(capsys, [command, "--r", "2", "--n", "7", "--budget", "500"])
        assert (code, out) == (2, "")
        assert err == (
            f"budget exceeded: estimated {estimate} elementary products > budget 500 "
            f"({label} at d=())\n"
            f"suggestion: retry with --n <= {largest} (assuming cost ~ n^3) "
            "or raise --budget / GOWERS_BUDGET\n"
        )

    def test_cube_expansion_suggestion_prices_each_route(self, capsys):
        # The expansion's summed charge has lower-order terms: 1.0837e8 at
        # 137 and 9.4765e7 at 131, where (131/137)^3 predicts 9.4750e7.
        # Scaled as N^3 alone the suggestion was 131, which the same step
        # refused at 9.477e7; each route priced at the smaller modulus
        # suggests 127, which runs.
        argv = ["cube", "--r", "3", "--n", "137", "--budget", "9.476e7"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "budget exceeded: estimated 1.08e+08 elementary products > budget 9.48e+07 "
            "(cube expansion (k=3, 9 expectations))\n"
            "suggestion: retry with --n <= 127 (assuming cost ~ n^3) "
            "or raise --budget / GOWERS_BUDGET\n"
        )
        code, out, err = _run(capsys, ["131" if a == "137" else a for a in argv])
        assert (code, out) == (2, "")
        assert "(cube expansion (k=3, 9 expectations))" in err
        code, _, err = _run(capsys, ["127" if a == "137" else a for a in argv])
        assert code == 0, err

    @pytest.mark.parametrize("r,refused,fits", [(4, 17, 13), (3, 137, 131)])
    def test_cube_suggestion_runs(self, capsys, r, refused, fits):
        # The expansion is charged for its classes without a coloop alone,
        # and the suggested modulus is the largest prime that runs.
        code, _, err = _run(capsys, ["cube", "--r", str(r), "--n", str(refused)])
        assert code == 2
        assert f"suggestion: retry with --n <= {fits} (assuming cost ~ n^{r})" in err
        code, _, err = _run(capsys, ["cube", "--r", str(r), "--n", str(fits)])
        assert code == 0, err


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the usage check")


class TestErrors:
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["gcs", "--tuples", "-1"], "--tuples"),
            (["verify", "--seeds", "-1", "--n", "5"], "--seeds"),
            (["gcs", "--seed", "-1"], "--seed"),
            (["norm", "--n", "7", "--k", "2", "--seed", "-1"], "--seed"),
            (["slf", "--r", "2", "--n", "5", "--seed", "-1"], "--seed"),
            (["slf", "--r", "2", "--n", "5", "--instance-seed", "-1"], "--instance-seed"),
            (["slf-single", "--r", "2", "--n", "5", "--instance-seed", "-1"], "--instance-seed"),
        ],
        ids=["tuples", "seeds", "gcs-seed", "norm-seed", "slf-seed", "slf-instance-seed",
             "slf-single-instance-seed"],
    )
    def test_negative_count_is_usage_error(self, capsys, argv, option):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"error: {option} must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["norm", "--n", "7", "--k", "2", "--seed", str(2**128)],
             f"--seed must be below 2**128, got {2**128}"),
            (["slf", "--r", "2", "--n", "5", "--instance-seed", str(2**128)],
             f"--instance-seed must be below 2**128, got {2**128}"),
            (["slf-single", "--r", "2", "--n", "5", "--instance-seed", str(2**128)],
             f"--instance-seed must be below 2**128, got {2**128}"),
            (["gcs", "--seed", str(2**128 - 1), "--tuples", "2"],
             f"--seed must be below 2**128 - 1 for --tuples 2, got {2**128 - 1}"),
        ],
        ids=["norm-seed", "slf-instance-seed", "slf-single-instance-seed", "gcs-last-key"],
    )
    def test_seed_beyond_philox_names_the_flag(self, capsys, argv, message):
        # Philox refused each with "key must be positive and less than 2**128."
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--n", "7", "--k", "2", "--seed", str(2**128 - 1)],
            ["slf", "--r", "2", "--n", "5", "--instance-seed", str(2**128 - 1)],
            ["gcs", "--seed", str(2**128 - 2), "--tuples", "2"],
        ],
        ids=["norm-seed", "slf-instance-seed", "gcs-last-key"],
    )
    def test_largest_philox_key_runs(self, capsys, argv):
        assert _run(capsys, argv)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--r", "0", "--n", "5"]
            for command in ("slf", "slf-single", "lf2", "cube", "boxnorm", "represent",
                            "nuprime", "count", "experiment")
        ]
        + [["verify", "--r", "0"], ["count", "--r", "-1", "--n", "5"],
           ["norm", "--k", "0", "--n", "5"]],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_arity_or_order_below_one_names_the_flag(self, capsys, monkeypatch, argv):
        # Refused before the measure is drawn, naming the flag; the engines'
        # own checks name none ("arity must be >= 1, got 0").
        monkeypatch.setattr(cli, "generate", _refuse_work)
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[1]} must be >= 1, got {argv[2]}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["norm", "--k", "2", "--n", "7", "--p", "0"],
             "--p: density must lie in (0, 1], got 0.0"),
            (["norm", "--k", "2", "--n", "0"], "--n: modulus must be positive, got 0"),
            (["count", "--r", "2", "--n", "7", "--p", "0.1"],
             "--p: set kinds need p * n >= 1, got 0.1 * 7"),
            (["represent", "--r", "2", "--n", "16"], "--n: modulus 16 must be prime"),
            (["slf", "--r", "3", "--n", "3"], "--n: modulus 3 must exceed the arity 3"),
            (["verify", "--r", "2", "--n", "15"], "--n: modulus 15 must be prime"),
        ],
        ids=["density", "nonpositive", "set-size", "composite", "not-above-arity", "verify"],
    )
    def test_modulus_and_density_refusals_name_the_flag(self, capsys, argv, message):
        # The library's text follows the flag that gave the value; it read
        # "error: density must lie in (0, 1], got 0.0" and named no flag.
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_modulus_from_a_spec_file_names_the_file_flag(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "random", "n": 16}), encoding="utf-8")
        code, out, err = _run(capsys, ["represent", "--r", "2", "--input", str(spec)])
        assert (code, out, err) == (2, "", "error: --input: modulus 16 must be prime\n")

    @pytest.mark.parametrize(
        "n,message",
        [(2, "--n: modulus 2 must exceed the arity 2"), (4, "--n: modulus 4 must be prime"),
         (1, "--n: modulus 1 must be prime")],
        ids=["not-above-arity", "composite", "one"],
    )
    def test_verify_refuses_a_bad_modulus_before_any_work(self, capsys, monkeypatch, n, message):
        # They read "spec GeneratorSpec(..., seed=5) produced the empty set"
        # at n=2, and named the modulus at n=4 only after the dual-route suite.
        monkeypatch.setattr(cli, "generate", _refuse_work)
        monkeypatch.setattr(cli, "u_norm_brute", _refuse_work)
        code, out, err = _run(capsys, ["verify", "--r", "2", "--n", str(n)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_verify_names_the_seeds_that_draw_an_empty_set(self, capsys, monkeypatch):
        # At n=2 seed 5 draws no member.  It read "error: spec
        # GeneratorSpec(kind='random', n=2, p=0.5, seed=5) produced the empty
        # set", a seed never passed and no flag.  The refusal now comes
        # before any suite, and the largest --seeds it names runs.
        monkeypatch.setattr(cli, "u_norm_brute", _refuse_work)
        code, out, err = _run(capsys, ["verify", "--r", "1", "--n", "2"])
        assert (code, out) == (2, "")
        assert err == "error: --n 2 draws an empty set at seed 5; pass --seeds <= 5\n"
        monkeypatch.undo()
        code, _, err = _run(capsys, ["verify", "--r", "1", "--n", "2", "--seeds", "5"])
        assert code == 0, err

    def test_spec_seed_beyond_philox_names_the_field(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"kind": "random", "n": 7, "seed": {2**128}}}')
        code, out, err = _run(capsys, ["norm", "--k", "2", "--input", str(spec)])
        assert (code, out) == (2, "")
        assert err == f"error: seed must be below 2**128, got {2**128}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cube", "--r", "2", "--n", "7", "--j", "5"], "--j must be in 0..2, got 5"),
            (["cube", "--r", "2", "--n", "7", "--j", "-1"], "--j must be in 0..2, got -1"),
            (["lf2", "--r", "2", "--n", "7", "--j", "5"], "--j must be in 1..2, got 5"),
            (["lf2", "--r", "2", "--n", "7", "--j", "0"], "--j must be in 1..2, got 0"),
        ],
        ids=["cube-above", "cube-negative", "lf2-above", "lf2-origin"],
    )
    def test_edge_out_of_range_names_the_flag(self, capsys, argv, message):
        # They read "vertex 5 not in 0..2" and "edge index 5 must be in 1..2".
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_negative_spec_seed_names_the_field(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "random", "n": 7, "seed": -1}')
        code, out, err = _run(capsys, ["norm", "--k", "2", "--input", str(spec)])
        assert (code, out) == (2, "")
        assert err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["cube", "--r", "2", "--n", "5", "--pattern", "10x1"], "--pattern"),
            (["cube", "--r", "2", "--n", "5", "--pattern", "1021"], "--pattern"),
            (["lf2", "--r", "2", "--n", "5", "--exponents", "10x1"], "--exponents"),
        ],
        ids=["pattern", "pattern-digit", "exponents"],
    )
    def test_malformed_bits_name_the_flag(self, capsys, argv, option):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be a string of 0s and 1s, got {argv[-1]!r}\n"

    def test_six_dims_name_the_limit(self, capsys, monkeypatch):
        # At six coordinates of size one the plan of the left side is one
        # einsum of 64 operands, and einsum takes 63.  The charge refuses
        # them before any function is drawn.
        monkeypatch.setattr(cli, "philox_random", None)  # any draw raises
        code, out, err = _run(capsys, ["gcs", "--dims", "2,2,2,2,2,2"])
        assert (code, out) == (2, "")
        assert err == "error: the product-form bound takes at most 5 coordinates, got 6\n"
        monkeypatch.undo()
        assert _run(capsys, ["gcs", "--dims", "2,2,2,2,2"])[0] == 0

    @pytest.mark.parametrize("dims", ["231,231", "23,23,23", "8,8,8,8", "4,4,4,4,4"])
    def test_largest_equal_dims_fit_the_default_budget(self, capsys, dims):
        code, obj, err = _run_json(capsys, ["gcs", "--dims", dims])
        assert (code, err) == (0, "")
        assert obj["report"]["pass"] is True

    @pytest.mark.parametrize("dims", ["232,232", "24,24,24", "9,9,9,9", "5,5,5,5,5"])
    def test_next_equal_dims_refused_before_drawing(self, capsys, monkeypatch, dims):
        monkeypatch.setattr(cli, "philox_random", None)  # any draw raises
        code, out, err = _run(capsys, ["gcs", "--dims", dims])
        assert (code, out) == (2, "")
        assert err.startswith("budget exceeded: ")
        assert "(product-form bound on edge " in err

    @pytest.mark.parametrize("dims", ["3,,4", "3,x", "0,2"])
    def test_malformed_dims_name_the_flag(self, capsys, dims):
        code, out, err = _run(capsys, ["gcs", "--dims", dims])
        assert code == 2
        assert out == ""
        assert err == f"error: --dims must be positive integers, got {dims!r}\n"

    @pytest.mark.parametrize(
        "argv,suggestion",
        [
            # 9 * 11^8 weights, about 14 GiB of float64; no prime above r=8
            # fits, so only the budget can be raised.
            (["boxnorm", "--r", "8", "--n", "11"], "raise --budget / GOWERS_BUDGET"),
            (["experiment", "--r", "3", "--n", "1009", "--with-chains"], "retry with --n <="),
        ],
        ids=["boxnorm", "experiment"],
    )
    def test_representation_size_refused_before_allocation(self, capsys, argv, suggestion):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"(representation (r={argv[2]}, n={argv[4]}))" in err
        assert f"suggestion: {suggestion}" in err

    def test_composite_modulus(self, capsys):
        code, _, err = _run(
            capsys, ["represent", "--kind", "constant", "--n", "6", "--r", "2"]
        )
        assert code == 2
        assert "error:" in err

    def test_cube_pattern_length(self, capsys):
        # Three bits fit no cube; the message counts them against the edge's.
        code, out, err = _run(
            capsys,
            ["cube", "--kind", "constant", "--n", "5", "--r", "2",
             "--pattern", "101"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: pattern has 3 bits but the edge cube needs 4\n"

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_empty_set_draw(self, capsys):
        code, _, err = _run(
            capsys, ["norm", "--n", "8", "--p", "0.125", "--seed", "2", "--k", "2"]
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text,field",
        [
            ("{}", "'kind'"),
            ("[1]", "JSON object"),
            ('{"kind": "random", "n": 7, "p": null}', "'p'"),
            ('{"kind": "random", "n": 7.9}', "'n'"),
            ('{"kind": "random", "n": 7, "seed": 1.5}', "'seed'"),
            ('{"kind": "random", "n": true}', "'n'"),
        ],
        ids=["empty", "list", "null-density", "fractional-n", "fractional-seed", "bool-n"],
    )
    def test_malformed_spec_is_usage_error(self, capsys, tmp_path, text, field):
        # Exit 1 means a check failed; a bad spec file is a usage error.
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, err = _run(capsys, ["norm", "--input", str(path), "--k", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: generator spec") and field in err
        assert "Traceback" not in err

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli, "u_norm_fast", broken)
        code, out, err = _run(capsys, ["norm", "--n", "7", "--k", "2"])
        assert code == 2
        assert out == ""
        assert err == "error: internal error (RuntimeError: engine fault)\n"


class TestSubcommands:
    def test_boxnorm_values(self, capsys):
        code, obj, _ = _run_json(
            capsys, ["boxnorm", "--n", "5", "--seed", "1", "--r", "2"]
        )
        assert code == 0
        values = obj["values"]
        assert "u-norm-centered" in values
        for j in range(3):
            assert f"box-norm-raw-j{j}" in values
            assert f"box-norm-centered-j{j}" in values
        # Every centered box norm matches the uniformity norm.
        for j in range(3):
            assert values[f"box-norm-centered-j{j}"] == pytest.approx(
                values["u-norm-centered"], abs=1e-9
            )

    def test_gcs_default(self, capsys):
        code, obj, _ = _run_json(capsys, ["gcs", "--dims", "2,3", "--tuples", "2"])
        assert code == 0
        assert obj["report"]["pass"] is True

    def test_gcs_equal_tuple(self, capsys):
        code, obj, _ = _run_json(capsys, ["gcs", "--dims", "2,3", "--equal"])
        assert code == 0
        names = [c["check"] for c in obj["report"]["checks"]]
        assert any("equality" in name for name in names)

    def test_represent(self, capsys):
        code, obj, _ = _run_json(
            capsys, ["represent", "--n", "7", "--seed", "3", "--r", "2"]
        )
        assert code == 0
        assert obj["report"]["pass"] is True
        assert "u-norm-centered" in obj["report"]["ratios"]

    def test_cube_all_ones(self, capsys):
        code, obj, _ = _run_json(capsys, ["cube", "--n", "5", "--seed", "2", "--r", "2"])
        assert code == 0
        assert "cube-expectation" in obj["values"]
        assert obj["inputs"]["pattern"] == "1111"

    def test_slf_and_single(self, capsys):
        for cmd in ("slf", "slf-single"):
            code, obj, _ = _run_json(
                capsys, [cmd, "--n", "5", "--seed", "1", "--r", "2"]
            )
            assert code == 0
            assert "lhs" in obj["values"]
            assert obj["report"]["pass"] is True

    def test_nuprime(self, capsys):
        code, obj, _ = _run_json(capsys, ["nuprime", "--n", "7", "--seed", "2", "--r", "2"])
        assert code == 0
        names = [c["check"] for c in obj["report"]["checks"]]
        assert "doubled-origin-second-moment" in names
        assert "centered-moment-expansion" in names

    def test_lf2_with_exponents(self, capsys):
        code, obj, _ = _run_json(
            capsys,
            ["lf2", "--n", "5", "--seed", "1", "--r", "2", "--exponents", "1011"],
        )
        assert code == 0
        assert all(rep["pass"] for rep in obj["reports"])

    def test_lf2_single_edge(self, capsys):
        code, obj, _ = _run_json(
            capsys, ["lf2", "--n", "5", "--seed", "1", "--r", "2", "--j", "1"]
        )
        assert code == 0

    @pytest.mark.parametrize("r,n,reported", [(1, 101, False), (2, 7, True)])
    def test_lf2_chain_ratio_only_above_roundoff(self, capsys, r, n, reported):
        # At r=1 the centered box norm and the chain's lhs are both zero up
        # to roundoff (about 1e-17), so their ratio is left out.
        code, obj, err = _run_json(capsys, ["lf2", "--r", str(r), "--n", str(n)])
        assert code == 0, err
        chains = [rep for rep in obj["reports"] if rep["name"] == "centered-term-chain"]
        assert len(chains) == r
        for rep in chains:
            assert ("lhs-over-boxnorm-times-sup-power" in rep["ratios"]) is reported
            assert (rep["ratios"]["box-norm-centered"] > 1e-9) is reported

    def test_count(self, capsys):
        code, obj, _ = _run_json(capsys, ["count", "--n", "7", "--seed", "1", "--r", "2"])
        assert code == 0
        assert obj["ap"]["k"] == 3
        assert "over_p_r" in obj["ratios"]

    def test_experiment(self, capsys):
        code, obj, _ = _run_json(
            capsys, ["experiment", "--n", "7", "--seed", "1", "--r", "2"]
        )
        assert code == 0
        assert "density-minus-one" in obj["report"]["ratios"]

    def test_experiment_chains_at_r4(self, capsys):
        # The telescoping chains run on relabeled representations, which
        # keep their forms: the endpoint takes the box route and u_norm_fast
        # checks it, where the plan would be refused at 2.59e8.
        code, obj, _ = _run_json(
            capsys, ["experiment", "--n", "11", "--r", "4", "--with-chains"]
        )
        assert code == 0
        assert all(f"term-{m}-chain-bound" in obj["report"]["ratios"] for m in range(5))

    @pytest.mark.parametrize("command", ["nuprime", "verify"])
    def test_arity_one(self, capsys, command):
        # At r=1 the conditional product weight reads no vertex of e0.
        code, obj, err = _run_json(capsys, [command, "--r", "1", "--n", "5"])
        assert code == 0, err
        assert obj["pass"] is True

    def test_verify_small(self, capsys):
        code, obj, _ = _run_json(capsys, ["verify", "--n", "5", "--seeds", "2"])
        assert code == 0
        assert obj["pass"] is True
        assert len(obj["suites"]) == 9
        assert sum(len(s["checks"]) for s in obj["suites"]) > 50
        assert all(s["pass"] for s in obj["suites"])


class TestOutputFormats:
    def test_json_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = main(
                ["verify", "--n", "5", "--seeds", "2", "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_values_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["norm", "--kind", "constant", "--n", "8", "--k", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value"
        assert lines[1].startswith("fast,")

    def test_checks_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["represent", "--n", "5", "--seed", "1", "--r", "2", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "report,check,lhs,rhs,margin,pass,note"

    def test_ap_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["count", "--n", "7", "--seed", "1", "--r", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,density,prediction,ratio,trivial_count,nontrivial_count"
        row = lines[1].split(",")
        assert len(lines) == 2 and len(row) == 7
        assert row[0] == "7"
        # repr round-trips floats exactly
        nu = generate(GeneratorSpec(kind="random", n=7, seed=1))
        assert float(row[2]) == ap_density(nu.fn, 3).density

    def test_numpy_sides_serialise(self, capsys):
        # A numpy-scalar side used to make the pass flag an np.bool_, which
        # the JSON writer cannot serialise.
        report = VerificationReport(name="numpy-sides")
        report.add(ineq_check("ineq", np.float64(1.0), np.float64(2.0), 0.0))
        report.add(eq_check("eq", np.float64(1.0), np.float64(1.0), 0.0))
        assert all(type(c.passed) is bool for c in report.checks)
        args = build_parser().parse_args(["gcs"])
        cli._emit({"report": report.to_json_obj()}, args)
        obj = json.loads(capsys.readouterr().out)
        assert [c["pass"] for c in obj["report"]["checks"]] == [True, True]

    def test_nan_is_a_clean_error(self, capsys, monkeypatch):
        # A progression ratio is NaN when its prediction is zero.  Written as
        # the bare token NaN it made invalid JSON under exit 0.
        real = cli.ap_density

        def nan_ratio(f, k, budget=None):
            return dataclasses.replace(real(f, k, budget), ratio=math.nan)

        monkeypatch.setattr(cli, "ap_density", nan_ratio)
        code, out, err = _run(capsys, ["count", "--n", "7", "--seed", "1", "--r", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")

    def test_out_of_memory_is_a_clean_error(self, capsys, monkeypatch):
        # Exit 1 means a check failed; running out of memory is not one.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 134. MiB")

        monkeypatch.setattr(cli, "u_norm_fast", exhausted)
        code, out, err = _run(capsys, ["norm", "--n", "7", "--k", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory (Unable to allocate 134. MiB)")
        assert "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(["norm", "--n", "7", "--k", "2", "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["schema"] == 1


class TestCheckIds:
    def test_check_ids_pinned(self, capsys):
        # Every (report, check id) pair, in order, as recorded before each
        # subcommand and its verify suite started sharing one check helper.
        fixture = Path(__file__).parent / "data" / "check_ids.json"
        for command, expected in json.loads(fixture.read_text()).items():
            code, obj, _ = _run_json(capsys, command.split())
            assert code == 0, command
            reports = obj.get("suites") or obj.get("reports") or [obj["report"]]
            ids = [[rep["name"], c["check"]] for rep in reports for c in rep["checks"]]
            assert ids == expected, command


def _rewritten(name: str, old: str, new: str, module=apcount):
    """A fault that recompiles the function ``name`` of ``module`` from its
    source with the one fragment ``old`` replaced by ``new``."""

    def fault(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1
        namespace = {}
        exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return fault


def _quotient_fault(module, name: str, old: str, new: str):
    """``_rewritten`` with an empty route cache, so that every formed
    structure is routed, and its pivots picked, under the fault."""
    rewrite = _rewritten(name, old, new, module)

    def fault(monkeypatch):
        rewrite(monkeypatch)
        fresh = functools.lru_cache(maxsize=16384)(linform._route.__wrapped__)
        monkeypatch.setattr(linform, "_route", fresh)

    return fault


def _count_route_scaled(monkeypatch):
    """The count route of ap_density returns its count one part in a million
    high."""
    real = apcount._count_route

    def scaled(*args):
        return real(*args) * (1.0 + 1e-6)

    monkeypatch.setattr(apcount, "_count_route", scaled)


def _spectrum_without_nyquist(monkeypatch):
    """The order-two base of u_norm_fast loses the Nyquist bin of an even N."""
    real = np.fft.rfft

    def dropped(a, *args, **kwargs):
        coeffs = real(a, *args, **kwargs)
        if np.shape(a)[-1] % 2 == 0:
            coeffs[..., -1] = 0.0
        return coeffs

    monkeypatch.setattr(np.fft, "rfft", dropped)


# Every vertex of a class's basis is taken for a coloop, so a class without
# one is read as m^c times a smaller core.
_coloop_free_as_coloop = _rewritten(
    "_coloop_split", "n)) < len(basis)", "n)) <= len(basis)", linform
)
# Each permuted vertex reads the first coordinate of the permutation in
# every place: no coordinate permutation, and no cube symmetry.
_table_one_coordinate = _rewritten(
    "_cube_classes", "tuple([om[p] for p in perm])", "tuple([om[perm[0]] for p in perm])", linform
)
_represent_coefficient = _rewritten(
    "represent", "(j - i) % n", "(j - i + (i == r)) % n", hypersystem
)
# The quotient route slices its first pivot at 0, like the variables
# outside the basis, and plans over the other pivots alone.
_first_pivot_sliced = _quotient_fault(
    linform,
    "_quotient_layout",
    "letter = dict(zip([order[k] for k in pivots], _LETTERS))",
    "letter = dict(zip([order[k] for k in pivots[1:]], _LETTERS)); pivots = pivots[1:]",
)
# Every weight of two or more axes holds one value, its last, that its form
# does not give.
_formed_last_value_off = _rewritten(
    "formed",
    "    return out\n",
    "    if out.ndim > 1:\n        out.flat[-1] += 1.0\n    return out\n",
    forms,
)


class TestMutations:
    def test_scaled_router_value_fails(self, capsys, monkeypatch):
        # Every doubled chain quantity is off by one part in a million; the
        # endpoint check, against the uniformity norm, must catch it.
        argv = ["slf-single", "--r", "3", "--n", "7"]
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        real = linform.expect_product

        def scaled(*args, **kwargs):
            return real(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(linform, "expect_product", scaled)
        code, obj, _ = _run_json(capsys, argv)
        assert code == 1
        failed = [c["check"] for c in obj["report"]["checks"] if not c["pass"]]
        assert "endpoint-box-power" in failed

    @pytest.mark.parametrize(
        "fault,argv",
        [
            # The bit kernel counts four-term progressions.  Not at N = 5:
            # there {a, a+2d, a+3d, a+4d} and {a, a+d, a+2d, a+3d} are each
            # Z_5 less one point, so a term read one stride long counts the
            # same progressions.
            (
                _rewritten("_bit_count", "offset = j * d % n", "offset = (j + 1) * d % n"),
                ["verify", "--r", "3", "--n", "7"],
            ),
            # verify runs at primes only, so an even modulus needs norm.
            (_spectrum_without_nyquist, ["norm", "--k", "3", "--n", "16", "--mode", "both"]),
            # telescoping-count-identity compares the density with terms
            # computed without it.
            (
                _rewritten("_bit_count", "        acc[:, -1] &= tail\n", ""),
                ["experiment", "--r", "3", "--n", "41", "--p", "0.2", "--seed", "0"],
            ),
            (
                _rewritten("_bit_count", "(n + 1) // 2] *= 2", "(n + 1) // 2] *= 1"),
                ["verify", "--r", "3", "--n", "7"],
            ),
            (
                _rewritten("_count_route", "    g[: n - 1] += linear[n : 2 * n - 1]\n", ""),
                ["verify", "--r", "2", "--n", "7"],
            ),
            (
                _rewritten("_count_route", "rounded[2 * support % n]", "rounded[support]"),
                ["experiment", "--r", "2", "--n", "101", "--p", "0.2", "--seed", "0"],
            ),
            (_count_route_scaled, ["verify", "--r", "2", "--n", "7"]),
            # Every edge but the one omitting r reads its last vertex one
            # coefficient off; its weight is formed by the wrong form, so
            # weight and form agree and only the certificate in represent,
            # which every engine that represents runs, can see it.
            *[
                (_represent_coefficient, argv)
                for argv in (
                    ["verify", "--r", "3", "--n", "7"],
                    ["lf2", "--r", "3", "--n", "13"],
                    ["cube", "--r", "3", "--n", "7"],
                    ["slf", "--r", "3", "--n", "7"],
                    ["experiment", "--r", "3", "--n", "29", "--with-chains"],
                )
            ],
            *[
                (fault, argv)
                for fault in (_coloop_free_as_coloop, _table_one_coordinate)
                for argv in (["cube", "--r", "3", "--n", "7"], ["verify", "--r", "3", "--n", "7"])
            ],
            # Norm preservation takes each box norm from the quotient route,
            # which the parent's dense box recursion never entered.
            (_first_pivot_sliced, ["represent", "--r", "3", "--n", "7"]),
            (_first_pivot_sliced, ["represent", "--r", "2", "--n", "7"]),
            # The quotient route still reads the dense arrays: norm
            # preservation sees a value the form does not give.
            (_formed_last_value_off, ["represent", "--r", "3", "--n", "7"]),
        ],
        ids=[
            "bit-term-one-stride-long",
            "rfft-without-nyquist",
            "bit-tail-unmasked",
            "bit-half-walk-undoubled",
            "count-without-fold",
            "count-gathered-at-b",
            "count-scaled",
            "represent-coefficient",
            "represent-coefficient-lf2",
            "represent-coefficient-cube",
            "represent-coefficient-slf",
            "represent-coefficient-experiment",
            "coloop-free-as-coloop-cube",
            "coloop-free-as-coloop-verify",
            "group-table-one-coordinate-cube",
            "group-table-one-coordinate-verify",
            "quotient-first-pivot-sliced-r3",
            "quotient-first-pivot-sliced-r2",
            "formed-last-value-off",
        ],
    )
    def test_fast_path_fault_fails(self, capsys, monkeypatch, fault, argv):
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        fault(monkeypatch)
        code, _, _ = _run(capsys, argv)
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [["lf2", "--r", "3", "--n", "13"], ["verify", "--r", "3", "--n", "7"]]
    )
    @pytest.mark.parametrize(
        "fault",
        [
            _quotient_fault(
                forms, "pivots", "return tuple(sorted(basis))", "return tuple(sorted(basis))[:-1]"
            ),
            # A fault inside the elimination: the certificate, which does
            # not share it, still refuses the pivots it picks.
            _quotient_fault(forms, "pivots", "(x - f * y) % n", "(x + f * y) % n"),
        ],
        ids=["pivot-choice-drops-last", "elimination-adds"],
    )
    def test_quotient_fault_fails(self, capsys, monkeypatch, fault, argv):
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        fault(monkeypatch)
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert err.startswith("numerical inconsistency: ")


class TestQuotientRoute:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lf2", "--r", "3", "--n", "29"],
            ["lf2", "--r", "4", "--n", "17"],
            ["cube", "--r", "3", "--n", "41"],
        ],
    )
    def test_refused_before_the_quotient_runs_now(self, capsys, argv):
        # Refused at 1.03e8, 1.69e8 and 8.17e8 products by the router.
        code, _, err = _run(capsys, argv)
        assert code == 0, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["slf", "--r", "4", "--n", "5", "--seed", "0", "--instance-seed", "0"],
            ["slf-single", "--r", "4", "--n", "7", "--seed", "0", "--instance-seed", "0"],
        ],
    )
    def test_benchmark_slf_operations_never_enter_the_quotient(self, capsys, monkeypatch, argv):
        # perfbench compares a margin of slf --r 4 --n 5 that is already
        # close to its tolerance, so no slf quantity may change its route.
        entered, sliced = [], []
        layout, run = linform._quotient_layout, linform._run

        def layout_spy(*args):
            entered.append(args)
            return layout(*args)

        def run_spy(plan, factors):
            sliced.append(bool(plan.slices))
            return run(plan, factors)

        monkeypatch.setattr(linform, "_quotient_layout", layout_spy)
        monkeypatch.setattr(linform, "_run", run_spy)
        fresh = functools.lru_cache(maxsize=16384)(linform._route.__wrapped__)
        monkeypatch.setattr(linform, "_route", fresh)
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        assert entered == []
        assert sliced and not any(sliced)
        # The spies are live: a formed engine enters the quotient and runs
        # its plans through slices.
        _run(capsys, ["lf2", "--r", "2", "--n", "5"])
        assert entered and any(sliced)

    @pytest.mark.parametrize(
        "argv",
        [
            ["represent", "--r", "3", "--n", "7"],
            ["boxnorm", "--r", "3", "--n", "7"],
            ["verify", "--r", "2", "--n", "7"],
        ],
        ids=["represent", "boxnorm", "verify"],
    )
    def test_box_norm_sees_only_weights_without_a_form(self, capsys, monkeypatch, argv):
        # A represented weight's box norm is a formed expectation; the dense
        # pair recursion serves plain functions alone, the gcs right side.
        seen = []
        real = gowersnorm.box_norm

        def spy(g, budget=None):
            seen.append(g.form)
            return real(g, budget)

        monkeypatch.setattr(gowersnorm, "box_norm", spy)
        assert not hasattr(cli, "box_norm") and not hasattr(linform, "box_norm")
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        assert seen == [None] * len(seen)
        assert bool(seen) == (argv[0] == "verify")  # the spy is live: verify runs gcs

    def test_one_plan_per_formed_structure(self, capsys, monkeypatch):
        # Each formed structure is planned once, on its quotient slices, and
        # never priced without its forms on the plan, box or split route;
        # pricing those too made 37 plans and 15 box and 15 split layouts
        # here for 26 structures.
        calls = {"_plan": [], "_box_layout": [], "_split_layout": []}

        def spy(name):
            real = getattr(linform, name)

            def recorded(*args):
                calls[name].append(args)
                return real(*args)

            return recorded

        for name in calls:
            monkeypatch.setattr(linform, name, spy(name))
        structures = []
        route = linform._route.__wrapped__

        def routed(structure, d):
            structures.append(structure)
            return route(structure, d)

        monkeypatch.setattr(linform, "_route", functools.lru_cache(maxsize=16384)(routed))
        code, _, err = _run(capsys, ["lf2", "--r", "3", "--n", "13"])
        assert code == 0, err
        assert structures and all(len(entry) == 3 for s in structures for entry in s)
        assert len(calls["_plan"]) == len(structures)
        assert calls["_box_layout"] == calls["_split_layout"] == []


class TestProgressionMap:
    def test_broken_map_fails_as_a_check(self):
        # A wrong coefficient must be counted by the check, not raised from
        # inside ap_values.
        n, r = 7, 2
        nu = from_set({0, 1, 3}, n)
        w = represent(nu, r)
        forms = [w.weight_omitting(j).form.coeffs for j in range(r + 1)]
        forms[1] = ((forms[1][0] + 1) % n,) + forms[1][1:]
        broken = formed_by(w, nu.fn.values, forms)
        assert hypersystem.map_failures(w) == 0
        assert hypersystem.map_failures(broken) > 0

    @pytest.mark.parametrize("r,n,seed", [(2, 59, 0), (2, 59, 5), (3, 17, 1), (4, 11, 2)])
    def test_sample_is_the_per_point_draw(self, capsys, monkeypatch, r, n, seed):
        # Above 50,000 cube points represent once checked 2000 points drawn
        # one per point from the seed.  The map is now counted over every
        # point from the representation alone, so no seed draws a sample.
        seen = []

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return hypersystem.map_failures(*args, **kwargs)

        monkeypatch.setattr(cli, "map_failures", spy)
        argv = ["represent", "--r", str(r), "--n", str(n), "--seed", str(seed)]
        code, obj, _ = _run_json(capsys, argv)
        assert code == 0
        assert [(len(args), kwargs) for args, kwargs in seen] == [(1, {})]
        check = obj["report"]["checks"][-2]
        assert check["check"] == f"progression-map ({n ** (r + 1)} points)"
        assert check["pass"] and check["lhs"] == 0.0


class TestVerifyInputs:
    def test_each_seeded_measure_built_and_represented_once(self, capsys, monkeypatch):
        specs, measures = [], []
        real_generate, real_represent = cli.generate, hypersystem.represent
        # Every caller reaches represent through hypersystem, so a
        # representation rebuilt inside a library step is counted as well.

        def generate(spec):
            specs.append(spec)
            return real_generate(spec)

        def represent(nu, r):
            measures.append(nu.fn.values.tobytes())
            return real_represent(nu, r)

        monkeypatch.setattr(cli, "generate", generate)
        monkeypatch.setattr(hypersystem, "represent", represent)
        code, _, _ = _run(capsys, ["verify", "--r", "2", "--n", "5", "--seeds", "3"])
        assert code == 0
        assert len(specs) == len(set(map(repr, specs))) == 3 + 1  # seeds + constant
        assert len(measures) == len(set(measures)) == 3 + 1


    @pytest.mark.parametrize(
        "module, name", [(apcount, "ap_density"), (linform, "nu_prime")], ids=["density", "weight"]
    )
    def test_each_density_and_product_weight_built_once(
        self, capsys, monkeypatch, module, name
    ):
        # One progression density and one conditional product weight for each
        # of the ten seeded measures and for the constant measure.
        real = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(cli, name, counted)
        code, _, _ = _run(capsys, ["verify", "--r", "2", "--n", "7"])
        assert code == 0
        assert len(calls) == 10 + 1


MEASURE_COMMANDS = [
    ["norm", "--k", "2"],
    ["boxnorm", "--r", "2"],
    ["represent", "--r", "2"],
    ["cube", "--r", "2"],
    ["slf", "--r", "2"],
    ["slf-single", "--r", "2"],
    ["nuprime", "--r", "2"],
    ["lf2", "--r", "2"],
    ["count", "--r", "2"],
    ["experiment", "--r", "2", "--with-chains"],
]


class TestMeasureInputs:
    @pytest.mark.parametrize("argv", MEASURE_COMMANDS, ids=[a[0] for a in MEASURE_COMMANDS])
    def test_measure_generated_once(self, capsys, monkeypatch, argv):
        # Every random measure is drawn by generate_set, whichever module
        # calls generate.
        specs = []
        real = genmeasure.generate_set

        def generate_set(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(genmeasure, "generate_set", generate_set)
        code, obj, _ = _run_json(capsys, argv + ["--n", "5", "--seed", "1"])
        assert code == 0
        assert specs == [GeneratorSpec(kind="random", n=5, seed=1)]
        assert obj["inputs"]["spec"] == specs[0].to_json_obj()


class TestExperimentInputs:
    def test_progression_density_computed_once(self, capsys, monkeypatch):
        calls = []
        real = apcount.ap_density

        def counted(f, k, budget=None):
            calls.append(k)
            return real(f, k, budget)

        monkeypatch.setattr(apcount, "ap_density", counted)
        monkeypatch.setattr(cli, "ap_density", counted)
        code, obj, _ = _run_json(capsys, ["experiment", "--r", "2", "--n", "11"])
        monkeypatch.undo()
        assert code == 0
        assert calls == [3]
        # The report is the one telescoping_check builds from the same density.
        nu = generate(GeneratorSpec.from_json_obj(obj["inputs"]["spec"]))
        expect = telescoping_check(represent(nu, 2), ap_density(nu.fn, 3).density).to_json_obj()
        got = obj["report"]
        assert got["checks"] == expect["checks"]
        assert {key: got["ratios"][key] for key in expect["ratios"]} == expect["ratios"]
        assert obj["ap"] == dataclasses.asdict(ap_density(nu.fn, 3))


# One argv per subcommand, each setting flags of its own.
PARSE_CASES = {
    "norm": ["norm", "--k", "3", "--n", "7", "--mode", "both", "--centered"],
    "boxnorm": ["boxnorm", "--r", "2", "--n", "7", "--kind", "constant"],
    "gcs": ["gcs", "--dims", "2,3", "--tuples", "2", "--equal", "--format", "csv"],
    "represent": ["represent", "--r", "2", "--n", "11", "--seed", "3", "--p", "0.3"],
    "cube": ["cube", "--r", "2", "--n", "7", "--j", "1", "--pattern", "1011"],
    "slf": ["slf", "--r", "3", "--n", "7", "--caps", "nu", "--instance-seed", "2"],
    "slf-single": ["slf-single", "--r", "2", "--n", "5", "--caps", "one"],
    "nuprime": ["nuprime", "--r", "2", "--input", "spec.json", "--budget", "1e6"],
    "lf2": ["lf2", "--r", "3", "--n", "7", "--j", "2", "--exponents", "101101"],
    "count": ["count", "--r", "1", "--n", "13", "--output", "out.json"],
    "experiment": ["experiment", "--r", "2", "--n", "7", "--with-chains"],
    "verify": ["verify", "--r", "3", "--n", "5", "--seeds", "2"],
}


def _choices(parser) -> set[str]:
    (sub,) = parser._subparsers._group_actions
    return set(sub.choices)


def _parsed(parser, argv):
    """The parsed namespace as a dict, its ``func`` replaced by the handler
    (a partial of ``_measure`` compares by its function and arguments)."""
    ns = vars(parser.parse_args(argv))
    func = ns.pop("func")
    handler = (func.func, func.args) if isinstance(func, functools.partial) else func
    return ns, handler


def _exit(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    def test_import_builds_no_class_table(self):
        # The cube class tables are built on first use, so that importing
        # the command line costs no table.
        probe = (
            "import gowers.cli, gowers.linform as L; print(*[f.cache_info().currsize"
            " for f in (L._flip_classes, L._cube_classes, L._coloop_split)])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "0", "0"]

    def test_every_subcommand_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        assert commands == {
            "norm", "boxnorm", "gcs", "represent", "cube", "slf", "slf-single",
            "nuprime", "lf2", "count", "experiment", "verify",
        }

    @pytest.mark.parametrize("command", list(PARSE_CASES))
    def test_one_command_parser_parses_as_the_full_one(self, command):
        assert set(PARSE_CASES) == _choices(build_parser())
        argv = PARSE_CASES[command]
        one, full = _parsed(build_parser(command), argv), _parsed(build_parser(), argv)
        assert one == full and one[0]["command"] == command
        assert _choices(build_parser(command)) == {command}

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h", "slf"], ["bogus"], [], ["slf", "--r", "2", "--bogus"]]
        + [[command, flag] for command in PARSE_CASES for flag in ("--help", "--bogus")],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_main_prints_what_the_full_parser_prints(self, capsys, argv):
        # The one-command parser's usage names every choice, as the full
        # parser's does, so an error printed at the top level is unchanged.
        assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)

    def test_one_command_registers_only_its_parser(self, capsys, monkeypatch):
        # The full parser registers 12 subcommands and 127 arguments.
        counts = collections.Counter()

        def counting(method):
            def counted(self, *args, **kwargs):
                counts[method.__name__] += 1
                return method(self, *args, **kwargs)
            return counted

        for cls, name in ((argparse._ActionsContainer, "add_argument"),
                          (argparse._SubParsersAction, "add_parser")):
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
        assert _run(capsys, ["slf", "--r", "2", "--n", "5"])[0] == 0
        assert counts["add_parser"] == 1 and counts["add_argument"] <= 13
        counts.clear()
        build_parser()
        assert counts["add_parser"] == 12
