"""Command-line interface: exit codes, JSON/CSV stability, budget errors,
and the built-in verification suite."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import gowers.apcount as apcount
import gowers.cli as cli
import gowers.linform as linform
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
        # expectation refused N=67 at 1.01e8; it forms 2 * 3 * 67^3 products.
        code, _, err = _run(capsys, ["slf", "--r", "2", "--n", "67"])
        assert "strong-linear-forms expectation" not in err
        assert code == 0, err

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

    @pytest.mark.parametrize("command,n", [("slf", 29), ("represent", 101)])
    def test_suggestion_is_prime_and_clears_the_step(self, capsys, command, n):
        # The refused step reports its own cost exponent, so the suggestion
        # is a modulus the CLI accepts and the step no longer refuses.
        code, _, err = _run(capsys, [command, "--r", "3", "--n", str(n)])
        assert code == 2
        refusal = err.splitlines()[0]
        step = refusal[refusal.index(" (") :]
        m = int(err.split("--n <=")[1].split()[0])
        assert 3 < m < n and is_prime(m)
        code2, _, err2 = _run(capsys, [command, "--r", "3", "--n", str(m)])
        assert code2 in (0, 2), err2
        assert step not in err2


class TestErrors:
    @pytest.mark.parametrize(
        "argv,option",
        [(["gcs", "--tuples", "-1"], "--tuples"), (["verify", "--seeds", "-1", "--n", "5"], "--seeds")],
        ids=["tuples", "seeds"],
    )
    def test_negative_count_is_usage_error(self, capsys, argv, option):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"error: {option} must be nonnegative" in err

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
        code, _, err = _run(
            capsys,
            ["cube", "--kind", "constant", "--n", "5", "--r", "2",
             "--pattern", "101"],
        )
        assert code == 2
        assert "error:" in err

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
        assert lines[1].split(",")[0] == "7"

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

        def nan_ratio(fs, budget=None):
            return dataclasses.replace(real(fs, budget), ratio=math.nan)

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


def _progression_view_one_step_long(monkeypatch):
    """ap_density reads f_j at a + (j+1)*d."""
    real = apcount._shifts
    monkeypatch.setattr(apcount, "_shifts", lambda values, j: real(values, j + 1))


def _spectrum_without_nyquist(monkeypatch):
    """The order-two base of u_norm_fast loses the Nyquist bin of an even N."""
    real = np.fft.rfft

    def dropped(a, *args, **kwargs):
        coeffs = real(a, *args, **kwargs)
        if np.shape(a)[-1] % 2 == 0:
            coeffs[..., -1] = 0.0
        return coeffs

    monkeypatch.setattr(np.fft, "rfft", dropped)


class TestMutations:
    def test_scaled_router_value_fails(self, capsys, monkeypatch):
        # Every doubled chain quantity is off by one part in a million; the
        # endpoint check, against the uniformity norm, must catch it.
        argv = ["slf-single", "--r", "3", "--n", "7"]
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        real = linform._doubled

        def scaled(*args, **kwargs):
            return real(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(linform, "_doubled", scaled)
        code, obj, _ = _run_json(capsys, argv)
        assert code == 1
        failed = [c["check"] for c in obj["report"]["checks"] if not c["pass"]]
        assert "endpoint-box-power" in failed

    @pytest.mark.parametrize(
        "fault,argv",
        [
            (_progression_view_one_step_long, ["verify", "--r", "2", "--n", "7"]),
            # verify runs at primes only, so an even modulus needs norm.
            (_spectrum_without_nyquist, ["norm", "--k", "3", "--n", "16", "--mode", "both"]),
        ],
        ids=["ap-view-one-step-long", "rfft-without-nyquist"],
    )
    def test_fast_path_fault_fails(self, capsys, monkeypatch, fault, argv):
        code, _, err = _run(capsys, argv)
        assert code == 0, err
        fault(monkeypatch)
        code, _, _ = _run(capsys, argv)
        assert code == 1


class TestProgressionMap:
    def test_broken_map_fails_as_a_check(self):
        # A wrong coefficient must be counted by the check, not raised from
        # inside ap_values.
        n, r = 7, 2
        w = represent(from_set({0, 1, 3}, n), r)
        forms = list(w.forms)
        forms[1] = ((forms[1][0] + 1) % n,) + forms[1][1:]
        broken = dataclasses.replace(w, forms=tuple(forms))
        points = list(itertools.product(range(n), repeat=r + 1))
        assert cli._map_failures(w, points) == 0
        assert cli._map_failures(broken, points) > 0


class TestVerifyInputs:
    def test_each_seeded_measure_built_and_represented_once(self, capsys, monkeypatch):
        specs, measures = [], []
        real_generate, real_represent = cli.generate, cli.represent
        # apcount is patched too, so a representation rebuilt inside a
        # library step is counted as well.

        def generate(spec):
            specs.append(spec)
            return real_generate(spec)

        def represent(nu, r):
            measures.append(nu.fn.values.tobytes())
            return real_represent(nu, r)

        monkeypatch.setattr(cli, "generate", generate)
        monkeypatch.setattr(cli, "represent", represent)
        monkeypatch.setattr(apcount, "represent", represent)
        code, _, _ = _run(capsys, ["verify", "--r", "2", "--n", "5", "--seeds", "3"])
        assert code == 0
        assert len(specs) == len(set(map(repr, specs))) == 3 + 1  # seeds + constant
        assert len(measures) == len(set(measures)) == 3 + 1


class TestExperimentInputs:
    def test_progression_density_computed_once(self, capsys, monkeypatch):
        calls = []
        real = apcount.ap_density

        def counted(fs, budget=None):
            calls.append(len(fs))
            return real(fs, budget)

        monkeypatch.setattr(apcount, "ap_density", counted)
        monkeypatch.setattr(cli, "ap_density", counted)
        code, obj, _ = _run_json(capsys, ["experiment", "--r", "2", "--n", "11"])
        monkeypatch.undo()
        assert code == 0
        assert calls == [3]
        # The report is the one telescoping_check builds with its own density.
        nu = generate(GeneratorSpec.from_json_obj(obj["inputs"]["spec"]))
        expect = telescoping_check(nu, represent(nu, 2)).to_json_obj()
        got = obj["report"]
        assert got["checks"] == expect["checks"]
        assert {key: got["ratios"][key] for key in expect["ratios"]} == expect["ratios"]
        assert obj["ap"] == ap_density([nu.fn] * 3).to_json_obj()


class TestParser:
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
