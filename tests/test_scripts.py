"""Smoke tests for the two CSV experiment scripts: each runs end to end at
a small size and writes a well-formed table."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import gowers.apcount as apcount

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _script(argv: list[str], text: bool = True) -> subprocess.CompletedProcess:
    """Run ``scripts/<argv[0]>`` with the rest of argv in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=text, env=env, timeout=120,
    )


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_chain_margins(tmp_path, capsys, monkeypatch):
    out = tmp_path / "margins.csv"
    script = _load("chain_margins", monkeypatch)
    code = script.main(["--moduli", "5,7", "--seeds", "2", "--output", str(out)])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["variant", "r", "n", "seed", "check", "lhs", "rhs", "margin", "pass"]
    # Per instance at r=2: 10 two-copy, 10 single-copy and 2 x 4 doubled-origin checks.
    assert len(rows) - 1 == 2 * 2 * 28
    assert {row[0] for row in rows[1:]} == {
        "two-copy", "single-copy", "doubled-origin-j1", "doubled-origin-j2"
    }
    assert all(row[8] == "True" for row in rows[1:])
    assert capsys.readouterr().err.endswith("failing checks: 0\n")


def test_separation_sweep(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    script = _load("separation_sweep", monkeypatch)
    code = script.main(["--moduli", "31,37", "--seeds", "2", "--output", str(out)])
    assert code == 0
    rows = _rows(out)
    assert rows[0] == [
        "kind", "n", "seed", "p", "norm", "over_p_r", "over_p_half_r",
        "density", "density_minus_one",
    ]
    # Per modulus: two random draws, one interval and one quadratic set.
    assert len(rows) - 1 == 2 * 4
    assert [row[0] for row in rows[1:5]] == ["random", "random", "interval", "quadratic"]
    for row in rows[1:]:
        assert float(row[8]) == pytest.approx(float(row[7]) - 1.0, abs=1e-15)


def test_separation_sweep_never_walks(tmp_path, monkeypatch):
    # At its default moduli, draws and r = 2 every density the sweep reads
    # is counted by the FFT count route, one count per row.
    spy = mock.Mock(wraps=apcount._count_route)
    monkeypatch.setattr(apcount, "_count_route", spy)
    script = _load("separation_sweep", monkeypatch)
    assert script.main(["--output", str(tmp_path / "sweep.csv")]) == 0
    assert len(_rows(tmp_path / "sweep.csv")) == 1 + 3 * (10 + 2)
    assert spy.call_count == 3 * (10 + 2)


def test_separation_sweep_skips_empty_draws(tmp_path, monkeypatch):
    # At N=7, p=0.2 the random draws for seeds 2, 5, 8 and 9 are empty: they
    # write no row, and the other rows keep the seed that drew them.
    out = tmp_path / "sweep.csv"
    script = _load("separation_sweep", monkeypatch)
    code = script.main(["--moduli", "7", "--output", str(out)])
    assert code == 0
    rows = _rows(out)[1:]
    assert [(row[0], row[2]) for row in rows] == [
        ("random", "0"), ("random", "1"), ("random", "3"), ("random", "4"),
        ("random", "6"), ("random", "7"), ("interval", "0"), ("quadratic", "0"),
    ]


def _refuses_negative_seeds(name, capsys, monkeypatch):
    script = _load(name, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        script.main(["--seeds", "-1", "--moduli", "11"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seeds must be nonnegative, got -1" in captured.err


def test_separation_sweep_refuses_negative_seeds(capsys, monkeypatch):
    _refuses_negative_seeds("separation_sweep", capsys, monkeypatch)


def test_chain_margins_refuses_negative_seeds(capsys, monkeypatch):
    # It printed only the CSV header and exited 0.
    _refuses_negative_seeds("chain_margins", capsys, monkeypatch)


@pytest.mark.parametrize(
    "argv",
    [
        ["separation_sweep.py", "--moduli", "257", "--seeds", "1", "--budget", "10"],
        ["chain_margins.py", "--moduli", "5", "--seeds", "1", "--budget", "10"],
    ],
)
def test_budget_refusal_exits_2(argv):
    # The scripts map errors to exit codes as the command line does: a
    # refused step is a clean exit 2, not a traceback with exit 1.
    done = _script(argv)
    assert done.returncode == 2
    assert "budget exceeded" in done.stderr
    assert "Traceback" not in done.stderr


def test_chain_margins_charges_the_representation():
    # As on the command line, the edge weights are charged before they are
    # allocated, so the representation is the step refused, not a chain step.
    done = _script(
        ["chain_margins.py", "--r", "3", "--moduli", "5", "--seeds", "1", "--budget", "10"]
    )
    assert done.returncode == 2
    assert "(representation (r=3, n=5))" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["separation_sweep.py", "--moduli", "31,0", "--seeds", "1"],
        ["chain_margins.py", "--moduli", "7,0", "--seeds", "1"],
    ],
)
def test_failed_run_writes_nothing(tmp_path, argv):
    # The rows for modulus 7 or 31 are computed before modulus 0 is refused;
    # none of them reaches stdout or the output file.
    out = tmp_path / "rows.csv"
    for extra in ([], ["--output", str(out)]):
        done = _script(argv + extra)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: modulus must be positive, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "moduli,message",
    [("15", "modulus 15 must be prime"), ("5,2", "modulus 2 must exceed the arity 2")],
    ids=["composite", "not-above-arity"],
)
def test_chain_margins_modulus_names_the_flag(moduli, message):
    done = _script(["chain_margins.py", "--moduli", moduli, "--seeds", "1"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: --moduli: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["separation_sweep.py", "--moduli", "31", "--seeds", "1"],
        ["chain_margins.py", "--moduli", "5", "--seeds", "1"],
    ],
)
def test_stdout_matches_output_file(tmp_path, argv):
    # Both destinations receive the same bytes from the one writer.
    out = tmp_path / "rows.csv"
    to_stdout = _script(argv, text=False)
    to_file = _script(argv + ["--output", str(out)], text=False)
    assert (to_stdout.returncode, to_file.returncode, to_file.stdout) == (0, 0, b"")
    assert to_stdout.stdout.count(b"\n") > 1
    assert to_stdout.stdout == out.read_bytes()
    assert to_stdout.stderr == to_file.stderr


@pytest.mark.parametrize(
    "name,argv",
    [
        ("chain_margins", ["--moduli", "5", "--seeds", "2"]),
        ("separation_sweep", ["--moduli", "31", "--seeds", "2"]),
    ],
)
def test_budget_read_once(tmp_path, capsys, monkeypatch, name, argv):
    # The budget is resolved once for the run and handed to every engine.
    import gowers.budget as budget

    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(budget, "os", mock.Mock(environ=Environ(os.environ)))
    script = _load(name, monkeypatch)
    assert script.main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
    assert reads == ["GOWERS_BUDGET"]
