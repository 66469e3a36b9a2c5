"""Smoke tests for the two CSV experiment scripts: each runs end to end at
a small size and writes a well-formed table."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


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


def test_separation_sweep_refuses_negative_seeds(capsys, monkeypatch):
    script = _load("separation_sweep", monkeypatch)
    with pytest.raises(SystemExit) as exc:
        script.main(["--seeds", "-1", "--moduli", "11"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seeds must be nonnegative, got -1" in captured.err
