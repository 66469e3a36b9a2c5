"""The benchmark (``perfbench/``) checks every operation it times against
the outputs recorded in ``perfbench/reference.json``, to 1e-9 relative.
These tests run the same operations in this process at the default workload
seed and compare them through the benchmark's own check, so a change that
moves a number past that tolerance fails here, not only in a benchmark run.
The benchmark's files are loaded as they stand and only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gowers.cli as cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
check = _load(PERFBENCH / "check.py", "perfbench_check")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
TEMPLATES = [template for ops in workloads.WORKLOADS.values() for template in ops]


def _tolerance_used(got: list, ref: list) -> float:
    """Largest |a - b| / (REL_TOL * max(1, |a|, |b|)) over the numbers."""
    return max(
        (
            abs(a - b) / (check.REL_TOL * max(1.0, abs(a), abs(b)))
            for a, b in zip(got, ref)
        ),
        default=0.0,
    )


def _op_id(template: list[str]) -> str:
    """``slf-r-2-n-23`` for ``slf --r 2 --n 23 --seed {seed} ...``."""
    words = [a for a in template if a not in ("--seed", "--instance-seed", "{seed}")]
    return "-".join(Path(a).stem if a.endswith(".py") else a.lstrip("-") for a in words)


@pytest.mark.parametrize("template", TEMPLATES, ids=_op_id)
def test_output_matches_the_reference(template, capsys, monkeypatch):
    monkeypatch.delenv("GOWERS_BUDGET", raising=False)
    seed = workloads.program_seed(workloads.DEFAULT_SEED)
    argv = workloads.bind(template, seed)
    label = " ".join(argv)
    entry = cli.main
    if argv[0].endswith(".py"):
        name = Path(argv[0]).stem
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, ROOT / argv[0])
        )
        monkeypatch.setitem(sys.modules, name, module)
        module.__spec__.loader.exec_module(module)
        entry, argv = module.main, argv[1:]
    code = entry(argv)
    stdout = capsys.readouterr().out
    ref = REFERENCE[" ".join(template)]
    got = check.summarize(code, stdout)
    numbers = "{seed}" not in template or ref["seed"] == seed
    used = _tolerance_used(got["numbers"], ref["summary"]["numbers"]) if numbers else 0.0
    print(f"{label}: {used:.3g} of the {check.REL_TOL:g} tolerance used")
    assert check.compare(got, ref["summary"], numbers) is None
