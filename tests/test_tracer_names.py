"""The benchmark's tracer (``perfbench/tracer.py``) wraps the program's
functions by module and name.  A change that renamed or removed one of them
would make every traced benchmark operation fail, so these tests load the
tracer as it stands and install it on the package."""

import importlib.util
from pathlib import Path

import gowers.cli as cli
import gowers.hypersystem as hypersystem
from gowers import GeneratorSpec, from_set, generate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_is_bound_and_restored():
    traced = _tracer_module()
    tracer = traced.Tracer()
    try:
        bound = set(tracer.install())
    finally:
        restored = tracer.restore()
    assert sorted(
        name for name, (module, fn) in traced.SPANS.items() if f"gowers.{module}.{fn}" not in bound
    ) == []
    assert restored


def test_representation_reaches_represent_with_its_key(capsys):
    # The tracer keys the represent span on (nu, r) and times its
    # allocation; the charge is taken first, through check_budget.
    traced = _tracer_module()
    tracer = traced.Tracer()
    nu = from_set({0, 1, 3}, 7)
    try:
        tracer.install()
        w = hypersystem.represent_charged(nu, 2, budget=1e6)
        code = cli.main(["represent", "--r", "2", "--n", "7", "--kind", "random", "--seed", "1"])
    finally:
        restored = tracer.restore()
    assert restored
    assert code == 0 and w.r == 2
    spans = [span for span in tracer.spans if span[0] == "hypersystem.represent"]
    assert len(spans) == 2
    drawn = generate(GeneratorSpec(kind="random", n=7, seed=1))
    assert [span[6] for span in spans] == [
        traced._measure_key(nu, 2),
        traced._measure_key(drawn, 2),
    ]
    assert tracer.counters()["charged_products"] >= 3 * 7**2
