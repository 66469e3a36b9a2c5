"""Independence audit of the two-sided checks: the two sides of a check
must not share the code that evaluates them.

Each row names the two side callables of one check family on a small
instance.  A ``sys.setprofile`` tracer records every ``src/gowers`` function
that each side runs, with every cache of the package cleared first, so a
side cannot lean on work its partner cached.  The sides may share only the
allow-list: the budget, ``Form``, ``EdgeFn`` construction, the measure
plumbing of ``cyclic``, ``clamp_cube_average`` and ``cube_vertices``.  A
side whose partner is spectral (``u_norm_fast``, or ``ap_density`` at k = 3,
its Fourier count) must make no ``numpy.fft`` call, so the two cannot share
a formula through numpy either.

The classification of the other check kinds (one-sided bounds, internal
identities and exact constants) is not audited here yet.
"""

import math
import sys
from pathlib import Path

import pytest

import gowers
import gowers.apcount as apcount
import gowers.forms as forms
import gowers.gowersnorm as gowersnorm
import gowers.hypersystem as hypersystem
import gowers.linform as linform
from conftest import philox
from gowers import EdgeFn, GeneratorSpec, generate, represent
from gowers.gowersnorm import clamp_cube_average, cube_vertices

SRC = Path(gowers.__file__).resolve().parent
# (file, qualified name) of each function either side may run; a file with
# no names allows every function in it.
ALLOWED = {
    "budget.py": None,
    "cyclic.py": None,
    "forms.py": {"Form.__post_init__"},
    "gowersnorm.py": {"EdgeFn.__post_init__", "clamp_cube_average", "cube_vertices"},
}


def _allowed(key: tuple[str, str]) -> bool:
    file, name = key
    names = ALLOWED.get(file, set())
    return names is None or name in names


def _clear_caches() -> None:
    """Empty every ``functools`` cache of the package."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gowers."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _trace(side) -> tuple[set[tuple[str, str]], bool]:
    """The (file, qualified name) of every package function that ``side()``
    runs, and whether it called into ``numpy.fft``."""
    _clear_caches()
    seen: set[tuple[str, str]] = set()
    fft = []

    def profile(frame, event, arg):
        if event == "call":
            path = Path(frame.f_code.co_filename)
            if path.parent == SRC:
                seen.add((path.name, frame.f_code.co_qualname))
            elif "fft" in path.parts and "numpy" in path.parts:
                fft.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(None)
    return seen, bool(fft)


R, N = 3, 7


@pytest.fixture(scope="module")
def instance():
    """A measure at N = 7, its representations at r = 2 and r = 3, and a
    tuple of random functions on a 3 x 4 product."""
    nu = generate(GeneratorSpec(kind="random", n=N, p=0.5, seed=1))
    dims = (3, 4)
    rng = philox(5)
    gs = {omega: EdgeFn((1, 2), dims, rng.random(dims) * 2.0 - 1.0) for omega in cube_vertices(2)}
    return {"nu": nu, "w": {r: represent(nu, r) for r in (2, R)}, "gs": gs}


# Each row: the left and right side as functions of the instance, each
# looked up at call time so that a mutation patched into its module shows,
# and the side, if any, whose partner is spectral.
ROWS = {
    "norm-preservation": (
        lambda inst: linform.formed_box_norm(inst["w"][R].weight_omitting(1).centered()),
        lambda inst: gowersnorm.u_norm_fast(inst["nu"].centered(), R),
        "left",
    ),
    "progression-density": (
        lambda inst: hypersystem.progression_count_check(inst["w"][R]),
        lambda inst: apcount.ap_density(inst["nu"].fn, R + 1),
        None,
    ),
    # At r = 2 the density is the Fourier count of three-term progressions.
    "progression-density-k3": (
        lambda inst: hypersystem.progression_count_check(inst["w"][2]),
        lambda inst: apcount.ap_density(inst["nu"].fn, 3),
        "left",
    ),
    "dual-route": (
        lambda inst: gowersnorm.u_norm_brute(inst["nu"].centered(), R),
        lambda inst: gowersnorm.u_norm_fast(inst["nu"].centered(), R),
        "left",
    ),
    "gcs": (
        lambda inst: linform.expect_product(
            [(g.values, linform._cube_axes(g.edge, omega)) for omega, g in inst["gs"].items()]
        ),
        lambda inst: math.prod([gowersnorm.box_norm(g) for g in inst["gs"].values()]),
        None,
    ),
}


def _faults(row: str, inst) -> list[str]:
    """What breaks the independence of a row's two sides: each function
    they share outside the allow-list, and a spectral call on the side
    whose partner is spectral."""
    left, right, spectral = ROWS[row]
    left_runs, left_fft = _trace(lambda: left(inst))
    right_runs, right_fft = _trace(lambda: right(inst))
    shared = sorted(key for key in left_runs & right_runs if not _allowed(key))
    faults = [f"shared {file}:{name}" for file, name in shared]
    if {"left": left_fft, "right": right_fft, None: False}[spectral]:
        faults.append(f"the {spectral} side calls numpy.fft")
    return faults


@pytest.mark.parametrize("row", ROWS)
def test_sides_share_only_the_allow_list(instance, row):
    assert _faults(row, instance) == []


@pytest.mark.parametrize("row", ROWS)
def test_each_side_runs_package_code(instance, row):
    # The tracer sees both sides: each runs its own engine in the package.
    for side in ROWS[row][:2]:
        runs, _ = _trace(lambda: side(instance))
        assert any(not _allowed(key) for key in runs), row


def _box_norm_from_u_pows(g, budget=None):
    """formed_box_norm with its power taken from ``gowersnorm._u_pows`` on
    the weight's line."""
    k = len(g.edge)
    power = float(gowersnorm._u_pows(forms.line(g.values, g.form)[None, :], k)[0])
    return clamp_cube_average(power) ** (1 / 2**k)


def _count_from_ap_density(nu):
    """progression_count_check reading ``ap_density`` of nu."""
    return lambda w, budget=None: apcount.ap_density(nu.fn, w.r + 1, budget).density


def _box_norm_from_expect_product(g, budget=None):
    """box_norm with its power taken from ``linform.expect_product`` over
    the cube."""
    k = len(g.edge)
    factors = [(g.values, linform._cube_axes(g.edge, omega)) for omega in cube_vertices(k)]
    return clamp_cube_average(linform.expect_product(factors, budget)) ** (1 / 2**k)


@pytest.mark.parametrize(
    "rows,side,module,name,mutant",
    [
        (["norm-preservation"], 0, linform, "formed_box_norm", lambda nu: _box_norm_from_u_pows),
        (
            ["progression-density", "progression-density-k3"],
            0,
            hypersystem,
            "progression_count_check",
            _count_from_ap_density,
        ),
        (["gcs"], 1, gowersnorm, "box_norm", lambda nu: _box_norm_from_expect_product),
    ],
    ids=["box-norm-power-from-u-pows", "count-calls-ap-density", "gcs-right-calls-expect-product"],
)
def test_a_shared_side_fails_its_row(instance, monkeypatch, rows, side, module, name, mutant):
    # Each mutated side computes its value through its partner's code: the
    # value checks cannot see it, and the row that audits it fails.
    expect = {row: ROWS[row][side](instance) for row in rows}
    monkeypatch.setattr(module, name, mutant(instance["nu"]))
    for row in rows:
        assert ROWS[row][side](instance) == pytest.approx(expect[row], rel=1e-9, abs=1e-12)
        assert _faults(row, instance), row
