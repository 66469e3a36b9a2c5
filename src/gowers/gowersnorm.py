"""Gowers uniformity norms on Z_N and box norms on finite product spaces.

Two independent routes are kept deliberately separate:

* ``u_norm_brute`` evaluates the defining cube average term by term over the
  full (k+1)-dimensional index space.
* ``u_norm_fast`` uses the recursion through multiplicative differences
  down to the spectral identity at order two, whose base transforms each
  real row with a real FFT and weighs the nonnegative frequencies by their
  conjugate pairs.  Shifted rows are read from a strided view of the doubled
  rows, and the difference parameter h is walked in blocks, so no N x N
  array is ever formed.

Box norms of a function on a product of finite vertex sets have two routes
as well:

* ``box_norm_brute`` evaluates the box-norm cube average by direct
  enumeration of all npoints^2 points of the box; it is the test oracle.
* ``box_norm`` uses the pair recursion
  ||g||^(2^k) = E_{x1,x1'} ||g(x1, .) g(x1', .)||^(2^(k-1)) down to a Gram
  matrix base case, walking the pairs in blocks, and is the route every
  runtime box norm takes.  The chain router of ``linform`` runs the same
  recursion (``_box_pows``) batched over many functions at once.

``gcs_verify`` checks the product-form Cauchy-Schwarz bound for a full
assignment of functions to cube vertices.

Determinism: brute-force sums run in C-order chunks whose partial sums are
merged with Kahan compensation in a fixed order; einsum contractions are
performed unoptimized, which fixes their traversal order; the recursions
reduce over fixed shapes, so their values do not depend on the block size.
Repeated runs give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .budget import check_budget
from .cyclic import CyclicFn
from .errors import NumericalInconsistency, ShapeMismatch
from .report import TOL, VerificationReport, ineq_check

# Absolute clamp tolerance for cube averages that are squares analytically
# but may round slightly negative.
CLAMP_TOL = 1e-9

# Target number of elements per chunk: rows of the brute-force sum, blocks of
# difference parameters in the fast route, blocks of pairs in the box
# recursion.
_CHUNK_ELEMS = 1 << 16

CubeVertex = tuple[int, ...]


def cube_vertices(k: int) -> list[CubeVertex]:
    """All 0/1 assignments of length k, first coordinate slowest."""
    return list(itertools.product((0, 1), repeat=k))


def clamp_cube_average(avg: float, scale: float = 1.0) -> float:
    """Clamp a slightly negative cube average to zero.

    Averages of gradient-square type are nonnegative in exact arithmetic.
    A value in [-CLAMP_TOL * scale, 0) is treated as roundoff; anything more
    negative means a real inconsistency and raises.
    """
    if avg >= 0.0:
        return avg
    if avg >= -CLAMP_TOL * max(1.0, scale):
        return 0.0
    raise NumericalInconsistency(
        f"cube average {avg} is negative beyond the clamp tolerance"
    )


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def u_norm_brute(f: CyclicFn, k: int, budget: float | None = None) -> float:
    """Order-k uniformity norm by direct enumeration of the cube average.

    Every one of the N^(k+1) terms (a product of 2^k samples of f) is formed
    explicitly; cost N^(k+1) * 2^k elementary products, guarded by the budget.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    n = f.n
    cost = float(n) ** (k + 1) * (2.0**k)
    check_budget(cost, budget, what=f"u_norm_brute(k={k}, n={n})", power=k + 1)
    vals = f.values
    doubled = np.concatenate([vals, vals])

    # Grid over (x_1, ..., x_k), flattened in C order; x_0 is the fast axis.
    grid = np.indices((n,) * k).reshape(k, -1)
    offsets = []
    for omega in cube_vertices(k):
        s = np.zeros(grid.shape[1], dtype=np.int64)
        for j, bit in enumerate(omega):
            if bit:
                s += grid[j]
        offsets.append(np.mod(s, n))
    del grid

    x0 = np.arange(n)
    rows_per_chunk = max(1, _CHUNK_ELEMS // n)
    total, comp = 0.0, 0.0
    npoints = offsets[0].size
    for start in range(0, npoints, rows_per_chunk):
        stop = min(start + rows_per_chunk, npoints)
        prod = doubled[offsets[0][start:stop, None] + x0[None, :]]
        for s in offsets[1:]:
            prod = prod * doubled[s[start:stop, None] + x0[None, :]]
        total, comp = _kahan_add(total, comp, float(np.sum(prod)))
    avg = total / float(n) ** (k + 1)
    scale = float(np.max(np.abs(vals))) ** (2.0**k)
    return clamp_cube_average(avg, scale) ** (1.0 / 2.0**k)


def _u_pows(rows: np.ndarray, k: int) -> np.ndarray:
    """The 2^k-th power of the order-k norm (k >= 2) of each row of an (m, N)
    array: the spectral identity at order two, above it E_h of the order-(k-1)
    power of row * row(. + h), with h walked in blocks of _CHUNK_ELEMS values.

    The rows are real, so at order two only the nonnegative frequencies are
    transformed: bin 0 counts once, each interior bin stands for itself and
    its conjugate, and the Nyquist bin of an even N counts once.  Above it,
    row(. + h) is read from a read-only (m, N, N) view of the doubled rows
    with strides (row, 1, 1); the ndarray constructor, unlike as_strided,
    refuses a view that reads past the buffer, and costs a fifth as much,
    which small-N calls notice."""
    m, n = rows.shape
    if k == 2:
        coeffs = np.fft.rfft(rows, axis=1)
        coeffs /= n
        pows = (coeffs.real**2 + coeffs.imag**2) ** 2
        pows[:, 1 : (n + 1) // 2] *= 2.0
        return np.sum(pows, axis=1)
    doubled = np.concatenate([rows, rows], axis=1)
    s_row, s_col = doubled.strides
    shifted = np.ndarray((m, n, n), doubled.dtype, doubled, 0, (s_row, s_col, s_col))
    shifted.flags.writeable = False
    step = max(1, _CHUNK_ELEMS // (m * n))
    per_h = []
    for start in range(0, n, step):
        diffs = rows[:, None, :] * shifted[:, start : start + step]
        per_h.append(_u_pows(diffs.reshape(-1, n), k - 1).reshape(m, -1))
    return np.array([math.fsum(row) / n for row in np.concatenate(per_h, axis=1).tolist()])


def u_norm_fast(f: CyclicFn, k: int, budget: float | None = None) -> float:
    """Order-k uniformity norm by the difference recursion of ``_u_pows``,
    charged the N^(k-1) difference values it forms."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    n = f.n
    power = max(1, k - 1)
    check_budget(float(n) ** power, budget, what=f"u_norm_fast(k={k}, n={n})", power=power)
    if k == 1:
        return abs(math.fsum(f.values.tolist()) / n)
    avg = float(_u_pows(f.values[None, :], k)[0])
    scale = float(np.max(np.abs(f.values))) ** (2.0**k)
    return clamp_cube_average(avg, scale) ** (1.0 / 2.0**k)


@dataclass(frozen=True)
class EdgeFn:
    """A real function on a product of finite vertex sets.

    ``edge`` lists the vertex labels in strictly ascending order and ``dims``
    gives the matching set sizes; ``values`` is indexed with one axis per
    vertex in that order.
    """

    edge: tuple[int, ...]
    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        edge = tuple(int(v) for v in self.edge)
        dims = tuple(int(d) for d in self.dims)
        if list(edge) != sorted(set(edge)):
            raise ShapeMismatch(f"edge must be strictly ascending, got {edge}")
        if len(edge) != len(dims):
            raise ShapeMismatch("edge and dims must have equal length")
        if not edge:
            raise ShapeMismatch("edge must be nonempty")
        if any(d <= 0 for d in dims):
            raise ShapeMismatch(f"dims must be positive, got {dims}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != dims:
            raise ShapeMismatch(f"values shape {vals.shape} does not match dims {dims}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", vals)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.dims))

    def mean(self) -> float:
        return math.fsum(self.values.ravel().tolist()) / self.npoints

    def centered(self) -> "EdgeFn":
        return EdgeFn(self.edge, self.dims, self.values - 1.0)

    def same_shape(self, other: "EdgeFn") -> bool:
        return self.edge == other.edge and self.dims == other.dims

    @classmethod
    def ones(cls, edge: tuple[int, ...], dims: tuple[int, ...]) -> "EdgeFn":
        return cls(tuple(edge), tuple(dims), np.ones(tuple(dims)))


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _box_einsum(gs: Mapping[CubeVertex, EdgeFn]) -> float:
    """Sum over both copies of every coordinate of prod_omega g_omega(x^omega).

    Coordinate i of the edge gets two einsum letters (copy 0 and copy 1);
    the operand for omega picks letter 2*i + omega_i on axis i.  Unoptimized
    einsum fixes the traversal order, so results are reproducible.
    """
    some = next(iter(gs.values()))
    kk = len(some.edge)
    operands = []
    subs = []
    for omega in cube_vertices(kk):
        g = gs[omega]
        subs.append("".join(_LETTERS[2 * i + omega[i]] for i in range(kk)))
        operands.append(g.values)
    expr = ",".join(subs) + "->"
    return float(np.einsum(expr, *operands, optimize=False))


def _validate_cube_assignment(gs: Mapping[CubeVertex, EdgeFn]) -> EdgeFn:
    if not gs:
        raise ShapeMismatch("empty cube assignment")
    some = next(iter(gs.values()))
    kk = len(some.edge)
    expected = set(cube_vertices(kk))
    if set(gs.keys()) != expected:
        raise ShapeMismatch(
            f"cube assignment must cover exactly the {2**kk} vertices of the "
            f"{kk}-cube"
        )
    for g in gs.values():
        if not g.same_shape(some):
            raise ShapeMismatch("all cube functions must share edge and dims")
    return some


def mixed_cube_expectation(
    gs: Mapping[CubeVertex, EdgeFn], budget: float | None = None
) -> float:
    """E[prod_omega g_omega(x^omega)] over two independent copies of each
    coordinate; the signed average, not a norm."""
    some = _validate_cube_assignment(gs)
    kk = len(some.edge)
    npts = float(some.npoints)
    cost = npts**2 * (2.0**kk)
    check_budget(cost, budget, what=f"cube expectation on edge {some.edge}", power=2 * kk)
    return _box_einsum(gs) / npts**2


def box_norm_brute(g: EdgeFn, budget: float | None = None) -> float:
    """Box norm by direct enumeration: the 2^|e|-th root of the cube average
    with g at every cube vertex.  For a single vertex this is |E g|."""
    kk = len(g.edge)
    npts = float(g.npoints)
    cost = npts**2 * (2.0**kk)
    check_budget(cost, budget, what=f"box norm on edge {g.edge}", power=2 * kk)
    avg = _box_einsum({omega: g for omega in cube_vertices(kk)}) / npts**2
    scale = float(np.max(np.abs(g.values))) ** (2.0**kk)
    return clamp_cube_average(avg, scale) ** (1.0 / 2.0**kk)


def _box_pows(vals: np.ndarray) -> np.ndarray:
    """The box power (2^k-th power of the box norm) of each function in an
    (m, d1, ..., dk) array: (E g)^2 at k=1, the mean square of the Gram
    matrix E_y g(x, y) g(x', y) at k=2, above that E over the d1^2 pairs
    (x1, x1') of the order-(k-1) power of g(x1, .) * g(x1', .).  The pairs
    are walked x1-major in blocks of whole x1 rows, each block at most
    _CHUNK_ELEMS elements or one row.  Every sum runs over a fixed shape, so
    each value is independent of m and the block size."""
    m, d = vals.shape[:2]
    if vals.ndim == 2:
        return (np.sum(vals, axis=1) / d) ** 2
    rest = vals.shape[2:]
    if vals.ndim == 3:
        gram = vals @ vals.transpose(0, 2, 1)
        gram /= rest[0]
        gram *= gram
        return np.sum(gram.reshape(m, -1), axis=1) / d**2
    step = max(1, _CHUNK_ELEMS // (m * d * math.prod(rest)))
    per_pair = []
    for start in range(0, d, step):
        prods = vals[:, start : start + step, None] * vals[:, None]
        per_pair.append(_box_pows(prods.reshape(-1, *rest)).reshape(m, -1))
    return np.sum(np.concatenate(per_pair, axis=1), axis=1) / d**2


def box_norm(g: EdgeFn, budget: float | None = None) -> float:
    """Box norm by the pair recursion of ``_box_pows``, charged the
    npoints^2 / d_k products it forms: N^(2k-1) for k equal dims.  For a
    single vertex this is |E g|."""
    kk = len(g.edge)
    cost = float(g.npoints) ** 2 / g.dims[-1]
    check_budget(cost, budget, what=f"box norm on edge {g.edge}", power=2 * kk - 1)
    avg = float(_box_pows(g.values[None])[0])
    scale = float(np.max(np.abs(g.values))) ** (2.0**kk)
    return clamp_cube_average(avg, scale) ** (1.0 / 2.0**kk)


def gcs_verify(
    gs: Mapping[CubeVertex, EdgeFn], budget: float | None = None
) -> VerificationReport:
    """Check |E prod_omega g_omega(x^omega)| <= prod_omega boxnorm(g_omega).

    Passes when RHS - LHS >= -TOL * max(1, RHS), so the equality case
    (all functions identical) is accepted up to roundoff.
    """
    some = _validate_cube_assignment(gs)
    kk = len(some.edge)
    npts = float(some.npoints)
    # One mixed expectation over the whole box and 2^k recursive box norms.
    cost = (2.0**kk) * npts**2 * (1.0 + 1.0 / some.dims[-1])
    check_budget(cost, budget, what=f"product-form bound on edge {some.edge}", power=2 * kk)
    lhs = abs(mixed_cube_expectation(gs, budget=budget))
    rhs = 1.0
    for omega in cube_vertices(kk):
        rhs *= box_norm(gs[omega], budget=budget)
    report = VerificationReport(name="box-norm-product-bound")
    report.add(ineq_check("gowers-cauchy-schwarz", lhs, rhs, slack=TOL * max(1.0, rhs)))
    report.ratios["lhs"] = lhs
    report.ratios["rhs"] = rhs
    return report
