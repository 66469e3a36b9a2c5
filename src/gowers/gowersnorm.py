"""Gowers uniformity norms on Z_N and box norms on finite product spaces.

Two independent routes are kept deliberately separate:

* ``u_norm_brute`` evaluates the defining cube average term by term over the
  full (k+1)-dimensional index space.
* ``u_norm_fast`` uses the recursion through multiplicative differences
  down to the spectral identity at order two, whose base transforms each
  real row with a real FFT and weighs the nonnegative frequencies by their
  conjugate pairs.  Shifted rows are read from a strided view of the doubled
  rows, and the difference parameter h is walked in blocks written into one
  buffer per level, so no N x N array is ever formed.  For a real row the difference at -h is the one at
  h shifted, so the terms for h and N - h are equal and each level forms
  only h = 0..N//2, counting the interior ones twice.

Box norms of a function on a product of finite vertex sets have two routes
as well:

* ``box_norm_brute`` evaluates the box-norm cube average by direct
  enumeration of all npoints^2 points of the box; it is the test oracle.
* ``box_norm`` uses the pair recursion
  ||g||^(2^k) = E_{x1,x1'} ||g(x1, .) g(x1', .)||^(2^(k-1)) down to a Gram
  matrix base case, walking the pairs in blocks.  It serves the plain
  functions of the right side of ``gcs_verify``; a represented weight's box
  norm is a formed expectation (``linform.formed_box_norm``).  The chain router of
  ``linform`` runs the same recursion (``_box_pows``) batched over many
  functions at once.

``gcs_verify`` checks the product-form Cauchy-Schwarz bound for a full
assignment of functions to cube vertices, its left side by the planner of
``linform.expect_product`` on the 2^k cube factors and its right side by
``box_norm``, which share no evaluation code, both charged by
``linform.charge_gcs``.

``EdgeFn``, a function on a product of vertex sets, also carries the linear
form L of a weight h(L·x mod N) when ``EdgeFn.formed`` builds it (the
represented weights of ``hypersystem``); ``centered`` keeps the form, and
every other construction leaves it None.  A weight and its form are thus
one object, which the formed expectations of ``linform`` read.

Determinism: brute-force sums run in C-order chunks whose partial sums are
merged with Kahan compensation in a fixed order; einsum contractions are
performed unoptimized, which fixes their traversal order; the recursions
reduce over fixed shapes, so their values do not depend on the block size.
Each level of ``u_norm_fast`` ends in one weighted sum per row, so its
values are bit-identical across block sizes.  Repeated runs give
bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .budget import check_budget, power_cost
from .cyclic import CyclicFn
from .errors import NumericalInconsistency, ShapeMismatch
from .report import TOL, VerificationReport, ineq_check

if TYPE_CHECKING:
    from .forms import Form

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
    cost = power_cost(n, k + 1) * power_cost(2, k)
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
    its conjugate, and the Nyquist bin of an even N counts once.  Above it
    the differences pair up the same way: row * row(. - h) is row * row(. + h)
    shifted by -h, and the order-(k-1) power is shift-invariant, so only
    h = 0..N//2 are formed; h = 0 counts once, each 0 < h < N/2 stands for
    itself and N - h, and h = N/2 of an even N counts once.  The halving
    compounds over the levels (about 2^(k-2) fewer differences).  row(. + h)
    is read from a read-only (m, N//2 + 1, N) view of the doubled rows
    with strides (row, 1, 1); the ndarray constructor, unlike as_strided,
    refuses a view that reads past the buffer, and costs a fifth as much,
    which small-N calls notice.

    Each level above two allocates one difference buffer, sized for its
    largest block, and every block writes its differences into the front
    of it.  The base squares the unnormalized transform in place through
    its float64 view, adds the interleaved real and imaginary squares into
    |c|^2 and ends in one weighted row sum, sum_j |c_j|^4 w_j by a
    three-operand einsum, and one division by N^4.  A level above it
    weighs its row of order-(k-1) powers in place and ends in one np.sum
    per row and one division by N.  Both reductions take each row by
    itself over its fixed length, so a value does not depend on how many
    rows a block holds: values are bit-identical across block sizes.  A
    matrix product (gemv) sums in an order that changes with the row
    count, and so does the two-operand einsum "ij,j->i" once a row is
    longer than numpy's 8192-element buffer."""
    m, n = rows.shape
    w = np.full(n // 2 + 1, 2.0)  # how many of the N bins or h each one stands for
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    if k == 2:
        coeffs = np.fft.rfft(rows, axis=1)
        parts = coeffs.view(np.float64)
        parts *= parts
        sq = parts[:, 0::2] + parts[:, 1::2]
        return np.einsum("ij,ij,j->i", sq, sq, w) / float(n) ** 4
    half = n // 2 + 1
    doubled = np.concatenate([rows, rows], axis=1)
    s_row, s_col = doubled.strides
    shifted = np.ndarray((m, half, n), doubled.dtype, doubled, 0, (s_row, s_col, s_col))
    shifted.flags.writeable = False
    step = min(half, max(1, _CHUNK_ELEMS // (m * n)))
    buf = np.empty(m * step * n, dtype=rows.dtype)
    pows = np.empty((m, half))
    for start in range(0, half, step):
        b = min(step, half - start)
        diffs = buf[: m * b * n].reshape(m, b, n)
        np.multiply(rows[:, None, :], shifted[:, start : start + b], out=diffs)
        pows[:, start : start + b] = _u_pows(diffs.reshape(-1, n), k - 1).reshape(m, b)
    pows *= w
    return np.sum(pows, axis=1) / n


def u_norm_fast(f: CyclicFn, k: int, budget: float | None = None) -> float:
    """Order-k uniformity norm by the difference recursion of ``_u_pows``,
    charged the N (N//2 + 1)^(k-2) difference values its half walk forms
    (N for k <= 2)."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    n = f.n
    power = max(1, k - 1)
    cost = float(n) * power_cost(n // 2 + 1, max(0, k - 2))
    check_budget(cost, budget, what=f"u_norm_fast(k={k}, n={n})", power=power)
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
    vertex in that order.  ``form`` is the linear form L of a weight built
    as h(L·x mod N) by ``formed``, which alone sets it, and ``centered``
    keeps it; every other weight, ``dataclasses.replace`` of a formed one
    too, has None.
    """

    edge: tuple[int, ...]
    dims: tuple[int, ...]
    values: np.ndarray
    form: Form | None = field(default=None, init=False)

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
        # A float64 array handed over read-only and owning its data is kept
        # as it is; any other is copied, so no caller can write to values.
        if vals is not self.values or vals.flags.writeable or not vals.flags.owndata:
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
        """g - 1, with the form of g: (h - 1)(L·x) is formed by L too."""
        vals = self.values - 1.0
        vals.flags.writeable = False  # handed over read-only, so kept uncopied
        fn = EdgeFn(self.edge, self.dims, vals)
        object.__setattr__(fn, "form", self.form)
        return fn

    @classmethod
    def formed(cls, edge: tuple[int, ...], h: np.ndarray, form: Form) -> "EdgeFn":
        """The weight h(L·x mod N) on ``edge``, L the form and h a function
        on Z_N, each vertex of size N: built by ``forms.formed`` and handed
        over read-only, so kept uncopied, with its form."""
        from .forms import formed  # forms imports this module

        h = np.asarray(h, dtype=np.float64)
        if h.shape != (form.modulus,):
            raise ShapeMismatch(f"form {form} reads a function of shape ({form.modulus},)")
        values = formed(h, form)
        values.flags.writeable = False
        fn = cls(edge, (form.modulus,) * len(form.coeffs), values)
        object.__setattr__(fn, "form", form)
        return fn

    @classmethod
    def ones(cls, edge: tuple[int, ...], dims: tuple[int, ...]) -> "EdgeFn":
        return cls(tuple(edge), tuple(dims), np.ones(tuple(dims)))


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def box_norm_brute(g: EdgeFn, budget: float | None = None) -> float:
    """Box norm by direct enumeration: the 2^|e|-th root of the cube average
    with g at every cube vertex.  For a single vertex this is |E g|."""
    kk = len(g.edge)
    if kk > 5:  # one einsum operand per cube vertex: 64 at six, and einsum takes 63
        raise ShapeMismatch(f"the cube einsum takes at most 5 coordinates, got {kk}")
    npts = float(g.npoints)
    cost = npts**2 * (2.0**kk)
    check_budget(cost, budget, what=f"box norm on edge {g.edge}", power=2 * kk)
    # The operand of omega reads letter 2i + omega_i (copy omega_i) on axis i.
    subs = ["".join(_LETTERS[2 * i + bit] for i, bit in enumerate(om)) for om in cube_vertices(kk)]
    avg = float(np.einsum(",".join(subs) + "->", *[g.values] * 2**kk, optimize=False)) / npts**2
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
    if not gs:
        raise ShapeMismatch("empty cube assignment")
    some = next(iter(gs.values()))
    kk = len(some.edge)
    if set(gs.keys()) != set(cube_vertices(kk)):
        raise ShapeMismatch(
            f"cube assignment must cover exactly the {2**kk} vertices of the "
            f"{kk}-cube"
        )
    if len({(g.edge, g.dims) for g in gs.values()}) != 1:
        raise ShapeMismatch("all cube functions must share edge and dims")
    from .linform import _cube_axes, charge_gcs, expect_product  # linform imports this module

    charge_gcs(some.edge, some.dims, budget)
    factors = [(gs[omega].values, _cube_axes(some.edge, omega)) for omega in cube_vertices(kk)]
    lhs = abs(expect_product(factors, budget, what=f"product-form bound on edge {some.edge}"))
    rhs = math.prod([box_norm(gs[omega], budget=budget) for omega in cube_vertices(kk)])
    report = VerificationReport(name="box-norm-product-bound")
    report.add(ineq_check("gowers-cauchy-schwarz", lhs, rhs, slack=TOL * max(1.0, rhs)))
    report.ratios["lhs"] = lhs
    report.ratios["rhs"] = rhs
    return report
