"""Two-point flux families and operator/residual assembly for three models.

Cell fields are plain float arrays of length ``mesh.n_cells``; edge-indexed
data (diffusion, advection, Dirichlet values) rides along in the data
objects.  All per-edge quantities below are stored in the orientation of the
first incident cell; the value seen from the second cell is the negation for
antisymmetric quantities (advection, differences, fluxes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .linalg import with_data
from .mesh import Mesh


class DataError(Exception):
    """Problem data violates a scheme hypothesis."""


class AssemblyError(Exception):
    pass


class PecletError(AssemblyError):
    """Flux coefficients lost positivity on the given mesh."""


_SG_SERIES_CUT = 1e-5


def _sg_value(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), its series only where |x| < _SG_SERIES_CUT."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.divide(x, np.expm1(x), out=np.empty_like(x))
    small = np.abs(x) < _SG_SERIES_CUT  # 0/0 at x = 0, cancellation near it
    if np.any(small):
        xs = x[small]
        out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    out[~np.isfinite(out)] = 0.0  # only at x = +-inf or NaN
    return out


#: Taylor coefficients B_2k / (2k-1)! of the SG slope B'(x) + 1/2 in x^23,
#: x^21, ..., x (Bernoulli numbers B_2k): 1 ulp for |x| < 1, where the closed
#: form cancels (10^6 ulp off at x = 1e-3); beyond, it is within 3 ulp.
_SG_SLOPE_SERIES = (np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                              -236364091 / 2730]) / [factorial(k) for k in range(1, 24, 2)])[::-1]


def _sg_derivative(x: np.ndarray) -> np.ndarray:
    """B'(x): the series where |x| < 1, the closed form elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1.0
    xs, xl = x[small], x[~small]
    out[small] = -0.5 + xs * np.polyval(_SG_SLOPE_SERIES, xs * xs)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.expm1(xl)
        out[~small] = (np.exp(xl) * (1.0 - xl) - 1.0) / (e * e)
    out[~np.isfinite(out)] = 0.0  # NaN beyond x ~ 709, where B' underflows to 0
    return out


@dataclass(frozen=True)
class BScheme:
    """A two-point flux function satisfying B(0)=1 and B(-x)-B(x)=x."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def custom(fn: Callable, name: str = "custom",
               dfn: Optional[Callable] = None) -> "BScheme":
        """Wrap a user function after sampling the required identities."""
        if dfn is None:
            h = 1e-6

            def dfn(x, _fn=fn):
                x = np.asarray(x, dtype=float)
                return (_fn(x + h) - _fn(x - h)) / (2.0 * h)

        scheme = BScheme(name=name, fn=fn, dfn=dfn)
        xs = np.linspace(-50.0, 50.0, 401)
        b0 = float(np.asarray(fn(np.array(0.0))))
        if abs(b0 - 1.0) > 1e-12:
            raise DataError(f"custom B(0) = {b0!r}, expected 1")
        gap = np.asarray(fn(-xs)) - np.asarray(fn(xs)) - xs
        if np.max(np.abs(gap)) > 1e-10:
            raise DataError("custom B violates B(-x) - B(x) = x on samples")
        vals = np.asarray(fn(xs))
        if np.any(vals <= 0):
            raise DataError("custom B is not positive on samples")
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        if np.max(slopes) > 1e3:
            raise DataError("custom B does not look Lipschitz on samples")
        return scheme

    def b(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)))

    def db(self, x) -> np.ndarray:
        return np.asarray(self.dfn(np.asarray(x, dtype=float)))

    def both_sides(self, w: np.ndarray, slope: bool = False):
        """``(B(-w), B(w))``, or the slopes, from one evaluation on ``|w|``: the
        larger side is B(-x) = B(x) + x or B'(-x) = -1 - B'(x), never B(w) + w,
        which has no correct digits where B(-w) is tiny (SG at w <= -40)."""
        x = np.abs(w)
        near = self.db(x) if slope else self.b(x)
        far = -1.0 - near if slope else near + x
        negative = w < 0
        return np.where(negative, near, far), np.where(negative, far, near)


UPWIND = BScheme(
    name="upwind",
    fn=lambda x: 1.0 + np.maximum(-np.asarray(x, dtype=float), 0.0),
    # slope of max(-x, 0) at the kink taken as the symmetric subgradient
    dfn=lambda x: np.where(np.asarray(x, dtype=float) < 0, -1.0,
                           np.where(np.asarray(x, dtype=float) > 0, 0.0, -0.5)))
CENTERED = BScheme(name="centered", fn=lambda x: 1.0 - np.asarray(x, dtype=float) / 2.0,
                   dfn=lambda x: np.full_like(np.asarray(x, dtype=float), -0.5))
SCHARFETTER_GUMMEL = BScheme(name="sg", fn=_sg_value, dfn=_sg_derivative)

SCHEMES = {"upwind": UPWIND, "centered": CENTERED, "sg": SCHARFETTER_GUMMEL}


@dataclass(frozen=True)
class TransportData:
    """Edge diffusion, advection and Dirichlet boundary data.

    ``u[e]`` is the advection seen from ``mesh.edge_cells[e, 0]``;
    ``f_dirichlet`` is NaN except on Dirichlet edges.
    """

    a_edge: np.ndarray
    u: np.ndarray
    f_dirichlet: np.ndarray


def transport_data(mesh: Mesh, a_edge: np.ndarray, u_first: np.ndarray,
                   f_dirichlet: np.ndarray) -> TransportData:
    """Validate the scheme hypotheses and pack the data."""
    a_edge = np.asarray(a_edge, dtype=float)
    u_first = np.asarray(u_first, dtype=float)
    f_dirichlet = np.asarray(f_dirichlet, dtype=float)
    if np.any(a_edge <= 0) or not np.all(np.isfinite(a_edge)):
        raise DataError("edge diffusion must be positive and finite")
    if not np.all(np.isfinite(u_first)):
        raise DataError("advection values must be finite")
    dvals = f_dirichlet[mesh.dirichlet]
    if np.any(~np.isfinite(dvals)) or np.any(dvals <= 0):
        raise DataError("Dirichlet values must be positive on every Dirichlet edge")
    return TransportData(a_edge=a_edge, u=u_first, f_dirichlet=f_dirichlet)


def _neighbor_index(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge index into the cell values followed by the Dirichlet values,
    and the Dirichlet edge ids in that order."""
    dirichlet = np.flatnonzero(mesh.dirichlet)
    index = np.where(mesh.interior, mesh.edge_cells[:, 1], mesh.edge_cells[:, 0])
    index[dirichlet] = mesh.n_cells + np.arange(dirichlet.size)
    return index, dirichlet


def _dirichlet_values(mesh: Mesh, dirichlet_values):
    """The Dirichlet edge ids and the values there (per row of a stack); a missing one raises."""
    dirichlet = mesh.derived("neighbor_index", _neighbor_index)[1]
    vals = np.asarray(dirichlet_values, dtype=float)[..., dirichlet]
    missing = ~np.isfinite(vals)
    if np.any(missing):
        raise AssemblyError(f"missing Dirichlet value on edge "
                            f"{int(dirichlet[np.nonzero(missing)[-1][0]])}")
    return dirichlet, vals


def neighbor_values(mesh: Mesh, f: np.ndarray, dirichlet_values: np.ndarray) -> np.ndarray:
    """Per-edge neighbor value seen from the first incident cell.

    Interior edges take the second cell's value, Dirichlet edges the supplied
    boundary value and Neumann edges mirror the cell value.
    """
    index = mesh.derived("neighbor_index", _neighbor_index)[0]
    vals = _dirichlet_values(mesh, dirichlet_values)[1]
    return np.concatenate([np.asarray(f, dtype=float), vals])[index]


def dirichlet_sums(mesh: Mesh, weight: np.ndarray, dirichlet_values: np.ndarray) -> np.ndarray:
    """Per cell, the sum of ``weight * value`` over its Dirichlet edges."""
    dirichlet, vals = _dirichlet_values(mesh, dirichlet_values)
    return np.bincount(mesh.edge_cells[dirichlet, 0], weights=weight[dirichlet] * vals,
                       minlength=mesh.n_cells)


def edge_differences(mesh: Mesh, f: np.ndarray, dirichlet_values: np.ndarray) -> np.ndarray:
    """Two-point difference (neighbor minus cell) from the first cell's side."""
    return neighbor_values(mesh, f, dirichlet_values) - f[mesh.edge_cells[:, 0]]


def _dd_edges(mesh: Mesh) -> tuple:
    """Over the edges that are not no-flux, in edge order: their ids, first
    cells and neighbour indices (as in :func:`_neighbor_index`); the positions
    of the interior ones among them; and, for one ``np.bincount`` over three
    fields, three blocks of the first cell of every such edge, then the
    second cell of every interior one, offset by 0, n_cells and 2 n_cells."""
    edges = np.flatnonzero(~mesh.neumann)
    first = mesh.edge_cells[edges, 0]
    inner = np.flatnonzero(mesh.interior[edges])
    incident = np.concatenate([first, mesh.edge_cells[edges[inner], 1]])
    n = mesh.n_cells
    return (edges, first, mesh.derived("neighbor_index", _neighbor_index)[0][edges], inner,
            np.concatenate([incident, incident + n, incident + 2 * n]))


def advection_from_potential(mesh: Mesh, phi_cells: np.ndarray,
                             phi_dirichlet: np.ndarray) -> np.ndarray:
    """Advection with ``U * d = two-point difference of the potential``.

    Returns the first-cell orientation values; Neumann edges get zero.
    """
    dphi = edge_differences(mesh, np.asarray(phi_cells, dtype=float),
                            np.asarray(phi_dirichlet, dtype=float))
    return dphi / mesh.edge_d


def discretize_coefficients(mesh: Mesh, a, f_dirichlet: np.ndarray,
                            u_first: np.ndarray) -> TransportData:
    """Build TransportData from cellwise or constant diffusion samples,
    per-edge Dirichlet means and first-cell advection.

    Cellwise diffusion is averaged harmonically onto interior edges (the
    distance-weighted formula that keeps fluxes consistent across aligned
    discontinuities) and copied from the incident cell on exterior edges.
    """
    a = np.asarray(a, dtype=float) if not np.isscalar(a) else np.full(mesh.n_cells, float(a))
    if np.any(a <= 0):
        raise DataError("diffusion samples must be positive")
    if a.shape != (mesh.n_cells,):
        raise DataError(f"diffusion shape {a.shape} does not match the cells")
    c0 = mesh.edge_cells[:, 0]
    c1 = mesh.edge_cells[:, 1]
    a_edge = a[c0].copy()
    inter = mesh.interior
    ak, al = a[c0[inter]], a[c1[inter]]
    dk = mesh.edge_dcell[inter, 0]
    dl = mesh.edge_dcell[inter, 1]
    a_edge[inter] = mesh.edge_d[inter] * ak * al / (dl * ak + dk * al)

    f_dirichlet = np.asarray(f_dirichlet, dtype=float)
    if f_dirichlet.shape != (mesh.n_edges,):
        raise DataError("per-edge Dirichlet values must have one entry per edge")
    fd = np.full(mesh.n_edges, np.nan)
    fd[mesh.dirichlet] = f_dirichlet[mesh.dirichlet]
    return transport_data(mesh, a_edge, u_first, fd)


def b_coefficients(mesh: Mesh, data: TransportData, scheme: BScheme):
    """Per-edge (B-, B+) pair in the first cell's orientation; zero on Neumann."""
    w = data.u * mesh.edge_d / data.a_edge
    bminus, bplus = scheme.both_sides(w)
    nmask = mesh.neumann
    bminus[nmask] = 0.0
    bplus[nmask] = 0.0
    return bminus, bplus


#: Lower bound the Peclet guard asks of every flux coefficient B(|u| d / a).
PECLET_BETA = 0.05


@dataclass(frozen=True)
class PecletReport:
    ok: bool
    violations: tuple[tuple[int, int, float], ...]  # (cell, edge, B value)

    def __str__(self):
        if self.ok:
            return f"fluxes bounded below by beta = {PECLET_BETA:g}"
        return (f"{len(self.violations)} incidences with B < {PECLET_BETA:g}; "
                f"worst: {min(v[2] for v in self.violations):.3e}")


def peclet_guard(mesh: Mesh, data: TransportData, scheme: BScheme) -> PecletReport:
    """Check min B(|u| d / a) >= :data:`PECLET_BETA` over all non-Neumann
    incidences."""
    vals = scheme.b(np.abs(data.u) * mesh.edge_d / data.a_edge)
    bad: list[tuple[int, int, float]] = []
    for e in np.nonzero(~mesh.neumann & (vals < PECLET_BETA))[0]:
        for c in mesh.edge_cells[e]:
            if c >= 0:
                bad.append((int(c), int(e), float(vals[e])))
    return PecletReport(ok=not bad, violations=tuple(bad))


# ---------------------------------------------------------------------------
# fixed sparsity patterns
#
# An operator is a list of blocks (kind, block row, block column, values),
# block indices in units of n_cells.  A "tpfa" block holds one entry on
# (first, first) for every edge that is not no-flux and entries on
# (first, second), (second, second), (second, first) for every interior edge;
# its values come from _tpfa_values.  A "diag" block holds one entry per cell.
# The structure depends on the mesh and the block layout only, so each mesh
# builds it once per layout.  Every structure stores the whole diagonal, so a
# diagonal shift (a time term, a Newton term) changes values, not the layout.


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """CSC structure of a square matrix with duplicate entries summed, and
    for every entry the assembly emits, the slot of the data array it adds to.
    ``template``, checked by scipy once, holds the structure and lends it to
    every fill; ``diagonal`` holds the slot of every (k, k) entry, which the
    structure always has; ``ordering`` holds what ``linalg.factorize`` learns
    about it."""

    template: sp.csc_matrix
    slots: np.ndarray
    diagonal: np.ndarray
    ordering: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.template.indptr, self.template.indices, self.slots,
                    self.diagonal):
            arr.setflags(write=False)
        self.template.pattern = self

    @staticmethod
    def from_pairs(rows: np.ndarray, cols: np.ndarray, size: int) -> "SparsityPattern":
        """Pattern of the given (row, col) entries, repeats included, and of
        the whole diagonal.

        scipy's COO to CSC conversion compresses the entries column by column
        with a counting sort, then sorts the rows of each column and sums
        repeats in place (Davis, *Direct Methods for Sparse Linear Systems*,
        SIAM 2006, section 2.4): no general sort over all entries.  Each
        emitted entry then reads its slot from a copy of that structure whose
        values are the slot numbers, by scipy's compiled element lookup, a
        binary search within the entry's short sorted column."""
        eye = np.arange(size, dtype=np.intc)
        # a checked, canonical CSC; one byte a value, as every fill brings its own
        template = sp.coo_matrix((np.zeros(len(rows) + size, dtype=np.int8),
                                  (np.concatenate([rows, eye]), np.concatenate([cols, eye]))),
                                 shape=(size, size)).tocsc()
        index = with_data(template, np.arange(template.indices.size, dtype=float))
        # a 1 x k dense matrix, but a sparse one for k = 0
        slots, diagonal = (np.asarray(index[r, c] if len(r) else (), dtype=np.intp).ravel()
                           for r, c in ((rows, cols), (eye, eye)))
        return SparsityPattern(template, slots, diagonal)

    def fill(self, values: np.ndarray) -> sp.csc_matrix:
        """Float matrix with the emitted ``values`` summed into their slots."""
        if values.shape != self.slots.shape:
            raise AssemblyError(f"{values.size} values for {self.slots.size} "
                                "pattern entries")
        summed = np.bincount(self.slots, weights=values, minlength=self.template.indices.size)
        return with_data(self.template, summed.astype(float, copy=False))  # int64 when empty


def _tpfa_values(mesh: Mesh, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Values of a "tpfa" block from ``p`` and ``q`` on the edges that are not
    no-flux: ``p``, ``-q``, ``q``, ``-p`` on (first, first), (first, second),
    (second, second), (second, first)."""
    inner = mesh.derived("active_interior", lambda m: m.interior[~m.neumann])
    q_inner = q[inner]
    return np.concatenate([p, -q_inner, q_inner, -p[inner]])


def _block_entries(mesh: Mesh, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a block's entries in the order its values come."""
    if kind == "diag":
        eye = np.arange(mesh.n_cells, dtype=np.intc)
        return eye, eye
    c0, c1 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    active, inter = ~mesh.neumann, mesh.interior
    return (np.concatenate([c0[active], c0[inter], c1[inter], c1[inter]], dtype=np.intc),
            np.concatenate([c0[active], c1[inter], c1[inter], c0[inter]], dtype=np.intc))


def _build_pattern(mesh: Mesh, layout: tuple) -> SparsityPattern:
    n = mesh.n_cells
    size = n * (1 + max(max(r, c) for _, r, c in layout))
    rows, cols = [], []
    for kind, block_row, block_col in layout:
        r, c = _block_entries(mesh, kind)
        rows.append(r + block_row * n if block_row else r)
        cols.append(c + block_col * n if block_col else c)
    return SparsityPattern.from_pairs(np.concatenate(rows), np.concatenate(cols), size)


def _assemble(mesh: Mesh, blocks: list) -> sp.csc_matrix:
    """Operator from its (kind, block row, block column, values) blocks."""
    layout = tuple(block[:3] for block in blocks)
    pattern = mesh.derived(("pattern", layout), lambda m: _build_pattern(m, layout))
    return pattern.fill(np.concatenate([block[3] for block in blocks]))


def two_point_matrix(mesh: Mesh, weight: np.ndarray) -> sp.csc_matrix:
    """Symmetric A with u^T A v = sum over edges of ``weight`` (u_K - u_L)(v_K - v_L),
    taking u_L = v_L = 0 on Dirichlet edges and leaving no-flux edges out."""
    weight = weight[~mesh.neumann]
    return _assemble(mesh, [("tpfa", 0, 0, _tpfa_values(mesh, weight, weight))])


def laplacian(mesh: Mesh) -> sp.csc_matrix:
    """``two_point_matrix(mesh, mesh.tau)``, built once per mesh."""
    return mesh.derived("laplacian", lambda m: two_point_matrix(m, m.tau))


def add_diagonal(op: sp.csc_matrix, diagonal: np.ndarray) -> sp.csc_matrix:
    """``op + diag(diagonal)`` for ``op`` filled on a :class:`SparsityPattern`,
    on the same pattern."""
    values = op.data.copy()
    values[op.pattern.diagonal] += diagonal
    return with_data(op, values)


def assemble_fp_operator(mesh: Mesh, data: TransportData, scheme: BScheme,
                         force: bool = False):
    """Stationary convection-diffusion operator M and boundary vector b.

    Row K of M holds the outgoing flux sum of the unit fields; M f - b is the
    per-cell steady flux balance.  A :func:`peclet_guard` violation raises
    :class:`PecletError` unless ``force`` is set.
    """
    guard = peclet_guard(mesh, data, scheme)
    if not guard.ok and not force:
        raise PecletError(str(guard))
    bm, bp = b_coefficients(mesh, data, scheme)
    ta = mesh.tau * data.a_edge
    active = ~mesh.neumann
    m = _assemble(mesh, [("tpfa", 0, 0, _tpfa_values(mesh, (ta * bm)[active], (ta * bp)[active]))])
    return m, dirichlet_sums(mesh, ta * bp, data.f_dirichlet)


def edge_fluxes(mesh: Mesh, data: TransportData, scheme: BScheme,
                f: np.ndarray) -> np.ndarray:
    """All fluxes in the first cell's orientation; the second cell sees minus."""
    bm, bp = b_coefficients(mesh, data, scheme)
    f_opp = neighbor_values(mesh, f, data.f_dirichlet)
    return mesh.tau * data.a_edge * (bm * f[mesh.edge_cells[:, 0]] - bp * f_opp)


def edge_steady_weight(mesh: Mesh, data: TransportData, scheme: BScheme,
                       f_inf: np.ndarray) -> np.ndarray:
    """Edge value of the steady state: min of the two weighted cell values.

    Symmetric in the two incident cells, zero on Neumann edges.
    """
    if np.any(f_inf <= 0):
        raise DataError("steady state must be positive")
    bm, bp = b_coefficients(mesh, data, scheme)
    f_opp = neighbor_values(mesh, f_inf, data.f_dirichlet)
    return np.minimum(bm * f_inf[mesh.edge_cells[:, 0]], bp * f_opp)


def signed_power(f: np.ndarray, m: float) -> np.ndarray:
    """Odd extension of f**m so Newton iterates may dip below zero."""
    return np.sign(f) * np.abs(f) ** m


def pme_boundary_term(mesh: Mesh, f_dirichlet: np.ndarray, m: float) -> np.ndarray:
    """Per cell, the sum of tau f_D^m over its Dirichlet edges: the boundary
    part of the porous-medium flux balance, fixed by the data of a run."""
    return dirichlet_sums(mesh, mesh.tau, signed_power(f_dirichlet, m))


def assemble_pme_residual(mesh: Mesh, f_prev: np.ndarray, f: np.ndarray,
                          m: float, dt: float, boundary: np.ndarray):
    """Backward-Euler residual and exact Jacobian for the nonlinear diffusion step.

    residual_K = area (f - f_prev) / dt - sum_edges tau * D(f^m), computed as
    area (f - f_prev) / dt + L f^m - (Dirichlet sums of tau f_D^m) with the
    mesh's Laplacian L; the Jacobian is L diag(m |f|^(m-1)) plus area / dt on
    the diagonal, on L's pattern, f^m being f |f|^(m-1).  The flux sign makes
    the operator diffusive (mass flows from high f^m to low f^m).
    ``boundary`` is ``pme_boundary_term(mesh, f_dirichlet, m)``, which callers
    that assemble many times on the same data form once.
    """
    if m <= 1:
        raise DataError("nonlinearity exponent must exceed 1")
    lap = laplacian(mesh)
    columns = mesh.derived("laplacian_columns",
                           lambda m: np.repeat(np.arange(m.n_cells), np.diff(lap.indptr)))
    power = np.abs(f) ** (m - 1.0)
    residual = mesh.cell_area * (f - f_prev) / dt + lap @ (f * power) - boundary
    values = lap.data * (m * power)[columns]
    values[lap.pattern.diagonal] += mesh.cell_area / dt
    return residual, with_data(lap, values)


@dataclass(frozen=True)
class DdData:
    """Doping, Debye length and Dirichlet triples; mobilities are fixed to one."""

    doping: np.ndarray        # per cell
    debye: float
    n_dirichlet: np.ndarray   # per edge, NaN off the Dirichlet boundary
    p_dirichlet: np.ndarray
    v_dirichlet: np.ndarray

    def __post_init__(self):
        if self.debye <= 0:
            raise DataError("Debye length must be positive")
        for name, arr in (("N", self.n_dirichlet), ("P", self.p_dirichlet)):
            vals = arr[np.isfinite(arr)]
            if np.any(vals <= 0):
                raise DataError(f"Dirichlet {name} values must be positive")


def assemble_poisson(mesh: Mesh, lam: float) -> sp.csc_matrix:
    """Scaled TPFA Laplacian with Dirichlet edges eliminated, Neumann absent,
    built once per mesh and ``lam``; ``DdData`` holds the Debye length positive."""
    return mesh.derived(("poisson", lam), lambda m: two_point_matrix(m, lam * lam * m.tau))


def poisson_dirichlet_rhs(mesh: Mesh, lam: float, v_dirichlet: np.ndarray) -> np.ndarray:
    """Boundary vector matching ``assemble_poisson``."""
    return dirichlet_sums(mesh, lam * lam * mesh.tau, v_dirichlet)


def assemble_dd_residual(mesh: Mesh, dd: DdData, scheme: BScheme,
                         state_prev, state, dt: Optional[float] = None,
                         jacobian: bool = True):
    """Residual and exact Jacobian of the coupled drift-diffusion system.

    ``state`` is the (N, P, V) triple at the new time level; ``state_prev``
    holds (N, P) for a transient step or None with ``dt=None`` for the steady
    system.  Unknown ordering is [N; P; V].  The Jacobian includes the
    coupling of both continuity fluxes to V through the flux function slope;
    with ``jacobian=False`` it is skipped and returned as None.  Both are
    formed on the :func:`_dd_edges` alone.
    """
    steady = dt is None
    if not steady and state_prev is None:
        raise AssemblyError("transient step needs the previous densities")

    n = mesh.n_cells
    edges, first, neighbor, inner, cells = mesh.derived("dd_edges", _dd_edges)
    # rows N, P, V: the cell values, then the Dirichlet values
    boundary = _dirichlet_values(mesh, (dd.n_dirichlet, dd.p_dirichlet, dd.v_dirichlet))[1]
    values = np.concatenate([np.asarray(state, dtype=float), boundary], axis=1)
    own, opp = np.take(values, first, axis=1), np.take(values, neighbor, axis=1)
    tau = mesh.tau[edges]

    w = opp[2] - own[2]
    bm, bp = scheme.both_sides(w)
    # per edge the N and P fluxes and tau w, summed per cell: each first
    # cell adds a value, each second cell subtracts it
    flows = tau * np.array([bm * own[0] - bp * opp[0], bp * own[1] - bm * opp[1], w])
    weights = np.concatenate([flows, -np.take(flows, inner, axis=1)], axis=1)
    residual = np.bincount(cells, weights=weights.ravel(), minlength=3 * n) \
        .astype(float, copy=False)  # int64 when no edge is active
    n_field, p_field, area = values[0, :n], values[1, :n], mesh.cell_area
    residual[2 * n:] = -dd.debye ** 2 * residual[2 * n:] - area * (p_field - n_field + dd.doping)
    if not steady:  # the time terms of N and P
        residual[:2 * n] += (area * (values[:2, :n] - state_prev) / dt).ravel()
    if not jacobian:
        return residual, None

    dbm, dbp = scheme.both_sides(w, slope=True)   # B' at -w and at w
    # flux slopes with respect to the potential difference w;
    # d/dw of B(-w) is -B'(-w)
    dflux_n = tau * (-dbm * own[0] - dbp * opp[0])
    dflux_p = tau * (dbp * own[1] + dbm * opp[1])

    t2 = dd.debye ** 2 * tau
    # unknowns [N; P; V] are block rows and columns 0, 1, 2.  In the
    # potential columns the residual row of a cell gains -dflux/dw on its own
    # column and +dflux/dw on its neighbour's, mirrored for the second cell:
    # the "tpfa" form with p = q = -dflux
    blocks = [("tpfa", 0, 0, _tpfa_values(mesh, tau * bm, tau * bp)),
              ("tpfa", 1, 1, _tpfa_values(mesh, tau * bp, tau * bm)),
              ("tpfa", 0, 2, _tpfa_values(mesh, -dflux_n, -dflux_n)),
              ("tpfa", 1, 2, _tpfa_values(mesh, -dflux_p, -dflux_p)),
              ("tpfa", 2, 2, _tpfa_values(mesh, t2, t2)),
              ("diag", 2, 0, area),
              ("diag", 2, 1, -area)]
    jac = _assemble(mesh, blocks)
    if not steady:  # the time terms shift the N and P diagonals
        jac.data[jac.pattern.diagonal[:2 * n]] += np.tile(area / dt, 2)
    return residual, jac
