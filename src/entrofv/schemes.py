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
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .mesh import NEUMANN, Mesh


class DataError(Exception):
    """Problem data violates a scheme hypothesis."""


class AssemblyError(Exception):
    pass


class PecletError(AssemblyError):
    """Flux coefficients lost positivity on the given mesh."""


_SG_SERIES_CUT = 1e-5


def _sg_value(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SG_SERIES_CUT
    xs = np.where(small, 0.0, x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(small, 1.0 - x / 2.0 + x * x / 12.0, xs / np.expm1(xs))
    # x/expm1 overflows to inf for x beyond ~709; the true value underflows to 0
    return np.where(np.isfinite(out), out, 0.0)


#: Taylor coefficients B_2k / (2k-1)! of the SG slope B'(x) + 1/2 in x^23,
#: x^21, ..., x (Bernoulli numbers B_2k): 1 ulp for |x| < 1, where the closed
#: form cancels (10^6 ulp off at x = 1e-3); beyond, it is within 3 ulp.
_SG_SLOPE_SERIES = (np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                              -236364091 / 2730]) / [factorial(k) for k in range(1, 24, 2)])[::-1]


def _sg_derivative(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.expm1(xs)
        out = np.where(small, -0.5 + x * np.polyval(_SG_SLOPE_SERIES, x * x),
                       (np.exp(xs) * (1.0 - xs) - 1.0) / (e * e))
    return np.where(np.isfinite(out), out, 0.0)


@dataclass(frozen=True)
class BScheme:
    """A two-point flux function satisfying B(0)=1 and B(-x)-B(x)=x."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def upwind() -> "BScheme":
        return BScheme(
            name="upwind",
            fn=lambda x: 1.0 + np.maximum(-np.asarray(x, dtype=float), 0.0),
            # slope of max(-x, 0) at the kink taken as the symmetric subgradient
            dfn=lambda x: np.where(np.asarray(x, dtype=float) < 0, -1.0,
                                   np.where(np.asarray(x, dtype=float) > 0, 0.0, -0.5)),
        )

    @staticmethod
    def centered() -> "BScheme":
        return BScheme(
            name="centered",
            fn=lambda x: 1.0 - np.asarray(x, dtype=float) / 2.0,
            dfn=lambda x: np.full_like(np.asarray(x, dtype=float), -0.5),
        )

    @staticmethod
    def scharfetter_gummel() -> "BScheme":
        return BScheme(name="sg", fn=_sg_value, dfn=_sg_derivative)

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
        return np.where(w < 0, near, far), np.where(w < 0, far, near)


UPWIND = BScheme.upwind()
CENTERED = BScheme.centered()
SCHARFETTER_GUMMEL = BScheme.scharfetter_gummel()

SCHEMES = {"upwind": UPWIND, "centered": CENTERED, "sg": SCHARFETTER_GUMMEL}


def eval_b(scheme: BScheme, x) -> Union[float, np.ndarray]:
    out = scheme.b(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransportData:
    """Edge diffusion, per-incidence advection and Dirichlet boundary data.

    ``u[e, 0]`` is the advection seen from ``mesh.edge_cells[e, 0]``;
    ``u[e, 1]`` is its negation on interior edges and NaN on exterior ones.
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
    u = np.column_stack([u_first, np.where(mesh.interior, -u_first, np.nan)])
    return TransportData(a_edge=a_edge, u=u, f_dirichlet=f_dirichlet)


def _neighbor_index(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge index into the cell values followed by the Dirichlet values,
    and the Dirichlet edge ids in that order."""
    dirichlet = np.flatnonzero(mesh.dirichlet)
    index = np.where(mesh.interior, mesh.edge_cells[:, 1], mesh.edge_cells[:, 0])
    index[dirichlet] = mesh.n_cells + np.arange(dirichlet.size)
    return index, dirichlet


def neighbor_values(mesh: Mesh, f: np.ndarray,
                    dirichlet_values: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-edge neighbor value seen from the first incident cell.

    Interior edges take the second cell's value, Dirichlet edges the supplied
    boundary value and Neumann edges mirror the cell value.
    """
    index, dirichlet = mesh.derived("neighbor_index", _neighbor_index)
    f = np.asarray(f, dtype=float)
    if dirichlet.size:
        if dirichlet_values is None:
            raise AssemblyError("mesh has Dirichlet edges but no Dirichlet values supplied")
        vals = np.asarray(dirichlet_values, dtype=float)[dirichlet]
        missing = ~np.isfinite(vals)
        if np.any(missing):
            raise AssemblyError(f"missing Dirichlet value on edge "
                                f"{int(dirichlet[np.argmax(missing)])}")
        f = np.concatenate([f, vals])
    return f[index]


def edge_differences(mesh: Mesh, f: np.ndarray,
                     dirichlet_values: Optional[np.ndarray] = None) -> np.ndarray:
    """Two-point difference (neighbor minus cell) from the first cell's side."""
    return neighbor_values(mesh, f, dirichlet_values) - f[mesh.edge_cells[:, 0]]


def _incidences(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The first cell of every edge, then the second cell of every interior
    edge; and the interior edge ids."""
    interior = np.flatnonzero(mesh.interior)
    return (np.concatenate([mesh.edge_cells[:, 0], mesh.edge_cells[interior, 1]]),
            interior)


def cell_sums(mesh: Mesh, per_edge: np.ndarray) -> np.ndarray:
    """Sum an antisymmetric per-edge quantity (first-cell orientation) over cells.

    Every cell adds its first-cell incidences in edge order, then its
    second-cell ones.
    """
    cells, interior = mesh.derived("incidences", _incidences)
    per_edge = np.asarray(per_edge, dtype=float)
    return np.bincount(cells, weights=np.concatenate([per_edge, -per_edge[interior]]),
                       minlength=mesh.n_cells)


def advection_from_potential(mesh: Mesh, phi_cells: np.ndarray,
                             phi_dirichlet: np.ndarray) -> np.ndarray:
    """Advection with ``U * d = two-point difference of the potential``.

    Returns the first-cell orientation values; Neumann edges get zero.
    """
    dphi = edge_differences(mesh, np.asarray(phi_cells, dtype=float),
                            np.asarray(phi_dirichlet, dtype=float))
    return dphi / mesh.edge_d


def discretize_coefficients(mesh: Mesh, a, f_dirichlet,
                            u_first: Optional[np.ndarray] = None) -> TransportData:
    """Build TransportData from cellwise or edgewise diffusion samples.

    Cellwise diffusion is averaged harmonically onto interior edges (the
    distance-weighted formula that keeps fluxes consistent across aligned
    discontinuities) and copied from the incident cell on exterior edges.
    ``f_dirichlet`` may be a per-edge array of means or a callable sampled at
    edge midpoints (exact for data constant along each edge).
    """
    a = np.asarray(a, dtype=float) if not np.isscalar(a) else np.full(mesh.n_cells, float(a))
    if np.any(a <= 0):
        raise DataError("diffusion samples must be positive")
    if a.shape == (mesh.n_cells,):
        c0 = mesh.edge_cells[:, 0]
        c1 = mesh.edge_cells[:, 1]
        a_edge = a[c0].copy()
        inter = mesh.interior
        ak, al = a[c0[inter]], a[c1[inter]]
        dk = mesh.edge_dcell[inter, 0]
        dl = mesh.edge_dcell[inter, 1]
        a_edge[inter] = mesh.edge_d[inter] * ak * al / (dl * ak + dk * al)
    elif a.shape == (mesh.n_edges,):
        a_edge = a
    else:
        raise DataError(f"diffusion shape {a.shape} matches neither cells nor edges")

    fd = np.full(mesh.n_edges, np.nan)
    if callable(f_dirichlet):
        if mesh.geometry is None:
            raise DataError("sampling boundary functions needs mesh geometry")
        dmask = mesh.dirichlet
        mids = mesh.geometry.edge_midpoint[dmask]
        fd[dmask] = [float(f_dirichlet(m)) for m in mids]
    else:
        f_dirichlet = np.asarray(f_dirichlet, dtype=float)
        if f_dirichlet.shape != (mesh.n_edges,):
            raise DataError("per-edge Dirichlet values must have one entry per edge")
        fd[mesh.dirichlet] = f_dirichlet[mesh.dirichlet]

    if u_first is None:
        u_first = np.zeros(mesh.n_edges)
    return transport_data(mesh, a_edge, u_first, fd)


def b_coefficients(mesh: Mesh, data: TransportData, scheme: BScheme):
    """Per-edge (B-, B+) pair in the first cell's orientation; zero on Neumann."""
    w = data.u[:, 0] * mesh.edge_d / data.a_edge
    bminus, bplus = scheme.both_sides(w)
    nmask = mesh.neumann
    bminus[nmask] = 0.0
    bplus[nmask] = 0.0
    return bminus, bplus


@dataclass(frozen=True)
class PecletReport:
    ok: bool
    beta: float
    violations: tuple[tuple[int, int, float], ...]  # (cell, edge, B value)

    def __str__(self):
        if self.ok:
            return f"fluxes bounded below by beta = {self.beta:g}"
        return (f"{len(self.violations)} incidences with B < {self.beta:g}; "
                f"worst: {min(v[2] for v in self.violations):.3e}")


def peclet_guard(mesh: Mesh, data: TransportData, scheme: BScheme,
                 beta: float = 0.05) -> PecletReport:
    """Check min B(|u| d / a) >= beta over all non-Neumann incidences."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    w = np.abs(data.u[:, 0]) * mesh.edge_d / data.a_edge
    vals = scheme.b(w)
    bad: list[tuple[int, int, float]] = []
    active = ~mesh.neumann
    for e in np.nonzero(active & (vals < beta))[0]:
        for c in mesh.edge_cells[e]:
            if c >= 0:
                bad.append((int(c), int(e), float(vals[e])))
    return PecletReport(ok=not bad, beta=beta, violations=tuple(bad))


# ---------------------------------------------------------------------------
# fixed sparsity patterns
#
# An operator is a list of blocks (kind, block row, block column, values),
# block indices in units of n_cells.  A "tpfa" block holds one entry on
# (first, first) for every edge that is not no-flux and entries on
# (first, second), (second, second), (second, first) for every interior edge;
# its values come from _tpfa_values.  A "diag" block holds one entry per cell.
# An "op" block holds the stored entries of an operator assembled from one
# "tpfa" block, in its storage order.  The structure depends on the mesh and
# the block layout only, so each mesh builds it once per layout.


@dataclass(frozen=True)
class SparsityPattern:
    """CSC structure of a square matrix with duplicate entries summed, and
    for every entry the assembly emits, the slot of the data array it adds to.
    ``ordering`` holds what ``linalg.factorize`` learns about the structure."""

    size: int
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    ordering: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_pairs(rows: np.ndarray, cols: np.ndarray, size: int) -> "SparsityPattern":
        """Pattern of the given (row, col) entries, repeats included."""
        keys, slots = np.unique(np.asarray(cols, dtype=np.int64) * size + rows,
                                return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size)
        pattern = SparsityPattern(size, indptr.astype(np.intc),
                                  (keys % size).astype(np.intc), slots)
        for arr in (pattern.indptr, pattern.indices, pattern.slots):
            arr.setflags(write=False)
        return pattern

    def fill(self, values: np.ndarray) -> sp.csc_matrix:
        """Matrix with the emitted ``values`` summed into their slots."""
        if values.shape != self.slots.shape:
            raise AssemblyError(f"{values.size} values for {self.slots.size} "
                                "pattern entries")
        data = np.bincount(self.slots, weights=values, minlength=self.indices.size)
        matrix = sp.csc_matrix((data, self.indices, self.indptr),
                               shape=(self.size, self.size))
        matrix.pattern = self
        return matrix


def _tpfa_values(mesh: Mesh, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Values of a "tpfa" block: ``p`` on (first, first), then ``-q``,
    ``q`` and ``-p`` on (first, second), (second, second), (second, first)."""
    active, inter = ~mesh.neumann, mesh.interior
    return np.concatenate([p[active], -q[inter], q[inter], -p[inter]])


def _block_entries(mesh: Mesh, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "diag":
        eye = np.arange(mesh.n_cells)
        return eye, eye
    if kind == "op":
        base = _pattern(mesh, (("tpfa", 0, 0),))
        return base.indices, np.repeat(np.arange(base.size), np.diff(base.indptr))
    c0, c1 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    active, inter = ~mesh.neumann, mesh.interior
    return (np.concatenate([c0[active], c0[inter], c1[inter], c1[inter]]),
            np.concatenate([c0[active], c1[inter], c1[inter], c0[inter]]))


def _build_pattern(mesh: Mesh, layout: tuple) -> SparsityPattern:
    n = mesh.n_cells
    rows, cols = [], []
    for kind, block_row, block_col in layout:
        r, c = _block_entries(mesh, kind)
        rows.append(r + block_row * n)
        cols.append(c + block_col * n)
    size = n * (1 + max(max(r, c) for _, r, c in layout))
    return SparsityPattern.from_pairs(np.concatenate(rows), np.concatenate(cols), size)


def _pattern(mesh: Mesh, layout: tuple) -> SparsityPattern:
    return mesh.derived(("pattern", layout), lambda m: _build_pattern(m, layout))


def _assemble(mesh: Mesh, blocks: list) -> sp.csc_matrix:
    """Operator from its (kind, block row, block column, values) blocks."""
    pattern = _pattern(mesh, tuple(block[:3] for block in blocks))
    return pattern.fill(np.concatenate([block[3] for block in blocks]))


def add_diagonal(mesh: Mesh, op: sp.csc_matrix, diagonal: np.ndarray) -> sp.csc_matrix:
    """``op + diag(diagonal)`` for ``op`` from :func:`assemble_fp_operator` or
    :func:`assemble_poisson` on this mesh."""
    return _assemble(mesh, [("diag", 0, 0, diagonal), ("op", 0, 0, op.data)])


def assemble_fp_operator(mesh: Mesh, data: TransportData, scheme: BScheme,
                         beta: float = 0.05, force: bool = False):
    """Stationary convection-diffusion operator M and boundary vector b.

    Row K of M holds the outgoing flux sum of the unit fields; M f - b is the
    per-cell steady flux balance.
    """
    guard = peclet_guard(mesh, data, scheme, beta)
    if not guard.ok and not force:
        raise PecletError(str(guard))
    bm, bp = b_coefficients(mesh, data, scheme)
    ta = mesh.tau * data.a_edge

    dmask = mesh.dirichlet

    m = _assemble(mesh, [("tpfa", 0, 0, _tpfa_values(mesh, ta * bm, ta * bp))])
    b = np.zeros(mesh.n_cells)
    np.add.at(b, mesh.edge_cells[dmask, 0], (ta * bp)[dmask] * data.f_dirichlet[dmask])
    return m, b


def edge_fluxes(mesh: Mesh, data: TransportData, scheme: BScheme,
                f: np.ndarray) -> np.ndarray:
    """All fluxes in the first cell's orientation; the second cell sees minus."""
    bm, bp = b_coefficients(mesh, data, scheme)
    f_opp = neighbor_values(mesh, f, data.f_dirichlet)
    return mesh.tau * data.a_edge * (bm * f[mesh.edge_cells[:, 0]] - bp * f_opp)


def flux_fp(mesh: Mesh, data: TransportData, scheme: BScheme,
            f: np.ndarray, cell: int, edge: int) -> float:
    """Flux leaving ``cell`` through ``edge``; zero on Neumann edges."""
    if mesh.edge_tag[edge] == NEUMANN:
        return 0.0
    value = float(edge_fluxes(mesh, data, scheme, f)[edge])
    if mesh.edge_cells[edge, 0] == cell:
        return value
    if mesh.edge_cells[edge, 1] == cell:
        return -value
    raise AssemblyError(f"cell {cell} is not incident to edge {edge}")


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


def assemble_pme_residual(mesh: Mesh, f_prev: np.ndarray, f: np.ndarray,
                          m: float, dt: float, f_dirichlet: np.ndarray):
    """Backward-Euler residual and exact Jacobian for the nonlinear diffusion step.

    residual_K = area (f - f_prev) / dt - sum_edges tau * D(f^m); the flux sign
    makes the operator diffusive (mass flows from high f^m to low f^m).
    """
    if m <= 1:
        raise DataError("nonlinearity exponent must exceed 1")
    g = signed_power(f, m)
    g_dir = np.where(np.isfinite(f_dirichlet), signed_power(f_dirichlet, m), np.nan)
    dg = edge_differences(mesh, g, g_dir)

    residual = mesh.cell_area * (f - f_prev) / dt - cell_sums(mesh, mesh.tau * dg)

    dpow = m * np.abs(f) ** (m - 1.0)
    t = mesh.tau
    return residual, _assemble(mesh, [
        ("diag", 0, 0, mesh.cell_area / dt),
        ("tpfa", 0, 0, _tpfa_values(mesh, t * dpow[mesh.edge_cells[:, 0]],
                                    t * dpow[mesh.edge_cells[:, 1]]))])


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
    """Scaled TPFA Laplacian with Dirichlet edges eliminated, Neumann absent."""
    if lam <= 0:
        raise DataError("Debye length must be positive")
    t = lam * lam * mesh.tau
    return _assemble(mesh, [("tpfa", 0, 0, _tpfa_values(mesh, t, t))])


def poisson_dirichlet_rhs(mesh: Mesh, lam: float, v_dirichlet: np.ndarray) -> np.ndarray:
    """Boundary vector matching ``assemble_poisson``."""
    b = np.zeros(mesh.n_cells)
    dmask = mesh.dirichlet
    np.add.at(b, mesh.edge_cells[dmask, 0],
              lam * lam * mesh.tau[dmask] * v_dirichlet[dmask])
    return b


def assemble_dd_residual(mesh: Mesh, dd: DdData, scheme: BScheme,
                         state_prev, state, dt: Optional[float] = None,
                         jacobian: bool = True):
    """Residual and exact Jacobian of the coupled drift-diffusion system.

    ``state`` is the (N, P, V) triple at the new time level; ``state_prev``
    holds (N, P) for a transient step or None with ``dt=None`` for the steady
    system.  Unknown ordering is [N; P; V].  The Jacobian includes the
    coupling of both continuity fluxes to V through the flux function slope;
    with ``jacobian=False`` it is skipped and returned as None.
    """
    n_field, p_field, v_field = (np.asarray(x, dtype=float) for x in state)
    steady = dt is None
    if not steady and state_prev is None:
        raise AssemblyError("transient step needs the previous densities")

    c0 = mesh.edge_cells[:, 0]
    active = ~mesh.neumann
    tau = mesh.tau
    lam2 = dd.debye ** 2

    w = edge_differences(mesh, v_field, dd.v_dirichlet)
    bm, bp = scheme.both_sides(w)
    n_opp = neighbor_values(mesh, n_field, dd.n_dirichlet)
    p_opp = neighbor_values(mesh, p_field, dd.p_dirichlet)

    flux_n = np.where(active, tau * (bm * n_field[c0] - bp * n_opp), 0.0)
    flux_p = np.where(active, tau * (bp * p_field[c0] - bm * p_opp), 0.0)

    r_n = cell_sums(mesh, flux_n)
    r_p = cell_sums(mesh, flux_p)
    r_v = -lam2 * cell_sums(mesh, tau * w) \
        - mesh.cell_area * (p_field - n_field + dd.doping)
    if not steady:
        n_prev, p_prev = state_prev
        r_n += mesh.cell_area * (n_field - n_prev) / dt
        r_p += mesh.cell_area * (p_field - p_prev) / dt
    residual = np.concatenate([r_n, r_p, r_v])
    if not jacobian:
        return residual, None

    dbm, dbp = scheme.both_sides(w, slope=True)   # B' at -w and at w
    # flux slopes with respect to the potential difference w;
    # d/dw of B(-w) is -B'(-w)
    dflux_n = np.where(active, tau * (-dbm * n_field[c0] - dbp * n_opp), 0.0)
    dflux_p = np.where(active, tau * (dbp * p_field[c0] + dbm * p_opp), 0.0)

    t2 = lam2 * tau
    area = mesh.cell_area
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
    if not steady:
        blocks += [("diag", 0, 0, area / dt), ("diag", 1, 1, area / dt)]
    return residual, _assemble(mesh, blocks)
