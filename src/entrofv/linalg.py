"""Checked sparse direct solves, M-matrix structure checks and Newton.

Operators are plain ``scipy.sparse`` matrices (CSC when assembled).  Every
factorization goes through :func:`factorize`; a one-off solve is
:func:`solve_linear`, and every solve on held factors is
:meth:`FactorStore.solve`.  Both check finiteness and the max-norm residual.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components


class LinAlgError(Exception):
    pass


class SingularMatrixError(LinAlgError):
    """The matrix is exactly singular or the solve is not finite."""


#: Column ordering, SuperLU panel width and relaxed-supernode size.  TPFA
#: operators and the coupled drift-diffusion Jacobian have structurally
#: symmetric patterns, for which minimum degree on A^T + A gives far less
#: fill than COLAMD.  The ordering depends on the pattern alone, so
#: :func:`factorize` computes it once per pattern and then factors with
#: ``NATURAL``.  SuperLU's default panels of 10 columns and supernodes padded
#: to 20 buy nothing for the tiny supernodes of two-point operators: against
#: them the 57 344-unknown FP step matrix factors in 146 ms instead of 275 ms
#: and the level-6 one holds 9.7 M factor nonzeros instead of 13.4 M.  Reusing
#: the ordering, the 896-unknown PME Jacobian factors in 0.91 ms instead of
#: 1.18 ms and the level-3 DD Jacobian in 33 ms instead of 36 ms (2 vCPUs).
PERMC_SPEC = "MMD_AT_PLUS_A"
PANEL_SIZE = 1
RELAX = 1

#: Static pivots (Li & Demmel, ACM TOMS 29, 2003): SuperLU takes every nonzero
#: diagonal pivot of the ordered matrix and exchanges rows only at an exact zero,
#: so the MMD fill holds.  The level-3 DD step Jacobian at lambda = 0.05, bias 10
#: keeps 0.69 M factor nonzeros; thresholds 1, 0.1, 0.01 and 0.001 give 33.9, 34.0,
#: 30.1 and 1.03 M.  Column diagonally dominant FP and PME matrices factor as at 1.
DIAG_PIVOT_THRESH = 0.0


@dataclass(frozen=True, eq=False)
class PermutedLU:
    """Factors of ``A[q][:, q]``, ``q = order = argsort(perm)``, that solve
    with ``A``: unknown ``i`` is unknown ``perm[i]`` of the factored matrix.
    Both are ``intp``, which numpy gathers with unconverted."""

    lu: spla.SuperLU
    perm: np.ndarray
    order: np.ndarray
    nnz: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.perm]


def with_data(template: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    """Shallow copy of ``template`` holding ``data``: it shares the index
    arrays and the format flags scipy checked once, on the template."""
    matrix = copy.copy(template)
    matrix.data = data
    return matrix


def factorize(a: sp.spmatrix) -> Union[spla.SuperLU, PermutedLU]:
    """Sparse LU factors of a square matrix, CSC already when assembled.  The
    first factorization of a matrix from ``SparsityPattern.fill`` stores the
    column ordering on its ``pattern``; later ones factor the symmetrically
    permuted matrix with ``NATURAL``.  Its columns keep their stored row
    order, which SuperLU follows, so both give the same factors bit for bit."""
    pattern = getattr(a, "pattern", None)
    known = pattern.ordering if pattern is not None else {}
    a = a.tocsc()
    options = dict(diag_pivot_thresh=DIAG_PIVOT_THRESH, panel_size=PANEL_SIZE, relax=RELAX)
    try:
        if "perm" not in known:
            lu = spla.splu(a, permc_spec=PERMC_SPEC, **options)
            if pattern is not None:  # a view of perm_c keeps the factors alive
                known.setdefault("perm", lu.perm_c.astype(np.intp))
        else:
            if "permuted" not in known:  # the pattern's second factorization
                # column j of the permuted matrix is column order[j] of a, with
                # its slots in stored order: no sort.  Like a pattern's template,
                # it holds one byte a value, as every factorization brings its own
                order = np.argsort(known["perm"])
                lengths = np.diff(a.indptr)[order]
                indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.intc)
                gather = np.repeat(a.indptr[order] - indptr[:-1], lengths)
                gather += np.arange(gather.size, dtype=np.intc)
                rows = known["perm"].astype(np.intc)[a.indices[gather]]  # no intp copy of indices
                template = sp.csc_matrix((np.zeros(gather.size, dtype=np.int8), rows, indptr),
                                         shape=a.shape)
                template.has_canonical_format = True  # unsorted rows, kept so on purpose
                known.setdefault("permuted", (order, gather, template))
            order, gather, template = known["permuted"]
            lu = spla.splu(with_data(template, a.data[gather]), permc_spec="NATURAL", **options)
            lu = PermutedLU(lu, known["perm"], order, lu.nnz)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(err)) from err
    return lu


def solve_linear(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One-off direct sparse solve with a residual guarantee in the max-norm;
    solves that reuse factors go through :meth:`FactorStore.solve`."""
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise LinAlgError(f"rhs shape {b.shape} does not match matrix size {a.shape[0]}")
    return _checked(a, b, factorize(a).solve(b))


def _residual_bound(b: np.ndarray) -> float:
    """Largest max-norm residual a checked solve of ``a x = b`` accepts."""
    return 1e-10 * (1.0 + np.max(np.abs(b)))


def _checked(a: sp.spmatrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` if finite with a small max-norm of ``b - a x``."""
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("factorization produced non-finite solution")
    resid = np.max(np.abs(a @ x - b))
    if resid > _residual_bound(b):
        raise LinAlgError(f"direct solve residual {resid:.3e} above tolerance")
    return x


@dataclass(frozen=True)
class MMatrixReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "M-matrix structure ok" if self.ok else "\n".join(self.violations)


#: Entries of :func:`check_m_matrix_structure` below this fraction of the
#: largest magnitude count as zero.
M_MATRIX_TOL = 1e-12


def check_m_matrix_structure(a: sp.spmatrix, dirichlet_touched: set[int]) -> MMatrixReport:
    """Structural check that ``a`` is a column-dominant non-singular M-matrix.

    Verifies sign pattern, column diagonal dominance, strict dominance on the
    rows touched by Dirichlet edges, and that every column reaches a strictly
    dominant one through a chain of nonzero off-diagonal entries.
    """
    bad: list[str] = []
    n = a.shape[0]
    coo = a.tocoo()
    diag = a.diagonal()
    tol = M_MATRIX_TOL * (np.max(np.abs(coo.data)) if coo.data.size else 1.0)

    off = coo.row != coo.col
    pos_off = off & (coo.data > tol)
    if np.any(pos_off):
        where = list(zip(coo.row[pos_off][:5].tolist(), coo.col[pos_off][:5].tolist()))
        bad.append(f"positive off-diagonal entries at {where}")
    if np.any(diag <= 0):
        bad.append(f"non-positive diagonal at rows {np.nonzero(diag <= 0)[0][:5].tolist()}")

    col_off_abs = np.zeros(n)
    np.add.at(col_off_abs, coo.col[off], np.abs(coo.data[off]))
    slack = diag - col_off_abs
    weak = slack < -tol
    if np.any(weak):
        bad.append(f"columns not diagonally dominant: {np.nonzero(weak)[0][:5].tolist()}")
    strict = slack > tol
    missing = [k for k in dirichlet_touched if not strict[k]]
    if missing:
        bad.append(f"Dirichlet-touched columns not strictly dominant: {sorted(missing)[:5]}")

    # chain condition: every column connected to a strictly dominant one
    # through nonzero off-diagonal entries
    if n and not np.any(strict):
        bad.append("no strictly dominant column exists")
    elif n:
        # diagonal entries only add self-loops, which change no component
        _, component = connected_components(abs(a.tocsr()) > tol, directed=False)
        unreached = np.nonzero(~np.isin(component, component[strict]))[0]
        if unreached.size:
            bad.append("columns with no chain to a strictly dominant column: "
                       f"{unreached[:5].tolist()}")

    return MMatrixReport(tuple(bad))


#: Newton stops once the max-norm of the residual is at most NEWTON_TOL (an
#: absolute bound), and fails after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class NonConvergence:
    """Returned (never raised) so adaptive steppers can shrink the time step."""

    iterations: int
    residual_norm: float
    reason: str = "residual above tolerance"

    def __str__(self):
        return (f"Newton did not converge after {self.iterations} iterations "
                f"(|residual| = {self.residual_norm:.3e}): {self.reason}")


NewtonResult = Union[tuple[np.ndarray, int], NonConvergence]

#: A reused-factor iterate is kept only when it cuts the residual max-norm by
#: this factor, else Newton refactors: implicit integrators likewise recompute
#: their Jacobian once the observed rate exceeds a small bound (Hairer & Wanner,
#: *Solving ODEs II*, IV.8).  (Newton iterations, factorizations) of ``dd-bias``:
#: 0.1 (687, 9), 0.03 (666, 11), 0.02 (560, 12), 0.01 (494, 15), 0.007 (620, 17),
#: 0.001 (472, 34); of ``dd-pn``: 0.1 (996, 8), 0.02 (746, 14), 0.01 (661, 20).
REUSE_CONTRACTION = 0.01


#: Iterative refinement on stored factors (Higham, *Accuracy and Stability of
#: Numerical Algorithms*, ch. 12) accepts x once the componentwise backward error
#: max |b - A x| / (|A| |x| + |b|) is at most REFINE_EPS and the residual passes
#: a checked solve's bound, well inside Newton's tolerance (Dembo, Eisenstat &
#: Steihaug, SIAM J. Numer. Anal. 19, 1982).  It factors once a sweep cuts that
#: error by less than REFINE_CONTRACTION (1e-3 or 1e-2 saved factorizations, not
#: time), which ends every stall: only a zero residual takes that error to 0.
#: (Factorizations, solves) of ``pme-sweep``, 1168 Newton iterations each: 2 eps
#: (599, 3229) ungated, 1e-12 (598, 2307), 1e-11 (597, 2280), fastest 1e-10 (597, 2213).
REFINE_EPS = 1e-10
REFINE_CONTRACTION = 1e-4

#: No refinement is tried when the matrix shares the held one's index arrays and
#: a stored value moved by more than this fraction of the held one.  At 2 eps
#: without the gate, ``pme-sweep`` made attempts / successes of 302 / 301 at a
#: largest change below 1e-4, 358 / 268 up to 1e-3, 98 / 3 up to 1e-2 and 405 / 2
#: above.  The gate at 3e-4 gives (604, 2061), 15 % slower; at 3e-3 (595, 2266).
REFINE_CHANGE = 1e-3


@dataclass(eq=False)
class FactorStore:
    """The latest matrix factored, ``jac``, and its factors ``lu``, both None
    or both set; every solve on held factors goes through :meth:`solve`.
    One caller owns it: a transient run, a Newton call or a mesh's fixed operator."""

    jac: Optional[sp.spmatrix] = None
    lu: Union[spla.SuperLU, PermutedLU, None] = None

    def drop(self) -> None:
        self.jac = self.lu = None

    def solve(self, a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
        """Checked solve of ``a x = b``, ``a`` CSC or CSR: one direct solve
        when the held factors are ``a``'s own (``a is jac``), else refinement
        on those of a nearby matrix; ``a`` is factored into the store when
        nothing is held, ``a`` moved too far or the refinement stalls."""
        held = self.jac
        if a is not held:
            moved = held is not None and a.indices is held.indices and a.indptr is held.indptr \
                and np.any(np.abs(a.data - held.data) > REFINE_CHANGE * np.abs(held.data))
            if self.lu is not None and not moved:  # sweeps from x = 0, whose error is 1
                x, r, omega_prev, abs_a = 0.0, b, 1.0, with_data(a, np.abs(a.data))
                abs_b = np.abs(b) + np.finfo(float).tiny  # keeps rows where b and x vanish
                while True:
                    x = x + self.lu.solve(r)
                    r = b - a @ x
                    omega = np.max(np.abs(r) / (abs_a @ np.abs(x) + abs_b))
                    if omega <= REFINE_EPS and np.max(np.abs(r)) <= _residual_bound(b):
                        return x  # finite, as NaN and inf fail both tests
                    if not omega <= REFINE_CONTRACTION * omega_prev:
                        break
                    omega_prev = omega
            self.lu, self.jac = factorize(a), a
        return _checked(a, b, self.lu.solve(b))


def newton_solve(system: Callable[..., tuple[np.ndarray, Optional[sp.spmatrix]]],
                 x0: np.ndarray,
                 store: Optional[FactorStore] = None) -> NewtonResult:
    """Newton iteration; returns (solution, iterations) on success, once the
    residual max-norm is at most :data:`NEWTON_TOL`.

    ``system(x, jacobian)`` returns the residual at ``x`` and either its
    Jacobian or, only when ``jacobian`` is false, None.  A Jacobian makes a
    full Newton step, solved by :meth:`FactorStore.solve` on the factors in
    ``store`` (a fresh one when None is given).  None makes a simplified
    Newton step on the stored factors, and the Jacobian is asked for only
    when Newton factors.  Such a reused-factor iterate is kept only if it
    contracts the residual by :data:`REUSE_CONTRACTION`; otherwise the
    factors are dropped and Newton refactors at the current iterate, which
    stays the previous one when the residual grew or is not finite.
    ``iterations`` counts every Newton step, and :data:`NEWTON_MAX_ITER`
    bounds it.  Both constants are read at each call.
    """
    store = FactorStore() if store is None else store
    x = np.asarray(x0, dtype=float).copy()
    r, jac = system(x, jacobian=store.lu is None)
    norm = np.max(np.abs(r)) if r.size else 0.0
    if norm <= NEWTON_TOL:
        return x, 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        if jac is None and store.lu is None:
            r, jac = system(x, jacobian=True)
        reuse = jac is None
        try:
            dx = store.solve(store.jac if reuse else jac, -r)
        except LinAlgError:
            store.drop()
            if reuse:
                continue
            return NonConvergence(iterations=it, residual_norm=norm, reason="singular Jacobian")
        x_new = x + dx
        r_new, jac = system(x_new, jacobian=False)
        finite = np.all(np.isfinite(r_new))
        norm_new = np.max(np.abs(r_new)) if finite else np.inf
        if norm_new <= NEWTON_TOL:
            return x_new, it
        if reuse and not norm_new <= REUSE_CONTRACTION * norm:
            store.drop()
            if not norm_new <= norm:
                jac = None
                continue  # discard the iterate; refactor where it started
        elif not finite:
            return NonConvergence(iterations=it, residual_norm=np.inf,
                                  reason="non-finite residual")
        x, r, norm = x_new, r_new, norm_new
    return NonConvergence(iterations=NEWTON_MAX_ITER, residual_norm=norm)
