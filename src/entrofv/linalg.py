"""Checked sparse direct solves, M-matrix structure checks and Newton.

Operators are plain ``scipy.sparse`` matrices (CSC when assembled).  Every
factorization goes through :func:`factorize` and every solve through
:func:`solve_linear`, which checks finiteness and the max-norm residual.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class PermutedLU:
    """Factors of ``A[q][:, q]``, ``q = order = argsort(perm)``, that solve
    with ``A``: unknown ``i`` is unknown ``perm[i]`` of the factored matrix."""

    lu: spla.SuperLU
    perm: np.ndarray
    order: np.ndarray
    nnz: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.perm]


def factorize(a: sp.spmatrix) -> Union[spla.SuperLU, PermutedLU]:
    """Sparse LU factors of a square matrix, CSC already when assembled.  The
    first factorization of a matrix from ``SparsityPattern.fill`` stores the
    column ordering on its ``pattern``; later ones factor the symmetrically
    permuted matrix with ``NATURAL``.  Its columns keep their stored row
    order, which SuperLU follows, so both give the same factors bit for bit."""
    pattern = getattr(a, "pattern", None)
    known = pattern.ordering if pattern is not None else {}
    try:
        if "perm" not in known:
            lu = spla.splu(a.tocsc(), permc_spec=PERMC_SPEC,
                           panel_size=PANEL_SIZE, relax=RELAX)
            if pattern is not None:  # a view of perm_c keeps the factors alive
                known.setdefault("perm", lu.perm_c.copy())
            return lu
        perm = known["perm"]
        if "permuted" not in known:  # threads that race store equal values
            cols = np.repeat(perm, np.diff(a.indptr))  # each slot's permuted column
            gather = np.argsort(cols, kind="stable")
            indptr = np.searchsorted(cols[gather], np.arange(a.shape[0] + 1)).astype(np.intc)
            known.setdefault("permuted", (np.argsort(perm), gather, perm[a.indices[gather]], indptr))
        order, gather, indices, indptr = known["permuted"]
        permuted = sp.csc_matrix((a.data[gather], indices, indptr), shape=a.shape)
        permuted.has_canonical_format = True  # unsorted rows, kept so on purpose
        lu = spla.splu(permuted, permc_spec="NATURAL", panel_size=PANEL_SIZE, relax=RELAX)
        return PermutedLU(lu, perm, order, lu.nnz)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(err)) from err


def solve_linear(a: sp.spmatrix, b: np.ndarray,
                 lu: Union[spla.SuperLU, PermutedLU, None] = None) -> np.ndarray:
    """Direct sparse solve with a residual guarantee in the max-norm.

    ``lu``, when given, must be ``factorize(a)``; callers that solve with one
    matrix many times pass it to factorize only once.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise LinAlgError(f"rhs shape {b.shape} does not match matrix size {a.shape[0]}")
    x = (lu if lu is not None else factorize(a)).solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("factorization produced non-finite solution")
    resid = np.max(np.abs(a @ x - b))
    if resid > 1e-10 * (1.0 + np.max(np.abs(b))):
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


def check_m_matrix_structure(a: sp.spmatrix, dirichlet_touched: set[int],
                             tol: float = 1e-12) -> MMatrixReport:
    """Structural check that ``a`` is a column-dominant non-singular M-matrix.

    Verifies sign pattern, column diagonal dominance, strict dominance on the
    rows touched by Dirichlet edges, and that every column reaches a strictly
    dominant one through a chain of nonzero off-diagonal entries.
    """
    bad: list[str] = []
    n = a.shape[0]
    coo = a.tocoo()
    diag = a.diagonal()
    scale = np.max(np.abs(coo.data)) if coo.data.size else 1.0

    off = coo.row != coo.col
    pos_off = off & (coo.data > tol * scale)
    if np.any(pos_off):
        where = list(zip(coo.row[pos_off][:5].tolist(), coo.col[pos_off][:5].tolist()))
        bad.append(f"positive off-diagonal entries at {where}")
    if np.any(diag <= 0):
        bad.append(f"non-positive diagonal at rows {np.nonzero(diag <= 0)[0][:5].tolist()}")

    col_off_abs = np.zeros(n)
    np.add.at(col_off_abs, coo.col[off], np.abs(coo.data[off]))
    slack = diag - col_off_abs
    weak = slack < -tol * scale
    if np.any(weak):
        bad.append(f"columns not diagonally dominant: {np.nonzero(weak)[0][:5].tolist()}")
    strict = slack > tol * scale
    missing = [k for k in dirichlet_touched if not strict[k]]
    if missing:
        bad.append(f"Dirichlet-touched columns not strictly dominant: {sorted(missing)[:5]}")

    # chain condition: every column connected to a strictly dominant one
    # through nonzero off-diagonal entries
    if n and not np.any(strict):
        bad.append("no strictly dominant column exists")
    elif n:
        # diagonal entries only add self-loops, which change no component
        _, component = connected_components(abs(a.tocsr()) > tol * scale, directed=False)
        unreached = np.nonzero(~np.isin(component, component[strict]))[0]
        if unreached.size:
            bad.append("columns with no chain to a strictly dominant column: "
                       f"{unreached[:5].tolist()}")

    return MMatrixReport(tuple(bad))


@dataclass(frozen=True)
class NewtonConfig:
    """Residual tolerance is an absolute max-norm bound."""

    tol: float = 1e-11
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class NonConvergence:
    """Returned (never raised) so adaptive steppers can shrink the time step."""

    iterations: int
    residual_norm: float
    last_iterate: np.ndarray
    reason: str = "residual above tolerance"

    def __str__(self):
        return (f"Newton did not converge after {self.iterations} iterations "
                f"(|residual| = {self.residual_norm:.3e}): {self.reason}")


NewtonResult = Union[tuple[np.ndarray, int], NonConvergence]

#: A reused-factor iterate is kept only when it cuts the residual max-norm by
#: this factor; a weaker contraction means the stored Jacobian has drifted
#: too far and Newton refactors.  On the ``dd-bias`` preset 0.1 takes 686
#: linear solves in all, against 928 for 0.25 and 1022 for 0.5 or 0.9.
REUSE_CONTRACTION = 0.1


@dataclass(eq=False)
class FactorStore:
    """A matrix and its factors for one step size ``dt``, dropped when
    another is asked for: the Jacobian that :func:`newton_solve` may reuse
    across iterates and calls, or a linear stepping matrix.  One caller owns
    it (one transient run or one stepper)."""

    dt: Optional[float] = None
    jac: Optional[sp.spmatrix] = None
    lu: Union[spla.SuperLU, PermutedLU, None] = None

    def drop(self) -> None:
        self.jac = self.lu = None

    def for_dt(self, dt: float) -> "FactorStore":
        if dt != self.dt:
            self.drop()
            self.dt = dt
        return self


def newton_solve(system: Callable[..., tuple[np.ndarray, Optional[sp.spmatrix]]],
                 x0: np.ndarray,
                 cfg: NewtonConfig = NewtonConfig(),
                 store: Optional[FactorStore] = None) -> NewtonResult:
    """Newton iteration; returns (solution, iterations) on success.

    ``system(x)`` returns the residual and its Jacobian at ``x``.  Without a
    store every iterate is a full Newton step: ``system`` is called once per
    iterate, ``iterations + 1`` times in all on success, and each iterate
    factors its own Jacobian.

    With a store the factors in it are reused (simplified Newton), and
    ``system(x, jacobian=False)`` must return the residual alone (its second
    item is ignored); the Jacobian is asked for only when Newton factors.  A
    reused-factor iterate is kept only if it contracts the residual by
    :data:`REUSE_CONTRACTION`; otherwise the factors are dropped and Newton
    refactors at the current iterate, which stays the previous one when the
    residual grew or is not finite.  Fresh-factor iterates fail as without a
    store.  ``iterations`` counts every linear solve, and ``cfg.max_iter``
    bounds it.
    """
    x = np.asarray(x0, dtype=float).copy()
    reuse = store is not None and store.lu is not None
    r, jac = (system(x, jacobian=False)[0], None) if reuse else system(x)
    norm = np.max(np.abs(r)) if r.size else 0.0
    if norm <= cfg.tol:
        return x, 0
    for it in range(1, cfg.max_iter + 1):
        reuse = store is not None and store.lu is not None
        try:
            if reuse:
                dx = solve_linear(store.jac, -r, store.lu)
            else:
                if jac is None:
                    r, jac = system(x)
                if store is None:
                    dx = solve_linear(jac, -r)
                else:
                    store.lu, store.jac = factorize(jac), jac
                    dx = solve_linear(jac, -r, store.lu)
        except LinAlgError:
            if store is not None:
                store.drop()
            if reuse:
                continue
            return NonConvergence(iterations=it, residual_norm=norm,
                                  last_iterate=x, reason="singular Jacobian")
        x_new = x + dx
        if store is None:
            r_new, jac = system(x_new)
        else:
            r_new, jac = system(x_new, jacobian=False)[0], None
        finite = np.all(np.isfinite(r_new))
        norm_new = np.max(np.abs(r_new)) if finite else np.inf
        if norm_new <= cfg.tol:
            return x_new, it
        if reuse and not norm_new <= REUSE_CONTRACTION * norm:
            store.drop()
            if not norm_new <= norm:
                continue  # discard the iterate; refactor where it started
        elif not finite:
            return NonConvergence(iterations=it, residual_norm=np.inf,
                                  last_iterate=x_new, reason="non-finite residual")
        x, r, norm = x_new, r_new, norm_new
    return NonConvergence(iterations=cfg.max_iter, residual_norm=norm, last_iterate=x)
