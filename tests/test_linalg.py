import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from entrofv import linalg
from entrofv.linalg import (REFINE_EPS, FactorStore, LinAlgError, NonConvergence,
                            SingularMatrixError, check_m_matrix_structure,
                            factorize, newton_solve, solve_linear)
from entrofv.mesh import BoundarySpec, reference_mesh
from entrofv.schemes import (CENTERED, UPWIND, SparsityPattern, assemble_fp_operator,
                             assemble_pme_residual, pme_boundary_term, transport_data)


def dense(entries, n):
    rows, cols, vals = zip(*entries)
    return sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=(n, n))


def test_solve_identity(rng):
    b = rng.standard_normal(5)
    np.testing.assert_array_equal(solve_linear(sp.identity(5, format="csr"), b), b)


def test_solve_two_cell_oracle():
    a = dense([(0, 0, 6), (0, 1, -2), (1, 0, -2), (1, 1, 6)], 2)
    x = solve_linear(a, np.array([4.0, 8.0]))
    np.testing.assert_allclose(x, [1.25, 1.75], rtol=1e-14)


def test_solve_singular_zero_row():
    a = dense([(0, 0, 1.0), (1, 1, 0.0)], 2)
    with pytest.raises(SingularMatrixError):
        solve_linear(a, np.array([1.0, 1.0]))


def test_solve_deterministic(rng):
    n = 60
    rows = rng.integers(0, n, 300)
    cols = rng.integers(0, n, 300)
    vals = rng.standard_normal(300)
    a = sp.csr_matrix((np.concatenate([vals, np.full(n, 10.0)]),
                       (np.concatenate([rows, np.arange(n)]),
                        np.concatenate([cols, np.arange(n)]))), shape=(n, n))
    b = rng.standard_normal(n)
    x1 = solve_linear(a, b)
    x2 = solve_linear(a, b)
    assert np.array_equal(x1, x2)


def test_duplicate_coo_entries_sum():
    pattern = SparsityPattern.from_pairs(np.array([0, 0, 1]), np.array([0, 0, 1]), 2)
    a = pattern.fill(np.array([1.0, 2.0, 1.0]))
    assert a.nnz == 2
    assert a.toarray()[0, 0] == 3.0


def test_m_matrix_structure_on_toy_operator():
    from entrofv.presets import toy_problem
    prob = toy_problem(0)
    m_op, _ = assemble_fp_operator(prob.mesh, prob.data, UPWIND)
    touched = set(int(c) for c in prob.mesh.edge_cells[prob.mesh.dirichlet, 0])
    report = check_m_matrix_structure(m_op, touched)
    assert report.ok, str(report)


def test_m_matrix_flags_positive_offdiagonal():
    a = dense([(0, 0, 2.0), (0, 1, 0.5), (1, 0, -1.0), (1, 1, 2.0)], 2)
    report = check_m_matrix_structure(a, {0})
    assert not report.ok
    assert any("positive off-diagonal" in v for v in report.violations)


def test_m_matrix_flags_peclet_broken_centered(two_cell_mesh):
    # |u| d / a = 4 on the interior edge makes the centered coefficient negative
    mesh = two_cell_mesh
    u = np.where(mesh.interior, 8.0, 0.0)
    fd = np.where(mesh.dirichlet, 1.0, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), u, fd)
    m_op, _ = assemble_fp_operator(mesh, data, CENTERED, force=True)
    report = check_m_matrix_structure(m_op, {0, 1})
    assert not report.ok



def test_m_matrix_flags_column_without_chain():
    # columns 0 and 1 are only weakly dominant and linked to each other alone
    a = dense([(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0), (2, 2, 2.0)], 3)
    report = check_m_matrix_structure(a, {2})
    assert report.violations == (
        "columns with no chain to a strictly dominant column: [0, 1]",)

def test_newton_linear_one_iteration():
    target = np.array([3.0, -1.0])
    result = newton_solve(lambda x, jacobian: (x - target, sp.identity(2, format="csr")),
                          np.zeros(2))
    assert not isinstance(result, NonConvergence)
    x, iters = result
    np.testing.assert_allclose(x, target, atol=1e-12)
    assert iters == 1


def _bisection_root(fn, lo, hi, tol=1e-13):
    # independent oracle for the cubic test
    flo = fn(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def _cubic(x, jacobian):
    return x ** 3 - 8.0, sp.csr_matrix([[3.0 * x[0] ** 2]])


def test_newton_cubic_matches_bisection():
    result = newton_solve(_cubic, np.array([3.0]))
    assert not isinstance(result, NonConvergence)
    x, _ = result
    oracle = _bisection_root(lambda t: t ** 3 - 8.0, 0.0, 4.0)
    assert x[0] == pytest.approx(oracle, abs=1e-11)
    assert x[0] == pytest.approx(2.0, abs=1e-11)


def test_newton_budget_exhaustion_returns_nonconvergence(monkeypatch):
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 1)
    result = newton_solve(_cubic, np.array([3.0]))
    assert isinstance(result, NonConvergence)
    assert result.iterations == 1


def test_newton_zero_residual_start():
    result = newton_solve(lambda x, jacobian: (x - 2.0, sp.identity(1, format="csr")),
                          np.array([2.0]))
    x, iters = result
    assert iters == 0


def test_newton_singular_jacobian_is_nonconvergence():
    result = newton_solve(lambda x, jacobian: (x ** 2, sp.csr_matrix([[0.0]])),
                          np.array([1.0]))
    assert isinstance(result, NonConvergence)
    assert "singular" in result.reason


def _store_cubic(x, jacobian=True):
    # residual NaN for negative x, to exercise a reused step that lands there
    r = np.where(x < 0, np.nan, x ** 3 - 8.0)
    return r, (sp.csr_matrix([[3.0 * x[0] ** 2]]) if jacobian else None)


def test_newton_without_store_takes_simplified_steps(monkeypatch):
    """Without a store Newton keeps its own: a system that returns no
    Jacobian on request gets simplified steps on the factors made so far."""
    calls = _count_splu(monkeypatch)
    x, iterations = newton_solve(_store_cubic, np.array([3.0]))
    assert x[0] == pytest.approx(2.0, abs=1e-11)
    assert 1 <= len(calls) < iterations


def test_newton_store_refactors_after_bad_reused_steps():
    for slope in (3e4, 1e-2):  # slow contraction, then a step into NaN
        jac = sp.csr_matrix([[slope]])
        store = FactorStore(jac=jac, lu=factorize(jac))
        stale = store.lu
        result = newton_solve(_store_cubic, np.array([3.0]), store)
        assert not isinstance(result, NonConvergence)
        assert result[0][0] == pytest.approx(2.0, abs=1e-11)
        assert store.lu is not stale


def test_newton_store_reuses_factors_across_calls():
    store = FactorStore()
    first = newton_solve(_store_cubic, np.array([3.0]), store)
    kept = store.lu
    again = newton_solve(_store_cubic, np.array([2.0 + 1e-6]), store)
    assert first[0][0] == pytest.approx(2.0, abs=1e-11)
    assert again[0][0] == pytest.approx(2.0, abs=1e-11)
    assert store.lu is kept
    store.drop()
    assert store.jac is None and store.lu is None


# ---------------------------------------------------------------------------
# iterative refinement on stored factors


def _pme_jacobian(f, dt=1e-2, mesh=None):
    mesh = reference_mesh(1, BoundarySpec.all_dirichlet()) if mesh is None else mesh
    f_dir = np.where(mesh.dirichlet, 1.0, np.nan)
    return mesh, assemble_pme_residual(mesh, f, f, 2.0, dt,
                                       pme_boundary_term(mesh, f_dir, 2.0))[1]


def _count_splu(monkeypatch):
    calls = []
    splu = linalg.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", counting)
    return calls


def _backward_error(a, x, b):
    return np.max(np.abs(b - a @ x) / (abs(a) @ np.abs(x) + np.abs(b)))


def test_refined_solve_on_nearby_factors_reaches_refine_eps(monkeypatch, rng):
    mesh, stored = _pme_jacobian(np.linspace(0.5, 1.5, 224))
    _, jac = _pme_jacobian(np.linspace(0.5, 1.5, 224) * (1 + 1e-6 * rng.random(224)))
    store = FactorStore(jac=stored, lu=factorize(stored))
    kept = store.lu
    calls = _count_splu(monkeypatch)
    b = rng.standard_normal(mesh.n_cells)
    x = store.solve(jac, b)
    assert calls == [] and store.lu is kept and store.jac is stored
    assert _backward_error(jac, x, b) <= REFINE_EPS
    # the first solve alone is only as good as the stored factors
    assert _backward_error(jac, kept.solve(b), b) > 1e3 * REFINE_EPS


def test_refined_solve_on_far_factors_refactors_once(monkeypatch, rng):
    mesh, jac = _pme_jacobian(np.linspace(0.5, 1.5, 224))
    far = (jac + sp.diags(9.0 * jac.diagonal())).tocsc()  # diagonal times 10
    store = FactorStore(jac=far, lu=factorize(far))
    stale = store.lu
    calls = _count_splu(monkeypatch)
    b = rng.standard_normal(mesh.n_cells)
    x = store.solve(jac, b)
    assert len(calls) == 1
    assert store.jac is jac and store.lu is not stale
    np.testing.assert_array_equal(x, store.lu.solve(b))


class _CountingLU:
    """Held factors that count their solves (SuperLU takes no new attributes);
    ``offset``, if given, is added to every solution."""

    def __init__(self, lu, offset=0.0):
        self.lu, self.offset, self.solves = lu, offset, []

    def solve(self, rhs):
        self.solves.append(rhs)
        return self.lu.solve(rhs) + self.offset


def test_refinement_skips_factors_of_a_matrix_that_moved_too_far(monkeypatch, rng):
    """A Jacobian whose values moved by more than REFINE_CHANGE of the held
    ones is factored at once: no sweep on the held factors."""
    f = np.linspace(0.5, 1.5, 224)
    mesh, held = _pme_jacobian(f)
    _, jac = _pme_jacobian(f * (1.0 + 3.0 * linalg.REFINE_CHANGE), mesh=mesh)  # m = 2
    assert jac.indices is held.indices
    counting = _CountingLU(factorize(held))
    store = FactorStore(jac=held, lu=counting)
    calls = _count_splu(monkeypatch)
    b = rng.standard_normal(mesh.n_cells)
    x = store.solve(jac, b)
    assert counting.solves == [] and len(calls) == 1
    assert store.jac is jac
    np.testing.assert_array_equal(x, store.lu.solve(b))


def test_refinement_with_a_large_residual_factors_instead_of_raising(monkeypatch):
    """A backward error below REFINE_EPS bounds the residual only relative to
    |A||x| + |b|.  Where |A||x| dwarfs b, the max-norm residual may still
    exceed a checked solve's bound: the store must then factor, not hand x to
    the residual check, which raises."""
    big = 1e22
    a = sp.csc_matrix(np.array([[big, -big], [0.0, 1.0]]))
    b = np.array([0.0, 1.0])  # x = (1, 1)
    # factors that solve with a but land one unit in the last place off x_0
    counting = _CountingLU(factorize(a), offset=np.array([np.finfo(float).eps, 0.0]))
    store = FactorStore(jac=a.copy(), lu=counting)
    x0 = counting.solve(b)
    r = b - a @ x0
    assert _backward_error(a, x0, b) <= 2 * np.finfo(float).eps
    assert np.max(np.abs(r)) > 1e6
    calls = _count_splu(monkeypatch)
    x = store.solve(a, b)
    assert len(calls) == 1 and store.jac is a
    np.testing.assert_array_equal(x, [1.0, 1.0])


def test_store_solve_on_its_held_matrix_is_one_direct_solve(monkeypatch, rng):
    mesh, jac = _pme_jacobian(np.linspace(0.5, 1.5, 224))
    b = rng.standard_normal(mesh.n_cells)
    store = FactorStore()
    x = store.solve(jac, b)  # nothing held: jac is factored into the store
    assert store.jac is jac
    store.lu = counting = _CountingLU(store.lu)
    calls = _count_splu(monkeypatch)
    np.testing.assert_array_equal(store.solve(jac, b), x)
    assert len(counting.solves) == 1 and calls == [] and store.jac is jac


@pytest.mark.parametrize("stored", [None, 1.0], ids=["empty", "stale"])
def test_newton_store_singular_jacobian_is_nonconvergence(stored):
    store = FactorStore()
    if stored is not None:
        store.jac = sp.csr_matrix([[stored]])
        store.lu = factorize(store.jac)
    result = newton_solve(lambda x, jacobian=True: (x ** 2, sp.csr_matrix([[0.0]])),
                          np.array([1.0]), store)
    assert isinstance(result, NonConvergence)
    assert result.reason == "singular Jacobian"
    assert store.lu is None


def test_factorize_passes_supernode_constants(monkeypatch):
    seen = []
    splu = linalg.spla.splu

    def capture(a, **kwargs):
        seen.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", capture)
    factorize(dense([(0, 0, 2.0), (1, 1, 3.0)], 2))
    assert seen == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                     "panel_size": 1, "relax": 1}]


# ---------------------------------------------------------------------------
# column ordering reused per sparsity pattern


def _pattern_operators(level, rng):
    """On a fresh mesh (so no earlier factorization has ordered its
    patterns), an operator on each of its two patterns, the FP operator and a
    steady DD Jacobian, and two fills of every factored operator on them: the
    PME Jacobian, the FP step matrix and the steady and transient DD
    Jacobians."""
    from entrofv.mesh import BOTTOM, LEFT, RIGHT, TOP, BoundarySpec, reference_mesh
    from entrofv.schemes import (SCHARFETTER_GUMMEL, DdData, add_diagonal,
                                 assemble_dd_residual, assemble_pme_residual)
    mesh = reference_mesh(level, BoundarySpec(dirichlet=(LEFT, RIGHT), neumann=(BOTTOM, TOP)))
    n, dmask = mesh.n_cells, mesh.dirichlet
    f_dir = np.where(dmask, 1.5, np.nan)
    dd = DdData(doping=rng.uniform(-1.0, 1.0, n), debye=1.0,
                n_dirichlet=np.where(dmask, 2.0, np.nan),
                p_dirichlet=np.where(dmask, 0.5, np.nan),
                v_dirichlet=np.where(dmask, rng.uniform(-2.0, 2.0, mesh.n_edges), np.nan))
    data = transport_data(mesh, np.ones(mesh.n_edges), rng.uniform(-3.0, 3.0, mesh.n_edges),
                          f_dir)
    op, _ = assemble_fp_operator(mesh, data, UPWIND)
    state = (rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-3.0, 3.0, n))
    ordered = (op, assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, None, state)[1])

    def fills():
        f = rng.uniform(0.1, 2.0, n)
        state = (f, rng.uniform(0.1, 2.0, n), rng.uniform(-3.0, 3.0, n))
        return {"pme": assemble_pme_residual(mesh, f, f, 2.0, 1e-2,
                                             pme_boundary_term(mesh, f_dir, 2.0))[1],
                "dd-steady": assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, None,
                                                  state)[1],
                "dd-transient": assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL,
                                                     state[:2], state, 1e-2)[1],
                "fp-step": add_diagonal(op, mesh.cell_area * rng.uniform(1.0, 1e3))}

    return ordered, fills(), fills()


@pytest.mark.parametrize("level", [1, 2])
def test_pattern_ordering_reproduces_mmd_factors(level, rng):
    from entrofv.linalg import (DIAG_PIVOT_THRESH, PANEL_SIZE, PERMC_SPEC, RELAX,
                                PermutedLU)
    ordered, first, second = _pattern_operators(level, rng)
    for a in ordered:
        lu = factorize(a)
        assert not isinstance(lu, PermutedLU)
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)  # every diagonal pivot kept
    for name, a in first.items():
        b = rng.standard_normal(a.shape[0])
        for later in (a, second[name]):
            lu = factorize(later)
            assert isinstance(lu, PermutedLU), name
            # what a pattern's first factorization makes of this matrix
            ref = spla.splu(later, permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH,
                            panel_size=PANEL_SIZE, relax=RELAX)
            # static pivots: no row exchange on either path
            np.testing.assert_array_equal(ref.perm_r, ref.perm_c, err_msg=name)
            np.testing.assert_array_equal(lu.lu.perm_r, lu.lu.perm_c, err_msg=name)
            assert lu.nnz == ref.nnz, name
            x, x_ref = lu.solve(b), ref.solve(b)
            assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref)), name
            # the permuted columns keep their row order, so SuperLU repeats
            # the ordered factorization bit for bit
            np.testing.assert_array_equal(x, x_ref, err_msg=name)
            held = FactorStore(jac=later, lu=lu)  # its own factors: one direct solve
            np.testing.assert_array_equal(held.solve(later, b), x_ref, err_msg=name)


def test_pattern_factored_once_builds_no_permuted_structure(rng):
    _, first, _ = _pattern_operators(1, rng)
    a = first["pme"]  # the first factorization on the two-point pattern
    factorize(a)
    perm = a.pattern.ordering["perm"]
    assert set(a.pattern.ordering) == {"perm"}
    assert perm.base is None  # a view would keep the first factors alive
    assert sorted(perm) == list(range(a.shape[0]))
    factorize(a)
    assert set(a.pattern.ordering) == {"perm", "permuted"}


def test_pattern_path_singular_matrix_raises():
    pattern = SparsityPattern.from_pairs(np.array([0, 1, 2, 0, 1]), np.array([0, 1, 2, 1, 0]), 3)
    factorize(pattern.fill(np.array([2.0, 2.0, 1.0, -1.0, -1.0])))
    singular = pattern.fill(np.array([1.0, 1.0, 0.0, -1.0, -1.0]))
    with pytest.raises(SingularMatrixError):
        factorize(singular)
    assert "permuted" in pattern.ordering
    with pytest.raises(SingularMatrixError):
        solve_linear(singular, np.ones(3))


def test_zero_diagonal_pivot_exchanges_rows_on_both_paths():
    """Static pivoting takes every nonzero diagonal pivot; SuperLU exchanges
    rows only where the ordered diagonal holds an exact zero, as here."""
    from entrofv.linalg import PermutedLU
    values = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 4.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    x_ref = np.linalg.solve(values, b)
    np.testing.assert_allclose(x_ref, [-1.0, 0.5, 1.0], rtol=1e-15)
    np.testing.assert_allclose(solve_linear(sp.csc_matrix(values), b), x_ref, rtol=1e-14)
    rows, cols = np.nonzero(values)
    pattern = SparsityPattern.from_pairs(rows, cols, 3)  # stores zeros on the diagonal
    a = pattern.fill(values[rows, cols])
    assert not isinstance(factorize(a), PermutedLU)  # orders the pattern
    lu = factorize(a)
    assert isinstance(lu, PermutedLU)
    assert not np.array_equal(lu.lu.perm_r, lu.lu.perm_c)  # rows were exchanged
    np.testing.assert_allclose(lu.solve(b), x_ref, rtol=1e-14)
    np.testing.assert_allclose(solve_linear(a, b), x_ref, rtol=1e-14)


# ---------------------------------------------------------------------------
# one checked solve: every failure names its cause


class _HalfLU:
    """Factors of ``a`` that solve with half the true answer: each sweep only
    halves the residual, so refinement on them stalls at once."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return 0.5 * self.lu.solve(rhs)


def _oracle():
    """The two-cell matrix of ``test_solve_two_cell_oracle``: x = (1.25, 1.75)
    solves it with b = (4, 8)."""
    return dense([(0, 0, 6), (0, 1, -2), (1, 0, -2), (1, 1, 6)], 2)


def test_stall_on_own_factors_raises_lost_accuracy(monkeypatch):
    a = _oracle()
    b = np.array([4.0, 8.0])  # x = (1.25, 1.75); the first sweep leaves r = b / 2
    store = FactorStore(jac=a, lu=_HalfLU(factorize(a)))
    calls = _count_splu(monkeypatch)
    with pytest.raises(LinAlgError) as err:
        store.solve(a, b)
    assert type(err.value) is LinAlgError  # not a SingularMatrixError
    # max(2 / (5.5 + 4), 4 / (6.5 + 8)) = 0.276, with |A||x| at x = (0.625, 0.875)
    assert str(err.value) == "factors lost accuracy: backward error 2.8e-01"
    assert calls == []  # its own factors are not factored again


@pytest.mark.parametrize("offset", [np.nan, np.inf])
def test_non_finite_sweep_on_own_factors_is_singular(offset):
    a = _oracle()
    store = FactorStore(jac=a, lu=_CountingLU(factorize(a), offset=offset))
    with pytest.raises(SingularMatrixError, match="non-finite"):
        store.solve(a, np.array([4.0, 8.0]))


def test_non_finite_sweep_on_other_factors_refactors(monkeypatch):
    a = _oracle()
    store = FactorStore(jac=a.copy(), lu=_CountingLU(factorize(a), offset=np.nan))
    calls = _count_splu(monkeypatch)
    np.testing.assert_allclose(store.solve(a, np.array([4.0, 8.0])), [1.25, 1.75], rtol=1e-14)
    assert len(calls) == 1 and store.jac is a


def test_solve_linear_rejects_a_mismatched_rhs():
    with pytest.raises(LinAlgError, match="rhs shape"):
        solve_linear(sp.identity(3, format="csc"), np.ones(2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_is_its_own_failure(monkeypatch, value):
    """A right-hand side that is not finite is refused before any factorization,
    not reported as a singular matrix."""
    calls = _count_splu(monkeypatch)
    with pytest.raises(LinAlgError, match="rhs is not finite") as err:
        solve_linear(sp.csc_matrix([[2.0]]), np.array([value]))
    assert not isinstance(err.value, SingularMatrixError) and calls == []


def test_newton_non_finite_start_residual_solves_nothing(monkeypatch):
    calls = _count_splu(monkeypatch)
    jac = sp.identity(2, format="csc")
    result = newton_solve(lambda x, jacobian=True: (np.array([np.nan, 1.0]), jac), np.zeros(2))
    assert result == NonConvergence(iterations=0, residual_norm=np.inf,
                                    reason="non-finite residual")
    assert calls == []


def test_newton_reason_names_lost_accuracy(monkeypatch):
    factor = linalg.factorize
    monkeypatch.setattr(linalg, "factorize", lambda a: _HalfLU(factor(a)))
    result = newton_solve(lambda x, jacobian=True: (x - 1.0, sp.csr_matrix([[1.0]])),
                          np.array([3.0]))
    assert isinstance(result, NonConvergence) and result.iterations == 1
    # b = -2, x = -1, r = -1: backward error 1 / (1 + 2)
    assert result.reason == "factors lost accuracy: backward error 3.3e-01"


@pytest.mark.parametrize("error", [
    RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"),
    RuntimeError("Malloc fails for work in sp_dtrsv()."),
    RuntimeError("Not enough memory to perform factorization."),
    MemoryError(),
], ids=["superlu-malloc", "malloc", "not-enough-memory", "python"])
def test_factorize_reports_failed_allocation_as_memory_error(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(linalg.spla, "splu", failing)
    with pytest.raises(MemoryError, match="factorization of 3 unknowns") as err:
        factorize(sp.identity(3, format="csc"))
    assert err.value.__cause__ is error
    # Newton does not turn it into a NonConvergence
    with pytest.raises(MemoryError):
        newton_solve(lambda x, jacobian=True: (x - 1.0, sp.csr_matrix([[1.0]])),
                     np.array([3.0]))


def test_factorize_keeps_exact_singularity_singular(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linalg.spla, "splu", failing)
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        factorize(sp.identity(3, format="csc"))
