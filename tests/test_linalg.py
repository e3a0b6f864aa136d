import numpy as np
import pytest
import scipy.sparse as sp

from entrofv.linalg import (FactorStore, NewtonConfig, NonConvergence,
                            SingularMatrixError, check_m_matrix_structure,
                            factorize, newton_solve, solve_linear)
from entrofv.schemes import (CENTERED, UPWIND, SparsityPattern, assemble_fp_operator,
                             transport_data)


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
    result = newton_solve(lambda x: (x - target, sp.identity(2, format="csr")),
                          np.zeros(2), NewtonConfig())
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


def _cubic(x):
    return x ** 3 - 8.0, sp.csr_matrix([[3.0 * x[0] ** 2]])


def test_newton_cubic_matches_bisection():
    result = newton_solve(_cubic, np.array([3.0]), NewtonConfig())
    assert not isinstance(result, NonConvergence)
    x, _ = result
    oracle = _bisection_root(lambda t: t ** 3 - 8.0, 0.0, 4.0)
    assert x[0] == pytest.approx(oracle, abs=1e-11)
    assert x[0] == pytest.approx(2.0, abs=1e-11)


def test_newton_budget_exhaustion_returns_nonconvergence():
    result = newton_solve(_cubic, np.array([3.0]), NewtonConfig(max_iter=1))
    assert isinstance(result, NonConvergence)
    assert result.iterations == 1


def test_newton_zero_residual_start():
    result = newton_solve(lambda x: (x - 2.0, sp.identity(1, format="csr")),
                          np.array([2.0]), NewtonConfig())
    x, iters = result
    assert iters == 0


def test_newton_singular_jacobian_is_nonconvergence():
    result = newton_solve(lambda x: (x ** 2, sp.csr_matrix([[0.0]])),
                          np.array([1.0]), NewtonConfig())
    assert isinstance(result, NonConvergence)
    assert "singular" in result.reason


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)


def _store_cubic(x, jacobian=True):
    # residual NaN for negative x, to exercise a reused step that lands there
    r = np.where(x < 0, np.nan, x ** 3 - 8.0)
    return r, (sp.csr_matrix([[3.0 * x[0] ** 2]]) if jacobian else None)


def test_newton_store_refactors_after_bad_reused_steps():
    for slope in (3e4, 1e-2):  # slow contraction, then a step into NaN
        jac = sp.csr_matrix([[slope]])
        store = FactorStore(dt=1.0, jac=jac, lu=factorize(jac))
        stale = store.lu
        result = newton_solve(_store_cubic, np.array([3.0]), NewtonConfig(), store)
        assert not isinstance(result, NonConvergence)
        assert result[0][0] == pytest.approx(2.0, abs=1e-11)
        assert store.lu is not stale and store.dt == 1.0


def test_newton_store_reuses_factors_across_calls():
    store = FactorStore()
    first = newton_solve(_store_cubic, np.array([3.0]), NewtonConfig(), store)
    kept = store.lu
    again = newton_solve(_store_cubic, np.array([2.0 + 1e-6]), NewtonConfig(), store)
    assert first[0][0] == pytest.approx(2.0, abs=1e-11)
    assert again[0][0] == pytest.approx(2.0, abs=1e-11)
    assert store.lu is kept
    assert store.for_dt(0.5).lu is None and store.dt == 0.5


def test_factorize_passes_supernode_constants(monkeypatch):
    from entrofv import linalg
    seen = []
    splu = linalg.spla.splu

    def capture(a, **kwargs):
        seen.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", capture)
    factorize(dense([(0, 0, 2.0), (1, 1, 3.0)], 2))
    assert seen == [{"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1, "relax": 1}]
