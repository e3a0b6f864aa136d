from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from entrofv import linalg, presets, solvers
from entrofv.entropy import lp_distance
from entrofv.linalg import (FactorStore, LinAlgError, NonConvergence,
                            factorize, newton_solve)
from entrofv.mesh import BoundarySpec, reference_mesh
from entrofv.presets import (RunConfig, fill_problem, hetero_problem, pn_problem,
                             run, sweep_problem, toy_problem)
from entrofv.schemes import (SCHEMES, SCHARFETTER_GUMMEL, UPWIND, DataError, DdData,
                             advection_from_potential, assemble_dd_residual,
                             assemble_fp_operator, assemble_pme_residual, edge_differences,
                             pme_boundary_term, signed_power, transport_data)
from entrofv.solvers import (DdState, FpProblem, SolverError, StepperConfig,
                             adaptive_time_loop, dd_equilibrium_offsets, run_transient,
                             solve_dd_poisson, solve_dd_steady,
                             solve_dd_thermal, solve_fp_steady,
                             solve_pme_steady, step_dd, step_pme)


def _fp_step(mesh, data, scheme):
    """The ``step(f, dt)`` of an FP run on ``data``, with its own factors."""
    return FpProblem(mesh, data, np.ones(mesh.n_cells)).start(scheme)[2]


def _two_cell_data(mesh, f_left=1.0, f_right=2.0):
    fd = np.full(mesh.n_edges, np.nan)
    fd[1], fd[2] = f_left, f_right
    return transport_data(mesh, np.ones(mesh.n_edges), np.zeros(mesh.n_edges), fd)


# ---------------------------------------------------------------------------
# linear model


def test_fp_steady_two_cell_oracle(two_cell_mesh):
    data = _two_cell_data(two_cell_mesh)
    f = solve_fp_steady(*assemble_fp_operator(two_cell_mesh, data, UPWIND))
    np.testing.assert_allclose(f, [1.25, 1.75], rtol=1e-13)


def test_fp_steady_constant_data(mesh0, rng):
    fd = np.where(mesh0.dirichlet, 4.2, np.nan)
    data = transport_data(mesh0, rng.uniform(0.5, 2.0, mesh0.n_edges),
                          np.zeros(mesh0.n_edges), fd)
    for scheme in SCHEMES.values():
        f = solve_fp_steady(*assemble_fp_operator(mesh0, data, scheme))
        np.testing.assert_allclose(f, 4.2, rtol=1e-12)


def test_fp_steady_sg_exact_on_toy():
    prob = toy_problem(0)
    f = solve_fp_steady(*assemble_fp_operator(prob.mesh, prob.data, SCHARFETTER_GUMMEL))
    exact = np.exp(prob.mesh.cell_center[:, 0])
    assert lp_distance(prob.mesh, f, exact, 1) < 1e-12


def test_fp_steady_max_principle_divergence_free(rng):
    mesh = reference_mesh(1, BoundarySpec.all_dirichlet())
    geo = mesh.geometry
    phi_cells = 0.9 * mesh.cell_center[:, 0] + 0.4 * mesh.cell_center[:, 1]
    phi_dir = np.where(mesh.dirichlet,
                       0.9 * geo.edge_midpoint[:, 0] + 0.4 * geo.edge_midpoint[:, 1],
                       np.nan)
    u = advection_from_potential(mesh, phi_cells, phi_dir)
    fd = np.where(mesh.dirichlet, rng.uniform(1.0, 3.0, mesh.n_edges), np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), u, fd)
    lo, hi = np.nanmin(fd), np.nanmax(fd)
    for scheme in SCHEMES.values():
        f = solve_fp_steady(*assemble_fp_operator(mesh, data, scheme))
        assert np.all(f >= lo - 1e-12)
        assert np.all(f <= hi + 1e-12)


def test_step_fp_fixed_point(two_cell_mesh):
    data = _two_cell_data(two_cell_mesh)
    steady = solve_fp_steady(*assemble_fp_operator(two_cell_mesh, data, UPWIND))
    after = _fp_step(two_cell_mesh, data, UPWIND)(steady, 0.3)
    np.testing.assert_allclose(after, steady, rtol=1e-12)


def test_step_fp_large_step_reaches_steady(two_cell_mesh, rng):
    data = _two_cell_data(two_cell_mesh)
    steady = solve_fp_steady(*assemble_fp_operator(two_cell_mesh, data, UPWIND))
    f0 = rng.uniform(0.1, 3.0, 2)
    after = _fp_step(two_cell_mesh, data, UPWIND)(f0, 1e6)
    np.testing.assert_allclose(after, steady, rtol=1e-4)


def test_step_fp_preserves_sign_and_mass_balance(mesh0, rng):
    prob = toy_problem(0)
    f0 = prob.f0
    dt = 1e-2
    f1 = _fp_step(prob.mesh, prob.data, UPWIND)(f0, dt)
    assert np.all(f1 >= 0)
    # mass change equals the net boundary influx of the new state
    from entrofv.schemes import edge_fluxes
    flux = edge_fluxes(prob.mesh, prob.data, UPWIND, f1)
    boundary_out = np.sum(flux[prob.mesh.dirichlet])
    mass_rate = np.sum(prob.mesh.cell_area * (f1 - f0)) / dt
    assert mass_rate == pytest.approx(-boundary_out, rel=1e-10)


def test_fp_stepper_rejects_non_finite_solve():
    prob = toy_problem(0)
    step = _fp_step(prob.mesh, prob.data, UPWIND)
    f_prev = prob.f0.copy()
    f_prev[0] = np.nan
    with pytest.raises(LinAlgError):  # SingularMatrixError is a subclass
        step(f_prev, 1e-2)
    # the held factorization still serves finite data
    assert np.all(np.isfinite(step(prob.f0, 1e-2)))


def test_fp_stepper_holds_one_factorization(monkeypatch):
    import gc
    import weakref

    class Tracked:
        def __init__(self, lu):
            self.solve = lu.solve

    live = weakref.WeakSet()

    def tracking(a):
        lu = Tracked(factorize(a))
        live.add(lu)
        return lu

    prob = toy_problem(0)
    step = _fp_step(prob.mesh, prob.data, UPWIND)
    monkeypatch.setattr(linalg, "factorize", tracking)
    f = prob.f0
    for dt in (1e-2, 1e-2, 5e-3, 5e-3, 1e-2):
        f = step(f, dt)
    gc.collect()
    assert len(live) == 1  # each change of dt drops the factors of the last one


def test_step_fp_first_order_in_time():
    """Richardson comparison against the closed-form transient solution."""
    prob = toy_problem(2)
    mesh = prob.mesh
    t_end = 0.1
    cen = mesh.geometry.cell_centroid
    rate = np.pi ** 2 + 0.25
    exact = np.exp(cen[:, 0]) + np.exp(cen[:, 0] / 2 - rate * t_end) \
        * np.sin(np.pi * cen[:, 0])
    errors = []
    for dt in (0.02, 0.01, 0.005):
        f = prob.f0.copy()
        steps = int(round(t_end / dt))
        step = _fp_step(mesh, prob.data, SCHARFETTER_GUMMEL)
        for _ in range(steps):
            f = step(f, dt)
        errors.append(lp_distance(mesh, f, exact, 1))
    # successive error differences halve when the time error is first order
    ratio = (errors[0] - errors[1]) / (errors[1] - errors[2])
    assert 1.5 < ratio < 2.6


# ---------------------------------------------------------------------------
# nonlinear diffusion


def test_pme_steady_constant(mesh0):
    fd = np.where(mesh0.dirichlet, 1.7, np.nan)
    f = solve_pme_steady(mesh0, fd, 4.0)
    np.testing.assert_allclose(f, 1.7, rtol=1e-12)


def test_pme_steady_all_neumann_raises_h1(single_cell_mesh):
    """Without a Dirichlet edge (hypothesis H1 fails) no steady state is
    defined by the boundary data."""
    fd = np.full(single_cell_mesh.n_edges, np.nan)
    with pytest.raises(DataError, match="H1"):
        solve_pme_steady(single_cell_mesh, fd, 2.0)


def _step_pme(mesh, f_prev, m, dt, f_dir):
    """One porous-medium step on fresh factors."""
    return step_pme(mesh, f_prev, m, dt, FactorStore(), pme_boundary_term(mesh, f_dir, m))


def _dense_laplace_oracle(mesh, u_dirichlet):
    """Independent steady oracle: dense assembly by explicit loops."""
    n = mesh.n_cells
    a = np.zeros((n, n))
    b = np.zeros(n)
    for e in range(mesh.n_edges):
        tau = mesh.edge_length[e] / mesh.edge_d[e]
        i, j = mesh.edge_cells[e]
        if mesh.edge_tag[e] == 0:
            a[i, i] += tau
            a[j, j] += tau
            a[i, j] -= tau
            a[j, i] -= tau
        elif mesh.edge_tag[e] == 1:
            a[i, i] += tau
            b[i] += tau * u_dirichlet[e]
    return np.linalg.solve(a, b)


def test_pme_steady_rejects_bad_dirichlet_values(mesh0):
    for bad in (0.0, -1.0, np.nan, np.inf):
        fd = np.where(mesh0.dirichlet, 1.5, np.nan)
        fd[np.flatnonzero(mesh0.dirichlet)[1]] = bad
        with pytest.raises(DataError, match="Dirichlet values must be positive"):
            solve_pme_steady(mesh0, fd, 2.0)


def test_pme_steady_filling_against_dense_oracle():
    prob = fill_problem(2)
    mesh = prob.mesh
    f = solve_pme_steady(mesh, prob.f_dirichlet, prob.m)
    u_dir = np.where(np.isfinite(prob.f_dirichlet), prob.f_dirichlet ** prob.m, np.nan)
    oracle = _dense_laplace_oracle(mesh, u_dir) ** (1.0 / prob.m)
    np.testing.assert_allclose(f, oracle, rtol=1e-10)
    assert np.all(f >= 1.0 - 1e-12)
    assert np.all(f <= 2.5 + 1e-12)


def test_sweep_points_share_the_laplacian_factors(monkeypatch):
    """The points of a sweep share one mesh: its Laplacian is factored at the
    first steady solve, and each later point is one checked direct solve on
    those factors, bit for bit the steady state a fresh mesh gives (which
    factored it at all five points)."""
    points = [(2.0, md) for md in presets.SWEEP_BOUNDARY_LEVELS] + [(3.0, 1.0), (4.0, 1.0)]
    fresh = [solve_pme_steady(prob.mesh, prob.f_dirichlet, prob.m)
             for prob in (sweep_problem(1, m=m, m_dirichlet=md) for m, md in points)]
    mesh = sweep_problem(1, m=2.0, m_dirichlet=1.0).mesh
    counts = _count_solver_work(monkeypatch)
    for (m, md), expected in zip(points, fresh):
        prob = sweep_problem(1, m=m, m_dirichlet=md, mesh=mesh)
        np.testing.assert_array_equal(solve_pme_steady(mesh, prob.f_dirichlet, m), expected)
    assert counts["factorizations"] == 1 and counts["solves"] == len(points)


def test_step_pme_fixed_point(mesh0):
    fd = np.where(mesh0.dirichlet, 2.0, np.nan)
    steady = solve_pme_steady(mesh0, fd, 3.0)
    out = _step_pme(mesh0, steady, 3.0, 1e-2, fd)
    assert not isinstance(out, NonConvergence)
    np.testing.assert_allclose(out, steady, atol=1e-11)


def test_step_pme_linear_limit_matches_step_fp(two_cell_mesh):
    """A hand-built exponent-one residual reproduces the linear solver."""
    mesh = two_cell_mesh
    data = _two_cell_data(mesh)
    f_prev = np.array([0.7, 2.9])
    dt = 5e-3

    def residual(f):
        df = edge_differences(mesh, f, data.f_dirichlet)
        out = mesh.cell_area * (f - f_prev) / dt
        np.add.at(out, mesh.edge_cells[:, 0], -(mesh.tau * df))
        inter = mesh.interior
        np.add.at(out, mesh.edge_cells[inter, 1], (mesh.tau * df)[inter])
        return out

    def jacobian(f):
        h = 1e-8
        cols = []
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            cols.append((residual(f + e) - residual(f - e)) / (2 * h))
        dense = np.column_stack(cols)
        rows, colids = np.nonzero(dense)
        return sp.coo_matrix((dense[rows, colids], (rows, colids)), shape=(2, 2)).tocsr()

    got = newton_solve(lambda f, **_: (residual(f), jacobian(f)), f_prev)[0]
    expected = _fp_step(mesh, data, SCHARFETTER_GUMMEL)(f_prev, dt)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_step_pme_filling_first_step_structure():
    """Mass enters only through the Dirichlet boundary and the degenerate
    front stays near it after one small step."""
    prob = fill_problem(2)
    mesh = prob.mesh
    dt = 1e-3
    f1 = _step_pme(mesh, prob.f0, prob.m, dt, prob.f_dirichlet)
    assert not isinstance(f1, NonConvergence)
    assert np.all(f1 >= 0)
    # finite propagation: cells far from the right edge stay empty
    far = mesh.geometry.cell_centroid[:, 0] < 0.5
    assert np.max(f1[far]) < 1e-12
    # the filled region touches the Dirichlet column
    dirichlet_cells = mesh.edge_cells[mesh.dirichlet, 0]
    assert np.min(f1[dirichlet_cells]) > 0.1
    # exact mass balance with the boundary flux of the new state
    g_dir = np.where(np.isfinite(prob.f_dirichlet),
                     prob.f_dirichlet ** prob.m, np.nan)
    dg = edge_differences(mesh, signed_power(f1, prob.m), g_dir)
    influx = float(np.sum((mesh.tau * dg)[mesh.dirichlet]))
    assert np.sum(mesh.cell_area * f1) == pytest.approx(dt * influx, rel=1e-12)


def test_step_pme_positivity_rejection_reports_residual(mesh0, monkeypatch):
    f_dir = np.where(mesh0.dirichlet, 1.0, np.nan)
    f_prev = np.full(mesh0.n_cells, -0.5)
    # a tolerance this loose accepts the start, which has negative density
    monkeypatch.setattr(linalg, "NEWTON_TOL", 1e6)
    out = _step_pme(mesh0, f_prev, 2.0, 1e-2, f_dir)
    assert isinstance(out, NonConvergence)
    assert out.reason == "negative density"
    residual = assemble_pme_residual(mesh0, f_prev, f_prev, 2.0, 1e-2,
                                     pme_boundary_term(mesh0, f_dir, 2.0))[0]
    assert out.residual_norm == np.max(np.abs(residual)) > 0


# ---------------------------------------------------------------------------
# drift-diffusion


def _flat_dd(mesh):
    dmask = mesh.dirichlet
    ones_d = np.where(dmask, 1.0, np.nan)
    zeros_d = np.where(dmask, 0.0, np.nan)
    return DdData(doping=np.zeros(mesh.n_cells), debye=1.0, n_dirichlet=ones_d,
                  p_dirichlet=ones_d, v_dirichlet=zeros_d)


def test_dd_thermal_flat_constants(mesh0):
    state = solve_dd_thermal(mesh0, _flat_dd(mesh0))
    np.testing.assert_allclose(state.v, 0.0, atol=1e-12)
    np.testing.assert_allclose(state.n, 1.0, atol=1e-12)
    np.testing.assert_allclose(state.p, 1.0, atol=1e-12)


def test_dd_thermal_rejects_incompatible_offsets():
    biased = pn_problem(0, bias=2.5)
    assert dd_equilibrium_offsets(biased.mesh, biased.dd) is None
    with pytest.raises(SolverError):
        solve_dd_thermal(biased.mesh, biased.dd)


def test_dd_thermal_pn_junction_identities():
    prob = pn_problem(1)
    state = solve_dd_thermal(prob.mesh, prob.dd)
    np.testing.assert_allclose(np.log(state.n) - state.v, 0.0, atol=1e-11)
    np.testing.assert_allclose(np.log(state.p) + state.v, 0.0, atol=1e-11)


def test_dd_thermal_jacobian_spd(mesh0):
    from entrofv.schemes import assemble_poisson
    dd = _flat_dd(mesh0)
    a_mat = assemble_poisson(mesh0, dd.debye)
    jac = a_mat + sp.diags(mesh0.cell_area * 2.0)  # exp terms at v = 0
    dense = jac.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-13)
    assert np.all(np.linalg.eigvalsh(dense) > 0)


def test_dd_steady_flat_constants(mesh0):
    for scheme in SCHEMES.values():
        dd = _flat_dd(mesh0)
        state = solve_dd_steady(mesh0, dd, scheme, solve_dd_thermal(mesh0, dd))
        np.testing.assert_allclose(state.n, 1.0, atol=1e-12)
        np.testing.assert_allclose(state.p, 1.0, atol=1e-12)
        np.testing.assert_allclose(state.v, 0.0, atol=1e-12)


def test_dd_steady_sg_matches_thermal():
    prob = pn_problem(1)
    thermal = solve_dd_thermal(prob.mesh, prob.dd)
    steady = solve_dd_steady(prob.mesh, prob.dd, SCHARFETTER_GUMMEL, thermal)
    assert np.max(np.abs(steady.n - thermal.n)) < 1e-9
    assert np.max(np.abs(steady.p - thermal.p)) < 1e-9
    assert np.max(np.abs(steady.v - thermal.v)) < 1e-9


def test_dd_steady_upwind_breaks_thermal_identity():
    prob = pn_problem(2)
    steady = solve_dd_steady(prob.mesh, prob.dd, UPWIND, solve_dd_thermal(prob.mesh, prob.dd))
    assert np.max(np.abs(np.log(steady.n) - steady.v)) > 1e-6


def test_step_dd_fixed_point_and_charge_identity():
    prob = pn_problem(1)
    mesh, dd = prob.mesh, prob.dd
    steady = solve_dd_steady(mesh, dd, SCHARFETTER_GUMMEL, solve_dd_thermal(mesh, dd))
    out = step_dd(mesh, dd, SCHARFETTER_GUMMEL, steady, 1e-2)
    assert not isinstance(out, NonConvergence)
    assert np.max(np.abs(out.n - steady.n)) < 1e-9

    v0 = solve_dd_poisson(mesh, dd, prob.n0, prob.p0)
    first = step_dd(mesh, dd, SCHARFETTER_GUMMEL,
                    DdState(n=prob.n0, p=prob.p0, v=v0), 1e-2)
    assert not isinstance(first, NonConvergence)
    assert np.all(first.n > 0) and np.all(first.p > 0)
    # discrete Gauss law: net charge balances the boundary potential flux
    dmask = mesh.dirichlet
    v_cell = first.v[mesh.edge_cells[:, 0]]
    boundary_flux = np.sum(mesh.tau[dmask] * (dd.v_dirichlet[dmask] - v_cell[dmask]))
    charge = np.sum(mesh.cell_area * (first.p - first.n + dd.doping))
    assert charge + dd.debye ** 2 * boundary_flux == pytest.approx(0.0, abs=1e-10)


def test_step_dd_positivity_rejection_reports_residual(mesh0, monkeypatch):
    dd = _flat_dd(mesh0)
    start = DdState(n=np.full(mesh0.n_cells, -1.0), p=np.ones(mesh0.n_cells),
                    v=np.zeros(mesh0.n_cells))
    monkeypatch.setattr(linalg, "NEWTON_TOL", 1e6)
    out = step_dd(mesh0, dd, SCHARFETTER_GUMMEL, start, 1e-2)
    assert isinstance(out, NonConvergence)
    assert out.reason == "non-positive density"
    residual = assemble_dd_residual(mesh0, dd, SCHARFETTER_GUMMEL, (start.n, start.p),
                                    (start.n, start.p, start.v), 1e-2)[0]
    assert out.residual_norm == np.max(np.abs(residual)) > 0


def _count_calls(monkeypatch, name):
    """Wrap ``solvers.<name>``; the returned list collects every result."""
    seen = []
    fn = getattr(solvers, name)

    def wrapper(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(solvers, name, wrapper)
    return seen


def test_newton_steps_assemble_once_per_iterate(monkeypatch):
    newton = _count_calls(monkeypatch, "newton_solve")
    pme_calls = _count_calls(monkeypatch, "assemble_pme_residual")
    dd_calls = _count_calls(monkeypatch, "assemble_dd_residual")

    prob = fill_problem(1)
    assert not isinstance(_step_pme(prob.mesh, prob.f0, prob.m, 1e-3,
                                    prob.f_dirichlet), NonConvergence)
    dd = pn_problem(0, bias=2.5)
    v0 = solve_dd_poisson(dd.mesh, dd.dd, dd.n0, dd.p0)
    state = DdState(n=dd.n0, p=dd.p0, v=v0)
    assert not isinstance(step_dd(dd.mesh, dd.dd, SCHARFETTER_GUMMEL, state, 1e-2),
                          NonConvergence)

    (_, pme_iters), (_, dd_iters) = newton
    assert pme_iters >= 1 and dd_iters >= 1
    assert len(pme_calls) == pme_iters + 1
    assert len(dd_calls) == dd_iters + 1


def test_pme_run_forms_its_boundary_term_once(monkeypatch):
    """``PmeProblem.start`` forms the Dirichlet term of the residual; the
    steps and their Newton iterates reuse it, and a step on it equals a step
    on the term formed afresh from the data."""
    from entrofv import schemes
    prob = fill_problem(0)
    _, state, step, _ = prob.start(SCHARFETTER_GUMMEL)
    fresh = _step_pme(prob.mesh, state, prob.m, 1e-3, prob.f_dirichlet)
    sums = []
    dirichlet_sums = schemes.dirichlet_sums
    monkeypatch.setattr(schemes, "dirichlet_sums",
                        lambda *args: sums.append(args) or dirichlet_sums(*args))
    assemblies = _count_calls(monkeypatch, "assemble_pme_residual")
    for k in range(3):
        state = step(state, 1e-3)
        if k == 0:
            assert np.array_equal(state, fresh)
    assert len(assemblies) > 3 and sums == []


def _count_factorizations(monkeypatch):
    """Wrap ``linalg.factorize``, the one factorization entry point."""
    seen = []

    def counting(a):
        seen.append(a.shape[0])
        return factorize(a)

    monkeypatch.setattr(linalg, "factorize", counting)
    return seen


def _full_newton(monkeypatch):
    """Make every Newton iterate a full step that factors its own Jacobian:
    a store that keeps no factors leaves nothing to reuse or refine on: each
    solve runs the original method on a fresh store."""
    solve = linalg.FactorStore.solve
    monkeypatch.setattr(linalg.FactorStore, "solve",
                        lambda self, a, b: solve(linalg.FactorStore(), a, b))


def test_dd_factor_reuse_matches_full_newton(monkeypatch):
    prob = pn_problem(1)
    cfg = StepperConfig(t_final=1.0, dt0=1e-2)
    factors = _count_factorizations(monkeypatch)
    reused = run_transient(prob, SCHARFETTER_GUMMEL, cfg)
    reused_count = len(factors)

    del factors[:]
    _full_newton(monkeypatch)
    full = run_transient(prob, SCHARFETTER_GUMMEL, cfg)
    assert len(reused.trace) == len(full.trace) > 20
    for name in full.trace.columns:
        ref = full.trace.column(name)
        got = reused.trace.column(name)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), name
    assert 4 * reused_count <= len(factors)


def test_pme_refined_newton_matches_full_newton(monkeypatch):
    """Refinement on stored factors keeps every Newton iterate exact to
    round-off: same iterations per step, same trace, fewer factorizations."""
    factors, iterations = [], []
    splu, newton = linalg.spla.splu, solvers.newton_solve

    def counting_splu(*args, **kwargs):
        factors.append(args[0].shape)
        return splu(*args, **kwargs)

    def counting_newton(*args, **kwargs):
        result = newton(*args, **kwargs)
        iterations.append(result[1])
        return result

    monkeypatch.setattr(linalg.spla, "splu", counting_splu)
    monkeypatch.setattr(solvers, "newton_solve", counting_newton)
    cfg = StepperConfig(t_final=60.0, dt0=1e-3)
    refined = run_transient(sweep_problem(1, m=2.0, m_dirichlet=1.0), SCHARFETTER_GUMMEL, cfg)
    refined_counts = (len(factors), list(iterations))

    del factors[:], iterations[:]
    _full_newton(monkeypatch)
    full = run_transient(sweep_problem(1, m=2.0, m_dirichlet=1.0), SCHARFETTER_GUMMEL, cfg)
    assert refined_counts[1] == iterations and len(iterations) > 40
    for name in full.trace.columns:
        ref = full.trace.column(name)
        got = refined.trace.column(name)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name
    assert refined_counts[0] <= 0.6 * len(factors)


def test_dd_run_solves_thermal_equilibrium_once(monkeypatch):
    calls = []
    thermal = solvers.solve_dd_thermal

    def counting(*args, **kwargs):
        calls.append(args)
        return thermal(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_dd_thermal", counting)
    result = run_transient(pn_problem(0), SCHARFETTER_GUMMEL, StepperConfig.fixed(1e-2, 0.02))
    assert len(calls) == 1
    assert np.all(np.isfinite(result.trace.column("E_eq")))


def _pn_start(prob):
    v0 = solve_dd_poisson(prob.mesh, prob.dd, prob.n0, prob.p0)
    return DdState(n=prob.n0, p=prob.p0, v=v0)


def test_dd_poisson_solves_share_factors_per_debye_length(monkeypatch):
    """Linear Poisson solves on one mesh and Debye length, as a biased run's
    initial guess and initial potential make, factor the matrix once."""
    prob = pn_problem(0, bias=1.0)
    counts = _count_solver_work(monkeypatch)
    first, second = (solve_dd_poisson(prob.mesh, prob.dd, prob.n0, prob.p0) for _ in range(2))
    assert counts["factorizations"] == 1
    np.testing.assert_array_equal(first, second)
    solve_dd_poisson(prob.mesh, replace(prob.dd, debye=0.5), prob.n0, prob.p0)
    assert counts["factorizations"] == 2 and counts["solves"] == 3


def test_dd_stale_factors_still_converge(monkeypatch):
    prob = pn_problem(1, bias=2.5)
    mesh, dd, dt = prob.mesh, prob.dd, 1e-2
    start = _pn_start(prob)
    full = step_dd(mesh, dd, SCHARFETTER_GUMMEL, start, dt)

    # factors of the Jacobian at a far-off state: flat densities, no potential
    flat = np.ones(mesh.n_cells)
    jac = assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, (flat, flat),
                               (10 * flat, 0.1 * flat, 0 * flat), dt)[1]
    store = FactorStore(jac=jac, lu=factorize(jac))
    stale_lu = store.lu
    factors = _count_factorizations(monkeypatch)
    reused = step_dd(mesh, dd, SCHARFETTER_GUMMEL, start, dt, store=store)
    assert not isinstance(reused, NonConvergence)
    assert factors and store.lu is not stale_lu
    for got, ref in ((reused.n, full.n), (reused.p, full.p), (reused.v, full.v)):
        assert np.max(np.abs(got - ref)) <= 1e-10


def test_dd_step_after_step_size_change_refactors(monkeypatch):
    """Factors made for another dt stop contracting, so Newton drops them and
    the step matches one taken on a fresh store.  At one dt, the third step
    keeps the factors the second one left (the second refactors, since the
    state still moves fast after the first)."""
    prob = pn_problem(1, bias=2.5)
    mesh, dd = prob.mesh, prob.dd
    store = FactorStore()
    factors = _count_factorizations(monkeypatch)
    state = _pn_start(prob)
    for _ in range(2):
        state = step_dd(mesh, dd, SCHARFETTER_GUMMEL, state, 1e-2, store=store)
    assert len(factors) >= 1
    kept = store.lu

    del factors[:]
    state = step_dd(mesh, dd, SCHARFETTER_GUMMEL, state, 1e-2, store=store)
    assert not isinstance(state, NonConvergence)
    assert factors == [] and store.lu is kept

    fresh = step_dd(mesh, dd, SCHARFETTER_GUMMEL, state, 5e-3, store=FactorStore())
    del factors[:]
    reused = step_dd(mesh, dd, SCHARFETTER_GUMMEL, state, 5e-3, store=store)
    assert not isinstance(reused, NonConvergence)
    assert len(factors) >= 1 and store.lu is not kept
    for got, ref in zip(reused, fresh):
        assert np.max(np.abs(got - ref)) <= 1e-10


def _count_solver_work(monkeypatch) -> dict:
    """Count as the traced benchmark does: every ``splu`` call and the
    nonzeros of the largest factors, every solve on its factors, and Newton's
    iterations and failed calls."""
    counts = dict.fromkeys(("factorizations", "largest_factor", "solves", "iterations",
                            "failures"), 0)
    splu, newton = linalg.spla.splu, solvers.newton_solve

    class CountingLU:  # SuperLU takes no new attributes
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self.lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counting_splu(*args, **kwargs):
        counts["factorizations"] += 1
        lu = splu(*args, **kwargs)
        counts["largest_factor"] = max(counts["largest_factor"], lu.nnz)
        return CountingLU(lu)

    def counting_newton(*args, **kwargs):
        result = newton(*args, **kwargs)
        failed = isinstance(result, NonConvergence)
        counts["iterations"] += result.iterations if failed else result[1]
        counts["failures"] += failed
        return result

    monkeypatch.setattr(linalg.spla, "splu", counting_splu)
    monkeypatch.setattr(solvers, "newton_solve", counting_newton)
    return counts


def test_dd_bias_run_stays_within_its_newton_budget(monkeypatch):
    """The whole default ``dd-bias`` run, steady state included: Newton
    refactors once a reused-factor iterate contracts by less than
    ``REUSE_CONTRACTION`` = 0.01, which at 0.1 took 687 iterations, 9
    factorizations and 930 assemblies (counted as the benchmark counts them).
    The initial guess and the initial potential share the Poisson factors:
    factoring it for each made 15 factorizations."""
    counts = _count_solver_work(monkeypatch)
    counts["assemblies"] = 0

    def counting(assemble):
        def wrapper(*args, **kwargs):
            counts["assemblies"] += 1
            return assemble(*args, **kwargs)
        return wrapper

    for name in ("assemble_fp_operator", "assemble_dd_residual", "assemble_poisson"):
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    result = run_transient(*presets.build_problem(RunConfig(preset="dd-bias")))
    assert result.abort_reason is None and len(result.trace) == 236
    assert counts["iterations"] <= 500
    assert counts["factorizations"] <= 14
    assert counts["largest_factor"] <= 114_162
    assert counts["assemblies"] <= 750


def test_pme_sweep_stays_within_its_solve_budget(monkeypatch, tmp_path):
    """The default ``pme-sweep``: refinement stops at REFINE_EPS once the
    residual passes a checked solve's bound, and is not tried on factors of a
    Jacobian more than REFINE_CHANGE away.  At a target of 2 eps and with no
    such gate it made 3229 solves and 599 factorizations, for the same 1168
    Newton iterations.  The five steady states share the Laplacian's factors:
    factoring it at every point made 597."""
    counts = _count_solver_work(monkeypatch)
    assert run(RunConfig(preset="pme-sweep", out=str(tmp_path))) == 0
    assert counts["solves"] <= 2300
    assert counts["factorizations"] <= 593
    assert counts["iterations"] == 1168 and counts["failures"] == 0


def test_pme_fill_run_has_no_failed_newton_call(monkeypatch):
    """A refined solve that the residual check would refuse must not reach
    Newton as a singular Jacobian, which halves the step and moves the trace."""
    counts = _count_solver_work(monkeypatch)
    result = run_transient(*presets.build_problem(RunConfig(preset="pme-fill")))
    assert result.abort_reason is None
    assert counts["iterations"] > 0 and counts["failures"] == 0


def test_dd_jacobian_at_small_debye_length_factors_with_little_fill(monkeypatch):
    """At lambda = 0.05 and bias 10 the Poisson rows of the level-3 step
    Jacobian are 400 times smaller than at lambda = 1; SuperLU's default
    threshold pivoting then left the diagonal and its factors held 33.9 M
    nonzeros.  Static pivots (DIAG_PIVOT_THRESH = 0) keep every diagonal pivot
    and so the fill of lambda = 1, on the first factorization and on the
    reused ordering, down to lambda = 0.01 at bias 40."""
    factors, splu = [], linalg.spla.splu

    def counting(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factors.append(lu)
        return lu

    monkeypatch.setattr(linalg.spla, "splu", counting)
    for level, lam, bias, fill in ((3, 0.05, 10.0, 689_194), (3, 0.02, 10.0, 689_194),
                                   (2, 0.01, 40.0, 114_162)):
        prob = pn_problem(level, lam=lam, bias=bias)
        state0 = (prob.n0, prob.p0, solve_dd_poisson(prob.mesh, prob.dd, prob.n0, prob.p0))
        jac = assemble_dd_residual(prob.mesh, prob.dd, SCHARFETTER_GUMMEL, state0[:2], state0,
                                   1e-2)[1]
        assert jac.shape == (3 * prob.mesh.n_cells,) * 2
        b = np.ones(jac.shape[0])
        del factors[:]
        for _ in range(2):
            x = factorize(jac).solve(b)
            backward = np.max(np.abs(jac @ x - b) / (abs(jac) @ np.abs(x) + np.abs(b)))
            assert backward <= 1e-14, (lam, bias)
        assert len(factors) == 2 and max(lu.nnz for lu in factors) <= fill, (lam, bias)
        for lu in factors:  # no row left the diagonal on either path
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c, err_msg=str((lam, bias)))


def test_dd_reruns_in_one_process_are_byte_identical(tmp_path):
    texts = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        assert run(RunConfig(preset="dd-bias", level=1, out=str(out))) == 0
        texts.append((out / "trace.csv").read_bytes())
    assert texts[0] == texts[1]


def test_fp_and_pme_reruns_in_one_process_are_byte_identical(tmp_path):
    """Each run builds a fresh mesh, so its patterns, stored matrices and
    orderings are made anew; the outputs must not depend on that."""
    for cfg in (RunConfig(preset="fp-hetero", level=1),
                RunConfig(preset="pme-sweep", level=1, m=3.0, m_dirichlet=1.0)):
        texts = []
        for k in range(2):
            out = tmp_path / f"{cfg.preset}-{k}"
            assert run(replace(cfg, out=str(out))) == 0
            texts.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(texts[0]) >= 2
        assert texts[0] == texts[1]


def test_dd_steady_with_bias_converges():
    prob = pn_problem(0, bias=2.5)
    for scheme in SCHEMES.values():
        state = solve_dd_steady(prob.mesh, prob.dd, scheme, None)
        assert np.all(state.n > 0) and np.all(state.p > 0)


def test_failed_steady_dd_newton_raises_after_one_call(monkeypatch, tmp_path):
    """A steady solve that Newton cannot finish fails at once, with Newton's
    reason; no second attempt at other boundary data follows."""
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 1)
    newton = _count_calls(monkeypatch, "newton_solve")
    prob = pn_problem(0, bias=2.5)
    with pytest.raises(SolverError) as err:
        solve_dd_steady(prob.mesh, prob.dd, SCHARFETTER_GUMMEL, None)
    assert len(newton) == 1 and isinstance(newton[0], NonConvergence)
    assert str(err.value) == f"steady drift-diffusion solve failed: {newton[0]}"
    assert "bias fraction" not in str(err.value)

    assert run(RunConfig(preset="dd-bias", level=0, out=str(tmp_path))) == 1
    assert (tmp_path / "error.txt").read_text() == f"{err.value}\n"
    assert not (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# adaptive driver


def test_adaptive_loop_growth_sequence():
    cfg = StepperConfig(t_final=0.1, dt0=1e-3)
    seen = []

    def try_step(state, dt):
        return state

    def record(t, dt, state):
        seen.append(dt)
        return {"t": t, "dt": dt}

    adaptive_time_loop(0.0, cfg, try_step, record)
    expected = [min(1e-2, 1e-3 * 2 ** k) for k in range(8)]
    np.testing.assert_allclose(seen[:8], expected, rtol=1e-12)


def test_adaptive_loop_times_are_rounded_sums_of_the_steps():
    """Every recorded time is the accepted steps' exact sum rounded once, not
    a running sum that gathers round-off, and the last is t_final itself."""
    import math
    for t_final, dt0, dt_max in ((0.4, 1e-3, 1e-2), (1.7, 1e-2, 1e-2), (0.35, 3e-3, 0.05)):
        cfg = StepperConfig(t_final=t_final, dt0=dt0, dt_max=dt_max)
        times, steps = [], []
        attempts = []

        def try_step(state, dt):
            attempts.append(dt)
            if len(attempts) % 7 == 3:  # some rejections, so steps vary
                return NonConvergence(iterations=1, residual_norm=1.0)
            return state

        def record(t, dt, state):
            times.append(t)
            steps.append(dt)
            return {"t": t, "dt": dt}

        adaptive_time_loop(0.0, cfg, try_step, record)
        assert times[-1] == t_final
        for k, t in enumerate(times[:-1]):
            assert t == math.fsum(steps[:k + 1]), (t_final, k)


def test_adaptive_loop_halves_once_on_failure():
    cfg = StepperConfig(t_final=0.01, dt0=1e-3)
    attempts = []

    def try_step(state, dt):
        attempts.append(dt)
        if len(attempts) == 1:
            return NonConvergence(iterations=1, residual_norm=1.0)
        return state

    accepted = []

    def record(t, dt, state):
        accepted.append(dt)
        return {"t": t, "dt": dt}

    adaptive_time_loop(0.0, cfg, try_step, record)
    assert attempts[0] == pytest.approx(1e-3)
    assert attempts[1] == pytest.approx(5e-4)
    assert accepted[0] == pytest.approx(5e-4)
    # next proposal doubles from the accepted step
    assert attempts[2] == pytest.approx(1e-3)


def test_adaptive_loop_aborts_below_dt_min():
    cfg = StepperConfig(t_final=1.0, dt0=1e-3, dt_min=2.5e-4)

    def always_fail(state, dt):
        return NonConvergence(iterations=1, residual_norm=1.0)

    state, t, abort = adaptive_time_loop(0.0, cfg, always_fail,
                                         lambda t, dt, s: {"t": t, "dt": dt})
    assert abort is not None
    assert t == 0.0


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(t_final=1.0, dt0=1.0, dt_max=0.5)
    with pytest.raises(ValueError):
        StepperConfig(t_final=-1.0)
    for bad in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            StepperConfig.fixed(bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            StepperConfig(t_final=bad)


def test_run_transient_fp_records_expected_columns():
    prob = toy_problem(0)
    cfg = StepperConfig.fixed(1e-2, 0.05)
    result = run_transient(prob, UPWIND, cfg)
    trace = result.trace
    assert trace.columns == ("t", "dt", "H_phi1", "H_phi2", "D_phi2", "L1", "L2")
    assert len(trace) == 6
    assert trace.column("t")[0] == 0.0
    assert result.abort_reason is None
    # primary entropy decays monotonically
    h2 = trace.column("H_phi2")
    assert np.all(np.diff(h2) <= 1e-12 * h2[0])



def test_fixed_step_fp_run_uses_one_step_size(monkeypatch):
    steps = []
    start = FpProblem.start

    def spying_start(self, scheme):
        steady, state0, step, diagnostics = start(self, scheme)

        def spy(f_prev, dt):
            steps.append(dt)
            return step(f_prev, dt)

        return steady, state0, spy, diagnostics

    monkeypatch.setattr(FpProblem, "start", spying_start)
    result = run_transient(hetero_problem(1), UPWIND, StepperConfig.fixed(1e-2, 2.0))
    assert set(steps) == {1e-2}
    assert result.trace.column("t")[-1] == 2.0


def test_fixed_step_fp_run_factors_its_stepping_matrix_once(monkeypatch):
    factors = _count_factorizations(monkeypatch)
    result = run_transient(hetero_problem(1), UPWIND, StepperConfig.fixed(1e-2, 2.0))
    assert len(result.trace) == 201
    assert len(factors) == 2  # the steady operator, then the stepping matrix

def test_run_transient_stops_at_entropy_floor():
    prob = toy_problem(0)
    cfg = StepperConfig.fixed(1e-2, 50.0, entropy_floor=1e-6)
    result = run_transient(prob, SCHARFETTER_GUMMEL, cfg)
    assert result.trace.column("t")[-1] < 50.0
    assert result.abort_reason is None
    h2 = result.trace.column("H_phi2")
    assert h2[-1] < 1e-6 * h2[0]
    assert h2[-2] >= 1e-6 * h2[0]


def test_fitted_rate_dominates_theoretical_bound():
    # the guaranteed 2-entropy rate is conservative: the fit must beat it
    from entrofv.entropy import (DEFAULT_POINCARE, fit_decay_rate,
                                 theoretical_rate_fp)
    from entrofv.schemes import b_coefficients
    prob = toy_problem(1)
    mesh, data = prob.mesh, prob.data
    cfg = StepperConfig.fixed(1e-2, 0.8, entropy_floor=1e-32)
    for scheme in SCHEMES.values():
        result = run_transient(prob, scheme, cfg)
        t = result.trace.column("t")
        fit = fit_decay_rate(result.trace, "H_phi2", (0.1, 0.6))
        bm, bp = b_coefficients(mesh, data, scheme)
        active = ~mesh.neumann
        beta = float(min(bm[active].min(), bp[active].min()))
        bound = theoretical_rate_fp(float(data.a_edge.min()),
                                    float(result.steady.min()),
                                    float(result.steady.max()),
                                    beta, mesh.xi, DEFAULT_POINCARE, 1e-2)
        assert fit.rate >= bound


def test_run_transient_pme_and_dd_columns():
    pme = sweep_problem(0, 2.0, 1.0)
    res = run_transient(pme, SCHARFETTER_GUMMEL, StepperConfig(t_final=0.01))
    assert res.trace.columns == ("t", "dt", "N_m", "D_m", "Lmp1")

    dd = pn_problem(0)
    res = run_transient(dd, SCHARFETTER_GUMMEL, StepperConfig.fixed(1e-2, 0.03))
    assert res.trace.columns == ("t", "dt", "E_inf", "E_eq")
    assert np.all(np.isfinite(res.trace.column("E_eq")))

    biased = pn_problem(0, bias=1.0)
    res = run_transient(biased, SCHARFETTER_GUMMEL, StepperConfig.fixed(1e-2, 0.03))
    assert np.all(np.isnan(res.trace.column("E_eq")))
    assert np.all(np.isfinite(res.trace.column("E_inf")))


# ---------------------------------------------------------------------------
# column ordering reused per sparsity pattern


def _record_splu(monkeypatch) -> list:
    """Record the ordering asked for and the pattern of every SuperLU call."""
    calls = []
    splu = linalg.spla.splu

    def recording(a, **kwargs):
        calls.append((kwargs["permc_spec"], getattr(a, "pattern", None)))
        return splu(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording)
    return calls


def _ordered_patterns(calls) -> list:
    """The patterns SuperLU ordered, each once; every other call factors a
    permuted copy, which carries no pattern, with ``NATURAL``."""
    ordered = [pattern for spec, pattern in calls if spec == linalg.PERMC_SPEC]
    assert None not in ordered and len({id(p) for p in ordered}) == len(ordered)
    natural = [pattern for spec, pattern in calls if spec == "NATURAL"]
    assert len(ordered) + len(natural) == len(calls)
    assert natural == [None] * len(natural)
    return ordered


def test_pme_run_orders_each_pattern_once(monkeypatch):
    """The steady Laplacian and the step Jacobians share the mesh's two-point
    pattern, so a porous-medium run orders once and factors every Jacobian
    with ``NATURAL``."""
    calls = _record_splu(monkeypatch)
    result = run_transient(sweep_problem(1, m=2.0, m_dirichlet=1.0), SCHARFETTER_GUMMEL,
                           StepperConfig(t_final=0.05))
    assert result.abort_reason is None
    assert len(_ordered_patterns(calls)) == 1 and len(calls) >= 10


def test_sweep_points_share_one_mesh_and_ordering(tmp_path, monkeypatch):
    """A sweep builds its mesh once, in its first point, and hands it to the
    others: its two-point pattern is ordered once for all five points, and
    every point's outputs match that point run alone, bit for bit."""
    built, meshes = [], []
    build, sweep = presets.reference_mesh, presets.sweep_problem

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def sweeping(*args, **kwargs):
        problem = sweep(*args, **kwargs)
        meshes.append(problem.mesh)
        return problem

    monkeypatch.setattr(presets, "reference_mesh", building)
    monkeypatch.setattr(presets, "sweep_problem", sweeping)
    calls = _record_splu(monkeypatch)
    shared = RunConfig(preset="pme-sweep", level=1, t_final=0.2, out=str(tmp_path / "all"))
    assert run(shared) == 0
    assert len(built) == 1 and len(meshes) == 5
    assert all(mesh is built[0] for mesh in meshes)
    assert len(_ordered_patterns(calls)) == 1

    points = sorted(p for p in (tmp_path / "all").iterdir() if p.is_dir())
    assert len(points) == 5
    for point in points:
        m, md = (float(v) for v in point.name[1:].split("-md"))
        alone = tmp_path / "alone" / point.name
        assert run(replace(shared, m=m, m_dirichlet=md, out=str(alone.parent))) == 0
        assert sorted(f.name for f in alone.iterdir()) == ["steady.txt", "trace.csv"]
        for name in ("steady.txt", "trace.csv"):
            assert (point / name).read_bytes() == (alone / name).read_bytes(), point.name


def test_fp_run_assembles_and_orders_once(monkeypatch):
    """A linear run assembles its operator once; the steady solve orders its
    pattern, and the stepping matrix, shifted on that pattern, reuses it."""
    calls = _record_splu(monkeypatch)
    assembled = []
    assemble = solvers.assemble_fp_operator

    def counting(*args, **kwargs):
        assembled.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solvers, "assemble_fp_operator", counting)
    result = run_transient(toy_problem(1), SCHARFETTER_GUMMEL,
                           StepperConfig.fixed(1e-2, 0.03))
    assert result.abort_reason is None
    assert len(assembled) == 1
    assert len(_ordered_patterns(calls)) == 1 and len(calls) == 2


def test_dd_run_orders_each_structure_once(monkeypatch):
    """A drift-diffusion run orders two structures: the Poisson one, shared
    by the Poisson solves and the thermal-equilibrium Jacobians, and the
    coupled one, shared by the steady and transient Jacobians."""
    calls = _record_splu(monkeypatch)
    result = run_transient(pn_problem(0), SCHARFETTER_GUMMEL,
                           StepperConfig.fixed(1e-2, 0.03))
    assert result.abort_reason is None
    ordered = _ordered_patterns(calls)
    assert [p.template.shape[0] // ordered[0].template.shape[0] for p in ordered] == [1, 3]


def test_shared_mesh_ordering_is_thread_safe():
    """Threads that factor on one fresh mesh at once race on its first
    ordering and permuted structure, and must all get the same solutions."""
    import sys
    import threading
    rng = np.random.default_rng(11)
    workers = 4
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            mesh = reference_mesh(1, BoundarySpec.all_dirichlet())
            f = rng.uniform(0.5, 2.0, mesh.n_cells)
            f_dir = np.where(mesh.dirichlet, 1.5, np.nan)
            b = rng.standard_normal(mesh.n_cells)
            barrier = threading.Barrier(workers)
            results, errors = [None] * workers, []

            def work(k):
                try:
                    barrier.wait(timeout=30)
                    results[k] = [linalg.solve_linear(jac, b) for jac in (
                        assemble_pme_residual(mesh, f, f, 2.0, dt,
                                              pme_boundary_term(mesh, f_dir, 2.0))[1]
                        for dt in (1e-2, 1e-2, 1e-3))]
                except BaseException as err:  # reported below
                    errors.append(err)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for got in results[1:]:
                for x, x_ref in zip(got, results[0]):
                    np.testing.assert_array_equal(x, x_ref)
    finally:
        sys.setswitchinterval(old_interval)


# ---------------------------------------------------------------------------
# failures that name their cause


def test_dd_steady_at_small_debye_length_reports_lost_accuracy():
    """At lambda = 0.1 the static-pivot factors of a far Newton iterate lose
    accuracy: the steady solve says so, with the backward error, rather than
    reporting a singular Jacobian."""
    prob = pn_problem(2, lam=0.1, bias=2.5)
    with pytest.raises(SolverError) as err:
        solve_dd_steady(prob.mesh, prob.dd, SCHARFETTER_GUMMEL, None)
    assert "factors lost accuracy: backward error" in str(err.value)
    assert "singular" not in str(err.value)


def test_pme_overflow_in_f_power_m_is_the_abort_reason():
    """At m = 50 the first Newton iterates overflow f^m: the run aborts with
    that reason and no numpy warning (warnings are errors here)."""
    result = run_transient(*presets.build_problem(RunConfig(preset="pme-fill", m=50.0,
                                                            level=1)))
    assert result.abort_reason is not None
    assert result.abort_reason.endswith("overflow in f^m")


def test_time_loop_does_not_retry_a_step_that_ran_out_of_memory():
    calls = []

    def try_step(state, dt):
        calls.append(dt)
        raise MemoryError("factorization of 4 unknowns: MemoryError()")

    with pytest.raises(MemoryError):
        adaptive_time_loop(0.0, StepperConfig(t_final=1.0), try_step, lambda *args: {})
    assert calls == [StepperConfig.dt0]
