import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from entrofv.linalg import FactorStore
from entrofv.mesh import BoundarySpec, reference_mesh
from entrofv.schemes import (CENTERED, SCHARFETTER_GUMMEL, SCHEMES, UPWIND,
                             AssemblyError, BScheme, DataError, DdData,
                             PecletError, advection_from_potential,
                             assemble_dd_residual, assemble_fp_operator,
                             assemble_pme_residual, assemble_poisson,
                             b_coefficients, discretize_coefficients,
                             edge_differences, edge_fluxes, edge_steady_weight,
                             laplacian, neighbor_values, peclet_guard,
                             pme_boundary_term, poisson_dirichlet_rhs, transport_data)

ALL_SCHEMES = sorted(SCHEMES.items())


# ---------------------------------------------------------------------------
# flux functions


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_b_at_zero(name, scheme):
    assert scheme.b(0.0) == pytest.approx(1.0, abs=1e-14)


def test_upwind_catalog_value():
    assert UPWIND.b(-2.0) == 3.0
    assert UPWIND.b(2.0) == 1.0


def test_centered_catalog_value():
    assert CENTERED.b(1.9) == pytest.approx(0.05)
    assert CENTERED.b(-3.0) == 2.5


def test_sg_difference_identity_at_one():
    gap = SCHARFETTER_GUMMEL.b(-1.0) - SCHARFETTER_GUMMEL.b(1.0)
    assert gap == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_b_identity_sampled(name, scheme, rng):
    # B(-x) - B(x) = x on [-50, 50]; positivity where the scheme claims it
    # (the centered coefficient is positive only below the Peclet threshold)
    xs = rng.uniform(-50, 50, 200)
    gap = scheme.b(-xs) - scheme.b(xs) - xs
    assert np.max(np.abs(gap)) < 1e-12 * max(1.0, np.max(np.abs(xs)))
    positive_on = xs[np.abs(xs) < 2.0] if name == "centered" else xs
    assert np.all(scheme.b(positive_on) > 0)
    slopes = np.abs(np.diff(scheme.b(np.sort(xs))) / np.diff(np.sort(xs)))
    assert slopes.max() < 10.0


def test_sg_series_branch_matches_direct_formula():
    # just inside the series window the direct formula is still accurate
    # enough to cross-check the expansion
    for x in (9e-6, -9e-6, 5e-6):
        series = SCHARFETTER_GUMMEL.b(x)
        direct = x / np.expm1(x)
        assert series == pytest.approx(direct, rel=1e-10)
    xs = np.array([-1e-7, -1e-9, 0.0, 1e-9, 1e-7])
    gap = SCHARFETTER_GUMMEL.b(-xs) - SCHARFETTER_GUMMEL.b(xs) - xs
    assert np.max(np.abs(gap)) < 1e-15


def test_sg_extreme_arguments_stay_finite():
    big = np.array([-800.0, -100.0, 100.0, 800.0])
    vals = SCHARFETTER_GUMMEL.b(big)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(800.0)
    assert vals[-1] >= 0.0


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_b_derivative_matches_finite_differences(name, scheme, rng):
    xs = rng.uniform(-30, 30, 100)
    xs = xs[np.abs(xs) > 1e-3]
    h = 1e-6
    fd = (scheme.b(xs + h) - scheme.b(xs - h)) / (2 * h)
    assert np.max(np.abs(scheme.db(xs) - fd)) < 1e-6


#: Arguments where one side of B or B' is tiny, near 1, or overflows.
SIDE_POINTS = np.array([0.0, 1e-8, -1e-8, 1e-3, -1e-3, 1.0, -1.0, 40.0, -40.0,
                        700.0, -700.0])


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_both_sides_match_direct_evaluations(name, scheme):
    w = SIDE_POINTS
    for slope, direct in ((False, scheme.b), (True, scheme.db)):
        for got, want in zip(scheme.both_sides(w, slope), (direct(-w), direct(w))):
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) + 1e-300), \
                (slope, w[np.abs(got - want) > 4 * np.spacing(np.abs(want)) + 1e-300])


def test_sg_slope_matches_high_precision_reference():
    from decimal import Decimal, localcontext

    def exact(x):
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(float(x))
            if x == 0:
                return -0.5
            em1 = x.exp() - 1
            return float((em1 - x * (em1 + 1)) / (em1 * em1))

    mags = np.concatenate([np.logspace(-9, np.log10(50.0), 80), [1e-3, 0.5, 1.0 - 1e-16, 1.0]])
    xs = np.concatenate([mags, -mags, [0.0]])
    want = np.array([exact(x) for x in xs])
    got = SCHARFETTER_GUMMEL.db(xs)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), \
        xs[np.abs(got - want) > 4 * np.spacing(np.abs(want))]


def test_flux_function_evaluated_once_per_call(mesh1, rng):
    calls = {"fn": 0, "dfn": 0}

    def counted(key, fn):
        def wrapped(x):
            calls[key] += 1
            return fn(x)
        return wrapped

    sg = SCHARFETTER_GUMMEL
    counting = BScheme(name="sg", fn=counted("fn", sg.fn), dfn=counted("dfn", sg.dfn))
    n = mesh1.n_cells
    dd = _random_dd(mesh1, rng)
    state = (rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n))
    r, jac = assemble_dd_residual(mesh1, dd, counting, state[:2], state, 1e-2)
    assert calls == {"fn": 1, "dfn": 1}
    r_ref, jac_ref = assemble_dd_residual(mesh1, dd, sg, state[:2], state, 1e-2)
    np.testing.assert_array_equal(r, r_ref)
    np.testing.assert_array_equal(jac.toarray(), jac_ref.toarray())
    data = transport_data(mesh1, np.ones(mesh1.n_edges), rng.uniform(-50, 50, mesh1.n_edges),
                          np.where(mesh1.dirichlet, 1.0, np.nan))
    pair = b_coefficients(mesh1, data, counting)
    assert calls == {"fn": 2, "dfn": 1}
    for got, want in zip(pair, b_coefficients(mesh1, data, sg)):
        np.testing.assert_array_equal(got, want)


def test_custom_scheme_accepts_sg_clone_and_rejects_junk():
    clone = BScheme.custom(SCHARFETTER_GUMMEL.fn, name="clone")
    assert clone.b(0.3) == pytest.approx(SCHARFETTER_GUMMEL.b(0.3))
    # default derivative comes from central differences
    assert clone.db(np.array(0.7)) == pytest.approx(
        float(SCHARFETTER_GUMMEL.db(np.array(0.7))), abs=1e-6)
    with_dfn = BScheme.custom(SCHARFETTER_GUMMEL.fn, name="clone2",
                              dfn=SCHARFETTER_GUMMEL.dfn)
    assert with_dfn.db(np.array(0.7)) == SCHARFETTER_GUMMEL.db(np.array(0.7))
    with pytest.raises(DataError):
        BScheme.custom(lambda x: np.asarray(x, dtype=float) + 1.0)  # violates identity
    with pytest.raises(DataError):
        BScheme.custom(lambda x: 0.5 - np.asarray(x, dtype=float) / 2.0)  # B(0) != 1


# ---------------------------------------------------------------------------
# data discretization


def test_advection_from_potential_difference_quotient(two_cell_mesh):
    mesh = two_cell_mesh
    phi = mesh.cell_center[:, 0].copy()  # 0.25 and 0.75
    phi_dir = np.where(mesh.dirichlet, [0.0, 0.0, 1.0, 0, 0, 0, 0], np.nan)
    u = advection_from_potential(mesh, phi, phi_dir)
    assert u[0] == pytest.approx(1.0)     # (0.75 - 0.25) / 0.5
    assert u[1] == pytest.approx(-1.0)    # left Dirichlet, (0 - 0.25) / 0.25
    assert u[2] == pytest.approx(1.0)
    assert np.all(u[mesh.neumann] == 0.0)


def test_advection_constant_potential_is_zero(mesh0):
    phi_dir = np.where(mesh0.dirichlet, 5.0, np.nan)
    u = advection_from_potential(mesh0, np.full(mesh0.n_cells, 5.0), phi_dir)
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_advection_missing_dirichlet_value_names_edge(mesh0):
    phi_dir = np.full(mesh0.n_edges, np.nan)
    with pytest.raises(AssemblyError, match="edge"):
        advection_from_potential(mesh0, mesh0.cell_center[:, 0], phi_dir)


def test_toy_unit_gradient_has_max_speed_one(mesh0):
    geo = mesh0.geometry
    phi_dir = np.where(mesh0.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh0, mesh0.cell_center[:, 0], phi_dir)
    assert np.max(np.abs(u)) == pytest.approx(1.0, rel=1e-12)


def test_harmonic_edge_diffusion(two_cell_mesh):
    mesh = two_cell_mesh
    fd = np.where(mesh.dirichlet, 1.0, np.nan)
    data = discretize_coefficients(mesh, np.array([3.0, 0.01]), fd, np.zeros(mesh.n_edges))
    # equal sub-distances: d a_K a_L / (d_L a_K + d_K a_L) = 0.06 / 3.01
    assert data.a_edge[0] == pytest.approx(0.06 / 3.01)
    assert data.a_edge[1] == 3.0
    assert data.a_edge[2] == 0.01


def test_constant_diffusion_everywhere(mesh0):
    fd = np.where(mesh0.dirichlet, 2.0, np.nan)
    data = discretize_coefficients(mesh0, 7.0, fd, np.zeros(mesh0.n_edges))
    np.testing.assert_allclose(data.a_edge, 7.0)


def test_transport_data_validates(two_cell_mesh):
    mesh = two_cell_mesh
    with pytest.raises(DataError):
        transport_data(mesh, -np.ones(mesh.n_edges), np.zeros(mesh.n_edges),
                       np.where(mesh.dirichlet, 1.0, np.nan))
    with pytest.raises(DataError):
        transport_data(mesh, np.ones(mesh.n_edges), np.zeros(mesh.n_edges),
                       np.where(mesh.dirichlet, -1.0, np.nan))


def test_transport_stores_first_cell_advection(two_cell_mesh):
    """The second cell of an edge sees the negation of the stored value, by
    the module's orientation convention: nothing else is stored."""
    mesh = two_cell_mesh
    u = np.where(mesh.interior, 3.0, 0.5)
    data = transport_data(mesh, np.ones(mesh.n_edges), u,
                          np.where(mesh.dirichlet, 1.0, np.nan))
    assert data.u.shape == (mesh.n_edges,)
    np.testing.assert_array_equal(data.u, u)


# ---------------------------------------------------------------------------
# guard and assembly


def _two_cell_data(mesh, a=1.0, u_int=0.0, f_left=1.0, f_right=2.0):
    u = np.where(mesh.interior, u_int, 0.0)
    fd = np.full(mesh.n_edges, np.nan)
    fd[1], fd[2] = f_left, f_right
    return transport_data(mesh, np.full(mesh.n_edges, a), u, fd)


def test_peclet_guard_upwind_always_ok(two_cell_mesh):
    data = _two_cell_data(two_cell_mesh, u_int=500.0)
    assert peclet_guard(two_cell_mesh, data, UPWIND).ok
    # upwind keeps every flux coefficient at 1 or above, from either side
    w = data.u * two_cell_mesh.edge_d / data.a_edge
    assert np.all(UPWIND.b(np.concatenate([w, -w])) >= 1.0)


def test_peclet_guard_centered_boundary_cases(two_cell_mesh):
    ok = _two_cell_data(two_cell_mesh, u_int=3.8)      # |u| d / a = 1.9
    assert peclet_guard(two_cell_mesh, ok, CENTERED).ok
    bad = _two_cell_data(two_cell_mesh, u_int=4.2)     # 2.1 -> negative B
    report = peclet_guard(two_cell_mesh, bad, CENTERED)
    assert not report.ok
    assert any(edge == 0 for _, edge, _ in report.violations)


def test_assemble_refuses_peclet_violation(two_cell_mesh):
    bad = _two_cell_data(two_cell_mesh, u_int=4.2)
    with pytest.raises(PecletError):
        assemble_fp_operator(two_cell_mesh, bad, CENTERED)
    m_op, _ = assemble_fp_operator(two_cell_mesh, bad, CENTERED, force=True)
    assert m_op.shape == (2, 2)


def test_fp_operator_two_cell_oracle(two_cell_mesh):
    data = _two_cell_data(two_cell_mesh)
    m_op, b = assemble_fp_operator(two_cell_mesh, data, UPWIND)
    np.testing.assert_allclose(m_op.toarray(), [[6.0, -2.0], [-2.0, 6.0]])
    np.testing.assert_allclose(b, [4.0, 8.0])


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_fp_operator_symmetric_without_advection(name, scheme, mesh1, rng):
    fd = np.where(mesh1.dirichlet, rng.uniform(0.5, 2.0, mesh1.n_edges), np.nan)
    data = discretize_coefficients(mesh1, rng.uniform(0.5, 3.0, mesh1.n_cells), fd,
                                   np.zeros(mesh1.n_edges))
    m_op, _ = assemble_fp_operator(mesh1, data, scheme)
    dense = m_op.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-13)


def test_divergence_free_row_sums():
    # full Dirichlet boundary, constant advection from a linear potential
    mesh = reference_mesh(1, BoundarySpec.all_dirichlet())
    geo = mesh.geometry
    phi_cells = 0.7 * mesh.cell_center[:, 0] - 0.3 * mesh.cell_center[:, 1]
    phi_dir = np.where(mesh.dirichlet,
                       0.7 * geo.edge_midpoint[:, 0] - 0.3 * geo.edge_midpoint[:, 1],
                       np.nan)
    u = advection_from_potential(mesh, phi_cells, phi_dir)
    fd = np.where(mesh.dirichlet, 1.0, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), u, fd)
    for scheme in SCHEMES.values():
        m_op, _ = assemble_fp_operator(mesh, data, scheme)
        row_sums = np.asarray(m_op.sum(axis=1)).ravel()
        bm, bp = b_coefficients(mesh, data, scheme)
        ta = mesh.tau * data.a_edge
        dirichlet_cols = np.zeros(mesh.n_cells)
        np.add.at(dirichlet_cols, mesh.edge_cells[mesh.dirichlet, 0],
                  (ta * bp)[mesh.dirichlet])
        np.testing.assert_allclose(row_sums - dirichlet_cols, 0.0, atol=1e-12)


def test_flux_formula_oracle(two_cell_mesh):
    # tau = 2, a = 1, u d / a = 1, upwind, f = (2, 1):
    # 2 * (B(-1) * 2 - B(1) * 1) = 2 * (2 * 2 - 1) = 6
    data = _two_cell_data(two_cell_mesh, u_int=2.0)
    f = np.array([2.0, 1.0])
    assert edge_fluxes(two_cell_mesh, data, UPWIND, f)[0] == pytest.approx(6.0)


def _brute_force_fp_operator(mesh, data, scheme):
    """Independent oracle: assemble the operator cell by cell with loops."""
    n = mesh.n_cells
    dense = np.zeros((n, n))
    b = np.zeros(n)
    for e in range(mesh.n_edges):
        if mesh.edge_tag[e] == 2:  # no-flux edge
            continue
        tau_a = mesh.edge_length[e] / mesh.edge_d[e] * data.a_edge[e]
        for slot in (0, 1):
            k = mesh.edge_cells[e, slot]
            if k < 0:
                continue
            w = (data.u[e] if slot == 0 else -data.u[e]) * mesh.edge_d[e] / data.a_edge[e]
            dense[k, k] += tau_a * float(scheme.b(-w))
            if mesh.edge_tag[e] == 0:
                other = mesh.edge_cells[e, 1 - slot]
                dense[k, other] -= tau_a * float(scheme.b(w))
            else:
                b[k] += tau_a * float(scheme.b(w)) * data.f_dirichlet[e]
    return dense, b


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_fp_operator_matches_brute_force(name, scheme, mesh0, rng):
    geo = mesh0.geometry
    phi_dir = np.where(mesh0.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh0, 1.4 * mesh0.cell_center[:, 0], 1.4 * phi_dir)
    fd = np.where(mesh0.dirichlet, rng.uniform(0.5, 2.0, mesh0.n_edges), np.nan)
    data = transport_data(mesh0, rng.uniform(0.5, 2.0, mesh0.n_edges), u, fd)
    m_op, b = assemble_fp_operator(mesh0, data, scheme)
    dense, b_ref = _brute_force_fp_operator(mesh0, data, scheme)
    np.testing.assert_allclose(m_op.toarray(), dense, atol=1e-13)
    np.testing.assert_allclose(b, b_ref, atol=1e-13)


def test_flux_matches_operator_action(mesh0, rng):
    geo = mesh0.geometry
    phi_dir = np.where(mesh0.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh0, mesh0.cell_center[:, 0], phi_dir)
    fd = np.where(mesh0.dirichlet, rng.uniform(0.5, 2.0, mesh0.n_edges), np.nan)
    data = transport_data(mesh0, rng.uniform(0.5, 2.0, mesh0.n_edges), u, fd)
    f = rng.uniform(0.1, 5.0, mesh0.n_cells)
    for scheme in SCHEMES.values():
        m_op, b = assemble_fp_operator(mesh0, data, scheme)
        flux_sum = _cell_sums(mesh0, edge_fluxes(mesh0, data, scheme, f))
        np.testing.assert_allclose(flux_sum, m_op @ f - b, atol=1e-12)


def _flux_from_second_cell(mesh, data, scheme, f, e):
    """Flux leaving the second cell of interior edge ``e``, from its own
    advection ``-u[e]``."""
    k, l = mesh.edge_cells[e]
    bm, bp = scheme.both_sides(np.array([-data.u[e] * mesh.edge_d[e] / data.a_edge[e]]))
    return mesh.tau[e] * data.a_edge[e] * (bm[0] * f[l] - bp[0] * f[k])


def test_flux_neumann_zero_and_conservative(two_cell_mesh, rng):
    data = _two_cell_data(two_cell_mesh, u_int=1.3)
    for scheme in SCHEMES.values():
        f = rng.uniform(0.1, 5.0, 2)
        flux = edge_fluxes(two_cell_mesh, data, scheme, f)
        assert flux[3] == 0.0
        assert flux[0] + _flux_from_second_cell(two_cell_mesh, data, scheme, f, 0) == 0.0


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_b_coefficient_orientation_relation(name, scheme, mesh0, rng):
    geo = mesh0.geometry
    phi_dir = np.where(mesh0.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh0, 2.3 * mesh0.cell_center[:, 0], 2.3 * phi_dir)
    fd = np.where(mesh0.dirichlet, 1.0, np.nan)
    data = transport_data(mesh0, np.ones(mesh0.n_edges), u, fd)
    bm, bp = b_coefficients(mesh0, data, scheme)
    # seen from the second cell the advection flips sign, so B- and B+ swap
    w2 = -data.u * mesh0.edge_d / data.a_edge
    inter = mesh0.interior
    np.testing.assert_allclose(scheme.b(-w2[inter]), bp[inter], rtol=1e-14)
    np.testing.assert_allclose(scheme.b(w2[inter]), bm[inter], rtol=1e-14)


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_edge_steady_weight_properties(name, scheme, two_cell_mesh, rng):
    mesh = two_cell_mesh
    data = _two_cell_data(mesh, u_int=0.0, f_left=3.0, f_right=3.0)
    w = edge_steady_weight(mesh, data, scheme, np.array([3.0, 3.0]))
    assert w[0] == pytest.approx(3.0)
    assert w[1] == pytest.approx(3.0)
    assert np.all(w[mesh.neumann] == 0.0)
    # orientation independence on the interior edge
    data2 = _two_cell_data(mesh, u_int=1.7)
    f_inf = rng.uniform(0.5, 2.0, 2)
    w = edge_steady_weight(mesh, data2, scheme, f_inf)
    bm, bp = b_coefficients(mesh, data2, scheme)
    swapped = min(bp[0] * f_inf[1], bm[0] * f_inf[0])
    assert w[0] == pytest.approx(swapped, rel=1e-14)


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_flux_reformulation_identity(name, scheme, mesh0, rng):
    """Transient flux equals its upwind-plus-diffusion split around any
    positive reference field sharing the Dirichlet data."""
    mesh = mesh0
    geo = mesh.geometry
    phi_dir = np.where(mesh.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh, 1.7 * mesh.cell_center[:, 0], 1.7 * phi_dir)
    f_dir = np.where(mesh.dirichlet, rng.uniform(0.5, 2.0, mesh.n_edges), np.nan)
    data = transport_data(mesh, rng.uniform(0.5, 2.0, mesh.n_edges), u, f_dir)

    f_ref = rng.uniform(0.2, 3.0, mesh.n_cells)
    h = rng.uniform(0.2, 3.0, mesh.n_cells)
    flux_ref = edge_fluxes(mesh, data, scheme, f_ref)
    flux_now = edge_fluxes(mesh, data, scheme, h * f_ref)

    ones = np.ones(mesh.n_edges)
    dh = edge_differences(mesh, h, ones)
    h_opp = neighbor_values(mesh, h, ones)
    weight = edge_steady_weight(mesh, data, scheme, f_ref)
    split = (np.maximum(flux_ref, 0.0) * h[mesh.edge_cells[:, 0]]
             - np.maximum(-flux_ref, 0.0) * h_opp
             - mesh.tau * data.a_edge * weight * dh)
    scale = np.max(np.abs(flux_now)) + 1.0
    np.testing.assert_allclose(flux_now, split, atol=1e-12 * scale)


def test_sg_exact_for_exponential_of_potential(mesh1, rng):
    """Exponentials of any discrete potential annihilate every SG flux."""
    mesh = mesh1
    phi_cells = rng.uniform(-1.5, 1.5, mesh.n_cells)
    phi_dir = np.where(mesh.dirichlet, rng.uniform(-1.5, 1.5, mesh.n_edges), np.nan)
    u = advection_from_potential(mesh, phi_cells, phi_dir)
    f_dir = np.where(mesh.dirichlet, np.exp(phi_dir), np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), u, f_dir)
    flux = edge_fluxes(mesh, data, SCHARFETTER_GUMMEL, np.exp(phi_cells))
    assert np.max(np.abs(flux)) < 1e-12 * np.max(mesh.tau * np.exp(1.5))


# ---------------------------------------------------------------------------
# nonlinear residuals


def test_pme_residual_zero_at_fixed_point(two_cell_mesh):
    mesh = two_cell_mesh
    fd = np.where(mesh.dirichlet, 2.0, np.nan)
    f = np.full(2, 2.0)
    residual, _ = assemble_pme_residual(mesh, f, f, 3.0, 1e-2, pme_boundary_term(mesh, fd, 3.0))
    np.testing.assert_allclose(residual, 0.0, atol=1e-14)


def test_pme_residual_single_cell_no_flux(single_cell_mesh):
    mesh = single_cell_mesh
    fd = np.full(mesh.n_edges, np.nan)
    f_prev = np.array([1.0])
    f = np.array([1.7])
    residual, _ = assemble_pme_residual(mesh, f_prev, f, 4.0, 0.1,
                                        pme_boundary_term(mesh, fd, 4.0))
    assert residual[0] == pytest.approx(1.0 * (1.7 - 1.0) / 0.1)


def test_pme_jacobian_matches_finite_differences(mesh0, rng):
    mesh = mesh0
    fd = np.where(mesh.dirichlet, rng.uniform(0.5, 2.0, mesh.n_edges), np.nan)
    f_prev = rng.uniform(0.1, 10.0, mesh.n_cells)
    f = rng.uniform(0.1, 10.0, mesh.n_cells)
    boundary = pme_boundary_term(mesh, fd, 4.0)
    _, jac = assemble_pme_residual(mesh, f_prev, f, 4.0, 1e-3, boundary)
    v = rng.standard_normal(mesh.n_cells)
    h = 1e-7
    rp = assemble_pme_residual(mesh, f_prev, f + h * v, 4.0, 1e-3, boundary)[0]
    rm = assemble_pme_residual(mesh, f_prev, f - h * v, 4.0, 1e-3, boundary)[0]
    jv = jac @ v
    assert np.max(np.abs(jv - (rp - rm) / (2 * h))) < 1e-5 * np.max(np.abs(jv))


def _random_dd(mesh, rng, lam=1.0):
    dmask = mesh.dirichlet
    nd = np.where(dmask, rng.uniform(0.5, 3.0, mesh.n_edges), np.nan)
    pd = np.where(dmask, rng.uniform(0.5, 3.0, mesh.n_edges), np.nan)
    vd = np.where(dmask, rng.uniform(-1.0, 1.0, mesh.n_edges), np.nan)
    return DdData(doping=rng.uniform(-1.0, 1.0, mesh.n_cells), debye=lam,
                  n_dirichlet=nd, p_dirichlet=pd, v_dirichlet=vd)


def test_dd_residual_zero_for_matching_constants(two_cell_mesh):
    mesh = two_cell_mesh
    dmask = mesh.dirichlet
    ones_d = np.where(dmask, 1.0, np.nan)
    zeros_d = np.where(dmask, 0.0, np.nan)
    dd = DdData(doping=np.zeros(2), debye=1.0, n_dirichlet=ones_d,
                p_dirichlet=ones_d, v_dirichlet=zeros_d)
    state = (np.ones(2), np.ones(2), np.zeros(2))
    for scheme in SCHEMES.values():
        residual, _ = assemble_dd_residual(mesh, dd, scheme, None, state, None)
        np.testing.assert_allclose(residual, 0.0, atol=1e-14)


@pytest.mark.parametrize("name,scheme", ALL_SCHEMES)
def test_dd_jacobian_matches_finite_differences(name, scheme, mesh0, rng):
    mesh = mesh0
    n = mesh.n_cells
    dd = _random_dd(mesh, rng)
    state = rng.uniform(0.1, 10.0, 3 * n)
    prev = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n))

    def residual(x):
        return assemble_dd_residual(mesh, dd, scheme, prev,
                                    (x[:n], x[n:2 * n], x[2 * n:]), 1e-2)[0]

    _, jac = assemble_dd_residual(
        mesh, dd, scheme, prev, (state[:n], state[n:2 * n], state[2 * n:]), 1e-2)
    v = rng.standard_normal(3 * n)
    h = 1e-7
    fd = (residual(state + h * v) - residual(state - h * v)) / (2 * h)
    jv = jac @ v
    assert np.max(np.abs(jv - fd)) < 1e-5 * np.max(np.abs(jv))


def test_dd_hole_electron_symmetry(mesh0, rng):
    """Flipping the potential maps the hole stencil onto the electron one."""
    mesh = mesh0
    n = mesh.n_cells
    dmask = mesh.dirichlet
    rho_d = np.where(dmask, rng.uniform(0.5, 3.0, mesh.n_edges), np.nan)
    vd = np.where(dmask, rng.uniform(-1.0, 1.0, mesh.n_edges), np.nan)
    other = np.where(dmask, 1.0, np.nan)
    doping = np.zeros(n)
    rho = rng.uniform(0.1, 10.0, n)
    v = rng.uniform(-2.0, 2.0, n)
    filler = np.ones(n)

    dd_n = DdData(doping=doping, debye=1.0, n_dirichlet=rho_d,
                  p_dirichlet=other, v_dirichlet=vd)
    dd_p = DdData(doping=doping, debye=1.0, n_dirichlet=other,
                  p_dirichlet=rho_d, v_dirichlet=-vd)
    for scheme in SCHEMES.values():
        r_n, _ = assemble_dd_residual(mesh, dd_n, scheme, None, (rho, filler, v), None)
        r_p, _ = assemble_dd_residual(mesh, dd_p, scheme, None, (filler, rho, -v), None)
        np.testing.assert_allclose(r_p[n:2 * n], r_n[:n], atol=1e-12)


def test_poisson_two_cell_oracle(two_cell_mesh):
    a_mat = assemble_poisson(two_cell_mesh, 1.0)
    np.testing.assert_allclose(a_mat.toarray(), [[6.0, -2.0], [-2.0, 6.0]])


def test_poisson_constant_field_balances(mesh0):
    a_mat = assemble_poisson(mesh0, 2.0)
    v_dir = np.where(mesh0.dirichlet, 3.0, np.nan)
    b = poisson_dirichlet_rhs(mesh0, 2.0, v_dir)
    np.testing.assert_allclose(a_mat @ np.full(mesh0.n_cells, 3.0) - b,
                               0.0, atol=1e-12)


def test_poisson_symmetric_positive_definite(two_cell_mesh, mesh0):
    for mesh in (two_cell_mesh, mesh0):
        dense = assemble_poisson(mesh, 1.0).toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(dense) > 0)


def test_poisson_is_built_once_per_mesh_and_debye_length():
    """Every Poisson solve of a run reuses one matrix per Debye length, so
    its values are read-only, as the Laplacian's are."""
    mesh = reference_mesh(0, BoundarySpec.all_dirichlet())
    a_mat = assemble_poisson(mesh, 0.3)
    assert assemble_poisson(mesh, 0.3) is a_mat
    other = assemble_poisson(mesh, 0.6)
    assert other is not a_mat
    np.testing.assert_allclose(other.toarray(), 4.0 * a_mat.toarray(), rtol=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        a_mat.data[0] = 1.0


# ---------------------------------------------------------------------------
# fixed sparsity patterns, against the COO assembly they replaced

PATTERN_MESHES = ("two_cell_mesh", "single_cell_mesh", "mesh0", "mesh1")

#: Most entries any operator below sums into one matrix slot: three edges of
#: a triangle, the time term, and a diagonal shift.  Two summation orders of
#: k terms differ by at most (k - 1) eps times the sum of their magnitudes.
MAX_SUMMED = 5


def _coo(size, rows, cols, vals):
    """The old assembly: COO triplet pieces summed by scipy's ``tocsr``, with
    a stored zero on every diagonal slot, as every pattern has one; also the
    sums of magnitudes and the number of terms in every slot."""
    eye = np.arange(size)
    rows, cols, vals = (np.concatenate([*x, y]) for x, y in
                        ((rows, eye), (cols, eye), (vals, np.zeros(size))))

    def csr(data):
        return sp.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()

    return csr(vals), csr(np.abs(vals)), csr(np.concatenate([np.ones(vals.size - size),
                                                            np.zeros(size)]))


def _coo_tpfa(mesh, p, q):
    c0, c1 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    inter, active = mesh.interior, ~mesh.neumann
    return ([c0[active], c0[inter], c1[inter], c1[inter]],
            [c0[active], c1[inter], c1[inter], c0[inter]],
            [p[active], -q[inter], q[inter], -p[inter]])


def _coo_dd(mesh, dd, scheme, state_prev, state, dt):
    """The drift-diffusion Jacobian triplets as the old assembly emitted them."""
    n_field, p_field, v_field = state
    n = mesh.n_cells
    c0, c1 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    inter, active, tau = mesh.interior, ~mesh.neumann, mesh.tau
    w = edge_differences(mesh, v_field, dd.v_dirichlet)
    bm, bp = scheme.b(-w), scheme.b(w)
    dbm, dbp = scheme.db(-w), scheme.db(w)
    n_opp = neighbor_values(mesh, n_field, dd.n_dirichlet)
    p_opp = neighbor_values(mesh, p_field, dd.p_dirichlet)
    dflux_n = np.where(active, tau * (-dbm * n_field[c0] - dbp * n_opp), 0.0)
    dflux_p = np.where(active, tau * (dbp * p_field[c0] + dbm * p_opp), 0.0)
    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(np.asarray(v, dtype=float))

    eye, ii, jj = np.arange(n), c0[inter], c1[inter]
    put(c0[active], c0[active], (tau * bm)[active])
    put(ii, jj, -(tau * bp)[inter])
    put(jj, jj, (tau * bp)[inter])
    put(jj, ii, -(tau * bm)[inter])
    put(n + c0[active], n + c0[active], (tau * bp)[active])
    put(n + ii, n + jj, -(tau * bm)[inter])
    put(n + jj, n + jj, (tau * bm)[inter])
    put(n + jj, n + ii, -(tau * bp)[inter])
    if dt is not None:
        put(eye, eye, mesh.cell_area / dt)
        put(n + eye, n + eye, mesh.cell_area / dt)
    for base, dflx in ((0, dflux_n), (n, dflux_p)):
        put(base + c0[active], 2 * n + c0[active], -dflx[active])
        put(base + ii, 2 * n + jj, dflx[inter])
        put(base + jj, 2 * n + ii, dflx[inter])
        put(base + jj, 2 * n + jj, -dflx[inter])
    t2 = dd.debye ** 2 * tau
    put(2 * n + c0[active], 2 * n + c0[active], t2[active])
    put(2 * n + ii, 2 * n + jj, -t2[inter])
    put(2 * n + jj, 2 * n + jj, t2[inter])
    put(2 * n + jj, 2 * n + ii, -t2[inter])
    put(2 * n + eye, eye, mesh.cell_area)
    put(2 * n + eye, n + eye, -mesh.cell_area)
    return rows, cols, vals


def _assert_same_matrix(got, reference):
    ref, magnitude, terms = reference
    got = got.tocsr()
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    assert terms.data.max(initial=0) <= MAX_SUMMED
    bound = (MAX_SUMMED - 1) * np.finfo(float).eps * magnitude.data
    assert np.all(np.abs(got.data - ref.data) <= bound)


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_pattern_assembly_matches_coo_reference(mesh_name, request, rng):
    from entrofv.schemes import add_diagonal
    mesh = request.getfixturevalue(mesh_name)
    n, dmask = mesh.n_cells, mesh.dirichlet

    f_dir = np.where(dmask, rng.uniform(0.5, 2.0, mesh.n_edges), np.nan)
    data = transport_data(mesh, rng.uniform(0.5, 2.0, mesh.n_edges),
                          rng.uniform(-1.0, 1.0, mesh.n_edges), f_dir)
    for scheme in SCHEMES.values():
        m_op, _ = assemble_fp_operator(mesh, data, scheme, force=True)
        bm, bp = b_coefficients(mesh, data, scheme)
        ta = mesh.tau * data.a_edge
        ref = _coo(n, *_coo_tpfa(mesh, ta * bm, ta * bp))
        _assert_same_matrix(m_op, ref)

        # the stepping matrix that FpProblem's steps factor
        step_ref = (sp.diags(mesh.cell_area / 0.3) + ref[0]).tocsr()
        _assert_same_matrix(add_diagonal(m_op, mesh.cell_area / 0.3),
                            (step_ref, abs(sp.diags(mesh.cell_area / 0.3)) + ref[1],
                             ref[2] + sp.identity(n)))

    f = rng.uniform(0.1, 2.0, n)
    _, jac = assemble_pme_residual(mesh, f, f, 3.0, 0.2, pme_boundary_term(mesh, f_dir, 3.0))
    dpow = 3.0 * f ** 2
    c0, c1 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    rows, cols, vals = _coo_tpfa(mesh, mesh.tau * dpow[c0], mesh.tau * dpow[c1])
    _assert_same_matrix(jac, _coo(n, [np.arange(n), *rows], [np.arange(n), *cols],
                                  [mesh.cell_area / 0.2, *vals]))

    t = 0.7 ** 2 * mesh.tau
    poisson = assemble_poisson(mesh, 0.7)
    rows, cols, vals = _coo_tpfa(mesh, t, t)
    _assert_same_matrix(poisson, _coo(n, rows, cols, vals))
    shift = rng.uniform(0.1, 2.0, n)  # the thermal-equilibrium Jacobian
    _assert_same_matrix(add_diagonal(poisson, shift),
                        _coo(n, [np.arange(n), *rows], [np.arange(n), *cols],
                             [shift, *vals]))

    dd = _random_dd(mesh, rng)
    state = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n),
             rng.uniform(-2.0, 2.0, n))
    prev = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n))
    for scheme in SCHEMES.values():
        for state_prev, dt in ((None, None), (prev, 1e-2)):
            _, jac = assemble_dd_residual(mesh, dd, scheme, state_prev, state, dt)
            _assert_same_matrix(jac, _coo(3 * n, *_coo_dd(mesh, dd, scheme,
                                                          state_prev, state, dt)))


def test_step_pme_builds_its_pattern_once(monkeypatch):
    from entrofv import schemes
    from entrofv.presets import fill_problem
    from entrofv.solvers import step_pme
    built = []
    build = schemes._build_pattern

    def counting(mesh, layout):
        built.append(layout)
        return build(mesh, layout)

    monkeypatch.setattr(schemes, "_build_pattern", counting)
    prob = fill_problem(0)
    boundary = pme_boundary_term(prob.mesh, prob.f_dirichlet, prob.m)
    f = prob.f0
    for _ in range(3):
        f = step_pme(prob.mesh, f, prob.m, 1e-3, FactorStore(), boundary)
    assert len(built) == 1


def test_shared_mesh_patterns_are_thread_safe(toy_boundary):
    """Threads that assemble on one fresh mesh at once race on its first
    pattern build and must all get the same matrices."""
    import sys
    import threading
    rng = np.random.default_rng(7)
    workers = 4
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            mesh = reference_mesh(1, toy_boundary)
            n = mesh.n_cells
            f = rng.uniform(0.5, 2.0, n)
            f_dir = np.where(mesh.dirichlet, 1.5, np.nan)
            dd = _random_dd(mesh, rng)
            state = (f, f[::-1].copy(), rng.uniform(-1.0, 1.0, n))
            barrier = threading.Barrier(workers)
            results, errors = [None] * workers, []

            def work(k):
                try:
                    barrier.wait(timeout=30)
                    results[k] = [
                        assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, (f, f),
                                             state, 1e-2)[1],
                        assemble_pme_residual(mesh, f, f, 2.0, 1e-2,
                                              pme_boundary_term(mesh, f_dir, 2.0))[1],
                        assemble_poisson(mesh, 1.0)]
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
                for a, b in zip(got, results[0]):
                    assert a.shape == b.shape
                    for name in ("indptr", "indices", "data"):
                        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    finally:
        sys.setswitchinterval(old_interval)


def _cell_sums(mesh, per_edge):
    """Per cell, the sum of an antisymmetric per-edge quantity given from the
    first cell's side: its first-cell incidences in edge order, then its
    second-cell ones."""
    sums = np.zeros(mesh.n_cells)
    np.add.at(sums, mesh.edge_cells[:, 0], per_edge)
    inter = mesh.interior
    np.add.at(sums, mesh.edge_cells[inter, 1], -per_edge[inter])
    return sums


def _dd_residual_loop(mesh, dd, scheme, state_prev, state, dt):
    """The drift-diffusion residual, one edge at a time from the definition:
    B(-w) and B(w) apart, a flux for every edge that is not no-flux."""
    n_field, p_field, v_field = state
    sums = np.zeros((3, mesh.n_cells))  # N and P flux balances, sums of tau w
    for e in np.flatnonzero(~mesh.neumann):
        k, l = mesh.edge_cells[e]
        if mesh.interior[e]:
            n_l, p_l, v_l = n_field[l], p_field[l], v_field[l]
        else:
            n_l, p_l, v_l = dd.n_dirichlet[e], dd.p_dirichlet[e], dd.v_dirichlet[e]
        w, tau = v_l - v_field[k], mesh.tau[e]
        bm, bp = float(scheme.b(-w)), float(scheme.b(w))
        flows = (tau * (bm * n_field[k] - bp * n_l), tau * (bp * p_field[k] - bm * p_l), tau * w)
        for row, flow in enumerate(flows):
            sums[row, k] += flow
            if mesh.interior[e]:
                sums[row, l] -= flow
    area = mesh.cell_area
    r_n, r_p = sums[0], sums[1]
    if dt is not None:
        r_n = r_n + area * (n_field - state_prev[0]) / dt
        r_p = r_p + area * (p_field - state_prev[1]) / dt
    r_v = -dd.debye ** 2 * sums[2] - area * (p_field - n_field + dd.doping)
    return np.concatenate([r_n, r_p, r_v])


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_dd_residual_matches_per_edge_loop(mesh_name, request, rng):
    """The one-pass residual, steady and transient, on meshes with interior,
    Dirichlet and no-flux edges, and on the single cell, where no edge
    carries a flux and the residual still holds floats."""
    mesh = request.getfixturevalue(mesh_name)
    n = mesh.n_cells
    dd = _random_dd(mesh, rng, lam=0.7)
    state = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n), rng.uniform(-2.0, 2.0, n))
    prev = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n))
    for scheme in SCHEMES.values():
        for state_prev, dt in ((None, None), (prev, 1e-2)):
            got, none = assemble_dd_residual(mesh, dd, scheme, state_prev, state, dt,
                                             jacobian=False)
            expected = _dd_residual_loop(mesh, dd, scheme, state_prev, state, dt)
            assert none is None and got.dtype == np.float64 and got.shape == (3 * n,)
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-13 * (1.0 + np.max(np.abs(expected))))


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_neighbor_values_equal_masked_reference(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    f = rng.standard_normal(mesh.n_cells)
    dvals = np.where(mesh.dirichlet, rng.standard_normal(mesh.n_edges), np.nan)
    # the boolean-mask gathers neighbor_values used before
    expected = f[mesh.edge_cells[:, 0]].copy()
    expected[mesh.interior] = f[mesh.edge_cells[mesh.interior, 1]]
    expected[mesh.dirichlet] = dvals[mesh.dirichlet]
    np.testing.assert_array_equal(neighbor_values(mesh, f, dvals), expected)


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_pme_residual_matches_gather_reference(mesh_name, request, rng):
    from entrofv.schemes import signed_power
    mesh = request.getfixturevalue(mesh_name)
    n = mesh.n_cells
    f_dir = np.where(mesh.dirichlet, rng.uniform(0.5, 2.0, mesh.n_edges), np.nan)
    for m, dt in ((2.0, 1e-3), (4.0, 0.3)):
        f_prev, f = rng.uniform(0.0, 3.0, n), rng.uniform(-0.1, 3.0, n)
        got, _ = assemble_pme_residual(mesh, f_prev, f, m, dt, pme_boundary_term(mesh, f_dir, m))
        # the gather/bincount residual: area (f - f_prev) / dt - sum tau D(f^m)
        flux = mesh.tau * edge_differences(mesh, signed_power(f, m), signed_power(f_dir, m))
        expected = mesh.cell_area * (f - f_prev) / dt - _cell_sums(mesh, flux)
        g_nb = neighbor_values(mesh, np.abs(f) ** m, np.abs(f_dir) ** m)
        size = np.where(mesh.neumann, 0.0, mesh.tau * (np.abs(f[mesh.edge_cells[:, 0]]) ** m
                                                       + g_nb))
        inter = mesh.interior  # magnitudes summed over both incidences of an edge
        scale = np.abs(mesh.cell_area * (f - f_prev) / dt) + np.bincount(
            np.concatenate([mesh.edge_cells[:, 0], mesh.edge_cells[inter, 1]]),
            weights=np.concatenate([size, size[inter]]), minlength=n)
        assert np.all(np.abs(got - expected) <= 8 * np.finfo(float).eps * scale)


def test_pme_residual_names_missing_dirichlet_edge(mesh0):
    f = np.ones(mesh0.n_cells)
    f_dir = np.where(mesh0.dirichlet, 1.0, np.nan)
    edge = int(np.flatnonzero(mesh0.dirichlet)[2])
    f_dir[edge] = np.nan
    with pytest.raises(AssemblyError, match=f"edge {edge}$"):
        assemble_pme_residual(mesh0, f, f, 2.0, 1e-2, pme_boundary_term(mesh0, f_dir, 2.0))


def test_pme_steps_validate_each_structure_once(monkeypatch):
    """scipy checks a CSC structure each time it builds a matrix from index
    arrays; fixed-pattern matrices are shallow copies of one checked matrix
    per pattern and one per permuted structure."""
    from entrofv.presets import fill_problem
    from entrofv.solvers import step_pme
    built = []
    init = sp.csc_matrix.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csc_matrix, "__init__", counting)
    prob = fill_problem(0)  # a fresh mesh: no pattern built yet
    boundary = pme_boundary_term(prob.mesh, prob.f_dirichlet, prob.m)
    f = prob.f0
    for _ in range(2):
        f = step_pme(prob.mesh, f, prob.m, 1e-3, FactorStore(), boundary)
    # the two-point pattern's structure, then its permuted copy
    assert len(built) == 2
    for _ in range(3):
        f = step_pme(prob.mesh, f, prob.m, 1e-3, FactorStore(), boundary)
    assert len(built) == 2


def _unique_pattern(rows, cols, size):
    """The construction ``from_pairs`` replaced, kept as its reference: one
    ``np.unique`` over the int64 keys col * size + row."""
    keys, slots = np.unique(np.asarray(cols, dtype=np.int64) * size + rows,
                            return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size)
    return indptr.astype(np.intc), (keys % size).astype(np.intc), slots


def _assert_unique_pattern(pattern, rows, cols):
    """``pattern`` is the reference pattern of the emitted (row, col) entries
    and the whole diagonal, and ``pattern.diagonal`` addresses (k, k)."""
    template = pattern.template
    size = template.shape[0]
    eye = np.arange(size)
    indptr, indices, slots = _unique_pattern(np.concatenate([rows, eye]),
                                             np.concatenate([cols, eye]), size)
    np.testing.assert_array_equal(template.indptr, indptr)
    np.testing.assert_array_equal(template.indices, indices)
    np.testing.assert_array_equal(pattern.slots, slots[:len(rows)])
    np.testing.assert_array_equal(pattern.diagonal, slots[len(rows):])
    np.testing.assert_array_equal(template.indices[pattern.diagonal], eye)
    np.testing.assert_array_equal(np.searchsorted(template.indptr, pattern.diagonal,
                                                  side="right") - 1, eye)
    assert template.indptr.dtype == template.indices.dtype == np.intc
    assert template.has_canonical_format


def test_from_pairs_matches_unique_on_random_pairs(rng):
    from entrofv.schemes import SparsityPattern
    for size, count in ((1, 4), (7, 60), (50, 400), (200, 300)):
        rows, cols = rng.integers(0, size, count), rng.integers(0, size, count)
        _assert_unique_pattern(SparsityPattern.from_pairs(rows, cols, size), rows, cols)
    # every third column empty
    cols = np.repeat(np.arange(0, 30, 3), 4)
    rows = rng.integers(0, 30, cols.size)
    _assert_unique_pattern(SparsityPattern.from_pairs(rows, cols, 30), rows, cols)


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_package_patterns_match_unique(mesh_name, request, rng):
    """A mesh holds two block layouts, whatever the package assembles on it:
    the two-point one ("tpfa"), shared by the FP operator and step matrix,
    the Laplacian, the porous-medium Jacobian and the Poisson matrix and
    thermal-equilibrium Jacobian, and the coupled one of the steady and
    transient DD Jacobians."""
    from entrofv.schemes import _block_entries, add_diagonal
    mesh = request.getfixturevalue(mesh_name)
    n = mesh.n_cells
    f_dir = np.where(mesh.dirichlet, 1.5, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), np.zeros(mesh.n_edges), f_dir)
    m_op, _ = assemble_fp_operator(mesh, data, UPWIND)
    add_diagonal(m_op, mesh.cell_area)
    f = rng.uniform(0.1, 2.0, n)
    assemble_pme_residual(mesh, f, f, 2.0, 0.1, pme_boundary_term(mesh, f_dir, 2.0))
    add_diagonal(assemble_poisson(mesh, 0.5), mesh.cell_area)
    dd = _random_dd(mesh, rng)
    state = (rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n))
    for state_prev, dt in ((None, None), (state[:2], 0.1)):
        assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, state_prev, state, dt)

    layouts = [key[1] for key in mesh._derived
               if isinstance(key, tuple) and key[0] == "pattern"]
    assert sorted(map(len, layouts)) == [1, 7]
    assert (("tpfa", 0, 0),) in layouts
    for layout in layouts:
        rows, cols = [], []
        for kind, block_row, block_col in layout:
            r, c = _block_entries(mesh, kind)
            rows.append(r + block_row * n)
            cols.append(c + block_col * n)
        _assert_unique_pattern(mesh._derived[("pattern", layout)],
                               np.concatenate(rows), np.concatenate(cols))


@pytest.mark.parametrize("mesh_name", PATTERN_MESHES)
def test_transient_dd_jacobian_is_steady_plus_time_terms(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    n, dt = mesh.n_cells, 0.1
    dd = _random_dd(mesh, rng)
    state = (rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n))
    for scheme in SCHEMES.values():
        _, steady = assemble_dd_residual(mesh, dd, scheme, None, state)
        _, transient = assemble_dd_residual(mesh, dd, scheme, state[:2], state, dt)
        assert transient.pattern is steady.pattern
        shift = np.concatenate([mesh.cell_area / dt, mesh.cell_area / dt, np.zeros(n)])
        np.testing.assert_array_equal(transient.toarray(),
                                      (steady + sp.diags(shift)).toarray())


def test_single_cell_shifted_matrices_keep_their_diagonal(single_cell_mesh):
    """On a cell whose edges are all no-flux, the two-point pattern holds a
    zero on the diagonal, which the time term of a step fills.  Though no
    entry is emitted, the operators hold floats."""
    from entrofv.schemes import add_diagonal
    mesh = single_cell_mesh
    no_data = np.full(mesh.n_edges, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), np.zeros(mesh.n_edges), no_data)
    m_op, b = assemble_fp_operator(mesh, data, UPWIND)
    assert m_op.nnz == 1 and m_op.toarray() == 0.0
    assert m_op.dtype == laplacian(mesh).dtype == np.float64
    step_matrix = add_diagonal(m_op, mesh.cell_area / 0.5)  # as an FP step forms it
    np.testing.assert_array_equal(step_matrix.toarray(), [[2.0]])
    np.testing.assert_array_equal(
        FactorStore().solve(step_matrix, mesh.cell_area * np.array([2.0]) / 0.5 + b), [2.0])
    f = np.array([1.5])
    _, jac = assemble_pme_residual(mesh, f, f, 2.0, 0.25,
                                   pme_boundary_term(mesh, no_data, 2.0))
    np.testing.assert_array_equal(jac.toarray(), [[4.0]])


def _traced_peak_ratio(build):
    """``build()`` and the ratio of the traced peak while it runs to the
    bytes it leaves allocated."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return kept, (peak - base) / (current - base)


def test_set_up_allocates_little_beyond_what_it_keeps():
    """Built by general sorts (``np.unique`` over rows or int64 keys, a
    lexsort) and (E, 2, 2) gathers, the level-4 mesh peaked at 2.6 times the
    bytes it keeps and its "tpfa" pattern at 6.1 times; sort-free, they peak
    at about 1.5 and 2.5 times."""
    from entrofv.schemes import _build_pattern
    mesh, mesh_ratio = _traced_peak_ratio(lambda: reference_mesh(4, BoundarySpec.all_dirichlet()))
    _, pattern_ratio = _traced_peak_ratio(lambda: _build_pattern(mesh, (("tpfa", 0, 0),)))
    assert mesh_ratio < 2.0
    assert pattern_ratio < 4.0
