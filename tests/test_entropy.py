import math

import numpy as np
import pytest
from scipy.special import xlogy

from entrofv.entropy import (DEFAULT_POINCARE, PHI1, PHI2, EntropyTrace,
                             PhiFunction, _boltzmann_value, dd_entropy, entrophy,
                             entrophy_dissipation, fit_decay_rate, lp_distance,
                             phi_dissipation, phi_mean, relative_phi_entropy,
                             steady_edge_factors, theoretical_rate_fp,
                             theoretical_rate_pme)
from entrofv.schemes import (SCHEMES, DataError, discretize_coefficients,
                             transport_data)

PHI32 = PhiFunction.power(1.5)


def naive_phi_entropy(mesh, f, f_inf, phi):
    # independent oracle: plain python summation loop
    total = 0.0
    for k in range(mesh.n_cells):
        total += mesh.cell_area[k] * float(phi.value(np.array(f[k] / f_inf[k]))) * f_inf[k]
    return total


def test_phi_generators_normalized():
    for phi in (PHI1, PHI2, PHI32):
        assert float(phi.value(np.array(1.0))) == 0.0
        assert float(phi.d1(np.array(1.0))) == pytest.approx(0.0, abs=1e-14)
        assert float(phi.d2(np.array(1.0))) > 0
    assert float(PHI1.value(np.array(0.0))) == 1.0
    with pytest.raises(DataError):
        PhiFunction.power(1.0)
    with pytest.raises(DataError):
        PhiFunction.power(2.5)


def _two_branch_boltzmann(x):
    # the earlier formula: log1p form within 0.5 of 1, x log x - (x - 1) beyond
    x = np.asarray(x, dtype=float)
    t = x - 1.0
    small = np.abs(t) < 0.5
    ts = np.where(small, t, 0.0)
    lg = np.log1p(ts)
    return np.where(small, (lg - ts) + ts * lg, xlogy(x, x) - t)


def test_boltzmann_value_matches_two_branch_formula():
    x = np.array([0.0, 1e-300, 0.5, 1.0 - 1e-8, 1.0 + 1e-8, 1.5, 1e6])
    got = _boltzmann_value(x)
    ref = _two_branch_boltzmann(x)
    assert got[0] == 1.0
    assert np.all(np.abs(got - ref) <= np.maximum(4 * np.spacing(ref), 1e-300))


def test_relative_entropy_vanishes_at_reference(mesh0, rng):
    f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
    for phi in (PHI1, PHI2, PHI32):
        assert relative_phi_entropy(mesh0, f_inf, f_inf, phi) == 0.0


def test_relative_entropy_doubled_field(mesh0, rng):
    f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
    value = relative_phi_entropy(mesh0, 2.0 * f_inf, f_inf, PHI2)
    mass = float(np.sum(mesh0.cell_area * f_inf))
    assert value == pytest.approx(mass, rel=1e-13)


def test_relative_entropy_matches_naive_loop(mesh0, rng):
    f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
    f = rng.uniform(0.0, 3.0, mesh0.n_cells)
    for phi in (PHI1, PHI2, PHI32):
        fast = relative_phi_entropy(mesh0, f, f_inf, phi)
        slow = naive_phi_entropy(mesh0, f, f_inf, phi)
        assert fast == pytest.approx(slow, rel=1e-14, abs=1e-14)


def test_relative_entropy_rejects_bad_reference(mesh0):
    f = np.ones(mesh0.n_cells)
    with pytest.raises(DataError):
        relative_phi_entropy(mesh0, f, 0.0 * f, PHI2)


def _two_cell_transport(mesh, a=1.0):
    fd = np.where(mesh.dirichlet, 1.0, np.nan)
    return discretize_coefficients(mesh, a, fd, np.zeros(mesh.n_edges))


def test_dissipation_vanishes_at_reference(two_cell_mesh, rng):
    data = _two_cell_transport(two_cell_mesh)
    f_inf = np.array([1.0, 1.0])
    for scheme in SCHEMES.values():
        for phi in (PHI1, PHI2, PHI32):
            factors = steady_edge_factors(two_cell_mesh, data, scheme, f_inf)
            assert phi_dissipation(two_cell_mesh, factors,
                                   f_inf, f_inf, phi) == 0.0


def test_dissipation_constant_multiple_full_neumann(single_cell_mesh):
    mesh = single_cell_mesh
    fd = np.full(mesh.n_edges, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), np.zeros(mesh.n_edges), fd)
    f_inf = np.array([1.3])
    factors = steady_edge_factors(mesh, data, SCHEMES["sg"], f_inf)
    value = phi_dissipation(mesh, factors, 2.7 * f_inf, f_inf, PHI2)
    assert value == 0.0


def test_dissipation_two_cell_hand_value(two_cell_mesh):
    """Single-edge hand evaluation with the quadratic generator.

    With unit diffusion, no advection and f_inf = 1: every non-Neumann edge
    contributes tau * (Dh) * (2 Dh) * min over the edge of f values.
    """
    mesh = two_cell_mesh
    data = _two_cell_transport(mesh)
    f = np.array([2.0, 1.0])
    f_inf = np.ones(2)
    # interior edge: tau=2, Dh = 1-2 = -1, Dphi' = 2*Dh, weight min(2,1)=1
    interior = 2.0 * (-1.0) * (-2.0) * 1.0
    # left Dirichlet edge: tau=4, Dh = 1-2 = -1, weight min(B-*f_K, B+*f_D)=1
    left = 4.0 * (-1.0) * (-2.0) * 1.0
    # right Dirichlet edge: tau=4, Dh = 1-1 = 0
    expected = interior + left
    factors = steady_edge_factors(mesh, data, SCHEMES["upwind"], f_inf)
    got = phi_dissipation(mesh, factors, f, f_inf, PHI2)
    assert got == pytest.approx(expected, rel=1e-14)


def test_dissipation_nonnegative_random(mesh0, rng):
    geo = mesh0.geometry
    fd = np.where(mesh0.dirichlet, rng.uniform(0.5, 2.0, mesh0.n_edges), np.nan)
    data = discretize_coefficients(mesh0, rng.uniform(0.5, 2.0, mesh0.n_cells), fd,
                                   np.zeros(mesh0.n_edges))
    for _ in range(20):
        f = rng.uniform(0.05, 5.0, mesh0.n_cells)
        f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
        for scheme in SCHEMES.values():
            factors = steady_edge_factors(mesh0, data, scheme, f_inf)
            for phi in (PHI1, PHI2, PHI32):
                value = phi_dissipation(mesh0, factors, f, f_inf, phi)
                assert value >= -1e-12 * max(1.0, abs(value))


def test_entrophy_values(single_cell_mesh):
    mesh = single_cell_mesh
    assert entrophy(mesh, np.array([1.5]), np.array([1.5]), 3.0) == 0.0
    # unit cell, m=2: (8-1)/3 - 1*(2-1) = 4/3
    got = entrophy(mesh, np.array([2.0]), np.array([1.0]), 2.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_entrophy_norm_inequality(mesh0, rng):
    # (m+1) N_m dominates the (m+1)-power distance
    for m in (2.0, 3.0, 4.0):
        for _ in range(25):
            f = rng.uniform(0.0, 4.0, mesh0.n_cells)
            f_inf = rng.uniform(0.1, 3.0, mesh0.n_cells)
            lhs = float(np.sum(mesh0.cell_area * np.abs(f - f_inf) ** (m + 1)))
            rhs = (m + 1.0) * entrophy(mesh0, f, f_inf, m)
            assert lhs <= rhs * (1 + 1e-12) + 1e-14


def test_entrophy_dissipation_values(two_cell_mesh):
    mesh = two_cell_mesh
    f = np.array([1.0, 2.0])
    f_inf = np.array([1.0, 1.0])
    # g = f^2 - 1 = (0, 3); interior edge tau=2 D=(3-0); Dirichlet edges
    # carry g=0 on the boundary: left (0-0), right (0-3)
    expected = 2.0 * 9.0 + 4.0 * 0.0 + 4.0 * 9.0
    got = entrophy_dissipation(mesh, f, f_inf, 2.0)
    assert got == pytest.approx(expected, rel=1e-14)


def test_entrophy_dissipation_quadratic_scaling(two_cell_mesh, rng):
    mesh = two_cell_mesh
    f = rng.uniform(0.5, 2.0, 2)
    zero = np.zeros(2)
    m = 3.0
    base = entrophy_dissipation(mesh, f, zero, m)
    c = 4.7
    scaled = entrophy_dissipation(mesh, c ** (1.0 / m) * f, zero, m)
    assert scaled == pytest.approx(c ** 2 * base, rel=1e-12)


def test_dd_entropy_values(single_cell_mesh):
    mesh = single_cell_mesh
    same = (np.array([2.0]), np.array([0.5]), np.array([1.0]))
    assert dd_entropy(mesh, same, same, 1.0) == 0.0
    state = (np.array([2.0]), np.array([1.0]), np.array([0.0]))
    ref = (np.array([1.0]), np.array([1.0]), np.array([0.0]))
    got = dd_entropy(mesh, state, ref, 1.0)
    assert got == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)


def test_dd_entropy_nonnegative_random(mesh0, rng):
    for _ in range(50):
        state = tuple(rng.uniform(0.1, 5.0, mesh0.n_cells) for _ in range(3))
        ref = tuple(rng.uniform(0.1, 5.0, mesh0.n_cells) for _ in range(3))
        assert dd_entropy(mesh0, state, ref, 1.3) >= 0.0


def test_dd_entropy_rejects_nonpositive_density(single_cell_mesh):
    bad = (np.array([-1.0]), np.array([1.0]), np.array([0.0]))
    ok = (np.array([1.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(DataError):
        dd_entropy(single_cell_mesh, bad, ok, 1.0)


def test_lp_distance_values(single_cell_mesh, mesh0, rng):
    f = rng.uniform(0.0, 2.0, mesh0.n_cells)
    assert lp_distance(mesh0, f, f, 1) == 0.0
    got = lp_distance(single_cell_mesh, np.array([3.0]), np.array([1.0]), 3)
    assert got == pytest.approx(2.0)
    with pytest.raises(DataError):
        lp_distance(mesh0, f, f, 0.5)


def test_l1_entropy_chain(mesh0, rng):
    # Cauchy-Schwarz: L1(f, f_inf)^2 <= mass(f_inf) * H_phi2
    for _ in range(50):
        f = rng.uniform(0.0, 4.0, mesh0.n_cells)
        f_inf = rng.uniform(0.2, 3.0, mesh0.n_cells)
        l1 = lp_distance(mesh0, f, f_inf, 1)
        mass = float(np.sum(mesh0.cell_area * f_inf))
        h2 = relative_phi_entropy(mesh0, f, f_inf, PHI2)
        assert l1 ** 2 <= mass * h2 * (1 + 1e-12) + 1e-14


def _synthetic_trace(amplitude, rate, n=100):
    trace = EntropyTrace(("t", "dt", "H"))
    ts = np.linspace(0.0, 1.0, n)
    for i, t in enumerate(ts):
        trace.append({"t": t if i else 0.0, "dt": ts[1] - ts[0] if i else 0.0,
                      "H": amplitude * math.exp(-rate * t)})
    return trace


def test_fit_decay_rate_exact_exponential():
    fit = fit_decay_rate(_synthetic_trace(1.0, 3.0), "H", (0.0, 1.0))
    assert fit.rate == pytest.approx(3.0, abs=1e-10)
    assert fit.residual < 1e-12
    # amplitude invariance
    fit5 = fit_decay_rate(_synthetic_trace(5.0, 3.0), "H", (0.0, 1.0))
    assert fit5.rate == pytest.approx(3.0, abs=1e-10)


def test_fit_decay_rate_guards():
    trace = _synthetic_trace(1.0, 3.0, n=100)
    with pytest.raises(DataError, match="at least 5"):
        fit_decay_rate(trace, "H", (0.0, 0.02))
    bad = EntropyTrace(("t", "dt", "H"))
    for i, t in enumerate(np.linspace(0, 1, 10)):
        bad.append({"t": t, "dt": 0.1, "H": -1.0})
    with pytest.raises(DataError, match="positive"):
        fit_decay_rate(bad, "H", (0.0, 1.0))


def test_trace_columns_and_monotone_time():
    trace = EntropyTrace(("t", "dt", "H"))
    trace.append({"t": 0.0, "dt": 0.0, "H": 1.0})
    with pytest.raises(ValueError):
        trace.append({"t": 0.0, "dt": 0.1, "H": 0.5})
    with pytest.raises(ValueError):
        EntropyTrace(("dt", "t", "H"))
    trace.append({"t": 0.5, "dt": 0.5, "H": 0.5})
    csv = trace.to_csv()
    assert csv.splitlines()[0] == "t,dt,H"
    assert len(csv.splitlines()) == 3


def test_theoretical_rates():
    # small-k limit approaches the continuous-level slope
    slope = 0.4 * 0.9 * 1.0 * 0.5 / (DEFAULT_POINCARE * 2.0)
    got = theoretical_rate_fp(1.0, 0.5, 2.0, 0.9, 0.4, DEFAULT_POINCARE, 1e-9)
    assert got == pytest.approx(slope, rel=1e-6)
    # unit boundary level makes the nonlinear rate independent of it at m = 1
    r1 = theoretical_rate_pme(0.1, 1.0, 0.4, DEFAULT_POINCARE, 1e-2)
    r2 = theoretical_rate_pme(9.0, 1.0, 0.4, DEFAULT_POINCARE, 1e-2)
    assert r1 == pytest.approx(r2, rel=1e-12)
    # monotone in the time-step bound
    assert theoretical_rate_fp(1, 1, 1, 1, 0.4, DEFAULT_POINCARE, 1e-3) > \
        theoretical_rate_fp(1, 1, 1, 1, 0.4, DEFAULT_POINCARE, 1.0)


def test_phi_mean_bounds(rng):
    for phi in (PHI1, PHI2, PHI32):
        s = rng.uniform(0.05, 5.0, 200)
        t = rng.uniform(0.05, 5.0, 200)
        mean = phi_mean(phi, s, t)
        assert np.all(mean >= np.minimum(s, t) - 1e-12)
        assert np.all(mean <= np.maximum(s, t) + 1e-12)
        np.testing.assert_allclose(phi_mean(phi, s, s), s, rtol=1e-12)
        # symmetry
        np.testing.assert_allclose(mean, phi_mean(phi, t, s), rtol=1e-10)
    assert phi_mean(PHI2, 2.0, 2.0) == 2.0


def test_elementary_power_inequalities(rng):
    # used to pass from the quadratic dissipation to the relative functional
    for m in (2.0, 3.0, 4.0):
        z = np.concatenate([rng.uniform(0.0, 5.0, 500), [0.0, 1.0]])
        lhs = (z ** m - 1.0) ** 2
        bracket = z ** (m + 1.0) - (m + 1.0) * z + m
        assert np.all(lhs >= bracket / (m + 1.0) - 1e-12)
        assert np.all(np.abs(z - 1.0) ** (m + 1.0) <= bracket + 1e-12)


# ---------------------------------------------------------------------------
# two-point sums as products with stored matrices

EPS = np.finfo(float).eps
TWO_POINT_MESHES = ("two_cell_mesh", "single_cell_mesh", "mesh0", "mesh1")


def _two_point_data(mesh, rng):
    fd = np.where(mesh.dirichlet, rng.uniform(0.5, 2.0, mesh.n_edges), np.nan)
    return transport_data(mesh, rng.uniform(0.5, 2.0, mesh.n_edges),
                          rng.uniform(-1.0, 1.0, mesh.n_edges), fd)


def _edge_sum_dissipation(mesh, data, scheme, f, f_inf, phi):
    """The per-edge gather formula phi_dissipation used before: the terms
    tau * a * D(h) * D(phi'(h)) * steady weight over the non-Neumann edges."""
    from entrofv.schemes import edge_steady_weight
    active = ~mesh.neumann
    first = mesh.edge_cells[active, 0]
    neighbour = np.where(mesh.interior, mesh.edge_cells[:, 1], mesh.n_cells)[active]
    h = f / f_inf
    d1 = np.append(phi.d1(h), 0.0)
    dh = np.append(h, 1.0)[neighbour] - h[first]
    dphi = d1[neighbour] - d1[first]
    weight = edge_steady_weight(mesh, data, scheme, f_inf)[active]
    return (mesh.tau * data.a_edge)[active] * dh * dphi * weight


def _edge_square_sum(mesh, g):
    """sum over edges of tau * (D g)^2 with g = 0 on the Dirichlet boundary,
    as the gather formula computed it."""
    from entrofv.schemes import edge_differences
    dg = edge_differences(mesh, g, np.zeros(mesh.n_edges))
    return mesh.tau * dg * dg


@pytest.mark.parametrize("mesh_name", TWO_POINT_MESHES)
def test_bilinear_dissipation_matches_edge_sum(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    data = _two_point_data(mesh, rng)
    for scheme in (SCHEMES["upwind"], SCHEMES["sg"]):
        for _ in range(5):
            f_inf = rng.uniform(0.5, 2.0, mesh.n_cells)
            f = rng.uniform(0.05, 5.0, mesh.n_cells)
            factors = steady_edge_factors(mesh, data, scheme, f_inf)
            for phi in (PHI1, PHI2, PHI32):
                terms = _edge_sum_dissipation(mesh, data, scheme, f, f_inf, phi)
                got = phi_dissipation(mesh, factors, f, f_inf, phi)
                assert abs(got - terms.sum()) <= 8 * EPS * np.abs(terms).sum()


@pytest.mark.parametrize("mesh_name", TWO_POINT_MESHES)
def test_quadratic_forms_match_edge_sums(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    n = mesh.n_cells
    for m in (2.0, 3.5):
        f, f_inf = rng.uniform(0.0, 3.0, n), rng.uniform(0.5, 2.0, n)
        terms = _edge_square_sum(mesh, f ** m - f_inf ** m)
        got = entrophy_dissipation(mesh, f, f_inf, m)
        assert abs(got - terms.sum()) <= 8 * EPS * terms.sum()

    for lam in (0.3, 1.0):
        state = tuple(rng.uniform(0.1, 5.0, n) for _ in range(3))
        ref = tuple(rng.uniform(0.1, 5.0, n) for _ in range(3))
        density = mesh.cell_area * sum(r * _boltzmann_value(s / r)
                                       for s, r in zip(state[:2], ref[:2]))
        potential = 0.5 * lam * lam * _edge_square_sum(mesh, state[2] - ref[2])
        expected = density.sum() + potential.sum()
        got = dd_entropy(mesh, state, ref, lam)
        assert abs(got - expected) <= 8 * EPS * (density.sum() + potential.sum())


def test_fp_diagnostics_match_public_functions(mesh1, rng):
    from entrofv.entropy import FpDiagnostics
    data = _two_point_data(mesh1, rng)
    f_inf = rng.uniform(0.5, 2.0, mesh1.n_cells)
    for scheme in SCHEMES.values():
        record = FpDiagnostics(mesh1, data, scheme, f_inf)
        factors = steady_edge_factors(mesh1, data, scheme, f_inf)
        for f in (rng.uniform(0.0, 4.0, mesh1.n_cells), f_inf, np.zeros(mesh1.n_cells)):
            got = record(f)
            assert tuple(got) == ("H_phi1", "H_phi2", "D_phi2", "L1", "L2")
            assert got["H_phi1"] == relative_phi_entropy(mesh1, f, f_inf, PHI1)
            assert got["H_phi2"] == relative_phi_entropy(mesh1, f, f_inf, PHI2)
            assert got["L1"] == lp_distance(mesh1, f, f_inf, 1)
            assert got["L2"] == lp_distance(mesh1, f, f_inf, 2)
            terms = _edge_sum_dissipation(mesh1, data, scheme, f, f_inf, PHI2)
            assert abs(got["D_phi2"] - phi_dissipation(mesh1, factors, f, f_inf, PHI2)) \
                <= 8 * EPS * np.abs(terms).sum()


def test_fp_diagnostics_reject_bad_states(mesh0, rng):
    from entrofv.entropy import FpDiagnostics
    data = _two_point_data(mesh0, rng)
    f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
    for bad in (0.0, -1.0, np.nan, np.inf):
        steady = f_inf.copy()
        steady[3] = bad
        with pytest.raises(DataError):
            FpDiagnostics(mesh0, data, SCHEMES["sg"], steady)
    record = FpDiagnostics(mesh0, data, SCHEMES["sg"], f_inf)
    f = f_inf.copy()
    f[5] = -1e-3
    with pytest.raises(DataError, match="non-negative"):
        record(f)


def test_pme_diagnostics_match_public_functions(mesh1, rng):
    from entrofv.entropy import PmeDiagnostics
    f_inf = rng.uniform(0.5, 2.0, mesh1.n_cells)
    for m in (1.5, 2.0, 4.0):
        record = PmeDiagnostics(mesh1, f_inf, m)
        for f in (rng.uniform(0.0, 4.0, mesh1.n_cells), f_inf, np.zeros(mesh1.n_cells)):
            got = record(f)
            assert tuple(got) == ("N_m", "D_m", "Lmp1")
            assert got["N_m"] == entrophy(mesh1, f, f_inf, m)
            assert got["D_m"] == entrophy_dissipation(mesh1, f, f_inf, m)
            assert got["Lmp1"] == lp_distance(mesh1, f, f_inf, m + 1.0)


def test_pme_diagnostics_reject_bad_states(mesh0, rng):
    from entrofv.entropy import PmeDiagnostics
    f_inf = rng.uniform(0.5, 2.0, mesh0.n_cells)
    for bad in (0.0, -1.0, np.nan, np.inf):
        steady = f_inf.copy()
        steady[3] = bad
        with pytest.raises(DataError):
            PmeDiagnostics(mesh0, steady, 2.0)
    with pytest.raises(DataError, match="exponent"):
        PmeDiagnostics(mesh0, f_inf, 1.0)
    f = f_inf.copy()
    f[5] = -1e-3
    with pytest.raises(DataError, match="non-negative"):
        PmeDiagnostics(mesh0, f_inf, 2.0)(f)


def test_pme_run_checks_its_steady_state_once(monkeypatch):
    from entrofv import entropy
    from entrofv.presets import sweep_problem
    from entrofv.schemes import SCHARFETTER_GUMMEL
    from entrofv.solvers import StepperConfig, run_transient
    checked = []
    check = entropy._check_reference

    def counting(f_inf):
        checked.append(f_inf)
        return check(f_inf)

    monkeypatch.setattr(entropy, "_check_reference", counting)
    result = run_transient(sweep_problem(0, m=2.0, m_dirichlet=1.0), SCHARFETTER_GUMMEL,
                           StepperConfig(t_final=0.5))
    assert len(result.trace) > 10
    assert len(checked) == 1 and checked[0] is result.steady
