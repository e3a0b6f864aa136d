"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers.  Long runs are shared through module-scoped fixtures."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from entrofv.entropy import (DEFAULT_POINCARE, PHI1, PHI2, PhiFunction,
                             fit_decay_rate, lp_distance, phi_dissipation,
                             phi_mean, relative_phi_entropy,
                             steady_edge_factors, theoretical_rate_pme)
from entrofv.linalg import check_m_matrix_structure
from entrofv.mesh import BoundarySpec, load_mesh, reference_mesh, save_mesh
from entrofv.presets import (fill_problem, hetero_problem, pn_problem,
                             sweep_problem, toy_problem, toy_real_steady)
from entrofv.schemes import (SCHEMES, SCHARFETTER_GUMMEL, UPWIND,
                             advection_from_potential, assemble_dd_residual,
                             assemble_fp_operator, assemble_pme_residual,
                             assemble_poisson, edge_differences, edge_fluxes,
                             edge_steady_weight, neighbor_values, pme_boundary_term,
                             transport_data)
from entrofv.solvers import (StepperConfig, run_transient, solve_dd_steady,
                             solve_dd_thermal, solve_fp_steady)

PHI32 = PhiFunction.power(1.5)
EXPECTED_UPWIND_ERRORS = [6.04e-3, 3.24e-3, 1.67e-3, 8.50e-4, 4.28e-4]
EXPECTED_UPWIND_ORDERS = [0.90, 0.95, 0.98, 0.99]
EXPECTED_CENTERED_ERRORS = [1.23e-4, 3.05e-5, 7.67e-6, 1.92e-6, 4.83e-7]
SG_ERROR_BOUND = 1e-12


def _report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


@dataclass
class TimedRuns:
    runs: dict
    elapsed: float


def _fp_extras(problem, schemes_needed):
    """Per-step diagnostics beyond the standard trace columns."""
    mesh, data = problem.mesh, problem.data
    extras_for = {}
    for name in schemes_needed:
        scheme = SCHEMES[name]
        steady = solve_fp_steady(*assemble_fp_operator(mesh, data, scheme))
        factors = steady_edge_factors(mesh, data, scheme, steady)
        extras = {
            "H_phi1x": lambda f, s=steady: relative_phi_entropy(mesh, f, s, PHI1),
            "D_phi1": lambda f, s=steady, w=factors:
                phi_dissipation(mesh, w, f, s, PHI1),
            "H_phi32": lambda f, s=steady: relative_phi_entropy(mesh, f, s, PHI32),
            "D_phi32": lambda f, s=steady, w=factors:
                phi_dissipation(mesh, w, f, s, PHI32),
            "fmin": lambda f: float(np.min(f)),
            "fmax": lambda f: float(np.max(f)),
        }
        extras_for[name] = extras
    return extras_for


@dataclass(frozen=True)
class _WithColumns:
    """A problem whose trace records end with ``columns``, each a function of
    the state, in their order."""

    problem: object
    columns: dict

    @property
    def primary(self):
        return self.problem.primary

    def start(self, scheme):
        steady, state0, step, diagnose = self.problem.start(scheme)

        def record(state):
            return {**diagnose(state), **{name: fn(state) for name, fn in self.columns.items()}}

        return steady, state0, step, record


def _run_fp_family(problem, t_final, dt, entropy_floor, extra_builder=None):
    runs = {}
    start = time.monotonic()
    extras_for = _fp_extras(problem, SCHEMES) if extra_builder is None \
        else extra_builder(problem)
    for name, scheme in SCHEMES.items():
        cfg = StepperConfig.fixed(dt, t_final, entropy_floor=entropy_floor)
        runs[name] = run_transient(_WithColumns(problem, extras_for[name]), scheme, cfg)
    return TimedRuns(runs=runs, elapsed=time.monotonic() - start)


@pytest.fixture(scope="module")
def toy_runs_level0():
    problem = toy_problem(0)

    def build(problem):
        extras_for = _fp_extras(problem, SCHEMES)
        real = toy_real_steady(problem.mesh)
        for name in extras_for:
            extras_for[name]["L1_real"] = \
                lambda f, m=problem.mesh, r=real: lp_distance(m, f, r, 1)
        return extras_for

    return problem, _run_fp_family(problem, t_final=6.0, dt=1e-2,
                                   entropy_floor=1e-32, extra_builder=build)


@pytest.fixture(scope="module")
def hetero_runs_level4():
    problem = hetero_problem(4)
    return problem, _run_fp_family(problem, t_final=1.0, dt=1e-2,
                                   entropy_floor=1e-14)


@pytest.fixture(scope="module")
def fill_run_level2():
    problem = fill_problem(2)
    start = time.monotonic()
    result = run_transient(problem, SCHARFETTER_GUMMEL,
                           StepperConfig(t_final=15.0))
    return problem, result, time.monotonic() - start


SWEEP_POINTS = ((2.0, 0.1), (2.0, 1.0), (2.0, 5.0), (3.0, 1.0), (4.0, 1.0))


@pytest.fixture(scope="module")
def sweep_runs_level2():
    runs = {}
    start = time.monotonic()
    for m, md in SWEEP_POINTS:
        problem = sweep_problem(2, m, md)
        runs[(m, md)] = (problem,
                         run_transient(problem, SCHARFETTER_GUMMEL,
                                       StepperConfig(t_final=60.0)))
    return TimedRuns(runs=runs, elapsed=time.monotonic() - start)


@pytest.fixture(scope="module")
def dd_runs_level1():
    runs = {}
    start = time.monotonic()
    for bias in (0.0, 2.5):
        problem = pn_problem(1, bias=bias)
        for name, scheme in SCHEMES.items():
            cfg = StepperConfig.fixed(1e-2, 20.0)
            runs[(name, bias)] = run_transient(problem, scheme, cfg)
    return TimedRuns(runs=runs, elapsed=time.monotonic() - start)


# ---------------------------------------------------------------------------


def test_criterion_01_table1_reproduction():
    start = time.monotonic()
    levels = range(5)
    errors = {name: [] for name in SCHEMES}
    for level in levels:
        problem = toy_problem(level)
        reference = toy_real_steady(problem.mesh)
        for name, scheme in SCHEMES.items():
            steady = solve_fp_steady(*assemble_fp_operator(problem.mesh, problem.data, scheme))
            errors[name].append(lp_distance(problem.mesh, steady, reference, 1))
    elapsed = time.monotonic() - start

    for level, err in enumerate(errors["sg"]):
        assert err <= SG_ERROR_BOUND, f"sg level {level}: {err:.2e}"
    upwind_orders = [math.log2(errors["upwind"][i] / errors["upwind"][i + 1])
                     for i in range(4)]
    centered_orders = [math.log2(errors["centered"][i] / errors["centered"][i + 1])
                       for i in range(4)]
    for got, want in zip(upwind_orders, EXPECTED_UPWIND_ORDERS):
        assert abs(got - want) <= 0.15
    for got in centered_orders:
        assert abs(got - 2.0) <= 0.15
    for got, want in zip(errors["upwind"], EXPECTED_UPWIND_ERRORS):
        assert 0.5 <= got / want <= 2.0
    for got, want in zip(errors["centered"], EXPECTED_CENTERED_ERRORS):
        assert 0.5 <= got / want <= 2.0
    assert elapsed < 120.0
    _report(1, f"sg errors <= {max(errors['sg']):.2e}, upwind orders "
               f"{[round(o, 2) for o in upwind_orders]}, centered orders "
               f"{[round(o, 2) for o in centered_orders]} ({elapsed:.1f}s)")


def test_criterion_02_toy_decay_rate():
    start = time.monotonic()
    target = math.pi ** 2 + 0.25
    problem = toy_problem(3)
    rates = {}
    for name, scheme in SCHEMES.items():
        cfg = StepperConfig.fixed(1e-3, 0.45, entropy_floor=1e-32)
        result = run_transient(problem, scheme, cfg)
        trace = result.trace
        sqrt_trace = trace.column("H_phi2") ** 0.5
        t = trace.column("t")
        mask = (t >= 0.05) & (t <= 0.4)
        design = np.column_stack([t[mask], np.ones(mask.sum())])
        coef, *_ = np.linalg.lstsq(design, np.log(sqrt_trace[mask]), rcond=None)
        rates[name] = -coef[0]
        assert abs(rates[name] - target) <= 0.10 * target, \
            f"{name}: fitted {rates[name]:.4f} vs {target:.4f}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, "sqrt 2-entropy rates " +
            ", ".join(f"{k}={v:.3f}" for k, v in rates.items()) +
            f" vs {target:.4f} ({elapsed:.1f}s)")


def _check_fp_step_inequalities(trace, label):
    t = trace.column("t")
    dt = trace.column("dt")[1:]
    checked = 0
    for h_col, d_col in (("H_phi1", "D_phi1"), ("H_phi2", "D_phi2"),
                         ("H_phi32", "D_phi32")):
        h = trace.column(h_col if h_col != "H_phi1" else "H_phi1")
        d = trace.column(d_col)
        lhs = np.diff(h) / dt + d[1:]
        tol = 1e-9 * max(h[0], 1e-300)
        assert np.all(lhs <= tol), \
            f"{label} {h_col}: worst {np.max(lhs):.3e} > {tol:.3e}"
        checked += lhs.size
    return checked


def test_criterion_03_entropy_inequality_suite(toy_runs_level0,
                                               hetero_runs_level4,
                                               fill_run_level2):
    checked = 0
    for label, (problem, timed) in (("fp-toy", toy_runs_level0),
                                    ("fp-hetero", hetero_runs_level4)):
        for name, result in timed.runs.items():
            checked += _check_fp_step_inequalities(result.trace, f"{label}/{name}")
            for col in ("H_phi1", "H_phi2"):
                h = result.trace.column(col)
                assert np.all(np.diff(h) <= 1e-15 * max(h[0], 1e-300)), \
                    f"{label}/{name}: {col} not monotone"
            for col in ("H_phi1", "H_phi2", "H_phi32", "D_phi2"):
                vals = result.trace.column(col)
                assert np.all(vals >= -1e-12 * max(np.max(vals), 1e-300)), \
                    f"{label}/{name}: {col} went negative"

    problem, result, _ = fill_run_level2
    assert result.abort_reason is None
    trace = result.trace
    n_m = trace.column("N_m")
    lhs = np.diff(n_m) / trace.column("dt")[1:] + trace.column("D_m")[1:]
    assert np.all(lhs <= 1e-9 * n_m[0])
    assert np.all(np.diff(n_m) <= 1e-15 * n_m[0])
    checked += lhs.size
    _report(3, f"{checked} per-step entropy/dissipation inequalities hold, "
               f"all traces monotone")


def test_criterion_04_steady_state_dichotomy(toy_runs_level0):
    problem, timed = toy_runs_level0
    plateaus = {}
    for name in ("upwind", "centered"):
        trace = timed.runs[name].trace
        own = trace.column("L1")
        real = trace.column("L1_real")
        cross = np.nonzero(own <= 1e-12)[0]
        assert cross.size, f"{name}: own-steady distance never fell below 1e-12"
        k = cross[0]
        assert np.all(np.diff(own[:k + 1]) <= 1e-15), f"{name}: not monotone"
        assert np.min(real) >= 1e-6, f"{name}: no plateau above 1e-6"
        plateaus[name] = real[-1]
    sg = timed.runs["sg"].trace
    assert sg.column("L1")[-1] < 1e-12
    assert sg.column("L1_real")[-1] < 1e-12
    # a vanished entropy certifies a vanished field distance
    for name, result in timed.runs.items():
        h2 = result.trace.column("H_phi2")[-1]
        scale = max(1.0, float(np.max(result.steady)))
        if h2 < 1e-14 * scale:
            gap = float(np.max(np.abs(result.final - result.steady)))
            assert gap < 1e-6 * scale
    _report(4, f"upwind plateau {plateaus['upwind']:.2e}, centered plateau "
               f"{plateaus['centered']:.2e}, sg final "
               f"{sg.column('L1_real')[-1]:.2e}")


def test_criterion_05_fp_uniform_bounds(toy_runs_level0, hetero_runs_level4):
    for label, (problem, timed) in (("fp-toy", toy_runs_level0),
                                    ("fp-hetero", hetero_runs_level4)):
        for name, result in timed.runs.items():
            steady = result.steady
            m_inf, big_m_inf = float(np.min(steady)), float(np.max(steady))
            ratio = problem.f0 / steady
            lo = m_inf * min(1.0, float(np.min(ratio)))
            hi = big_m_inf * max(1.0, float(np.max(ratio)))
            fmin = result.trace.column("fmin")
            fmax = result.trace.column("fmax")
            assert np.all(fmin >= 0.0), f"{label}/{name}: negative state"
            assert np.all(fmin >= lo - 1e-12 * hi), f"{label}/{name}: lower bound"
            assert np.all(fmax <= hi + 1e-12 * hi), f"{label}/{name}: upper bound"
    _report(5, "uniform bounds and nonnegativity hold along every run")


def test_criterion_06_pme_rate_sweep(sweep_runs_level2):
    rates = {}
    for (m, md), (problem, result) in sweep_runs_level2.runs.items():
        trace = result.trace
        values = trace.column("N_m")
        t = trace.column("t")
        mask = (values > 1e-9 * values[0]) & (values < 1e-4 * values[0])
        assert mask.sum() >= 5
        fit = fit_decay_rate(trace, "N_m", (t[mask][0], t[mask][-1]))
        rates[(m, md)] = fit.rate
        bound = theoretical_rate_pme(md, m, problem.mesh.xi,
                                     DEFAULT_POINCARE, 1e-2)
        assert fit.rate >= bound, \
            f"m={m} md={md}: fitted {fit.rate:.3f} < bound {bound:.3f}"
    md_rates = [rates[(2.0, md)] for md in (0.1, 1.0, 5.0)]
    assert md_rates[0] < md_rates[1] < md_rates[2]
    m_rates = [math.log(rates[(m, 1.0)]) for m in (2.0, 3.0, 4.0)]
    assert m_rates[0] < m_rates[1] < m_rates[2]
    assert sweep_runs_level2.elapsed < 600.0
    _report(6, "rates " + ", ".join(f"{k}={v:.1f}" for k, v in rates.items()) +
            f" ({sweep_runs_level2.elapsed:.0f}s)")


def test_criterion_07_pme_norm_bound(fill_run_level2, sweep_runs_level2):
    checked = 0
    items = [(fill_run_level2[0], fill_run_level2[1])]
    items += [pair for pair in sweep_runs_level2.runs.values()]
    for problem, result in items:
        trace = result.trace
        n_m = trace.column("N_m")
        norm = trace.column("Lmp1")
        lhs = norm ** (problem.m + 1.0)
        rhs = (problem.m + 1.0) * n_m
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)
        checked += len(n_m)
    _report(7, f"power-norm bound holds at {checked} recorded states")


def test_criterion_08_dd_thermal_preservation():
    problem = pn_problem(2)
    thermal_gap = {}
    thermal = solve_dd_thermal(problem.mesh, problem.dd)
    steady = solve_dd_steady(problem.mesh, problem.dd, SCHARFETTER_GUMMEL, thermal)
    gap_n = float(np.max(np.abs(np.log(steady.n) - steady.v)))
    gap_p = float(np.max(np.abs(np.log(steady.p) + steady.v)))
    assert gap_n <= 1e-9 and gap_p <= 1e-9
    thermal_gap["sg"] = max(gap_n, gap_p)
    upwind = solve_dd_steady(problem.mesh, problem.dd, UPWIND, thermal)
    gap_up = float(np.max(np.abs(np.log(upwind.n) - upwind.v)))
    assert gap_up > 1e-6
    thermal_gap["upwind"] = gap_up
    _report(8, f"sg preserves the current-free relations to "
               f"{thermal_gap['sg']:.1e}; upwind deviates by "
               f"{thermal_gap['upwind']:.1e}")


def test_criterion_09_dd_entropy_behavior(dd_runs_level1):
    floors = {}
    for (name, bias), result in dd_runs_level1.runs.items():
        trace = result.trace
        e_inf = trace.column("E_inf")
        scale = e_inf[0]
        assert np.all(np.diff(e_inf) <= 1e-12 * scale), \
            f"{name} bias={bias}: E_inf not monotone"
        assert e_inf[-1] <= 1e-11 * scale, \
            f"{name} bias={bias}: floor {e_inf[-1] / scale:.2e}"
        floors[(name, bias)] = e_inf[-1] / scale
        if bias == 0.0:
            e_eq = trace.column("E_eq")
            if name in ("upwind", "centered"):
                assert e_eq[-1] >= 1e3 * e_inf[-1], \
                    f"{name}: equilibrium entropy did not stagnate"
            else:
                assert abs(e_eq[-1] - e_inf[-1]) <= 1e-9 * scale
    assert dd_runs_level1.elapsed < 600.0
    _report(9, "relative E floors " +
            ", ".join(f"{k[0]}/bias{k[1]:g}={v:.1e}" for k, v in floors.items()) +
            f" ({dd_runs_level1.elapsed:.0f}s)")


def _random_strip_mesh(rng):
    """Valid TPFA graph of a 1 x width strip cut into random vertical slabs."""
    from entrofv.mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh
    n = int(rng.integers(2, 9))
    widths = rng.uniform(0.2, 1.5, n)
    rights = np.cumsum(widths)
    centers = rights - widths / 2.0
    length, d, cells, dcell, tag = [], [], [], [], []
    for i in range(n - 1):
        length.append(1.0)
        d.append(0.5 * (widths[i] + widths[i + 1]))
        cells.append((i, i + 1))
        dcell.append((widths[i] / 2.0, widths[i + 1] / 2.0))
        tag.append(INTERIOR)
    for i, end_d in ((0, widths[0] / 2.0), (n - 1, widths[-1] / 2.0)):
        length.append(1.0)
        d.append(end_d)
        cells.append((i, -1))
        dcell.append((end_d, np.nan))
        tag.append(DIRICHLET)
    for i in range(n):
        for _ in range(2):  # top and bottom
            length.append(widths[i])
            d.append(0.5)
            cells.append((i, -1))
            dcell.append((0.5, np.nan))
            tag.append(NEUMANN)
    ratio = np.array(dcell) / np.array(d)[:, None]
    return Mesh(cell_area=widths.copy(),
                cell_center=np.column_stack([centers, np.full(n, 0.5)]),
                edge_length=np.array(length), edge_d=np.array(d),
                edge_cells=np.array(cells, dtype=np.int64),
                edge_dcell=np.array(dcell), edge_tag=np.array(tag, dtype=np.uint8),
                xi=float(np.nanmin(ratio)),
                domain_measure=float(widths.sum()))


def test_criterion_10_structural_suite(rng):
    start = time.monotonic()
    mesh = reference_mesh(1, BoundarySpec.all_dirichlet())
    geo = mesh.geometry
    phi_dir = np.where(mesh.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh, 1.3 * mesh.cell_center[:, 0], 1.3 * phi_dir)
    f_dir = np.where(mesh.dirichlet, 1.5, np.nan)
    data = transport_data(mesh, np.ones(mesh.n_edges), u, f_dir)

    # flux conservativity: the two orientations cancel exactly
    inter = np.nonzero(mesh.interior)[0]
    for _ in range(100):
        f = rng.uniform(0.05, 5.0, mesh.n_cells)
        scheme = SCHEMES[rng.choice(list(SCHEMES))]
        flux = edge_fluxes(mesh, data, scheme, f)
        e = int(rng.choice(inter))
        # the flux leaving the second cell, from its own advection -u[e]
        k, l = mesh.edge_cells[e]
        bm, bp = scheme.both_sides(np.array([-data.u[e] * mesh.edge_d[e] / data.a_edge[e]]))
        back = mesh.tau[e] * data.a_edge[e] * (bm[0] * f[l] - bp[0] * f[k])
        assert flux[e] + back == 0.0

    # flux-function identity on 100 fresh samples per scheme
    for scheme in SCHEMES.values():
        xs = rng.uniform(-50.0, 50.0, 100)
        assert np.max(np.abs(scheme.b(-xs) - scheme.b(xs) - xs)) < 1e-12 * 50

    # reformulation identity on 100 random positive field pairs
    for _ in range(100):
        scheme = SCHEMES[rng.choice(list(SCHEMES))]
        f_ref = rng.uniform(0.2, 3.0, mesh.n_cells)
        h = rng.uniform(0.2, 3.0, mesh.n_cells)
        flux_ref = edge_fluxes(mesh, data, scheme, f_ref)
        flux_now = edge_fluxes(mesh, data, scheme, h * f_ref)
        ones = np.ones(mesh.n_edges)
        dh = edge_differences(mesh, h, ones)
        h_opp = neighbor_values(mesh, h, ones)
        weight = edge_steady_weight(mesh, data, scheme, f_ref)
        split = (np.maximum(flux_ref, 0) * h[mesh.edge_cells[:, 0]]
                 - np.maximum(-flux_ref, 0) * h_opp
                 - mesh.tau * data.a_edge * weight * dh)
        assert np.max(np.abs(flux_now - split)) <= 1e-12 * (np.max(np.abs(flux_now)) + 1)

    # mean-value bounds for the entropy generators, 100 samples each
    for phi in (PHI1, PHI2, PHI32):
        s = rng.uniform(0.05, 5.0, 100)
        t = rng.uniform(0.05, 5.0, 100)
        mean = phi_mean(phi, s, t)
        assert np.all(mean >= np.minimum(s, t) - 1e-12)
        assert np.all(mean <= np.maximum(s, t) + 1e-12)

    # Jacobian consistency, 100 directional probes per model
    small = reference_mesh(0, BoundarySpec.all_dirichlet())
    fd_small = np.where(small.dirichlet, rng.uniform(0.5, 2.0, small.n_edges), np.nan)
    n = small.n_cells
    h_fd = 1e-7
    bd_small = pme_boundary_term(small, fd_small, 3.0)
    for _ in range(100):
        f_prev = rng.uniform(0.1, 10.0, n)
        f = rng.uniform(0.1, 10.0, n)
        _, jac = assemble_pme_residual(small, f_prev, f, 3.0, 1e-3, bd_small)
        v = rng.standard_normal(n)
        rp = assemble_pme_residual(small, f_prev, f + h_fd * v, 3.0, 1e-3, bd_small)[0]
        rm = assemble_pme_residual(small, f_prev, f - h_fd * v, 3.0, 1e-3, bd_small)[0]
        jv = jac @ v
        assert np.max(np.abs(jv - (rp - rm) / (2 * h_fd))) < 1e-5 * np.max(np.abs(jv))
    from entrofv.schemes import DdData
    dmask = small.dirichlet
    dd = DdData(doping=rng.uniform(-1, 1, n), debye=1.0,
                n_dirichlet=np.where(dmask, rng.uniform(0.5, 3.0, small.n_edges), np.nan),
                p_dirichlet=np.where(dmask, rng.uniform(0.5, 3.0, small.n_edges), np.nan),
                v_dirichlet=np.where(dmask, rng.uniform(-1, 1, small.n_edges), np.nan))
    for _ in range(100):
        scheme = SCHEMES[rng.choice(list(SCHEMES))]
        state = rng.uniform(0.1, 10.0, 3 * n)
        prev = (rng.uniform(0.1, 10.0, n), rng.uniform(0.1, 10.0, n))

        def residual(x):
            return assemble_dd_residual(small, dd, scheme, prev,
                                        (x[:n], x[n:2 * n], x[2 * n:]), 1e-2)[0]

        _, jac = assemble_dd_residual(small, dd, scheme, prev,
                                      (state[:n], state[n:2 * n], state[2 * n:]), 1e-2)
        v = rng.standard_normal(3 * n)
        fd_dir = (residual(state + h_fd * v) - residual(state - h_fd * v)) / (2 * h_fd)
        jv = jac @ v
        assert np.max(np.abs(jv - fd_dir)) < 1e-5 * np.max(np.abs(jv))

    # M-matrix structure of the operators behind every preset
    reports = []
    toy = toy_problem(1)
    touched = set(int(c) for c in toy.mesh.edge_cells[toy.mesh.dirichlet, 0])
    for scheme in SCHEMES.values():
        m_op, _ = assemble_fp_operator(toy.mesh, toy.data, scheme)
        reports.append(check_m_matrix_structure(m_op, touched))
    hetero = hetero_problem(4)
    assert hetero.data.a_edge.min() == pytest.approx(0.01)
    assert hetero.data.a_edge.max() == pytest.approx(3.0)
    touched = set(int(c) for c in hetero.mesh.edge_cells[hetero.mesh.dirichlet, 0])
    for scheme in SCHEMES.values():
        m_op, _ = assemble_fp_operator(hetero.mesh, hetero.data, scheme)
        reports.append(check_m_matrix_structure(m_op, touched))
    fill = fill_problem(2)
    u_dir = np.where(np.isfinite(fill.f_dirichlet),
                     fill.f_dirichlet ** fill.m, np.nan)
    laplace = transport_data(fill.mesh, np.ones(fill.mesh.n_edges),
                             np.zeros(fill.mesh.n_edges), u_dir)
    m_op, _ = assemble_fp_operator(fill.mesh, laplace, SCHARFETTER_GUMMEL)
    touched = set(int(c) for c in fill.mesh.edge_cells[fill.mesh.dirichlet, 0])
    reports.append(check_m_matrix_structure(m_op, touched))
    pn = pn_problem(1)
    touched = set(int(c) for c in pn.mesh.edge_cells[pn.mesh.dirichlet, 0])
    reports.append(check_m_matrix_structure(assemble_poisson(pn.mesh, 1.0), touched))
    # continuity blocks at the steady potential
    steady = solve_dd_steady(pn.mesh, pn.dd, UPWIND, solve_dd_thermal(pn.mesh, pn.dd))
    w = edge_differences(pn.mesh, steady.v, pn.dd.v_dirichlet)
    for dirichlet, sign in ((pn.dd.n_dirichlet, 1.0), (pn.dd.p_dirichlet, -1.0)):
        mobility = transport_data(pn.mesh, np.ones(pn.mesh.n_edges),
                                  sign * w / pn.mesh.edge_d, dirichlet)
        m_op, _ = assemble_fp_operator(pn.mesh, mobility, UPWIND, force=True)
        reports.append(check_m_matrix_structure(m_op, touched))
    assert all(r.ok for r in reports), \
        "; ".join(str(r) for r in reports if not r.ok)

    # serialization round trip: reference layouts plus randomized strip graphs
    trips = 0
    for level in (0, 1):
        for bnd in (BoundarySpec.all_dirichlet(),
                    toy_problem(0).mesh.geometry.boundary,
                    fill.mesh.geometry.boundary,
                    pn.mesh.geometry.boundary):
            m0 = reference_mesh(level, bnd)
            m1 = load_mesh(save_mesh(m0))
            assert save_mesh(m1) == save_mesh(m0)
            np.testing.assert_allclose(m1.cell_area, m0.cell_area, rtol=1e-15)
            np.testing.assert_array_equal(m1.edge_cells, m0.edge_cells)
            trips += 1
    for _ in range(100):
        m0 = _random_strip_mesh(rng)
        text = save_mesh(m0)
        m1 = load_mesh(text)
        assert save_mesh(m1) == text
        np.testing.assert_allclose(m1.edge_d, m0.edge_d, rtol=1e-15)
        nonnan = ~np.isnan(m0.edge_dcell)
        np.testing.assert_allclose(m1.edge_dcell[nonnan], m0.edge_dcell[nonnan],
                                   rtol=1e-15)
        trips += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(10, f"structural identities verified ({len(reports)} operator "
                f"reports, {trips} round trips, {elapsed:.1f}s)")
