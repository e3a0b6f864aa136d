"""Steady states, backward-Euler steps and the adaptive transient driver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from . import entropy as ent
from .entropy import EntropyTrace
from .linalg import FactorStore, NonConvergence, newton_solve, solve_linear
from .mesh import Mesh
from .schemes import (SCHARFETTER_GUMMEL, BScheme, DataError, DdData,
                      TransportData, add_diagonal, assemble_dd_residual,
                      assemble_fp_operator, assemble_pme_residual, assemble_poisson,
                      dirichlet_sums, laplacian, pme_boundary_term, poisson_dirichlet_rhs,
                      signed_power, transport_data)


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class StepperConfig:
    """Adaptive policy: start at ``dt0``, double the step after each
    accepted one and halve it after each failed one, within ``dt_min`` and
    ``dt_max``.  Newton's tolerance and iteration bound are the
    ``linalg.NEWTON_*`` constants."""

    t_final: float
    dt0: float = 1e-3
    dt_min: float = 1e-8
    dt_max: float = 1e-2
    entropy_floor: float = 1e-14

    def __post_init__(self):
        if not (0 < self.dt0 < math.inf and 0 < self.t_final < math.inf):
            raise ValueError("initial time step and final time must be positive and finite")
        if not (self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("need dt_min <= dt0 <= dt_max")

    @staticmethod
    def fixed(dt: float, t_final: float, **kw) -> "StepperConfig":
        """Constant time step (still halved if a nonlinear step fails)."""
        return StepperConfig(t_final=t_final, dt0=dt, dt_max=dt,
                             dt_min=min(StepperConfig.dt_min, dt), **kw)


class DdState(NamedTuple):
    n: np.ndarray
    p: np.ndarray
    v: np.ndarray


# ---------------------------------------------------------------------------
# linear convection-diffusion


def solve_fp_steady(operator: sp.csc_matrix, boundary: np.ndarray) -> np.ndarray:
    """Unique steady state ``M f = b`` of the operator and boundary vector from
    :func:`assemble_fp_operator`; strictly positive."""
    f = solve_linear(operator, boundary)  # checks the flux balance M f - b
    if np.any(f <= 0):
        raise SolverError("steady state is not strictly positive")
    return f


# ---------------------------------------------------------------------------
# nonlinear diffusion


def solve_pme_steady(mesh: Mesh, f_dirichlet: np.ndarray, m: float) -> np.ndarray:
    """Steady state: harmonic in f**m with the Dirichlet data, which H1 (a
    Dirichlet boundary of positive measure) makes unique."""
    if m <= 1:
        raise DataError("exponent must exceed 1")
    if not np.any(mesh.dirichlet):
        raise DataError("H1: the porous-medium steady state needs a Dirichlet edge")
    u_dir = signed_power(np.asarray(f_dirichlet, dtype=float), m)
    boundary = u_dir[mesh.dirichlet]
    if not np.all((boundary > 0) & np.isfinite(boundary)):
        raise DataError("Dirichlet values must be positive on every Dirichlet edge")
    # on the factors of the mesh's Laplacian, which the points of a sweep share
    u = mesh.derived("laplacian_factors", lambda _: FactorStore()).solve(
        laplacian(mesh), dirichlet_sums(mesh, mesh.tau, u_dir))
    if np.any(u <= 0):
        raise SolverError("steady state lost positivity")
    return u ** (1.0 / m)


def step_pme(mesh: Mesh, f_prev: np.ndarray, m: float, dt: float, store: FactorStore,
             boundary: np.ndarray) -> Union[np.ndarray, NonConvergence]:
    """One implicit step via Newton started from the previous state; each
    iterate's solve refines on the factors in ``store`` (see
    :meth:`FactorStore.solve`) and leaves the latest ones there.
    ``boundary`` is ``pme_boundary_term(mesh, f_dirichlet, m)``, formed once
    for all the steps of a run."""
    f_prev = np.asarray(f_prev, dtype=float)

    def system(f, jacobian=True):  # the Jacobian is a scaled copy, always formed
        return assemble_pme_residual(mesh, f_prev, f, m, dt, boundary)

    result = newton_solve(system, f_prev, store)
    if isinstance(result, NonConvergence):
        return result
    f, iterations = result
    if np.any(f < -1e-9 * max(1.0, float(np.max(np.abs(f))))):
        return NonConvergence(iterations=iterations,
                              residual_norm=float(np.max(np.abs(system(f)[0]))),
                              reason="negative density")
    return np.maximum(f, 0.0)


# ---------------------------------------------------------------------------
# drift-diffusion


#: Largest spread of the Dirichlet offsets that still counts as one offset.
EQUILIBRIUM_TOL = 1e-10


def dd_equilibrium_offsets(mesh: Mesh, dd: DdData) -> Optional[tuple[float, float]]:
    """Offsets (alpha_N, alpha_P) when the boundary data is compatible with a
    current-free steady state, else None."""
    dmask = mesh.dirichlet
    a_n = np.log(dd.n_dirichlet[dmask]) - dd.v_dirichlet[dmask]
    a_p = np.log(dd.p_dirichlet[dmask]) + dd.v_dirichlet[dmask]
    if np.ptp(a_n) <= EQUILIBRIUM_TOL and np.ptp(a_p) <= EQUILIBRIUM_TOL:
        return float(a_n.mean()), float(a_p.mean())
    return None


def solve_dd_thermal(mesh: Mesh, dd: DdData) -> DdState:
    """Current-free steady state from the nonlinear Poisson equation, with
    the offsets (alpha_N, alpha_P) of :func:`dd_equilibrium_offsets`; raises
    when the boundary data admits no current-free state.  Newton starts from
    zero potential."""
    offsets = dd_equilibrium_offsets(mesh, dd)
    if offsets is None:
        raise SolverError("boundary data is incompatible with a current-free steady state")
    alpha_n, alpha_p = offsets
    a_mat = assemble_poisson(mesh, dd.debye)
    b_dir = poisson_dirichlet_rhs(mesh, dd.debye, dd.v_dirichlet)
    area = mesh.cell_area

    def system(v, jacobian=True):  # the Jacobian is a diagonal shift, always formed
        e_p, e_n = np.exp(alpha_p - v), np.exp(alpha_n + v)
        return (a_mat @ v - b_dir - area * (e_p - e_n + dd.doping),
                add_diagonal(a_mat, area * (e_p + e_n)))

    result = newton_solve(system, np.zeros(mesh.n_cells))
    if isinstance(result, NonConvergence):
        raise SolverError(f"thermal equilibrium solve failed: {result}")
    v, _ = result
    return DdState(n=np.exp(alpha_n + v), p=np.exp(alpha_p - v), v=v)


def _dd_newton(mesh: Mesh, dd: DdData, scheme: BScheme, start: DdState,
               state_prev=None, dt=None, store: Optional[FactorStore] = None):
    n = mesh.n_cells

    def unpack(x):
        return x[:n], x[n:2 * n], x[2 * n:]

    def system(x, jacobian=True):
        return assemble_dd_residual(mesh, dd, scheme, state_prev, unpack(x), dt,
                                    jacobian=jacobian)

    result = newton_solve(system, np.concatenate(start), store)
    if isinstance(result, NonConvergence):
        return result
    x, iterations = result
    state = DdState(*(np.array(part) for part in unpack(x)))
    if np.any(state.n <= 0) or np.any(state.p <= 0):
        return NonConvergence(iterations=iterations,
                              residual_norm=float(np.max(np.abs(
                                  system(x, jacobian=False)[0]))),
                              reason="non-positive density")
    return state


def _dd_initial_guess(mesh: Mesh, dd: DdData) -> DdState:
    """Harmonic interpolation of the density data, potential from the linear
    Poisson equation with the resulting charge."""
    ones = np.ones(mesh.n_edges)
    zeros = np.zeros(mesh.n_edges)
    fields = []
    for dirichlet in (dd.n_dirichlet, dd.p_dirichlet):
        data = transport_data(mesh, ones, zeros, dirichlet)
        m_op, b = assemble_fp_operator(mesh, data, SCHARFETTER_GUMMEL)
        fields.append(solve_linear(m_op, b))
    n0, p0 = fields
    v0 = solve_dd_poisson(mesh, dd, n0, p0)
    return DdState(n=n0, p=p0, v=v0)


def solve_dd_poisson(mesh: Mesh, dd: DdData, n_field: np.ndarray,
                     p_field: np.ndarray) -> np.ndarray:
    """Potential solving the linear Poisson equation for given densities."""
    a_mat = assemble_poisson(mesh, dd.debye)
    b = poisson_dirichlet_rhs(mesh, dd.debye, dd.v_dirichlet) \
        + mesh.cell_area * (p_field - n_field + dd.doping)
    return mesh.derived(("poisson_factors", dd.debye), lambda _: FactorStore()).solve(a_mat, b)


def solve_dd_steady(mesh: Mesh, dd: DdData, scheme: BScheme,
                    initial: Optional[DdState]) -> DdState:
    """Coupled steady state by Newton from ``initial`` (the current-free
    state, when the boundary data admits one), else from
    :func:`_dd_initial_guess`."""
    start = initial if initial is not None else _dd_initial_guess(mesh, dd)
    result = _dd_newton(mesh, dd, scheme, start)
    if isinstance(result, NonConvergence):
        raise SolverError(f"steady drift-diffusion solve failed: {result}")
    return result


def step_dd(mesh: Mesh, dd: DdData, scheme: BScheme, state_prev: DdState, dt: float,
            store: Optional[FactorStore] = None) -> Union[DdState, NonConvergence]:
    """One fully implicit step of the coupled system from the previous state.

    With a ``store``, Newton starts on the factors it holds, made at an earlier
    step, perhaps of another ``dt``: :func:`newton_solve` drops them once they
    stop contracting.  Its last factors stay there for the next step.
    """
    return _dd_newton(mesh, dd, scheme, state_prev,
                      state_prev=(state_prev.n, state_prev.p), dt=dt, store=store)


# ---------------------------------------------------------------------------
# transient problems and the adaptive driver
#
# Each problem type names its primary trace column and, in start(scheme),
# solves its steady state and returns (steady, initial state,
# step(state, dt), diagnostics(state) -> trace record).


@dataclass(frozen=True)
class FpProblem:
    mesh: Mesh
    data: TransportData
    f0: np.ndarray
    force_peclet: bool = False
    primary = "H_phi2"

    def start(self, scheme: BScheme):
        operator, boundary = assemble_fp_operator(self.mesh, self.data, scheme,
                                                  force=self.force_peclet)
        steady = solve_fp_steady(operator, boundary)
        # the stepping matrix of the latest dt, on the operator's pattern:
        # factored into the store at its first step, then solved directly
        store, area, held = FactorStore(), self.mesh.cell_area, {}

        def step(f, dt):
            if dt not in held:
                store.drop()
                held.clear()
                held[dt] = add_diagonal(operator, area / dt)
            return store.solve(held[dt], area * f / dt + boundary)

        return (steady, np.asarray(self.f0, dtype=float), step,
                ent.FpDiagnostics(self.mesh, self.data, scheme, steady))


@dataclass(frozen=True)
class PmeProblem:
    mesh: Mesh
    m: float
    f_dirichlet: np.ndarray
    f0: np.ndarray
    primary = "N_m"

    def start(self, scheme: BScheme):
        mesh, m = self.mesh, self.m
        steady = solve_pme_steady(mesh, self.f_dirichlet, m)
        # factors shared by the steps of this run only.  Every Newton step
        # still solves with its own Jacobian, refined on these (REFINE_EPS):
        # simplified Newton would move the rates beyond 1e-9
        store, boundary = FactorStore(), pme_boundary_term(mesh, self.f_dirichlet, m)
        return (steady, np.asarray(self.f0, dtype=float),
                lambda f, dt: step_pme(mesh, f, m, dt, store, boundary),
                ent.PmeDiagnostics(mesh, steady, m))


@dataclass(frozen=True)
class DdProblem:
    mesh: Mesh
    dd: DdData
    n0: np.ndarray
    p0: np.ndarray
    primary = "E_inf"

    def start(self, scheme: BScheme):
        mesh, dd = self.mesh, self.dd
        thermal = None if dd_equilibrium_offsets(mesh, dd) is None \
            else solve_dd_thermal(mesh, dd)
        steady = solve_dd_steady(mesh, dd, scheme, initial=thermal)
        state0 = DdState(np.asarray(self.n0, dtype=float), np.asarray(self.p0, dtype=float),
                         solve_dd_poisson(mesh, dd, self.n0, self.p0))
        store = FactorStore()  # factors shared by the steps of this run only

        def diagnostics(state):
            return {"E_inf": ent.dd_entropy(mesh, state, steady, dd.debye),
                    "E_eq": float("nan") if thermal is None
                    else ent.dd_entropy(mesh, state, thermal, dd.debye)}

        return (steady, state0, lambda state, dt: step_dd(mesh, dd, scheme, state, dt, store),
                diagnostics)


@dataclass
class TransientResult:
    trace: EntropyTrace
    steady: object
    final: object
    abort_reason: Optional[str] = None


def adaptive_time_loop(state, cfg: StepperConfig, try_step: Callable,
                       record: Callable, stop: Optional[Callable] = None):
    """Drive ``try_step(state, dt)`` to the final time.

    ``record(t, dt, state)`` is called after every accepted step and must
    return the diagnostics record; ``stop(record)`` may end the run early.
    Returns (state, t, abort_reason or None).
    """
    t = low = 0.0  # the accepted steps sum to t + low, and t is that rounded once
    dt_prev: Optional[float] = None
    # equal steps still miss t_final by the round-off of their sum: a final
    # gap this close to the proposed step is taken as that step, so fixed-step
    # runs keep one dt
    slack = 1e-12 * cfg.t_final
    while t < cfg.t_final:
        dt = cfg.dt0 if dt_prev is None else min(2.0 * dt_prev, cfg.dt_max)
        if cfg.t_final - t < dt - slack:
            dt = cfg.t_final - t
        while True:
            result = try_step(state, dt)
            if not isinstance(result, NonConvergence):
                break
            if dt <= cfg.dt_min * (1.0 + 1e-12):
                return state, t, f"time step would fall below {cfg.dt_min:g}: {result}"
            dt = max(dt / 2.0, cfg.dt_min)
        state = result
        steps = (t, low, dt)
        t = cfg.t_final if cfg.t_final - t <= dt + slack else math.fsum(steps)
        low = math.fsum((*steps, -t))
        dt_prev = dt
        rec = record(t, dt, state)
        if stop is not None and stop(rec):
            break
    return state, t, None


def run_transient(problem, scheme: BScheme, cfg: StepperConfig,
                  diagnostics: Optional[dict[str, Callable]] = None) -> TransientResult:
    """Integrate a problem to the final time, recording entropies relative to
    the steady state computed up front.  The run also stops once the primary
    entropy falls below ``cfg.entropy_floor`` times its initial value.
    ``diagnostics`` adds trace columns, each a function of the state."""
    steady, state0, step, diagnose = problem.start(scheme)
    extras = diagnostics or {}

    def observe(t, dt, state):
        rec = {"t": t, "dt": dt, **diagnose(state)}
        rec.update((name, fn(state)) for name, fn in extras.items())
        return rec

    first = observe(0.0, 0.0, state0)
    trace = EntropyTrace(first)
    trace.append(first)
    floor = cfg.entropy_floor * max(first[problem.primary], 1e-300)

    def record(t, dt, state):
        rec = observe(t, dt, state)
        trace.append(rec)
        return rec

    final, _, abort = adaptive_time_loop(state0, cfg, step, record,
                                         lambda rec: rec[problem.primary] < floor)
    return TransientResult(trace=trace, steady=steady, final=final, abort_reason=abort)
