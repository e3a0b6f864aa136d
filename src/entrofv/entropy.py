"""Discrete relative entropies, dissipations, norms and decay-rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .schemes import (BScheme, DataError, TransportData, edge_steady_weight,
                      laplacian, signed_power, two_point_matrix)

#: Continuous one-direction Poincare constant of the unit square; callers may
#: override when bounding rates on other domains.
DEFAULT_POINCARE = 1.0 / math.pi ** 2


@dataclass(frozen=True)
class PhiFunction:
    """Convex generator with phi(1) = 0, phi'(1) = 0 and positive curvature."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def power(p: float) -> "PhiFunction":
        if not 1.0 < p <= 2.0:
            raise DataError("power entropies are defined for exponents in (1, 2]")
        if p == 2.0:
            # exact quadratic form; the expanded polynomial would cancel
            # catastrophically near x = 1 and put a ~1e-16 floor on values
            return PhiFunction(
                name="phi2",
                value=lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2,
                d1=lambda x: 2.0 * (np.asarray(x, dtype=float) - 1.0),
                d2=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            )

        def value(x, p=p):
            x = np.asarray(x, dtype=float)
            return (_power_m1(x, p) - p * (x - 1.0)) / (p - 1.0)

        def d1(x, p=p):
            return p * _power_m1(np.asarray(x, dtype=float), p - 1.0) / (p - 1.0)

        def d2(x, p=p):
            return p * np.asarray(x, dtype=float) ** (p - 2.0)

        return PhiFunction(name=f"phi{p:g}", value=value, d1=d1, d2=d2)


def _boltzmann_value(x) -> np.ndarray:
    """x log x - (x - 1) without cancellation near 1; limit value 1 at 0.

    One form for every x: near 1, where x - 1 is exact, ``log(x)`` equals
    ``log1p(x - 1)``; below about 1e-10 the two terms nearly cancel and the
    value carries a relative error of about 1e-14.
    """
    x = np.asarray(x, dtype=float)
    t = x - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(x)
        return np.where(x == 0.0, 1.0, (lg - t) + t * lg)


def _power_m1(x: np.ndarray, q: float) -> np.ndarray:
    """x**q - 1, computed stably near x = 1 (x nonnegative); the power
    entropies and the entrophy subtract q (x - 1) from it."""
    small = np.abs(x - 1.0) < 0.5
    return np.where(small, np.expm1(q * np.log1p(np.where(small, x - 1.0, 0.0))),
                    np.where(small, 1.0, x) ** q - 1.0)


PHI1 = PhiFunction(name="phi1", value=_boltzmann_value, d1=lambda x: np.log(x),
                   d2=lambda x: 1.0 / np.asarray(x, dtype=float))
PHI2 = PhiFunction.power(2.0)


def phi_mean(phi: PhiFunction, s, t):
    """Mean value (varphi(s) - varphi(t)) / (phi'(s) - phi'(t)) with
    varphi(x) = x phi'(x) - phi(x); equal arguments return themselves."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    same = np.isclose(s, t, rtol=1e-13, atol=0.0)
    ss = np.where(same, np.where(s == 0, 1.0, s), s)
    tt = np.where(same, 2.0 * np.where(s == 0, 1.0, s), t)
    var_s = ss * phi.d1(ss) - phi.value(ss)
    var_t = tt * phi.d1(tt) - phi.value(tt)
    out = np.where(same, s, (var_s - var_t) / (phi.d1(ss) - phi.d1(tt)))
    return float(out) if out.ndim == 0 else out


def _check_reference(f_inf: np.ndarray):
    if np.any(f_inf <= 0) or np.any(~np.isfinite(f_inf)):
        raise DataError("reference state must be positive")


def _nonnegative(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.size and np.any(f < -1e-12 * max(1.0, float(np.max(np.abs(f))))):
        raise DataError("field must be non-negative")
    return f


def _phi_entropy(mesh: Mesh, h: np.ndarray, f_inf: np.ndarray, phi: PhiFunction) -> float:
    return float(np.sum(mesh.cell_area * phi.value(h) * f_inf))


def _dissipation(k: sp.csc_matrix, h: np.ndarray, phi: PhiFunction) -> float:
    return float(phi.d1(h) @ (k @ (h - 1.0)))


def _lp(mesh: Mesh, diff: np.ndarray, p: float) -> float:
    return float(np.sum(mesh.cell_area * diff ** p) ** (1.0 / p))


def relative_phi_entropy(mesh: Mesh, f: np.ndarray, f_inf: np.ndarray,
                         phi: PhiFunction) -> float:
    """Area-weighted sum of phi(f / f_inf) * f_inf over the cells."""
    _check_reference(f_inf)
    return _phi_entropy(mesh, np.maximum(_nonnegative(f), 0.0) / f_inf, f_inf, phi)


def steady_edge_factors(mesh: Mesh, data: TransportData, scheme: BScheme,
                        f_inf: np.ndarray) -> sp.csc_matrix:
    """The symmetric two-point matrix K of :func:`phi_dissipation`, fixed by
    the mesh and the steady state and assembled once per run: edge weight
    ``tau * a * w(f_inf)`` (the steady edge weight) on the edges that are not
    no-flux, Dirichlet edges on the diagonal, on the FP operator's pattern."""
    weight = mesh.tau * data.a_edge * edge_steady_weight(mesh, data, scheme, f_inf)
    return two_point_matrix(mesh, weight)


def phi_dissipation(mesh: Mesh, factors: sp.csc_matrix,
                    f: np.ndarray, f_inf: np.ndarray, phi: PhiFunction) -> float:
    """Edge sum tau * a * D(h) * D(phi'(h)) * steady edge weight, h = f/f_inf,
    computed as the bilinear form phi'(h)^T K (h - 1).

    ``factors`` is K = ``steady_edge_factors(mesh, data, scheme, f_inf)``.
    The normalized field h takes the value 1 on Dirichlet edges, where
    phi'(h) is 0 (hence the two forms agree), and no-flux edges add nothing.
    Nonnegative for every admissible phi because phi' is monotone.
    """
    _check_reference(f_inf)
    return _dissipation(factors, np.asarray(f, dtype=float) / f_inf, phi)


class FpDiagnostics:
    """The linear model's trace record against one steady state, which is
    checked once: every record forms h = f / f_inf and f - f_inf once."""

    def __init__(self, mesh: Mesh, data: TransportData, scheme: BScheme,
                 f_inf: np.ndarray):
        _check_reference(f_inf)
        self.mesh, self.f_inf = mesh, f_inf
        self.dissipation_matrix = steady_edge_factors(mesh, data, scheme, f_inf)

    def __call__(self, f: np.ndarray) -> dict:
        f = _nonnegative(f)
        h = np.maximum(f, 0.0) / self.f_inf
        diff = np.abs(f - self.f_inf)
        return {"H_phi1": _phi_entropy(self.mesh, h, self.f_inf, PHI1),
                "H_phi2": _phi_entropy(self.mesh, h, self.f_inf, PHI2),
                "D_phi2": _dissipation(self.dissipation_matrix, h, PHI2),
                "L1": _lp(self.mesh, diff, 1), "L2": _lp(self.mesh, diff, 2)}


def entrophy(mesh: Mesh, f: np.ndarray, f_inf: np.ndarray, m: float) -> float:
    """Relative functional for the nonlinear diffusion model, nonnegative by
    convexity of x ** (m+1); in the factored form f_inf ** (m+1) times the
    bracket of f / f_inf, which keeps accuracy once f hugs the steady state."""
    return PmeDiagnostics(mesh, f_inf, m).entrophy(f)


def entrophy_dissipation(mesh: Mesh, f: np.ndarray, f_inf: np.ndarray,
                         m: float) -> float:
    """Edge sum tau * (D(f^m - f_inf^m))^2, computed as g^T L g with
    g = f^m - f_inf^m and the mesh's stored Laplacian L; g vanishes on the
    Dirichlet boundary because both states share it."""
    if m <= 1:
        raise DataError("exponent must exceed 1")
    g = signed_power(np.asarray(f, dtype=float), m) \
        - signed_power(np.asarray(f_inf, dtype=float), m)
    return float(g @ (laplacian(mesh) @ g))


class PmeDiagnostics:
    """The porous medium's trace record against one steady state, which is
    checked once, as f_inf^m and f_inf^(m+1) are formed once."""

    def __init__(self, mesh: Mesh, f_inf: np.ndarray, m: float):
        if m <= 1:
            raise DataError("exponent must exceed 1")
        self.mesh, self.m, self.f_inf = mesh, m, np.asarray(f_inf, dtype=float)
        _check_reference(self.f_inf)
        self.f_inf_m, self.f_inf_m1 = signed_power(self.f_inf, m), self.f_inf ** (m + 1.0)

    def entrophy(self, f: np.ndarray) -> float:
        z, q = np.maximum(_nonnegative(f), 0.0) / self.f_inf, self.m + 1.0
        term = self.f_inf_m1 * (_power_m1(z, q) - q * (z - 1.0)) / q
        return float(np.sum(self.mesh.cell_area * term))

    def __call__(self, f: np.ndarray) -> dict:
        f = np.asarray(f, dtype=float)
        g = signed_power(f, self.m) - self.f_inf_m
        return {"N_m": self.entrophy(f), "D_m": float(g @ (laplacian(self.mesh) @ g)),
                "Lmp1": _lp(self.mesh, np.abs(f - self.f_inf), self.m + 1.0)}


def dd_entropy(mesh: Mesh, state, ref, lam: float) -> float:
    """Relative entropy of a drift-diffusion state against a reference state.

    Density part uses H(x) = x log x - x + 1, for which
    H(N) - H(Nr) - log(Nr)(N - Nr) = Nr * phi1(N / Nr); the potential part is
    the gradient-like edge sum of V - V_ref scaled by half the squared Debye
    length, a quadratic form of the mesh's stored Laplacian.  Both states
    share the Dirichlet data, so the boundary values of V - V_ref vanish.
    """
    n_field, p_field, v_field = (np.asarray(x, dtype=float) for x in state)
    n_ref, p_ref, v_ref = (np.asarray(x, dtype=float) for x in ref)
    for arr in (n_field, p_field, n_ref, p_ref):
        if np.any(arr <= 0):
            raise DataError("densities must be positive")
    density = (n_ref * _boltzmann_value(n_field / n_ref)
               + p_ref * _boltzmann_value(p_field / p_ref))
    dv = v_field - v_ref
    potential = 0.5 * lam * lam * float(dv @ (laplacian(mesh) @ dv))
    return float(np.sum(mesh.cell_area * density) + potential)


def lp_distance(mesh: Mesh, f: np.ndarray, g: np.ndarray, p: float) -> float:
    """Area-weighted distance (sum m(K) |f - g|^p) ** (1/p)."""
    if p < 1:
        raise DataError("p must be at least 1")
    return _lp(mesh, np.abs(np.asarray(f, dtype=float) - np.asarray(g, dtype=float)), p)


class EntropyTrace:
    """Time series of diagnostics recorded at every accepted step."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        if self.columns[:2] != ("t", "dt"):
            raise ValueError("trace columns must start with t and dt")
        self._data: dict[str, list[float]] = {c: [] for c in self.columns}

    def append(self, record: dict):
        t = record["t"]
        if self._data["t"] and t <= self._data["t"][-1]:
            raise ValueError("record times must be strictly increasing")
        for c in self.columns:
            self._data[c].append(float(record[c]))

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self._data[name])

    def __len__(self):
        return len(self._data["t"])

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for i in range(len(self)):
            lines.append(",".join(format(self._data[c][i], ".17g") for c in self.columns))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FitResult:
    rate: float
    residual: float


def fit_decay_rate(trace: EntropyTrace, field: str, window) -> FitResult:
    """Least-squares slope of log(value) against time over a window, negated."""
    t_a, t_b = window
    t = trace.column("t")
    v = trace.column(field)
    mask = (t >= t_a) & (t <= t_b)
    if mask.sum() < 5:
        raise DataError(f"decay fit needs at least 5 samples in [{t_a}, {t_b}], "
                        f"got {int(mask.sum())}")
    if np.any(v[mask] <= 0):
        raise DataError(f"decay fit needs positive {field} values in the window")
    ts = t[mask]
    ys = np.log(v[mask])
    design = np.column_stack([ts, np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return FitResult(rate=float(-coef[0]), residual=rms)


def theoretical_rate_fp(alpha: float, m_inf: float, big_m_inf: float, beta: float,
                        xi: float, c_poincare: float, k: float) -> float:
    """Guaranteed lower bound on the 2-entropy decay rate of the linear model."""
    return math.log1p(k * xi * beta * alpha * m_inf / (c_poincare * big_m_inf)) / k


def theoretical_rate_pme(m_dirichlet: float, m: float, xi: float,
                         c_poincare: float, k: float) -> float:
    """Guaranteed lower bound on the entrophy decay rate."""
    return math.log1p(k * xi * m_dirichlet ** (m - 1.0) / c_poincare) / k
