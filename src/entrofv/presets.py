"""The bundled experiments: problem builders, run configs and CSV emission.

Every preset resolves to a concrete problem on the reference mesh family.
Boundary data is discretized as exact edge means, potentials are sampled at
cell centers and their orthogonal projections onto Dirichlet edges, initial
data and cellwise coefficients at cell centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .entropy import EntropyTrace, fit_decay_rate, lp_distance
from .linalg import LinAlgError
from .mesh import (BOTTOM, LEFT, MAX_REFERENCE_LEVEL, RIGHT, TOP, BoundarySpec,
                   Mesh, Segment, reference_mesh)
from .schemes import SCHEMES, AssemblyError, BScheme, DataError, DdData, \
    advection_from_potential, assemble_fp_operator, discretize_coefficients
from .solvers import (DdProblem, FpProblem, PmeProblem, SolverError,
                      StepperConfig, TransientResult, run_transient, solve_fp_steady)


class UsageError(Exception):
    """Bad configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# problem builders

#: The boundary layouts of the problems below, by the name ``mesh gen
#: --boundary`` takes.
BOUNDARY_NAMES = {
    "all-dirichlet": BoundarySpec.all_dirichlet(),
    "left-right": BoundarySpec(dirichlet=(LEFT, RIGHT), neumann=(BOTTOM, TOP)),
    "top-bottom": BoundarySpec(dirichlet=(TOP, BOTTOM), neumann=(LEFT, RIGHT)),
    "right": BoundarySpec(dirichlet=(RIGHT,), neumann=(LEFT, TOP, BOTTOM)),
    "pn": BoundarySpec(dirichlet=(BOTTOM, Segment(1, 1.0, 0.0, 0.25)),
                       neumann=(LEFT, RIGHT, Segment(1, 1.0, 0.25, 1.0))),
}


def toy_problem(level: int) -> FpProblem:
    """Unit advection along the first axis, boundary values 1 and e."""
    mesh = reference_mesh(level, BOUNDARY_NAMES["left-right"])
    geo = mesh.geometry
    phi_cells = mesh.cell_center[:, 0]
    phi_dir = np.where(mesh.dirichlet, geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh, phi_cells, phi_dir)
    f_dir = np.where(mesh.dirichlet, np.exp(geo.edge_midpoint[:, 0]), np.nan)
    data = discretize_coefficients(mesh, 1.0, f_dir, u_first=u)
    x1 = geo.cell_centroid[:, 0]
    f0 = np.exp(x1) + np.exp(x1 / 2.0) * np.sin(np.pi * x1)
    return FpProblem(mesh=mesh, data=data, f0=f0)


def toy_real_steady(mesh: Mesh) -> np.ndarray:
    """Exponential of the potential at the scheme points; solves the
    Scharfetter-Gummel steady system exactly."""
    return np.exp(mesh.cell_center[:, 0])


#: Low-diffusion barrier blocks of the heterogeneous test; two axis-aligned
#: rectangles whose sides lie on mesh edge lines from level 2 on.
HETERO_BARRIER = (((0.0, 0.75), (0.25, 0.5)), ((0.25, 1.0), (0.625, 0.875)))
HETERO_DRAIN_DIFFUSION = 3.0
HETERO_BARRIER_DIFFUSION = 0.01
HETERO_LOW_VALUE = 0.018


def _in_barrier(points: np.ndarray) -> np.ndarray:
    inside = np.zeros(points.shape[0], dtype=bool)
    for (x0, x1), (y0, y1) in HETERO_BARRIER:
        inside |= ((points[:, 0] > x0) & (points[:, 0] < x1)
                   & (points[:, 1] > y0) & (points[:, 1] < y1))
    return inside


def hetero_problem(level: int) -> FpProblem:
    """Drain/barrier diffusion contrast with a constant drift, driven from
    the top boundary toward the bottom one."""
    mesh = reference_mesh(level, BOUNDARY_NAMES["top-bottom"])
    geo = mesh.geometry
    a_cells = np.where(_in_barrier(geo.cell_centroid),
                       HETERO_BARRIER_DIFFUSION, HETERO_DRAIN_DIFFUSION)
    # constant advection (-1/2, 0) derives from the potential -x1/2
    phi_cells = -0.5 * mesh.cell_center[:, 0]
    phi_dir = np.where(mesh.dirichlet, -0.5 * geo.edge_midpoint[:, 0], np.nan)
    u = advection_from_potential(mesh, phi_cells, phi_dir)
    top = mesh.dirichlet & (np.abs(geo.edge_midpoint[:, 1] - 1.0) < 1e-9)
    f_dir = np.where(mesh.dirichlet, np.where(top, 1.0, HETERO_LOW_VALUE), np.nan)
    data = discretize_coefficients(mesh, a_cells, f_dir, u_first=u)
    f0 = np.full(mesh.n_cells, HETERO_LOW_VALUE)
    return FpProblem(mesh=mesh, data=data, f0=f0)


def fill_problem(level: int, m: float = 4.0) -> PmeProblem:
    """Nonlinear filling of an initially empty medium from the right edge;
    boundary value 2.5 on the (0.3, 0.7) strip of the edge and 1 elsewhere."""
    mesh = reference_mesh(level, BOUNDARY_NAMES["right"])
    geo = mesh.geometry
    f_dir = np.full(mesh.n_edges, np.nan)
    for e in np.nonzero(mesh.dirichlet)[0]:
        va, vb = geo.vertices[geo.edge_vertices[e]]
        y0, y1 = sorted((float(va[1]), float(vb[1])))
        overlap = max(0.0, min(y1, 0.7) - max(y0, 0.3))
        f_dir[e] = (2.5 * overlap + 1.0 * ((y1 - y0) - overlap)) / (y1 - y0)
    return PmeProblem(mesh=mesh, m=m, f_dirichlet=f_dir,
                      f0=np.zeros(mesh.n_cells))


def sweep_problem(level: int, m: float, m_dirichlet: float,
                  mesh: Optional[Mesh] = None) -> PmeProblem:
    """Constant Dirichlet data on the whole boundary, empty initial state;
    ``mesh``, if given, must be the level's all-Dirichlet reference mesh."""
    if mesh is None:
        mesh = reference_mesh(level, BOUNDARY_NAMES["all-dirichlet"])
    f_dir = np.where(mesh.dirichlet, m_dirichlet, np.nan)
    return PmeProblem(mesh=mesh, m=m, f_dirichlet=f_dir,
                      f0=np.zeros(mesh.n_cells))


#: Upper-left quadrant acts as the P-doped region of the junction.
PN_P_REGION = ((0.0, 0.5), (0.5, 1.0))


def pn_problem(level: int, lam: float = 1.0, bias: float = 0.0,
               doping_magnitude: float = 1.0) -> DdProblem:
    """Junction diode with ohmic contacts on the bottom edge and the left
    quarter of the top edge; optional applied bias between the contacts."""
    mesh = reference_mesh(level, BOUNDARY_NAMES["pn"])
    geo = mesh.geometry
    dmask = mesh.dirichlet
    mid = geo.edge_midpoint
    bottom = dmask & (np.abs(mid[:, 1]) < 1e-9)

    n_dir = np.where(dmask, np.where(bottom, math.e, 1.0), np.nan)
    p_dir = np.where(dmask, np.where(bottom, 1.0 / math.e, 1.0), np.nan)
    v_bias = np.where(bottom, bias, -bias)
    v_dir = np.where(dmask, 0.5 * (np.log(n_dir) - np.log(p_dir)) + v_bias, np.nan)

    cen = geo.cell_centroid
    (x0, x1), (y0, y1) = PN_P_REGION
    p_region = (cen[:, 0] > x0) & (cen[:, 0] < x1) & (cen[:, 1] > y0) & (cen[:, 1] < y1)
    doping = np.where(p_region, -doping_magnitude, doping_magnitude)

    dd = DdData(doping=doping, debye=lam, n_dirichlet=n_dir,
                p_dirichlet=p_dir, v_dirichlet=v_dir)
    n0 = math.e + (1.0 - math.e) * (1.0 - np.sqrt(cen[:, 1]))
    p0 = 1.0 / math.e + (1.0 - 1.0 / math.e) * (1.0 - np.sqrt(cen[:, 1]))
    return DdProblem(mesh=mesh, dd=dd, n0=n0, p0=p0)


# ---------------------------------------------------------------------------
# run configuration and the preset catalog


@dataclass(frozen=True)
class RunConfig:
    preset: str
    scheme: Optional[str] = None
    level: Optional[int] = None
    dt: Optional[float] = None
    t_final: Optional[float] = None
    entropy_floor: float = 1e-14
    out: Optional[str] = None
    force_peclet: bool = False
    m: Optional[float] = None
    m_dirichlet: Optional[float] = None
    debye: Optional[float] = None
    bias: Optional[float] = None
    doping: Optional[float] = None

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_final", self.t_final),
                            ("lambda", self.debye), ("m_dirichlet", self.m_dirichlet)):
            if value is not None and not 0 < value < math.inf:
                raise UsageError(f"{name} must be positive and finite, got {value:g}")
        if self.level is not None and not 0 <= self.level <= MAX_REFERENCE_LEVEL:
            raise UsageError(f"level must lie in 0..{MAX_REFERENCE_LEVEL}, got {self.level}")
        for name, value in (("bias", self.bias), ("doping", self.doping)):
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value:g}")
        if self.m is not None and not 1 < self.m < math.inf:
            raise UsageError(f"m must exceed 1 and be finite, got {self.m:g}")
        if self.out is not None and not self.out.strip():  # Path("") is the working directory
            raise UsageError(f"out must name a directory, got {self.out!r}")
        if not 0 <= self.entropy_floor < math.inf:
            raise UsageError(f"entropy_floor must be non-negative and finite, "
                             f"got {self.entropy_floor:g}")


#: The ``RunConfig`` fields every preset reads.
COMMON_OPTIONS = ("preset", "scheme", "level", "dt", "t_final", "entropy_floor", "out")


@dataclass(frozen=True)
class Preset:
    name: str
    build: Callable[[RunConfig], object]  # resolved config -> problem
    level: int
    dt: float
    t_final: float
    reads: dict  # the RunConfig fields it reads beyond the common ones, with their defaults
    adaptive: bool = False
    scheme: str = "sg"


_CATALOG = (  # README's preset table describes each one
    Preset("fp-toy",
           lambda cfg: replace(toy_problem(cfg.level), force_peclet=cfg.force_peclet),
           level=0, dt=1e-2, t_final=4.0, reads={"force_peclet": False}),
    Preset("fp-hetero",
           lambda cfg: replace(hetero_problem(cfg.level), force_peclet=cfg.force_peclet),
           level=4, dt=1e-2, t_final=2.0, reads={"force_peclet": False}, scheme="upwind"),
    Preset("pme-fill", lambda cfg: fill_problem(cfg.level, m=cfg.m),
           level=3, dt=1e-3, t_final=15.0, reads={"m": 4.0}, adaptive=True),
    Preset("pme-sweep", lambda cfg: sweep_problem(cfg.level, cfg.m, cfg.m_dirichlet),
           level=2, dt=1e-3, t_final=60.0, reads={"m": 2.0, "m_dirichlet": 1.0}, adaptive=True),
    Preset("dd-pn", lambda cfg: pn_problem(cfg.level, cfg.debye, doping_magnitude=cfg.doping),
           level=3, dt=1e-2, t_final=10.0, reads={"debye": 1.0, "doping": 1.0}),
    Preset("dd-bias", lambda cfg: pn_problem(cfg.level, cfg.debye, cfg.bias, cfg.doping),
           level=2, dt=1e-2, t_final=10.0, reads={"debye": 1.0, "bias": 2.5, "doping": 1.0}),
)

SWEEP_EXPONENTS = (2.0, 3.0, 4.0)
SWEEP_BOUNDARY_LEVELS = (0.1, 1.0, 5.0)


def presets() -> dict[str, Preset]:
    return {p.name: p for p in _CATALOG}


def _stepper(preset: Preset, cfg: RunConfig) -> StepperConfig:
    if preset.adaptive:
        return StepperConfig(t_final=cfg.t_final, dt0=min(cfg.dt, 1e-2),
                             dt_min=min(StepperConfig.dt_min, cfg.dt),
                             entropy_floor=cfg.entropy_floor)
    return StepperConfig.fixed(cfg.dt, cfg.t_final, entropy_floor=cfg.entropy_floor)


def _resolve(cfg: RunConfig) -> tuple[Preset, RunConfig]:
    """The preset ``cfg`` selects, and ``cfg`` with every unset option taken from it.  An
    unknown preset or scheme, or an option the preset does not read, is a usage error."""
    catalog = presets()
    if cfg.preset not in catalog:
        raise UsageError(f"unknown preset {cfg.preset!r}; "
                         f"choose from {sorted(catalog)}")
    preset = catalog[cfg.preset]
    unread = [name for name, value in vars(cfg).items() if value is not None
              and value is not False and name not in COMMON_OPTIONS + tuple(preset.reads)]
    if unread:  # the Debye length is the option lambda
        raise UsageError(f"preset {preset.name} does not read {', '.join(unread)}; it reads "
                         f"{', '.join(preset.reads)}".replace("debye", "lambda"))
    defaults = {"scheme": preset.scheme, "level": preset.level, "dt": preset.dt,
                "t_final": preset.t_final, **preset.reads}
    cfg = replace(cfg, **{name: value for name, value in defaults.items()
                          if getattr(cfg, name) is None})
    if cfg.scheme not in SCHEMES:
        raise UsageError(f"unknown scheme {cfg.scheme!r}; choose from {sorted(SCHEMES)}")
    return preset, cfg


def build_problem(cfg: RunConfig):
    """Resolve a configuration to (problem, scheme, stepper)."""
    preset, cfg = _resolve(cfg)
    return preset.build(cfg), SCHEMES[cfg.scheme], _stepper(preset, cfg)


# ---------------------------------------------------------------------------
# running and output emission


def _write_steady(path: Path, steady) -> None:
    """One line per cell: its index and the steady state's values there."""
    rows = np.atleast_2d(steady).T
    n, k = rows.shape
    flat = np.column_stack((np.arange(n), rows)).ravel().tolist()
    path.write_text(("%d" + " %.17g" * k + "\n") * n % tuple(flat))


#: What one run writes into its directory; none of them outlives a rerun.
_RUN_FILES = ("trace.csv", "steady.txt", "error.txt")


def _run_into(out: Path, problem, scheme: BScheme,
              stepper: StepperConfig) -> Optional[TransientResult]:
    """Run one transient and write its trace.csv and steady.txt under
    ``out``, or error.txt on a solver failure (then None is returned)."""
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_transient(problem, scheme, stepper)
    except (SolverError, AssemblyError, DataError, LinAlgError) as err:
        (out / "error.txt").write_text(str(err) + "\n")
        print(f"{out}: solver failure: {err}")
        return None
    (out / "trace.csv").write_text(result.trace.to_csv())
    _write_steady(out / "steady.txt", result.steady)
    if result.abort_reason is not None:
        print(f"{out}: run aborted: {result.abort_reason} (partial trace flushed)")
    return result


def run(cfg: RunConfig) -> int:
    """Execute one preset run; emits trace.csv and steady.txt, returns the
    exit status (0 success, 1 solver failure or abort)."""
    out = Path(cfg.out if cfg.out is not None
               else f"runs/{cfg.preset}-{cfg.scheme or 'default'}")
    _resolve(cfg)  # a usage error leaves the directory as it was
    # the run files of earlier runs of both kinds go, and the point directories they empty
    for name in (*_RUN_FILES, "rates.csv"):
        (out / name).unlink(missing_ok=True)
    for point in out.glob("m*-md*"):
        if point.is_dir():
            for name in _RUN_FILES:
                (point / name).unlink(missing_ok=True)
            if not any(point.iterdir()):
                point.rmdir()
    if cfg.preset == "pme-sweep":
        return _run_sweep(cfg, out)
    result = _run_into(out, *build_problem(cfg))
    if result is None or result.abort_reason is not None:
        return 1
    print(f"wrote {out / 'trace.csv'} ({len(result.trace)} records) "
          f"and {out / 'steady.txt'}")
    return 0


def sweep_rate(trace: EntropyTrace) -> float:
    """Fitted decay rate of the relative functional over its clean
    log-linear stretch (relative levels 1e-9 .. 1e-4)."""
    values = trace.column("N_m")
    t = trace.column("t")
    mask = (values > 1e-9 * values[0]) & (values < 1e-4 * values[0])
    if mask.sum() < 5:
        raise SolverError("trace too short to fit a decay rate")
    return fit_decay_rate(trace, "N_m", (t[mask][0], t[mask][-1])).rate


def _run_sweep(cfg: RunConfig, out: Path) -> int:
    """Run every sweep point into its own directory and write rates.csv; a
    point that fails or aborts gets no rate row and makes the status 1."""
    preset, resolved = _resolve(cfg)
    m, md = resolved.m, resolved.m_dirichlet
    points = [(m, md)]  # either option set runs the one point it names
    if cfg.m is None and cfg.m_dirichlet is None:  # else the grid through the defaults
        points = [(m, x) for x in SWEEP_BOUNDARY_LEVELS]
        points += [(x, md) for x in SWEEP_EXPONENTS if (x, md) not in points]
    scheme, stepper = SCHEMES[resolved.scheme], _stepper(preset, resolved)
    mesh = None  # built by the first point's sweep_problem, shared by the rest

    def one(point) -> Optional[str]:
        nonlocal mesh
        m, md = point
        problem = sweep_problem(resolved.level, m=m, m_dirichlet=md, mesh=mesh)
        mesh = problem.mesh
        result = _run_into(out / f"m{m:g}-md{md:g}", problem, scheme, stepper)
        if result is None or result.abort_reason is not None:
            return None
        try:
            return f"{m:.17g},{md:.17g},{sweep_rate(result.trace):.17g}"
        except SolverError:
            return f"{m:.17g},{md:.17g},"  # run too short to fit

    rows = [one(p) for p in points]
    rate_rows = ["m,m_dirichlet,rate", *(row for row in rows if row is not None)]
    (out / "rates.csv").write_text("\n".join(rate_rows) + "\n")
    print(f"ran {len(rows)} sweep points under {out}")
    return 1 if None in rows else 0


# ---------------------------------------------------------------------------
# convergence study


def convergence_study(preset: str, levels, schemes) -> tuple[str, str]:
    """Steady-state errors against the exact reference per level and scheme.

    Returns (text table, csv).  An order is per halving of the cell size,
    also across a gap of levels, and is omitted where an error sits at the
    round-off floor.
    """
    if preset != "fp-toy":
        raise UsageError("only the fp-toy preset defines an exact steady reference")
    levels = list(levels)
    names = list(schemes)
    for s in names:
        if s not in SCHEMES:
            raise UsageError(f"unknown scheme {s!r}")

    errors: dict[str, list[float]] = {s: [] for s in names}
    for level in levels:
        problem = toy_problem(level)
        reference = toy_real_steady(problem.mesh)
        for s in names:
            steady = solve_fp_steady(*assemble_fp_operator(problem.mesh, problem.data,
                                                           SCHEMES[s]))
            errors[s].append(lp_distance(problem.mesh, steady, reference, 1))

    def order(s: str, i: int) -> Optional[float]:
        e0, e1 = errors[s][i - 1], errors[s][i]
        if min(e0, e1) < 1e-13:
            return None
        return math.log2(e0 / e1) / (levels[i] - levels[i - 1])

    header = ["dx"]
    for s in names:
        header += [f"{s}_err", f"{s}_order"]
    csv_lines = [",".join(header)]
    text_lines = ["dx        " + "  ".join(f"{s:>10} {'order':>6}" for s in names)]
    for i, level in enumerate(levels):
        dx = 0.25 / 2 ** level
        row_txt = [f"1/{int(round(1 / dx)):<7}"]
        row_csv = [format(dx, ".17g")]
        for s in names:
            err = errors[s][i]
            o = order(s, i) if i > 0 else None
            row_txt.append(f"{err:10.3e} {o:6.2f}" if o is not None else f"{err:10.3e} {'-':>6}")
            row_csv.append(format(err, ".17g"))
            row_csv.append(format(o, ".17g") if o is not None else "")
        text_lines.append("  ".join(row_txt))
        csv_lines.append(",".join(row_csv))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"
