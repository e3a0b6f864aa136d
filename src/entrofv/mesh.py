"""Admissible orthogonal meshes of the unit square for two-point flux schemes.

A mesh is stored as its TPFA graph: cell measures and centers, edge measures,
center distances, cell/edge incidences and boundary tags.  The reference
family is a fixed 56-triangle tiling of the unit square whose cell centers
are circumcenters, so the center-to-center segment of every interior edge is
orthogonal to the edge by construction.  Each level tiles four half-scale
copies of the level below, which preserves all similarity ratios and
therefore the regularity constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_TAG_TO_CHAR = {INTERIOR: "I", DIRICHLET: "D", NEUMANN: "N"}
_CHAR_TO_TAG = {"I": INTERIOR, "D": DIRICHLET, "N": NEUMANN}

MAX_REFERENCE_LEVEL = 8

ORTHOGONALITY_TOL = 1e-10
MEASURE_RTOL = 1e-12
_MATCH_TOL = 1e-9


class MeshError(Exception):
    """Invalid mesh topology, geometry or data."""


class MeshFormatError(MeshError):
    """Malformed TPFA graph text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Segment:
    """Axis-aligned boundary segment: axis=0 is a vertical line x=value."""

    axis: int
    value: float
    lo: float
    hi: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point (the last axis holds x, y) lies on the segment,
        to within ``_MATCH_TOL``."""
        t = points[..., 1 - self.axis]
        return ((np.abs(points[..., self.axis] - self.value) <= _MATCH_TOL)
                & (self.lo - _MATCH_TOL <= t) & (t <= self.hi + _MATCH_TOL))


LEFT = Segment(0, 0.0, 0.0, 1.0)
RIGHT = Segment(0, 1.0, 0.0, 1.0)
BOTTOM = Segment(1, 0.0, 0.0, 1.0)
TOP = Segment(1, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class BoundarySpec:
    """Assignment of exterior edges to Dirichlet/Neumann by midpoint position."""

    dirichlet: tuple[Segment, ...]
    neumann: tuple[Segment, ...] = ()

    @staticmethod
    def all_dirichlet() -> "BoundarySpec":
        return BoundarySpec(dirichlet=(LEFT, RIGHT, BOTTOM, TOP))

    def tags(self, midpoints: np.ndarray) -> np.ndarray:
        """DIRICHLET or NEUMANN for each exterior edge midpoint; the first
        midpoint on both kinds of segment, or on none, raises."""
        in_d = np.zeros(len(midpoints), dtype=bool)
        in_n = np.zeros(len(midpoints), dtype=bool)
        for segments, hit in ((self.dirichlet, in_d), (self.neumann, in_n)):
            for s in segments:
                hit |= s.contains(midpoints)
        bad = np.flatnonzero(in_d == in_n)
        if bad.size:
            point = tuple(midpoints[bad[0]])
            if in_d[bad[0]]:
                raise MeshError(f"boundary point {point} tagged both Dirichlet and Neumann")
            raise MeshError(f"boundary point {point} matches no boundary segment")
        return np.where(in_d, DIRICHLET, NEUMANN).astype(np.uint8)


def _freeze(values) -> None:
    """Make the arrays among ``values`` read-only: runs on one mesh share them."""
    for arr in values:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)


@dataclass(frozen=True)
class MeshGeometry:
    """Vertex-level payload kept for generated meshes (lost on serialization)."""

    vertices: np.ndarray          # (V, 2)
    edge_vertices: np.ndarray     # (E, 2) vertex indices
    edge_midpoint: np.ndarray     # (E, 2)
    cell_centroid: np.ndarray     # (T, 2) mass centers, used for data sampling
    boundary: BoundarySpec


@dataclass(frozen=True)
class Mesh:
    """TPFA graph of an admissible mesh.  Immutable after construction.

    ``edge_cells[:, 1]`` is -1 on exterior edges and ``edge_dcell[:, 1]`` is
    NaN there.  ``tau = edge_length / edge_d`` is the transmissibility.
    """

    cell_area: np.ndarray         # (n,)
    cell_center: np.ndarray       # (n, 2)
    edge_length: np.ndarray       # (E,)
    edge_d: np.ndarray            # (E,)
    edge_cells: np.ndarray        # (E, 2) int
    edge_dcell: np.ndarray        # (E, 2)
    edge_tag: np.ndarray          # (E,) uint8
    xi: float
    domain_measure: float
    geometry: Optional[MeshGeometry] = None
    tau: np.ndarray = field(init=False)
    interior: np.ndarray = field(init=False)   # (E,) bool masks by edge tag
    dirichlet: np.ndarray = field(init=False)
    neumann: np.ndarray = field(init=False)
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "tau", self.edge_length / self.edge_d)
        for name, tag in (("interior", INTERIOR), ("dirichlet", DIRICHLET),
                          ("neumann", NEUMANN)):
            object.__setattr__(self, name, self.edge_tag == tag)
        _freeze([*vars(self).values(), *(vars(self.geometry).values() if self.geometry else ())])

    @property
    def n_cells(self) -> int:
        return self.cell_area.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_length.shape[0]

    def derived(self, key, build):
        """Value that depends on this mesh alone, made by ``build(self)`` at
        the first use of ``key`` and kept with the mesh, arrays and sparse
        values read-only: every later use of ``key`` gets that same object."""
        try:
            return self._derived[key]
        except KeyError:
            value = build(self)
            parts = value if isinstance(value, tuple) else (value,)
            _freeze(part.data if sp.issparse(part) else part for part in parts)
            return self._derived.setdefault(key, value)


@dataclass(frozen=True)
class Violation:
    hypothesis: str
    message: str
    ids: tuple = ()

    def __str__(self):
        suffix = f" (ids: {list(self.ids)[:8]}{'...' if len(self.ids) > 8 else ''})" if self.ids else ""
        return f"[{self.hypothesis}] {self.message}{suffix}"


@dataclass(frozen=True)
class AdmissibilityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "admissible"
        return "\n".join(str(v) for v in self.violations)


# Coarsest reference mesh of the unit square: 37 vertices, 56 triangles,
# largest cell diameter 1/4.  All circumcenters lie strictly on their side
# of every incident edge (min ratio d_cell/d_edge ~ 0.3235).
_COARSE_VERTICES = (
    (0.0, 0.0), (0.0, 0.25), (0.0, 0.5), (0.0, 0.75), (0.0, 1.0),
    (0.15, 0.15), (0.15, 0.65), (0.175, 0.325), (0.175, 0.825),
    (0.25, 0.0), (0.25, 0.5), (0.25, 1.0),
    (0.325, 0.175), (0.325, 0.675), (0.35, 0.35), (0.35, 0.85),
    (0.5, 0.0), (0.5, 0.25), (0.5, 0.5), (0.5, 0.75), (0.5, 1.0),
    (0.65, 0.15), (0.65, 0.65), (0.675, 0.325), (0.675, 0.825),
    (0.75, 0.0), (0.75, 0.5), (0.75, 1.0),
    (0.825, 0.175), (0.825, 0.675), (0.85, 0.35), (0.85, 0.85),
    (1.0, 0.0), (1.0, 0.25), (1.0, 0.5), (1.0, 0.75), (1.0, 1.0),
)

_COARSE_TRIANGLES = (
    (0, 9, 5), (16, 25, 21), (9, 16, 12), (25, 32, 28),
    (5, 9, 12), (21, 25, 28), (0, 5, 1), (16, 21, 17),
    (12, 16, 17), (28, 32, 33), (5, 12, 7), (21, 28, 23),
    (1, 5, 7), (17, 21, 23), (12, 17, 14), (28, 33, 30),
    (7, 12, 14), (23, 28, 30), (1, 7, 2), (17, 23, 18),
    (14, 17, 18), (30, 33, 34), (7, 14, 10), (23, 30, 26),
    (2, 7, 10), (18, 23, 26), (10, 14, 18), (26, 30, 34),
    (2, 10, 6), (18, 26, 22), (10, 18, 13), (26, 34, 29),
    (6, 10, 13), (22, 26, 29), (2, 6, 3), (18, 22, 19),
    (13, 18, 19), (29, 34, 35), (6, 13, 8), (22, 29, 24),
    (3, 6, 8), (19, 22, 24), (13, 19, 15), (29, 35, 31),
    (8, 13, 15), (24, 29, 31), (3, 8, 4), (19, 24, 20),
    (15, 19, 20), (31, 35, 36), (8, 15, 11), (24, 31, 27),
    (4, 8, 11), (20, 24, 27), (11, 15, 20), (27, 31, 36),
)


def _circumcenters(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1])
               + c[:, 0] * (a[:, 1] - b[:, 1]))
    if np.any(np.abs(d) < 1e-14):
        raise MeshError("degenerate triangle in triangulation")
    asq = (a ** 2).sum(axis=1)
    bsq = (b ** 2).sum(axis=1)
    csq = (c ** 2).sum(axis=1)
    ux = (asq * (b[:, 1] - c[:, 1]) + bsq * (c[:, 1] - a[:, 1]) + csq * (a[:, 1] - b[:, 1])) / d
    uy = (asq * (c[:, 0] - b[:, 0]) + bsq * (a[:, 0] - c[:, 0]) + csq * (b[:, 0] - a[:, 0])) / d
    return np.column_stack([ux, uy])


def _triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, rounded like ``np.dot`` on each row
    (``(x * y).sum(-1)`` is not, and would change the saved mesh text)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _center_distances(midpoint: np.ndarray, normal: np.ndarray, cells: np.ndarray,
                      centers: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Signed distance from the center of each edge's cell to the edge line,
    along the edge normal turned to point out of the cell (away from its
    centroid); one (E, 2) gather at a time."""
    outward = np.where(_row_dot(midpoint - centroids[cells], normal) > 0, 1.0, -1.0)
    return outward * _row_dot(midpoint - centers[cells], normal)


def build_from_triangulation(vertices: np.ndarray, triangles: np.ndarray,
                             boundary: BoundarySpec) -> Mesh:
    """Assemble the TPFA graph of a triangulation with circumcenter points.

    Edges are numbered in lexicographic order of their sorted vertex pairs,
    and the cells of an interior edge in ascending order.  One stable argsort
    of the sides' edge keys gives both: it groups the sides edge by edge in
    key order, and within an edge keeps them in side order, in which side
    s = 3 t + i belongs to triangle t = s // 3, so the owners ascend.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    areas = _triangle_areas(vertices, triangles)
    if np.any(areas <= 0):
        raise MeshError("triangles must be counter-clockwise with positive area")
    centers = _circumcenters(vertices, triangles)
    centroids = vertices[triangles].mean(axis=1)

    # side s = 3 t + i of triangle t joins tri[i] and tri[i + 1]; sides
    # sharing a sorted vertex pair (a, b) share the key a * V + b, whose order
    # is that of (a, b)
    ends = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1).reshape(-1, 2)
    ends.sort(axis=1)
    keys = ends[:, 0] * vertices.shape[0] + ends[:, 1]
    sides = np.argsort(keys, kind="stable")
    start = np.flatnonzero(np.diff(keys[sides], prepend=-1))  # first side of each edge
    del keys  # temporaries go once used: with the kept arrays they set the peak
    edge_vertices = ends[sides[start]]
    n_edges = start.size
    count = np.diff(start, append=sides.size)
    if np.any(count > 2):
        key = tuple(int(v) for v in edge_vertices[np.argmax(count > 2)])
        raise MeshError(f"edge {key} shared by more than two triangles")
    interior = count == 2
    edge_cells = np.full((n_edges, 2), -1, dtype=np.int64)
    edge_cells[:, 0] = sides[start] // 3
    edge_cells[interior, 1] = sides[start[interior] + 1] // 3
    del ends, sides, start, count

    ev_a = vertices[edge_vertices[:, 0]]
    ev_b = vertices[edge_vertices[:, 1]]
    edge_length = np.hypot(*(ev_b - ev_a).T)
    midpoint = 0.5 * (ev_a + ev_b)
    # unit normals of the edges; sign fixed per incident cell below
    tang = (ev_b - ev_a) / edge_length[:, None]
    normal = np.column_stack([-tang[:, 1], tang[:, 0]])
    del ev_a, ev_b, tang

    # signed distance from each cell center to the edge line, measured along
    # the outward normal; must be positive for admissibility
    edge_dcell = np.full((n_edges, 2), np.nan)
    edge_dcell[:, 0] = _center_distances(midpoint, normal, edge_cells[:, 0],
                                         centers, centroids)
    edge_dcell[interior, 1] = _center_distances(midpoint[interior], normal[interior],
                                                edge_cells[interior, 1], centers, centroids)
    c0, c1 = edge_cells[interior, 0], edge_cells[interior, 1]
    edge_d = edge_dcell[:, 0].copy()
    edge_d[interior] = np.hypot(*(centers[c0] - centers[c1]).T)
    edge_tag = np.full(n_edges, INTERIOR, dtype=np.uint8)
    edge_tag[~interior] = boundary.tags(midpoint[~interior])

    if np.any(edge_dcell[~np.isnan(edge_dcell)] <= 0):
        raise MeshError("a cell center falls on the wrong side of an edge")

    xi = float(np.nanmin(edge_dcell / edge_d[:, None]))
    geometry = MeshGeometry(vertices=vertices, edge_vertices=edge_vertices,
                            edge_midpoint=midpoint, cell_centroid=centroids,
                            boundary=boundary)
    return Mesh(cell_area=areas, cell_center=centers, edge_length=edge_length,
                edge_d=edge_d, edge_cells=edge_cells, edge_dcell=edge_dcell,
                edge_tag=edge_tag, xi=xi, domain_measure=1.0, geometry=geometry)


def reference_mesh(level: int, boundary: BoundarySpec) -> Mesh:
    """Level ``l`` of the reference family: 56 * 4**l cells, diameter 4**-l / 4."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > MAX_REFERENCE_LEVEL:
        raise MeshError(
            f"refusing level {level} > {MAX_REFERENCE_LEVEL}: "
            f"{56 * 4 ** level} cells would exhaust memory")
    vertices = np.array(_COARSE_VERTICES)
    triangles = np.array(_COARSE_TRIANGLES)
    for _ in range(level):
        vertices, triangles = _refine_triangulation(vertices, triangles)
    return build_from_triangulation(vertices, triangles, boundary)


def _refine_triangulation(vertices: np.ndarray, triangles: np.ndarray):
    """Four half-scale copies tiling the unit square; vertices shared by
    copies are merged and numbered in order of first appearance.

    Copies match on their coordinates in units of 2**-30.  Those integers lie
    in [0, 2**30], below 2**31, so the one key kx * 2**31 + ky orders the
    vertices as the pairs (kx, ky) do, and ``np.unique`` finds the same
    vertices in the same order as over the pairs, without a sort of rows."""
    offsets = np.array([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])
    copies = (vertices * 0.5 + offsets[:, None]).reshape(-1, 2)
    keys = np.rint(copies * 2 ** 30).astype(np.int64)
    keys = keys[:, 0] * 2 ** 31 + keys[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    remap = rank[inverse].reshape(len(offsets), -1)
    return copies[first[order]], remap[:, triangles].reshape(-1, 3)


def validate(mesh: Mesh) -> AdmissibilityReport:
    """Check the admissibility hypotheses; violations are report content."""
    bad: list[Violation] = []

    ext = mesh.edge_cells[:, 1] < 0
    if np.any(mesh.interior & ext):
        ids = np.nonzero(mesh.interior & ext)[0]
        bad.append(Violation("incidence", "interior edge with one incident cell", tuple(ids)))
    if np.any(~mesh.interior & ~ext):
        ids = np.nonzero(~mesh.interior & ~ext)[0]
        bad.append(Violation("incidence", "exterior edge with two incident cells", tuple(ids)))

    if np.any(mesh.cell_area <= 0):
        bad.append(Violation("measure", "non-positive cell area",
                             tuple(np.nonzero(mesh.cell_area <= 0)[0])))
    for name, arr in (("edge length", mesh.edge_length), ("edge distance", mesh.edge_d)):
        if np.any(arr <= 0):
            bad.append(Violation("measure", f"non-positive {name}",
                                 tuple(np.nonzero(arr <= 0)[0])))

    # H1: at least one Dirichlet edge of positive measure
    if not np.any(mesh.dirichlet & (mesh.edge_length > 0)):
        bad.append(Violation("H1", "no Dirichlet edge with positive measure"))

    # H2: center segment orthogonal to the edge; the angle needs vertex
    # geometry, the center-to-center distance is graph-checkable
    inter = np.nonzero(mesh.interior)[0]
    paired = ~ext
    if np.any(paired):
        ca = mesh.edge_cells[paired, 0]
        cb = mesh.edge_cells[paired, 1]
        dist = np.hypot(*(mesh.cell_center[ca] - mesh.cell_center[cb]).T)
        off = np.abs(dist - mesh.edge_d[paired]) > MEASURE_RTOL * np.maximum(1.0, dist)
        if np.any(off):
            bad.append(Violation("H2", "edge distance differs from center-to-center distance",
                                 tuple(np.nonzero(paired)[0][off])))
    if mesh.geometry is not None and inter.size:
        geo = mesh.geometry
        tang = (geo.vertices[geo.edge_vertices[inter, 1]]
                - geo.vertices[geo.edge_vertices[inter, 0]])
        tang /= np.hypot(*tang.T)[:, None]
        sep = (mesh.cell_center[mesh.edge_cells[inter, 1]]
               - mesh.cell_center[mesh.edge_cells[inter, 0]])
        sep /= np.hypot(*sep.T)[:, None]
        cosang = np.abs((tang * sep).sum(axis=1))
        off = cosang > ORTHOGONALITY_TOL
        if np.any(off):
            bad.append(Violation("H2", "center segment not orthogonal to edge",
                                 tuple(inter[off])))

    # H3: d_cell >= xi * d_edge for every incidence
    ratio = mesh.edge_dcell / mesh.edge_d[:, None]
    viol = np.nonzero(np.nanmin(ratio, axis=1) < mesh.xi * (1 - 1e-12))[0]
    if viol.size:
        bad.append(Violation("H3", f"cell-edge distance below xi={mesh.xi:g} times edge distance",
                             tuple(viol)))

    # strong connectivity of the cell adjacency graph
    if mesh.n_cells:
        pairs = mesh.edge_cells[mesh.interior & ~ext]
        adjacency = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                                  shape=(mesh.n_cells, mesh.n_cells))
        _, component = connected_components(adjacency, directed=False)
        cut = np.nonzero(component != component[0])[0]
        if cut.size:
            bad.append(Violation("connectivity", "cell adjacency graph is not connected",
                                 tuple(cut)))

    total = float(mesh.cell_area.sum())
    if abs(total - mesh.domain_measure) > MEASURE_RTOL * max(1.0, mesh.domain_measure):
        bad.append(Violation("measure",
                             f"cell areas sum to {total!r}, expected {mesh.domain_measure!r}"))

    return AdmissibilityReport(tuple(bad))


def save_mesh(mesh: Mesh) -> str:
    """Serialize the TPFA graph (not the vertex geometry) to text."""
    out = ["tpfa 1", f"cells {mesh.n_cells}"]
    for k in range(mesh.n_cells):
        out.append(f"{k} {mesh.cell_area[k]:.17g} "
                   f"{mesh.cell_center[k, 0]:.17g} {mesh.cell_center[k, 1]:.17g}")
    out.append(f"edges {mesh.n_edges}")
    for e in range(mesh.n_edges):
        tag = _TAG_TO_CHAR[int(mesh.edge_tag[e])]
        a, b = mesh.edge_cells[e]
        da, db = mesh.edge_dcell[e]
        if b >= 0:
            out.append(f"{e} {mesh.edge_length[e]:.17g} {mesh.edge_d[e]:.17g} {tag} "
                       f"{a} {b} {da:.17g} {db:.17g}")
        else:
            out.append(f"{e} {mesh.edge_length[e]:.17g} {mesh.edge_d[e]:.17g} {tag} "
                       f"{a} {da:.17g}")
    out.append(f"xi {mesh.xi:.17g}")
    return "\n".join(out) + "\n"


def load_mesh(text: str) -> Mesh:
    """Parse the TPFA graph format; the result carries no vertex geometry."""
    lines = text.splitlines()
    tokens: list[tuple[int, list[str]]] = []
    for i, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((i, body.split()))

    pos = 0

    def take(expect: str | None = None) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else 0
            raise MeshFormatError(last + 1, "unexpected end of file"
                                  if expect is None else f"expected {expect}")
        item = tokens[pos]
        pos += 1
        return item

    try:  # a field that does not parse, or a negative count
        ln, head = take("header 'tpfa 1'")
        if head != ["tpfa", "1"]:
            raise MeshFormatError(ln, f"expected header 'tpfa 1', got {' '.join(head)!r}")

        ln, cells_head = take("'cells N'")
        if len(cells_head) != 2 or cells_head[0] != "cells":
            raise MeshFormatError(ln, "expected 'cells N'")
        n_cells = int(cells_head[1])

        cell_area = np.empty(n_cells)
        cell_center = np.empty((n_cells, 2))
        for k in range(n_cells):
            ln, row = take("cell line")
            if len(row) != 4:
                raise MeshFormatError(ln, f"cell line needs 4 fields, got {len(row)}")
            if int(row[0]) != k:
                raise MeshFormatError(ln, f"cell ids must be consecutive, expected {k}")
            cell_area[k] = float(row[1])
            cell_center[k] = (float(row[2]), float(row[3]))

        ln, edges_head = take("'edges M'")
        if len(edges_head) != 2 or edges_head[0] != "edges":
            raise MeshFormatError(ln, "expected 'edges M'")
        n_edges = int(edges_head[1])

        edge_length = np.empty(n_edges)
        edge_d = np.empty(n_edges)
        edge_cells = np.full((n_edges, 2), -1, dtype=np.int64)
        edge_dcell = np.full((n_edges, 2), np.nan)
        edge_tag = np.empty(n_edges, dtype=np.uint8)
        for e in range(n_edges):
            ln, row = take("edge line")
            if len(row) not in (6, 8):
                raise MeshFormatError(ln, f"edge line needs 6 or 8 fields, got {len(row)}")
            if int(row[0]) != e:
                raise MeshFormatError(ln, f"edge ids must be consecutive, expected {e}")
            edge_length[e] = float(row[1])
            edge_d[e] = float(row[2])
            if row[3] not in _CHAR_TO_TAG:
                raise MeshFormatError(ln, f"unknown tag {row[3]!r}")
            edge_tag[e] = _CHAR_TO_TAG[row[3]]
            if len(row) == 8:
                cells = (int(row[4]), int(row[5]))
                dvals = (float(row[6]), float(row[7]))
            else:
                cells = (int(row[4]),)
                dvals = (float(row[5]),)
            for slot, c in enumerate(cells):
                if not 0 <= c < n_cells:
                    raise MeshFormatError(ln, f"edge {e} references missing cell {c}")
                edge_cells[e, slot] = c
                edge_dcell[e, slot] = dvals[slot]
            if (edge_tag[e] == INTERIOR) != (len(cells) == 2):
                raise MeshFormatError(ln, f"edge {e}: tag {row[3]} inconsistent with "
                                          f"{len(cells)} incident cell(s)")

        ln, tail = take("'xi <value>'")
        if len(tail) != 2 or tail[0] != "xi":
            raise MeshFormatError(ln, "expected trailing 'xi <value>'")
        xi = float(tail[1])
        if pos != len(tokens):
            raise MeshFormatError(tokens[pos][0], "trailing content after 'xi' line")
    except ValueError as err:
        raise MeshFormatError(ln, f"bad field: {err}") from None

    return Mesh(cell_area=cell_area, cell_center=cell_center, edge_length=edge_length,
                edge_d=edge_d, edge_cells=edge_cells, edge_dcell=edge_dcell,
                edge_tag=edge_tag, xi=xi, domain_measure=float(cell_area.sum()),
                geometry=None)
