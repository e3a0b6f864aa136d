import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from entrofv.presets import BOUNDARY_NAMES
from entrofv.mesh import (DIRICHLET, INTERIOR, NEUMANN, BOTTOM, LEFT, RIGHT, TOP,
                          BoundarySpec, Mesh, MeshError, MeshFormatError,
                          Segment, Violation, build_from_triangulation,
                          load_mesh, reference_mesh, save_mesh, validate)
from entrofv.linalg import solve_linear
from entrofv.schemes import (SCHARFETTER_GUMMEL, DdData, assemble_dd_residual,
                             assemble_pme_residual, laplacian, pme_boundary_term)


# sha256 of save_mesh(reference_mesh(level, BOUNDARY_NAMES[name])) for levels
# 0..4, and 5 for all-dirichlet (the size of the benchmark's largest mesh);
# pins the TPFA graph text, including the sorted edge order
_SAVED_MESH_SHA256 = {
    "all-dirichlet": (
        "39c15f178de68059273f09e1199840e6770849ece75efe81b991ede25a081fb9",
        "4d9437515dc7a66e4acaf6e23eae4c37942a60ae769c150da07aadc50df48c7d",
        "5b14e5cf593ad971d93826c93e1013da882e0bb46ab7720c7af160d877e9e145",
        "ac848cb79c61e09212ec115aa4169ce64b57f9045b8599faa68fc7bf31935537",
        "431051959c3f5d2912c25cdb6e579d1ce5fd7d6ee5a44fada217576b15535679",
        "f00dd17ff85ac8af413a1d62ef106f5d26cc8ae58010b857ef3459f690877300",
    ),
    "left-right": (
        "b13cbbd815028de823f284a2824735889cbab53a1764a23dbb75dc7e74825519",
        "6feed2cb65aa0f5241bc34d0c4bdb017e5ea6ad7cebcde1f6b42a2c4756e2ba3",
        "35fb902746126212ac2b70aedae7a27b3d10654ea71411a543683c3e8027cd44",
        "fd3bb0c1bb52b5e640de382ad6c87449ad81a08d3b3882e7582a6a709aa1ac2d",
        "205a36482fa62aff69a037a810bda989fffea2a945ba493d13c833cf8ac5bda6",
    ),
    "pn": (
        "5f76e27e7d55afc8d8a46cd830685d91ba9756b70c0bcaee9a2a2edb217325a0",
        "b096b841f63568ba4aa6acddfa4436db1275d0ec635a06bcd1b574958d0ef958",
        "9beb58eb991cc610b18fcb3a093c9d5dd96823489e7dbb2872148a24a6514bab",
        "fbdc70a90a975c856b54ee06a85cf649c2f7a76301bfe5a6bdce75248081c5e8",
        "d569d625e2859fa0720d2b96f57a5a9cacce695745bd3b98571f20b254491248",
    ),
    "right": (
        "6481d6ac3ffbf47e1c3e631f8b89f886e52773cfac0105e7ad3fb613ebcb4e82",
        "d9a431fd232cd2f6e22ad4df58f61a83526255525d9b0d6ba49b97898765c0b2",
        "96769bd9c208d514aada126bc2d2922ed0b4e9d71e1c9c7433fd00fb3f946420",
        "0f5aea454361125c99dfe1428f8bd24e740e7330952f438c62df9fa5b3e3a775",
        "871d5d4b3bef8b6b11d19c2512a8ebad186bd2a36749b5f79336842730907300",
    ),
    "top-bottom": (
        "5a8118cfae65025fb9a0431d3fb644ef473bc89e84d041315d8a562cf6e69ee3",
        "8b531bb5cfdfc6278b67402e7396dc81f9fe22da59c6e996ec1897d1809bea8d",
        "f128e0049f2d3aa1aa127261452975e56773ad3a35762627025d712f4b95c5a0",
        "364814e5dbbd7009cdfd549aac158a1fb8508209291c22caf3813d4815080250",
        "eb22266439492c5b23d9761f848726add96188360090503fa8bab60142a60418",
    ),
}


def test_reference_cell_counts(toy_boundary):
    assert reference_mesh(0, toy_boundary).n_cells == 56
    assert reference_mesh(3, toy_boundary).n_cells == 3584


def test_reference_level_guard(toy_boundary):
    with pytest.raises(MeshError, match="refusing level"):
        reference_mesh(9, toy_boundary)
    with pytest.raises(ValueError):
        reference_mesh(-1, toy_boundary)


def test_reference_levels_keep_shape_constants(mesh0, mesh1):
    assert mesh1.n_cells == 4 * mesh0.n_cells
    assert mesh1.xi == pytest.approx(mesh0.xi, rel=1e-12)
    assert mesh1.cell_area.sum() == pytest.approx(1.0, abs=1e-12)
    # largest diameter halves: max edge length is a proxy on this family
    assert mesh1.edge_length.max() == pytest.approx(mesh0.edge_length.max() / 2, rel=1e-12)


def test_reference_mesh_tags_boundary_segments(toy_boundary):
    mesh = reference_mesh(1, toy_boundary)
    mids = mesh.geometry.edge_midpoint
    on_left = np.abs(mids[:, 0]) < 1e-12
    assert np.all(mesh.edge_tag[on_left] == DIRICHLET)
    on_top = np.abs(mids[:, 1] - 1.0) < 1e-12
    assert np.all(mesh.edge_tag[on_top] == NEUMANN)


def test_validate_reference_meshes_admissible(mesh0, mesh1):
    assert validate(mesh0).ok
    assert validate(mesh1).ok


def test_shared_mesh_arrays_are_read_only():
    """Every run on a mesh shares its geometry and what it caches, so a write
    into them raises at once instead of corrupting the next run; SuperLU
    still factors the read-only Laplacian on both factorization paths."""
    mesh = reference_mesh(1, BoundarySpec.all_dirichlet())
    f = np.linspace(0.5, 1.5, mesh.n_cells)
    f_dir = np.where(mesh.dirichlet, 1.0, np.nan)
    assemble_pme_residual(mesh, f, f, 2.0, 1e-2, pme_boundary_term(mesh, f_dir, 2.0))
    dd = DdData(doping=np.zeros(mesh.n_cells), debye=1.0, n_dirichlet=f_dir,
                p_dirichlet=f_dir, v_dirichlet=0.0 * f_dir)
    assemble_dd_residual(mesh, dd, SCHARFETTER_GUMMEL, None, (f, f, 0.0 * f))
    lap = laplacian(mesh)
    solves = [solve_linear(lap, f) for _ in range(2)]  # the ordered, then the permuted path
    np.testing.assert_array_equal(solves[0], solves[1])

    cached = mesh._derived
    assert {"laplacian", "laplacian_columns", "neighbor_index", "active_interior",
            "dd_edges"} <= set(cached)
    arrays = [a for a in vars(mesh.geometry).values() if isinstance(a, np.ndarray)]
    for value in cached.values():
        for part in value if isinstance(value, tuple) else (value,):
            if sp.issparse(part):
                arrays.append(part.data)
            elif isinstance(part, np.ndarray):
                arrays.append(part)
    assert len(arrays) == 4 + 10  # the geometry's arrays, then the cached ones
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_validate_flags_displaced_center(mesh0):
    centers = mesh0.cell_center.copy()
    centers[7] += (0.01, 0.013)
    bad = Mesh(cell_area=mesh0.cell_area.copy(), cell_center=centers,
               edge_length=mesh0.edge_length.copy(), edge_d=mesh0.edge_d.copy(),
               edge_cells=mesh0.edge_cells.copy(), edge_dcell=mesh0.edge_dcell.copy(),
               edge_tag=mesh0.edge_tag.copy(), xi=mesh0.xi,
               domain_measure=1.0, geometry=mesh0.geometry)
    report = validate(bad)
    assert not report.ok
    assert any(v.hypothesis == "H2" for v in report.violations)


def test_validate_flags_all_neumann():
    bnd = BoundarySpec(dirichlet=(), neumann=(LEFT, RIGHT, TOP, BOTTOM))
    report = validate(reference_mesh(0, bnd))
    assert any(v.hypothesis == "H1" for v in report.violations)


def test_report_rendering(mesh0):
    assert str(validate(mesh0)) == "admissible"
    bnd = BoundarySpec(dirichlet=(), neumann=(LEFT, RIGHT, TOP, BOTTOM))
    report = validate(reference_mesh(0, bnd))
    assert "H1" in str(report)


def test_validate_two_cell(two_cell_mesh):
    assert validate(two_cell_mesh).ok
    assert np.all(two_cell_mesh.tau > 0)
    np.testing.assert_allclose(two_cell_mesh.tau[:3], [2.0, 4.0, 4.0])


def test_boundary_spec_rejects_overlap_and_gap():
    overlap = BoundarySpec(dirichlet=(LEFT,), neumann=(LEFT, RIGHT, TOP, BOTTOM))
    with pytest.raises(MeshError, match="both"):
        reference_mesh(0, overlap)
    gap = BoundarySpec(dirichlet=(LEFT,), neumann=(TOP, BOTTOM))
    with pytest.raises(MeshError, match="matches no"):
        reference_mesh(0, gap)


def test_segment_membership():
    seg = Segment(1, 1.0, 0.0, 0.25)
    assert seg.contains(np.array([0.1, 1.0]))
    assert not seg.contains(np.array([0.3, 1.0]))
    assert not seg.contains(np.array([0.1, 0.9]))


def test_save_load_round_trip(mesh0):
    text = save_mesh(mesh0)
    back = load_mesh(text)
    np.testing.assert_allclose(back.cell_area, mesh0.cell_area, rtol=1e-15)
    np.testing.assert_allclose(back.cell_center, mesh0.cell_center, atol=1e-15)
    np.testing.assert_allclose(back.edge_length, mesh0.edge_length, rtol=1e-15)
    np.testing.assert_allclose(back.edge_d, mesh0.edge_d, rtol=1e-15)
    nonnan = ~np.isnan(mesh0.edge_dcell)
    np.testing.assert_allclose(back.edge_dcell[nonnan], mesh0.edge_dcell[nonnan],
                               rtol=1e-15)
    np.testing.assert_array_equal(back.edge_cells, mesh0.edge_cells)
    np.testing.assert_array_equal(back.edge_tag, mesh0.edge_tag)
    assert back.xi == mesh0.xi
    assert validate(back).ok
    # byte-for-byte stable serialization
    assert save_mesh(back) == text


def test_load_rejects_missing_cell_reference():
    text = ("tpfa 1\n"
            "cells 1\n"
            "0 1.0 0.5 0.5\n"
            "edges 1\n"
            "0 1.0 0.5 D 3 0.5\n"
            "xi 1.0\n")
    with pytest.raises(MeshFormatError, match="edge 0 references missing cell 3"):
        load_mesh(text)


def test_load_rejects_empty_and_garbage():
    with pytest.raises(MeshFormatError):
        load_mesh("")
    with pytest.raises(MeshFormatError, match="header"):
        load_mesh("bogus 7\n")


def test_load_rejects_inconsistent_incidence():
    text = ("tpfa 1\n"
            "cells 2\n"
            "0 0.5 0.25 0.5\n"
            "1 0.5 0.75 0.5\n"
            "edges 1\n"
            "0 1.0 0.5 I 0 0.25\n"
            "xi 0.5\n")
    with pytest.raises(MeshFormatError, match="inconsistent"):
        load_mesh(text)


def test_validate_flags_overstated_regularity(mesh0):
    # a stored regularity constant larger than the true minimum ratio is a
    # violation detectable from the graph alone
    text = save_mesh(mesh0)
    inflated = text.replace(f"xi {mesh0.xi:.17g}", "xi 0.9")
    report = validate(load_mesh(inflated))
    assert any(v.hypothesis == "H3" for v in report.violations)


def test_comments_and_blank_lines_ignored(mesh0):
    text = save_mesh(mesh0)
    noisy = "# generated mesh\n\n" + text.replace("edges", "# incidence\nedges", 1)
    assert load_mesh(noisy).n_cells == mesh0.n_cells


@pytest.mark.parametrize("name", sorted(BOUNDARY_NAMES))
def test_saved_reference_meshes_match_golden(name):
    for level, expected in enumerate(_SAVED_MESH_SHA256[name]):
        text = save_mesh(reference_mesh(level, BOUNDARY_NAMES[name]))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, level


def test_edge_shared_by_three_triangles_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by more than two"):
        build_from_triangulation(vertices, triangles, BoundarySpec.all_dirichlet())


def test_validate_flags_disconnected_cells():
    # cells {0, 1} and {2, 3} share no interior edge
    mesh = Mesh(cell_area=np.full(4, 0.25),
                cell_center=np.array([[0.25, 0.25], [0.75, 0.25],
                                      [0.25, 0.75], [0.75, 0.75]]),
                edge_length=np.full(6, 0.5), edge_d=np.full(6, 0.5),
                edge_cells=np.array([[0, 1], [2, 3], [0, -1], [1, -1],
                                     [2, -1], [3, -1]]),
                edge_dcell=np.array([[0.25, 0.25]] * 2 + [[0.25, np.nan]] * 4),
                edge_tag=np.array([INTERIOR] * 2 + [DIRICHLET] * 4, dtype=np.uint8),
                xi=0.5, domain_measure=1.0)
    report = validate(mesh)
    assert [v for v in report.violations if v.hypothesis == "connectivity"] == [
        Violation("connectivity", "cell adjacency graph is not connected", (2, 3))]
