import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import tdglfem.mesh
from tdglfem.mesh import (
    EmptyMeshError,
    MalformedFileError,
    Mesh,
    UnsupportedFormatError,
    audit_mesh,
    format_native,
    generate_uniform_square,
    load_gmsh_ascii,
    load_mesh_file,
    parse_native,
)
from tdglfem.scenarios import holed_square_mesh, lshape_mesh, unit_square_mesh

from mutations import mutated
from oracles import audit_every_angle, compact_by_sorting, gathered_geometry, triangle_angles

GMSH_SQUARE = """\
$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 4
3 1 2 0 1 1 2
4 1 2 0 1 2 3
5 1 2 0 1 3 4
6 1 2 0 1 4 1
$EndElements
"""


# -- construction ------------------------------------------------------------


@pytest.mark.parametrize(
    "M, nv, ne, nc",
    [(1, 4, 5, 2), (2, 9, 16, 8), (4, 25, 56, 32)],
)
def test_uniform_square_counts(M, nv, ne, nc):
    mesh = generate_uniform_square(M)
    assert mesh.num_vertices == nv
    assert mesh.num_edges == ne
    assert mesh.num_cells == nc
    # Euler formula with one connected component, no holes: V - E + C = 1
    assert nv - ne + nc == 1


def test_uniform_square_geometry():
    mesh = generate_uniform_square(4)
    assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(mesh.cell_areas, 1.0 / 32.0, atol=1e-15)
    assert mesh.h == pytest.approx(math.sqrt(2) / 4, rel=1e-13)
    assert mesh.boundary_edge.sum() == 16


def test_lshape_counts_and_area():
    mesh = lshape_mesh(2)
    assert mesh.num_cells == 6
    assert mesh.cell_areas.sum() == pytest.approx(0.75, abs=1e-14)
    mesh16 = lshape_mesh(16)
    assert mesh16.cell_areas.sum() == pytest.approx(0.75, abs=1e-12)
    assert mesh16.num_cells == 2 * 16 * 16 * 3 // 4


def test_lshape_odd_M_rejected():
    with pytest.raises(ValueError):
        lshape_mesh(3)


def test_rect_domain_and_mask():
    mesh = generate_uniform_square(4, domain=(0.0, 0.0, 2.0, 1.0))
    assert mesh.cell_areas.sum() == pytest.approx(2.0, abs=1e-13)

    def mask(cx, cy):
        # knock out lower-left quarter squares
        return (cx < 1.0) & (cy < 0.5)

    holed = generate_uniform_square(4, domain=(0.0, 0.0, 2.0, 1.0), mask=mask)
    assert holed.cell_areas.sum() == pytest.approx(1.5, abs=1e-13)


def test_orientation_is_repaired():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cw = Mesh.from_cells(verts, np.array([[0, 2, 1]]))
    ccw = Mesh.from_cells(verts, np.array([[0, 1, 2]]))
    assert cw.cell_areas[0] == pytest.approx(0.5)
    np.testing.assert_array_equal(np.sort(cw.cells[0]), np.sort(ccw.cells[0]))


def test_edges_lexicographic_and_permutation_invariant():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    a = Mesh.from_cells(verts, np.array([[0, 1, 2], [0, 2, 3]]))
    b = Mesh.from_cells(verts, np.array([[2, 3, 0], [1, 2, 0]]))
    np.testing.assert_array_equal(a.edges, b.edges)
    assert (a.edges[:, 0] < a.edges[:, 1]).all()


def vertex_permuted(mesh, seed=0, clockwise=False):
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    cells = perm[mesh.cells]
    return Mesh.from_cells(verts, cells[:, ::-1] if clockwise else cells)


@pytest.mark.parametrize(
    "build",
    [lambda: unit_square_mesh(4), lambda: lshape_mesh(8), lambda: holed_square_mesh(2),
     lambda: vertex_permuted(holed_square_mesh(2))],
    ids=["square4", "lshape8", "holed2", "holed2-permuted"],
)
def test_edge_table_matches_row_unique(build):
    # the edge table comes from one int64 key per edge; rows of (lo, hi) sort the same way
    mesh = build()
    raw = np.stack([mesh.cells, np.roll(mesh.cells, -1, axis=1)], axis=2)
    edges, inverse = np.unique(np.sort(raw.reshape(-1, 2), axis=1), axis=0, return_inverse=True)
    np.testing.assert_array_equal(mesh.edges, edges)
    np.testing.assert_array_equal(mesh.cell_edges, inverse.reshape(-1, 3))


BUILDS = {
    **{f"unit{M}": lambda M=M: unit_square_mesh(M) for M in (1, 2, 8, 32)},
    **{f"lshape{M}": lambda M=M: lshape_mesh(M) for M in (2, 8, 32)},
    **{f"holed{M}": lambda M=M: holed_square_mesh(M) for M in (1, 2, 8)},
}


@pytest.mark.parametrize("name", BUILDS)
def test_builders_compact_as_sorting_does(name, monkeypatch):
    compact = tdglfem.mesh._compact
    calls = []

    def recorded(verts, cells):
        calls.append((verts, cells, compact(verts, cells)))
        return calls[-1][2]

    monkeypatch.setattr(tdglfem.mesh, "_compact", recorded)
    mesh = BUILDS[name]()
    [(verts, cells, (_, _, number))] = calls
    kept_verts, kept_cells = compact_by_sorting(verts, cells)
    np.testing.assert_array_equal(mesh.vertices, kept_verts)
    np.testing.assert_array_equal(mesh.cells, kept_cells)
    # the numbering keeps vertex order and marks a dropped vertex -1
    used = np.isin(np.arange(len(verts)), cells)
    np.testing.assert_array_equal(number[used], np.arange(mesh.num_vertices))
    assert (number[~used] == -1).all()
    if name == "holed2":  # no kept square uses the centre of a hole
        assert (~used).sum() == 4


@pytest.mark.parametrize(
    "build",
    [*BUILDS.values(), lambda: vertex_permuted(lshape_mesh(8), clockwise=True)],
    ids=[*BUILDS, "lshape8-clockwise-permuted"],
)
def test_areas_and_tangents_are_the_gathered_ones(build):
    mesh = build()
    areas, tangents = gathered_geometry(mesh)
    np.testing.assert_array_equal(mesh.cell_areas, areas)
    np.testing.assert_array_equal(mesh.edge_tangents, tangents)
    for arr in (mesh.cell_areas, mesh.edge_tangents):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_cell_edges_consistent(square2):
    # each cell's edge list must contain exactly its three vertex pairs
    for c in range(square2.num_cells):
        tri = set(square2.cells[c])
        for e in square2.cell_edges[c]:
            assert set(square2.edges[e]) <= tri


@pytest.mark.parametrize(
    "verts, cells",
    [
        (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 1]])),
        (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[0, 1, 2]])),
    ],
)
def test_degenerate_cells_rejected(verts, cells):
    with pytest.raises(ValueError):
        Mesh.from_cells(verts, cells)


def test_unreferenced_vertex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(ValueError):
        Mesh.from_cells(verts, np.array([[0, 1, 2]]))


def test_nonconforming_edge_rejected():
    # three triangles sharing one edge cannot form a 2-manifold
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]
    )
    cells = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4]])
    bad = np.array([[0, 1, 2], [0, 2, 3], [0, 1, 4], [0, 4, 2]])
    Mesh.from_cells(verts, cells)  # fine: every edge in at most 2 cells
    with pytest.raises(ValueError):
        Mesh.from_cells(verts, bad)  # edge (0,2) appears three times


@pytest.mark.parametrize("copy", [[0, 1, 2], [2, 1, 0], [1, 2, 0]], ids=["same", "flipped", "rotated"])
def test_repeated_triangle_rejected(copy):
    # the copy shares all three edges with the first cell, which the edge
    # layout cannot hold (and which would count its mass twice)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="repeated triangle"):
        Mesh.from_cells(verts, np.array([[0, 1, 2], copy]))


def test_repeated_triangle_file_is_malformed():
    with pytest.raises(MalformedFileError, match="repeated triangle"):
        parse_native("tdgl-mesh 1\n3\n0 0\n1 0\n0 1\n2\n0 1 2\n0 1 2\n")


def test_empty_cells_rejected():
    with pytest.raises(ValueError):
        Mesh.from_cells(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64))


def test_arrays_are_readonly(square2):
    with pytest.raises(ValueError):
        square2.vertices[0, 0] = 7.0


# -- gmsh reader -------------------------------------------------------------


def test_gmsh_happy_path():
    mesh = load_gmsh_ascii(GMSH_SQUARE)
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2
    assert mesh.num_edges == 5
    assert mesh.cell_areas.sum() == pytest.approx(1.0)


def test_gmsh_sparse_node_ids():
    text = GMSH_SQUARE.replace("1 0 0 0", "10 0 0 0").replace(
        "1 2 2 0 1 1 2 3", "1 2 2 0 1 10 2 3"
    )
    text = text.replace("2 2 2 0 1 1 3 4", "2 2 2 0 1 10 3 4")
    text = text.replace("3 1 2 0 1 1 2", "3 1 2 0 1 10 2")
    text = text.replace("6 1 2 0 1 4 1", "6 1 2 0 1 4 10")
    mesh = load_gmsh_ascii(text)
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2


def test_gmsh_skips_foreign_element_types():
    text = GMSH_SQUARE.replace("$Elements\n6\n", "$Elements\n7\n15 15 2 0 1 1\n")
    mesh = load_gmsh_ascii(text)
    assert mesh.num_cells == 2


def test_gmsh_interior_line_warns():
    text = GMSH_SQUARE.replace("3 1 2 0 1 1 2", "3 1 2 0 1 1 3")  # the diagonal
    with pytest.warns(UserWarning, match="^1 line elements are not boundary edges"):
        load_gmsh_ascii(text)
    # and a line on node 5, which no triangle uses, next to the boundary lines
    text = text.replace("$Nodes\n4\n", "$Nodes\n5\n5 2 2 0\n").replace(
        "$Elements\n6\n", "$Elements\n7\n7 1 2 0 1 4 5\n"
    )
    with pytest.warns(UserWarning, match="^2 line elements are not boundary edges"):
        mesh = load_gmsh_ascii(text)
    assert mesh.num_vertices == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_gmsh_ascii(GMSH_SQUARE)  # boundary lines alone


def test_gmsh_binary_rejected():
    text = GMSH_SQUARE.replace("2.2 0 8", "2.2 1 8")
    with pytest.raises(UnsupportedFormatError):
        load_gmsh_ascii(text)


def test_gmsh_v4_rejected():
    text = GMSH_SQUARE.replace("2.2 0 8", "4.1 0 8")
    with pytest.raises(UnsupportedFormatError):
        load_gmsh_ascii(text)


def test_gmsh_unknown_node_rejected():
    text = GMSH_SQUARE.replace("1 2 2 0 1 1 2 3", "1 2 2 0 1 1 2 99")
    with pytest.raises(MalformedFileError):
        load_gmsh_ascii(text)


def test_gmsh_count_mismatch_rejected():
    text = GMSH_SQUARE.replace("$Nodes\n4\n", "$Nodes\n5\n")
    with pytest.raises(MalformedFileError):
        load_gmsh_ascii(text)


def test_gmsh_no_triangles_is_empty():
    lines = [
        ln
        for ln in GMSH_SQUARE.splitlines()
        if not (ln.startswith("1 2 2") or ln.startswith("2 2 2"))
    ]
    text = "\n".join(lines).replace("$Elements\n6", "$Elements\n4")
    with pytest.raises(EmptyMeshError):
        load_gmsh_ascii(text)


def test_gmsh_unclosed_section_rejected():
    with pytest.raises(MalformedFileError):
        load_gmsh_ascii("$MeshFormat\n2.2 0 8\n")


# -- native format -----------------------------------------------------------


def test_native_round_trip(square4):
    again = parse_native(format_native(square4))
    np.testing.assert_array_equal(again.vertices, square4.vertices)
    np.testing.assert_array_equal(again.cells, square4.cells)
    np.testing.assert_array_equal(again.edges, square4.edges)


def test_native_round_trip_irrational_coords():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1 / 3, math.sqrt(2)]])
    mesh = Mesh.from_cells(verts, np.array([[0, 1, 2]]))
    again = parse_native(format_native(mesh))
    np.testing.assert_array_equal(again.vertices, mesh.vertices)


def test_native_bad_header():
    with pytest.raises(UnsupportedFormatError):
        parse_native("not a mesh\n")


def test_native_truncated():
    text = format_native(generate_uniform_square(1))
    with pytest.raises(MalformedFileError):
        parse_native("\n".join(text.splitlines()[:-1]))


NATIVE_L = format_native(lshape_mesh(2))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated(GMSH_SQUARE, NATIVE_L))
def test_readers_raise_only_file_errors(text):
    # a mutated file either reads or raises one of the readers' own errors
    reader = load_gmsh_ascii if text.lstrip().startswith("$") else parse_native
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            reader(text)
        except (UnsupportedFormatError, MalformedFileError, EmptyMeshError):
            pass


def test_load_mesh_file_sniffs(tmp_path, square2):
    native = tmp_path / "m.txt"
    native.write_text(format_native(square2))
    gmsh = tmp_path / "m.msh"
    gmsh.write_text(GMSH_SQUARE)
    junk = tmp_path / "m.bin"
    junk.write_text("garbage\n1 2 3\n")

    assert load_mesh_file(native).num_cells == square2.num_cells
    assert load_mesh_file(gmsh).num_cells == 2
    with pytest.raises(UnsupportedFormatError):
        load_mesh_file(junk)


# -- quality audit -----------------------------------------------------------


def test_angles_sum(square4):
    angles = triangle_angles(square4)
    np.testing.assert_allclose(angles.sum(axis=1), math.pi, atol=1e-9)


def _jittered(M, scale, seed):
    mesh = unit_square_mesh(M)
    rng = np.random.default_rng(seed)
    return Mesh.from_cells(mesh.vertices + rng.normal(0.0, scale, mesh.vertices.shape), mesh.cells)


@pytest.mark.parametrize("mesh", [
    unit_square_mesh(1), unit_square_mesh(8), lshape_mesh(32), holed_square_mesh(8),
    Mesh.from_cells([[0.0, 0.0], [4.0, 0.0], [0.2, 0.2]], [[0, 1, 2]]),
    *(_jittered(6, scale, seed) for seed, scale in enumerate((1e-9, 1e-3, 0.02, 0.05))),
], ids=["square1", "square8", "lshape32", "holed8", "obtuse",
        "jitter1e-9", "jitter1e-3", "jitter0.02", "jitter0.05"])
def test_audit_matches_every_angle(mesh):
    # only the extreme cosines reach arccos; the report is that of every angle's
    assert audit_mesh(mesh) == audit_every_angle(mesh)


def test_audit_uniform_square(square4):
    audit = audit_mesh(square4)
    assert audit.min_angle_deg == pytest.approx(45.0, abs=1e-9)
    assert audit.max_angle_deg == pytest.approx(90.0, abs=1e-9)
    assert audit.weakly_acute
    assert not audit.strictly_acute
    assert audit.quasi_uniformity_ratio == pytest.approx(1.0, abs=1e-12)


def test_audit_equilateral_strictly_acute():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    audit = audit_mesh(Mesh.from_cells(verts, np.array([[0, 1, 2]])))
    assert audit.strictly_acute
    assert audit.weakly_acute
    assert audit.min_angle_deg == pytest.approx(60.0, abs=1e-9)


def test_audit_obtuse():
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [0.2, 0.2]])
    audit = audit_mesh(Mesh.from_cells(verts, np.array([[0, 1, 2]])))
    assert audit.max_angle_deg == pytest.approx(131.98721249581666, abs=1e-9)
    assert not audit.weakly_acute
    assert not audit.strictly_acute
