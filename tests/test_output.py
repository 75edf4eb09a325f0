import numpy as np
import pytest

from tdglfem import fem
from tdglfem.diagnostics import ErrorReport
from tdglfem.fem import interpolate_nodal, num_edge_dofs
from tdglfem.output import (
    CONVERGENCE_HEADER,
    CSV_HEADER,
    ensure_dir,
    format_convergence_csv,
    format_timeseries_csv,
    format_vtk_snapshot,
    write_timeseries_csv,
    write_vtk_snapshot,
)
from tdglfem.scenarios import holed_square_mesh, lshape_mesh
from tdglfem.stepper import TimeSeriesRow

from oracles import interpolate_edge


def make_rows(n):
    return [
        TimeSeriesRow(t=0.1 * k, tau=0.1 if k else 0.0, total=10.0 - k,
                      covariant=1.0, magnetic=2.0, potential=3.0, max_psi=0.9)
        for k in range(n)
    ]


def test_csv_header():
    assert CSV_HEADER == "t,tau,G_total,G_cov,G_mag,G_pot,max_psi"


def test_timeseries_layout():
    text = format_timeseries_csv(make_rows(3))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    assert lines[1] == "0.0,0.0,10.0,1.0,2.0,3.0,0.9"


def test_timeseries_values_round_trip():
    # repr-formatted floats must parse back bit for bit
    rows = [TimeSeriesRow(t=1 / 3, tau=0.2 / np.sqrt(11), total=-1e-17,
                          covariant=0.1 + 0.2, magnetic=2.0, potential=3.0,
                          max_psi=1.0 - 1e-16)]
    fields = format_timeseries_csv(rows).splitlines()[1].split(",")
    assert float(fields[0]) == rows[0].t
    assert float(fields[1]) == rows[0].tau
    assert float(fields[2]) == rows[0].total
    assert float(fields[6]) == rows[0].max_psi


def test_timeseries_deterministic():
    rows = make_rows(5)
    assert format_timeseries_csv(rows) == format_timeseries_csv(list(rows))


def test_timeseries_cadence():
    rows = make_rows(10)
    lines = format_timeseries_csv(rows, cadence=4).splitlines()
    # initial row, rows 4 and 8, and the final row survive
    kept = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert kept == [0.0, pytest.approx(0.4), pytest.approx(0.8), pytest.approx(0.9)]


def test_timeseries_cadence_keeps_last_once():
    rows = make_rows(9)  # last index 8 is divisible by the cadence
    lines = format_timeseries_csv(rows, cadence=4).splitlines()
    assert len(lines) == 1 + 3


def test_timeseries_rejects_bad_input():
    with pytest.raises(ValueError, match="no rows"):
        format_timeseries_csv([])
    with pytest.raises(ValueError, match="cadence"):
        format_timeseries_csv(make_rows(2), cadence=0)


def test_write_timeseries(tmp_path):
    path = tmp_path / "series.csv"
    write_timeseries_csv(path, make_rows(3))
    assert path.read_text() == format_timeseries_csv(make_rows(3))
    # a formatting error leaves the file as it was
    with pytest.raises(ValueError, match="cadence"):
        write_timeseries_csv(path, make_rows(3), cadence=0)
    assert path.read_text() == format_timeseries_csv(make_rows(3))


# -- VTK ------------------------------------------------------------------------


@pytest.fixture
def snapshot(square2):
    psi = interpolate_nodal(square2, lambda x, y: x + 1j * y)
    A = interpolate_edge(square2, lambda x, y: (0 * x - y, x))
    return square2, A, psi


def test_vtk_structure(snapshot):
    mesh, A, psi = snapshot
    lines = format_vtk_snapshot(mesh, A, psi, t=0.5).splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {mesh.num_vertices} double"

    body = "\n".join(lines)
    assert f"CELLS {mesh.num_cells} {4 * mesh.num_cells}" in body
    assert f"CELL_TYPES {mesh.num_cells}" in body
    assert f"POINT_DATA {mesh.num_vertices}" in body
    assert f"CELL_DATA {mesh.num_cells}" in body
    for name in ("psi_abs", "psi_re", "psi_im", "curl_A", "A_mag"):
        assert f"SCALARS {name} double 1" in body
    assert body.count("LOOKUP_TABLE default") == 5


def test_vtk_points_have_zero_z(snapshot):
    mesh, A, psi = snapshot
    lines = format_vtk_snapshot(mesh, A, psi, t=0.0).splitlines()
    pts = lines[5 : 5 + mesh.num_vertices]
    for ln in pts:
        x, y, z = ln.split()
        assert float(z) == 0.0
    got = np.array([[float(c) for c in ln.split()[:2]] for ln in pts])
    np.testing.assert_allclose(got, mesh.vertices, atol=1e-12)


def test_vtk_cells_are_triangles(snapshot):
    mesh, A, psi = snapshot
    lines = format_vtk_snapshot(mesh, A, psi, t=0.0).splitlines()
    start = lines.index(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}") + 1
    for c, ln in enumerate(lines[start : start + mesh.num_cells]):
        parts = [int(p) for p in ln.split()]
        assert parts[0] == 3
        assert parts[1:] == list(mesh.cells[c])
    types_at = lines.index(f"CELL_TYPES {mesh.num_cells}") + 1
    assert set(lines[types_at : types_at + mesh.num_cells]) == {"5"}


def test_vtk_field_values(snapshot):
    mesh, A, psi = snapshot
    lines = format_vtk_snapshot(mesh, A, psi, t=0.0).splitlines()
    nv, nc = mesh.num_vertices, mesh.num_cells

    at = lines.index("SCALARS psi_abs double 1") + 2
    np.testing.assert_allclose(
        [float(v) for v in lines[at : at + nv]], np.abs(psi), rtol=1e-11
    )
    at = lines.index("SCALARS curl_A double 1") + 2
    np.testing.assert_allclose([float(v) for v in lines[at : at + nc]], 2.0, rtol=1e-11)


def reference_vtk(mesh, A, psi, t):
    """The writer as it formatted one value at a time, kept to pin the bytes."""
    e = lambda v: f"{v:.12e}"
    nv, nc = mesh.num_vertices, mesh.num_cells
    out = [
        "# vtk DataFile Version 3.0",
        f"order parameter and vector potential at t={t!r}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    out.extend(f"{e(x)} {e(y)} {e(0.0)}" for x, y in mesh.vertices)
    out.append(f"CELLS {nc} {4 * nc}")
    out.extend(f"3 {i} {j} {k}" for i, j, k in mesh.cells)
    out.append(f"CELL_TYPES {nc}")
    out.extend("5" for _ in range(nc))
    out.append(f"POINT_DATA {nv}")
    for name, values in (("psi_abs", np.abs(psi)), ("psi_re", psi.real), ("psi_im", psi.imag)):
        out.extend([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
        out.extend(e(v) for v in values)
    centroid = fem.corner_values(mesh, A).mean(axis=1)
    out.append(f"CELL_DATA {nc}")
    for name, values in (
        ("curl_A", fem.curl_values(mesh, A)),
        ("A_mag", np.sqrt(np.einsum("cx,cx->c", centroid, centroid))),
    ):
        out.extend([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
        out.extend(e(v) for v in values)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("mesh", [holed_square_mesh(1), lshape_mesh(8)], ids=["holed1", "lshape8"])
def test_vtk_matches_reference_formatter(mesh, rng):
    n = mesh.num_vertices
    psi = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    psi[0] = complex(-0.0, 1e-300)
    A = rng.standard_normal(num_edge_dofs(mesh))
    assert format_vtk_snapshot(mesh, A, psi, 0.3) == reference_vtk(mesh, A, psi, 0.3)


def test_vtk_deterministic(snapshot, tmp_path):
    mesh, A, psi = snapshot
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk_snapshot(p1, mesh, A, psi, t=1.0)
    write_vtk_snapshot(p2, mesh, A, psi, t=1.0)
    assert p1.read_bytes() == p2.read_bytes()


# -- convergence table -------------------------------------------------------------


def make_report(h):
    return ErrorReport(h=h, tau=h, err_A=h, err_curl_A=2 * h, err_psi=h * h,
                       err_grad_psi=3 * h, norm_A=1.0, norm_curl_A=2.0,
                       norm_psi=4.0, norm_grad_psi=8.0)


def test_convergence_csv():
    reports = [make_report(0.25), make_report(0.125)]
    rates = {"A": [1.0], "curl_A": [1.0], "psi": [2.0], "grad_psi": [1.0]}
    lines = format_convergence_csv(reports, rates).splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == "4" and second[0] == "8"
    # rate cells are blank on the coarsest row, filled afterwards
    assert first[4] == "" and first[6] == "" and first[8] == "" and first[10] == ""
    assert float(second[4]) == 1.0 and float(second[8]) == 2.0
    assert float(first[3]) == 0.25  # err_A
    assert float(first[11]) == 0.25  # rel_err_A = err/norm
    assert float(second[13]) == 0.125 * 0.125 / 4.0  # rel_err_psi


def test_ensure_dir(tmp_path):
    target = tmp_path / "a" / "b"
    assert ensure_dir(str(target)) == str(target)
    assert target.is_dir()
    ensure_dir(str(target))  # idempotent
