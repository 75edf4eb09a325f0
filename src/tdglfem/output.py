"""Result serialization: per-step CSV series and legacy-VTK snapshots.

Both writers are byte deterministic: the CSV uses shortest round-trip float
representations and the VTK uses fixed ``%.12e`` formatting, so repeated
runs of the same configuration at the same BLAS thread count (one unless
``--threads`` asks for more) produce identical files.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from . import fem
from .diagnostics import ERROR_FIELDS
from .mesh import Mesh

__all__ = [
    "CSV_HEADER",
    "format_timeseries_csv",
    "write_timeseries_csv",
    "format_vtk_snapshot",
    "write_vtk_snapshot",
    "CONVERGENCE_HEADER",
    "format_convergence_csv",
    "write_convergence_csv",
]

CSV_HEADER = "t,tau,G_total,G_cov,G_mag,G_pot,max_psi"


def format_timeseries_csv(rows, cadence: int = 1) -> str:
    """CSV text for a list of time-series rows.

    With ``cadence > 1`` only every ``cadence``-th step is kept; the initial
    row and the final row always survive thinning.
    """
    if not rows:
        raise ValueError("no rows to write")
    if cadence < 1:
        raise ValueError("cadence must be a positive integer")
    last = len(rows) - 1
    lines = [CSV_HEADER]
    for k, row in enumerate(rows):
        if k != 0 and k != last and k % cadence != 0:
            continue
        lines.append(
            ",".join(
                repr(float(v))  # builtin floats: repr round-trips and has no numpy prefix
                for v in (
                    row.t,
                    row.tau,
                    row.total,
                    row.covariant,
                    row.magnetic,
                    row.potential,
                    row.max_psi,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    # the writers format in full first, so a formatting error leaves any
    # existing file untouched
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_timeseries_csv(path, rows, cadence: int = 1) -> None:
    _write(path, format_timeseries_csv(rows, cadence))


def _lines(fmt: str, rows) -> str:
    """One ``fmt`` line per row of ``rows``, formatted in a single operation."""
    rows = np.asarray(rows)
    return (fmt + "\n") * len(rows) % tuple(rows.ravel().tolist())


#: the mesh part of a snapshot, ``POINTS``, ``CELLS`` and ``CELL_TYPES``, formatted once per mesh
_MESH_TEXT: "weakref.WeakKeyDictionary[Mesh, tuple]" = weakref.WeakKeyDictionary()


def _mesh_text(mesh: Mesh) -> tuple:
    parts = _MESH_TEXT.get(mesh)
    if parts is None:
        nv, nc = mesh.num_vertices, mesh.num_cells
        parts = _MESH_TEXT[mesh] = (
            f"POINTS {nv} double\n",
            _lines("%.12e %.12e %.12e", np.column_stack([mesh.vertices, np.zeros(nv)])),
            f"CELLS {nc} {4 * nc}\n",
            _lines("3 %d %d %d", mesh.cells),
            f"CELL_TYPES {nc}\n",
            "5\n" * nc,
        )
    return parts


def format_vtk_snapshot(mesh: Mesh, A, psi, t: float) -> str:
    """Legacy ASCII VTK unstructured grid with the standard field set.

    Point data: ``|psi|``, ``Re psi``, ``Im psi``. Cell data: ``curl A``
    (constant per cell) and ``|A|`` at the centroid.
    """
    psi = np.asarray(psi, dtype=complex)
    A = np.asarray(A, dtype=float)
    nv, nc = mesh.num_vertices, mesh.num_cells
    curls = fem.curl_values(mesh, A)
    centroid_vals = fem.corner_values(mesh, A).mean(axis=1)
    a_mag = np.sqrt(np.einsum("cx,cx->c", centroid_vals, centroid_vals))

    out = [
        "# vtk DataFile Version 3.0\n",
        f"order parameter and vector potential at t={t!r}\n",
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        *_mesh_text(mesh),
    ]
    for header, fields in (
        (f"POINT_DATA {nv}\n", (("psi_abs", np.abs(psi)), ("psi_re", psi.real), ("psi_im", psi.imag))),
        (f"CELL_DATA {nc}\n", (("curl_A", curls), ("A_mag", a_mag))),
    ):
        out.append(header)
        for name, values in fields:
            out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.append(_lines("%.12e", values))
    return "".join(out)


def write_vtk_snapshot(path, mesh: Mesh, A, psi, t: float) -> None:
    _write(path, format_vtk_snapshot(mesh, A, psi, t))


CONVERGENCE_HEADER = ",".join(
    ["one_over_h", "h", "tau"]
    + [f"{kind}_{name}" for name in ERROR_FIELDS for kind in ("err", "rate")]
    + ["rel_err_" + name for name in ERROR_FIELDS]
)


def format_convergence_csv(reports, rates: dict) -> str:
    """CSV table of a mesh-refinement study.

    ``reports`` is a list of error reports ordered coarse to fine and
    ``rates`` maps each field name to the list of observed orders (one
    shorter than the reports). Rate cells in the first row are empty.
    """
    lines = [CONVERGENCE_HEADER]
    for k, rep in enumerate(reports):
        cells = [repr(round(1.0 / rep.h)), repr(float(rep.h)), repr(float(rep.tau))]
        for name in ERROR_FIELDS:
            cells.append(repr(float(getattr(rep, "err_" + name))))
            cells.append("" if k == 0 else repr(float(rates[name][k - 1])))
        for name in ERROR_FIELDS:
            cells.append(repr(float(rep.relative(name))))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_convergence_csv(path, reports, rates: dict) -> None:
    _write(path, format_convergence_csv(reports, rates))


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
