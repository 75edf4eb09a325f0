"""2D triangulations: structured builders, Gmsh import, quality audit.

The solver runs on conforming triangle meshes. Topology conventions:

* cells are counterclockwise vertex triples,
* an edge is stored as ``(lo, hi)`` with ``lo < hi``; its unit tangent points
  from ``lo`` to ``hi``,
* every edge belongs to exactly one cell (boundary) or two cells (interior).

Meshes are immutable after construction; all arrays are marked read-only so
they can be shared safely between solver components. ``Mesh.from_cells``
computes each per-cell and per-edge array once, and one order-keeping
compaction drops the unused vertices for the builders and the Gmsh reader.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "MeshAudit",
    "EmptyMeshError",
    "MalformedFileError",
    "UnsupportedFormatError",
    "audit_mesh",
    "generate_uniform_square",
    "load_gmsh_ascii",
    "parse_native",
    "format_native",
    "load_mesh_file",
]

#: angle comparisons against pi/2 use this slack (radians)
ANGLE_TOL = 1e-12


class UnsupportedFormatError(ValueError):
    """Mesh file is in a format this reader does not handle."""


class MalformedFileError(ValueError):
    """Mesh file is syntactically or referentially broken."""


class EmptyMeshError(ValueError):
    """Mesh file contains no triangles."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangle mesh with precomputed edge topology.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    cells : ndarray, shape (nc, 3)
        Vertex indices per triangle, counterclockwise.
    edges : ndarray, shape (ne, 2)
        Unique edges as ``(lo, hi)`` pairs with ``lo < hi``, sorted
        lexicographically (so edge construction is permutation invariant).
    cell_edges : ndarray, shape (nc, 3)
        Edge index of the local edges ``(v0,v1), (v1,v2), (v2,v0)``.
    boundary_edge : ndarray, shape (ne,), bool
        True for edges incident to exactly one cell.
    cell_areas : ndarray, shape (nc,)
        Cell areas, the signed areas of the counterclockwise cells.
    edge_tangents : ndarray, shape (ne, 2)
        Unit tangents, oriented from the lower to the higher vertex index.
    h : float
        Longest edge over the mesh.
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_edge: np.ndarray
    cell_areas: np.ndarray
    edge_tangents: np.ndarray
    h: float

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_cells(cls, vertices, cells) -> "Mesh":
        """Build a mesh from raw arrays, normalizing orientation.

        Cells with negative signed area are flipped; non-finite coordinates,
        zero-area cells and vertices referenced by no cell are rejected. Edge
        topology is derived here; an edge incident to more than two cells,
        and two cells on the same three vertices, are errors.
        """
        verts = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        tris = np.ascontiguousarray(np.asarray(cells, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("cells must have shape (nc, 3)")
        if not np.isfinite(verts).all():
            raise ValueError("vertex coordinates must be finite")
        if len(tris) == 0:
            raise EmptyMeshError("mesh has no cells")
        if tris.min() < 0 or tris.max() >= len(verts):
            raise ValueError("cell refers to a vertex index out of range")
        if (tris[:, [0, 1, 2]] == tris[:, [1, 2, 0]]).any():
            raise ValueError("cell with a repeated vertex")

        used = np.zeros(len(verts), dtype=bool)
        used[tris] = True
        if not used.all():
            raise ValueError(
                f"{int((~used).sum())} vertices are referenced by no cell; "
                "compact the mesh before constructing"
            )

        p = verts[tris]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        areas = np.abs(signed)  # the flip below negates a signed area exactly
        scale = np.abs(verts).max() + 1.0  # every vertex is used
        degenerate = areas <= 1e-14 * scale * scale
        if degenerate.any():
            raise ValueError(f"{int(degenerate.sum())} degenerate (zero-area) cells")
        flip = signed < 0
        if flip.any():
            tris = tris.copy()
            tris[flip] = tris[flip][:, [0, 2, 1]]

        # local edges in traversal order (v0,v1), (v1,v2), (v2,v0)
        raw = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2)  # (nc, 3, 2)
        lo, hi = np.sort(raw.reshape(-1, 2), axis=1).T
        keys, inverse = np.unique(lo * len(verts) + hi, return_inverse=True)  # sorts as (lo, hi) rows
        edges = np.stack(divmod(keys, len(verts)), axis=1)
        cell_edges = inverse.reshape(-1, 3).astype(np.int64)

        counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
        if counts.max() > 2:
            raise ValueError("non-conforming mesh: an edge is shared by more than two cells")
        boundary = counts == 1
        # a repeated triangle shares every edge with its copy, so the two cells
        # at such an edge have the same opposite corner
        opposite = tris[:, [2, 0, 1]]  # local edge j faces corner j + 2
        kept = np.empty(len(edges), dtype=np.int64)
        kept[cell_edges] = opposite  # one of the cells at each edge
        if np.bincount(cell_edges[kept[cell_edges] == opposite], minlength=len(edges)).max() > 1:
            raise ValueError("repeated triangle: two cells have the same three vertices")

        side = verts[edges[:, 1]] - verts[edges[:, 0]]
        length = np.linalg.norm(side, axis=1)
        tangents = side / length[:, None]

        for arr in (verts, tris, edges, cell_edges, boundary, areas, tangents):
            arr.setflags(write=False)
        return cls(verts, tris, edges, cell_edges, boundary, areas, tangents, float(length.max()))


# ---------------------------------------------------------------------------
# structured builders


def generate_uniform_square(M: int, domain=(0.0, 0.0, 1.0, 1.0), mask=None) -> Mesh:
    """Uniform right-triangle mesh of a rectangle, optionally with squares
    removed.

    Each unit of side length is split into ``M`` intervals and each grid
    square into two triangles along the lower-left to upper-right diagonal.

    Parameters
    ----------
    M : int
        Subdivisions per unit length, at least 1.
    domain : (x0, y0, x1, y1)
        The rectangle, the unit square by default. Its side lengths must be
        whole multiples of ``1/M``.
    mask : callable, optional
        ``mask(cx, cy) -> bool array`` over grid-square centers; squares where
        it returns True are excluded.
    """
    M = int(M)
    if M < 1:
        raise ValueError("M must be a positive integer")
    rect = tuple(float(v) for v in domain)
    if len(rect) != 4:
        raise ValueError("domain tuple must be (x0, y0, x1, y1)")

    x0, y0, x1, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate domain rectangle")
    nx = M * (x1 - x0)
    ny = M * (y1 - y0)
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise ValueError("side lengths must be whole multiples of 1/M")
    nx, ny = int(round(nx)), int(round(ny))

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # index [iy, ix]
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix, iy = ix.ravel(), iy.ravel()
    cx = x0 + (ix + 0.5) * (x1 - x0) / nx
    cy = y0 + (iy + 0.5) * (y1 - y0) / ny

    if mask is not None:
        keep = ~np.asarray(mask(cx, cy), dtype=bool)
        ix, iy = ix[keep], iy[keep]
    if len(ix) == 0:
        raise EmptyMeshError("mask removed every grid square")

    v00 = iy * (nx + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])  # diagonal v00 -> v11
    upper = np.column_stack([v00, v11, v01])
    cells = np.empty((2 * len(ix), 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    verts, cells, _ = _compact(verts, cells)
    return Mesh.from_cells(verts, cells)


def _compact(verts, cells):
    """Drop the vertices no cell uses and renumber the rest in their order.

    Returns the kept vertices, the renumbered cells and the old-to-new
    numbering, which is -1 at a dropped vertex.
    """
    used = np.zeros(len(verts), dtype=bool)
    used[cells] = True
    number = np.cumsum(used) - 1
    number[~used] = -1
    return verts[used], number[cells], number


# ---------------------------------------------------------------------------
# file formats


def load_gmsh_ascii(text: str) -> Mesh:
    """Read a Gmsh ASCII v2 file.

    Only 2-node lines and 3-node triangles are retained; other element types
    are ignored. Node ids may be sparse, they are renumbered densely in file
    order. Line elements are cross-checked against the triangulation boundary
    and mismatches produce a warning, not an error.
    """
    sections = _split_gmsh_sections(text)

    fmt = sections.get("MeshFormat")
    if fmt is None or not fmt:
        raise MalformedFileError("missing $MeshFormat section")
    parts = fmt[0].split()
    if len(parts) < 3:
        raise MalformedFileError("malformed $MeshFormat line")
    version, file_type = parts[0], parts[1]
    if file_type != "0":
        raise UnsupportedFormatError("binary Gmsh files are not supported")
    if not version.startswith("2"):
        raise UnsupportedFormatError(f"unsupported Gmsh format version {version}")

    node_lines = sections.get("Nodes")
    if node_lines is None:
        raise MalformedFileError("missing $Nodes section")
    try:
        n_nodes = int(node_lines[0])
    except (IndexError, ValueError):
        raise MalformedFileError("bad node count") from None
    if len(node_lines) - 1 != n_nodes:
        raise MalformedFileError("node count does not match $Nodes body")
    ids = np.empty(n_nodes, dtype=np.int64)
    xy = np.empty((n_nodes, 2), dtype=float)
    for k, line in enumerate(node_lines[1:]):
        parts = line.split()
        if len(parts) < 4:
            raise MalformedFileError(f"malformed node line: {line!r}")
        try:
            ids[k] = int(parts[0])
            xy[k, 0] = float(parts[1])
            xy[k, 1] = float(parts[2])
        except (ValueError, OverflowError):
            raise MalformedFileError(f"malformed node line: {line!r}") from None
    id_to_index = {int(i): k for k, i in enumerate(ids)}
    if len(id_to_index) != n_nodes:
        raise MalformedFileError("duplicate node id")

    elem_lines = sections.get("Elements")
    if elem_lines is None:
        raise MalformedFileError("missing $Elements section")
    try:
        n_elems = int(elem_lines[0])
    except (IndexError, ValueError):
        raise MalformedFileError("bad element count") from None
    if len(elem_lines) - 1 != n_elems:
        raise MalformedFileError("element count does not match $Elements body")

    tris = []
    seg_nodes = []
    for line in elem_lines[1:]:
        parts = line.split()
        try:
            etype = int(parts[1])
            ntags = int(parts[2])
            conn = [int(p) for p in parts[3 + ntags:]]
        except (IndexError, ValueError):
            raise MalformedFileError(f"malformed element line: {line!r}") from None
        need = {1: 2, 2: 3}.get(etype)
        if need is None:
            continue  # points, quads, higher order: not used here
        if len(conn) != need:
            raise MalformedFileError(f"element with wrong node count: {line!r}")
        try:
            conn = [id_to_index[c] for c in conn]
        except KeyError as exc:
            raise MalformedFileError(f"element references unknown node id {exc.args[0]}") from None
        (tris if etype == 2 else seg_nodes).append(conn)

    if not tris:
        raise EmptyMeshError("file contains no triangles")

    verts, cells, number = _compact(xy, np.asarray(tris, dtype=np.int64))
    mesh = _file_mesh(verts, cells)

    if seg_nodes:
        # boundary tagging cross-check: every 2-node line should be a
        # boundary edge of the triangulation; a line on a dropped node gets
        # a negative key, which no edge has
        nv = mesh.num_vertices
        lo, hi = np.sort(number[np.asarray(seg_nodes, dtype=np.int64)], axis=1).T
        boundary = mesh.edges[mesh.boundary_edge]
        bad = int((~np.isin(lo * nv + hi, boundary[:, 0] * nv + boundary[:, 1])).sum())
        if bad:
            warnings.warn(
                f"{bad} line elements are not boundary edges of the triangulation",
                stacklevel=2,
            )
    return mesh


def _split_gmsh_sections(text: str) -> dict:
    sections = {}
    name = None
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("$End"):
            if name is None or line[4:] != name:
                raise MalformedFileError(f"unexpected {line}")
            sections[name] = body
            name, body = None, []
        elif line.startswith("$"):
            if name is not None:
                raise MalformedFileError(f"section {name} not closed before {line}")
            name = line[1:]
            body = []
        elif name is not None:
            body.append(line)
        # stray content outside sections is ignored
    if name is not None:
        raise MalformedFileError(f"section {name} not closed at end of file")
    return sections


NATIVE_HEADER = "tdgl-mesh 1"


def format_native(mesh: Mesh) -> str:
    """Serialize a mesh in the native plain-text format.

    Layout: header line, vertex count, one ``x y`` line per vertex, cell
    count, one ``i j k`` line per cell. Coordinates round-trip exactly.
    """
    out = [NATIVE_HEADER, str(mesh.num_vertices)]
    # item() yields builtin floats whose repr round-trips exactly
    out.extend(f"{x.item()!r} {y.item()!r}" for x, y in mesh.vertices)
    out.append(str(mesh.num_cells))
    out.extend(f"{i} {j} {k}" for i, j, k in mesh.cells)
    return "\n".join(out) + "\n"


def parse_native(text: str) -> Mesh:
    """Read the native plain-text format written by :func:`format_native`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or lines[0] != NATIVE_HEADER:
        raise UnsupportedFormatError("not a native mesh file (bad header)")
    try:
        nv = int(lines[1])
        verts = np.array([[float(t) for t in lines[2 + k].split()] for k in range(nv)])
        nc = int(lines[2 + nv])
        cells = np.array(
            [[int(t) for t in lines[3 + nv + k].split()] for k in range(nc)],
            dtype=np.int64,
        )
    except (IndexError, ValueError, OverflowError):
        raise MalformedFileError("truncated or malformed native mesh file") from None
    if nc == 0:
        raise EmptyMeshError("native mesh file contains no triangles")
    if verts.ndim != 2 or verts.shape[1] != 2 or cells.shape[1] != 3:
        raise MalformedFileError("native mesh file has wrong column counts")
    return _file_mesh(verts, cells)


def _file_mesh(verts, cells) -> Mesh:
    """:meth:`Mesh.from_cells` on a file's arrays: what it rejects makes the file malformed."""
    try:
        return Mesh.from_cells(verts, cells)
    except EmptyMeshError:
        raise
    except ValueError as exc:
        raise MalformedFileError(str(exc)) from None


def load_mesh_file(path) -> Mesh:
    """Load a mesh from a file, sniffing the format from its first line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path} is not UTF-8 text: {exc}") from None
    head = text.lstrip().splitlines()[0] if text.strip() else ""
    if head == NATIVE_HEADER:
        return parse_native(text)
    if head.startswith("$"):
        return load_gmsh_ascii(text)
    raise UnsupportedFormatError(f"unrecognized mesh file format in {path}")


# ---------------------------------------------------------------------------
# quality audit


@dataclass(frozen=True)
class MeshAudit:
    """Angle and uniformity report.

    ``strictly_acute`` means every angle is below 90 degrees (tolerance
    ``ANGLE_TOL`` radians); ``weakly_acute`` allows right angles. The
    quasi-uniformity ratio is the largest cell diameter over the smallest.
    """

    min_angle_deg: float
    max_angle_deg: float
    strictly_acute: bool
    weakly_acute: bool
    quasi_uniformity_ratio: float


def audit_mesh(mesh: Mesh) -> MeshAudit:
    """Audit angles and uniformity. Reports only; callers decide policy.

    The angle at a corner is the arccos of its cosine, which decreases, so
    only the largest and the smallest cosine are taken to angles.
    """
    p = mesh.vertices[mesh.cells]  # (nc, 3, 2)
    side = np.roll(p, -1, axis=1) - p  # from corner v to corner v + 1
    length = np.sqrt((side * side).sum(axis=2))
    # at corner v, the sides to corners v + 1 and v + 2 are side v and minus side v - 1
    cos = np.einsum("cvx,cvx->cv", side, -np.roll(side, 1, axis=1))
    cos /= length * np.roll(length, 1, axis=1)
    amax, amin = np.arccos(np.clip([cos.min(), cos.max()], -1.0, 1.0))
    right = np.pi / 2
    diam = length.max(axis=1)
    return MeshAudit(
        min_angle_deg=float(np.degrees(amin)),
        max_angle_deg=float(np.degrees(amax)),
        strictly_acute=bool(amax < right - ANGLE_TOL),
        weakly_acute=bool(amax <= right + ANGLE_TOL),
        quasi_uniformity_ratio=float(diam.max() / diam.min()),
    )
