"""Triangle mesh containers, STL/OBJ parsing and writing, and mesh measurement.

All geometry is in millimeters. Counterclockwise winding means outward
normals. STL input is welded (exact coordinate dedup) so downstream code
always sees shared connectivity.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVertex, EmptyMesh, MalformedFile, MeshInvariantError

STL_HEADER_SIZE = 80
STL_FACET_SIZE = 50

_FLOAT_FMT = "{:.9g}"


@dataclass
class TriangleMesh:
    """Indexed triangle surface (vertices in mm, faces as index triples)."""

    vertices: np.ndarray
    faces: np.ndarray
    name: str | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)

    def validate(self):
        """Check structural invariants, raising MeshInvariantError on failure."""
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshInvariantError("face index out of range")
        if len(self.faces):
            f = self.faces
            if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
                raise MeshInvariantError("face references the same vertex twice")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshInvariantError("non-finite vertex coordinate")
        return self

    def copy(self) -> "TriangleMesh":
        return TriangleMesh(self.vertices.copy(), self.faces.copy(), self.name)

    def flipped(self) -> "TriangleMesh":
        """Same surface with reversed winding (normals negated)."""
        return TriangleMesh(self.vertices.copy(), self.faces[:, ::-1].copy(), self.name)

    @property
    def corner_points(self) -> np.ndarray:
        """Per-face corner coordinates, shape (n_faces, 3, 3)."""
        return self.vertices[self.faces]


@dataclass
class MeshReport:
    watertight: bool
    boundary_edge_count: int
    non_manifold_edge_count: int
    signed_volume_mm3: float
    bbox: tuple = field(default=None)  # ((minx,miny,minz), (maxx,maxy,maxz))


def face_normals(mesh: TriangleMesh, normalized: bool = True) -> np.ndarray:
    """Face normals; unnormalized vectors have magnitude 2*area."""
    p = mesh.corner_points
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    if normalized:
        mag = np.linalg.norm(n, axis=1, keepdims=True)
        mag[mag == 0.0] = 1.0
        n = n / mag
    return n


def signed_volume(mesh: TriangleMesh) -> float:
    """Sum of signed tetrahedron volumes against the origin, in mm^3.

    Positive for closed surfaces with outward (CCW) winding. Only
    physically meaningful when the mesh is watertight.
    """
    p = mesh.corner_points
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def _edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per undirected edge, in key order: the number of faces using it and its
    net direction, uses from the lower vertex index minus uses from the higher."""
    u, v = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    _, edge, counts = np.unique(np.minimum(u, v) * (faces.max(initial=0) + 1) + np.maximum(u, v),
                                return_inverse=True, return_counts=True)
    return counts, np.bincount(edge, np.sign(v - u), len(counts))


def analyze_mesh(mesh: TriangleMesh) -> MeshReport:
    """Edge-manifoldness, watertightness, signed volume and bounding box."""
    if len(mesh.faces) == 0:
        raise EmptyMesh("cannot analyze a mesh with no faces")
    counts = _edge_table(mesh.faces)[0]
    boundary = int(np.sum(counts == 1))
    nonmanifold = int(np.sum(counts > 2))
    return MeshReport(
        watertight=(boundary == 0 and nonmanifold == 0),
        boundary_edge_count=boundary,
        non_manifold_edge_count=nonmanifold,
        signed_volume_mm3=signed_volume(mesh),
        bbox=(tuple(mesh.vertices.min(axis=0)), tuple(mesh.vertices.max(axis=0))),
    )


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted vertex normals, unit length.

    Raises DegenerateVertex when the weighted sum cancels below 1e-12
    (e.g. coincident opposite-wound faces) or a vertex has no faces.
    """
    acc = np.zeros_like(mesh.vertices)
    fn = face_normals(mesh, normalized=False)  # magnitude = 2*area
    for k in range(3):
        np.add.at(acc, mesh.faces[:, k], fn)
    norms = np.linalg.norm(acc, axis=1)
    bad = np.nonzero(norms < 1e-12)[0]
    if len(bad):
        raise DegenerateVertex(int(bad[0]))
    return acc / norms[:, None]


def merge_meshes(meshes, name=None) -> TriangleMesh:
    """Concatenate meshes into one multi-component mesh (indices re-based)."""
    verts, faces, off = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + off)
        off += len(m.vertices)
    return TriangleMesh(np.concatenate(verts), np.concatenate(faces), name)


def connected_components(mesh: TriangleMesh) -> list[TriangleMesh]:
    """Split a mesh into vertex-connected components."""
    from scipy.sparse import coo_matrix, csgraph

    n, f = len(mesh.vertices), mesh.faces
    graph = coo_matrix((np.ones(2 * len(f)), (f[:, :2].ravel(), f[:, 1:].ravel())), shape=(n, n))
    face_label = csgraph.connected_components(graph, directed=False)[1][f[:, 0]]
    out = []
    for label in np.unique(face_label):
        used, remap = np.unique(f[face_label == label], return_inverse=True)
        out.append(TriangleMesh(mesh.vertices[used], remap.reshape(-1, 3), mesh.name))
    return out


# --------------------------------------------------------------------------
# parsing

def _weld(triangles: np.ndarray, name=None) -> TriangleMesh:
    """Index a triangle soup, merging exactly-equal coordinates (0.0 equals
    -0.0); vertices keep their first appearance's value and order."""
    flat = triangles.reshape(-1, 3)
    order = np.lexsort(flat.T[::-1])  # stable, so each run of equal rows starts at its first appearance
    head = np.r_[True, np.any(flat[order[1:]] != flat[order[:-1]], axis=1)]
    inverse = np.empty(len(flat), dtype=np.int64)
    inverse[order] = np.argsort(np.argsort(order[head]))[np.cumsum(head) - 1]
    mesh = TriangleMesh(flat[np.sort(order[head])], inverse.reshape(-1, 3), name)
    mesh.validate()
    return mesh


def _parse_stl_binary(data: bytes) -> TriangleMesh:
    if len(data) < STL_HEADER_SIZE + 4:
        raise MalformedFile("binary STL shorter than header", byte=len(data))
    (count,) = struct.unpack_from("<I", data, STL_HEADER_SIZE)
    expect = STL_HEADER_SIZE + 4 + STL_FACET_SIZE * count
    if len(data) < expect:
        raise MalformedFile(
            f"binary STL truncated: header promises {count} facets", byte=len(data)
        )
    if count == 0:
        raise EmptyMesh("binary STL with zero facets")
    rec = np.dtype([("n", "<3f4"), ("v", "<9f4"), ("attr", "<u2")])
    body = np.frombuffer(data, dtype=rec, count=count, offset=STL_HEADER_SIZE + 4)
    tris = body["v"].astype(np.float64).reshape(-1, 3, 3)
    if not np.all(np.isfinite(tris)):
        raise MalformedFile("non-finite coordinate in binary STL")
    name = data[:STL_HEADER_SIZE].split(b"\0", 1)[0].decode("ascii", "replace").strip() or None
    return _weld(tris, name)


def _parse_stl_ascii(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"ASCII STL is not ASCII: {exc}") from None
    coords = []
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] == "solid":
            if name is None and len(tok) > 1:
                name = tok[1]
        elif tok[0] == "vertex":
            if len(tok) != 4:
                raise MalformedFile("vertex record needs 3 coordinates", line=lineno)
            try:
                coords.append([float(t) for t in tok[1:]])
            except ValueError:
                raise MalformedFile(f"non-numeric vertex field {tok[1:]}", line=lineno) from None
        elif tok[0] not in ("facet", "outer", "endloop", "endfacet", "endsolid", "normal"):
            raise MalformedFile(f"unexpected token {tok[0]!r}", line=lineno)
    if not coords:
        raise EmptyMesh("ASCII STL with no facets")
    if len(coords) % 3:
        raise MalformedFile(f"vertex count {len(coords)} is not a multiple of 3")
    tris = np.array(coords, dtype=np.float64).reshape(-1, 3, 3)
    if not np.all(np.isfinite(tris)):
        raise MalformedFile("non-finite coordinate in ASCII STL")
    return _weld(tris, name)


def _parse_obj(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"OBJ is not UTF-8: {exc}") from None
    verts = []
    faces = []
    ignored = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 4:
                raise MalformedFile("v record needs 3 coordinates", line=lineno)
            try:
                verts.append([float(t) for t in tok[1:4]])
            except ValueError:
                raise MalformedFile(f"non-numeric v field {tok[1:4]}", line=lineno) from None
        elif tok[0] == "f":
            if len(tok) < 4:
                raise MalformedFile("f record needs at least 3 indices", line=lineno)
            idx = []
            for t in tok[1:]:
                head = t.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MalformedFile(f"non-numeric face index {t!r}", line=lineno) from None
                if i < 0:
                    i = len(verts) + i
                else:
                    i = i - 1
                if i < 0 or i >= len(verts):
                    raise MalformedFile(f"face index {head} out of range", line=lineno)
                idx.append(i)
            for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                faces.append([idx[0], idx[k], idx[k + 1]])
        else:
            ignored.add(tok[0])
    if ignored:
        warnings.warn(f"OBJ records ignored: {sorted(ignored)}", stacklevel=3)
    if not faces:
        raise EmptyMesh("OBJ with no faces")
    mesh = TriangleMesh(np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64))
    mesh.validate()
    return mesh


def detect_format(data: bytes) -> str:
    """Heuristic format detection: binary STL by facet-count consistency,
    tested first because a binary header may itself start with 'solid';
    ASCII STL by the leading 'solid' token plus facet records; else OBJ."""
    if len(data) >= STL_HEADER_SIZE + 4:
        (count,) = struct.unpack_from("<I", data, STL_HEADER_SIZE)
        if STL_HEADER_SIZE + 4 + STL_FACET_SIZE * count == len(data):
            return "stl_binary"
    if data.lstrip().startswith(b"solid") and b"facet" in data:
        return "stl_ascii"
    return "obj"


def parse_mesh(data: bytes, fmt: str = "auto") -> TriangleMesh:
    """Parse STL (binary or ASCII) or OBJ bytes into a validated TriangleMesh."""
    if not data:
        raise MalformedFile("empty input", byte=0)
    if fmt == "auto":
        fmt = detect_format(data)
    if fmt == "stl_binary":
        return _parse_stl_binary(data)
    if fmt == "stl_ascii":
        return _parse_stl_ascii(data)
    if fmt == "obj":
        return _parse_obj(data)
    raise ValueError(f"unknown format {fmt!r}")


# --------------------------------------------------------------------------
# writing

def _write_stl_binary(mesh: TriangleMesh) -> bytes:
    header = (mesh.name or "handforge").encode("ascii", "replace")[:STL_HEADER_SIZE]
    header = header.ljust(STL_HEADER_SIZE, b"\0")
    count = len(mesh.faces)
    rec = np.dtype([("n", "<3f4"), ("v", "<9f4"), ("attr", "<u2")])
    body = np.zeros(count, dtype=rec)
    body["n"] = face_normals(mesh).astype(np.float32)
    body["v"] = mesh.corner_points.reshape(-1, 9).astype(np.float32)
    return header + struct.pack("<I", count) + body.tobytes()


def _write_stl_ascii(mesh: TriangleMesh) -> bytes:
    name = mesh.name or "handforge"
    out = [f"solid {name}"]
    normals = face_normals(mesh)
    for n, tri in zip(normals, mesh.corner_points):
        out.append("  facet normal " + " ".join(_FLOAT_FMT.format(x) for x in n))
        out.append("    outer loop")
        for p in tri:
            out.append("      vertex " + " ".join(_FLOAT_FMT.format(x) for x in p))
        out.append("    endloop")
        out.append("  endfacet")
    out.append(f"endsolid {name}")
    return ("\n".join(out) + "\n").encode("ascii")


def _write_obj(mesh: TriangleMesh) -> bytes:
    out = []
    if mesh.name:
        out.append(f"# {mesh.name}")
    for p in mesh.vertices:
        out.append("v " + " ".join(_FLOAT_FMT.format(x) for x in p))
    for f in mesh.faces:
        out.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    return ("\n".join(out) + "\n").encode("ascii")


def write_mesh(mesh: TriangleMesh, fmt: str) -> bytes:
    """Serialize a mesh; binary STL is byte-deterministic for a given mesh."""
    mesh.validate()
    if fmt == "stl_binary":
        return _write_stl_binary(mesh)
    if fmt == "stl_ascii":
        return _write_stl_ascii(mesh)
    if fmt == "obj":
        return _write_obj(mesh)
    raise ValueError(f"unknown format {fmt!r}")
