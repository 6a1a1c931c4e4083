"""Synthetic mesh construction and low-level geometric queries.

Shapes (cube, icosphere, cylinder, capsule, convex hull) serve as test
oracles, template bones and demo fixtures. The query helpers (winding
numbers, ray casting, plane clipping) back the tissue-shell builder.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshInvariantError
from .mesh_io import TriangleMesh


def cube(size: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Axis-aligned cube with outward winding (12 triangles)."""
    h = size / 2.0
    c = np.asarray(center, dtype=np.float64)
    corners = np.array(
        [[sx, sy, sz] for sx in (-h, h) for sy in (-h, h) for sz in (-h, h)]
    ) + c
    # index: bit0 = z, bit1 = y, bit2 = x
    faces = np.array([
        [0, 1, 3], [0, 3, 2],  # -x
        [4, 6, 7], [4, 7, 5],  # +x
        [0, 4, 5], [0, 5, 1],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 2, 6], [0, 6, 4],  # -z
        [1, 5, 7], [1, 7, 3],  # +z
    ])
    return TriangleMesh(corners, faces, "cube")


def icosphere(radius: float = 1.0, subdivisions: int = 2, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Geodesic sphere from a subdivided icosahedron; vertices lie on the sphere."""
    t = (1.0 + 5.0 ** 0.5) / 2.0
    v = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        verts = list(map(tuple, v))
        cache = {}

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                p = np.asarray(verts[a]) + np.asarray(verts[b])
                p /= np.linalg.norm(p)
                verts.append(tuple(p))
                cache[key] = len(verts) - 1
            return cache[key]

        nf = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        v, f = np.asarray(verts), np.asarray(nf)
    return TriangleMesh(v * radius + np.asarray(center, dtype=np.float64), f, "icosphere")


def _frame_from_axis(axis: np.ndarray):
    """Orthonormal (u, v, w) with w along axis."""
    w = axis / np.linalg.norm(axis)
    seed = np.array([1.0, 0.0, 0.0]) if abs(w[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(seed, w)
    u /= np.linalg.norm(u)
    return u, np.cross(w, u), w


def cylinder(p0, p1, radius: float, segments: int = 24, name="cylinder") -> TriangleMesh:
    """Closed cylinder from p0 to p1, outward winding, flat fan caps."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    u, v, w = _frame_from_axis(p1 - p0)
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    ring = np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v)
    verts = [p0 + radius * ring, p1 + radius * ring, [p0], [p1]]
    verts = np.concatenate([np.atleast_2d(np.asarray(x)).reshape(-1, 3) for x in verts])
    c0, c1 = 2 * segments, 2 * segments + 1
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces += [[i, j, segments + i], [j, segments + j, segments + i]]  # side
        faces += [[c0, j, i], [c1, segments + i, segments + j]]  # caps
    return TriangleMesh(verts, np.asarray(faces), name)


def capsule(p0, p1, radius: float, segments: int = 20, rings: int = 8, name="capsule") -> TriangleMesh:
    """Sphere-capped cylinder from p0 to p1 (watertight, outward winding)."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    u, v, w = _frame_from_axis(p1 - p0)
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    ring_dir = np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v)

    # profile from south pole of the p0 cap to north pole of the p1 cap
    rows = []
    for k in range(1, rings + 1):  # lower hemisphere (excluding pole)
        phi = np.pi / 2 * (k / rings - 1.0)
        rows.append(p0 + radius * np.cos(phi) * ring_dir + radius * np.sin(phi) * w)
    for k in range(rings):  # upper hemisphere (excluding pole)
        phi = np.pi / 2 * (k / rings)
        rows.append(p1 + radius * np.cos(phi) * ring_dir + radius * np.sin(phi) * w)
    verts = np.concatenate(rows + [[p0 - radius * w], [p1 + radius * w]])
    south, north = len(verts) - 2, len(verts) - 1
    faces = []
    nrows = len(rows)
    for r in range(nrows - 1):
        a, b = r * segments, (r + 1) * segments
        for i in range(segments):
            j = (i + 1) % segments
            faces += [[a + i, a + j, b + i], [a + j, b + j, b + i]]
    for i in range(segments):
        j = (i + 1) % segments
        faces += [[south, j, i], [north, (nrows - 1) * segments + i, (nrows - 1) * segments + j]]
    return TriangleMesh(verts, np.asarray(faces), name)


def convex_hull_mesh(points: np.ndarray, name="hull") -> TriangleMesh:
    """Watertight convex hull with outward winding."""
    from scipy.spatial import ConvexHull

    points = np.asarray(points, dtype=np.float64)
    hull = ConvexHull(points)
    verts = points[hull.vertices]
    remap = np.full(len(points), -1, dtype=np.int64)
    remap[hull.vertices] = np.arange(len(hull.vertices))
    faces = remap[hull.simplices]
    mesh = TriangleMesh(verts, faces, name)
    # orient every face away from the interior point
    centroid = verts.mean(axis=0)
    p = mesh.corner_points
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    inward = np.einsum("ij,ij->i", n, p[:, 0] - centroid) < 0
    mesh.faces[inward] = mesh.faces[inward][:, ::-1]
    return mesh


# --------------------------------------------------------------------------
# queries

def winding_numbers(mesh: TriangleMesh, points: np.ndarray) -> np.ndarray:
    """Generalized winding number of each query point (1 inside, 0 outside
    for watertight outward-wound meshes). Solid-angle sum, van Oosterom form."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.corner_points
    out = np.empty(len(points))
    for idx, q in enumerate(points):
        a = tri[:, 0] - q
        b = tri[:, 1] - q
        c = tri[:, 2] - q
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        lc = np.linalg.norm(c, axis=1)
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        denom = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
                 + np.einsum("ij,ij->i", b, c) * la + np.einsum("ij,ij->i", c, a) * lb)
        out[idx] = np.sum(2.0 * np.arctan2(det, denom)) / (4.0 * np.pi)
    return out


def _moller_trumbore(origin, direction, tri):
    """Moller-Trumbore (det, u, v, t) of lines origin + t*direction against
    triangles tri[..., 3, 3], broadcast over leading axes: u, v barycentric, t
    along the line, nan where det == 0. Each caller sets its own windows."""
    e1 = tri[..., 1, :] - tri[..., 0, :]
    e2 = tri[..., 2, :] - tri[..., 0, :]
    pvec = np.cross(direction, e2)
    det = np.einsum("...j,...j->...", e1, pvec)
    tvec = origin - tri[..., 0, :]
    qvec = np.cross(tvec, e1)
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / np.where(det == 0.0, np.nan, det)
        u = np.einsum("...j,...j->...", tvec, pvec) * inv
        v = np.einsum("...j,...j->...", direction, qvec) * inv
        t = np.einsum("...j,...j->...", e2, qvec) * inv
    return det, u, v, t


def ray_hits(mesh: TriangleMesh, origin, direction) -> np.ndarray:
    """Sorted positive ray parameters t where origin + t*direction crosses
    the surface (Moller-Trumbore over all faces)."""
    origin = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    det, u, v, t = _moller_trumbore(origin, d, mesh.corner_points)
    eps = 1e-10
    with np.errstate(invalid="ignore"):  # u + v is inf - inf only where det is ~0
        hit = (np.abs(det) > 1e-12) & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > 1e-9)
    return np.sort(t[hit])


def point_surface_distance(mesh: TriangleMesh, points: np.ndarray) -> np.ndarray:
    """Unsigned distance from each point to the closest triangle."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.corner_points
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    out = np.empty(len(points))
    for idx, q in enumerate(points):
        ap = q - a
        d1 = np.einsum("ij,ij->i", ab, ap)
        d2 = np.einsum("ij,ij->i", ac, ap)
        bp = q - b
        d3 = np.einsum("ij,ij->i", ab, bp)
        d4 = np.einsum("ij,ij->i", ac, bp)
        cp = q - c
        d5 = np.einsum("ij,ij->i", ab, cp)
        d6 = np.einsum("ij,ij->i", ac, cp)
        va = d3 * d6 - d5 * d4
        vb = d5 * d2 - d1 * d6
        vc = d1 * d4 - d3 * d2
        denom = va + vb + vc
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        v = vb / denom
        w = vc / denom
        # closest point via clamped barycentric regions
        closest = a + v[:, None] * ab + w[:, None] * ac
        # vertex regions
        closest = np.where(((d1 <= 0) & (d2 <= 0))[:, None], a, closest)
        closest = np.where(((d3 >= 0) & (d4 <= d3))[:, None], b, closest)
        closest = np.where(((d6 >= 0) & (d5 <= d6))[:, None], c, closest)
        # edge regions
        t_ab = np.clip(d1 / np.where(np.abs(d1 - d3) < 1e-300, 1.0, d1 - d3), 0, 1)
        on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
        closest = np.where(on_ab[:, None], a + t_ab[:, None] * ab, closest)
        t_ac = np.clip(d2 / np.where(np.abs(d2 - d6) < 1e-300, 1.0, d2 - d6), 0, 1)
        on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
        closest = np.where(on_ac[:, None], a + t_ac[:, None] * ac, closest)
        num = d4 - d3
        den = (d4 - d3) + (d5 - d6)
        t_bc = np.clip(num / np.where(np.abs(den) < 1e-300, 1.0, den), 0, 1)
        on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
        closest = np.where(on_bc[:, None], b + t_bc[:, None] * (c - b), closest)
        out[idx] = np.min(np.linalg.norm(closest - q, axis=1))
    return out


def clip_by_plane(mesh: TriangleMesh, point, normal, cap: bool = True) -> TriangleMesh:
    """Keep the half-space dot(v - point, normal) <= 0, splitting crossing
    triangles and capping each cut loop with a centroid fan."""
    point = np.asarray(point, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    sd = (mesh.vertices - point) @ n

    verts = [tuple(v) for v in mesh.vertices]
    edge_cut = {}

    def cut(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in edge_cut:
            t = sd[i] / (sd[i] - sd[j])
            p = mesh.vertices[i] + t * (mesh.vertices[j] - mesh.vertices[i])
            verts.append(tuple(p))
            edge_cut[key] = len(verts) - 1
        return edge_cut[key]

    eps = 1e-12
    faces = []
    segments = []  # directed cut edges, CCW around the kept region seen from +n
    for tri in mesh.faces:
        inside = [sd[i] <= eps for i in tri]
        k = sum(inside)
        if k == 3:
            faces.append(list(tri))
        elif k == 0:
            continue
        else:
            order = list(tri)
            flags = list(inside)
            if k == 1:
                # rotate so the single kept vertex comes first
                while not (flags[0] and not flags[1] and not flags[2]):
                    order = order[1:] + order[:1]
                    flags = flags[1:] + flags[:1]
                a, b, c = order
                pab, pca = cut(a, b), cut(c, a)
                faces.append([a, pab, pca])
                segments.append((pab, pca))
            else:
                # rotate so the single dropped vertex comes last
                while flags[2]:
                    order = order[1:] + order[:1]
                    flags = flags[1:] + flags[:1]
                a, b, c = order
                pbc, pca = cut(b, c), cut(c, a)
                faces.append([a, b, pbc])
                faces.append([a, pbc, pca])
                segments.append((pbc, pca))

    if cap and segments:
        # chain segments into loops and cap with centroid fans facing +n
        nxt = {s: e for s, e in segments}
        visited = set()
        for start in list(nxt):
            if start in visited:
                continue
            loop = [start]
            visited.add(start)
            cur = nxt.get(start)
            while cur is not None and cur != start:
                loop.append(cur)
                visited.add(cur)
                cur = nxt.get(cur)
            if cur != start or len(loop) < 3:
                continue  # open chain: leave uncapped
            centroid = np.mean([verts[i] for i in loop], axis=0)
            verts.append(tuple(centroid))
            ci = len(verts) - 1
            for i in range(len(loop)):
                faces.append([ci, loop[(i + 1) % len(loop)], loop[i]])

    if not faces:
        raise MeshInvariantError("clip removed the entire mesh")
    varr = np.asarray(verts, dtype=np.float64)
    farr = np.asarray(faces, dtype=np.int64)
    # drop degenerate faces produced by vertices exactly on the plane
    p = varr[farr]
    area2 = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    farr = farr[area2 > 1e-12]
    used = np.unique(farr)
    remap = np.full(len(varr), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(varr[used], remap[farr], mesh.name)
