"""Synthetic mesh construction and low-level geometric queries.

Shapes (cube, icosphere, cylinder, capsule, convex hull) serve as test
oracles, template bones and demo fixtures. The query helpers back the
tissue-shell builder: winding numbers and the smallest point-surface
distance of a point set (the skin-to-bone gap) answer through a face BVH
(`_MeshIndex`; exact: certified ray crossings and closest points on the
faces a box test leaves, not an approximation), ray casting scans every
face, and plane clipping splits all faces at once with array code.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshInvariantError
from .mesh_io import TriangleMesh, _edge_table


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

_LEAF = 8  # faces per BVH leaf
_CHUNK = 32  # query points per traversal
_ROWS = 8192  # (point, triangle) rows per kernel call
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
_RAY = np.array([11.0, 9.0, 13.0]) / 16.0  # winding-number ray: no zero component, exact small multiples


def _solid_angles(q, a, b, c):
    """Signed solid angle 2 atan2(det, denom) of triangles (a, b, c) seen from
    q, row by row (van Oosterom form). The arithmetic is the per-face loop's
    it replaced, so a point on a face or edge, where rounding sets the term,
    gets the same term."""
    a, b, c = a - q, b - q, c - q
    la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
             + np.einsum("ij,ij->i", b, c) * la + np.einsum("ij,ij->i", c, a) * lb)
    return 2.0 * np.arctan2(det, denom)


def _orientations(u, v, w):
    """Exact sign of det[u; v; w] = w . (u x v) row by row, or 0 where |det| is
    within 8 eps times the permanent (Shewchuk's static orient3d bound, 1997,
    is 3.5 eps for rows of rounded differences) or the smallest normal."""
    det = np.einsum("...j,...j->...", w, np.cross(u, v))
    u, v = np.abs(u), np.abs(v)
    perm = np.einsum("...j,...j->...", np.abs(w), u[:, [1, 2, 0]] * v[:, [2, 0, 1]] + u[:, [2, 0, 1]] * v[:, [1, 2, 0]])
    return np.where(np.abs(det) > 8.0 * _EPS * perm + _TINY, np.sign(det), 0.0)


def _crossings(q, a, b, c):
    """Crossing of the ray q + t _RAY, t > 0, and triangle (a, b, c) row by row:
    +1 out through its front, -1 through its back, 0 none, nan undecided. The
    line meets the open triangle iff its three edge orientations share a sign;
    det[a - q; b - q; c - q] of that sign puts the meeting point at t > 0."""
    a, b, c = a - q, b - q, c - q
    edges = np.stack([_orientations(a, b, _RAY), _orientations(b, c, _RAY), _orientations(c, a, _RAY)])
    hi, lo, side = edges.max(axis=0), edges.min(axis=0), _orientations(a, b, c)
    return np.where(hi * lo < 0, 0.0, np.where((hi == lo) & (hi * side != 0), np.where(side == hi, hi, 0.0), np.nan))


def _closest_distances(q, a, b, c):
    """Distance from q to the closest point of triangle (a, b, c), row by row:
    Ericson's Voronoi regions, each later region overriding the earlier ones.
    The arithmetic is the per-face loop's it replaced, bit for bit."""
    def nonzero(x):
        return np.where(np.abs(x) < 1e-300, 1.0, x)

    ab, ac = b - a, c - a
    d1, d2, d3, d4, d5, d6 = (np.einsum("ij,ij->i", e, p) for p in (q - a, q - b, q - c) for e in (ab, ac))
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
    denom = nonzero(va + vb + vc)
    closest = a + (vb / denom)[:, None] * ab + (vc / denom)[:, None] * ac
    for region, point in (
        ((d1 <= 0) & (d2 <= 0), a),
        ((d3 >= 0) & (d4 <= d3), b),
        ((d6 >= 0) & (d5 <= d6), c),
        ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + np.clip(d1 / nonzero(d1 - d3), 0, 1)[:, None] * ab),
        ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + np.clip(d2 / nonzero(d2 - d6), 0, 1)[:, None] * ac),
        ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
         b + np.clip((d4 - d3) / nonzero((d4 - d3) + (d5 - d6)), 0, 1)[:, None] * (c - b)),
    ):
        closest = np.where(region[:, None], point, closest)
    return np.linalg.norm(closest - q, axis=1)


def _per_row(kernel, q, pt, corners, coords) -> np.ndarray:
    """kernel(q[pt], a, b, c) over the triangles coords[corners], _ROWS rows at a time."""
    out = np.empty(len(pt))
    for s in range(0, len(pt), _ROWS):
        tri = coords[corners[s:s + _ROWS]]
        out[s:s + _ROWS] = kernel(q[pt[s:s + _ROWS]], tri[:, 0], tri[:, 1], tri[:, 2])
    return out


def _box_distance(q, lo, hi) -> np.ndarray:
    return np.linalg.norm(np.maximum(np.maximum(lo - q, q - hi), 0.0), axis=1)


def _ray_meets(q, lo, hi, margin) -> np.ndarray:
    """Slab test, row by row: does the ray q + t _RAY, t >= 0, meet the box
    [lo, hi] grown by margin? An inverted box never does. _RAY > 0, so each
    slab's entry is t0 and its exit t1."""
    t0, t1 = (lo - margin - q) / _RAY, (hi + margin - q) / _RAY
    near = np.maximum(np.maximum(t0[:, 0], t0[:, 1]), np.maximum(t0[:, 2], 0.0))
    return near <= np.minimum(np.minimum(t1[:, 0], t1[:, 1]), t1[:, 2])


class _MeshIndex:
    """Face BVH: an implicit binary tree (root 1, children 2n and 2n + 1) whose
    leaves hold _LEAF faces each in the Morton (Z-curve) order of the face
    centroids, padded with empty leaves to a power of two. Boxes are reduced
    bottom-up, and each node keeps a representative vertex (one of its first
    face); empty slots and nodes get the inverted box (inf, -inf) and inf."""

    def __init__(self, mesh: TriangleMesh):
        self.vertices, self.faces = mesh.vertices, mesh.faces
        tri = mesh.corner_points
        self.depth = (max(1, -(-len(tri) // _LEAF)) - 1).bit_length()
        n = 1 << self.depth
        cen = tri.mean(axis=1)
        lo = cen.min(axis=0, initial=np.inf)
        cell = (cen - lo) * (1023.0 / max(float((cen.max(axis=0, initial=-np.inf) - lo).max(initial=0.0)), 1e-300))
        code = sum((((cell.astype(np.int64) >> bit) & 1) @ [4, 2, 1]) << (3 * bit) for bit in range(10))
        slots = np.full(n * _LEAF, -1)
        slots[:len(tri)] = np.argsort(code, kind="stable")
        self.leaf_faces = slots.reshape(n, _LEAF)
        pad = np.full((1, 3), np.inf)  # read by slot -1
        self.face_lo, self.face_hi = np.vstack([tri.min(axis=1), pad]), np.vstack([tri.max(axis=1), -pad])
        self.lo, self.hi, self.rep = (np.empty((2 * n, 3)) for _ in range(3))
        self.lo[n:], self.hi[n:] = self.face_lo[self.leaf_faces].min(axis=1), self.face_hi[self.leaf_faces].max(axis=1)
        self.rep[n:] = np.vstack([tri[:, 0], pad])[self.leaf_faces[:, 0]]
        while n > 1:
            n //= 2
            self.lo[n:2 * n] = np.minimum(self.lo[2 * n:4 * n:2], self.lo[2 * n + 1:4 * n:2])
            self.hi[n:2 * n] = np.maximum(self.hi[2 * n:4 * n:2], self.hi[2 * n + 1:4 * n:2])
            self.rep[n:2 * n] = self.rep[2 * n:4 * n:2]

    def _margin(self, points: np.ndarray) -> float:
        """Rounding margin for box tests, relative to the coordinates' scale."""
        return 1e-9 * (np.abs(self.vertices).max(initial=0.0) + np.abs(points).max(initial=0.0))

    def _descend(self, count: int, enter):
        """(point, face) rows for the faces of the leaves reached from the root
        through the internal nodes where enter(pt, node) holds."""
        pt, node = np.arange(count), np.ones(count, dtype=np.int64)
        for _ in range(self.depth):
            go = enter(pt, node)
            pt, node = np.repeat(pt[go], 2), (2 * node[go, None] + [0, 1]).ravel()
        face = self.leaf_faces[node - (1 << self.depth)]
        return np.broadcast_to(pt[:, None], face.shape)[face >= 0], face[face >= 0]

    def winding_numbers(self, points: np.ndarray) -> np.ndarray:
        """Exact winding numbers: on a closed mesh (each edge used as often in
        both directions), the signed crossings of a ray with the faces whose
        boxes it meets, found through the node boxes it meets (Jacobson et al.
        2013); at a point with an undecided crossing, or on an open mesh, the
        oracle's solid-angle sum over every face."""
        closed = not _edge_table(self.faces)[1].any()
        margin, out = self._margin(points), np.full(len(points), np.nan)
        for c0 in range(0, len(points) if closed else 0, _CHUNK):
            q = points[c0:c0 + _CHUNK]
            pt, face = self._descend(len(q), lambda pt, node: _ray_meets(q[pt], self.lo[node], self.hi[node], margin))
            keep = _ray_meets(q[pt], self.face_lo[face], self.face_hi[face], margin)
            pt, face = pt[keep], face[keep]
            out[c0:c0 + _CHUNK] = np.bincount(pt, _per_row(_crossings, q, pt, self.faces[face], self.vertices), len(q))
        for i in np.flatnonzero(np.isnan(out)):
            rows = np.full(len(self.faces), i)
            out[i] = np.sum(_per_row(_solid_angles, points, rows, self.faces, self.vertices)) / (4.0 * np.pi)
        return out

    def gap(self, points: np.ndarray) -> float:
        """Exact smallest closest-triangle distance over all the points (inf for
        none). One bound serves all points, carried from chunk to chunk: the
        nearest representative vertex met so far, then the best exact distance.
        Boxes beyond it (plus a rounding margin) are pruned, never the row of
        the minimum, so the result is the brute-force one, bit for bit, even
        where a chunk loses every row."""
        margin, bound, best = self._margin(points), np.inf, np.inf
        for c0 in range(0, len(points), _CHUNK):
            q = points[c0:c0 + _CHUNK]

            def enter(pt, node):
                nonlocal bound
                bound = min(bound, np.linalg.norm(self.rep[node] - q[pt], axis=1).min(initial=np.inf))
                return _box_distance(q[pt], self.lo[node], self.hi[node]) <= bound + margin

            pt, face = self._descend(len(q), enter)
            keep = _box_distance(q[pt], self.face_lo[face], self.face_hi[face]) <= bound + margin
            best = min(best, _per_row(_closest_distances, q, pt[keep], self.faces[face[keep]], self.vertices)
                       .min(initial=np.inf))
            bound = min(bound, best)
        return float(best)


def winding_numbers(mesh: TriangleMesh, points: np.ndarray) -> np.ndarray:
    """Generalized winding number of each query point (1 inside, 0 outside
    for watertight outward-wound meshes): certified ray crossings through a
    face BVH on a closed mesh, else the solid-angle sum over every face."""
    return _MeshIndex(mesh).winding_numbers(np.atleast_2d(np.asarray(points, dtype=np.float64)))


def surface_gap(mesh: TriangleMesh, points: np.ndarray) -> float:
    """Smallest unsigned distance from any of the points to the closest
    triangle (inf for no points), searched over a face BVH with one bound."""
    return _MeshIndex(mesh).gap(np.atleast_2d(np.asarray(points, dtype=np.float64)))


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


def clip_by_plane(mesh: TriangleMesh, point, normal) -> TriangleMesh:
    """Keep the half-space dot(v - point, normal) <= 0, splitting crossing
    triangles and capping each cut loop with a centroid fan.

    A cut on an edge whose kept end lies on the plane (|distance| <= 1e-12)
    reuses that vertex. Other cut vertices follow the original ones in the
    order their edges are first cut, walking the faces in order, each placed
    from the direction of that first cut."""
    point = np.asarray(point, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    verts, faces = mesh.vertices, mesh.faces
    sd = (verts - point) @ n

    eps = 1e-12
    inside = sd[faces] <= eps
    k = inside.sum(axis=1)
    cross = (k == 1) | (k == 2)
    k1 = k[cross] == 1
    # rotate so a single kept vertex comes first and a single dropped one last
    shift = np.where(k1, inside[cross].argmax(axis=1), inside[cross].argmin(axis=1) + 1)
    a, b, c = np.take_along_axis(faces[cross], (shift[:, None] + np.arange(3)) % 3, axis=1).T
    # two cuts per crossing face, in loop order: (a, b), (c, a) or (b, c), (c, a)
    i = np.c_[np.where(k1, a, b), c].ravel()
    j = np.c_[np.where(k1, b, c), a].ravel()
    # a cut whose kept end lies on the plane is that end; the other cuts are
    # new vertices, numbered by first cut of their edge, placed from its direction
    cut = np.where(sd[i] <= eps, i, j)
    new = np.abs(sd[cut]) > eps
    i, j = i[new], j[new]
    _, first, inverse = np.unique(np.minimum(i, j) * len(verts) + np.maximum(i, j),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    cut[new] = len(verts) + np.argsort(order)[inverse]
    i, j = i[first[order]], j[first[order]]
    t = sd[i] / (sd[i] - sd[j])
    varr = np.concatenate([verts, verts[i] + t[:, None] * (verts[j] - verts[i])])
    p1, p2 = cut.reshape(-1, 2).T

    # faces in input order: whole (k = 3), one piece (k = 1) or two (k = 2)
    slots = np.array([0, 1, 2, 1])[k]
    at = np.cumsum(slots) - slots
    farr = np.empty((slots.sum(), 3), dtype=np.int64)
    farr[at[k == 3]] = faces[k == 3]
    at = at[cross]
    farr[at] = np.where(k1[:, None], np.c_[a, p1, p2], np.c_[a, b, p1])
    farr[at[~k1] + 1] = np.c_[a, p1, p2][~k1]

    # chain the cut segments, CCW around the kept region seen from +n,
    # into loops and cap each with a centroid fan facing +n
    seg = p1 != p2
    nxt = dict(zip(p1[seg].tolist(), p2[seg].tolist()))
    visited = set()
    loops = []
    for start in nxt:
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = nxt.get(start)
        while cur is not None and cur != start:
            loop.append(cur)
            visited.add(cur)
            cur = nxt.get(cur)
        if cur == start and len(loop) >= 3:  # open chains stay uncapped
            loops.append(loop)
    centroids = [varr[loop].mean(axis=0) for loop in loops]
    fans = [np.c_[np.full(len(loop), len(varr) + m), np.roll(loop, -1), loop]
            for m, loop in enumerate(loops)]
    varr = np.concatenate([varr, np.reshape(centroids, (-1, 3))])
    farr = np.concatenate([farr, *fans])

    # drop degenerate faces produced by vertices exactly on the plane
    p = varr[farr]
    area2 = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    farr = farr[area2 > 1e-12]
    if not len(farr):
        raise MeshInvariantError("clip removed the entire mesh")
    used = np.unique(farr)
    remap = np.full(len(varr), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(varr[used], remap[farr], mesh.name)
