"""Reference oracles: the brute-force intersection code that handforge
shipped before its array rewrite, kept unchanged so property tests can
hold the array code to it.

- `find_self_intersections`: dict-of-lists grid broad phase, per-pair
  Python loop, scalar Moller-Trumbore edge test (`_segment_hits_triangle`).
  It returns the first `max_pairs` pairs in grid-bucket order.
- `ray_hits`: the inlined numpy Moller-Trumbore ray cast.
"""

from __future__ import annotations

import numpy as np

from handforge.mesh_io import TriangleMesh


def _segment_hits_triangle(p0, d, tri) -> bool:
    """Does segment p0 -> p0+d cross triangle tri (Moller-Trumbore, 0<t<1)?"""
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    pvec = np.cross(d, e2)
    det = np.dot(e1, pvec)
    if abs(det) < 1e-14:
        return False
    inv = 1.0 / det
    tvec = p0 - tri[0]
    u = np.dot(tvec, pvec) * inv
    if u < 1e-9 or u > 1 - 1e-9:
        return False
    qvec = np.cross(tvec, e1)
    v = np.dot(d, qvec) * inv
    if v < 1e-9 or u + v > 1 - 1e-9:
        return False
    t = np.dot(e2, qvec) * inv
    return 1e-9 < t < 1 - 1e-9


def find_self_intersections(mesh: TriangleMesh, max_pairs: int = 100) -> list[tuple[int, int]]:
    """Non-adjacent face pairs whose triangles cross (edge-through-interior
    test; exactly coplanar overlaps are not detected). Capped at max_pairs."""
    tri = mesh.corner_points
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    cell = max(float(np.median(hi - lo)), 1e-9)
    grid: dict[tuple, list[int]] = {}
    for i in range(len(tri)):
        c0 = np.floor(lo[i] / cell).astype(np.int64)
        c1 = np.floor(hi[i] / cell).astype(np.int64)
        for x in range(c0[0], c1[0] + 1):
            for y in range(c0[1], c1[1] + 1):
                for z in range(c0[2], c1[2] + 1):
                    grid.setdefault((x, y, z), []).append(i)
    pairs = []
    seen = set()
    fsets = [set(f) for f in mesh.faces]
    for bucket in grid.values():
        for ai in range(len(bucket)):
            for bi in range(ai + 1, len(bucket)):
                i, j = bucket[ai], bucket[bi]
                if (i, j) in seen:
                    continue
                seen.add((i, j))
                if fsets[i] & fsets[j]:
                    continue  # adjacent faces touch legitimately
                if np.any(lo[i] > hi[j]) or np.any(lo[j] > hi[i]):
                    continue
                crossed = False
                for a, b in ((i, j), (j, i)):
                    for k in range(3):
                        p0 = tri[a][k]
                        d = tri[a][(k + 1) % 3] - p0
                        if _segment_hits_triangle(p0, d, tri[b]):
                            crossed = True
                            break
                    if crossed:
                        break
                if crossed:
                    pairs.append((i, j))
                    if len(pairs) >= max_pairs:
                        return pairs
    return pairs


def ray_hits(mesh: TriangleMesh, origin, direction) -> np.ndarray:
    """Sorted positive ray parameters t where origin + t*direction crosses
    the surface (Moller-Trumbore over all faces)."""
    origin = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    tri = mesh.corner_points
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-12
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origin - tri[:, 0]
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)
    v = np.einsum("j,ij->i", d, qvec) * inv
    t = np.einsum("ij,ij->i", e2, qvec) * inv
    eps = 1e-10
    hit = ok & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t > 1e-9)
    return np.sort(t[hit])

