"""Reference oracles: the brute-force geometry code that handforge shipped
before its array and BVH rewrites, kept unchanged so property tests can
hold the new code to it.

- `find_self_intersections`: dict-of-lists grid broad phase, per-pair
  Python loop, scalar Moller-Trumbore edge test (`_segment_hits_triangle`).
  It returns the first `max_pairs` pairs in grid-bucket order.
- `ray_hits`: the inlined numpy Moller-Trumbore ray cast.
- `winding_numbers`: per-point van Oosterom solid-angle sum over every face.
- `point_surface_distance`: per-point Ericson closest point on every face,
  then the minimum.
- `clip_by_plane`: per-face loop with a dict of cut edges and tuple vertices.
  It duplicates a vertex that lies on the plane and returns an empty mesh
  when only degenerate faces survive.
- `weld`: `np.unique(axis=0)` over the soup's rows, then a first-appearance
  pass with `np.minimum.at`.
- `edge_counts`: `np.unique(axis=0)` over sorted edge rows.
- `closed`: the face BVH's closure test, sorted directed-edge keys against
  their reverses.
- `misoriented_edges`: the tube builder's orientation count, directed-edge
  keys that repeat.
- `solve_flexion`: the multiplier bisection with a 200-doubling bracket cap,
  a 300-step cap, a 1e-12 window in `_angles_at` and `_polish`, which puts
  the residual into the first joint that can take it. Where every b > 0 it
  returns the solver's bits; with a b = 0 stage it can miss the minimum.
"""

from __future__ import annotations

import math

import numpy as np

from handforge.errors import MeshInvariantError, NonConvergence
from handforge.kinematics import (
    RESIDUAL_TARGET,
    STAGE_WEIGHTS,
    FingerConfig,
    JointState,
    _distal_length,
    max_displacement,
)
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


def weld(triangles: np.ndarray, name=None) -> TriangleMesh:
    """Index a triangle soup, merging exactly-equal coordinates."""
    flat = triangles.reshape(-1, 3)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    # preserve first-appearance order for stable output
    order = np.full(len(uniq), len(flat), dtype=np.int64)
    np.minimum.at(order, inverse, np.arange(len(flat)))
    rank = np.argsort(order, kind="stable")
    pos = np.empty(len(uniq), dtype=np.int64)
    pos[rank] = np.arange(len(uniq))
    mesh = TriangleMesh(uniq[rank], pos[inverse].reshape(-1, 3), name)
    mesh.validate()
    return mesh


def edge_counts(faces: np.ndarray):
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e = np.sort(e, axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    return counts


def closed(faces: np.ndarray, vertex_count: int) -> bool:
    u, v = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    return np.array_equal(np.sort(u * vertex_count + v), np.sort(v * vertex_count + u))


def misoriented_edges(faces: np.ndarray, vertex_count: int) -> int:
    key = faces * vertex_count + np.roll(faces, -1, axis=1)  # directed edges
    return key.size - len(np.unique(key))  # every edge is in two faces, so a repeat is a misoriented pair


MAX_BISECTIONS = 300  # the float64 bracket stops shrinking after about 60


def _angles_at(cfg: FingerConfig, mu: float):
    """Pointwise minimizers of the displacement-penalized elastic energy.

    Each joint solves min over [0, limit] of k/2*phi^2 - mu*w*e(phi);
    continuous and nondecreasing in the multiplier mu.
    """
    out = []
    for w, stage, k, lim in zip(STAGE_WEIGHTS, cfg.stages, cfg.springs, cfg.limits):
        a = k - 2.0 * mu * w * stage.h
        if a <= 1e-12:
            phi = lim
        else:
            phi = min(max(mu * w * stage.b / a, 0.0), lim)
        out.append(phi)
    return out


def solve_flexion(cfg: FingerConfig, cable_displacement: float) -> JointState:
    """Joint angles of minimum elastic energy matching the cable displacement.

    Solved by bisecting the constraint multiplier (the multiplier-to-angles
    map is continuous and monotone) until the bracket stops shrinking, then
    polishing one interior joint so the constraint residual drops below
    RESIDUAL_TARGET. The displacement must be finite and >= 0 (ValueError);
    one beyond the all-limits excursion returns that pose, saturated.
    Raises NonConvergence, naming the design, if the multiplier cannot be
    bracketed or the residual stays above RESIDUAL_TARGET.
    """
    if not 0 <= cable_displacement < math.inf:
        raise ValueError(f"cable displacement must be finite and >= 0, got {cable_displacement}")
    if cable_displacement == 0.0:
        return JointState(0.0, 0.0, 0.0)
    lmax = max_displacement(cfg)
    if cable_displacement > lmax:
        return JointState(*cfg.limits, saturated=True)
    name = cfg.design_id or "finger"
    lo, hi = 0.0, 1.0
    grow = 0
    while _distal_length(cfg, _angles_at(cfg, hi)) < cable_displacement:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise NonConvergence(f"{name}: multiplier bracket failed to expand")
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # f(lo) < target <= f(hi) always, so no later step moves either end
        if _distal_length(cfg, _angles_at(cfg, mid)) < cable_displacement:
            lo = mid
        else:
            hi = mid
    phis = _angles_at(cfg, hi)
    residual = cable_displacement - _distal_length(cfg, phis)
    if abs(residual) > RESIDUAL_TARGET:
        phis = _polish(cfg, phis, cable_displacement)
        residual = cable_displacement - _distal_length(cfg, phis)
    if abs(residual) > RESIDUAL_TARGET:
        raise NonConvergence(f"{name}: residual {residual:.3e} mm after polishing")
    return JointState(*phis)


def _polish(cfg: FingerConfig, phis, target):
    """Absorb the leftover constraint residual into one interior joint by
    solving its excursion quadratic exactly."""
    phis = list(phis)
    for j in range(3):
        w, stage, lim = STAGE_WEIGHTS[j], cfg.stages[j], cfg.limits[j]
        others = sum(
            STAGE_WEIGHTS[i] * cfg.stages[i].excursion(phis[i]) for i in range(3) if i != j
        )
        need = (target - others) / w  # single-stage excursion this joint must produce
        if need < 0:
            continue
        if stage.h > 0:
            phi = (-stage.b + math.sqrt(stage.b ** 2 + 4.0 * stage.h * need)) / (2.0 * stage.h)
        elif stage.b > 0:
            phi = need / stage.b
        else:
            continue
        if 0.0 <= phi <= lim:
            phis[j] = phi
            return phis
    return phis
