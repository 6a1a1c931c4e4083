"""Concentric-tube tissue shells: offset the skin inward and the bone
outward by the wall parameter sigma, assemble the hollow shell with radial
strut supports, and account for printable material volume.

Offsetting is per-vertex along area-weighted normals; self-intersections
are detected and reported, never repaired.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContainmentError, GapTooSmall, MeshInvariantError, PlacementFailure
from .mesh_io import (
    TriangleMesh,
    analyze_mesh,
    merge_meshes,
    signed_volume,
    vertex_normals,
    write_mesh,
)
from .primitives import cylinder, point_surface_distance, ray_hits, winding_numbers

_CONTAINMENT_SAMPLES = 200


@dataclass
class TubeSpec:
    """Tissue-tube parameters; sigma is the wall construction offset in mm."""

    sigma: float
    support_count: int = 4
    support_radius: float = 0.5

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.support_count < 0:
            raise ValueError("support_count must be >= 0")
        if self.support_count and not self.support_radius > 0:
            raise ValueError("support_radius must be positive")


def _empty_mesh() -> TriangleMesh:
    return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), "supports")


@dataclass
class ShellModel:
    """Hollow tissue shell: outer wall (outward wound), inner wall (inward
    wound, so the cavity reads as a hole) and optional strut supports."""

    outer: TriangleMesh
    inner: TriangleMesh
    supports: TriangleMesh = field(default_factory=_empty_mesh)
    material_volume_mm3: float = 0.0

    def recompute_volume(self) -> float:
        self.material_volume_mm3 = (
            signed_volume(self.outer) + signed_volume(self.inner) + signed_volume(self.supports)
        )
        return self.material_volume_mm3


class SelfIntersectionWarning(UserWarning):
    """Offset produced locally self-intersecting geometry (face pairs attached)."""

    def __init__(self, message, pairs):
        super().__init__(message)
        self.pairs = pairs


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


def offset_surface(mesh: TriangleMesh, delta: float, check_intersections: bool = True) -> TriangleMesh:
    """Move every vertex along its area-weighted normal by delta
    (positive = outward); connectivity is unchanged.

    Self-intersections are reported through SelfIntersectionWarning, and
    offsets beyond the estimated feature size trigger a plain warning.
    """
    if delta == 0.0:
        return mesh.copy()
    feature = _min_feature_size(mesh)
    if abs(delta) >= feature / 2.0:
        warnings.warn(
            f"offset {delta} mm exceeds half the estimated feature size {feature:.3f} mm",
            stacklevel=2,
        )
    normals = vertex_normals(mesh)
    out = TriangleMesh(mesh.vertices + delta * normals, mesh.faces.copy(), mesh.name)
    if check_intersections:
        pairs = find_self_intersections(out)
        if pairs:
            warnings.warn(
                SelfIntersectionWarning(
                    f"offset by {delta} mm self-intersects at {len(pairs)}+ face pairs", pairs
                ),
                stacklevel=2,
            )
    return out


def _min_feature_size(mesh: TriangleMesh) -> float:
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return float(np.median(extent))


def _sample_vertices(mesh: TriangleMesh, count: int, seed: int = 0) -> np.ndarray:
    if len(mesh.vertices) <= count:
        return mesh.vertices
    idx = np.random.default_rng(seed).choice(len(mesh.vertices), size=count, replace=False)
    return mesh.vertices[idx]


def _require_watertight(mesh: TriangleMesh, label: str):
    report = analyze_mesh(mesh)
    if not report.watertight:
        raise MeshInvariantError(
            f"{label} mesh is not watertight "
            f"({report.boundary_edge_count} boundary, {report.non_manifold_edge_count} non-manifold edges)"
        )


def build_concentric_tube(skin_segment: TriangleMesh, bone: TriangleMesh, spec: TubeSpec) -> ShellModel:
    """Build the hollow shell between skin-minus-sigma and bone-plus-sigma."""
    _require_watertight(skin_segment, "skin segment")
    _require_watertight(bone, "bone")
    sample = _sample_vertices(bone, _CONTAINMENT_SAMPLES)
    if np.any(winding_numbers(skin_segment, sample) < 0.5):
        raise ContainmentError("bone is not strictly inside the skin segment")
    gap = float(point_surface_distance(skin_segment, sample).min())
    if spec.sigma >= gap / 2.0:
        raise GapTooSmall(
            f"sigma {spec.sigma} mm >= half the minimum skin-to-bone gap {gap:.3f} mm"
        )
    outer = offset_surface(skin_segment, -spec.sigma)
    inner_outward = offset_surface(bone, +spec.sigma)
    inner_sample = _sample_vertices(inner_outward, _CONTAINMENT_SAMPLES)
    if np.any(winding_numbers(outer, inner_sample) < 0.5):
        raise GapTooSmall("offset surfaces collide: inner wall reaches the outer wall")
    outer.name = "shell_outer"
    inner = inner_outward.flipped()
    inner.name = "shell_inner"
    shell = ShellModel(outer=outer, inner=inner)
    shell.recompute_volume()
    return add_supports(shell, spec)


def _long_axis(mesh: TriangleMesh) -> np.ndarray:
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    axis = np.zeros(3)
    axis[int(np.argmax(extent))] = 1.0
    return axis


def add_supports(shell: ShellModel, spec: TubeSpec) -> ShellModel:
    """Append radial strut cylinders bridging the inner and outer walls.

    Rays leave the segment's long axis at mid-length, equally spaced in
    angle; each strut spans from the inner-wall hit to the outer-wall hit.
    """
    if spec.support_count == 0:
        return shell
    inner_outward = shell.inner.flipped()
    axis = _long_axis(shell.outer)
    origin = inner_outward.vertices.mean(axis=0)
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(seed, axis)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    struts = []
    for k in range(spec.support_count):
        ang = 2.0 * np.pi * k / spec.support_count
        direction = np.cos(ang) * u + np.sin(ang) * v
        t_inner = ray_hits(inner_outward, origin, direction)
        t_outer = ray_hits(shell.outer, origin, direction)
        if len(t_inner) == 0 or len(t_outer) == 0:
            raise PlacementFailure(f"support ray {k} missed a shell surface")
        ti = float(t_inner[-1])  # leave the inner wall where the ray exits it
        candidates = t_outer[t_outer > ti + 1e-9]
        if len(candidates) == 0:
            raise PlacementFailure(f"support ray {k} found no gap between the walls")
        to = float(candidates[0])
        struts.append(
            cylinder(origin + ti * direction, origin + to * direction,
                     spec.support_radius, name=f"strut_{k}")
        )
    merged = merge_meshes([shell.supports] + struts, "supports")
    out = ShellModel(outer=shell.outer, inner=shell.inner, supports=merged)
    out.recompute_volume()
    return out


def solid_gap_volume(skin_segment: TriangleMesh, bone: TriangleMesh) -> float:
    """Material volume of the un-hollowed design (skin minus bone), mm^3."""
    return signed_volume(skin_segment) - signed_volume(bone)


def shell_report(shell: ShellModel, solid_mm3: float | None = None) -> dict:
    report = {
        "outer_volume_mm3": signed_volume(shell.outer),
        "inner_volume_mm3": signed_volume(shell.inner),
        "support_volume_mm3": signed_volume(shell.supports),
        "material_volume_mm3": shell.material_volume_mm3,
        "material_volume_ml": shell.material_volume_mm3 / 1000.0,
    }
    if solid_mm3 is not None:
        report["solid_volume_mm3"] = solid_mm3
        report["solid_volume_ml"] = solid_mm3 / 1000.0
    return report


def export_shell(shell: ShellModel, solid_mm3: float | None = None) -> dict[str, bytes]:
    """Printable outputs: one multi-component STL (inner kept inward-wound
    so slicers treat the cavity correctly) plus a JSON volume report."""
    parts = [shell.outer, shell.inner]
    if len(shell.supports.faces):
        parts.append(shell.supports)
    merged = merge_meshes(parts, "tissue_shell")
    return {
        "shell.stl": write_mesh(merged, "stl_binary"),
        "report.json": (json.dumps(shell_report(shell, solid_mm3), indent=2) + "\n").encode(),
    }


def extract_segment(skin: TriangleMesh, bone: TriangleMesh, margin: float = 2.0) -> TriangleMesh:
    """Cut the per-phalanx skin segment: clip the skin with two planes
    perpendicular to the bone's principal axis just beyond its ends, and
    cap the cuts with fans."""
    from .primitives import clip_by_plane

    centered = bone.vertices - bone.vertices.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    t = centered @ axis
    center = bone.vertices.mean(axis=0)
    hi_point = center + (float(t.max()) + margin) * axis
    lo_point = center + (float(t.min()) - margin) * axis
    seg = clip_by_plane(skin, hi_point, axis)
    seg = clip_by_plane(seg, lo_point, -axis)
    seg.name = "skin_segment"
    return seg
