"""Concentric-tube tissue shells: offset the skin inward and the bone
outward by the wall parameter sigma, assemble the hollow shell with radial
strut supports, and account for printable material volume.

Offsetting is per-vertex along area-weighted normals; self-intersections
of the two built walls are detected (sparse grid candidates, Moller-Trumbore
edge tests) and returned with the shell, never repaired. The bone's
principal axis sets both the segment cuts and the strut directions. The
orientation, containment and gap checks test every edge or vertex, the
last two through the face BVH of `primitives`: on the closed segment the
winding number is a count of certified ray crossings, and the gap is the
exact smallest distance from any bone vertex to the segment, found in one
pruned query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContainmentError, GapTooSmall, MeshInvariantError, PlacementFailure
from .mesh_io import (
    TriangleMesh,
    _edge_table,
    merge_meshes,
    signed_volume,
    vertex_normals,
    write_mesh,
)
from .primitives import (
    _frame_from_axis,
    _moller_trumbore,
    clip_by_plane,
    cylinder,
    ray_hits,
    surface_gap,
    winding_numbers,
)

PAIR_CAP = 100  # fold pairs kept per wall
_SEGMENT_MARGIN = 2.0  # mm of skin kept beyond each end of the bone


@dataclass
class TubeSpec:
    """Tissue-tube parameters; sigma is the wall construction offset in mm."""

    sigma: float
    support_count: int = 4
    support_radius: float = 0.5

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (isinstance(self.support_count, int) and self.support_count >= 0):
            raise ValueError(f"support_count must be an integer >= 0, got {self.support_count}")
        if self.support_count and not 0 < self.support_radius < np.inf:
            raise ValueError(f"support_radius must be positive and finite, got {self.support_radius}")


def _empty_mesh() -> TriangleMesh:
    return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), "supports")


@dataclass
class ShellModel:
    """Hollow tissue shell: outer wall (outward wound), inner wall (inward
    wound, so the cavity reads as a hole) and optional strut supports.
    `folds` maps each wall's offset (-sigma outer, +sigma inner) to its
    `find_self_intersections` pairs."""

    outer: TriangleMesh
    inner: TriangleMesh
    supports: TriangleMesh = field(default_factory=_empty_mesh)
    folds: dict[float, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def material_volume_mm3(self) -> float:
        return signed_volume(self.outer) + signed_volume(self.inner) + signed_volume(self.supports)


def _grid_cells(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(face, cell) incidences of boxes [lo, hi] on a grid of median box extent,
    cells numbered from 0; a call of its own so its temporaries die early."""
    cell = max(float(np.median(hi - lo)), 1e-9)
    c0 = np.floor(lo / cell).astype(np.int64)
    span = np.floor(hi / cell).astype(np.int64) - c0 + 1
    c0 -= c0.min(axis=0)
    count = span.prod(axis=1)
    face = np.repeat(np.arange(len(lo)), count)
    r = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    dims = (c0 + span).max(axis=0)
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    key = (c0 @ stride)[face]
    for axis in (2, 1, 0):  # r enumerates each box's cells, z fastest
        n = span[face, axis]
        key += r % n * stride[axis]
        r //= n
    return face, np.unique(key, return_inverse=True)[1]


def find_self_intersections(mesh: TriangleMesh, max_pairs: int = PAIR_CAP) -> list[tuple[int, int]]:
    """Non-adjacent face pairs (i, j), i < j, whose triangles cross: an edge of
    one passes through the other's interior (exactly coplanar overlaps are not
    detected). Sorted and cut to the first max_pairs, so the count is exact
    below the cap. Faces whose bounding boxes overlap share a grid cell, so the
    candidates are the pairs of the sparse face x cell incidence product."""
    from scipy import sparse

    faces = mesh.faces
    if len(faces) == 0:
        return []
    tri = mesh.corner_points
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    face, cell = _grid_cells(lo, hi)
    incidence = sparse.csr_matrix((np.ones(len(face), dtype=np.int32), (face, cell)))
    candidates = sparse.triu(incidence @ incidence.T, k=1).tocoo()
    i, j = candidates.row, candidates.col
    # adjacent faces touch legitimately
    fi = faces[i]
    apart = np.ones(len(i), dtype=bool)
    for k in range(3):
        apart &= (fi != faces[j, k][:, None]).all(axis=1)
    i, j = i[apart], j[apart]
    overlap = np.all(lo[i] <= hi[j], axis=1) & np.all(lo[j] <= hi[i], axis=1)
    i, j = i[overlap], j[overlap]
    crossed = np.zeros(len(i), dtype=bool)
    for a, b in ((i, j), (j, i)):
        for k in range(3):
            p0 = tri[a, k]
            det, u, v, t = _moller_trumbore(p0, tri[a, (k + 1) % 3] - p0, tri[b])
            with np.errstate(invalid="ignore"):  # u + v is inf - inf only where det is ~0
                crossed |= ((np.abs(det) >= 1e-14) & (u >= 1e-9) & (u <= 1 - 1e-9) & (v >= 1e-9)
                            & (u + v <= 1 - 1e-9) & (t > 1e-9) & (t < 1 - 1e-9))
    i, j = i[crossed], j[crossed]
    order = np.lexsort((j, i))[:max_pairs]
    return list(zip(i[order].tolist(), j[order].tolist()))


def offset_surface(mesh: TriangleMesh, delta: float) -> TriangleMesh:
    """Move every vertex along its area-weighted normal by delta
    (positive = outward); connectivity is unchanged. Folds are not looked
    for here: `build_concentric_tube` reports them on the walls it builds."""
    if delta == 0.0:
        return mesh.copy()
    return TriangleMesh(mesh.vertices + delta * vertex_normals(mesh), mesh.faces.copy(), mesh.name)


def _require_watertight(mesh: TriangleMesh, label: str):
    counts, net = _edge_table(mesh.faces)
    boundary, nonmanifold = int(np.sum(counts == 1)), int(np.sum(counts > 2))
    if boundary or nonmanifold:
        raise MeshInvariantError(
            f"{label} mesh is not watertight ({boundary} boundary, {nonmanifold} non-manifold edges)"
        )
    twice = int(np.count_nonzero(net))  # an edge of two faces that run it the same way
    if twice:
        raise MeshInvariantError(f"{label} mesh is not consistently oriented ({twice} directed edges used twice)")


def build_concentric_tube(skin_segment: TriangleMesh, bone: TriangleMesh, spec: TubeSpec) -> ShellModel:
    """Build the hollow shell between skin-minus-sigma and bone-plus-sigma.

    Checks: skin S and bone are closed and consistently oriented, and each
    bone vertex p has w(S, p) >= 0.5 and dist(p, S) > 2 sigma. They imply,
    unchecked, w(outer, p') >= 0.5 at each inner vertex p' = p + sigma n_p:
    S moved by -t sigma n_s (unit normals) stays within t sigma <= sigma of
    S while segment pp' stays more than sigma from S, and a closed oriented
    surface keeps its winding number at points it never crosses (Jacobson
    et al. 2013). So w(outer, p') = w(S, p). Prove it anew for other walls.

    Folds of the built walls, outer first, are returned with the shell (not
    repaired) as `ShellModel.folds`.
    """
    _require_watertight(skin_segment, "skin segment")
    _require_watertight(bone, "bone")
    if np.any(winding_numbers(skin_segment, bone.vertices) < 0.5):
        raise ContainmentError("bone is not strictly inside the skin segment")
    gap = surface_gap(skin_segment, bone.vertices)
    if spec.sigma >= gap / 2.0:
        raise GapTooSmall(
            f"sigma {spec.sigma} mm >= half the minimum skin-to-bone gap {gap:.3f} mm"
        )
    outer = offset_surface(skin_segment, -spec.sigma)
    outer.name = "shell_outer"
    inner = offset_surface(bone, +spec.sigma).flipped()
    inner.name = "shell_inner"
    folds = {-spec.sigma: find_self_intersections(outer), spec.sigma: find_self_intersections(inner)}
    return add_supports(ShellModel(outer=outer, inner=inner, folds=folds), spec)


def _principal_axis(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and unit direction of the points' least-squares line."""
    center = points.mean(axis=0)
    return center, np.linalg.svd(points - center, full_matrices=False)[2][0]


def add_supports(shell: ShellModel, spec: TubeSpec) -> ShellModel:
    """Append radial strut cylinders bridging the inner and outer walls.

    Rays leave the inner wall's centroid at right angles to its principal
    axis, the bone's, equally spaced in angle; each strut spans from the
    inner-wall hit to the outer-wall hit.
    """
    if spec.support_count == 0:
        return shell
    inner_outward = shell.inner.flipped()
    origin, axis = _principal_axis(inner_outward.vertices)
    u, v, _ = _frame_from_axis(axis)
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
    return replace(shell, supports=merged)


def solid_gap_volume(skin_segment: TriangleMesh, bone: TriangleMesh) -> float:
    """Material volume of the un-hollowed design (skin minus bone), mm^3."""
    return signed_volume(skin_segment) - signed_volume(bone)


def shell_report(shell: ShellModel, solid_mm3: float) -> dict:
    return {
        "outer_volume_mm3": signed_volume(shell.outer),
        "inner_volume_mm3": signed_volume(shell.inner),
        "support_volume_mm3": signed_volume(shell.supports),
        "material_volume_mm3": shell.material_volume_mm3,
        "material_volume_ml": shell.material_volume_mm3 / 1000.0,
        "solid_volume_mm3": solid_mm3,
        "solid_volume_ml": solid_mm3 / 1000.0,
    }


def export_shell(shell: ShellModel, solid_mm3: float) -> dict[str, bytes]:
    """Printable outputs: one multi-component STL (inner kept inward-wound
    so slicers treat the cavity correctly) plus a JSON volume report."""
    merged = merge_meshes([shell.outer, shell.inner, shell.supports], "tissue_shell")
    return {
        "shell.stl": write_mesh(merged, "stl_binary"),
        "report.json": (json.dumps(shell_report(shell, solid_mm3), indent=2) + "\n").encode(),
    }


def extract_segment(skin: TriangleMesh, bone: TriangleMesh) -> TriangleMesh:
    """Cut the per-phalanx skin segment: clip the skin with two planes
    perpendicular to the bone's principal axis just beyond its ends, and
    cap the cuts with fans."""
    center, axis = _principal_axis(bone.vertices)
    t = (bone.vertices - center) @ axis
    hi_point = center + (float(t.max()) + _SEGMENT_MARGIN) * axis
    lo_point = center + (float(t.min()) - _SEGMENT_MARGIN) * axis
    seg = clip_by_plane(skin, hi_point, axis)
    seg = clip_by_plane(seg, lo_point, -axis)
    seg.name = "skin_segment"
    return seg
