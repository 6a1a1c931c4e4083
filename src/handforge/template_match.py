"""Per-bone similarity fitting: estimate rotation + uniform scale from two
landmark frames, apply it to template bone meshes, and place ligament holes.

The rotation acts about the z-axis (the landmarks lie in the xy-plane of
the scan's own frame, which no command changes); the scale is applied
uniformly to all three axes so bone thickness follows bone length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoneTooShort, ZeroReference
from .landmarks import BoneFrame, BoneTopology, LandmarkSet, bone_frame
from .mesh_io import TriangleMesh

HOLE_DIAMETER = 1.0  # mm
HOLE_END_OFFSET = 2.0  # mm from each axial end of the bone to its hole center


@dataclass
class SimilarityTransform:
    """p -> lambda * Rz(theta) * p + translation (z scaled uniformly too)."""

    theta: float  # radians, counterclockwise about z, normalized to (-pi, pi]
    lam: float  # uniform scale, > 0
    translation: np.ndarray  # 3-vector, mm; z component 0

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"scale must be positive and finite, got {self.lam}")
        if self.theta <= -math.pi:
            self.theta += 2.0 * math.pi
        elif self.theta > math.pi:
            self.theta -= 2.0 * math.pi

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return self.lam * (points @ rot.T) + self.translation

    def apply_xy(self, point2d: np.ndarray) -> np.ndarray:
        p = np.asarray(point2d, dtype=np.float64).reshape(2)
        return self.apply_points(np.array([[p[0], p[1], 0.0]]))[0][:2]


@dataclass
class BoneTemplateSet:
    """Template bone meshes (global template frame) plus their landmarks."""

    meshes: dict[str, TriangleMesh]
    landmarks: LandmarkSet


@dataclass
class HolePose:
    """Ligament drill hole: center, drill axis and size, exported as metadata."""

    center: np.ndarray  # 3-vector, mm
    axis: np.ndarray  # unit 3-vector
    diameter: float
    depth: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.axis = np.asarray(self.axis, dtype=np.float64).reshape(3)
        if not (self.diameter > 0 and self.depth > 0):
            raise ValueError("hole diameter and depth must be positive")

    def to_document(self) -> dict:
        return {
            "center": [float(x) for x in self.center],
            "axis": [float(x) for x in self.axis],
            "diameter": float(self.diameter),
            "depth": float(self.depth),
        }


def estimate_transform(template_frame: BoneFrame, target_frame: BoneFrame) -> SimilarityTransform:
    """Similarity transform mapping the template frame onto the target frame.

    The scale is the reference-length ratio; the angle is the signed,
    full-quadrant angle from the template reference to the target
    reference; the translation pins the origin landmark exactly.
    """
    r = template_frame.reference
    rp = target_frame.reference
    nr = float(np.linalg.norm(r))
    nrp = float(np.linalg.norm(rp))
    if nr < 1e-9 or nrp < 1e-9:
        raise ZeroReference(f"{template_frame.bone_id}: zero-length reference vector")
    lam = nrp / nr
    theta = math.atan2(r[0] * rp[1] - r[1] * rp[0], float(np.dot(r, rp)))
    partial = SimilarityTransform(theta, lam, np.zeros(3))
    mapped_origin = partial.apply_xy(template_frame.origin)
    translation = np.array([
        target_frame.origin[0] - mapped_origin[0],
        target_frame.origin[1] - mapped_origin[1],
        0.0,
    ])
    return SimilarityTransform(theta, lam, translation)


def apply_transform(mesh: TriangleMesh, t: SimilarityTransform) -> TriangleMesh:
    """Transform every vertex; connectivity unchanged."""
    return TriangleMesh(t.apply_points(mesh.vertices), mesh.faces.copy(), mesh.name)


def estimate_all_transforms(
    templates: BoneTemplateSet,
    topology: BoneTopology,
    target_landmarks: LandmarkSet,
) -> dict[str, SimilarityTransform]:
    """One similarity transform per bone of the topology, template frame to target frame."""
    return {
        bone_id: estimate_transform(
            bone_frame(templates.landmarks, topology, bone_id),
            bone_frame(target_landmarks, topology, bone_id),
        )
        for bone_id in topology.bone_ids
    }


def place_ligament_holes(bone_mesh: TriangleMesh, frame: BoneFrame) -> list[HolePose]:
    """Two drill poses per bone, one near each longitudinal end.

    The long axis is the (transformed) reference direction; centers sit on
    the axis line through the mesh centroid, inset by HOLE_END_OFFSET from
    the axial extremes of the vertex projections. The drill axis runs
    palm-width-wise (perpendicular to the long axis and to z), and the hole
    depth is the bone's width along it.
    """
    if len(bone_mesh.faces) == 0:
        raise ValueError("empty bone mesh")
    d2 = frame.reference / np.linalg.norm(frame.reference)
    long_axis = np.array([d2[0], d2[1], 0.0])
    drill_axis = np.cross([0.0, 0.0, 1.0], long_axis)
    drill_axis /= np.linalg.norm(drill_axis)

    centroid = bone_mesh.vertices.mean(axis=0)
    t = (bone_mesh.vertices - centroid) @ long_axis
    tmin, tmax = float(t.min()), float(t.max())
    if tmax - tmin < 2.0 * HOLE_END_OFFSET:
        raise BoneTooShort(
            f"{frame.bone_id}: axial extent {tmax - tmin:.3f} mm < 2 x end offset {HOLE_END_OFFSET} mm"
        )
    w = bone_mesh.vertices @ drill_axis
    depth = float(w.max() - w.min())
    return [
        HolePose(centroid + (tmin + HOLE_END_OFFSET) * long_axis, drill_axis, HOLE_DIAMETER, depth),
        HolePose(centroid + (tmax - HOLE_END_OFFSET) * long_axis, drill_axis, HOLE_DIAMETER, depth),
    ]
