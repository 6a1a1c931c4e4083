"""Per-bone similarity fitting: estimate rotation + uniform scale from two
landmark frames, apply it to template bone meshes, and place ligament holes.

The rotation acts about the z-axis (landmarks live in the symmetrized
xy-plane); the scale is applied uniformly to all three axes so bone
thickness follows bone length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoneTooShort, ZeroReference
from .landmarks import BoneFrame, BoneTopology, LandmarkSet, bone_frame
from .mesh_io import TriangleMesh


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


def fit_template(
    templates: BoneTemplateSet,
    topology: BoneTopology,
    target_landmarks: LandmarkSet,
) -> dict[str, TriangleMesh]:
    """Fit every template bone to the target landmarks, one transform per bone."""
    transforms = estimate_all_transforms(templates, topology, target_landmarks)
    return {b: apply_transform(templates.meshes[b], t) for b, t in transforms.items()}


def estimate_all_transforms(
    templates: BoneTemplateSet,
    topology: BoneTopology,
    target_landmarks: LandmarkSet,
) -> dict[str, SimilarityTransform]:
    """The per-bone transforms of fit_template, for audit logs."""
    return {
        bone_id: estimate_transform(
            bone_frame(templates.landmarks, topology, bone_id),
            bone_frame(target_landmarks, topology, bone_id),
        )
        for bone_id in topology.bone_ids
    }


def place_ligament_holes(
    bone_mesh: TriangleMesh,
    frame: BoneFrame,
    diameter: float = 1.0,
    depth: float | None = None,
    end_offset: float = 2.0,
) -> list[HolePose]:
    """Two drill poses per bone, one near each longitudinal end.

    The long axis is the (transformed) reference direction; centers sit on
    the axis line through the mesh centroid, inset by end_offset from the
    axial extremes of the vertex projections. The drill axis runs
    palm-width-wise (perpendicular to the long axis and to z). When depth
    is not given, it defaults to the local bone width along the drill axis.
    """
    if len(bone_mesh.faces) == 0:
        raise ValueError("empty bone mesh")
    if diameter <= 0 or end_offset <= 0:
        raise ValueError("hole diameter and end offset must be positive")
    d2 = frame.reference / np.linalg.norm(frame.reference)
    long_axis = np.array([d2[0], d2[1], 0.0])
    drill_axis = np.cross([0.0, 0.0, 1.0], long_axis)
    drill_axis /= np.linalg.norm(drill_axis)

    centroid = bone_mesh.vertices.mean(axis=0)
    t = (bone_mesh.vertices - centroid) @ long_axis
    tmin, tmax = float(t.min()), float(t.max())
    if tmax - tmin < 2.0 * end_offset:
        raise BoneTooShort(
            f"{frame.bone_id}: axial extent {tmax - tmin:.3f} mm < 2 x end offset {end_offset} mm"
        )
    if depth is None:
        w = bone_mesh.vertices @ drill_axis
        depth = float(w.max() - w.min())
    return [
        HolePose(centroid + (tmin + end_offset) * long_axis, drill_axis, diameter, depth),
        HolePose(centroid + (tmax - end_offset) * long_axis, drill_axis, diameter, depth),
    ]


def hole_cylinder(pose: HolePose, segments: int = 16) -> TriangleMesh:
    """Subtraction cylinder realizing a hole pose, for slicer modifier meshes."""
    from .primitives import cylinder

    half = pose.axis * (pose.depth / 2.0)
    return cylinder(pose.center - half, pose.center + half, pose.diameter / 2.0,
                    segments=segments, name="ligament_hole")
