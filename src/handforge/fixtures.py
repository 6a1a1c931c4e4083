"""Synthetic demo data: a parametric template bone set, a watertight fake
scan, and placeholder deformation curves.

The template bones are capsules spanning each bone's two landmarks, sized
from plausible hand proportions; the demo scan is the convex hull of
inflated samples around the target bones. The curve family is constructed
(non-physiological) so the 0.4 mm wall coincides with the reference.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .deformation import DeformationCurve, dump_curves
from .landmarks import BoneTopology, LandmarkSet, default_topology, load_landmarks
from .mesh_io import TriangleMesh, write_mesh
from .primitives import capsule, convex_hull_mesh
from .template_match import BoneTemplateSet

BONE_RADIUS_RATIO = 0.22  # capsule radius as a fraction of bone length
BONE_RADIUS_MIN = 2.5
BONE_RADIUS_MAX = 7.0
BONE_END_INSET_RATIO = 0.18  # capsules stop short of the joints


def template_landmarks() -> LandmarkSet:
    doc = json.loads(resources.files("handforge.data").joinpath("template_landmarks.json").read_text())
    return load_landmarks(doc)


def bone_radius(length: float) -> float:
    return float(np.clip(BONE_RADIUS_RATIO * length, BONE_RADIUS_MIN, BONE_RADIUS_MAX))


def make_bone_mesh(origin2d, reference2d, name: str, segments: int = 16, rings: int = 6) -> TriangleMesh:
    """Capsule bone between two landmarks, inset so neighbors do not touch."""
    origin2d = np.asarray(origin2d, dtype=np.float64)
    reference2d = np.asarray(reference2d, dtype=np.float64)
    length = float(np.linalg.norm(reference2d))
    direction = reference2d / length
    inset = BONE_END_INSET_RATIO * length
    p0 = origin2d + inset * direction
    p1 = origin2d + (length - inset) * direction
    mesh = capsule(
        np.array([p0[0], p0[1], 0.0]),
        np.array([p1[0], p1[1], 0.0]),
        bone_radius(length),
        segments=segments,
        rings=rings,
        name=name,
    )
    return mesh


def make_template_set(topology: BoneTopology | None = None) -> BoneTemplateSet:
    """The shipped parametric template: one capsule per bone in the
    template's global frame."""
    topology = topology or default_topology()
    lms = template_landmarks()
    meshes = {}
    for bone_id, org, ref in topology.bones:
        meshes[bone_id] = make_bone_mesh(lms[org], lms[ref] - lms[org], bone_id)
    return BoneTemplateSet(meshes=meshes, landmarks=lms)


def scaled_landmarks(lms: LandmarkSet, factor: float) -> LandmarkSet:
    """Landmarks uniformly scaled about the global origin."""
    return LandmarkSet({k: v * factor for k, v in lms.points.items()}).validate()


def make_demo_scan(bones: dict[str, TriangleMesh], inflate: float = 6.0,
                   samples_per_bone: int = 60, seed: int = 0) -> TriangleMesh:
    """Watertight fake hand scan: convex hull of points pushed `inflate` mm
    outward from sampled bone vertices."""
    rng = np.random.default_rng(seed)
    clouds = []
    for mesh in bones.values():
        idx = rng.choice(len(mesh.vertices), size=min(samples_per_bone, len(mesh.vertices)), replace=False)
        pts = mesh.vertices[idx]
        center = mesh.vertices.mean(axis=0)
        away = pts - center
        norms = np.linalg.norm(away, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        clouds.append(pts + inflate * away / norms)
    return convex_hull_mesh(np.concatenate(clouds), name="demo_scan")


def make_demo_curves(sigma_values=(0.3, 0.4, 0.5, 0.6, 0.8), reference_sigma: float = 0.4,
                     n_samples: int = 12, s_max: float = 0.5) -> list[DeformationCurve]:
    """Synthetic force-strain family: force scales linearly with wall
    thickness, so the reference-sigma candidate coincides with 'human'."""
    strains = np.linspace(0.0, s_max, n_samples)
    human_force = 2.0 * strains + 6.0 * strains ** 2
    curves = [DeformationCurve(strains, human_force, "human").validate()]
    for sigma in sigma_values:
        curves.append(
            DeformationCurve(strains, (sigma / reference_sigma) * human_force,
                             f"sigma={sigma}").validate()
        )
    return curves


def write_demo(out_dir: str | Path, scale: float = 1.0) -> dict:
    """Write the full demo fixture set and its pipeline config (paths relative
    to it); returns the config document with absolute paths."""
    out_dir = Path(out_dir)
    template_dir = out_dir / "template"
    template_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "output").mkdir(exist_ok=True)

    topology = default_topology()
    templates = make_template_set(topology)
    for bone_id, mesh in templates.meshes.items():
        (template_dir / f"{bone_id}.stl").write_bytes(write_mesh(mesh, "stl_binary"))
    (template_dir / "landmarks.json").write_text(
        json.dumps(templates.landmarks.to_document(), indent=2) + "\n")
    (template_dir / "topology.json").write_text(
        json.dumps({"bones": [list(b) for b in topology.bones]}, indent=2) + "\n")

    target = scaled_landmarks(templates.landmarks, scale)
    (out_dir / "target_landmarks.json").write_text(
        json.dumps(target.to_document(), indent=2) + "\n")

    target_bones = {
        bone_id: make_bone_mesh(target[org], target[ref] - target[org], bone_id)
        for bone_id, org, ref in topology.bones
    }
    scan = make_demo_scan(target_bones)
    (out_dir / "scan.stl").write_bytes(write_mesh(scan, "stl_binary"))

    (out_dir / "curves.csv").write_text(dump_curves(make_demo_curves()))

    config = {  # paths relative to the config file, so the workspace can move
        "scan": "scan.stl",
        "landmarks": "target_landmarks.json",
        "template_dir": "template",
        "out_dir": "output",
        "tube": {"sigma": 0.4, "support_count": 4, "support_radius": 0.5},
    }
    (out_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return {**config, **{key: str(out_dir.resolve() / path) for key, path in config.items() if key != "tube"}}


if __name__ == "__main__":
    import sys

    write_demo(sys.argv[1] if len(sys.argv) > 1 else "demo")
