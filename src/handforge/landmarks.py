"""The 25-landmark hand schema and per-bone 2D frames.

The scan and its landmarks arrive in one frame, with the landmarks in
its xy-plane; no command aligns a scan. Every bone is pinned by two
named 2D landmarks (proximal = frame origin, distal = frame reference).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import SchemaViolation, ZeroReference


def _load_data(name: str) -> dict:
    return json.loads(resources.files("handforge.data").joinpath(name).read_text())


LANDMARK_NAMES: tuple[str, ...] = tuple(_load_data("landmark_schema.json")["names"])


@dataclass
class LandmarkSet:
    """25 named 2D points (mm) in the scan frame's xy-plane."""

    points: dict[str, np.ndarray]

    def __post_init__(self):
        self.points = {k: np.asarray(v, dtype=np.float64).reshape(2) for k, v in self.points.items()}

    def validate(self) -> "LandmarkSet":
        unknown = set(self.points) - set(LANDMARK_NAMES)
        if unknown:
            raise SchemaViolation(f"unknown landmark names: {sorted(unknown)}")
        missing = set(LANDMARK_NAMES) - set(self.points)
        if missing:
            raise SchemaViolation(f"missing landmarks: {sorted(missing)}")
        for name, p in self.points.items():
            if not np.all(np.isfinite(p)):
                raise SchemaViolation(f"non-finite coordinates for {name!r}: {p.tolist()}")
        return self

    def __getitem__(self, name: str) -> np.ndarray:
        return self.points[name]

    def to_document(self) -> dict:
        return {k: [float(x) for x in v] for k, v in self.points.items()}


@dataclass
class BoneFrame:
    """Local 2D frame of one bone: origin landmark plus reference vector."""

    bone_id: str
    origin: np.ndarray  # 2D point, mm
    reference: np.ndarray  # 2D vector from origin to the reference landmark

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(2)
        self.reference = np.asarray(self.reference, dtype=np.float64).reshape(2)


@dataclass
class BoneTopology:
    """Ordered (bone_id, origin_landmark, reference_landmark) triples."""

    bones: list[tuple[str, str, str]]

    def __post_init__(self):
        self.bones = [tuple(b) for b in self.bones]

    def validate(self) -> "BoneTopology":
        for bone_id, org, ref in self.bones:
            if org not in LANDMARK_NAMES:
                raise SchemaViolation(f"{bone_id}: unknown origin landmark {org!r}")
            if ref not in LANDMARK_NAMES:
                raise SchemaViolation(f"{bone_id}: unknown reference landmark {ref!r}")
            if org == ref:
                raise SchemaViolation(f"{bone_id}: origin and reference landmarks coincide")
        return self

    @property
    def bone_ids(self) -> list[str]:
        return [b[0] for b in self.bones]

    def entry(self, bone_id: str) -> tuple[str, str, str]:
        for b in self.bones:
            if b[0] == bone_id:
                return b
        raise KeyError(bone_id)


def default_topology() -> BoneTopology:
    """The shipped 19-bone topology document."""
    return BoneTopology(_load_data("bone_topology.json")["bones"]).validate()


def load_topology(document) -> BoneTopology:
    """Load a user topology document (parsed JSON dict or a list of triples)."""
    bones = document.get("bones") if isinstance(document, dict) else document
    if not isinstance(bones, list) or not all(
        isinstance(b, list) and len(b) == 3 and all(isinstance(x, str) for x in b) for b in bones
    ):
        raise SchemaViolation("topology 'bones' must list [bone_id, origin, reference] name triples")
    return BoneTopology(bones).validate()


def load_landmarks(document: dict) -> LandmarkSet:
    """Validate a key -> [x, y] mapping against the 25-name schema."""
    if not isinstance(document, dict):
        raise SchemaViolation("landmark document must be a mapping of name -> [x, y]")
    pts = {}
    for name, value in document.items():
        try:
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != (2,):
                raise ValueError
        except (TypeError, ValueError):
            raise SchemaViolation(f"landmark {name!r} must be a 2-element [x, y] pair of numbers") from None
        pts[name] = arr
    return LandmarkSet(pts).validate()


def bone_frame(landmarks: LandmarkSet, topology: BoneTopology, bone_id: str) -> BoneFrame:
    """Construct the local frame of one bone from its two named landmarks."""
    _, org_name, ref_name = topology.entry(bone_id)
    origin = landmarks[org_name]
    reference = landmarks[ref_name] - origin
    if np.linalg.norm(reference) < 1e-9:
        raise ZeroReference(f"{bone_id}: landmarks {org_name!r} and {ref_name!r} coincide")
    return BoneFrame(bone_id, origin, reference)
