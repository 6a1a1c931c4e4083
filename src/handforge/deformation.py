"""Force-strain deformation curves: ingestion, distance and
tissue-thickness selection.

Candidate tube walls are compared against a human-finger reference curve
by RMS force difference on a common strain grid; the winning sigma is the
closest candidate, ties broken toward the smaller (more deformable) wall.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateCandidate, EmptyOverlap, MalformedTable, NonMonotoneStrain

DEFAULT_GRID_POINTS = 100


@dataclass
class DeformationCurve:
    """Ordered (axial strain, tensile force N) samples under one label."""

    strains: np.ndarray
    forces: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.strains = np.asarray(self.strains, dtype=np.float64).reshape(-1)
        self.forces = np.asarray(self.forces, dtype=np.float64).reshape(-1)

    def validate(self) -> "DeformationCurve":
        if len(self.strains) != len(self.forces):
            raise MalformedTable(f"{self.label}: strain/force length mismatch")
        if len(self.strains) < 2:
            raise MalformedTable(f"{self.label}: a curve needs at least 2 samples")
        if not np.all(np.isfinite(self.strains)) or not np.all(np.isfinite(self.forces)):
            raise MalformedTable(f"{self.label}: non-finite sample")
        if self.strains[0] < 0:
            raise NonMonotoneStrain(f"{self.label}: first strain must be >= 0")
        if np.any(np.diff(self.strains) <= 0):
            raise NonMonotoneStrain(f"{self.label}: strains must be strictly increasing")
        if np.any(self.forces < 0):
            raise MalformedTable(f"{self.label}: negative force")
        return self


@dataclass
class ThicknessCandidate:
    sigma: float
    curve: DeformationCurve

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def load_curves(text: str) -> list[DeformationCurve]:
    """Parse a strain,force,label CSV (header required) into one curve per
    label, samples sorted by strain."""
    if not text.strip():
        raise MalformedTable("empty curve table")
    reader = csv.DictReader(io.StringIO(text))
    required = {"strain", "force", "label"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise MalformedTable(f"curve table needs columns {sorted(required)}, got {reader.fieldnames}")
    rows: dict[str, list[tuple[float, float]]] = {}
    for row in reader:
        try:
            strain = float(row["strain"])
            force = float(row["force"])
        except (TypeError, ValueError):
            raise MalformedTable(f"non-numeric value at line {reader.line_num}") from None
        if not row["label"]:
            raise MalformedTable(f"no label at line {reader.line_num}")
        rows.setdefault(row["label"], []).append((strain, force))
    if not rows:
        raise MalformedTable("curve table has a header but no rows")
    curves = []
    for label, samples in rows.items():
        samples.sort()
        strains = np.array([s for s, _ in samples])
        if np.any(np.diff(strains) == 0):
            raise NonMonotoneStrain(f"{label}: duplicate strain value")
        curves.append(DeformationCurve(strains, np.array([f for _, f in samples]), label).validate())
    return curves


def dump_curves(curves: list[DeformationCurve]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["strain", "force", "label"])
    for c in curves:
        for s, f in zip(c.strains, c.forces):
            writer.writerow([repr(float(s)), repr(float(f)), c.label])
    return out.getvalue()


def curve_distance(a: DeformationCurve, b: DeformationCurve) -> float:
    """RMS force difference of the two curves, each interpolated piecewise
    linearly at DEFAULT_GRID_POINTS strains spanning their overlap."""
    lo = max(float(a.strains[0]), float(b.strains[0]))
    hi = min(float(a.strains[-1]), float(b.strains[-1]))
    if lo >= hi:
        raise EmptyOverlap(f"curves {a.label!r} and {b.label!r} have disjoint strain ranges")
    grid = np.linspace(lo, hi, DEFAULT_GRID_POINTS)
    fa = np.interp(grid, a.strains, a.forces)
    fb = np.interp(grid, b.strains, b.forces)
    return float(np.sqrt(np.mean((fa - fb) ** 2)))


def select_thickness(candidates: list[ThicknessCandidate], human: DeformationCurve):
    """Pick the sigma whose curve is closest to the human reference.

    Returns (sigma_star, {sigma: distance}); ties break toward smaller sigma.
    Two candidates for one sigma are refused.
    """
    if not candidates:
        raise ValueError("need at least one thickness candidate")
    distances, labels = {}, {}
    for cand in candidates:
        if cand.sigma in labels:
            raise DuplicateCandidate(f"sigma={cand.sigma} twice: {labels[cand.sigma]!r} and {cand.curve.label!r}")
        labels[cand.sigma] = cand.curve.label
        try:
            distances[cand.sigma] = curve_distance(cand.curve, human)
        except EmptyOverlap as exc:
            raise EmptyOverlap(f"sigma={cand.sigma}: {exc}") from None
    sigma_star = min(distances, key=lambda s: (distances[s], s))
    return sigma_star, distances
