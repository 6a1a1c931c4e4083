"""Single-cable underactuated finger simulation.

Tendon excursion per joint follows the quadratic empirical law
L = (b + h*phi)*phi; the three phalanx stages chain cumulatively
(L_p, L_i = L_p + stage_i, L_d = L_p + L_i + stage_d), so the distal
cable displacement is L_d = 2*e_p + e_i + e_d.

One cable drives three joints; the elastic skin/tissue return is modeled
as linear rotational springs, and the redundancy is closed by minimum
elastic energy subject to the cable-length constraint and joint limits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NonConvergence

# how often each stage's excursion appears in the distal cable length
STAGE_WEIGHTS = (2.0, 1.0, 1.0)
DEFAULT_LIMITS = (1.57, 1.92, 1.22)  # MCP, PIP, DIP flexion limits, rad
RESIDUAL_TARGET = 1e-9  # mm, largest cable-length residual a solve may return


@dataclass
class TendonStage:
    """One phalanx's excursion coefficients: L = (b + h*phi)*phi."""

    b: float  # mm
    h: float  # mm/rad

    def __post_init__(self):
        if not (0 <= self.b < math.inf and 0 <= self.h < math.inf) or self.b == self.h == 0:
            raise ValueError(f"need finite b >= 0, h >= 0 and not both zero, got b={self.b}, h={self.h}")

    def excursion(self, phi: float) -> float:
        return (self.b + self.h * phi) * phi


@dataclass
class JointState:
    """Flexion angles in radians; 0 = straight."""

    phi_p: float
    phi_i: float
    phi_d: float
    saturated: bool = False

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.phi_p, self.phi_i, self.phi_d)


@dataclass
class FingerConfig:
    """Phalanx lengths, per-stage tendon coefficients, return springs."""

    lengths: tuple[float, float, float]  # mm
    stages: tuple[TendonStage, TendonStage, TendonStage]
    springs: tuple[float, float, float]  # N*mm/rad
    design_id: str = ""
    limits: tuple[float, float, float] = DEFAULT_LIMITS

    def __post_init__(self):
        self.lengths = tuple(float(x) for x in self.lengths)
        self.springs = tuple(float(x) for x in self.springs)
        self.limits = tuple(float(x) for x in self.limits)
        for what, values in (("phalanx lengths", self.lengths), ("spring stiffnesses", self.springs),
                             ("joint limits", self.limits)):
            if len(values) != 3 or not all(0 < x < math.inf for x in values):
                raise ValueError(f"need 3 positive finite {what}, got {list(values)}")


@dataclass
class Trajectory:
    """Lateral-view fingertip path with the driving cable displacements."""

    points: np.ndarray  # (n, 2) of (y, z), mm
    displacements: np.ndarray  # (n,), mm

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        self.displacements = np.asarray(self.displacements, dtype=np.float64).reshape(-1)
        if len(self.points) != len(self.displacements):
            raise ValueError("points and displacements must align")


def cumulative_excursion(cfg: FingerConfig, state: JointState) -> tuple[float, float, float]:
    """(L_p, L_i, L_d): per-stage cumulative cable lengths."""
    e_p = cfg.stages[0].excursion(state.phi_p)
    e_i = cfg.stages[1].excursion(state.phi_i)
    e_d = cfg.stages[2].excursion(state.phi_d)
    l_p = e_p
    l_i = l_p + e_i
    l_d = l_p + l_i + e_d
    return (l_p, l_i, l_d)


def _distal_length(cfg: FingerConfig, phis) -> float:
    return sum(
        w * s.excursion(p) for w, s, p in zip(STAGE_WEIGHTS, cfg.stages, phis)
    )


def max_displacement(cfg: FingerConfig) -> float:
    """Distal cable displacement at the all-limits pose."""
    return _distal_length(cfg, cfg.limits)


def _angles_at(cfg: FingerConfig, mu: float):
    """Pointwise minimizers of the displacement-penalized elastic energy.

    Each joint solves min over [0, limit] of k/2*phi^2 - mu*w*e(phi). The
    angles are nondecreasing in the multiplier mu, and continuous only when
    every b > 0: a b = 0 joint jumps from 0 to its limit at mu = k/(2*w*h).
    """
    out = []
    for w, stage, k, lim in zip(STAGE_WEIGHTS, cfg.stages, cfg.springs, cfg.limits):
        a = k - 2.0 * mu * w * stage.h
        out.append(lim if a <= 0 else min(mu * w * stage.b / a, lim))
    return out


def solve_flexion(cfg: FingerConfig, cable_displacement: float) -> JointState:
    """Joint angles of minimum elastic energy matching the cable displacement.

    The displacement must be finite and >= 0 (ValueError); one beyond the
    all-limits excursion returns that pose, saturated. Otherwise the
    multiplier mu is bisected until lo and hi are adjacent floats. Each
    operation in `_angles_at` and `_distal_length` is correctly rounded and
    monotone on non-negative inputs, so the distal length f(mu) is
    nondecreasing even in floats, and the bisection ends at the smallest
    float mu with f(mu) >= the displacement, from any bracket. A residual
    left there is a jump between lo and hi: a b = 0 joint's energy
    (k/2 - mu*w*h)*phi^2 is flat in phi at its jump, so any angle of it is
    optimal, and the joints that jump (two where k/(w*h) ties) take the
    residual, largest jump first. Raises NonConvergence, naming the design,
    if the residual stays above RESIDUAL_TARGET.
    """
    if not 0 <= cable_displacement < math.inf:
        raise ValueError(f"cable displacement must be finite and >= 0, got {cable_displacement}")
    if cable_displacement == 0.0:
        return JointState(0.0, 0.0, 0.0)
    if cable_displacement > max_displacement(cfg):
        return JointState(*cfg.limits, saturated=True)
    lo, hi = 0.0, 1.0
    while _distal_length(cfg, _angles_at(cfg, hi)) < cable_displacement:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # f(lo) < target <= f(hi)
        if _distal_length(cfg, _angles_at(cfg, mid)) < cable_displacement:
            lo = mid
        else:
            hi = mid
    phis = _angles_at(cfg, hi)
    residual = cable_displacement - _distal_length(cfg, phis)
    if abs(residual) > RESIDUAL_TARGET:
        below = _angles_at(cfg, lo)
        for j in sorted(range(3), key=lambda i: below[i] - phis[i]):
            stage = cfg.stages[j]
            phis[j] = 0.0
            need = max((cable_displacement - _distal_length(cfg, phis)) / STAGE_WEIGHTS[j], 0.0)
            # phi = 2*need/root solves (b + h*phi)*phi = need, without cancellation
            root = stage.b + math.sqrt(stage.b ** 2 + 4.0 * stage.h * need)
            phis[j] = min(2.0 * need / root, cfg.limits[j]) if root else 0.0
            residual = cable_displacement - _distal_length(cfg, phis)
            if abs(residual) <= RESIDUAL_TARGET:
                break
    if not abs(residual) <= RESIDUAL_TARGET:  # nan too: the multiplier overflowed
        raise NonConvergence(f"{cfg.design_id or 'finger'}: residual {residual:.3e} mm")
    return JointState(*phis)


def fingertip_position(cfg: FingerConfig, state: JointState) -> tuple[float, float]:
    """Lateral-view (y, z) of the fingertip: planar 3-link chain rooted at
    the MCP joint, extended along +y, flexion curling toward -z."""
    angles = np.cumsum(state.angles)
    y = float(np.sum(np.asarray(cfg.lengths) * np.cos(angles)))
    z = float(-np.sum(np.asarray(cfg.lengths) * np.sin(angles)))
    return (y, z)


def sweep_trajectory(cfg: FingerConfig, displacement_max: float, steps: int) -> Trajectory:
    """Fingertip path over uniform cable-displacement samples from 0."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0 <= displacement_max < math.inf:
        raise ValueError(f"displacement_max must be finite and >= 0, got {displacement_max}")
    displacements = np.linspace(0.0, displacement_max, steps)
    points = [fingertip_position(cfg, solve_flexion(cfg, float(d))) for d in displacements]
    return Trajectory(np.asarray(points), displacements)


def trajectory_metrics(traj: Trajectory) -> dict:
    ys = traj.points[:, 0]
    deltas = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    return {
        "min_y": float(ys.min()),
        "final_y": float(traj.points[-1, 0]),
        "final_z": float(traj.points[-1, 1]),
        "path_length": float(deltas.sum()),
    }


def compare_designs(trajectories: dict[str, Trajectory]) -> dict:
    """Trajectory metrics of precomputed sweeps keyed by design id, ranked
    by minimum fingertip y (deeper flexion first)."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    per_design = {name: trajectory_metrics(traj) for name, traj in trajectories.items()}
    ranking = sorted(per_design, key=lambda d: per_design[d]["min_y"])
    return {"designs": per_design, "ranking": ranking}


# --------------------------------------------------------------------------
# shipped presets

def _presets_document() -> dict:
    return json.loads(resources.files("handforge.data").joinpath("finger_presets.json").read_text())


def config_from_document(design_id: str, doc: dict, defaults: dict) -> FingerConfig:
    lengths = doc.get("lengths", defaults["lengths"])
    limits = doc.get("limits", defaults["limits"])
    if not len(doc["b"]) == len(doc["h"]) == 3:
        raise ValueError(f"need 3 b and 3 h coefficients, got {len(doc['b'])} and {len(doc['h'])}")
    stages = tuple(TendonStage(b, h) for b, h in zip(doc["b"], doc["h"]))
    return FingerConfig(tuple(lengths), stages, tuple(doc["springs"]), design_id, tuple(limits))


def load_presets() -> tuple[dict[str, FingerConfig], dict]:
    """Shipped design presets plus their defaults (lengths, limits,
    displacement_max, steps) and baseline id."""
    doc = _presets_document()
    defaults = doc["defaults"]
    configs = {
        name: config_from_document(name, entry, defaults)
        for name, entry in doc["designs"].items()
    }
    return configs, {**defaults, "baseline": doc["baseline"]}
