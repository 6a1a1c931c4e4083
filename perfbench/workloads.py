"""Seeded inputs and the CLI step list of each benchmark workload.

Every input is generated from the workload seed with `handforge.fixtures`
plus the finger-skin and design-table generators below; nothing under
`src/` is edited. A workspace is a directory holding the generated inputs
and a pipeline config; each measured pass writes into a fresh output
directory inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from handforge import fixtures, kinematics
from handforge.deformation import dump_curves
from handforge.landmarks import default_topology
from handforge.mesh_io import TriangleMesh, analyze_mesh, write_mesh

WORKLOADS = ("demo-pipeline", "finger-scan", "design-sweep")

FINGER_CHAIN = ("index_mcp", "index_pip", "index_dip", "index_tip")
FINGER_BONES = ("index_proximal", "index_intermediate", "index_distal")
FINGER_SEGMENTS = 64  # vertices per ring
FINGER_RING_SPACING = 0.7  # mm between rings along the axis
FINGER_NOISE = 0.01  # uniform radial noise, as a share of the radius
FINGER_MID_GAP = 2.4  # mm of skin over the bone at mid-phalanx
FINGER_JOINT_BULGE = 1.0  # mm added to the larger neighbouring mid radius
FINGER_BASE_OVERHANG = 8.0  # mm of skin behind the first joint
FINGER_TIP_OVERHANG = 1.0  # mm of tube beyond the tip landmark, before the cap
FINGER_CAP_RINGS = 8

SWEEP_DESIGNS = 120
SIGMA = 0.4  # wall offset of every shell, as in the demo config


@dataclass
class Step:
    """One CLI invocation: the command name, its arguments and a label."""

    command: str
    args: list[str]
    label: str = ""


@dataclass
class Workspace:
    """Generated inputs of one workload plus what a pass must produce."""

    workload: str
    root: Path
    config: Path
    designs: dict = field(default_factory=dict)  # design id -> FingerConfig

    def steps(self, out: Path) -> list[Step]:
        """The CLI calls of one full pass, writing into `out`."""
        cfg, o = str(self.config), str(out)
        if self.workload == "design-sweep":
            return [Step("simulate", ["--config", cfg, "--out", o])]
        bones = default_topology().bone_ids if self.workload == "demo-pipeline" else FINGER_BONES
        steps = [Step("fit-bones", ["--config", cfg, "--out", o])]
        steps += [Step("gen-tissue", ["--config", cfg, "--bone-id", b, "--out", o], b) for b in bones]
        if self.workload == "demo-pipeline":
            steps.append(Step("select-thickness", [
                "--curves", str(self.root / "curves.csv"), "--out", str(out / "thickness.json")]))
            steps.append(Step("simulate", ["--out", o]))
        return steps

    def simulated(self) -> dict:
        """Design id -> FingerConfig of every design one pass sweeps."""
        if self.workload == "design-sweep":
            return self.designs
        return kinematics.load_presets()[0] if self.workload == "demo-pipeline" else {}

    def warmup_steps(self, out: Path) -> list[Step]:
        """Untimed calls, run once per process before the first pass: a
        short preset sweep, or fit-bones plus the smallest shell."""
        if self.workload == "design-sweep":
            return [Step("simulate", ["--steps", "5", "--out", str(out)])]
        return self.steps(out)[:1] + [s for s in self.steps(out) if s.label == "index_distal"]


def make_workspace(workload: str, root: Path, seed: int) -> Workspace:
    root.mkdir(parents=True, exist_ok=True)
    if workload == "design-sweep":
        return _design_workspace(root, seed)
    if workload in ("demo-pipeline", "finger-scan"):
        return _mesh_workspace(workload, root, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _mesh_workspace(workload: str, root: Path, seed: int) -> Workspace:
    """Template bones, target landmarks, curves and a seeded scan, laid
    out as `fixtures.write_demo` lays them out."""
    template_dir = root / "template"
    template_dir.mkdir(exist_ok=True)
    topology = default_topology()
    templates = fixtures.make_template_set(topology)
    for bone_id, mesh in templates.meshes.items():
        (template_dir / f"{bone_id}.stl").write_bytes(write_mesh(mesh, "stl_binary"))
    (template_dir / "landmarks.json").write_text(json.dumps(templates.landmarks.to_document()))
    (template_dir / "topology.json").write_text(json.dumps({"bones": [list(b) for b in topology.bones]}))
    target = fixtures.scaled_landmarks(templates.landmarks, 1.0)
    (root / "target_landmarks.json").write_text(json.dumps(target.to_document()))
    if workload == "demo-pipeline":
        target_bones = {
            bone_id: fixtures.make_bone_mesh(target[org], target[ref] - target[org], bone_id)
            for bone_id, org, ref in topology.bones
        }
        scan = fixtures.make_demo_scan(target_bones, seed=seed)
    else:
        scan = finger_skin(target, seed)
    (root / "scan.stl").write_bytes(write_mesh(scan, "stl_binary"))
    (root / "curves.csv").write_text(dump_curves(fixtures.make_demo_curves()))
    config = {
        "scan": str(root / "scan.stl"),
        "landmarks": str(root / "target_landmarks.json"),
        "template_dir": str(template_dir),
        "tube": {"sigma": SIGMA, "support_count": 4, "support_radius": 0.5},
    }
    (root / "config.json").write_text(json.dumps(config, indent=2))
    return Workspace(workload, root, root / "config.json")


def _ring_frame(w: np.ndarray):
    seed = np.array([1.0, 0.0, 0.0]) if abs(w[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(seed, w)
    u /= np.linalg.norm(u)
    return u, np.cross(w, u)


def finger_skin(landmarks, seed: int) -> TriangleMesh:
    """Watertight, non-convex index-finger skin of about 2e4 faces.

    Rings run along the index_mcp -> index_tip chain in the ring-by-ring
    layout of `primitives.capsule`, with hemispherical end caps. The
    radius bulges at the joints, narrows mid-phalanx, keeps
    FINGER_MID_GAP mm over each fixture bone, and carries seeded uniform
    radial noise of FINGER_NOISE.
    """
    rng = np.random.default_rng(seed)
    chain = np.array([[*landmarks[n], 0.0] for n in FINGER_CHAIN])
    base = chain[0]
    w = chain[-1] - base
    w /= np.linalg.norm(w)
    u, v = _ring_frame(w)
    joints_t = (chain - base) @ w  # axial position of each landmark
    lengths = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    mid_r = np.array([fixtures.bone_radius(l) for l in lengths]) + FINGER_MID_GAP
    joint_r = [mid_r[0] + FINGER_JOINT_BULGE]
    joint_r += [max(mid_r[k], mid_r[k + 1]) + FINGER_JOINT_BULGE for k in range(len(mid_r) - 1)]
    t0, t1 = -FINGER_BASE_OVERHANG, joints_t[-1] + FINGER_TIP_OVERHANG
    knots_t = [t0]
    knots_r = [joint_r[0]]
    for k in range(len(mid_r)):
        knots_t += [joints_t[k], 0.5 * (joints_t[k] + joints_t[k + 1])]
        knots_r += [joint_r[k], mid_r[k]]
    knots_t.append(t1)
    knots_r.append(mid_r[-1])
    profile = PchipInterpolator(knots_t, knots_r)

    ang = np.linspace(0.0, 2.0 * np.pi, FINGER_SEGMENTS, endpoint=False)
    ring_dir = np.outer(np.cos(ang), u) + np.outer(np.sin(ang), v)
    r0, r1 = float(profile(t0)), float(profile(t1))
    rows = []  # (axial position, radius) from the base pole to the tip pole
    for k in range(1, FINGER_CAP_RINGS + 1):
        phi = np.pi / 2 * (k / FINGER_CAP_RINGS - 1.0)
        rows.append((t0 + r0 * np.sin(phi), r0 * np.cos(phi)))
    n_tube = int(np.ceil((t1 - t0) / FINGER_RING_SPACING))
    for t in np.linspace(t0, t1, n_tube + 1)[1:-1]:
        rows.append((t, float(profile(t))))
    for k in range(FINGER_CAP_RINGS):
        phi = np.pi / 2 * (k / FINGER_CAP_RINGS)
        rows.append((t1 + r1 * np.sin(phi), r1 * np.cos(phi)))
    t_rows = np.array([t for t, _ in rows])
    r_rows = np.array([r for _, r in rows])
    noise = 1.0 + rng.uniform(-FINGER_NOISE, FINGER_NOISE, (len(rows), FINGER_SEGMENTS))
    ring_pts = (base + t_rows[:, None, None] * w
                + (r_rows[:, None] * noise)[:, :, None] * ring_dir[None])
    verts = np.concatenate([ring_pts.reshape(-1, 3), [base + (t0 - r0) * w], [base + (t1 + r1) * w]])

    nrows, seg = len(rows), FINGER_SEGMENTS
    south, north = len(verts) - 2, len(verts) - 1
    i = np.arange(seg)
    j = (i + 1) % seg
    a = (np.arange(nrows - 1) * seg)[:, None]
    b = a + seg
    side = np.stack([
        np.stack([a + i, a + j, b + i], axis=-1),
        np.stack([a + j, b + j, b + i], axis=-1),
    ], axis=1).reshape(-1, 3)
    last = (nrows - 1) * seg
    caps = np.concatenate([
        np.stack([np.full(seg, south), j, i], axis=-1),
        np.stack([np.full(seg, north), last + i, last + j], axis=-1),
    ])
    mesh = TriangleMesh(verts, np.concatenate([side, caps]), "finger_scan")
    report = analyze_mesh(mesh)
    if not report.watertight or report.signed_volume_mm3 <= 0:
        raise RuntimeError("finger skin generator produced an open or inverted mesh")
    return mesh


def design_table(seed: int, count: int = SWEEP_DESIGNS) -> dict:
    """`count` designs whose b, h and springs are drawn uniformly between
    the smallest and largest value of each coefficient over the presets."""
    presets, _ = kinematics.load_presets()
    coeffs = {
        "b": np.array([[s.b for s in c.stages] for c in presets.values()]),
        "h": np.array([[s.h for s in c.stages] for c in presets.values()]),
        "springs": np.array([c.springs for c in presets.values()]),
    }
    rng = np.random.default_rng(seed)
    draws = {key: rng.uniform(arr.min(axis=0), arr.max(axis=0), (count, 3)) for key, arr in coeffs.items()}
    return {
        f"sweep_{k:03d}": {key: [float(x) for x in draws[key][k]] for key in coeffs}
        for k in range(count)
    }


def _design_workspace(root: Path, seed: int) -> Workspace:
    defaults = {"lengths": [45.0, 25.0, 20.0], "limits": list(kinematics.DEFAULT_LIMITS)}
    table = design_table(seed)
    (root / "designs.json").write_text(json.dumps({"designs": {"defaults": defaults, "designs": table}}))
    designs = {
        name: kinematics.config_from_document(name, entry, defaults) for name, entry in table.items()
    }
    return Workspace("design-sweep", root, root / "designs.json", designs)

