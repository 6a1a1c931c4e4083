"""Output checks: each raises CheckFailed when a pass's outputs are wrong.

The checks read only the files a pass wrote, plus the inputs the
benchmark generated. Self-intersection pairs are never a failure: they
are reported as a count by the traced run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from handforge import kinematics
from handforge.mesh_io import TriangleMesh, parse_mesh, signed_volume

RESIDUAL_MAX_MM = 1e-9
MONOTONE_TOL_MM = 1e-9
# binary STL stores float32 coordinates: allow this share of the summed
# absolute part volumes, plus an absolute floor, for volume agreement
VOLUME_RTOL = 1e-5
VOLUME_ATOL_MM3 = 1e-3


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def components(mesh: TriangleMesh) -> list[TriangleMesh]:
    """Vertex-connected components (sparse-graph labelling)."""
    n = len(mesh.vertices)
    f = mesh.faces
    rows = np.concatenate([f[:, 0], f[:, 1]])
    cols = np.concatenate([f[:, 1], f[:, 2]])
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    face_label = labels[f[:, 0]]
    out = []
    for lab in np.unique(face_label):
        faces = f[face_label == lab]
        used, remap = np.unique(faces, return_inverse=True)
        out.append(TriangleMesh(mesh.vertices[used], remap.reshape(-1, 3)))
    return out


def watertight(mesh: TriangleMesh) -> bool:
    """Every undirected edge is shared by exactly two faces."""
    f = mesh.faces
    e = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    return bool(np.all(counts == 2))


def check_shell(out: Path, bone_id: str):
    """The shell STL parses back, each component is watertight, and the
    volume report agrees with `signed_volume` of the parts."""
    stl = out / f"{bone_id}_shell.stl"
    _require(stl.is_file(), f"{bone_id}: no shell STL")
    parts = components(parse_mesh(stl.read_bytes()))
    _require(len(parts) >= 2, f"{bone_id}: shell has {len(parts)} component(s), need outer and inner")
    for k, part in enumerate(parts):
        _require(watertight(part), f"{bone_id}: shell component {k} is not watertight")
    vols = np.array([signed_volume(p) for p in parts])
    report = json.loads((out / f"{bone_id}_shell_report.json").read_text())
    outer, inner = int(np.argmax(vols)), int(np.argmin(vols))
    supports = float(np.delete(vols, [outer, inner]).sum())
    tol = VOLUME_RTOL * float(np.abs(vols).sum()) + VOLUME_ATOL_MM3
    for key, measured in (("outer_volume_mm3", float(vols[outer])), ("inner_volume_mm3", float(vols[inner])),
                          ("support_volume_mm3", supports), ("material_volume_mm3", float(vols.sum()))):
        _require(abs(report[key] - measured) <= tol,
                 f"{bone_id}: report {key}={report[key]!r} but the STL parts give {measured!r}")
    parts_sum = report["outer_volume_mm3"] + report["inner_volume_mm3"] + report["support_volume_mm3"]
    _require(abs(report["material_volume_mm3"] - parts_sum) <= tol,
             f"{bone_id}: material volume is not the sum of the reported parts")
    _require(math.isclose(report["material_volume_ml"], report["material_volume_mm3"] / 1000.0),
             f"{bone_id}: ml and mm3 disagree")
    _require(0 < report["material_volume_mm3"] < report["solid_volume_mm3"],
             f"{bone_id}: shell volume not between 0 and the solid volume")


def check_fitted_bones(out: Path, bone_ids):
    for bone_id in bone_ids:
        _require(watertight(parse_mesh((out / f"{bone_id}.stl").read_bytes())),
                 f"fitted {bone_id} is not watertight")
    log = json.loads((out / "transforms.json").read_text())
    _require([e["bone_id"] for e in log] == list(bone_ids), "transforms.json does not list every bone")
    holes = json.loads((out / "holes.json").read_text())
    _require(all(len(holes[b]) == 2 for b in bone_ids), "holes.json lacks two holes per bone")


def check_thickness(report_path: Path, expected_sigma: float):
    report = json.loads(report_path.read_text())
    distances = {float(k): v for k, v in report["distances"].items()}
    best = min(distances, key=lambda s: (distances[s], s))
    _require(report["sigma_star"] == best, "sigma_star is not the closest candidate")
    _require(best == expected_sigma, f"selected sigma {best}, the demo curves give {expected_sigma}")


# `simulate` formats numpy scalars with repr(), which numpy >= 2 writes as
# `np.float64(<value>)`; the value inside is exact, so it is read and the
# file is counted as wrapped (a CSV defect the run reports, not a failure)
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def read_trajectory(path: Path) -> tuple[np.ndarray, bool]:
    """The (displacement, y, z) rows, and whether values were numpy reprs."""
    lines = path.read_text().splitlines()
    _require(lines and lines[0] == "displacement,y,z", f"{path.name}: bad header")
    _require(all(line.count(",") == 2 for line in lines[1:]), f"{path.name}: a row lacks 3 fields")
    raw = [x for line in lines[1:] for x in line.split(",")]
    matches = [_NUMPY_REPR.fullmatch(x) for x in raw]
    values = [float(m.group(1) if m else x) for m, x in zip(matches, raw)]
    return np.array(values).reshape(-1, 3), any(matches)


def check_simulation(out: Path, designs: dict, displacement_max: float, steps: int,
                     resolve: list[str]) -> int:
    """Every trajectory is monotone and matches the requested sweep;
    `comparison.json` ranks exactly these designs by the CSVs' min_y;
    the designs in `resolve` are solved again and must match their CSV
    rows with a constraint residual at most RESIDUAL_MAX_MM. Returns the
    number of CSVs holding numpy reprs instead of plain numbers."""
    comparison = json.loads((out / "comparison.json").read_text())
    _require(set(comparison["designs"]) == set(designs), "comparison.json does not cover the designs")
    _require(sorted(comparison["ranking"]) == sorted(designs), "ranking does not cover the designs")
    min_y = {}
    trajectories = {}
    for name in designs:
        rows, wrapped = read_trajectory(out / f"trajectory_{name}.csv")
        trajectories[name] = rows, wrapped
        _require(rows.shape == (steps, 3), f"{name}: {rows.shape[0]} rows, expected {steps}")
        _require(np.array_equal(rows[:, 0], np.linspace(0.0, displacement_max, steps)),
                 f"{name}: displacements are not the requested sweep")
        _require(np.all(np.diff(rows[:, 1]) <= MONOTONE_TOL_MM), f"{name}: trajectory is not monotone")
        min_y[name] = float(rows[:, 1].min())
        _require(comparison["designs"][name]["min_y"] == min_y[name],
                 f"{name}: comparison min_y disagrees with the CSV")
    ranked = [min_y[name] for name in comparison["ranking"]]
    _require(ranked == sorted(ranked), "ranking is not ordered by the CSVs' min_y")
    for name in resolve:
        cfg = designs[name]
        for d, y, z in trajectories[name][0]:
            state = kinematics.solve_flexion(cfg, float(d))
            _require(residual_mm(cfg, state, d) <= RESIDUAL_MAX_MM, f"{name}: residual above bound at {d} mm")
            _require(kinematics.fingertip_position(cfg, state) == (y, z),
                     f"{name}: CSV row at {d} mm is not the solved fingertip")
    return sum(wrapped for _, wrapped in trajectories.values())


def residual_mm(cfg, state, displacement: float) -> float:
    """Cable-length constraint residual of a returned JointState, 0 when
    the displacement saturates the joint limits."""
    if state.saturated:
        return 0.0
    return abs(float(displacement) - kinematics.cumulative_excursion(cfg, state)[2])
