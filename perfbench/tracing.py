"""In-memory spans around handforge's public functions, from outside `src/`.

`Tracer.install()` wraps every public module-level function of the
handforge layers and rebinds the wrapper in every handforge namespace
that binds the original (for example `handforge.tissue_gen.winding_numbers`
and `handforge.primitives.winding_numbers`), so nested calls are
attributed wherever they come from. `TriangleMesh.corner_points` gets a
counting property. `uninstall()` restores every binding.

A span is `[name, start, end, parent]`, where `parent` is the index of the
enclosing span or -1. Span names are `<layer>.<function>`, and the layer
is the module that defines the function. The benchmark adds `cli.<command>`
spans around each CLI call and a `pass` span around each pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("mesh_io", "primitives", "landmarks", "template_match", "tissue_gen",
          "deformation", "kinematics")
# namespaces that may bind a layer function; `fixtures` only runs during set-up
NAMESPACES = ("handforge",) + tuple(f"handforge.{m}" for m in LAYERS + ("cli",))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solved: list[tuple] = []  # (cfg, displacement, JointState) per solve_flexion call
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, count):
        params = list(inspect.signature(fn).parameters.values())
        position = {p.name: i for i, p in enumerate(params)}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                def arg(key):
                    i = position[key]
                    return args[i] if i < len(args) else kwargs.get(key, params[i].default)
                count(result, arg)
            return result
        return traced

    # ------------------------------------------------------------ installing

    def install(self):
        """Wrap every public layer function in every namespace binding it."""
        modules = [importlib.import_module(n) for n in NAMESPACES]
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"handforge.{layer}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[f"{layer}.{attr}"] = fn
        counters = self._counters()
        wrappers = {
            id(fn): self._wrap(name, fn, counters.get(name)) for name, fn in originals.items()
        }
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        mesh_cls = importlib.import_module("handforge.mesh_io").TriangleMesh
        prop = mesh_cls.__dict__["corner_points"]
        counts = self.counts

        def corner_points(mesh):
            counts["corner_points_calls"] += 1
            return prop.fget(mesh)

        self._restore.append((mesh_cls, "corner_points", prop))
        mesh_cls.corner_points = property(corner_points, doc=prop.__doc__)

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _counters(self) -> dict:
        """Per-function counters, called after each traced call with the
        result and a lookup of the call's arguments by parameter name."""
        c = self.counts

        def evals(key):
            def count(result, arg):
                c[key] += len(np.atleast_2d(arg("points"))) * len(arg("mesh").faces)
            return count

        def per_face(key):
            def count(result, arg):
                c[key] += len(arg("mesh").faces)
            return count

        def parse(result, arg):
            c["parse_faces"] += len(result.faces)

        def write(result, arg):
            c["write_bytes"] += len(result)

        def selfx(result, arg):
            c["selfx_faces"] += len(arg("mesh").faces)
            c["selfx_pairs"] += len(result)
            c["selfx_capped"] += len(result) >= arg("max_pairs")

        def solve(state, arg):
            c["solve_calls"] += 1
            c["saturated"] += state.saturated
            self.solved.append((arg("cfg"), arg("cable_displacement"), state))

        def sweep(result, arg):
            c["sweep_calls"] += 1

        return {
            "mesh_io.parse_mesh": parse,
            "mesh_io.write_mesh": write,
            "primitives.winding_numbers": evals("winding_evals"),
            "primitives.point_surface_distance": evals("distance_evals"),
            "primitives.ray_hits": per_face("ray_evals"),
            "primitives.clip_by_plane": per_face("clip_faces"),
            "tissue_gen.find_self_intersections": selfx,
            "kinematics.solve_flexion": solve,
            "kinematics.sweep_trajectory": sweep,
        }


# ---------------------------------------------------------------- analysis

def span_totals(spans) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds], where self
    time is a span's duration minus the part its child spans cover."""
    child = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for idx, (name, start, end, _) in enumerate(spans):
        row = totals[name]
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - child[idx]
    return totals


def layer_metrics(tracer: Tracer, passes: int, designs_per_pass: int, refused_per_pass: float,
                  max_residual_mm: float, traced_s: list[float], untraced_s: list[float]) -> dict:
    """The per-layer metrics of one traced run. Times and counts are per
    pass; `solve_us` is per call."""
    totals = span_totals(tracer.spans)
    busy = {name: row[1] for name, row in totals.items()}
    self_time = defaultdict(float)
    for name, row in totals.items():
        self_time[name.split(".", 1)[0]] += row[2]
    c = tracer.counts

    def per_pass(x):
        return x / passes

    def s(*names):
        return per_pass(sum(busy.get(n, 0.0) for n in names))

    solve_calls = c["solve_calls"]
    m = {
        "cli.fit_bones_s": s("cli.fit_bones"),
        "cli.gen_tissue_s": s("cli.gen_tissue"),
        "cli.select_thickness_s": s("cli.select_thickness"),
        "cli.simulate_s": s("cli.simulate"),
        "cli.refused": refused_per_pass,
        "mesh_io.parse_s": s("mesh_io.parse_mesh"),
        "mesh_io.parse_faces": per_pass(c["parse_faces"]),
        "mesh_io.write_s": s("mesh_io.write_mesh"),
        "mesh_io.write_bytes": per_pass(c["write_bytes"]),
        "mesh_io.analyze_s": s("mesh_io.analyze_mesh"),
        "mesh_io.normals_s": s("mesh_io.vertex_normals"),
        "mesh_io.corner_points_calls": per_pass(c["corner_points_calls"]),
        "primitives.winding_s": s("primitives.winding_numbers"),
        "primitives.winding_evals": per_pass(c["winding_evals"]),
        "primitives.distance_s": s("primitives.point_surface_distance"),
        "primitives.distance_evals": per_pass(c["distance_evals"]),
        "primitives.ray_s": s("primitives.ray_hits"),
        "primitives.ray_evals": per_pass(c["ray_evals"]),
        "primitives.clip_s": s("primitives.clip_by_plane"),
        "primitives.clip_faces": per_pass(c["clip_faces"]),
        "tissue_gen.extract_s": s("tissue_gen.extract_segment"),
        "tissue_gen.offset_s": s("tissue_gen.offset_surface"),
        "tissue_gen.selfx_s": s("tissue_gen.find_self_intersections"),
        "tissue_gen.selfx_faces": per_pass(c["selfx_faces"]),
        "tissue_gen.selfx_pairs": per_pass(c["selfx_pairs"]),
        "tissue_gen.selfx_capped": per_pass(c["selfx_capped"]),
        "tissue_gen.tube_s": s("tissue_gen.build_concentric_tube"),
        "tissue_gen.supports_s": s("tissue_gen.add_supports"),
        "tissue_gen.export_s": s("tissue_gen.export_shell"),
        "template_match.fit_s": s("template_match.estimate_all_transforms", "template_match.apply_transform"),
        "template_match.holes_s": s("template_match.place_ligament_holes"),
        "deformation.load_s": s("deformation.load_curves"),
        "deformation.select_s": s("deformation.select_thickness"),
        "kinematics.solve_us": 1e6 * busy.get("kinematics.solve_flexion", 0.0) / max(solve_calls, 1),
        "kinematics.solve_calls": per_pass(solve_calls),
        "kinematics.saturated": per_pass(c["saturated"]),
        "kinematics.max_residual_mm": max_residual_mm,
        "kinematics.sweep_s": s("kinematics.sweep_trajectory"),
        "kinematics.compare_s": s("kinematics.compare_designs"),
        "kinematics.sweeps_per_design": c["sweep_calls"] / max(passes * designs_per_pass, 1),
    }
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = per_pass(self_time.get(layer, 0.0))
    traced = statistics.median(traced_s)
    m["trace.pipeline_s"] = traced
    m["trace.overhead_s"] = traced - statistics.median(untraced_s)
    m["trace.spans"] = per_pass(len(tracer.spans))
    return m


def main(path: str, top: int = 20):
    """Print the span names of a trace file with the most self time."""
    doc = json.loads(Path(path).read_text())
    passes = doc["traced_passes"]
    rows = sorted(span_totals(doc["spans"]).items(), key=lambda kv: -kv[1][2])
    print(f"{doc['workload']} seed {doc['seed']}, per traced pass ({passes}):")
    print(f"{'span':48} {'calls':>9} {'incl s':>9} {'self s':>9}")
    for name, (calls, incl, own) in rows[:top]:
        print(f"{name:48} {calls / passes:9.0f} {incl / passes:9.4f} {own / passes:9.4f}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
