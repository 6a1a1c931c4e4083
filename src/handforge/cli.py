"""Command-line pipeline: validate inputs, fit template bones, generate
tissue shells, select the wall thickness, and simulate fingertip
trajectories. Every stage reads and writes plain files. Exit status:
0 on success; 2 when the command line or the config is wrong, or names a
path that cannot be read or written; 1 when an input file's content (as
`<path>: <reason>`), the geometry or the solve is refused; 3 on a crash,
any other exception, with its traceback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import click

from . import deformation, kinematics, tissue_gen
from .errors import HandforgeError
from .landmarks import LANDMARK_NAMES, bone_frame, default_topology, load_landmarks, load_topology
from .mesh_io import analyze_mesh, parse_mesh, write_mesh
from .template_match import (
    BoneTemplateSet,
    apply_transform,
    estimate_all_transforms,
    place_ligament_holes,
)

PATH_KEYS = ("scan", "landmarks", "template_dir", "out_dir")


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise click.UsageError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_bytes())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"malformed config {p}: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError(f"config {p} must be a JSON object")
    paths = [key for key in PATH_KEYS if key in cfg]
    for key in paths:
        if not isinstance(cfg[key], str):
            raise click.UsageError(f"config {p}: {key!r} must be a path string")
    if not isinstance(cfg.get("tube", {}), dict):
        raise click.UsageError(f"config {p}: 'tube' must be a JSON object")
    return {**cfg, **{key: str(p.parent / cfg[key]) for key in paths}}  # relative to the config file


def _config_path(cfg: dict, key: str) -> Path:
    if key not in cfg:
        raise click.UsageError(f"config is missing {key!r}")
    p = Path(cfg[key])
    if not p.exists():
        raise click.UsageError(f"{key} path not found: {p}")
    if p.is_dir() != (key == "template_dir"):
        raise click.UsageError(f"{key} must name a {'directory' if key == 'template_dir' else 'file'}: {p}")
    return p


def _output_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot use {out} as the output directory: {exc.strerror}")
    return out


def _read(path: Path, parse):
    """`parse` of the bytes of an input file. Exit 2 if it cannot be read;
    exit 1, naming the file, if its content is refused."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc.strerror}")
    try:
        return parse(data)
    except (HandforgeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"{path}: {exc}")


def _landmarks(data: bytes):
    return load_landmarks(json.loads(data))


def _numbers(where: str, doc: dict, keys, count=None) -> None:
    """Refuse a value of `keys` in doc that is not one JSON number, or given a
    `count`, a list of that many: a boolean or a numeric string is not read
    as a number."""
    for key in (key for key in keys if key in doc):
        values = [doc[key]] if count is None else doc[key]
        if not (isinstance(values, list) and len(values) == (count or 1)
                and all(type(x) in (int, float) for x in values)):
            what = (f"{key!r} must be one number" if count is None
                    else f"need {count} {key} values as a list of numbers")
            raise click.UsageError(f"{where}: {what}, got {json.dumps(doc[key])}")


def _tube_spec(cfg: dict, sigma=None) -> tissue_gen.TubeSpec:
    """The config's tube spec, its sigma replaced by `sigma` if given."""
    tube = {**cfg.get("tube", {}), **({} if sigma is None else {"sigma": sigma})}
    if "sigma" not in tube:
        raise click.UsageError("no sigma given (flag --sigma or config tube.sigma)")
    _numbers("tube", tube, (field.name for field in dataclasses.fields(tissue_gen.TubeSpec)))
    try:
        return tissue_gen.TubeSpec(**tube)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid tube spec: {exc}")


def _bone_mesh_paths(directory: Path, bone_ids, missing: str) -> dict:
    """Each bone's mesh file in directory, <bone_id>.stl else <bone_id>.obj.
    Raises a usage error, `missing` then every bone that has neither."""
    paths = {bone_id: next((p for p in (directory / f"{bone_id}{ext}" for ext in (".stl", ".obj"))
                            if p.is_file()), None) for bone_id in bone_ids}
    absent = [bone_id for bone_id, path in paths.items() if path is None]
    if absent:
        raise click.UsageError(f"{missing} {', '.join(absent)}")
    return paths


def _load_template_set(template_dir: Path, topology) -> BoneTemplateSet:
    lms = _read(template_dir / "landmarks.json", _landmarks)
    paths = _bone_mesh_paths(template_dir, topology.bone_ids, f"no template mesh in {template_dir} for")
    return BoneTemplateSet(meshes={bone_id: _read(path, parse_mesh) for bone_id, path in paths.items()},
                           landmarks=lms)


def _load_topology(template_dir: Path):
    topo_file = template_dir / "topology.json"
    if topo_file.exists() or topo_file.is_symlink():  # one that cannot be read exits 2
        return _read(topo_file, lambda data: load_topology(json.loads(data)))
    return default_topology()


class _Main(click.Group):
    """The boundary of every command: a `HandforgeError` that ends one exits 1
    in one line, kept as its `ClickException`'s context. Any other exception
    is a crash: its traceback and exit 3 when standalone, else raised as is."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HandforgeError as exc:
            raise click.ClickException(str(exc))

    def main(self, *args, standalone_mode=True, **kwargs):
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except Exception:
            if not standalone_mode:
                raise
            traceback.print_exc()
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Multi-layer printable hand models from a scan and 25 landmarks."""


@main.command()
@click.option("--config", "config_path", required=True, type=str, help="Pipeline config JSON.")
def validate(config_path):
    """Check all configured inputs; warnings do not fail the run."""
    cfg = _load_config(config_path)
    scan = _read(_config_path(cfg, "scan"), parse_mesh)
    report = analyze_mesh(scan)
    click.echo(
        f"scan: {len(scan.vertices)} vertices, {len(scan.faces)} faces, "
        f"watertight={report.watertight}"
    )
    if not report.watertight:
        click.echo(
            f"warning: scan is not watertight ({report.boundary_edge_count} boundary edges); "
            "volume figures will be unreliable"
        )
    _read(_config_path(cfg, "landmarks"), _landmarks)
    click.echo("landmarks: 25 entries, schema OK")
    template_dir = _config_path(cfg, "template_dir")
    topology = _load_topology(template_dir)
    templates = _load_template_set(template_dir, topology)
    click.echo(f"template: {len(templates.meshes)} bone meshes, landmarks OK")
    if "tube" in cfg:
        _tube_spec(cfg)
    click.echo("validation OK")


@main.command("fit-bones")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", type=str, default=None, help="Override output directory.")
def fit_bones(config_path, out_dir):
    """Fit every template bone to the target landmarks; write per-bone
    binary STLs, the transform log, and ligament hole metadata."""
    cfg = _load_config(config_path)
    out = _output_dir(out_dir or cfg.get("out_dir", "."))
    template_dir = _config_path(cfg, "template_dir")
    topology = _load_topology(template_dir)
    templates = _load_template_set(template_dir, topology)
    target = _read(_config_path(cfg, "landmarks"), _landmarks)
    transforms = estimate_all_transforms(templates, topology, target)
    log = []
    holes = {}
    for bone_id, t in transforms.items():
        fitted = apply_transform(templates.meshes[bone_id], t)
        (out / f"{bone_id}.stl").write_bytes(write_mesh(fitted, "stl_binary"))
        log.append({
            "bone_id": bone_id,
            "theta": t.theta,
            "lambda": t.lam,
            "translation": [float(x) for x in t.translation],
        })
        frame = bone_frame(target, topology, bone_id)
        holes[bone_id] = [p.to_document() for p in place_ligament_holes(fitted, frame)]
    (out / "transforms.json").write_text(json.dumps(log, indent=2) + "\n")
    (out / "holes.json").write_text(json.dumps(holes, indent=2) + "\n")
    click.echo(f"fitted {len(log)} bones -> {out}")


@main.command("gen-tissue")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--bone-id", "bone_ids", required=True, multiple=True, type=str,
              help="A fitted bone; repeat for several.")
@click.option("--sigma", type=float, default=None, help="Tube wall offset, mm.")
@click.option("--out", "out_dir", type=str, default=None)
def gen_tissue(config_path, bone_ids, sigma, out_dir):
    """Build the hollow tissue shell around each named fitted bone, in order.
    A refused bone does not stop the others; the exit status is 1 if any was."""
    cfg = _load_config(config_path)
    spec = _tube_spec(cfg, sigma)
    out = Path(out_dir or cfg.get("out_dir", "."))
    paths = _bone_mesh_paths(out, bone_ids, f"no fitted mesh in {out} (run fit-bones first) for")
    scan = _read(_config_path(cfg, "scan"), parse_mesh)
    refusal = None
    for bone_id, path in paths.items():
        try:
            bone = parse_mesh(path.read_bytes())
            segment = tissue_gen.extract_segment(scan, bone)
            shell = tissue_gen.build_concentric_tube(segment, bone, spec)
            solid = tissue_gen.solid_gap_volume(segment, bone)
            files = tissue_gen.export_shell(shell, solid)
        except HandforgeError as exc:
            # the last refusal is raised after the loop and the earlier ones
            # shown; each keeps its domain error as context, as if raised here
            if refusal is not None:
                refusal.show()
            refusal = click.ClickException(f"{bone_id}: {exc}")
            refusal.__context__ = exc
        else:
            (out / f"{bone_id}_shell.stl").write_bytes(files["shell.stl"])
            (out / f"{bone_id}_shell_report.json").write_bytes(files["report.json"])
            report = json.loads(files["report.json"])
            click.echo(
                f"{bone_id}: shell {report['material_volume_ml']:.3f} ml "
                f"(solid would be {report['solid_volume_ml']:.3f} ml)"
            )
            for delta, pairs in shell.folds.items():
                if pairs:
                    more = "+" if len(pairs) >= tissue_gen.PAIR_CAP else ""
                    click.echo(f"warning: {bone_id}: offset by {delta} mm self-intersects "
                               f"at {len(pairs)}{more} face pairs")
    if refusal is not None:
        raise refusal


def _candidate(label: str, curve) -> deformation.ThicknessCandidate:
    try:
        return deformation.ThicknessCandidate(float(label.split("=", 1)[1]), curve)
    except ValueError as exc:
        raise click.ClickException(f"candidate curve {label!r}: {exc}")


@main.command("select-thickness")
@click.option("--curves", "curves_path", required=True, type=str, help="strain,force,label CSV.")
@click.option("--human-label", default="human", show_default=True)
@click.option("--out", "out_path", type=str, default=None, help="Write the report JSON here.")
def select_thickness(curves_path, human_label, out_path):
    """Pick the tube wall whose deformation curve is closest to the reference."""
    if human_label.startswith("sigma="):
        raise click.UsageError(f"--human-label {human_label!r} is a candidate label, not a reference")
    p = Path(curves_path)
    by_label = {c.label: c for c in _read(p, lambda data: deformation.load_curves(data.decode("utf-8-sig")))}
    if human_label not in by_label:
        raise click.UsageError(f"no curve labeled {human_label!r} in {p}")
    candidates = [_candidate(label, curve) for label, curve in by_label.items()
                  if label.startswith("sigma=")]
    if not candidates:
        raise click.ClickException("no 'sigma=<value>' candidate curves found")
    sigma_star, distances = deformation.select_thickness(candidates, by_label[human_label])
    for s in sorted(distances):
        click.echo(f"sigma={s}: rms={distances[s]:.6g} N")
    click.echo(f"selected sigma: {sigma_star}")
    if out_path:
        try:
            Path(out_path).write_text(json.dumps(
                {"sigma_star": sigma_star, "distances": {str(k): v for k, v in distances.items()}},
                indent=2) + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write the report to {out_path}: {exc.strerror}")


def _config_designs(doc, defaults: dict) -> dict:
    """FingerConfigs of a config's `designs` section: {"defaults": {...},
    "designs": {id: entry}}, or the id -> entry table itself beside an
    optional "defaults"; missing defaults come from the shipped presets."""
    if not isinstance(doc, dict) or not isinstance(doc.get("defaults", {}), dict):
        raise click.UsageError("config 'designs' and its 'defaults' must be JSON objects")
    defaults = {**defaults, **doc.get("defaults", {})}
    table = doc["designs"] if "designs" in doc else {k: v for k, v in doc.items() if k != "defaults"}
    if not isinstance(table, dict) or not table:
        raise click.UsageError("config 'designs' must map at least one design id to its entry")
    configs = {}
    for name, entry in table.items():
        if not isinstance(entry, dict):
            raise click.UsageError(f"design {name!r} must be a JSON object")
        _numbers(f"design {name!r}", {**defaults, **entry}, ("b", "h", "springs", "lengths", "limits"), 3)
        try:
            configs[name] = kinematics.config_from_document(name, entry, defaults)
        except KeyError as exc:
            raise click.UsageError(f"design {name!r} is missing {exc}")
        except (TypeError, ValueError) as exc:
            raise click.UsageError(f"design {name!r}: {exc}")
    return configs


@main.command()
@click.option("--config", "config_path", type=str, default=None,
              help="Optional config with a 'designs' section; defaults to shipped presets.")
@click.option("--designs", "design_ids", type=str, default=None,
              help="Comma-separated design ids (default: all).")
@click.option("--displacement-max", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=".")
def simulate(config_path, design_ids, displacement_max, steps, out_dir):
    """Sweep fingertip trajectories and rank the designs by flexion depth."""
    presets, meta = kinematics.load_presets()
    if config_path:
        cfg = _load_config(config_path)
        if "designs" in cfg:
            presets = _config_designs(cfg["designs"], meta)
    if design_ids:
        wanted = [d.strip() for d in design_ids.split(",")]
        unknown = [d for d in wanted if d not in presets]
        if unknown:
            raise click.UsageError(f"unknown designs: {unknown}")
        presets = {d: presets[d] for d in wanted}
    dmax = meta["displacement_max"] if displacement_max is None else displacement_max
    nsteps = meta["steps"] if steps is None else steps
    if nsteps < 2:
        raise click.UsageError("steps must be >= 2")
    if not 0 <= dmax < math.inf:
        raise click.UsageError(f"displacement-max must be finite and >= 0, got {dmax}")
    out = _output_dir(out_dir)
    trajectories = {
        name: kinematics.sweep_trajectory(cfg, dmax, nsteps) for name, cfg in presets.items()
    }
    for name, traj in trajectories.items():
        rows = ["displacement,y,z"]
        rows += [
            ",".join(repr(float(x)) for x in (d, *p))
            for d, p in zip(traj.displacements, traj.points)
        ]
        (out / f"trajectory_{name}.csv").write_text("\n".join(rows) + "\n")
    report = kinematics.compare_designs(trajectories)
    (out / "comparison.json").write_text(json.dumps(report, indent=2) + "\n")
    for name in report["ranking"]:
        m = report["designs"][name]
        click.echo(f"{name}: min_y={m['min_y']:.2f} final=({m['final_y']:.2f}, {m['final_z']:.2f})")


@main.command()
def info():
    """Print the landmark schema, bone topology and shipped presets."""
    click.echo(f"landmark schema ({len(LANDMARK_NAMES)} names):")
    for name in LANDMARK_NAMES:
        click.echo(f"  {name}")
    topo = default_topology()
    click.echo(f"bone topology ({len(topo.bones)} bones):")
    for bone_id, org, ref in topo.bones:
        click.echo(f"  {bone_id}: {org} -> {ref}")
    presets, meta = kinematics.load_presets()
    click.echo(f"design presets (baseline: {meta['baseline']}):")
    for name, cfg in presets.items():
        bs = [s.b for s in cfg.stages]
        click.echo(f"  {name}: b={bs} springs={list(cfg.springs)}")


if __name__ == "__main__":
    main()
