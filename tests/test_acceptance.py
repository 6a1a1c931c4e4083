"""Release acceptance suite.

Each test covers one numbered release criterion and prints a single
[PASS]/[FAIL] line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from handforge import (
    deformation,
    fixtures,
    kinematics as kin,
    mesh_io as mio,
    primitives,
    tissue_gen as tg,
)
from handforge.cli import main as cli_main
from handforge.kinematics import STAGE_WEIGHTS, FingerConfig, JointState, TendonStage
from handforge.landmarks import BoneFrame, default_topology
from handforge.mesh_io import TriangleMesh
from handforge.template_match import estimate_all_transforms, estimate_transform

from conftest import random_soup


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


def test_01_transform_exactness():
    with criterion(1, "similarity transform maps landmarks exactly on 1000 random pairs"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            o1, o2 = rng.uniform(-80, 80, (2, 2))
            r1, r2 = rng.uniform(-40, 40, (2, 2))
            if np.linalg.norm(r1) < 1e-3 or np.linalg.norm(r2) < 1e-3:
                continue
            t = estimate_transform(BoneFrame("a", o1, r1), BoneFrame("a", o2, r2))
            assert t.lam == np.linalg.norm(r2) / np.linalg.norm(r1)
            target = o2 + r2
            err = np.linalg.norm(t.apply_xy(o1 + r1) - target)
            assert err < 1e-9 * max(np.linalg.norm(target), 1.0)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_02_identity_fixture():
    with criterion(2, "identity landmark fit returns byte-identical bone meshes"):
        topo = default_topology()
        templates = fixtures.make_template_set(topo)
        transforms = estimate_all_transforms(templates, topo, templates.landmarks)
        assert len(transforms) == 19
        from handforge.template_match import apply_transform

        for bone_id, t in transforms.items():
            assert t.theta == 0.0
            assert t.lam == 1.0
            assert np.array_equal(t.translation, np.zeros(3))
            fitted = apply_transform(templates.meshes[bone_id], t)
            assert mio.write_mesh(fitted, "stl_binary") == mio.write_mesh(
                templates.meshes[bone_id], "stl_binary")


def test_03_sphere_offset_oracle():
    with criterion(3, "inward sphere offset reproduces the analytic radius and volume"):
        mesh = primitives.icosphere(10.0, 6)
        out = tg.offset_surface(mesh, -0.4)
        radii = np.linalg.norm(out.vertices, axis=1)
        assert np.abs(radii - 9.6).max() < 1e-6
        exact = 4.0 / 3.0 * math.pi * 9.6 ** 3
        assert abs(mio.signed_volume(out) - exact) < 0.005 * exact


def test_04_concentric_shell_volume():
    with criterion(4, "concentric shell volume matches the analytic sphere shell"):
        skin = primitives.icosphere(10.0, 4)
        bone = primitives.icosphere(5.0, 3)
        shell = tg.build_concentric_tube(skin, bone, tg.TubeSpec(sigma=0.4, support_count=0))
        exact = 4.0 / 3.0 * math.pi * (9.6 ** 3 - 5.4 ** 3)
        assert abs(shell.material_volume_mm3 - exact) < 0.01 * exact
        solid = tg.solid_gap_volume(skin, bone)
        volumes = []
        for sigma in (0.3, 0.4, 0.5, 0.6, 0.8):
            s = tg.build_concentric_tube(skin, bone, tg.TubeSpec(sigma=sigma, support_count=0))
            assert s.material_volume_mm3 < solid
            volumes.append(s.material_volume_mm3)
        assert all(a > b for a, b in zip(volumes, volumes[1:]))


def test_05_excursion_oracle():
    with criterion(5, "tendon excursion and its cumulative chain match direct evaluation"):
        rng = np.random.default_rng(55)
        b = rng.uniform(0.5, 15.0, 10_000)
        h = rng.uniform(0.0, 3.0, 10_000)
        phi = rng.uniform(0.0, 2.0, 10_000)
        for i in range(10_000):
            stage = TendonStage(b[i], h[i] if h[i] > 0 else 0.1)
            direct = (stage.b + stage.h * phi[i]) * phi[i]
            assert abs(stage.excursion(phi[i]) - direct) <= 1e-12 * max(direct, 1.0)
        for _ in range(200):
            cfg = FingerConfig(
                (45.0, 25.0, 20.0),
                tuple(TendonStage(x, y) for x, y in zip(rng.uniform(1, 12, 3), rng.uniform(0.2, 3, 3))),
                tuple(rng.uniform(5, 60, 3)),
            )
            phis = rng.uniform(0.0, 1.2, 3)
            ep, ei, ed = (s.excursion(p) for s, p in zip(cfg.stages, phis))
            lp, li, ld = kin.cumulative_excursion(cfg, JointState(*phis))
            scale = max(ld, 1.0)
            assert abs((li - lp) - ei) <= 1e-12 * scale
            assert abs((ld - lp - li) - ed) <= 1e-12 * scale


def test_06_solver_vs_brute_force():
    with criterion(6, "flexion solver matches the brute-force energy minimum"):
        rng = np.random.default_rng(66)
        start = time.perf_counter()
        wp, wi, wd = STAGE_WEIGHTS
        for _ in range(50):
            cfg = FingerConfig(
                (45.0, 25.0, 20.0),
                tuple(TendonStage(x, y) for x, y in zip(rng.uniform(1, 12, 3), rng.uniform(0.2, 3, 3))),
                tuple(rng.uniform(5, 60, 3)),
            )
            d = float(rng.uniform(0.1, 0.9)) * kin.max_displacement(cfg)
            state = kin.solve_flexion(cfg, d)
            _, _, ld = kin.cumulative_excursion(cfg, state)
            assert abs(ld - d) < 1e-9
            energy = 0.5 * sum(k * p * p for k, p in zip(cfg.springs, state.angles))
            # lattice over the two proximal joints, distal angle solved
            # exactly from the cable constraint (same feasible set, denser
            # than a raw 200^3 grid along the constraint surface)
            sp, si, sd = cfg.stages
            best = math.inf
            for pp in np.linspace(0.0, cfg.limits[0], 200):
                ep = wp * sp.excursion(pp)
                for pi in np.linspace(0.0, cfg.limits[1], 200):
                    need = (d - ep - wi * si.excursion(pi)) / wd
                    if need < 0:
                        continue
                    pd = (-sd.b + math.sqrt(sd.b ** 2 + 4.0 * sd.h * need)) / (2.0 * sd.h)
                    if pd > cfg.limits[2] + 1e-12:
                        continue
                    e = 0.5 * (cfg.springs[0] * pp * pp + cfg.springs[1] * pi * pi
                               + cfg.springs[2] * pd * pd)
                    if e < best:
                        best = e
            assert energy <= best + 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_06_solver_vs_brute_force_with_b_zero_stages():
    with criterion(6, "flexion solver matches the brute-force energy minimum where a stage has b = 0"):
        # a b = 0 joint's minimizer jumps from 0 to its limit as the multiplier
        # crosses k / (2wh); criterion 6's draws, with b = 0 drawn per joint
        rng = np.random.default_rng(67)
        wp, wi, wd = STAGE_WEIGHTS
        for _ in range(100):
            b = rng.uniform(1, 12, 3)
            b[rng.random(3) < 0.5] = 0.0
            cfg = FingerConfig(
                (45.0, 25.0, 20.0),
                tuple(TendonStage(x, y) for x, y in zip(b, rng.uniform(0.2, 3, 3))),
                tuple(rng.uniform(5, 60, 3)),
            )
            d = float(rng.uniform(0.1, 0.9)) * kin.max_displacement(cfg)
            state = kin.solve_flexion(cfg, d)
            _, _, ld = kin.cumulative_excursion(cfg, state)
            assert abs(ld - d) < 1e-9
            energy = 0.5 * sum(k * p * p for k, p in zip(cfg.springs, state.angles))
            # 600 x 600 lattice over the two proximal joints, distal angle solved
            # exactly from the cable constraint (h > 0, so b = 0 is solvable)
            sp, si, sd = cfg.stages
            pp, pi = np.meshgrid(np.linspace(0.0, cfg.limits[0], 600),
                                 np.linspace(0.0, cfg.limits[1], 600), indexing="ij")
            need = (d - wp * sp.excursion(pp) - wi * si.excursion(pi)) / wd
            pd = (-sd.b + np.sqrt(sd.b ** 2 + 4.0 * sd.h * np.maximum(need, 0.0))) / (2.0 * sd.h)
            feasible = (need >= 0) & (pd <= cfg.limits[2] + 1e-12)
            lattice = 0.5 * (cfg.springs[0] * pp * pp + cfg.springs[1] * pi * pi
                             + cfg.springs[2] * np.minimum(pd, cfg.limits[2]) ** 2)
            assert energy <= lattice[feasible].min() + 1e-3


def test_07_trajectory_shape():
    with criterion(7, "preset trajectories curl monotonically; baseline is shallowest"):
        configs, meta = kin.load_presets()
        min_ys = {}
        for name, cfg in configs.items():
            traj = kin.sweep_trajectory(cfg, meta["displacement_max"], meta["steps"])
            ys = traj.points[:, 0]
            assert np.all(np.diff(ys) <= 1e-9), name
            min_ys[name] = float(ys.min())
        baseline = meta["baseline"]
        for name, my in min_ys.items():
            if name != baseline:
                assert my < min_ys[baseline]


def test_08_thickness_selection():
    with criterion(8, "wall selection returns 0.4 mm with zero distance, order-independent"):
        curves = {c.label: c for c in fixtures.make_demo_curves()}
        human = curves.pop("human")
        cands = [
            deformation.ThicknessCandidate(float(label.split("=")[1]), c)
            for label, c in curves.items()
        ]
        sigma_star, distances = deformation.select_thickness(cands, human)
        assert sigma_star == 0.4
        assert distances[0.4] == 0.0
        assert deformation.select_thickness(list(reversed(cands)), human)[0] == 0.4


def test_09_format_roundtrip():
    with criterion(9, "100 random meshes survive write/parse in all three formats"):
        rng = np.random.default_rng(99)

        def canon(mesh):
            flat = np.sort(mesh.corner_points.reshape(-1, 9), axis=1)
            return flat[np.lexsort(flat.T)]

        for _ in range(100):
            mesh = random_soup(rng)
            for fmt in ("stl_binary", "stl_ascii", "obj"):
                data = mio.write_mesh(mesh, fmt)
                back = mio.parse_mesh(data, fmt)
                ref = mesh
                if fmt == "stl_binary":
                    ref = TriangleMesh(
                        mesh.vertices.astype(np.float32).astype(np.float64), mesh.faces)
                    assert data == mio.write_mesh(mesh, fmt)
                assert np.allclose(canon(back), canon(ref), atol=1e-6), fmt


def test_10_end_to_end_demo(tmp_path):
    with criterion(10, "full CLI pipeline runs on the demo fixture with watertight outputs"):
        start = time.perf_counter()
        fixtures.write_demo(tmp_path)
        runner = CliRunner()
        cfg = str(tmp_path / "config.json")

        result = runner.invoke(cli_main, ["validate", "--config", cfg])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli_main, ["fit-bones", "--config", cfg])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli_main, ["gen-tissue", "--config", cfg,
                                          "--bone-id", "index_distal"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli_main, ["simulate", "--out", str(tmp_path / "output")])
        assert result.exit_code == 0, result.output

        out = tmp_path / "output"
        topo = default_topology()
        for bone_id in topo.bone_ids:
            bone = mio.parse_mesh((out / f"{bone_id}.stl").read_bytes())
            assert mio.analyze_mesh(bone).watertight, bone_id
        shell = mio.parse_mesh((out / "index_distal_shell.stl").read_bytes())
        components = mio.connected_components(shell)
        assert len(components) >= 2
        for comp in components:
            assert mio.analyze_mesh(comp).watertight
        report = json.loads((out / "index_distal_shell_report.json").read_text())
        assert report["material_volume_mm3"] < report["solid_volume_mm3"]
        comparison = json.loads((out / "comparison.json").read_text())
        assert len(comparison["ranking"]) == 6
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"
