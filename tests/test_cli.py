import json
import shutil
from importlib import resources
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from handforge import cli, deformation, fixtures, kinematics, mesh_io, tissue_gen
from handforge.cli import main
from handforge.errors import EmptyOverlap, GapTooSmall
from handforge.landmarks import default_topology


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    config = fixtures.write_demo(root)
    return root, config


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A demo workspace with its bones fitted and no shell built:
    (config path, fitted bone directory)."""
    root = tmp_path_factory.mktemp("fitted")
    fixtures.write_demo(root)
    config = str(root / "config.json")
    assert run("fit-bones", "--config", config).exit_code == 0
    return config, root / "output"


def run(*args):
    return CliRunner().invoke(main, list(args))


def gen_tissue(fitted, tmp_path, bones, *extra):
    """argv building `bones` in one call, into tmp_path/out, which holds a
    copy of the fitted bones from the first call on; returns (argv, out)."""
    config, bone_dir = fitted
    out = tmp_path / "out"
    if not out.exists():
        shutil.copytree(bone_dir, out)
    return ["gen-tissue", "--config", config, "--out", str(out), *extra,
            *[arg for bone in bones for arg in ("--bone-id", bone)]], out


def assert_refused(result, code, *names):
    """A one-line `Error:` naming each of `names`, exit `code`, no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    error = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(error) == 1, result.output
    assert all(name in error[0] for name in names), error[0]


class TestValidate:
    def test_demo_passes(self, demo):
        root, _ = demo
        result = run("validate", "--config", str(root / "config.json"))
        assert result.exit_code == 0, result.output
        assert "validation OK" in result.output

    def test_missing_config_file(self, tmp_path):
        result = run("validate", "--config", str(tmp_path / "nope.json"))
        assert result.exit_code == 2
        assert "not found" in result.output

    def test_missing_landmark_path(self, demo, tmp_path):
        root, config = demo
        bad = dict(config)
        bad["landmarks"] = str(tmp_path / "gone.json")
        p = tmp_path / "config.json"
        p.write_text(json.dumps(bad))
        result = run("validate", "--config", str(p))
        assert result.exit_code == 2

    def test_missing_landmark_entry(self, demo, tmp_path):
        root, config = demo
        doc = json.loads((root / "target_landmarks.json").read_text())
        doc.pop("ring_dip")
        lm = tmp_path / "landmarks.json"
        lm.write_text(json.dumps(doc))
        bad = dict(config)
        bad["landmarks"] = str(lm)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(bad))
        result = run("validate", "--config", str(p))
        assert result.exit_code == 1
        assert "ring_dip" in result.output

    def test_bad_tube_spec(self, demo, tmp_path):
        root, config = demo
        bad = dict(config)
        bad["tube"] = {"sigma": -1.0}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(bad))
        result = run("validate", "--config", str(p))
        assert result.exit_code == 2
        assert "tube" in result.output

    def test_infinite_support_radius(self, demo, tmp_path):
        root, config = demo
        bad = dict(config, tube={"sigma": 0.4, "support_count": 4, "support_radius": float("inf")})
        p = tmp_path / "config.json"
        p.write_text(json.dumps(bad))  # written as the JSON extension Infinity
        assert_refused(run("validate", "--config", str(p)), 2, "support_radius")
        result = run("gen-tissue", "--config", str(p), "--bone-id", "index_distal")
        assert_refused(result, 2, "support_radius")

    def test_byte_order_mark_is_read(self, demo, tmp_path):
        root, config = demo
        lm = tmp_path / "landmarks.json"
        lm.write_bytes(b"\xef\xbb\xbf" + (root / "target_landmarks.json").read_bytes())
        result = run("validate", "--config", _config_with(tmp_path, config, landmarks=str(lm)))
        assert result.exit_code == 0, result.output

    def test_demo_written_to_relative_path(self, tmp_path, monkeypatch):
        # the README walkthrough: write `demo`, then validate from inside it
        monkeypatch.chdir(tmp_path)
        fixtures.write_demo("demo")
        monkeypatch.chdir(tmp_path / "demo")
        result = run("validate", "--config", "config.json")
        assert result.exit_code == 0, result.output
        assert "validation OK" in result.output

    def test_moved_workspace_runs_from_any_directory(self, tmp_path, monkeypatch):
        # config paths are relative to the config file, not the working directory
        fixtures.write_demo(tmp_path / "written")
        shutil.copytree(tmp_path / "written", tmp_path / "moved")
        shutil.rmtree(tmp_path / "written")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        config = str(Path("..") / "moved" / "config.json")
        result = run("validate", "--config", config)
        assert result.exit_code == 0, result.output
        result = run("fit-bones", "--config", config)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "moved" / "output" / "transforms.json").is_file()
        assert list((tmp_path / "elsewhere").iterdir()) == []


class TestFitBones:
    def test_identity_fixture(self, demo):
        root, config = demo
        result = run("fit-bones", "--config", str(root / "config.json"))
        assert result.exit_code == 0, result.output
        out = root / "output"
        log = json.loads((out / "transforms.json").read_text())
        assert len(log) == 19
        # target landmarks equal the template's, so every fit is the identity
        for entry in log:
            assert entry["theta"] == 0.0
            assert entry["lambda"] == 1.0
            assert entry["translation"] == [0.0, 0.0, 0.0]
        holes = json.loads((out / "holes.json").read_text())
        assert len(holes) == 19
        assert all(len(v) == 2 for v in holes.values())
        assert (out / "index_distal.stl").is_file()

    def test_scaled_fixture(self, tmp_path):
        fixtures.write_demo(tmp_path)
        target = tmp_path / "target_landmarks.json"
        doc = json.loads(target.read_text())
        target.write_text(json.dumps({name: [1.2 * x for x in point] for name, point in doc.items()}))
        result = run("fit-bones", "--config", str(tmp_path / "config.json"))
        assert result.exit_code == 0, result.output
        log = json.loads((tmp_path / "output" / "transforms.json").read_text())
        for entry in log:
            assert entry["lambda"] == pytest.approx(1.2, rel=1e-9)
            assert entry["theta"] == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_outputs(self, demo, tmp_path):
        root, _ = demo
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = run("fit-bones", "--config", str(root / "config.json"),
                         "--out", str(out))
            assert result.exit_code == 0, result.output
        for name in ("index_distal.stl", "transforms.json", "holes.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_format_option_is_gone(self, demo, tmp_path):
        # fitted bones are always <bone>.stl, so gen-tissue never reads a stale one
        result = run("fit-bones", "--config", str(demo[0] / "config.json"), "--out", str(tmp_path),
                     "--format", "obj")
        assert result.exit_code == 2, result.output
        assert not list(tmp_path.iterdir())


class TestGenTissue:
    def test_shell_for_one_bone(self, demo):
        root, _ = demo
        cfg = str(root / "config.json")
        assert run("fit-bones", "--config", cfg).exit_code == 0
        result = run("gen-tissue", "--config", cfg, "--bone-id", "index_distal")
        assert result.exit_code == 0, result.output
        out = root / "output"
        report = json.loads((out / "index_distal_shell_report.json").read_text())
        assert report["material_volume_mm3"] < report["solid_volume_mm3"]
        assert report["material_volume_ml"] == pytest.approx(
            report["material_volume_mm3"] / 1000.0)
        assert (out / "index_distal_shell.stl").stat().st_size > 84

    def test_invalid_sigma(self, demo):
        root, _ = demo
        result = run("gen-tissue", "--config", str(root / "config.json"),
                     "--bone-id", "index_distal", "--sigma", "0")
        assert result.exit_code == 2

    def test_bone_fitted_as_obj(self, tmp_path):
        fixtures.write_demo(tmp_path)
        cfg = str(tmp_path / "config.json")
        assert run("fit-bones", "--config", cfg).exit_code == 0
        stl = tmp_path / "output" / "index_distal.stl"
        stl.with_suffix(".obj").write_bytes(mesh_io.write_mesh(mesh_io.parse_mesh(stl.read_bytes()), "obj"))
        stl.unlink()
        result = run("gen-tissue", "--config", cfg, "--bone-id", "index_distal")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "output" / "index_distal_shell.stl").is_file()

    def test_unfitted_bone(self, demo):
        root, _ = demo
        result = run("gen-tissue", "--config", str(root / "config.json"),
                     "--bone-id", "no_such_bone")
        assert result.exit_code == 2
        assert "fit-bones" in result.output

    def test_several_bones_match_one_call_each(self, fitted, tmp_path):
        bones = ["middle_metacarpal", "index_distal", "middle_proximal"]
        argv, together = gen_tissue(fitted, tmp_path / "together", bones)
        result = run(*argv)
        assert result.exit_code == 0, result.output
        for bone in bones:
            argv, alone = gen_tissue(fitted, tmp_path / "alone", [bone])
            assert run(*argv).exit_code == 0
        files = {p.name: p.read_bytes() for p in together.iterdir()}
        assert files == {p.name: p.read_bytes() for p in alone.iterdir()}
        assert sum(name.endswith("_shell.stl") for name in files) == 3

    def test_each_fold_warning_names_its_bone(self, fitted, tmp_path):
        # both bones fold at "2 face pairs", each line right after its bone's shell line
        argv, _ = gen_tissue(fitted, tmp_path, ["middle_metacarpal", "middle_proximal"])
        result = run(*argv)
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert [lines[i + 1] for i, line in enumerate(lines) if ": shell " in line] == [
            f"warning: {bone}: offset by -0.4 mm self-intersects at 2 face pairs"
            for bone in ("middle_metacarpal", "middle_proximal")]

    @pytest.mark.parametrize("n, more", [(99, ""), (100, "+")])
    def test_fold_warning_marks_the_cap(self, fitted, tmp_path, monkeypatch, n, more):
        monkeypatch.setattr(tissue_gen, "find_self_intersections", lambda mesh: [(0, 1)] * n)
        argv, _ = gen_tissue(fitted, tmp_path, ["index_distal"])
        result = run(*argv)
        assert result.exit_code == 0, result.output
        assert [line for line in result.output.splitlines() if line.startswith("warning:")] == [
            f"warning: index_distal: offset by {delta} mm self-intersects at {n}{more} face pairs"
            for delta in (-0.4, 0.4)]

    def test_refused_bone_does_not_stop_later_bones(self, fitted, tmp_path):
        argv, out = gen_tissue(fitted, tmp_path, ["index_distal", "little_metacarpal", "middle_distal"])
        assert_refused(run(*argv), 1, "little_metacarpal", "skin-to-bone gap")
        assert sorted(p.name for p in out.glob("*_shell.stl")) == [
            "index_distal_shell.stl", "middle_distal_shell.stl"]

    def test_every_refusal_shown_once(self, fitted, tmp_path):
        argv, out = gen_tissue(fitted, tmp_path, ["index_distal", "middle_distal"], "--sigma", "20")
        result = run(*argv)
        assert result.exit_code == 1, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert [line.split(":")[1].strip() for line in errors] == ["index_distal", "middle_distal"]
        assert not list(out.glob("*_shell*"))

    @pytest.mark.parametrize("bones", [
        ["no_such_bone", "index_distal"], ["index_distal", "middle_distal", "no_such_bone"]])
    def test_unknown_bone_anywhere_builds_nothing(self, fitted, tmp_path, bones):
        argv, out = gen_tissue(fitted, tmp_path, bones)
        assert_refused(run(*argv), 2, "no_such_bone", "fit-bones")
        assert not list(out.glob("*_shell*"))

    @pytest.mark.parametrize("bones", [["little_metacarpal"], ["little_metacarpal", "index_distal"]])
    def test_refusal_raises_with_its_domain_error(self, fitted, tmp_path, bones):
        # the in-process contract: exit code 1, and the HandforgeError as context
        argv, out = gen_tissue(fitted, tmp_path, bones)
        with pytest.raises(click.ClickException) as info:
            main.main(argv, prog_name="handforge", standalone_mode=False)
        assert info.value.exit_code == 1
        assert isinstance(info.value.__context__, GapTooSmall)
        assert info.value.format_message().startswith("little_metacarpal: ")
        assert (out / "index_distal_shell.stl").is_file() == ("index_distal" in bones)


class TestSelectThickness:
    def test_demo_curves(self, demo, tmp_path):
        root, _ = demo
        out = tmp_path / "thickness.json"
        result = run("select-thickness", "--curves", str(root / "curves.csv"),
                     "--out", str(out))
        assert result.exit_code == 0, result.output
        assert "selected sigma: 0.4" in result.output
        report = json.loads(out.read_text())
        assert report["sigma_star"] == 0.4
        assert len(report["distances"]) == 5

    def test_missing_file(self, tmp_path):
        result = run("select-thickness", "--curves", str(tmp_path / "nope.csv"))
        assert result.exit_code == 2

    def test_missing_human_label(self, demo):
        root, _ = demo
        result = run("select-thickness", "--curves", str(root / "curves.csv"),
                     "--human-label", "reference")
        assert result.exit_code == 2

    @pytest.mark.parametrize("label", ["sigma=abc", "sigma=-1", "sigma=nan", "sigma=inf"])
    def test_bad_candidate_label(self, tmp_path, label):
        curves = fixtures.make_demo_curves()
        odd = curves[1]
        curves.append(deformation.DeformationCurve(odd.strains, odd.forces, label))
        p = tmp_path / "curves.csv"
        p.write_text(deformation.dump_curves(curves))
        assert_refused(run("select-thickness", "--curves", str(p)), 1, repr(label))

    def test_byte_order_mark_is_read(self, demo, tmp_path):
        # as the JSON inputs are: UTF-8 with or without a byte order mark
        root, _ = demo
        p = tmp_path / "curves.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (root / "curves.csv").read_bytes())
        result = run("select-thickness", "--curves", str(p))
        assert result.exit_code == 0, result.output
        assert "selected sigma: 0.4" in result.output

    def test_refusal_raises_with_its_domain_error(self, tmp_path):
        # the in-process contract: exit code 1, and the HandforgeError as context
        curves = fixtures.make_demo_curves()
        odd = curves[1]
        curves.append(deformation.DeformationCurve(odd.strains + 10.0, odd.forces, "sigma=0.9"))
        p = tmp_path / "curves.csv"
        p.write_text(deformation.dump_curves(curves))
        with pytest.raises(click.ClickException) as info:
            main.main(["select-thickness", "--curves", str(p)], prog_name="handforge", standalone_mode=False)
        assert info.value.exit_code == 1
        assert isinstance(info.value.__context__, EmptyOverlap)


class TestSimulate:
    def test_preset_sweep(self, tmp_path):
        result = run("simulate", "--out", str(tmp_path))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert len(report["ranking"]) == 6
        assert report["ranking"][-1] == "design_5"
        for name in report["ranking"]:
            csv_path = tmp_path / f"trajectory_{name}.csv"
            rows = csv_path.read_text().strip().splitlines()
            assert rows[0] == "displacement,y,z"
            assert len(rows) - 1 == 25

    def test_design_subset(self, tmp_path):
        result = run("simulate", "--designs", "design_5,design_6",
                     "--steps", "5", "--out", str(tmp_path))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert set(report["designs"]) == {"design_5", "design_6"}

    def test_unknown_design(self, tmp_path):
        result = run("simulate", "--designs", "design_99", "--out", str(tmp_path))
        assert result.exit_code == 2

    def test_single_step_rejected(self, tmp_path):
        result = run("simulate", "--steps", "1", "--out", str(tmp_path))
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_displacement_max(self, tmp_path, value):
        result = run("simulate", "--displacement-max", value, "--out", str(tmp_path))
        assert_refused(result, 2, "displacement-max")
        assert not (tmp_path / "comparison.json").exists()

    @pytest.mark.parametrize("designs, names", [
        ({"d1": {"b": [8.0, 6.0, 4.0], "springs": [30.0, 20.0, 10.0]}}, ["'d1'", "'h'"]),
        ({"d1": {"b": [-1, 2, 3], "h": [2.0, 1.5, 1.0], "springs": [30.0, 20.0, 10.0]}}, ["'d1'", "b=-1"]),
        ({"d1": {"b": [8.0, 6.0], "h": [2.0, 1.5, 1.0], "springs": [30.0, 20.0, 10.0]}}, ["'d1'", "3 b"]),
        ({"d1": {"b": [8.0, 6.0, 4.0], "h": [2.0, 1.5], "springs": [30.0, 20.0, 10.0]}}, ["'d1'", "3 h"]),
        ({"d1": {"b": [8.0, 6.0, 4.0], "h": [2.0, 1.5, 1.0], "springs": [30.0, 20.0]}}, ["'d1'", "spring"]),
        ({"defaults": {"lengths": [45.0, 25.0]}, "designs": {"d1": {"b": [8.0, 6.0, 4.0], "h": [2.0, 1.5, 1.0],
                                                                    "springs": [30.0, 20.0, 10.0]}}},
         ["'d1'", "lengths"]),
        ({"d1": 5}, ["'d1'"]),
        ([], ["designs"]),
        ({}, ["designs"]),
        ({"designs": {}}, ["designs"]),
    ], ids=["no-h", "negative-b", "two-b", "two-h", "two-springs", "two-default-lengths", "not-an-object",
            "list", "empty", "empty-table"])
    def test_malformed_designs(self, tmp_path, designs, names):
        p = tmp_path / "designs.json"
        p.write_text(json.dumps({"designs": designs}))
        result = run("simulate", "--config", str(p), "--out", str(tmp_path / "out"))
        assert_refused(result, 2, *names)

    def test_config_designs_default_to_preset_lengths(self, tmp_path):
        presets = json.loads(resources.files("handforge.data").joinpath("finger_presets.json").read_text())
        p = tmp_path / "designs.json"
        p.write_text(json.dumps({"designs": {"design_1": presets["designs"]["design_1"]}}))
        assert run("simulate", "--config", str(p), "--steps", "5", "--out", str(tmp_path / "a")).exit_code == 0
        assert run("simulate", "--designs", "design_1", "--steps", "5", "--out", str(tmp_path / "b")).exit_code == 0
        for name in ("comparison.json", "trajectory_design_1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_fields_are_plain_floats(self, tmp_path):
        assert run("simulate", "--steps", "5", "--out", str(tmp_path)).exit_code == 0
        for csv_path in tmp_path.glob("trajectory_*.csv"):
            for row in csv_path.read_text().splitlines()[1:]:
                assert [float(x) for x in row.split(",")]

    def test_one_sweep_per_design(self, tmp_path, monkeypatch):
        calls = []
        solve = kinematics.solve_flexion

        def counting_solve(cfg, cable_displacement):
            calls.append(cfg.design_id)
            return solve(cfg, cable_displacement)

        monkeypatch.setattr(kinematics, "solve_flexion", counting_solve)
        result = run("simulate", "--designs", "design_1,design_5",
                     "--steps", "7", "--out", str(tmp_path))
        assert result.exit_code == 0, result.output
        assert sorted(calls) == ["design_1"] * 7 + ["design_5"] * 7

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--steps", "10", "--out", str(out)).exit_code == 0
        assert (a / "comparison.json").read_bytes() == (b / "comparison.json").read_bytes()
        assert (a / "trajectory_design_1.csv").read_bytes() == (b / "trajectory_design_1.csv").read_bytes()


class TestCrash:
    """An exception that is not a HandforgeError is a bug, not a refusal,
    whether a layer function or a parser of an input file raises it."""

    @pytest.fixture(params=["layer", "parser"])
    def argv(self, request, monkeypatch, demo, tmp_path):
        def broken(*args):
            raise RuntimeError("broken")
        if request.param == "layer":
            monkeypatch.setattr(kinematics, "sweep_trajectory", broken)
            return ["simulate", "--out", str(tmp_path)]
        monkeypatch.setattr(cli, "parse_mesh", broken)
        return ["validate", "--config", str(demo[0] / "config.json")]

    def test_raised_as_itself_in_process(self, argv):
        with pytest.raises(RuntimeError, match="broken"):
            main.main(argv, prog_name="handforge", standalone_mode=False)

    def test_exits_3_with_its_traceback(self, argv):
        result = run(*argv)
        assert result.exit_code == 3, result.output
        assert "Traceback" in result.output and "RuntimeError: broken" in result.output
        assert not any(line.startswith("Error:") for line in result.output.splitlines())


class TestInfo:
    def test_lists_schema_and_presets(self):
        result = run("info")
        assert result.exit_code == 0
        assert "wrist_center" in result.output
        assert "index_distal" in result.output
        assert "design_5" in result.output


def _config_with(tmp_path, config, **changes) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, **changes}))
    return str(path)


def _template_with_topology(root, tmp_path, topology) -> str:
    template = tmp_path / "template"
    shutil.copytree(root / "template", template)
    (template / "topology.json").write_text(json.dumps(topology))
    return str(template)


def _landmarks_with(root, tmp_path, name, value) -> str:
    doc = json.loads((root / "target_landmarks.json").read_text())
    path = tmp_path / "landmarks.json"
    path.write_text(json.dumps({**doc, name: value}))
    return str(path)


def _template_without_landmarks(root, tmp_path) -> str:
    template = tmp_path / "template"
    shutil.copytree(root / "template", template)
    (template / "landmarks.json").unlink()
    return str(template)


def _edited_copy(tmp_path, source, old, new, encoding="utf-8") -> str:
    """A copy of `source`, its first `old` replaced by `new`. In Latin-1,
    an accented letter of `new` is not UTF-8."""
    path = tmp_path / source.name
    path.write_bytes(source.read_text().replace(old, new, 1).encode(encoding))
    return str(path)


def _curves_with_copy(root, tmp_path, label, new_label) -> str:
    """The demo curves plus a copy of `label`'s curve under `new_label`."""
    curves = deformation.load_curves((root / "curves.csv").read_text())
    copy = next(c for c in curves if c.label == label)
    path = tmp_path / "curves.csv"
    path.write_text(deformation.dump_curves(
        [*curves, deformation.DeformationCurve(copy.strains, copy.forces, new_label)]))
    return str(path)


def _template_with_topology_as(root, tmp_path, make) -> str:
    """A template copy whose topology.json is replaced by `make(path)`."""
    template = tmp_path / "template"
    shutil.copytree(root / "template", template)
    (template / "topology.json").unlink()
    make(template / "topology.json")
    return str(template)


def _template_with_flat_bone(root, tmp_path, bone_id) -> str:
    """A template copy whose `bone_id` mesh is one triangle through the bone's
    two landmarks and a point 3 mm above their midpoint: it has no width
    along the drill axis."""
    template = tmp_path / "template"
    shutil.copytree(root / "template", template)
    lms = json.loads((template / "landmarks.json").read_text())
    _, org, ref = next(bone for bone in default_topology().bones if bone[0] == bone_id)
    a, b = np.array([*lms[org], 0.0]), np.array([*lms[ref], 0.0])
    flat = mesh_io.TriangleMesh(np.array([a, b, (a + b) / 2 + [0.0, 0.0, 3.0]]), np.array([[0, 1, 2]]))
    (template / f"{bone_id}.stl").write_bytes(mesh_io.write_mesh(flat, "stl_binary"))
    return str(template)


def _designs_config(tmp_path, **entry) -> str:
    """A simulate config of one design, a preset's entry with `entry` changes;
    a `defaults` change goes to the section's defaults."""
    presets = json.loads(resources.files("handforge.data").joinpath("finger_presets.json").read_text())
    defaults = entry.pop("defaults", {})
    path = tmp_path / "designs.json"
    path.write_text(json.dumps({"designs": {"defaults": defaults,
                                            "designs": {"d1": {**presets["designs"]["design_1"], **entry}}}}))
    return str(path)


def _a_file(tmp_path) -> str:
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


def _fitted_bones(root, tmp_path) -> str:
    out = tmp_path / "fitted"
    assert run("fit-bones", "--config", str(root / "config.json"), "--out", str(out)).exit_code == 0
    return str(out)


# name -> (exit code, a word of the error line, argv built from the demo workspace)
MALFORMED = {
    "tube is a number": (2, "tube", lambda root, cfg, tmp: [
        "gen-tissue", "--config", _config_with(tmp, cfg, tube=5), "--bone-id", "index_distal"]),
    "tube is a string": (2, "tube", lambda root, cfg, tmp: [
        "gen-tissue", "--config", _config_with(tmp, cfg, tube="abc"), "--bone-id", "index_distal"]),
    "scan path is a number": (2, "scan", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, scan=5)]),
    "landmark is not numbers": (1, "index_tip", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(
            tmp, cfg, landmarks=_landmarks_with(root, tmp, "index_tip", ["a", "b"]))]),
    "topology without bones": (1, "bones", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(
            tmp, cfg, template_dir=_template_with_topology(root, tmp, {}))]),
    "topology triple too short": (1, "bones", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, template_dir=_template_with_topology(
            root, tmp, {"bones": [["index_proximal", "index_mcp"]]}))]),
    "topology is a directory": (2, "topology.json", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, template_dir=_template_with_topology_as(
            root, tmp, Path.mkdir)), "--out", str(tmp / "out")]),
    "topology is a dangling link": (2, "topology.json", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, template_dir=_template_with_topology_as(
            root, tmp, lambda path: path.symlink_to(tmp / "gone.json")))]),
    "human label is a candidate": (2, "human-label", lambda root, cfg, tmp: [
        "select-thickness", "--curves", str(root / "curves.csv"), "--human-label", "sigma=0.6"]),
    "fit-bones output is a file": (2, "taken", lambda root, cfg, tmp: [
        "fit-bones", "--config", str(root / "config.json"), "--out", _a_file(tmp)]),
    "simulate output is a file": (2, "taken", lambda root, cfg, tmp: [
        "simulate", "--steps", "2", "--out", _a_file(tmp)]),
    "scan is a directory": (2, "scan", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, scan=str(tmp))]),
    "gen-tissue scan is a directory": (2, "scan", lambda root, cfg, tmp: [
        "gen-tissue", "--config", _config_with(tmp, cfg, scan=str(tmp)), "--bone-id", "index_distal",
        "--out", _fitted_bones(root, tmp)]),
    "landmarks is a directory": (2, "landmarks", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, landmarks=str(tmp)), "--out", str(tmp / "out")]),
    "template_dir is a file": (2, "template_dir", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, template_dir=_a_file(tmp)), "--out", str(tmp / "out")]),
    "select-thickness output is a directory": (2, "cannot write", lambda root, cfg, tmp: [
        "select-thickness", "--curves", str(root / "curves.csv"), "--out", str(tmp)]),
    "validate template without landmarks": (2, "landmarks.json", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, template_dir=_template_without_landmarks(root, tmp))]),
    "fit-bones template without landmarks": (2, "landmarks.json", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, template_dir=_template_without_landmarks(root, tmp)),
        "--out", str(tmp / "out")]),
    "config is not UTF-8": (2, "utf-8", lambda root, cfg, tmp: [
        "validate", "--config", _edited_copy(tmp, root / "config.json", "{", '{"note": "café",', "latin-1")]),
    "landmark file is not UTF-8": (1, "utf-8", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(
            tmp, cfg, landmarks=_edited_copy(tmp, root / "target_landmarks.json", "{", '{"café": 0,', "latin-1"))]),
    "curves are not UTF-8": (1, "utf-8", lambda root, cfg, tmp: [
        "select-thickness", "--curves", _edited_copy(tmp, root / "curves.csv", "\n", "\n0,0,café\n", "latin-1")]),
    "curves row without a label": (1, "no label", lambda root, cfg, tmp: [
        "select-thickness", "--curves", _edited_copy(tmp, root / "curves.csv", "\n", "\n0.5,1.0\n")]),
    "two candidates for one sigma": (1, "sigma=0.40", lambda root, cfg, tmp: [
        "select-thickness", "--curves", _curves_with_copy(root, tmp, "sigma=0.8", "sigma=0.40")]),
    "tube sigma is a boolean": (2, "sigma", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, tube={**cfg["tube"], "sigma": True})]),
    "tube support count is a boolean": (2, "support_count", lambda root, cfg, tmp: [
        "validate", "--config", _config_with(tmp, cfg, tube={**cfg["tube"], "support_count": True})]),
    "tube sigma is a string": (2, "sigma", lambda root, cfg, tmp: [
        "gen-tissue", "--config", _config_with(tmp, cfg, tube={**cfg["tube"], "sigma": "0.4"}),
        "--bone-id", "index_distal"]),
    "design springs are strings and booleans": (2, "springs", lambda root, cfg, tmp: [
        "simulate", "--config", _designs_config(tmp, springs=["30", True, 10.0], lengths=["45", 25, 20]),
        "--out", str(tmp / "out")]),
    "design length is a string": (2, "lengths", lambda root, cfg, tmp: [
        "simulate", "--config", _designs_config(tmp, lengths=["45", 25, 20]), "--out", str(tmp / "out")]),
    "design default limit is a boolean": (2, "limits", lambda root, cfg, tmp: [
        "simulate", "--config", _designs_config(tmp, defaults={"limits": [True, 1.9, 1.2]}),
        "--out", str(tmp / "out")]),
    "template bone has no width": (1, "thumb_metacarpal", lambda root, cfg, tmp: [
        "fit-bones", "--config", _config_with(tmp, cfg, template_dir=_template_with_flat_bone(
            root, tmp, "thumb_metacarpal")), "--out", str(tmp / "out")]),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_refused_in_one_line(demo, tmp_path, case):
    root, config = demo
    code, word, argv = MALFORMED[case]
    assert_refused(run(*argv(root, config, tmp_path)), code, word)
