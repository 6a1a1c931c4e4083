import math

import numpy as np
import pytest

from handforge import fixtures, mesh_io as mio, primitives
from handforge.errors import BoneTooShort, BoneTooThin, ZeroReference
from handforge.landmarks import BoneFrame, bone_frame, default_topology, load_landmarks
from handforge.template_match import (
    SimilarityTransform,
    apply_transform,
    estimate_all_transforms,
    estimate_transform,
    place_ligament_holes,
)


def frame(origin, reference, bone_id="test"):
    return BoneFrame(bone_id, np.asarray(origin, float), np.asarray(reference, float))


class TestEstimate:
    def test_quarter_turn_double_scale(self):
        t = estimate_transform(frame((0, 0), (1, 0)), frame((0, 0), (0, 2)))
        assert t.theta == pytest.approx(math.pi / 2)
        assert t.lam == pytest.approx(2.0)
        assert np.allclose(t.translation, 0.0)

    def test_identity(self):
        f = frame((3, 4), (5, -1))
        t = estimate_transform(f, f)
        assert t.theta == 0.0
        assert t.lam == 1.0
        assert np.array_equal(t.translation, np.zeros(3))

    def test_zero_reference(self):
        with pytest.raises(ZeroReference):
            estimate_transform(frame((0, 0), (0, 0)), frame((0, 0), (1, 0)))

    def test_maps_reference_landmark_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            o1, o2 = rng.uniform(-50, 50, (2, 2))
            r1, r2 = rng.uniform(-30, 30, (2, 2))
            if np.linalg.norm(r1) < 1e-3 or np.linalg.norm(r2) < 1e-3:
                continue
            t = estimate_transform(frame(o1, r1), frame(o2, r2))
            assert t.lam == np.linalg.norm(r2) / np.linalg.norm(r1)
            mapped = t.apply_xy(o1 + r1)
            target = o2 + r2
            assert np.linalg.norm(mapped - target) < 1e-9 * max(np.linalg.norm(target), 1.0)
            # origin landmark maps exactly too
            assert np.allclose(t.apply_xy(o1), o2, atol=1e-9)

    def test_composition_recovers_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = frame(rng.uniform(-20, 20, 2), rng.uniform(1, 10, 2))
            t = SimilarityTransform(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.3, 3.0),
                [rng.uniform(-30, 30), rng.uniform(-30, 30), 0.0],
            )
            moved = frame(t.apply_xy(f.origin), t.apply_xy(f.origin + f.reference) - t.apply_xy(f.origin))
            back = estimate_transform(f, moved)
            assert back.theta == pytest.approx(t.theta, abs=1e-9)
            assert back.lam == pytest.approx(t.lam, rel=1e-9)

    def test_theta_normalized(self):
        t = estimate_transform(frame((0, 0), (1, 0)), frame((0, 0), (-1, -1e-9)))
        assert -math.pi < t.theta <= math.pi


class TestApply:
    def test_identity_exact(self, unit_cube):
        t = SimilarityTransform(0.0, 1.0, np.zeros(3))
        out = apply_transform(unit_cube, t)
        assert np.array_equal(out.vertices, unit_cube.vertices)
        assert np.array_equal(out.faces, unit_cube.faces)

    def test_volume_scaling_law(self, unit_cube):
        t = SimilarityTransform(0.0, 2.0, np.zeros(3))
        assert mio.signed_volume(apply_transform(unit_cube, t)) == pytest.approx(8.0, rel=1e-12)

    def test_quarter_turn_point(self):
        t = SimilarityTransform(math.pi / 2, 1.0, np.zeros(3))
        assert np.allclose(t.apply_points([[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_lambda_cubed_random(self, ico5_3):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = SimilarityTransform(rng.uniform(-3, 3), rng.uniform(0.2, 2.5),
                                    [rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0])
            got = mio.signed_volume(apply_transform(ico5_3, t))
            assert got == pytest.approx(t.lam ** 3 * mio.signed_volume(ico5_3), rel=1e-6)


@pytest.fixture(scope="module")
def template_set():
    return fixtures.make_template_set(default_topology())


@pytest.fixture(scope="module")
def topology():
    return default_topology()


def fitted_bones(templates, topology, target):
    """Every template bone fitted as fit-bones fits it: one transform per bone."""
    transforms = estimate_all_transforms(templates, topology, target)
    return {b: apply_transform(templates.meshes[b], t) for b, t in transforms.items()}


class TestFitTemplate:
    def test_identity_fixture(self, template_set, topology):
        fitted = fitted_bones(template_set, topology, template_set.landmarks)
        assert set(fitted) == set(topology.bone_ids)
        for bone_id, mesh in fitted.items():
            assert np.array_equal(mesh.vertices, template_set.meshes[bone_id].vertices)

    def test_uniform_scale_fixture(self, template_set, topology):
        target = fixtures.scaled_landmarks(template_set.landmarks, 1.2)
        fitted = fitted_bones(template_set, topology, target)
        for bone_id, mesh in fitted.items():
            assert np.allclose(mesh.vertices, 1.2 * template_set.meshes[bone_id].vertices,
                               atol=1e-9)

    def test_single_finger_rotation_is_local(self, template_set, topology):
        doc = template_set.landmarks.to_document()
        pivot = np.asarray(doc["index_mcp"])
        ang = math.radians(10)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        for name in ("index_pip", "index_dip", "index_tip"):
            doc[name] = (rot @ (np.asarray(doc[name]) - pivot) + pivot).tolist()
        fitted = fitted_bones(template_set, topology, load_landmarks(doc))
        moved = {"index_proximal", "index_intermediate", "index_distal"}
        for bone_id, mesh in fitted.items():
            same = np.array_equal(mesh.vertices, template_set.meshes[bone_id].vertices)
            assert same != (bone_id in moved)


class TestLigamentHoles:
    def test_cylinder_bone_centers(self):
        bone = primitives.cylinder((0, 5, 0), (0, 35, 0), 4.0)
        f = frame((0, 5), (0, 30), "cyl")
        holes = place_ligament_holes(bone, f)
        assert len(holes) == 2
        ys = sorted(h.center[1] for h in holes)
        assert ys[0] == pytest.approx(5.0 + 2.0, abs=1e-9)
        assert ys[1] == pytest.approx(35.0 - 2.0, abs=1e-9)
        for h in holes:
            assert abs(h.center[0]) < 1e-9
            assert h.diameter == 1.0
            assert h.depth == pytest.approx(8.0, abs=1e-9)  # the bone's width along the drill
            # drill axis runs palm-width-wise: perpendicular to bone and z
            assert abs(np.dot(h.axis, [0, 1, 0])) < 1e-12
            assert abs(h.axis[2]) < 1e-12

    def test_too_short(self):
        bone = primitives.cylinder((0, 0, 0), (0, 3.5, 0), 4.0)
        with pytest.raises(BoneTooShort):
            place_ligament_holes(bone, frame((0, 0), (0, 3.5)))

    def test_no_width_along_the_drill(self):
        # a flat triangle in the plane of the long axis and z: the hole has no depth
        bone = mio.TriangleMesh(np.array([[0.0, 0, 0], [0, 30, 0], [0, 15, 3]]), np.array([[0, 1, 2]]))
        with pytest.raises(BoneTooThin, match="flat_bone"):
            place_ligament_holes(bone, frame((0, 0), (0, 30), "flat_bone"))

    def test_all_template_bones(self, template_set, topology):
        for bone_id in topology.bone_ids:
            f = bone_frame(template_set.landmarks, topology, bone_id)
            holes = place_ligament_holes(template_set.meshes[bone_id], f)
            assert len(holes) == 2
            lo = template_set.meshes[bone_id].vertices.min(axis=0) - 1e-9
            hi = template_set.meshes[bone_id].vertices.max(axis=0) + 1e-9
            for h in holes:
                assert np.all(h.center >= lo) and np.all(h.center <= hi)
