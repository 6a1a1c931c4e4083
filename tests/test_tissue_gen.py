import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from handforge import mesh_io as mio, primitives, tissue_gen as tg
from handforge.errors import ContainmentError, GapTooSmall, MeshInvariantError, PlacementFailure
from handforge.mesh_io import TriangleMesh
from handforge.tissue_gen import SelfIntersectionWarning, TubeSpec


SMALL_BONE = primitives.icosphere(1.0, 1)  # deep inside the merged skins, so its wall has no folds


def sphere_volume(r):
    return 4.0 / 3.0 * np.pi * r ** 3


@pytest.fixture(scope="module")
def skin():
    return primitives.icosphere(10.0, 4)


@pytest.fixture(scope="module")
def bone():
    return primitives.icosphere(5.0, 3)


class TestOffsetSurface:
    def test_zero_delta_is_copy(self, skin):
        out = tg.offset_surface(skin, 0.0)
        assert np.array_equal(out.vertices, skin.vertices)
        assert out.vertices is not skin.vertices

    def test_inward_sphere_radii(self, ico10_6):
        out = tg.offset_surface(ico10_6, -0.4)
        radii = np.linalg.norm(out.vertices, axis=1)
        assert np.abs(radii - 9.6).max() < 1e-6

    def test_inward_sphere_volume(self, ico10_6):
        got = mio.signed_volume(tg.offset_surface(ico10_6, -0.4))
        assert got == pytest.approx(sphere_volume(9.6), rel=5e-3)

    def test_outward_sphere_volume(self, ico10_6):
        got = mio.signed_volume(tg.offset_surface(ico10_6, 0.4))
        assert got == pytest.approx(sphere_volume(10.4), rel=5e-3)

    def test_offsets_compose(self, skin):
        a = tg.offset_surface(tg.offset_surface(skin, -0.3), -0.5)
        b = tg.offset_surface(skin, -0.8)
        # sphere normals stay nearly radial under offsetting, so deltas add
        assert np.abs(a.vertices - b.vertices).max() < 1e-3


class TestSelfIntersections:
    def test_crossing_triangles_found(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [4, 0, 0], [0, 4, 0],
             [1, 1, -1], [1, 1, 1], [3, 3, 0.5]],
            [[0, 1, 2], [3, 4, 5]],
        )
        assert tg.find_self_intersections(mesh) == [(0, 1)]

    def test_clean_sphere_has_none(self, bone):
        assert tg.find_self_intersections(bone) == []

    def test_adjacent_faces_not_reported(self, unit_cube):
        assert tg.find_self_intersections(unit_cube) == []

    def test_piercing_union_reported_with_pairs(self, bone):
        spike = primitives.cube(2.0, center=(5.0, 0.0, 0.0))
        merged = mio.merge_meshes([bone, spike])
        pairs = tg.find_self_intersections(merged)
        assert len(pairs) > 0
        n_sphere = len(bone.faces)
        assert all((i < n_sphere) != (j < n_sphere) for i, j in pairs)

    def test_warning_carries_pairs(self):
        base = primitives.icosphere(10.0, 3)
        spike = primitives.cube(2.0, center=(10.0, 0.0, 0.0))
        merged = mio.merge_meshes([base, spike])
        with pytest.warns(SelfIntersectionWarning) as rec:
            tg.build_concentric_tube(merged, SMALL_BONE, TubeSpec(sigma=1e-6, support_count=0))
        assert len(rec[0].message.pairs) > 0

    @pytest.mark.parametrize("other, capped", [
        (primitives.cube(2.0, center=(10.0, 0.0, 0.0)), False),
        (primitives.icosphere(10.0, 3, center=(3.0, 0.1, 0.2)), True),
    ])
    def test_warning_count_marks_cap(self, other, capped):
        merged = mio.merge_meshes([primitives.icosphere(10.0, 3), other])
        with pytest.warns(SelfIntersectionWarning) as rec:
            tg.build_concentric_tube(merged, SMALL_BONE, TubeSpec(sigma=1e-6, support_count=0))
        n = len(rec[0].message.pairs)
        assert (n == 100) == capped
        assert f"at {n}{'+' if capped else ''} face pairs" in str(rec[0].message)


class TestBuildTube:
    def test_shell_volume_vs_analytic(self, ico10_4, bone):
        spec = TubeSpec(sigma=0.4, support_count=0)
        shell = tg.build_concentric_tube(ico10_4, bone, spec)
        expected = sphere_volume(9.6) - sphere_volume(5.4)
        assert shell.material_volume_mm3 == pytest.approx(expected, rel=1e-2)

    def test_winding_orientation(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=0))
        assert mio.signed_volume(shell.outer) > 0
        assert mio.signed_volume(shell.inner) < 0

    def test_midgap_point_inside_material(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=0))
        merged = mio.merge_meshes([shell.outer, shell.inner])
        w = primitives.winding_numbers(merged, np.array([[7.5, 0.0, 0.0]]))
        assert w[0] == pytest.approx(1.0, abs=1e-6)
        w_cavity = primitives.winding_numbers(merged, np.array([[0.0, 0.0, 0.0]]))
        assert w_cavity[0] == pytest.approx(0.0, abs=1e-6)

    def test_gap_too_small(self, skin, bone):
        # min gap is 5 mm, so sigma >= 2.5 cannot leave any wall separation
        with pytest.raises(GapTooSmall):
            tg.build_concentric_tube(skin, bone, TubeSpec(sigma=2.5, support_count=0))

    def test_bone_outside_skin(self, skin):
        stray = primitives.icosphere(5.0, 3, center=(20.0, 0.0, 0.0))
        with pytest.raises(ContainmentError):
            tg.build_concentric_tube(skin, stray, TubeSpec(sigma=0.4, support_count=0))

    def test_every_bone_vertex_checked(self, ico10_4):
        # one of 2,562 vertices pokes through the 10 mm skin
        stray = primitives.icosphere(5.0, 4)
        stray.vertices[0] *= 12.0 / 5.0
        with pytest.raises(ContainmentError):
            tg.build_concentric_tube(ico10_4, stray, TubeSpec(sigma=0.4, support_count=0))

    def test_hollow_lighter_than_solid(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4))
        assert shell.material_volume_mm3 < tg.solid_gap_volume(ico10_4, bone)

    def test_volume_decreases_with_sigma(self, ico10_4, bone):
        volumes = []
        for sigma in (0.3, 0.4, 0.5, 0.6, 0.8):
            shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=sigma, support_count=0))
            volumes.append(shell.material_volume_mm3)
        assert all(a > b for a, b in zip(volumes, volumes[1:]))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TubeSpec(sigma=0.0)
        with pytest.raises(ValueError):
            TubeSpec(sigma=0.4, support_count=-1)

    @pytest.mark.parametrize("field, value", [
        ("sigma", float("inf")), ("sigma", float("nan")),
        ("support_radius", float("inf")), ("support_radius", float("nan")),
        ("support_count", float("inf")), ("support_count", 2.5),
    ])
    def test_non_finite_spec(self, field, value):
        with pytest.raises(ValueError, match=field):
            TubeSpec(**{"sigma": 0.4, field: value})

    @pytest.mark.parametrize("role", ["skin segment", "bone"])
    def test_misoriented_mesh_rejected(self, ico10_4, bone, role):
        # one reversed face keeps the mesh watertight but turns its 3 edges
        # the same way as their neighbours' edges
        mesh = ico10_4 if role == "skin segment" else bone
        faces = mesh.faces.copy()
        faces[0] = faces[0, ::-1]
        bad = TriangleMesh(mesh.vertices, faces)
        assert mio.analyze_mesh(bad).watertight
        skin, inner = (bad, bone) if role == "skin segment" else (ico10_4, bad)
        with pytest.raises(MeshInvariantError, match=rf"{role} mesh is not consistently oriented \(3 directed"):
            tg.build_concentric_tube(skin, inner, TubeSpec(sigma=0.4, support_count=0))


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q * np.linalg.det(q)  # det +1 keeps the winding


@st.composite
def skins_and_bones(draw):
    """A bumpy star-shaped closed skin around a random ellipsoid bone,
    sometimes cut by a plane that passes beyond the bone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rot = _random_rotation(rng)
    axes = rng.uniform(1.0, 3.0, 3)
    unit = primitives.icosphere(1.0, 2)
    bone = TriangleMesh(unit.vertices * axes @ rot.T, unit.faces, "bone")
    skin = primitives.icosphere(1.0, 3)
    d = skin.vertices
    radius = rng.uniform(6.0, 10.0) * (1.0 + rng.uniform(-0.02, 0.02, len(d)))
    for _ in range(draw(st.integers(0, 4))):  # smooth bumps of up to 25 % in all
        radius *= 1.0 + rng.uniform(-0.06, 0.06) * np.cos(d @ rng.normal(size=3) * 2.0 + rng.uniform(0, 6.3))
    skin = TriangleMesh(d * radius[:, None], skin.faces, "skin")
    if draw(st.booleans()):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        reach = float((bone.vertices @ normal).max())  # the bone's extent along the normal
        skin = primitives.clip_by_plane(skin, (reach + rng.uniform(0.2, 1.5)) * normal, normal)
    return skin, bone


@settings(max_examples=40, deadline=None)
@given(skins_and_bones(), st.one_of(st.just(1.0 - 1e-6), st.floats(0.01, 1.0 - 1e-6)))
def test_inner_wall_inside_outer_wall(skin_and_bone, u):
    # the invariant build_concentric_tube states instead of checking it
    skin, bone = skin_and_bone
    gap = primitives.surface_gap(skin, bone.vertices)
    shell = tg.build_concentric_tube(skin, bone, TubeSpec(sigma=u * gap / 2.0, support_count=0))
    w = oracles.winding_numbers(shell.outer, shell.inner.flipped().vertices)
    assert w.min() >= 0.5


class TestSupports:
    def test_strut_volume_vs_analytic(self, ico10_4, bone):
        spec = TubeSpec(sigma=0.4, support_count=4, support_radius=0.5)
        bare = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=0))
        shell = tg.build_concentric_tube(ico10_4, bone, spec)
        added = shell.material_volume_mm3 - bare.material_volume_mm3
        # each strut spans the 4.2 mm radial gap between the offset walls
        expected = 4 * np.pi * 0.5 ** 2 * 4.2
        assert added == pytest.approx(expected, rel=0.1)

    def test_zero_supports_unchanged(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=0))
        assert len(shell.supports.faces) == 0
        assert tg.add_supports(shell, TubeSpec(sigma=0.4, support_count=0)) is shell

    def test_struts_touch_both_walls(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=4))
        radii = np.linalg.norm(shell.supports.vertices, axis=1)
        assert radii.min() < 5.4 + 0.6
        assert radii.max() > 9.6 - 0.6

    def test_struts_radial_on_short_wide_segment(self):
        # the segment is 16 mm long and 24 mm wide, so its longest box side
        # is not the bone axis; every strut must still leave that axis at
        # right angles and end between the cut planes
        skin = primitives.capsule((0, -30, 0), (0, 30, 0), 12.0)
        bone = primitives.capsule((0, -3, 0), (0, 3, 0), 3.0)
        seg = tg.extract_segment(skin, bone)
        shell = tg.build_concentric_tube(seg, bone, TubeSpec(sigma=0.4, support_count=4))
        ends = shell.supports.vertices.reshape(4, -1, 3)[:, -2:]  # each cylinder's p0, p1 come last
        direction = ends[:, 1] - ends[:, 0]
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        assert np.abs(direction[:, 1]).max() <= 1e-9
        ys = seg.vertices[:, 1]
        assert np.all((ends[..., 1] > ys.min()) & (ends[..., 1] < ys.max()))

    def test_no_gap_placement_failure(self, ico10_4):
        # inner wall coincides with outer wall: rays find no span between them
        shell = tg.ShellModel(outer=ico10_4, inner=ico10_4.flipped())
        with pytest.raises(PlacementFailure):
            tg.add_supports(shell, TubeSpec(sigma=0.4, support_count=4))


class TestReportAndExport:
    def test_bookkeeping_identity(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4))
        rep = tg.shell_report(shell, tg.solid_gap_volume(ico10_4, bone))
        total = rep["outer_volume_mm3"] + rep["inner_volume_mm3"] + rep["support_volume_mm3"]
        assert rep["material_volume_mm3"] == pytest.approx(total, rel=1e-12)
        assert rep["material_volume_ml"] == pytest.approx(rep["material_volume_mm3"] / 1000.0)
        assert rep["solid_volume_ml"] == pytest.approx(rep["solid_volume_mm3"] / 1000.0)

    def test_export_components_no_supports(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=0))
        files = tg.export_shell(shell, tg.solid_gap_volume(ico10_4, bone))
        mesh = mio.parse_mesh(files["shell.stl"], "stl_binary")
        comps = mio.connected_components(mesh)
        assert len(comps) == 2
        for comp in comps:
            assert mio.analyze_mesh(comp).watertight

    def test_export_components_with_supports(self, ico10_4, bone):
        shell = tg.build_concentric_tube(ico10_4, bone, TubeSpec(sigma=0.4, support_count=4))
        files = tg.export_shell(shell, tg.solid_gap_volume(ico10_4, bone))
        mesh = mio.parse_mesh(files["shell.stl"], "stl_binary")
        comps = mio.connected_components(mesh)
        assert len(comps) == 6
        for comp in comps:
            assert mio.analyze_mesh(comp).watertight
        rep = json.loads(files["report.json"])
        assert rep["solid_volume_mm3"] > rep["material_volume_mm3"]


class TestClipByPlane:
    @pytest.mark.parametrize("mesh, normal", [
        (primitives.icosphere(1.0, 2), (0.0, 0.0, 1.0)),
        (primitives.icosphere(1.0, 2), (1.0, 0.0, 0.0)),
        (primitives.cube(1.0), (1.0, -1.0, 0.0)),  # x = y holds 4 corners
    ])
    def test_cut_through_vertices_shares_them(self, mesh, normal):
        half = primitives.clip_by_plane(mesh, (0.0, 0.0, 0.0), normal)
        assert mio.analyze_mesh(half).watertight
        assert len(np.unique(half.vertices, axis=0)) == len(half.vertices)
        assert mio.signed_volume(half) == pytest.approx(mio.signed_volume(mesh) / 2, abs=1e-12)

    @pytest.mark.parametrize("mesh", [primitives.cube(1.0), primitives.icosphere(1.0, 2)])
    def test_plane_touching_one_vertex_removes_all(self, mesh):
        # keeps only vertex 0: every face left around it is degenerate
        corner = mesh.vertices[0]
        with pytest.raises(MeshInvariantError, match="clip removed the entire mesh"):
            primitives.clip_by_plane(mesh, corner, -corner)


class TestExtractSegment:
    def test_capsule_segment_spans_bone(self):
        skin = primitives.capsule((0, -30, 0), (0, 30, 0), 12.0)
        bone = primitives.capsule((0, -5, 0), (0, 5, 0), 3.0)
        seg = tg.extract_segment(skin, bone)
        assert mio.analyze_mesh(seg).watertight
        ys = seg.vertices[:, 1]
        assert ys.min() == pytest.approx(-5.0 - 3.0 - 2.0, abs=1e-6)
        assert ys.max() == pytest.approx(5.0 + 3.0 + 2.0, abs=1e-6)

    def test_segment_feeds_tube_builder(self):
        skin = primitives.capsule((0, -30, 0), (0, 30, 0), 12.0)
        bone = primitives.capsule((0, -5, 0), (0, 5, 0), 3.0)
        seg = tg.extract_segment(skin, bone)
        shell = tg.build_concentric_tube(seg, bone, TubeSpec(sigma=0.4))
        assert shell.material_volume_mm3 > 0
        assert shell.material_volume_mm3 < tg.solid_gap_volume(seg, bone)
