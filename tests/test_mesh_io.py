import struct

import numpy as np
import pytest

from handforge import mesh_io as mio
from handforge import primitives
from handforge.errors import DegenerateVertex, EmptyMesh, MalformedFile
from handforge.mesh_io import TriangleMesh

from conftest import random_soup


def single_triangle_stl_binary():
    header = b"\0" * 80
    body = struct.pack("<I", 1)
    body += struct.pack("<12fH", 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0)
    return header + body


def sorted_geometry(mesh):
    """Face corner coordinates in a welding-independent canonical order."""
    flat = np.sort(mesh.corner_points.reshape(-1, 9), axis=1)
    return flat[np.lexsort(flat.T)]


class TestParse:
    def test_binary_single_triangle(self):
        mesh = mio.parse_mesh(single_triangle_stl_binary(), "stl_binary")
        assert len(mesh.vertices) == 3
        assert len(mesh.faces) == 1

    def test_auto_detects_binary(self):
        mesh = mio.parse_mesh(single_triangle_stl_binary(), "auto")
        assert len(mesh.faces) == 1

    def test_ascii_cube_welds_to_8_vertices(self, unit_cube):
        data = mio.write_mesh(unit_cube, "stl_ascii")
        mesh = mio.parse_mesh(data, "stl_ascii")
        assert len(mesh.faces) == 12
        assert len(mesh.vertices) == 8
        # welding oracle: exact coordinate dedup of the 36 facet vertices
        raw = unit_cube.corner_points.reshape(-1, 3)
        assert len(np.unique(raw, axis=0)) == 8

    def test_obj_out_of_range_index(self):
        data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"
        with pytest.raises(MalformedFile, match="out of range"):
            mio.parse_mesh(data, "obj")

    def test_obj_negative_and_slash_indices(self):
        data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 2/1 3/1/1\n"
        mesh = mio.parse_mesh(data, "obj")
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_obj_unknown_records_warn(self):
        data = b"vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
        with pytest.warns(UserWarning, match="ignored"):
            mio.parse_mesh(data, "obj")

    def test_truncated_binary(self):
        with pytest.raises(MalformedFile, match="truncated"):
            mio.parse_mesh(single_triangle_stl_binary()[:-10], "stl_binary")

    def test_nonnumeric_ascii_field(self):
        data = (
            b"solid t\nfacet normal 0 0 1\nouter loop\n"
            b"vertex 0 0 zero\nvertex 1 0 0\nvertex 0 1 0\n"
            b"endloop\nendfacet\nendsolid t\n"
        )
        with pytest.raises(MalformedFile, match="line 4"):
            mio.parse_mesh(data, "stl_ascii")

    def test_zero_faces(self):
        with pytest.raises(EmptyMesh):
            mio.parse_mesh(b"\0" * 80 + struct.pack("<I", 0), "stl_binary")
        with pytest.raises(EmptyMesh):
            mio.parse_mesh(b"v 0 0 0\nv 1 0 0\n", "obj")

    def test_empty_input(self):
        with pytest.raises(MalformedFile):
            mio.parse_mesh(b"", "auto")


class TestWrite:
    def test_binary_size_arithmetic(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        data = mio.write_mesh(mesh, "stl_binary")
        assert len(data) == 84 + 50
        (count,) = struct.unpack_from("<I", data, 80)
        assert count == 1

    def test_cube_roundtrip_binary(self, unit_cube):
        back = mio.parse_mesh(mio.write_mesh(unit_cube, "stl_binary"), "stl_binary")
        assert np.array_equal(sorted_geometry(back), sorted_geometry(unit_cube))

    @pytest.mark.parametrize("fmt", ["stl_binary", "stl_ascii"])
    def test_cube_named_like_ascii_roundtrip_auto(self, unit_cube, fmt):
        # the binary header holds the name, so it may start with "solid" and say "facet"
        named = TriangleMesh(unit_cube.vertices, unit_cube.faces, "solid exported facets")
        back = mio.parse_mesh(mio.write_mesh(named, fmt))
        assert np.array_equal(sorted_geometry(back), sorted_geometry(unit_cube))

    def test_cube_roundtrip_obj(self, unit_cube):
        back = mio.parse_mesh(mio.write_mesh(unit_cube, "obj"), "obj")
        assert np.array_equal(back.faces, unit_cube.faces)
        assert np.allclose(back.vertices, unit_cube.vertices, atol=1e-6)

    def test_roundtrip_random_meshes_all_formats(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mesh = random_soup(rng)
            for fmt in ("stl_binary", "stl_ascii", "obj"):
                back = mio.parse_mesh(mio.write_mesh(mesh, fmt), fmt)
                ref = mesh
                if fmt == "stl_binary":
                    ref = TriangleMesh(mesh.vertices.astype(np.float32).astype(np.float64), mesh.faces)
                assert np.allclose(
                    sorted_geometry(back), sorted_geometry(ref), atol=1e-6
                ), fmt

    def test_binary_write_deterministic(self, ico5_3):
        assert mio.write_mesh(ico5_3, "stl_binary") == mio.write_mesh(ico5_3, "stl_binary")


class TestSignedVolume:
    def test_unit_cube(self, unit_cube):
        assert mio.signed_volume(unit_cube) == pytest.approx(1.0, abs=1e-9)

    def test_flipped_cube(self, unit_cube):
        assert mio.signed_volume(unit_cube.flipped()) == pytest.approx(-1.0, abs=1e-9)

    def test_icosphere_matches_analytic(self, ico10_4):
        exact = 4.0 / 3.0 * np.pi * 1000.0
        assert mio.signed_volume(ico10_4) == pytest.approx(exact, rel=5e-3)

    def test_additive_under_disjoint_union(self, unit_cube):
        other = primitives.cube(2.0, center=(10.0, 0.0, 0.0))
        merged = mio.merge_meshes([unit_cube, other])
        assert mio.signed_volume(merged) == pytest.approx(
            mio.signed_volume(unit_cube) + mio.signed_volume(other), rel=1e-12
        )

    def test_translation_invariant_when_closed(self, ico5_3):
        moved = TriangleMesh(ico5_3.vertices + [31.0, -7.0, 13.0], ico5_3.faces)
        assert mio.signed_volume(moved) == pytest.approx(mio.signed_volume(ico5_3), rel=1e-9)


class TestAnalyze:
    def test_closed_cube(self, unit_cube):
        rep = mio.analyze_mesh(unit_cube)
        assert rep.watertight
        assert rep.boundary_edge_count == 0
        assert rep.non_manifold_edge_count == 0
        assert rep.bbox == ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_cube_minus_one_face(self, unit_cube):
        open_cube = TriangleMesh(unit_cube.vertices, unit_cube.faces[1:])
        rep = mio.analyze_mesh(open_cube)
        assert not rep.watertight
        assert rep.boundary_edge_count == 3

    def test_open_strip(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2]]
        )
        assert mio.analyze_mesh(mesh).boundary_edge_count == 4

    def test_icosphere_watertight_all_levels(self):
        for level in range(3):
            assert mio.analyze_mesh(primitives.icosphere(1.0, level)).watertight


class TestVertexNormals:
    def test_icosphere_normals_radial(self, ico10_4):
        normals = mio.vertex_normals(ico10_4)
        radial = ico10_4.vertices / 10.0
        angles = np.arccos(np.clip(np.sum(normals * radial, axis=1), -1, 1))
        assert angles.max() < 1e-3 * 10  # coarse mesh; fine meshes tighten

    def test_icosphere_fine_normals_radial(self):
        mesh = primitives.icosphere(10.0, 7)
        normals = mio.vertex_normals(mesh)
        radial = mesh.vertices / 10.0
        angles = np.arccos(np.clip(np.sum(normals * radial, axis=1), -1, 1))
        assert angles.max() < 1e-3

    def test_flat_fan(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]],
            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]],
        )
        assert np.allclose(mio.vertex_normals(mesh), [0.0, 0.0, 1.0], atol=1e-12)

    def test_cancelling_faces_degenerate(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 1]])
        with pytest.raises(DegenerateVertex):
            mio.vertex_normals(mesh)

    def test_unit_length(self, ico5_3):
        norms = np.linalg.norm(mio.vertex_normals(ico5_3), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)


class TestComponents:
    def test_split_two_spheres(self, ico5_3):
        other = primitives.icosphere(2.0, 2, center=(20, 0, 0))
        comps = mio.connected_components(mio.merge_meshes([ico5_3, other]))
        assert len(comps) == 2
        assert {len(c.faces) for c in comps} == {len(ico5_3.faces), len(other.faces)}
