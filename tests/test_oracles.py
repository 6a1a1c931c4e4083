"""Properties that hold the array code to the brute-force oracles in
`oracles.py`: the same self-intersection pair sets, a capped result that is
the sorted prefix, bit-identical ray casts, for the face BVH queries the
bit-identical smallest point-surface distance of a point set and of single
points and winding numbers within 1e-10 with the same containment
decisions, the STL weld and edge counts of the `np.unique(axis=0)` code
they replaced, and the edge table's closure and misoriented-edge verdicts
of the two directed-key tests it replaced.

The array scan sums the Moller-Trumbore dot products in another order than
the oracle's scalar `np.dot`, so the two can disagree where that is pure
rounding: on an edge that lies parallel to the other face's plane (coplanar
pieces of one clipped facet, duplicated shapes), the determinant is noise
and so is each scan's verdict. A pair may differ only in that case, which
is fixed beforehand from float64's epsilon.

The array plane clip must give the oracle's bytes wherever no vertex lies
on the plane. On the plane the oracle duplicates the vertex, and where only
degenerate faces survive it returns an empty mesh where `clip_by_plane`
raises; both are faults the array code mends, so the property draws planes
clear of every vertex and counts an empty oracle result as that error.

A winding number on a closed mesh is an exact integer count of certified
ray crossings, which the oracle's sum approaches up to rounding. A point
with an undecided crossing, which every point on the surface has, and every
point of an open mesh get the oracle's own sum, bit for bit. The properties
allow more than that: values within 1e-10, and a containment decision
`w < 0.5` that may differ where the point lies on the surface (oracle
distance exactly 0), where the exact value can be 1/2, as at a vertex inside
a flat piece of a closed mesh.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from handforge import mesh_io as mio, primitives, tissue_gen as tg
from handforge.errors import MeshInvariantError
from handforge.mesh_io import TriangleMesh

UNCAPPED = 10**9
ROUNDING = 8 * np.finfo(np.float64).eps  # |det| bound, relative to |e1| |d| |e2|
WINDING_TOL = 1e-10

coord = st.floats(-4.0, 4.0, allow_nan=False)
points3 = st.tuples(coord, coord, coord)


@st.composite
def shapes(draw):
    center = draw(points3)
    size = draw(st.floats(0.5, 6.0))
    if draw(st.booleans()):
        return primitives.icosphere(size, draw(st.integers(0, 2)), center)
    return primitives.cube(size, center)


unions = st.lists(shapes(), min_size=1, max_size=4).map(mio.merge_meshes)


@st.composite
def hulls(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return primitives.convex_hull_mesh(rng.normal(size=(draw(st.integers(8, 80)), 3)) * 5.0)


@st.composite
def clipped_hulls(draw):
    """A random convex hull cut by two parallel planes around its centroid,
    as `extract_segment` cuts a skin segment."""
    hull = draw(hulls())
    normal = np.array(draw(points3.filter(lambda n: np.linalg.norm(n) > 0.1)))
    normal /= np.linalg.norm(normal)
    center = hull.vertices.mean(axis=0)
    above, below = draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0))
    seg = primitives.clip_by_plane(hull, center + above * normal, normal)
    return primitives.clip_by_plane(seg, center - below * normal, -normal)


meshes = st.one_of(unions, clipped_hulls())


def edge_parallel_within_rounding(mesh, i, j) -> bool:
    """Does some edge of face i or j lie parallel to the other face's plane
    to within the rounding of the Moller-Trumbore determinant?"""
    tri = mesh.corner_points
    for a, b in ((i, j), (j, i)):
        e1, e2 = tri[b, 1] - tri[b, 0], tri[b, 2] - tri[b, 0]
        for k in range(3):
            d = tri[a, (k + 1) % 3] - tri[a, k]
            scale = np.linalg.norm(e1) * np.linalg.norm(d) * np.linalg.norm(e2)
            if abs(np.dot(e1, np.cross(d, e2))) <= ROUNDING * scale:
                return True
    return False


def assert_matches_oracle(mesh):
    got = tg.find_self_intersections(mesh, max_pairs=UNCAPPED)
    want = oracles.find_self_intersections(mesh, max_pairs=UNCAPPED)
    assert got == sorted(set(got))
    differ = set(got) ^ set(want)
    assert all(edge_parallel_within_rounding(mesh, i, j) for i, j in differ), sorted(differ)


@settings(max_examples=40, deadline=None)
@given(unions)
def test_unions_match_oracle(mesh):
    assert_matches_oracle(mesh)


@settings(max_examples=40, deadline=None)
@given(clipped_hulls())
def test_clipped_hulls_match_oracle(mesh):
    assert_matches_oracle(mesh)


@pytest.mark.xfail(reason="known rounding disagreement; exact predicates would decide it")
def test_clipped_hull_cut_edge_in_a_face_plane():
    """Two faces of a clipped hull that the property above drew. Vertices 2
    and 3 were made by the cut and lie within 1.3e-15 of face 1's plane,
    about epsilon times their coordinates' size. So edge 2-3 is coplanar
    with face 1, and each scan decides the pair from noise: the oracle finds
    a crossing at u = 0.009, the array scan none. The determinant exceeds the
    ROUNDING allowance, which scales with the edge lengths only, by 11 %."""
    vertices = np.array([
        [3.312193164381845, -12.427398897367972, -6.515785123295558],
        [10.144877355052806, -5.092334836785016, -2.6053359993922807],
        [2.7698212206726733, -12.219221332980489, -6.404802074265357],
        [3.08611961362867, -12.374275973697689, -6.487464376726764],
        [0.9091786918159354, -1.2482425109044901, -0.5559840995605934],
        [1.9112757789518928, -11.328617763422454, -4.0075017064837475],
    ])
    assert_matches_oracle(TriangleMesh(vertices, np.array([[2, 3, 5], [4, 1, 0]])))


@settings(max_examples=30, deadline=None)
@given(unions, st.integers(1, 200))
def test_capped_result_is_sorted_prefix(mesh, cap):
    full = tg.find_self_intersections(mesh, max_pairs=UNCAPPED)
    capped = tg.find_self_intersections(mesh, max_pairs=cap)
    assert all(i < j for i, j in full)
    assert full == sorted(full)
    assert capped == full[:cap]
    assert len(capped) == min(len(full), cap)


@settings(max_examples=60, deadline=None)
@given(meshes, points3, points3)
def test_ray_hits_bit_identical(mesh, origin, direction):
    got = primitives.ray_hits(mesh, origin, direction)
    want = oracles.ray_hits(mesh, origin, direction)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def open_patches(draw):
    """A union or clipped hull with a random share of its faces deleted."""
    mesh = draw(meshes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(len(mesh.faces)) >= draw(st.floats(0.05, 0.6))
    keep[rng.integers(len(mesh.faces))] = True
    return TriangleMesh(mesh.vertices, mesh.faces[keep], "patch")


def query_points(mesh, seed, count=120):
    """Up to count mesh vertices and face centroids each, plus count uniform
    points in the mesh's bounding box padded by 1."""
    rng = np.random.default_rng(seed)
    lo, hi = mesh.vertices.min(axis=0) - 1.0, mesh.vertices.max(axis=0) + 1.0
    picks = [rng.permutation(p)[:count] for p in (mesh.vertices, mesh.corner_points.mean(axis=1))]
    return np.vstack(picks + [rng.uniform(lo, hi, size=(count, 3))])


def assert_queries_match_oracle(mesh, points):
    want = oracles.point_surface_distance(mesh, points)
    assert np.float64(primitives.surface_gap(mesh, points)).tobytes() == want.min(initial=np.inf).tobytes()
    for i in np.linspace(0, len(points) - 1, 5).astype(int):
        assert np.float64(primitives.surface_gap(mesh, points[i])).tobytes() == want[i].tobytes()
    on_surface = want == 0.0
    got = primitives.winding_numbers(mesh, points)
    want = oracles.winding_numbers(mesh, points)
    assert np.abs(got - want).max(initial=0.0) <= WINDING_TOL
    flipped = (got < 0.5) != (want < 0.5)
    assert np.all(on_surface[flipped]), points[flipped & ~on_surface]


@settings(max_examples=30, deadline=None)
@given(unions, st.integers(0, 2**32 - 1))
def test_queries_on_unions_match_oracle(mesh, seed):
    assert_queries_match_oracle(mesh, query_points(mesh, seed))


@settings(max_examples=30, deadline=None)
@given(clipped_hulls(), st.integers(0, 2**32 - 1))
def test_queries_on_clipped_hulls_match_oracle(mesh, seed):
    assert_queries_match_oracle(mesh, query_points(mesh, seed))


@settings(max_examples=30, deadline=None)
@given(open_patches(), st.integers(0, 2**32 - 1))
def test_queries_on_open_patches_match_oracle(mesh, seed):
    assert_queries_match_oracle(mesh, query_points(mesh, seed))


def test_queries_on_single_triangle():
    tri = TriangleMesh(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0, 1, 2]]))
    points = np.array([[0.5, 0.25, 0.0], [0.5, 0.25, 1.0], [0.5, 0.25, -1.0], [3.0, 3.0, 0.0],
                       [2.0, 0.0, 0.0], [1.0, 0.5, 0.0], [-1.0, -1.0, 0.5]])
    assert_queries_match_oracle(tri, np.vstack([points, query_points(tri, 0)]))


@pytest.mark.parametrize("kept", [1, 4, 7])
def test_queries_with_padded_leaves(kept):
    # fewer faces than one leaf holds: the rest of the leaf is padding
    cube = primitives.cube(2.0, center=(0.3, -0.2, 0.1))
    patch = TriangleMesh(cube.vertices, cube.faces[:kept])
    assert_queries_match_oracle(patch, query_points(patch, kept))


def test_queries_on_node_box_planes():
    # every corner of every node box lies on three box planes at once
    mesh = primitives.icosphere(3.0, 2, center=(0.5, 0.0, -0.25))
    index = primitives._MeshIndex(mesh)
    corners = np.stack([np.where(np.array(bits, dtype=bool), index.hi[1:], index.lo[1:])  # node 0 is unused
                        for bits in np.ndindex(2, 2, 2)], axis=1).reshape(-1, 3)
    assert_queries_match_oracle(mesh, np.unique(corners[np.isfinite(corners).all(axis=1)], axis=0))


def test_queries_at_vertex_on_another_shapes_edge():
    # shifted along z, the second sphere has vertical edges through vertices
    # of the first: there both sums hinge on the rounding of edge-point terms
    sphere = primitives.icosphere(5.0, 1)
    sphere = TriangleMesh(np.round(sphere.vertices, 8), sphere.faces)
    mesh = mio.merge_meshes([sphere, TriangleMesh(sphere.vertices + [0.0, 0.0, 1.5], sphere.faces)])
    assert_queries_match_oracle(mesh, mesh.vertices)


def test_queries_just_off_a_flat_patch():
    # (3 * 0.1) / 3 != 0.1: every face centroid lies a rounding step off the
    # plane z = 0.1, outside the zero-thickness boxes of the flat nodes
    k = 8
    x, y = np.meshgrid(np.linspace(0.0, 1.0, k + 1), np.linspace(0.0, 1.0, k + 1), indexing="ij")
    idx = np.arange(x.size).reshape(k + 1, k + 1)
    a, b, c, d = (corner.ravel() for corner in (idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]))
    patch = TriangleMesh(np.c_[x.ravel(), y.ravel(), np.full(x.size, 0.1)], np.r_[np.c_[a, b, c], np.c_[a, c, d]])
    centroids = patch.corner_points.mean(axis=1)
    assert np.all(centroids[:, 2] != 0.1)
    assert_queries_match_oracle(patch, centroids)


def test_queries_on_no_points():
    mesh = primitives.icosphere(1.0, 1)
    out = primitives.winding_numbers(mesh, np.zeros((0, 3)))
    assert out.shape == (0,) and out.dtype == np.float64
    assert primitives.surface_gap(mesh, np.zeros((0, 3))) == np.inf


@pytest.mark.parametrize("near_first", [True, False])
def test_gap_with_a_chunk_pruned_entirely(near_first):
    # near first, the bound carried out of the near chunk prunes the whole far
    # chunk at the root; far first, the far chunk's bound carries into the near one
    mesh = primitives.icosphere(2.0, 2, center=(0.5, -0.25, 0.0))
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(2 * primitives._CHUNK, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    near = mesh.vertices.mean(axis=0) + 2.05 * directions[:primitives._CHUNK]
    far = 50.0 + directions[primitives._CHUNK:]
    index = primitives._MeshIndex(mesh)
    assert primitives._box_distance(far, index.lo[1], index.hi[1]).min() > oracles.point_surface_distance(mesh, near).max()
    assert_queries_match_oracle(mesh, np.vstack([near, far] if near_first else [far, near]))


def test_gap_of_points_on_the_surface_is_zero():
    cube = primitives.cube(2.0, center=(0.25, -0.5, 0.125))
    lo, hi = cube.vertices.min(axis=0), cube.vertices.max(axis=0)
    on_faces = np.array([[hi[0], 0.0, 0.0], [0.5, lo[1], -0.25], [0.0, 0.0, hi[2]], *cube.vertices])
    assert np.all(oracles.point_surface_distance(cube, on_faces) == 0.0)
    assert primitives.surface_gap(cube, on_faces) == 0.0
    assert all(primitives.surface_gap(cube, p) == 0.0 for p in on_faces)


def clip_outcome(clip, mesh, point, normal):
    """Output bytes of one clip, or the message of its MeshInvariantError."""
    try:
        out = clip(mesh, point, normal)
    except MeshInvariantError as err:
        return str(err)
    if not len(out.faces):
        return "clip removed the entire mesh"
    return out.vertices.tobytes(), out.faces.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(hulls(), unions, clipped_hulls(), open_patches()),
       st.tuples(*[st.floats(0.0, 1.0)] * 3), points3.filter(lambda n: np.linalg.norm(n) > 0.1))
def test_clip_by_plane_matches_oracle(mesh, where, normal):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    point = lo + np.array(where) * (hi - lo)
    assume(np.all(np.abs((mesh.vertices - point) @ (np.array(normal) / np.linalg.norm(normal))) > 1e-12))
    assert (clip_outcome(primitives.clip_by_plane, mesh, point, normal)
            == clip_outcome(oracles.clip_by_plane, mesh, point, normal))


# Crossings: the ray of `winding_numbers` through a vertex, along an edge or
# in a face's plane, and points on the surface, must leave the crossing
# count undecided and fall back to the solid-angle sum, which is the
# oracle's, bit for bit. RAY has components m / 16, so its small multiples
# below are exact and the degenerate positions are exact too.
RAY = primitives._RAY


def assert_fallback_bit_identical(mesh, points):
    got = primitives.winding_numbers(mesh, points)
    want = oracles.winding_numbers(mesh, points)
    assert got.tobytes() == want.tobytes()


def undecided_rows(mesh, point) -> int:
    tri = mesh.corner_points
    return int(np.isnan(primitives._crossings(np.broadcast_to(point, (len(tri), 3)), *tri.transpose(1, 0, 2))).sum())


def test_crossing_ray_through_cube_corner():
    cube = primitives.cube(2.0)
    cube = TriangleMesh(cube.vertices + (RAY - 1.0), cube.faces)  # corner (1, 1, 1) moves to RAY
    assert np.all(cube.vertices == RAY, axis=1).sum() == 1
    inside, outside = np.zeros(3), -3.0 * RAY  # both rays leave through the corner
    for point in (inside, outside):
        assert undecided_rows(cube, point) > 0
    points = np.array([inside, outside, -RAY])
    assert_fallback_bit_identical(cube, points)
    assert np.array_equal(np.round(oracles.winding_numbers(cube, points)), [1.0, 0.0, 1.0])
    assert_queries_match_oracle(cube, np.vstack([points, query_points(cube, 0)]))


def test_crossing_ray_along_an_edge():
    tet = primitives.convex_hull_mesh(np.array([RAY, 2.0 * RAY, [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]))
    on_edge = 1.5 * RAY
    for point in (np.zeros(3), -RAY, on_edge):  # the ray runs along the edge RAY -> 2 RAY
        assert undecided_rows(tet, point) > 0
    points = np.array([np.zeros(3), -RAY, on_edge, tet.vertices.mean(axis=0)])
    assert_fallback_bit_identical(tet, points[:3])
    assert_queries_match_oracle(tet, np.vstack([points, query_points(tet, 1)]))


def test_crossing_ray_in_a_face_plane():
    # face (2 RAY, RAY + u, RAY - u) spans a plane through 0 that holds the ray
    u, w = np.array([0.5, -0.5, 0.0]), np.array([0.0, 0.5, -0.5])
    tet = primitives.convex_hull_mesh(np.array([2.0 * RAY, RAY + u, RAY - u, RAY + w]))
    for point in (np.zeros(3), -RAY):
        assert undecided_rows(tet, point) > 0
    points = np.array([np.zeros(3), -RAY, tet.vertices.mean(axis=0)])
    assert_fallback_bit_identical(tet, points[:2])
    assert_queries_match_oracle(tet, np.vstack([points, query_points(tet, 2)]))


def test_crossing_point_on_a_face():
    cube = primitives.cube(2.0, center=(0.25, -0.5, 0.125))
    lo, hi = cube.vertices.min(axis=0), cube.vertices.max(axis=0)
    mid = (lo + hi) / 2.0
    on_faces = np.array([[hi[0], mid[1] + 0.25, mid[2] - 0.5], [mid[0] - 0.125, lo[1], mid[2]],
                         [mid[0], mid[1], hi[2]], *cube.vertices])
    assert np.all(oracles.point_surface_distance(cube, on_faces) == 0.0)
    assert_fallback_bit_identical(cube, on_faces)
    sphere = primitives.icosphere(3.0, 2)
    assert_queries_match_oracle(sphere, np.vstack([sphere.vertices, sphere.corner_points.mean(axis=1)]))


def test_crossing_interpenetrating_spheres_count_twice():
    mesh = mio.merge_meshes([primitives.icosphere(10, 3), primitives.icosphere(10, 3, center=(3, 0, 0))])
    lens = np.array([[1.5, 0.0, 0.0], [1.5, 2.0, -1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert np.array_equal(primitives.winding_numbers(mesh, lens), [2.0, 2.0, 2.0, 2.0])
    assert np.abs(oracles.winding_numbers(mesh, lens) - 2.0).max() <= WINDING_TOL
    assert_queries_match_oracle(mesh, np.vstack([lens, query_points(mesh, 3)]))


def test_crossing_reversed_face_takes_the_exact_sum():
    sphere = primitives.icosphere(4.0, 2, center=(0.5, 0.25, -1.0))
    faces = sphere.faces.copy()
    faces[0] = faces[0, ::-1]  # watertight, but three edges have net count +-2
    mesh = TriangleMesh(sphere.vertices, faces)
    assert mio.analyze_mesh(mesh).watertight
    assert_fallback_bit_identical(mesh, query_points(mesh, 4))


@pytest.mark.parametrize("count", [1, primitives._CHUNK - 1, primitives._CHUNK + 1, 2 * primitives._CHUNK + 5])
def test_crossing_point_count_off_the_chunk_size(count):
    mesh = mio.merge_meshes([primitives.icosphere(5.0, 2), primitives.cube(4.0, center=(4.0, 1.0, 0.0))])
    rng = np.random.default_rng(count)
    points = rng.uniform(-6.0, 7.0, size=(count, 3))
    got, want = primitives.winding_numbers(mesh, points), oracles.winding_numbers(mesh, points)
    assert np.array_equal(got, np.round(want)) and np.abs(got - want).max() <= WINDING_TOL


# Weld and edge counts: the sort-based code against the `np.unique(axis=0)`
# code it replaced. Only the sign of a welded zero may differ: the new weld
# keeps the first appearance's.

coordinate = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e7]) | st.floats(-1e3, 1e3)


@st.composite
def soups(draw):
    """Triangle soups whose corners and coordinates repeat."""
    pool = np.array(draw(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=12)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=120))
    return pool[picks[:len(picks) // 3 * 3]].reshape(-1, 3, 3)


def weld_outcome(weld, tris):
    try:
        return weld(tris)
    except MeshInvariantError as err:
        return str(err)


@settings(max_examples=100, deadline=None)
@given(soups())
def test_weld_matches_oracle(tris):
    got, want = weld_outcome(mio._weld, tris), weld_outcome(oracles.weld, tris)
    if isinstance(want, str):
        assert got == want
        return
    assert got.faces.tobytes() == want.faces.tobytes()
    assert np.array_equal(got.vertices, want.vertices)
    flat = tris.reshape(-1, 3)
    first = np.unique(got.faces.ravel(), return_index=True)[1]  # vertex k first appears at flat[first[k]]
    assert got.vertices.tobytes() == flat[first].tobytes()
    if not np.signbit(flat[flat == 0.0]).any():
        assert got.vertices.tobytes() == want.vertices.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1))
def test_edge_counts_match_oracle(vertex_count, seed):
    faces = np.random.default_rng(seed).integers(0, vertex_count, size=(3 * vertex_count, 3))
    (got, net), want = mio._edge_table(faces), oracles.edge_counts(faces)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (not net.any()) == oracles.closed(faces, vertex_count)


@settings(max_examples=100, deadline=None)
@given(meshes, st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
def test_edge_table_orientation_matches_oracle(mesh, seed, share):
    # closed meshes with a random share of their faces reversed
    faces = mesh.faces.copy()
    flip = np.random.default_rng(seed).random(len(faces)) < share
    faces[flip] = faces[flip, ::-1]
    counts, net = mio._edge_table(faces)
    assert np.all(counts == 2)
    assert np.count_nonzero(net) == oracles.misoriented_edges(faces, len(mesh.vertices))
    assert (not net.any()) == oracles.closed(faces, len(mesh.vertices))
