"""Properties that hold the array intersection code to the brute-force
oracles in `oracles.py`: the same self-intersection pair sets, a capped
result that is the sorted prefix, and bit-identical ray casts.

The array scan sums the Moller-Trumbore dot products in another order than
the oracle's scalar `np.dot`, so the two can disagree where that is pure
rounding: on an edge that lies parallel to the other face's plane (coplanar
pieces of one clipped facet, duplicated shapes), the determinant is noise
and so is each scan's verdict. A pair may differ only in that case, which
is fixed beforehand from float64's epsilon.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from handforge import mesh_io as mio, primitives, tissue_gen as tg

UNCAPPED = 10**9
ROUNDING = 8 * np.finfo(np.float64).eps  # |det| bound, relative to |e1| |d| |e2|

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
def clipped_hulls(draw):
    """A random convex hull cut by two parallel planes around its centroid,
    as `extract_segment` cuts a skin segment."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hull = primitives.convex_hull_mesh(rng.normal(size=(draw(st.integers(8, 80)), 3)) * 5.0)
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
