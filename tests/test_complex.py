import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from declab import complex as complex_module
from declab import geometry
from declab.complex import _audit_conformity, _ball_members, build_complex, cell_orientation
from declab.errors import DegenerateSimplexError, MeshError, NonConformingError, ids
from declab.generators import FamilySpec, generate, jitter_interior, refine
import kernel_oracles
from strategies import jittered_wheels


def brute_force_faces(cells, k):
    """Oracle: all distinct k-faces as sorted tuples, by direct enumeration."""
    out = set()
    for cell in cells:
        for sub in combinations(sorted(cell), k + 1):
            out.add(sub)
    return sorted(out)


def test_single_triangle_closure(right_triangle):
    cx = right_triangle
    assert (cx.num(0), cx.num(1), cx.num(2)) == (3, 3, 1)
    assert cx.orientation[2][0] == 1  # already positively oriented


def test_coords_of_equals_the_fancy_index():
    cx = generate(FamilySpec("pentagon_wheel", level=3))
    rng = np.random.default_rng(5)
    for k in range(3):
        n = cx.num(k)
        for idx in (rng.integers(0, n, 17), slice(3, n - 2), rng.random(n) < 0.4):
            want = cx.vertices[cx.simplices[k][idx]]
            got = cx.coords_of(k, idx)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_two_triangles_sharing_edge():
    cx = build_complex(2, [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
    assert (cx.num(0), cx.num(1), cx.num(2)) == (4, 5, 2)


def test_pentagon_wheel_counts_and_euler():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    cells = cx.simplices[2].tolist()
    for k in range(3):
        assert cx.simplices[k].tolist() == [list(t) for t in brute_force_faces(cells, k)]
    v, e, f = cx.num(0), cx.num(1), cx.num(2)
    assert (v, e, f) == (6, 10, 5)
    assert v - e + f == 1  # disk


def test_negative_cells_reoriented():
    cx = build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    # stored sorted with sign +1: sorted (0,1,2) has positive volume
    assert cx.orientation[2][0] == 1
    cx2 = build_complex(2, [(0, 0), (0, 1), (1, 0)], [(0, 1, 2)])
    assert cx2.orientation[2][0] == -1  # sorted order is negatively oriented


def test_boundary_matrix_alternating_signs(right_triangle):
    cx = right_triangle
    col = cx.boundary_matrix(2)[:, 0].toarray().ravel()
    # drop v0 -> (1,2), drop v1 -> (0,2), drop v2 -> (0,1)
    by_face = {tuple(cx.simplices[1][f]): int(col[f]) for f in range(cx.num(1))}
    assert by_face == {(1, 2): 1, (0, 2): -1, (0, 1): 1}
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    assert cx.boundary_matrix(1)[:, e01].toarray().ravel().tolist() == [-1, 1, 0]  # v1 - v0


def test_boundary_of_boundary_of_triangle_is_zero(right_triangle):
    cx = right_triangle
    col = cx.boundary_matrix(1) @ cx.boundary_matrix(2)[:, 0]
    assert not col.toarray().any()


def test_boundary_matrix_single_triangle(right_triangle):
    col = right_triangle.boundary_matrix(2).toarray().ravel()
    assert sorted(col.tolist()) == [-1, 1, 1]


def test_boundary_matrices_compose_to_zero_exactly():
    for fam, kw in (("pentagon_wheel", {}), ("square", {"pattern": 3}),
                    ("corner", {}), ("cube_kuhn", {})):
        cx = generate(FamilySpec(fam, level=1, **kw))
        for k in range(2, cx.dim + 1):
            prod = cx.boundary_matrix(k - 1) @ cx.boundary_matrix(k)
            assert prod.nnz == 0 or not prod.toarray().any()
            assert prod.dtype == np.int64


def test_pentagon_boundary_matrix_shape_and_column_count():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    b1 = cx.boundary_matrix(1)
    assert b1.shape == (6, 10)
    nnz_per_col = np.diff(b1.tocsc().indptr)
    assert np.all(nnz_per_col == 2)  # brute force: every edge has two endpoints


def test_incidence_closure_consistency():
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    for k in range(1, cx.dim + 1):
        faces = cx.faces[k]
        assert faces.min() >= 0
        assert faces.max() < cx.num(k - 1)


ALL_FAMILIES = [FamilySpec("pentagon_wheel"), FamilySpec("corner"),
                *[FamilySpec("square", pattern=p) for p in (1, 2, 3)], FamilySpec("cube_kuhn")]


@pytest.mark.parametrize("spec", ALL_FAMILIES,
                         ids=["pentagon", "corner", "square1", "square2", "square3", "cube"])
@pytest.mark.parametrize("level", [0, 2])
def test_edge_faces_are_the_reversed_edge_rows(spec, level):
    # level 0 comes from build_complex, level 2 from refine; neither stores faces[1]
    cx = generate(dataclasses.replace(spec, level=level))
    # the old lattice: dropping position i of each edge, deduplicated
    edges = cx.simplices[1]
    sub = np.empty((2 * len(edges), 1), dtype=np.int32)
    sub[0::2], sub[1::2] = edges[:, 1:], edges[:, :1]
    vertices, inv = complex_module._unique_rows(sub)
    assert np.array_equal(vertices, cx.simplices[0])
    assert np.array_equal(cx.faces[1], inv.reshape(-1, 2))
    assert cx.faces[1].dtype == np.int32 and not cx.faces[1].flags.writeable
    assert np.shares_memory(cx.faces[1], edges)


def test_shape_report_equilateral():
    s3 = math.sqrt(3)
    cx = build_complex(2, [(0, 0), (1, 0), (0.5, s3 / 2)], [(0, 1, 2)])
    rep = cx.shape_report()
    assert rep.c_reg == pytest.approx(2 * s3, rel=1e-12)
    assert rep.well_centered == "strict"


def test_shape_report_right_triangle_weak(right_triangle):
    rep = right_triangle.shape_report()
    assert rep.well_centered == "weak"
    assert rep.h == pytest.approx(math.sqrt(2))


def test_shape_report_violated_for_obtuse():
    cx = build_complex(2, [(0, 0), (4, 0), (2, 0.5)], [(0, 1, 2)])
    assert cx.shape_report().well_centered == "violated"


@settings(deadline=None, max_examples=30)
@given(cx=jittered_wheels | st.integers(0, 2).map(
           lambda level: generate(FamilySpec("cube_kuhn", level))),
       block_nodes=st.integers(0, 60).map(lambda i: 2 * i + 1))
def test_blocked_shape_report_equals_one_block(cx, block_nodes):
    # rows of 2, 3 or 4 points: odd block sizes give ragged blocks of
    # block_nodes // width rows, down to one row, and a partial last block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK_NODES", 1 << 62)
        whole = cx.shape_report()
        mp.setattr(geometry, "BLOCK_NODES", block_nodes)
        blocked = cx.shape_report()
    assert dataclasses.astuple(blocked) == dataclasses.astuple(whole)


def test_star_bound_sequence_across_levels():
    # frozen from exhaustive per-level coface counting: 5 at level 0 (hub),
    # then 6 once spoke midpoints appear, constant afterwards
    observed = []
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    for _ in range(6):
        observed.append(cx.shape_report().star_bound)
        cx = refine(cx)
    assert observed == [5, 6, 6, 6, 6, 6]


def test_c_reg_constant_across_levels():
    vals = []
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    for _ in range(4):
        vals.append(cx.shape_report().c_reg)
        cx = refine(cx)
    assert np.allclose(vals, vals[0], rtol=1e-9)  # medial children are similar


def test_degenerate_cell_rejected():
    with pytest.raises(DegenerateSimplexError, match="degenerate cell"):
        build_complex(2, [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_duplicate_cell_rejected():
    with pytest.raises(NonConformingError, match="duplicate cell"):
        build_complex(2, [(0, 0), (1, 0), (0, 1), (1, 1)],
                      [(0, 1, 2), (2, 1, 0)])


def test_duplicate_cell_message_names_first_pair():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cells = [(1, 2, 3), (0, 1, 2), (3, 2, 1), (2, 1, 0), (1, 3, 2)]
    with pytest.raises(NonConformingError, match=r"at positions 0 and 2$"):
        build_complex(2, verts, cells)


def test_hanging_vertex_rejected():
    # vertex 3 sits on the interior of the first triangle's edge
    verts = [(0, 0), (2, 0), (0, 2), (1, 0), (3, -1)]
    with pytest.raises(NonConformingError, match="non-conforming"):
        build_complex(2, verts, [(0, 1, 2), (3, 4, 1)])


def test_duplicate_coordinates_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (1e-12, 0)]
    with pytest.raises(NonConformingError, match="coincide"):
        build_complex(2, verts, [(0, 1, 2), (3, 1, 2)])


def _overlay(level):
    """A corner mesh with one extra triangle whose corners are the centroids
    of cells 70, 30 and 50: three foreign vertices inside cells of the mesh,
    found first in cell 30."""
    cx = generate(FamilySpec("corner", level))
    nv = cx.num(0)
    centroids = cx.vertices[cx.simplices[2][[70, 30, 50]]].mean(axis=1)
    verts = np.concatenate([cx.vertices, centroids])
    cells = np.concatenate([cx.simplices[2], [(nv, nv + 1, nv + 2)]])
    return verts, cells, (f"vertex {nv + 1} lies inside cell {ids(cx.simplices[2][30])}: "
                          "non-conforming intersection")


@pytest.mark.parametrize("verts, cells, message", [
    ([(0, 0), (2, 0), (0, 2), (1, 0), (3, -1)], [(0, 1, 2), (3, 4, 1)],
     "vertex 3 lies inside cell (0, 1, 2): non-conforming intersection"),
    ([(0, 0), (1, 0), (0, 1), (1e-12, 0)], [(0, 1, 2), (3, 1, 2)],
     "vertices 0 and 3 coincide within tolerance; cells meeting there "
     "cannot intersect in a common face"),
    _overlay(3),
    # pairs (1, 3) and (2, 6), each across two cells
    ([(0, 0), (1, 0), (0, 1), (1 + 1e-12, 0), (2, 0), (2, 1), (0, 1 + 1e-12), (0, 2), (-1, 2)],
     [(6, 7, 8), (3, 4, 5), (0, 1, 2)],
     "vertices 1 and 3 coincide within tolerance; cells meeting there "
     "cannot intersect in a common face"),
    # an edge of 1e-11 against tol = 1e-9 passes the degeneracy test
    ([(0, 0), (1, 0), (1, 1e-11)], [(0, 1, 2)],
     "vertices 1 and 2 coincide within tolerance; cells meeting there "
     "cannot intersect in a common face"),
], ids=["vertex_in_cell", "coincident_vertices", "first_of_three_in_cell_order",
        "smaller_of_two_coincident_pairs", "coincident_ends_of_an_edge"])
def test_conformity_message_is_alike_at_every_block_size(monkeypatch, verts, cells, message):
    # blocks of 3 nodes hold one triangle, of 64 nodes 21 triangles
    for block_nodes in (3, 64, 1 << 62):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        with pytest.raises(NonConformingError) as info:
            build_complex(2, verts, cells)
        assert str(info.value) == message, block_nodes


def test_conforming_mesh_passes_at_every_block_size(monkeypatch):
    cx = generate(FamilySpec("corner", 2))
    for block_nodes in (3, 64, 1 << 62):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        build_complex(2, cx.vertices, cx.simplices[2])


def test_conformity_audit_memory_is_bounded_by_the_block(monkeypatch):
    # corner level 5: 4,096 triangles.  At one block the (M, 3, 2) corners,
    # the edges' gathered ends and the candidate pairs set the peak; blocks of
    # 64 triangles leave mostly the balls' centres and the buckets
    cx = generate(FamilySpec("corner", 5))

    def peak(block_nodes):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        tracemalloc.start()
        try:
            _audit_conformity(cx)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3 * 64) < 0.5 * peak(1 << 62)


@settings(deadline=None, max_examples=20)
@given(cx=jittered_wheels | st.integers(0, 2).map(
    lambda level: generate(FamilySpec("cube_kuhn", level))), data=st.data())
def test_cell_orientation_equals_the_stacked_oracle(cx, data):
    # corners gathered coordinate-major by np.take give the signs that the
    # fancy-indexed stack gave, on cells of either orientation
    cells = np.array(cx.simplices[cx.dim])
    flip = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    cells[flip, :2] = cells[flip, 1::-1]
    signs, degenerate = kernel_oracles.cell_orientation(cx.vertices, cells)
    assert not degenerate.any()
    assert np.array_equal(cell_orientation(cx.vertices, cells), signs)
    assert np.array_equal(signs[flip], -cx.orientation[cx.dim][flip])


def test_degenerate_cell_is_named_alike_at_every_block_size(monkeypatch):
    # cells 1 and 2 are flat; blocks of 3 nodes hold one triangle
    verts = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (0, 2), (0, 3)], dtype=float)
    cells = np.array([(0, 1, 2), (1, 3, 4), (2, 5, 6)])
    for block_nodes in (3, 6, 1 << 62):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        with pytest.raises(DegenerateSimplexError) as info:
            cell_orientation(verts, cells)
        assert str(info.value) == "degenerate cell (1, 3, 4): signed volume 0.000e+00"


def test_cell_orientation_memory_is_bounded_by_the_block(monkeypatch):
    # cube level 3: 24,576 tetrahedra.  At one block the (N, 4, 3) corners,
    # edges and the volume and diameter temporaries set the peak; blocks of
    # 1,024 tetrahedra leave mostly the (N,) signs
    cx = generate(FamilySpec("cube_kuhn", 3))
    cells = np.array(cx.simplices[3])

    def peak(block_nodes):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        tracemalloc.start()
        try:
            signs = cell_orientation(cx.vertices, cells)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert np.array_equal(signs, cx.orientation[3])

    assert peak(4 * 1024) < 0.3 * peak(1 << 62)


def graded_mesh():
    """A Delaunay triangulation of 16 points on each of 19 rings of radius
    0.7**k about the origin, and the origin: its cells shrink toward the
    centre, their diameters spanning more than 256x."""
    from scipy.spatial import Delaunay
    k = np.arange(19)[:, None]
    angle = 2 * np.pi * (np.arange(16) + 0.5 * (k % 2)) / 16
    rings = np.stack([0.7 ** k * np.cos(angle), 0.7 ** k * np.sin(angle)], axis=-1)
    points = np.concatenate([[(0.0, 0.0)], rings.reshape(-1, 2)])
    return build_complex(2, points, Delaunay(points).simplices)


GRADED = graded_mesh()


def centroid_balls(cx, k):
    """Centroids of the k-simplices and the distances to their farthest vertices."""
    coords = cx.coords_of(k, slice(None))
    centroid = coords.mean(axis=1)
    return centroid, np.sqrt(((coords - centroid[:, None, :]) ** 2).sum(-1)).max(axis=1)


def brute_force_members(points, centers, radii):
    """Oracle: every (ball, point) pair with sum((p - c)**2) <= r**2, by all distances."""
    balls, members = [], []
    for start in range(0, len(centers), 1024):
        rows = slice(start, start + 1024)
        d2 = sum((points[:, j] - centers[rows, j, None]) ** 2 for j in range(points.shape[1]))
        ball, point = np.nonzero(d2 <= radii[rows, None] ** 2)
        balls.append(ball + start)
        members.append(point)
    return np.concatenate(balls), np.concatenate(members)


def kernel_pairs(points, centers, radii):
    """``_ball_members``' pairs joined over its slices, which must cover the balls in order."""
    got = list(_ball_members(points, centers, radii))
    stops = [rows.stop for rows, _, _ in got]
    assert [rows.start for rows, _, _ in got] == [0, *stops[:-1]] and stops[-1] == len(centers)
    return np.concatenate([b for _, b, _ in got]), np.concatenate([p for _, _, p in got])


def assert_same_pairs(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_graded_mesh_spans_256x_and_8_size_classes():
    diam = geometry.diameter(GRADED.coords_of(2, slice(None)))
    assert diam.max() >= 256 * diam.min()
    _, radius = centroid_balls(GRADED, 2)
    assert len(np.unique(np.frexp(radius)[1])) >= 8


@pytest.mark.parametrize("cx", [
    generate(FamilySpec("corner", 5)),
    *[jitter_interior(generate(FamilySpec("pentagon_wheel", 3, n_gon=g)), 0.14, seed=s)
      for g, s in ((6, 1), (7, 2), (8, 3))],
    generate(FamilySpec("cube_kuhn", 2)),
    GRADED], ids=["corner", "wheel6", "wheel7", "wheel8", "cube", "graded"])
def test_ball_members_are_the_brute_force_pairs(cx):
    # every ball of every degree, around the simplices' centroids: at the
    # audit's radius, the bare radius and a radius through a vertex, where a
    # tie at the radius counts in
    ties = 0
    for k in range(1, cx.dim + 1):
        centroid, radius = centroid_balls(cx, k)
        through = np.linalg.norm(cx.vertices[(np.arange(cx.num(k)) * 7) % cx.num(0)]
                                 - centroid, axis=1)
        for radii in (radius + 1e-9, radius, through):
            assert_same_pairs(kernel_pairs(cx.vertices, centroid, radii),
                              brute_force_members(cx.vertices, centroid, radii))
        ball, point = brute_force_members(cx.vertices, centroid, through)
        d2 = sum((cx.vertices[point, j] - centroid[ball, j]) ** 2 for j in range(cx.dim))
        ties += int(np.count_nonzero(d2 == through[ball] ** 2))
    assert ties > 0


def test_ball_members_come_in_blocks_of_bounded_candidates(monkeypatch):
    # blocks of 9 * 9 nodes hold about 9 candidate pairs, a few balls each
    cx = generate(FamilySpec("corner", 3))
    centroid, radius = centroid_balls(cx, 2)
    monkeypatch.setattr(geometry, "BLOCK_NODES", 81)
    got = list(_ball_members(cx.vertices, centroid, radius + 1e-9))
    assert len(got) > cx.num(2) // 9
    assert all(len(ball) <= 3 * 9 for _, ball, _ in got)
    assert_same_pairs(kernel_pairs(cx.vertices, centroid, radius + 1e-9),
                      brute_force_members(cx.vertices, centroid, radius + 1e-9))


def test_ball_members_over_an_extent_too_wide_for_packed_keys(monkeypatch, rng):
    # small balls over 1e12: their buckets would need keys of 2**80, so they
    # are looked up by rows; the large balls' class keeps packed keys
    points = np.concatenate([rng.uniform(0, 1e12, (300, 2)), rng.uniform(0, 3, (300, 2))])
    centers = points[::3] + rng.uniform(-1, 1, (200, 2))
    radii = np.where(np.arange(200) % 2, rng.uniform(0.5, 2, 200), rng.uniform(1e11, 3e11, 200))
    lookups = []
    row_lookup = complex_module._row_lookup
    monkeypatch.setattr(complex_module, "_row_lookup",
                        lambda table, rows: lookups.append(len(rows)) or row_lookup(table, rows))
    assert_same_pairs(kernel_pairs(points, centers, radii),
                      brute_force_members(points, centers, radii))
    assert lookups


@settings(max_examples=30, deadline=None)
@given(cx=st.one_of(jittered_wheels, st.just(GRADED)), data=st.data())
def test_an_overlay_is_named_by_the_first_cell_it_lands_in(cx, data):
    cells = cx.simplices[2]
    build_complex(2, cx.vertices, cells)
    chosen = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=3, max_size=3,
                                unique=True), label="cells")
    weights = np.array(data.draw(st.lists(st.floats(0.2, 1.0), min_size=9, max_size=9),
                                 label="weights")).reshape(3, 3)
    weights /= weights.sum(axis=1, keepdims=True)
    corners = np.einsum("ck,ckd->cd", weights, cx.coords_of(2, chosen))
    edge = corners[1:] - corners[0]
    area = abs(edge[0, 0] * edge[1, 1] - edge[0, 1] * edge[1, 0])
    assume(area > 1e-6 * geometry.diameter(corners[None])[0] ** 2)
    nv = cx.num(0)
    first = int(np.argmin(chosen))
    with pytest.raises(NonConformingError) as info:
        build_complex(2, np.concatenate([cx.vertices, corners]),
                      np.concatenate([cells, [(nv, nv + 1, nv + 2)]]))
    assert str(info.value) == (f"vertex {nv + first} lies inside cell "
                               f"{ids(cells[chosen[first]])}: non-conforming intersection")


def test_vertex_index_out_of_range():
    with pytest.raises(MeshError):
        build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])


def test_build_complex_leaves_the_callers_vertices_alone():
    v = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    cx = build_complex(2, v, [(0, 1, 2)])
    assert v.flags.writeable and cx.vertices is not v
    v[0] = (5.0, 5.0)
    assert np.array_equal(cx.vertices[0], (0.0, 0.0))


@pytest.mark.parametrize("spec,counts", [
    (FamilySpec("pentagon_wheel", level=1), [10, 10, 0]),
    (FamilySpec("cube_kuhn", level=0), [26, 72, 48, 0]),
])
def test_boundary_mask_is_the_closure_of_the_boundary_faces(spec, counts):
    cx = generate(spec)
    n = cx.dim
    faces = [set(row) for row in cx.simplices[n - 1][cx.boundary_face_indices()].tolist()]
    for k in range(n + 1):
        mask = cx.boundary_mask(k)
        expected = [any(set(row) <= f for f in faces) for row in cx.simplices[k].tolist()]
        assert mask.tolist() == expected
        assert mask.sum() == counts[k]
        assert not mask.flags.writeable and cx.boundary_mask(k) is mask
    assert cx.boundary_vertex_mask() is cx.boundary_mask(0)


def test_boundary_vertex_detection():
    cx = generate(FamilySpec("pentagon_wheel", level=1))
    mask = cx.boundary_vertex_mask()
    assert mask.sum() == 10
    assert len(cx.interior_vertex_indices()) == 6
