import math
import os

import numpy as np
import pytest

from declab import geometry, meshio
from declab.complex import build_complex
from declab.errors import InvertedCellError, MeshError
from declab.generators import (DEFAULT_ALPHA, FamilySpec, _label_slit, estimate_unknowns,
                               generate, interior_prolongation, jitter_interior, refine)
from declab.study import _guarded_walk
from kernel_oracles import interior_prolongation as oracle_interior_prolongation
from kernel_oracles import jittered_vertices, prolongation
from refine_oracle import refine as refine_by_column_lists
from tracing import traced

C_PENTAGON = math.sqrt(2 - 2 * math.cos(2 * math.pi / 5))
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pentagon_level2.decmesh")


def test_pentagon_initial_mesh_size():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    assert cx.shape_report().h == pytest.approx(C_PENTAGON, rel=1e-12)
    # unit spokes from the hub
    spokes = np.linalg.norm(cx.vertices[1:] - cx.vertices[0], axis=1)
    assert np.allclose(spokes, 1.0)
    # one rim vertex on the +x axis, mirror-symmetric in y
    assert cx.vertices[1] == pytest.approx([1.0, 0.0])


def test_h_halves_exactly_per_level():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    for i in range(1, 4):
        cx = refine(cx)
        assert cx.shape_report().h == pytest.approx(C_PENTAGON * 2.0 ** -i, rel=1e-12)


def test_triangle_count_quadruples():
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    for i in range(3):
        nxt = refine(cx)
        assert nxt.num(2) == 4 * cx.num(2)
        cx = nxt


def test_square_pattern_counts():
    for i in range(3):
        cx = generate(FamilySpec("square", pattern=1, level=i))
        assert cx.num(2) == 2 * 4 ** i  # counted by construction


def test_square_patterns_weakly_well_centered():
    for pattern in (1, 2, 3):
        cx = generate(FamilySpec("square", pattern=pattern, level=1))
        rep = cx.shape_report()
        assert rep.well_centered == "weak", pattern
        area = geometry.unsigned_volume(cx.coords_of(2, slice(None))).sum()
        assert area == pytest.approx(1.0)


def test_wheel_families_strictly_well_centered():
    for fam in ("pentagon_wheel", "corner"):
        for level in range(3):
            cx = generate(FamilySpec(fam, level=level))
            assert cx.shape_report().well_centered == "strict", (fam, level)


def test_corner_reentrant_angle_and_slit_labels():
    cx = generate(FamilySpec("corner", level=0))
    assert cx.num(0) == 6 and cx.num(2) == 4
    assert cx.boundary_vertex_mask()[0]  # hub lies on the boundary now
    # interior angle at the hub: sum of the four sector angles
    assert 4 * (DEFAULT_ALPHA / 4) == pytest.approx(8 * math.pi / 5)
    gammas = [t for t, lbl in cx.boundary_labels.items() if lbl == "gamma"]
    assert len(gammas) == 2
    cx1 = generate(FamilySpec("corner", level=1))
    gammas1 = [t for t, lbl in cx1.boundary_labels.items() if lbl == "gamma"]
    assert len(gammas1) == 4  # each slit edge split in two


def test_corner_alpha_validation():
    with pytest.raises(MeshError):
        FamilySpec("corner", alpha=math.pi / 2)
    with pytest.raises(MeshError):
        FamilySpec("corner", alpha=2 * math.pi)


def test_cube_counts_and_mesh_size():
    for level in (0, 1):
        cx = generate(FamilySpec("cube_kuhn", level=level))
        m = 2 ** (level + 1)
        assert cx.num(3) == 6 * m ** 3
        assert cx.num(0) == (m + 1) ** 3
        assert cx.shape_report().h == pytest.approx(math.sqrt(3) / m, rel=1e-12)
        assert cx.shape_report().well_centered == "weak"
        vol = geometry.unsigned_volume(cx.coords_of(3, slice(None))).sum()
        assert vol == pytest.approx(1.0, rel=1e-12)


def test_cube_refine_halves_grid():
    cx = generate(FamilySpec("cube_kuhn", level=0))
    fine = refine(cx)
    assert fine.num(3) == 8 * cx.num(3)
    assert fine.num(0) == 5 ** 3


def test_refined_cube_cells_are_kuhn_simplices_of_the_halved_grid():
    cx = generate(FamilySpec("cube_kuhn"))
    for level in range(1, 5):
        cx = refine(cx)
        h = 2.0 ** -(level + 1)
        coords = cx.coords_of(3, slice(None))
        coords = np.take_along_axis(coords, np.argsort(coords.sum(axis=2), axis=1)[..., None],
                                    axis=1)
        # consecutive vertices differ by exactly h along one axis, a different one each step
        steps = np.diff(coords, axis=1) / h
        assert np.all((steps == 0) | (steps == 1)), level
        assert np.all(steps.sum(axis=2) == 1) and np.all(steps.sum(axis=1) == 1), level
        assert cx.num(3) == 6 * (2 * 2 ** level) ** 3


def test_refine_without_a_template_refused(tmp_path):
    path = tmp_path / "simplex4.decmesh"
    meshio.save(build_complex(4, np.vstack([np.zeros(4), np.eye(4)]), [range(5)]), path)
    cx = meshio.load(path)
    with pytest.raises(MeshError, match="dimension 4"):
        refine(cx)
    with pytest.raises(MeshError, match="dimension 4"):
        generate(FamilySpec("from_file", level=1, path=str(path)))


def test_refine_from_file_2d_is_medial(tmp_path):
    from declab import meshio
    cx = generate(FamilySpec("pentagon_wheel", level=1))
    p = tmp_path / "m.decmesh"
    meshio.save(cx, p)
    loaded = generate(FamilySpec("from_file", path=str(p)))
    ref = refine(loaded)
    assert ref.num(2) == 4 * cx.num(2)


@pytest.mark.parametrize("family,level", [("pentagon_wheel", 2), ("corner", 1),
                                          ("square", 1), ("cube_kuhn", 1), ("from_file", 1)])
def test_prolongation_interpolates_the_refined_vertices(family, level, tmp_path):
    # every fine vertex is a coarse vertex or an edge midpoint, so P is exact
    # on the coordinates, and its rows are convex weights
    path = None
    if family == "from_file":   # a 3D file with no grid structure: a jittered cube
        path = str(tmp_path / "jittered_cube.decmesh")
        meshio.save(jitter_interior(generate(FamilySpec("cube_kuhn", 1)), 0.2, seed=1), path)
    cx = generate(FamilySpec(family, level, path=path))
    p = prolongation(cx)
    assert np.array_equal(p @ cx.vertices, refine(cx).vertices)
    assert set(p.data) <= {0.5, 1.0} and np.array_equal(p.sum(axis=1).A1, np.ones(p.shape[0]))


def test_corner_strictly_well_centered_for_other_angles():
    for alpha in (6 * math.pi / 5, 1.1 * math.pi, 1.9 * math.pi):
        cx = generate(FamilySpec("corner", level=1, alpha=alpha))
        assert cx.shape_report().well_centered == "strict", alpha


def _assert_estimates_match_walk(spec, levels):
    meshes = list(_guarded_walk(spec, levels, None))
    for level, cx in enumerate(meshes):
        assert estimate_unknowns(meshes[0], level) == len(cx.interior_vertex_indices()), \
            (spec, level)


def test_estimate_unknowns_matches_actual():
    for fam, kw in (("pentagon_wheel", {}), ("pentagon_wheel", {"n_gon": 7}),
                    ("corner", {}),
                    ("square", {"pattern": 1}), ("square", {"pattern": 2}),
                    ("square", {"pattern": 3})):
        _assert_estimates_match_walk(FamilySpec(fam, **kw), 5)
    _assert_estimates_match_walk(FamilySpec("cube_kuhn"), 3)
    # the counts the closed forms gave for the deepest tables
    assert estimate_unknowns(generate(FamilySpec("pentagon_wheel")), 9) == 654081
    assert estimate_unknowns(generate(FamilySpec("cube_kuhn")), 5) == 250047


def test_estimate_unknowns_reads_mesh_files(tmp_path):
    corner = tmp_path / "corner.decmesh"
    meshio.save(generate(FamilySpec("corner", level=1)), corner)
    for path in (FIXTURE, str(corner)):
        _assert_estimates_match_walk(FamilySpec("from_file", path=path), 4)
    cube = tmp_path / "cube.decmesh"
    meshio.save(generate(FamilySpec("cube_kuhn", level=1)), cube)
    _assert_estimates_match_walk(FamilySpec("from_file", path=str(cube)), 3)


def test_jitter_moves_interior_only():
    cx = generate(FamilySpec("pentagon_wheel", level=3))
    j = jitter_interior(cx, amplitude=0.05, seed=42)
    bmask = cx.boundary_vertex_mask()
    assert np.array_equal(j.vertices[bmask], cx.vertices[bmask])
    moved = np.linalg.norm(j.vertices[~bmask] - cx.vertices[~bmask], axis=1)
    assert np.all(moved > 0)
    assert j.shape_report().well_centered == "strict"
    # deterministic for a fixed seed
    j2 = jitter_interior(cx, amplitude=0.05, seed=42)
    assert np.array_equal(j.vertices, j2.vertices)


def test_jitter_shares_the_lattice_build_complex_makes():
    cx = generate(FamilySpec("pentagon_wheel", level=3, n_gon=6))
    j = jitter_interior(cx, amplitude=0.14, seed=7)
    rebuilt = build_complex(2, j.vertices, cx.simplices[2], validate=False)
    for k in range(3):
        assert np.array_equal(j.simplices[k], rebuilt.simplices[k])
        assert np.array_equal(j.orientation[k], rebuilt.orientation[k])
    for k in (1, 2):
        assert np.array_equal(j.faces[k], rebuilt.faces[k])


@pytest.mark.parametrize("seed", [3, 5])
def test_jitter_that_inverts_a_cell_fails_fast(seed):
    cx = generate(FamilySpec("pentagon_wheel", level=3, n_gon=6))
    with pytest.raises(InvertedCellError, match="inverted 1 of 384 cells"):
        jitter_interior(cx, amplitude=0.5, seed=seed)


@pytest.mark.parametrize("spec, amplitude", [(FamilySpec("pentagon_wheel", 4, n_gon=6), 0.14),
                                             (FamilySpec("corner", 3), 0.1),
                                             (FamilySpec("cube_kuhn", 2), 0.1)],
                         ids=lambda v: getattr(v, "family", v))
def test_jitter_equals_the_norm_oracle_bit_for_bit(spec, amplitude):
    # squared_norms over gathered columns sums the squares in the order
    # np.linalg.norm's reduction does, so no vertex moves by a bit
    cx = generate(spec)
    for seed in (0, 100, 2 ** 31):
        want = jittered_vertices(cx, amplitude, seed)
        got = jitter_interior(cx, amplitude, seed).vertices
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed


def _interior_pairs(levels):
    for family, level in zip(("pentagon_wheel", "corner", "cube_kuhn"), levels):
        meshes = list(_guarded_walk(FamilySpec(family), level + 1, None))
        yield family, meshes[-2], meshes[-1]


def test_interior_prolongation_equals_the_sliced_full_interpolation():
    # the CSR is built row by row; the oracle slices the full interpolation.
    # Corner and cube meshes have chords, edges between two boundary vertices
    # whose midpoint is interior: their rows are empty
    for family, coarse, fine in _interior_pairs((4, 4, 2)):
        got = interior_prolongation(coarse, fine)
        want = oracle_interior_prolongation(coarse, fine)
        assert got.shape == want.shape and got.has_sorted_indices, family
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (family, name)
        assert (np.diff(got.indptr) == 0).any() == (family != "pentagon_wheel"), family


def test_interior_prolongation_memory_stays_near_its_result():
    # the full interpolation and its two fancy-index copies peaked at 4.5,
    # 4.6 and 7.1 times the result's bytes here (pentagon 5 -> 6, corner
    # 5 -> 6, cube 2 -> 3); built directly, at 2.1 to 2.2 times
    for family, coarse, fine in _interior_pairs((6, 6, 3)):
        fine.interior_vertex_indices(), coarse.interior_vertex_indices()  # cached masks
        p, _, peak = traced(lambda: interior_prolongation(coarse, fine))
        size = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
        assert peak < 3 * size, (family, peak / size)


def test_refined_file_mesh_keeps_boundary_labels(tmp_path):
    path = tmp_path / "corner1.decmesh"
    meshio.save(generate(FamilySpec("corner", level=1)), path)
    refined = generate(FamilySpec("from_file", level=1, path=str(path)))
    corner2 = generate(FamilySpec("corner", level=2))
    assert refined.boundary_labels == corner2.boundary_labels
    assert sum(lbl == "gamma" for lbl in refined.boundary_labels.values()) == 8
    # handed-down labels agree with labelling the refined corner from scratch
    relabelled = generate(FamilySpec("corner", level=2))
    _label_slit(relabelled, DEFAULT_ALPHA)
    assert relabelled.boundary_labels == corner2.boundary_labels


def test_refine_hands_a_boundary_triangle_label_to_its_four_children(tmp_path):
    cx = generate(FamilySpec("cube_kuhn"))
    tris = cx.simplices[2][cx.boundary_face_indices()]
    cx.boundary_labels = {tuple(t): f"t{i}" for i, t in enumerate(tris.tolist())}
    path = tmp_path / "cube.decmesh"
    meshio.save(cx, path)
    fine = refine(meshio.load(path))
    bdry = fine.simplices[2][fine.boundary_face_indices()]
    assert set(fine.boundary_labels) == set(map(tuple, bdry.tolist()))
    for i, t in enumerate(tris):
        children = [c for c, label in fine.boundary_labels.items() if label == f"t{i}"]
        # the four medial children: the parent's corners and edge midpoints
        points = {tuple(p) for c in children for p in fine.vertices[list(c)].tolist()}
        corners = cx.vertices[t]
        mids = [(corners[a] + corners[b]) / 2 for a, b in ((0, 1), (0, 2), (1, 2))]
        assert len(children) == 4
        assert points == {tuple(p) for p in [*corners.tolist(), *np.array(mids).tolist()]}
    out = tmp_path / "fine.decmesh"
    meshio.save(fine, out)
    assert meshio.load(out).boundary_labels == fine.boundary_labels


def test_shape_constants_stable_across_levels_all_families():
    # the regularity constants of every family settle to level-independent
    # values (the triangle/tet shapes repeat under refinement)
    for fam, kw in (("pentagon_wheel", {}), ("corner", {}),
                    ("square", {"pattern": 1}), ("cube_kuhn", {})):
        regs, stars = [], []
        for level in (1, 2, 3):
            rep = generate(FamilySpec(fam, level=level, **kw)).shape_report()
            regs.append(rep.c_reg)
            stars.append(rep.star_bound)
        assert max(regs) / min(regs) < 1.0 + 1e-9, fam
        assert stars[-1] == stars[-2], fam


def test_family_spec_validation():
    with pytest.raises(MeshError):
        FamilySpec("pentagon_wheel", level=-1)
    with pytest.raises(MeshError):
        FamilySpec("square", pattern=4)
    with pytest.raises(MeshError):
        FamilySpec("nonagon")
    with pytest.raises(MeshError):
        FamilySpec("from_file")
    with pytest.raises(MeshError):
        FamilySpec("pentagon_wheel", n_gon=4)


def _assert_same_lattice(got, want):
    assert np.array_equal(got.vertices, want.vertices)
    for k in range(want.dim + 1):
        for a, b in ((got.simplices[k], want.simplices[k]),
                     (got.orientation[k], want.orientation[k]),
                     *([(got.faces[k], want.faces[k])] if k else [])):
            assert a.dtype == b.dtype and np.array_equal(a, b), k


def _refined_from(cx):
    """``refine(cx)`` and ``build_complex`` on its vertices and top cells."""
    fine = refine(cx)
    return fine, build_complex(cx.dim, fine.vertices, fine.simplices[cx.dim], validate=False)


@pytest.mark.parametrize("spec,levels", [
    (FamilySpec("cube_kuhn"), 3), (FamilySpec("pentagon_wheel"), 4),
    (FamilySpec("pentagon_wheel", n_gon=7), 4), (FamilySpec("corner"), 4),
    *[(FamilySpec("square", pattern=p), 4) for p in (1, 2, 3)]],
    ids=["cube", "pentagon", "heptagon", "corner", "square1", "square2", "square3"])
def test_refined_lattice_is_build_complexs(spec, levels):
    # every array of the lattice refine carries, bit for bit and dtype for
    # dtype, at every level, against the lattice rebuilt from the fine cells
    cx = generate(spec)
    for _ in range(levels):
        fine, rebuilt = _refined_from(cx)
        _assert_same_lattice(fine, rebuilt)
        cx = fine


@pytest.mark.parametrize("spec,amplitude,seed", [
    (FamilySpec("pentagon_wheel", 2, n_gon=6), 0.14, 3),
    (FamilySpec("pentagon_wheel", 1, n_gon=8), 0.14, 11),
    (FamilySpec("cube_kuhn", 1), 0.2, 1), (FamilySpec("cube_kuhn", 0), 0.2, 5)],
    ids=["hexagon2", "octagon1", "cube1", "cube0"])
def test_refined_jittered_lattice_is_build_complexs(spec, amplitude, seed):
    # jittered vertices change the x+y+z order that picks each tetrahedron's
    # diagonal, and the orientation of every child
    cx = jitter_interior(generate(spec), amplitude, seed=seed)
    for _ in range(2):
        fine, rebuilt = _refined_from(cx)
        _assert_same_lattice(fine, rebuilt)
        cx = fine


def test_refined_labelled_corner_is_build_complexs(tmp_path):
    path = tmp_path / "corner.decmesh"
    meshio.save(generate(FamilySpec("corner", 1)), path)
    cx = meshio.load(path)
    for _ in range(3):
        fine, rebuilt = _refined_from(cx)
        _assert_same_lattice(fine, rebuilt)
        cx = fine
    assert cx.boundary_labels == generate(FamilySpec("corner", 4)).boundary_labels


def test_refine_builds_no_lattice_and_orients_no_cell(monkeypatch):
    from declab import complex as cxmod, generators

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    cube, wheel = generate(FamilySpec("cube_kuhn", 1)), generate(FamilySpec("corner", 2))
    for module in (cxmod, generators):
        monkeypatch.setattr(module, "build_complex", refuse)
        monkeypatch.setattr(module, "cell_orientation", refuse)
    refine(cube), refine(wheel)


def _file_mesh(tmp_path, spec):
    path = tmp_path / f"{spec.family}.decmesh"
    meshio.save(generate(spec), path)
    return meshio.load(path)


@pytest.mark.parametrize("make,levels", [
    (lambda tmp: generate(FamilySpec("cube_kuhn")), 3),
    (lambda tmp: generate(FamilySpec("pentagon_wheel")), 4),
    (lambda tmp: generate(FamilySpec("pentagon_wheel", n_gon=7)), 3),
    (lambda tmp: generate(FamilySpec("corner")), 4),
    *[(lambda tmp, p=p: generate(FamilySpec("square", pattern=p)), 3) for p in (1, 2, 3)],
    (lambda tmp: _file_mesh(tmp, FamilySpec("corner", 1)), 3),
    (lambda tmp: _file_mesh(tmp, FamilySpec("cube_kuhn")), 2),
    (lambda tmp: jitter_interior(generate(FamilySpec("cube_kuhn", 1)), 0.2, seed=1), 2)],
    ids=["cube", "pentagon", "heptagon", "corner", "square1", "square2", "square3",
         "corner_file", "cube_file", "jittered_cube"])
def test_refine_equals_the_column_list_refinement(make, levels, tmp_path):
    # the preallocated tables, the in-place sort and the face columns change
    # no array of the result: every one equals the old refinement's, dtype
    # for dtype, children and boundary labels included
    cx = make(tmp_path)
    for _ in range(levels):
        got, want = refine(cx), refine_by_column_lists(cx)
        _assert_same_lattice(got, want)
        for a, b in zip(got.children, want.children, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.boundary_labels == want.boundary_labels
        cx = got


def test_refine_lexsorts_rows_whose_keys_would_overflow(monkeypatch):
    # cube level 5's tetrahedra have no int64 packing; their columns are
    # lexsorted instead, into the same lattice
    from declab import generators
    cx = generate(FamilySpec("cube_kuhn", 1))
    monkeypatch.setattr(generators, "_packing", lambda rows: None)
    got, want = refine(cx), refine_by_column_lists(cx)
    _assert_same_lattice(got, want)
    for a, b in zip(got.children, want.children, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [FamilySpec("cube_kuhn", 1), FamilySpec("corner", 2),
                                  FamilySpec("square", 1, pattern=2)],
                         ids=lambda s: s.family)
def test_children_are_their_parents_scaled(spec):
    # corner child p is the parent scaled by 1/2 about its sorted vertex p,
    # with that vertex first and the midpoints after it in the parent's
    # order; a triangle's middle child, slot 3, the parent scaled by -1/2
    # about its centroid: the midpoints of ab, ac and bc, the images of c, b, a
    cx = generate(spec)
    fine = refine(cx)
    for k in range(cx.dim + 1):
        kids = fine.children[k]
        assert kids.shape == (cx.num(k), {0: 1, 1: 2, 2: 4, 3: 8}[k])
        assert np.array_equal(np.sort(kids.ravel()), np.unique(kids))  # each child once
        parent = cx.vertices[cx.simplices[k]]
        for p in range(k + 1):
            rest = [p] + [q for q in range(k + 1) if q != p]
            want = 0.5 * (parent[:, [p]] + parent[:, rest])
            assert np.array_equal(fine.vertices[fine.simplices[k][kids[:, p]]], want), (k, p)
        if k == 2:
            want = 0.5 * (parent[:, [0, 0, 1]] + parent[:, [1, 2, 2]])
            assert np.array_equal(fine.vertices[fine.simplices[2][kids[:, 3]]], want)
    assert sum(fine.children[k].size for k in range(cx.dim + 1)) < sum(map(len, fine.simplices))
