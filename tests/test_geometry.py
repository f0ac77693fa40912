import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from declab import geometry
from declab.complex import build_complex
from declab.dualmesh import build_dual
from declab.errors import DegenerateSimplexError
from declab.generators import FamilySpec, generate, jitter_interior
import kernel_oracles
from kernel_oracles import bits
from strategies import jittered_wheels
from test_dualmesh import _det, acute_tetrahedra, exact_coordinates


def test_right_triangle_circumcenter_is_hypotenuse_midpoint():
    c, lam = geometry.circumcenter(np.array([[(0, 0), (1, 0), (0, 1)]], dtype=float))
    assert np.allclose(c[0], [0.5, 0.5], atol=1e-14)
    assert np.allclose(lam[0], [0.0, 0.5, 0.5], atol=1e-14)  # on the hypotenuse


def test_equilateral_circumcenter():
    tri = np.array([[(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]])
    c, lam = geometry.circumcenter(tri)
    assert np.allclose(c[0], [0.5, math.sqrt(3) / 6], atol=1e-14)
    assert np.allclose(lam[0], 1 / 3, atol=1e-14)


def test_regular_tetrahedron_corner_circumcenter_matches_least_squares():
    tet = np.array([[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]], dtype=float)
    expected = kernel_oracles.lapack_circumcenter(tet)[0][0]
    assert np.allclose(expected, [0.5, 0.5, 0.5], atol=1e-14)
    c, lam = geometry.circumcenter(tet)
    assert np.allclose(c[0], expected, atol=1e-13)
    # outside, beyond the face opposite the origin
    assert np.allclose(lam, geometry.barycentric_coordinates(expected[None], tet), atol=1e-13)
    assert lam[0, 0] == pytest.approx(-0.5)


def test_lower_dimensional_circumcenter_lies_in_plane():
    # an edge in R^3: circumcenter is the midpoint
    e = np.array([[(1.0, 2.0, 3.0), (3.0, 0.0, 1.0)]])
    c, lam = geometry.circumcenter(e)
    assert np.allclose(c[0], [2.0, 1.0, 2.0], atol=1e-14)
    assert lam.tolist() == [[0.5, 0.5]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_circumcenter_equidistance_property(vals):
    tri = np.array(vals).reshape(1, 3, 2)
    area2 = abs(np.linalg.det(tri[0, 1:] - tri[0, 0]))
    diam = geometry.diameter(tri)[0]
    if area2 < 1e-3 * max(diam, 1e-3) ** 2:
        return  # skip near-degenerate inputs
    c = geometry.circumcenter(tri)[0][0]
    d = np.linalg.norm(tri[0] - c, axis=1)
    assert np.allclose(d, d[0], rtol=1e-9)


def test_degenerate_simplex_raises_with_condition_estimate():
    tri = np.array([[(0, 0), (1, 0), (2, 1e-15)]], dtype=float)
    with pytest.raises(DegenerateSimplexError):
        geometry.circumcenter(tri)
    # a zero-length edge: its relative Gram determinant is 0/0
    edge = np.array([[(1.0, 2.0), (1.0, 2.0)]])
    with pytest.raises(DegenerateSimplexError, match="relative Gram determinant nan"):
        geometry.circumcenter(edge)


def test_degeneracy_check_is_relative_to_each_edge_length():
    # a right-angled sliver has a well-defined circumcenter, the hypotenuse midpoint
    sliver = np.array([[(0, 0), (1, 0), (0, 1e-7)]], dtype=float)
    assert np.allclose(geometry.circumcenter(sliver)[0][0], [0.5, 0.5e-7], rtol=1e-12)
    # a flat triangle of the same height does not
    flat = np.array([[(0, 0), (1, 0), (0.5, 1e-7)]], dtype=float)
    with pytest.raises(DegenerateSimplexError, match="relative Gram determinant"):
        geometry.circumcenter(flat)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
def test_triangle_area_matches_shoelace(vals):
    tri = np.array(vals).reshape(1, 3, 2)
    (x0, y0), (x1, y1), (x2, y2) = tri[0]
    shoelace = 0.5 * abs(x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1))
    assert geometry.unsigned_volume(tri)[0] == pytest.approx(shoelace, abs=1e-12)


def test_signed_volume_orientation():
    tri = np.array([[(0, 0), (1, 0), (0, 1)]], dtype=float)
    assert geometry.signed_volume(tri)[0] == pytest.approx(0.5)
    flipped = tri[:, [0, 2, 1], :]
    assert geometry.signed_volume(flipped)[0] == pytest.approx(-0.5)


def test_inradius_and_diameter():
    side = 2.0
    tri = np.array([[(0, 0), (side, 0), (side / 2, side * math.sqrt(3) / 2)]])
    r = geometry.inradius(tri)[0]
    d = geometry.diameter(tri)[0]
    assert d == pytest.approx(side)
    assert d / r == pytest.approx(2 * math.sqrt(3))
    edge = np.array([[(0.0,), (3.0,)]])
    assert geometry.inradius(edge)[0] == pytest.approx(1.5)


@settings(deadline=None, max_examples=40)
@given(cx=jittered_wheels | st.integers(0, 2).map(
    lambda level: generate(FamilySpec("cube_kuhn", level))))
def test_diameter_is_bit_identical_to_broadcast_formula(cx):
    for k in range(cx.dim + 1):
        coords = cx.coords_of(k, slice(None))
        assert np.array_equal(geometry.diameter(coords), kernel_oracles.diameter(coords))


def test_signed_volume_and_diameter_equal_the_stacked_oracle_bit_for_bit(rng):
    # coordinate-major, by the column rule, whether the caller's stack is
    # row-major (one copy) or already a coordinate-major view (no copy)
    for n in (1, 2, 3):
        for k in range(n + 1):
            coords = rng.standard_normal((500, k + 1, n)) * rng.uniform(1e-3, 1e3, (500, 1, 1))
            coords[:5] = 0.0                        # zero volume and diameter
            coords[5:10, 1:] = coords[5:10, :1]     # repeated vertices
            view = np.ascontiguousarray(coords.T).T
            for layout in (coords, view):
                assert np.array_equal(geometry.diameter(layout).view(np.int64),
                                      kernel_oracles.diameter(coords).view(np.int64)), (n, k)
                if k == n:
                    assert np.array_equal(geometry.signed_volume(layout).view(np.int64),
                                          kernel_oracles.signed_volume(coords).view(np.int64))


def test_barycentric_coordinates_roundtrip(rng):
    tet = rng.standard_normal((1, 4, 3)) * 2
    lam = rng.random((1, 4))
    lam /= lam.sum()
    pts = np.einsum("mj,mjd->md", lam, tet)
    out = geometry.barycentric_coordinates(pts, tet)
    assert np.allclose(out, lam, atol=1e-10)


def stacks(k, elements):
    """Stacks of 1 to 5 k x k matrices."""
    return st.integers(1, 5).flatmap(lambda m: arrays(float, (m, k, k), elements=elements))


sizes = st.integers(0, 4)
# zero or at least 2^-20 in magnitude, so that no product of four entries underflows
entries = st.floats(-4, 4).filter(lambda x: x == 0 or abs(x) >= 2.0 ** -20)


@settings(max_examples=200, deadline=None)
@given(a=sizes.flatmap(lambda k: stacks(k, entries)))
def test_det_matches_lapack(a):
    """Above 3 x 3 det is LAPACK's.  Up to 3 x 3 both are within 1e-13 (about
    900 u) of each other relative to prod_i ||a_i||_1, which bounds |det a|
    and the permanent of |a| that bounds the closed form's rounding error."""
    got, want = geometry.det(a), np.linalg.det(a)
    assert got.shape == want.shape
    if a.shape[-1] > 3:
        assert np.array_equal(got, want)
    scale = np.prod(np.abs(a).sum(axis=-1), axis=-1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 3).flatmap(lambda k: stacks(k, st.integers(-9, 9).map(float))))
def test_det_is_exact_on_small_integers(a):
    assert geometry.det(a).tolist() == [_det(x) for x in a.astype(int).tolist()]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=sizes)
def test_solve_matches_lapack(data, k):
    """On strictly diagonally dominant matrices, whose condition number is
    below 2, Cramer's x is within 1e-13 of LAPACK's relative to |x|_inf."""
    a = data.draw(stacks(k, entries)) + 16 * k * np.eye(k)
    b = data.draw(arrays(float, (len(a), k, 2), elements=entries))
    want = np.linalg.solve(a, b)
    before = a.copy()
    got = kernel_oracles.cramer_solve(a, b, geometry.det(a))
    assert np.array_equal(a, before)  # the swapped columns are put back
    scale = np.abs(want).max(axis=(1, 2), keepdims=True, initial=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_solve_is_correctly_rounded_on_small_integers(data, k):
    """Integer numerators and denominators are exact, so the one division
    rounds the exact rational solution correctly."""
    a = data.draw(stacks(k, st.integers(-9, 9).map(float)))
    b = data.draw(arrays(float, (len(a), k, 1), elements=st.integers(-9, 9).map(float)))
    dets = [_det(x) for x in a.astype(int).tolist()]
    keep = np.array(dets) != 0
    a, b = a[keep], b[keep]
    got = kernel_oracles.cramer_solve(a, b, geometry.det(a))
    for x, mat, rhs, den in zip(got, a.astype(int).tolist(), b.astype(int).tolist(),
                                np.array(dets)[keep].tolist()):
        for i in range(k):
            swapped = [row[:i] + [r[0]] + row[i + 1:] for row, r in zip(mat, rhs)]
            assert x[i, 0] == float(Fraction(_det(swapped), den))


def lapack_signed_volume(coords):
    """Reference: signed volumes by LAPACK's determinant."""
    n = coords.shape[2]
    return np.linalg.det(geometry.edge_matrix(coords)) / math.factorial(n)


def lapack_signs(cx, k):
    """Reference: signs of the circumcenters' barycentric coordinates by LAPACK."""
    return np.sign(kernel_oracles.lapack_circumcenter(cx.coords_of(k, slice(None)))[1])


def exact_signs(cx, k):
    """Reference: signs of the circumcenters' barycentric coordinates in exact arithmetic."""
    if k == 0:
        return np.ones((cx.num(0), 1))
    nums, _ = exact_coordinates(cx, k)  # over a positive denominator
    num = np.stack(nums, axis=1)
    return (num > 0).astype(float) - (num < 0)


def assert_exact_bits_as_with_lapack(cx, signs=lapack_signs):
    """Orientations and the set of exactly zero dual volumes are the same with
    the closed-form kernels as with LAPACK, and the signs and exact zeros of
    every circumcenter's barycentric coordinates are those of ``signs``."""
    cells = cx.simplices[cx.dim]
    got_cx = build_complex(cx.dim, cx.vertices, cells, validate=False)
    got_dual = build_dual(got_cx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "signed_volume", lapack_signed_volume)
        mp.setattr(geometry, "circumcenter", kernel_oracles.lapack_circumcenter)
        want_cx = build_complex(cx.dim, cx.vertices, cells, validate=False)
        want_dual = build_dual(want_cx)
    for k in range(cx.dim + 1):
        assert np.array_equal(got_cx.orientation[k], want_cx.orientation[k])
        assert np.array_equal(got_dual.volumes[k] == 0, want_dual.volumes[k] == 0)
        assert np.array_equal(np.sign(geometry.circumcenter(cx.coords_of(k, slice(None)))[1]),
                              signs(cx, k))
    return got_dual


@pytest.mark.parametrize("spec", [FamilySpec("cube_kuhn", level) for level in range(4)]
                         + [FamilySpec("square", 2, pattern=p) for p in (1, 2, 3)]
                         + [FamilySpec("pentagon_wheel", 3), FamilySpec("corner", 3)],
                         ids=lambda s: f"{s.family}-{s.level}-{s.pattern}")
def test_structured_meshes_keep_lapack_signs_and_zeros(spec):
    # LAPACK reads 8.3e-17 for exact zeros of the refined cube (48 triangles
    # and 48 tetrahedra at level 1), so there the exact coordinates are the
    # reference
    signs = exact_signs if spec.family == "cube_kuhn" else lapack_signs
    dual = assert_exact_bits_as_with_lapack(generate(spec), signs)
    if spec == FamilySpec("cube_kuhn", 3):
        assert np.count_nonzero(dual.volumes[1] == 0) == 17152


@settings(max_examples=30, deadline=None)
@given(cx=jittered_wheels)
def test_jittered_wheels_keep_lapack_signs_and_zeros(cx):
    assert_exact_bits_as_with_lapack(cx)


def assert_dual_kernels_equal_the_stacked_oracle(coords):
    """Centers, coordinates and volumes equal the stacked kernels' bit for bit,
    from a row-major stack and from a vertex-major view (``coords_of``'s)."""
    want_c, want_l = kernel_oracles.circumcenter(coords)
    want_v = kernel_oracles.unsigned_volume(coords)
    for layout in (np.ascontiguousarray(coords), np.ascontiguousarray(coords.transpose(1, 0, 2))
                   .transpose(1, 0, 2)):
        got_c, got_l = geometry.circumcenter(layout)
        assert np.array_equal(bits(got_c), bits(want_c))
        assert np.array_equal(bits(got_l), bits(want_l))
        assert np.array_equal(bits(geometry.unsigned_volume(layout)), bits(want_v))


def _jittered_cube(level):
    return jitter_interior(generate(FamilySpec("cube_kuhn", level)), 0.1, seed=level)


@pytest.mark.parametrize("make", [
    *[lambda s=s: generate(s) for s in (
        FamilySpec("pentagon_wheel", 2), FamilySpec("corner", 2),
        *[FamilySpec("square", 2, pattern=p) for p in (1, 2, 3)],
        *[FamilySpec("cube_kuhn", level) for level in range(4)])],
    *[lambda level=level: _jittered_cube(level) for level in (1, 2, 3)]],
    ids=["pentagon", "corner", "square1", "square2", "square3",
         *[f"cube{level}" for level in range(4)],
         *[f"jittered_cube{level}" for level in (1, 2, 3)]])
def test_dual_kernels_equal_the_stacked_oracle(make):
    # the Gram from a C-ordered transpose and the entry-major passes keep
    # every bit of the stacked kernels, on every degree the dual solves
    cx = make()
    for k in range(1, cx.dim + 1):
        assert_dual_kernels_equal_the_stacked_oracle(cx.coords_of(k, slice(None)))


@settings(deadline=None, max_examples=10)
@given(cx=jittered_wheels)
def test_dual_kernels_equal_the_stacked_oracle_on_jittered_wheels(cx):
    for k in (1, 2):
        assert_dual_kernels_equal_the_stacked_oracle(cx.coords_of(k, slice(None)))


def test_dual_kernels_equal_the_stacked_oracle_on_acute_tetrahedra(rng):
    tets = acute_tetrahedra(rng, 200)
    for k in (1, 2, 3):
        for face in combinations(range(4), k + 1):
            assert_dual_kernels_equal_the_stacked_oracle(tets[:, list(face)])
