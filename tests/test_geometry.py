import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import geometry
from declab.errors import DegenerateSimplexError
from declab.generators import FamilySpec, generate
from strategies import jittered_wheels


def brute_force_circumcenter(coords):
    """Independent oracle: least-squares solve of the raw equidistance system.

    |c - v_i|^2 = |c - v_0|^2 plus the in-plane constraints, solved via lstsq
    on the stacked linear system in ambient coordinates.
    """
    coords = np.asarray(coords, dtype=float)
    v0 = coords[0]
    e = coords[1:] - v0
    # c = v0 + e^T a;  2 e_i . (c - v0) = |e_i|^2
    a_mat = 2.0 * e @ e.T
    rhs = np.einsum("kd,kd->k", e, e)
    alpha, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    return v0 + alpha @ e


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
    expected = brute_force_circumcenter(tet[0])
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


def broadcast_diameter(coords):
    """Oracle: the largest length in the full pairwise difference array."""
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    return np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))


@settings(deadline=None, max_examples=40)
@given(cx=jittered_wheels | st.integers(0, 2).map(
    lambda level: generate(FamilySpec("cube_kuhn", level))))
def test_diameter_is_bit_identical_to_broadcast_formula(cx):
    for k in range(cx.dim + 1):
        coords = cx.coords_of(k)
        assert np.array_equal(geometry.diameter(coords), broadcast_diameter(coords))


def test_barycentric_coordinates_roundtrip(rng):
    tet = rng.standard_normal((1, 4, 3)) * 2
    lam = rng.random((1, 4))
    lam /= lam.sum()
    pts = np.einsum("mj,mjd->md", lam, tet)
    out = geometry.barycentric_coordinates(pts, tet)
    assert np.allclose(out, lam, atol=1e-10)
