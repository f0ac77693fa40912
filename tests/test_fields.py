import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import dualmesh, geometry
from declab import fields as fields_module
from declab.complex import SimplicialComplex
from declab.dualmesh import build_dual
from declab.errors import TrivialProblemError, WellCenteredError
from declab.fields import (FormField, consistency_probe, derham_dual, derham_images,
                           derham_primal, hodge_field, laplace_consistency_probe)
from declab.generators import FamilySpec, generate, jitter_interior
from declab.operators import Cochain, discrete_l2, exterior_derivative, hodge_star, laplace
from declab.problems import get_problem
from declab.quadrature import simplex_rule
from declab.solve import stiffness_matrix
import kernel_oracles
from forms import volume_field
from strategies import jittered_wheels
from whitney import _barycentric_gradients, whitney_mass_matrix


@pytest.fixture(scope="module")
def pentagon2d():
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    return cx, build_dual(cx)


def test_hodge_field_tables_2d():
    one = lambda p: np.ones(len(p))
    zero = lambda p: np.zeros(len(p))
    dx = FormField(1, 2, lambda p: np.stack([one(p), zero(p)], axis=1))
    sdx = hodge_field(dx)
    vals = sdx(np.zeros((1, 2)))
    assert np.allclose(vals, [[0.0, 1.0]])  # star dx = dy
    dy = FormField(1, 2, lambda p: np.stack([zero(p), one(p)], axis=1))
    assert np.allclose(hodge_field(dy)(np.zeros((1, 2))), [[-1.0, 0.0]])


def test_hodge_field_tables_3d():
    comps = np.eye(3)
    for i, expect in enumerate([(0, 0, 1.0), (0, -1.0, 0), (1.0, 0, 0)]):
        f = FormField(1, 3, lambda p, i=i: np.repeat(comps[i][None, :], len(p), 0))
        out = hodge_field(f)(np.zeros((1, 3)))
        assert np.allclose(out, [list(expect)]), i


def test_double_hodge_field_sign(rng):
    # exact: the dual side of the consistency probe reads R_h(star star w) off R_h w
    for n in (2, 3):
        pts = rng.standard_normal((50, n))
        for k in range(n + 1):
            f = _plane_waves(n, k)
            out = hodge_field(hodge_field(f))(pts)
            assert np.array_equal(out, (-1.0) ** (k * (n - k)) * f(pts)), (n, k)


def test_derham_dx_over_edges_exact(pentagon2d):
    cx, _ = pentagon2d
    dx = FormField(1, 2, lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    [r] = derham_primal([dx], cx, degree=2)
    e = cx.simplices[1]
    assert np.allclose(r.values, cx.vertices[e[:, 1], 0] - cx.vertices[e[:, 0], 0],
                       atol=1e-14)


def test_derham_commutes_with_derivative(pentagon2d):
    cx, dual = pentagon2d
    b = get_problem("trig2d")
    d0 = exterior_derivative(dual, 0, "primal")
    lhs = d0.apply(derham_primal([b.u], cx, degree=6)[0]).values
    rhs = derham_primal([b.du], cx, degree=6)[0].values
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_constant_volume_form_integrates_to_signed_area(pentagon2d):
    cx, _ = pentagon2d
    c = 3.25
    f = volume_field(2, lambda p: np.full(len(p), c))
    [r] = derham_primal([f], cx, degree=2)
    vols = geometry.unsigned_volume(cx.coords_of(2, slice(None)))
    assert np.allclose(r.values, c * vols, rtol=1e-13)


def test_dual_derham_constant_gives_dual_volumes(pentagon2d):
    cx, dual = pentagon2d
    c = -1.5
    f = volume_field(2, lambda p: np.full(len(p), c))
    [r] = derham_dual([f], dual, degree=2)
    assert np.allclose(r.values, c * dual.volumes[0], rtol=1e-12)


def test_dual_derham_totals_match_primal_quadrature(pentagon2d):
    # oracle: summing the vertex-dual integrals tiles the domain, so the total
    # must equal direct quadrature over all primal triangles
    cx, dual = pentagon2d
    f = volume_field(2, lambda p: p[:, 0] ** 2 * p[:, 1] + 0.5 * p[:, 1] ** 3)
    total_dual = derham_dual([f], dual, degree=6)[0].values.sum()
    total_primal = derham_primal([f], cx, degree=6)[0].values.sum()
    assert total_dual == pytest.approx(total_primal, rel=1e-12)


def test_dual_derham_line_mesh_antiderivative(line_mesh):
    cx, dual = line_mesh
    f = volume_field(1, lambda p: p[:, 0] ** 2)
    [r] = derham_dual([f], dual, degree=4)
    # dual of the middle vertex is [0.5, 1.5]: integral = (1.5^3 - 0.5^3)/3
    assert r.values[1] == pytest.approx((1.5 ** 3 - 0.5 ** 3) / 3.0, rel=1e-13)


def test_derham_constant_2form_on_cube_triangles_matches_minor_expansion():
    # oracle: a constant 2-form integrates to half its pairing with the edge frame
    cx = generate(FamilySpec("cube_kuhn", level=0))
    coef = np.array([0.7, -1.3, 2.1])  # dx^dy, dx^dz, dy^dz
    f = FormField(2, 3, lambda p: np.repeat(coef[None, :], len(p), 0))
    [r] = derham_primal([f], cx, degree=1)
    coords = cx.coords_of(2, slice(None))
    e1, e2 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    expect = np.zeros(cx.num(2))
    for c, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        expect += coef[c] * (e1[:, i] * e2[:, j] - e1[:, j] * e2[:, i])
    assert np.any(expect != 0)
    assert np.allclose(r.values, 0.5 * expect * cx.orientation[2], rtol=1e-13, atol=1e-15)


def _plane_waves(n, k):
    """A k-form on R^n whose components are distinct plane waves."""
    freqs = np.arange(1.0, n + 1)
    return FormField(k, n, lambda p: np.stack(
        [np.cos((c + 1) * (p @ freqs) + c) for c in range(math.comb(n, k))], axis=1))


def _shifted_waves(n, k):
    """A second k-form on R^n, of other frequencies than ``_plane_waves``."""
    freqs = np.arange(2.0, n + 2)
    return FormField(k, n, lambda p: np.stack(
        [np.sin((c + 2) * (p @ freqs) - c) for c in range(math.comb(n, k))], axis=1))


@settings(deadline=None, max_examples=20)
@given(cx=jittered_wheels | st.integers(0, 1).map(
           lambda level: generate(FamilySpec("cube_kuhn", level))))
def test_one_pass_over_several_fields_is_each_field_alone(cx):
    # the corners, the mapped nodes and the minors are shared; each field's
    # values and sums are its own, so every cochain is the single pass's
    n = cx.dim
    dual = build_dual(cx)
    for k in range(n + 1):
        fields = [_plane_waves(n, k), _shifted_waves(n, k), _plane_waves(n, k)]
        for derham, mesh in ((derham_primal, cx), (derham_dual, dual)):
            together = derham(fields, mesh, 6)
            assert len(together) == len(fields)
            for field, cochain in zip(fields, together):
                [alone] = derham([field], mesh, 6)
                assert (cochain.degree, cochain.side) == (alone.degree, alone.side)
                assert np.array_equal(cochain.values, alone.values), (derham, k)
        images = derham_images(fields[:2], cx, dual, 6)
        for field, (primal, starred) in zip(fields, images):
            assert np.array_equal(primal.values, derham_primal([field], cx, 6)[0].values)
            assert np.array_equal(starred.values,
                                  derham_dual([hodge_field(field)], dual, 6)[0].values)


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def test_hodge_field_is_the_scatter_oracle_bit_for_bit(rng):
    # every sign bit survives, of -0.0 and of NaN too: the columns of sign -1
    # are multiplied by -1.0, as the integer sign array did
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.25])
    for n in (1, 2, 3):
        pts = rng.standard_normal((40, n))
        for k in range(n + 1):
            width = math.comb(n, k)
            vals = rng.standard_normal((40, width))
            vals[:len(special)] = special[:, None]
            vals[len(special):2 * len(special)] = special[::-1, None]
            field = FormField(k, n, lambda p, vals=vals: vals[:len(p)])
            got, want = hodge_field(field)(pts), kernel_oracles.hodge_field(field)(pts)
            assert got.shape == want.shape == (40, math.comb(n, n - k)), (n, k)
            assert np.array_equal(_bits(got), _bits(want)), (n, k)


def _assert_derham_maps_equal_the_stacked_oracle(cx):
    n = cx.dim
    dual = build_dual(cx)
    for k in range(n + 1):
        fields = [_plane_waves(n, k), _shifted_waves(n, k)]
        got = (derham_primal(fields, cx, 6), derham_dual(fields, dual, 6),
               derham_images(fields, cx, dual, 6))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields_module, "_integrate", kernel_oracles.integrate)
            mp.setattr(fields_module, "hodge_field", kernel_oracles.hodge_field)
            mp.setattr(fields_module, "fragments", kernel_oracles.fragments)
            want = (derham_primal(fields, cx, 6), derham_dual(fields, dual, 6),
                    derham_images(fields, cx, dual, 6))
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(_bits(a.values), _bits(b.values)), k
        for (a, a_star), (b, b_star) in zip(got[2], want[2]):
            assert np.array_equal(_bits(a.values), _bits(b.values)), k
            assert np.array_equal(_bits(a_star.values), _bits(b_star.values)), k


@pytest.mark.parametrize("family, level", [("pentagon_wheel", 2), ("cube_kuhn", 1)])
def test_derham_maps_equal_the_stacked_oracle_bit_for_bit(family, level):
    _assert_derham_maps_equal_the_stacked_oracle(generate(FamilySpec(family, level)))


@settings(deadline=None, max_examples=10)
@given(cx=jittered_wheels)
def test_derham_maps_equal_the_stacked_oracle_on_jittered_wheels(cx):
    _assert_derham_maps_equal_the_stacked_oracle(cx)


def _assert_derham_maps_ignore_the_layout_of_values(cx):
    du = get_problem("trig2d").du
    f_ordered = FormField(1, 2, lambda p: np.asfortranarray(du(p)))
    assert f_ordered(np.zeros((4, 2))).flags.f_contiguous
    dual = build_dual(cx)
    for derham, mesh in ((derham_primal, cx), (derham_dual, dual)):
        [want], [got] = derham([du], mesh), derham([f_ordered], mesh)
        assert np.array_equal(_bits(got.values), _bits(want.values)), derham


def test_derham_maps_ignore_the_layout_of_values(pentagon2d):
    # an evaluator may return F-ordered values: the weighted sums read them
    # C-ordered, so the cochains keep every bit
    _assert_derham_maps_ignore_the_layout_of_values(pentagon2d[0])


@settings(deadline=None, max_examples=10)
@given(cx=jittered_wheels)
def test_derham_maps_ignore_the_layout_of_values_on_jittered_wheels(cx):
    _assert_derham_maps_ignore_the_layout_of_values(cx)


def test_one_pass_refuses_fields_of_mixed_degree(pentagon2d):
    cx, dual = pentagon2d
    with pytest.raises(ValueError, match="share their degree"):
        derham_primal([_plane_waves(2, 0), _plane_waves(2, 1)], cx)
    with pytest.raises(ValueError, match="no field"):
        derham_dual([], dual)
    with pytest.raises(ValueError, match="lives in R\\^3"):
        derham_primal([_plane_waves(2, 0), _plane_waves(3, 0)], cx)


def _derham_cochains(cx, dual):
    n = cx.dim
    return ([derham_primal([_plane_waves(n, k)], cx, 6)[0].values for k in range(n + 1)]
            + [derham_dual([_plane_waves(n, n - k)], dual, 6)[0].values for k in range(n + 1)])


@settings(deadline=None, max_examples=30)
@given(cx=jittered_wheels | st.integers(0, 1).map(
           lambda level: generate(FamilySpec("cube_kuhn", level))),
       block_nodes=st.integers(1, 60).map(lambda i: 2 * i + 1).filter(lambda b: b % 5))
def test_blocked_quadrature_equals_one_block(cx, block_nodes):
    # the degree-6 rules have 1, 4, 12 and 125 nodes, and an odd block size
    # that is no multiple of 5 divides none but the first: ragged blocks, and
    # a partial last block wherever the block step does not divide the count;
    # sizes below 12 give the triangles one row per block
    dual = build_dual(cx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK_NODES", 1 << 62)
        whole = _derham_cochains(cx, dual)
        mp.setattr(geometry, "BLOCK_NODES", block_nodes)
        blocked = _derham_cochains(cx, dual)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


def _dual_arrays(cx):
    dual = build_dual(cx)
    frags = [dualmesh.fragments(cx, k) for k in range(cx.dim + 1)]
    return [*(dual.centers(k, slice(None)) for k in range(cx.dim + 1)), *dual.volumes,
            *(a for f in frags for a in f),
            *(dual.hodge_ratios(k)[1] for k in range(cx.dim + 1))]


def _refusal(cx):
    with pytest.raises(WellCenteredError) as info:
        build_dual(cx)
    return str(info.value)


@settings(deadline=None, max_examples=30)
@given(cx=jittered_wheels | st.integers(0, 1).map(
           lambda level: generate(FamilySpec("cube_kuhn", level))),
       block_nodes=st.integers(0, 60).map(lambda i: 2 * i + 1))
def test_blocked_dual_equals_one_block(cx, block_nodes):
    # rows of 2, 3 or 4 points: odd block sizes give ragged blocks of
    # block_nodes // width rows, down to one row, and a partial last block
    n = cx.dim
    shear = np.eye(n)
    shear[0, 1] = 2.0   # det 1, so the orientation signs carry over
    off = SimplicialComplex(n, cx.vertices @ shear.T, cx.simplices, cx.orientation, cx.faces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK_NODES", 1 << 62)
        whole, whole_refusal = _dual_arrays(cx), _refusal(off)
        mp.setattr(geometry, "BLOCK_NODES", block_nodes)
        blocked, blocked_refusal = _dual_arrays(cx), _refusal(off)
    for a, b in zip(whole, blocked, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert blocked_refusal == whole_refusal


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fragment_count(cx, k):
    n = cx.dim
    return cx.num(n) * math.factorial(n + 1) // math.factorial(k + 1)


def test_dual_derham_memory_is_bounded_by_the_block():
    # jittered hexagon level 6: 147,456 vertex-dual fragments of 12 nodes each;
    # the points of all 1.77M nodes at once would take 28 MB and their values
    # 14 MB more.  Cube level 3: 589,824 vertex-dual fragments, whose table of
    # int32 chains and int8 signs alone (10 MB) is over the bound.  The trace
    # covers the fragments' construction too
    hexagon = jitter_interior(generate(FamilySpec("pentagon_wheel", 6, n_gon=6)),
                              amplitude=0.14, seed=106)
    assert _fragment_count(hexagon, 0) == 147456
    f = volume_field(2, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
    dual = build_dual(hexagon)
    assert _traced_peak(lambda: derham_dual([f], dual, 6)) < 8e6
    cube = generate(FamilySpec("cube_kuhn", 3))
    table = _fragment_count(cube, 0) * (4 * 4 + 1)
    assert table > 8e6
    dual = build_dual(cube)
    assert _traced_peak(lambda: derham_dual([_plane_waves(3, 3)], dual, 6)) < 8e6


@pytest.mark.parametrize("family, level", [("pentagon_wheel", 5), ("cube_kuhn", 2)])
def test_derham_memory_stays_below_the_corner_stack(monkeypatch, family, level):
    # pentagon level 5: 30,720 vertex-dual fragments and 5,120 triangles;
    # cube level 2: 73,728 fragments and 3,072 tetrahedra.  Each block builds
    # its own fragments and gathers their corners, so the peak stays below one
    # (M, n+1, n) stack of every fragment's corners, which alone would reach
    # it.  The top cells' stack is (n+1)! times smaller than the fragments',
    # so their blocks are smaller too, to keep a block's temporaries well
    # below it
    cx = generate(FamilySpec(family, level))
    dual = build_dual(cx)
    n = cx.dim
    f = _plane_waves(n, n)
    monkeypatch.setattr(geometry, "BLOCK_NODES", 4096)
    corners = _fragment_count(cx, 0) * (n + 1)
    assert _traced_peak(lambda: derham_dual([f], dual, 6)) < corners * n * 8
    monkeypatch.setattr(geometry, "BLOCK_NODES", 1024)
    assert _traced_peak(lambda: derham_primal([f], cx, 6)) < cx.simplices[n].size * n * 8


# -- Whitney forms ------------------------------------------------------------


def _whitney_meshes():
    yield generate(FamilySpec("pentagon_wheel", level=2))
    yield jitter_interior(generate(FamilySpec("pentagon_wheel", 3, n_gon=6)),
                          amplitude=0.14, seed=100)
    yield generate(FamilySpec("corner", level=2))
    yield generate(FamilySpec("cube_kuhn", level=1))


def test_whitney_constant_cochain_reproduces_constants(rng):
    # Whitney interpolation of R_h alpha is alpha itself for a constant k-form
    for cx in _whitney_meshes():
        n = cx.dim
        area = geometry.unsigned_volume(cx.coords_of(n, slice(None))).sum()
        for k in range(n + 1):
            coef = rng.standard_normal(math.comb(n, k))
            alpha = FormField(k, n, lambda p, c=coef: np.repeat(c[None, :], len(p), 0))
            c = derham_primal([alpha], cx, degree=1)[0].values
            g = whitney_mass_matrix(cx, k)
            assert c @ (g @ c) == pytest.approx(coef @ coef * area, rel=1e-12), (n, k)


def test_whitney_mass_pulls_back_to_the_cotangent_stiffness():
    # W d = d W, so d0^T G_1 d0 is the P1 stiffness, which in 2D is the
    # cotangent Laplacian d0^T star_1 d0 (on the 3D Kuhn cube it is not)
    for cx in (cx for cx in _whitney_meshes() if cx.dim == 2):
        dual = build_dual(cx)
        d0 = exterior_derivative(dual, 0, "primal").as_matrix()
        lhs = (d0.T @ whitney_mass_matrix(cx, 1) @ d0).toarray()
        rhs = stiffness_matrix(cx, dual).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_whitney_hat_norm_closed_form(pentagon2d):
    # oracle: the linear-element mass of a hat is sum |T|/6 over incident cells
    cx, _ = pentagon2d
    vols = geometry.unsigned_volume(cx.coords_of(2, slice(None)))
    incident = np.any(cx.simplices[2] == 0, axis=1)
    g = whitney_mass_matrix(cx, 0)
    assert g[0, 0] == pytest.approx(vols[incident].sum() / 6.0, rel=1e-12)


def _whitney_gram_by_quadrature(cx, k):
    """Oracle: the Gram matrix from point values of the local Whitney forms
    k! sum_i (-1)^i lam_i dlam_0 ^ .. (no i) .. ^ dlam_k, by a degree-2 rule."""
    n = cx.dim
    rule = simplex_rule(n, 2)
    grads = _barycentric_gradients(cx)
    vols = geometry.unsigned_volume(cx.coords_of(n, slice(None)))
    vals, idx = [], []
    for face in combinations(range(n + 1), k + 1):
        v = 0.0
        for i, drop in enumerate(face):
            keep = grads[:, [a for a in face if a != drop], :]
            wedge = np.stack([np.linalg.det(keep[:, :, list(rho)])
                              for rho in combinations(range(n), k)], axis=1)
            v = v + (-1) ** i * rule.points[None, :, drop, None] * wedge[:, None, :]
        vals.append(math.factorial(k) * v)
        idx.append(cx.index_of(k, cx.simplices[n][:, list(face)]))
    g = np.zeros((cx.num(k), cx.num(k)))
    for va, ia in zip(vals, idx):
        for vb, ib in zip(vals, idx):
            local = vols * np.einsum("mqc,mqc,q->m", va, vb, rule.weights)
            np.add.at(g, (ia, ib), local * cx.orientation[k][ia] * cx.orientation[k][ib])
    return g


def test_whitney_mass_matrix_matches_direct_quadrature(rng):
    for cx in (generate(FamilySpec("pentagon_wheel", level=2)),
               generate(FamilySpec("cube_kuhn", level=0))):
        for k in range(cx.dim + 1):
            g = whitney_mass_matrix(cx, k)
            assert abs(g - g.T).max() <= 1e-13 * abs(g).max()
            quad = _whitney_gram_by_quadrature(cx, k)
            assert np.abs(g.toarray() - quad).max() <= 1e-12 * np.abs(quad).max()
            v = rng.standard_normal(cx.num(k))
            assert v @ (g @ v) == pytest.approx(v @ quad @ v, rel=1e-12)


def test_whitney_norm_equivalence_smoke(rng):
    ratios = []
    for level in (1, 2, 3):
        cx = generate(FamilySpec("pentagon_wheel", level=level))
        dual = build_dual(cx)
        c = Cochain(0, "primal", rng.standard_normal(cx.num(0)))
        g = whitney_mass_matrix(cx, 0)
        ratios.append(math.sqrt(c.values @ (g @ c.values)) / discrete_l2(dual, c))
    assert 0.3 < min(ratios) and max(ratios) < 3.0


# -- consistency ----------------------------------------------------------------


def test_probe_vanishes_on_constant_coefficient_forms(pentagon2d):
    cx, dual = pentagon2d
    const1 = FormField(1, 2, lambda p: np.stack(
        [np.full(len(p), 2.0), np.full(len(p), -0.7)], axis=1))
    rec = consistency_probe(derham_images([const1], cx, dual, 4)[0], cx, dual)
    assert rec.err_max <= 1e-13
    assert rec.err_max_dual_side <= 1e-13


def test_probe_max_rate_for_functions():
    b = get_problem("trig2d")
    errs = []
    for level in (2, 3, 4):
        cx = generate(FamilySpec("pentagon_wheel", level=level))
        dual = build_dual(cx)
        errs.append(consistency_probe(derham_images([b.u], cx, dual)[0], cx, dual).err_max)
    rate = math.log2(errs[-2] / errs[-1])
    assert rate == pytest.approx(3.0, abs=0.25)


def test_dual_side_is_starred_primal_side(pentagon2d):
    # the two expressions are linked by the (isometric) dual-side star, so
    # their L2 norms agree even though their max norms scale differently
    cx, dual = pentagon2d
    b = get_problem("trig2d")
    [(w, star_w)] = derham_images([b.du], cx, dual)
    rec = consistency_probe((w, star_w), cx, dual)
    # the dual-side expression star_h R_h(star w) - R_h(star star w), k = 1, n = 2
    dual_expr = Cochain(1, "primal", hodge_star(dual, 1, side="dual").apply(star_w).values
                        + w.values)
    assert rec.err_l2_primal_side == pytest.approx(discrete_l2(dual, dual_expr), rel=1e-9)


def test_laplace_probe_identity_gap(pentagon2d):
    b = get_problem("trig2d")
    cx, dual = pentagon2d
    rec = laplace_consistency_probe(b, cx, dual, derham_images([b.u, b.f], cx, dual))
    assert rec.identity_gap <= 1e-8
    assert rec.total_max > 0


@pytest.mark.parametrize("family, level, problem, jitter", [
    ("pentagon_wheel", 5, "trig2d", None), ("corner", 5, "trig2d", None),
    ("cube_kuhn", 3, "trig3d", None), ("hexagon", 4, "trig2d", 0.14)])
def test_laplace_probe_is_the_sparse_laplacian(family, level, problem, jitter):
    # with the sparse Delta_h R_h u in place of R_h f, the probe's total is
    # the gap between its edge kernel and the sparse operator algebra; R_h u
    # is pointwise, so a low quadrature degree serves
    if family == "hexagon":
        cx = jitter_interior(generate(FamilySpec("pentagon_wheel", level, n_gon=6)),
                             amplitude=jitter, seed=100)
    else:
        cx = generate(FamilySpec(family, level))
    b, dual = get_problem(problem), build_dual(cx)
    (ru, r_star_u), (_, r_star_f) = derham_images([b.u, b.f], cx, dual, degree=2)
    want = laplace(dual, 0).apply(ru)
    rec = laplace_consistency_probe(b, cx, dual, [(ru, r_star_u), (want, r_star_f)],
                                    degree=2)
    scale = np.max(np.abs(want.values[cx.interior_vertex_indices()]))
    assert rec.total_max <= 1e-11 * scale


def test_laplace_probe_refuses_a_mesh_without_interior_vertices():
    cx = generate(FamilySpec("square", level=0, pattern=1))
    b, dual = get_problem("trig2d"), build_dual(cx)
    images = derham_images([b.u, b.f], cx, dual)
    with pytest.raises(TrivialProblemError, match="no interior vertices"):
        laplace_consistency_probe(b, cx, dual, images)


def test_missing_analytic_field_errors():
    b = get_problem("trig3d")
    from declab.study import run_consistency_study
    with pytest.raises(ValueError, match="no analytic"):
        run_consistency_study(FamilySpec("cube_kuhn"), b, 3, 2)
