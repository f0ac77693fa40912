import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.complex import build_complex
from declab.dualmesh import build_dual
from declab.errors import SingularStarError, TagMismatchError
from declab.generators import FamilySpec, generate
from declab.operators import (Cochain, codifferential, discrete_l2,
                              discrete_l2_dual, edge_differences, edge_sums,
                              exterior_derivative,
                              h1_seminorm, hodge_star,
                              inner_product, laplace, max_norm)
from strategies import jittered_wheels


@pytest.fixture(scope="module")
def pentagon2():
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    return cx, build_dual(cx)


def test_vertex_star_entries_are_dual_areas(pentagon2):
    cx, dual = pentagon2
    s0 = hodge_star(dual, 0, "primal")
    assert np.allclose(s0.diagonal(), dual.volumes[0])


def test_edge_star_on_uniform_line_mesh():
    ell = 0.25
    pts = np.arange(5, dtype=float)[:, None] * ell
    cx = build_complex(1, pts, [(i, i + 1) for i in range(4)])
    dual = build_dual(cx)
    s1 = hodge_star(dual, 1, "primal")
    assert np.allclose(s1.diagonal(), 1.0 / ell)


def test_double_star_sign_law_exact(pentagon2):
    cx, dual = pentagon2
    n = cx.dim
    for k in range(n + 1):
        comp = hodge_star(dual, n - k, "dual") @ hodge_star(dual, k, "primal")
        # exact: num == sign * den, immune to reciprocal rounding
        assert np.array_equal(comp.num, (-1) ** (k * (n - k)) * comp.den)


def test_star_isometry(pentagon2, rng):
    cx, dual = pentagon2
    for k in range(cx.dim + 1):
        c = Cochain(k, "primal", rng.standard_normal(cx.num(k)))
        sc = hodge_star(dual, k, "primal").apply(c)
        assert discrete_l2_dual(dual, sc) == pytest.approx(
            discrete_l2(dual, c), rel=1e-12)


def test_derivative_of_vertex_function_is_difference(pentagon2, rng):
    cx, dual = pentagon2
    f = rng.standard_normal(cx.num(0))
    d0 = exterior_derivative(dual, 0, "primal")
    df = d0.apply(Cochain(0, "primal", f)).values
    e = cx.simplices[1]
    assert np.allclose(df, f[e[:, 1]] - f[e[:, 0]])


def test_dd_zero_both_sides(pentagon2):
    cx, dual = pentagon2
    for k in range(cx.dim - 1):
        p = (exterior_derivative(dual, k + 1, "primal")
             @ exterior_derivative(dual, k, "primal")).as_matrix()
        d = (exterior_derivative(dual, k + 1, "dual")
             @ exterior_derivative(dual, k, "dual")).as_matrix()
        assert p.nnz == 0 or not p.toarray().any()
        assert d.nnz == 0 or not d.toarray().any()


def test_dual_derivative_sign_table_on_worked_triangle(worked_triangle):
    cx, dual = worked_triangle
    # dual d on C^1(dual) realizes minus the vertex-edge incidence; for the
    # first vertex both incident dual edges enter positively
    d1d = exterior_derivative(dual, 1, "dual").as_matrix().toarray()
    assert np.array_equal(d1d, -cx.boundary_matrix(1).toarray())
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    e02 = int(cx.index_of(1, [(0, 2)])[0])
    assert d1d[0, e01] == 1 and d1d[0, e02] == 1


def test_adjointness_of_codifferential(pentagon2, rng):
    cx, dual = pentagon2
    for k in range(cx.dim):
        d = exterior_derivative(dual, k, "primal")
        delta = codifferential(dual, k + 1)
        om = Cochain(k, "primal", rng.standard_normal(cx.num(k)))
        eta = Cochain(k + 1, "primal", rng.standard_normal(cx.num(k + 1)))
        lhs = inner_product(dual, d.apply(om), eta)
        rhs = inner_product(dual, om, delta.apply(eta))
        scale = discrete_l2(dual, d.apply(om)) * discrete_l2(dual, eta)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-30)


def test_codifferential_matches_star_inverse_boundary_star(pentagon2):
    # both printed sign forms collapse to star^-1 d star with overall +1
    cx, dual = pentagon2
    for k in (1, 2):
        delta = codifferential(dual, k).as_matrix().toarray()
        dvol_k, pvol_k = dual.hodge_ratios(k)
        dvol_km, pvol_km = dual.hodge_ratios(k - 1)
        direct = (sp.diags(pvol_km / dvol_km) @ cx.boundary_matrix(k)
                  @ sp.diags(dvol_k / pvol_k)).toarray()
        assert np.allclose(delta, direct, rtol=1e-12, atol=1e-14)


def test_codifferential_on_functions_is_zero_map(pentagon2):
    cx, dual = pentagon2
    delta0 = codifferential(dual, 0)
    out = delta0.apply(Cochain(0, "primal", np.ones(cx.num(0))))
    assert out.degree == -1 and out.values.size == 0


def test_line_mesh_codifferential_is_backward_difference(line_mesh):
    # hand computation on the 3-vertex chain: (delta eta)(v1) = eta01 - eta12
    cx, dual = line_mesh
    eta = Cochain(1, "primal", np.array([2.0, 5.0]))
    delta = codifferential(dual, 1).apply(eta)
    assert delta.values[1] == pytest.approx(2.0 - 5.0)


def test_laplace_kills_constants(pentagon2):
    cx, dual = pentagon2
    out = laplace(dual, 0).apply(Cochain(0, "primal", np.full(cx.num(0), 3.7)))
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_laplace_zero_on_linear_at_interior(pentagon2):
    cx, dual = pentagon2
    u = 2.0 * cx.vertices[:, 0] - 0.5 * cx.vertices[:, 1]
    out = laplace(dual, 0).apply(Cochain(0, "primal", u)).values
    interior = cx.interior_vertex_indices()
    assert np.max(np.abs(out[interior])) <= 1e-10


def test_weighted_laplacian_symmetric(pentagon2):
    cx, dual = pentagon2
    lap = laplace(dual, 0).as_matrix()
    s = sp.diags(dual.volumes[0]) @ lap
    asym = abs(s - s.T).max()
    assert asym <= 1e-12 * abs(s).max()


def test_inner_product_symmetry_and_mismatch(pentagon2, rng):
    cx, dual = pentagon2
    a = Cochain(1, "primal", rng.standard_normal(cx.num(1)))
    b = Cochain(1, "primal", rng.standard_normal(cx.num(1)))
    assert inner_product(dual, a, b) == pytest.approx(inner_product(dual, b, a))
    with pytest.raises(TagMismatchError):
        inner_product(dual, a, Cochain(0, "primal", np.zeros(cx.num(0))))
    with pytest.raises(TagMismatchError):
        hodge_star(dual, 0, "primal") @ hodge_star(dual, 0, "primal")


def test_single_entry_norm(worked_triangle):
    cx, dual = worked_triangle
    area = dual.volumes[0][0]
    x = 1.7
    vals = np.zeros(cx.num(0))
    vals[0] = x
    c = Cochain(0, "primal", vals)
    assert discrete_l2(dual, c) ** 2 == pytest.approx(area * x * x)


def test_h1_seminorm_is_norm_of_derivative(pentagon2, rng):
    cx, dual = pentagon2
    c = Cochain(0, "primal", rng.standard_normal(cx.num(0)))
    d0 = exterior_derivative(dual, 0, "primal")
    assert h1_seminorm(dual, c) == pytest.approx(discrete_l2(dual, d0.apply(c)))


@pytest.mark.parametrize("degree, side", [(1, "primal"), (0, "dual")])
def test_h1_seminorm_takes_only_primal_0_cochains(pentagon2, degree, side):
    cx, dual = pentagon2
    size = cx.num(degree) if side == "primal" else cx.num(cx.dim - degree)
    with pytest.raises(TagMismatchError):
        h1_seminorm(dual, Cochain(degree, side, np.ones(size)))


def test_max_norm(pentagon2):
    cx, _ = pentagon2
    vals = np.zeros(cx.num(0))
    vals[3] = -2.5
    assert max_norm(Cochain(0, "primal", vals)) == 2.5


def test_singular_star_raises_on_cube():
    cx = generate(FamilySpec("cube_kuhn", level=0))
    dual = build_dual(cx)
    # inverts the edge star, which has zeros; the edge prints as plain ints
    with pytest.raises(SingularStarError, match=r"dual volume of 1-simplex \(0, 4\) is zero"):
        hodge_star(dual, 2, "dual")
    with pytest.raises(SingularStarError):
        codifferential(dual, 2)


def test_inner_product_over_zero_dual_volumes():
    # the level-0 cube is weakly well-centered: 44 of its 98 edges have zero
    # dual area, so a dual 2-cochain there carries infinite weight
    cx = generate(FamilySpec("cube_kuhn", level=0))
    dual = build_dual(cx)
    zero = dual.volumes[1] == 0.0
    assert (zero.sum(), cx.num(1)) == (44, 98)
    vals = np.arange(1.0, cx.num(1) + 1)
    c = Cochain(2, "dual", vals)
    assert inner_product(dual, c, c) == np.inf
    vals[zero] = 0.0
    c = Cochain(2, "dual", vals)
    dvol, pvol = dual.hodge_ratios(1)
    rest = ~zero
    expected = np.sum(vals[rest] ** 2 * pvol[rest] / dvol[rest])
    assert inner_product(dual, c, c) == pytest.approx(expected, rel=1e-14)
    assert np.isfinite(expected) and expected > 0


def reference_inner_product(dual, a, b):
    """Oracle: the sum (a, b)_h as one expression per entry, over the entries
    of nonzero weight denominator; inf when a zero one meets a nonzero product."""
    n = dual.complex.dim
    dvol, pvol = dual.hodge_ratios(a.degree if a.side == "primal" else n - a.degree)
    num, den = (dvol, pvol) if a.side == "primal" else (pvol, dvol)
    prod, keep = a.values * b.values, den != 0
    if np.any(prod[~keep] != 0):
        return np.inf
    return float(np.sum(prod[keep] * num[keep] / den[keep]))


@pytest.mark.parametrize("family, level", [("pentagon_wheel", 3), ("cube_kuhn", 1)])
def test_inner_product_equals_the_one_expression_bit_for_bit(family, level, rng):
    # the cube's zero dual areas take the branch that drops their entries
    cx = generate(FamilySpec(family, level))
    dual = build_dual(cx)
    for k in range(cx.dim + 1):
        for side in ("primal", "dual"):
            base = k if side == "primal" else cx.dim - k
            x, y = rng.standard_normal((2, cx.num(base)))
            y[dual.volumes[base] == 0] = 0.0
            a, b = Cochain(k, side, x), Cochain(k, side, y)
            got = inner_product(dual, a, b)
            assert np.float64(got).view(np.int64) == \
                np.float64(reference_inner_product(dual, a, b)).view(np.int64), (k, side)
    zero = dual.volumes[1] == 0
    if zero.any():
        c = Cochain(cx.dim - 1, "dual", np.ones(cx.num(1)))
        assert inner_product(dual, c, c) == reference_inner_product(dual, c, c) == np.inf


def test_dual_derivative_norm_grows_like_inverse_h():
    norms = []
    for lev in range(1, 5):
        cx = generate(FamilySpec("pentagon_wheel", level=lev))
        dual = build_dual(cx)
        t = (exterior_derivative(dual, 1, "dual")
             @ hodge_star(dual, 1, "primal")).as_matrix()
        dvol1, pvol1 = dual.hodge_ratios(1)
        w_dom = dvol1 / pvol1
        w_cod = 1.0 / dual.volumes[0]
        a = sp.diags(np.sqrt(w_cod)) @ t @ sp.diags(1.0 / np.sqrt(w_dom))
        norms.append(sp.linalg.svds(a.tocsc(), k=1,
                                    return_singular_vectors=False)[0])
    growth = np.log2(np.array(norms[1:]) / np.array(norms[:-1]))
    assert np.all(growth <= 1.05)
    # the star itself is an isometry: operator norm 1 between discrete L2 spaces
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    dual = build_dual(cx)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = Cochain(1, "primal", rng.standard_normal(cx.num(1)))
        ratio = discrete_l2_dual(dual, hodge_star(dual, 1, "primal").apply(c)) \
            / discrete_l2(dual, c)
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_degree_range_checks(pentagon2):
    cx, dual = pentagon2
    with pytest.raises(ValueError):
        exterior_derivative(dual, 2, "primal")  # no 3-cochains in 2D
    with pytest.raises(ValueError):
        exterior_derivative(dual, -1, "dual")
    with pytest.raises(ValueError):
        hodge_star(dual, 3, "primal")
    with pytest.raises(ValueError):
        codifferential(dual, 5)
    with pytest.raises(ValueError):
        laplace(dual, 3)
    with pytest.raises(ValueError):
        cx.boundary_matrix(0)
    with pytest.raises(TagMismatchError):
        hodge_star(dual, 1, "sideways")


def test_laplace_all_degrees_compose(pentagon2, rng):
    cx, dual = pentagon2
    lap1 = laplace(dual, 1)
    direct = (codifferential(dual, 2) @ exterior_derivative(dual, 1, "primal")
              + exterior_derivative(dual, 0, "primal") @ codifferential(dual, 1))
    x = rng.standard_normal(cx.num(1))
    assert np.allclose(lap1.apply(x), direct.apply(x), rtol=1e-12)
    lap2 = laplace(dual, 2)  # top degree: only d delta survives
    assert lap2.shape == (cx.num(2), cx.num(2))


def test_operator_application_checks_tags(pentagon2):
    cx, dual = pentagon2
    d0 = exterior_derivative(dual, 0, "primal")
    with pytest.raises(TagMismatchError):
        d0.apply(Cochain(1, "primal", np.zeros(cx.num(1))))
    with pytest.raises(TagMismatchError):
        Cochain(0, "sideways", np.zeros(3))


def _vertex_values(n, seed):
    """Normal values, a third of them repeated and a tenth zero, so that some
    edges see equal or zero ends."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v[rng.random(n) < 1 / 3] = v[0]
    v[rng.random(n) < 0.1] = 0.0
    return v


def _assert_edge_differences_are_the_sparse_derivative(cx, seed):
    v = _vertex_values(cx.num(0), seed)
    want = exterior_derivative(build_dual(cx), 0).apply(Cochain(0, "primal", v)).values
    assert np.array_equal(edge_differences(cx, v).view(np.int64), want.view(np.int64))
    # and edge_sums is the product by its transpose, the incidence matrix
    g = _vertex_values(cx.num(1), seed + 1)
    want = cx.boundary_matrix(1) @ g
    assert np.array_equal(edge_sums(cx, g).view(np.int64), want.view(np.int64))


edge_meshes = jittered_wheels | st.integers(0, 2).map(
    lambda level: generate(FamilySpec("cube_kuhn", level)))


@settings(deadline=None, max_examples=25)
@given(cx=edge_meshes, seed=st.integers(0, 2 ** 32 - 1))
def test_edge_differences_are_the_sparse_derivative(cx, seed):
    _assert_edge_differences_are_the_sparse_derivative(cx, seed)


@settings(deadline=None, max_examples=25)
@given(cx=edge_meshes, seed=st.integers(0, 2 ** 32 - 1))
def test_edge_sums_are_the_adjoint_of_edge_differences(cx, seed):
    # integer values keep every product and sum exact, so the pairing is too
    rng = np.random.default_rng(seed)
    v = rng.integers(-1000, 1000, cx.num(0)).astype(float)
    g = rng.integers(-1000, 1000, cx.num(1)).astype(float)
    assert np.sum(g * edge_differences(cx, v)) == np.sum(v * edge_sums(cx, g))


def test_edge_differences_follow_a_negative_edge_orientation():
    # on the line the edges are the top cells: sorted ids over decreasing
    # coordinates give each the orientation -1
    cx = build_complex(1, [[2.0], [1.0], [0.0], [-1.5]], [(0, 1), (1, 2), (2, 3)])
    assert list(cx.orientation[1]) == [-1, -1, -1]
    for seed in range(5):
        _assert_edge_differences_are_the_sparse_derivative(cx, seed)
