import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import fields, geometry
from declab.complex import build_complex
from declab.dualmesh import build_dual
from declab.fields import (FormField, WhitneyField, consistency_probe,
                           derham_dual, derham_primal, hodge_field,
                           laplace_consistency_probe, scalar_field,
                           volume_field, whitney_l2_norm)
from declab.generators import FamilySpec, generate, jitter_interior
from declab.operators import Cochain, exterior_derivative
from declab.problems import get_problem
from declab.quadrature import simplex_rule
from strategies import jittered_wheels


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


def test_double_hodge_field_sign():
    for n, k in ((2, 0), (2, 1), (3, 1), (3, 2)):
        ncomp = math.comb(n, k)
        rng = np.random.default_rng(n * 10 + k)
        coeffs = rng.standard_normal(ncomp)
        f = FormField(k, n, lambda p, c=coeffs: np.repeat(c[None, :], len(p), 0))
        out = hodge_field(hodge_field(f))(np.zeros((1, n)))
        assert np.allclose(out, (-1.0) ** (k * (n - k)) * coeffs)


def test_derham_dx_over_edges_exact(pentagon2d):
    cx, _ = pentagon2d
    dx = FormField(1, 2, lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1))
    r = derham_primal(dx, cx, degree=2)
    e = cx.simplices[1]
    assert np.allclose(r.values, cx.vertices[e[:, 1], 0] - cx.vertices[e[:, 0], 0],
                       atol=1e-14)


def test_derham_commutes_with_derivative(pentagon2d):
    cx, dual = pentagon2d
    b = get_problem("trig2d")
    d0 = exterior_derivative(dual, 0, "primal")
    lhs = d0.apply(derham_primal(b.u, cx, degree=6)).values
    rhs = derham_primal(b.du, cx, degree=6).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_constant_volume_form_integrates_to_signed_area(pentagon2d):
    cx, _ = pentagon2d
    c = 3.25
    f = volume_field(2, lambda p: np.full(len(p), c))
    r = derham_primal(f, cx, degree=2)
    vols = geometry.unsigned_volume(cx.coords_of(2))
    assert np.allclose(r.values, c * vols, rtol=1e-13)


def test_dual_derham_constant_gives_dual_volumes(pentagon2d):
    cx, dual = pentagon2d
    c = -1.5
    f = volume_field(2, lambda p: np.full(len(p), c))
    r = derham_dual(f, dual, degree=2)
    assert np.allclose(r.values, c * dual.volumes[0], rtol=1e-12)


def test_dual_derham_totals_match_primal_quadrature(pentagon2d):
    # oracle: summing the vertex-dual integrals tiles the domain, so the total
    # must equal direct quadrature over all primal triangles
    cx, dual = pentagon2d
    f = volume_field(2, lambda p: p[:, 0] ** 2 * p[:, 1] + 0.5 * p[:, 1] ** 3)
    total_dual = derham_dual(f, dual, degree=6).values.sum()
    total_primal = derham_primal(f, cx, degree=6).values.sum()
    assert total_dual == pytest.approx(total_primal, rel=1e-12)


def test_dual_derham_line_mesh_antiderivative(line_mesh):
    cx, dual = line_mesh
    f = volume_field(1, lambda p: p[:, 0] ** 2)
    r = derham_dual(f, dual, degree=4)
    # dual of the middle vertex is [0.5, 1.5]: integral = (1.5^3 - 0.5^3)/3
    assert r.values[1] == pytest.approx((1.5 ** 3 - 0.5 ** 3) / 3.0, rel=1e-13)


def test_derham_constant_2form_on_cube_triangles_matches_minor_expansion():
    # oracle: a constant 2-form integrates to half its pairing with the edge frame
    cx = generate(FamilySpec("cube_kuhn", level=0))
    coef = np.array([0.7, -1.3, 2.1])  # dx^dy, dx^dz, dy^dz
    f = FormField(2, 3, lambda p: np.repeat(coef[None, :], len(p), 0))
    r = derham_primal(f, cx, degree=1)
    coords = cx.coords_of(2)
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


def _derham_cochains(cx, dual):
    n = cx.dim
    return ([derham_primal(_plane_waves(n, k), cx, 6).values for k in range(n + 1)]
            + [derham_dual(_plane_waves(n, n - k), dual, 6).values for k in range(n + 1)])


@settings(deadline=None, max_examples=30)
@given(cx=jittered_wheels | st.integers(0, 1).map(
           lambda level: generate(FamilySpec("cube_kuhn", level))),
       block_nodes=st.integers(1, 60).map(lambda i: 2 * i + 1).filter(lambda b: b % 5))
def test_blocked_quadrature_equals_one_block(cx, block_nodes):
    # the degree-6 rules have 1, 4, 16 and 125 nodes, and an odd block size
    # that is no multiple of 5 divides none but the first: ragged blocks, and
    # a partial last block wherever the block step does not divide the count
    dual = build_dual(cx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "BLOCK_NODES", 1 << 62)
        whole = _derham_cochains(cx, dual)
        mp.setattr(fields, "BLOCK_NODES", block_nodes)
        blocked = _derham_cochains(cx, dual)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


def test_dual_derham_memory_is_bounded_by_the_block():
    # jittered hexagon level 6: 147,456 vertex-dual fragments of 16 nodes each;
    # the points of all 2.4M nodes at once would take 38 MB alone
    cx = jitter_interior(generate(FamilySpec("pentagon_wheel", 6, n_gon=6)),
                         amplitude=0.14, seed=106)
    dual = build_dual(cx)
    assert len(dual.flags(0)[0]) == 147456   # built and cached before tracing
    f = volume_field(2, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
    tracemalloc.start()
    try:
        derham_dual(f, dual, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# -- Whitney forms ------------------------------------------------------------


def test_whitney_hat_function(pentagon2d):
    cx, _ = pentagon2d
    vals = np.zeros(cx.num(0))
    vals[0] = 1.0
    w = WhitneyField(Cochain(0, "primal", vals), cx)
    cell = int(np.flatnonzero(np.any(cx.simplices[2] == 0, axis=1))[0])
    p = int(np.flatnonzero(cx.simplices[2][cell] == 0)[0])
    at_vertex = np.eye(3)[p][None, :]
    assert w.eval_on_cells(np.array([cell]), at_vertex)[0, 0, 0] == pytest.approx(1.0)
    # affine on incident cells: value at the midpoint to a neighbor is 1/2
    mid = 0.5 * (np.eye(3)[p] + np.eye(3)[(p + 1) % 3])[None, :]
    assert w.eval_on_cells(np.array([cell]), mid)[0, 0, 0] == pytest.approx(0.5)


def test_whitney_constant_cochain_reproduces_constants(pentagon2d):
    cx, _ = pentagon2d
    area = geometry.unsigned_volume(cx.coords_of(2)).sum()
    nrm = whitney_l2_norm(Cochain(0, "primal", np.ones(cx.num(0))), cx)
    assert nrm == pytest.approx(math.sqrt(area), rel=1e-12)


def test_whitney_hat_norm_closed_form(pentagon2d):
    # oracle: the linear-element mass of a hat is sum |T|/6 over incident cells
    cx, _ = pentagon2d
    vals = np.zeros(cx.num(0))
    vals[0] = 1.0
    nrm = whitney_l2_norm(Cochain(0, "primal", vals), cx)
    vols = geometry.unsigned_volume(cx.coords_of(2))
    incident = [t for t in range(cx.num(2)) if 0 in cx.simplices[2][t]]
    assert nrm == pytest.approx(math.sqrt(sum(vols[t] / 6.0 for t in incident)),
                                rel=1e-12)


def test_edge_whitney_form_integrates_to_one():
    # brute-force quadrature of lam0 d lam1 - lam1 d lam0 along its own edge
    cx = build_complex(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    vals = np.zeros(cx.num(1))
    vals[e01] = 1.0
    w = WhitneyField(Cochain(1, "primal", vals), cx)
    rule = simplex_rule(1, 6)
    t = rule.points[:, 1]
    total = 0.0
    for q, wq in zip(t, rule.weights):
        lam = np.array([[1 - q, q, 0.0]])
        comps = w.eval_on_cells(np.array([0]), lam)[0, 0]
        total += wq * comps[0]  # tangent (1, 0), edge length 1
    assert total == pytest.approx(1.0, rel=1e-12)


def test_whitney_commutes_with_derivative(pentagon2d, rng):
    cx, dual = pentagon2d
    for k in (0, 1):
        c = Cochain(k, "primal", rng.standard_normal(cx.num(k)))
        w = WhitneyField(c, cx)
        dc = exterior_derivative(dual, k, "primal").apply(c)
        wd = WhitneyField(dc, cx)
        rule = simplex_rule(2, 4)
        cells = np.arange(cx.num(2))
        const = w.derivative_on_cells(cells)
        other = wd.eval_on_cells(cells, rule.points)
        gap = np.abs(other - const[:, None, :]).max()
        assert gap <= 1e-10


def test_whitney_mass_matrix_matches_direct_quadrature(pentagon2d, rng):
    from declab.fields import whitney_mass_matrix
    cx, _ = pentagon2d
    for k in (0, 1):
        g = whitney_mass_matrix(cx, k)
        assert abs(g - g.T).max() <= 1e-13 * abs(g).max()
        for _ in range(5):
            v = rng.standard_normal(cx.num(k))
            quad = whitney_l2_norm(Cochain(k, "primal", v), cx)
            assert math.sqrt(v @ (g @ v)) == pytest.approx(quad, rel=1e-12)


def test_whitney_norm_equivalence_smoke(rng):
    ratios = []
    for level in (1, 2, 3):
        cx = generate(FamilySpec("pentagon_wheel", level=level))
        dual = build_dual(cx)
        from declab.operators import discrete_l2
        c = Cochain(0, "primal", rng.standard_normal(cx.num(0)))
        ratios.append(whitney_l2_norm(c, cx) / discrete_l2(dual, c))
    assert 0.3 < min(ratios) and max(ratios) < 3.0


# -- consistency ----------------------------------------------------------------


def test_probe_vanishes_on_constant_coefficient_forms(pentagon2d):
    cx, dual = pentagon2d
    const1 = FormField(1, 2, lambda p: np.stack(
        [np.full(len(p), 2.0), np.full(len(p), -0.7)], axis=1))
    rec = consistency_probe(const1, cx, dual, degree=4)
    assert rec.err_max <= 1e-13
    assert rec.err_max_dual_side <= 1e-13


def test_probe_max_rate_for_functions():
    b = get_problem("trig2d")
    errs = []
    for level in (2, 3, 4):
        cx = generate(FamilySpec("pentagon_wheel", level=level))
        dual = build_dual(cx)
        errs.append(consistency_probe(b.u, cx, dual, degree=6).err_max)
    rate = math.log2(errs[-2] / errs[-1])
    assert rate == pytest.approx(3.0, abs=0.25)


def test_dual_side_is_starred_primal_side(pentagon2d):
    # the two expressions are linked by the (isometric) dual-side star, so
    # their L2 norms agree even though their max norms scale differently
    cx, dual = pentagon2d
    b = get_problem("trig2d")
    rec = consistency_probe(b.du, cx, dual, degree=6)
    assert rec.err_l2_primal_side == pytest.approx(rec.err_l2_dual_side, rel=1e-9)


def test_laplace_probe_identity_gap(pentagon2d):
    b = get_problem("trig2d")
    cx, dual = pentagon2d
    rec = laplace_consistency_probe(b, cx, dual, degree=6)
    assert rec.identity_gap <= 1e-8
    assert rec.total_max > 0


def test_missing_analytic_field_errors():
    b = get_problem("trig3d")
    from declab.study import run_consistency_study
    with pytest.raises(ValueError, match="no analytic"):
        run_consistency_study(FamilySpec("cube_kuhn"), b, 3, 2)
