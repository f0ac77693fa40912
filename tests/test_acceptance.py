"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the table-reproduction studies take a few minutes total.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from declab.dualmesh import build_dual, fragments
from declab.errors import SingularStarError
from declab.fields import derham_images, laplace_consistency_probe
from declab.generators import FamilySpec, generate
from declab.operators import (Cochain, codifferential, discrete_l2,
                              discrete_l2_dual, exterior_derivative, hodge_star,
                              inner_product)
from declab.problems import get_problem, linear
from declab.solve import error_report, make_problem, solve, stiffness_matrix
from declab.study import fit_rate, run_consistency_study, run_convergence_study
from whitney import whitney_mass_matrix

# frozen reference errors for the canonical wheel and cube runs,
# level: (err_max, err_h1, err_l2)
EXPECTED_PENTAGON = {
    1: (3.202794e-03, 1.072846e-02, 2.821094e-03),
    2: (7.836073e-04, 2.879579e-03, 6.332754e-04),
    3: (1.956510e-04, 7.353114e-04, 1.532456e-04),
    4: (4.891893e-05, 1.849975e-04, 3.798925e-05),
    5: (1.227086e-05, 4.633277e-05, 9.477213e-06),
    6: (3.067823e-06, 1.158895e-05, 2.368052e-06),
    7: (7.669629e-07, 2.897627e-06, 5.919350e-07),
    8: (1.917491e-07, 7.244331e-07, 1.479789e-07),
}

EXPECTED_CUBE = {
    0: (8.586493e-04, 1.487224e-03, 3.035784e-04),
    1: (2.666725e-04, 6.216886e-04, 1.156983e-04),
    2: (7.122948e-05, 1.774812e-04, 3.166206e-05),
    3: (1.835021e-05, 4.594339e-05, 8.083333e-06),
    4: (4.621759e-06, 1.158904e-05, 2.031176e-06),
}


def report(num, text):
    print(f"\n[criterion {num:02d}] PASS  {text}")


@pytest.fixture(scope="module")
def pentagon_study():
    t0 = time.monotonic()
    rep = run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 9)
    rep.metadata["runtime"] = time.monotonic() - t0
    return rep


@pytest.fixture(scope="module")
def pentagon_hierarchy():
    """Complexes and fragment-free duals for pentagon levels 0..8."""
    from declab.generators import refine
    out = []
    cx = generate(FamilySpec("pentagon_wheel", level=0))
    for lev in range(9):
        if lev > 0:
            cx = refine(cx)
        out.append((cx, build_dual(cx)))
    return out


def test_criterion_01_chain_complex_exactness():
    families = [("pentagon_wheel", {}), ("square", {"pattern": 1}),
                ("square", {"pattern": 2}), ("square", {"pattern": 3}),
                ("corner", {}), ("cube_kuhn", {})]
    for fam, kw in families:
        for level in range(4):
            cx = generate(FamilySpec(fam, level=level, **kw))
            dual = build_dual(cx)
            for k in range(2, cx.dim + 1):
                bb = cx.boundary_matrix(k - 1) @ cx.boundary_matrix(k)
                assert bb.nnz == 0 or not bb.toarray().any(), (fam, level, k)
            for k in range(cx.dim - 1):
                dp = (exterior_derivative(dual, k + 1, "primal").as_matrix()
                      @ exterior_derivative(dual, k, "primal").as_matrix())
                dd = (exterior_derivative(dual, k + 1, "dual").as_matrix()
                      @ exterior_derivative(dual, k, "dual").as_matrix())
                assert dp.nnz == 0 or not dp.toarray().any(), (fam, level, k)
                assert dd.nnz == 0 or not dd.toarray().any(), (fam, level, k)
    report(1, "boundary-of-boundary and d-of-d vanish exactly on all six "
              "generated families, levels 0-3, both sides")


def test_criterion_02_dual_boundary_sign_pinning(worked_triangle):
    cx, dual = worked_triangle
    e01 = int(cx.index_of(1, [(0, 1)])[0])
    e02 = int(cx.index_of(1, [(0, 2)])[0])
    chain, sign = fragments(cx, 0)
    mine = chain[:, 0] == 0
    assert dict(zip(chain[mine, 1].tolist(), sign[mine].tolist())) == {e01: 1, e02: -1}
    m = exterior_derivative(dual, 1, "dual").as_matrix().T.toarray()
    assert m[e01, 0] == 1 and m[e02, 0] == 1
    legacy = -m  # the convention without the extra parity factor
    assert legacy[e01, 0] == -1 and legacy[e02, 0] == -1
    assert m.dtype.kind == "i" or np.array_equal(m, m.astype(np.int64))
    report(2, "worked-example dual-boundary signs reproduced exactly, one "
              "sign flip away from the legacy convention")


def test_criterion_03_double_star_and_isometry():
    cx = generate(FamilySpec("pentagon_wheel", level=3))
    dual = build_dual(cx)
    n = cx.dim
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(n + 1):
        comp = hodge_star(dual, n - k, "dual") @ hodge_star(dual, k, "primal")
        assert np.array_equal(comp.num, (-1) ** (k * (n - k)) * comp.den)
        s = hodge_star(dual, k, "primal")
        for _ in range(100):
            c = Cochain(k, "primal", rng.standard_normal(cx.num(k)))
            a = discrete_l2_dual(dual, s.apply(c))
            b = discrete_l2(dual, c)
            worst = max(worst, abs(a - b) / b)
    assert worst <= 1e-12
    report(3, f"double star is the exact signed identity for every degree and "
              f"the star is an isometry on 100 random cochains per degree "
              f"(worst relative gap {worst:.2e})")


def test_criterion_04_adjointness():
    rng = np.random.default_rng(404)
    worst = 0.0
    cx = generate(FamilySpec("pentagon_wheel", level=3))
    dual = build_dual(cx)
    for k in range(cx.dim):
        d = exterior_derivative(dual, k, "primal")
        delta = codifferential(dual, k + 1)
        for _ in range(20):
            om = Cochain(k, "primal", rng.standard_normal(cx.num(k)))
            eta = Cochain(k + 1, "primal", rng.standard_normal(cx.num(k + 1)))
            lhs = inner_product(dual, d.apply(om), eta)
            rhs = inner_product(dual, om, delta.apply(eta))
            scale = max(discrete_l2(dual, d.apply(om)) * discrete_l2(dual, eta), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    cube = generate(FamilySpec("cube_kuhn", level=1))
    cdual = build_dual(cube)
    d = exterior_derivative(cdual, 0, "primal")
    delta = codifferential(cdual, 1)
    for _ in range(20):
        om = Cochain(0, "primal", rng.standard_normal(cube.num(0)))
        eta = Cochain(1, "primal", rng.standard_normal(cube.num(1)))
        lhs = inner_product(cdual, d.apply(om), eta)
        rhs = inner_product(cdual, om, delta.apply(eta))
        scale = max(discrete_l2(cdual, d.apply(om)) * discrete_l2(cdual, eta), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    # degrees whose codifferential inverts a star with zero dual volumes are
    # undefined on the degenerate cube family and must refuse loudly
    for k in (2, 3):
        with pytest.raises(SingularStarError):
            codifferential(cdual, k)
    assert worst <= 1e-12
    report(4, f"adjointness (d a, b)_h = (a, delta b)_h holds to 1e-12 on "
              f"pentagon level 3 (all degrees) and cube level 1 (worst "
              f"relative gap {worst:.2e}); singular-star degrees refuse")


def cotan_stiffness(cx):
    tri = cx.simplices[2]
    x = cx.vertices
    rows, cols, vals = [], [], []
    for a, b, c in tri:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            u = x[i] - x[k]
            v = x[j] - x[k]
            w = 0.5 * (u @ v) / abs(u[0] * v[1] - u[1] * v[0])
            rows += [i, j, i, j]
            cols += [j, i, i, j]
            vals += [-w, -w, w, w]
    return sp.coo_matrix((vals, (rows, cols)), shape=(cx.num(0),) * 2).tocsr()


def test_criterion_05_cotan_oracle_and_linear_reproduction():
    worst = 0.0
    for fam in ("pentagon_wheel", "corner"):
        for level in range(4):
            cx = generate(FamilySpec(fam, level=level))
            dual = build_dual(cx)
            gap = abs(stiffness_matrix(cx, dual) - cotan_stiffness(cx)).max()
            worst = max(worst, gap)
            assert gap <= 1e-10, (fam, level)
    for spec, bundle in ((FamilySpec("pentagon_wheel", level=3), linear(2, [1.5, -2.0], 0.3)),
                         (FamilySpec("cube_kuhn", level=1), linear(3, [1.0, 2.0, -1.0], 1.0))):
        cx = generate(spec)
        dual = build_dual(cx)
        prob = make_problem(cx, dual, bundle)
        err = error_report(prob, solve(prob).solution, bundle)
        assert err.max <= 1e-10, spec.family
    report(5, f"stiffness equals the cotangent oracle entrywise "
              f"(worst gap {worst:.2e}) and affine fields are reproduced to "
              f"1e-10 in 2D and 3D")


def test_criterion_06_table_pentagon_reproduction(pentagon_study):
    from declab.generators import estimate_unknowns
    rep = pentagon_study
    runtime = rep.metadata["runtime"]
    assert runtime < 300.0
    rows = {r["level"]: r for r in rep.rows}
    for lev in (6, 7, 8):
        for col in ("rate_max", "rate_h1", "rate_l2"):
            assert abs(rows[lev][col] - 2.0) <= 0.02, (lev, col)
    for lev, (emax, eh1, el2) in EXPECTED_PENTAGON.items():
        for col, ref in (("err_max", emax), ("err_h1", eh1), ("err_l2", el2)):
            ratio = rows[lev][col] / ref
            assert 0.5 <= ratio <= 2.0, (lev, col, ratio)
    # the finest level solves the predicted interior system iteratively to tol
    assert estimate_unknowns(generate(FamilySpec("pentagon_wheel")), 8) == 163201
    assert rows[8]["iters"] > 0
    report(6, f"pentagon table reproduced: rates at levels 6-8 all within "
              f"2.00 +- 0.02, raw errors within 2x at levels 1-8, "
              f"runtime {runtime:.0f}s < 300s")


def test_criterion_07_table_corner_reproduction():
    rep = run_convergence_study(FamilySpec("corner"), "corner", 9)
    last = rep.rows[-1]
    assert abs(last["rate_max"] - 0.623) <= 0.02
    assert abs(last["rate_h1"] - 0.624) <= 0.02
    assert abs(last["rate_l2"] - 1.240) <= 0.03
    report(7, f"re-entrant corner table reproduced: final rates "
              f"({last['rate_max']:.4f}, {last['rate_h1']:.4f}, "
              f"{last['rate_l2']:.4f}) match (0.623, 0.624, 1.240)")


def test_criterion_08_table_cube_reproduction():
    rep = run_convergence_study(FamilySpec("cube_kuhn"), "trig3d", 5)
    rows = {r["level"]: r for r in rep.rows}
    for col in ("rate_max", "rate_h1", "rate_l2"):
        assert abs(rows[4][col] - 1.99) <= 0.05, col
    for lev, (emax, eh1, el2) in EXPECTED_CUBE.items():
        for col, ref in (("err_max", emax), ("err_h1", eh1), ("err_l2", el2)):
            assert abs(rows[lev][col] - ref) <= 0.5 * ref, (lev, col)
    report(8, f"cube table reproduced: level-4 rates "
              f"({rows[4]['rate_max']:.4f}, {rows[4]['rate_h1']:.4f}, "
              f"{rows[4]['rate_l2']:.4f}) within 1.99 +- 0.05, magnitudes "
              f"within 50%")


def test_criterion_09_consistency_suite():
    # Sharp max-norm rates live on the structured wheel (its boundary and
    # sector lines keep the extremal cells asymmetric while constants stay
    # smooth across levels); sharp L2 rates need generic meshes, produced by
    # seeded jitter, with the L2 restricted to interior cells.
    max_expect = {0: 3.0, 1: 2.0, 2: 1.0}
    dual_expect = {0: 1.0, 1: 2.0, 2: 3.0}
    lines = []
    for k in (0, 1, 2):
        rep = run_consistency_study(FamilySpec("pentagon_wheel"), "trig2d", k,
                                    levels=8, degree=6)
        r_max = fit_rate([r["err_max"] for r in rep.rows])
        r_dual = fit_rate([r["err_dual"] for r in rep.rows])
        assert abs(r_max - max_expect[k]) <= 0.1, (k, r_max)
        assert abs(r_dual - dual_expect[k]) <= 0.1, (k, r_dual)
        lines.append(f"k={k}: max {r_max:.3f}/{max_expect[k]:.0f} "
                     f"dual {r_dual:.3f}/{dual_expect[k]:.0f}")
    lap_fits = {}
    for k in (0, 1, 2):
        rep = run_consistency_study(FamilySpec("pentagon_wheel", n_gon=6),
                                    "trig2d", k, levels=8, degree=6,
                                    jitter=0.14, seed=100, interior_l2=True)
        r_l2 = fit_rate([r["err_l2"] for r in rep.rows])
        assert abs(r_l2 - 1.0) <= 0.1, (k, r_l2)
        lines.append(f"k={k}: L2 {r_l2:.3f}/1")
        if k == 0:
            lap_fits["total"] = fit_rate([r["lap_total"] for r in rep.rows])
            lap_fits["term1"] = fit_rate([r["term1"] for r in rep.rows])
            lap_fits["term2"] = fit_rate([r["term2"] for r in rep.rows])
    assert lap_fits["total"] <= 0.2
    assert abs(lap_fits["term2"] - 1.0) <= 0.2
    report(9, "consistency rates: " + "; ".join(lines)
           + f"; Hodge-Laplace consistency rate {lap_fits['total']:.3f} <= 0.2 "
             f"(first term {lap_fits['term1']:.3f}) with second term "
             f"{lap_fits['term2']:.3f} in 1 +- 0.2")


def test_criterion_10_poincare_and_stability(pentagon_study, pentagon_hierarchy):
    lams = []
    for lev in range(1, 9):
        cx, dual = pentagon_hierarchy[lev]
        s = stiffness_matrix(cx, dual)
        interior = cx.interior_vertex_indices()
        s_ii = s[interior][:, interior].tocsc()
        m = sp.diags(dual.volumes[0][interior]).tocsc()
        if len(interior) < 300:
            lam = scipy.linalg.eigh(s_ii.toarray(), m.toarray(),
                                    eigvals_only=True)[0]
        else:
            lam = spla.eigsh(s_ii, k=1, M=m, sigma=0, which="LM",
                             return_eigenvectors=False)[0]
        lams.append(float(lam))
    last4 = lams[-4:]
    spread = (max(last4) - min(last4)) / min(last4)
    assert spread < 0.10
    assert min(lams) > 0.5  # bounded below, far from zero
    stab = [r["stability"] for r in pentagon_study.rows if r["level"] >= 1]
    s_last4 = stab[-4:]
    s_spread = (max(s_last4) - min(s_last4)) / min(s_last4)
    assert s_spread < 0.10
    assert max(stab) <= 1.5 * max(s_last4)
    report(10, f"smallest generalized eigenvalue settles at "
               f"{lams[-1]:.4f} (last-4 spread {spread * 100:.1f}% < 10%), "
               f"stability constant settles at {stab[-1]:.4f} "
               f"(last-4 spread {s_spread * 100:.1f}% < 10%)")


def test_criterion_11_whitney_norm_equivalence(pentagon_hierarchy):
    lines = []
    for k in (0, 1):
        mins, maxs = [], []
        for lev in (2, 3, 4, 5):
            cx, dual = pentagon_hierarchy[lev]
            g = whitney_mass_matrix(cx, k)
            dvol, pvol = dual.hodge_ratios(k)
            w = dvol / pvol
            rng = np.random.default_rng(7000 + 17 * k + lev)
            ratios = []
            for _ in range(200):
                v = rng.standard_normal(cx.num(k))
                ratios.append(math.sqrt((v @ (g @ v)) / (w @ v ** 2)))
            # indicator cochains sample the extremal per-cell ratios
            ratios.extend(np.sqrt(g.diagonal() / w))
            mins.append(min(ratios))
            maxs.append(max(ratios))
        for ends in (mins, maxs):
            spread = (max(ends) - min(ends)) / min(ends)
            assert spread <= 0.10, (k, ends)
        assert min(mins) > 0.1 and max(maxs) < 10.0
        lines.append(f"k={k}: ratios in [{min(mins):.3f}, {max(maxs):.3f}]")
    report(11, "Whitney interpolation norm equivalence: " + "; ".join(lines)
           + " with both interval endpoints stable within 10% across levels 2-5")


def test_criterion_12_two_term_decomposition_identity():
    bundle = get_problem("trig2d")
    worst = 0.0
    for lev in (2, 3, 4):
        cx = generate(FamilySpec("pentagon_wheel", level=lev))
        dual = build_dual(cx)
        images = derham_images([bundle.u, bundle.f], cx, dual, 6)
        rec = laplace_consistency_probe(bundle, cx, dual, images, degree=6)
        worst = max(worst, rec.identity_gap)
    assert worst <= 1e-8
    report(12, f"0-form consistency decomposition holds as a cochain identity "
               f"at interior vertices on levels 2-4 (worst gap {worst:.2e} "
               f"<= 1e-8)")
