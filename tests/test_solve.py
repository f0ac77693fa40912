import numpy as np
import pytest
import scipy.sparse as sp

from declab.dualmesh import build_dual
from declab.errors import IterativeSolveError, TrivialProblemError
from declab.generators import FamilySpec, generate, jitter_interior
from declab.operators import Cochain, exterior_derivative, hodge_star, inner_product
from declab.problems import get_problem, linear
from declab.solve import (DirichletProblem, assemble, dump_solution,
                          error_report, make_problem, pcg, solve, stiffness_matrix)


@pytest.fixture(scope="module")
def pentagon3():
    cx = generate(FamilySpec("pentagon_wheel", level=3))
    return cx, build_dual(cx)


def cotan_stiffness(cx):
    """Independent oracle: cotangent-weight stiffness assembled per triangle."""
    tri = cx.simplices[2]
    x = cx.vertices
    nv = cx.num(0)
    rows, cols, vals = [], [], []
    for a, b, c in tri:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            u = x[i] - x[k]
            v = x[j] - x[k]
            cross = abs(u[0] * v[1] - u[1] * v[0])
            w = 0.5 * (u @ v) / cross
            rows += [i, j, i, j]
            cols += [j, i, i, j]
            vals += [-w, -w, w, w]
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def test_stiffness_equals_cotan_oracle():
    for fam, lev in (("pentagon_wheel", 2), ("corner", 2)):
        cx = generate(FamilySpec(fam, level=lev))
        dual = build_dual(cx)
        s = stiffness_matrix(cx, dual)
        oracle = cotan_stiffness(cx)
        assert abs(s - oracle).max() <= 1e-10
    cx = jitter_interior(generate(FamilySpec("pentagon_wheel", level=3)),
                         amplitude=0.05, seed=3)
    dual = build_dual(cx)
    assert abs(stiffness_matrix(cx, dual) - cotan_stiffness(cx)).max() <= 1e-10


def test_stiffness_is_exactly_symmetric_and_matches_operator_composition(pentagon3):
    cx, dual = pentagon3
    s = stiffness_matrix(cx, dual)
    assert (s != s.T).nnz == 0  # symmetric by construction
    d0 = exterior_derivative(dual, 0, "primal").as_matrix().astype(float)
    composed = d0.T @ sp.diags(hodge_star(dual, 1, "primal").diagonal()) @ d0
    assert abs(s - composed).max() <= 1e-12 * abs(s).max()


def test_zero_data_gives_zero_solution(pentagon3):
    cx, dual = pentagon3
    prob = DirichletProblem(cx, dual, Cochain(0, "primal", np.zeros(cx.num(0))),
                            np.zeros(cx.num(0)))
    rep = solve(prob)
    assert np.allclose(rep.solution.values, 0.0)
    assert rep.iterations == 0


def test_linear_fields_reproduced_exactly():
    for spec, bundle in ((FamilySpec("pentagon_wheel", level=3), linear(2, [1.5, -2.0], 0.3)),
                         (FamilySpec("cube_kuhn", level=1), linear(3, [1.0, 2.0, -1.0], 1.0))):
        cx = generate(spec)
        dual = build_dual(cx)
        prob = make_problem(cx, dual, bundle)
        rep = solve(prob)
        err = error_report(prob, rep.solution, bundle)
        assert err.max <= 1e-10


def test_solver_reaches_tolerance_with_cg(pentagon3):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    rep = solve(prob)
    assert rep.iterations > 0
    assert rep.residual <= 1e-12
    system = assemble(prob)
    dense = np.linalg.solve(system.reduced.toarray(), system.load)
    assert np.allclose(rep.solution.values[system.interior], dense, atol=1e-10)


def test_solve_report_keeps_the_cg_residual_history():
    cx = generate(FamilySpec("pentagon_wheel", level=5))
    rep = solve(make_problem(cx, build_dual(cx), get_problem("trig2d")))
    history = rep.residual_history
    assert rep.iterations > 0 and len(history) == rep.iterations + 1
    assert history[0] == 1.0
    assert history[-1] == rep.residual


def test_energy_minimality(pentagon3, rng):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    rep = solve(prob)
    interior = cx.interior_vertex_indices()

    def energy(vals):
        c = Cochain(0, "primal", vals)
        d0 = exterior_derivative(dual, 0, "primal")
        dc = d0.apply(c)
        return 0.5 * inner_product(dual, dc, dc) - inner_product(dual, prob.rhs, c)

    e0 = energy(rep.solution.values)
    assert e0 == pytest.approx(rep.energy)
    for eps in (1e-3, -1e-3):
        for _ in range(5):
            nu = np.zeros(cx.num(0))
            nu[interior] = rng.standard_normal(len(interior))
            assert energy(rep.solution.values + eps * nu) >= e0 - 1e-13


def test_galerkin_orthogonality(pentagon3):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    rep = solve(prob)
    s = stiffness_matrix(cx, dual)
    interior = cx.interior_vertex_indices()
    resid = (s @ rep.solution.values
             - dual.volumes[0] * prob.rhs.values)[interior]
    scale = abs(s @ rep.solution.values).max()
    assert np.max(np.abs(resid)) <= 1e-10 * max(scale, 1.0)


def test_trivial_problem_behavior():
    cx = generate(FamilySpec("corner", level=0))
    dual = build_dual(cx)
    bundle = get_problem("corner")
    prob = make_problem(cx, dual, bundle)
    with pytest.raises(TrivialProblemError):
        assemble(prob)
    rep = solve(prob)
    err = error_report(prob, rep.solution, bundle)
    assert err.max == 0.0 and rep.iterations == 0


def test_error_report_vanishes_on_exact_discrete_solution(pentagon3):
    cx, dual = pentagon3
    bundle = get_problem("trig2d")
    prob = make_problem(cx, dual, bundle)
    exact = Cochain(0, "primal", bundle.u_at(cx.vertices))
    err = error_report(prob, exact, bundle)
    assert err.max == 0.0 and err.l2 == 0.0 and err.h1 == 0.0


def test_pcg_failure_carries_history(pentagon3):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    system = assemble(prob)
    with pytest.raises(IterativeSolveError) as info:
        pcg(system.reduced, system.load, 1e-14, 3)
    assert len(info.value.history) == 4


def test_pcg_breakdown_fails_fast():
    # symmetric, but a zero diagonal entry breaks the Jacobi preconditioner
    a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(IterativeSolveError, match="broke down") as info:
            pcg(a, np.array([1.0, 0.0, 1.0]), 1e-10, 100_000)
    assert len(info.value.history) <= 5


def test_stability_constant_settles(pentagon3):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    rep = solve(prob)
    assert 0.0 < rep.stability_constant < 1.0


def test_stiffness_kernel_is_constants(pentagon3):
    cx, dual = pentagon3
    s = stiffness_matrix(cx, dual)
    assert np.max(np.abs(s @ np.ones(cx.num(0)))) <= 1e-12
    # rank deficiency exactly one on a connected mesh: the reduced interior
    # block (Dirichlet rows removed) is positive definite
    prob = make_problem(cx, dual, get_problem("trig2d"))
    system = assemble(prob)
    lam = np.linalg.eigvalsh(system.reduced.toarray())
    assert lam[0] > 1e-6


def test_dump_solution_format(tmp_path, pentagon3):
    cx, dual = pentagon3
    prob = make_problem(cx, dual, get_problem("trig2d"))
    rep = solve(prob)
    p = tmp_path / "sol.txt"
    dump_solution(p, rep.solution, "pentagon_wheel", "trig2d", 3)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "solution mesh=pentagon_wheel problem=trig2d level=3"
    assert len(lines) == 1 + cx.num(0)
    idx, val = lines[5].split()
    float(val)
