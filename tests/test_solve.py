import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import geometry, meshio
from declab.dualmesh import build_dual
from declab.errors import IterativeSolveError, TrivialProblemError
from declab.generators import FamilySpec, generate, jitter_interior
from declab.operators import Cochain, exterior_derivative, hodge_star, inner_product
from declab.problems import get_problem, linear
from declab.solve import (DirichletProblem, _stiffness_blocks, assemble, dump_solution,
                          error_report, make_problem, pcg, solve, stiffness_matrix)
from declab.study import walk_levels
from strategies import jittered_wheels


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
    minv = 1.0 / system.reduced.diagonal()
    with pytest.raises(IterativeSolveError) as info:
        pcg(system.reduced, system.load, 1e-14, 3, lambda r: minv * r)
    assert len(info.value.history) == 4


def test_pcg_breakdown_fails_fast():
    # symmetric, but a zero diagonal entry breaks the Jacobi preconditioner
    a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        minv = 1.0 / a.diagonal()
        with pytest.raises(IterativeSolveError, match="broke down") as info:
            pcg(a, np.array([1.0, 0.0, 1.0]), 1e-10, 100_000, lambda r: minv * r)
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
    dump_solution(p, rep.solution, "pentagon_wheel", "trig2d", 3, "abc1234")
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "solution mesh=pentagon_wheel problem=trig2d level=3 commit=abc1234"
    assert len(lines) == 1 + cx.num(0)
    idx, val = lines[5].split()
    float(val)


def coo_stiffness(cx, dual):
    """The full stiffness matrix as one COO of four entries per edge, then CSR."""
    edges = cx.simplices[1]
    w = dual.volumes[1] / np.linalg.norm(
        cx.vertices[edges[:, 1]] - cx.vertices[edges[:, 0]], axis=1)
    i, j = edges[:, 0], edges[:, 1]
    nv = cx.num(0)
    return sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                          (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))),
                         shape=(nv, nv)).tocsr()


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))


def assert_blocks_are_the_full_matrix_cut(cx):
    """``assemble``'s S_II, S_IB and load against the slices of the full COO
    sum, bit for bit.  The full matrix keeps the explicit zeros of zero-weight
    edges, which the block assembly drops from S_II."""
    dual = build_dual(cx)
    prob = make_problem(cx, dual, get_problem("trig3d" if cx.dim == 3 else "trig2d"))
    on_boundary = cx.boundary_vertex_mask()
    interior, boundary = np.flatnonzero(~on_boundary), np.flatnonzero(on_boundary)
    full = coo_stiffness(cx, dual)
    want_ii = full[interior][:, interior].tocsr()
    want_ib = full[interior][:, boundary].tocsr()
    want_load = dual.volumes[0][interior] * prob.rhs.values[interior] \
        - want_ib @ prob.boundary_values[boundary]
    system = assemble(prob)
    want_ii.eliminate_zeros()
    assert_same_csr(system.reduced, want_ii)
    assert_same_csr(_stiffness_blocks(cx, dual, ~on_boundary)[1], want_ib)
    assert np.array_equal(system.load.view(np.int64), want_load.view(np.int64))
    assert np.array_equal(system.interior, interior)
    full.eliminate_zeros()
    assert_same_csr(stiffness_matrix(cx, dual), full)


@settings(deadline=None, max_examples=25)
@given(cx=jittered_wheels | st.integers(1, 2).map(
    lambda level: generate(FamilySpec("cube_kuhn", level))))
def test_assembled_blocks_are_the_full_matrix_cut(cx):
    assert_blocks_are_the_full_matrix_cut(cx)


@pytest.mark.parametrize("family, level", [("corner", 3), ("cube_kuhn", 2)])
def test_assembled_blocks_of_a_mesh_file_are_the_full_matrix_cut(tmp_path, family, level):
    # the corner carries boundary labels; the Kuhn cube has zero-weight edges
    path = tmp_path / "mesh.decmesh"
    meshio.save(generate(FamilySpec(family, level)), path)
    cx = meshio.load(path)
    assert cx.boundary_labels or family == "cube_kuhn"
    assert_blocks_are_the_full_matrix_cut(cx)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_memory_stays_below_a_full_stiffness_coo():
    # pentagon level 6: 30,880 edges.  A COO of the full S holds four entries
    # per edge, each an int32 row, an int32 column and a float64 value; the
    # block assembly never builds one, nor the full S.  Its peak sits close
    # under that bound (about 0.96 of it with numpy 2.4 and scipy 1.17, the
    # edge-sized temporaries of the sparse sums), so a failure of the first
    # assert alone may be a change in how scipy allocates; the second, against
    # the full COO cut into blocks, has a margin of about two
    cx = generate(FamilySpec("pentagon_wheel", 6))
    dual = build_dual(cx)
    prob = make_problem(cx, dual, get_problem("trig2d"))
    on_boundary = cx.boundary_vertex_mask()   # cached before tracing
    interior, boundary = np.flatnonzero(~on_boundary), np.flatnonzero(on_boundary)

    def full_then_cut():
        full = coo_stiffness(cx, dual)
        return full[interior][:, interior], full[interior][:, boundary]

    peak = _traced_peak(lambda: assemble(prob))
    assert peak < 4 * cx.num(1) * (4 + 4 + 8)
    assert peak < 0.75 * _traced_peak(full_then_cut)


def assert_own_transpose(s):
    """``s`` equals its transpose bit for bit, and each row's indices rise
    strictly: ``v_cycle`` takes such a CSR for its own CSC."""
    rows = np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))
    assert np.all((np.diff(s.indices) > 0) | (np.diff(rows) > 0))
    t = s.T.tocsr()
    assert np.array_equal(s.indptr, t.indptr) and np.array_equal(s.indices, t.indices)
    assert np.array_equal(s.data.view(np.int64), t.data.view(np.int64))


def own_transpose_on_interior(cx, dual):
    if len(cx.interior_vertex_indices()):
        problem = get_problem("trig2d" if cx.dim == 2 else "trig3d")
        assert_own_transpose(assemble(make_problem(cx, dual, problem)).reduced)


@pytest.mark.parametrize("spec", [
    FamilySpec("pentagon_wheel"), FamilySpec("corner"),
    *[FamilySpec("square", pattern=p) for p in (1, 2, 3)], FamilySpec("cube_kuhn")],
    ids=["pentagon", "corner", "square1", "square2", "square3", "cube"])
def test_assembled_interior_block_is_its_own_transpose(spec):
    # levels 0 to 4, each dual carried from the level before as in a study
    for cx, dual, _ in walk_levels(spec, 5):
        own_transpose_on_interior(cx, dual)


def test_assembled_interior_block_of_a_mesh_file_is_its_own_transpose(tmp_path):
    path = tmp_path / "mesh.decmesh"
    meshio.save(generate(FamilySpec("corner", 4)), path)
    cx = meshio.load(path)
    own_transpose_on_interior(cx, build_dual(cx))


@settings(deadline=None, max_examples=20)
@given(cx=jittered_wheels)
def test_assembled_interior_block_is_its_own_transpose_on_jittered_wheels(cx):
    own_transpose_on_interior(cx, build_dual(cx))


def test_solve_memory_holds_no_copy_of_the_interior_block(monkeypatch):
    # pentagon level 6: 30,880 edges.  With blocks of 4,096 points, so that
    # the primal volumes' blocks stay small, make_problem and solve together
    # peak at about 9.6 float64 per edge (numpy 2.4, scipy 1.17); a V-cycle
    # setup that copies S_II to CSC, and an inner product with two temporaries
    # per entry, took it to 11.3
    monkeypatch.setattr(geometry, "BLOCK_NODES", 4096)
    levels = list(walk_levels(FamilySpec("pentagon_wheel"), 7))
    cx, dual, prolongations = levels[-1]
    del levels
    bundle = get_problem("trig2d")
    peak = _traced_peak(lambda: solve(make_problem(cx, dual, bundle), prolongations=prolongations))
    assert peak < 10.5 * 8 * cx.num(1)
