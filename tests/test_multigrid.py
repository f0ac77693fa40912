"""The V-cycle that preconditions CG: geometric levels across a study's
refinement hierarchy, algebraic ones below any level too large for a dense inverse."""
import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from declab import meshio
from declab.dualmesh import build_dual
from declab.generators import FamilySpec, generate, interior_prolongation, refine
from declab.problems import get_problem
from declab.solve import (DENSE_CUTOFF, JACOBI_DAMPING, SolverConfig, _aggregates,
                          _aggregation_prolongation, _cycle, _spd_inverse, assemble,
                          make_problem, pcg, solve, stiffness_matrix, v_cycle)
from declab.study import _guarded_walk, run_convergence_study
from strategies import jittered_wheels
from tracing import traced


def interior_block(cx):
    """The interior block S_II of the stiffness on ``cx``."""
    interior = cx.interior_vertex_indices()
    return stiffness_matrix(cx, build_dual(cx))[interior][:, interior]


def hierarchy(family, level, problem):
    """The problem at ``level`` and the interior prolongations below it, as a study passes them."""
    meshes = list(_guarded_walk(FamilySpec(family), level + 1, None))
    prolongations = [interior_prolongation(c, f) for c, f in zip(meshes, meshes[1:])]
    cx = meshes[-1]
    return make_problem(cx, build_dual(cx), get_problem(problem)), prolongations


def galerkin_gap(coarse):
    """max |P^T S_II,fine P - S_II,coarse| relative to max |S_II,coarse|."""
    fine = refine(coarse)
    p = interior_prolongation(coarse, fine)
    s_c = interior_block(coarse)
    gap = abs(p.T @ interior_block(fine) @ p - s_c)
    return gap.max() / abs(s_c).max()


@pytest.mark.parametrize("family,problem,levels,first", [
    ("pentagon_wheel", "trig2d", 9, 4),
    ("corner", "corner", 9, 4),
    ("cube_kuhn", "trig3d", 5, 3),
])
def test_iterations_stay_flat_under_refinement(family, problem, levels, first):
    rep = run_convergence_study(FamilySpec(family), problem, levels, deterministic=True)
    iters = rep.column("iters")[first:]
    # Jacobi-PCG takes 70..1062 (pentagon), 102..799 (corner), 75..151 (cube)
    assert max(iters) <= 20 and iters[-1] > 0, iters


@pytest.mark.parametrize("family,level", [
    ("pentagon_wheel", 1), ("pentagon_wheel", 3), ("corner", 2), ("corner", 3),
    ("cube_kuhn", 0), ("cube_kuhn", 1), ("cube_kuhn", 2),
])
def test_interior_galerkin_identity(family, level):
    assert galerkin_gap(generate(FamilySpec(family, level))) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(cx=jittered_wheels)
def test_interior_galerkin_identity_on_jittered_wheels(cx):
    # the 2D stiffness is the P1 one on any well-centered mesh, and medial
    # subdivision nests the P1 spaces
    assert galerkin_gap(cx) <= 1e-12


def assert_same_solution(got, want):
    gap = np.abs(got.solution.values - want.solution.values).max()
    assert gap <= 1e-10 * np.abs(want.solution.values).max()


def test_multigrid_and_jacobi_solutions_agree():
    prob, prolongations = hierarchy("pentagon_wheel", 6, "trig2d")
    mg = solve(prob, SolverConfig(), prolongations)
    system = assemble(prob)
    minv = 1.0 / system.reduced.diagonal()
    jacobi, iterations, _, _ = pcg(system.reduced, system.load, SolverConfig().tol,
                                   SolverConfig().max_iterations, lambda r: minv * r)
    assert mg.iterations <= 20 < iterations
    gap = np.abs(mg.solution.values[system.interior] - jacobi).max()
    assert gap <= 1e-10 * np.abs(jacobi).max()


def test_solve_without_hierarchy_takes_algebraic_levels():
    # 2,641 unknowns; Jacobi-PCG took 139 iterations
    prob, prolongations = hierarchy("pentagon_wheel", 5, "trig2d")
    rep = solve(prob)
    assert rep.iterations <= 40
    assert_same_solution(rep, solve(prob, prolongations=prolongations))


def test_small_solve_without_hierarchy_is_one_dense_iteration():
    prob, _ = hierarchy("pentagon_wheel", 3, "trig2d")
    assert assemble(prob).reduced.shape[0] < DENSE_CUTOFF
    assert solve(prob).iterations == 1


def assert_symmetric_positive(m, n, rng):
    x, y = rng.standard_normal((2, n))
    assert abs(x @ m(y) - y @ m(x)) <= 1e-12 * abs(x @ m(y))
    assert x @ m(x) > 0 and y @ m(y) > 0


def test_v_cycle_is_a_symmetric_positive_operator(rng):
    prob, prolongations = hierarchy("pentagon_wheel", 5, "trig2d")
    m = v_cycle(assemble(prob).reduced, prolongations)
    assert_symmetric_positive(m, prolongations[-1].shape[0], rng)


def test_v_cycle_on_algebraic_levels_is_a_symmetric_positive_operator(rng):
    prob, _ = hierarchy("pentagon_wheel", 5, "trig2d")
    a = assemble(prob).reduced
    assert_symmetric_positive(v_cycle(a, ()), a.shape[0], rng)


def test_algebraic_levels_below_a_coarsest_level_too_large_for_a_dense_inverse(monkeypatch):
    # as in a study of a mesh file whose level 0 is already large
    prob, prolongations = hierarchy("pentagon_wheel", 5, "trig2d")
    # the package exports the function ``solve``, which shadows the module's name
    monkeypatch.setattr(importlib.import_module("declab.solve"), "DENSE_CUTOFF", 100)
    geometric = solve(prob, prolongations=prolongations)
    # the coarsest kept level, 3, has 141 unknowns
    rep = solve(prob, prolongations=prolongations[3:])
    assert rep.iterations <= 40
    assert_same_solution(rep, geometric)
    assert solve(prob, prolongations=prolongations[2:]).iterations <= 20


# unsmoothed aggregation takes 52 iterations on corner level 6
@pytest.mark.parametrize("family,level,problem", [("corner", 5, "corner"), ("corner", 6, "corner"),
                                                  ("cube_kuhn", 3, "trig3d")])
def test_a_mesh_file_solves_in_few_iterations(tmp_path, family, level, problem):
    # the file's level 0 is the family's level: no geometric level below it
    family_prob, prolongations = hierarchy(family, level, problem)
    path = tmp_path / "mesh.decmesh"
    meshio.save(family_prob.cx, path)
    cx = meshio.load(path)
    rep = solve(make_problem(cx, build_dual(cx), get_problem(problem)))
    assert rep.iterations <= 40
    assert_same_solution(rep, solve(family_prob, prolongations=prolongations))


def test_aggregation_is_a_partition_of_neighbourhoods():
    prob, _ = hierarchy("cube_kuhn", 3, "trig3d")
    m = assemble(prob).reduced
    agg = _aggregates(m)
    count = agg.max() + 1
    assert agg.min() == 0 and count < m.shape[0] / 4
    # each row is in one aggregate, and none is empty
    assert agg.shape == (m.shape[0],) and np.bincount(agg).min() > 0
    # each row shares its aggregate with a neighbour
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    off = rows != m.indices
    assert np.all(np.bincount(rows[off], agg[rows[off]] == agg[m.indices[off]]) > 0)


def test_aggregation_prolongation_is_deterministic():
    prob, _ = hierarchy("corner", 5, "corner")
    m = assemble(prob).reduced
    p, q = _aggregation_prolongation(m), _aggregation_prolongation(m)
    assert np.array_equal(p.indptr, q.indptr) and np.array_equal(p.indices, q.indices)
    assert np.array_equal(p.data.view(np.int64), q.data.view(np.int64))


def test_a_diagonal_operator_is_solved_by_its_diagonal():
    # no row has a neighbour, so aggregation cannot coarsen it
    a = sp.diags(np.arange(1.0, DENSE_CUTOFF + 1)).tocsr()
    b = np.ones(a.shape[0])
    assert pcg(a, b, 1e-12, 10, v_cycle(a, ()))[1] == 1


def test_a_large_diagonal_operator_takes_no_dense_inverse(rng):
    # a dense inverse of 3,000 rows would hold two 72 MB matrices
    d = rng.uniform(1.0, 2.0, 3000)
    r = rng.standard_normal(3000)
    a = sp.diags(d).tocsr()
    z, _, peak = traced(lambda: v_cycle(a, ())(r))
    assert np.array_equal(z, r / d)
    assert peak < 1 << 20


def galerkin_v_cycle(a, prolongations):
    """Oracle: ``v_cycle`` with each coarse operator formed as scipy forms
    ``(p.T @ a_fine @ p).tocsr()``, through a CSC copy of ``a_fine``."""
    geometric = [p for p in prolongations if p.shape[1]]
    mats, ps = [a], []
    diagonal = False
    while geometric or mats[-1].shape[0] >= DENSE_CUTOFF:
        p = geometric.pop() if geometric else _aggregation_prolongation(mats[-1])
        if diagonal := p.shape[1] == p.shape[0]:
            break
        ps.insert(0, p)
        mats.append((p.T @ mats[-1] @ p).tocsr())
    coarsest = mats.pop()
    inv = coarsest.diagonal() if diagonal else _spd_inverse(coarsest.toarray())
    levels = [(m, JACOBI_DAMPING / m.diagonal(), p, p.T) for m, p in zip(reversed(mats), ps)]
    return lambda r: _cycle(levels, inv, len(levels) - 1, r)


def corner6_file(tmp_path):
    """The corner level-6 problem from a mesh file: 8,001 unknowns and no
    geometric level, so every level below it is algebraic."""
    path = tmp_path / "corner6.decmesh"
    meshio.save(generate(FamilySpec("corner", 6)), path)
    cx = meshio.load(path)
    return make_problem(cx, build_dual(cx), get_problem("corner")), []


@pytest.mark.parametrize("case", [("pentagon_wheel", 5, "trig2d"), ("corner", 5, "corner"),
                                  ("cube_kuhn", 3, "trig3d"), "corner6_file"],
                         ids=["pentagon5", "corner5", "cube3", "corner6_file"])
def test_v_cycle_equals_the_galerkin_oracle_bit_for_bit(case, tmp_path, rng):
    prob, prolongations = corner6_file(tmp_path) if case == "corner6_file" else hierarchy(*case)
    a = assemble(prob).reduced
    r = rng.standard_normal(a.shape[0])
    got, want = v_cycle(a, prolongations)(r), galerkin_v_cycle(a, prolongations)(r)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_v_cycle_setup_takes_no_csc_copy_of_the_operator():
    # pentagon level 6: S_II holds 0.88 MB.  Forming the finest Galerkin
    # product peaks at about 1.18 times that; a CSC copy of S_II, of its
    # size, took the setup to 1.69 times (at level 8 too: 1.19 and 1.69).
    # The bound sits in that gap
    prob, prolongations = hierarchy("pentagon_wheel", 6, "trig2d")
    a = assemble(prob).reduced
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    peak = traced(lambda: v_cycle(a, prolongations))[2]
    assert peak < 1.45 * size


def test_spd_inverse_is_exact_and_symmetric(rng):
    a = rng.standard_normal((40, 40))
    a = a @ a.T + 40 * np.eye(40)
    inv = _spd_inverse(a)
    assert np.array_equal(inv, inv.T)
    assert np.abs(inv @ a - np.eye(40)).max() <= 1e-13
