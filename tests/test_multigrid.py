"""The geometric V-cycle that preconditions CG across a study's refinement levels."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings

from declab.dualmesh import build_dual
from declab.generators import FamilySpec, generate, interior_prolongation, refine, walk
from declab.problems import get_problem
from declab.solve import (SolverConfig, _spd_inverse, assemble, make_problem, solve,
                          stiffness_matrix, v_cycle)
from declab.study import run_convergence_study
from strategies import jittered_wheels


def interior_block(cx):
    """The interior block S_II of the stiffness on ``cx``."""
    interior = cx.interior_vertex_indices()
    return stiffness_matrix(cx, build_dual(cx))[interior][:, interior]


def hierarchy(family, level, problem):
    """The problem at ``level`` and the interior prolongations below it, as a study passes them."""
    meshes = list(walk(FamilySpec(family), level + 1))
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


def test_multigrid_and_jacobi_solutions_agree():
    prob, prolongations = hierarchy("pentagon_wheel", 6, "trig2d")
    mg, jacobi = solve(prob, SolverConfig(), prolongations), solve(prob)
    assert mg.iterations <= 20 < jacobi.iterations
    gap = np.abs(mg.solution.values - jacobi.solution.values).max()
    assert gap <= 1e-10 * np.abs(jacobi.solution.values).max()


def test_solve_without_hierarchy_takes_the_jacobi_path():
    prob, _ = hierarchy("pentagon_wheel", 5, "trig2d")
    assert solve(prob).iterations == 139   # the Jacobi-PCG count before the V-cycle


def test_v_cycle_is_a_symmetric_positive_operator(rng):
    prob, prolongations = hierarchy("pentagon_wheel", 5, "trig2d")
    m = v_cycle(assemble(prob).reduced, prolongations)
    x, y = rng.standard_normal((2, prolongations[-1].shape[0]))
    assert abs(x @ m(y) - y @ m(x)) <= 1e-12 * abs(x @ m(y))
    assert x @ m(x) > 0 and y @ m(y) > 0


def test_jacobi_when_the_coarsest_level_is_too_large_for_a_dense_inverse(monkeypatch):
    # as in a study of a mesh file whose level 0 is already large
    prob, prolongations = hierarchy("pentagon_wheel", 5, "trig2d")
    # the package exports the function ``solve``, which shadows the module's name
    monkeypatch.setattr(importlib.import_module("declab.solve"), "DENSE_CUTOFF", 100)
    # the coarsest kept level, 3, has 141 unknowns
    assert solve(prob, prolongations=prolongations[3:]).iterations == 139
    assert solve(prob, prolongations=prolongations[2:]).iterations <= 20


def test_spd_inverse_is_exact_and_symmetric(rng):
    a = rng.standard_normal((40, 40))
    a = a @ a.T + 40 * np.eye(40)
    inv = _spd_inverse(a)
    assert np.array_equal(inv, inv.T)
    assert np.abs(inv @ a - np.eye(40)).max() <= 1e-13
