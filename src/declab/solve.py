"""Scalar Poisson Dirichlet solves on primal 0-cochains.

Variational form: find omega with omega = g on boundary vertices and
(d omega, d nu)_h = (R_h f, nu)_h for all interior hat cochains nu.  The
stiffness matrix is the edge-weighted graph Laplacian S = d_0^T star_1 d_0,
assembled symmetrically entry-by-entry; boundary data enters by elimination.
The operator is positive semidefinite (f = delta d u for manufactured u), so
the reduced interior system is SPD and solved by diagonally preconditioned
conjugate gradients, with a dense fallback for small systems.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complex import SimplicialComplex
from .dualmesh import DualComplex
from .errors import IterativeSolveError, TrivialProblemError
from .operators import Cochain, discrete_l2, exterior_derivative, inner_product
from .problems import ProblemBundle


@dataclass(frozen=True)
class DirichletProblem:
    cx: SimplicialComplex
    dual: DualComplex
    rhs: Cochain                 # R_h f (pointwise vertex values of f)
    boundary_values: np.ndarray  # g per vertex; read at boundary vertices only


def make_problem(cx: SimplicialComplex, dual: DualComplex,
                 bundle: ProblemBundle) -> DirichletProblem:
    f_vals = bundle.f_at(cx.vertices)
    g_vals = bundle.u_at(cx.vertices)
    return DirichletProblem(cx, dual, Cochain(0, "primal", f_vals), g_vals)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iterations: int = 100_000
    method: str = "auto"   # auto | cg | dense
    dense_cutoff: int = 500


@dataclass(frozen=True)
class AssembledSystem:
    stiffness: sp.csr_matrix      # full S = d0^T star_1 d0, symmetric
    reduced: sp.csr_matrix        # interior block S_II
    load: np.ndarray              # b_I = (star_0 R_h f)_I - S_IB g_B
    interior: np.ndarray
    boundary: np.ndarray
    zero_weight_edges: np.ndarray  # edges with |dual| = 0 (weakly well-centered)


@dataclass(frozen=True)
class SolveReport:
    solution: Cochain
    iterations: int
    residual: float               # relative residual of the reduced system
    energy: float
    stability_constant: float     # ||omega||_h / (||R_h f||_h + ||d g_ext||_h)
    # relative residual per CG iteration, from 1.0 at iteration 0; a dense or
    # trivial solve records its one final residual
    residual_history: tuple[float, ...]


def stiffness_matrix(cx: SimplicialComplex, dual: DualComplex) -> sp.csr_matrix:
    """Edge-weight assembly of d_0^T star_1 d_0; exactly symmetric."""
    edges = cx.simplices[1]
    w = dual.volumes[1] / np.linalg.norm(
        cx.vertices[edges[:, 1]] - cx.vertices[edges[:, 0]], axis=1)
    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([w, w, -w, -w])
    nv = cx.num(0)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def assemble(problem: DirichletProblem) -> AssembledSystem:
    cx = problem.cx
    interior = cx.interior_vertex_indices()
    boundary = np.flatnonzero(cx.boundary_vertex_mask())
    if len(interior) == 0:
        raise TrivialProblemError("no interior vertices: boundary data determines the solution")
    s = stiffness_matrix(cx, problem.dual)
    s_ii = s[interior][:, interior].tocsr()
    s_ib = s[interior][:, boundary].tocsr()
    b = problem.dual.volumes[0][interior] * problem.rhs.values[interior] \
        - s_ib @ problem.boundary_values[boundary]
    return AssembledSystem(s, s_ii, b, interior, boundary,
                           np.flatnonzero(problem.dual.volumes[1] == 0.0))


def pcg(a: sp.csr_matrix, b: np.ndarray, tol: float, max_iterations: int,
        diag: np.ndarray | None = None):
    """Jacobi-preconditioned conjugate gradients.

    Returns (x, iterations, relative residual, residual history).  Raises
    ``IterativeSolveError``, carrying the history so far, on breakdown (a
    non-finite or non-positive curvature p.Ap) or when the iterations run out.
    """
    n = len(b)
    x = np.zeros(n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x, 0, 0.0, [0.0]
    m = a.diagonal() if diag is None else diag
    minv = 1.0 / m
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = r @ z
    history = [1.0]
    for it in range(1, max_iterations + 1):
        ap = a @ p
        pap = p @ ap
        # a non-finite residual reaches p, so this one check also catches it
        if not 0.0 < pap < np.inf:
            raise IterativeSolveError(
                f"conjugate gradients broke down at iteration {it}: p.Ap = {pap:.3e} "
                f"(last relative residual {history[-1]:.3e})", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = np.linalg.norm(r) / norm_b
        history.append(rel)
        if rel <= tol:
            return x, it, rel, history
        z = minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterativeSolveError(
        f"conjugate gradients did not reach tol={tol:g} within {max_iterations} "
        f"iterations (last relative residual {history[-1]:.3e})", history)


def solve(problem: DirichletProblem, config: SolverConfig = SolverConfig()) -> SolveReport:
    """Solve the Dirichlet problem; trivial (all-boundary) meshes return g itself."""
    cx = problem.cx
    omega = problem.boundary_values.astype(float).copy()
    try:
        system = assemble(problem)
    except TrivialProblemError:
        sol = Cochain(0, "primal", omega)
        return SolveReport(sol, 0, 0.0, _energy(problem, sol),
                           _stability(problem, sol), (0.0,))
    use_dense = config.method == "dense" or (
        config.method == "auto" and system.reduced.shape[0] < config.dense_cutoff)
    if use_dense:
        x = np.linalg.solve(system.reduced.toarray(), system.load)
        iters = 0
        nb = np.linalg.norm(system.load)
        rel = 0.0 if nb == 0 else float(
            np.linalg.norm(system.reduced @ x - system.load) / nb)
        history = [rel]
    else:
        x, iters, rel, history = pcg(system.reduced, system.load,
                                     config.tol, config.max_iterations)
    omega[system.interior] = x
    sol = Cochain(0, "primal", omega)
    return SolveReport(sol, iters, rel, _energy(problem, sol), _stability(problem, sol),
                       tuple(history))


def _energy(problem: DirichletProblem, omega: Cochain) -> float:
    d0 = exterior_derivative(problem.dual, 0, "primal")
    dw = d0.apply(omega)
    return 0.5 * inner_product(problem.dual, dw, dw) \
        - inner_product(problem.dual, problem.rhs, omega)


def _stability(problem: DirichletProblem, omega: Cochain) -> float:
    """||omega||_h / (||R_h f||_h + ||d g_h||_h) with g_h the stored extension.

    ``boundary_values`` holds vertex values everywhere (for manufactured
    problems the reference field), serving as the discrete extension of the
    boundary data; extension by zero would make the denominator blow up like
    h^(-1/2) and hide the boundedness being measured.
    """
    dual = problem.dual
    d0 = exterior_derivative(dual, 0, "primal")
    g_ext = Cochain(0, "primal", problem.boundary_values.astype(float))
    denom = discrete_l2(dual, problem.rhs) + discrete_l2(dual, d0.apply(g_ext))
    num = discrete_l2(dual, omega)
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


@dataclass(frozen=True)
class ErrorReport:
    max: float
    l2: float
    h1: float


def error_report(problem: DirichletProblem, solution: Cochain,
                 reference: ProblemBundle) -> ErrorReport:
    """Norms of e = R_h u - omega_h: max, discrete L2, discrete H1 seminorm."""
    e = Cochain(0, "primal", reference.u_at(problem.cx.vertices) - solution.values)
    d0 = exterior_derivative(problem.dual, 0, "primal")
    return ErrorReport(
        max=float(np.max(np.abs(e.values))),
        l2=discrete_l2(problem.dual, e),
        h1=discrete_l2(problem.dual, d0.apply(e)),
    )


def dump_solution(path, solution: Cochain, mesh_name: str, problem_name: str,
                  level: int) -> None:
    """Text dump 'vertex_index value' with a provenance header line."""
    lines = [f"solution mesh={mesh_name} problem={problem_name} level={level}"]
    for i, v in enumerate(solution.values):
        lines.append(f"{i} {float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
