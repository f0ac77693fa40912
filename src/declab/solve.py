"""Scalar Poisson Dirichlet solves on primal 0-cochains.

Variational form: find omega with omega = g on boundary vertices and
(d omega, d nu)_h = (R_h f, nu)_h for all interior hat cochains nu.  The
stiffness matrix is the edge-weighted graph Laplacian S = d_0^T star_1 d_0;
boundary data enters by elimination.  Only its interior rows are assembled, as
two blocks straight from the edge list: S_II, exactly symmetric, and S_IB for
the load.  The full S is never formed.  The operator is positive semidefinite
(f = delta d u for manufactured u), so the reduced interior system S_II is SPD
and every solve is by preconditioned conjugate gradients.  The reported energy
and stability constant take d_0 of the solution by two gathers per edge
(``operators.edge_differences``), with no incidence matrix.

Every solve is preconditioned by a symmetric V-cycle.  Its geometric levels
are the interior prolongations of a nested refinement hierarchy below the mesh
(``generators.interior_prolongation``), which convergence studies and the
CLI's ``solve`` pass.  Each coarse operator is the Galerkin product P^T A P of
the one above it, formed once per solve from the finest S_II: the
interpolation nests the P1 spaces, so the product is the coarse level's own
S_II, and the coarse levels need a mesh for P but no dual and no assembly.
While the coarsest operator still has ``DENSE_CUTOFF`` unknowns or more (level
0 of a mesh file, or any level of a file whose level 0 is that large),
algebraic levels go below it: smoothed aggregation of that operator's own
graph (``_aggregation_prolongation``).  The cycle smooths with damped Jacobi
and solves the coarsest level (1 to 3 unknowns for the generated families) by
its dense inverse (a diagonal one too large for that, which cannot be
aggregated, by dividing by its diagonal), so the iteration count stays flat
under refinement.  A
solve with no coarser level and fewer than ``DENSE_CUTOFF`` unknowns is
preconditioned by the dense inverse alone.  No reduction goes through BLAS, so
the solution does not depend on the BLAS thread count.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complex import SimplicialComplex
from .dualmesh import DualComplex
from .errors import IterativeSolveError, TrivialProblemError
from .geometry import squared_lengths
from .operators import Cochain, discrete_l2, edge_differences, h1_seminorm, inner_product
from .problems import ProblemBundle


@dataclass(frozen=True)
class DirichletProblem:
    cx: SimplicialComplex
    dual: DualComplex
    rhs: Cochain                 # R_h f (pointwise vertex values of f)
    boundary_values: np.ndarray  # g per vertex; read at boundary vertices only


def make_problem(cx: SimplicialComplex, dual: DualComplex,
                 bundle: ProblemBundle) -> DirichletProblem:
    if bundle.dim != cx.dim:
        raise ValueError(f"problem {bundle.name} lives in R^{bundle.dim}, complex in R^{cx.dim}")
    f_vals = bundle.f_at(cx.vertices)
    g_vals = bundle.u_at(cx.vertices)
    return DirichletProblem(cx, dual, Cochain(0, "primal", f_vals), g_vals)


# damped-Jacobi smoothing of the V-cycle: sweeps before and after the coarse
# correction, and the damping, which keeps omega * rho(D^-1 S) below 2 for the
# weighted graph Laplacians here (rho <= 2) and for the aggregation levels'
# Galerkin products (rho <= 1.6 on the corner and cube files); it also damps
# the step that smooths an aggregation prolongation
SWEEPS = 2
JACOBI_DAMPING = 0.6
# a coarsest level with this many unknowns is too large for the V-cycle's dense
# inverse (Gauss-Jordan, O(n^3): 0.03 s at 199 unknowns, 0.74 s at 499 on a 2-vCPU VM)
DENSE_CUTOFF = 200


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iterations: int = 100_000


@dataclass(frozen=True)
class AssembledSystem:
    reduced: sp.csr_matrix        # interior block S_II
    load: np.ndarray              # b_I = (star_0 R_h f)_I - S_IB g_B
    interior: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    solution: Cochain
    iterations: int
    residual: float               # relative residual of the reduced system
    energy: float
    stability_constant: float     # ||omega||_h / (||R_h f||_h + ||d g_ext||_h)
    # relative residual per CG iteration, from 1.0 at iteration 0; a trivial
    # solve records its one final residual
    residual_history: tuple[float, ...]


def stiffness_matrix(cx: SimplicialComplex, dual: DualComplex) -> sp.csr_matrix:
    """Edge-weight assembly of d_0^T star_1 d_0 over every vertex; exactly symmetric."""
    return _stiffness_blocks(cx, dual, np.ones(cx.num(0), dtype=bool))[0]


def _stiffness_blocks(cx: SimplicialComplex, dual: DualComplex,
                      free: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(S_FF, S_FB): the rows of the stiffness matrix at the ``free`` vertices,
    cut into the columns of the free and of the other vertices, each block
    numbered in vertex order.

    Edge (i, j) of weight w = |dual e| / |e| adds w to S_ii and S_jj and -w to
    S_ij and S_ji.  The diagonal is one ``bincount`` over the i-ends, then the
    j-ends: the order in which a COO assembly of the four entries sums it, so
    it rounds alike.  The lexsorted edges with both ends free are the upper
    triangle of S_FF in CSR order, and the edges with one free end are S_FB.
    """
    edges = cx.simplices[1]
    i, j = edges[:, 0], edges[:, 1]
    w = dual.volumes[1] / np.sqrt(squared_lengths(cx.vertices, edges))
    diag = np.bincount(np.concatenate([i, j]), np.concatenate([w, w]), minlength=cx.num(0))
    # position of each vertex among the free vertices, or among the others
    nf = int(np.count_nonzero(free))
    pos = np.empty(cx.num(0), dtype=np.int32)
    pos[free] = np.arange(nf, dtype=np.int32)
    pos[~free] = np.arange(cx.num(0) - nf, dtype=np.int32)
    free_i, free_j = free[i], free[j]
    one = free_i != free_j
    inner = np.where(free_i[one], i[one], j[one])
    outer = np.where(free_i[one], j[one], i[one])
    s_fb = sp.csr_matrix((-w[one], (pos[inner], pos[outer])), shape=(nf, cx.num(0) - nf))
    both = free_i & free_j
    indptr = np.zeros(nf + 1, dtype=np.int32)
    np.cumsum(np.bincount(pos[i[both]], minlength=nf), out=indptr[1:])
    upper = sp.csr_matrix((-w[both], pos[j[both]], indptr), shape=(nf, nf))
    diag = diag[free]
    # the two sums below set the peak: let the edge arrays go first
    del w, pos, free_i, free_j, one, both
    # lower triangle plus diagonal, then the upper triangle.  Each entry comes
    # from one term, so the sums only add zeros, and they drop the entries of
    # zero-weight edges (on weakly well-centered meshes)
    lower_diag = upper.T.tocsr() + sp.diags(diag)
    del diag
    return lower_diag + upper, s_fb


def assemble(problem: DirichletProblem) -> AssembledSystem:
    cx = problem.cx
    free = ~cx.boundary_vertex_mask()
    if not free.any():
        raise TrivialProblemError("no interior vertices: boundary data determines the solution")
    s_ii, s_ib = _stiffness_blocks(cx, problem.dual, free)
    interior = np.flatnonzero(free)
    b = problem.dual.volumes[0][interior] * problem.rhs.values[interior] \
        - s_ib @ problem.boundary_values[~free]
    return AssembledSystem(s_ii, b, interior)


def pcg(a: sp.csr_matrix, b: np.ndarray, tol: float, max_iterations: int,
        precondition: Callable[[np.ndarray], np.ndarray]):
    """Preconditioned conjugate gradients.

    ``precondition(r)`` applies an SPD approximation of ``a``'s inverse.  Dot
    products and norms go through ``_dot``, so the iterates do not depend on
    the BLAS thread count.  Returns (x, iterations, relative residual,
    residual history).  Raises ``IterativeSolveError``, carrying the history so
    far, on breakdown (a non-finite or non-positive curvature p.Ap) or when the
    iterations run out.
    """
    n = len(b)
    x = np.zeros(n)
    norm_b = math.sqrt(_dot(b, b))
    if norm_b == 0.0:
        return x, 0, 0.0, [0.0]
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    history = [1.0]
    for it in range(1, max_iterations + 1):
        ap = a @ p
        pap = _dot(p, ap)
        # a non-finite residual reaches p, so this one check also catches it
        if not 0.0 < pap < np.inf:
            raise IterativeSolveError(
                f"conjugate gradients broke down at iteration {it}: p.Ap = {pap:.3e} "
                f"(last relative residual {history[-1]:.3e})", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = math.sqrt(_dot(r, r)) / norm_b
        history.append(rel)
        if rel <= tol:
            return x, it, rel, history
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterativeSolveError(
        f"conjugate gradients did not reach tol={tol:g} within {max_iterations} "
        f"iterations (last relative residual {history[-1]:.3e})", history)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in numpy's own summation loop; BLAS sums in an order set by its thread count."""
    return np.einsum("i,i", u, v)


def v_cycle(a: sp.csr_matrix, prolongations: Sequence[sp.csr_matrix]
            ) -> Callable[[np.ndarray], np.ndarray]:
    """A symmetric V(2, 2)-cycle on a nested hierarchy, as a CG preconditioner.

    ``prolongations`` maps each coarser level's interior unknowns to the next
    finer level's, coarsest first, the last one into ``a``'s.  Leading
    prolongations from a level without interior vertices are skipped.  While
    the coarsest operator has ``DENSE_CUTOFF`` unknowns or more, an algebraic
    level by smoothed aggregation goes below it.  Each coarse operator is the
    Galerkin product ``p^T a_fine p``, formed here once by the products of
    ``(p.T @ a_fine @ p).tocsr()``, from the CSR of ``a_fine^T`` where scipy
    makes a CSC copy: ``a``, the assembled S_II, equals its transpose bit for
    bit, with sorted indices.  The cycle smooths with damped Jacobi on every
    level above the coarsest and solves the coarsest exactly, by its dense
    inverse or, when it is diagonal and so cannot be aggregated, by dividing
    by its diagonal.  Equal pre- and post-sweeps of a symmetric smoother keep
    the preconditioner SPD.  With no level below ``a``, it is ``a``'s inverse.
    """
    # an interior vertex stays interior under refinement, so empty levels lead
    geometric = [p for p in prolongations if p.shape[1]]
    mats, ps, at = [a], [], a  # at: the CSR of mats[-1]^T
    diagonal = False
    while geometric or mats[-1].shape[0] >= DENSE_CUTOFF:
        p = geometric.pop() if geometric else _aggregation_prolongation(mats[-1])
        # a diagonal operator: no row has a neighbour to aggregate with
        if diagonal := p.shape[1] == p.shape[0]:
            break
        ps.insert(0, p)
        at = p.T.tocsr() @ (at @ p)
        at.sort_indices()
        mats.append(at.T.tocsr())
    coarsest = mats.pop()
    inv = coarsest.diagonal() if diagonal else _spd_inverse(coarsest.toarray())
    # p.T is a CSC view of p's arrays, formed here once rather than per visit
    levels = [(m, JACOBI_DAMPING / m.diagonal(), p, p.T) for m, p in zip(reversed(mats), ps)]
    return lambda r: _cycle(levels, inv, len(levels) - 1, r)


def _aggregation_prolongation(m: sp.csr_matrix) -> sp.csr_matrix:
    """Smoothed-aggregation prolongation for the SPD operator ``m`` (Vanek,
    Mandel & Brezina 1996): the piecewise-constant P of ``_aggregates``,
    smoothed by one damped-Jacobi step."""
    agg = _aggregates(m)
    n = len(agg)
    tentative = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, agg.max() + 1))
    return (tentative - sp.diags(JACOBI_DAMPING / m.diagonal()) @ (m @ tentative)).tocsr()


def _aggregates(m: sp.csr_matrix) -> np.ndarray:
    """The aggregate of each row of ``m``, numbered in the order of their roots.

    Two rows are neighbours when one is in the other's CSR pattern; no
    strength threshold is needed, as the off-diagonal entries of a
    well-centered mesh's S_II are nonpositive edge weights.  The roots are a
    maximal distance-2 independent set, the smallest undecided row index
    winning within distance 2, built in rounds of two neighbour minima.  Each
    root's neighbours join its aggregate (a row neighbours at most one root),
    and every other row, two steps from a root, joins the smallest aggregate
    among its neighbours.  No loop runs over rows, and the result is the same
    on every call.
    """
    n = m.shape[0]

    def neighbour_min(v):
        # every row holds its positive diagonal, so no segment is empty
        return np.minimum.reduceat(v[m.indices], m.indptr[:-1])

    rows = np.arange(n)
    # a row's key is its index while undecided, -1 once a root, n once covered
    key = rows.copy()
    while (undecided := key == rows).any():
        near = neighbour_min(neighbour_min(key))
        key[undecided & (near == rows)] = -1
        key[undecided & (near < 0)] = n
    roots = key < 0
    count = int(np.count_nonzero(roots))
    label = np.full(n, count)
    label[roots] = np.arange(count)
    agg = neighbour_min(label)
    return np.where(agg < count, agg, neighbour_min(agg))


def _cycle(levels: list, inv: np.ndarray, j: int, r: np.ndarray) -> np.ndarray:
    """The V-cycle from level ``j`` down; ``levels[j]`` is (operator, damped inverse
    diagonal, prolongation from level j - 1, its transpose as a CSC view, the
    restriction).  ``inv`` solves the coarsest:
    a matrix is its dense inverse, a vector the diagonal of a diagonal operator.

    A module function, not a closure over itself: a self-referencing closure
    would keep every operator of a solve alive until the cyclic collector runs.
    """
    if j < 0:
        return r / inv if inv.ndim == 1 else (inv * r).sum(axis=1)
    m, wdinv, p, pt = levels[j]
    x = wdinv * r
    for _ in range(SWEEPS - 1):
        x += wdinv * (r - m @ x)
    x += p @ _cycle(levels, inv, j - 1, pt @ (r - m @ x))
    for _ in range(SWEEPS):
        x += wdinv * (r - m @ x)
    return x


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a small SPD matrix by Gauss-Jordan elimination without pivoting.

    Elementwise numpy only, like its application in ``v_cycle``: LAPACK's
    inverse changes in its last bits with the BLAS thread count, and so would
    every CG iterate it preconditions.  Symmetrized, so the cycle is symmetric.
    """
    n = len(a)
    aug = np.hstack([a, np.eye(n)])
    for k in range(n):
        aug[k] /= aug[k, k]
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= col[:, None] * aug[k]
    inv = aug[:, n:]
    return 0.5 * (inv + inv.T)


def solve(problem: DirichletProblem, config: SolverConfig = SolverConfig(),
          prolongations: Sequence[sp.csr_matrix] = ()) -> SolveReport:
    """Solve the Dirichlet problem; trivial (all-boundary) meshes return g itself.

    ``prolongations`` is the refinement hierarchy below this mesh, in the form
    ``v_cycle`` takes; CG is preconditioned by its V-cycle.
    """
    omega = problem.boundary_values.astype(float)  # a copy: x fills its interior
    try:
        system = assemble(problem)
    except TrivialProblemError:
        sol = Cochain(0, "primal", omega)
        return SolveReport(sol, 0, 0.0, _energy(problem, sol),
                           _stability(problem, sol), (0.0,))
    x, iters, rel, history = pcg(system.reduced, system.load, config.tol, config.max_iterations,
                                 v_cycle(system.reduced, prolongations))
    omega[system.interior] = x
    sol = Cochain(0, "primal", omega)
    return SolveReport(sol, iters, rel, _energy(problem, sol), _stability(problem, sol),
                       tuple(history))


def _energy(problem: DirichletProblem, omega: Cochain) -> float:
    dw = Cochain(1, "primal", edge_differences(problem.cx, omega.values))
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
    g_ext = Cochain(0, "primal", problem.boundary_values)  # read, not copied
    denom = discrete_l2(dual, problem.rhs) + h1_seminorm(dual, g_ext)
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
    return ErrorReport(
        max=float(np.max(np.abs(e.values))),
        l2=discrete_l2(problem.dual, e),
        h1=h1_seminorm(problem.dual, e),
    )


def dump_solution(path, solution: Cochain, mesh_name: str, problem_name: str,
                  level: int, commit: str) -> None:
    """Text dump 'vertex_index value' with a provenance header line."""
    values = solution.values.tolist()
    # index and value interleaved for one format pass; %r of a Python float
    # is its shortest round-trip repr
    entries = [None] * (2 * len(values))
    entries[::2] = range(len(values))
    entries[1::2] = values
    with open(path, "w") as fh:
        fh.write(f"solution mesh={mesh_name} problem={problem_name} level={level} "
                 f"commit={commit}\n"
                 + "%d %r\n" * len(values) % tuple(entries))
