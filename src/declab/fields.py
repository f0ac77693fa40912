"""Continuous-side bridge: form fields, deRham maps, the Whitney mass matrix, probes.

A ``FormField`` evaluates to antisymmetric coefficient arrays over the
lexicographically increasing index tuples of its degree.  The Euclidean
pointwise Hodge star of a field is purely algebraic (a signed permutation of
components), so starred fields never need hand-derived formulas.  Whitney
forms enter only through their Gram matrix, which is assembled in closed form
from barycentric gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import geometry
from .complex import SimplicialComplex
from .dualmesh import DualComplex
from .errors import TrivialProblemError
from .operators import Cochain, discrete_l2, hodge_star, laplace, max_norm
from .quadrature import simplex_rule


@lru_cache(maxsize=None)
def index_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(n), k))


@dataclass(frozen=True)
class FormField:
    degree: int
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m, C(n, k))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.evaluator(pts), dtype=float)
        want = len(index_tuples(self.dim, self.degree))
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (len(pts), want):
            raise ValueError(f"field returned {out.shape}, expected ({len(pts)}, {want})")
        return out


def scalar_field(dim: int, fn: Callable) -> FormField:
    return FormField(0, dim, lambda p: np.asarray(fn(p), dtype=float).reshape(len(p), 1))


def volume_field(dim: int, fn: Callable) -> FormField:
    """fn(points) * dx_1 ^ ... ^ dx_n."""
    return FormField(dim, dim, lambda p: np.asarray(fn(p), dtype=float).reshape(len(p), 1))


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Component permutation and signs realizing the Euclidean pointwise star."""
    src = index_tuples(n, k)
    dst = index_tuples(n, n - k)
    pos = {t: i for i, t in enumerate(dst)}
    perm = np.empty(len(src), dtype=np.int64)
    sign = np.empty(len(src), dtype=np.int64)
    for i, rho in enumerate(src):
        comp = tuple(sorted(set(range(n)) - set(rho)))
        perm[i] = pos[comp]
        sign[i] = _perm_sign(rho + comp)
    return perm, sign


def hodge_field(field: FormField) -> FormField:
    """Pointwise Euclidean Hodge star of a field (exact, algebraic)."""
    n, k = field.dim, field.degree
    perm, sign = _star_table(n, k)

    def ev(points):
        vals = field(points)
        out = np.zeros((len(points), len(index_tuples(n, n - k))))
        out[:, perm] = vals * sign
        return out

    return FormField(n - k, n, ev)


# -- deRham maps -----------------------------------------------------------------


BLOCK_NODES = 1 << 18  # quadrature nodes per block of _integrate


def _integrate(field: FormField, corners: np.ndarray, degree: int) -> np.ndarray:
    """Integrate a k-form over each simplex given by ordered corners (m, k+1, n).

    The orientation is the corner order; a 0-simplex is a point evaluation
    (one node of weight 1, and the 0x0 minor is 1).  Simplices go in blocks of
    max(1, BLOCK_NODES // Q) for a rule of Q nodes, so the mapped nodes, the
    field values and the field's temporaries cover at most max(BLOCK_NODES, Q)
    nodes at a time, whatever m is.  The weighted sum over a row's nodes is an
    einsum on that row alone, not a BLAS matrix-vector product, whose rounding
    of a row depends on where it falls in the kernel's groups and thread split;
    so the result depends neither on the block size nor on the BLAS thread
    count.
    """
    k = field.degree
    rule = simplex_rule(k, degree)
    m, _, n = corners.shape
    step = max(1, BLOCK_NODES // len(rule.weights))
    integ = np.zeros(m)
    for start in range(0, m, step):
        block = corners[start:start + step]
        pts = rule.physical_points(block)          # (b, Q, n)
        vals = field(pts.reshape(-1, n)).reshape(*pts.shape[:2], -1)
        frame = geometry.edge_matrix(block)
        out = integ[start:start + step]
        for c, rho in enumerate(index_tuples(n, k)):
            out += (np.einsum("bq,q->b", vals[:, :, c], rule.weights)
                    * geometry.det(frame[:, :, rho]))
    return integ / math.factorial(k)


def derham_primal(field: FormField, cx: SimplicialComplex, degree: int = 4) -> Cochain:
    """Integrate a k-form over every oriented primal k-simplex."""
    k = field.degree
    if field.dim != cx.dim:
        raise ValueError(f"field lives in R^{field.dim}, complex in R^{cx.dim}")
    if k > cx.dim:
        raise ValueError("field degree exceeds complex dimension")
    integ = _integrate(field, cx.coords_of(k), degree)
    return Cochain(k, "primal", integ * cx.orientation[k])


def derham_dual(field: FormField, dual: DualComplex, degree: int = 4) -> Cochain:
    """Integrate an (n-k)-form over every dual cell, fragment by fragment.

    Fragments enter with their chain orientation coefficients, so the result
    is the integral over the coherently oriented dual cell.
    """
    cx = dual.complex
    n = cx.dim
    if field.dim != n:
        raise ValueError(f"field lives in R^{field.dim}, complex in R^{n}")
    k = n - field.degree
    if not 0 <= k <= n:
        raise ValueError("field degree exceeds complex dimension")
    chain, sign = dual.flags(k)
    corners = np.stack([dual.circumcenters[k + j][chain[:, j]]
                        for j in range(field.degree + 1)], axis=1)
    integ = _integrate(field, corners, degree) * sign
    return Cochain(field.degree, "dual",
                   np.bincount(chain[:, 0], weights=integ, minlength=cx.num(k)))


# -- Whitney mass matrix ------------------------------------------------------------


def _barycentric_gradients(cx: SimplicialComplex) -> np.ndarray:
    """Gradients of the n+1 barycentric hat functions per top cell: (m, n+1, n)."""
    e = geometry.edge_matrix(cx.coords_of(cx.dim))
    # rows of inv(E)^T are grad lam_i, with inv(E) the solution X of E X = I
    inv = geometry.solve(e, np.broadcast_to(np.eye(cx.dim), e.shape), geometry.det(e))
    grads = np.transpose(inv, (0, 2, 1))
    g0 = -grads.sum(axis=1, keepdims=True)
    return np.concatenate([g0, grads], axis=1)


def whitney_mass_matrix(cx: SimplicialComplex, k: int) -> sp.csr_matrix:
    """Gram matrix of the Whitney k-basis: ||W c||_L2^2 = c^T G c, in closed form.

    On a top cell T the basis form of the face [a_0..a_k] is
    k! sum_i (-1)^i lam_{a_i} dlam_{a_0} ^ .. (no a_i) .. ^ dlam_{a_k}.  Two such
    terms pair to the integral of lam_a lam_b, |T| (1 + [a = b]) / ((n+1)(n+2)),
    times the inner product of their wedges of gradients, which is a k x k
    minor of the Gram matrix grad lam grad lam^T.
    """
    n = cx.dim
    grads = _barycentric_gradients(cx)
    gram = grads @ np.transpose(grads, (0, 2, 1))              # (m, n+1, n+1)
    sides = index_tuples(n + 1, k)
    rows = np.array(sides, dtype=np.int64).reshape(len(sides), k)
    minors = geometry.det(gram[:, rows[:, None, :, None], rows[None, :, None, :]])
    # inc[v, a, u] = (-1)^i where face a, without its i-th vertex v, is side u
    faces = index_tuples(n + 1, k + 1)
    inc = np.zeros((n + 1, len(faces), len(sides)))
    for a, face in enumerate(faces):
        for i, v in enumerate(face):
            inc[v, a, sides.index(face[:i] + face[i + 1:])] = (-1) ** i
    # the 1 of 1 + [a = b] pairs all terms, the [a = b] those dropping one vertex
    total = inc.sum(axis=0)
    local = (np.einsum("au,muv,bv->mab", total, minors, total, optimize=True)
             + np.einsum("xau,muv,xbv->mab", inc, minors, inc, optimize=True))
    cells = cx.simplices[n]
    idx = np.stack([cx.index_of(k, cells[:, list(face)]) for face in faces], axis=1)
    sign = cx.orientation[k][idx]
    vols = geometry.unsigned_volume(cx.coords_of(n))
    local *= (math.factorial(k) ** 2 / ((n + 1) * (n + 2)) * vols[:, None, None]
              * sign[:, :, None] * sign[:, None, :])
    return sp.coo_matrix(
        (local.ravel(), (np.repeat(idx, len(faces), axis=1).ravel(),
                         np.tile(idx, (1, len(faces))).ravel())),
        shape=(cx.num(k),) * 2).tocsr()


# -- consistency probes ----------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRecord:
    """Error norms of the star/deRham commutators at one mesh level."""
    err_max: float            # primal-side expression, max norm
    err_l2_primal_side: float  # primal-side expression, dual discrete L2 norm
    err_max_dual_side: float  # dual-side expression, max norm
    err_l2_dual_side: float   # dual-side expression, discrete L2 norm


def consistency_probe(field: FormField, cx: SimplicialComplex, dual: DualComplex,
                      degree: int = 6, interior_l2: bool = False) -> ConsistencyRecord:
    """Measure star_h R_h - R_h star on a field and on its star.

    The primal-side expression star_h(R_h w) - R_h(star w) is a dual cochain;
    the dual-side expression star_h(R_h(star w)) - R_h(star star w) is primal.
    Max norms run over all cells; with ``interior_l2`` the L2 norms skip cells
    whose base simplex touches the domain boundary (their truncated duals
    carry a slowly decaying layer that masks the sharp interior rate).
    """
    k = field.degree
    n = cx.dim
    star_w = hodge_field(field)
    primal = derham_primal(field, cx, degree)
    sh = hodge_star(dual, k, side="primal")
    rhs = derham_dual(star_w, dual, degree)
    prim_expr = Cochain(n - k, "dual", sh.apply(primal).values - rhs.values)

    # star star w = (-1)^(k(n-k)) w bit for bit (hodge_field is a signed
    # permutation) and R_h is linear, so R_h(star star w) is R_h w up to sign
    sd = hodge_star(dual, n - k, side="dual")
    rhs2 = (-1) ** (k * (n - k)) * primal.values
    dual_expr = Cochain(k, "primal", sd.apply(rhs).values - rhs2)

    if interior_l2:
        keep = ~cx.boundary_mask(k)
        dvol, pvol = dual.hodge_ratios(k)
        l2_prim = float(np.sqrt(np.sum(
            (pvol[keep] / dvol[keep]) * prim_expr.values[keep] ** 2)))
        l2_dual = float(np.sqrt(np.sum(
            (dvol[keep] / pvol[keep]) * dual_expr.values[keep] ** 2)))
    else:
        l2_prim = discrete_l2(dual, prim_expr)
        l2_dual = discrete_l2(dual, dual_expr)
    return ConsistencyRecord(
        err_max=max_norm(prim_expr),
        err_l2_primal_side=l2_prim,
        err_max_dual_side=max_norm(dual_expr),
        err_l2_dual_side=l2_dual,
    )


@dataclass(frozen=True)
class LaplaceConsistencyRecord:
    """Interior-vertex consistency of the 0-form Hodge-Laplace and its two-term split."""
    total_max: float
    term1_max: float   # star d (star R - R star) d u  : the non-decaying term
    term2_max: float   # (star R - R star) d star d u  : the O(h) term
    identity_gap: float  # max |total - (term1 - term2)| at interior vertices


def laplace_consistency_probe(bundle, cx: SimplicialComplex, dual: DualComplex,
                              degree: int = 6) -> LaplaceConsistencyRecord:
    """Evaluate Delta_h R_h u - R_h Delta u and its exact two-term decomposition.

    Restricted to interior vertices: boundary dual cells are truncated, so the
    dual Stokes step behind the decomposition only holds away from them.  A
    mesh without interior vertices raises ``TrivialProblemError``.
    """
    n = cx.dim
    interior = cx.interior_vertex_indices()
    if not len(interior):
        raise TrivialProblemError("no interior vertices: the Laplace probe has nothing to measure")
    ru = derham_primal(bundle.u, cx, degree)
    rf = derham_primal(bundle.f, cx, degree)  # f = delta d u, the continuous image
    lap = laplace(dual, 0)
    total = lap.apply(ru).values - rf.values

    inv_v = 1.0 / dual.volumes[0]
    star_du = hodge_field(bundle.du)
    v = hodge_star(dual, 1, "primal").apply(derham_primal(bundle.du, cx, degree)).values \
        - derham_dual(star_du, dual, degree).values
    term1 = inv_v * (cx.boundary_matrix(1) @ v)

    d_star_du = volume_field(n, lambda p: -bundle.f(p)[:, 0])
    t2_lhs = inv_v * derham_dual(d_star_du, dual, degree).values
    t2_rhs = -rf.values
    term2 = t2_lhs - t2_rhs

    def mx(x):
        return float(np.max(np.abs(x[interior])))

    gap = mx(total - (term1 - term2))
    return LaplaceConsistencyRecord(
        total_max=mx(total), term1_max=mx(term1), term2_max=mx(term2),
        identity_gap=gap,
    )
