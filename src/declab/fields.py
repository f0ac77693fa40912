"""Continuous-side bridge: form fields, deRham maps, consistency probes.

A ``FormField`` evaluates to antisymmetric coefficient arrays over the
lexicographically increasing index tuples of its degree.  The Euclidean
pointwise Hodge star of a field is purely algebraic (a signed permutation of
components), so starred fields never need hand-derived formulas.  Whitney
forms serve only as an analysis tool, so their Gram matrix is a helper of
the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

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


def _integrate(field: FormField, tables, index: np.ndarray, degree: int) -> np.ndarray:
    """Integrate a k-form over m simplices whose corner j of row r is the point
    ``tables[j][index[r, j]]``: k+1 point tables of shape (*, n), index (m, k+1).

    The orientation is the corner order; a 0-simplex is a point evaluation
    (one node of weight 1, and the 0x0 minor is 1).  Simplices go in
    ``geometry.row_blocks`` of max(1, BLOCK_NODES // Q) for a rule of Q nodes,
    and each block gathers its own (b, k+1, n) corners from the tables, so the
    corners, the mapped nodes, the field values and the field's temporaries
    cover at most max(BLOCK_NODES, Q) nodes at a time, whatever m is; only the
    (m,) result grows with m.  The weighted sum over a row's nodes is an
    einsum on that row alone, not a BLAS matrix-vector product, whose rounding
    of a row depends on where it falls in the kernel's groups and thread
    split; so the result depends neither on the block size nor on the BLAS
    thread count.
    """
    k = field.degree
    rule = simplex_rule(k, degree)
    m, n = len(index), tables[0].shape[1]
    integ = np.zeros(m)
    for rows in geometry.row_blocks(m, len(rule.weights)):
        block = np.stack([table[i] for table, i in zip(tables, index[rows].T)], axis=1)
        pts = rule.physical_points(block)          # (b, Q, n)
        vals = field(pts.reshape(-1, n)).reshape(*pts.shape[:2], -1)
        frame = geometry.edge_matrix(block)
        out = integ[rows]
        for c, rho in enumerate(index_tuples(n, k)):
            out += (np.einsum("bq,q->b", vals[:, :, c], rule.weights)
                    * geometry.det(frame[:, :, rho]))
    integ /= math.factorial(k)
    return integ


def derham_primal(field: FormField, cx: SimplicialComplex, degree: int = 4) -> Cochain:
    """Integrate a k-form over every oriented primal k-simplex."""
    k = field.degree
    if field.dim != cx.dim:
        raise ValueError(f"field lives in R^{field.dim}, complex in R^{cx.dim}")
    if k > cx.dim:
        raise ValueError("field degree exceeds complex dimension")
    integ = _integrate(field, [cx.vertices] * (k + 1), cx.simplices[k], degree)
    integ *= cx.orientation[k]
    return Cochain(k, "primal", integ)


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
    integ = _integrate(field, dual.circumcenters[k:], chain, degree)
    integ *= sign
    return Cochain(field.degree, "dual",
                   np.bincount(chain[:, 0], weights=integ, minlength=cx.num(k)))


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
