"""Continuous-side bridge: form fields, deRham maps, consistency probes.

A ``FormField`` evaluates to antisymmetric coefficient arrays over the
lexicographically increasing index tuples of its degree.  The Euclidean
pointwise Hodge star of a field is purely algebraic (a signed permutation of
components), so starred fields never need hand-derived formulas.  Whitney
forms serve only as an analysis tool, so their Gram matrix is a helper of
the test suite.  The Laplace probe takes d_0 and d_0^T on the edge list by
``operators.edge_differences`` and ``edge_sums``, as the solver does; the
sparse ``operators.laplace`` is the tests' reference.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import geometry
from .complex import SimplicialComplex
from .dualmesh import DualComplex, fragments
from .errors import TrivialProblemError
from .operators import (Cochain, discrete_l2, edge_differences, edge_sums, hodge_star,
                        max_norm)
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


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> tuple[tuple[int, float], ...]:
    """The Euclidean pointwise star on k-forms as a signed column permutation:
    per column of the starred values, the column of the values it takes and
    its sign."""
    src = index_tuples(n, k)
    dst = index_tuples(n, n - k)
    table = [None] * len(dst)
    for i, rho in enumerate(src):
        comp = tuple(sorted(set(range(n)) - set(rho)))
        table[dst.index(comp)] = (i, float(_perm_sign(rho + comp)))
    return tuple(table)


def hodge_field(field: FormField) -> FormField:
    """Pointwise Euclidean Hodge star of a field (exact, algebraic).

    A signed column permutation of the values, one column at a time into a
    C-ordered array: each column of the starred values is a column of the
    values times its sign, +-1.0, as the integer sign array of a scatter
    gave, so -0.0 and a NaN keep their sign bits as they did (``np.negative``
    would flip a NaN's).  The stars 0 -> n and n -> 0 have one column and
    sign +1, so they return the values themselves.
    """
    n, k = field.dim, field.degree
    if k in (0, n):
        return FormField(n - k, n, field)
    table = _star_table(n, k)

    def ev(points):
        vals = field(points)
        out = np.empty((len(vals), len(table)))
        for c, (i, sign) in enumerate(table):
            np.multiply(vals[:, i], sign, out=out[:, c])
        return out

    return FormField(n - k, n, ev)


# -- deRham maps -----------------------------------------------------------------


def _integrate(fields: Sequence[FormField], corner: Callable, index: np.ndarray,
               degree: int) -> np.ndarray:
    """Integrate k-forms over m simplices whose corner j of row r is the point
    ``corner(j, index[r, j])`` of R^n (``corner`` takes an array), index (m, k+1).
    Returns (len(fields), m), one row per field; the fields share the degree k.

    The orientation is the corner order; a 0-simplex is a point evaluation
    (one node of weight 1, and the 0x0 minor is 1).  Simplices go in
    ``geometry.row_blocks`` of max(1, BLOCK_NODES // Q) for a rule of Q nodes.
    Each block gathers its k+1 corners through ``corner``, one (b, n) array
    each, and forms from them the frame coordinate-major, (k, n, b), by k
    subtractions into one array, so every minor's entries are contiguous
    columns; the corners, stacked once for the node map, go before any field
    is evaluated.  The minors are taken once for all fields; only the field
    values and the weighted sums are taken per field.  So the corners, the
    mapped nodes, one field's values and its temporaries cover at most
    max(BLOCK_NODES, Q) nodes at a time, whatever m is; only the result grows
    with m.  The weighted sum over a row's nodes is an einsum on that row
    alone, not a BLAS matrix-vector product, whose rounding of a row depends
    on where it falls in the kernel's groups and thread split; so the result
    depends neither on the block size, nor on the BLAS thread count, nor on
    which other fields share the pass, nor on the memory layout in which a
    field returns its values, which are read C-ordered (no copy when they
    are).  ``derham_dual`` hands it the fragments of one block of top cells
    at a time, which fit one block here.
    """
    k = fields[0].degree
    rule = simplex_rule(k, degree)
    m, n = len(index), fields[0].dim
    integ = np.zeros((len(fields), m))
    for rows in geometry.row_blocks(m, len(rule.weights)):
        corners = [corner(j, i) for j, i in enumerate(index[rows].T)]
        frame = np.empty((k, n, len(corners[0])))
        for j in range(1, k + 1):
            np.subtract(corners[j].T, corners[0].T, out=frame[j - 1])
        # stacked for the node map with each corner's row of n floats copied
        # as one item, so the copy does not loop over the length-n axis
        row = np.dtype((np.void, corners[0].itemsize * n))
        block = np.stack([c.view(row) for c in corners], axis=1).view(corners[0].dtype)
        pts = rule.physical_points(block)                               # (b, Q, n)
        del block, corners
        # minor rho: the frame's columns rho, (b, k, k) with each entry contiguous
        minors = [geometry.det(np.take(frame, rho, axis=1).transpose(2, 0, 1))
                  for rho in index_tuples(n, k)]
        del frame
        for field, out in zip(fields, integ[:, rows]):
            # C-ordered: the einsum rounds a strided (b, Q) operand differently
            vals = np.ascontiguousarray(field(pts.reshape(-1, n))).reshape(*pts.shape[:2], -1)
            for c, minor in enumerate(minors):
                out += np.einsum("bq,q->b", vals[:, :, c], rule.weights) * minor
            del vals   # so the next field's values do not coexist with these
    integ /= math.factorial(k)
    return integ


def _check_fields(fields: Sequence[FormField], n: int) -> int:
    """The common degree, 0 to n, of a nonempty list of fields in R^n."""
    if not fields:
        raise ValueError("no field to integrate")
    for f in fields:
        if f.dim != n:
            raise ValueError(f"field lives in R^{f.dim}, complex in R^{n}")
    if len({f.degree for f in fields}) > 1:
        raise ValueError("fields integrated in one pass must share their degree")
    if not 0 <= fields[0].degree <= n:
        raise ValueError("field degree exceeds complex dimension")
    return fields[0].degree


def derham_primal(fields: Sequence[FormField], cx: SimplicialComplex,
                  degree: int = 4) -> list[Cochain]:
    """Integrate k-forms of one degree over every oriented primal k-simplex.

    The fields share one pass over the simplices; the cochains come back in
    order, each equal bit for bit to the one a pass of its field alone gives.
    """
    k = _check_fields(fields, cx.dim)
    integ = _integrate(fields, lambda j, i: np.take(cx.vertices, i, axis=0),
                       cx.simplices[k], degree)
    integ *= cx.orientation[k]
    return [Cochain(k, "primal", values) for values in integ]


def derham_dual(fields: Sequence[FormField], dual: DualComplex,
                degree: int = 4) -> list[Cochain]:
    """Integrate (n-k)-forms of one degree over every dual cell, fragment by fragment.

    Fragments enter with their chain orientation coefficients, so each result
    is the integral over the coherently oriented dual cell.  The fields share
    one pass over the fragments, as in ``derham_primal``.

    The top cells go in ``geometry.row_blocks`` of max(1, BLOCK_NODES // (F Q))
    for F = (n+1)!/(k+1)! fragments per top cell and a rule of Q nodes: each
    block builds its own fragments (``dualmesh.fragments``), integrates them
    and adds the signed integrals into the cochains with ``np.add.at``.  The
    blocks run in order, so each cell sums its fragments in table order from
    zero, as one bincount over the whole table would; no fragment table and
    no per-fragment value outlives its block.
    """
    cx = dual.complex
    n = cx.dim
    k = n - _check_fields(fields, n)
    if dual.circumcenters is None:
        raise ValueError("the dual holds no circumcenters: study.walk_levels let them go")
    width = (math.factorial(n + 1) // math.factorial(k + 1)
             * len(simplex_rule(n - k, degree).weights))
    out = [np.zeros(cx.num(k)) for _ in fields]
    for cells in geometry.row_blocks(cx.num(n), width):
        chain, sign = fragments(cx, k, cells)
        integ = _integrate(fields, lambda j, i: dual.centers(k + j, i), chain, degree)
        integ *= sign
        for values, block in zip(out, integ):
            np.add.at(values, chain[:, 0], block)
    return [Cochain(n - k, "dual", values) for values in out]


def derham_images(fields: Sequence[FormField], cx: SimplicialComplex, dual: DualComplex,
                  degree: int = 6) -> list[tuple[Cochain, Cochain]]:
    """(R_h w, R_h(star w)) for each field w of one degree: the two deRham
    images that the commutator star_h R_h - R_h star compares.  The primal
    simplices and the dual fragments are each mapped once for all fields."""
    primal = derham_primal(fields, cx, degree)
    starred = derham_dual([hodge_field(w) for w in fields], dual, degree)
    return list(zip(primal, starred))


# -- consistency probes ----------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRecord:
    """Error norms of the star/deRham commutators at one mesh level."""
    err_max: float            # primal-side expression, max norm
    err_l2_primal_side: float  # primal-side expression, dual discrete L2 norm
    err_max_dual_side: float  # dual-side expression, max norm


def consistency_probe(images: tuple[Cochain, Cochain], cx: SimplicialComplex,
                      dual: DualComplex, interior_l2: bool = False) -> ConsistencyRecord:
    """Measure star_h R_h - R_h star on a field w and on its star, from the
    field's ``derham_images`` pair (R_h w, R_h(star w)).

    The primal-side expression star_h(R_h w) - R_h(star w) is a dual cochain;
    the dual-side expression star_h(R_h(star w)) - R_h(star star w) is primal.
    Max norms run over all cells; with ``interior_l2`` the L2 norm skips cells
    whose base simplex touches the domain boundary (their truncated duals
    carry a slowly decaying layer that masks the sharp interior rate).
    """
    primal, rhs = images
    k, n = primal.degree, cx.dim
    sh = hodge_star(dual, k, side="primal")
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
    else:
        l2_prim = discrete_l2(dual, prim_expr)
    return ConsistencyRecord(
        err_max=max_norm(prim_expr),
        err_l2_primal_side=l2_prim,
        err_max_dual_side=max_norm(dual_expr),
    )


@dataclass(frozen=True)
class LaplaceConsistencyRecord:
    """Interior-vertex consistency of the 0-form Hodge-Laplace and its two-term split."""
    total_max: float
    term1_max: float   # star d (star R - R star) d u  : the non-decaying term
    term2_max: float   # (star R - R star) d star d u  : the O(h) term
    identity_gap: float  # max |total - (term1 - term2)| at interior vertices


def laplace_consistency_probe(bundle, cx: SimplicialComplex, dual: DualComplex,
                              images: list[tuple[Cochain, Cochain]],
                              degree: int = 6) -> LaplaceConsistencyRecord:
    """Evaluate Delta_h R_h u - R_h Delta u and its exact two-term decomposition.

    ``images`` are ``derham_images([bundle.u, bundle.f], ...)``, which a study
    shares with the consistency probe of u; the probe maps du itself.
    Delta_h = star_0^-1 d_0^T star_1 d_0 takes d_0 and d_0^T on the edge list,
    by ``edge_differences`` and ``edge_sums``, with no incidence matrix.
    Restricted to interior vertices: boundary dual cells are truncated, so the
    dual Stokes step behind the decomposition only holds away from them.  A
    mesh without interior vertices raises ``TrivialProblemError``.
    """
    interior = cx.interior_vertex_indices()
    if not len(interior):
        raise TrivialProblemError("no interior vertices: the Laplace probe has nothing to measure")
    # f = delta d u, the continuous image; d star d u = -star f
    (ru, _), (rf, r_star_f) = images
    inv_v = 1.0 / dual.volumes[0]
    star1 = hodge_star(dual, 1, "primal")
    total = inv_v * edge_sums(cx, star1.apply(edge_differences(cx, ru.values))) - rf.values

    [(r_du, r_star_du)] = derham_images([bundle.du], cx, dual, degree)
    v = star1.apply(r_du).values - r_star_du.values
    term1 = inv_v * edge_sums(cx, v)
    term2 = rf.values - inv_v * r_star_f.values

    def mx(x):
        return float(np.max(np.abs(x[interior])))

    return LaplaceConsistencyRecord(
        total_max=mx(total), term1_max=mx(term1), term2_max=mx(term2),
        identity_gap=mx(total - (term1 - term2)))
