"""Low-level simplex geometry: volumes, circumcenters, barycentric coordinates.

All functions accept batched input: ``coords`` has shape (m, k+1, n) for m
simplices with k+1 vertices each, embedded in R^n.  Scalars fall out of the
m=1 case.  Every matrix here is at most 3 x 3, so determinants are closed-form
expansions (``det``) and linear systems, the circumcenter's among them, are
solved by Cramer's rule over them (``solve``), elementwise over the batch.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import DegenerateSimplexError

# The equidistance system is degenerate when its Gram determinant, relative to
# the product of the Gram diagonal, falls to 1 / CIRCUMCENTER_COND_MAX.
CIRCUMCENTER_COND_MAX = 1e12
# A circumcenter whose smallest barycentric coordinate lies within this of 0
# is on its simplex's boundary (weakly well-centered); below -tol it is outside.
WELL_CENTERED_TOL = 1e-12


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, shape (..., k, k) -> (...).

    Closed forms for k <= 3: 1 for the empty matrix, the entry, the 2 x 2
    formula and the cofactor expansion along the first row.  Each product of
    k entries then goes through at most k(k+1)/2 - 1 roundings, so the error
    is at most gamma_{k(k+1)/2-1} times the permanent of |a|, and it is exact
    on small integers.  LU (LAPACK) above 3.
    """
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[:-2])
    if k == 1:
        return a[..., 0, 0].copy()
    if k == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if k == 3:
        return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
                - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
                + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    return np.linalg.det(a)


def solve(a: np.ndarray, b: np.ndarray, den: np.ndarray) -> np.ndarray:
    """x with a x = b by Cramer's rule: a (..., k, k), b (..., k, r), den = det(a).

    x[..., i, j] = det(a with column i replaced by b[..., j]) / den.  Each
    column of ``a`` is swapped out in place and put back, so ``a`` must be
    writable and comes back unchanged, and no second stack of matrices is
    formed.
    """
    x = np.empty(b.shape)
    for i in range(a.shape[-1]):
        col = a[..., :, i].copy()
        for j in range(b.shape[-1]):
            a[..., :, i] = b[..., :, j]
            x[..., i, j] = det(a) / den
        a[..., :, i] = col
    return x


def edge_matrix(coords: np.ndarray) -> np.ndarray:
    """Edge vectors v_i - v_0, shape (m, k, n)."""
    return coords[:, 1:, :] - coords[:, :1, :]


def unsigned_volume(coords: np.ndarray) -> np.ndarray:
    """Unsigned k-volume via the Gram determinant, sqrt(det(E E^T)) / k!.

    Vertices (k=0) get volume 1 by convention.
    """
    coords = np.asarray(coords, dtype=float)
    m, kp1, n = coords.shape
    k = kp1 - 1
    if k == 0:
        return np.ones(m)
    e = edge_matrix(coords)
    if k == n:
        return np.abs(det(e)) / math.factorial(k)
    return np.sqrt(np.maximum(det(e @ np.transpose(e, (0, 2, 1))), 0.0)) / math.factorial(k)


def signed_volume(coords: np.ndarray) -> np.ndarray:
    """Signed n-volume of full-dimensional simplices, det(E) / n!."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[2]
    if coords.shape[1] != n + 1:
        raise ValueError("signed_volume needs n+1 vertices in R^n")
    return det(edge_matrix(coords)) / math.factorial(n)


def diameter(coords: np.ndarray) -> np.ndarray:
    """Largest pairwise vertex distance (= longest edge for a simplex).

    A running maximum of the squared lengths over the vertex pairs i < j, then
    one square root: the square root is monotone and correctly rounded, so
    this is exactly the largest of the lengths.
    """
    coords = np.asarray(coords, dtype=float)
    sq = np.zeros(len(coords))
    for i, j in combinations(range(coords.shape[1]), 2):
        np.maximum(sq, ((coords[:, i] - coords[:, j]) ** 2).sum(-1), out=sq)
    return np.sqrt(sq)


def circumcenter(coords: np.ndarray, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters of k-simplices in R^n and their barycentric coordinates.

    The unique point of the simplex plane equidistant from all vertices:
    solve the normal equations 2 E E^T a = diag(E E^T) for the barycentric
    offsets a by Cramer's rule, then c = v_0 + a^T E.  Returns the centers,
    shape (m, n), and lam = [1 - sum a, a], shape (m, k+1): lam[:, i] is the
    coordinate at vertex i, so the circumcenter lies in its simplex iff
    lam >= 0, the well-centeredness test.
    """
    coords = np.asarray(coords, dtype=float)
    m, kp1, n = coords.shape
    k = kp1 - 1
    if k == 0:
        return coords[:, 0, :].copy(), np.ones((m, 1))
    e = edge_matrix(coords)
    gram = 2.0 * (e @ np.transpose(e, (0, 2, 1)))
    rhs = np.einsum("mkd,mkd->mk", e, e)
    den = det(gram)
    if check:
        # det(G) / prod diag(G) is 1 for orthogonal edges and 0 for collinear
        # ones, whatever the edge lengths; a zero-length edge gives 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_det = den / np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        bad = ~(rel_det * CIRCUMCENTER_COND_MAX > 1.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateSimplexError(
                f"near-degenerate simplex (row {i}): equidistance system "
                f"relative Gram determinant {rel_det[i]:.3e}"
            )
    alpha = solve(gram, rhs[..., None], den)[..., 0]
    del gram, rhs, den  # freed before the centers are formed, for a lower peak
    lam = np.concatenate([1.0 - alpha.sum(axis=1, keepdims=True), alpha], axis=1)
    return coords[:, 0, :] + np.einsum("mk,mkd->md", alpha, e), lam


def barycentric_coordinates(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points (m, n) w.r.t. simplices (m, k+1, n).

    For k < n the point is first projected onto the simplex plane (exact for
    points already lying in it, e.g. circumcenters).  Returns (m, k+1).
    """
    points = np.asarray(points, dtype=float)
    coords = np.asarray(coords, dtype=float)
    e = edge_matrix(coords)
    gram = e @ np.transpose(e, (0, 2, 1))
    rhs = np.einsum("mkd,md->mk", e, points - coords[:, 0, :])
    lam = solve(gram, rhs[..., None], det(gram))[..., 0]
    lam0 = 1.0 - lam.sum(axis=1, keepdims=True)
    return np.concatenate([lam0, lam], axis=1)


def inradius(coords: np.ndarray) -> np.ndarray:
    """Radius of the largest k-ball inside each k-simplex: k*vol / sum(facet vols).

    Facets of an edge are vertices with volume 1, giving the half-length.
    """
    coords = np.asarray(coords, dtype=float)
    m, kp1, _ = coords.shape
    k = kp1 - 1
    if k == 0:
        return np.zeros(m)
    vol = unsigned_volume(coords)
    surf = np.zeros(m)
    for drop in range(kp1):
        keep = [i for i in range(kp1) if i != drop]
        surf += unsigned_volume(coords[:, keep, :])
    return k * vol / surf

