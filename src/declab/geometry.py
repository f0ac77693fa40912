"""Low-level simplex geometry: volumes, circumcenters, barycentric coordinates.

All functions accept batched input: ``coords`` has shape (m, k+1, n) for m
simplices with k+1 vertices each, embedded in R^n.  Scalars fall out of the
m=1 case.
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
        return np.abs(np.linalg.det(e)) / math.factorial(k)
    gram = e @ np.transpose(e, (0, 2, 1))
    det = np.maximum(np.linalg.det(gram), 0.0)
    return np.sqrt(det) / math.factorial(k)


def signed_volume(coords: np.ndarray) -> np.ndarray:
    """Signed n-volume of full-dimensional simplices, det(E) / n!."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[2]
    if coords.shape[1] != n + 1:
        raise ValueError("signed_volume needs n+1 vertices in R^n")
    return np.linalg.det(edge_matrix(coords)) / math.factorial(n)


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
    offsets a, then c = v_0 + a^T E.  Returns the centers, shape (m, n), and
    lam = [1 - sum a, a], shape (m, k+1): lam[:, i] is the coordinate at
    vertex i, so the circumcenter lies in its simplex iff lam >= 0, the
    well-centeredness test.
    """
    coords = np.asarray(coords, dtype=float)
    m, kp1, n = coords.shape
    k = kp1 - 1
    if k == 0:
        return coords[:, 0, :].copy(), np.ones((m, 1))
    e = edge_matrix(coords)
    gram = 2.0 * (e @ np.transpose(e, (0, 2, 1)))
    rhs = np.einsum("mkd,mkd->mk", e, e)
    if check:
        # det(G) / prod diag(G) is 1 for orthogonal edges and 0 for collinear
        # ones, whatever the edge lengths
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_det = np.linalg.det(gram) / np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        bad = ~(rel_det * CIRCUMCENTER_COND_MAX > 1.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateSimplexError(
                f"near-degenerate simplex (row {i}): equidistance system "
                f"relative Gram determinant {rel_det[i]:.3e}"
            )
    alpha = np.linalg.solve(gram, rhs[..., None])[..., 0]
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
    lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
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

