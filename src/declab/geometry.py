"""Low-level simplex geometry: volumes, circumcenters, barycentric coordinates.

All functions accept batched input: ``coords`` has shape (m, k+1, n) for m
simplices with k+1 vertices each, embedded in R^n.  Scalars fall out of the
m=1 case.  Every matrix here is at most 3 x 3, so determinants are closed-form
expansions (``det``) and linear systems, the circumcenter's among them, are
solved by Cramer's rule over them (``_cramer``), elementwise over the batch.

The column rule: an elementwise pass runs over contiguous columns of m
entries, not over an axis of length n <= 3 of a stacked block, where numpy
spends its time on loop overhead.  ``signed_volume`` and ``diameter`` read
``coords`` coordinate-major, as the (n, k+1, m) array ``coords.T``: a caller
that gathers its corners that way (``complex.cell_orientation``) passes a
view and nothing is copied; a row-major stack is copied once.
``SimplicialComplex.coords_of`` gathers vertex-major, a view of a (k+1, m, n)
array, so ``edge_matrix`` subtracts contiguous blocks.  ``det`` runs on
contiguous columns when its (..., k, k) argument is such a transposed view.
The arithmetic is elementwise, so the layout changes no bit.

The Gram operand rule: a Gram E E^T is BLAS's product of the stack e and a
C-ordered copy of its transpose, ``e @ np.ascontiguousarray(e.transpose(0,
2, 1))`` (``_gram``).  Written ``e @ e.transpose(0, 2, 1)`` it is one buffer
times its own transpose, which numpy hands to a slow special-case path; the
copy takes the general product, which rounds alike.  It is never written
elementwise or as an einsum: BLAS fuses its multiply-adds, which round
differently.  The other matrix products (the einsums of the circumcenter,
``QuadratureRule.physical_points``) are kept as they are, for the same reason.

The entry-major rule: the passes over a stack of k x k matrices (the
determinant, the circumcenter's relative determinant check, Cramer's rule
and the coordinates' sum) run on the (k, k, m) copy ``_gram`` returns, whose
entry (i, j) is one contiguous column, by ``det``'s closed forms on entries
(``_det``, ``_cramer``).  Cramer's rule reads the replaced column from the
right-hand side, so no matrix is copied or changed.  Sums and products of
k <= 3 terms go left to right, as numpy's reduction over so short an axis
does.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import DegenerateSimplexError

# The equidistance system is degenerate when its Gram determinant, relative to
# the product of the Gram diagonal, falls to 1 / CIRCUMCENTER_COND_MAX.
CIRCUMCENTER_COND_MAX = 1e12
# A circumcenter whose smallest barycentric coordinate lies within this of 0
# is on its simplex's boundary (weakly well-centered); below -tol it is outside.
WELL_CENTERED_TOL = 1e-12
# Points per block of the row-blocked kernels (fields._integrate's quadrature
# nodes and fields.derham_dual's fragment nodes; the simplex vertices of
# dualmesh.build_dual, DualComplex.hodge_ratios, SimplicialComplex.shape_report,
# complex.cell_orientation and the conformity audit; the edge ends of
# squared_lengths), see row_blocks.  A field
# evaluation holds about ten float64 temporaries per node, 0.5 MB each here.
BLOCK_NODES = 1 << 16


def row_blocks(m: int, width: int):
    """Slices covering rows 0..m-1 in order, max(1, BLOCK_NODES // width) rows
    each for rows of ``width`` points, so a block's temporaries stay bounded."""
    step = max(1, BLOCK_NODES // width)
    return (slice(start, start + step) for start in range(0, m, step))


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, shape (..., k, k) -> (...).

    Closed forms for k <= 3: 1 for the empty matrix, the entry, the 2 x 2
    formula and the cofactor expansion along the first row.  Each product of
    k entries then goes through at most k(k+1)/2 - 1 roundings, so the error
    is at most gamma_{k(k+1)/2-1} times the permanent of |a|, and it is exact
    on small integers.  LU (LAPACK) above 3.
    """
    if a.shape[-1] == 0:
        return np.ones(a.shape[:-2])
    return _det(np.moveaxis(a, (-2, -1), (0, 1)))


def _det(a) -> np.ndarray:
    """``det`` of the k x k matrix, k >= 1, whose entry (i, j) is the array
    a[i][j]: a (k, k, ...) array or nested lists of arrays of one shape."""
    k = len(a)
    if k == 1:
        return a[0][0].copy()
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if k == 3:
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    a = np.moveaxis(np.asarray(a), (0, 1), (-2, -1))
    return np.linalg.det(a)


def _cramer(a, b, den, out: np.ndarray) -> None:
    """The solution of a x = b by Cramer's rule on entries, into ``out``
    (k, ...): x[i] = det(a with column i replaced by b) / den, for arrays
    a[i][j] and b[i] of one shape and den = det(a)."""
    k = len(a)
    for i in range(k):
        np.divide(_det([[b[r] if c == i else a[r][c] for c in range(k)] for r in range(k)]),
                  den, out=out[i])


def edge_matrix(coords: np.ndarray) -> np.ndarray:
    """Edge vectors v_i - v_0, shape (m, k, n)."""
    return coords[:, 1:, :] - coords[:, :1, :]


def _gram(e: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the Gram E E^T of each matrix of the stack e (m, k, n),
    entry-major: (k, k, m), [i, j] the column of entry (i, j).  A power of two
    for ``scale`` changes no rounding."""
    m, k, _ = e.shape
    out = np.empty((k, k, m))
    np.multiply((e @ np.ascontiguousarray(e.transpose(0, 2, 1))).transpose(1, 2, 0),
                scale, out=out)
    return out


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
    return np.sqrt(np.maximum(_det(_gram(e)), 0.0)) / math.factorial(k)


def signed_volume(coords: np.ndarray) -> np.ndarray:
    """Signed n-volume of full-dimensional simplices, det(E) / n!, coordinate-major
    by the column rule."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[2]
    if coords.shape[1] != n + 1:
        raise ValueError("signed_volume needs n+1 vertices in R^n")
    cols = np.ascontiguousarray(coords.T)          # (n, n+1, m)
    frame = cols[:, 1:] - cols[:, :1]              # frame[x, i]: coordinate x of edge i
    return det(frame.T) / math.factorial(n)


def squared_norms(d: np.ndarray) -> np.ndarray:
    """sum(d**2, axis=-1), one coordinate after another: a reduction over so
    short an axis is several times slower."""
    out = d[..., 0] ** 2
    for j in range(1, d.shape[-1]):
        out += d[..., j] ** 2
    return out


def squared_lengths(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """|v_j - v_i|^2 per edge (i, j) of ``edges`` (m, 2): ``squared_norms`` of
    the ends gathered with ``np.take``, in ``row_blocks``, so no (m, n)
    difference is formed.  Its square root is the edge's length, and
    ``diameter``'s of the edge bit for bit."""
    out = np.empty(len(edges))
    for rows in row_blocks(len(edges), 2):
        d = np.take(vertices, edges[rows, 1], axis=0)
        d -= np.take(vertices, edges[rows, 0], axis=0)
        out[rows] = squared_norms(d)
    return out


def diameter(coords: np.ndarray) -> np.ndarray:
    """Largest pairwise vertex distance (= longest edge for a simplex).

    A running maximum of the squared lengths over the vertex pairs i < j, then
    one square root: the square root is monotone and correctly rounded, so
    this is exactly the largest of the lengths.  Coordinate-major, by the
    column rule.
    """
    cols = np.ascontiguousarray(np.asarray(coords, dtype=float).T)   # (n, k+1, m)
    sq = np.zeros(cols.shape[2])
    for i, j in combinations(range(cols.shape[1]), 2):
        np.maximum(sq, squared_norms((cols[:, i] - cols[:, j]).T), out=sq)
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
    gram = _gram(e, 2.0)
    rhs = np.ascontiguousarray(np.einsum("mkd,mkd->mk", e, e).T)
    den = _det(gram)
    if check:
        # det(G) / prod diag(G) is 1 for orthogonal edges and 0 for collinear
        # ones, whatever the edge lengths; a zero-length edge gives 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_det = den / reduce(np.multiply, [gram[i, i] for i in range(k)])
        bad = ~(rel_det * CIRCUMCENTER_COND_MAX > 1.0)
        if bad.any():
            i = int(np.argmax(bad))
            # named by its vertices, not its row, which a blocked caller would shift
            raise DegenerateSimplexError(
                f"near-degenerate simplex {coords[i].tolist()}: equidistance system "
                f"relative Gram determinant {rel_det[i]:.3e}"
            )
    lam = np.empty((kp1, m))  # entry-major: lam.T is the (m, k+1) result
    _cramer(gram, rhs, den, lam[1:])
    del gram, rhs, den  # freed before the centers are formed, for a lower peak
    np.subtract(1.0, lam[1:].sum(axis=0), out=lam[0])
    alpha = np.ascontiguousarray(lam[1:].T)
    return coords[:, 0, :] + np.einsum("mk,mkd->md", alpha, e), lam.T


def barycentric_coordinates(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points (m, n) w.r.t. simplices (m, k+1, n).

    For k < n the point is first projected onto the simplex plane (exact for
    points already lying in it, e.g. circumcenters).  Returns (m, k+1).
    """
    points = np.asarray(points, dtype=float)
    coords = np.asarray(coords, dtype=float)
    e = edge_matrix(coords)
    gram = _gram(e)
    rhs = np.ascontiguousarray(np.einsum("mkd,md->mk", e, points - coords[:, 0, :]).T)
    lam = np.empty((len(rhs) + 1, len(coords)))
    _cramer(gram, rhs, _det(gram), lam[1:])
    np.subtract(1.0, lam[1:].sum(axis=0), out=lam[0])
    return lam.T


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

