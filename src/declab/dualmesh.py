"""Oriented circumcentric dual complexes.

Dual volumes come from the face-coface pyramid recursion (Hirani 2003; PyDEC,
Bell & Hirani): the dual of a k-simplex t is the union of pyramids with apex
c(t) over the duals of its (k+1)-cofaces T, and c(T) - c(t) is perpendicular
to dual(T), so

    |dual t| = 1/(n-k) * sum_{T > t} s(t,T) |c(T) - c(t)| |dual T|,

with |dual T| = 1 for a top cell.  ``build_dual`` runs it top-down, one
bincount over the incidence pairs of ``faces[k+1]`` per degree.  The side sign
s(t,T) is +1 when c(T) lies on the side of t's plane that holds the vertex of
T opposite t, else -1: the sign of c(T)'s barycentric coordinate at that
vertex, which ``geometry.circumcenter`` returns with c(T).  On (weakly)
well-centered meshes every term is >= 0, degenerate pairs contributing
exactly 0.  Off-centered circumcenters would cancel, so ``build_dual`` refuses
any simplex whose smallest coordinate is below ``-geometry.WELL_CENTERED_TOL``.

Both kernels of ``build_dual`` work in ``geometry.row_blocks``, blocks of
max(1, geometry.BLOCK_NODES // w) simplices, w points per row: the
circumcenter solve over blocks of k-simplices (w = k+1 vertices), written into
preallocated (N_k, n) centers and (N_k, k+1) coordinates, and the step lengths
over blocks of (k+1)-cofaces (w = k+2 faces), written into one preallocated
array of every incidence pair.  Every quantity is per row, and the one
bincount per degree still sums the whole array in the same order, so the
block size changes no bit of the result; it bounds the temporaries, which
whole arrays would size by the number of incidence pairs.  Of the
coordinates only their signs (bool) and each row's minimum outlive a block:
the side signs read the first, the well-centeredness gate the second.

Unrolled, the recursion is a sum over full ascending flags
t = t_k < t_{k+1} < ... < t_n through the top cells, one elementary fragment
per flag: the ordered circumcenter chain [c(t_k), ..., c(t_n)].  Consecutive
chain edges are mutually orthogonal, so every fragment is an orthoscheme.
Fragments are only needed to integrate forms over dual cells, so
``DualComplex.flags(k)`` builds them for one k on its first call and caches
them.  A fragment is its chain and one sign, the chain coefficient of the
fragment in the oriented dual cell: orientation[n][top] * orientation[k][base]
* the parity of the top cell's vertex order "base vertices, then the vertex
each step t_j < t_{j+1} adds".  On a well-centered mesh each chain edge
c(t_{j+1}) - c(t_j) points towards that added vertex, or vanishes, so a base
frame followed by the chain edges is positively oriented in the top cell.
These exact integers drive all operator sign conventions.

Boundary dual cells are truncated at the domain boundary: fragments only run
through existing flags, no mirroring.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import geometry
from .complex import SimplicialComplex
from .errors import WellCenteredError, ids


class DualComplex:
    def __init__(self, cx: SimplicialComplex, circumcenters, volumes):
        self.complex = cx
        self.circumcenters = circumcenters  # circumcenters[k]: (N_k, n)
        self.volumes = volumes              # volumes[k]: (N_k,) dual volumes
        self._flags: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._primal_volumes: dict[int, np.ndarray] = {}
        for arr in (*circumcenters, *volumes):
            arr.setflags(write=False)

    def flags(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The fragments of the k-simplex duals: chain (M, n-k+1) int32, sign
        (M,) int8 of +-1.

        Built for this k alone on the first call, then cached.
        """
        if k not in self._flags:
            arrays = _fragments(self.complex, k)
            for arr in arrays:
                arr.setflags(write=False)
            self._flags[k] = arrays
        return self._flags[k]

    def dual_boundary_matrix(self, k: int) -> sp.csr_matrix:
        """Boundary of dual cells: C_{n-k}(dual) -> C_{n-k-1}(dual).

        Maps the dual of each k-simplex onto the duals of its (k+1)-cofaces,
        each coface reoriented so its induced orientation on the base agrees
        with the base's own, times the parity factor (-1)^(k+1) that makes the
        dual-cell boundary compatible with integration by parts.
        """
        n = self.complex.dim
        if not 0 <= k <= n - 1:
            raise ValueError(f"dual boundary defined for 0 <= k <= {n - 1}, got {k}")
        sign = -1 if (k + 1) % 2 else 1
        return (sign * self.complex.boundary_matrix(k + 1).T).tocsr()

    def hodge_ratios(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(numerator, denominator) = (|dual t|, |t|) per k-simplex."""
        cx = self.complex
        if k not in self._primal_volumes:
            prim = np.empty(cx.num(k))
            for rows in geometry.row_blocks(cx.num(k), k + 1):
                prim[rows] = geometry.unsigned_volume(cx.coords_of(k, rows))
            prim.setflags(write=False)
            self._primal_volumes[k] = prim
        return self.volumes[k], self._primal_volumes[k]


def build_dual(cx: SimplicialComplex) -> DualComplex:
    """Construct the circumcentric dual of an (at least weakly) well-centered complex."""
    n = cx.dim
    # only lam's signs (a NaN counts as negative) and row minima outlive a block
    centers, inside, lam_min = [cx.vertices], [None], [None]
    for k in range(1, n + 1):
        centers.append(np.empty((cx.num(k), n)))
        inside.append(np.empty((cx.num(k), k + 1), dtype=bool))
        lam_min.append(np.empty(cx.num(k)))
        for rows in geometry.row_blocks(cx.num(k), k + 1):
            centers[k][rows], lam = geometry.circumcenter(cx.coords_of(k, rows), check=True)
            inside[k][rows], lam_min[k][rows] = lam >= 0, lam.min(axis=1)

    # |dual t| = 1/(n-k) * sum over cofaces T of s(t,T) |c(T) - c(t)| |dual T|
    volumes: list[np.ndarray] = [None] * n + [np.ones(cx.num(n))]  # type: ignore[list-item]
    for k in range(n - 1, -1, -1):
        if lam_min[k + 1].min() < -geometry.WELL_CENTERED_TOL:
            i = int(np.argmin(lam_min[k + 1]))
            raise WellCenteredError(
                f"complex is not well-centered: circumcenter of {k + 1}-simplex "
                f"{ids(cx.simplices[k + 1][i])} lies outside it")
        # pair T*(k+2) + i joins T to its face t = faces[k+1][T, i], which drops
        # vertex i of T; s(t,T) is the sign of lam[T, i], 0 counting as +1
        t = cx.faces[k + 1].ravel()
        steps = np.empty(len(t))
        for rows in geometry.row_blocks(cx.num(k + 1), k + 2):
            pairs = slice(rows.start * (k + 2), rows.stop * (k + 2))
            u = np.repeat(centers[k + 1][rows], k + 2, axis=0) - centers[k][t[pairs]]
            # np.linalg.norm's sums, column by column, faster
            norm = np.sqrt(sum(c * c for c in u.T))
            steps[pairs] = (np.where(inside[k + 1][rows].ravel(), norm, -norm)
                            * np.repeat(volumes[k + 1][rows], k + 2))
        volumes[k] = np.bincount(t, weights=steps, minlength=cx.num(k)) / (n - k)
    return DualComplex(cx, centers, volumes)


def _fragments(cx: SimplicialComplex, k: int):
    """Every flag t_k < ... < t_n of the k-simplex duals: (chain, sign).

    One walk down from the top cells: drop[:, c] is the position, among the
    sorted vertices of chain[:, c+1], of the vertex its face chain[:, c] drops.
    """
    n = cx.dim
    chain = np.arange(cx.num(n), dtype=np.int32)[:, None]
    drop = np.empty((cx.num(n), 0), dtype=np.int8)
    for j in range(n, k, -1):
        f = cx.faces[j][chain[:, 0]]           # (m, j+1) faces of the bottom simplex
        chain = np.hstack([f.reshape(-1, 1), np.repeat(chain, j + 1, axis=0)])
        drop = np.hstack([np.tile(np.arange(j + 1, dtype=np.int8), len(f))[:, None],
                          np.repeat(drop, j + 1, axis=0)])
    # moving the vertex dropped at position i of t_j to the back takes j - i
    # swaps; every count here is at most n(n+1)/2, so int8 holds it
    swaps = (np.arange(k + 1, n + 1, dtype=np.int8) - drop).sum(axis=1, dtype=np.int8)
    sign = 1 - 2 * (swaps % 2)
    sign *= cx.orientation[n][chain[:, -1]]
    sign *= cx.orientation[k][chain[:, 0]]
    return chain, sign
