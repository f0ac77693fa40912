"""Oriented circumcentric dual complexes.

The dual of a k-simplex t is assembled from one elementary fragment per full
ascending flag t = t_k < t_{k+1} < ... < t_n through the top cells: the
ordered circumcenter chain [c(t_k), ..., c(t_n)].  Consecutive chain edges are
mutually orthogonal (each circumcenter difference is perpendicular to the
plane of the smaller simplex), so every fragment is an orthoscheme.

Two distinct signs are attached to a fragment:

* ``sign`` -- the chain coefficient orienting the fragment so that an oriented
  frame of the base simplex followed by the fragment's edge chain matches the
  ambient orientation of the top cell.  These are the coefficients of the dual
  cell as an oriented chain and drive all operator sign conventions.
* a side-signed *volume* -- the orthoscheme measure with each chain edge
  signed by whether the larger circumcenter lies on the interior side of the
  smaller simplex's plane.  Summed per base simplex this yields |dual(t)|;
  on (weakly) well-centered meshes every contribution is >= 0, degenerate
  flags contributing exactly 0.  Off-centered circumcenters would cancel,
  which is why such meshes are refused up front.

Boundary dual cells are truncated at the domain boundary: fragments only run
through existing flags, no mirroring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry
from .complex import SimplicialComplex
from .errors import WellCenteredError


@dataclass(frozen=True)
class DualFragment:
    chain: tuple[int, ...]  # simplex indices at dimensions k, k+1, ..., n
    sign: int               # orientation coefficient in the dual chain
    volume: float           # side-signed orthoscheme measure


@dataclass(frozen=True)
class DualCell:
    degree: int             # dimension k of the base simplex
    base: int               # index of the base simplex
    volume: float           # |dual cell|, the (n-k)-dimensional measure
    is_boundary: bool
    fragments: tuple[DualFragment, ...]


class DualComplex:
    def __init__(self, cx: SimplicialComplex, circumcenters, volumes, flags):
        self.complex = cx
        self.circumcenters = circumcenters  # circumcenters[k]: (N_k, n)
        self.volumes = volumes              # volumes[k]: (N_k,) dual volumes
        self._flags = flags                 # per k: (chain, sign, vol) arrays or None
        self._boundary_masks: list[np.ndarray] | None = None
        self._primal_volumes: dict[int, np.ndarray] = {}
        for arr in (*circumcenters, *volumes):
            arr.setflags(write=False)

    def boundary_mask(self, k: int) -> np.ndarray:
        """True where the base k-simplex lies in the domain boundary."""
        if self._boundary_masks is None:
            cx = self.complex
            n = cx.dim
            masks = [np.zeros(cx.num(j), dtype=bool) for j in range(n + 1)]
            bf = cx.boundary_face_indices()
            if len(bf):
                masks[n - 1][bf] = True
                for j in range(n - 1, 0, -1):
                    hot = np.flatnonzero(masks[j])
                    if len(hot):
                        masks[j - 1][cx.faces[j][hot].ravel()] = True
            self._boundary_masks = masks
        return self._boundary_masks[k]

    def flags(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw flag arrays (chain (M, n-k+1), sign (M,), signed volume (M,))."""
        if self._flags[k] is None:
            raise ValueError("dual complex was built without fragments")
        return self._flags[k]

    def cell(self, k: int, index: int) -> DualCell:
        chain, sign, vol = self.flags(k)
        mine = np.flatnonzero(chain[:, 0] == index)
        frags = tuple(
            DualFragment(tuple(int(x) for x in chain[i]), int(sign[i]), float(vol[i]))
            for i in mine
        )
        return DualCell(k, index, float(self.volumes[k][index]),
                        bool(self.boundary_mask(k)[index]), frags)

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
            if k == 0:
                prim = np.ones(cx.num(0))
            else:
                prim = geometry.unsigned_volume(cx.coords_of(k))
            prim.setflags(write=False)
            self._primal_volumes[k] = prim
        return self.volumes[k], self._primal_volumes[k]


def build_dual(cx: SimplicialComplex, keep_fragments: bool = True) -> DualComplex:
    """Construct the circumcentric dual of an (at least weakly) well-centered complex."""
    from .complex import WELL_CENTERED_TOL

    n = cx.dim
    centers = [cx.vertices]
    for k in range(1, n + 1):
        coords = cx.coords_of(k)
        cc = geometry.circumcenter(coords, check=True)
        if k >= 2:
            lam = geometry.barycentric_coordinates(cc, coords)
            lmin = lam.min(axis=1)
            if (lmin < -WELL_CENTERED_TOL).any():
                i = int(np.argmin(lmin))
                raise WellCenteredError(
                    f"complex is not well-centered: circumcenter of {k}-simplex "
                    f"{tuple(cx.simplices[k][i])} lies outside it")
        centers.append(cc)

    volumes: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    flags: list[tuple | None] = [None] * (n + 1)

    chain = np.arange(cx.num(n), dtype=np.int64)[:, None]
    vsum = [cx.simplices[k].sum(axis=1) for k in range(n + 1)]
    for k in range(n, -1, -1):
        m = len(chain)
        # signed chain-edge lengths, one per step k+j-1 -> k+j
        prev_pts = centers[k][chain[:, 0]]
        prev_sum = vsum[k][chain[:, 0]]
        lens = []
        for j in range(1, n - k + 1):
            pts = centers[k + j][chain[:, j]]
            u = pts - prev_pts
            norm = np.linalg.norm(u, axis=1)
            opp = vsum[k + j][chain[:, j]] - prev_sum
            side = np.einsum("md,md->m", u, cx.vertices[opp] - prev_pts)
            lens.append(np.where(side >= 0, norm, -norm))
            prev_pts = pts
            prev_sum = vsum[k + j][chain[:, j]]
        if lens:
            signed_vol = np.prod(np.stack(lens, axis=1), axis=1) / math.factorial(n - k)
        else:
            signed_vol = np.ones(m)  # dual of a top cell is its circumcenter, volume 1
        volumes[k] = np.bincount(chain[:, 0], weights=signed_vol,
                                 minlength=cx.num(k))
        if keep_fragments:
            flags[k] = (chain, _orientation_signs(cx, centers, chain, k), signed_vol)
        if k > 0:
            first = chain[:, 0]
            f = cx.faces[k][first]           # (m, k+1) faces of the bottom simplex
            width = f.shape[1]
            chain = np.hstack([f.reshape(-1, 1), np.repeat(chain, width, axis=0)])
    return DualComplex(cx, centers, volumes, flags)


def _orientation_signs(cx: SimplicialComplex, centers, chain: np.ndarray, k: int) -> np.ndarray:
    """Chain coefficients: sign of det[base frame | circumcenter chain edges]."""
    n = cx.dim
    m = len(chain)
    mat = np.empty((m, n, n))
    if k > 0:
        base = cx.coords_of(k, chain[:, 0])
        mat[:, :k, :] = base[:, 1:, :] - base[:, :1, :]
    for j in range(1, n - k + 1):
        mat[:, k + j - 1, :] = centers[k + j][chain[:, j]] - centers[k + j - 1][chain[:, j - 1]]
    det = np.linalg.det(mat) * cx.orientation[k][chain[:, 0]]
    return np.where(det >= 0, 1, -1).astype(np.int64)
