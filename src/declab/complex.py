"""Simplicial n-complexes in R^n: construction, orientation, incidence, boundary.

Storage convention: every simplex is keyed by its sorted vertex tuple, with a
separate +-1 orientation sign.  Top-dimensional cells get the sign that makes
their ambient signed volume positive; lower simplices keep sign +1 (the sorted
order itself is the stored orientation).  Relative orientations then reduce to
an alternating-sign parity check, and boundary-of-boundary vanishes in exact
integer arithmetic.

The lattice is stored compactly: simplex rows and face ids are int32 and the
orientation signs int8.  So every vertex and simplex count must stay below
2**31, which ``build_complex`` checks; the studies' default cap of 2M unknowns
keeps every count far below it.  Arithmetic on these arrays widens as it
needs: ``_pack`` forms its int64 keys from int64 columns, and
``boundary_matrix`` has int64 entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product

import numpy as np
import scipy.sparse as sp

from . import geometry
from .errors import DegenerateSimplexError, MeshError, NonConformingError, ids

DEGENERATE_REL_TOL = 1e-12


def _packing(rows: np.ndarray) -> tuple[int, int] | None:
    """(lo, base) under which every row packs into one int64 key.

    The key of a row r is sum_j (r[j] - lo) * base**(w-1-j), so keys sort in
    the lexicographic order of the rows.  None when base**w would pass 2**62.
    """
    lo = int(rows.min())
    base = int(rows.max()) - lo + 1
    return (lo, base) if base ** rows.shape[1] < 2 ** 62 else None


def _pack(rows: np.ndarray, lo: int, base: int) -> np.ndarray:
    # in place on int64 keys: int32 rows would wrap in the products
    keys = rows[:, 0].astype(np.int64)
    keys -= lo
    for j in range(1, rows.shape[1]):
        keys *= base
        keys += rows[:, j]
        keys -= lo
    return keys


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same result as ``np.unique(rows, axis=0, return_inverse=True)`` for integer rows.

    The unique rows keep the dtype of ``rows`` and the inverse is int64.  Sorts
    packed int64 keys, or lexsorts the columns when keys would overflow.
    """
    rows = np.asarray(rows)
    m = len(rows)
    if m == 0:
        return rows.copy(), np.empty(0, dtype=np.int64)
    new = np.empty(m, dtype=bool)
    new[0] = True
    packing = _packing(rows)
    if packing is not None:
        keys = _pack(rows, *packing)
        perm = np.argsort(keys)
        keys = keys[perm]
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
    else:
        perm = np.lexsort(rows.T[::-1])
        srt = rows[perm]
        np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    inv = np.empty(m, dtype=np.int64)
    inv[perm] = np.cumsum(new) - 1
    return rows[perm[new]], inv


def _row_lookup(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Indices of query rows inside a table of unique rows; -1 if absent."""
    # ids of the rows of table and queries together; table rows are unique
    _, inv = _unique_rows(np.concatenate([table, queries]))
    pos = -np.ones(len(table) + len(queries), dtype=np.int64)
    pos[inv[:len(table)]] = np.arange(len(table))
    return pos[inv[len(table):]]


@dataclass
class ShapeReport:
    h: float
    gamma_min: float
    c_reg: float
    star_bound: int
    well_centered: str  # "strict" | "weak" | "violated"


class SimplicialComplex:
    """The face lattice; ``faces[1]``, whatever is given, is the view ``simplices[1][:, ::-1]``."""
    def __init__(self, dim: int, vertices: np.ndarray, simplices: list[np.ndarray],
                 orientation: list[np.ndarray], faces: list[np.ndarray | None],
                 children: list[np.ndarray] | None = None):
        self.dim = dim
        self.vertices = vertices
        self.simplices = simplices      # simplices[k]: (N_k, k+1) int32 sorted rows, lexsorted
        self.orientation = orientation  # orientation[k]: (N_k,) int8 in {-1, +1}
        # faces[k][s, i] = int32 index of the (k-1)-face dropping vertex position i
        self.faces = [None, simplices[1][:, ::-1], *faces[2:]]
        # children[k][s, slot]: the k-simplices a red refinement cut from
        # coarse k-simplex s (generators.refine), None otherwise; a user done
        # with it may let it go
        self.children = children
        self._boundary_masks: list[np.ndarray] | None = None
        self.boundary_labels: dict[tuple, str] = {}
        # read-only, so a complex on moved vertices can share the lattice
        for arr in chain(self.simplices, self.orientation, self.faces[1:]):
            arr.setflags(write=False)
        self.vertices.setflags(write=False)

    # -- basic queries ------------------------------------------------------

    def num(self, k: int) -> int:
        return len(self.simplices[k])

    def coords_of(self, k: int, idx) -> np.ndarray:
        """Vertex coordinates of the k-simplices ``idx`` (rows, a slice or a
        mask), shape (m, k+1, n).

        Gathered vertex-major, as a view of a (k+1, m, n) array: each
        ``coords[:, i]`` is one contiguous (m, n) block, so the kernels'
        passes over vertex i, and ``geometry.edge_matrix``, run over
        contiguous memory (``geometry``'s column rule)."""
        # take gathers whole rows several times faster than the fancy index
        return np.take(self.vertices, self.simplices[k][idx].T, axis=0).transpose(1, 0, 2)

    def index_of(self, k: int, rows) -> np.ndarray:
        rows = np.sort(np.atleast_2d(np.asarray(rows, dtype=np.int64)), axis=1)
        return _row_lookup(self.simplices[k], rows)

    def cofaces(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, coface_indices) of (k+1)-cofaces per k-simplex."""
        if k >= self.dim:
            raise ValueError("no cofaces above top dimension")
        f = self.faces[k + 1]  # (N_{k+1}, k+2)
        src = f.ravel()
        cof = np.repeat(np.arange(len(f), dtype=np.int64), f.shape[1])
        order = np.argsort(src, kind="stable")
        return np.searchsorted(src[order], np.arange(self.num(k) + 1)), cof[order]

    # -- boundary operator --------------------------------------------------

    def boundary_matrix(self, k: int) -> sp.csr_matrix:
        """Signed incidence C_k -> C_{k-1}: entry (face, cell) in {-1, 0, +1}."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"boundary_matrix defined for 1 <= k <= {self.dim}, got {k}")
        nk, kp1 = self.simplices[k].shape
        cells = np.repeat(np.arange(nk, dtype=np.int64), kp1)
        fidx = self.faces[k].ravel()
        alt = np.tile(np.array([(-1) ** i for i in range(kp1)], dtype=np.int64), nk)
        vals = alt * np.repeat(self.orientation[k], kp1) * self.orientation[k - 1][fidx]
        return sp.coo_matrix((vals, (fidx, cells)),
                             shape=(self.num(k - 1), nk), dtype=np.int64).tocsr()

    # -- boundary of the underlying polytope ----------------------------------

    def boundary_face_indices(self) -> np.ndarray:
        """(n-1)-simplices with exactly one top coface."""
        # a count, not the coface table: studies ask for the interior of each
        # level before its dual is built, and the table would outlive that peak
        counts = np.bincount(self.faces[self.dim].ravel(), minlength=self.num(self.dim - 1))
        return np.flatnonzero(counts == 1).astype(np.int64)

    def boundary_mask(self, k: int) -> np.ndarray:
        """True where the k-simplex lies in the domain boundary; read-only, cached.

        One walk down from the boundary faces marks their faces, degree by degree.
        """
        if self._boundary_masks is None:
            n = self.dim
            masks = [np.zeros(self.num(j), dtype=bool) for j in range(n + 1)]
            masks[n - 1][self.boundary_face_indices()] = True
            for j in range(n - 1, 0, -1):
                masks[j - 1][self.faces[j][masks[j]].ravel()] = True
            for mask in masks:
                mask.setflags(write=False)
            self._boundary_masks = masks
        return self._boundary_masks[k]

    def boundary_vertex_mask(self) -> np.ndarray:
        return self.boundary_mask(0)

    def interior_vertex_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask(0))

    # -- audits ----------------------------------------------------------------

    def shape_report(self) -> ShapeReport:
        n = self.dim
        h = 0.0
        gamma_min = np.inf
        c_reg = 0.0
        lam_min = np.inf  # smallest barycentric coordinate of any circumcenter
        # max and min do not depend on the order of the rows, so the blocks
        # change no bit of the report
        for k in range(1, n + 1):
            for rows in geometry.row_blocks(self.num(k), k + 1):
                coords = self.coords_of(k, rows)
                diam = geometry.diameter(coords)
                rho = geometry.inradius(coords)
                h = max(h, float(diam.max()))
                gamma_min = min(gamma_min, float(rho.min()))
                c_reg = max(c_reg, float((diam / rho).max()))
                lam_min = min(lam_min, float(geometry.circumcenter(coords, check=False)[1].min()))
        tol = geometry.WELL_CENTERED_TOL
        # max top-cell count over closed stars; vertices attain the maximum
        # over base simplices of every dimension
        star_bound = int(np.bincount(self.simplices[n].ravel(),
                                     minlength=self.num(0)).max())
        return ShapeReport(
            h=h, gamma_min=gamma_min, c_reg=c_reg, star_bound=star_bound,
            well_centered="violated" if lam_min < -tol else "weak" if lam_min <= tol else "strict",
        )


def build_complex(dim: int, vertex_coords, top_cells, validate: bool = True) -> SimplicialComplex:
    """Assemble the full face lattice from top-dimensional cells.

    Cells are reoriented so each carries positive ambient signed volume.
    ``validate`` runs the conformity audit (degenerate cells are always
    rejected), in numpy alone: two vertices within ``1e-9 h`` of each other
    and a vertex lying inside a non-incident cell both raise
    ``NonConformingError``.  The message names the smallest coincident pair
    (i, j), i < j, or else the first such cell in cell order.
    """
    # a copy: the complex freezes its vertices and must not freeze the caller's
    vertices = np.array(vertex_coords, dtype=float, order="C", ndmin=2)
    cells = np.atleast_2d(np.asarray(top_cells, dtype=np.int64))
    if vertices.shape[1] != dim:
        raise MeshError(f"vertex coordinates must be {dim}-dimensional")
    if cells.shape[1] != dim + 1:
        raise MeshError(f"top cells need {dim + 1} vertices")
    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise MeshError("cell vertex index out of range")
    # a top cell has at most C(dim+1, k+1) <= 2**dim faces of each degree k
    if max(len(vertices), len(cells) << dim) >= 2 ** 31:
        raise MeshError("mesh too large: the face lattice holds int32 ids below 2**31")

    cells = np.sort(cells.astype(np.int32), axis=1)
    top, place = _unique_rows(cells)
    if len(top) != len(cells):
        first = np.full(len(top), len(cells))
        np.minimum.at(first, place, np.arange(len(cells)))
        i = int(np.flatnonzero(first[place] != np.arange(len(cells)))[0])
        raise NonConformingError(
            f"duplicate cell {ids(cells[i])} at positions {first[place[i]]} and {i}")
    signs = cell_orientation(vertices, cells)

    simplices: list[np.ndarray] = [None] * (dim + 1)  # type: ignore[list-item]
    faces: list[np.ndarray | None] = [None] * (dim + 1)
    simplices[dim] = top
    for k in range(dim, 0, -1):
        rows = simplices[k]
        kp1 = k + 1
        sub = np.empty((len(rows) * kp1, k), dtype=np.int32)
        for i in range(kp1):
            keep = [j for j in range(kp1) if j != i]
            sub[i::kp1] = rows[:, keep]
        simplices[k - 1], inv = _unique_rows(sub)
        faces[k] = inv.reshape(len(rows), kp1).astype(np.int32) if k > 1 else None
    if len(simplices[0]) != len(vertices):
        raise MeshError("isolated vertices: every vertex must belong to a cell")

    orientation = [np.ones(len(rows), dtype=np.int8) for rows in simplices]
    # cells are unique, so place[i] is the lexsorted position of input cell i
    orientation[dim][place] = signs

    cx = SimplicialComplex(dim, vertices, simplices, orientation, faces)
    if validate:
        _audit_conformity(cx)
    return cx


def cell_orientation(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Sign of each top cell's signed volume; raises on a (relatively) zero volume.

    Works in ``geometry.row_blocks`` of cells, in order, so the gathered
    corners stay bounded and the first degenerate cell named is the same at
    every block size.  Each block gathers its corners coordinate-major with
    ``np.take``, one contiguous column per coordinate of each corner, which
    ``geometry.signed_volume`` and ``geometry.diameter`` read without a copy.
    """
    signs = np.empty(len(cells), dtype=np.int8)
    columns = np.ascontiguousarray(vertices.T)     # (n, N_0)
    for rows in geometry.row_blocks(len(cells), cells.shape[1]):
        block = cells[rows]
        coords = np.take(columns, block.T, axis=1).T   # (b, n+1, n), coordinate-major
        svol = geometry.signed_volume(coords)
        scale = geometry.diameter(coords) ** (cells.shape[1] - 1)
        degenerate = np.abs(svol) <= DEGENERATE_REL_TOL * np.maximum(scale, 1e-300)
        if degenerate.any():
            i = int(np.argmax(degenerate))
            raise DegenerateSimplexError(
                f"degenerate cell {ids(block[i])}: signed volume {svol[i]:.3e}")
        signs[rows] = np.where(svol > 0, 1, -1)
    return signs


def _audit_conformity(cx: SimplicialComplex) -> None:
    """Raise ``NonConformingError`` on coincident vertices or a vertex inside a
    cell it is not a vertex of.

    Vertices i < j coincide when their squared distance is at most ``tol**2``,
    with ``tol = 1e-9 h``.  Each cell's ball, about its centroid and through
    its farthest vertex, grown by ``tol``, goes through ``_ball_members``.  It
    holds every vertex inside the cell and every vertex within ``tol`` of one
    of the cell's own, so one pass finds both faults; two vertices of one cell
    are an edge, and the edges are checked for a length of ``tol`` or less on
    their own.  Every pass runs in blocks, so the gathers stay bounded.  All
    blocks are scanned before anything is raised: the smallest coincident pair
    (i, j) is named first, otherwise the first containment in cell order, and
    the message is the same at every block size.
    """
    verts = cx.vertices
    n = cx.dim
    cells = cx.simplices[n]
    edges = cx.simplices[1]

    # h is the longest edge, and the same squares find an edge within tol
    length2 = np.empty(len(edges))
    for rows in geometry.row_blocks(len(edges), 2):
        length2[rows] = geometry.squared_norms(np.take(verts, edges[rows, 1], axis=0)
                                               - np.take(verts, edges[rows, 0], axis=0))
    h = math.sqrt(float(length2.max()))
    tol = 1e-9 * max(h, 1e-300)
    short = np.flatnonzero(length2 <= tol * tol)
    del length2
    # edges are lexsorted, so the first short one is the smallest such pair
    coincide = tuple(int(v) for v in edges[short[0]]) if len(short) else None

    centers = np.empty((len(cells), n))
    reach = np.empty(len(cells))
    for rows in geometry.row_blocks(len(cells), n + 1):
        _centroid_ball(cx.coords_of(n, rows), centers[rows], reach[rows])
    reach += tol

    inside_first = None
    for rows, ball, point in _ball_members(verts, centers, reach):
        # a cell's own n+1 vertices lie in its ball (tol is far above the
        # rounding of the distances), so only a ball holding more can hold a
        # foreign vertex
        count = np.bincount(ball - rows.start, minlength=rows.stop - rows.start)
        busy = np.repeat(count > n + 1, count)
        ball, point = ball[busy], point[busy]
        own = cells[ball]
        foreign = (own != point[:, None]).all(axis=1)
        ball, point, own = ball[foreign], point[foreign], own[foreign]
        if not len(ball):
            continue
        corners = np.take(verts, own, axis=0)
        near = geometry.squared_norms(corners - verts[point][:, None, :]) <= tol * tol
        if near.any():
            k, i = np.nonzero(near)
            lo, hi = np.minimum(own[k, i], point[k]), np.maximum(own[k, i], point[k])
            first = np.lexsort((hi, lo))[0]
            pair = (int(lo[first]), int(hi[first]))
            coincide = pair if coincide is None else min(coincide, pair)
        if inside_first is None:
            lam = geometry.barycentric_coordinates(verts[point], corners)
            inside = lam.min(axis=1) > -1e-9
            if inside.any():
                i = int(np.argmax(inside))
                inside_first = (int(point[i]), int(ball[i]))
    if coincide is not None:
        i, j = coincide
        raise NonConformingError(
            f"vertices {i} and {j} coincide within tolerance; cells meeting there "
            "cannot intersect in a common face")
    if inside_first is not None:
        v, t = inside_first
        raise NonConformingError(
            f"vertex {v} lies inside cell {ids(cells[t])}: non-conforming intersection")


def _centroid_ball(coords: np.ndarray, center: np.ndarray, radius: np.ndarray) -> None:
    """Centroids and radii of the balls about them through the farthest
    vertex, of simplices ``coords`` (m, k+1, n), written into the arrays given."""
    np.add(coords[:, 0], coords[:, 1], out=center)
    for i in range(2, coords.shape[1]):
        center += coords[:, i]
    center /= coords.shape[1]
    radius[:] = 0.0
    for i in range(coords.shape[1]):
        np.maximum(radius, geometry.squared_norms(coords[:, i] - center), out=radius)
    np.sqrt(radius, out=radius)


def _ball_members(points: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """The points in each ball: every (ball, point) pair with sum((p - c)**2) <= r**2.

    Yields ``(rows, ball, point)`` for consecutive slices ``rows`` of the
    balls, in order, with the pairs of those balls sorted by ball, then by
    point.  Radii must be positive.

    The bucket ("cell") method for fixed-radius near neighbours (Bentley,
    Stanat & Williams, IPL 6, 1977).  The balls fall into size classes, one per
    factor of 2 in radius, and each class buckets the points on a grid whose
    side is the class's largest radius, so a ball's points lie in the 3**n
    buckets around its centre.  A graded mesh's balls then scan buckets of
    about their own size, and the work stays near-linear in the balls and
    points.  Bucket rows are packed into int64 keys (``_packing``), where three
    buckets in a line along the last axis are three consecutive keys; where
    keys would overflow, each bucket is looked up by ``_row_lookup``.  The
    slices hold about ``geometry.BLOCK_NODES // 3**n`` candidate pairs each, or
    one ball, so the transient memory stays bounded.
    """
    m, n = centers.shape
    offsets = np.array(list(product((-1, 0, 1), repeat=n)))
    exponent = np.frexp(radii)[1]
    classes = np.unique(exponent)
    origin = np.minimum(points.min(axis=0), centers.min(axis=0))
    extent = float((np.maximum(points.max(axis=0), centers.max(axis=0)) - origin).max())

    grids, orders = [], []
    for e in classes:
        # wider than the largest radius by more than the rounding of the
        # distances and of the bucket coordinates (a few units in the last
        # place of the radius and of the extent), so that a point in a ball is
        # never two buckets from its centre; and at most 2**50 buckets across,
        # so the coordinates stay exact in int64
        side = float(radii[exponent == e].max()) * (1 + 2.0 ** -40) + extent * 2.0 ** -50
        # every bucket a ball scans has coordinates in -1 .. extent / side + 1
        top = int(extent / side) + 1
        packing = _packing(np.array([[-1] * n, [top] * n]))
        buckets, inv = _unique_rows(np.floor((points - origin) / side).astype(np.int64))
        # bucket b holds the points first[b]:first[b + 1] of the class's order
        first = np.zeros(len(buckets) + 1, dtype=np.int64)
        np.cumsum(np.bincount(inv, minlength=len(buckets)), out=first[1:])
        orders.append(np.argsort(inv, kind="stable"))
        # the buckets as packed keys, or as rows where keys would overflow
        grids.append((side, packing, first, buckets if packing is None else _pack(buckets, *packing)))
    # every class's point order in one array, class c's from c * len(points)
    perm = np.concatenate(orders)
    del orders, buckets, inv

    def ranges(c, ctr):
        """Start and stop in ``perm`` of the points in the buckets around each centre."""
        side, packing, first, buckets = grids[c]
        home = np.floor((ctr - origin) / side).astype(np.int64)
        first = first + c * len(points)
        if packing is None:
            bucket = _row_lookup(buckets, (home[:, None, :] + offsets).reshape(-1, n))
            bucket = bucket.reshape(len(ctr), -1)
            hit = bucket >= 0
            return np.where(hit, first[bucket], 0), np.where(hit, first[bucket + 1], 0)
        # a packed key is linear in the row, so the offsets add on, and a
        # line's buckets are the keys from its -1 to its +1 offset.  The
        # searches go in key order: numpy's binary search starts from its
        # last result
        key = _pack(home, *packing)
        by_key = np.argsort(key)
        key = key[by_key]
        start = np.empty((len(ctr), len(offsets) // 3), dtype=np.int64)
        stop = np.empty_like(start)
        for j, line in enumerate(_pack(offsets[offsets[:, -1] == 0], 0, packing[1])):
            start[by_key, j] = first[np.searchsorted(buckets, key + (line - 1))]
            stop[by_key, j] = first[np.searchsorted(buckets, key + (line + 1), side="right")]
        return start, stop

    limit = max(1, geometry.BLOCK_NODES // len(offsets))
    for chunk in geometry.row_blocks(m, n * len(offsets)):
        cls = np.searchsorted(classes, exponent[chunk])
        ctr = centers[chunk]
        parts = [(cls == c, *ranges(c, ctr[cls == c])) for c in np.unique(cls)]
        # a class looked up by rows has 3**n ranges a ball, one by keys 3**(n-1)
        width = max(a.shape[1] for _, a, _ in parts)
        start = np.zeros((len(cls), width), dtype=np.int64)
        stop = np.zeros_like(start)
        for sel, lo, hi in parts:
            start[sel, :lo.shape[1]], stop[sel, :hi.shape[1]] = lo, hi
        del parts
        size = stop - start
        del stop
        count = size.sum(axis=1)
        # slices of the chunk holding about `limit` candidates each
        cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // limit)) + 1
        for a, b in zip([0, *cuts], [*cuts, len(count)]):
            lens = size[a:b].ravel()
            # the candidates' positions in perm, range after range
            at = np.repeat(start[a:b].ravel() - (np.cumsum(lens) - lens), lens)
            at += np.arange(len(at))
            point = perm[at]
            del at
            d2 = geometry.squared_norms(np.take(points, point, axis=0)
                                        - np.repeat(ctr[a:b], count[a:b], axis=0))
            keep = d2 <= np.repeat(radii[chunk][a:b] ** 2, count[a:b])
            del d2
            ball = np.repeat(np.arange(a, b), count[a:b])[keep]
            point = point[keep]
            order = np.argsort(ball * len(points) + point)
            yield slice(chunk.start + a, chunk.start + b), ball[order] + chunk.start, point[order]
