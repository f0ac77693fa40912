"""Oriented circumcentric dual complexes.

Dual volumes come from the face-coface pyramid recursion (Hirani 2003; PyDEC,
Bell & Hirani): the dual of a k-simplex t is the union of pyramids with apex
c(t) over the duals of its (k+1)-cofaces T, and c(T) - c(t) is perpendicular
to dual(T), so

    |dual t| = 1/(n-k) * sum_{T > t} s(t,T) |c(T) - c(t)| |dual T|,

with |dual T| = 1 for a top cell.  ``build_dual`` runs it top-down, summing
over the incidence pairs of ``faces[k+1]`` per degree.  The side sign
s(t,T) is +1 when c(T) lies on the side of t's plane that holds the vertex of
T opposite t, else -1: the sign of c(T)'s barycentric coordinate at that
vertex, which ``geometry.circumcenter`` returns with c(T).  On (weakly)
well-centered meshes every term is >= 0, degenerate pairs contributing
exactly 0.  Off-centered circumcenters would cancel, so ``build_dual`` refuses
any simplex whose smallest coordinate is below ``-geometry.WELL_CENTERED_TOL``.

Both kernels of ``build_dual`` work in ``geometry.row_blocks``, blocks of
max(1, geometry.BLOCK_NODES // w) simplices, w points per row: the
circumcenter solve over blocks of k-simplices (w = k+1 vertices), written into
preallocated (N_k, n) centers and (N_k, k+1) signs, and the step lengths
over blocks of (k+1)-cofaces (w = k+2 faces), which ``np.add.at`` adds into
the (N_k,) volumes.  A block's step lengths are formed face-major, one
contiguous row per face position, with no coface center repeated, and go to
``np.add.at`` in pair order.  Every quantity is per row, and the blocks run
in order, so every volume sums its terms in pair order from zero, as one
bincount over all pairs would: the block size changes no bit of the result,
and no array holds one entry per incidence pair.  Of the coordinates only
their signs (bool) outlive a block, for the side signs; the well-centeredness
gate keeps the smallest coordinate of each degree and the first row holding
it.

Not every center is solved.  An edge's is its midpoint, with coordinates
[1/2, 1/2], and no table holds it: ``DualComplex.centers`` takes it from the
edge's ends wherever it is read.  On a mesh refined from one whose dual is at
hand, red refinement fixes more (Freudenthal 1942; Bey 2000): a corner child
is its parent scaled by 1/2 about one vertex v, a triangle's middle child its
parent scaled by -1/2 about the centroid g, and scaling keeps the circumcenter
and its barycentric coordinates, so the child's center is (v + c) / 2 or
(3g - c) / 2 for its parent's center c, and its coordinate signs are its
parent's, in the child's vertex order: it passes the gate as its parent did.
A corner tetrahedron's inner face, the face dropping its vertex v, is the
coarse face opposite v scaled alike, so it is carried too.
``DualComplex.record`` holds what the next level takes: centers and signs of
the triangles and tetrahedra, and in 3D the tetrahedra's faces.  Every
triangle of a refined 2D mesh is carried; in 3D the four triangles inside
each coarse tetrahedron that are no corner child's face, and the four
tetrahedra of its octahedron, are solved, and gated, as before.

Unrolled, the recursion is a sum over full ascending flags
t = t_k < t_{k+1} < ... < t_n through the top cells, one elementary fragment
per flag: the ordered circumcenter chain [c(t_k), ..., c(t_n)].  Consecutive
chain edges are mutually orthogonal, so every fragment is an orthoscheme.
Fragments are only needed to integrate forms over dual cells, so
``fragments(cx, k, cells)`` builds those of one k through one range of top
cells, and ``fields.derham_dual`` asks for them block by block and keeps
none.  A fragment is its chain and one sign, the chain coefficient of the
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

import math
from functools import reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from . import geometry
from .complex import SimplicialComplex
from .errors import WellCenteredError, ids


class DualComplex:
    """``volumes[n]``, of the top cells' point duals, is ``np.broadcast_to(1.0, (N_n,))``."""
    def __init__(self, cx: SimplicialComplex, circumcenters, volumes,
                 record: CenterRecord | None = None):
        self.complex = cx
        # circumcenters[k]: (N_k, n), but None for the edges (``centers``)
        self.circumcenters = circumcenters  # or None, once walk_levels let it go
        self.volumes = volumes              # volumes[k]: (N_k,) dual volumes
        # for build_dual on the refined mesh; a caller that refines no
        # further may let it go
        self.record = record
        for arr in (*circumcenters, *volumes, *(record.inside[2:] if record else ())):
            if arr is not None:
                arr.setflags(write=False)
        self._primal_volumes: dict[int, np.ndarray] = {}

    def centers(self, k: int, index) -> np.ndarray:
        """The circumcenters of the k-simplices ``index`` (rows or a slice), (m, n).

        An edge's center is its midpoint, taken from its ends as refine places
        the fine vertices: no edge table is stored."""
        # np.take gathers rows several times faster than fancy indexing does
        if k != 1:
            return (self.circumcenters[k][index] if isinstance(index, slice)
                    else np.take(self.circumcenters[k], index, axis=0))
        cx, edges = self.complex, self.complex.simplices[1]
        ends = edges[index] if isinstance(index, slice) else np.take(edges, index, axis=0)
        mid = np.take(cx.vertices, ends[:, 0], axis=0)
        mid += np.take(cx.vertices, ends[:, 1], axis=0)
        return np.multiply(mid, 0.5, out=mid)

    def hodge_ratios(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(numerator, denominator) = (|dual t|, |t|) per k-simplex."""
        cx = self.complex
        if k == 0:  # a vertex has volume 1: a read-only view of one float
            return self.volumes[0], np.broadcast_to(1.0, (cx.num(0),))
        if k not in self._primal_volumes:
            prim = np.empty(cx.num(k))
            for rows in geometry.row_blocks(cx.num(k), k + 1):
                prim[rows] = geometry.unsigned_volume(cx.coords_of(k, rows))
            prim.setflags(write=False)
            self._primal_volumes[k] = prim
        return self.volumes[k], self._primal_volumes[k]


class CenterRecord(NamedTuple):
    """Per degree, what a dual hands to the dual of its refinement: the
    circumcenters and the signs of their barycentric coordinates (lam >= 0, a
    NaN counting as negative)."""
    centers: list[np.ndarray]
    inside: list[np.ndarray | None]
    # of a tetrahedral mesh, faces[3]: the face opposite each corner child's vertex
    faces: np.ndarray | None = None


def _pair_centers(cx: SimplicialComplex, centers: list, k: int, rows: slice):
    """(c(T), c(t), t) of the (k+1)-simplices T of ``rows`` and their
    k-faces t: (M, n), (k+2, M, n) and (M, k+2), [i] the face dropping
    vertex i, but for an edge T its vertices in order.  A vertex gets the
    terms of its edges in edge order either way.

    Below k = 2 the centers are vertices and midpoints, taken from the
    vertices of T, gathered once: an edge's midpoint is v_a + v_b halved, as
    ``DualComplex.centers`` forms it."""
    if k >= 2:
        t = cx.faces[k + 1][rows]
        return centers[k + 1][rows], np.take(centers[k], t.T, axis=0), t
    pts = cx.coords_of(k + 1, rows).transpose(1, 0, 2)
    if k == 0:
        return _midpoint(pts[0], pts[1]), pts, cx.simplices[1][rows]
    mids = [_midpoint(pts[1], pts[2]), _midpoint(pts[0], pts[2]), _midpoint(pts[0], pts[1])]
    return centers[2][rows], np.stack(mids), cx.faces[2][rows]


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mid = a + b
    return np.multiply(mid, 0.5, out=mid)


# per carried slot of generators.refine's children table: the parent position
# whose coordinate each sorted position of the child takes.  The corner child
# at parent position p has vertex p first, then the midpoints towards the
# other vertices in their order; the middle child of a triangle a < b < c has
# the midpoints of ab, ac and bc, the images of c, b and a.
_CARRIED = {k: [[p] + [q for q in range(k + 1) if q != p] for p in range(k + 1)]
            + ([[2, 1, 0]] if k == 2 else []) for k in (2, 3)}


def build_dual(cx: SimplicialComplex, coarse: CenterRecord | None = None) -> DualComplex:
    """Construct the circumcentric dual of an (at least weakly) well-centered complex.

    ``coarse`` is the ``record`` of the dual of the mesh that ``cx`` refines
    (``generators.refine``, whose table ``cx.children`` names each parent's
    children).  A child that is its parent scaled by 1/2 about a vertex v (a
    corner child) or by -1/2 about the centroid g (a triangle's middle child)
    then takes the scaled center, (v + c) / 2 or (3g - c) / 2, and its
    parent's coordinates, which the scaling keeps, instead of a solve.  Every
    edge's center is its midpoint, on any mesh.
    """
    n = cx.dim
    if coarse is not None and cx.children is None:
        raise ValueError("a coarse record needs the children table of a refined complex")
    # lowest[k]: (smallest coordinate, first row holding it) of the solved k-simplices
    centers, inside, lowest = [cx.vertices, None], [None, None], [None, None]
    for k in range(2, n + 1):
        center, sign, low = _circumcenters(cx, k, coarse)
        centers.append(center)
        inside.append(sign)
        lowest.append(low)

    # |dual t| = 1/(n-k) * sum over cofaces T of s(t,T) |c(T) - c(t)| |dual T|
    volumes: list = [None] * n + [np.broadcast_to(1.0, (cx.num(n),))]
    for k in range(n - 1, -1, -1):
        # an edge's coordinates are [1/2, 1/2]: it passes the gate, and every
        # side sign of a vertex is +1.  A carried row has its parent's
        # coordinates, which passed it
        if k > 0 and lowest[k + 1][0] < -geometry.WELL_CENTERED_TOL:
            raise WellCenteredError(
                f"complex is not well-centered: circumcenter of {k + 1}-simplex "
                f"{ids(cx.simplices[k + 1][lowest[k + 1][1]])} lies outside it")
        # pair (T, i) joins T to its face t = faces[k+1][T, i], which drops
        # vertex i of T; s(t,T) is the sign of lam[T, i], 0 counting as +1
        volumes[k] = np.zeros(cx.num(k))
        for rows in geometry.row_blocks(cx.num(k + 1), k + 2):
            # step[i]: the pairs (T, i) of the block, one contiguous row per i
            c_top, c_faces, t = _pair_centers(cx, centers, k, rows)
            step = np.sqrt(geometry.squared_norms(c_top - c_faces))
            del c_top, c_faces
            if k > 0:
                np.negative(step, out=step, where=~inside[k + 1][rows].T)
            step *= volumes[k + 1][rows]
            np.add.at(volumes[k], t.ravel(), step.T.ravel())
        volumes[k] /= n - k
    # edges and vertices carry nothing: their centers are midpoints and vertices
    record = CenterRecord(*([None, None] + x[2:] for x in (centers, inside)),
                          cx.faces[3] if n == 3 else None)
    return DualComplex(cx, centers, volumes, record)


def _circumcenters(cx: SimplicialComplex, k: int, coarse: CenterRecord | None):
    """(centers, coordinate signs, (smallest coordinate, first row holding
    it) of the solved rows) of the k-simplices, k >= 2.

    Only lam's signs (a NaN counts as negative) and the running smallest
    coordinate outlive a block, and every temporary dies on return, before
    the step lengths.
    """
    m = cx.num(k)
    centers = np.empty((m, cx.dim))
    inside, low = np.empty((m, k + 1), dtype=bool), (np.inf, -1)
    todo = None  # the rows to solve, all when None
    if coarse is not None and k in _CARRIED:
        todo = np.ones(m, dtype=bool)
        for r, center, sign in _carried(cx, k, coarse):
            _put_rows(centers, r, center)
            _put_rows(inside, r, sign)
            todo[r] = False
        todo = np.flatnonzero(todo)
    for block in geometry.row_blocks(m if todo is None else len(todo), k + 1):
        rows = block if todo is None else todo[block]
        center, lam = geometry.circumcenter(cx.coords_of(k, rows), check=True)
        if todo is None:
            centers[rows], inside[rows] = center, lam >= 0
        else:
            _put_rows(centers, rows, center)
            _put_rows(inside, rows, lam >= 0)
        # the minimum column by column, faster than lam.min(axis=1)
        row_min = reduce(np.minimum, lam.T)
        first = int(np.argmin(row_min))
        if row_min[first] < low[0]:
            low = (row_min[first], block.start + first if todo is None else rows[first])
    return centers, inside, low


def _carried(cx: SimplicialComplex, k: int, coarse: CenterRecord):
    """(rows, centers, coordinate signs) of the carried k-simplices, by
    blocks of parents and one child slot at a time: the children in
    ``_CARRIED``'s slots and, of the triangles of a refined tetrahedral mesh,
    each corner tetrahedron's inner face.

    The corner tetrahedron at vertex p of T is T scaled by 1/2 about v_p, so
    its face dropping p is the face F of T opposite p, scaled alike: its
    center is (v_p + c(F)) / 2, and its vertices are the midpoints of the
    edges (x, p) for the vertices x of F in order (an edge (x, p) with
    x < p sorts before (p, y)), so its coordinate signs are F's.
    """
    kids = cx.children[k]
    for rows in geometry.row_blocks(len(kids), k + 1):
        c = coarse.centers[k][rows]
        for slot, order in enumerate(_CARRIED[k]):
            r = kids[rows, slot]
            if slot <= k:
                # the corner's vertex comes first: it is a coarse vertex,
                # numbered below every midpoint
                center = _apex(cx, k, r) + c
            else:
                pts = cx.coords_of(k, r)
                center = pts[:, 0] + pts[:, 1] + pts[:, 2] - c
            center *= 0.5
            yield r, center, np.take(coarse.inside[k][rows], order, axis=1)
    if k != 2 or coarse.faces is None:
        return
    tets = cx.children[3]
    for rows in geometry.row_blocks(len(tets), 4):
        for p in range(4):
            corner = tets[rows, p]
            opposite = coarse.faces[rows, p]
            center = _apex(cx, 3, corner) + np.take(coarse.centers[2], opposite, axis=0)
            center *= 0.5
            yield (np.take(cx.faces[3], corner, axis=0)[:, 0], center,
                   np.take(coarse.inside[2], opposite, axis=0))


def _put_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``table[rows] = values`` for a C-ordered table, each row moved as one
    item: several times faster than the fancy assignment, which loops over
    the short rows."""
    row = np.dtype((np.void, table.itemsize * table.shape[1]))
    np.put(table.view(row).ravel(), rows,
           np.ascontiguousarray(values, dtype=table.dtype).view(row).ravel())


def _apex(cx: SimplicialComplex, k: int, rows) -> np.ndarray:
    """The coordinates of the first vertex of the k-simplices ``rows``, (m, n)."""
    return np.take(cx.vertices, np.take(cx.simplices[k], rows, axis=0)[:, 0], axis=0)


def fragments(cx: SimplicialComplex, k: int, cells: slice = slice(None)):
    """The fragments of the k-simplex duals through the top cells ``cells``:
    chain (M, n-k+1) int32, the flag t_k < ... < t_n, and sign (M,) int8 of
    +-1, its coefficient in the oriented dual of t_k.

    Each top cell has (n+1)!/(k+1)! flags, and they come top cell by top
    cell, so consecutive ranges of top cells give consecutive runs of the
    whole table.  One walk down from the top cells, each step t_{j-1} < t_j
    dropping each position i = 0..j of t_j's sorted vertices in turn, the
    last step's fastest: each step's simplices, repeated once per flag below
    them, fill one column of a preallocated table.  The table is stored
    column by column, so each column is one contiguous array.
    """
    n = cx.dim
    top = np.arange(*cells.indices(cx.num(n)), dtype=np.int32)
    count = math.factorial(n + 1) // math.factorial(k + 1)   # flags per top cell
    chain = np.empty((n - k + 1, len(top) * count), dtype=np.int32).T
    simplices = top
    for j in range(n, k, -1):
        chain[:, j - k] = np.repeat(simplices, count)
        simplices = cx.faces[j][simplices].ravel()
        count //= j + 1
    chain[:, 0] = simplices
    # every top cell repeats one pattern of dropped positions; moving the
    # vertex at position i of t_j to the back takes j - i swaps
    steps = range(n, k, -1)
    parity = np.array([1 - 2 * (sum(j - i for j, i in zip(steps, drops)) % 2)
                       for drops in product(*(range(j + 1) for j in steps))], dtype=np.int8)
    sign = (cx.orientation[n][cells][:, None] * parity).ravel()
    sign *= np.take(cx.orientation[k], simplices)
    return chain, sign
