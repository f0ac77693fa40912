"""Mesh family generators and refiners.

Families:

* ``pentagon_wheel(n_gon)`` -- wheel over a regular n-gon, hub at the origin,
  one rim vertex on the +x axis, unit spokes.  Strictly well-centered; the
  initial mesh size is the rim edge length ``(2 - 2 cos(2 pi/n))**0.5``.
* ``corner(alpha)`` -- the same wheel construction restricted to four sectors
  of angle ``alpha/4`` each, leaving a re-entrant corner of interior angle
  ``alpha`` at the hub (which then lies on the boundary).
* ``square(pattern)`` -- unit square, three structured right-triangle
  patterns (1: uniform diagonals, 2: alternating diagonals on a 2x2 base,
  3: criss-cross with cell centers).  Weakly well-centered: circumcenters sit
  on the hypotenuses.
* ``cube_kuhn`` -- unit cube on a 2 x 2 x 2 grid, each cell split into six
  tetrahedra around its main diagonal.  Weakly well-centered.
* ``from_file(path)`` -- arbitrary conforming meshes via the decmesh format.

Level L of every family is its level-0 mesh refined L times.  ``refine`` is one
red refinement by edge midpoints, in 1 to 3 dimensions: each triangle into four,
each tetrahedron into eight, and h halves exactly.  It is self-similar on the
cube: the Kuhn simplices of a grid refine into those of the halved grid.  It is
regular (Freudenthal), so one linear rule on the simplex counts of a level-0
mesh gives the size of every level (``estimate_unknowns``).  It builds the fine
face lattice from the templates, without ``build_complex``, and keeps a
parent -> child map from which ``dualmesh.build_dual`` carries circumcenters.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

import numpy as np
import scipy.sparse as sp

from . import geometry, meshio
from .complex import SimplicialComplex, _pack, _packing, build_complex, cell_orientation
from .errors import InvertedCellError, MeshError

DEFAULT_ALPHA = 8 * math.pi / 5
FAMILIES = ("pentagon_wheel", "square", "corner", "cube_kuhn", "from_file")


@dataclass(frozen=True)
class FamilySpec:
    family: str                      # one of FAMILIES
    level: int = 0
    n_gon: int = 5
    pattern: int = 1
    alpha: float = DEFAULT_ALPHA
    path: str | None = None

    def __post_init__(self):
        if self.level < 0:
            raise MeshError("level must be >= 0")
        if self.family == "pentagon_wheel" and self.n_gon < 5:
            raise MeshError("wheel needs n_gon >= 5 to stay strictly well-centered")
        if self.family == "square" and self.pattern not in (1, 2, 3):
            raise MeshError("square pattern must be 1, 2 or 3")
        if self.family == "corner" and not (math.pi < self.alpha < 2 * math.pi):
            raise MeshError("corner angle must lie in (pi, 2*pi)")
        if self.family == "from_file" and not self.path:
            raise MeshError("from_file requires a path")
        if self.family not in FAMILIES:
            raise MeshError(f"unknown family '{self.family}'")


def generate(spec: FamilySpec) -> SimplicialComplex:
    """The family's level-0 mesh, refined ``spec.level`` times."""
    if spec.family == "pentagon_wheel":
        cx = _wheel(spec.n_gon)
    elif spec.family == "corner":
        cx = _corner(spec.alpha)
    elif spec.family == "square":
        cx = _square(spec.pattern)
    elif spec.family == "cube_kuhn":
        cx = _cube()
    else:
        cx = meshio.load(spec.path)
    for _ in range(spec.level):
        cx = refine(cx)
    return cx


def walk(spec: FamilySpec, levels: int) -> Iterator[SimplicialComplex]:
    """The meshes of levels 0 to ``levels - 1``: ``generate`` at level 0, then ``refine``.

    Each mesh is refined from the one before it, so ``interior_prolongation``
    maps between consecutive meshes.
    """
    cx = None
    for _ in range(levels):
        cx = generate(replace(spec, level=0)) if cx is None else refine(cx)
        yield cx


# Red refinement by edge midpoints (Freudenthal, Ann. Math. 43, 1942; Bey,
# Numer. Math. 85, 2000): the children of a k-simplex with vertices 0..k, where
# "i" names vertex i and "ij" the midpoint of edge ij.  The vertices are taken
# in increasing x+y+z order, ties by id.  In 3D that order makes the children of
# a Kuhn simplex the Kuhn simplices of the halved grid; in lower dimensions the
# children do not depend on it.  Any order refines conformingly: it only picks
# a tetrahedron's interior diagonal, and every face splits into its own children.
_RED = {
    1: "0,01 1,01",
    2: "0,01,02 1,01,12 2,02,12 01,02,12",
    3: "0,01,02,03 01,1,12,13 02,12,2,23 03,13,23,3 "
       "01,02,03,13 01,02,12,13 02,03,13,23 02,12,13,23",
}


def _labels(child: str) -> tuple[tuple[int, ...], ...]:
    """A template child as its vertices, each the parent positions it averages:
    "0,01" -> ((0,), (0, 1))."""
    return tuple(tuple(int(c) for c in v) for v in child.split(","))


_CHILDREN = {0: [((0,),)], **{j: [_labels(c) for c in t.split()] for j, t in _RED.items()}}


def _interior(j: int, k: int) -> list[tuple]:
    """The k-simplices of the red refinement of a j-simplex that lie inside it,
    on none of its proper faces: all its children for k = j, else the k-faces
    of the children that use every parent vertex, each once, in order of
    first appearance."""
    out: list[tuple] = []
    for child in _CHILDREN[j]:
        for face in combinations(child, k + 1):
            if (len({p for v in face for p in v}) == j + 1
                    and set(face) not in map(set, out)):
                out.append(face)
    return out


_INTERIOR = {(j, k): _interior(j, k) for j in _CHILDREN for k in range(j + 1)}


def _home(face: tuple) -> tuple[tuple[int, ...], int]:
    """(U, c): ``face`` of a red child is interior child c of the parent's face
    on the positions U, the smallest one holding it.

    The x+y+z order is one order of all vertices, so the positions of U keep
    their order on that face, and ``face`` reads there with U renumbered 0..m.
    """
    u = sorted({p for v in face for p in v})
    rank = {p: r for r, p in enumerate(u)}
    local = {tuple(rank[p] for p in v) for v in face}
    return tuple(u), list(map(set, _INTERIOR[len(u) - 1, len(face) - 1])).index(local)


def _kept_vertex(child: tuple) -> int | None:
    """The parent position a corner child keeps, None for any other child."""
    kept = [v[0] for v in child if len(v) == 1]
    return kept[0] if kept else None


def _template_sign(child: tuple) -> int:
    """Orientation of ``child``'s vertex order relative to its parent's, from
    the reference simplex 0, e_1, ..., e_n: midpoints are affine, so every
    parent gives the same sign."""
    ref = np.vstack([np.zeros(len(child) - 1), np.eye(len(child) - 1)])
    pts = np.array([ref[list(v)].mean(axis=0) for v in child])
    return 1 if geometry.det(pts[1:] - pts[0]) > 0 else -1


# per child of a top cell: the sign of its template order
_SIGNS = {j: np.array([_template_sign(c) for c in _CHILDREN[j]], dtype=np.int8)
          for j in _RED}

# compare-exchange networks sorting 1 to 4 entries
_NETWORKS = {1: [], 2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 1)],
             4: [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]}


def _sort_table(table: np.ndarray, w: int, sign: np.ndarray | None) -> None:
    """Sort in place the rows that ``table`` holds column-wise: ``table[i]``
    is vertex i of every row, and ``table[w + i]``, if there, the face that
    drops it and moves with it.  Each exchange negates ``sign``, when given.
    Entries of a row are distinct.

    An exchange takes the minimum and maximum of two vertex columns and
    swaps the face columns beside them by xor under an all-ones mask: no
    pass branches on the data, as a masked copy does."""
    n = table.shape[1]
    swap, odd = np.empty(n, dtype=bool), np.zeros(n, dtype=bool)
    mask, scratch = np.empty(n, dtype=table.dtype), np.empty(n, dtype=table.dtype)
    for a, b in _NETWORKS[w]:
        np.greater(table[a], table[b], out=swap)
        odd ^= swap
        np.minimum(table[a], table[b], out=scratch)
        np.maximum(table[a], table[b], out=table[b])
        table[a] = scratch
        np.negative(swap, out=mask, dtype=mask.dtype)  # -1, all bits set, where they swap
        for off in range(w, len(table), w):
            np.bitwise_xor(table[a + off], table[b + off], out=scratch)
            scratch &= mask
            table[a + off] ^= scratch
            table[b + off] ^= scratch
    if sign is not None:
        np.negative(sign, out=sign, where=odd)


def _local_faces(cx: SimplicialComplex, j: int) -> tuple[np.ndarray, dict]:
    """Per j-simplex: the sorted positions of its vertices in increasing x+y+z
    order, ties by id, and the index of each of its faces, keyed by the
    positions in that order of the face's vertices (a vertex's index is its id)."""
    rows = cx.simplices[j]
    # the stable sort breaks ties by id, so this is one order of all vertices
    order = np.argsort(np.take(cx.vertices.sum(axis=1), rows), axis=1, kind="stable")
    cols = np.ascontiguousarray(order.T)
    index = {}
    for size in range(1, j + 2):
        for u in combinations(range(j + 1), size):
            # drop the other vertices' sorted positions from the top, largest first
            e = np.arange(len(rows), dtype=np.int32)
            if size <= j:
                drop = _sorted_columns([cols[p] for p in range(j + 1) if p not in u])
                for c in range(j - size, -1, -1):
                    e = cx.faces[c + size][e, drop[c]]
            index[u] = e
    return order, index


def _sorted_columns(cols: list[np.ndarray]) -> list[np.ndarray]:
    """The rows that ``cols`` holds column-wise, sorted by ``_NETWORKS``."""
    cols = list(cols)
    for a, b in _NETWORKS[len(cols)]:
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    return cols


def refine(cx: SimplicialComplex) -> SimplicialComplex:
    """One red refinement of every top cell; ``h`` halves exactly.

    The fine lattice comes from the templates, without ``build_complex``.
    Fine vertex ``v < nv`` is coarse vertex ``v`` and ``nv + e`` the midpoint
    of coarse edge ``e``.  Each fine k-simplex is made once, as an interior
    child of the coarse simplex holding it, and written column by column into
    one int32 table of its degree, its faces beside its vertices: a child's
    faces are children of its parent's faces or interior children of the
    parent, so the templates name them, and the sort of the degree below
    places them.  A sort network orders each row in place, its faces moving
    with its vertices; one packed-key sort of the rows then gives
    ``build_complex``'s lexsorted lattice with no deduplication.  A top
    cell's orientation is its parent's, times its template's sign and the
    parity of sorting its row.

    The result keeps its parent -> child map: ``children[k][s, slot]`` is the
    fine index of a child of coarse k-simplex ``s``.  Slots 0..k are the
    corner children, each the parent scaled by 1/2 about its vertex at that
    sorted position; slot 3 of a triangle is its middle child, the parent
    scaled by -1/2 about its centroid; slots 4..7 of a tetrahedron are its
    octahedron's.  The children of a labelled boundary face keep its label.
    """
    n = cx.dim
    if n not in _RED:
        raise MeshError(f"no red refinement template for dimension {n}")
    if (cx.num(n) << n) << n >= 2 ** 31:
        raise MeshError("mesh too large: the face lattice holds int32 ids below 2**31")
    nv = cx.num(0)
    counts = [cx.num(j) for j in range(n + 1)]
    local = [_local_faces(cx, j) for j in range(n + 1)]
    # generated row of interior child c of coarse j-simplex s, of degree k:
    # start[k][j] + c N_j + s
    start = [{} for _ in range(n + 1)]
    sizes = []
    for k in range(n + 1):
        total = 0
        for j in range(k, n + 1):
            start[k][j] = total
            total += len(_INTERIOR[j, k]) * counts[j]
        sizes.append(total)
    # the kept arrays first, below the temporaries in the heap
    edges = cx.simplices[1]
    vertices = np.empty((nv + counts[1], n))
    vertices[:nv] = cx.vertices
    vertices[nv:] = 0.5 * (cx.vertices[edges[:, 0]] + cx.vertices[edges[:, 1]])
    simplices = [np.empty((m, k + 1), dtype=np.int32) for k, m in enumerate(sizes)]
    faces = [np.empty((m, k + 1), dtype=np.int32) if k > 1 else None for k, m in enumerate(sizes)]
    orientation = [np.ones(m, dtype=np.int8) for m in sizes]
    children = [np.empty((counts[k], len(_CHILDREN[k])), dtype=np.int32) for k in range(n + 1)]
    # the parity of each top cell's x+y+z order against its sorted order
    odd_order = np.zeros(counts[n], dtype=bool)
    for a, b in combinations(range(n + 1), 2):
        odd_order ^= local[n][0][:, a] > local[n][0][:, b]
    labels = {}
    place = None  # sorted position of each generated row of the degree done last
    for k in range(n + 1):
        below, w = place, k + 1
        # table[i, r]: vertex i of generated row r, then, above degree 1, the
        # sorted position of its face dropping that vertex
        table = np.empty((2 * w if k > 1 else w, sizes[k]), dtype=np.int32)
        sign = np.empty(sizes[k], dtype=np.int8) if k == n else None
        slots, corners = [], 0
        for j in range(k, n + 1):
            order, index = local[j]
            for c, child in enumerate(_INTERIOR[j, k]):
                rows = slice(start[k][j] + c * counts[j], start[k][j] + (c + 1) * counts[j])
                for i, v in enumerate(child):
                    table[i, rows] = index[v] if len(v) == 1 else nv + index[v]
                for t in range(w if k > 1 else 0):
                    u, c2 = _home(child[:t] + child[t + 1:])
                    table[w + t, rows] = below[start[k - 1][len(u) - 1]
                                               + c2 * counts[len(u) - 1] + index[u]]
                if j > k:
                    continue
                # the corner children by the sorted position of their vertex,
                # then the others in template order
                kept = _kept_vertex(child)
                if kept is None:
                    slots.append(k + 1 + len(slots) - corners)
                else:
                    slots.append(order[:, kept])
                    corners += 1
                if k == n:
                    sign[rows] = np.where(odd_order, -1, 1) * _SIGNS[n][c] * cx.orientation[n]
        _sort_table(table, w, sign)
        # the rows are distinct: one sort of their packed keys orders them
        packing = _packing(table[:w].T)
        perm = (np.argsort(_pack(table[:w].T, *packing)) if packing is not None
                else np.lexsort(table[w - 1::-1]))
        for i in range(w):
            simplices[k][:, i] = table[i][perm]
            if k > 1:
                faces[k][:, i] = table[w + i][perm]
        del table
        if k == n:
            np.take(sign, perm, out=orientation[n])
        place = np.empty(len(perm), dtype=np.int32)
        place[perm] = np.arange(len(perm), dtype=np.int32)
        del perm
        # the children of coarse k-simplex s come first, generated c N_k + s
        for c, slot in enumerate(slots):
            children[k][np.arange(counts[k]), slot] = place[c * counts[k]:(c + 1) * counts[k]]
        if k == n - 1 and cx.boundary_labels:
            # a labelled face's children are its first rows, child-major
            idx = cx.index_of(k, list(cx.boundary_labels))
            kids = place[np.arange(len(_CHILDREN[k]))[:, None] * counts[k] + idx].T
            labels = {tuple(row): label for label, rows in
                      zip(cx.boundary_labels.values(), simplices[k][kids].tolist())
                      for row in rows}
    out = SimplicialComplex(n, vertices, simplices, orientation, faces, children)
    out.boundary_labels = labels
    return out


def medial_refine(cx: SimplicialComplex) -> SimplicialComplex:
    """``refine``, under its name from when it split triangles only."""
    return refine(cx)


def interior_prolongation(coarse: SimplicialComplex, fine: SimplicialComplex) -> sp.csr_matrix:
    """Linear interpolation of interior vertex values from ``coarse`` to
    ``fine = refine(coarse)``, a ``(interior fine, interior coarse)`` CSR matrix.

    Boundary values are fixed, so a correction vanishes there and only the
    interior block of the interpolation acts on it.  Fine vertex ``v < nv`` is
    coarse vertex ``v``, weight 1; fine vertex ``nv + e`` is the midpoint of
    coarse edge ``e = (a, b)``, weight 1/2 at each of its interior ends.  A
    midpoint whose ends both lie on the boundary (a chord of the domain) has
    an empty row.  Built row by row in fine vertex order, with no full
    interpolation formed; its columns come out sorted, as a < b.
    """
    nv = coarse.num(0)
    interior = coarse.interior_vertex_indices()
    cols = np.full(nv, -1, dtype=np.int32)     # column of each coarse vertex, -1 on the boundary
    cols[interior] = np.arange(len(interior), dtype=np.int32)
    rows = fine.interior_vertex_indices()
    split = int(np.searchsorted(rows, nv))     # the fine vertices that are coarse vertices
    own = np.take(cols, rows[:split])
    ends = np.take(cols, np.take(coarse.simplices[1], rows[split:] - nv, axis=0))
    own_in, ends_in = own >= 0, ends >= 0
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(np.concatenate([own_in, ends_in.sum(axis=1)]), out=indptr[1:])
    data = np.full(indptr[-1], 0.5)
    data[:np.count_nonzero(own_in)] = 1.0
    return sp.csr_matrix((data, np.concatenate([own[own_in], ends[ends_in]]), indptr),
                         shape=(len(rows), len(interior)))


# -- builders -----------------------------------------------------------------


def _wheel_points(count: int, step: float) -> np.ndarray:
    ang = step * np.arange(count)
    rim = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return np.vstack([[0.0, 0.0], rim])


def _wheel(n: int) -> SimplicialComplex:
    verts = _wheel_points(n, 2 * math.pi / n)
    cells = [(0, 1 + j, 1 + (j + 1) % n) for j in range(n)]
    return build_complex(2, verts, cells, validate=False)


def _corner(alpha: float) -> SimplicialComplex:
    verts = _wheel_points(5, alpha / 4)
    cells = [(0, 1 + j, 2 + j) for j in range(4)]
    cx = build_complex(2, verts, cells, validate=False)
    _label_slit(cx, alpha)  # refinement hands the labels down
    return cx


def _label_slit(cx: SimplicialComplex, alpha: float) -> None:
    """Mark boundary edges lying on the two slit rays with label 'gamma'."""
    labels: dict[tuple, str] = {}
    ray = np.array([math.cos(alpha), math.sin(alpha)])
    for e in cx.boundary_face_indices():
        pa, pb = cx.coords_of(1, [int(e)])[0]
        tup = tuple(int(v) for v in cx.simplices[1][e])
        on_x = abs(pa[1]) < 1e-12 and abs(pb[1]) < 1e-12 and pa[0] >= -1e-12 and pb[0] >= -1e-12
        cr_a = abs(pa[0] * ray[1] - pa[1] * ray[0]) < 1e-12 and pa @ ray >= -1e-12
        cr_b = abs(pb[0] * ray[1] - pb[1] * ray[0]) < 1e-12 and pb @ ray >= -1e-12
        labels[tup] = "gamma" if (on_x or (cr_a and cr_b)) else "default"
    cx.boundary_labels = labels


def _square(pattern: int) -> SimplicialComplex:
    if pattern in (1, 2):
        m = 1 if pattern == 1 else 2
        xs = np.linspace(0.0, 1.0, m + 1)
        verts = np.array([[x, y] for y in xs for x in xs])
        vid = lambda i, j: j * (m + 1) + i
        cells = []
        for j in range(m):
            for i in range(m):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                if pattern == 1 or (i + j) % 2 == 0:
                    cells += [(a, b, c), (a, c, d)]
                else:
                    cells += [(a, b, d), (b, c, d)]
        return build_complex(2, verts, cells, validate=False)
    # pattern 3: both diagonals, one center vertex per cell
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    cells = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return build_complex(2, np.array(verts, dtype=float), cells, validate=False)


def _cube() -> SimplicialComplex:
    """The unit cube on a 2 x 2 x 2 grid, each cell split into the six Kuhn
    tetrahedra: the paths from its low corner to its high one, an axis per step."""
    grid = np.array(list(product(range(3), repeat=3)))
    steps = np.eye(3, dtype=np.int64)
    cells = [np.cumsum([base, *steps[list(perm)]], axis=0) @ (9, 3, 1)
             for base in grid if base.max() < 2 for perm in permutations(range(3))]
    return build_complex(3, grid / 2, cells, validate=False)


def jitter_interior(cx: SimplicialComplex, amplitude: float = 0.1,
                    seed: int = 0) -> SimplicialComplex:
    """Displace interior vertices by a seeded random fraction of the local edge length.

    Produces a generic (asymmetric) mesh from a structured one while keeping a
    comfortable margin of strict well-centeredness for small amplitudes.  The
    result shares the input's face lattice; a move that turns a cell inside
    out raises ``InvertedCellError``.
    """
    edges = cx.simplices[1]
    vec = np.take(cx.vertices, edges[:, 1], axis=0)
    vec -= np.take(cx.vertices, edges[:, 0], axis=0)
    lengths = np.sqrt(geometry.squared_norms(vec))
    del vec
    local = np.full(cx.num(0), np.inf)
    np.minimum.at(local, edges[:, 0], lengths)
    np.minimum.at(local, edges[:, 1], lengths)

    rng = np.random.default_rng(seed)
    disp = rng.standard_normal(cx.vertices.shape)
    nrm = np.sqrt(geometry.squared_norms(disp))
    disp /= np.maximum(nrm, 1e-300, out=nrm)[:, None]
    radii = amplitude * local * rng.random(cx.num(0)) ** (1.0 / cx.dim)
    disp *= radii[:, None]
    disp[cx.boundary_vertex_mask()] = 0.0

    verts = cx.vertices + disp
    n = cx.dim
    flipped = int((cell_orientation(verts, cx.simplices[n]) != cx.orientation[n]).sum())
    if flipped:
        raise InvertedCellError(
            f"jitter amplitude {amplitude:g} (seed {seed}) inverted {flipped} "
            f"of {cx.num(n)} cells")
    # same cells, same orientation signs: the face lattice carries over
    return SimplicialComplex(n, verts, cx.simplices, cx.orientation, cx.faces)


# Regular refinement (Bey, Computing 55, 1995) of the counts (V, E, F, T): entry
# (i, j) is how many i-simplices it puts inside one j-simplex.
_REFINED_COUNTS = ((1, 1, 0, 0), (0, 2, 3, 1), (0, 0, 4, 8), (0, 0, 0, 8))


def _refined(counts: list[int]) -> list[int]:
    return [sum(r * c for r, c in zip(row, counts)) for row in _REFINED_COUNTS[:len(counts)]]


def estimate_unknowns(cx: SimplicialComplex, level: int) -> int:
    """Interior vertex count of ``cx`` refined ``level`` times, for the study memory guard.

    The rule refines the counts of ``cx`` and, one degree lower, of its boundary.
    """
    counts = [cx.num(k) for k in range(cx.dim + 1)]
    bounds = [int(cx.boundary_mask(k).sum()) for k in range(cx.dim)]
    for _ in range(level):
        counts, bounds = _refined(counts), _refined(bounds)
    return counts[0] - bounds[0]
