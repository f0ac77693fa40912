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
mesh gives the size of every level (``estimate_unknowns``).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

import numpy as np
import scipy.sparse as sp

from . import meshio
from .complex import SimplicialComplex, build_complex, cell_orientation
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


def _red_children(cx: SimplicialComplex, k: int, idx: np.ndarray) -> np.ndarray:
    """The red children of the k-simplices ``idx``, as fine vertex rows in a
    ``(len(idx), children, k+1)`` array.

    Fine vertex ``v < nv`` is coarse vertex ``v`` and ``nv + e`` is the
    midpoint of coarse edge ``e``.
    """
    if k not in _RED:
        raise MeshError(f"no red refinement template for dimension {k}")
    rows = cx.simplices[k][idx]
    # sorted position of each vertex in x+y+z order; the stable sort breaks ties by id
    order = np.argsort(cx.vertices.sum(axis=1)[rows], axis=1, kind="stable")
    fine = {str(i): col for i, col in enumerate(np.take_along_axis(rows, order, axis=1).T)}
    for i, j in combinations(range(k + 1), 2):
        # edge ij: drop the sorted positions of the other vertices from the top, largest first
        rest = np.sort(np.delete(order, [i, j], axis=1), axis=1)
        e = idx
        for d in range(k, 1, -1):
            e = cx.faces[d][e, rest[:, d - 2]]
        fine[f"{i}{j}"] = cx.num(0) + e
    return np.stack([np.stack([fine[v] for v in child.split(",")], axis=1)
                     for child in _RED[k].split()], axis=1)


def refine(cx: SimplicialComplex) -> SimplicialComplex:
    """One red refinement of every top cell; ``h`` halves exactly.

    The children of a labelled boundary face keep its label.
    """
    n = cx.dim
    cells = _red_children(cx, n, np.arange(cx.num(n))).reshape(-1, n + 1)
    edges = cx.simplices[1]
    mids = 0.5 * (cx.vertices[edges[:, 0]] + cx.vertices[edges[:, 1]])
    out = build_complex(n, np.vstack([cx.vertices, mids]), cells, validate=False)
    if cx.boundary_labels:
        faces = _red_children(cx, n - 1, cx.index_of(n - 1, list(cx.boundary_labels)))
        out.boundary_labels = {tuple(row): label for label, children in
                               zip(cx.boundary_labels.values(), np.sort(faces, axis=2).tolist())
                               for row in children}
    return out


def medial_refine(cx: SimplicialComplex) -> SimplicialComplex:
    """``refine``, under its name from when it split triangles only."""
    return refine(cx)


def prolongation(coarse: SimplicialComplex) -> sp.csr_matrix:
    """Linear interpolation of vertex values from ``coarse`` to ``refine(coarse)``.

    A ``(N_0 fine, N_0 coarse)`` matrix, exact: fine vertex ``v < nv`` is coarse
    vertex ``v`` and fine vertex ``nv + e`` the midpoint of coarse edge ``e``.
    """
    nv = coarse.num(0)
    edges = coarse.simplices[1]
    ends = [np.concatenate([np.arange(nv), edges[:, j]]) for j in (0, 1)]
    nf = len(ends[0])
    rows = np.tile(np.arange(nf), 2)
    # a fine vertex that is a coarse vertex gets its two halves summed to 1
    return sp.csr_matrix((np.full(2 * nf, 0.5), (rows, np.concatenate(ends))),
                         shape=(nf, nv))


def interior_prolongation(coarse: SimplicialComplex, fine: SimplicialComplex) -> sp.csr_matrix:
    """``prolongation`` from the interior vertices of ``coarse`` to those of ``fine``.

    Boundary values are fixed, so a correction vanishes there and only the
    interior block of the interpolation acts on it.
    """
    p = prolongation(coarse)[fine.interior_vertex_indices()]
    return p[:, coarse.interior_vertex_indices()]


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
    lengths = np.linalg.norm(cx.vertices[edges[:, 1]] - cx.vertices[edges[:, 0]], axis=1)
    local = np.full(cx.num(0), np.inf)
    np.minimum.at(local, edges[:, 0], lengths)
    np.minimum.at(local, edges[:, 1], lengths)

    rng = np.random.default_rng(seed)
    disp = rng.standard_normal(cx.vertices.shape)
    nrm = np.linalg.norm(disp, axis=1, keepdims=True)
    disp = disp / np.maximum(nrm, 1e-300)
    radii = amplitude * local * rng.random(cx.num(0)) ** (1.0 / cx.dim)
    disp = disp * radii[:, None]
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
