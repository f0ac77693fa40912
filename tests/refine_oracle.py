"""The red refinement as it was written before it filled one preallocated
table per degree: per-child row lists, a sort network that allocates new
columns at each compare-exchange, and face rows concatenated, then permuted.
Kept as the oracle that ``generators.refine`` must equal array by array."""
from itertools import combinations

import numpy as np

from declab.complex import SimplicialComplex, _pack, _packing
from declab.errors import MeshError
from declab.generators import _CHILDREN, _INTERIOR, _RED, _SIGNS, _home, _kept_vertex


# compare-exchange networks sorting rows of 1 to 4 entries
_NETWORKS = {1: [], 2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 1)],
             4: [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]}


def _sort_rows(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows given as columns, sorted: (sorted rows, the column each sorted entry
    came from, the parity of that permutation).  Entries of a row are distinct."""
    cols = list(rows)
    src = [np.full(len(cols[0]), i, dtype=np.int8) for i in range(len(cols))]
    odd = np.zeros(len(cols[0]), dtype=bool)
    for a, b in _NETWORKS[len(cols)]:
        swap = cols[a] > cols[b]
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
        src[a], src[b] = np.where(swap, src[b], src[a]), np.where(swap, src[a], src[b])
        odd ^= swap
    return np.stack(cols, axis=1), np.stack(src, axis=1), odd


def _local_faces(cx: SimplicialComplex, j: int) -> tuple[np.ndarray, dict]:
    """Per j-simplex: the sorted positions of its vertices in increasing x+y+z
    order, ties by id, and the index of each of its faces, keyed by the
    positions in that order of the face's vertices (a vertex's index is its id)."""
    rows = cx.simplices[j]
    # the stable sort breaks ties by id, so this is one order of all vertices
    order = np.argsort(cx.vertices.sum(axis=1)[rows], axis=1, kind="stable")
    index = {}
    for size in range(1, j + 2):
        for u in combinations(range(j + 1), size):
            # drop the other vertices' sorted positions from the top, largest first
            e = np.arange(len(rows), dtype=np.int32)
            if size <= j:
                drop = _sort_rows([order[:, p] for p in range(j + 1) if p not in u])[0]
                for c in range(j - size, -1, -1):
                    e = cx.faces[c + size][e, drop[:, c]]
            index[u] = e
    return order, index


def refine(cx: SimplicialComplex) -> SimplicialComplex:
    """One red refinement of every top cell; ``h`` halves exactly.

    The fine lattice comes from the templates, without ``build_complex``.
    Fine vertex ``v < nv`` is coarse vertex ``v`` and ``nv + e`` the midpoint
    of coarse edge ``e``.  Each fine k-simplex is made once, as an interior
    child of the coarse simplex holding it; sorting each row, then one
    packed-key sort of the rows of each degree, gives ``build_complex``'s
    lexsorted lattice with no deduplication.  A child's faces are children
    of its parent's faces or interior children of the parent, so the
    templates name them, and the sorts' inverse permutations place them.  A
    top cell's orientation is its parent's, times its template's sign and
    the parity of sorting its row.

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
        rows, face_rows, slots, sign, corners = [], [], [], [], 0
        for j in range(k, n + 1):
            order, index = local[j]
            for c, child in enumerate(_INTERIOR[j, k]):
                rows.append([index[v] if len(v) == 1 else nv + index[v] for v in child])
                if k > 1:
                    homes = [_home(child[:t] + child[t + 1:]) for t in range(k + 1)]
                    face_rows.append(np.stack(
                        [start[k - 1][len(u) - 1] + c2 * counts[len(u) - 1] + index[u]
                         for u, c2 in homes], axis=1))
                if j > k:
                    continue
                # the corner children by the sorted position of their vertex,
                # then the others in template order
                kept = _kept_vertex(child)
                if kept is None:
                    slots.append(np.full(counts[k], k + 1 + len(slots) - corners))
                else:
                    slots.append(order[:, kept])
                    corners += 1
                if k == n:
                    sign.append(np.where(odd_order, -_SIGNS[n][c], _SIGNS[n][c])
                                * cx.orientation[n])
        srt, src, odd = _sort_rows([np.concatenate(col) for col in zip(*rows)])
        del rows
        # the rows are distinct: one sort of their packed keys orders them
        packing = _packing(srt)
        perm = (np.argsort(_pack(srt, *packing)) if packing is not None
                else np.lexsort(srt.T[::-1]))
        np.take(srt, perm, axis=0, out=simplices[k])
        del srt
        below, place = place, np.empty(len(perm), dtype=np.int32)
        place[perm] = np.arange(len(perm), dtype=np.int32)
        del perm
        if k > 1:
            # dropping sorted position i drops the template position it came from
            gen = np.take_along_axis(np.concatenate(face_rows), src, axis=1)
            del face_rows
            faces[k][place] = below[gen]
            del gen
        if k == n:
            orientation[n][place] = np.where(odd, -1, 1) * np.concatenate(sign)
        # the children of coarse k-simplex s come first, generated c N_k + s
        children[k][np.tile(np.arange(counts[k]), len(slots)), np.concatenate(slots)] = \
            place[:children[k].size]
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
