"""Text mesh format ``decmesh 1``.

Layout::

    decmesh 1
    dim n
    vertices m
    <m coordinate lines>
    cells c
    <c lines of n+1 zero-based vertex indices>
    boundary b          (optional)
    <b lines of n vertex indices, optionally followed by a label>

Orientation is normalized on load (cells are reoriented to positive signed
volume); the writer emits positively oriented cells.  A file is input from
outside the program, so ``load`` always runs ``build_complex``'s conformity
audit.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .complex import SimplicialComplex, build_complex
from .errors import MeshError

FORMAT_HEADER = "decmesh 1"


def save(cx: SimplicialComplex, path) -> None:
    n = cx.dim
    cells = cx.simplices[n].copy()
    flip = cx.orientation[n] < 0
    # emit the oriented permutation: swapping two vertices realizes sign -1
    cells[flip, 0], cells[flip, 1] = cells[flip, 1], cells[flip, 0].copy()
    lines = [FORMAT_HEADER, f"dim {n}", f"vertices {cx.num(0)}"]
    for row in cx.vertices:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append(f"cells {len(cells)}")
    for row in cells:
        lines.append(" ".join(str(int(v)) for v in row))
    if cx.boundary_labels:
        lines.append(f"boundary {len(cx.boundary_labels)}")
        for tup, label in sorted(cx.boundary_labels.items()):
            lines.append(" ".join(str(int(v)) for v in tup) + f" {label}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> SimplicialComplex:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or raw[0] != FORMAT_HEADER:
        raise MeshError(f"missing '{FORMAT_HEADER}' header")
    pos = 1

    def expect(keyword: str) -> int:
        nonlocal pos
        if pos >= len(raw):
            raise MeshError(f"truncated file: expected '{keyword}'")
        parts = raw[pos].split()
        if parts[0] != keyword:
            raise MeshError(f"expected '{keyword}', got '{raw[pos]}'")
        if len(parts) != 2 or not parts[1].isdecimal():
            raise MeshError(f"expected '{keyword} <number>', got '{raw[pos]}'")
        pos += 1
        return int(parts[1])

    def lines(count: int, what: str) -> Iterator[list[str]]:
        nonlocal pos
        if pos + count > len(raw):
            raise MeshError(f"{what} count exceeds file length")
        pos += count
        return (ln.split() for ln in raw[pos - count:pos])

    dim = expect("dim")
    verts = _table(lines(expect("vertices"), "vertex"), dim, float, "vertex")
    cells = _table(lines(expect("cells"), "cell"), dim + 1, int, "cell")
    labels: dict[tuple, str] = {}
    if pos < len(raw):
        rows = list(lines(expect("boundary"), "boundary"))
        ids = _table((r[:dim] for r in rows), dim, int, "boundary")
        for tup, r in zip(np.sort(ids, axis=1).tolist(), rows):
            labels[tuple(tup)] = r[dim] if len(r) > dim else "default"
    cx = build_complex(dim, verts, cells)
    if labels:
        faces = cx.index_of(dim - 1, list(labels))
        known = np.isin(faces, cx.boundary_face_indices())
        if not known.all():
            bad = list(labels)[int(np.argmin(known))]
            raise MeshError(f"boundary line {bad} is not a boundary face of the mesh")
    cx.boundary_labels = labels
    return cx


def _table(rows: Iterable[list[str]], width: int, kind: type, what: str) -> np.ndarray:
    """Rows of exactly ``width`` entries of type ``kind`` as a (rows, width) array."""
    try:
        table = [[kind(x) for x in r] for r in rows]
    except ValueError as exc:
        raise MeshError(f"bad {what} line: {exc}") from exc
    if table and set(map(len, table)) != {width}:
        raise MeshError(f"every {what} line must have {width} entries")
    return np.array(table, dtype=kind).reshape(-1, width)
