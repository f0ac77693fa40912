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

Parse rules: entries are separated by any run of spaces or tabs, and blank
lines are skipped anywhere.  The vertex and cell sections are each parsed as
one table (``np.loadtxt``): every line must have exactly the section's width
of entries, n coordinates or n+1 vertex ids.  A coordinate is an ASCII float
literal such as ``-1.5e-3``; a vertex id is an ASCII decimal integer that fits
in int64.  Rejected with a ``MeshError`` that names the section: a count past
the end of the file, an empty vertex or cell section (``vertices 0``), a line
of the wrong width, and an entry that is not a number of its kind, such as
``1.0`` as an id, ``1_0``, non-ASCII digits or a ``#`` comment; the message
for a bad entry gives its line number in the file, blank lines counted.
Boundary lines are read one by one, as their labels are strings, and their
vertex ids are held to the same rule.

Orientation is normalized on load (cells are reoriented to positive signed
volume); the writer emits positively oriented cells, each coordinate as its
shortest round-trip repr, so ``load`` gives back the vertices bit for bit.
A file is input from outside the program, so ``load`` always runs
``build_complex``'s conformity audit.
"""
from __future__ import annotations

import re

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
    parts = [f"{FORMAT_HEADER}\ndim {n}\nvertices {cx.num(0)}\n",
             _format_rows(" ".join(["%r"] * n), cx.vertices),
             f"cells {len(cells)}\n",
             _format_rows(" ".join(["%d"] * (n + 1)), cells)]
    if cx.boundary_labels:
        parts.append(f"boundary {len(cx.boundary_labels)}\n")
        for tup, label in sorted(cx.boundary_labels.items()):
            parts.append(" ".join(str(int(v)) for v in tup) + f" {label}\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def _format_rows(row: str, table: np.ndarray) -> str:
    """One line of ``row % entries`` per row of ``table``, in one format pass.

    ``tolist`` yields Python floats and ints, so ``%r`` prints each float's
    shortest round-trip repr and ``%d`` each id, as ``repr`` and ``str`` do.
    """
    return (row + "\n") * len(table) % tuple(table.ravel().tolist())


def load(path) -> SimplicialComplex:
    raw, numbers = _nonblank_lines(path)
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

    def lines(count: int, what: str) -> tuple[list[str], np.ndarray]:
        """The next ``count`` lines and their line numbers in the file."""
        nonlocal pos
        if pos + count > len(raw):
            raise MeshError(f"{what} count exceeds file length")
        pos += count
        return raw[pos - count:pos], numbers[pos - count:pos]

    dim = expect("dim")
    verts = _section(*lines(expect("vertices"), "vertex"), dim, float, "vertex")
    cells = _section(*lines(expect("cells"), "cell"), dim + 1, np.int64, "cell")
    labels: dict[tuple, str] = {}
    if pos < len(raw):
        texts, where = lines(expect("boundary"), "boundary")
        rows = [ln.split() for ln in texts]
        ids = _boundary_ids(rows, where, dim)
        for tup, r in zip(np.sort(ids, axis=1).tolist(), rows):
            labels[tuple(tup)] = r[dim] if len(r) > dim else "default"
    del raw, numbers  # the file's text, let go before the build
    cx = build_complex(dim, verts, cells)
    if labels:
        faces = cx.index_of(dim - 1, list(labels))
        known = np.isin(faces, cx.boundary_face_indices())
        if not known.all():
            bad = list(labels)[int(np.argmin(known))]
            raise MeshError(f"boundary line {bad} is not a boundary face of the mesh")
    cx.boundary_labels = labels
    return cx


def _nonblank_lines(path) -> tuple[list[str], np.ndarray]:
    """The file's non-blank lines, stripped, and the line number of each in
    the file, for error messages."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    kept = np.fromiter(map(bool, lines), dtype=bool, count=len(lines))
    return [ln for ln in lines if ln], np.flatnonzero(kept) + 1


def _section(lines: list[str], numbers: np.ndarray, width: int, dtype: type,
             what: str) -> np.ndarray:
    """A vertex or cell section as one (lines, width) array of ``dtype``;
    ``numbers`` holds each line's number in the file."""
    if not lines:
        raise MeshError(f"no {what} lines: a mesh needs at least one {what}")
    try:
        table = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except ValueError as exc:
        # a ragged section is a width error, whatever loadtxt calls it
        if {len(ln.split()) for ln in lines} != {width}:
            raise MeshError(f"every {what} line must have {width} entries") from exc
        # loadtxt counts rows of ``lines`` from 0; name the file's line instead
        message = re.sub(r"\bat row (\d+)", lambda m: f"on line {numbers[int(m[1])]}", str(exc))
        raise MeshError(f"bad {what} line: {message}") from exc
    if table.shape[1] != width:
        raise MeshError(f"every {what} line must have {width} entries")
    return table


# a vertex id as the vertex and cell sections accept it: ASCII decimal digits
_VERTEX_ID = re.compile(r"[+-]?[0-9]+")


def _boundary_ids(rows: list[list[str]], numbers: np.ndarray,
                  dim: int) -> np.ndarray:
    """The ``dim`` vertex ids that open each boundary line, as a (rows, dim)
    array; ``numbers`` holds each line's number in the file."""
    table = []
    for r, number in zip(rows, numbers):
        for x in r[:dim]:
            if not _VERTEX_ID.fullmatch(x):
                raise MeshError("bad boundary line: a vertex id is ASCII decimal digits, "
                                f"not {x!r} on line {number}")
        table.append([int(x) for x in r[:dim]])
    if table and set(map(len, table)) != {dim}:
        raise MeshError(f"every boundary line must have {dim} entries")
    try:
        return np.array(table, dtype=np.int64).reshape(-1, dim)
    except OverflowError as exc:
        bad = next(n for ids, n in zip(table, numbers)
                   if not all(-2 ** 63 <= v < 2 ** 63 for v in ids))
        raise MeshError(f"bad boundary line: {exc} on line {bad}") from exc
