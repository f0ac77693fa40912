"""Correctness checks on what the dec-lab CLI writes, made apart from the program.

Every check compares an output with a property of the method (exact halving
of h under refinement, second-order rates, affine reproduction, positive cell
orientation) or with a count derived here in closed form; none compares with
a saved copy of an earlier run.  The module needs only the standard library,
so it can also judge files without importing numpy or declab.

Each checker returns one ``Outcome`` per operation: a study level, or one CLI
invocation of the mesh round trip.  ``error`` means the operation produced no
output (it raised, or its process reported failure); ``wrong`` means it
produced output that fails a check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

# Reference errors (err_max, err_h1, err_l2) per level, as frozen by the
# acceptance gate in tests/test_acceptance.py for the canonical runs.
REFERENCE_PENTAGON = {
    1: (3.202794e-03, 1.072846e-02, 2.821094e-03),
    2: (7.836073e-04, 2.879579e-03, 6.332754e-04),
    3: (1.956510e-04, 7.353114e-04, 1.532456e-04),
    4: (4.891893e-05, 1.849975e-04, 3.798925e-05),
    5: (1.227086e-05, 4.633277e-05, 9.477213e-06),
    6: (3.067823e-06, 1.158895e-05, 2.368052e-06),
    7: (7.669629e-07, 2.897627e-06, 5.919350e-07),
    8: (1.917491e-07, 7.244331e-07, 1.479789e-07),
}
REFERENCE_CUBE = {
    0: (8.586493e-04, 1.487224e-03, 3.035784e-04),
    1: (2.666725e-04, 6.216886e-04, 1.156983e-04),
    2: (7.122948e-05, 1.774812e-04, 3.166206e-05),
    3: (1.835021e-05, 4.594339e-05, 8.083333e-06),
    4: (4.621759e-06, 1.158904e-05, 2.031176e-06),
}
NORMS = ("max", "h1", "l2")

# The CSV writer keeps ten significant digits, so quantities read back from a
# report carry a relative rounding error of at most 5e-10.
CSV_REL = 2e-9
RATE_ABS = 1e-6
DEFAULT_ALPHA = 8 * math.pi / 5


@dataclass
class Outcome:
    label: str
    status: str = "ok"          # ok | error | wrong
    problems: list[str] = field(default_factory=list)

    def fail(self, status: str, message: str) -> None:
        if self.status != "error":
            self.status = status
        self.problems.append(message)


# -- study reports -------------------------------------------------------------


def parse_report(text: str) -> list[dict]:
    """Rows of a study CSV report; empty cells become None, numbers floats."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append({h: (float(c) if c else None) for h, c in zip(header, cells)})
    return rows


def _rows_by_level(text: str | None) -> tuple[dict[int, dict], str | None]:
    if text is None:
        return {}, "no report written"
    try:
        rows = parse_report(text)
    except ValueError as exc:
        return {}, f"unreadable report: {exc}"
    return {int(r["level"]): r for r in rows if r.get("level") is not None}, None


def _positive(x) -> bool:
    return x is not None and math.isfinite(x) and x > 0


def _check_rate(out: Outcome, rows: dict, i: int, err: str, rate: str) -> float | None:
    """The report's step rate must equal log2(e[i-1]/e[i]) recomputed here."""
    got = rows[i].get(rate)
    if i == 0 or i - 1 not in rows:
        return got
    prev, cur = rows[i - 1].get(err), rows[i].get(err)
    if not (_positive(prev) and _positive(cur)):
        return got
    expect = math.log2(prev / cur)
    if got is None or abs(got - expect) > RATE_ABS:
        out.fail("wrong", f"{rate} {got} differs from log2 ratio of {err} ({expect:.9f})")
    return got


def _interior_unknowns_pentagon(level: int, n_gon: int = 5) -> int:
    # Medial refinement of the n-gon wheel gives F = n 4^L triangles and
    # B = n 2^L boundary edges.  With 3F = 2E - B and Euler's V - E + F = 1
    # for a disk, the interior vertex count is V - B = 1 + (F - B) / 2.
    faces, bnd = n_gon * 4 ** level, n_gon * 2 ** level
    return 1 + (faces - bnd) // 2


def _interior_unknowns_cube(level: int) -> int:
    m = 2 ** (level + 1)          # grid intervals per axis
    return (m - 1) ** 3


CONVERGENCE = {
    "pentagon_wheel": dict(
        levels=9, h0=2 * math.sin(math.pi / 5),
        unknowns=_interior_unknowns_pentagon, reference=REFERENCE_PENTAGON,
        within=lambda got, ref: 0.5 <= got / ref <= 2.0, within_text="2x",
        rate_levels=(6, 7, 8), rate=2.0, rate_tol=0.02),
    "cube_kuhn": dict(
        # longest edge of a Kuhn tetrahedron is the cell diagonal sqrt(3)/m
        levels=5, h0=math.sqrt(3) / 2,
        unknowns=_interior_unknowns_cube, reference=REFERENCE_CUBE,
        within=lambda got, ref: abs(got - ref) <= 0.5 * ref, within_text="50%",
        rate_levels=(4,), rate=1.99, rate_tol=0.05),
}


def check_convergence(family: str, text: str | None,
                      unknowns: list[int] | None) -> list[Outcome]:
    """One outcome per study level of a convergence report.

    ``unknowns`` lists, per level, the interior vertex count of the mesh the
    study solved on, counted by the benchmark from the mesh's own cells.
    """
    spec = CONVERGENCE[family]
    rows, missing = _rows_by_level(text)
    outcomes = []
    for i in range(spec["levels"]):
        out = Outcome(f"level {i}")
        outcomes.append(out)
        if i not in rows:
            out.fail("error", missing or "level missing from the report")
            continue
        row = rows[i]
        h = row.get("h")
        if not _positive(h):
            out.fail("wrong", f"h = {h}")
        elif i == 0 and abs(h - spec["h0"]) > CSV_REL * spec["h0"]:
            out.fail("wrong", f"h0 = {h!r}, closed form {spec['h0']!r}")
        elif i > 0 and _positive(rows.get(i - 1, {}).get("h")) \
                and abs(h - rows[i - 1]["h"] / 2) > CSV_REL * h:
            out.fail("wrong", f"h = {h!r} is not half of {rows[i - 1]['h']!r}")
        ref = spec["reference"].get(i)
        for j, norm in enumerate(NORMS):
            err = row.get(f"err_{norm}")
            if not _positive(err):
                out.fail("wrong", f"err_{norm} = {err}")
                continue
            if ref is not None and not spec["within"](err, ref[j]):
                out.fail("wrong", f"err_{norm} = {err:.6e} not within "
                                  f"{spec['within_text']} of {ref[j]:.6e}")
            rate = _check_rate(out, rows, i, f"err_{norm}", f"rate_{norm}")
            if i in spec["rate_levels"] and (
                    rate is None or abs(rate - spec["rate"]) > spec["rate_tol"]):
                out.fail("wrong", f"rate_{norm} = {rate} not within "
                                  f"{spec['rate']} +- {spec['rate_tol']}")
        expect = spec["unknowns"](i)
        seen = unknowns[i] if unknowns is not None and i < len(unknowns) else None
        if seen != expect:
            out.fail("wrong", f"{seen} unknowns, closed form {expect}")
    return outcomes


def fit_rate(errors: list[float]) -> float:
    """Least-squares slope of -log2(error) against level."""
    ys = [math.log2(e) for e in errors]
    xs = range(len(ys))
    mx, my = sum(xs) / len(ys), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return -sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


CONSISTENCY_LEVELS = 8
FIT_LEVELS = 4
# Generic (jittered) meshes converge at first order in the interior L2 norm;
# the Hodge-Laplace consistency error does not decay while its second term is
# O(h) (the two-term decomposition of the 0-form Laplacian).  The second
# term's rate fitted over four jittered levels scatters with the seed (0.775
# to 1.025 over seeds 0-179, below 0.8 at three of them), so its check asks
# for decay well clear of the stalled total rather than for a window around 1.
L2_RATE, L2_TOL = 1.0, 0.1
LAP_TOTAL_MAX = 0.2
TERM2_MIN_RATE = 0.5


def check_consistency(k: int, text: str | None) -> list[Outcome]:
    """One outcome per level of a jittered consistency report for form degree k.

    The fitted rates over the last four levels are judged at the finest level.
    """
    rows, missing = _rows_by_level(text)
    pairs = [("err_max", "rate_max"), ("err_l2", "rate_l2"), ("err_dual", "rate_dual")]
    if k == 0:
        pairs += [("lap_total", "rate_lap"), ("term1", "rate_term1"),
                  ("term2", "rate_term2")]
    outcomes = []
    for i in range(CONSISTENCY_LEVELS):
        out = Outcome(f"k={k} level {i}")
        outcomes.append(out)
        if i not in rows:
            out.fail("error", missing or "level missing from the report")
            continue
        for err, rate in pairs:
            if not _positive(rows[i].get(err)):
                out.fail("wrong", f"{err} = {rows[i].get(err)}")
            else:
                _check_rate(out, rows, i, err, rate)
    last = outcomes[-1]
    fit_span = range(CONSISTENCY_LEVELS - FIT_LEVELS, CONSISTENCY_LEVELS)
    if last.status == "error" or not all(i in rows for i in fit_span):
        return outcomes

    def fit(col):
        vals = [rows[i].get(col) for i in fit_span]
        return fit_rate(vals) if all(_positive(v) for v in vals) else None

    r_l2 = fit("err_l2")
    if r_l2 is None or abs(r_l2 - L2_RATE) > L2_TOL:
        last.fail("wrong", f"interior L2 rate {r_l2} not within {L2_RATE} +- {L2_TOL}")
    if k == 0:
        r_total, r_term2 = fit("lap_total"), fit("term2")
        if r_total is None or r_total > LAP_TOTAL_MAX:
            last.fail("wrong", f"Laplace consistency rate {r_total} above {LAP_TOTAL_MAX}")
        if r_term2 is None or r_term2 < TERM2_MIN_RATE:
            last.fail("wrong", f"second-term rate {r_term2} below {TERM2_MIN_RATE}")
    return outcomes


# -- mesh round trip -------------------------------------------------------------


@dataclass
class Mesh:
    vertices: list[tuple[float, float]]
    cells: list[tuple[int, int, int]]
    boundary: dict[tuple[int, int], str]


def parse_decmesh(text: str) -> Mesh:
    """Read a 2D ``decmesh 1`` file, independently of declab.meshio."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["decmesh", "1"]:
        raise ValueError("missing 'decmesh 1' header")
    if len(lines) < 2 or lines[1] != ["dim", "2"]:
        raise ValueError("expected 'dim 2' on the second line")
    pos = 2

    def section(keyword):
        nonlocal pos
        if pos >= len(lines) or len(lines[pos]) != 2 or lines[pos][0] != keyword:
            raise ValueError(f"expected '{keyword} <count>' at line {pos + 1}")
        count = int(lines[pos][1])
        body = lines[pos + 1:pos + 1 + count]
        if len(body) != count:
            raise ValueError(f"{keyword} section truncated")
        pos += 1 + count
        return body

    verts = [(float(p[0]), float(p[1])) for p in section("vertices")]
    cells = [(int(p[0]), int(p[1]), int(p[2])) for p in section("cells")]
    boundary = {}
    if pos < len(lines):
        for p in section("boundary"):
            boundary[tuple(sorted((int(p[0]), int(p[1]))))] = p[2] if len(p) > 2 else "default"
    if pos != len(lines):
        raise ValueError("trailing lines after the last section")
    return Mesh(verts, cells, boundary)


def corner_counts(level: int) -> dict[str, int]:
    """Closed-form sizes of the corner family (4 sectors) after ``level`` refinements."""
    faces = 4 * 4 ** level
    bnd = 6 * 2 ** level          # 4 rim edges and the 2 slit spokes, each halved per level
    edges = (3 * faces + bnd) // 2
    verts = 1 + edges - faces     # Euler's formula for a disk
    return {"vertices": verts, "cells": faces, "boundary": bnd,
            "gamma": 2 * 2 ** level, "interior": verts - bnd}


def _signed_area(a, b, c) -> float:
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def _on_ray(p, theta: float, tol: float = 1e-9) -> bool:
    d = (math.cos(theta), math.sin(theta))
    return abs(p[0] * d[1] - p[1] * d[0]) <= tol and p[0] * d[0] + p[1] * d[1] >= -tol


def check_corner_mesh(mesh: Mesh, level: int, alpha: float = DEFAULT_ALPHA) -> list[str]:
    """Problems with a written corner mesh: sizes, orientation, area, boundary labels."""
    want = corner_counts(level)
    problems = []
    for key, got in (("vertices", len(mesh.vertices)), ("cells", len(mesh.cells)),
                     ("boundary", len(mesh.boundary))):
        if got != want[key]:
            problems.append(f"{got} {key}, closed form {want[key]}")
    nv = len(mesh.vertices)
    area = 0.0
    edge_uses: dict[tuple[int, int], int] = {}
    for c in mesh.cells:
        if len(set(c)) != 3 or min(c) < 0 or max(c) >= nv:
            problems.append(f"cell {c} has bad vertex indices")
            continue
        a = _signed_area(*(mesh.vertices[v] for v in c))
        if not a > 0:
            problems.append(f"cell {c} has signed area {a:.3e}")
        area += a
        for e in ((c[0], c[1]), (c[1], c[2]), (c[0], c[2])):
            e = tuple(sorted(e))
            edge_uses[e] = edge_uses.get(e, 0) + 1
    # medial refinement keeps the level-0 polygon: four triangles with unit
    # spokes and apex angle alpha/4
    exact = 2 * math.sin(alpha / 4)
    if abs(area - exact) > 1e-9 * exact:
        problems.append(f"total area {area!r}, exact {exact!r}")
    outer = {e for e, n in edge_uses.items() if n == 1}
    if outer != set(mesh.boundary):
        problems.append(f"boundary section lists {len(mesh.boundary)} edges, "
                        f"the cells have {len(outer)} boundary edges")
    gamma = 0
    for (a, b), label in mesh.boundary.items():
        if not (a < nv and b < nv):
            continue
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        on_slit = any(_on_ray(pa, t) and _on_ray(pb, t) for t in (0.0, alpha))
        if label != ("gamma" if on_slit else "default"):
            problems.append(f"edge {(a, b)} labelled {label!r}")
        gamma += label == "gamma"
    if gamma != want["gamma"]:
        problems.append(f"{gamma} gamma edges, closed form {want['gamma']}")
    return problems[:5]


def interior_vertex_count(mesh: Mesh) -> int:
    on_boundary = {v for e in mesh.boundary for v in e}
    return len(mesh.vertices) - len(on_boundary)


AFFINE_TOL = 1e-10


def check_affine_dump(text: str, mesh: Mesh) -> list[str]:
    """The linear2d solution dump must reproduce u = 1 + x + y at every vertex."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("solution "):
        return ["missing 'solution' header line"]
    body = lines[1:]
    if len(body) != len(mesh.vertices):
        return [f"{len(body)} values for {len(mesh.vertices)} vertices"]
    worst, where = 0.0, None
    for i, (ln, (x, y)) in enumerate(zip(body, mesh.vertices)):
        idx, value = ln.split()
        if int(idx) != i:
            return [f"line {i + 2} holds vertex {idx}"]
        gap = abs(float(value) - (1.0 + x + y))
        if not math.isfinite(gap):
            return [f"vertex {i} has value {value}"]
        if gap > worst:
            worst, where = gap, i
    if worst > AFFINE_TOL:
        return [f"vertex {where} is {worst:.3e} from 1 + x + y"]
    return []
