"""Convergence and consistency studies over refinement families, with emitters.

A study runs a mesh family through a level sequence, collects error norms,
and attaches per-step dyadic rates rate(i) = log2(e(i-1)/e(i)), mirroring the
layout used for refinement tables.  Each unmoved level's dual takes the
circumcenters refinement fixes from the dual of the level before
(``walk_levels``).  Reports can be emitted as CSV, an aligned
text table, or a log-log SVG plot with reference slopes 1 and 2.  A memory
guard refuses a study whose levels would pass an unknown cap on its level-0 mesh.
"""
from __future__ import annotations

import hashlib
import math
import os
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from . import generators, geometry
from .dualmesh import build_dual
from .errors import MemoryGuardError
from .fields import (consistency_probe, derham_images, hodge_field,
                     laplace_consistency_probe)
from .generators import FamilySpec
from .problems import ProblemBundle, get_problem
from .solve import SolverConfig, error_report, make_problem, solve

DEFAULT_UNKNOWN_CAP = 2_000_000

CONVERGENCE_COLUMNS = ["level", "h", "err_max", "rate_max", "err_h1", "rate_h1",
                       "err_l2", "rate_l2", "iters", "seconds"]


@dataclass
class StudyReport:
    metadata: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.rows]


class StudyAborted(RuntimeError):
    """A level failed; carries the partial report."""

    def __init__(self, message: str, report: StudyReport, cause: Exception):
        super().__init__(message)
        self.report = report
        self.cause = cause


def commit_stamp() -> str:
    env = os.environ.get("DECLAB_COMMIT")
    if env:
        return env
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(__file__))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _mesh_options(spec: FamilySpec) -> dict:
    """What shapes a study's meshes beyond the family name, for its header:
    the one option the family reads, or a mesh file's path and the SHA-256 of
    its bytes."""
    if spec.path is not None:
        with open(spec.path, "rb") as fh:
            return {"mesh": spec.path, "mesh_sha256": hashlib.file_digest(fh, "sha256").hexdigest()}
    if spec.family == "pentagon_wheel":
        return {"ngon": spec.n_gon}
    if spec.family == "square":
        return {"pattern": spec.pattern}
    if spec.family == "corner":
        return {"alpha": spec.alpha}
    return {}


RATE_COLUMNS = {"err_max": "rate_max", "err_h1": "rate_h1", "err_l2": "rate_l2",
                "err_dual": "rate_dual", "lap_total": "rate_lap",
                "term1": "rate_term1", "term2": "rate_term2"}


def _append_row(report: StudyReport, row: dict) -> None:
    """Append ``row`` with the rate log2(e_prev / e) of each of its error columns."""
    prev = report.rows[-1] if report.rows else {}
    for err, rate in RATE_COLUMNS.items():
        if err in row:
            e0, e = prev.get(err), row[err]
            row[rate] = math.log2(e0 / e) if e0 is not None and e0 > 0 and e > 0 else None
    report.rows.append(row)


def fit_rate(errors, last: int = 4) -> float:
    """Least-squares slope of log2(error) against level over the last ``last`` levels."""
    e = np.asarray([x for x in errors if x is not None], dtype=float)
    e = e[-last:]
    if len(e) < 2 or np.any(e <= 0):
        return float("nan")
    x = np.arange(len(e))
    return float(-np.polyfit(x, np.log2(e), 1)[0])


def max_h(cx) -> float:
    """The longest edge, a block of edges at a time."""
    return max(float(geometry.diameter(cx.coords_of(1, rows)).max())
               for rows in geometry.row_blocks(cx.num(1), 2))


def _guarded_walk(spec: FamilySpec, levels: int, cap: int | None):
    """``generators.walk``, refused on its level-0 mesh, before any refinement,
    dual or solve, when the interior count of any of its levels would pass ``cap``."""
    meshes = generators.walk(spec, levels)
    first = next(meshes)
    if cap is not None:
        for i in range(levels):
            est = generators.estimate_unknowns(first, i)
            if est > cap:
                raise MemoryGuardError(
                    f"level {i} of {spec.family} has ~{est} unknowns, above the cap {cap}; "
                    "raise max_unknowns to proceed")
    yield first
    yield from meshes


def _carried_dual(cx, coarse, keep: bool):
    """``build_dual`` on one level of a walk: (dual, record for the next level).

    ``coarse`` is the record of the level before, None on level 0 or on a
    moved mesh; the record comes back only when ``keep``.  The mesh's parent
    map and the dual's own reference to its record go here, so neither
    outlives the dual's construction into the level's solve.
    """
    dual = build_dual(cx, coarse)
    cx.children = None
    record, dual.record = dual.record, None
    return dual, record if keep else None


def walk_levels(spec: FamilySpec, levels: int, cap: int | None = None):
    """(mesh, dual, prolongations) per level of ``_guarded_walk``: each dual
    carried from the level before, and the interior prolongations of the
    hierarchy below the mesh, coarsest first.

    Each dual lets go of its circumcenters, which a solve does not read (the
    next level's record keeps those it carries).  A caller that keeps no
    reference to a level's dual lets it go before the next level is refined.
    """
    prolongations, coarse, record = [], None, None
    for i, cx in enumerate(_guarded_walk(spec, levels, cap)):
        if coarse is not None:
            prolongations.append(generators.interior_prolongation(coarse, cx))
        coarse = cx
        dual, record = _carried_dual(cx, record, keep=i + 1 < levels)
        dual.circumcenters = None
        yield cx, dual, prolongations
        del dual


def run_convergence_study(spec: FamilySpec, problem: str | ProblemBundle,
                          levels: int, config: SolverConfig = SolverConfig(),
                          max_unknowns: int | None = DEFAULT_UNKNOWN_CAP,
                          deterministic: bool = False) -> StudyReport:
    """Solve the Dirichlet problem across a refinement sequence and tabulate errors."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    bundle = get_problem(problem) if isinstance(problem, str) else problem
    report = StudyReport(
        metadata={"study": "convergence", "family": spec.family, **_mesh_options(spec),
                  "problem": bundle.name, "levels": levels,
                  "tolerance": config.tol, "commit": commit_stamp()},
        columns=list(CONVERGENCE_COLUMNS))
    t0 = time.monotonic()
    try:
        # no enumerate: its cached result tuple would keep the last level's
        # dual alive through the next level's refinement and dual
        for cx, dual, prolongations in walk_levels(spec, levels, max_unknowns):
            sol, err = solve_level(cx, dual, bundle, config, prolongations)
            seconds = 0.0 if deterministic else time.monotonic() - t0
            row = {"level": len(report.rows), "h": max_h(cx), "err_max": err.max,
                   "err_h1": err.h1, "err_l2": err.l2, "iters": sol.iterations,
                   "seconds": seconds, "stability": sol.stability_constant}
            del cx, dual  # the next level's refinement and dual need neither
            _append_row(report, row)
            t0 = time.monotonic()
    except MemoryGuardError:
        raise
    except Exception as exc:
        # every finished level has appended its row, so the row count is the failed level
        raise StudyAborted(f"level {len(report.rows)} failed: {exc}", report, exc) from exc
    return report


def solve_level(cx, dual, bundle: ProblemBundle, config: SolverConfig, prolongations: list):
    """(solve report, error report) on one level; its problem dies on return."""
    prob = make_problem(cx, dual, bundle)
    sol = solve(prob, config, prolongations)
    return sol, error_report(prob, sol.solution, bundle)


CONSISTENCY_COLUMNS = ["level", "h", "err_max", "rate_max", "err_l2", "rate_l2",
                       "err_dual", "rate_dual"]
LAPLACE_COLUMNS = ["lap_total", "rate_lap", "term1", "rate_term1",
                   "term2", "rate_term2"]


def run_consistency_study(spec: FamilySpec, problem: str | ProblemBundle, k: int,
                          levels: int, degree: int = 6,
                          jitter: float = 0.0, seed: int = 0,
                          interior_l2: bool = True,
                          max_unknowns: int | None = DEFAULT_UNKNOWN_CAP) -> StudyReport:
    """Measure the star/deRham commutator norms (and the 0-form Hodge-Laplace
    consistency split) across a refinement sequence.

    ``jitter`` displaces interior vertices by a seeded random fraction of the
    local edge length at every level, breaking the local symmetries of the
    structured families; structured meshes superconverge in the discrete L2
    norm and hide the generic first-order behavior.  ``interior_l2`` restricts
    the L2 norms to interior cells, where the sharp rate lives (truncated
    boundary dual cells contribute a slowly decaying h^1.5 layer).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    bundle = get_problem(problem) if isinstance(problem, str) else problem
    if not 0 <= k <= bundle.dim:
        raise ValueError(f"k out of range for dimension {bundle.dim}")
    fields_by_k = {0: bundle.u, 1: bundle.du}
    if k == 2 and bundle.dim == 2:
        fields_by_k[2] = hodge_field(bundle.u)
    if k not in fields_by_k:
        raise ValueError(f"no analytic k={k} field available for {bundle.name}")
    fld = fields_by_k[k]
    with_lap = k == 0
    columns = list(CONSISTENCY_COLUMNS) + (LAPLACE_COLUMNS if with_lap else [])
    report = StudyReport(
        metadata={"study": "consistency", "family": spec.family, **_mesh_options(spec),
                  "problem": bundle.name, "k": k, "levels": levels,
                  "degree": degree, "jitter": jitter, "seed": seed,
                  "interior_l2": interior_l2, "commit": commit_stamp()},
        columns=columns)
    record = None
    try:
        for i, cx in enumerate(_guarded_walk(spec, levels, max_unknowns)):
            if jitter:
                # a moved mesh carries nothing: every center is solved
                cx.children = None
                cx = generators.jitter_interior(cx, amplitude=jitter, seed=seed + i)
            dual, record = _carried_dual(cx, record, keep=not jitter and i + 1 < levels)
            # a level without interior vertices leaves the Laplace cells empty;
            # else f rides along on u's passes over the vertices and fragments
            lap_here = with_lap and len(cx.interior_vertex_indices())
            images = derham_images([fld, bundle.f] if lap_here else [fld], cx, dual, degree)
            rec = consistency_probe(images[0], cx, dual, interior_l2=interior_l2)
            row = {"level": i, "h": max_h(cx), "err_max": rec.err_max,
                   "err_l2": rec.err_l2_primal_side, "err_dual": rec.err_max_dual_side}
            if lap_here:
                lap = laplace_consistency_probe(bundle, cx, dual, images, degree=degree)
                row.update({"lap_total": lap.total_max, "term1": lap.term1_max,
                            "term2": lap.term2_max, "identity_gap": lap.identity_gap})
            _append_row(report, row)
    except MemoryGuardError:
        raise
    except Exception as exc:
        # every finished level has appended its row, so the row count is the failed level
        raise StudyAborted(f"level {len(report.rows)} failed: {exc}", report, exc) from exc
    return report


# -- emitters ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9e}"
    return str(value)


def render(report: StudyReport, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text_table":
        return to_text_table(report)
    if fmt == "svg_loglog":
        return to_svg_loglog(report)
    raise ValueError(f"unknown format '{fmt}' (csv, text_table, svg_loglog)")


def emit(report: StudyReport, fmt: str, path) -> None:
    text = render(report, fmt)
    with open(path, "w") as fh:
        fh.write(text)


def to_csv(report: StudyReport) -> str:
    lines = [f"# {k}={v}" for k, v in sorted(report.metadata.items())]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(row.get(c)) for c in report.columns))
    return "\n".join(lines) + "\n"


def to_text_table(report: StudyReport) -> str:
    head = " ".join(f"{k}={v}" for k, v in sorted(report.metadata.items()))
    widths = {}
    table = [list(report.columns)]
    for row in report.rows:
        cells = []
        for c in report.columns:
            v = row.get(c)
            if v is None:
                cells.append("-")
            elif isinstance(v, float):
                cells.append(f"{v:.6e}")
            else:
                cells.append(str(v))
        table.append(cells)
    for r in table:
        for j, cell in enumerate(r):
            widths[j] = max(widths.get(j, 0), len(cell))
    lines = [head]
    for r in table:
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(r)))
    fits = [f"{c} {fit_rate(report.column(c)):.4f}" for c in report.columns if c in RATE_COLUMNS]
    if fits:
        lines.append("fitted rate over the last 4 levels: " + "  ".join(fits))
    return "\n".join(lines) + "\n"


def to_svg_loglog(report: StudyReport) -> str:
    """Error-vs-h log-log plot with dashed reference lines of slope 1 and 2."""
    series_names = [c for c in report.columns
                    if c.startswith("err") or c in ("lap_total", "term1", "term2")]
    hs = [r["h"] for r in report.rows]
    series = {s: [r.get(s) for r in report.rows] for s in series_names}
    pts = [(h, v) for s in series_names for h, v in zip(hs, series[s])
           if v is not None and v > 0]
    w, hgt, margin = 640, 480, 60
    if not pts:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{hgt}"/>\n'
    lx = [math.log10(p[0]) for p in pts]
    ly = [math.log10(p[1]) for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 += 1e-9
    y1 += 1e-9

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (w - 2 * margin)

    def sy(y):
        return hgt - margin - (y - y0) / (y1 - y0) * (hgt - 2 * margin)

    colors = ["#1b6ca8", "#c03221", "#3a7d44", "#7d3ac1", "#b8860b", "#444444"]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{hgt}" '
           f'viewBox="0 0 {w} {hgt}">',
           f'<rect width="{w}" height="{hgt}" fill="white"/>',
           f'<line x1="{margin}" y1="{hgt - margin}" x2="{w - margin}" '
           f'y2="{hgt - margin}" stroke="black"/>',
           f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
           f'y2="{hgt - margin}" stroke="black"/>',
           f'<text x="{w // 2}" y="{hgt - 18}" text-anchor="middle" '
           f'font-size="13">log10 h</text>',
           f'<text x="16" y="{hgt // 2}" font-size="13" '
           f'transform="rotate(-90 16 {hgt // 2})" text-anchor="middle">log10 error</text>']
    # reference slopes through the rightmost-bottom anchor
    xa, ya = max(lx), min(ly)
    for slope, dash in ((1, "6,3"), (2, "2,3")):
        yb = ya + slope * (x0 - xa)
        out.append(f'<polyline fill="none" stroke="#999999" stroke-dasharray="{dash}" '
                   f'points="{sx(xa):.2f},{sy(ya):.2f} {sx(x0):.2f},{sy(yb):.2f}"/>')
        out.append(f'<text x="{sx(x0) + 4:.2f}" y="{sy(yb):.2f}" font-size="11" '
                   f'fill="#999999">slope {slope}</text>')
    for idx, s in enumerate(series_names):
        col = colors[idx % len(colors)]
        coords = [(sx(math.log10(h)), sy(math.log10(v)))
                  for h, v in zip(hs, series[s]) if v is not None and v > 0]
        if not coords:
            continue
        pstr = " ".join(f"{a:.2f},{b:.2f}" for a, b in coords)
        out.append(f'<polyline fill="none" stroke="{col}" points="{pstr}"/>')
        for a, bb in coords:
            out.append(f'<circle cx="{a:.2f}" cy="{bb:.2f}" r="2.5" fill="{col}"/>')
        out.append(f'<text x="{w - margin + 6}" y="{margin + 14 * idx}" '
                   f'font-size="11" fill="{col}">{s}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
