"""Span tracing of dec-lab's layers, installed from outside the package.

``install`` replaces each public function named in ``PROBES``, wherever a
declab module holds a reference to it, with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in memory
until the round ends.  ``layer_metrics`` turns them into the per-layer
metrics: a span's self time is its duration minus the time its child spans
cover, and counts are read from arguments and results at the same boundary.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time


def _count_simplices(args, kwargs, cx):
    return sum(len(s) for s in cx.simplices)


def _count_flags(args, kwargs, dual):
    # full flags t_k < ... < t_n through the top cells, summed over k: each of
    # the N top cells of an n-complex has (n+1)!/(k+1)! flags down to a k-face
    cx = dual.complex
    n, top = cx.dim, cx.num(cx.dim)
    return sum(top * math.factorial(n + 1) // math.factorial(k + 1) for k in range(n + 1))


def _count_points(args, kwargs, pts):
    return pts.shape[0] * pts.shape[1]


def _count_unknowns(args, kwargs, system):
    return len(system.interior)


def _count_iterations(args, kwargs, report):
    return report.iterations


def _bytes_at(position):
    def count(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return os.path.getsize(path)
    return count


# (span name, owner, attribute, counter); an owner "module:Class" means a method
PROBES = [
    ("cli.main", "declab.cli", "main", None),
    ("study.run_convergence_study", "declab.study", "run_convergence_study", None),
    ("study.run_consistency_study", "declab.study", "run_consistency_study", None),
    ("study.emit", "declab.study", "emit", None),
    ("generators.generate", "declab.generators", "generate", None),
    ("generators.refine", "declab.generators", "refine", None),
    ("generators.medial_refine", "declab.generators", "medial_refine", None),
    ("generators.jitter_interior", "declab.generators", "jitter_interior", None),
    ("complex.build_complex", "declab.complex", "build_complex", _count_simplices),
    *[("complex.query", "declab.complex:SimplicialComplex", name, None)
      for name in ("cofaces", "boundary_matrix", "boundary_face_indices",
                   "boundary_vertex_mask", "interior_vertex_indices", "index_of")],
    ("geometry.circumcenter", "declab.geometry", "circumcenter", None),
    ("geometry.barycentric_coordinates", "declab.geometry", "barycentric_coordinates", None),
    ("geometry.volume", "declab.geometry", "unsigned_volume", None),
    ("geometry.volume", "declab.geometry", "signed_volume", None),
    ("dualmesh.build_dual", "declab.dualmesh", "build_dual", _count_flags),
    ("quadrature.physical_points", "declab.quadrature:QuadratureRule", "physical_points",
     _count_points),
    ("fields.derham_primal", "declab.fields", "derham_primal", None),
    ("fields.derham_dual", "declab.fields", "derham_dual", None),
    ("fields.probe", "declab.fields", "consistency_probe", None),
    ("fields.probe", "declab.fields", "laplace_consistency_probe", None),
    ("problems.eval", "declab.fields:FormField", "__call__", None),
    ("problems.eval", "declab.problems:ProblemBundle", "u_at", None),
    ("problems.eval", "declab.problems:ProblemBundle", "f_at", None),
    *[("operators.build", "declab.operators", name, None)
      for name in ("hodge_star", "exterior_derivative", "codifferential", "laplace")],
    *[("operators.norm", "declab.operators", name, None)
      for name in ("inner_product", "discrete_l2", "discrete_l2_dual", "max_norm",
                   "h1_seminorm")],
    ("solve.assemble", "declab.solve", "make_problem", None),
    ("solve.assemble", "declab.solve", "stiffness_matrix", None),
    ("solve.assemble", "declab.solve", "assemble", _count_unknowns),
    ("solve.pcg", "declab.solve", "pcg", None),
    ("solve.solve", "declab.solve", "solve", _count_iterations),
    ("solve.error_report", "declab.solve", "error_report", None),
    ("solve.dump_solution", "declab.solve", "dump_solution", None),
    ("meshio.save", "declab.meshio", "save", _bytes_at(1)),
    ("meshio.load", "declab.meshio", "load", _bytes_at(0)),
]

# per-layer metric -> ("self" time | "count", span names)
LAYER_METRICS = {
    "generators.refine_s": ("self", ("generators.generate", "generators.refine",
                                     "generators.medial_refine")),
    "generators.jitter_s": ("self", ("generators.jitter_interior",)),
    "complex.build_complex_s": ("self", ("complex.build_complex",)),
    "complex.queries_s": ("self", ("complex.query",)),
    "complex.simplices": ("count", ("complex.build_complex",)),
    "geometry.circumcenter_s": ("self", ("geometry.circumcenter",)),
    "geometry.barycentric_s": ("self", ("geometry.barycentric_coordinates",)),
    "geometry.volume_s": ("self", ("geometry.volume",)),
    "dualmesh.build_dual_s": ("self", ("dualmesh.build_dual",)),
    "dualmesh.flag_rows": ("count", ("dualmesh.build_dual",)),
    "quadrature.physical_points_s": ("self", ("quadrature.physical_points",)),
    "quadrature.points": ("count", ("quadrature.physical_points",)),
    "fields.derham_primal_s": ("self", ("fields.derham_primal",)),
    "fields.derham_dual_s": ("self", ("fields.derham_dual",)),
    "fields.probe_s": ("self", ("fields.probe",)),
    "problems.eval_s": ("self", ("problems.eval",)),
    "operators.build_s": ("self", ("operators.build",)),
    "operators.norms_s": ("self", ("operators.norm",)),
    "solve.assemble_s": ("self", ("solve.assemble",)),
    "solve.pcg_s": ("self", ("solve.pcg",)),
    "solve.self_s": ("self", ("solve.solve",)),
    "solve.error_report_s": ("self", ("solve.error_report",)),
    "solve.dump_s": ("self", ("solve.dump_solution",)),
    "solve.iterations": ("count", ("solve.solve",)),
    "solve.unknowns": ("count", ("solve.assemble",)),
    "meshio.save_s": ("self", ("meshio.save",)),
    "meshio.load_s": ("self", ("meshio.load",)),
    "meshio.bytes": ("count", ("meshio.save", "meshio.load")),
    "study.self_s": ("self", ("study.run_convergence_study",
                              "study.run_consistency_study")),
    "study.emit_s": ("self", ("study.emit",)),
    "cli.self_s": ("self", ("cli.main",)),
}
STUDY_SPANS = ("study.run_convergence_study", "study.run_consistency_study")
LEVEL_START_SPANS = ("generators.generate", "generators.refine")


class Tracer:
    """Span recorder for a single-threaded caller."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, count]
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "count": count}) + "\n")


def install(tracer: Tracer) -> None:
    """Route every reference to a probed function through the tracer.

    Modules bind functions by name at import (``from .solve import solve``),
    so each declab module namespace holding the original is patched, not only
    the defining module.  Call after every declab module has been imported.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "declab" or name.startswith("declab."))]
    for span, owner_name, attr, counter in PROBES:
        module_name, _, class_name = owner_name.partition(":")
        owner = sys.modules[module_name]
        if class_name:
            cls = getattr(owner, class_name)
            setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr], counter))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts, plus the finest study level's wall time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
        counts[name] = counts.get(name, 0) + count
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        source = self_time if kind == "self" else counts
        out[metric] = sum((source.get(n, 0) for n in names), 0.0 if kind == "self" else 0)
    # A study level begins with the generate or refine call that makes its
    # mesh; the finest level runs from the last such call to the study's end.
    finest = 0.0
    for i, (name, _, end, _, _) in enumerate(spans):
        if name in STUDY_SPANS:
            starts = [s[1] for s in spans if s[3] == i and s[0] in LEVEL_START_SPANS]
            if starts:
                finest += end - max(starts)
    out["study.finest_level_s"] = finest
    return out


def top_level_seconds(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
