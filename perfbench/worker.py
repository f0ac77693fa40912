"""One round of one workload, in a fresh process, as a user would run it.

Started by run.py.  Imports declab from the checkout's ``src``, then calls
``declab.cli.main`` with each argv of the round in turn, and prints one JSON
line: the clock reading just before the first call (the end of set-up), the
wall time of the calls, the process's peak resident memory, and per call its
exit code and standard output.  With ``--trace`` the calls go through the span
tracer and the line also carries the per-layer metrics; with ``--setup-only``
the process stops before the first call.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _interior_vertices(cells, nv: int) -> int:
    """Interior vertex count of a simplicial mesh, from its top cells alone."""
    import numpy as np

    n = cells.shape[1] - 1
    faces = np.concatenate([np.delete(cells, i, axis=1) for i in range(n + 1)])
    faces.sort(axis=1)
    key = np.zeros(len(faces), dtype=np.int64)
    for col in faces.T:             # nv**n stays far below 2**63 for these meshes
        key = key * nv + col
    _, first, uses = np.unique(key, return_index=True, return_counts=True)
    outer = faces[first[uses == 1]]
    return nv - len(np.unique(outer))


def _watch_solves(study) -> list:
    """Keep the top cells of every mesh the study solves on, to count unknowns."""
    meshes = []
    inner = study.solve

    def solve(problem, *args, **kwargs):
        meshes.append((problem.cx.simplices[problem.cx.dim], problem.cx.num(0)))
        return inner(problem, *args, **kwargs)

    study.solve = solve
    return meshes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import declab.cli
    import declab.study
    import workloads

    out = Path(args.out)
    argvs = workloads.commands(args.workload, args.seed, out)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    meshes = None
    if args.workload in workloads.CONVERGENCE_FAMILIES:
        meshes = _watch_solves(declab.study)

    first_call = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0
    calls = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = declab.cli.main(argv)
            except SystemExit as exc:      # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        calls.append({"argv": argv, "rc": rc, "stdout": buf.getvalue()})
    run_s = time.perf_counter() - first_call
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"first_call": first_call, "run_s": run_s, "peak_rss_mb": peak_kb / 1024.0,
              "calls": calls, "provenance": _provenance()}
    if meshes is not None:
        result["unknowns"] = [_interior_vertices(cells, nv) for cells, nv in meshes]
    if tracer is not None:
        tracer.dump(out.parent / "spans.jsonl", first_call)
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["top_level_s"] = spans.top_level_seconds(tracer.spans)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


def _provenance() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads()}


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


if __name__ == "__main__":
    sys.exit(main())
