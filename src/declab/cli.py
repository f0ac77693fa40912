"""Command line interface.

    dec-lab mesh gen|refine|report ...
    dec-lab solve ...
    dec-lab study convergence|consistency ...

Exit code 0 only when every requested level completed; aborted studies still
emit the partial report when --out is given.  Errors print one line, or, with
--debug, propagate with their traceback.

The command line owns its process, so ``main`` first fixes glibc's heap
policy for it (``_keep_freed_pages``): allocations up to 32 MiB come from the
heap, and up to 64 MiB of freed heap stays mapped.  Under glibc's dynamic
thresholds each row block's few MB of freed temporaries went back to the
kernel, and the next block faulted them in again as zeroed pages: the three
jittered hexagon consistency studies (k = 0, 1, 2; 8 levels), run in one
process, took 84,000-87,000 minor faults and 0.16-0.20 s of system time,
against about 6,100 and 0.015 s with the fixed thresholds.  The cost is that
resident memory no longer falls between levels, up to the 64 MiB trim
threshold; measured peaks did not move.  No output changes, and
``import declab`` sets nothing.
"""
from __future__ import annotations

import argparse
import ctypes
import sys

from . import generators, meshio, study
from .generators import FamilySpec
from .problems import PROBLEMS, get_problem
from .solve import SolverConfig, dump_solution
from .study import StudyAborted, emit, render, run_consistency_study, run_convergence_study


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Serve blocks up to 32 MiB from the heap and keep up to 64 MiB of it
    mapped when freed.  Does nothing where the C library has no ``mallopt``
    (macOS, Windows); musl's returns 0 and changes nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _add_family_args(p: argparse.ArgumentParser, with_level: bool = True):
    p.add_argument("--family", required=False,
                   choices=[f for f in generators.FAMILIES if f != "from_file"],
                   help="mesh family")
    if with_level:
        p.add_argument("--level", type=int, default=0, help="refinement level")
    p.add_argument("--ngon", type=int, default=5, help="wheel size for pentagon_wheel")
    p.add_argument("--pattern", type=int, default=1, help="square pattern id (1..3)")
    p.add_argument("--alpha", type=float, default=generators.DEFAULT_ALPHA,
                   help="re-entrant corner angle in radians")
    p.add_argument("--mesh", help="start from this decmesh file instead of a family")


def _family_spec(args, level: int | None = None) -> FamilySpec:
    level = args.level if level is None else level
    if args.mesh:
        return FamilySpec("from_file", level, path=args.mesh)
    if args.family is None:
        raise SystemExit("--family is required unless --mesh is given")
    return FamilySpec(args.family, level, n_gon=args.ngon, pattern=args.pattern,
                      alpha=args.alpha)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dec-lab",
                                 description="discrete exterior calculus workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--debug", action="store_true",
                        help="raise errors with their traceback instead of a one-line message")
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--max-unknowns", type=int, default=study.DEFAULT_UNKNOWN_CAP,
                       help="refuse, before refining, any level with more interior vertices")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="report path (defaults to stdout)")
    output.add_argument("--format", choices=["csv", "svg_loglog", "text_table"], default="csv")
    sub = ap.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="generate, refine, or audit meshes")
    msub = mesh.add_subparsers(dest="action", required=True)
    for action in ("gen", "refine", "report"):
        mp = msub.add_parser(action, parents=[common])
        _add_family_args(mp)
        if action != "report":
            mp.add_argument("--out", required=True, help="output mesh file")

    sv = sub.add_parser("solve", parents=[common, guard], help="solve one Dirichlet problem")
    _add_family_args(sv)
    sv.add_argument("--problem", required=True,
                    choices=list(PROBLEMS))
    sv.add_argument("--mu", type=float, default=0.625, help="corner exponent")
    sv.add_argument("--tol", type=float, default=1e-12)
    sv.add_argument("--max-iterations", type=int, default=100_000)
    sv.add_argument("--out", help="solution dump path")

    st = sub.add_parser("study", help="convergence / consistency studies")
    ssub = st.add_subparsers(dest="kind", required=True)

    conv = ssub.add_parser("convergence", parents=[common, guard, output])
    _add_family_args(conv, with_level=False)
    conv.add_argument("--problem", required=True,
                      choices=list(PROBLEMS))
    conv.add_argument("--mu", type=float, default=0.625)
    conv.add_argument("--levels", type=int, default=None,
                      help="defaults to 9 in 2D, 5 in 3D")
    conv.add_argument("--tol", type=float, default=1e-12)
    conv.add_argument("--deterministic", action="store_true",
                      help="write zero wall times for byte-identical reruns")

    cons = ssub.add_parser("consistency", parents=[common, guard, output])
    _add_family_args(cons, with_level=False)
    cons.add_argument("--field", required=True,
                      choices=list(PROBLEMS))
    cons.add_argument("--k", type=int, default=0, help="form degree to probe")
    cons.add_argument("--levels", type=int, default=6)
    cons.add_argument("--degree", type=int, default=6, help="quadrature degree")
    cons.add_argument("--jitter", type=float, default=0.0,
                      help="interior vertex jitter amplitude (fraction of local edge)")
    cons.add_argument("--seed", type=int, default=0)
    cons.add_argument("--full-l2", action="store_true",
                      help="include boundary cells in the L2 norms")
    return ap


def _emit_or_print(report, args) -> None:
    if args.out:
        emit(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    else:
        sys.stdout.write(render(report, args.format))


def main(argv=None) -> int:
    _keep_freed_pages()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mesh":
            cx = generators.generate(_family_spec(args))
            if args.action == "refine":
                cx = generators.refine(cx)
            if args.action == "report":
                rep = cx.shape_report()
                print(f"cells: " + " ".join(f"{k}:{cx.num(k)}" for k in range(cx.dim + 1)))
                print(f"h = {rep.h:.9g}")
                print(f"gamma_min = {rep.gamma_min:.9g}")
                print(f"c_reg = {rep.c_reg:.9g}")
                print(f"star_bound = {rep.star_bound}")
                print(f"well_centered = {rep.well_centered}")
            else:
                meshio.save(cx, args.out)
                print(f"wrote {args.out}")
            return 0
        if args.command == "solve":
            spec = _family_spec(args)
            bundle = get_problem(args.problem, args.mu)
            # the coarser levels give the V-cycle its prolongations and the
            # dual its carried circumcenters, as in the study
            config = SolverConfig(tol=args.tol, max_iterations=args.max_iterations)
            for cx, dual, prolongations in study.walk_levels(spec, spec.level + 1,
                                                             args.max_unknowns):
                if len(prolongations) == spec.level:
                    rep, err = study.solve_level(cx, dual, bundle, config, prolongations)
                del dual
            print(f"unknowns = {len(cx.interior_vertex_indices())}")
            print(f"iterations = {rep.iterations}  residual = {rep.residual:.3e}")
            print(f"energy = {rep.energy:.9e}  stability = {rep.stability_constant:.6f}")
            print(f"err_max = {err.max:.6e}  err_h1 = {err.h1:.6e}  err_l2 = {err.l2:.6e}")
            if args.out:
                dump_solution(args.out, rep.solution, args.mesh or args.family,
                              bundle.name, spec.level, study.commit_stamp())
                print(f"wrote {args.out}")
            return 0
        # studies
        spec = _family_spec(args, level=0)
        try:
            if args.kind == "convergence":
                bundle = get_problem(args.problem, args.mu)
                levels = args.levels
                if levels is None:
                    levels = 5 if bundle.dim == 3 else 9
                rep = run_convergence_study(
                    spec, bundle, levels, SolverConfig(tol=args.tol),
                    max_unknowns=args.max_unknowns, deterministic=args.deterministic)
            else:
                rep = run_consistency_study(
                    spec, args.field, args.k, args.levels, degree=args.degree,
                    jitter=args.jitter, seed=args.seed,
                    interior_l2=not args.full_l2, max_unknowns=args.max_unknowns)
        except StudyAborted as aborted:
            print(f"study aborted: {aborted}", file=sys.stderr)
            if args.out:
                emit(aborted.report, args.format, args.out)
                print(f"wrote partial report to {args.out}", file=sys.stderr)
            if args.debug:
                raise
            return 1
        _emit_or_print(rep, args)
        return 0
    except Exception as exc:  # surface a clean one-line error
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
