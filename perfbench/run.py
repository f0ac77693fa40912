"""dec-lab benchmark: run one workload for a while, check it, print its metrics.

    python3 perfbench/run.py --workload pentagon_convergence [--seed 100]
                             [--seconds 15] [--trace 0|1]

Run from the root of a checkout; declab is imported from its ``src``.  Each
round is one fresh worker process (worker.py) running the workload's CLI
calls, exactly as a user's ``dec-lab`` process would.  Rounds repeat until
``--seconds`` have passed (at least one), and every round's outputs are
checked (checks.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``run_s`` and
  ``peak_rss_mb``, each the median over rounds (set-up also over
  ``SETUP_PROBES`` extra processes that stop before their first call, started
  before and after the rounds so that they sample the whole run).
* ``--trace 1``: rounds alternate untraced and traced; the per-layer metrics
  are medians over the traced rounds, and ``trace.overhead_s`` is the traced
  minus the untraced median run time.

Workers run with one BLAS thread: on a 2-CPU machine the default of two
OpenBLAS threads stalled single solve levels by 0.1-0.7 s now and then.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6          # half before the rounds, half after
DEADLINE_S = 170          # the whole run, set-up probes included, ends before this
MIN_TOP_LEVEL_SHARE = 0.99
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: ("s" if name.endswith("_s") else "bytes" if name == "meshio.bytes" else "count")
       for name in spans.LAYER_METRICS},
    "study.finest_level_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_share": "ratio",
}


class Worker:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, out: Path, deadline: float):
        self.workload, self.seed, self.out, self.deadline = workload, seed, out, deadline
        self.env = {**os.environ, **THREAD_ENV}

    def spawn(self, *flags: str) -> tuple[float, dict | None]:
        """(clock reading at spawn, the worker's JSON result or None)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(self.out), *flags]
        timeout = max(1.0, self.deadline - time.perf_counter())
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {' '.join(flags)} timed out after {timeout:.0f} s", file=sys.stderr)
            return spawned, None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited {proc.returncode}", file=sys.stderr)
            return spawned, None
        return spawned, json.loads(lines[-1])

    def round(self, traced: bool) -> tuple[float, dict | None, list]:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        spawned, res = self.spawn(*(["--trace"] if traced else []))
        if res is None:
            outcomes = [workloads.Outcome(f"operation {i}", "error", ["worker failed"])
                        for i in range(workloads.OPERATIONS[self.workload])]
        else:
            outcomes = workloads.check_round(self.workload, self.out, res["calls"],
                                             res.get("unknowns"))
        return spawned, res, outcomes


def commit_of(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "declab" / "cli.py").is_file():
        print(f"no declab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = Worker(args.workload, args.seed, base / "out", started + DEADLINE_S)
    setup, plain, traced = [], [], []

    def probe_setup():
        for _ in range(SETUP_PROBES // 2):
            spawned, res = worker.spawn("--setup-only")
            if res is not None:
                setup.append(res["first_call"] - spawned)

    if not args.trace:
        probe_setup()
    attempted = failed = 0
    wrong: list[str] = []
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for is_traced in ((False, True) if args.trace else (False,)):
            spawned, res, outcomes = worker.round(is_traced)
            attempted += len(outcomes)
            for o in outcomes:
                if o.status != "ok":
                    failed += 1
                    print(f"{o.status}: {o.label}: {'; '.join(o.problems)}", file=sys.stderr)
                if o.status == "wrong":
                    wrong.append(o.label)
            if res is not None:
                (traced if is_traced else plain).append(res)
                if not is_traced:
                    setup.append(res["first_call"] - spawned)
        now = time.perf_counter()
        if now - loop_start >= args.seconds or \
                now + (now - round_start) > started + DEADLINE_S:
            break
    if not args.trace:
        probe_setup()
    if not plain or (args.trace and not traced):
        print("no round produced a result", file=sys.stderr)
        return 1

    run_s = statistics.median(r["run_s"] for r in plain)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER_UNITS if not name.startswith("trace.")}
        values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - run_s
        share = statistics.median(r["top_level_s"] / r["run_s"] for r in traced)
        values["trace.top_level_share"] = share
        if share < MIN_TOP_LEVEL_SHARE:
            wrong.append(f"top-level spans cover {share:.4f} of the traced run time")
        units = PER_LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(setup), "run_s": run_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        units = END_TO_END_UNITS

    provenance = {"commit": commit_of(ROOT), **plain[0]["provenance"],
                  "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                  "thread_env": THREAD_ENV, "workload": args.workload, "seed": args.seed,
                  "argv": sys.argv, "rounds": len(plain), "traced_rounds": len(traced),
                  "setup_samples": len(setup)}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    (base / "provenance.json").write_text(json.dumps(provenance, indent=1) + "\n")
    (base / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    for name in units:
        print(f"{name:32s} {values[name]:>16.6f} {units[name]}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
