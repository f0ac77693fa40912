"""Write the standard output set of the command line, and a SHA-256 manifest of it.

    python tests/output_manifest.py OUTDIR

Runs ``python -m declab.cli`` on the ``src`` beside this file, in OUTDIR and
with relative file names, with ``DECLAB_COMMIT`` fixed: two trees, or two
BLAS thread counts (``OPENBLAS_NUM_THREADS`` passes through), that compute
the same numbers write byte-identical files.  ``OUTDIR/MANIFEST`` holds one
``sha256  name`` line per file, in name order; ``diff`` two of them.

The set: the pentagon (9 levels), cube (5) and corner (7) ``--deterministic``
convergence CSVs; the jittered hexagon consistency CSVs (k = 0, 1, 2; 8
levels; seed 100); the Kuhn cube's k = 0 consistency CSV (4 levels); the
pentagon level-7, cube level-4 and corner level-6 file ``solve`` dumps; and
the corner level-6 and level-7 mesh files.

This set is the one list of outputs that must not move: CI diffs its
manifest at 1 and 2 BLAS threads and under ``MALLOC_PERTURB_``.  Some members
are the only run of their path:

- the corner level-6 file has 8,001 unknowns on level 0, so its solve is the
  only one that runs on algebraic levels alone;
- the Kuhn cube's k = 0 study is the only one through 3D dual fragments;
  k = 1 is refused there, as the cube's dual edges have no volume;
- the cube level-4 dump is the only 3D ``solve`` dump.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ["study", "convergence", "--family", "pentagon_wheel", "--problem", "trig2d",
     "--levels", "9", "--deterministic", "--out", "pentagon.csv"],
    ["study", "convergence", "--family", "cube_kuhn", "--problem", "trig3d",
     "--levels", "5", "--deterministic", "--out", "cube.csv"],
    ["study", "convergence", "--family", "corner", "--problem", "corner",
     "--levels", "7", "--deterministic", "--out", "corner.csv"],
    *[["study", "consistency", "--family", "pentagon_wheel", "--ngon", "6",
       "--field", "trig2d", "--levels", "8", "--jitter", "0.14", "--seed", "100",
       "--k", str(k), "--out", f"consistency_k{k}.csv"] for k in (0, 1, 2)],
    ["study", "consistency", "--family", "cube_kuhn", "--field", "trig3d", "--k", "0",
     "--levels", "4", "--out", "consistency_cube.csv"],
    ["mesh", "gen", "--family", "corner", "--level", "6", "--out", "corner6.decmesh"],
    ["mesh", "gen", "--family", "corner", "--level", "7", "--out", "corner7.decmesh"],
    ["solve", "--family", "pentagon_wheel", "--level", "7", "--problem", "trig2d",
     "--out", "solve_pentagon.txt"],
    ["solve", "--family", "cube_kuhn", "--level", "4", "--problem", "trig3d",
     "--out", "solve_cube.txt"],
    ["solve", "--mesh", "corner6.decmesh", "--problem", "linear2d",
     "--out", "solve_corner_file.txt"],
]


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "DECLAB_COMMIT": "manifest", "PYTHONPATH": str(SRC)}
    for argv in COMMANDS:
        subprocess.run([sys.executable, "-m", "declab.cli", *argv], cwd=out, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    names = sorted(argv[-1] for argv in COMMANDS)
    lines = [f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
             for name in names]
    (out / "MANIFEST").write_text("".join(lines))
    sys.stdout.writelines(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
