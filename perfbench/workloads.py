"""The four benchmark workloads: the CLI calls each round makes, and their checks.

Every workload is closed-loop with a single caller: each ``dec-lab`` call
starts only after the previous one returned.  Why each one is in the
benchmark is written up in README.md.
"""
from __future__ import annotations

import re
from pathlib import Path

from checks import (Outcome, check_affine_dump, check_consistency, check_convergence,
                    check_corner_mesh, corner_counts, interior_vertex_count,
                    parse_decmesh)

CORNER_LEVEL = 7
CONSISTENCY_KS = (0, 1, 2)
CONVERGENCE_FAMILIES = {"pentagon_convergence": "pentagon_wheel",
                        "cube_convergence": "cube_kuhn"}
# operations per round: study levels, or CLI calls of the round trip
OPERATIONS = {"pentagon_convergence": 9, "cube_convergence": 5,
              "jittered_consistency": 8 * len(CONSISTENCY_KS), "mesh_file_roundtrip": 2}
NAMES = tuple(OPERATIONS)


def commands(workload: str, seed: int, out: Path) -> list[list[str]]:
    """The argv of each ``dec-lab`` call of one round, in order."""
    if workload == "pentagon_convergence":
        return [["study", "convergence", "--family", "pentagon_wheel",
                 "--problem", "trig2d", "--levels", "9", "--out", str(out / "report.csv")]]
    if workload == "cube_convergence":
        return [["study", "convergence", "--family", "cube_kuhn",
                 "--problem", "trig3d", "--levels", "5", "--out", str(out / "report.csv")]]
    if workload == "jittered_consistency":
        return [["study", "consistency", "--family", "pentagon_wheel", "--ngon", "6",
                 "--field", "trig2d", "--levels", "8", "--jitter", "0.14",
                 "--seed", str(seed), "--k", str(k), "--out", str(out / f"report_k{k}.csv")]
                for k in CONSISTENCY_KS]
    if workload == "mesh_file_roundtrip":
        mesh = str(out / "corner.decmesh")
        return [["mesh", "gen", "--family", "corner", "--level", str(CORNER_LEVEL),
                 "--out", mesh],
                ["solve", "--mesh", mesh, "--problem", "linear2d",
                 "--out", str(out / "solution.txt")]]
    raise KeyError(workload)


def _read(path: Path) -> str | None:
    return path.read_text() if path.exists() else None


def check_round(workload: str, out: Path, calls: list[dict],
                unknowns: list[int] | None) -> list[Outcome]:
    """Outcomes of one round's operations, judged from the files it wrote.

    ``calls`` holds, per CLI call, its exit code and captured standard output.
    A call that exited non-zero has written at most a partial report, so the
    levels it lacks count as errors; levels it did write are still checked.
    """
    if workload in CONVERGENCE_FAMILIES:
        return check_convergence(CONVERGENCE_FAMILIES[workload],
                                 _read(out / "report.csv"), unknowns)
    if workload == "jittered_consistency":
        return [o for k in CONSISTENCY_KS
                for o in check_consistency(k, _read(out / f"report_k{k}.csv"))]
    gen, solve = Outcome("mesh gen"), Outcome("solve")
    mesh = None
    text = _read(out / "corner.decmesh") if calls[0]["rc"] == 0 else None
    if text is None:
        gen.fail("error", f"mesh gen exited {calls[0]['rc']}")
    else:
        try:
            mesh = parse_decmesh(text)
        except ValueError as exc:
            gen.fail("wrong", f"unreadable mesh: {exc}")
        else:
            for problem in check_corner_mesh(mesh, CORNER_LEVEL):
                gen.fail("wrong", problem)
    dump = _read(out / "solution.txt") if calls[1]["rc"] == 0 else None
    if dump is None:
        solve.fail("error", f"solve exited {calls[1]['rc']}")
    elif mesh is None:
        solve.fail("error", "no readable mesh to check the solution against")
    else:
        want = corner_counts(CORNER_LEVEL)["interior"]
        said = re.search(r"^unknowns = (\d+)$", calls[1]["stdout"], re.M)
        if said is None or int(said.group(1)) != want:
            solve.fail("wrong", f"solve reported {said and said.group(1)} unknowns, "
                                f"closed form {want}")
        if interior_vertex_count(mesh) != want:
            solve.fail("wrong", f"mesh has {interior_vertex_count(mesh)} interior vertices")
        for problem in check_affine_dump(dump, mesh):
            solve.fail("wrong", problem)
    return [gen, solve]
