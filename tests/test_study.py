import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from declab import cli, generators, geometry, meshio, study
from declab.cli import main
from declab.dualmesh import build_dual
from declab.errors import MemoryGuardError, WellCenteredError
from declab.fields import (consistency_probe, derham_dual, derham_images,
                           laplace_consistency_probe)
from declab.generators import FamilySpec
from declab.problems import get_problem
from declab.solve import SolverConfig
from declab.study import (CONVERGENCE_COLUMNS, StudyAborted, emit, fit_rate, render,
                          run_consistency_study, run_convergence_study, to_csv,
                          to_svg_loglog, to_text_table)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pentagon_level2.decmesh")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def small_report():
    return run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 4,
                                 deterministic=True)


@pytest.mark.parametrize("spec", [FamilySpec("pentagon_wheel"), FamilySpec("corner"),
                                  *[FamilySpec("square", pattern=p) for p in (1, 2, 3)],
                                  FamilySpec("cube_kuhn")],
                         ids=lambda s: f"{s.family}{s.pattern if s.family == 'square' else ''}")
def test_max_h_is_the_shape_reports_h_bit_for_bit(spec):
    # max_h takes the square root of the largest squared edge length; the
    # report's h is the largest simplex diameter, by geometry.diameter
    for cx in study._guarded_walk(spec, 4, None):
        assert study.max_h(cx) == cx.shape_report().h, cx.num(0)


def test_max_h_is_the_shape_reports_h_bit_for_bit_on_a_jittered_hexagon():
    cx = generators.jitter_interior(
        generators.generate(FamilySpec("pentagon_wheel", 4, n_gon=6)), 0.14, seed=100)
    assert study.max_h(cx) == cx.shape_report().h


def test_csv_schema_and_row_count(small_report):
    text = to_csv(small_report)
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == ",".join(CONVERGENCE_COLUMNS)
    assert lines[0].startswith("level,h,err_max,rate_max,err_h1,rate_h1,err_l2,rate_l2,iters,seconds")
    assert len(lines) == 1 + 4


def test_study_header_names_what_shapes_the_meshes():
    # each family's header names the one option its meshes are built from
    rep = run_convergence_study(FamilySpec("pentagon_wheel", n_gon=7), "trig2d", 1)
    header = [ln for ln in to_csv(rep).splitlines() if ln.startswith("#")]
    assert "# ngon=7" in header
    assert not any(ln.startswith(("# pattern=", "# alpha=")) for ln in header)
    rep = run_convergence_study(FamilySpec("corner"), "corner", 1)
    assert rep.metadata["alpha"] == generators.DEFAULT_ALPHA
    assert "ngon" not in rep.metadata and "pattern" not in rep.metadata
    rep = run_convergence_study(FamilySpec("cube_kuhn"), "trig3d", 1)
    assert not {"ngon", "pattern", "alpha"} & set(rep.metadata)
    # a mesh file is named by its path and the SHA-256 of its bytes
    rep = run_consistency_study(FamilySpec("from_file", path=FIXTURE), "trig2d", 0, 1)
    with open(FIXTURE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert rep.metadata["mesh"] == FIXTURE
    assert rep.metadata["mesh_sha256"] == digest
    assert "ngon" not in rep.metadata


@pytest.mark.parametrize("run", [
    lambda: run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 6,
                                  deterministic=True),
    *[lambda k=k: run_consistency_study(FamilySpec("pentagon_wheel", n_gon=6), "trig2d", k, 5,
                                        jitter=0.14, seed=100) for k in (0, 1, 2)],
], ids=["pentagon", "jittered_k0", "jittered_k1", "jittered_k2"])
def test_study_csvs_do_not_depend_on_the_block_size(monkeypatch, run):
    # 2^12 nodes split the finer levels' refinement, dual and deRham passes
    # into many blocks; 2^16 is the default
    monkeypatch.setenv("DECLAB_COMMIT", "blocks")
    csvs = []
    for block_nodes in (1 << 12, 1 << 16):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        csvs.append(render(run(), "csv"))
    assert csvs[0] == csvs[1]


def test_deterministic_runs_emit_identical_bytes():
    a = run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 3,
                              deterministic=True)
    b = run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 3,
                              deterministic=True)
    assert to_csv(a) == to_csv(b)
    assert to_svg_loglog(a) == to_svg_loglog(b)


def test_rates_recompute_from_emitted_errors(small_report):
    for err_col, rate_col in (("err_max", "rate_max"), ("err_h1", "rate_h1"),
                              ("err_l2", "rate_l2")):
        errs = small_report.column(err_col)
        rates = small_report.column(rate_col)
        for i in range(1, len(errs)):
            if rates[i] is None:
                continue
            assert rates[i] == pytest.approx(math.log2(errs[i - 1] / errs[i]),
                                             abs=1e-9)


def test_svg_contains_reference_slopes(small_report):
    svg = to_svg_loglog(small_report)
    assert "slope 1" in svg and "slope 2" in svg
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_text_table_alternates_error_and_rate_columns(small_report):
    text = to_text_table(small_report)
    header = text.strip().split("\n")[1].split()
    assert header[2:8] == ["err_max", "rate_max", "err_h1", "rate_h1",
                           "err_l2", "rate_l2"]


def test_text_table_footer_fits_each_error_column(small_report):
    footer = to_text_table(small_report).strip().split("\n")[-1].split()
    assert footer[:7] == ["fitted", "rate", "over", "the", "last", "4", "levels:"]
    fits = dict(zip(footer[7::2], map(float, footer[8::2])))
    assert list(fits) == ["err_max", "err_h1", "err_l2"]
    for col, rate in fits.items():
        assert rate == pytest.approx(fit_rate(small_report.column(col)), abs=5e-5)


def test_emit_writes_files(tmp_path, small_report):
    for fmt, suffix in (("csv", "csv"), ("svg_loglog", "svg"), ("text_table", "txt")):
        p = tmp_path / f"report.{suffix}"
        emit(small_report, fmt, p)
        assert p.stat().st_size > 0
    with pytest.raises(ValueError, match="unknown format"):
        emit(small_report, "pdf", tmp_path / "x")


@pytest.mark.parametrize("family", ["pentagon_wheel", "cube_kuhn"])
def test_walk_levels_duals_keep_only_what_a_solve_reads(family):
    bundle = get_problem("trig2d" if family == "pentagon_wheel" else "trig3d")
    for cx, dual, _ in study.walk_levels(FamilySpec(family), 3):
        # the circumcenters are let go, the record carried to the next level
        # is the walk's, and a top cell's dual volume, 1, is a view of one float
        assert dual.circumcenters is None and dual.record is None
        top = dual.volumes[cx.dim]
        assert top.shape == (cx.num(cx.dim),) and top.strides == (0,) and np.all(top == 1.0)
        with pytest.raises(ValueError, match="no circumcenters: study.walk_levels let them go"):
            derham_dual([bundle.u], dual)
        # the volumes still make a solve
        assert study.solve_level(cx, dual, bundle, SolverConfig(), [])[0].residual <= 1e-12


def test_memory_guard_refuses_large_levels():
    with pytest.raises(MemoryGuardError, match="unknowns"):
        run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 9,
                              max_unknowns=1000)


@pytest.mark.parametrize("run", [
    lambda spec, cap: run_convergence_study(spec, "trig2d", 6, max_unknowns=cap),
    lambda spec, cap: run_consistency_study(spec, "trig2d", 0, 6, max_unknowns=cap),
], ids=["convergence", "consistency"])
def test_memory_guard_refuses_before_level_zero(monkeypatch, run):
    # level 4 has 601 unknowns, level 5 has 2481: the guard reads both off level 0,
    # which is built once, before anything is refined, dualized or solved
    generated, refined, duals = [], [], []
    generate = generators.generate
    monkeypatch.setattr(generators, "generate",
                        lambda spec: generated.append(spec) or generate(spec))
    monkeypatch.setattr(generators, "refine", refined.append)
    monkeypatch.setattr(study, "build_dual", duals.append)
    with pytest.raises(MemoryGuardError, match="level 5 of pentagon_wheel has ~2481"):
        run(FamilySpec("pentagon_wheel"), 1000)
    assert generated == [FamilySpec("pentagon_wheel")]
    assert refined == [] and duals == []


@pytest.mark.parametrize("run", [
    lambda spec: run_convergence_study(spec, "trig2d", 2),
    lambda spec: run_consistency_study(spec, "trig2d", 0, 3),
], ids=["convergence", "consistency"])
def test_study_on_a_mesh_file_reads_it_once(monkeypatch, run):
    calls = []
    load = meshio.load
    monkeypatch.setattr(meshio, "load", lambda *a, **kw: calls.append(a) or load(*a, **kw))
    run(FamilySpec("from_file", path=FIXTURE))
    assert len(calls) == 1


def test_memory_guard_covers_studies_on_a_mesh_file(monkeypatch):
    # the fixture's levels 0-2 have 31, 141 and 601 unknowns
    solves = []
    monkeypatch.setattr(study, "solve", lambda *args: solves.append(args))
    with pytest.raises(MemoryGuardError, match="level 0 of from_file has ~31 unknowns"):
        main(["study", "convergence", "--mesh", FIXTURE, "--problem", "trig2d",
              "--levels", "3", "--max-unknowns", "10", "--debug"])
    assert solves == []


@pytest.mark.parametrize("family", [
    ["--family", "corner", "--field", "corner"],
    ["--family", "square", "--pattern", "1", "--field", "trig2d"],
], ids=["corner", "square1"])
def test_consistency_study_leaves_laplace_cells_empty_without_interior(tmp_path, family):
    # level 0 of both families has every vertex on the boundary
    out = tmp_path / "r.csv"
    assert main(["study", "consistency", *family, "--k", "0", "--levels", "3",
                 "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert [row["level"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        lap = [row[c] for c in ("lap_total", "term1", "term2")]
        assert (lap == ["", "", ""]) == (row["level"] == "0"), row


def test_aborted_study_keeps_partial_report():
    with pytest.raises(StudyAborted) as info:
        run_convergence_study(FamilySpec("pentagon_wheel"), "trig2d", 6,
                              SolverConfig(max_iterations=2))
    assert len(info.value.report.rows) >= 1  # coarse levels may converge in 2 steps


@pytest.fixture
def cube_file(tmp_path):
    mesh = tmp_path / "cube.decmesh"
    assert main(["mesh", "gen", "--family", "cube_kuhn", "--out", str(mesh)]) == 0
    return str(mesh)


def test_a_saved_cube_studies_as_the_family(cube_file):
    # both walks refine the same level-0 mesh, so every row is the same to the byte
    def rows(spec):
        text = to_csv(run_convergence_study(spec, "trig3d", 4, deterministic=True))
        return [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows(FamilySpec("from_file", path=cube_file)) == rows(FamilySpec("cube_kuhn"))


def test_the_guard_counts_every_level_of_a_mesh_file(cube_file, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the guard must refuse before any solve")
    monkeypatch.setattr(study, "solve", no_solve)
    # the cap 1 lies between the file's level-0 (1) and level-1 (27) counts
    with pytest.raises(MemoryGuardError, match=r"^level 1 of from_file has ~27 unknowns"):
        run_convergence_study(FamilySpec("from_file", path=cube_file), "trig3d", 2,
                              max_unknowns=1)


def test_consistency_study_columns_and_lap_block():
    rep = run_consistency_study(FamilySpec("pentagon_wheel"), "trig2d", 0, 3,
                                degree=4)
    assert rep.rows and "lap_total" in rep.rows[-1]
    rep1 = run_consistency_study(FamilySpec("pentagon_wheel"), "trig2d", 1, 3,
                                 degree=4)
    assert "lap_total" not in rep1.rows[-1]
    assert rep1.metadata["k"] == 1


def test_consistency_study_rows_are_the_probes_alone():
    # a k = 0 level shares u's deRham passes with f; the probes fed by passes
    # of each field alone make the same numbers bit for bit
    spec, bundle = FamilySpec("pentagon_wheel", n_gon=6), get_problem("trig2d")
    rep = run_consistency_study(spec, bundle, 0, 3, jitter=0.14, seed=5)
    for i, row in enumerate(rep.rows):
        cx = generators.jitter_interior(generators.generate(replace(spec, level=i)),
                                        amplitude=0.14, seed=5 + i)
        dual = build_dual(cx)
        [u_images] = derham_images([bundle.u], cx, dual)
        [f_images] = derham_images([bundle.f], cx, dual)
        rec = consistency_probe(u_images, cx, dual, interior_l2=True)
        lap = laplace_consistency_probe(bundle, cx, dual, [u_images, f_images])
        assert (row["err_max"], row["err_l2"], row["err_dual"]) == (
            rec.err_max, rec.err_l2_primal_side, rec.err_max_dual_side)
        assert (row["lap_total"], row["term1"], row["term2"], row["identity_gap"]) == (
            lap.total_max, lap.term1_max, lap.term2_max, lap.identity_gap)


def test_other_wheel_sizes_converge_at_second_order():
    # hexagon through octagon wheels share the pentagon asymptotics
    for n in (6, 8):
        rep = run_convergence_study(FamilySpec("pentagon_wheel", n_gon=n),
                                    "trig2d", 5)
        assert abs(rep.rows[-1]["rate_l2"] - 2.0) <= 0.1, n


def test_cli_solve_3d(capsys):
    rc = main(["solve", "--family", "cube_kuhn", "--level", "0",
               "--problem", "trig3d"])
    assert rc == 0
    assert "err_max" in capsys.readouterr().out


def test_fit_rate_helper():
    errs = [16.0, 4.0, 1.0, 0.25]
    assert fit_rate(errs) == pytest.approx(2.0)
    assert math.isnan(fit_rate([1.0]))


# -- CLI ------------------------------------------------------------------------


def test_cli_mesh_roundtrip(tmp_path, capsys):
    out = tmp_path / "m.decmesh"
    assert main(["mesh", "gen", "--family", "pentagon_wheel", "--level", "1",
                 "--out", str(out)]) == 0
    assert out.exists()
    fine = tmp_path / "m2.decmesh"
    assert main(["mesh", "refine", "--mesh", str(out), "--out", str(fine)]) == 0
    assert main(["mesh", "report", "--mesh", str(fine)]) == 0
    captured = capsys.readouterr().out
    assert "well_centered = strict" in captured
    assert "star_bound" in captured


def test_cli_solve_and_dump(tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    rc = main(["solve", "--family", "pentagon_wheel", "--level", "2",
               "--problem", "trig2d", "--out", str(sol)])
    assert rc == 0
    assert "err_max" in capsys.readouterr().out
    assert sol.read_text().startswith("solution mesh=")
    assert f"commit={study.commit_stamp()}\n" in sol.read_text()


def test_cli_convergence_study(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["study", "convergence", "--family", "pentagon_wheel",
               "--problem", "trig2d", "--levels", "3", "--deterministic",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "level,h,err_max" in text


def test_cli_consistency_study(tmp_path):
    out = tmp_path / "cons.csv"
    rc = main(["study", "consistency", "--family", "pentagon_wheel",
               "--field", "trig2d", "--k", "0", "--levels", "3",
               "--degree", "4", "--out", str(out)])
    assert rc == 0
    assert "err_dual" in out.read_text()


def test_cli_solve_from_mesh_file(tmp_path, capsys):
    mesh = tmp_path / "m.decmesh"
    assert main(["mesh", "gen", "--family", "pentagon_wheel", "--level", "2",
                 "--out", str(mesh)]) == 0
    rc = main(["solve", "--mesh", str(mesh), "--problem", "trig2d"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "unknowns = 31" in out


def test_cli_convergence_study_from_mesh_file(small_report, capsys):
    # the fixture is pentagon level 2, so its levels 0-1 are pentagon levels 2-3
    rc = main(["study", "convergence", "--mesh", FIXTURE, "--problem", "trig2d",
               "--levels", "2", "--deterministic"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    for row, want in zip(rows, small_report.rows[2:4]):
        for col in ("h", "err_max", "err_h1", "err_l2"):
            assert row[col] == f"{want[col]:.9e}", col


def test_cli_solve_from_mesh_file_honours_level(capsys):
    rc = main(["solve", "--mesh", FIXTURE, "--level", "1", "--problem", "trig2d"])
    assert rc == 0
    assert "unknowns = 141" in capsys.readouterr().out  # pentagon level 3


@pytest.mark.parametrize("source,spec,level", [
    (["--family", "pentagon_wheel"], FamilySpec("pentagon_wheel"), 6),
    (["--mesh", FIXTURE], FamilySpec("from_file", path=FIXTURE), 1),
])
def test_cli_solve_matches_the_study_row_of_its_level(source, spec, level, capsys):
    # the single solve walks the study's hierarchy, so it takes the V-cycle and
    # lands on the study's iterate
    row = run_convergence_study(spec, "trig2d", level + 1, deterministic=True).rows[level]
    assert main(["solve", *source, "--level", str(level), "--problem", "trig2d"]) == 0
    printed = dict(re.findall(r"(\w+) = (\S+)", capsys.readouterr().out))
    assert int(printed["iterations"]) == row["iters"] <= 20
    for col in ("err_max", "err_h1", "err_l2"):
        assert printed[col] == f"{row[col]:.6e}", col


def test_cli_svg_without_out_prints_svg(capsys):
    rc = main(["study", "convergence", "--family", "pentagon_wheel",
               "--problem", "trig2d", "--levels", "2", "--deterministic",
               "--format", "svg_loglog"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_cli_solve_refuses_above_max_unknowns(monkeypatch, capsys):
    # levels 0-3 of the wheel have 1, 6, 31 and 141 unknowns: the guard reads
    # them off level 0 and refuses level 2 before anything is refined
    refined, duals = [], []
    monkeypatch.setattr(generators, "refine", refined.append)
    monkeypatch.setattr(study, "build_dual", duals.append)
    assert main(["solve", "--family", "pentagon_wheel", "--level", "3",
                 "--problem", "trig2d", "--max-unknowns", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and refined == [] and duals == []
    assert err == ("error: level 2 of pentagon_wheel has ~31 unknowns, above the cap 10; "
                   "raise max_unknowns (--max-unknowns) to proceed\n")


def _python(*args: str, cwd=None) -> str:
    """Standard output of a fresh ``python args`` on this checkout's ``src``."""
    env = dict(os.environ, DECLAB_COMMIT="allocator", PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_outputs_do_not_depend_on_the_allocator_policy(tmp_path):
    # cli.main keeps freed heap pages mapped, so np.empty hands out reused
    # blocks instead of fresh zero pages: a read before a write would differ
    library = ("import sys\n"
               "from declab.generators import FamilySpec\n"
               "from declab.study import emit, run_consistency_study\n"
               "emit(run_consistency_study(FamilySpec('pentagon_wheel', n_gon=6), 'trig2d', 0, 8,\n"
               "                           jitter=0.14, seed=100), 'csv', sys.argv[1])\n"
               "assert 'declab.cli' not in sys.modules\n")
    _python("-c", library, "library.csv", cwd=tmp_path)
    _python("-m", "declab.cli", "study", "consistency", "--family", "pentagon_wheel",
            "--ngon", "6", "--field", "trig2d", "--levels", "8", "--jitter", "0.14",
            "--seed", "100", "--k", "0", "--out", "cli.csv", cwd=tmp_path)
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy sets glibc's mallopt thresholds")
def test_cli_keeps_freed_heap_pages_mapped():
    # one freed 2 MiB block lifts glibc's dynamic thresholds to about 2 and 4 MiB,
    # so four freed 1.5 MiB blocks are trimmed and faulted in again each round
    loop = ("import contextlib, io, resource, sys\n"
            "import numpy as np\n"
            "from declab import cli\n"
            "if sys.argv[1] == 'policy':\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(['mesh', 'report', '--family', 'pentagon_wheel'])\n"
            "np.ones(1 << 18)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    blocks = [np.ones(196_608) for _ in range(4)]\n"
            "    del blocks\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    faults = {arm: int(_python("-c", loop, arm)) for arm in ("default", "policy")}
    assert faults["policy"] * 10 <= faults["default"], faults


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert main(["mesh", "report", "--family", "corner", "--alpha", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["study", "convergence", "--family", "pentagon_wheel",
               "--problem", "trig2d", "--levels", "9", "--max-unknowns", "100"])
    assert rc == 1
    capsys.readouterr()
    # a study of no levels is refused, not reported empty
    for argv in (["convergence", "--problem", "trig2d", "--levels", "0"],
                 ["consistency", "--field", "trig2d", "--levels", "-2"]):
        assert main(["study", *argv, "--family", "pentagon_wheel"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: levels must be >= 1")


def test_consistency_study_refuses_a_degree_out_of_range():
    for k in (-1, 3):
        with pytest.raises(ValueError, match="k out of range for dimension 2"):
            run_consistency_study(FamilySpec("pentagon_wheel"), "trig2d", k, 2)


def test_cli_solve_stops_at_max_iterations(capsys):
    assert main(["solve", "--family", "pentagon_wheel", "--level", "3", "--problem", "trig2d",
                 "--max-iterations", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: conjugate gradients did not reach tol=1e-12 within 1 iterations")


def test_cli_convergence_study_writes_its_tolerance(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["study", "convergence", "--family", "pentagon_wheel", "--problem", "trig2d",
                 "--levels", "2", "--tol", "1e-6", "--out", str(out)]) == 0
    assert "# tolerance=1e-06\n" in out.read_text()


def test_cli_full_l2_exceeds_the_interior_l2_at_every_level(tmp_path):
    # the boundary dual cells' slowly decaying layer: 1.05 to 154 times the
    # interior error on these five levels
    def err_l2(k, *flags):
        out = tmp_path / f"k{k}{len(flags)}.csv"
        assert main(["study", "consistency", "--family", "pentagon_wheel", "--ngon", "6",
                     "--field", "trig2d", "--levels", "5", "--jitter", "0.14", "--seed", "100",
                     "--k", str(k), "--out", str(out), *flags]) == 0
        text = out.read_text()
        assert f"# interior_l2={not flags}\n" in text
        rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
        column = rows[0].index("err_l2")
        return np.array([float(row[column]) for row in rows[1:]])

    for k in (0, 1):
        full, interior = err_l2(k, "--full-l2"), err_l2(k)
        assert len(full) == 5 and np.all(full > interior), k


def test_cli_study_levels_default_to_the_problem_dimension(cube_file, monkeypatch, capsys):
    # a saved cube studies as its family: 5 levels, not the 9 of a 2D study
    asked = []

    def record(spec, problem, levels, *args, **kwargs):
        asked.append(levels)
        return study.StudyReport({}, [])

    monkeypatch.setattr(cli, "run_convergence_study", record)
    for source, problem in ((["--mesh", cube_file], "trig3d"),
                            (["--family", "cube_kuhn"], "trig3d"),
                            (["--mesh", FIXTURE], "trig2d"),
                            (["--family", "pentagon_wheel"], "trig2d")):
        assert main(["study", "convergence", *source, "--problem", problem]) == 0
    assert asked == [5, 5, 9, 9]


@pytest.mark.parametrize("family,problem,dims", [
    ("cube_kuhn", "trig2d", (2, 3)),
    ("pentagon_wheel", "trig3d", (3, 2)),
])
def test_cli_refuses_a_problem_of_another_dimension(family, problem, dims, capsys):
    assert main(["solve", "--family", family, "--level", "1", "--problem", problem]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: problem {problem} lives in R^{dims[0]}, complex in R^{dims[1]}\n"


def test_cli_aborted_study_writes_partial_report(tmp_path, capsys):
    # the strong jitter leaves level 2 off-centered
    out = tmp_path / "r.csv"
    argv = ["study", "consistency", "--family", "pentagon_wheel", "--ngon", "6",
            "--field", "trig2d", "--k", "1", "--levels", "4", "--degree", "2",
            "--jitter", "0.3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("study aborted: level 2 failed")
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1"]
    out.unlink()
    with pytest.raises(StudyAborted) as info:
        main(argv + ["--debug"])
    assert isinstance(info.value.__cause__, WellCenteredError)
    assert out.read_text().splitlines()[-1].startswith("1,")


def test_cli_debug_raises_instead_of_one_line_error(tmp_path, capsys):
    argv = ["solve", "--mesh", str(tmp_path / "missing.decmesh"), "--problem", "trig2d"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(FileNotFoundError):
        main(argv + ["--debug"])
