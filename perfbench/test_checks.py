"""Self-tests of the benchmark's checks: each accepts a correct output and
rejects a slightly wrong one.

    python3 -m pytest perfbench/test_checks.py
"""
import math

import pytest

import checks


def _csv(columns, rows):
    def fmt(v):
        return "" if v is None else f"{v:.9e}" if isinstance(v, float) else str(v)
    lines = ["# study=synthetic", ",".join(columns)]
    lines += [",".join(fmt(r.get(c)) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def _with_rates(rows, pairs):
    for i, row in enumerate(rows):
        for err, rate in pairs:
            row[rate] = None if i == 0 else math.log2(rows[i - 1][err] / row[err])
    return rows


def convergence_report(family, shift=None):
    """A report that meets every check, built from the reference table;
    ``shift=(level, column, delta)`` moves one entry."""
    spec = checks.CONVERGENCE[family]
    ref = dict(spec["reference"])
    if 0 not in ref:
        ref[0] = tuple(4 * e for e in ref[1])
    rows = [{"level": i, "h": spec["h0"] / 2 ** i, "err_max": ref[i][0],
             "err_h1": ref[i][1], "err_l2": ref[i][2], "iters": 10, "seconds": 0.0}
            for i in range(spec["levels"])]
    rows = _with_rates(rows, [(f"err_{n}", f"rate_{n}") for n in checks.NORMS])
    if shift:
        level, column, delta = shift
        rows[level][column] += delta
    columns = ["level", "h", "err_max", "rate_max", "err_h1", "rate_h1", "err_l2",
               "rate_l2", "iters", "seconds"]
    unknowns = [spec["unknowns"](i) for i in range(spec["levels"])]
    return _csv(columns, rows), unknowns


def statuses(outcomes):
    return {o.label: o.status for o in outcomes if o.status != "ok"}


@pytest.mark.parametrize("family", sorted(checks.CONVERGENCE))
def test_convergence_report_passes(family):
    text, unknowns = convergence_report(family)
    assert statuses(checks.check_convergence(family, text, unknowns)) == {}


@pytest.mark.parametrize("family,level,column", [
    ("pentagon_wheel", 7, "rate_h1"), ("pentagon_wheel", 3, "rate_max"),
    ("cube_kuhn", 4, "rate_l2"), ("cube_kuhn", 2, "rate_h1")])
def test_rate_shifted_by_a_tenth_is_rejected(family, level, column):
    text, unknowns = convergence_report(family, shift=(level, column, 0.1))
    assert statuses(checks.check_convergence(family, text, unknowns)) == \
        {f"level {level}": "wrong"}


def test_h_not_halved_and_wrong_unknowns_are_rejected():
    text, unknowns = convergence_report("pentagon_wheel", shift=(5, "h", 1e-7))
    unknowns[8] -= 1
    assert statuses(checks.check_convergence("pentagon_wheel", text, unknowns)) == \
        {"level 5": "wrong", "level 6": "wrong", "level 8": "wrong"}


def test_missing_levels_are_errors():
    text, unknowns = convergence_report("cube_kuhn")
    partial = "\n".join(text.splitlines()[:-2]) + "\n"     # levels 3 and 4 missing
    assert statuses(checks.check_convergence("cube_kuhn", partial, unknowns)) == \
        {"level 3": "error", "level 4": "error"}
    assert set(statuses(checks.check_convergence("cube_kuhn", None, None)).values()) \
        == {"error"}


def consistency_report(k, l2_shift=0.0, term2_rate=1.0):
    """Errors decaying at the rates the method predicts; ``l2_shift`` tilts
    the fitted interior-L2 rate over the last four levels."""
    rows = []
    for i in range(checks.CONSISTENCY_LEVELS):
        tilt = l2_shift * max(0, i - 4)
        rows.append({"level": i, "h": 0.5 ** i, "err_max": 0.3 * 4.0 ** -i,
                     "err_l2": 0.2 * 2.0 ** -(i + tilt), "err_dual": 0.1 * 2.0 ** -i,
                     "lap_total": 0.5 + 0.01 * i, "term1": 0.4 + 0.01 * i,
                     "term2": 0.3 * 2.0 ** -(term2_rate * i)})
    pairs = [("err_max", "rate_max"), ("err_l2", "rate_l2"), ("err_dual", "rate_dual")]
    columns = ["level", "h", "err_max", "rate_max", "err_l2", "rate_l2", "err_dual",
               "rate_dual"]
    if k == 0:
        pairs += [("lap_total", "rate_lap"), ("term1", "rate_term1"),
                  ("term2", "rate_term2")]
        columns += ["lap_total", "rate_lap", "term1", "rate_term1", "term2", "rate_term2"]
    return _csv(columns, _with_rates(rows, pairs))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_consistency_report_passes_and_shifted_l2_rate_is_rejected(k):
    assert statuses(checks.check_consistency(k, consistency_report(k))) == {}
    shifted = consistency_report(k, l2_shift=0.15)
    assert statuses(checks.check_consistency(k, shifted)) == {f"k={k} level 7": "wrong"}


def test_stalled_second_term_is_rejected():
    assert statuses(checks.check_consistency(0, consistency_report(0, term2_rate=0.8))) == {}
    stalled = consistency_report(0, term2_rate=0.3)
    assert statuses(checks.check_consistency(0, stalled)) == {"k=0 level 7": "wrong"}


ALPHA = checks.DEFAULT_ALPHA


def corner_level0(flip=False):
    """The level-0 corner mesh as the decmesh writer lays it out."""
    verts = [(0.0, 0.0)] + [(math.cos(j * ALPHA / 4), math.sin(j * ALPHA / 4))
                            for j in range(5)]
    cells = [(0, 1 + j, 2 + j) for j in range(4)]
    if flip:
        cells[2] = (0, 4, 3)
    bnd = [((0, 1), "gamma"), ((0, 5), "gamma")] + \
        [((1 + j, 2 + j), "default") for j in range(4)]
    lines = ["decmesh 1", "dim 2", f"vertices {len(verts)}"]
    lines += [f"{x!r} {y!r}" for x, y in verts]
    lines += [f"cells {len(cells)}"] + [" ".join(map(str, c)) for c in cells]
    lines += [f"boundary {len(bnd)}"] + [f"{a} {b} {lab}" for (a, b), lab in sorted(bnd)]
    return "\n".join(lines) + "\n", verts


def affine_dump(verts, perturb=None):
    values = [1.0 + x + y for x, y in verts]
    if perturb is not None:
        values[perturb] += 1e-8
    return "\n".join(["solution mesh=m problem=linear2d level=0"]
                     + [f"{i} {v!r}" for i, v in enumerate(values)]) + "\n"


def test_corner_mesh_and_dump_pass():
    text, verts = corner_level0()
    mesh = checks.parse_decmesh(text)
    assert checks.check_corner_mesh(mesh, level=0) == []
    assert checks.interior_vertex_count(mesh) == checks.corner_counts(0)["interior"]
    assert checks.check_affine_dump(affine_dump(verts), mesh) == []


def test_flipped_cell_is_rejected():
    text, _ = corner_level0(flip=True)
    problems = checks.check_corner_mesh(checks.parse_decmesh(text), level=0)
    assert any("signed area" in p for p in problems)


@pytest.mark.parametrize("vertex", [0, 3, 5])
def test_dump_vertex_perturbed_by_1e8_is_rejected(vertex):
    text, verts = corner_level0()
    mesh = checks.parse_decmesh(text)
    assert checks.check_affine_dump(affine_dump(verts, perturb=vertex), mesh) == \
        [f"vertex {vertex} is 1.000e-08 from 1 + x + y"]


def test_corner_closed_forms_match_the_round_trip_sizes():
    # 32,385 unknowns at level 7, as the solver reports them
    assert checks.corner_counts(7) == {"vertices": 33153, "cells": 65536,
                                       "boundary": 768, "gamma": 256, "interior": 32385}
    assert checks._interior_unknowns_pentagon(8) == 163201
