import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import geometry, meshio
from declab.complex import build_complex
from declab.errors import MeshError, NonConformingError
from declab.generators import FamilySpec, generate, jitter_interior
from strategies import jittered_wheels

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pentagon_level2.decmesh")


def test_roundtrip_reproduces_boundary_matrices(tmp_path):
    cx = generate(FamilySpec("corner", level=1))
    path = tmp_path / "mesh.decmesh"
    meshio.save(cx, path)
    back = meshio.load(path)
    assert np.array_equal(back.vertices, cx.vertices)
    for k in range(3):
        assert np.array_equal(back.simplices[k], cx.simplices[k])
        assert np.array_equal(back.orientation[k], cx.orientation[k])
    for k in (1, 2):
        assert (back.boundary_matrix(k) - cx.boundary_matrix(k)).nnz == 0
    assert back.boundary_labels == cx.boundary_labels


def test_negative_orientation_written_as_vertex_swap(tmp_path):
    from declab.complex import build_complex
    cx = build_complex(2, [(0, 0), (0, 1), (1, 0)], [(0, 1, 2)])
    assert cx.orientation[2][0] == -1
    path = tmp_path / "m.decmesh"
    meshio.save(cx, path)
    text = path.read_text().splitlines()
    cells_at = text.index("cells 1")
    assert text[cells_at + 1] == "1 0 2"  # swapped pair realizes the sign
    back = meshio.load(path)
    assert back.orientation[2][0] == -1  # same oriented simplex after normalizing


def test_missing_header_rejected(tmp_path):
    p = tmp_path / "bad.decmesh"
    p.write_text("dim 2\nvertices 0\ncells 0\n")
    with pytest.raises(MeshError, match="header"):
        meshio.load(p)


def test_bad_counts_rejected(tmp_path):
    p = tmp_path / "bad.decmesh"
    p.write_text("decmesh 1\ndim 2\nvertices 5\n0 0\n")
    with pytest.raises(MeshError, match="count"):
        meshio.load(p)


TRIANGLE = "decmesh 1\ndim 2\nvertices 3\n0 0\n1 0\n0 1\n"


@pytest.mark.parametrize("text", [
    TRIANGLE + "cells 1\n0 1 2\nboundary 3\n0 1\n",
    "decmesh 1\ndim\nvertices 0\ncells 0\n",
    TRIANGLE + "cells 1\n0 1 x\n",
    TRIANGLE + "cells 2\n0 1 2\n0 1\n",
    TRIANGLE + "cells 1\n0 1 2\nboundary 1\n0\n",
], ids=["boundary_count_past_end", "keyword_without_count", "non_integer_cell_entry",
        "cell_line_of_wrong_length", "boundary_line_short_of_dim_ids"])
def test_malformed_file_raises_mesh_error(tmp_path, text):
    p = tmp_path / "bad.decmesh"
    p.write_text(text)
    with pytest.raises(MeshError):
        meshio.load(p)


@pytest.mark.parametrize("text, message", [
    (TRIANGLE, "truncated file: expected 'cells'"),
    (TRIANGLE + "faces 1\n0 1 2\n", "expected 'cells', got 'faces 1'"),
], ids=["ends_before_keyword", "wrong_keyword"])
def test_load_names_the_keyword_it_expected(tmp_path, text, message):
    p = tmp_path / "bad.decmesh"
    p.write_text(text)
    with pytest.raises(MeshError, match=message):
        meshio.load(p)


def test_non_conforming_file_rejected(tmp_path):
    p = tmp_path / "bad.decmesh"
    p.write_text("decmesh 1\ndim 2\nvertices 5\n"
                 "0.0 0.0\n2.0 0.0\n0.0 2.0\n1.0 0.0\n3.0 -1.0\n"
                 "cells 2\n0 1 2\n3 4 1\n")
    with pytest.raises(NonConformingError):
        meshio.load(p)


@pytest.mark.parametrize("verts, message", [
    ("0.0 0.0\n2.0 0.0\n0.0 2.0\n1.0 0.0\n3.0 -1.0\n",
     "vertex 3 lies inside cell (0, 1, 2): non-conforming intersection"),
    ("0.0 0.0\n2.0 0.0\n0.0 2.0\n1e-12 0.0\n3.0 -1.0\n",
     "vertices 0 and 3 coincide within tolerance; cells meeting there "
     "cannot intersect in a common face"),
], ids=["vertex_in_cell", "coincident_vertices"])
def test_non_conforming_file_message_is_alike_at_every_block_size(
        tmp_path, monkeypatch, verts, message):
    p = tmp_path / "bad.decmesh"
    p.write_text(f"decmesh 1\ndim 2\nvertices 5\n{verts}cells 2\n0 1 2\n3 4 1\n")
    for block_nodes in (3, 64, 1 << 62):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block_nodes)
        with pytest.raises(NonConformingError) as info:
            meshio.load(p)
        assert str(info.value) == message, block_nodes


def test_boundary_labels_parsed(tmp_path):
    p = tmp_path / "m.decmesh"
    p.write_text("decmesh 1\ndim 2\nvertices 3\n0 0\n1 0\n0 1\n"
                 "cells 1\n0 1 2\nboundary 2\n0 1 gamma\n1 2\n")
    cx = meshio.load(p)
    assert cx.boundary_labels == {(0, 1): "gamma", (1, 2): "default"}


def test_roundtrip_3d(tmp_path):
    cx = generate(FamilySpec("cube_kuhn", level=0))
    p = tmp_path / "cube.decmesh"
    meshio.save(cx, p)
    back = meshio.load(p)
    assert np.array_equal(back.simplices[3], cx.simplices[3])
    assert np.array_equal(back.orientation[3], cx.orientation[3])
    for k in (1, 2, 3):
        assert (back.boundary_matrix(k) - cx.boundary_matrix(k)).nnz == 0


def test_roundtrip_1d(tmp_path):
    from declab.complex import build_complex
    cx = build_complex(1, [[0.0], [0.5], [2.0]], [(0, 1), (1, 2)])
    p = tmp_path / "line.decmesh"
    meshio.save(cx, p)
    back = meshio.load(p)
    assert np.array_equal(back.vertices, cx.vertices)
    assert np.array_equal(back.simplices[1], cx.simplices[1])


def test_solving_on_a_mesh_file_imports_no_scipy_spatial():
    # a fresh interpreter, as a user's dec-lab process is: scipy.sparse is the
    # only scipy package the conformity audit and the solve need
    script = ("import sys\n"
              "from declab import cli\n"
              "assert cli.main(['solve', '--mesh', sys.argv[1], '--problem', 'trig2d']) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", script, FIXTURE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_shipped_fixture_matches_generator():
    # frozen by explicit counting: level-2 wheel has 51 vertices splitting
    # into 20 boundary + 31 interior
    cx = meshio.load(FIXTURE)
    gen = generate(FamilySpec("pentagon_wheel", level=2))
    assert cx.num(0) == 51
    assert cx.boundary_vertex_mask().sum() == 20
    assert len(cx.interior_vertex_indices()) == 31
    assert np.allclose(cx.vertices, gen.vertices)
    assert np.array_equal(cx.simplices[2], gen.simplices[2])
    for k in (1, 2):
        assert (cx.boundary_matrix(k) - gen.boundary_matrix(k)).nnz == 0


def test_degenerate_cell_message_prints_plain_ints(tmp_path):
    p = tmp_path / "bad.decmesh"
    p.write_text(TRIANGLE + "cells 1\n0 1 1\n")
    with pytest.raises(MeshError, match=r"degenerate cell \(0, 1, 1\):"):
        meshio.load(p)


@pytest.mark.parametrize("cells,face", [
    ("cells 1\n0 1 2\n", "0 5"),                              # no such vertex
    ("vertices 4\n0 0\n1 0\n0 1\n1 1\ncells 2\n0 1 2\n1 3 2\n", "1 2"),  # interior edge
], ids=["unknown_vertex", "interior_edge"])
def test_boundary_line_must_name_a_boundary_face(tmp_path, cells, face):
    head = TRIANGLE if cells.startswith("cells") else "decmesh 1\ndim 2\n"
    p = tmp_path / "bad.decmesh"
    p.write_text(head + cells + f"boundary 1\n{face} gamma\n")
    with pytest.raises(MeshError, match=rf"boundary line \({face.replace(' ', ', ')}\) "
                                        "is not a boundary face"):
        meshio.load(p)


# -- exactness of the whole-array writer and parser ------------------------------


def reference_text(cx):
    """The decmesh text written one entry at a time, as ``repr`` and ``str`` print it."""
    n = cx.dim
    cells = cx.simplices[n].copy()
    flip = cx.orientation[n] < 0
    cells[flip, 0], cells[flip, 1] = cells[flip, 1], cells[flip, 0].copy()
    lines = [meshio.FORMAT_HEADER, f"dim {n}", f"vertices {cx.num(0)}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in cx.vertices]
    lines.append(f"cells {len(cells)}")
    lines += [" ".join(str(int(v)) for v in row) for row in cells]
    if cx.boundary_labels:
        lines.append(f"boundary {len(cx.boundary_labels)}")
        lines += [" ".join(map(str, tup)) + f" {label}"
                  for tup, label in sorted(cx.boundary_labels.items())]
    return "\n".join(lines) + "\n"


def test_fixture_resaves_byte_for_byte(tmp_path):
    p = tmp_path / "again.decmesh"
    meshio.save(meshio.load(FIXTURE), p)
    with open(FIXTURE, "rb") as fh:
        assert p.read_bytes() == fh.read()


jittered_cubes = st.builds(
    lambda level, amplitude, seed: jitter_interior(
        generate(FamilySpec("cube_kuhn", level)), amplitude=amplitude, seed=seed),
    st.integers(1, 2), st.floats(0.0, 0.1), st.integers(0, 2 ** 32 - 1))
labelled_corners = st.integers(0, 3).map(lambda level: generate(FamilySpec("corner", level)))


@settings(deadline=None, max_examples=30)
@given(cx=jittered_wheels | jittered_cubes | labelled_corners)
def test_save_then_load_is_exact(cx):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.decmesh")
        meshio.save(cx, path)
        with open(path) as fh:
            text = fh.read()
        back = meshio.load(path)
    assert text == reference_text(cx)
    # bit for bit, so -0.0 and 0.0 count as different
    assert np.array_equal(back.vertices.view(np.int64), cx.vertices.view(np.int64))
    for k in range(cx.dim + 1):
        assert np.array_equal(back.simplices[k], cx.simplices[k])
        assert np.array_equal(back.orientation[k], cx.orientation[k])
    assert back.boundary_labels == cx.boundary_labels


def test_awkward_floats_survive_the_round_trip(tmp_path):
    # negative zero, a subnormal, a sum that rounds, and a repeating fraction
    cx = build_complex(2, [(-0.0, 5e-324), (0.1 + 0.2, 3 * 5e-324), (1 / 3, 7.0)],
                       [(0, 1, 2)])
    p = tmp_path / "m.decmesh"
    meshio.save(cx, p)
    assert p.read_text() == reference_text(cx)
    back = meshio.load(p)
    assert np.array_equal(back.vertices.view(np.int64), cx.vertices.view(np.int64))


def test_blank_lines_and_tabs_inside_sections_are_accepted(tmp_path):
    p = tmp_path / "m.decmesh"
    p.write_text("decmesh 1\ndim 2\nvertices 3\n0\t0\n\n1 \t 0\n  0 1  \n\n"
                 "cells 1\n\n0\t1\t2\n")
    cx = meshio.load(p)
    assert np.array_equal(cx.vertices, [(0, 0), (1, 0), (0, 1)])
    assert np.array_equal(cx.simplices[2], [(0, 1, 2)])


CELL = "cells 1\n0 1 2\n"


@pytest.mark.parametrize("text, message", [
    ("decmesh 1\ndim 2\nvertices 3\n0 0\n1 0 5\n0 1\n" + CELL,
     "every vertex line must have 2 entries"),
    ("decmesh 1\ndim 2\nvertices 3\n0 0 5\n1 0 5\n0 1 5\n" + CELL,
     "every vertex line must have 2 entries"),
    ("decmesh 1\ndim 2\nvertices 3\n0 0\n1 zero\n0 1\n" + CELL, "bad vertex line"),
    ("decmesh 1\ndim 2\nvertices 3\n0 0\n1_0 0\n0 1\n" + CELL, "bad vertex line"),
    (TRIANGLE + "cells 1\n0 1.0 2\n", "bad cell line"),
    (TRIANGLE + "cells 1\n0 1 99999999999999999999\n", "bad cell line"),
    (TRIANGLE + "cells 2\n0 1 2\n", "cell count exceeds file length"),
    ("decmesh 1\ndim 2\nvertices 0\n" + CELL, "no vertex lines"),
    (TRIANGLE + "cells 0\n", "no cell lines"),
    (TRIANGLE + CELL + "boundary 1\n0 99999999999999999999\n", "bad boundary line"),
], ids=["vertex_line_of_three_entries", "every_vertex_line_of_three_entries",
        "non_numeric_coordinate", "underscore_in_coordinate", "float_as_cell_id",
        "cell_id_past_int64", "cell_count_past_end", "no_vertices", "no_cells",
        "boundary_id_past_int64"])
def test_malformed_section_names_the_section(tmp_path, text, message):
    p = tmp_path / "bad.decmesh"
    p.write_text(text)
    with pytest.raises(MeshError, match=message):
        meshio.load(p)


@pytest.mark.parametrize("text, message", [
    ("decmesh 1\ndim 2\nvertices 3\n0 0\n\n1 0\n0 zero\n" + CELL,
     r"bad vertex line: could not convert string 'zero' to float64 on line 7, column 2"),
    (TRIANGLE + "cells 1\n\n\n0 1.0 2\n",
     r"bad cell line: could not convert string '1.0' to int64 on line 10, column 2"),
    (TRIANGLE + "cells 1\n0 1.0 2\n",
     r"bad cell line: could not convert string '1.0' to int64 on line 8, column 2"),
    (TRIANGLE + CELL + "boundary 2\n0 1\n\n1 x\n",
     r"bad boundary line: .* 'x' on line 12$"),
    (TRIANGLE + CELL + "\nboundary 2\n0 1\n1 99999999999999999999\n",
     r"bad boundary line: .* on line 12$"),
], ids=["coordinate", "cell_id", "cell_id_without_blank_lines", "boundary_id",
        "boundary_id_past_int64"])
def test_bad_entry_message_names_the_line_of_the_file(tmp_path, text, message):
    # blank lines before the bad entry count: the number is the file's line
    p = tmp_path / "bad.decmesh"
    p.write_text(text)
    with pytest.raises(MeshError, match=message):
        meshio.load(p)


@pytest.mark.parametrize("entry", ["\u0661", "0_1", "1_0"],
                         ids=["arabic_indic_digit", "underscore", "underscore_past_the_ids"])
def test_boundary_id_must_be_an_ascii_decimal(tmp_path, entry):
    # int() reads these as 1, 1 and 10; the vertex and cell sections refuse
    # them, and so does the boundary section, naming the file's line
    p = tmp_path / "bad.decmesh"
    p.write_text(TRIANGLE + CELL + f"boundary 2\n1 2\n0 {entry} gamma\n", encoding="utf-8")
    with pytest.raises(MeshError, match=rf"bad boundary line: .* '{entry}' on line 11$"):
        meshio.load(p)


def test_boundary_ids_may_carry_a_sign(tmp_path):
    # as loadtxt reads the cell section's ids
    p = tmp_path / "m.decmesh"
    p.write_text(TRIANGLE + CELL + "boundary 1\n+0 +1 gamma\n")
    assert meshio.load(p).boundary_labels == {(0, 1): "gamma"}
