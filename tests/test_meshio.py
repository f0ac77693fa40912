import os

import numpy as np
import pytest

from declab import meshio
from declab.errors import MeshError, NonConformingError
from declab.generators import FamilySpec, generate

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


def test_non_conforming_file_rejected(tmp_path):
    p = tmp_path / "bad.decmesh"
    p.write_text("decmesh 1\ndim 2\nvertices 5\n"
                 "0.0 0.0\n2.0 0.0\n0.0 2.0\n1.0 0.0\n3.0 -1.0\n"
                 "cells 2\n0 1 2\n3 4 1\n")
    with pytest.raises(NonConformingError):
        meshio.load(p)


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
