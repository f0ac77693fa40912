"""Property tests of the integer row deduplication behind the face lattice."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from declab.complex import _packing, _row_lookup, _unique_rows
from declab.generators import FamilySpec, generate

BIG = 2 ** 40


def row_arrays(elements):
    return st.integers(1, 4).flatmap(
        lambda w: hnp.arrays(np.int64, st.tuples(st.integers(0, 60), st.just(w)),
                             elements=elements))


def assert_matches_numpy(rows):
    uniq, inv = _unique_rows(rows)
    want_uniq, want_inv = np.unique(rows, axis=0, return_inverse=True)
    assert uniq.dtype == rows.dtype and inv.dtype == np.int64
    assert np.array_equal(uniq, want_uniq)
    assert np.array_equal(inv, want_inv.ravel())


@settings(max_examples=200, deadline=None)
@given(row_arrays(st.integers(-6, 6)))
def test_unique_rows_matches_numpy_with_many_duplicates(rows):
    assert_matches_numpy(rows)


@settings(max_examples=200, deadline=None)
@given(row_arrays(st.integers(-(2 ** 62), 2 ** 62)))
def test_unique_rows_matches_numpy_on_wide_values(rows):
    assert_matches_numpy(rows)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.tuples(st.integers(0, 60), st.just(3)),
                  elements=st.sampled_from([0, 1, 2, BIG - 1, BIG])))
def test_unique_rows_lexsort_fallback(rows):
    rows = np.vstack([rows, [[0, 0, BIG]]])  # base = 2**40 + 1: keys would overflow
    assert _packing(rows) is None
    assert_matches_numpy(rows)


I32 = np.iinfo(np.int32)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int32, st.tuples(st.integers(0, 60), st.just(2)),
                  elements=st.sampled_from([0, 1, 2, 2 ** 30 - 1, 2 ** 30])))
def test_unique_rows_packs_int32_rows_into_int64_keys(rows):
    # base = 2**30 + 1, so the keys reach base**2 ~ 2**60: they would wrap if
    # _pack multiplied in int32
    rows = np.vstack([rows, np.array([[0, 2 ** 30]], dtype=np.int32)])
    assert _packing(rows) is not None
    assert_matches_numpy(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: hnp.arrays(
    np.int32, st.tuples(st.integers(0, 60), st.just(w)),
    elements=st.sampled_from([I32.min, I32.min + 1, -1, 0, 1, I32.max - 1, I32.max]))))
def test_unique_rows_on_the_whole_int32_range(rows):
    # base = 2**32: one column still packs, with (r - lo) formed in int64;
    # wider rows take the lexsort fallback
    rows = np.vstack([rows, np.full((1, rows.shape[1]), I32.min, dtype=np.int32),
                      np.full((1, rows.shape[1]), I32.max, dtype=np.int32)])
    assert (_packing(rows) is None) == (rows.shape[1] > 1)
    assert_matches_numpy(rows)


def lookup_oracle(table, queries):
    where = {tuple(r): i for i, r in enumerate(table.tolist())}
    return np.array([where.get(tuple(q), -1) for q in queries.tolist()], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    hnp.arrays(np.int64, st.tuples(st.integers(1, 40), st.just(w)),
               elements=st.sampled_from([-3, 0, 1, 2, 5, BIG])),
    hnp.arrays(np.int64, st.tuples(st.integers(0, 40), st.just(w)),
               elements=st.sampled_from([-4, 0, 1, 2, 5, 7, BIG])))))
def test_row_lookup_finds_present_rows_and_flags_absent_ones(table_queries):
    table, queries = table_queries
    table = np.unique(table, axis=0)
    assert np.array_equal(_row_lookup(table, queries), lookup_oracle(table, queries))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    hnp.arrays(np.int32, st.tuples(st.integers(1, 40), st.just(w)),
               elements=st.sampled_from([-3, 0, 1, 2, 5, I32.max])),
    hnp.arrays(np.int64, st.tuples(st.integers(0, 40), st.just(w)),
               elements=st.sampled_from([-4, 0, 1, 2, 5, I32.max, BIG])))))
def test_row_lookup_takes_an_int32_table_and_int64_queries(table_queries):
    table, queries = table_queries
    table = np.unique(table, axis=0)
    assert np.array_equal(_row_lookup(table, queries), lookup_oracle(table, queries))


def test_the_lattice_is_int32_and_int8():
    # test_complex.py's test_boundary_matrices_compose_to_zero_exactly checks
    # that the products of these int8 signs stay int64 and exactly zero
    for spec in (FamilySpec("pentagon_wheel", level=2), FamilySpec("cube_kuhn", level=1)):
        cx = generate(spec)
        assert all(s.dtype == np.int32 for s in cx.simplices)
        assert all(f.dtype == np.int32 for f in cx.faces[1:])
        assert all(o.dtype == np.int8 for o in cx.orientation)
        assert all(cx.boundary_matrix(k).dtype == np.int64 for k in range(1, cx.dim + 1))


def test_index_of_returns_minus_one_for_absent_rows():
    cx = generate(FamilySpec("pentagon_wheel", level=2))
    nv = cx.num(0)
    for k in (0, 1, 2):
        assert np.array_equal(cx.index_of(k, cx.simplices[k][::-1]),
                              np.arange(cx.num(k))[::-1])
    # vertex orders inside a row do not matter; rows that are not edges give -1
    e = cx.simplices[1][7]
    absent = [(0, nv), (-1, 0), (nv + 3, nv + 4)]
    assert cx.index_of(1, [e[::-1], *absent]).tolist() == [7, -1, -1, -1]
    assert cx.index_of(2, [(0, 1, 2 * nv)]).tolist() == [-1]
