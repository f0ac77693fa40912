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
    assert uniq.dtype == np.int64 and inv.dtype == np.int64
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
