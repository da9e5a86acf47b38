"""Property tests for the vectorized delete kernel.

:func:`repro.delta.multiset_keep_mask` must agree, position for position,
with the row-at-a-time ``Counter`` subtraction in
:func:`tests.reference.reference_keep_mask`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import multiset_keep_mask

from .reference import reference_keep_mask

COLUMNS = ("a", "b", "c")
INT64 = np.iinfo(np.int64)

# A small pool forces duplicates on both sides; the full int64 range
# (negative extremes included) rides along.
values = st.one_of(
    st.sampled_from([-3, 0, 1, 2]),
    st.integers(INT64.min, INT64.max),
    st.sampled_from([INT64.min, INT64.max, -1]),
)
rows = st.lists(st.tuples(values, values, values), max_size=30)


@st.composite
def cases(draw):
    stored = draw(rows)
    deleted = draw(rows)
    # Deleted rows copied from the stored side, some more than once and
    # some with a column outside the compared subset changed.
    if stored:
        picks = draw(st.lists(st.sampled_from(stored), max_size=12))
        deleted += [
            row if draw(st.booleans()) else (row[0], row[1], draw(values))
            for row in picks
        ]
    deleted = draw(st.permutations(deleted))
    columns = draw(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3,
                 unique=True)
    )
    return stored, deleted, columns


def as_columns(table):
    return {
        col: np.array([row[i] for row in table], dtype=np.int64)
        for i, col in enumerate(COLUMNS)
    }


@settings(max_examples=200, deadline=None)
@given(cases())
def test_keep_mask_matches_counter_oracle(case):
    stored, deleted, columns = case
    stored, deleted = as_columns(stored), as_columns(deleted)
    keep = multiset_keep_mask(stored, deleted, columns)
    assert keep.dtype == bool
    assert keep.tolist() == reference_keep_mask(
        stored, deleted, columns
    ).tolist()


def test_empty_sides():
    empty = as_columns([])
    some = as_columns([(1, 2, 3), (1, 2, 3)])
    assert multiset_keep_mask(empty, some, ["a"]).tolist() == []
    assert multiset_keep_mask(some, empty, ["a", "c"]).tolist() == [True] * 2
    assert multiset_keep_mask(empty, empty, ["b"]).tolist() == []


def test_first_occurrences_in_position_order_are_dropped():
    stored = as_columns([(5, 0, 0), (7, 0, 0), (5, 1, 0), (5, 0, 0)])
    deleted = as_columns([(5, 9, 9), (5, 9, 9)])
    keep = multiset_keep_mask(stored, deleted, ["a"])
    assert keep.tolist() == [False, True, False, True]
