"""``columns.group_rows``, ``columns.sort_rows`` and ``columns.sort_words``
against a sort of Python tuples."""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from siglink.columns import group_rows, layout, pack, sort_rows, sort_words, width

# Declared sizes: small ones pack every column into one int64 word, and
# two or more of the large ones overflow it into the ``lexsort`` path.
_SIZES = st.sampled_from([1, 2, 3, 5, 2 ** 20, 2 ** 40])


@st.composite
def _tables(draw):
    """Columns, their declared sizes and a key-column count. Values are
    drawn from each column's few smallest and its largest, so rows
    repeat in some columns and not in others."""
    sizes = draw(st.lists(_SIZES, min_size=1, max_size=4))
    values = [st.one_of(st.integers(0, min(size, 3) - 1), st.just(size - 1)) for size in sizes]
    rows = draw(st.lists(st.tuples(*values), max_size=30))
    columns = [np.array([row[c] for row in rows], dtype=np.int64) for c in range(len(sizes))]
    return columns, sizes, draw(st.integers(1, len(sizes)))


def _rows(columns, order):
    return list(zip(*(col[order].tolist() for col in columns)))


class TestGroupRows:
    @given(_tables())
    @example(([np.array([3, 1, 3, 1, 0]), np.array([2, 0, 1, 0, 4])], [5, 5], 1))  # one word
    @example(([np.array([2 ** 40 - 1, 1, 2 ** 40 - 1, 1]), np.array([0, 2 ** 40 - 1, 1, 2]),
               np.array([1, 0, 0, 1])], [2 ** 40, 2 ** 40, 2], 1))  # lexsort
    @example(([np.array([], dtype=np.int64)] * 2, [3, 2 ** 40], 1))  # no rows
    def test_sorted_runs_marked_and_trailing_columns_ascend(self, table):
        columns, sizes, n_key = table
        order, first = group_rows(columns, sizes, n_key=n_key)
        n = len(columns[0])
        assert sorted(order.tolist()) == list(range(n))
        rows = _rows(columns, order)
        assert rows == sorted(rows)
        # ``first`` marks the first row of each run of equal key columns ...
        keys = [row[:n_key] for row in rows]
        assert first.tolist() == [i == 0 or keys[i] != keys[i - 1] for i in range(n)]
        # ... and within a run, the trailing columns ascend.
        starts = np.flatnonzero(first).tolist() + [n]
        for a, b in zip(starts, starts[1:]):
            run = [row[n_key:] for row in rows[a:b]]
            assert run == sorted(run)

    @given(_tables())
    def test_same_runs_whatever_the_path(self, table):
        # Declared 2**40 wide, the columns and one more overflow one word.
        columns, sizes, n_key = table
        wide = [2 ** 40] * (len(sizes) + 1)
        padded = columns + [np.zeros(len(columns[0]), dtype=np.int64)]
        with patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            order, first = group_rows(columns, sizes, n_key=n_key)
            assert lexsort.called == (sum(map(width, sizes)) > 63)
            wide_order, wide_first = group_rows(padded, wide, n_key=n_key)
            assert lexsort.called
        assert _rows(columns, order) == _rows(columns, wide_order)
        assert first.tolist() == wide_first.tolist()

    def test_all_columns_are_the_key_by_default(self):
        columns = [np.array([1, 0, 1, 1]), np.array([0, 0, 1, 0])]
        order, first = group_rows(columns, [2, 2])
        assert _rows(columns, order) == [(0, 0), (1, 0), (1, 0), (1, 1)]
        assert first.tolist() == [True, True, False, True]


class TestSortRows:
    @given(_tables())
    @example(([np.array([3, 1, 3, 1, 0]), np.array([2, 0, 1, 0, 4])], [5, 5], 1))  # one word
    @example(([np.array([2 ** 40 - 1, 1, 2 ** 40 - 1, 1]), np.array([0, 2 ** 40 - 1, 1, 2]),
               np.array([1, 0, 0, 1])], [2 ** 40, 2 ** 40, 2], 1))  # several words
    @example(([np.array([2, 0, 2]), np.array([0, 0, 0]), np.array([1, 0, 1])], [3, 1, 2], 2))
    def test_sorted_columns_and_the_same_runs(self, table):
        # The third example holds a column one value wide, which takes no
        # bits, in the middle of a word.
        columns, sizes, n_key = table
        given_columns = list(columns)
        out, first = sort_rows(given_columns, sizes, n_key=n_key)
        assert given_columns == []
        rows = sorted(zip(*(col.tolist() for col in columns)))
        assert list(zip(*(col.tolist() for col in out))) == rows
        assert first.tolist() == group_rows(columns, sizes, n_key=n_key)[1].tolist()

    @given(_tables())
    @example(([np.array([3, 1, 3, 1, 0]), np.array([2, 0, 1, 0, 4])], [5, 5], 1))  # one word
    @example(([np.array([2 ** 40 - 1, 1, 2 ** 40 - 1, 1]), np.array([0, 2 ** 40 - 1, 1, 2]),
               np.array([1, 0, 0, 1])], [2 ** 40, 2 ** 40, 2], 2))  # several words
    def test_packed_words_sort_as_sort_rows(self, table):
        columns, sizes, n_key = table
        places = layout(sizes)
        words = pack(columns, sizes)
        assert len(words) == places[-1][0] + 1
        assert all(below + bits <= 63 for _, below, bits in places)
        out, first = sort_words(words, places, n_key=n_key)
        assert words == []
        want, want_first = sort_rows(list(columns), sizes, n_key=n_key)
        assert [col.tolist() for col in out] == [col.tolist() for col in want]
        assert first.tolist() == want_first.tolist()
        rows = sorted(zip(*(col.tolist() for col in columns)))
        assert list(zip(*(col.tolist() for col in out))) == rows
