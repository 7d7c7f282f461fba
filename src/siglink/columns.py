"""Whole-column helpers shared by load, dedup, extraction, indexing,
linkage and scoring.

Every table stage is a sort plus a boundary scan over integer columns,
the group-by a parallel database would run. A row's columns are packed
into as few int64 words as hold them (``layout``): one word is sorted
directly, more with a ``lexsort`` over the words. ``group_rows`` returns
the sorting order; ``sort_rows``, for a stage that needs the sorted rows
and not where they came from, sorts one word by value and unpacks it.
A stage that makes its rows can write them packed and sort those words
(``sort_words``), as a database operator fills its sort's buffer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

INDEX = np.int64


def width(size: int) -> int:
    """Bits that hold every value in ``[0, size)``."""
    return max(size - 1, 0).bit_length()


def expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[i]`` output rows per input row ``i``: each output
    row's input row, and its position among that input row's outputs."""
    counts = np.asarray(counts, dtype=INDEX)
    owner = np.repeat(np.arange(len(counts), dtype=INDEX), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner), dtype=INDEX) - starts[owner]


def layout(sizes: Sequence[int]) -> list[tuple[int, int, int]]:
    """Where ``pack`` puts each column (holding values in ``[0,
    sizes[i])``) in as few int64 words as hold them, most significant
    first: its word, the bits below it in that word, and its width."""
    ends: list[tuple[int, int, int]] = []  # word, bits up to the column's end, width
    word, used = -1, 64
    for bits in map(width, sizes):
        if used + bits > 63:
            word, used = word + 1, 0
        used += bits
        ends.append((word, used, bits))
    total = {w: end for w, end, _ in ends}
    return [(w, total[w] - end, bits) for w, end, bits in ends]


def pack(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> list[np.ndarray]:
    """The rows' columns packed into words as ``layout(sizes)`` says."""
    words: list[np.ndarray] = []
    for col, (w, _, bits) in zip(columns, layout(sizes)):
        if w == len(words):
            words.append(np.zeros(len(col), dtype=INDEX))
        words[w] <<= bits
        words[w] |= col
    return words


def _runs(columns: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Over ``n`` sorted rows, True on the first row of each run of equal
    values in ``columns``."""
    first = np.ones(n, dtype=bool)
    first[1:] = False
    for col in columns:
        first[1:] |= col[1:] != col[:-1]
    return first


def group_rows(columns: Sequence[np.ndarray], sizes: Sequence[int],
               n_key: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows lexicographically by ``columns`` (most significant
    first; column ``i`` holds values in ``[0, sizes[i])``).

    Returns the sorting order and, over the sorted rows, a mask that is
    True on the first row of each run of equal values in the first
    ``n_key`` columns (all of them by default). Rows equal in every
    column come out in no particular order.
    """
    n_key = len(columns) if n_key is None else n_key
    words = pack(columns, sizes)
    if len(words) == 1:
        order = np.argsort(words[0])
        key = words[0][order]
        key >>= sum(width(s) for s in sizes[n_key:])
        return order, _runs([key], len(order))
    order = np.lexsort(words[::-1])
    return order, _runs((col[order] for col in columns[:n_key]), len(order))


def sort_rows(columns: list[np.ndarray], sizes: Sequence[int],
              n_key: int | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """``group_rows`` for a caller that needs the sorted rows, not their
    order: the columns sorted, and the same mask. ``columns`` is emptied
    once packed, so a column the caller holds no other reference to is
    freed before the sorted one is made."""
    words = pack(columns, sizes)
    columns.clear()
    return sort_words(words, layout(sizes), n_key)


def sort_words(words: list[np.ndarray], places: Sequence[tuple[int, int, int]],
               n_key: int | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """``sort_rows`` of rows packed into ``words`` at ``places``: one
    word is sorted by value, several times faster than the ``argsort``
    ``group_rows`` makes, more by a ``lexsort``. The words are unpacked
    in place, and ``words`` is emptied."""
    n_key = len(places) if n_key is None else n_key
    if len(words) == 1:
        words[0].sort()
    else:
        order = np.lexsort(words[::-1])
        words[:] = [word[order] for word in words]
        del order
    last = {w: i for i, (w, _, _) in enumerate(places)}
    out = []
    for i, (w, below, bits) in enumerate(places):
        col = words[w] if last[w] == i else words[w] >> below  # a word's last column: in place
        col &= (1 << bits) - 1
        out.append(col)
    words.clear()
    return out, _runs(out[:n_key], len(out[0]))


def unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, by one sort and a boundary scan.

    Same result as ``np.unique(values)``, whose hash-based path is many
    times slower on large int64 columns (0.4 s against 0.01 s on 600k
    values with numpy 2.4).
    """
    ranked = np.sort(values)
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return ranked[first]

