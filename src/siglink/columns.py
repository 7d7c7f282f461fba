"""Whole-column helpers shared by load, dedup, extraction, indexing,
linkage and scoring.

Every table stage is a sort plus a boundary scan over integer columns,
the group-by a parallel database would run. A row's columns are packed
into as few int64 words as hold them: one word is sorted directly, more
with a multi-column ``lexsort`` over the words. ``group_rows`` returns
the sorting order; ``sort_rows``, for a stage that needs the sorted
rows and not where they came from, sorts one word by value and unpacks
it, which avoids the ``argsort``.
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


def _pack(columns: Sequence[np.ndarray], sizes: Sequence[int]
          ) -> tuple[list[np.ndarray], list[tuple[int, int, int]]]:
    """The rows' columns packed into as few int64 words as hold them,
    most significant first (column ``i`` holds values in ``[0,
    sizes[i])``), and each column's place: its word, the bits below it
    in that word, and its width."""
    words: list[np.ndarray] = []
    ends: list[tuple[int, int, int]] = []  # word, bits up to the column's end, width
    used = 64
    for col, size in zip(columns, sizes):
        bits = width(size)
        if used + bits > 63:
            words.append(np.zeros(len(col), dtype=INDEX))
            used = 0
        words[-1] <<= bits
        words[-1] |= col
        used += bits
        ends.append((len(words) - 1, used, bits))
    total = {w: end for w, end, _ in ends}
    return words, [(w, total[w] - end, bits) for w, end, bits in ends]


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
    words, _ = _pack(columns, sizes)
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
    order: the columns sorted, and the same mask.

    The packed words are sorted and unpacked: one word is sorted by
    value, several times faster than the ``argsort`` ``group_rows``
    makes. ``columns`` is emptied once packed, so a column the caller
    holds no other reference to is freed before the sorted one is made.
    """
    n_key = len(columns) if n_key is None else n_key
    words, places = _pack(columns, sizes)
    columns.clear()
    if len(words) == 1:
        words[0].sort()
    else:
        order = np.lexsort(words[::-1])
        words = [word[order] for word in words]
        del order
    last = {w: i for i, (w, _, _) in enumerate(places)}
    out = []
    for i, (w, below, bits) in enumerate(places):
        col = words[w] if last[w] == i else words[w] >> below  # a word's last column: in place
        col &= (1 << bits) - 1
        out.append(col)
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

