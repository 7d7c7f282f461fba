"""Whole-column helpers shared by load, dedup, extraction, indexing,
linkage and components.

Every table stage is a sort plus a boundary scan over integer columns,
the group-by a parallel database would run. A row's columns are packed
into as few int64 words as hold them: one word is sorted directly, more
with a multi-column ``lexsort`` over the words.
"""

from __future__ import annotations

from typing import Sequence

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
    n = len(columns[0])
    words: list[np.ndarray] = []
    used = 64
    for col, size in zip(columns, sizes):
        bits = width(size)
        if used + bits > 63:
            words.append(np.zeros(n, dtype=INDEX))
            used = 0
        words[-1] <<= bits
        words[-1] |= col
        used += bits
    first = np.ones(n, dtype=bool)
    if len(words) == 1:
        order = np.argsort(words[0])
        key = words[0][order] >> sum(width(s) for s in sizes[n_key:])
        first[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort(words[::-1])
        first[1:] = False
        for col in columns[:n_key]:
            ranked = col[order]
            first[1:] |= ranked[1:] != ranked[:-1]
    return order, first


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


def locate(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``values`` in the ascending id column ``table``,
    and a mask that is True where ``table`` does not hold the value
    (ids are non-negative)."""
    pos = np.searchsorted(table, values)
    return pos, np.append(table, -1)[pos] != values
