"""Inverted index over candidate signatures with recurrence pruning.

The build is a whole-column group-by. It reads records as a
``records.RecordTable``, whose attributes are interned at load into
sorted vocabularies held as CSR arrays of token ids over attribute
classes; each part's values are found per class and joined to the rows
(``templates.RecordColumns``); each template turns whole columns into
key rows of value ids (``templates.extract``, once per template); and
each template's rows are sorted on their key columns, packed into one
int64 when the vocabulary sizes let them fit, so that equal keys form
runs, and each run is then ordered by record row. The runs are the CSR
postings of a ``KeyTable``. Pruning drops every key observed in more
than k_max records and takes each kept key's probability from a table
indexed by posting length. Pruning by posting length is equivalent to
pruning by probability (the probability is strictly decreasing in
recurrence) and is what bounds the downstream pair generation.

Key strings are spelled out only for output: ``KeyTable.key_strings``
and ``KeyTable.postings`` read the columns of the keys asked for, and
``dump_index`` writes ``index.tsv`` from them. Every size (keys seen,
keys pruned, posting lengths, candidate instances) is an expression
over the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import IO, Mapping, Sequence

import numpy as np

from .columns import INDEX, expand, group_rows
from .errors import ConfigError
from .records import RecordTable
from .sigprob import ProbabilityModel, max_recurrence, signature_probability
from .templates import (
    DEFAULT_OPTIONS,
    ExtractOptions,
    ExtractionStats,
    RecordColumns,
    SignatureTemplate,
    encode_keys,
    extract,
)


# Kept for the benchmark's tracer, which reads ``InvertedIndex.entries``.
@dataclass
class IndexEntry:
    key: str
    postings: tuple[int, ...]
    p: float


@dataclass
class _TemplateKeys:
    """A template's block of table keys: key i's value ids are
    ``values[i]``, spelled out through ``parts`` (see ``TemplateRows``)."""

    template_id: int
    values: np.ndarray
    parts: list[tuple[Sequence[str], int]]

    def text(self, keys: np.ndarray) -> list[str]:
        return encode_keys(self.template_id, self.parts, self.values[keys])


class KeyTable:
    """Every key's postings before pruning, as columns.

    Key k's postings are the record rows ``rows[offsets[k]:offsets[k +
    1]]``, ascending, and row r is record ``ids[r]`` (ascending too).
    Keys are numbered block by block, one block per template.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, rows: np.ndarray,
                 blocks: Sequence[_TemplateKeys]) -> None:
        self.ids = ids
        self.offsets = offsets
        self.rows = rows
        self.lengths = np.diff(offsets)
        self.blocks = list(blocks)
        sizes = [len(block.values) for block in self.blocks]
        self._starts = np.concatenate(([0], np.cumsum(sizes, dtype=INDEX)))

    def __len__(self) -> int:
        return len(self.lengths)

    def key_strings(self, keys: np.ndarray) -> list[str]:
        """The encoded key of each of ``keys`` (ascending key indices)."""
        bounds = np.searchsorted(keys, self._starts).tolist()
        out: list[str] = []
        for block, start, lo, hi in zip(self.blocks, self._starts.tolist(), bounds, bounds[1:]):
            out += block.text(keys[lo:hi] - start)
        return out

    def postings(self, keys: np.ndarray) -> list[tuple[int, ...]]:
        """The record-id posting tuple of each of ``keys``."""
        lengths = self.lengths[keys]
        owner, within = expand(lengths)
        flat = self.ids[self.rows[self.offsets[keys][owner] + within]].tolist()
        bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


@dataclass(eq=False)
class InvertedIndex:
    """The pruned index: the table keys with at most ``k_max`` postings
    (``kept``, ascending) and each one's signature probability ``p``.
    """

    table: KeyTable
    kept: np.ndarray
    p: np.ndarray
    k_max: int

    # Kept for the benchmark's tracer (``tracer._after_prune``); no run reads it.
    @cached_property
    def entries(self) -> Mapping[str, IndexEntry]:
        keys = self.table.key_strings(self.kept)
        postings = self.table.postings(self.kept)
        return MappingProxyType({key: IndexEntry(key, ids, p) for key, ids, p
                                 in zip(keys, postings, self.p.tolist())})


# Kept for the benchmark's tracer, which wraps ``linker.eliminate``.
def subrecord_of(s: Sequence[str], t: Sequence[str]) -> bool:
    """True iff s is a subsequence of t (order preserved, words deleted).

    The per-part test of the paper's elimination rule, whose reference
    definition is ``linker.eliminate``."""
    it = iter(t)
    return all(tok in it for tok in s)


def build_raw_postings(
    table: RecordTable,
    templates: Sequence[SignatureTemplate],
    options: ExtractOptions = DEFAULT_OPTIONS,
    stats: ExtractionStats | None = None,
) -> KeyTable:
    """Group-by of key -> sorted posting list, before any pruning, as
    a ``KeyTable``.

    Model-independent, so parameter sweeps can reuse it. The table's
    records must already be deduplicated and template ids unique;
    postings hold canonical ids, and each record adds each of its
    distinct keys once. ``stats`` collects the extraction skip counters.
    """
    if len({tpl.template_id for tpl in templates}) < len(templates):
        raise ConfigError("template ids must be unique: each one prefixes its own keys")
    n = len(table)
    columns = RecordColumns(table, options)
    blocks: list[_TemplateKeys] = []
    rows: list[np.ndarray] = [np.empty(0, dtype=INDEX)]
    lengths: list[np.ndarray] = [np.empty(0, dtype=INDEX)]
    for tpl in templates:
        found = extract(tpl, columns)
        if stats is not None:
            stats.cap_skipped += found.cap_skipped
            stats.long_attr_random_skips += found.long_attr_random_skips
        sizes = [len(text) for text, width in found.parts for _ in range(width)]
        order, first = group_rows(list(found.values.T), sizes)
        # Postings ascend: order each run of equal keys by record row.
        order = order[np.argsort((np.cumsum(first) - 1) * n + found.rec[order])]
        starts = np.flatnonzero(first)
        blocks.append(_TemplateKeys(tpl.template_id, found.values[order[starts]], found.parts))
        rows.append(found.rec[order])
        lengths.append(np.diff(np.append(starts, len(order))))
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(lengths)))).astype(INDEX)
    return KeyTable(table.ids, offsets, np.concatenate(rows), blocks)


def index_from_postings(
    raw: KeyTable,
    model: ProbabilityModel,
    rho: float,
) -> InvertedIndex:
    """Prune raw postings at k_max(model, rho) and attach probabilities.

    Keys with more than ``k_max`` postings are dropped, so
    ``len(raw) - len(index.kept)`` of them are pruned."""
    k_max = max_recurrence(model, rho)
    longest = min(k_max, int(raw.lengths.max(initial=0)))
    p_by_len = np.array([np.nan] + [signature_probability(model, n)
                                    for n in range(1, longest + 1)])
    kept = np.flatnonzero(raw.lengths <= k_max)
    return InvertedIndex(raw, kept, p_by_len[raw.lengths[kept]], k_max)


def build_index(
    table: RecordTable,
    templates: Sequence[SignatureTemplate],
    model: ProbabilityModel,
    rho: float,
    options: ExtractOptions = DEFAULT_OPTIONS,
) -> InvertedIndex:
    """Extract, group, and prune in one pass over a table of
    deduplicated records."""
    return index_from_postings(build_raw_postings(table, templates, options), model, rho)


def dump_index(index: InvertedIndex, out: IO[str]) -> int:
    """Write the diagnostic dump: ``key<TAB>p<TAB>id,id,id`` per kept
    key, sorted by key, ``p`` as the ``repr`` of a Python float.
    Returns the number of lines written."""
    keys = index.table.key_strings(index.kept)
    rows = zip(keys, index.p.tolist(), index.table.postings(index.kept))
    for key, p, ids in sorted(rows, key=lambda row: row[0]):
        out.write(f"{key}\t{p!r}\t{','.join(map(str, ids))}\n")
    return len(keys)
