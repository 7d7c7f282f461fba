"""Inverted index over candidate signatures with recurrence pruning.

The build is a whole-column group-by. It reads records as a
``records.RecordTable``, whose attributes are interned at load into
vocabularies held as CSR arrays of token ids over attribute classes;
each part's values are found and coded per class
(``templates.RecordColumns``); each template joins them to the rows as
key rows of one value code per part (``templates.extract``, once per
template), written packed into one int64 when the parts' distinct-value
counts and the row count let them fit; and each template's rows are
sorted once on (codes, record row) by value (``columns.sort_words``),
so that equal keys form runs whose postings ascend. The runs of two
rows or more are the CSR postings of a ``KeyTable``.

A key found in one record can make no pair, so the table counts such
keys and stores none of them. ``extract`` leaves out every key that
holds a value only one record has, and counts them; a run of one row
after the sort is dropped from the sorted rows and counted too.

Pruning drops every key observed in more than k_max records and takes
each kept key's probability from a table indexed by posting length.
Pruning by posting length is equivalent to pruning by probability (the
probability is strictly decreasing in recurrence) and is what bounds
the downstream pair generation.

Key strings are spelled out only for output: ``KeyTable.key_strings``
spells the codes of the keys asked for through their parts' value
tables, ``KeyTable.postings`` reads their postings, and
``dump_index`` writes ``index.tsv`` from them, so the dump lists the
stored keys only. Every size (keys seen, keys pruned, posting lengths,
candidate instances) is an expression over the table's columns and
its count of keys not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import IO, Mapping, Sequence

import numpy as np

from .columns import INDEX, expand, sort_words
from .errors import ConfigError
from .records import RecordTable
from .sigprob import ProbabilityModel, max_recurrence, probability_by_length
from .templates import (
    ExtractionStats,
    RecordColumns,
    SignatureTemplate,
    ValueTable,
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
    """A template's block of table keys: key i's part j is value code
    ``codes[j][i]`` of ``parts[j]`` (see ``TemplateRows``)."""

    template_id: int
    codes: list[np.ndarray]
    parts: list[ValueTable]

    def __len__(self) -> int:
        return len(self.codes[0])

    def text(self, keys: np.ndarray) -> list[str]:
        return encode_keys(self.template_id, self.parts, [code[keys] for code in self.codes])


class KeyTable:
    """The postings of every key found in two records or more, before
    pruning, as columns, and the number of keys found in one record,
    which are counted and not stored.

    Key k's postings are the record rows ``rows[offsets[k]:offsets[k +
    1]]``, ascending, and row r is record ``ids[r]`` (ascending too).
    Keys are numbered block by block, one block per template. ``len``
    counts the stored keys.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, rows: np.ndarray,
                 blocks: Sequence[_TemplateKeys], unstored: int) -> None:
        self.ids = ids
        self.offsets = offsets
        self.rows = rows
        self.lengths = np.diff(offsets)
        self.blocks = list(blocks)
        self.unstored = unstored
        sizes = [len(block) for block in self.blocks]
        self._starts = np.concatenate(([0], np.cumsum(sizes, dtype=INDEX)))

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def keys_seen(self) -> int:
        """Every key found, stored or not."""
        return len(self) + self.unstored

    @property
    def instances(self) -> int:
        """Every (record, key) instance: each record's distinct keys."""
        return int(self.lengths.sum()) + self.unstored

    def histogram(self) -> list[int]:
        """The number of keys seen of each posting length, from 0."""
        counts = np.bincount(self.lengths, minlength=2 if self.unstored else 0)
        counts[1:2] += self.unstored
        return counts.tolist()

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

    @property
    def keys_kept(self) -> int:
        """Every key seen within ``k_max``: the stored ones in ``kept``,
        and the ones found in one record when ``k_max`` admits them."""
        return len(self.kept) + (self.table.unstored if self.k_max >= 1 else 0)

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
    stats: ExtractionStats | None = None,
) -> KeyTable:
    """Group-by of key -> sorted posting list, before any pruning, as
    a ``KeyTable``.

    Model-independent, so parameter sweeps can reuse it. The table's
    records must already be deduplicated and template ids unique;
    postings hold the table's rows, and each record adds each of its
    distinct keys once. Keys found in one record are counted, not
    stored. ``stats`` collects the extraction skip counters.
    """
    if len({tpl.template_id for tpl in templates}) < len(templates):
        raise ConfigError("template ids must be unique: each one prefixes its own keys")
    columns = RecordColumns(table)
    blocks: list[_TemplateKeys] = []
    rows: list[np.ndarray] = [np.empty(0, dtype=INDEX)]
    lengths: list[np.ndarray] = [np.empty(0, dtype=INDEX)]
    unstored = 0
    for tpl in templates:
        found = extract(tpl, columns)
        if stats is not None:
            stats.cap_skipped += found.cap_skipped
            stats.long_attr_random_skips += found.long_attr_random_skips
        unstored += found.unshared
        # One sort on (codes, record row): equal keys form runs, and each
        # run's postings ascend. It empties ``found.words``.
        (*codes, rec), first = sort_words(found.words, found.places, n_key=len(found.parts))
        # A key found in one record is a run of one: a row that starts a
        # run and whose next row starts one too. Its row is counted and
        # dropped (``np.compress`` is faster than a boolean index).
        shared = first.copy()
        shared[:-1] &= first[1:]
        np.logical_not(shared, out=shared)
        rec = np.compress(shared, rec)
        unstored += len(shared) - len(rec)
        first &= shared
        heads = np.flatnonzero(first)
        blocks.append(_TemplateKeys(tpl.template_id, [c[heads] for c in codes], found.parts))
        del codes, heads  # the next extract runs without them: a lower peak
        starts = np.flatnonzero(np.compress(shared, first))
        rows.append(rec)
        lengths.append(np.diff(np.append(starts, len(rec))))
        del first, shared
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(lengths)))).astype(INDEX)
    return KeyTable(table.ids, offsets, np.concatenate(rows), blocks, unstored)


def index_from_postings(
    raw: KeyTable,
    model: ProbabilityModel,
    rho: float,
) -> InvertedIndex:
    """Prune raw postings at k_max(model, rho) and attach probabilities.

    Keys with more than ``k_max`` postings are dropped, so
    ``raw.keys_seen - index.keys_kept`` of them are pruned."""
    k_max = max_recurrence(model, rho)
    p_by_len = probability_by_length(model, k_max, min(k_max, int(raw.lengths.max(initial=0))))
    kept = np.flatnonzero(raw.lengths <= k_max)
    return InvertedIndex(raw, kept, p_by_len[raw.lengths[kept]], k_max)


def build_index(
    table: RecordTable,
    templates: Sequence[SignatureTemplate],
    model: ProbabilityModel,
    rho: float,
) -> InvertedIndex:
    """Extract, group, and prune in one pass over a table of
    deduplicated records."""
    return index_from_postings(build_raw_postings(table, templates), model, rho)


def dump_index(index: InvertedIndex, out: IO[str]) -> int:
    """Write the diagnostic dump: ``key<TAB>p<TAB>id,id,id`` per kept
    key, sorted by key, ``p`` as the ``repr`` of a Python float.
    Returns the number of lines written."""
    keys = index.table.key_strings(index.kept)
    rows = zip(keys, index.p.tolist(), index.table.postings(index.kept))
    for key, p, ids in sorted(rows, key=lambda row: row[0]):
        out.write(f"{key}\t{p!r}\t{','.join(map(str, ids))}\n")
    return len(keys)
