"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import csv
import itertools
import random
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import settings

from siglink import cc, linker, templates
from siglink.columns import INDEX
from siglink.errors import ConfigError
from siglink.evaluation import GridCell, GridParams, GroundTruth, _rank, evaluate
from siglink.indexer import InvertedIndex, KeyTable, build_raw_postings, index_from_postings
from siglink.records import RecordTable, TokenColumn, tokenize
from siglink.sigprob import ProbabilityModel, max_recurrence, signature_probability
from siglink.templates import (
    COMBINATION_CAP,
    KEY_PART_SEP,
    KEY_TOKEN_SEP,
    RANDOM_WORDS_ATTR_LIMIT,
    ConsecutiveWords,
    ExtractionStats,
    FullAttribute,
    RandomWords,
    SignatureTemplate,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


class Record(NamedTuple):
    """One record as the oracles read it: attribute name -> tokens."""

    id: int
    attributes: dict[str, tuple[str, ...]]


def make_record(rid: int, **attrs: str) -> Record:
    """Build a Record from raw attribute strings."""
    return Record(rid, {k: tokenize(v) for k, v in attrs.items()})


def table_of(records: Iterable[Record]) -> RecordTable:
    """``records`` as a table, sorted by id (stably): each token tuple
    joined by single spaces, through ``RecordTable.from_columns``. An
    attribute a record lacks is empty. Asserts that the table reads back
    the same tokens, so a token ``tokenize`` would not make fails here
    instead of changing."""
    records = sorted(records, key=lambda rec: rec.id)
    attrs = dict.fromkeys(attr for rec in records for attr in rec.attributes)
    filled = [Record(rec.id, {attr: rec.attributes.get(attr, ()) for attr in attrs})
              for rec in records]
    table = RecordTable.from_columns(
        [rec.id for rec in filled],
        {attr: [" ".join(rec.attributes[attr]) for rec in filled] for attr in attrs})
    assert rows_of(table) == filled, "a token that tokenize would not make"
    return table


def rows_of(table: RecordTable) -> list[Record]:
    """The table's rows, in order, each attribute's tokens read off its class."""
    attrs = list(table.classes)
    tuples = [table.columns[attr].tuples() for attr in attrs]
    return [Record(rid, {attr: column[c] for attr, column, c in zip(attrs, tuples, row)})
            for rid, *row in zip(table.ids.tolist(),
                                 *(table.classes[attr].tolist() for attr in attrs))]


class Caps(NamedTuple):
    """The extraction caps the oracles apply, the package's by default."""

    combination_cap: int = COMBINATION_CAP
    random_words_attr_limit: int = RANDOM_WORDS_ATTR_LIMIT

    @contextmanager
    def patched(self) -> Iterator[None]:
        """The package's cap constants set to these caps for a build."""
        with patch.object(templates, "COMBINATION_CAP", self.combination_cap), \
                patch.object(templates, "RANDOM_WORDS_ATTR_LIMIT", self.random_words_attr_limit):
            yield


def _part_values(part, record: Record, caps: Caps, stats) -> list[tuple[str, ...]]:
    """The values one template part yields for one record, in order,
    repeats kept."""
    toks = record.attributes.get(part.attr, ())
    if isinstance(part, ConsecutiveWords):
        return [toks[i:i + part.n] for i in range(len(toks) - part.n + 1)]
    if isinstance(part, RandomWords):
        if len(toks) < part.k:
            return []
        if len(toks) > caps.random_words_attr_limit:
            if stats is not None:
                stats.long_attr_random_skips += 1
            return []
        return [tuple(sorted(combo)) for combo in itertools.combinations(toks, part.k)]
    if isinstance(part, FullAttribute):
        return [toks] if toks else []
    # LastDigits: the final d characters of the concatenated ASCII digit tokens
    digits = "".join(t for t in toks if t.isascii() and t.isdigit())
    return [(digits[-part.d:],)] if len(digits) >= part.d else []


def extract(template: SignatureTemplate, record: Record, caps: Caps = Caps(),
            stats: ExtractionStats | None = None) -> set[str]:
    """Per-record extraction spec: the keys ``template`` yields for one
    ``Record``, the Cartesian combination of its parts' distinct values.

    Empty when any part yields nothing, or when the combination count
    exceeds ``caps.combination_cap`` (counted in
    ``stats.cap_skipped``). Independent of the columnar
    ``templates.extract``.
    """
    part_values = []
    count = 1
    for part in template.parts:
        values = list(dict.fromkeys(_part_values(part, record, caps, stats)))
        if not values:
            return set()
        part_values.append(values)
        count *= len(values)
    if count > caps.combination_cap:
        if stats is not None:
            stats.cap_skipped += 1
        return set()
    prefix = str(template.template_id) + KEY_PART_SEP
    return {prefix + KEY_PART_SEP.join(KEY_TOKEN_SEP.join(value) for value in combo)
            for combo in itertools.product(*part_values)}


def product_keys(template: SignatureTemplate, record: Record,
                 stats: ExtractionStats | None = None) -> set[str]:
    """The keys the columnar build gives ``template`` for one ``Record``,
    spelled by ``KeyTable.key_strings``."""
    raw = build_raw_postings(table_of([record]), [template], stats)
    return set(raw.key_strings(np.arange(len(raw))))


@dataclass
class KeyStrings:
    """A ``KeyTable`` block of keys given as strings."""

    values: list[str]

    def __len__(self) -> int:
        return len(self.values)

    def text(self, keys: np.ndarray) -> list[str]:
        return [self.values[k] for k in keys.tolist()]


def key_table(postings: Mapping[str, Iterable[int]]) -> KeyTable:
    """A ``KeyTable`` of the given keys and record ids, one block of
    string keys in the given order."""
    keys = list(postings)
    lists = [sorted(set(postings[key])) for key in keys]
    flat = np.fromiter(itertools.chain.from_iterable(lists), INDEX)
    ids = np.unique(flat)
    offsets = np.concatenate(([0], np.cumsum([len(ids_) for ids_ in lists], dtype=INDEX)))
    return KeyTable(ids, offsets.astype(INDEX), np.searchsorted(ids, flat).astype(INDEX),
                    [KeyStrings(keys)])


def index_of(*entries: tuple[str, Iterable[int], float], k_max: int = 10) -> InvertedIndex:
    """An ``InvertedIndex`` of the given ``(key, postings, p)`` rows, each
    key kept with its own ``p``; a repeated key keeps its last row."""
    rows = {key: (postings, p) for key, postings, p in entries}
    table = key_table({key: postings for key, (postings, _) in rows.items()})
    return InvertedIndex(table, np.arange(len(rows), dtype=INDEX),
                         np.array([p for _, p in rows.values()], dtype=float), k_max)


def evidence_by_id(groups: linker.PairEvidence) -> dict[tuple[int, int], list]:
    """``group_pairs``' row pair -> evidence mapping, each row pair
    turned into the ids of its key table."""
    ids = groups.table.ids
    return {(int(ids[r_i]), int(ids[r_j])): evidence for (r_i, r_j), evidence in groups.items()}


def links_by_id(links: np.recarray, table) -> list[tuple]:
    """A ``linker`` link table as ``tolist()`` gives it, each row pair
    turned into the ids of ``table`` (a ``KeyTable`` or ``RecordTable``),
    as the emit writes it."""
    out = links.copy()
    out["r_i"], out["r_j"] = table.ids[links.r_i], table.ids[links.r_j]
    return out.tolist()


def relabel(column: TokenColumn, order: Sequence[int]) -> TokenColumn:
    """``column`` over its vocabulary permuted: token id i becomes
    ``order[i]``, the same classes spelled by the same tokens."""
    order = np.asarray(order, dtype=INDEX)
    vocab = [""] * len(order)
    for token, new in zip(column.vocab, order.tolist()):
        vocab[new] = token
    return TokenColumn(column.offsets, order[column.ids], "\n".join(vocab))


def postings_of(table: KeyTable) -> dict[str, tuple[int, ...]]:
    """Every key of ``table`` -> its posting tuple, read off the columns."""
    every = np.arange(len(table))
    return dict(zip(table.key_strings(every), table.postings(every)))


Entry = namedtuple("Entry", "postings p")


def entries_of(index: InvertedIndex) -> dict[str, Entry]:
    """Every kept key of ``index`` -> its postings and ``p``."""
    keys = index.table.key_strings(index.kept)
    return {key: Entry(postings, p) for key, postings, p
            in zip(keys, index.table.postings(index.kept), index.p.tolist())}


def combine(evidence) -> float:
    """Per-pair reference combination: 1 - prod(1 - p) over ``(key, p)``
    rows, multiplied in ascending ``p``."""
    prod = 1.0
    for p in sorted(p for _, p in evidence):
        prod *= 1.0 - p
    return 1.0 - prod


def jaccard_oracle(threshold: float):
    """Per-pair reference verifier: accept two ``Record``s iff the
    Jaccard similarity of their full token sets (every attribute's
    tokens in one set) is >= threshold, two empty sets counting as
    identical. Independent of ``linker.jaccard``."""
    def verify(rec_a: Record, rec_b: Record) -> bool:
        sa = set(itertools.chain.from_iterable(rec_a.attributes.values()))
        sb = set(itertools.chain.from_iterable(rec_b.attributes.values()))
        union = len(sa | sb)
        if union == 0:
            return 1.0 >= threshold
        return len(sa & sb) / union >= threshold

    return verify


def reference_load(path, schema, *, id_base=0, key_column=None, encoding="utf-8-sig"):
    """Per-row reference loader: one ``Record`` per non-blank CSV row,
    each field tokenized on its own, and the native key -> id map.
    Independent of ``records.load_csv_with_keys``."""
    with open(path, newline="", encoding=encoding) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    cols = [header.index(attr) for attr in schema]
    records = [Record(id_base + i, {attr: tokenize(row[c]) for attr, c in zip(schema, cols)})
               for i, row in enumerate(rows)]
    native = {}
    if key_column is not None:
        native = {row[header.index(key_column)]: id_base + i for i, row in enumerate(rows)}
    return records, native


def reference_dedup(records) -> dict[int, int]:
    """Per-row reference dedup: id -> canonical id, the smallest id of
    each equal tuple of per-attribute token tuples, found with a dict.
    Independent of ``records.deduplicate``."""
    first: dict[tuple, int] = {}
    return {rec.id: first.setdefault(tuple(rec.attributes.items()), rec.id)
            for rec in sorted(records, key=lambda rec: rec.id)}


def _is_subseq(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    # Independent two-pointer subsequence check (not indexer.subrecord_of).
    i = 0
    for tok in b:
        if i < len(a) and a[i] == tok:
            i += 1
    return i == len(a)


def _parse(key: str) -> tuple[int, tuple[tuple[str, ...], ...]]:
    pieces = key.split(KEY_PART_SEP)
    return int(pieces[0]), tuple(tuple(p.split(KEY_TOKEN_SEP)) for p in pieces[1:])


def brute_force_links(
    records,
    templates,
    model,
    rho,
    tau,
    *,
    cross_source_only=False,
    source_of=None,
    verifier=None,
    caps: Caps = Caps(),
) -> list[tuple[int, int, float, int, bool]]:
    """All-pairs reference linkage with no inverted index.

    For every record pair: extract keys, intersect, drop keys whose
    global recurrence exceeds the model's cap, eliminate dominated
    keys, combine in ascending p, threshold, verify (a
    ``JaccardVerifier``'s threshold, through ``jaccard_oracle``).
    Elimination, combination and verification are re-implemented here
    so the production path is checked end to end.
    The oracle always applies the paper's elimination rule; production
    never does, so agreement also checks that extraction cannot produce
    nested same-template keys. Links are ``(r_i, r_j, probability,
    evidence_count, verified)`` rows in pair order, as ``tolist()`` of
    ``linker.finalize``'s table gives them.
    """
    keysets = {}
    for rec in records:
        keys = set()
        for tpl in templates:
            keys |= extract(tpl, rec, caps)
        keysets[rec.id] = keys
    recurrence = Counter()
    for keys in keysets.values():
        recurrence.update(keys)
    k_max = max_recurrence(model, rho)
    verify = None if verifier is None else jaccard_oracle(verifier.threshold)
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    links = []
    for i, ri in enumerate(ids):
        for rj in ids[i + 1:]:
            if cross_source_only and source_of[ri] == source_of[rj]:
                continue
            shared = sorted(k for k in keysets[ri] & keysets[rj] if recurrence[k] <= k_max)
            if not shared:
                continue
            parsed = [_parse(k) for k in shared]
            kept = []
            for x, (tid_x, parts_x) in enumerate(parsed):
                dominated = False
                for y, (tid_y, parts_y) in enumerate(parsed):
                    if x == y or tid_x != tid_y or len(parts_x) != len(parts_y):
                        continue
                    if parts_x != parts_y and all(
                        _is_subseq(pa, pb) for pa, pb in zip(parts_x, parts_y)
                    ):
                        dominated = True
                        break
                if not dominated:
                    kept.append(shared[x])
            shared = kept
            prod = 1.0
            for p in sorted(signature_probability(model, recurrence[key]) for key in shared):
                prod *= 1.0 - p
            combined = 1.0 - prod
            if combined > tau and (verify is None or verify(by_id[ri], by_id[rj])):
                links.append((ri, rj, combined, len(shared), True))
    return links


def brute_force_scores(labelling, truth_pairs, source_of=None):
    """All-pairs reference scoring: ``(tp, fp, fn)`` of the labelling
    (id -> cluster label) against truth pairs of ids.

    Lists every predicted pair (two ids with one label, and, given
    ``source_of`` (id -> source), from different sources) and
    intersects it with the truth set; same-source truth pairs given
    ``source_of`` stay unmatched. Independent of
    ``evaluation.evaluate``.
    """
    ids = sorted(labelling)
    predicted = {
        (x, y) for i, x in enumerate(ids) for y in ids[i + 1:]
        if labelling[x] == labelling[y]
        and (source_of is None or source_of[x] != source_of[y])
    }
    truth = {(min(x, y), max(x, y)) for x, y in truth_pairs}
    tp = len(predicted & truth)
    return tp, len(predicted) - tp, len(truth) - tp


def per_triple_grid_search(
    raw_postings: KeyTable,
    a_values: Sequence[float],
    b_values: Sequence[float],
    rho_values: Sequence[float],
    tau_values: Sequence[float],
    *,
    truth: GroundTruth,
    canonical_rows: np.ndarray,
    source: np.ndarray | None = None,
    pair_source: np.ndarray | None = None,
    records: RecordTable,
    verifier: linker.JaccardVerifier | None = None,
) -> tuple[GridCell, list[GridCell]]:
    """Reference grid search: the per-triple loop ``grid_search`` ran
    before it shared work across the grid, kept as it was.

    Each (a, b, rho) triple prunes the raw table, groups, combines and
    verifies its own pairs, then sweeps tau with one components pass
    and one ``evaluate`` per cell. Returns ``(best, cells)`` with the
    same cells, order and tie-break as ``grid_search``.
    """
    for name, values in (("a", a_values), ("b", b_values),
                         ("rho", rho_values), ("tau", tau_values)):
        if not values:
            raise ConfigError(f"grid for {name!r} is empty")

    def sweep(triple: tuple[float, float, float]) -> list[GridCell]:
        a, b, rho = triple
        t0 = time.perf_counter()
        model = ProbabilityModel(a=a, b=b)
        index = index_from_postings(raw_postings, model, rho)
        groups = linker.group_pairs(index, source=pair_source)
        pairs = linker.verify_pairs(linker.combine_pairs(groups), verifier, records)
        shared = (time.perf_counter() - t0) / len(tau_values)
        cells: list[GridCell] = []
        for tau in tau_values:
            t1 = time.perf_counter()
            links = linker.threshold_pairs(pairs, tau)
            labels = cc.connected_components(linker.edges(links), len(records))
            metrics = evaluate(labels[canonical_rows], truth, source=source)
            cells.append(GridCell(
                params=GridParams(a=a, b=b, rho=rho, tau=tau),
                metrics=metrics,
                links=len(links),
                seconds=shared + (time.perf_counter() - t1),
            ))
        return cells

    cells = [cell for triple in itertools.product(a_values, b_values, rho_values)
             for cell in sweep(triple)]
    return max(cells, key=_rank), cells


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
