"""Record ingestion: columnar CSV loading, tokenization, and exact deduplication.

Records are tokenized bags of attributes. Tokenization is deliberately
dumb: lowercase, split on runs of non-alphanumeric characters, keep
digit runs as first-class tokens. There is no standardisation or
cleansing step; downstream linkage relies on redundancy in the data
instead of clean canonical forms.

Records are held as columns (``RecordTable``). Loading reads each CSV
into one raw column per attribute and tokenizes each distinct raw value
once. Equal token tuples form one attribute class, and the classes'
tokens are interned into the attribute's sorted vocabulary, a CSR over
classes (``TokenColumn``); each row keeps one class id per attribute.
Deduplication is one sort of the rows' packed class columns and returns
its alias as two id columns (every input id, ascending, and its
canonical id), the form components, scoring and emit read. A verifier
reads rows as token-id sets (``RecordTable.token_sets``), so no
``Record`` is built in a run. ``Record`` is the library's row type: a
``Record`` list becomes a table through ``RecordTable.of``, and
iterating a table yields its rows as ``Record``s.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .columns import INDEX, expand, group_rows
from .errors import DataError

# Maximal runs of unicode alphanumerics; underscore is a delimiter.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character that is not alphanumeric, except the newline
# that separates values in ``tokenize_column``, becomes a space.
_ASCII_DELIMITERS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum() and c != "\n"})


def tokenize(raw: str) -> tuple[str, ...]:
    """Split a raw string into lowercase tokens.

    Splits on every maximal run of non-alphanumeric characters, drops
    empty fragments, and keeps digit runs as tokens:

        "45 Elizabeth Street"  -> ("45", "elizabeth", "street")
        "(123) 456-7890"       -> ("123", "456", "7890")
        ""                     -> ()
    """
    if not raw:
        return ()
    return tuple(_TOKEN_RE.findall(raw.lower()))


def tokenize_column(values: Sequence[str]) -> list[tuple[str, ...]]:
    """``tokenize`` of each of ``values``, in order.

    The ASCII values that hold no newline are tokenized in one pass over
    them joined by newlines: in ASCII the alphanumerics are exactly the
    letters and digits, and lowercasing does not depend on neighbouring
    characters. Every other value goes through ``tokenize``.
    """
    joined = "\n".join(values)
    if joined.isascii() and joined.count("\n") == len(values) - 1:
        return _ascii_tokens(joined)
    plain = [value.isascii() and "\n" not in value for value in values]
    bulk = iter(_ascii_tokens("\n".join(itertools.compress(values, plain))))
    return [next(bulk) if is_plain else tokenize(value)
            for value, is_plain in zip(values, plain)]


def _ascii_tokens(joined: str) -> list[tuple[str, ...]]:
    """``tokenize`` of each newline-separated value of ASCII ``joined``."""
    words = joined.lower().translate(_ASCII_DELIMITERS).split("\n")
    return list(map(tuple, map(str.split, words)))


@dataclass(frozen=True)
class Record:
    """One tokenized observation.

    ``attributes`` maps attribute name -> token sequence, in schema
    order. Attributes missing from the raw row are present with an
    empty token sequence.
    """

    id: int
    attributes: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class TokenColumn:
    """One attribute's classes (its distinct token tuples), interned.

    Class c's token ids are ``ids[offsets[c]:offsets[c + 1]]`` and
    token id i is ``vocab[i]``; the vocabulary is sorted, so token ids
    follow token order.
    """

    offsets: np.ndarray
    ids: np.ndarray
    vocab: list[str]

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def tuples(self) -> list[tuple[str, ...]]:
        """Every class's token tuple."""
        return _slices(list(map(self.vocab.__getitem__, self.ids.tolist())), self.offsets)

    def take(self, classes: np.ndarray) -> TokenColumn:
        """The column of ``classes``, in that order, over the same vocabulary."""
        lengths = np.diff(self.offsets)[classes]
        owner, within = expand(lengths)
        return TokenColumn(_offsets(lengths), self.ids[self.offsets[classes][owner] + within],
                           self.vocab)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths))).astype(INDEX)


def _slices(flat: list, offsets: np.ndarray) -> list[tuple]:
    bounds = offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


_EMPTY = TokenColumn(np.zeros(2, dtype=INDEX), np.empty(0, dtype=INDEX), [])


def _number_distinct(values: Sequence) -> tuple[dict, np.ndarray]:
    """Each distinct value's first position in ``values``, in order of
    first appearance, and each value's index among the distinct ones:
    one hash lookup per value."""
    first: dict = {}
    at = np.fromiter(map(first.setdefault, values, itertools.count()), INDEX, len(values))
    dense = np.empty(len(values), dtype=INDEX)
    dense[np.fromiter(first.values(), INDEX, len(first))] = np.arange(len(first))
    return first, dense[at]


def intern(values: Sequence[tuple[str, ...]]) -> tuple[np.ndarray, TokenColumn]:
    """Group equal token tuples into classes, numbered in order of first
    appearance, and intern the classes' tokens into their sorted
    vocabulary: each value's class, and the classes as a
    ``TokenColumn``."""
    classes, class_of = _number_distinct(values)
    tokens, token_of = _number_distinct(list(itertools.chain.from_iterable(classes)))
    vocab = sorted(tokens)
    rank = dict(zip(vocab, itertools.count()))
    lengths = np.fromiter(map(len, classes), INDEX, len(classes))
    return class_of, TokenColumn(
        offsets=_offsets(lengths),
        ids=np.fromiter(map(rank.__getitem__, tokens), INDEX, len(tokens))[token_of],
        vocab=vocab,
    )


def _raw_classes(raw: list[str]) -> tuple[np.ndarray, TokenColumn]:
    """``intern`` over one raw column, tokenizing each distinct value once."""
    values, value_of = _number_distinct(raw)
    class_of, column = intern(tokenize_column(list(values)))
    return class_of[value_of], column


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Records as columns, rows in ascending id order.

    Row r is record ``ids[r]``; its value of attribute ``a`` is class
    ``classes[a][r]`` of ``columns[a]``. As a sequence it yields one
    ``Record`` per row, built on read.
    """

    ids: np.ndarray
    classes: dict[str, np.ndarray]
    columns: dict[str, TokenColumn]

    @classmethod
    def of(cls, records: Iterable[Record]) -> RecordTable:
        """``records`` as a table: sorted by id (stably), their token
        tuples interned with ``intern``."""
        records = sorted(records, key=attrgetter("id"))
        attrs = dict.fromkeys(attr for rec in records for attr in rec.attributes)
        classes, columns = {}, {}
        for attr in attrs:
            classes[attr], columns[attr] = intern([rec.attributes.get(attr, ())
                                                   for rec in records])
        ids = np.fromiter(map(attrgetter("id"), records), INDEX, len(records))
        return cls(ids, classes, columns)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Record]:
        attrs = list(self.classes)
        rows = zip(*(map(self.columns[attr].tuples().__getitem__, self.classes[attr].tolist())
                     for attr in attrs)) if attrs else itertools.repeat(())
        for rid, toks in zip(self.ids.tolist(), rows):
            yield Record(rid, dict(zip(attrs, toks)))

    def column(self, attr: str) -> tuple[np.ndarray, TokenColumn]:
        """Each row's class of ``attr``, and the classes; an attribute
        the table lacks is empty in every row."""
        if attr not in self.columns:
            return np.zeros(len(self), dtype=INDEX), _EMPTY
        return self.classes[attr], self.columns[attr]

    def take(self, rows: np.ndarray) -> RecordTable:
        """The table of ``rows`` (ascending), over the same classes."""
        return RecordTable(self.ids[rows], {attr: classes[rows] for attr, classes
                                            in self.classes.items()}, self.columns)

    def token_sets(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``rows``' distinct tokens over every attribute, as a
        CSR: row ``rows[k]``'s token ids, ascending, are
        ``ids[offsets[k]:offsets[k + 1]]``. A token has one id whatever
        attribute holds it (its rank among the attributes' vocabularies'
        distinct tokens in first appearance).
        """
        attrs = list(self.classes)
        vocabs = [self.columns[attr].vocab for attr in attrs]
        distinct, merged = _number_distinct(list(itertools.chain.from_iterable(vocabs)))
        bases = np.cumsum([0] + list(map(len, vocabs)))
        owners, tokens = [np.empty(0, dtype=INDEX)], [np.empty(0, dtype=INDEX)]
        for attr, base in zip(attrs, bases.tolist()):
            column = self.columns[attr].take(self.classes[attr][rows])
            owners.append(expand(np.diff(column.offsets))[0])
            tokens.append(merged[base + column.ids])
        owner, token = np.concatenate(owners), np.concatenate(tokens)
        order, first = group_rows([owner, token], [len(rows), len(distinct)])
        kept = order[first]
        return _offsets(np.bincount(owner[kept], minlength=len(rows))), token[kept]


def concat(tables: Sequence[RecordTable]) -> RecordTable:
    """The rows of ``tables``, in order, over merged classes: each
    attribute's vocabularies merge by sorted union, and equal token
    tuples from different tables become one class, numbered in order of
    first appearance. Ids must ascend across the tables."""
    if len(tables) == 1:
        return tables[0]
    classes, columns = {}, {}
    for attr in dict.fromkeys(attr for table in tables for attr in table.columns):
        parts = [table.column(attr) for table in tables]
        vocab = sorted(set().union(*(col.vocab for _, col in parts)))
        rank = dict(zip(vocab, itertools.count()))
        every = TokenColumn(  # every table's classes, in order, repeats kept
            _offsets(np.concatenate([np.diff(col.offsets) for _, col in parts])),
            np.concatenate([np.fromiter(map(rank.__getitem__, col.vocab), INDEX,
                                        len(col.vocab))[col.ids] for _, col in parts]),
            vocab)
        first, class_of = _number_distinct(_slices(every.ids.tolist(), every.offsets))
        columns[attr] = every.take(np.fromiter(first.values(), INDEX, len(first)))
        bases = np.cumsum([0] + [len(col) for _, col in parts])
        classes[attr] = np.concatenate([class_of[base + row_class]
                                        for (row_class, _), base in zip(parts, bases)])
    return RecordTable(np.concatenate([table.ids for table in tables]), classes, columns)


@dataclass
class DedupResult:
    """Outcome of exact deduplication.

    ``canonical`` holds the rows of the smallest id of each equality
    class, ascending. ``ids`` holds every input id, ascending, and
    ``canonical_ids[i]`` is the canonical id of ``ids[i]``.
    """

    canonical: RecordTable
    ids: np.ndarray
    canonical_ids: np.ndarray


@dataclass
class LoadResult:
    table: RecordTable
    # Native key (value of the configured id column) -> internal id.
    native_ids: dict[str, int]


def line_of(path: Path, encoding: str, row: int) -> int:
    """The physical line on which data row ``row`` (blank rows not
    counted) ends, as ``csv.reader`` numbers it."""
    with path.open(newline="", encoding=encoding) as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, _ in enumerate(filter(None, reader)):
            if i == row:
                return reader.line_num
    raise ValueError(f"{path} has no data row {row}")


def read_csv(path: Path, encoding: str) -> tuple[list[str], list[list[str]]]:
    """A CSV file's header row and its non-blank data rows. An empty
    file, bytes the encoding cannot decode and rows the ``csv`` module
    rejects raise ``DataError``, the last two naming the line."""
    try:
        with path.open(newline="", encoding=encoding) as fh:
            reader = csv.reader(fh)
            try:
                header, rows = next(reader, None), list(filter(None, reader))
            except csv.Error as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        try:  # a stream's offset is into one chunk, the whole file's into the file
            path.read_bytes().decode(encoding)
        except UnicodeDecodeError as exc:
            # the line ends csv.reader counts in a file opened with newline=""
            line = len(re.split("\r\n|\r|\n", exc.object[:exc.start].decode(encoding)))
            raise DataError(f"{path}: line {line}: bytes not valid {encoding}: "
                            f"{exc.reason}") from None
        raise
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    return header, rows


def check_unrepeated(path: Path, header: Sequence[str], names: Iterable[str]) -> None:
    """Raise ``DataError`` naming the first of the columns ``names`` that
    ``header`` holds more than once: a read of it could take either."""
    for name in names:
        if header.count(name) > 1:
            raise DataError(f"{path}: line 1: column {name!r} appears "
                            f"{header.count(name)} times in the header")


def load_csv_with_keys(
    path: str | Path,
    schema: Sequence[str],
    *,
    id_base: int = 0,
    column_map: Mapping[str, str] | None = None,
    key_column: str | None = None,
    encoding: str = "utf-8-sig",
) -> LoadResult:
    """Load a CSV file into a ``RecordTable``, optionally capturing
    native keys.

    The first row must be a header containing every schema attribute's
    column (via ``column_map``, attribute -> column name, identity by
    default). Unmapped columns are ignored. Internal ids are assigned
    sequentially in file order starting at ``id_base``. Blank rows are
    skipped; rows with the wrong number of fields, or repeating a
    ``key_column`` value, raise ``DataError`` with the offending line
    number (the first such row's).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    column_map = dict(column_map or {})
    header, rows = read_csv(path, encoding)
    col_index: dict[str, int] = {name: i for i, name in enumerate(header)}
    attr_cols: list[tuple[str, int]] = []
    for attr in schema:
        col = column_map.get(attr, attr)
        if col not in col_index:
            raise DataError(f"{path}: header is missing column {col!r} for attribute {attr!r}")
        attr_cols.append((attr, col_index[col]))
    if key_column is not None and key_column not in col_index:
        raise DataError(f"{path}: header is missing id column {key_column!r}")
    check_unrepeated(path, header, [column_map.get(attr, attr) for attr in schema]
                     + ([] if key_column is None else [key_column]))

    fields = np.fromiter(map(len, rows), INDEX, len(rows))
    ragged = np.flatnonzero(fields != len(header))
    end = int(ragged[0]) if len(ragged) else len(rows)
    native_ids: dict[str, int] = {}
    if key_column is not None:
        keys = list(map(itemgetter(col_index[key_column]), itertools.islice(rows, end)))
        native_ids = dict(zip(keys, range(id_base, id_base + end)))
        if len(native_ids) < end:
            seen: set[str] = set()
            repeat = next(i for i, key in enumerate(keys) if key in seen or seen.add(key))
            raise DataError(f"{path}: line {line_of(path, encoding, repeat)}: duplicate "
                            f"{key_column!r} value {keys[repeat]!r}")
    if len(ragged):
        raise DataError(f"{path}: line {line_of(path, encoding, end)}: expected "
                        f"{len(header)} fields, got {fields[end]}")
    raw = {attr: list(map(itemgetter(i), rows)) for attr, i in attr_cols}
    del rows  # the raw columns hold every string still needed
    classes, columns = {}, {}
    for attr in list(raw):
        classes[attr], columns[attr] = _raw_classes(raw.pop(attr))
    ids = np.arange(id_base, id_base + len(fields), dtype=INDEX)
    return LoadResult(RecordTable(ids, classes, columns), native_ids)


def deduplicate(table: RecordTable) -> DedupResult:
    """Remove exact duplicates, keeping the smallest id per class.

    Two records are duplicates iff their normalized token sequences
    (with attribute boundaries) are equal, regardless of source: rows
    are grouped by one sort of their packed class columns. The alias
    columns cover every input id, and a canonical id is its own
    canonical id.
    """
    ids, n = table.ids, len(table)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if len(repeated):
        raise DataError(f"duplicate record id {repeated[0]} in dedup input")
    canonical_row = np.arange(n, dtype=INDEX)
    if n and table.classes:
        order, first = group_rows(list(table.classes.values()),
                                  [len(table.columns[attr]) for attr in table.classes])
        starts = np.flatnonzero(first)
        # Rows ascend by id, so each class's smallest row holds its smallest id.
        canonical_row[order] = np.minimum.reduceat(order, starts)[np.cumsum(first) - 1]
    elif n:
        canonical_row[:] = 0
    keep = np.flatnonzero(canonical_row == np.arange(n))
    return DedupResult(canonical=table.take(keep), ids=ids, canonical_ids=ids[canonical_row])
