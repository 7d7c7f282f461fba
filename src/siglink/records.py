"""Record ingestion: columnar CSV loading, tokenization, and exact deduplication.

Records are tokenized bags of attributes. Tokenization is deliberately
dumb: lowercase, split on runs of non-alphanumeric characters, keep
digit runs as first-class tokens. There is no standardisation or
cleansing step; downstream linkage relies on redundancy in the data
instead of clean canonical forms.

Records are held as columns (``RecordTable``), and raw strings are the
only way in. Each raw column's distinct values are numbered first, and
one tokenizing core (``_raw_classes``) takes the column as those values,
in one string, and one code per row: ``RecordTable.from_columns``
numbers the lists it is given, and a load numbers each column as it
reads the CSV in blocks (``read_blocks``), as a database scans a table,
so it builds no raw column and no list of every row. Each distinct raw
value is tokenized once, so every token of every table is one
``tokenize`` makes, and none holds a key separator. Equal token tuples
form one attribute class, and the classes' tokens are interned into the
attribute's vocabulary, a CSR over classes (``TokenColumn``); each row
keeps one class id per attribute. Classes and tokens are both numbered
in order of first appearance. A vocabulary is held as one string, not
one string per token, so a loaded table keeps no per-token object
alive. A column whose distinct values are each already its tokens
joined by single spaces needs no class numbering: each value is its own
class, its tokens are numbered a chunk of values at a time, and values
of one token each are the vocabulary as they stand. No vocabulary is
sorted at load: only ``templates.RandomWords`` reads token order, and
it ranks its own column. Deduplication is one sort of the rows' packed
class columns and returns its alias as two columns (every input id,
ascending, and the row of the canonical table that stands for it), the
form components, scoring and emit read. Two sources' canonical rows
merge (``concat``) by a group-by too: equal token-id sequences have
equal lengths, so each length's classes are sorted on their id columns
once, and each run of equal ones becomes one class, its first. A verifier reads rows as token-id sets
(``RecordTable.token_sets``).
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .columns import INDEX, expand, group_rows, sort_rows
from .errors import DataError

# Maximal runs of unicode alphanumerics; underscore is a delimiter.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character that is not alphanumeric, except the newline
# that separates values in ``tokenize_column``, becomes a space.
_ASCII_DELIMITERS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum() and c != "\n"})
# The bytes of spaced values (``_spaced_column``): lowercase letters,
# digits, the space between tokens and the newline between values.
_SPACED_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789 \n"


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
class TokenColumn:
    """One attribute's classes (its distinct token tuples), interned.

    Class c's token ids are ``ids[offsets[c]:offsets[c + 1]]`` and
    token id i is ``vocab[i]``. Token ids number the tokens in order of
    first appearance over the classes, not in token order.

    The vocabulary is held as one string, ``words``: the tokens in id
    order separated by ``"\n"``, which no token holds. ``vocab`` splits
    it into a list on each read, so a reader reads it once per call.
    One string, not a list of strings, is what a table keeps alive:
    pymalloc returns an arena to the system only when all of it is free,
    and at load the vocabulary's strings are made in the holes the raw
    values leave, so as a list they would pin the arenas of every raw
    value after those are gone.
    """

    offsets: np.ndarray
    ids: np.ndarray
    words: str

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def vocab(self) -> list[str]:
        """Every token, in id order (a new list on each read)."""
        return self.words.split("\n") if self.words else []

    def tuples(self) -> list[tuple[str, ...]]:
        """Every class's token tuple."""
        return _slices(list(map(self.vocab.__getitem__, self.ids.tolist())), self.offsets)

    def take(self, classes: np.ndarray) -> TokenColumn:
        """The column of ``classes``, in that order, over the same vocabulary."""
        lengths = np.diff(self.offsets)[classes]
        owner, within = expand(lengths)
        return TokenColumn(_offsets(lengths), self.ids[self.offsets[classes][owner] + within],
                           self.words)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths))).astype(INDEX)


def _slices(flat: list, offsets: np.ndarray) -> list[tuple]:
    bounds = offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


_EMPTY = TokenColumn(np.zeros(2, dtype=INDEX), np.empty(0, dtype=INDEX), "")


# The largest record id: ``evaluation.GroundTruth`` packs a truth pair
# of ids into one int64, 32 bits each, so ids must fit in 31 bits.
MAX_NODE_ID = 2**31 - 1

# Rows a load holds as lists at once, and distinct values of a spaced
# column whose tokens are split out at once.
_BLOCK_ROWS = 1 << 16


def _first_positions(first: dict, values: Iterable, start: int, size: int) -> np.ndarray:
    """Each of the ``size`` ``values``' first position, ``values[0]``
    being at ``start``: ``first`` maps every distinct value seen so far
    to its first position, and takes in the new ones. One hash lookup
    per value."""
    return np.fromiter(map(first.setdefault, values, itertools.count(start)), INDEX, size)


def _ranks(first: dict, at: np.ndarray) -> tuple[list, np.ndarray]:
    """``first``'s distinct values, in order of first appearance, and
    each first position of ``at`` (over every position ``first`` has
    seen) as an index among them. Empties ``first``."""
    dense = np.empty(len(at), dtype=INDEX)
    dense[np.fromiter(first.values(), INDEX, len(first))] = np.arange(len(first))
    distinct = list(first)
    first.clear()
    return distinct, dense[at]


def _number_distinct(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct ``values``, in order of first appearance, and each
    value's index among them."""
    first: dict = {}
    return _ranks(first, _first_positions(first, values, 0, len(values)))


def _number_sequences(column: TokenColumn) -> tuple[np.ndarray, np.ndarray]:
    """``_number_distinct`` over the classes' token-id sequences: the
    first class of each distinct sequence, ascending, and each class's
    index among those. Equal sequences have equal lengths, so each
    length's classes are grouped on their id columns by one sort, and
    each group takes its first class."""
    lengths = np.diff(column.offsets)
    size = int(column.ids.max(initial=-1)) + 1
    first_of = np.arange(len(lengths), dtype=INDEX)
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        of_len = np.flatnonzero(lengths == n)
        if n == 0:  # empty sequences are all equal
            first_of[of_len] = of_len[0]
            continue
        ids = column.ids[column.offsets[of_len][:, None] + np.arange(n)]
        order, first = group_rows(list(ids.T), [size] * n)
        grouped, group = of_len[order], np.cumsum(first) - 1
        first_of[grouped] = np.minimum.reduceat(grouped, np.flatnonzero(first))[group]
    distinct = np.flatnonzero(first_of == np.arange(len(lengths)))
    rank = np.empty(len(lengths), dtype=INDEX)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[first_of]


def _lines(values: list[str]) -> str:
    """``values`` in one string, each ended by a newline. A newline inside
    a value becomes a carriage return, which splits tokens as it does."""
    text = "\n".join(values) + "\n" if values else ""
    if text.count("\n") > len(values):
        text = "".join(value.replace("\n", "\r") + "\n" for value in values)
    return text


def _raw_classes(text: str, value_of: np.ndarray) -> tuple[np.ndarray, TokenColumn]:
    """Each row's class, and the classes, of a raw column given as its
    distinct values, in order of first appearance, in one string
    (``_lines``), and each row's index among them: distinct values are
    tokenized once, and classes and tokens are numbered in order of first
    appearance. Spaced values are their own classes (``_spaced_column``).

    One string, not a string per value, is what a load holds while it
    tokenizes: the per-value strings a load keeps are strewn over the
    memory its rows were read into, and new strings made among them cost
    about twice as much.
    """
    spaced = _spaced_column(text)
    if spaced is not None:
        return value_of, spaced
    classes, class_of = _number_distinct(tokenize_column(text.split("\n")[:-1]))
    lengths = np.fromiter(map(len, classes), INDEX, len(classes))
    vocab, ids = _number_distinct(list(itertools.chain.from_iterable(classes)))
    return class_of[value_of], TokenColumn(_offsets(lengths), ids, "\n".join(vocab))


def _spaced_column(text: str) -> TokenColumn | None:
    """The column of the distinct values in ``text`` (``_lines``), each
    value its own class, if each is its own tokens joined by single
    spaces (so distinct values have distinct tokens); otherwise None.

    Tokens are numbered from ``_BLOCK_ROWS`` values at a time, so no
    list of every token is made. Values of at most one token each are the
    vocabulary as they stand.
    """
    if not (text and text.isascii()):
        return None
    data = text.encode()
    if (data.translate(None, _SPACED_BYTES) or data.startswith(b" ")
            or any(map(data.__contains__, (b"  ", b"\n ", b" \n")))):
        return None
    data = np.frombuffer(data, np.uint8)
    ends, spaces = np.flatnonzero(data == 10), np.flatnonzero(data == 32)
    del data
    starts = np.append(0, ends[:-1] + 1)
    counts = np.searchsorted(spaces, ends) - np.searchsorted(spaces, starts) + 1
    counts[ends == starts] = 0
    offsets = _offsets(counts)
    if not len(spaces):  # at most one value is empty: the values are distinct
        return TokenColumn(offsets, np.arange(offsets[-1], dtype=INDEX),
                           text[:-1].replace("\n\n", "\n", 1).strip("\n"))
    del spaces, ends, counts
    bounds = np.append(starts[::_BLOCK_ROWS], len(text)).tolist()
    vocab: dict = {}
    at = [np.empty(0, dtype=INDEX)]
    for chunk, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        tokens = text[start:stop].split()
        at.append(_first_positions(vocab, tokens, int(offsets[chunk * _BLOCK_ROWS]),
                                   len(tokens)))
    words, ids = _ranks(vocab, np.concatenate(at))
    return TokenColumn(offsets, ids, "\n".join(words))


def _check_ascending(ids: np.ndarray, where: str = "") -> None:
    """Raise ``DataError`` naming the first of ``ids`` that does not strictly ascend."""
    falls = np.flatnonzero(ids[1:] <= ids[:-1])
    if len(falls):
        before, at = ids[falls[0]], ids[falls[0] + 1]
        repeat = "duplicate " if at == before else ""
        raise DataError(f"{repeat}record id {at} does not ascend (it follows {before}){where}")


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Records as columns, rows in ascending id order.

    Row r is record ``ids[r]``; its value of attribute ``a`` is class
    ``classes[a][r]`` of ``columns[a]``. ``from_columns`` builds one
    from raw strings.
    """

    ids: np.ndarray
    classes: dict[str, np.ndarray]
    columns: dict[str, TokenColumn]

    @classmethod
    def from_columns(cls, ids: Sequence[int] | np.ndarray,
                     raw: dict[str, list[str]]) -> RecordTable:
        """Records ``ids`` (strictly ascending), ``raw[attr][r]`` the raw
        value of ``attr`` in row r; each column's distinct values are
        numbered (``_number_distinct``), and it is tokenized and interned
        on its own (``_raw_classes``). Takes ownership of ``raw``: each
        column is popped before it is interned, so one raw column at a
        time is held beside the table, and ``raw`` is empty on return."""
        ids = np.asarray(ids, dtype=INDEX)
        _check_ascending(ids)
        classes, columns = {}, {}
        for attr in list(raw):
            if len(raw[attr]) != len(ids):
                raise DataError(f"attribute {attr!r} has {len(raw[attr])} values "
                                f"for {len(ids)} ids")
            values, value_of = _number_distinct(raw.pop(attr))
            classes[attr], columns[attr] = _raw_classes(_lines(values), value_of)
        # The table keeps a copy made after the interning: at 300k rows,
        # keeping an array made before it raised the run's peak RSS 2.9 MB.
        return cls(ids.copy(), classes, columns)

    def __len__(self) -> int:
        return len(self.ids)

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
        (owner, token), first = sort_rows([np.concatenate(owners), np.concatenate(tokens)],
                                          [len(rows), len(distinct)])
        return _offsets(np.bincount(owner[first], minlength=len(rows))), token[first]


def concat(tables: Sequence[RecordTable]) -> RecordTable:
    """The rows of ``tables``, in order, over merged classes: each
    attribute's vocabularies merge in order of first appearance, and
    equal token tuples from different tables become one class, numbered
    in order of first appearance too, by a group-by of the merged
    token-id sequences (``_number_sequences``). Ids must ascend across
    the tables."""
    ids = np.concatenate([table.ids for table in tables])
    _check_ascending(ids, " in concat input")
    if len(tables) == 1:
        return tables[0]
    classes, columns = {}, {}
    for attr in dict.fromkeys(attr for table in tables for attr in table.columns):
        parts = [table.column(attr) for table in tables]
        # Merged as ``token_sets`` merges them: in order of first appearance.
        vocabs = [col.vocab for _, col in parts]
        vocab, merged = _number_distinct(list(itertools.chain.from_iterable(vocabs)))
        bases = np.cumsum([0] + list(map(len, vocabs)))
        every = TokenColumn(  # every table's classes, in order, repeats kept
            _offsets(np.concatenate([np.diff(col.offsets) for _, col in parts])),
            np.concatenate([merged[base + col.ids] for (_, col), base in zip(parts, bases)]),
            "\n".join(vocab))
        distinct, class_of = _number_sequences(every)
        columns[attr] = every.take(distinct)
        bases = np.cumsum([0] + [len(col) for _, col in parts])
        classes[attr] = np.concatenate([class_of[base + row_class]
                                        for (row_class, _), base in zip(parts, bases)])
    return RecordTable(ids, classes, columns)


@dataclass
class DedupResult:
    """Outcome of exact deduplication.

    ``canonical`` holds the rows of the smallest id of each equality
    class, ascending. ``ids`` holds every input id, ascending, and
    ``canonical_rows[i]`` is the row of ``canonical`` that stands for
    ``ids[i]``.
    """

    canonical: RecordTable
    ids: np.ndarray
    canonical_rows: np.ndarray


@dataclass
class LoadResult:
    table: RecordTable
    # Each row's native key (value of the configured id column), in row
    # order; empty without an id column.
    keys: list[str]

    @property
    def native_ids(self) -> dict[str, int]:
        """Native key -> internal id, built on each read."""
        return dict(zip(self.keys, self.table.ids.tolist()))


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


def read_blocks(path: Path, encoding: str) -> Iterator[list[list[str]]]:
    """A CSV file's header row, then its non-blank data rows in blocks of
    ``_BLOCK_ROWS``. An empty file, bytes the encoding cannot decode and
    rows the ``csv`` module rejects raise ``DataError``, the last two
    naming the line."""
    try:
        with path.open(newline="", encoding=encoding) as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            try:
                header = next(reader, None)
                if header is None:
                    raise DataError(f"{path}: empty file, header row required")
                yield header
                # Unnamed, so no block is held while the next one is read.
                yield from iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), [])
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
    number (the first such row's). Bytes the encoding cannot decode, or
    a row the ``csv`` module rejects, anywhere in the file are reported
    before those.

    The file is read in blocks of ``_BLOCK_ROWS`` rows (``read_blocks``),
    and each schema column's values are numbered as each block arrives,
    as a database scans a table: past a block, only each column's
    distinct strings, one code per row and the block's native keys in
    one string are kept, and no raw column is built. Each column is then
    tokenized and interned (``_raw_classes``), and the native keys are
    split out last.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    column_map = dict(column_map or {})
    blocks = read_blocks(path, encoding)
    header = next(blocks)
    try:
        col_index: dict[str, int] = {name: i for i, name in enumerate(header)}
        cols: list[int] = []
        for attr in schema:
            col = column_map.get(attr, attr)
            if col not in col_index:
                raise DataError(f"{path}: header is missing column {col!r} for attribute "
                                f"{attr!r}")
            cols.append(col_index[col])
        if key_column is not None and key_column not in col_index:
            raise DataError(f"{path}: header is missing id column {key_column!r}")
        check_unrepeated(path, header, [column_map.get(attr, attr) for attr in schema]
                         + ([] if key_column is None else [key_column]))
        # Per schema column, each distinct value's first row, and each
        # block's rows' first rows of their values.
        firsts: list[dict] = [{} for _ in cols]
        positions: list[list[np.ndarray]] = [[np.empty(0, dtype=INDEX)] for _ in cols]
        # Each block's native keys in one string, so that no string a row
        # was read into outlives its block (see ``_raw_classes``).
        key_blocks: list[tuple[str, str]] = []
        ragged: tuple[int, int] | None = None  # the first ragged row, and its field count
        n = 0
        for block in blocks:
            fields = np.fromiter(map(len, block), INDEX, len(block))
            short = np.flatnonzero(fields != len(header))
            end = int(short[0]) if len(short) else len(block)
            if key_column is not None and end:
                block_keys = map(itemgetter(col_index[key_column]), itertools.islice(block, end))
                key_blocks.append(_joined(list(block_keys)))
            if end < len(block):
                ragged = n + end, int(fields[end])
                break
            for first, at, col in zip(firsts, positions, cols):
                at.append(_first_positions(first, map(itemgetter(col), block), n, len(block)))
            n += len(block)
            del block  # freed before the next block is read
        if ragged is not None:
            _native_keys(path, encoding, key_column, key_blocks)  # a repeated key before it wins
            raise DataError(f"{path}: line {line_of(path, encoding, ragged[0])}: expected "
                            f"{len(header)} fields, got {ragged[1]}")
    except DataError:
        for _ in blocks:  # a bad byte or a row csv rejects later in the file comes first
            pass
        raise
    # Every column's distinct values are in one string, and their own
    # strings freed, before any column is tokenized (see ``_raw_classes``).
    lines = []
    for first, at in zip(firsts, positions):
        values, value_of = _ranks(first, np.concatenate(at))
        at.clear()
        lines.append((_lines(values), value_of))
        del values
    classes, columns = {}, {}
    for attr in schema:
        classes[attr], columns[attr] = _raw_classes(*lines.pop(0))
    ids = np.arange(id_base, id_base + n, dtype=INDEX)
    keys = _native_keys(path, encoding, key_column, key_blocks)
    return LoadResult(RecordTable(ids, classes, columns), keys)


def _joined(values: list[str]) -> tuple[str, str]:
    """A character that none of ``values`` holds, a newline unless one
    does, and ``values`` joined by it."""
    text = "\n".join(values)
    if text.count("\n") == len(values) - 1:
        return "\n", text
    sep = next(c for c in map(chr, itertools.count(1)) if c not in text)
    return sep, sep.join(values)


def _native_keys(path: Path, encoding: str, key_column: str | None,
                 key_blocks: list[tuple[str, str]]) -> list[str]:
    """The native keys of ``key_blocks`` (``_joined`` blocks), in row
    order; a key repeated among them raises ``DataError`` naming the
    line of its first repeat."""
    keys = list(itertools.chain.from_iterable(text.split(sep) for sep, text in key_blocks))
    if len(set(keys)) < len(keys):
        seen: set[str] = set()
        repeat = next(i for i, key in enumerate(keys) if key in seen or seen.add(key))
        raise DataError(f"{path}: line {line_of(path, encoding, repeat)}: duplicate "
                        f"{key_column!r} value {keys[repeat]!r}")
    return keys


def deduplicate(table: RecordTable) -> DedupResult:
    """Remove exact duplicates, keeping the smallest id per class.

    Two records are duplicates iff their normalized token sequences
    (with attribute boundaries) are equal, regardless of source: rows
    are grouped by one sort of their packed class columns. The alias
    columns cover every input id, and a canonical record stands for
    itself.
    """
    ids, n = table.ids, len(table)
    _check_ascending(ids, " in dedup input")
    canonical_row = np.arange(n, dtype=INDEX)
    if n and table.classes:
        order, first = group_rows(list(table.classes.values()),
                                  [len(table.columns[attr]) for attr in table.classes])
        starts = np.flatnonzero(first)
        # Rows ascend by id, so each class's smallest row holds its smallest id.
        canonical_row[order] = np.minimum.reduceat(order, starts)[np.cumsum(first) - 1]
    elif n:
        canonical_row[:] = 0
    kept = canonical_row == np.arange(n)
    # A kept row's rank among the kept rows is its row in ``canonical``.
    rank = np.cumsum(kept) - 1
    return DedupResult(canonical=table.take(np.flatnonzero(kept)), ids=ids,
                       canonical_rows=rank[canonical_row])
