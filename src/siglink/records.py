"""Record ingestion: columnar CSV loading, tokenization, and exact deduplication.

Records are tokenized bags of attributes. Tokenization is deliberately
dumb: lowercase, split on runs of non-alphanumeric characters, keep
digit runs as first-class tokens. There is no standardisation or
cleansing step; downstream linkage relies on redundancy in the data
instead of clean canonical forms.

Records are held as columns (``RecordTable``), and raw strings are the
only way in. A load reads a CSV in blocks (``read_blocks``), as a
database scans a table, and numbers each column's distinct raw values
as each block arrives; it tokenizes nothing. One interning step
(``intern``) then takes every loaded source, as a database takes the
``UNION ALL`` of its sources before a group-by: each attribute's
distinct raw values over every source are numbered together and
tokenized once (``_raw_classes``). ``RecordTable.from_columns`` ends in
the same step. Equal token tuples form one attribute class, whichever
source holds them; a class's tokens are ids into the attribute's
vocabulary, a CSR over classes (``TokenColumn``), and each row keeps one
class id per attribute. Classes and tokens are numbered in order of
first appearance, and no vocabulary is sorted: only
``templates.RandomWords`` reads token order, and it ranks its own
column. Deduplication is one sort of the rows' packed source codes and
class columns, so equal rows of different sources stay distinct. It
returns its alias as two columns (every input id, ascending, and the row
of the canonical table that stands for it), the form components, scoring
and emit read. A verifier reads rows as token-id sets
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
    and the vocabulary's strings are made in the holes the raw
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

    One string, not a string per value, is what interning holds while it
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
        value of ``attr`` in row r, numbered as a load numbers a column and
        interned as a loaded source is (``intern``). Takes ownership of
        ``raw``: each column is popped as it is numbered."""
        ids = np.asarray(ids, dtype=INDEX)
        values = {}
        for attr in list(raw):
            if len(raw[attr]) != len(ids):
                raise DataError(f"attribute {attr!r} has {len(raw[attr])} values "
                                f"for {len(ids)} ids")
            distinct, value_of = _number_distinct(raw.pop(attr))
            values[attr] = _lines(distinct), value_of
        return intern([LoadResult(ids, values, [])])

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
    """One source's rows, read but not tokenized. Row r is record
    ``ids[r]``; ``values[attr]`` holds the distinct raw values of
    ``attr``, in order of first appearance, in one string (``_lines``),
    and each row's index among them. Native keys stay joined per block
    (``_joined``) until ``keys`` is read."""

    ids: np.ndarray
    values: dict[str, tuple[str, np.ndarray]]
    key_blocks: list[str]  # empty without an id column

    @property
    def keys(self) -> list[str]:
        """Each row's native key (value of the configured id column), in
        row order; empty without an id column. A new list on each read."""
        return list(_split_keys(self.key_blocks))


def intern(sources: Sequence[LoadResult]) -> RecordTable:
    """The rows of ``sources``, in order, as one table. Each attribute's
    distinct raw values over every source are numbered together in order
    of first appearance and tokenized once (``_raw_classes``), so its
    classes and tokens are numbered in order of first appearance over
    every row. Ids must ascend across the sources. Takes ownership of
    each source's ``values``: each raw column is popped as it is
    interned, and freed once it is."""
    classes, columns = {}, {}
    for attr in list(sources[0].values):
        parts = [source.values.pop(attr) for source in sources]
        if len(parts) > 1:  # the sources' distinct values, numbered together
            bases = np.cumsum([0] + [text.count("\n") for text, _ in parts]).tolist()
            values, merged = _number_distinct(list(itertools.chain.from_iterable(
                text.split("\n")[:-1] for text, _ in parts)))
            parts = [(_lines(values), np.concatenate(
                [merged[base + value_of] for (_, value_of), base in zip(parts, bases)]))]
            del values
        classes[attr], columns[attr] = _raw_classes(*parts.pop())
    # One source's ids are taken as they stand, with no copy; two sources'
    # are joined only once their columns are interned.
    ids = sources[0].ids if len(sources) == 1 else np.concatenate([s.ids for s in sources])
    _check_ascending(ids)
    return RecordTable(ids, classes, columns)


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
    """Read a CSV file's rows, untokenized, for ``intern``, optionally
    capturing native keys.

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
    one string are kept, and no raw column is built. Each column's
    distinct values are then put in one string (``_lines``), and the
    native keys are checked for repeats and kept joined per block.
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
        # Each block's native keys in one string, so that no string or
        # tuple made among a block's rows outlives it (see ``_raw_classes``).
        key_blocks: list[str] = []
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
            _check_keys(path, encoding, key_column, key_blocks)  # a repeated key before it wins
            raise DataError(f"{path}: line {line_of(path, encoding, ragged[0])}: expected "
                            f"{len(header)} fields, got {ragged[1]}")
    except DataError:
        for _ in blocks:  # a bad byte or a row csv rejects later in the file comes first
            pass
        raise
    # Every column's distinct values are put in one string, and their own
    # strings freed, before the keys are checked (see ``_raw_classes``).
    lines = {}
    for attr, first, at in zip(schema, firsts, positions):
        values, value_of = _ranks(first, np.concatenate(at))
        at.clear()
        lines[attr] = _lines(values), value_of
        del values
    _check_keys(path, encoding, key_column, key_blocks)
    return LoadResult(np.arange(id_base, id_base + n, dtype=INDEX), lines, key_blocks)


def _joined(values: list[str]) -> str:
    """``values`` joined by a character that none of them holds, a
    newline unless one does, after that character."""
    text = "\n".join(values)
    if text.count("\n") == len(values) - 1:
        return "\n" + text
    sep = next(c for c in map(chr, itertools.count(1)) if c not in text)
    return sep + sep.join(values)


def _split_keys(key_blocks: list[str]) -> Iterator[str]:
    """The native keys of ``key_blocks`` (``_joined`` blocks), in row order."""
    return itertools.chain.from_iterable(text[1:].split(text[0]) for text in key_blocks)


def _check_keys(path: Path, encoding: str, key_column: str | None,
                key_blocks: list[str]) -> None:
    """Raise ``DataError`` naming the line of the first repeat of a
    native key of ``key_blocks``, if one repeats. Keys are compared by
    hash in one sorted int64 column, and listed only if two hashes are equal."""
    count = sum(text.count(text[0]) for text in key_blocks)  # one separator per key
    hashes = np.fromiter(map(hash, _split_keys(key_blocks)), INDEX, count)
    hashes.sort()
    if np.all(hashes[1:] != hashes[:-1]):
        return
    keys = list(_split_keys(key_blocks))
    seen: set[str] = set()
    repeat = next((i for i, key in enumerate(keys) if key in seen or seen.add(key)), None)
    if repeat is not None:
        raise DataError(f"{path}: line {line_of(path, encoding, repeat)}: duplicate "
                        f"{key_column!r} value {keys[repeat]!r}")


def deduplicate(table: RecordTable, source: np.ndarray | None = None) -> DedupResult:
    """Remove exact duplicates, keeping the smallest id per class.

    Two records are duplicates iff their normalized token sequences
    (with attribute boundaries) are equal and, given ``source`` (each
    row's source code), they come from the same source: rows are grouped
    by one sort of their packed source codes and class columns. The
    alias columns cover every input id, and a canonical record stands
    for itself.
    """
    ids, n = table.ids, len(table)
    _check_ascending(ids, " in dedup input")
    canonical_row = np.arange(n, dtype=INDEX)
    keys = list(table.classes.values())
    sizes = [len(table.columns[attr]) for attr in table.classes]
    if source is not None:
        keys.append(source)
        sizes.append(int(source.max(initial=0)) + 1)
    if n and keys:
        order, first = group_rows(keys, sizes)
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
