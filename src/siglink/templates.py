"""Declarative candidate-signature extractors.

A template is an ordered list of parts; each part extracts short token
combinations from one attribute, and the template emits the Cartesian
combination of its parts' yields as encoded keys. A part that yields
nothing for a record kills the whole template for that record: every
part must contribute.

Each extractor yields its values for every class of its attribute at
once, read off the classes' interned tokens (``rows``, see
``records.TokenColumn``), so each distinct token tuple is read once
however many records share it. Its ``PartRows`` give each (class,
value) row one integer, the value's code: its rank among the part's
distinct values, whose token ids and text a ``ValueTable`` holds.
``RecordColumns`` holds those rows, and ``extract`` joins them to the
record rows of a ``records.RecordTable`` that its fixed caps keep, as
one template's key rows (one code per part and a record row, never the
values' token ids) written straight into the int64 words the index
build sorts. Only the values that two of those records hold enter the
join: a key with a value one record alone has is that record's alone,
can make no pair, and is only counted. Token ids
follow first appearance, not token order, so ``RandomWords``, whose
sorted combinations are the one value that reads token order, ranks
its column's vocabulary first; ``LastDigits`` reads the code points of
the vocabulary's one string (``TokenColumn.words``) as one integer
column, its separators masked.

Key wire format: ``<template_id>◦<part1>◦<part2>…`` with ``·`` joining
tokens inside a part. Both separators are fixed, non-alphanumeric and
can therefore never appear inside a token, which makes the encoding
injective, and they fix how every key is spelled in ``index.tsv``.
``encode_keys`` spells whole columns of keys in this format, and
``parse_key`` inverts it.

Extractor protocol: within one template, every value an extractor
yields has the same length (``ConsecutiveWords`` n tokens,
``RandomWords`` k tokens, ``LastDigits`` one token), or the extractor
yields a single value per record (``FullAttribute``); template ids are
unique (``validate_config``). Then two distinct same-template keys
shared by one record pair have equal part lengths, neither is a strict
subrecord of the other, and the paper's evidence elimination
(``linker.eliminate``) can never remove anything, which is why the link
path does not run it. An extractor with variable-length parts breaks
this: it must bring elimination back in ``linker.combine_pairs`` for
the templates that use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Sequence, Union

import numpy as np

from .columns import INDEX, expand, group_rows, layout, pack, sort_rows
from .errors import ConfigError
from .records import RecordTable, TokenColumn

# Separator between the template id and each part (U+25E6).
KEY_PART_SEP = "◦"
# Separator between tokens inside one part (U+00B7).
KEY_TOKEN_SEP = "·"

# validate_config warns when a template's minimum token yield exceeds
# this (short candidate signatures recur more often).
WARN_SIGNATURE_TOKENS = 6


# A record-template pair whose parts' distinct value counts multiply
# past this yields nothing and counts as capped: one record with many
# long attributes would otherwise flood the index with keys.
COMBINATION_CAP = 64
# ``RandomWords`` parts yield nothing on attributes longer than this:
# unordered combinations blow up on long attributes.
RANDOM_WORDS_ATTR_LIMIT = 12


@dataclass
class ExtractionStats:
    """Counters for extraction skips."""

    cap_skipped: int = 0
    long_attr_random_skips: int = 0


class RecordColumns:
    """What one extraction pass reads, over the rows of a ``RecordTable``:
    each part's ``PartRows`` over the classes of its attribute, computed
    on first use, once however many templates share the part.
    """

    def __init__(self, table: RecordTable):
        self.table = table
        self._rows: dict[Extractor, tuple[PartRows, np.ndarray, np.ndarray]] = {}

    def rows(self, part: Extractor) -> tuple[PartRows, np.ndarray, np.ndarray]:
        """The part's rows over the classes of its attribute, each
        class's number of them, and each record row's class."""
        if part not in self._rows:
            row_class, column = self.table.column(part.attr)
            by_class = part.rows(column)
            self._rows[part] = (by_class, np.bincount(by_class.rec, minlength=len(column)),
                                row_class)
        return self._rows[part]


@dataclass
class ValueTable:
    """A part's distinct values: value code c is the token ids
    ``values[c]``, each an index into ``text``, which spells it."""

    values: np.ndarray
    text: Sequence[str]

    def __len__(self) -> int:
        return len(self.values)

    def spell(self, codes: np.ndarray) -> list[str]:
        """Each of ``codes``' value as a key part: its tokens' text
        joined by ``KEY_TOKEN_SEP``."""
        words = [list(map(self.text.__getitem__, ids.tolist())) for ids in self.values[codes].T]
        return words[0] if len(words) == 1 else list(map(KEY_TOKEN_SEP.join, zip(*words)))


@dataclass
class PartRows:
    """One part's values over every class of its attribute, as columns.

    Row i is value code ``code[i]`` of class ``rec[i]``; rows are sorted
    by class and distinct within a class. A code is the value's rank
    among the part's distinct values (``distinct``), in the order of
    their token ids. ``too_long`` marks the classes a ``RandomWords``
    part skips for their length.
    """

    rec: np.ndarray
    code: np.ndarray
    distinct: ValueTable
    too_long: np.ndarray | None = None


def _identity(text: Sequence[str]) -> ValueTable:
    """The table whose value code c is the one token ``text[c]``."""
    return ValueTable(np.arange(len(text), dtype=INDEX)[:, None], text)


def _distinct(rec: np.ndarray, values: np.ndarray, n_classes: int, vocab: list[str],
              too_long: np.ndarray | None = None) -> PartRows:
    """Token-valued part rows, coded, sorted by class with repeats
    dropped: one sort on (value, class) numbers the values, and one on
    (class, code) puts the rows in class order."""
    width = values.shape[1]
    (*tokens, owner), first = sort_rows([*values.T, rec], [len(vocab)] * width + [n_classes],
                                        n_key=width)
    distinct = ValueTable(np.stack([token[first] for token in tokens], axis=1), vocab)
    del tokens
    code = np.cumsum(first) - 1
    new = first.copy()  # a class's first row of each value
    new[1:] |= owner[1:] != owner[:-1]
    (rec, code), _ = sort_rows([owner[new], code[new]], [n_classes, len(distinct)])
    return PartRows(rec, code, distinct, too_long)


@dataclass(frozen=True)
class _Part:
    """A part reads one attribute; each of its other fields is a size."""

    attr: str

    def __post_init__(self) -> None:
        # A size below 1 fails extraction, or makes ``LastDigits`` key
        # every class's whole digit string.
        for size in fields(self)[1:]:
            if getattr(self, size.name) < 1:
                raise ConfigError(f"{type(self).__name__} on {self.attr!r}: {size.name} must "
                                  f"be >= 1, got {getattr(self, size.name)}")


@dataclass(frozen=True)
class ConsecutiveWords(_Part):
    """All order-preserving windows of ``n`` consecutive tokens."""

    n: int

    @property
    def min_tokens(self) -> int:
        return self.n

    def rows(self, col: TokenColumn) -> PartRows:
        rec, start = expand(np.maximum(np.diff(col.offsets) - self.n + 1, 0))
        values = col.ids[(col.offsets[rec] + start)[:, None] + np.arange(self.n)]
        return _distinct(rec, values, len(col), col.vocab)


@dataclass(frozen=True)
class RandomWords(_Part):
    """All unordered ``k``-combinations of an attribute's tokens.

    Each combination is sorted lexicographically so that token order
    variations in the raw data collide on the same key.
    """

    k: int

    @property
    def min_tokens(self) -> int:
        return self.k

    def rows(self, col: TokenColumn) -> PartRows:
        # One combinations index table per attribute length; over the
        # sorted vocabulary, sorting ids sorts each combination.
        vocab = col.vocab
        ranked = sorted(vocab)
        rank = dict(zip(ranked, itertools.count()))
        ids = np.fromiter(map(rank.__getitem__, vocab), INDEX, len(vocab))[col.ids]
        lengths = np.diff(col.offsets)
        too_long = (lengths >= self.k) & (lengths > RANDOM_WORDS_ATTR_LIMIT)
        recs = [np.empty(0, dtype=INDEX)]
        values = [np.empty((0, self.k), dtype=INDEX)]
        for n in np.flatnonzero(np.bincount(lengths[(lengths >= self.k) & ~too_long])).tolist():
            of_len = np.flatnonzero(lengths == n)
            combos = np.array(list(itertools.combinations(range(n), self.k)), dtype=INDEX)
            toks = ids[col.offsets[of_len][:, None] + np.arange(n)]
            recs.append(np.repeat(of_len, len(combos)))
            values.append(np.sort(toks[:, combos], axis=2).reshape(-1, self.k))
        return _distinct(np.concatenate(recs), np.concatenate(values), len(col), ranked,
                         too_long)


@dataclass(frozen=True)
class FullAttribute(_Part):
    """The attribute's entire token sequence as a single value."""

    @property
    def min_tokens(self) -> int:
        return 1

    def rows(self, col: TokenColumn) -> PartRows:
        # the value code is the attribute class
        rec = np.flatnonzero(np.diff(col.offsets) > 0)
        return PartRows(rec, rec, _identity(list(map(KEY_TOKEN_SEP.join, col.tuples()))))


@dataclass(frozen=True)
class LastDigits(_Part):
    """The final ``d`` characters of the attribute's concatenated digit
    tokens; nothing if fewer than ``d`` digits exist.

    Ending digits of long identifiers (phone, account numbers) have a
    more consistent format than their starting parts.
    """

    d: int

    @property
    def min_tokens(self) -> int:
        return 1

    def rows(self, col: TokenColumn) -> PartRows:
        # The vocabulary's code points, each token ended by its "\n"
        # (code point 10, masked); a digit token has only ASCII digits,
        # code points 48 to 57.
        points = np.frombuffer((col.words + "\n").encode("utf-32-le"), "<u4")
        ends = np.flatnonzero(points == 10)
        start = np.append(0, ends[:-1] + 1)
        size = ends - start
        other = (points < 48) | (points > 57)
        other[ends] = False
        digit = ~np.logical_or.reduceat(other, start)[col.ids]
        # Class c's digit tokens are tokens[kept[c]:kept[c + 1]], and its
        # digits are reach[kept[c]] to reach[kept[c + 1]] of their
        # characters, end to end.
        tokens = col.ids[digit]
        kept = np.concatenate(([0], np.cumsum(digit)))[col.offsets]
        reach = np.concatenate(([0], np.cumsum(size[tokens])))
        rec = np.flatnonzero(np.diff(reach[kept]) >= self.d)
        # Each class's last d digits, the last one first: a step back
        # past the start of a token moves to the one before it.
        token = kept[rec + 1] - 1
        at = reach[kept[rec + 1]]
        digits = np.empty((len(rec), self.d), dtype="<u4")
        for j in range(self.d - 1, -1, -1):
            at -= 1
            token -= at < reach[token]
            digits[:, j] = points[start[tokens[token]] + at - reach[token]]
        order, first = group_rows(list(digits.T), [58] * self.d)  # code points below 58
        code = np.empty(len(rec), dtype=INDEX)
        code[order] = np.cumsum(first) - 1
        # The distinct values, ascending, as text that spells each on read.
        return PartRows(rec, code, _identity(digits[order[first]].view(f"<U{self.d}").ravel()))


Extractor = Union[ConsecutiveWords, RandomWords, FullAttribute, LastDigits]

EXTRACTOR_KINDS = {
    "consecutive_words": ConsecutiveWords,
    "random_words": RandomWords,
    "full_attribute": FullAttribute,
    "last_digits": LastDigits,
}


@dataclass(frozen=True)
class SignatureTemplate:
    """One candidate-signature recipe: an id plus an ordered part list."""

    template_id: int
    parts: tuple[Extractor, ...]

    def __post_init__(self) -> None:
        # A key is one value of every part: with no part there is no key.
        if not self.parts:
            raise ConfigError(f"template {self.template_id} has no parts")


def encode_keys(template_id: int, parts: Sequence[ValueTable],
                codes: Sequence[np.ndarray]) -> list[str]:
    """The keys of one template's key rows, spelled out: row i's part j
    is value code ``codes[j][i]`` of ``parts[j]``."""
    prefix = str(template_id) + KEY_PART_SEP
    spelled = [part.spell(code) for part, code in zip(parts, codes)]
    return [prefix + KEY_PART_SEP.join(key) for key in zip(*spelled)]


# Kept for the benchmark's tracer, which wraps ``linker.eliminate``.
def parse_key(key: str) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """A key's template id and parts, each a token tuple; raises
    ValueError on malformed keys."""
    pieces = key.split(KEY_PART_SEP)
    if len(pieces) < 2:
        raise ValueError(f"malformed candidate-signature key: {key!r}")
    tid = int(pieces[0])
    parts = tuple(tuple(p.split(KEY_TOKEN_SEP)) for p in pieces[1:])
    return tid, parts


@dataclass
class TemplateRows:
    """One template's keys over every record that can share them, as
    the int64 words a sort reads: row i is packed into ``words`` as
    ``columns.layout`` puts (``places``) the value code of each of
    ``parts``, then the record row. Rows are distinct. ``unshared``
    counts the keys left out because one of their values is held by one
    key-emitting record only: each is a key of that record alone."""

    words: list[np.ndarray]
    places: list[tuple[int, int, int]]
    parts: list[ValueTable]
    unshared: int
    cap_skipped: int
    long_attr_random_skips: int


def extract(template: SignatureTemplate, columns: RecordColumns) -> TemplateRows:
    """The keys ``template`` yields for every record that two records
    can share: the Cartesian combination of its parts' distinct values
    held by two key-emitting records or more, nothing for a record in
    which a part yields nothing.

    A record emits keys when every part yields a value for it and it is
    not capped. A part is evaluated for a record only while every
    earlier part yielded something, so a ``RandomWords`` length skip
    counts only there; a record whose parts' distinct value counts
    multiply past ``COMBINATION_CAP`` yields nothing and counts as
    capped. The cap reads every value, shared or not.
    """
    n = len(columns.table)
    parts = [columns.rows(part) for part in template.parts]
    alive = np.ones(n, dtype=bool)
    combos = np.ones(n)  # float: above 2**53 it is past any cap anyway
    long_skips = 0
    for rows, class_count, row_class in parts:
        if rows.too_long is not None:
            long_skips += int(np.count_nonzero(alive & rows.too_long[row_class]))
        count = class_count[row_class]
        alive &= count > 0
        combos *= count
    capped = alive & (combos > COMBINATION_CAP)
    rec = np.flatnonzero(alive & ~capped)
    # Each part's rows whose value two emitting records hold: a value's
    # records are the emitting records of the classes that hold it.
    shared = []
    keys = np.ones(len(rec), dtype=INDEX)
    for rows, class_count, row_class in parts:
        of_rec = row_class[rec]
        held = np.bincount(of_rec, minlength=len(class_count))
        by_value = np.bincount(rows.code, weights=held[rows.rec], minlength=len(rows.distinct))
        kept = by_value[rows.code] >= 2
        count = np.bincount(np.compress(kept, rows.rec), minlength=len(class_count))
        shared.append((np.compress(kept, rows.code), count, row_class))
        keys *= count[of_rec]
    unshared = int(combos[rec].sum()) - int(keys.sum())
    # Cartesian product, one part at a time, written into the sort's
    # words: each row repeats once per shared value the next part has in
    # its record's class, and that value's code is or-ed in at its place.
    rec = np.compress(keys > 0, rec)
    del alive, combos, keys, of_rec, held, by_value, kept  # before the product's peak
    sizes = [len(rows.distinct) for rows, _, _ in parts] + [n]
    words, places = pack([np.zeros_like(rec)] * len(parts) + [rec], sizes), layout(sizes)
    for j, ((code, count, row_class), (w, below, _)) in enumerate(zip(shared, places)):
        of_row = row_class[rec]
        times = count[of_row]
        # Row i's copies take its values code[first:first + times[i]] in
        # turn: a cumsum of steps of one, but at its first copy a jump.
        first = (np.cumsum(count) - count)[of_row]
        first[1:] -= first[:-1] + times[:-1] - 1
        words = [np.repeat(word, times) for word in words]
        rec = np.repeat(rec, times) if j + 1 < len(shared) else None  # the last part reads none
        at = np.ones(len(words[0]), dtype=INDEX)
        at[np.cumsum(times) - times] = first
        np.cumsum(at, out=at)
        np.take(code, at, out=at, mode="clip")  # in place: "raise" would buffer a copy
        at <<= below
        words[w] |= at
    return TemplateRows(
        words=words,
        places=places,
        parts=[rows.distinct for rows, _, _ in parts],
        unshared=unshared,
        cap_skipped=int(np.count_nonzero(capped)),
        long_attr_random_skips=long_skips,
    )


@dataclass
class ValidationResult:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_config(
    templates: Sequence[SignatureTemplate],
    schema: Sequence[str],
) -> ValidationResult:
    """Check templates against the schema and usage guidelines.

    Errors: unknown attributes, duplicate ids, empty template list (each
    extractor checks its own size, and each template that it has a
    part). Warnings flag templates likely to be too long (won't recur)
    or too short (not distinctive).
    """
    result = ValidationResult()
    if not templates:
        result.errors.append("template list is empty; at least one template is required")
        return result
    known = set(schema)
    seen_ids: set[int] = set()
    for tpl in templates:
        name = f"template {tpl.template_id}"
        if tpl.template_id in seen_ids:
            result.errors.append(f"duplicate template id {tpl.template_id}")
        seen_ids.add(tpl.template_id)
        min_yield = 0
        for part in tpl.parts:
            if part.attr not in known:
                result.errors.append(f"{name}: unknown attribute {part.attr!r}")
            min_yield += part.min_tokens
        if min_yield > WARN_SIGNATURE_TOKENS:
            result.warnings.append(
                f"{name}: yields at least {min_yield} tokens per key; long candidate "
                f"signatures rarely recur, consider shortening"
            )
        if len(tpl.parts) == 1 and tpl.parts[0].min_tokens == 1 and not isinstance(
            tpl.parts[0], (FullAttribute, LastDigits)
        ):
            result.warnings.append(
                f"{name}: a single one-word part is rarely distinctive; consider "
                f"combining parts from multiple attributes"
            )
    return result
