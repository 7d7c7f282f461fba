"""Declarative candidate-signature extractors.

A template is an ordered list of parts; each part extracts short token
combinations from one attribute, and the template emits the Cartesian
combination of its parts' yields as encoded keys. A part that yields
nothing for a record kills the whole template for that record: every
part must contribute.

Each extractor yields its values for every class of its attribute at
once, as integer columns over the classes' interned tokens (``rows``,
see ``records.TokenColumn``), so each distinct token tuple is read once
however many records share it; ``RecordColumns`` joins those rows to
the record rows of a ``records.RecordTable``, and ``extract`` turns
them into one template's key rows.

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
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .columns import INDEX, expand, group_rows
from .records import RecordTable, TokenColumn

# Separator between the template id and each part (U+25E6).
KEY_PART_SEP = "◦"
# Separator between tokens inside one part (U+00B7).
KEY_TOKEN_SEP = "·"

# validate_config warns when a template's minimum token yield exceeds
# this (short candidate signatures recur more often).
WARN_SIGNATURE_TOKENS = 6


@dataclass
class ExtractOptions:
    """Safety caps applied during extraction."""

    # Maximum number of distinct keys a single record-template pair may
    # yield; above this the pair is skipped and counted.
    combination_cap: int = 64
    # RandomWords parts yield nothing on attributes longer than this
    # (unordered combinations blow up on long attributes).
    random_words_attr_limit: int = 12


DEFAULT_OPTIONS = ExtractOptions()


@dataclass
class ExtractionStats:
    """Counters for extraction skips."""

    cap_skipped: int = 0
    long_attr_random_skips: int = 0


class RecordColumns:
    """What one extraction pass reads, over the rows of a ``RecordTable``:
    each part's ``PartRows``, computed once per class of the part's
    attribute and joined to the rows on first use, once however many
    templates share the part.
    """

    def __init__(self, table: RecordTable, options: ExtractOptions = DEFAULT_OPTIONS):
        self.table = table
        self.options = options
        self.n_rows = len(table)
        self._rows: dict[Extractor, PartRows] = {}

    def rows(self, part: Extractor) -> PartRows:
        if part not in self._rows:
            row_class, column = self.table.column(part.attr)
            by_class = part.rows(column, self.options)
            # Each row takes its class's rows, in order.
            count = np.bincount(by_class.rec, minlength=len(column))
            rec, within = expand(count[row_class])
            pick = (np.cumsum(count) - count)[row_class[rec]] + within
            self._rows[part] = PartRows(
                rec, by_class.values[pick], by_class.text,
                None if by_class.too_long is None else by_class.too_long[row_class])
        return self._rows[part]


@dataclass
class PartRows:
    """One part's values over every record (or every attribute class),
    as columns.

    Row i is value ``values[i]`` (``width`` value ids) of record row
    ``rec[i]``; rows are sorted by record and distinct within a record.
    ``text[v]`` spells value id v inside a key, and value ids lie in
    ``[0, len(text))``. ``too_long`` marks the records a
    ``RandomWords`` part skips for the length of their attribute.
    """

    rec: np.ndarray
    values: np.ndarray
    text: Sequence[str]
    too_long: np.ndarray | None = None


def _distinct(rec: np.ndarray, values: np.ndarray, n_rows: int, vocab: list[str],
              too_long: np.ndarray | None = None) -> PartRows:
    """Token-valued part rows, sorted by record with repeats dropped."""
    order, first = group_rows([rec, *values.T], [n_rows] + [len(vocab)] * values.shape[1])
    keep = order[first]
    return PartRows(rec[keep], values[keep], vocab, too_long)


@dataclass(frozen=True)
class ConsecutiveWords:
    """All order-preserving windows of ``n`` consecutive tokens."""

    attr: str
    n: int

    @property
    def min_tokens(self) -> int:
        return self.n

    def rows(self, col: TokenColumn, options: ExtractOptions) -> PartRows:
        rec, start = expand(np.maximum(np.diff(col.offsets) - self.n + 1, 0))
        values = col.ids[(col.offsets[rec] + start)[:, None] + np.arange(self.n)]
        return _distinct(rec, values, len(col), col.vocab)


@dataclass(frozen=True)
class RandomWords:
    """All unordered ``k``-combinations of an attribute's tokens.

    Each combination is sorted lexicographically so that token order
    variations in the raw data collide on the same key.
    """

    attr: str
    k: int

    @property
    def min_tokens(self) -> int:
        return self.k

    def rows(self, col: TokenColumn, options: ExtractOptions) -> PartRows:
        # One combinations index table per attribute length; token ids
        # follow token order, so sorting ids sorts each combination.
        lengths = np.diff(col.offsets)
        too_long = (lengths >= self.k) & (lengths > options.random_words_attr_limit)
        recs = [np.empty(0, dtype=INDEX)]
        values = [np.empty((0, self.k), dtype=INDEX)]
        for n in np.flatnonzero(np.bincount(lengths[(lengths >= self.k) & ~too_long])).tolist():
            of_len = np.flatnonzero(lengths == n)
            combos = np.array(list(itertools.combinations(range(n), self.k)), dtype=INDEX)
            toks = col.ids[col.offsets[of_len][:, None] + np.arange(n)]
            recs.append(np.repeat(of_len, len(combos)))
            values.append(np.sort(toks[:, combos], axis=2).reshape(-1, self.k))
        return _distinct(np.concatenate(recs), np.concatenate(values), len(col),
                         col.vocab, too_long)


@dataclass(frozen=True)
class FullAttribute:
    """The attribute's entire token sequence as a single value."""

    attr: str

    @property
    def min_tokens(self) -> int:
        return 1

    def rows(self, col: TokenColumn, options: ExtractOptions) -> PartRows:
        # the value id is the attribute class
        rec = np.flatnonzero(np.diff(col.offsets) > 0)
        return PartRows(rec, rec[:, None], list(map(KEY_TOKEN_SEP.join, col.tuples())))


@dataclass(frozen=True)
class LastDigits:
    """The final ``d`` characters of the attribute's concatenated digit
    tokens; nothing if fewer than ``d`` digits exist.

    Ending digits of long identifiers (phone, account numbers) have a
    more consistent format than their starting parts.
    """

    attr: str
    d: int

    @property
    def min_tokens(self) -> int:
        return 1

    def rows(self, col: TokenColumn, options: ExtractOptions) -> PartRows:
        # Each class's ASCII digit tokens, concatenated.
        n_vocab = len(col.vocab)
        digits = (np.fromiter(map(str.isascii, col.vocab), bool, n_vocab)
                  & np.fromiter(map(str.isdigit, col.vocab), bool, n_vocab))
        keep = digits[col.ids]
        bounds = np.concatenate(([0], np.cumsum(keep)))[col.offsets].tolist()
        words = list(map(col.vocab.__getitem__, col.ids[keep].tolist()))
        text = ["".join(words[a:b]) for a, b in zip(bounds, bounds[1:])]
        rec = np.flatnonzero(np.fromiter(map(len, text), INDEX, len(text)) >= self.d)
        last, value = np.unique(np.array([text[c][-self.d:] for c in rec.tolist()],
                                         dtype=f"U{self.d}"), return_inverse=True)
        return PartRows(rec, value.astype(INDEX)[:, None], last.tolist())


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


def encode_keys(template_id: int, parts: Sequence[tuple[Sequence[str], int]],
                values: np.ndarray) -> list[str]:
    """The keys of one template's key rows, spelled out: row i's value ids
    are ``values[i]``, the parts' columns side by side, and ``parts``
    gives each part's ``(text, width)`` (see ``PartRows``)."""
    pieces = []
    col = 0
    for text, width in parts:
        words = [list(map(text.__getitem__, values[:, col + j].tolist())) for j in range(width)]
        pieces.append(words[0] if width == 1 else list(map(KEY_TOKEN_SEP.join, zip(*words))))
        col += width
    prefix = str(template_id) + KEY_PART_SEP
    return [prefix + KEY_PART_SEP.join(part) for part in zip(*pieces)]


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
    """One template's keys over every record, as columns.

    Row i is the key whose value ids are ``values[i]`` (the parts'
    columns side by side) in record row ``rec[i]``; rows are distinct.
    ``parts`` holds each part's ``(text, width)`` (see ``PartRows``).
    """

    rec: np.ndarray
    values: np.ndarray
    parts: list[tuple[Sequence[str], int]]
    cap_skipped: int
    long_attr_random_skips: int


def extract(template: SignatureTemplate, columns: RecordColumns) -> TemplateRows:
    """The keys ``template`` yields for every record: the Cartesian
    combination of its parts' distinct values, nothing for a record in
    which a part yields nothing.

    A part is evaluated for a record only while every earlier part
    yielded something, so a ``RandomWords`` length skip counts only
    there; a record whose parts' distinct value counts multiply past
    ``combination_cap`` yields nothing and counts as capped.
    """
    n = columns.n_rows
    parts = [columns.rows(part) for part in template.parts]
    alive = np.ones(n, dtype=bool)
    combos = np.ones(n)  # float: above 2**53 it is past any cap anyway
    counts = []
    long_skips = 0
    for rows in parts:
        if rows.too_long is not None:
            long_skips += int(np.count_nonzero(alive & rows.too_long))
        count = np.bincount(rows.rec, minlength=n)
        alive &= count > 0
        combos *= count
        counts.append(count)
    capped = alive & (combos > columns.options.combination_cap)
    keep = alive & ~capped
    # Cartesian product, one part at a time: each row repeats once per
    # value the next part has in its record.
    sel = keep[parts[0].rec]
    rec, values = parts[0].rec[sel], parts[0].values[sel]
    for rows, count in zip(parts[1:], counts[1:]):
        owner, within = expand(count[rec])
        rec = rec[owner]
        pick = (np.cumsum(count) - count)[rec] + within
        values = np.hstack([values[owner], rows.values[pick]])
    return TemplateRows(
        rec=rec,
        values=values,
        parts=[(rows.text, rows.values.shape[1]) for rows in parts],
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

    Errors: unknown attributes, zero-part templates, duplicate or
    non-positive parameters, empty template list. Warnings flag
    templates likely to be too long (won't recur) or too short
    (not distinctive).
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
        if not tpl.parts:
            result.errors.append(f"{name}: has no parts")
            continue
        min_yield = 0
        for part in tpl.parts:
            if part.attr not in known:
                result.errors.append(f"{name}: unknown attribute {part.attr!r}")
            for param in ("n", "k", "d"):
                size = getattr(part, param, None)
                if size is not None and size < 1:
                    result.errors.append(
                        f"{name}: part on {part.attr!r} has non-positive {param}={size}"
                    )
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
