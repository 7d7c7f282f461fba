"""Declarative candidate-signature extractors.

A template is an ordered list of parts; each part extracts short token
combinations from one attribute, and the template emits the Cartesian
combination of its parts' yields as encoded keys. A part that yields
nothing for a record kills the whole template for that record: every
part must contribute.

Key wire format: ``<template_id>◦<part1>◦<part2>…`` with ``·`` joining
tokens inside a part. Both separators are fixed, non-alphanumeric and
can therefore never appear inside a token, which makes the encoding
injective. They also fix the key order of each pair's ``(key, p)``
evidence rows (``linker.group_pairs``), and so the order of the float
products in ``links.csv``.

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

from .records import Record

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


@dataclass(frozen=True)
class ConsecutiveWords:
    """All order-preserving windows of ``n`` consecutive tokens."""

    attr: str
    n: int

    @property
    def min_tokens(self) -> int:
        return self.n

    def values(self, record: Record, options: ExtractOptions,
               stats: ExtractionStats | None) -> list[tuple[str, ...]]:
        toks = record.attributes.get(self.attr, ())
        return [toks[i:i + self.n] for i in range(len(toks) - self.n + 1)]


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

    def values(self, record: Record, options: ExtractOptions,
               stats: ExtractionStats | None) -> list[tuple[str, ...]]:
        toks = record.attributes.get(self.attr, ())
        if len(toks) < self.k:
            return []
        if len(toks) > options.random_words_attr_limit:
            if stats is not None:
                stats.long_attr_random_skips += 1
            return []
        return [tuple(sorted(combo)) for combo in itertools.combinations(toks, self.k)]


@dataclass(frozen=True)
class FullAttribute:
    """The attribute's entire token sequence as a single value."""

    attr: str

    @property
    def min_tokens(self) -> int:
        return 1

    def values(self, record: Record, options: ExtractOptions,
               stats: ExtractionStats | None) -> list[tuple[str, ...]]:
        toks = record.attributes.get(self.attr, ())
        return [toks] if toks else []


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

    def values(self, record: Record, options: ExtractOptions,
               stats: ExtractionStats | None) -> list[tuple[str, ...]]:
        digits = "".join(
            t for t in record.attributes.get(self.attr, ())
            if t.isascii() and t.isdigit()
        )
        if len(digits) < self.d:
            return []
        return [(digits[-self.d:],)]


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


def _dedupe(values: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    return list(dict.fromkeys(values))


def encode_key(template_id: int, parts: Sequence[tuple[str, ...]]) -> str:
    part_strs = (KEY_TOKEN_SEP.join(p) for p in parts)
    return str(template_id) + KEY_PART_SEP + KEY_PART_SEP.join(part_strs)


def parse_key(key: str) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """Invert ``encode_key``; raises ValueError on malformed keys."""
    pieces = key.split(KEY_PART_SEP)
    if len(pieces) < 2:
        raise ValueError(f"malformed candidate-signature key: {key!r}")
    tid = int(pieces[0])
    parts = tuple(tuple(p.split(KEY_TOKEN_SEP)) for p in pieces[1:])
    return tid, parts


def extract(
    template: SignatureTemplate,
    record: Record,
    options: ExtractOptions = DEFAULT_OPTIONS,
    stats: ExtractionStats | None = None,
) -> set[str]:
    """Candidate-signature keys this template yields for one record.

    Returns the empty set when any part yields nothing, or when the
    Cartesian combination count exceeds ``options.combination_cap``
    (counted in ``stats.cap_skipped``).
    """
    part_values: list[list[tuple[str, ...]]] = []
    count = 1
    for part in template.parts:
        vals = _dedupe(part.values(record, options, stats))
        if not vals:
            return set()
        part_values.append(vals)
        count *= len(vals)
    if count > options.combination_cap:
        if stats is not None:
            stats.cap_skipped += 1
        return set()
    prefix = str(template.template_id) + KEY_PART_SEP
    if len(part_values) == 1:
        return {prefix + KEY_TOKEN_SEP.join(v) for v in part_values[0]}
    return {
        prefix + KEY_PART_SEP.join(KEY_TOKEN_SEP.join(p) for p in combo)
        for combo in itertools.product(*part_values)
    }


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
