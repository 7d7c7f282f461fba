"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import csv
import random
from collections import Counter

import pytest
from hypothesis import settings

from siglink.records import Record, tokenize
from siglink.sigprob import max_recurrence, signature_probability
from siglink.templates import (
    DEFAULT_OPTIONS,
    KEY_PART_SEP,
    KEY_TOKEN_SEP,
    extract,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def make_record(rid: int, **attrs: str) -> Record:
    """Build a Record from raw attribute strings."""
    return Record(id=rid, attributes={k: tokenize(v) for k, v in attrs.items()})


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
    options=DEFAULT_OPTIONS,
) -> list[tuple[int, int, float, int, bool]]:
    """All-pairs reference linkage with no inverted index.

    For every record pair: extract keys, intersect, drop keys whose
    global recurrence exceeds the model's cap, eliminate dominated
    keys, combine, threshold, verify. Elimination and combination are
    re-implemented here so the production path is checked end to end.
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
            keys |= extract(tpl, rec, options)
        keysets[rec.id] = keys
    recurrence = Counter()
    for keys in keysets.values():
        recurrence.update(keys)
    k_max = max_recurrence(model, rho)
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
            for key in shared:
                prod *= 1.0 - signature_probability(model, recurrence[key])
            combined = 1.0 - prod
            if combined > tau and (verifier is None or verifier(by_id[ri], by_id[rj])):
                links.append((ri, rj, combined, len(shared), True))
    return links


def brute_force_scores(labelling, truth_pairs, source_of, scope):
    """All-pairs reference scoring: ``(tp, fp, fn)`` of the labelling
    (id -> cluster label) against truth pairs of ids.

    Lists every predicted pair (two ids with one label, and under
    ``cross_source`` from different sources) and intersects it with
    the truth set; same-source truth pairs under ``cross_source`` stay
    unmatched. Independent of ``evaluation.evaluate``.
    """
    ids = sorted(labelling)
    predicted = {
        (x, y) for i, x in enumerate(ids) for y in ids[i + 1:]
        if labelling[x] == labelling[y]
        and (scope == "all" or source_of[x] != source_of[y])
    }
    truth = {(min(x, y), max(x, y)) for x, y in truth_pairs}
    tp = len(predicted & truth)
    return tp, len(predicted) - tp, len(truth) - tp


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
