#!/usr/bin/env python3
"""Candidate-signature templates and the inverted index.

Templates turn each record into a handful of short keys. Keys are
grouped into posting lists; lists longer than the recurrence cap are
dropped wholesale, which is the blocking step that keeps later pair
generation from blowing up.
"""

import io

from siglink import ProbabilityModel, dump_index, extract, tokenize
from siglink.indexer import build_raw_postings, index_from_postings
from siglink.records import Record
from siglink.templates import (
    ConsecutiveWords,
    LastDigits,
    RandomWords,
    SignatureTemplate,
)


def rec(rid, **attrs):
    return Record(id=rid, attributes={k: tokenize(v) for k, v in attrs.items()})


person = rec(0, name="Mary Jane Poppins", address="17 Cherry Tree Lane Chelsea",
             phone="(02) 6123 4567")

templates = [
    # two unordered name words + two consecutive address words
    SignatureTemplate(1, (RandomWords("name", 2), ConsecutiveWords("address", 2))),
    # two unordered name words + the last six phone digits
    SignatureTemplate(2, (RandomWords("name", 2), LastDigits("phone", 6))),
]

print("== keys extracted from one record ==")
for tpl in templates:
    keys = sorted(extract(tpl, person))
    print(f"  template {tpl.template_id}: {len(keys)} keys")
    for key in keys[:4]:
        print(f"    {key}")
    if len(keys) > 4:
        print(f"    ... and {len(keys) - 4} more")

print()
print("== index build with pruning ==")
records = [
    rec(1, name="mary poppins", address="17 cherry tree lane", phone="0261234567"),
    rec(2, name="poppins mary", address="17 cherry tree ln", phone="0261234567"),
    rec(3, name="bert sweep", address="9 chimney row", phone="0299998888"),
    rec(4, name="mary shelley", address="1 frankenstein way", phone="0261234567"),
    # a third Mary Poppins: the keys all three share recur past k_max=2
    rec(5, name="mary jane poppins", address="17 cherry tree lane", phone="02 6123 4567"),
]
model = ProbabilityModel(a=4.0, b=0.05)
raw = build_raw_postings(records, templates)  # key -> posting list, unpruned
index = index_from_postings(raw, model, rho=0.3)
print(f"  k_max={index.k_max}; kept {len(index.entries)} of {len(raw)} keys "
      f"({len(raw) - len(index.entries)} pruned)")
for key in sorted(set(raw) - set(index.entries)):
    print(f"    pruned {key}: in {len(raw[key])} records {raw[key]}")
assert len(index.entries) < len(raw), "this section should prune a key"

buf = io.StringIO()
dump_index(index, buf)
print("  dump (key, probability, postings):")
for line in buf.getvalue().splitlines():
    print(f"    {line}")
