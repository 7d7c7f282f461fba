#!/usr/bin/env python3
"""Candidate-signature templates and the inverted index.

Templates turn each record into a handful of short keys. Keys are
grouped into posting lists; lists longer than the recurrence cap are
dropped wholesale, which is the blocking step that keeps later pair
generation from blowing up. The key table holds keys as integer
columns; ``key_strings`` and ``postings`` spell out the keys asked for.
A key found in one record can make no pair: the table counts it and
does not store it.
"""

import io

import numpy as np

from siglink import ProbabilityModel, RecordTable, dump_index
from siglink.indexer import build_raw_postings, index_from_postings
from siglink.templates import (
    ConsecutiveWords,
    LastDigits,
    RandomWords,
    SignatureTemplate,
)

# A table is built from raw strings, one list per attribute; each value
# goes through the tokenizer that loading uses. The record stands beside
# an identical copy, so that each of its keys is found in two records
# and stored.
person = RecordTable.from_columns([0, 1], {
    "name": ["Mary Jane Poppins"] * 2,
    "address": ["17 Cherry Tree Lane Chelsea"] * 2,
    "phone": ["(02) 6123 4567"] * 2,
})

templates = [
    # two unordered name words + two consecutive address words
    SignatureTemplate(1, (RandomWords("name", 2), ConsecutiveWords("address", 2))),
    # two unordered name words + the last six phone digits
    SignatureTemplate(2, (RandomWords("name", 2), LastDigits("phone", 6))),
]

print("== keys extracted from one record ==")
for tpl in templates:
    table = build_raw_postings(person, [tpl])
    keys = sorted(table.key_strings(np.arange(len(table))))
    print(f"  template {tpl.template_id}: {len(keys)} keys")
    for key in keys[:4]:
        print(f"    {key}")
    if len(keys) > 4:
        print(f"    ... and {len(keys) - 4} more")

print()
print("== index build with pruning ==")
rows = [  # (id, name, address, phone)
    (1, "mary poppins", "17 cherry tree lane", "0261234567"),
    (2, "poppins mary", "17 cherry tree ln", "0261234567"),
    (3, "bert sweep", "9 chimney row", "0299998888"),
    (4, "mary shelley", "1 frankenstein way", "0261234567"),
    # a third Mary Poppins: the keys all three share recur past k_max=2
    (5, "mary jane poppins", "17 cherry tree lane", "02 6123 4567"),
]
ids, names, addresses, phones = map(list, zip(*rows))
records = RecordTable.from_columns(ids, {"name": names, "address": addresses, "phone": phones})
model = ProbabilityModel(a=4.0, b=0.05)
raw = build_raw_postings(records, templates)  # every key's postings, unpruned
index = index_from_postings(raw, model, rho=0.3)
print(f"  k_max={index.k_max}; kept {index.keys_kept} of {raw.keys_seen} keys "
      f"({raw.keys_seen - index.keys_kept} pruned; {raw.unstored} found in one record, "
      f"counted and not stored)")
pruned = np.flatnonzero(raw.lengths > index.k_max)
for key, postings in sorted(zip(raw.key_strings(pruned), raw.postings(pruned))):
    print(f"    pruned {key}: in {len(postings)} records {postings}")
assert len(index.kept) < len(raw), "this section should prune a key"

buf = io.StringIO()
dump_index(index, buf)
print("  dump (key, probability, postings):")
for line in buf.getvalue().splitlines():
    print(f"    {line}")
