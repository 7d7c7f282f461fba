#!/usr/bin/env python3
"""Tokenization and exact deduplication.

Raw values are lowercased and split on runs of non-alphanumeric
characters; digit runs survive as tokens. There is no cleansing or
standardisation: two records are exact duplicates only when their
token sequences agree attribute by attribute. Dedup returns the alias
as two columns: every input id, ascending, and its canonical id.
"""

from siglink import deduplicate, tokenize
from siglink.records import Record


def rec(rid, **attrs):
    return Record(id=rid, source="single",
                  attributes={k: tokenize(v) for k, v in attrs.items()})


print("== tokenization ==")
for raw in [
    "45 Elizabeth Street",
    "(02) 6123-4567",
    "John  Smith,",
    "Unit 3/23-24 George St",
    "",
]:
    print(f"  {raw!r:32} -> {tokenize(raw)}")

print()
print("== exact dedup ==")
records = [
    rec(0, name="John Smith", address="45 Elizabeth Street"),
    rec(1, name="john smith,", address="45 elizabeth street"),   # same tokens
    rec(2, name="John Smith", address="45 Elizabeth Road"),      # different street
    rec(3, name="J Smith", address="45 Elizabeth Street"),
    rec(4, name="john   SMITH", address="45, Elizabeth; Street"),  # same tokens again
]
result = deduplicate(records)
print(f"  {len(records)} records in, {len(result.canonical)} distinct out")
for r in result.canonical:
    print(f"  canonical {r.id}: {r.attributes}")
print(f"  ids:           {result.ids.tolist()}")
print(f"  canonical ids: {result.canonical_ids.tolist()}")

# The alias columns are idempotent: a canonical id is its own canonical id.
alias = dict(zip(result.ids.tolist(), result.canonical_ids.tolist()))
assert all(alias[c] == c for c in alias.values())
print("  alias columns are idempotent: ok")
