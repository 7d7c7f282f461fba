#!/usr/bin/env python3
"""Tokenization, columnar loading and exact deduplication.

Raw values are lowercased and split on runs of non-alphanumeric
characters; digit runs survive as tokens. There is no cleansing or
standardisation: two records are exact duplicates only when their
token sequences agree attribute by attribute.

Loading is columnar. Each distinct raw value of a column is tokenized
once, equal token tuples form one attribute class, and each row keeps
one class id per attribute. Dedup sorts the rows' class columns and
returns the alias as two columns: every input id, ascending, and its
canonical id.
"""

import tempfile
from pathlib import Path

from siglink import deduplicate, tokenize
from siglink.records import load_csv_with_keys

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
print("== columnar load ==")
rows = """\
id,name,address
p0,John Smith,45 Elizabeth Street
p1,"john smith,",45 elizabeth street
p2,John Smith,45 Elizabeth Road
p3,J Smith,45 Elizabeth Street
p4,john   SMITH,"45, Elizabeth; Street"
"""
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "people.csv"
    path.write_text(rows, encoding="utf-8")
    loaded = load_csv_with_keys(path, ["name", "address"], key_column="id")
table = loaded.table
for attr, column in table.columns.items():
    print(f"  {attr}: row classes {table.classes[attr].tolist()}, vocabulary {column.vocab}")
    for c, toks in enumerate(column.tuples()):
        print(f"    class {c}: {toks}")
print(f"  native keys, one per row: {loaded.keys}")

print()
print("== exact dedup ==")
result = deduplicate(table)
print(f"  {len(table)} records in, {len(result.canonical)} distinct out")
canonical = result.canonical
tuples = {attr: column.tuples() for attr, column in canonical.columns.items()}
for row, rid in enumerate(canonical.ids.tolist()):
    attrs = {attr: tuples[attr][canonical.classes[attr][row]] for attr in tuples}
    print(f"  canonical {rid}: {attrs}")
print(f"  ids:            {result.ids.tolist()}")
print(f"  canonical rows: {result.canonical_rows.tolist()}")

# The alias is idempotent: a canonical record stands for itself.
alias = dict(zip(result.ids.tolist(), canonical.ids[result.canonical_rows].tolist()))
assert all(alias[c] == c for c in alias.values())
print("  alias columns are idempotent: ok")
