#!/usr/bin/env python3
"""Tokenization, columnar loading, interning and exact deduplication.

Raw values are lowercased and split on runs of non-alphanumeric
characters; digit runs survive as tokens. There is no cleansing or
standardisation: two records are exact duplicates only when their
token sequences agree attribute by attribute.

Loading is columnar and tokenizes nothing: each source's distinct raw
values of a column are numbered, and each row keeps one number per
attribute. One interning step then takes every loaded source, as a
database takes the union of its tables: each distinct raw value over
all sources is tokenized once, equal token tuples form one attribute
class whichever source holds them, and each row keeps one class id per
attribute. Dedup sorts the rows' source codes and class columns, so
equal rows of two sources stay apart, and returns the alias as two
columns: every input id, ascending, and its canonical row.
"""

import tempfile
from pathlib import Path

import numpy as np

from siglink import deduplicate, intern, tokenize
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
print("== columnar load of two sources ==")
source_a = """\
id,name,address
p0,John Smith,45 Elizabeth Street
p1,"john smith,",45 elizabeth street
p2,John Smith,45 Elizabeth Road
p3,J Smith,45 Elizabeth Street
"""
source_b = """\
id,name,address
q0,john   SMITH,"45, Elizabeth; Street"
q1,Mary Jones,45 Elizabeth Road
"""
with tempfile.TemporaryDirectory() as tmp:
    loaded = []
    for base, (name, text) in zip([0, 100], [("a.csv", source_a), ("b.csv", source_b)]):
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        loaded.append(load_csv_with_keys(path, ["name", "address"], id_base=base,
                                         key_column="id"))
for name, source in zip("ab", loaded):
    print(f"  source {name}: ids {source.ids.tolist()}, native keys {source.keys}")
    for attr, (values, value_of) in source.values.items():
        print(f"    {attr}: distinct raw values {values.splitlines()}, rows {value_of.tolist()}")
sizes = [len(source.ids) for source in loaded]

print()
print("== one interning step ==")
table = intern(loaded)
for attr, column in table.columns.items():
    print(f"  {attr}: row classes {table.classes[attr].tolist()}, vocabulary {column.vocab}")
    for c, toks in enumerate(column.tuples()):
        print(f"    class {c}: {toks}")

print()
print("== exact dedup within each source ==")
source = np.repeat(np.arange(len(sizes), dtype=np.int8), sizes)
result = deduplicate(table, source)
print(f"  {len(table)} records in, {len(result.canonical)} distinct out")
canonical = result.canonical
tuples = {attr: column.tuples() for attr, column in canonical.columns.items()}
for row, rid in enumerate(canonical.ids.tolist()):
    attrs = {attr: tuples[attr][canonical.classes[attr][row]] for attr in tuples}
    print(f"  canonical {rid}: {attrs}")
print(f"  ids:            {result.ids.tolist()}")
print(f"  canonical rows: {result.canonical_rows.tolist()}")
# q0 has p0's tokens but another source: it stays its own record.
assert result.canonical_rows[4] != result.canonical_rows[0]

# The alias is idempotent: a canonical record stands for itself.
alias = dict(zip(result.ids.tolist(), canonical.ids[result.canonical_rows].tolist()))
assert all(alias[c] == c for c in alias.values())
print("  alias columns are idempotent: ok")
