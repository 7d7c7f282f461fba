#!/usr/bin/env python3
"""Pair evidence, evidence elimination, and probability combination.

Every index entry adds a (key, p) evidence row to each of its record
pairs (``group_pairs``). The rows are integer columns: each posting
length enumerates its pairs with one ``triu_indices`` table, and the
rows are grouped by pair, in ascending p. For one pair, the evidence
combines as 1 - prod(1 - p), taken in that order so the float bits
depend only on the evidence's probabilities, and pairs above tau
(optionally passing a verifier) become links. The links are one
record array, one row per pair (``r_i``, ``r_j``,
``probability``, ``evidence_count``, ``verified``); a record is its row
in the index's record table, and ids are gathered only to print them.
Tau and the verifier are masks over the links, and a record's source is
a code in a column aligned with those rows. Each pair's keys are printed below from
the evidence columns. The paper also drops evidence whose key sits
inside another key from the same template (only the maximal keys
matter). ``eliminate`` is that rule; the link path skips it because
the four extractors cannot produce two nested same-template keys for
one pair. The first section shows the rule on hand-built keys that no
extractor would emit.
"""

import math

import numpy as np

from siglink import ProbabilityModel, RecordTable, build_index
from siglink.linker import JaccardVerifier, eliminate, finalize, group_pairs
from siglink.templates import ConsecutiveWords, RandomWords, SignatureTemplate

print("== elimination keeps only maximal same-template keys (hand-built keys) ==")
short = ("1◦victoria", 0.5)
longer = ("1◦victoria·street", 0.8)
other = ("5◦victoria", 0.4)  # different template
survivors = eliminate([short, longer, other])
for key, p in survivors:
    print(f"  kept {key}  p={p}")
combined = 1 - math.prod(1 - p for _, p in survivors)
print(f"  combined = {combined:.4f}  (1 - 0.2 * 0.6)")

print()
print("== end to end on six records, two sources ==")
rows = [  # (id, name, suburb), raw strings as loading reads them
    (0, "john smith", "ashfield"),
    (1, "mary jones", "newtown"),
    (2, "carol king", "penrith"),
    (1000, "smith john", "ashfield"),
    (1001, "mary jones", "newtown plaza"),
    (1002, "karol king", "penrith"),
]
ids, names, suburbs = map(list, zip(*rows))
templates = [
    SignatureTemplate(1, (RandomWords("name", 2),)),
    SignatureTemplate(2, (ConsecutiveWords("name", 1), ConsecutiveWords("suburb", 1))),
]
model = ProbabilityModel(a=4.0, b=0.05)
table = RecordTable.from_columns(ids, {"name": names, "suburb": suburbs})
index = build_index(table, templates, model, rho=0.25)
ids = index.table.ids  # row r is record ids[r]
source = ids >= 1000  # one code per row: source b's ids start at 1000

groups = group_pairs(index, source=source)
print(f"  {groups.evidence_rows} evidence rows over {len(groups)} cross-source pairs")
used = np.unique(groups.keys)  # key indices, ascending, as key_strings reads them
text = dict(zip(used.tolist(), index.table.key_strings(used)))
bounds = groups.starts.tolist()
for r_i, r_j, a, b in zip(ids[groups.r_i].tolist(), ids[groups.r_j].tolist(),
                          bounds, bounds[1:]):
    print(f"  pair {r_i} -- {r_j}  keys {[text[k] for k in groups.keys[a:b].tolist()]}")

links = finalize(index, tau=0.5, source=source)
for r_i, r_j, probability, evidence_count, _ in links.tolist():
    print(f"  link {ids[r_i]} -- {ids[r_j]}  P={probability:.4f}  evidence={evidence_count}")

print()
print("== a post-verifier can reject thin matches ==")
strict = finalize(
    index, tau=0.5, source=source,
    verifier=JaccardVerifier(0.6), records=table,
)
dropped = set(zip(ids[links.r_i].tolist(), ids[links.r_j].tolist())) - set(
    zip(ids[strict.r_i].tolist(), ids[strict.r_j].tolist()))
print(f"  jaccard >= 0.6 keeps {len(strict)} of {len(links)} links "
      f"(dropped: {sorted(dropped)})")
