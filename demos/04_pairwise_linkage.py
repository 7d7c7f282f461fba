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
``probability``, ``evidence_count``, ``verified``); tau and the verifier
are masks over it, and a record's source is a code in a column aligned
with the index's record ids. The pair -> [(key, p)] mapping printed
below is an inspection view of the evidence columns, built when read. The paper also drops evidence whose key sits
inside another key from the same template (only the maximal keys
matter). ``eliminate`` is that rule, kept as a tested reference; the
link path skips it because the four extractors cannot produce two
nested same-template keys for one pair. The first section shows the
rule on hand-built keys that no extractor would emit.
"""

from siglink import ProbabilityModel, build_index, tokenize
from siglink.linker import JaccardVerifier, combine, eliminate, finalize, group_pairs
from siglink.records import Record, RecordTable
from siglink.templates import ConsecutiveWords, RandomWords, SignatureTemplate, encode_key


def rec(rid, **attrs):
    return Record(id=rid, attributes={k: tokenize(v) for k, v in attrs.items()})


print("== elimination keeps only maximal same-template keys (hand-built keys) ==")
short = (encode_key(1, (("victoria",),)), 0.5)
longer = (encode_key(1, (("victoria", "street"),)), 0.8)
other = (encode_key(5, (("victoria",),)), 0.4)  # different template
survivors = eliminate([short, longer, other])
for key, p in survivors:
    print(f"  kept {key}  p={p}")
print(f"  combined = {combine(survivors):.4f}  (1 - 0.2 * 0.6)")

print()
print("== end to end on six records, two sources ==")
records = [
    rec(0, name="john smith", suburb="ashfield"),
    rec(1, name="mary jones", suburb="newtown"),
    rec(2, name="carol king", suburb="penrith"),
    rec(1000, name="smith john", suburb="ashfield"),
    rec(1001, name="mary jones", suburb="newtown plaza"),
    rec(1002, name="karol king", suburb="penrith"),
]
templates = [
    SignatureTemplate(1, (RandomWords("name", 2),)),
    SignatureTemplate(2, (ConsecutiveWords("name", 1), ConsecutiveWords("suburb", 1))),
]
model = ProbabilityModel(a=4.0, b=0.05)
index = build_index(records, templates, model, rho=0.25)
source = index.table.ids >= 1000  # one code per index record: source b's ids start at 1000

groups = group_pairs(index, source=source)
print(f"  {groups.evidence_rows} evidence rows over {len(groups)} cross-source pairs")
for (r_i, r_j), evidence in groups.items():
    print(f"  pair {r_i} -- {r_j}  keys {[key for key, _ in evidence]}")

links = finalize(index, tau=0.5, source=source)
for r_i, r_j, probability, evidence_count, _ in links.tolist():
    print(f"  link {r_i} -- {r_j}  P={probability:.4f}  evidence={evidence_count}")

print()
print("== a post-verifier can reject thin matches ==")
strict = finalize(
    index, tau=0.5, source=source,
    verifier=JaccardVerifier(0.6), records=RecordTable.of(records),
)
dropped = set(zip(links.r_i.tolist(), links.r_j.tolist())) - set(
    zip(strict.r_i.tolist(), strict.r_j.tolist()))
print(f"  jaccard >= 0.6 keeps {len(strict)} of {len(links)} links "
      f"(dropped: {sorted(dropped)})")
