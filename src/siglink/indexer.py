"""Inverted index over candidate signatures with recurrence pruning.

Build is a group-by of (key -> posting list) over all record-template
extractions, followed by a prune that drops every key observed in more
than k_max records. Pruning by posting length is equivalent to pruning
by probability (the probability is strictly decreasing in recurrence)
and is what bounds the downstream pair generation.

The build keeps no counters of its own: every size (keys seen, keys
pruned, longest posting, candidate instances) is one expression over
the raw posting map and the pruned index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .records import Record
from .sigprob import ProbabilityModel, max_recurrence, signature_probability
from .templates import (
    DEFAULT_OPTIONS,
    ExtractOptions,
    ExtractionStats,
    SignatureTemplate,
    extract,
)


@dataclass
class IndexEntry:
    key: str
    postings: tuple[int, ...]
    p: float


@dataclass
class InvertedIndex:
    entries: dict[str, IndexEntry]
    k_max: int


def subrecord_of(s: Sequence[str], t: Sequence[str]) -> bool:
    """True iff s is a subsequence of t (order preserved, words deleted).

    The per-part test of the paper's elimination rule, whose reference
    definition is ``linker.eliminate``."""
    it = iter(t)
    return all(tok in it for tok in s)


def build_raw_postings(
    records: Iterable[Record],
    templates: Sequence[SignatureTemplate],
    options: ExtractOptions = DEFAULT_OPTIONS,
    stats: ExtractionStats | None = None,
) -> dict[str, tuple[int, ...]]:
    """Group-by of key -> sorted posting list, before any pruning.

    Model-independent, so parameter sweeps can reuse it. Records must
    already be deduplicated; postings hold canonical ids, and each
    record adds each of its distinct keys once. ``stats`` collects the
    extraction skip counters.
    """
    groups: dict[str, list[int]] = {}
    for rec in records:
        keys: set[str] = set()
        for tpl in templates:
            keys.update(extract(tpl, rec, options, stats))
        for key in keys:
            groups.setdefault(key, []).append(rec.id)
    return {key: tuple(sorted(ids)) for key, ids in groups.items()}


def index_from_postings(
    raw: dict[str, tuple[int, ...]],
    model: ProbabilityModel,
    rho: float,
) -> InvertedIndex:
    """Prune raw postings at k_max(model, rho) and attach probabilities.

    Keys with more than ``k_max`` postings are dropped, so
    ``len(raw) - len(index.entries)`` of them are pruned."""
    k_max = max_recurrence(model, rho)
    p_by_len: dict[int, float] = {
        n: signature_probability(model, n) for n in range(1, k_max + 1)
    }
    entries = {
        key: IndexEntry(key=key, postings=ids, p=p_by_len[len(ids)])
        for key, ids in raw.items() if len(ids) <= k_max
    }
    return InvertedIndex(entries=entries, k_max=k_max)


def build_index(
    records: Iterable[Record],
    templates: Sequence[SignatureTemplate],
    model: ProbabilityModel,
    rho: float,
    options: ExtractOptions = DEFAULT_OPTIONS,
) -> InvertedIndex:
    """Extract, group, and prune in one pass over deduplicated records."""
    return index_from_postings(build_raw_postings(records, templates, options), model, rho)


def dump_index(index: InvertedIndex, out: IO[str]) -> int:
    """Write the diagnostic dump: ``key<TAB>p<TAB>id,id,id`` per entry,
    sorted by key. Returns the number of lines written."""
    n = 0
    for key in sorted(index.entries):
        entry = index.entries[key]
        ids = ",".join(str(i) for i in entry.postings)
        out.write(f"{key}\t{entry.p!r}\t{ids}\n")
        n += 1
    return n
