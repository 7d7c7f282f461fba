"""Inverted index over candidate signatures with recurrence pruning.

Build is a group-by of (key -> posting list) over all record-template
extractions, followed by a prune that drops every key observed in more
than k_max records. Pruning by posting length is equivalent to pruning
by probability (the probability is strictly decreasing in recurrence)
and is what bounds the downstream pair generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class IndexStats:
    """Build counters.

    ``max_posting_len`` is the longest posting list observed before
    pruning; ``candidate_instances`` counts extracted (record, key)
    incidences, the analogue of a candidate-signature table size.
    """

    total_keys_seen: int = 0
    keys_pruned_by_rho: int = 0
    max_posting_len: int = 0
    candidate_instances: int = 0
    extraction: ExtractionStats = field(default_factory=ExtractionStats)


@dataclass
class IndexEntry:
    key: str
    postings: tuple[int, ...]
    p: float


@dataclass
class InvertedIndex:
    entries: dict[str, IndexEntry]
    stats: IndexStats
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
    stats: IndexStats | None = None,
) -> dict[str, tuple[int, ...]]:
    """Group-by of key -> sorted posting list, before any pruning.

    Model-independent, so parameter sweeps can reuse it. Records must
    already be deduplicated; postings hold canonical ids.
    """
    groups: dict[str, list[int]] = {}
    instances = 0
    for rec in records:
        keys: set[str] = set()
        ex_stats = stats.extraction if stats is not None else None
        for tpl in templates:
            keys.update(extract(tpl, rec, options, ex_stats))
        instances += len(keys)
        for key in keys:
            groups.setdefault(key, []).append(rec.id)
    postings = {key: tuple(sorted(ids)) for key, ids in groups.items()}
    if stats is not None:
        stats.total_keys_seen = len(postings)
        stats.candidate_instances = instances
        stats.max_posting_len = max((len(v) for v in postings.values()), default=0)
    return postings


def index_from_postings(
    raw: dict[str, tuple[int, ...]],
    model: ProbabilityModel,
    rho: float,
    stats: IndexStats | None = None,
) -> InvertedIndex:
    """Prune raw postings at k_max(model, rho) and attach probabilities."""
    k_max = max_recurrence(model, rho)
    stats = stats if stats is not None else IndexStats()
    entries: dict[str, IndexEntry] = {}
    pruned = 0
    p_by_len: dict[int, float] = {
        n: signature_probability(model, n) for n in range(1, k_max + 1)
    }
    for key, ids in raw.items():
        n = len(ids)
        if n > k_max:
            pruned += 1
            continue
        entries[key] = IndexEntry(key=key, postings=ids, p=p_by_len[n])
    stats.keys_pruned_by_rho = pruned
    return InvertedIndex(entries=entries, stats=stats, k_max=k_max)


def build_index(
    records: Iterable[Record],
    templates: Sequence[SignatureTemplate],
    model: ProbabilityModel,
    rho: float,
    options: ExtractOptions = DEFAULT_OPTIONS,
) -> InvertedIndex:
    """Extract, group, and prune in one pass over deduplicated records."""
    stats = IndexStats()
    raw = build_raw_postings(records, templates, options, stats)
    return index_from_postings(raw, model, rho, stats)


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
