"""Pairwise linkage from the inverted index.

Two steps per record pair: generate evidence tuples from shared index
entries, and combine their probabilities as 1 - prod(1 - p) under an
independence assumption. Pairs whose combined probability strictly
exceeds tau, and which pass the optional post-verification predicate,
become links.

The paper also eliminates evidence whose key is a strict subrecord of
another key from the same template (superrecords of signatures are
signatures, so only the maximal keys need assessing). ``eliminate``
keeps that rule as the tested reference definition, but the link path
does not call it: the shipped extractors cannot produce two nested
same-template keys for one pair (see the extractor protocol in
``templates``), so it would never remove anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ConfigError
from .indexer import InvertedIndex, subrecord_of
from .records import Record
from .templates import KEY_PART_SEP, parse_key

# Post-verification predicate over the two candidate records.
PostVerifier = Callable[[Record, Record], bool]


@dataclass(frozen=True)
class LinkTuple:
    """One piece of pair evidence: both records contain ``key``."""

    r_i: int
    r_j: int
    key: str
    p: float

    def __post_init__(self) -> None:
        if not self.r_i < self.r_j:
            raise ValueError(f"LinkTuple requires r_i < r_j, got ({self.r_i}, {self.r_j})")


@dataclass(frozen=True)
class Link:
    r_i: int
    r_j: int
    probability: float
    evidence_count: int


def generate(
    index: InvertedIndex,
    *,
    cross_source_only: bool = False,
    source_of: Mapping[int, str] | None = None,
) -> Iterator[LinkTuple]:
    """All unordered record pairs per index entry, tagged with (key, p).

    With ``cross_source_only``, pairs whose records share a source tag
    are dropped (requires ``source_of``).
    """
    if cross_source_only and source_of is None:
        raise ConfigError("cross_source_only requires a record-id -> source mapping")
    for entry in index.entries.values():
        postings = entry.postings  # sorted ascending, so r_i < r_j holds
        n = len(postings)
        for i in range(n - 1):
            for j in range(i + 1, n):
                ri, rj = postings[i], postings[j]
                if cross_source_only and source_of[ri] == source_of[rj]:
                    continue
                yield LinkTuple(r_i=ri, r_j=rj, key=entry.key, p=entry.p)


def _strict_subrecord_key(a: tuple, b: tuple) -> bool:
    """parsed key a strictly below parsed key b: same template family,
    every part a subsequence of the matching part, and not equal."""
    tid_a, parts_a = a
    tid_b, parts_b = b
    if tid_a != tid_b or len(parts_a) != len(parts_b):
        return False
    shorter = False
    for pa, pb in zip(parts_a, parts_b):
        if len(pa) > len(pb):
            return False
        if len(pa) < len(pb):
            shorter = True
    if not shorter:
        # equal part lengths: a subsequence of equal length is equality
        return False
    return all(subrecord_of(pa, pb) for pa, pb in zip(parts_a, parts_b))


def eliminate(tuples: Iterable[LinkTuple]) -> list[LinkTuple]:
    """Drop evidence dominated by other evidence for the same pair.

    A tuple is removed iff its key is a strict subrecord (per-part
    subsequence within the same template family) of another surviving
    tuple's key. Keys from different templates are incomparable by
    design: they encode different attribute provenance. Output keeps
    the input's order.

    This is the paper's elimination rule, kept as the reference
    definition that tests check the extractor protocol against;
    ``combine_pairs`` does not call it.
    """
    tuples = list(tuples)
    if len(tuples) <= 1:
        return tuples
    # Nesting needs two keys from the same template family; bucket by
    # the template-id prefix so the common all-distinct case never pays
    # for key parsing.
    by_tid: dict[str, list[int]] = {}
    for i, t in enumerate(tuples):
        by_tid.setdefault(t.key.partition(KEY_PART_SEP)[0], []).append(i)
    removed: set[int] = set()
    for idxs in by_tid.values():
        if len(idxs) < 2:
            continue
        parsed = {i: parse_key(tuples[i].key) for i in idxs}
        for i in idxs:
            if any(j != i and _strict_subrecord_key(parsed[i], parsed[j]) for j in idxs):
                removed.add(i)
    if not removed:
        return tuples
    return [t for i, t in enumerate(tuples) if i not in removed]


def combine(tuples: Iterable[LinkTuple]) -> float:
    """Probability that at least one piece of evidence is a signature:
    1 - prod(1 - p), treating non-nested keys as independent."""
    prod = 1.0
    for t in tuples:
        prod *= 1.0 - t.p
    return 1.0 - prod


def jaccard_verifier(threshold: float) -> PostVerifier:
    """Accept a pair iff the Jaccard similarity of the two records'
    full token sets is >= threshold. Two empty sets count as identical."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"jaccard verifier threshold must be in [0, 1], got {threshold}")

    def verify(rec_a: Record, rec_b: Record) -> bool:
        sa, sb = rec_a.all_tokens(), rec_b.all_tokens()
        union = len(sa | sb)
        if union == 0:
            return 1.0 >= threshold
        return len(sa & sb) / union >= threshold

    return verify


_VERIFIER_REGISTRY: dict[str, Callable[[str | None], PostVerifier]] = {
    "jaccard": lambda arg: jaccard_verifier(float(arg if arg is not None else 0.0)),
}


def register_verifier(name: str, factory: Callable[[str | None], PostVerifier]) -> None:
    """Register a user post-verification predicate under a config name."""
    _VERIFIER_REGISTRY[name] = factory


def make_verifier(spec: str | None) -> PostVerifier | None:
    """Build a verifier from its config spec, e.g. ``jaccard:0.3``.

    ``none`` (or None) disables post-verification.
    """
    if spec is None or spec == "none":
        return None
    name, _, arg = spec.partition(":")
    factory = _VERIFIER_REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_VERIFIER_REGISTRY))
        raise ConfigError(f"unknown verifier {name!r} (registered: {known}, or 'none')")
    try:
        return factory(arg if arg else None)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad verifier spec {spec!r}: {exc}") from exc


def group_pairs(tuples: Iterable[LinkTuple]) -> dict[tuple[int, int], list[LinkTuple]]:
    """Hash group-by on (r_i, r_j); evidence sorted by key per group so
    downstream float products are order-stable."""
    groups: dict[tuple[int, int], list[LinkTuple]] = {}
    for t in tuples:
        groups.setdefault((t.r_i, t.r_j), []).append(t)
    for evidence in groups.values():
        evidence.sort(key=lambda t: t.key)
    return groups


@dataclass
class PairProbability:
    """Combined evidence for one pair, before thresholding."""

    r_i: int
    r_j: int
    probability: float
    evidence_count: int
    verified: bool = True


def combine_pairs(
    groups: Mapping[tuple[int, int], list[LinkTuple]],
) -> list[PairProbability]:
    """Combine each pair's key-sorted evidence, sorted by (r_i, r_j).

    No evidence is eliminated first: under the extractor protocol no
    two same-template keys shared by one pair nest, so ``eliminate``
    would return every group unchanged.
    """
    out: list[PairProbability] = []
    for (ri, rj) in sorted(groups):
        evidence = groups[(ri, rj)]
        out.append(PairProbability(
            r_i=ri, r_j=rj,
            probability=combine(evidence),
            evidence_count=len(evidence),
        ))
    return out


def verify_pairs(
    pairs: list[PairProbability],
    verifier: PostVerifier | None,
    records_by_id: Mapping[int, Record] | None = None,
) -> list[PairProbability]:
    """Apply the post-verification predicate, marking rejected pairs.

    Verification is independent of tau, so callers sweeping thresholds
    run it once per pair. With no verifier this is the identity.
    """
    if verifier is None:
        return pairs
    if records_by_id is None:
        raise ConfigError("a post-verifier requires the records it inspects")
    return [
        PairProbability(
            r_i=pp.r_i, r_j=pp.r_j, probability=pp.probability,
            evidence_count=pp.evidence_count,
            verified=verifier(records_by_id[pp.r_i], records_by_id[pp.r_j]),
        )
        for pp in pairs
    ]


def threshold_pairs(pairs: Iterable[PairProbability], tau: float) -> list[Link]:
    """Emit a Link per pair whose probability strictly exceeds tau and
    whose verification passed."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"link.tau must be in (0, 1), got {tau}")
    return [
        Link(pp.r_i, pp.r_j, pp.probability, pp.evidence_count)
        for pp in pairs if pp.probability > tau and pp.verified
    ]


def finalize(
    tuples: Iterable[LinkTuple],
    tau: float,
    *,
    verifier: PostVerifier | None = None,
    records_by_id: Mapping[int, Record] | None = None,
) -> list[Link]:
    """Group, combine, verify, and threshold in one call (no
    elimination; see ``combine_pairs``).

    Output is sorted by (r_i, r_j) and deterministic for identical
    inputs.
    """
    groups = group_pairs(tuples)
    pairs = combine_pairs(groups)
    pairs = verify_pairs(pairs, verifier, records_by_id)
    return threshold_pairs(pairs, tau)
