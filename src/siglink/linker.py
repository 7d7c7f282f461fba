"""Pairwise linkage from the inverted index.

Pair evidence is a join plus group-by: every index entry adds one
``(key, p)`` row to each record pair in its posting list
(``group_pairs``). Per pair, the rows combine as 1 - prod(1 - p) under
an independence assumption (``combine_pairs``). Pairs whose combined
probability strictly exceeds tau (``threshold_pairs``), and which pass
the optional post-verification predicate (``verify_pairs``), become
links. ``finalize`` runs those steps in that order, as ``resolve``
does; ``tune`` verifies before it sweeps tau.

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
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import ConfigError
from .indexer import InvertedIndex, subrecord_of
from .records import Record
from .templates import KEY_PART_SEP, parse_key

# Post-verification predicate over the two candidate records.
PostVerifier = Callable[[Record, Record], bool]

# One piece of pair evidence: both records contain ``key``, a signature
# with probability ``p``.
Evidence = tuple[str, float]


@dataclass(slots=True)
class Link:
    """A record pair (r_i < r_j) and its combined evidence.

    ``verified`` turns False when the post-verifier rejects the pair.
    """

    r_i: int
    r_j: int
    probability: float
    evidence_count: int
    verified: bool = True


def group_pairs(
    index: InvertedIndex,
    *,
    cross_source_only: bool = False,
    source_of: Mapping[int, str] | None = None,
) -> dict[tuple[int, int], list[Evidence]]:
    """Hash group-by of every entry's record pairs on (r_i, r_j), each
    pair's (key, p) rows sorted by key so downstream float products are
    order-stable. Postings are sorted ascending, so r_i < r_j.

    With ``cross_source_only``, pairs whose records share a source tag
    are dropped (requires ``source_of``).
    """
    if cross_source_only and source_of is None:
        raise ConfigError("cross_source_only requires a record-id -> source mapping")
    groups: dict[tuple[int, int], list[Evidence]] = {}
    for entry in index.entries.values():
        row = (entry.key, entry.p)
        for pair in combinations(entry.postings, 2):
            if cross_source_only and source_of[pair[0]] == source_of[pair[1]]:
                continue
            groups.setdefault(pair, []).append(row)
    for evidence in groups.values():
        if len(evidence) > 1:
            evidence.sort()  # keys are unique within a pair, so p is never compared
    return groups


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


def eliminate(evidence: Iterable[Evidence]) -> list[Evidence]:
    """Drop evidence dominated by other evidence for the same pair.

    A row is removed iff its key is a strict subrecord (per-part
    subsequence within the same template family) of another surviving
    row's key. Keys from different templates are incomparable by
    design: they encode different attribute provenance. Output keeps
    the input's order.

    This is the paper's elimination rule, kept as the reference
    definition that tests check the extractor protocol against;
    ``combine_pairs`` does not call it.
    """
    rows = list(evidence)
    if len(rows) <= 1:
        return rows
    # Nesting needs two keys from the same template family; bucket by
    # the template-id prefix so the common all-distinct case never pays
    # for key parsing.
    by_tid: dict[str, list[int]] = {}
    for i, (key, _) in enumerate(rows):
        by_tid.setdefault(key.partition(KEY_PART_SEP)[0], []).append(i)
    removed: set[int] = set()
    for idxs in by_tid.values():
        if len(idxs) < 2:
            continue
        parsed = {i: parse_key(rows[i][0]) for i in idxs}
        for i in idxs:
            if any(j != i and _strict_subrecord_key(parsed[i], parsed[j]) for j in idxs):
                removed.add(i)
    if not removed:
        return rows
    return [row for i, row in enumerate(rows) if i not in removed]


def combine(evidence: Iterable[Evidence]) -> float:
    """Probability that at least one piece of evidence is a signature:
    1 - prod(1 - p), treating non-nested keys as independent."""
    prod = 1.0
    for _, p in evidence:
        prod *= 1.0 - p
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


def combine_pairs(groups: Mapping[tuple[int, int], list[Evidence]]) -> list[Link]:
    """Combine each pair's key-sorted evidence into one Link, sorted by
    (r_i, r_j).

    No evidence is eliminated first: under the extractor protocol no
    two same-template keys shared by one pair nest, so ``eliminate``
    would return every group unchanged.
    """
    return [Link(ri, rj, combine(evidence), len(evidence))
            for (ri, rj), evidence in sorted(groups.items())]


def verify_pairs(
    links: list[Link],
    verifier: PostVerifier | None,
    records_by_id: Mapping[int, Record] | None = None,
) -> list[Link]:
    """Apply the post-verification predicate to every link, setting
    ``verified``, and return the same list.

    Verification is independent of tau, so callers sweeping thresholds
    run it once per pair. With no verifier this is the identity.
    """
    if verifier is None:
        return links
    if records_by_id is None:
        raise ConfigError("a post-verifier requires the records it inspects")
    for link in links:
        link.verified = verifier(records_by_id[link.r_i], records_by_id[link.r_j])
    return links


def threshold_pairs(links: Iterable[Link], tau: float) -> list[Link]:
    """The links whose probability strictly exceeds tau and whose
    verification has not failed (the objects themselves, not copies)."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"link.tau must be in (0, 1), got {tau}")
    return [link for link in links if link.probability > tau and link.verified]


def finalize(
    index: InvertedIndex,
    tau: float,
    *,
    cross_source_only: bool = False,
    source_of: Mapping[int, str] | None = None,
    verifier: PostVerifier | None = None,
    records_by_id: Mapping[int, Record] | None = None,
) -> list[Link]:
    """Group, combine, threshold and verify in one call (no
    elimination; see ``combine_pairs``), keeping the verified links.

    Output is sorted by (r_i, r_j) and deterministic for identical
    inputs.
    """
    groups = group_pairs(index, cross_source_only=cross_source_only, source_of=source_of)
    links = threshold_pairs(combine_pairs(groups), tau)
    return [link for link in verify_pairs(links, verifier, records_by_id) if link.verified]
