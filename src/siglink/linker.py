"""Pairwise linkage from the inverted index.

Pair evidence is a join plus group-by over integer columns: every kept
key adds one ``(key, p)`` row to each record pair in its posting list,
enumerated per posting length with one ``triu_indices`` table, and the
rows are sorted by pair and then by the key's rank in encoded-key order
(``group_pairs``). Per pair, the rows combine as 1 - prod(1 - p) under
an independence assumption, multiplied position by position in that
order so the float bits equal the key-sorted product (``combine``,
``combine_pairs``). Pairs whose combined probability strictly exceeds
tau (``threshold_pairs``), and which pass the optional
post-verification predicate (``verify_pairs``), become links.
``finalize`` runs those steps in that order, as ``resolve`` does;
``tune`` verifies before it sweeps tau. The pair -> ``[(key, p)]``
mapping that ``group_pairs`` returns is an inspection view, built only
when read.

Links are one numpy record array, one row per record pair, sorted by
(r_i, r_j), with fields ``r_i``, ``r_j``, ``probability``,
``evidence_count`` and ``verified``. Thresholding and verification are
masks over it, and a record's source is a code in a column aligned with
the key table's rows.

The paper also eliminates evidence whose key is a strict subrecord of
another key from the same template (superrecords of signatures are
signatures, so only the maximal keys need assessing). ``eliminate``
keeps that rule as the tested reference definition, but the link path
does not call it: the shipped extractors cannot produce two nested
same-template keys for one pair (see the extractor protocol in
``templates``), so it would never remove anything.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .columns import INDEX, group_rows, unique
from .errors import ConfigError
from .indexer import InvertedIndex, KeyTable, subrecord_of
from .records import Record, RecordTable
from .templates import KEY_PART_SEP, parse_key

# Post-verification predicate over the two candidate records.
PostVerifier = Callable[[Record, Record], bool]

# One piece of pair evidence: both records contain ``key``, a signature
# with probability ``p``.
Evidence = tuple[str, float]


class PairEvidence(Mapping[tuple[int, int], list[Evidence]]):
    """Evidence rows grouped by record pair, as columns.

    Pair g is records ``(r_i[g], r_j[g])``, in ascending order, and its
    rows are positions ``starts[g]:starts[g + 1]`` of ``keys`` (key
    indices of ``table``) and ``p``, in encoded-key order. As a
    ``Mapping`` it is the (r_i, r_j) -> [(key, p)] view, built on first
    read.
    """

    def __init__(self, table: KeyTable, r_i: np.ndarray, r_j: np.ndarray,
                 starts: np.ndarray, keys: np.ndarray, p: np.ndarray) -> None:
        self.table = table
        self.r_i, self.r_j, self.starts = r_i, r_j, starts
        self.keys, self.p = keys, p

    @property
    def evidence_rows(self) -> int:
        return len(self.p)

    def __len__(self) -> int:
        return len(self.r_i)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._view)

    def __getitem__(self, pair: tuple[int, int]) -> list[Evidence]:
        return self._view[pair]

    @cached_property
    def _view(self) -> dict[tuple[int, int], list[Evidence]]:
        used, row_key = np.unique(self.keys, return_inverse=True)
        text = self.table.key_strings(used)
        rows = list(zip(map(text.__getitem__, row_key.tolist()), self.p.tolist()))
        bounds = self.starts.tolist()
        pairs = zip(self.r_i.tolist(), self.r_j.tolist())
        return {pair: rows[a:b] for pair, a, b in zip(pairs, bounds, bounds[1:])}


def group_pairs(index: InvertedIndex, *, source: np.ndarray | None = None) -> PairEvidence:
    """Group-by of every kept key's record pairs on (r_i, r_j), each
    pair's (key, p) rows in encoded-key order so downstream float
    products are order-stable.

    Pairs are enumerated per posting length with one ``triu_indices``
    table each; postings are ascending, so r_i < r_j. ``source`` holds
    one source code per ``index.table`` row; given, pairs whose records
    share a code are dropped, and None keeps every pair.
    """
    table = index.table
    lengths = table.lengths[index.kept]
    multi = lengths >= 2
    keys, p, lengths = index.kept[multi], index.p[multi], lengths[multi]
    columns: list[tuple[np.ndarray, ...]] = [(np.empty(0, dtype=INDEX),) * 3]
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        of_len = np.flatnonzero(lengths == n)
        postings = table.rows[table.offsets[keys[of_len]][:, None] + np.arange(n)]
        a, b = np.triu_indices(n, 1)
        columns.append((postings[:, a].ravel(), postings[:, b].ravel(),
                        np.repeat(of_len, len(a))))
    firsts, seconds, row_key = map(np.concatenate, zip(*columns))
    if source is not None:
        cross = source[firsts] != source[seconds]
        firsts, seconds, row_key = firsts[cross], seconds[cross], row_key[cross]
    n_rows = len(table.ids)
    pair = firsts * n_rows + seconds
    order, first = group_rows([pair, table.ranks[keys[row_key]]],
                              [n_rows * n_rows, len(table)], n_key=1)
    starts = np.flatnonzero(first)
    head = pair[order[starts]]
    row_key = row_key[order]
    return PairEvidence(table, table.ids[head // n_rows], table.ids[head % n_rows],
                        np.append(starts, len(order)), keys[row_key], p[row_key])


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


def make_verifier(spec: str | None) -> PostVerifier | None:
    """Build a verifier from its config spec: ``jaccard:<threshold>``,
    or ``none`` (or None) to disable post-verification."""
    if spec is None or spec == "none":
        return None
    name, _, arg = spec.partition(":")
    if name != "jaccard":
        raise ConfigError(f"unknown verifier {name!r} (use 'jaccard:<threshold>' or 'none')")
    if not arg:
        raise ConfigError(f"verifier {spec!r} needs a threshold, e.g. 'jaccard:0.5'")
    try:
        threshold = float(arg)
    except ValueError:
        raise ConfigError(f"bad verifier spec {spec!r}: {arg!r} is not a number") from None
    return jaccard_verifier(threshold)


def combine_pairs(groups: PairEvidence) -> np.recarray:
    """Combine each pair's key-ordered evidence into one link row, in
    pair order (r_i, r_j); every row starts verified.

    The product runs position by position over all pairs at once, so
    every pair's float product is taken in key order exactly as
    ``combine`` takes it. No evidence is eliminated first: under the
    extractor protocol no two same-template keys shared by one pair
    nest, so ``eliminate`` would return every group unchanged.
    """
    counts = np.diff(groups.starts)
    complement = 1.0 - groups.p
    product = np.ones(len(counts))
    # The pairs with a row at a position are a prefix of this order.
    by_count = np.argsort(-counts, kind="stable")
    for position in range(int(counts.max(initial=0))):
        pairs = by_count[:np.count_nonzero(counts > position)]
        product[pairs] *= complement[groups.starts[pairs] + position]
    return np.rec.fromarrays(
        [groups.r_i, groups.r_j, 1.0 - product, counts, np.ones(len(counts), dtype=bool)],
        names=["r_i", "r_j", "probability", "evidence_count", "verified"])


def edges(links: np.recarray) -> np.ndarray:
    """The links' record pairs as an (m, 2) int64 array, the edge table
    ``cc.connected_components`` reads."""
    return np.column_stack((links.r_i, links.r_j))


def verify_pairs(
    links: np.recarray,
    verifier: PostVerifier | None,
    records: RecordTable | None = None,
) -> np.recarray:
    """Apply the post-verification predicate to every link, writing its
    ``verified`` column, and return the same table.

    A ``Record`` is built from ``records`` only for the links'
    endpoints. Verification is independent of tau, so callers sweeping
    thresholds run it once per pair. With no verifier this is the
    identity.
    """
    if verifier is None:
        return links
    if records is None:
        raise ConfigError("a post-verifier requires the records it inspects")
    by_id = records.records(unique(np.concatenate((links.r_i, links.r_j))))
    links["verified"] = [verifier(by_id[i], by_id[j])
                         for i, j in zip(links.r_i.tolist(), links.r_j.tolist())]
    return links


def threshold_pairs(links: np.recarray, tau: float) -> np.recarray:
    """The rows whose probability strictly exceeds tau and whose
    verification has not failed, as a new table."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"link.tau must be in (0, 1), got {tau}")
    return links[(links.probability > tau) & links.verified]


def finalize(
    index: InvertedIndex,
    tau: float,
    *,
    source: np.ndarray | None = None,
    verifier: PostVerifier | None = None,
    records: RecordTable | None = None,
) -> np.recarray:
    """Group, combine, threshold and verify in one call (no
    elimination; see ``combine_pairs``), keeping the verified links.
    ``source`` is as in ``group_pairs``.

    Output is sorted by (r_i, r_j) and deterministic for identical
    inputs.
    """
    links = threshold_pairs(combine_pairs(group_pairs(index, source=source)), tau)
    links = verify_pairs(links, verifier, records)
    return links[links.verified]
