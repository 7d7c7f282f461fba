"""Pairwise linkage from the inverted index.

Pair evidence is a join plus group-by over integer columns: every kept
key adds one ``(key, p)`` row to each record pair in its posting list,
enumerated per posting length with one ``triu_indices`` table, and the
rows are sorted by pair and then by ascending ``p`` (``group_pairs``).
Per pair, the rows combine as 1 - prod(1 - p) under an independence
assumption, multiplied position by position in that order, so their
float bits depend only on its ``p`` values (``PairEvidence.combine``).
Pairs whose combined probability strictly exceeds tau
(``threshold_pairs``), and which pass the optional post-verification
rule (``verify_pairs``), become links. The one rule, a threshold on the
endpoints' token-set Jaccard similarity (``JaccardVerifier``), is
computed on the record table's columns as a join of pairs to their
records' token ids plus a group-by count (``jaccard``); no row object
is built. ``finalize`` runs those steps in that order, as ``resolve``
does; ``tune`` verifies before it sweeps tau. ``group_pairs``' table
holds the key table's names, not its postings, so the index can be freed
once the pairs are grouped; it is also a pair -> ``[(key, p)]`` mapping,
built only when read, for the benchmark's tracer alone.

A record is its row in the key table (the canonical table of a run)
from the postings to the links; the caller writes ids, as
``table.ids[rows]``. Links are one numpy record array, one row per
record pair, sorted by (r_i, r_j), with fields ``r_i``, ``r_j`` (rows),
``probability``, ``evidence_count`` and ``verified``. Thresholding and verification are
masks over it, and a record's source is a code in a column aligned with
the key table's rows.

The paper also eliminates evidence whose key is a strict subrecord of
another same-template key (only maximal keys need assessing).
``eliminate`` is that rule, kept because the benchmark's tracer wraps
it by name. The link path does not call it: under the extractor
protocol (``templates``) it would never remove anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .columns import INDEX, expand, sort_rows, unique
from .errors import ConfigError, check_unit_interval
from .indexer import InvertedIndex, KeyNames, subrecord_of
from .records import RecordTable
from .templates import KEY_PART_SEP, parse_key

# One piece of pair evidence: both records contain ``key``, a signature
# with probability ``p``.
Evidence = tuple[str, float]


# A ``Mapping`` for the benchmark's tracer (``tracer._after_group``); no run reads the view.
class PairEvidence(Mapping[tuple[int, int], list[Evidence]]):
    """Evidence rows grouped by record pair, as columns.

    Pair g is rows ``(r_i[g], r_j[g])`` of ``table`` (the key table's
    ``KeyNames``), ascending, and its rows are positions
    ``starts[g]:starts[g + 1]`` of ``keys`` (key indices of ``table``)
    and ``p``, in ascending ``p``. As a ``Mapping`` it is the (r_i, r_j)
    -> [(key, p)] view, built on first read.
    """

    def __init__(self, table: KeyNames, r_i: np.ndarray, r_j: np.ndarray,
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

    def combine(self, p: np.ndarray) -> np.ndarray:
        """Each pair's 1 - prod(1 - p) over its rows of ``p`` (aligned with
        ``self.p``), one position at a time over all pairs: in its rows' order."""
        complement, product = 1.0 - p, np.ones(len(self))
        for position, pairs in enumerate(self._plan):
            product[pairs] *= complement[self.starts[pairs] + position]
        return 1.0 - product

    @cached_property
    def _plan(self) -> list[np.ndarray]:
        """The pairs with a row at each position: prefixes of one order, by count."""
        counts = np.diff(self.starts)
        by_count = np.argsort(-counts, kind="stable")
        return [by_count[:np.count_nonzero(counts > k)] for k in range(counts.max(initial=0))]

    @cached_property
    def _view(self) -> dict[tuple[int, int], list[Evidence]]:
        used, row_key = np.unique(self.keys, return_inverse=True)
        text = self.table.key_strings(used)
        rows = list(zip(map(text.__getitem__, row_key.tolist()), self.p.tolist()))
        bounds = self.starts.tolist()
        pairs = zip(self.r_i.tolist(), self.r_j.tolist())
        return {pair: rows[a:b] for pair, a, b in zip(pairs, bounds, bounds[1:])}


def group_pairs(index: InvertedIndex, *, source: np.ndarray | None = None) -> PairEvidence:
    """Group-by of every kept key's record pairs on their rows (r_i,
    r_j), each pair's (key, p) rows in ascending ``p``, longer posting
    lists first among equal ``p``. No model's ``p`` grows with posting length, so
    the order also ascends in any other model's ``p`` for the same
    rows (``evaluation.grid_search`` reuses it).

    Pairs are enumerated per posting length with one ``triu_indices``
    table each; postings are ascending, so r_i < r_j. Each length's rows
    are written in place into two columns made once for every row: the
    pair packed in one word and the key, which is numbered in row order,
    so one sort of the two groups the rows and orders each group.
    ``source`` holds one source code per ``index.table`` row; given,
    pairs whose records share a code are dropped as each length's rows
    are written, and None keeps every pair.
    """
    table = index.table
    keys, p, lengths = index.kept, index.p, table.lengths[index.kept]
    # The keys in the order their rows take within a pair, so a key's
    # rank is its position.
    order = np.lexsort((-lengths, p))
    keys, p, lengths = keys[order], p[order], lengths[order]
    del order
    n_rows = len(table.ids)
    # Each row's pair packed in one word, r_i * n_rows + r_j, and its key.
    size = int((lengths * (lengths - 1) // 2).sum())
    pair, key = np.empty(size, dtype=INDEX), np.empty(size, dtype=INDEX)
    end = 0
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        of_len = np.flatnonzero(lengths == n)
        postings = table.offsets[keys[of_len]][:, None] + np.arange(n)
        np.take(table.rows, postings, out=postings, mode="clip")  # in place: no second matrix
        a, b = np.triu_indices(n, 1)
        stop = end + len(of_len) * len(a)
        block = pair[end:stop].reshape(len(of_len), len(a))
        np.take(postings, a, axis=1, out=block, mode="clip")  # not buffered, as "raise" is
        block *= n_rows
        block += postings[:, b]
        key[end:stop].reshape(block.shape)[:] = of_len[:, None]
        del postings, block  # freed once read, as are the filter's copies: a run can peak here
        if source is not None:
            cross = source[pair[end:stop] // n_rows] != source[pair[end:stop] % n_rows]
            kept = [np.compress(cross, col[end:stop]) for col in (pair, key)]
            stop = end + len(kept[0])  # ``np.compress`` is 4-5x faster than a boolean index
            pair[end:stop], key[end:stop] = kept
            del kept, cross
        end = stop
    pair_rows = [pair[:end], key[:end]]
    del pair, key, lengths  # no view is left, so ``sort_rows`` frees the pair rows once packed
    (pair, key), first = sort_rows(pair_rows, [n_rows * n_rows, len(keys)], n_key=1)
    starts = np.flatnonzero(first)
    head = pair[starts]
    del pair, first  # before the gathers, which make the evidence columns
    r_i, r_j = np.divmod(head, n_rows)
    del head
    return PairEvidence(KeyNames(table.ids, table.blocks), r_i, r_j, np.append(starts, len(key)),
                        keys[key], p[key])


# Kept for the benchmark's tracer, which wraps ``eliminate``.
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


# Kept for the benchmark's tracer, which wraps it by name; no run calls it.
def eliminate(evidence: Iterable[Evidence]) -> list[Evidence]:
    """Drop evidence dominated by other evidence for the same pair.

    A row is removed iff its key is a strict subrecord (per-part
    subsequence within the same template family) of another surviving
    row's key. Keys from different templates are incomparable by
    design: they encode different attribute provenance. Output keeps
    the input's order.

    This is the paper's elimination rule; ``combine_pairs`` does not
    call it (see the extractor protocol in ``templates``).
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


@dataclass(frozen=True)
class JaccardVerifier:
    """The post-verification rule: accept a pair iff the Jaccard
    similarity of the two records' full token sets (every attribute's
    tokens, one set per record) is >= ``threshold``. Two empty sets
    count as identical. ``verify_pairs`` applies it to a link table."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(
                f"jaccard verifier threshold must be in [0, 1], got {self.threshold}")


def make_verifier(spec: str | None) -> JaccardVerifier | None:
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
    return JaccardVerifier(threshold)


def combine_pairs(groups: PairEvidence) -> np.recarray:
    """One link row per pair of ``groups``, in pair order (r_i, r_j): its
    probability ``groups.combine(groups.p)``, taken in ascending ``p``, its
    evidence count, and ``verified`` set. No evidence is eliminated first:
    under the extractor protocol no two same-template keys shared by one
    pair nest, so ``eliminate`` would return every group unchanged.
    """
    return np.rec.fromarrays(
        [groups.r_i, groups.r_j, groups.combine(groups.p), np.diff(groups.starts),
         np.ones(len(groups), dtype=bool)],
        names=["r_i", "r_j", "probability", "evidence_count", "verified"])


def edges(links: np.recarray) -> np.ndarray:
    """The links' row pairs as an (m, 2) int64 array, the edge table
    ``cc.connected_components`` reads."""
    return np.column_stack((links.r_i, links.r_j))


def jaccard(records: RecordTable, r_i: np.ndarray, r_j: np.ndarray) -> np.ndarray:
    """The Jaccard similarity of the full token sets of rows ``r_i[g]``
    and ``r_j[g]`` of ``records``, for every g, in float64; 1.0 where
    both sets are empty.

    A join plus group-by: each endpoint row's distinct token ids
    (``RecordTable.token_sets``) are joined to the pairs it is in, and
    one sort of the ``(pair, token)`` rows finds the tokens both sets
    hold. The union is ``|A| + |B| - inter``, and the quotient of these
    integers (below 2^53) is correctly rounded, as Python's ``int / int``.
    A row outside ``records`` raises ``IndexError``.
    """
    n = len(r_i)
    if not n:
        return np.ones(0)
    ends = unique(np.concatenate((r_i, r_j)))
    if ends[0] < 0 or ends[-1] >= len(records):
        raise IndexError(f"link row {ends[0] if ends[0] < 0 else ends[-1]} is not a row "
                         f"of the {len(records)} records")
    offsets, tokens = records.token_sets(ends)
    sizes = np.diff(offsets)
    at = np.empty(len(records), dtype=INDEX)  # each endpoint row's place in ``ends``
    at[ends] = np.arange(len(ends))
    a, b = at[r_i], at[r_j]
    # Row k of the first n is pair k's A side, of the next n its B side.
    side, within = expand(np.concatenate((sizes[a], sizes[b])))
    token = tokens[np.concatenate((offsets[a], offsets[b]))[side] + within]
    pair = side % n
    (pair, _), first = sort_rows([pair, token], [n, int(tokens.max(initial=-1)) + 1])
    inter = np.bincount(pair[~first], minlength=n)
    union = sizes[a] + sizes[b] - inter
    return np.divide(inter, union, out=np.ones(n), where=union > 0)


def verify_pairs(
    links: np.recarray,
    verifier: JaccardVerifier | None,
    records: RecordTable | None = None,
) -> np.recarray:
    """Apply the post-verifier to every link, writing its ``verified``
    column, and return the same table.

    The similarity is computed on the record table's columns (see
    ``jaccard``); no row object is built. Verification is independent of
    tau, so callers sweeping thresholds run it once per pair. With no
    verifier this is the identity.
    """
    if verifier is None:
        return links
    if records is None:
        raise ConfigError("a post-verifier requires the records it inspects")
    links["verified"] = jaccard(records, links.r_i, links.r_j) >= verifier.threshold
    return links


def threshold_pairs(links: np.recarray, tau: float) -> np.recarray:
    """The rows whose probability strictly exceeds tau and whose
    verification has not failed, as a new table; a tau outside (0, 1)
    raises ``ConfigError``."""
    check_unit_interval("tau", tau)
    return links[(links.probability > tau) & links.verified]


def finalize(
    index: InvertedIndex,
    tau: float,
    *,
    source: np.ndarray | None = None,
    verifier: JaccardVerifier | None = None,
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
