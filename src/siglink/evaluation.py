"""Pairwise-match evaluation and parameter grid search.

Predicted matches are derived from the final cluster labelling, not
from raw links: two records match iff they share a cluster label (and,
for two-dataset problems, come from different sources). Precision,
recall and F-measure are computed against a ground-truth pair set.
Scoring is whole-array work over the label column: truth pairs are
rows of the scored table from load on, so predicted pair counts come
from group sizes, and true positives from one label comparison gathered
at the truth rows.

``grid_search`` sweeps (a, b, rho, tau) exhaustively and does each
distinct piece of work once: one evidence table for the whole grid, one
combine per distinct probability column, a threshold mask per column
and tau, and one labelling and score per distinct link set, by
contraction from the last set's labels where the set holds it.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from . import cc, linker
from .columns import INDEX, sort_rows
from .errors import ConfigError, DataError, check_unit_interval
from .indexer import KeyTable, index_from_postings
from .records import RecordTable, check_unrepeated, line_of, read_blocks
from .sigprob import ProbabilityModel, max_recurrence, probability_by_length


@dataclass(frozen=True)
class Metrics:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f_measure: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp, fp, fn, precision, recall, f)


@dataclass(frozen=True)
class GroundTruth:
    """Matched pairs as rows of the scored table: an (m, 2) int64 array
    of unique (min, max) rows, ascending."""

    pairs: np.ndarray

    @classmethod
    def from_columns(cls, a: np.ndarray, b: np.ndarray) -> GroundTruth:
        """Pairs ``(a[i], b[i])`` of rows."""
        size = int(max(a.max(initial=-1), b.max(initial=-1))) + 1
        (lo, hi), first = sort_rows([np.minimum(a, b), np.maximum(a, b)], [size, size])
        return cls(np.column_stack((lo[first], hi[first])))


def load_truth(
    path: str | Path,
    native_a: Mapping[str, int],
    native_b: Mapping[str, int],
    *,
    column_a: str = "id_a",
    column_b: str = "id_b",
    encoding: str = "utf-8-sig",
) -> GroundTruth:
    """Read a ground-truth CSV whose columns hold native keys.

    ``native_a``/``native_b`` map each source's native keys to rows of
    the scored table (for single-dataset problems pass the same map
    twice). The file is read a block of rows at a time
    (``records.read_blocks``). Blank rows are skipped. A row with the wrong number of fields anywhere,
    then the first unresolvable key in file order, then the first
    self-pair raises ``DataError`` naming its line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"ground-truth file not found: {path}")
    blocks = read_blocks(path, encoding)
    header = next(blocks)

    def error(row: int, message: str) -> DataError:
        return DataError(f"{path}: line {line_of(path, encoding, row)}: {message}")

    try:
        if column_a not in header or column_b not in header:
            raise DataError(f"{path}: ground truth needs columns {column_a!r} and "
                            f"{column_b!r}, got {header}")
        check_unrepeated(path, header, [column_a, column_b])
        col_a, col_b = header.index(column_a), header.index(column_b)
        rows_a, rows_b = [np.empty(0, INDEX)], [np.empty(0, INDEX)]
        unknown = self_pair = None  # the first of each: its row and message
        n = 0
        for block in blocks:
            fields = np.fromiter(map(len, block), INDEX, len(block))
            if len(ragged := np.flatnonzero(fields != len(header))):
                raise error(n + int(ragged[0]), f"expected {len(header)} fields, "
                                                f"got {fields[ragged[0]]}")
            a = np.fromiter(map(native_a.get, map(itemgetter(col_a), block),
                                itertools.repeat(-1)), INDEX, len(block))
            b = np.fromiter(map(native_b.get, map(itemgetter(col_b), block),
                                itertools.repeat(-1)), INDEX, len(block))
            if unknown is None and (bad := (a < 0) | (b < 0)).any():
                i = int(np.argmax(bad))
                key = block[i][col_a] if a[i] < 0 else block[i][col_b]
                unknown = n + i, f"truth key {key!r} not found in source records"
            if self_pair is None and (same := a == b).any():
                i = int(np.argmax(same))
                self_pair = n + i, f"self-pair in ground truth " \
                                   f"({block[i][col_a]!r}, {block[i][col_b]!r})"
            rows_a.append(a)
            rows_b.append(b)
            n += len(block)
            del block  # freed before the next block is read
    except DataError:
        for _ in blocks:  # a bad byte or a row csv rejects later in the file comes first
            pass
        raise
    if fault := unknown or self_pair:
        raise error(*fault)
    return GroundTruth.from_columns(np.concatenate(rows_a), np.concatenate(rows_b))


def _pair_count(labels: np.ndarray) -> int:
    """Pairs of entries that share a value."""
    sizes = np.unique(labels, return_counts=True)[1]
    return int((sizes * (sizes - 1) // 2).sum())


def evaluate(labels, truth: GroundTruth, *, source=None) -> Metrics:
    """Score a cluster labelling against truth.

    ``labels[r]`` is row r's cluster label, and ``truth`` pairs rows;
    ``source``, if given, is each row's source as a small integer code.
    Predicted pairs are all row pairs sharing a label; given ``source``,
    only pairs from different sources count, on both the predicted and
    the truth side. The predicted count comes from cluster sizes minus
    (cluster, source) group sizes, so the predicted set is never
    materialized.
    """
    labels = np.asarray(labels)
    left, right = truth.pairs[:, 0], truth.pairs[:, 1]
    hit = labels[left] == labels[right]
    predicted = _pair_count(labels)
    if source is not None:
        codes = np.asarray(source)
        predicted -= sum(_pair_count(labels[codes == s])
                         for s in range(int(codes.max(initial=-1)) + 1))
        # Same-source truth pairs are unpredictable here: false negatives.
        hit &= codes[left] != codes[right]
    tp = int(hit.sum())
    return Metrics.from_counts(tp=tp, fp=predicted - tp, fn=len(truth.pairs) - tp)


@dataclass(frozen=True)
class GridParams:
    a: float
    b: float
    rho: float
    tau: float


@dataclass
class GridCell:
    params: GridParams
    metrics: Metrics
    links: int
    seconds: float


@dataclass
class GridSearchResult:
    best: GridCell
    cells: list[GridCell]
    # Work done: triples, distinct probability columns and link sets.
    triples: int
    columns: int
    link_sets: int


def _rank(cell: GridCell) -> tuple[float, float, float]:
    # Ties break toward higher precision, then lower tau; remaining
    # ties keep the earlier cell in grid order (``max`` keeps the first).
    return (cell.metrics.f_measure, cell.metrics.precision, -cell.params.tau)


def grid_search(
    raw_postings: KeyTable,
    a_values: Sequence[float],
    b_values: Sequence[float],
    rho_values: Sequence[float],
    tau_values: Sequence[float],
    *,
    truth: GroundTruth,
    canonical_rows: np.ndarray,
    source: np.ndarray | None = None,
    pair_source: np.ndarray | None = None,
    records: RecordTable,
    verifier: linker.JaccardVerifier | None = None,
) -> GridSearchResult:
    """Exhaustively evaluate every (a, b, rho, tau) grid cell, doing
    each distinct piece of work once.

    The triple with the largest k_max keeps every key any triple keeps:
    its pairs are grouped, combined and verified (which depends on
    neither model nor tau) once. Each other distinct per-length table,
    0 above its k_max, is one more combine over those rows, whose order
    ascends in its ``p`` too (see ``linker.group_pairs``): a factor
    1 - 0 = 1 leaves each product's bits as the kept keys give them,
    and a pair with no kept key gets probability 0, which no tau
    admits. Cells with byte-equal link sets share one labelling and one
    ``evaluate``. Sets are labelled in ascending size; one that holds
    every row of the set before it (checked by row mask, not by float
    order) is labelled by contraction: its added rows, as edges between
    that set's labels, get one components pass, gathered back through
    those labels. A cell's ``seconds`` is its share of the work it used.

    Cells appear in nested loop order (a, b, rho, tau) and results are
    deterministic. The rows of ``records``, the canonical records, are
    clustered; the scored table's row r (the rows ``truth`` pairs) is
    the loaded record that canonical row ``canonical_rows[r]`` stands
    for, so a cell's labels reach it through one gather. ``source``, if
    given, is each scored row's source code, which limits scoring to
    cross-source pairs. ``pair_source``, if given, is each canonical
    row's source code, and drops same-source pairs as it does in
    ``linker.group_pairs``.
    """
    for name, values in (("a", a_values), ("b", b_values),
                         ("rho", rho_values), ("tau", tau_values)):
        if not values:
            raise ConfigError(f"grid for {name!r} is empty")
    t0 = time.perf_counter()
    triples = list(itertools.product(a_values, b_values, rho_values))
    models = [ProbabilityModel(a=a, b=b) for a, b, _ in triples]
    k_maxes = [max_recurrence(model, rho, "grids.rho")
               for model, (_, _, rho) in zip(models, triples)]
    for tau in tau_values:
        check_unit_interval("grids.tau", tau)
    widest = int(np.argmax(k_maxes))
    groups = linker.group_pairs(
        index_from_postings(raw_postings, models[widest], triples[widest][2]),
        source=pair_source)
    pairs = linker.verify_pairs(linker.combine_pairs(groups), verifier, records)
    lengths = raw_postings.lengths[groups.keys]
    longest = int(lengths.max(initial=0))
    columns: dict[bytes, list[int]] = {}
    for t, (model, k_max) in enumerate(zip(models, k_maxes)):
        columns.setdefault(probability_by_length(model, k_max, longest).tobytes(), []).append(t)
    n_tau = len(tau_values)
    shared = (time.perf_counter() - t0) / (len(triples) * n_tau)
    # Each distinct link set, as its rows' bytes: the cells that use it
    # and each one's share of the work before labelling.
    uses: dict[bytes, list[tuple[int, int, float]]] = {}
    for p_by_len, members in columns.items():
        t1 = time.perf_counter()
        probability = pairs.probability if widest in members else groups.combine(
            np.frombuffer(p_by_len)[lengths])
        cuts = [np.flatnonzero((probability > tau) & pairs.verified).tobytes()
                for tau in tau_values]
        del probability  # one combined column alive at a time
        column_s = shared + (time.perf_counter() - t1) / (len(members) * n_tau)
        for t in members:
            for j, link_set in enumerate(cuts):
                uses.setdefault(link_set, []).append((t, j, column_s))
    cells: dict[tuple[int, int], GridCell] = {}
    held = labels = None  # the last labelled set's row mask and labels
    for link_set in sorted(uses, key=len):
        t2 = time.perf_counter()
        rows = np.frombuffer(link_set, dtype=np.intp)
        mask = np.bincount(rows, minlength=len(pairs)) > 0
        if labels is not None and not (held > mask).any():
            # It holds the last set, so it labels by contraction: the
            # rows it adds join that set's components, named by label.
            added = linker.edges(pairs[np.flatnonzero(mask > held)])
            labels = cc.connected_components(labels[added], len(records))[labels]
        else:
            labels = cc.connected_components(linker.edges(pairs[rows]), len(records))
        held = mask
        metrics = evaluate(labels[canonical_rows], truth, source=source)
        share = (time.perf_counter() - t2) / len(uses[link_set])
        for t, j, column_s in uses[link_set]:
            a, b, rho = triples[t]
            cells[t, j] = GridCell(params=GridParams(a=a, b=b, rho=rho, tau=tau_values[j]),
                                   metrics=metrics, links=len(rows), seconds=column_s + share)
    ordered = [cells[key] for key in sorted(cells)]
    return GridSearchResult(best=max(ordered, key=_rank), cells=ordered, triples=len(triples),
                            columns=len(columns), link_sets=len(uses))


def write_results_csv(result: GridSearchResult, out: IO[str]) -> None:
    """One row per grid cell: parameters, counts, scores, wall time."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "rho", "tau", "links", "tp", "fp", "fn",
                     "precision", "recall", "f_measure", "wall_time_s"])
    for cell in result.cells:
        m = cell.metrics
        writer.writerow([
            repr(cell.params.a), repr(cell.params.b), repr(cell.params.rho),
            repr(cell.params.tau), cell.links,
            m.true_positives, m.false_positives, m.false_negatives,
            f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f_measure:.6f}",
            f"{cell.seconds:.3f}",
        ])
