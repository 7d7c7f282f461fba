"""Pairwise-match evaluation and parameter grid search.

Predicted matches are derived from the final cluster labelling, not
from raw links: two records match iff they share a cluster label (and,
for two-dataset problems, come from different sources). Precision,
recall and F-measure are computed against a ground-truth pair set.
Scoring is whole-array work over the id and label columns: predicted
pair counts come from group sizes, and true positives from one label
comparison over the truth rows' positions.

``grid_search`` sweeps (a, b, rho, tau) exhaustively and does each
distinct piece of work once: one evidence table for the whole grid, one
combine per distinct probability column, a threshold mask per cell, and
one components pass and score per distinct link set.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import cc, linker
from .columns import INDEX, locate, unique
from .errors import ConfigError, DataError, InternalInvariantError
from .indexer import KeyTable, index_from_postings
from .records import RecordTable, check_unrepeated, line_of, read_csv
from .sigprob import DEFAULT_K_CAP, ProbabilityModel, max_recurrence, signature_probability


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
    """Matched pairs as internal original ids: an (m, 2) int64 array of
    unique (min, max) rows, ascending."""

    pairs: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> GroundTruth:
        arr = np.array(list(pairs), dtype=INDEX).reshape(-1, 2)
        return cls.from_columns(arr[:, 0], arr[:, 1])

    @classmethod
    def from_columns(cls, a: np.ndarray, b: np.ndarray) -> GroundTruth:
        """Pairs ``(a[i], b[i])`` of ids in ``[0, cc.MAX_NODE_ID]``."""
        packed = unique(np.minimum(a, b) << 32 | np.maximum(a, b))
        return cls(np.column_stack((packed >> 32, packed & 0xFFFFFFFF)))


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

    ``native_a``/``native_b`` map each source's native keys to internal
    ids (for single-dataset problems pass the same map twice). Blank
    rows are skipped. A row with the wrong number of fields, then the
    first unresolvable key in file order, then the first self-pair
    raises ``DataError`` naming its line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"ground-truth file not found: {path}")
    header, rows = read_csv(path, encoding)
    if column_a not in header or column_b not in header:
        raise DataError(
            f"{path}: ground truth needs columns {column_a!r} and {column_b!r}, got {header}"
        )
    check_unrepeated(path, header, [column_a, column_b])

    def error(row: int, message: str) -> DataError:
        return DataError(f"{path}: line {line_of(path, encoding, row)}: {message}")

    ragged = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
    if ragged is not None:
        raise error(ragged, f"expected {len(header)} fields, got {len(rows[ragged])}")
    col = {name: i for i, name in enumerate(header)}
    keys_a = [row[col[column_a]] for row in rows]
    keys_b = [row[col[column_b]] for row in rows]
    a = np.fromiter(map(native_a.get, keys_a, itertools.repeat(-1)), INDEX, len(rows))
    b = np.fromiter(map(native_b.get, keys_b, itertools.repeat(-1)), INDEX, len(rows))
    if (unknown := (a < 0) | (b < 0)).any():
        i = int(np.argmax(unknown))
        key = keys_a[i] if a[i] < 0 else keys_b[i]
        raise error(i, f"truth key {key!r} not found in source records")
    if (same := a == b).any():
        i = int(np.argmax(same))
        raise error(i, f"self-pair in ground truth ({keys_a[i]!r}, {keys_b[i]!r})")
    return GroundTruth.from_columns(a, b)


def _pair_count(labels: np.ndarray) -> int:
    """Pairs of entries that share a value."""
    sizes = np.unique(labels, return_counts=True)[1]
    return int((sizes * (sizes - 1) // 2).sum())


def evaluate(ids, labels, truth: GroundTruth, *, source=None,
             scope: str = "cross_source") -> Metrics:
    """Score a cluster labelling of original ids against truth.

    ``ids`` are ascending record ids and ``labels`` their cluster
    labels; ``source`` gives each id's source, as any column of
    comparable values. Predicted pairs are all record pairs sharing a
    label; with ``scope="cross_source"`` only pairs from different
    sources count, on both the predicted and the truth side. The
    predicted count comes from cluster sizes minus (cluster, source)
    group sizes, so the predicted set is never materialized.
    """
    if scope not in ("cross_source", "all"):
        raise ConfigError(f"unknown evaluation scope {scope!r}")
    cross = scope == "cross_source"
    if cross and source is None:
        raise ConfigError("cross_source evaluation requires a source column")
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if (ids[1:] <= ids[:-1]).any():
        raise InternalInvariantError("evaluated ids must be strictly ascending")
    pos, unknown = locate(ids, truth.pairs)
    if unknown.any():
        raise DataError(f"truth pair references unknown record id {truth.pairs[unknown][0]}")
    hit = labels[pos[:, 0]] == labels[pos[:, 1]]
    predicted = _pair_count(labels)
    if cross:
        codes = np.unique(np.asarray(source), return_inverse=True)[1].astype(np.int64)
        predicted -= _pair_count(labels * (codes.max(initial=0) + 1) + codes)
        # Same-source truth pairs are unpredictable here: false negatives.
        hit &= codes[pos[:, 0]] != codes[pos[:, 1]]
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
    ids: np.ndarray,
    canonical_ids: np.ndarray,
    source: np.ndarray,
    records: RecordTable,
    cross_source_only: bool,
    verifier: linker.JaccardVerifier | None = None,
    k_cap: int = DEFAULT_K_CAP,
    scope: str = "cross_source",
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
    admits. Cells with equal link sets share one components pass and
    one ``evaluate``. A cell's ``seconds`` is its share of the work it
    used plus its own.

    Cells appear in nested loop order (a, b, rho, tau) and results are
    deterministic. ``ids`` (ascending) are the records scored,
    ``canonical_ids`` their canonical ids and ``source`` their source
    codes; the canonical records, the table's ``ids``, are clustered. A
    cell's labels reach the scored records through one gather at the
    canonical positions, found once. With ``cross_source_only``, the
    canonical records' codes, gathered once, drop same-source pairs.
    """
    for name, values in (("a", a_values), ("b", b_values),
                         ("rho", rho_values), ("tau", tau_values)):
        if not values:
            raise ConfigError(f"grid for {name!r} is empty")
    t0 = time.perf_counter()
    canon_pos = np.searchsorted(raw_postings.ids, canonical_ids)
    pair_source = (source[np.searchsorted(ids, raw_postings.ids)]
                   if cross_source_only else None)
    triples = list(itertools.product(a_values, b_values, rho_values))
    models = [ProbabilityModel(a=a, b=b, k_cap=k_cap) for a, b, _ in triples]
    k_maxes = [max_recurrence(model, rho) for model, (_, _, rho) in zip(models, triples)]
    widest = int(np.argmax(k_maxes))
    groups = linker.group_pairs(
        index_from_postings(raw_postings, models[widest], triples[widest][2]),
        source=pair_source)
    pairs = linker.verify_pairs(linker.combine_pairs(groups), verifier, records)
    lengths = raw_postings.lengths[groups.keys]
    longest = int(lengths.max(initial=0))
    columns: dict[bytes, list[int]] = {}
    for t, (model, k_max) in enumerate(zip(models, k_maxes)):
        p_by_len = [0.0] + [signature_probability(model, n) if n <= k_max else 0.0
                            for n in range(1, longest + 1)]
        columns.setdefault(np.array(p_by_len).tobytes(), []).append(t)
    n_tau = len(tau_values)
    shared = (time.perf_counter() - t0) / (len(triples) * n_tau)
    cells: dict[tuple[int, int], GridCell] = {}
    scores: dict[bytes, Metrics] = {}
    for p_by_len, members in columns.items():
        t1 = time.perf_counter()
        probability = pairs.probability if widest in members else linker.combine_pairs(
            linker.PairEvidence(groups.table, groups.r_i, groups.r_j, groups.starts,
                                groups.keys, np.frombuffer(p_by_len)[lengths])).probability
        scored = np.rec.fromarrays([np.arange(len(pairs)), probability, pairs.verified],
                                   names=["row", "probability", "verified"])
        del probability  # one combined table alive at a time
        column_s = shared + (time.perf_counter() - t1) / (len(members) * n_tau)
        for t in members:
            a, b, rho = triples[t]
            for j, tau in enumerate(tau_values):
                t2 = time.perf_counter()
                rows = linker.threshold_pairs(scored, tau).row
                link_set = rows.tobytes()
                if link_set not in scores:
                    labels = cc.connected_components(linker.edges(pairs[rows]),
                                                     raw_postings.ids)
                    scores[link_set] = evaluate(ids, labels[canon_pos], truth,
                                                source=source, scope=scope)
                cells[t, j] = GridCell(
                    params=GridParams(a=a, b=b, rho=rho, tau=tau),
                    metrics=scores[link_set],
                    links=len(rows),
                    seconds=column_s + (time.perf_counter() - t2),
                )
    ordered = [cells[key] for key in sorted(cells)]
    return GridSearchResult(best=max(ordered, key=_rank), cells=ordered, triples=len(triples),
                            columns=len(columns), link_sets=len(scores))


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
