"""Pairwise-match evaluation and parameter grid search.

Predicted matches are derived from the final cluster labelling, not
from raw links: two records match iff they share a cluster label (and,
for two-dataset problems, come from different sources). Precision,
recall and F-measure are computed against a ground-truth pair set.
Scoring is whole-array work over the id and label columns: predicted
pair counts come from group sizes, and true positives from one label
comparison over the truth rows' positions.

``grid_search`` sweeps (a, b, rho, tau) exhaustively while reusing the
model-independent extraction work across all cells, since only pruning
and thresholds change between cells.
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
from .columns import locate
from .errors import ConfigError, DataError, InternalInvariantError
from .indexer import KeyTable, index_from_postings
from .records import Record, RecordTable
from .sigprob import DEFAULT_K_CAP, ProbabilityModel


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
    unique (min, max) rows."""

    pairs: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> GroundTruth:
        arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(np.unique(np.sort(arr, axis=1), axis=0))


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
    ids (for single-dataset problems pass the same map twice).
    Unresolvable keys and self-pairs raise ``DataError``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"ground-truth file not found: {path}")
    pairs: list[tuple[int, int]] = []
    with path.open(newline="", encoding=encoding) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column_a not in reader.fieldnames \
                or column_b not in reader.fieldnames:
            raise DataError(
                f"{path}: ground truth needs columns {column_a!r} and {column_b!r}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            ka, kb = row[column_a], row[column_b]
            if ka not in native_a:
                raise DataError(f"{path}: truth key {ka!r} not found in source records")
            if kb not in native_b:
                raise DataError(f"{path}: truth key {kb!r} not found in source records")
            a, b = native_a[ka], native_b[kb]
            if a == b:
                raise DataError(f"{path}: self-pair in ground truth ({ka!r}, {kb!r})")
            pairs.append((a, b))
    return GroundTruth.from_pairs(pairs)


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
    source_of: Mapping[int, str],
    records_by_id: Mapping[int, Record] | RecordTable,
    cross_source_only: bool,
    verifier: linker.PostVerifier | None = None,
    k_cap: int = DEFAULT_K_CAP,
    scope: str = "cross_source",
) -> GridSearchResult:
    """Exhaustively evaluate every (a, b, rho, tau) grid cell.

    The raw key table (``indexer.build_raw_postings``) is shared by
    all cells, and so are its key ranks; each (a, b, rho) triple prunes
    and scores it once and then sweeps tau, since combination and
    verification do not depend on tau.
    Cells appear in nested loop order (a, b, rho, tau) and results are
    deterministic. ``ids`` (ascending) are the records scored and
    ``canonical_ids`` their canonical ids; the canonical records, the
    table's ``ids``, are clustered. A cell's labels reach the scored
    records through one gather at the canonical positions, found once.
    """
    for name, values in (("a", a_values), ("b", b_values),
                         ("rho", rho_values), ("tau", tau_values)):
        if not values:
            raise ConfigError(f"grid for {name!r} is empty")
    canon_pos = np.searchsorted(raw_postings.ids, canonical_ids)
    source = np.array([source_of[i] for i in np.asarray(ids).tolist()])

    def sweep(triple: tuple[float, float, float]) -> list[GridCell]:
        a, b, rho = triple
        t0 = time.perf_counter()
        model = ProbabilityModel(a=a, b=b, k_cap=k_cap)
        index = index_from_postings(raw_postings, model, rho)
        groups = linker.group_pairs(index, cross_source_only=cross_source_only,
                                    source_of=source_of)
        pairs = linker.verify_pairs(linker.combine_pairs(groups), verifier, records_by_id)
        shared = (time.perf_counter() - t0) / len(tau_values)
        cells: list[GridCell] = []
        for tau in tau_values:
            t1 = time.perf_counter()
            links = linker.threshold_pairs(pairs, tau)
            labels = cc.connected_components(linker.edges(links), raw_postings.ids)
            metrics = evaluate(ids, labels[canon_pos], truth, source=source, scope=scope)
            cells.append(GridCell(
                params=GridParams(a=a, b=b, rho=rho, tau=tau),
                metrics=metrics,
                links=len(links),
                seconds=shared + (time.perf_counter() - t1),
            ))
        return cells

    cells = [cell for triple in itertools.product(a_values, b_values, rho_values)
             for cell in sweep(triple)]
    return GridSearchResult(best=max(cells, key=_rank), cells=cells)


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
