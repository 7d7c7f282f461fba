"""Pairwise-match evaluation and parameter grid search.

Predicted matches are derived from the final cluster labelling, not
from raw links: two records match iff they share a cluster label (and,
for two-dataset problems, come from different sources). Precision,
recall and F-measure are computed against a ground-truth pair set.

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
from typing import IO, Mapping, Sequence

from . import cc, linker
from .errors import ConfigError, DataError
from .indexer import index_from_postings
from .records import Record
from .sigprob import DEFAULT_K_CAP, ProbabilityModel

Labelling = Mapping[int, int]


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
    """Matched pairs as internal original ids, each stored (min, max)."""

    pairs: frozenset[tuple[int, int]]


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
    pairs: set[tuple[int, int]] = set()
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
            pairs.add((min(a, b), max(a, b)))
    return GroundTruth(pairs=frozenset(pairs))


def _pairs_in_cluster(members: Sequence[int], source_of: Mapping[int, str] | None,
                      cross_source: bool) -> int:
    n = len(members)
    total = n * (n - 1) // 2
    if not cross_source:
        return total
    counts: dict[str, int] = {}
    for m in members:
        counts[source_of[m]] = counts.get(source_of[m], 0) + 1
    same = sum(c * (c - 1) // 2 for c in counts.values())
    return total - same


def evaluate(
    labelling: Labelling,
    truth: GroundTruth,
    *,
    source_of: Mapping[int, str] | None = None,
    scope: str = "cross_source",
) -> Metrics:
    """Score a cluster labelling (over original ids) against truth.

    Predicted pairs are all record pairs sharing a cluster label; with
    ``scope="cross_source"`` only pairs from different sources count,
    on both the predicted and the truth side. Pair counts are computed
    per cluster, so the predicted set is never materialized.
    """
    if scope not in ("cross_source", "all"):
        raise ConfigError(f"unknown evaluation scope {scope!r}")
    cross = scope == "cross_source"
    if cross and source_of is None:
        raise ConfigError("cross_source evaluation requires a source mapping")
    clusters: dict[int, list[int]] = {}
    for rec, lab in labelling.items():
        clusters.setdefault(lab, []).append(rec)
    predicted = sum(
        _pairs_in_cluster(members, source_of, cross) for members in clusters.values()
    )
    tp = 0
    for (x, y) in truth.pairs:
        if x not in labelling:
            raise DataError(f"truth pair references unknown record id {x}")
        if y not in labelling:
            raise DataError(f"truth pair references unknown record id {y}")
        if cross and source_of[x] == source_of[y]:
            continue  # unpredictable under this scope; stays a false negative
        if labelling[x] == labelling[y]:
            tp += 1
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


def _better(cell: GridCell, incumbent: GridCell) -> bool:
    # Ties break toward higher precision, then lower tau; remaining
    # ties keep the earlier cell in grid order.
    lhs = (cell.metrics.f_measure, cell.metrics.precision, -cell.params.tau)
    rhs = (incumbent.metrics.f_measure, incumbent.metrics.precision, -incumbent.params.tau)
    return lhs > rhs


def grid_search(
    raw_postings: dict[str, tuple[int, ...]],
    a_values: Sequence[float],
    b_values: Sequence[float],
    rho_values: Sequence[float],
    tau_values: Sequence[float],
    *,
    truth: GroundTruth,
    alias_map: Mapping[int, int],
    source_of: Mapping[int, str],
    records_by_id: Mapping[int, Record],
    cross_source_only: bool,
    verifier: linker.PostVerifier | None = None,
    k_cap: int = DEFAULT_K_CAP,
    scope: str = "cross_source",
) -> GridSearchResult:
    """Exhaustively evaluate every (a, b, rho, tau) grid cell.

    The raw key -> postings map is shared by all cells; each (a, b,
    rho) triple prunes and scores it once and then sweeps tau, since
    combination and verification do not depend on tau.
    Cells appear in nested loop order (a, b, rho, tau) and results are
    deterministic. ``alias_map`` (original id -> canonical id) gives the
    records scored, and the keys of ``records_by_id`` the canonical
    records clustered.
    """
    for name, values in (("a", a_values), ("b", b_values),
                         ("rho", rho_values), ("tau", tau_values)):
        if not values:
            raise ConfigError(f"grid for {name!r} is empty")

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
            labels = cc.connected_components(
                [(l.r_i, l.r_j) for l in links], nodes=records_by_id
            )
            expanded = {orig: labels[canon] for orig, canon in alias_map.items()}
            metrics = evaluate(expanded, truth, source_of=source_of, scope=scope)
            cells.append(GridCell(
                params=GridParams(a=a, b=b, rho=rho, tau=tau),
                metrics=metrics,
                links=len(links),
                seconds=shared + (time.perf_counter() - t1),
            ))
        return cells

    cells = [cell for triple in itertools.product(a_values, b_values, rho_values)
             for cell in sweep(triple)]
    best = cells[0]
    for cell in cells[1:]:
        if _better(cell, best):
            best = cell
    return GridSearchResult(best=best, cells=cells)


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
