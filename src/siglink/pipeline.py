"""End-to-end orchestration: resolve, tune, synth, index-dump.

Every subcommand writes its files through one ``_staged`` output step,
so a failed run leaves the previous outputs untouched. Stages run
sequentially (load -> dedup -> index -> link -> components -> emit);
each is timed and sized for the run report, which mirrors the
intermediate-output table used when benchmarking the full pipeline:
records, distinct records, candidate signatures, pairwise links,
verified links, connected components, and the emit of ``clusters.csv``
and ``links.csv``, which ``Overall`` covers. Each size is read off the
stage's table. Records are columns from load on: every source's raw
columns become one ``records.RecordTable`` of attribute-class ids in
one interning step (``records.intern``), and that table is deduplicated
once, on each row's source code and classes, into the one table
extraction and the verifier read. ``run_resolve`` releases its
attributes after the index unless a verifier reads them, and the key
table and index, their sizes read for the report, once the pairs are
grouped. Inside the run a record is its row in that table: links and
component labels are rows, and each loaded record's alias is the
canonical row that stands for it, so one gather labels every loaded
record. Ids are read at load and written only at the emit
(``_write_csv``), as ``canonical.ids[rows]``.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import cc, linker, templates
from .config import PipelineConfig
from .errors import ConfigError, SiglinkError
from .evaluation import GridSearchResult, grid_search, load_truth, write_results_csv
from .indexer import InvertedIndex, KeyTable, build_raw_postings, dump_index, index_from_postings
from .records import LoadResult, RecordTable, deduplicate, intern, load_csv_with_keys
from .synth import generate_dataset, write_dataset
from .templates import ExtractionStats

log = logging.getLogger(__name__)


@dataclass
class StageRow:
    name: str
    size: int
    seconds: float


@dataclass
class RunReport:
    rows: list[StageRow] = field(default_factory=list)
    overall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # shown under Overall

    def add(self, name: str, size: int, seconds: float) -> None:
        self.rows.append(StageRow(name, size, seconds))

    def to_text(self) -> str:
        width = max(map(len, [r.name for r in self.rows] + list(self.counts))) + 2
        lines = [f"{'Stage':<{width}}{'Size':>15} {'Time':>12}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}{r.size:>15,} {r.seconds:>10.2f} s")
        lines.append(f"{'Overall':<{width}}{'':>15} {self.overall_seconds:>10.2f} s")
        lines += [f"{name:<{width}}{size:>15,}" for name, size in self.counts.items()]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "stages": [
                {"name": r.name, "size": r.size, "seconds": round(r.seconds, 4)}
                for r in self.rows
            ],
            "overall_seconds": round(self.overall_seconds, 4),
            **self.extra,
        }


@dataclass
class PreparedData:
    canonical: RecordTable | None  # the canonical rows of every source; run_resolve releases it
    ids: np.ndarray               # every loaded id, ascending
    canonical_rows: np.ndarray    # the canonical row that stands for each of ``ids``
    source: np.ndarray            # the source code of each of ``ids``: its tag's rank
    canonical_source: np.ndarray  # the source code of each canonical row
    native_maps: dict[str, dict[str, int]]  # tag -> native key -> row of ids; empty unless asked
    load_seconds: float
    dedup_seconds: float


def _require(config: PipelineConfig, command: str, **sections) -> None:
    missing = [name for name, value in sections.items() if not value]
    if missing:
        raise ConfigError(f"'{command}' requires config section(s): {', '.join(missing)}")


def prepare(config: PipelineConfig, *, native_maps: bool = False) -> PreparedData:
    """Load all configured sources as one table and deduplicate it.

    Two-dataset runs get disjoint id ranges (source a from 0, source b
    from ``source_b_id_base``), so the sources' rows, in tag order,
    ascend as one table. Each source is read on its own, then one step
    tokenizes every source's values together (``records.intern``). The
    table is deduplicated once, on each row's source code and classes,
    so cross-source exact duplicates stay distinct records for linkage.
    A source code is the rank of the source's tag: one per id, and one
    per canonical row. With ``native_maps``, each source's native key ->
    row map is kept too, for reading ground truth as rows of ``ids``: a
    key's row in its source, offset by the rows of the sources before it.
    """
    t0 = time.perf_counter()
    loaded: dict[str, LoadResult] = {}
    for tag in sorted(config.inputs):
        spec = config.inputs[tag]
        base = config.source_b_id_base if tag == "b" else 0
        result = load_csv_with_keys(
            spec.path, config.schema,
            id_base=base, column_map=spec.columns,
            key_column=spec.id_column, encoding=spec.encoding,
        )
        n = len(result.ids)
        if tag == "a" and n > config.source_b_id_base:  # before source b is read
            raise ConfigError(
                f"source a has {n} rows, which collides with "
                f"source_b_id_base={config.source_b_id_base}; raise the base"
            )
        loaded[tag] = result
    sizes = [len(result.ids) for result in loaded.values()]
    table = intern(list(loaded.values()))
    load_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    source = np.repeat(np.arange(len(sizes), dtype=np.int8), sizes)
    # One source's codes are all 0: only two sources' rows group on them.
    dedup = deduplicate(table, source if config.two_sources else None)
    del table
    canonical_source = np.empty(len(dedup.canonical), dtype=np.int8)
    canonical_source[dedup.canonical_rows] = source
    dedup_seconds = time.perf_counter() - t1
    offsets = np.cumsum([0] + sizes).tolist()
    return PreparedData(
        canonical=dedup.canonical,
        ids=dedup.ids,
        canonical_rows=dedup.canonical_rows,
        source=source,
        canonical_source=canonical_source,
        native_maps={tag: dict(zip(result.keys, itertools.count(offset)))
                     for (tag, result), offset in zip(loaded.items(), offsets)}
        if native_maps else {},
        load_seconds=load_seconds,
        dedup_seconds=dedup_seconds,
    )


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name attached."""
    try:
        yield
    except SiglinkError as exc:
        exc.args = (f"[stage {name}] {exc}",)
        raise


@contextmanager
def _staged(out: Path):
    """Yield a fresh staging directory inside ``out`` to write outputs to.

    When the block succeeds, each staged file is renamed into ``out``
    (replacing an earlier run's file of that name); if it fails, nothing
    in ``out`` changes. The staging directory is removed either way.
    """
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(staging)


def _raw_postings(config: PipelineConfig, data: PreparedData
                  ) -> tuple[KeyTable, ExtractionStats]:
    """The raw ``KeyTable`` of the canonical rows, and its extraction
    counters. A WARNING names the record-template pairs that yield no
    key because of the combination cap."""
    extraction = ExtractionStats()
    with _stage("index"):
        raw = build_raw_postings(data.canonical, config.templates, extraction)
    if extraction.cap_skipped:
        log.warning("%d record-template pairs yield no key: their parts' distinct value "
                    "counts multiply past the combination cap of %d "
                    "(templates.COMBINATION_CAP)",
                    extraction.cap_skipped, templates.COMBINATION_CAP)
    return raw, extraction


def _build_index(config: PipelineConfig, data: PreparedData
                 ) -> tuple[KeyTable, InvertedIndex, ExtractionStats]:
    """The index stage: the raw ``KeyTable``, its pruned index and the
    extraction counters."""
    raw, extraction = _raw_postings(config, data)
    with _stage("index"):
        return raw, index_from_postings(raw, config.model, config.link.rho), extraction


# Rows formatted per write in ``_write_csv``: bounds the emit's memory.
_EMIT_ROWS = 1 << 16


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``values``, as an object column: one
    ``repr`` per distinct value, gathered."""
    distinct, at = np.unique(values, return_inverse=True)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return text[at]


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``header`` and one comma-separated line per row of
    ``columns`` (each value as ``str`` gives it), in chunks of
    ``_EMIT_ROWS`` rows, each formatted by one ``%``."""
    width = len(columns)
    line = ",".join(["%s"] * width) + "\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _EMIT_ROWS):
            chunk = [column[start:start + _EMIT_ROWS].tolist() for column in columns]
            cells: list = [None] * (width * len(chunk[0]))
            for c, values in enumerate(chunk):
                cells[c::width] = values
            fh.write(line * len(chunk[0]) % tuple(cells))


@dataclass
class ResolveResult:
    clusters_path: Path
    links_path: Path
    report_path: Path
    report: RunReport
    ids: np.ndarray     # every loaded id, ascending
    labels: np.ndarray  # the entity id of each of ``ids``, as clusters.csv has it
    links: np.recarray  # the verified links, as ``linker.finalize`` returns them: rows


def run_resolve(config: PipelineConfig, out_dir: Path | None = None,
                threads: int = 1) -> ResolveResult:
    """Run the full pipeline and emit clusters.csv, links.csv, and the
    run report. Identical config and inputs produce identical bytes.

    ``threads`` is unused; the benchmark's ``child.py`` passes it."""
    _require(config, "resolve", inputs=config.inputs, templates=config.templates,
             model=config.model, link=config.link)
    out = Path(out_dir) if out_dir is not None else config.output_dir
    t_start = time.perf_counter()
    report = RunReport()

    with _stage("load"):
        data = prepare(config)
    report.add("Records", len(data.ids), data.load_seconds)
    report.add("Distinct records", len(data.canonical), data.dedup_seconds)

    t0 = time.perf_counter()
    raw, index, extraction = _build_index(config, data)
    # Exact: each record adds each of its distinct keys once.
    report.add("Candidate signatures", raw.instances, time.perf_counter() - t0)
    histogram = raw.histogram()
    index_sizes = {
        "entries_kept": index.keys_kept,
        "total_keys_seen": raw.keys_seen,
        "keys_pruned_by_rho": raw.keys_seen - index.keys_kept,
        "max_posting_len": max(len(histogram) - 1, 0),
        "posting_length_histogram": histogram,
        "k_max": index.k_max,
        "cap_skipped_record_templates": extraction.cap_skipped,
        "long_attr_random_skips": extraction.long_attr_random_skips,
    }

    with _stage("link"):
        # Past the index only a verifier reads the records' attributes.
        verifier = linker.make_verifier(config.link.verifier)
        ids, records = data.canonical.ids, (data.canonical if verifier else None)
        data.canonical = None
        t0 = time.perf_counter()
        source = data.canonical_source if config.link.cross_source_only else None
        groups = linker.group_pairs(index, source=source)
        del raw, index  # the key table: past the grouped pairs no stage reads it
        pairs = linker.threshold_pairs(linker.combine_pairs(groups), config.link.tau)
        link_sizes = {"evidence_rows": groups.evidence_rows, "pairs": len(groups)}
        del groups  # frees the evidence rows before components: lower peak RSS
        pair_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        checked = linker.verify_pairs(pairs, verifier, records)
        links = checked[checked.verified]
        verify_seconds = time.perf_counter() - t0
    report.add("Pairwise links", len(pairs), pair_seconds)
    report.add("Verified links", len(links), verify_seconds)

    with _stage("components"):
        t0 = time.perf_counter()
        cc_stats: dict = {}
        row_labels = cc.connected_components(linker.edges(links), len(ids), stats=cc_stats)
        n_components = int(np.count_nonzero(row_labels == np.arange(len(row_labels))))
        labels = row_labels[data.canonical_rows]
        cc_seconds = time.perf_counter() - t0
    report.add("Connected components", n_components, cc_seconds)

    report.extra = {"index": index_sizes, "link": link_sizes, "components": cc_stats}
    report.counts["Capped record-templates"] = extraction.cap_skipped

    with _staged(out) as stage:
        t0 = time.perf_counter()
        entity = ids[labels]
        _write_csv(stage / "clusters.csv", ["record_id", "entity_id"], [data.ids, entity])
        _write_csv(stage / "links.csv", ["id_a", "id_b", "probability", "evidence_count"],
                   [ids[links.r_i], ids[links.r_j], _reprs(links.probability),
                    links.evidence_count])
        t_end = time.perf_counter()
        report.add("Emit", len(data.ids) + len(links), t_end - t0)
        report.overall_seconds = t_end - t_start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
        peak /= 1024 ** (2 if sys.platform == "darwin" else 1)
        report.extra["peak_rss_mb"] = round(peak, 1)
        with (stage / "report.json").open("w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        (stage / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    return ResolveResult(
        clusters_path=out / "clusters.csv",
        links_path=out / "links.csv",
        report_path=out / "report.json",
        report=report,
        ids=data.ids,
        labels=entity,
        links=links,
    )


@dataclass
class TuneResult:
    results_path: Path
    best_params_path: Path
    search: GridSearchResult


def run_tune(config: PipelineConfig, out_dir: Path | None = None,
             threads: int = 1) -> TuneResult:
    """Grid-search (a, b, rho, tau) against ground truth and write the
    full results table plus the best parameter set.

    ``threads`` is unused; the benchmark's ``child.py`` passes it."""
    _require(config, "tune", inputs=config.inputs, templates=config.templates,
             truth=config.truth, grids=config.grids)
    if any(spec.id_column is None for spec in config.inputs.values()):
        raise ConfigError("'tune' needs id_column set on every input so truth keys resolve")
    out = Path(out_dir) if out_dir is not None else config.output_dir
    with _stage("load"):
        data = prepare(config, native_maps=True)
        if config.two_sources:
            native_a, native_b = data.native_maps["a"], data.native_maps["b"]
        else:
            native_a = native_b = data.native_maps["single"]
        truth = load_truth(
            config.truth.path, native_a, native_b,
            column_a=config.truth.column_a, column_b=config.truth.column_b,
            encoding=config.truth.encoding,
        )
    raw, _ = _raw_postings(config, data)
    link = config.link
    with _stage("search"):
        cross_source_only = link.cross_source_only if link else config.two_sources
        search = grid_search(
            raw,
            config.grids.a, config.grids.b, config.grids.rho, config.grids.tau,
            truth=truth,
            canonical_rows=data.canonical_rows,
            source=data.source if config.two_sources else None,
            pair_source=data.canonical_source if cross_source_only else None,
            records=data.canonical,
            verifier=linker.make_verifier(link.verifier) if link else None,
        )
    log.info("tune: %d cells from %d (a, b, rho) triples, %d distinct probability columns"
             " and %d distinct link sets", len(search.cells), search.triples,
             search.columns, search.link_sets)
    with _staged(out) as stage:
        with (stage / "tune_results.csv").open("w", newline="", encoding="utf-8") as fh:
            write_results_csv(search, fh)
        best = search.best
        (stage / "best_params.yaml").write_text(
            yaml.safe_dump({
                "model": {"a": best.params.a, "b": best.params.b},
                "link": {"rho": best.params.rho, "tau": best.params.tau},
                "f_measure": round(best.metrics.f_measure, 6),
                "precision": round(best.metrics.precision, 6),
                "recall": round(best.metrics.recall, 6),
            }, sort_keys=False),
            encoding="utf-8",
        )
    return TuneResult(results_path=out / "tune_results.csv",
                      best_params_path=out / "best_params.yaml", search=search)


def run_synth(config: PipelineConfig, out_dir: Path | None = None) -> tuple[Path, Path]:
    """Generate the configured synthetic dataset and its ground truth."""
    _require(config, "synth", synth=config.synth)
    out = Path(out_dir) if out_dir is not None else config.output_dir
    s = config.synth
    rows, truth = generate_dataset(
        s.n_entities, s.records_per_entity, s.corruption_rate, s.seed
    )
    with _staged(out) as stage:
        write_dataset(rows, truth, stage / "records.csv", stage / "truth.csv")
    return out / "records.csv", out / "truth.csv"


def run_index_dump(config: PipelineConfig, out_dir: Path | None = None) -> Path:
    """Build the inverted index and write its diagnostic dump."""
    _require(config, "index-dump", inputs=config.inputs, templates=config.templates,
             model=config.model, link=config.link)
    out = Path(out_dir) if out_dir is not None else config.output_dir
    with _stage("load"):
        data = prepare(config)
    raw, index, _ = _build_index(config, data)
    with _staged(out) as stage:
        with (stage / "index.tsv").open("w", encoding="utf-8") as fh:
            n = dump_index(index, fh)
    log.info("wrote %d index entries (k_max=%d, pruned %d of %d keys; not listed: %d found "
             "in one record)",
             n, index.k_max, raw.keys_seen - index.keys_kept, raw.keys_seen, raw.unstored)
    return out / "index.tsv"
