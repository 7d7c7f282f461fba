"""End-to-end orchestration: resolve, tune, synth, index-dump.

Every subcommand has the same skeleton: its computing stages run inside
one ``_batch_allocation_mode`` scope, and its files are written through
one ``_staged`` output step, so a failed run leaves the previous outputs
untouched. Stages run sequentially (load -> dedup -> index -> link ->
components -> emit); each is timed and sized for the run report, which
mirrors the intermediate-output table used when benchmarking the full
pipeline: records, distinct records, candidate signatures, pairwise
links, verified links, connected components. Each size is read off the
stage's table.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import cc, linker
from .config import PipelineConfig
from .errors import ConfigError, DataError, SiglinkError
from .evaluation import GridSearchResult, grid_search, load_truth, write_results_csv
from .indexer import build_raw_postings, dump_index, index_from_postings
from .records import Record, deduplicate, load_csv_with_keys
from .sigprob import DEFAULT_K_CAP
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

    def add(self, name: str, size: int, seconds: float) -> None:
        self.rows.append(StageRow(name, size, seconds))

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows) + 2
        lines = [f"{'Stage':<{width}}{'Size':>15} {'Time':>12}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}{r.size:>15,} {r.seconds:>10.2f} s")
        lines.append(f"{'Overall':<{width}}{'':>15} {self.overall_seconds:>10.2f} s")
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
    raw_count: int
    canonical_records: list[Record]
    records_by_id: dict[int, Record]
    alias_map: dict[int, int]
    source_of: dict[int, str]
    original_ids: list[int]
    native_maps: dict[str, dict[str, int]]
    load_seconds: float
    dedup_seconds: float


def _require(config: PipelineConfig, command: str, **sections) -> None:
    missing = [name for name, value in sections.items() if not value]
    if missing:
        raise ConfigError(f"'{command}' requires config section(s): {', '.join(missing)}")


def prepare(config: PipelineConfig) -> PreparedData:
    """Load and deduplicate all configured sources.

    Two-dataset runs get disjoint id ranges (source a from 0, source b
    from ``source_b_id_base``) and are deduplicated per source, so
    cross-source exact duplicates stay distinct records for linkage.
    """
    t0 = time.perf_counter()
    loaded: dict[str, list[Record]] = {}
    native_maps: dict[str, dict[str, int]] = {}
    for tag in sorted(config.inputs):
        spec = config.inputs[tag]
        base = config.source_b_id_base if tag == "b" else 0
        result = load_csv_with_keys(
            spec.path, config.schema, tag,
            id_base=base, column_map=spec.columns,
            key_column=spec.id_column, encoding=spec.encoding,
        )
        if result.records and result.records[-1].id > cc.MAX_NODE_ID:
            raise DataError(
                f"{spec.path}: {len(result.records)} rows from id {base} would assign "
                f"ids up to {result.records[-1].id}, above the largest record id "
                f"{cc.MAX_NODE_ID}; lower source_b_id_base"
            )
        loaded[tag] = result.records
        native_maps[tag] = result.native_ids
    if "a" in loaded and len(loaded["a"]) >= config.source_b_id_base:
        raise ConfigError(
            f"source a has {len(loaded['a'])} rows, which collides with "
            f"source_b_id_base={config.source_b_id_base}; raise the base"
        )
    load_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    canonical: list[Record] = []
    alias: dict[int, int] = {}
    source_of: dict[int, str] = {}
    for tag in sorted(loaded):
        dedup = deduplicate(loaded[tag])
        canonical.extend(dedup.canonical)
        alias.update(dedup.alias_map)
        for rec in loaded[tag]:
            source_of[rec.id] = tag
    dedup_seconds = time.perf_counter() - t1
    return PreparedData(
        raw_count=sum(len(v) for v in loaded.values()),
        canonical_records=canonical,
        records_by_id={r.id: r for r in canonical},
        alias_map=alias,
        source_of=source_of,
        original_ids=sorted(alias),
        native_maps=native_maps,
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
def _batch_allocation_mode():
    """Suspend cyclic GC while building the big intermediate tables.

    The build stages allocate millions of long-lived records, postings,
    and evidence rows; generational collection rescans them over and
    over without freeing anything. Restored on exit, including errors.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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


def _build_index(config: PipelineConfig, data: PreparedData,
                 extraction: ExtractionStats | None = None):
    """The index stage: raw key -> postings map, and its pruned index."""
    with _stage("index"):
        raw = build_raw_postings(data.canonical_records, config.templates,
                                 config.extract_options, extraction)
        return raw, index_from_postings(raw, config.model, config.link.rho)


@dataclass
class ResolveResult:
    clusters_path: Path
    links_path: Path
    report_path: Path
    report: RunReport
    labelling: dict[int, int]
    links: list[linker.Link]


def run_resolve(config: PipelineConfig, out_dir: Path | None = None,
                threads: int = 1) -> ResolveResult:
    """Run the full pipeline and emit clusters.csv, links.csv, and the
    run report. Identical config and inputs produce identical bytes.

    ``threads`` is unused; it is accepted so existing callers that pass
    it keep working."""
    _require(config, "resolve", inputs=config.inputs, templates=config.templates,
             model=config.model, link=config.link)
    out = Path(out_dir) if out_dir is not None else config.output_dir
    t_start = time.perf_counter()
    report = RunReport()

    with _batch_allocation_mode():
        with _stage("load"):
            data = prepare(config)
        report.add("Records", data.raw_count, data.load_seconds)
        report.add("Distinct records", len(data.canonical_records), data.dedup_seconds)

        t0 = time.perf_counter()
        extraction = ExtractionStats()
        raw, index = _build_index(config, data, extraction)
        # Exact: each record adds each of its distinct keys once.
        candidate_instances = sum(map(len, raw.values()))
        index_seconds = time.perf_counter() - t0
        report.add("Candidate signatures", candidate_instances, index_seconds)

        with _stage("link"):
            t0 = time.perf_counter()
            groups = linker.group_pairs(
                index,
                cross_source_only=config.link.cross_source_only,
                source_of=data.source_of,
            )
            pairs = linker.threshold_pairs(linker.combine_pairs(groups), config.link.tau)
            del groups  # frees the evidence rows before components: lower peak RSS
            pair_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            verifier = linker.make_verifier(config.link.verifier)
            checked = linker.verify_pairs(pairs, verifier, data.records_by_id)
            links = [link for link in checked if link.verified]
            verify_seconds = time.perf_counter() - t0
        report.add("Pairwise links", len(pairs), pair_seconds)
        report.add("Verified links", len(links), verify_seconds)

        with _stage("components"):
            t0 = time.perf_counter()
            cc_stats: dict = {}
            labels = cc.connected_components(
                [(l.r_i, l.r_j) for l in links],
                nodes=data.records_by_id,
                stats=cc_stats,
            )
            labelling = {orig: labels[data.alias_map[orig]] for orig in data.original_ids}
            n_components = len(set(labels.values()))
            cc_seconds = time.perf_counter() - t0
        report.add("Connected components", n_components, cc_seconds)

    report.overall_seconds = time.perf_counter() - t_start
    report.extra = {
        "index": {
            "entries_kept": len(index.entries),
            "total_keys_seen": len(raw),
            "keys_pruned_by_rho": len(raw) - len(index.entries),
            "max_posting_len": max(map(len, raw.values()), default=0),
            "k_max": index.k_max,
            "cap_skipped_record_templates": extraction.cap_skipped,
            "long_attr_random_skips": extraction.long_attr_random_skips,
        },
        "components": cc_stats,
    }

    with _staged(out) as stage:
        with (stage / "clusters.csv").open("w", newline="", encoding="utf-8") as fh:
            fh.write("record_id,entity_id\n")
            for orig in data.original_ids:
                fh.write(f"{orig},{labelling[orig]}\n")
        with (stage / "links.csv").open("w", newline="", encoding="utf-8") as fh:
            fh.write("id_a,id_b,probability,evidence_count\n")
            for l in links:
                fh.write(f"{l.r_i},{l.r_j},{l.probability!r},{l.evidence_count}\n")
        with (stage / "report.json").open("w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        (stage / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    return ResolveResult(
        clusters_path=out / "clusters.csv",
        links_path=out / "links.csv",
        report_path=out / "report.json",
        report=report,
        labelling=labelling,
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

    ``threads`` is unused; it is accepted so existing callers that pass
    it keep working."""
    _require(config, "tune", inputs=config.inputs, templates=config.templates,
             truth=config.truth, grids=config.grids)
    out = Path(out_dir) if out_dir is not None else config.output_dir
    with _batch_allocation_mode():
        with _stage("load"):
            data = prepare(config)
            if config.two_sources:
                native_a, native_b = data.native_maps["a"], data.native_maps["b"]
                scope = "cross_source"
            else:
                native_a = native_b = data.native_maps["single"]
                scope = "all"
            if not native_a or not native_b:
                raise ConfigError("'tune' needs id_column set on every input so truth keys resolve")
            truth = load_truth(
                config.truth.path, native_a, native_b,
                column_a=config.truth.column_a, column_b=config.truth.column_b,
                encoding=config.truth.encoding,
            )
        with _stage("index"):
            raw = build_raw_postings(data.canonical_records, config.templates,
                                     config.extract_options)
        link = config.link
        with _stage("search"):
            search = grid_search(
                raw,
                config.grids.a, config.grids.b, config.grids.rho, config.grids.tau,
                truth=truth,
                alias_map=data.alias_map,
                source_of=data.source_of,
                records_by_id=data.records_by_id,
                cross_source_only=link.cross_source_only if link else config.two_sources,
                verifier=linker.make_verifier(link.verifier) if link else None,
                k_cap=config.model.k_cap if config.model else DEFAULT_K_CAP,
                scope=scope,
            )
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
    with _batch_allocation_mode():
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
    with _batch_allocation_mode():
        with _stage("load"):
            data = prepare(config)
        raw, index = _build_index(config, data)
    with _staged(out) as stage:
        with (stage / "index.tsv").open("w", encoding="utf-8") as fh:
            n = dump_index(index, fh)
    log.info("wrote %d index entries (k_max=%d, pruned %d of %d keys)",
             n, index.k_max, len(raw) - len(index.entries), len(raw))
    return out / "index.tsv"
