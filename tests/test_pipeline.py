import csv
import io
import itertools
import json
import logging
import math
import textwrap
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siglink import pipeline, records, templates
from siglink.cc import oracle_components
from siglink.config import load_config
from siglink.errors import ConfigError
from siglink.evaluation import evaluate, load_truth
from siglink.linker import make_verifier
from siglink.pipeline import prepare, run_index_dump, run_resolve, run_synth, run_tune
from siglink.records import LoadResult, RecordTable
from siglink.synth import write_dataset
from siglink.templates import ExtractionStats

from conftest import (
    Caps,
    brute_force_links,
    extract,
    reference_dedup,
    reference_load,
    relabel,
)

# Hand-resolved toy: two fuzzy-duplicate groups sharing phones, one loner.
# With FullAttribute(phone), a=2, b=0.25: phone keys recur k=3, 2, 1 with
# p = 1/3, 1/2, 2/3; rho=0.2 keeps all (k_max=3, since p(4) = 0.2 exactly
# fails the strict filter) and tau=0.3 links both groups.
TOY_ROWS = """\
rec_id,name,phone
t0,john smith,0412345678
t1,jon smith,0412345678
t2,john smyth,0412345678
t3,mary jones,0499887766
t4,mary jonez,0499887766
t5,bob solo,0400000000
"""

TOY_CONFIG = """\
schema: [name, phone]
inputs:
  single: {path: records.csv, id_column: rec_id}
templates:
  - id: 1
    parts: [{kind: full_attribute, attr: phone}]
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: %(tau)s}
output_dir: out
"""


def write_toy(tmp_path, tau="0.3"):
    (tmp_path / "records.csv").write_text(TOY_ROWS)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(TOY_CONFIG % {"tau": tau})
    return cfg


def synth_config(tmp_path, n_entities=40, corruption=0.2, tau=0.5, grids=False):
    body = f"""
    schema: [name, address, phone]
    inputs:
      single: {{path: records.csv, id_column: rec_id}}
    templates:
      - id: 1
        parts:
          - {{kind: random_words, attr: name, k: 2}}
          - {{kind: consecutive_words, attr: address, n: 2}}
      - id: 2
        parts:
          - {{kind: random_words, attr: name, k: 2}}
          - {{kind: last_digits, attr: phone, d: 6}}
    model: {{a: 4.0, b: 0.005}}
    link: {{rho: 0.3, tau: {tau}}}
    truth: {{path: truth.csv}}
    synth: {{n_entities: {n_entities}, records_per_entity: 3, corruption_rate: {corruption}, seed: 42}}
    output_dir: out
    """
    if grids:
        body += """
    grids:
      a: [3.0, 4.0]
      b: [0.005, 0.05]
      rho: [0.3]
      tau: [0.4, 0.6]
    """
    cfg = tmp_path / "config.yaml"
    cfg.write_text(textwrap.dedent(body))
    config = load_config(cfg)
    run_synth(config, tmp_path)  # writes records.csv + truth.csv next to config
    return cfg


class TestResolveToy:
    def test_two_multi_record_clusters(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        result = run_resolve(config, tmp_path / "out")
        clusters: dict[int, list[int]] = {}
        for rec, lab in zip(result.ids.tolist(), result.labels.tolist()):
            clusters.setdefault(lab, []).append(rec)
        sizes = sorted(len(v) for v in clusters.values())
        assert sizes == [1, 2, 3]
        assert sorted(clusters[0]) == [0, 1, 2]
        assert sorted(clusters[3]) == [3, 4]
        assert clusters[5] == [5]
        assert len(result.links) == 4  # 3 pairs in the triangle + 1 pair

    def test_artifacts_written(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        result = run_resolve(config, tmp_path / "out")
        clusters_text = result.clusters_path.read_text()
        assert clusters_text.splitlines()[0] == "record_id,entity_id"
        assert len(clusters_text.splitlines()) == 7  # header + 6 records
        links_lines = result.links_path.read_text().splitlines()
        assert links_lines[0] == "id_a,id_b,probability,evidence_count"
        assert len(links_lines) == 5
        report = result.report_path.read_text()
        assert "Pairwise links" in (tmp_path / "out" / "report.txt").read_text()
        assert '"stages"' in report

    def test_high_tau_all_singletons(self, tmp_path):
        config = load_config(write_toy(tmp_path, tau="0.999"))
        result = run_resolve(config, tmp_path / "out")
        assert len(result.links) == 0
        assert result.labels.tolist() == result.ids.tolist()

    def test_report_rows_and_consistency(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        result = run_resolve(config, tmp_path / "out")
        names = [r.name for r in result.report.rows]
        assert names == [
            "Records", "Distinct records", "Candidate signatures",
            "Pairwise links", "Verified links", "Connected components", "Emit",
        ]
        assert sum(r.seconds for r in result.report.rows) <= result.report.overall_seconds
        sizes = {r.name: r.size for r in result.report.rows}
        assert sizes["Records"] == 6
        assert sizes["Emit"] == 6 + len(result.links)
        assert sizes["Distinct records"] == 6
        assert sizes["Pairwise links"] >= sizes["Verified links"] >= 0
        assert sizes["Connected components"] <= sizes["Distinct records"]

    def test_report_index_block_counted_by_hand(self, tmp_path):
        # rho=0.4 keeps keys found in at most k_max=2 records (p(2) = 0.5,
        # p(3) = 1/3), so of the three phone keys, in 3, 2 and 1 records,
        # the first is pruned. Each of the six records has one key. The
        # kept two-record key is the only evidence: one row, one pair.
        cfg = write_toy(tmp_path)
        cfg.write_text(cfg.read_text().replace("rho: 0.2", "rho: 0.4"))
        result = run_resolve(load_config(cfg), tmp_path / "out")
        report = json.loads(result.report_path.read_text())
        assert report["index"] == {
            "entries_kept": 2,
            "total_keys_seen": 3,
            "keys_pruned_by_rho": 1,
            "max_posting_len": 3,
            "posting_length_histogram": [0, 1, 1, 1],
            "k_max": 2,
            "cap_skipped_record_templates": 0,
            "long_attr_random_skips": 0,
        }
        assert report["link"] == {"evidence_rows": 1, "pairs": 1}
        sizes = {r.name: r.size for r in result.report.rows}
        assert sizes["Candidate signatures"] == 6

    def test_report_holds_peak_rss(self, tmp_path):
        result = run_resolve(load_config(write_toy(tmp_path)), tmp_path / "out")
        peak = json.loads(result.report_path.read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0

    def test_partition_covers_every_original_exactly_once(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        result = run_resolve(config, tmp_path / "out")
        lines = result.clusters_path.read_text().splitlines()[1:]
        ids = [int(line.split(",")[0]) for line in lines]
        assert ids == sorted(set(ids)) == list(range(6))


class TestVocabularyOrder:
    """Output bytes do not depend on the order of any attribute's
    vocabulary: every loaded table, relabelled, resolves and dumps the
    same. Only the dump spells keys, so only it sees token order."""

    @pytest.fixture(scope="class")
    def resolved(self, tmp_path_factory):
        """A synth config with a verifier, and the directory of its outputs."""
        tmp = tmp_path_factory.mktemp("vocab")
        cfg = synth_config(tmp, n_entities=30, corruption=0.3)
        cfg.write_text(cfg.read_text().replace("tau: 0.5}", 'tau: 0.5, verifier: "jaccard:0.4"}'))
        config = load_config(cfg)
        run_resolve(config, tmp / "want")
        run_index_dump(config, tmp / "want")
        return config, tmp / "want"

    @settings(max_examples=10)
    @given(st.randoms(use_true_random=False))
    def test_relabelled_load_keeps_output_bytes(self, resolved, tmp_path_factory, rng):
        config, want = resolved
        load = pipeline.load_csv_with_keys

        def relabelled_load(*args, **kwargs):
            result = load(*args, **kwargs)
            columns = {attr: relabel(col, rng.sample(range(len(col.vocab)), len(col.vocab)))
                       for attr, col in result.table.columns.items()}
            return LoadResult(RecordTable(result.table.ids, result.table.classes, columns),
                              result.keys)

        out = tmp_path_factory.mktemp("got")
        with mock.patch.object(pipeline, "load_csv_with_keys", relabelled_load):
            run_resolve(config, out)
            run_index_dump(config, out)
        for name in ("clusters.csv", "links.csv", "index.tsv"):
            assert (out / name).read_bytes() == (want / name).read_bytes()


class TestDeterminism:
    def test_resolve_twice_byte_identical(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=60)
        config = load_config(cfg_path)
        outputs = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            result = run_resolve(config, out)
            outputs.append((
                result.clusters_path.read_bytes(),
                result.links_path.read_bytes(),
            ))
        assert outputs[0] == outputs[1]


class TestResolveSynth:
    def test_zero_corruption_reaches_perfect_f(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=50, corruption=0.0)
        config = load_config(cfg_path)
        result = run_resolve(config, tmp_path / "out")
        data = prepare(config, native_maps=True)
        truth = load_truth(tmp_path / "truth.csv",
                           data.native_maps["single"], data.native_maps["single"])
        metrics = evaluate(result.labels, truth)
        assert metrics.f_measure == 1.0

    def test_dedup_collapses_identical_copies(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=50, corruption=0.0)
        config = load_config(cfg_path)
        result = run_resolve(config, tmp_path / "out")
        sizes = {r.name: r.size for r in result.report.rows}
        assert sizes["Records"] == 150
        assert sizes["Distinct records"] == 50


class TestTune:
    def test_best_params_reproduce_best_metrics(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=40, grids=True)
        config = load_config(cfg_path)
        tune = run_tune(config, tmp_path / "out")
        assert len(tune.search.cells) == 8
        best = tune.search.best
        assert best.metrics.f_measure == max(
            c.metrics.f_measure for c in tune.search.cells
        )
        # re-run resolve at the best cell's parameters
        import yaml
        best_params = yaml.safe_load(tune.best_params_path.read_text())
        raw = yaml.safe_load(cfg_path.read_text())
        raw["model"].update(best_params["model"])
        raw["link"].update(best_params["link"])
        rerun_cfg = tmp_path / "rerun.yaml"
        rerun_cfg.write_text(yaml.safe_dump(raw))
        config2 = load_config(rerun_cfg)
        result = run_resolve(config2, tmp_path / "out2")
        data = prepare(config2, native_maps=True)
        truth = load_truth(tmp_path / "truth.csv",
                           data.native_maps["single"], data.native_maps["single"])
        metrics = evaluate(result.labels, truth)
        assert metrics == best.metrics

    def test_results_table_written(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=30, grids=True)
        tune = run_tune(load_config(cfg_path), tmp_path / "out")
        lines = tune.results_path.read_text().splitlines()
        assert lines[0].startswith("a,b,rho,tau,links,tp,fp,fn,precision,recall")
        assert len(lines) == 9  # header + 8 cells

    def test_logs_the_work_it_did(self, tmp_path, caplog):
        cfg_path = synth_config(tmp_path, n_entities=30, grids=True)
        with caplog.at_level(logging.INFO, logger="siglink.pipeline"):
            search = run_tune(load_config(cfg_path), tmp_path / "out").search
        assert search.triples == 4
        assert 1 <= search.link_sets <= 8 and 1 <= search.columns <= 4
        assert (f"tune: 8 cells from 4 (a, b, rho) triples, {search.columns} distinct "
                f"probability columns and {search.link_sets} distinct link sets"
                ) in caplog.messages

    def test_missing_truth_is_config_error(self, tmp_path):
        cfg_path = write_toy(tmp_path)
        config = load_config(cfg_path)
        with pytest.raises(ConfigError, match="truth"):
            run_tune(config, tmp_path / "out")


class TestIndexDump:
    def test_dump_format(self, tmp_path, caplog):
        config = load_config(write_toy(tmp_path))
        with caplog.at_level(logging.INFO, logger="siglink.pipeline"):
            dump = run_index_dump(config, tmp_path / "out")
        lines = dump.read_text().splitlines()
        # The phone keys in three and in two records; the one in one
        # record is counted, not listed.
        keys = [l.split("\t")[0] for l in lines]
        assert keys == sorted(keys) == ["1◦0412345678", "1◦0499887766"]
        assert caplog.records[-1].getMessage() == (
            "wrote 2 index entries (k_max=3, pruned 0 of 3 keys; not listed: 1 found in one "
            "record)")
        for line in lines:
            key, p, ids = line.split("\t")
            assert 0.0 < float(p) < 1.0
            assert all(tok.isdigit() for tok in ids.split(","))


# Record c0's name and address give 15 two-word combinations each, so
# template 1 would give it 225 keys, past the combination cap of 64: it
# yields none. c1 and c2 share one key.
CAPPED_ROWS = """\
rec_id,name,address
c0,one two three four five six,u v w x y z
c1,one two,u v
c2,one two,u v x
"""

CAPPED_CONFIG = """\
schema: [name, address]
inputs:
  single: {path: records.csv, id_column: rec_id}
templates:
  - id: 1
    parts:
      - {kind: random_words, attr: name, k: 2}
      - {kind: random_words, attr: address, k: 2}
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: 0.3}
truth: {path: truth.csv}
grids: {a: [2.0], b: [0.25], rho: [0.2], tau: [0.3]}
output_dir: out
"""


class TestCombinationCapShown:
    """A record-template pair the combination cap leaves without keys is
    a WARNING in every run that builds the index, and a count under
    ``Overall`` in ``report.txt``."""

    RUNS = {"resolve": run_resolve, "tune": run_tune, "index-dump": run_index_dump}

    @staticmethod
    def write_capped(tmp_path):
        (tmp_path / "records.csv").write_text(CAPPED_ROWS)
        (tmp_path / "truth.csv").write_text("id_a,id_b\nc1,c2\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(CAPPED_CONFIG)
        return load_config(cfg)

    @pytest.mark.parametrize("command", list(RUNS))
    def test_capped_records_warned(self, tmp_path, caplog, command):
        with caplog.at_level(logging.WARNING, logger="siglink.pipeline"):
            self.RUNS[command](self.write_capped(tmp_path), tmp_path / "out")
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [(
            "WARNING", "1 record-template pairs yield no key: their parts' distinct value "
            "counts multiply past the combination cap of 64 (templates.COMBINATION_CAP)")]

    def test_warning_names_the_cap_in_force(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="siglink.pipeline"), \
                mock.patch.object(templates, "COMBINATION_CAP", 100):
            run_index_dump(self.write_capped(tmp_path), tmp_path / "out")
        assert "combination cap of 100" in caplog.text

    @pytest.mark.parametrize("command", list(RUNS))
    def test_nothing_logged_without_capped_records(self, tmp_path, caplog, command):
        config = self.write_capped(tmp_path)
        with caplog.at_level(logging.WARNING, logger="siglink.pipeline"), \
                mock.patch.object(templates, "COMBINATION_CAP", 225):
            self.RUNS[command](config, tmp_path / "out")
        assert not caplog.records

    def test_report_counts_capped_records_under_overall(self, tmp_path):
        run_resolve(self.write_capped(tmp_path), tmp_path / "out")
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert lines[-2].startswith("Overall")
        assert lines[-1].split() == ["Capped", "record-templates", "1"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["index"]["cap_skipped_record_templates"] == 1

    def test_report_counts_zero_when_nothing_capped(self, tmp_path):
        run_resolve(load_config(write_toy(tmp_path)), tmp_path / "out")
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert lines[-1].split() == ["Capped", "record-templates", "0"]


class TestTraceLink:
    """A link is traced from ``index.tsv``: its evidence is the dump's
    lines whose postings hold both ids, multiplied in ascending ``p``
    as ``linker.combine_pairs`` multiplies them."""

    def test_links_recomputed_from_index_dump(self, tmp_path):
        config = load_config(synth_config(tmp_path, n_entities=200))
        assert config.link.verifier == "none" and not config.link.cross_source_only
        links_path = run_resolve(config, tmp_path / "out").links_path
        dump = run_index_dump(config, tmp_path / "dump")
        factors: dict[tuple[int, int], list[float]] = {}
        for line in dump.read_text(encoding="utf-8").splitlines():
            _, p, ids = line.split("\t")
            for pair in itertools.combinations(map(int, ids.split(",")), 2):
                factors.setdefault(pair, []).append(float(p))
        complement = {pair: math.prod(1.0 - p for p in sorted(ps))
                      for pair, ps in factors.items()}
        rows = [line.split(",") for line in links_path.read_text().splitlines()[1:]]
        assert max(int(row[3]) for row in rows) >= 2  # some link has several factors
        for id_a, id_b, probability, evidence_count in rows:
            pair = (int(id_a), int(id_b))
            assert repr(1.0 - complement[pair]) == probability
            assert len(factors[pair]) == int(evidence_count)
        above = {pair for pair, c in complement.items() if 1.0 - c > config.link.tau}
        assert above == {(int(row[0]), int(row[1])) for row in rows}


class TestPrepareTwoSources:
    def test_disjoint_id_ranges_and_per_source_dedup(self, tmp_path):
        (tmp_path / "a.csv").write_text("id,name\nx1,alpha one\nx2,alpha one\n")
        (tmp_path / "b.csv").write_text("id,name\ny1,alpha one\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(textwrap.dedent("""
        schema: [name]
        inputs:
          a: {path: a.csv, id_column: id}
          b: {path: b.csv, id_column: id}
        source_b_id_base: 1000
        templates:
          - id: 1
            parts: [{kind: full_attribute, attr: name}]
        model: {a: 2.0, b: 0.25}
        link: {rho: 0.2, tau: 0.3}
        """))
        data = prepare(load_config(cfg), native_maps=True)
        assert len(data.ids) == 3
        # a deduped within source; b's identical row survives separately
        assert data.canonical.ids.tolist() == [0, 1000]
        assert data.ids.tolist() == [0, 1, 1000]
        assert data.canonical_rows.tolist() == [0, 0, 1]
        assert data.source.tolist() == [0, 0, 1]  # tag ranks: a, a, b
        assert data.canonical_source.tolist() == [0, 1]
        # native keys -> rows of data.ids, b's offset by a's two rows
        assert data.native_maps["a"] == {"x1": 0, "x2": 1}
        assert data.native_maps["b"] == {"y1": 2}
        assert prepare(load_config(cfg)).native_maps == {}  # built only when asked for

    def test_base_collision_rejected(self, tmp_path):
        (tmp_path / "a.csv").write_text("name\n" + "\n".join(f"r{i}" for i in range(5)) + "\n")
        (tmp_path / "b.csv").write_text("name\nz\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(textwrap.dedent("""
        schema: [name]
        inputs:
          a: {path: a.csv}
          b: {path: b.csv}
        source_b_id_base: 3
        """))
        with pytest.raises(ConfigError, match="source_b_id_base"):
            prepare(load_config(cfg))


# Pieces of raw cells: tokens from a small pool, so keys recur, in mixed
# case and unicode, and the CSV specials that need quoting: commas,
# quotes and line ends.
_E2E_PIECES = ["ann", "bob", "Ann", "ΣΑΣ", "é", "12", "34", " ", "\u00a0", ",", '"', "\n",
               "\r\n", "-"]


@st.composite
def _e2e_sources(draw):
    """Rows for one source, or for two (the second may be None), drawn
    from one small pool of cells, so exact duplicates are common within a
    source and values are shared across the two. A True flag adds a blank
    line after the row."""
    pool = draw(st.lists(st.lists(st.sampled_from(_E2E_PIECES), max_size=4).map("".join),
                         min_size=1, max_size=5))
    rows = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.booleans()),
                    max_size=10)
    return draw(rows), draw(st.one_of(st.none(), rows))


# Template candidates: each extractor kind alone, and two parts together.
_E2E_TEMPLATES = [
    [{"kind": "full_attribute", "attr": "name"}],
    [{"kind": "consecutive_words", "attr": "addr", "n": 2}],
    [{"kind": "random_words", "attr": "name", "k": 1}, {"kind": "last_digits", "attr": "addr", "d": 1}],
    [{"kind": "random_words", "attr": "addr", "k": 2}],
    [{"kind": "last_digits", "attr": "name", "d": 2}],
]


@st.composite
def _e2e_configs(draw):
    """A valid config as a mapping, ``inputs`` left out: a subset of the
    template candidates, a verifier or none, rho and tau, and a
    ``cross_source_only`` flag that applies to two sources only."""
    picked = draw(st.lists(st.integers(0, len(_E2E_TEMPLATES) - 1), min_size=1,
                           max_size=len(_E2E_TEMPLATES), unique=True))
    link = {"rho": draw(st.sampled_from([0.1, 0.3])),
            "tau": draw(st.sampled_from([0.1, 0.3, 0.6])),
            "verifier": draw(st.sampled_from(["none", "jaccard:0", "jaccard:0.2",
                                              "jaccard:0.5", "jaccard:1"])),
            "cross_source_only": draw(st.booleans())}
    return {"schema": ["name", "addr"], "source_b_id_base": 1000,
            "templates": [{"id": i + 1, "parts": _E2E_TEMPLATES[i]} for i in sorted(picked)],
            "model": {"a": 2.0, "b": 0.25}, "link": link}


# Every extractor kind, a Jaccard verifier and the cross-source filter.
E2E_CONFIG = {"schema": ["name", "addr"], "source_b_id_base": 1000,
              "templates": [{"id": i + 1, "parts": parts}
                            for i, parts in enumerate(_E2E_TEMPLATES[:3])],
              "model": {"a": 2.0, "b": 0.25},
              "link": {"rho": 0.1, "tau": 0.3, "verifier": "jaccard:0.2",
                       "cross_source_only": True}}


def _write_e2e_csv(path, rows, bom, tag):
    """Header ``rec_id,name,addr``; a True flag adds a blank line after the row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rec_id", "name", "addr"])
    for i, (name, addr, blank) in enumerate(rows):
        writer.writerow([f"{tag}{i}", name, addr])
        if blank:
            out.write("\n")
    path.write_bytes(("\ufeff" if bom else "").encode() + out.getvalue().encode("utf-8"))


class TestEndToEndAgainstOracles:
    """``resolve``'s files against the per-row reference loader and dedup,
    the all-pairs linkage oracle and union-find components, with load
    reading three rows per block. Source b's ids start at 1000 and dedup
    drops rows, so a record's id is not its row."""

    def resolve_and_check(self, tmp, drawn, bom, config, caps=Caps()):
        rows_a, rows_b = drawn
        sources = [("a", rows_a, 0), ("b", rows_b, 1000)] if rows_b is not None \
            else [("single", rows_a, 0)]
        for tag, rows, _ in sources:
            _write_e2e_csv(tmp / f"{tag}.csv", rows, bom, tag)
        config = dict(config, inputs={tag: {"path": f"{tag}.csv", "id_column": "rec_id"}
                                      for tag, _, _ in sources})
        if len(sources) == 1:
            config["link"] = dict(config["link"], cross_source_only=False)
        (tmp / "config.yaml").write_text(json.dumps(config))
        config = load_config(tmp / "config.yaml")
        with mock.patch.object(records, "_BLOCK_ROWS", 3), caps.patched():
            run_resolve(config, tmp / "out")

        alias, canonical, source_of = {}, [], {}
        for tag, _, base in sources:
            loaded, _ = reference_load(tmp / f"{tag}.csv", config.schema, id_base=base)
            alias.update(reference_dedup(loaded))
            canonical += [rec for rec in loaded if alias[rec.id] == rec.id]
            source_of.update((rec.id, tag) for rec in loaded)
        links = brute_force_links(canonical, config.templates, config.model, config.link.rho,
                                  config.link.tau,
                                  cross_source_only=config.link.cross_source_only,
                                  source_of=source_of,
                                  verifier=make_verifier(config.link.verifier), caps=caps)
        labels = oracle_components([link[:2] for link in links], [rec.id for rec in canonical])
        assert (tmp / "out" / "clusters.csv").read_text().splitlines() == \
            ["record_id,entity_id"] + [f"{rid},{labels[alias[rid]]}" for rid in sorted(alias)]
        assert (tmp / "out" / "links.csv").read_text().splitlines() == \
            ["id_a,id_b,probability,evidence_count"] + [
                f"{r_i},{r_j},{probability!r},{count}"
                for r_i, r_j, probability, count, _ in links]
        stats = ExtractionStats()
        for rec, template in itertools.product(canonical, config.templates):
            extract(template, rec, caps, stats)
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert report["index"]["cap_skipped_record_templates"] == stats.cap_skipped
        return stats.cap_skipped

    @settings(max_examples=100)
    @given(_e2e_sources(), st.booleans())
    def test_outputs_match_oracles(self, tmp_path_factory, drawn, bom):
        self.resolve_and_check(tmp_path_factory.mktemp("e2e"), drawn, bom, E2E_CONFIG)

    @settings(max_examples=200)
    @given(_e2e_sources(), _e2e_configs())
    def test_outputs_match_oracles_for_drawn_configs(self, tmp_path_factory, drawn, config):
        self.resolve_and_check(tmp_path_factory.mktemp("e2e"), drawn, False, config)

    # Records whose ``addr`` has three 2-word windows, past a cap of 2.
    _CAPPED = ([("ann bob", "12 34 ann bob", False), ("bob", "12 34 ann bob", False)],
               [("ann", "12 34 ann bob", False)])

    @settings(max_examples=100)
    @example(drawn=_CAPPED, config=E2E_CONFIG)
    @given(drawn=_e2e_sources(), config=_e2e_configs())
    def test_outputs_match_oracles_with_the_combination_cap_low(self, tmp_path_factory,
                                                                drawn, config):
        capped = self.resolve_and_check(tmp_path_factory.mktemp("e2e"), drawn, False, config,
                                        Caps(combination_cap=2))
        if drawn == self._CAPPED:
            assert capped == 3


def _write_partial_then_fail(obj, fh, *args, **kwargs):
    fh.write("partial")
    raise OSError("disk full")


def _write_dataset_then_fail(*args, **kwargs):
    write_dataset(*args, **kwargs)
    raise OSError("disk full")


def _files(out):
    return {p.name: p.read_bytes() if p.is_file() else "directory" for p in out.iterdir()}


# Each subcommand, and a writer to break inside its output step: json.dump
# runs after clusters.csv and links.csv are written, and the other
# writers leave a file behind before they raise.
@pytest.mark.parametrize("run, module, writer, broken", [
    pytest.param(run_resolve, json, "dump", _write_partial_then_fail, id="resolve"),
    pytest.param(run_tune, pipeline, "write_results_csv", _write_partial_then_fail, id="tune"),
    pytest.param(run_index_dump, pipeline, "dump_index", _write_partial_then_fail,
                 id="index-dump"),
    pytest.param(run_synth, pipeline, "write_dataset", _write_dataset_then_fail, id="synth"),
])
def test_failed_write_leaves_previous_outputs(tmp_path, monkeypatch, run, module, writer, broken):
    config = load_config(synth_config(tmp_path, n_entities=20, grids=True))
    out = tmp_path / "out"
    run(config, out)
    before = _files(out)
    assert before and "directory" not in before.values()
    monkeypatch.setattr(module, writer, broken)
    with pytest.raises(OSError, match="disk full"):
        run(config, out)
    assert _files(out) == before
