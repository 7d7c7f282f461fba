import itertools
import json
import textwrap

import pytest

from siglink import pipeline
from siglink.config import load_config
from siglink.errors import ConfigError
from siglink.evaluation import evaluate, load_truth
from siglink.pipeline import prepare, run_index_dump, run_resolve, run_synth, run_tune
from siglink.synth import write_dataset

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
            "Pairwise links", "Verified links", "Connected components",
        ]
        sizes = {r.name: r.size for r in result.report.rows}
        assert sizes["Records"] == 6
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

    def test_partition_covers_every_original_exactly_once(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        result = run_resolve(config, tmp_path / "out")
        lines = result.clusters_path.read_text().splitlines()[1:]
        ids = [int(line.split(",")[0]) for line in lines]
        assert ids == sorted(set(ids)) == list(range(6))


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
        data = prepare(config)
        truth = load_truth(tmp_path / "truth.csv",
                           data.native_maps["single"], data.native_maps["single"])
        metrics = evaluate(result.ids, result.labels, truth, scope="all")
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
        data = prepare(config2)
        truth = load_truth(tmp_path / "truth.csv",
                           data.native_maps["single"], data.native_maps["single"])
        metrics = evaluate(result.ids, result.labels, truth, scope="all")
        assert metrics == best.metrics

    def test_results_table_written(self, tmp_path):
        cfg_path = synth_config(tmp_path, n_entities=30, grids=True)
        tune = run_tune(load_config(cfg_path), tmp_path / "out")
        lines = tune.results_path.read_text().splitlines()
        assert lines[0].startswith("a,b,rho,tau,links,tp,fp,fn,precision,recall")
        assert len(lines) == 9  # header + 8 cells

    def test_missing_truth_is_config_error(self, tmp_path):
        cfg_path = write_toy(tmp_path)
        config = load_config(cfg_path)
        with pytest.raises(ConfigError, match="truth"):
            run_tune(config, tmp_path / "out")


class TestIndexDump:
    def test_dump_format(self, tmp_path):
        config = load_config(write_toy(tmp_path))
        dump = run_index_dump(config, tmp_path / "out")
        lines = dump.read_text().splitlines()
        assert len(lines) == 3  # three distinct phone keys
        keys = [l.split("\t")[0] for l in lines]
        assert keys == sorted(keys)
        for line in lines:
            key, p, ids = line.split("\t")
            assert 0.0 < float(p) < 1.0
            assert all(tok.isdigit() for tok in ids.split(","))


class TestTraceLink:
    """A link is traced from ``index.tsv``: its evidence is the dump's
    lines whose postings hold both ids, taken in file order, which is
    the encoded-key order ``linker.combine_pairs`` multiplies in."""

    def test_links_recomputed_from_index_dump(self, tmp_path):
        config = load_config(synth_config(tmp_path, n_entities=200))
        assert config.link.verifier == "none" and not config.link.cross_source_only
        links_path = run_resolve(config, tmp_path / "out").links_path
        dump = run_index_dump(config, tmp_path / "dump")
        complement: dict[tuple[int, int], float] = {}
        lines: dict[tuple[int, int], int] = {}
        for line in dump.read_text(encoding="utf-8").splitlines():
            _, p, ids = line.split("\t")
            for pair in itertools.combinations(map(int, ids.split(",")), 2):
                complement[pair] = complement.get(pair, 1.0) * (1.0 - float(p))
                lines[pair] = lines.get(pair, 0) + 1
        rows = [line.split(",") for line in links_path.read_text().splitlines()[1:]]
        assert max(int(row[3]) for row in rows) >= 2  # some link has several factors
        for id_a, id_b, probability, evidence_count in rows:
            pair = (int(id_a), int(id_b))
            assert repr(1.0 - complement[pair]) == probability
            assert lines[pair] == int(evidence_count)
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
        data = prepare(load_config(cfg))
        assert len(data.ids) == 3
        # a deduped within source; b's identical row survives separately
        assert data.canonical.ids.tolist() == [0, 1000]
        assert data.ids.tolist() == [0, 1, 1000]
        assert data.canonical_ids.tolist() == [0, 0, 1000]
        assert data.source.tolist() == [0, 0, 1]  # tag ranks: a, a, b
        assert data.native_maps["a"] == {"x1": 0, "x2": 1}

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
