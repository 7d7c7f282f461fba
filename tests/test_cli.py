import subprocess
import sys

import pytest

from siglink.cli import main

from test_pipeline import TOY_ROWS, synth_config, write_toy


TWO_SOURCES_CONFIG = """\
schema: [name]
inputs:
  a: {path: a.csv}
  b: {path: b.csv}
source_b_id_base: %d
templates:
  - id: 1
    parts: [{kind: full_attribute, attr: name}]
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: 0.3}
"""


def write_two_sources(tmp_path, b_id_base):
    (tmp_path / "a.csv").write_text("name\nalpha one\nbeta two\n")
    (tmp_path / "b.csv").write_text("name\nalpha one\ngamma three\n")
    cfg = tmp_path / "config.yaml"
    cfg.write_text(TWO_SOURCES_CONFIG % b_id_base)
    return cfg


def bad_value(tmp_path, monkeypatch):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("schema: [name]\nlink: {rho: 2.0, tau: 0.5}\n")
    return cfg


def missing_config(tmp_path, monkeypatch):
    return tmp_path / "nope.yaml"


def key_encoding_section(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text() + "key_encoding: {part_separator: '|'}\n")
    return cfg


def misspelt_key(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text().replace("tau: 0.3", "tau: 0.3, verifer: 'jaccard:0.9'"))
    return cfg


def extract_caps_set(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text() + "extract: {combination_cap: 64}\n")
    return cfg


def k_cap_set(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text().replace("b: 0.25}", "b: 0.25, k_cap: 10000}"))
    return cfg


def bare_jaccard_verifier(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text().replace("tau: 0.3", "tau: 0.3, verifier: jaccard"))
    return cfg


def misspelt_column_attribute(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "id_column: rec_id}", "id_column: rec_id, columns: {nmae: name}}"))
    return cfg


def b_id_base_past_max(tmp_path, monkeypatch):
    return write_two_sources(tmp_path, 2**62 + 1)


def b_id_base_collides_and_b_missing(tmp_path, monkeypatch):
    cfg = write_two_sources(tmp_path, 1)  # a.csv has 2 rows: ids 0 and 1
    (tmp_path / "b.csv").unlink()
    return cfg


def missing_input(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    (tmp_path / "records.csv").unlink()
    return cfg


def latin1_records(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    (tmp_path / "records.csv").write_bytes(
        TOY_ROWS.encode().replace(b"mary jones", b"mar\xeda jones"))
    return cfg


def long_field(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    (tmp_path / "records.csv").write_text(TOY_ROWS.replace("bob solo", "x" * 200_000))
    return cfg


def repeated_record_column(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    header, *rows = TOY_ROWS.splitlines()
    (tmp_path / "records.csv").write_text(
        "\n".join([header + ",name", *(row + ",zz" for row in rows)]) + "\n")
    return cfg


def unknown_encoding(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text().replace("id_column: rec_id}",
                                           "id_column: rec_id, encoding: nosuchcodec}"))
    return cfg


def tune_config(tmp_path, truth: bytes):
    cfg = write_toy(tmp_path)
    cfg.write_text(cfg.read_text() + "truth: {path: truth.csv}\n"
                   "grids: {a: [2.0], b: [0.25], rho: [0.2], tau: [0.3]}\n")
    (tmp_path / "truth.csv").write_bytes(truth)
    return cfg


def latin1_truth(tmp_path, monkeypatch):
    return tune_config(tmp_path, b"id_a,id_b\nt0,t1\nt3,t\xe94\n")


def header_only_records(tmp_path, monkeypatch):
    cfg = tune_config(tmp_path, b"id_a,id_b\nt0,t1\n")
    (tmp_path / "records.csv").write_text("rec_id,name,phone\n")
    return cfg


def tune_without_id_column(tmp_path, monkeypatch):
    cfg = tune_config(tmp_path, b"id_a,id_b\nt0,t1\n")
    cfg.write_text(cfg.read_text().replace(", id_column: rec_id", ""))
    return cfg


def repeated_truth_column(tmp_path, monkeypatch):
    return tune_config(tmp_path, b"id_a,id_b,id_a\nt0,t1,t2\n")


def internal_invariant(tmp_path, monkeypatch):
    from siglink import cli
    from siglink.errors import InternalInvariantError

    def boom(config, out):
        raise InternalInvariantError("synthetic breakage")

    monkeypatch.setattr(cli, "run_resolve", boom)
    return write_toy(tmp_path)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_toy(tmp_path)
        code = main(["resolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters:" in out and "Connected components" in out

    def test_success_with_b_ids_past_31_bits(self, tmp_path):
        cfg = write_two_sources(tmp_path, 2**31 - 1)  # b.csv has 2 rows
        assert main(["resolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        ids = [line.split(",")[0]
               for line in (tmp_path / "out" / "clusters.csv").read_text().splitlines()[1:]]
        assert ids == ["0", "1", "2147483647", "2147483648"]

    def test_success_with_a_filling_every_id_below_the_base(self, tmp_path):
        cfg = write_two_sources(tmp_path, 2)  # a.csv has 2 rows: ids 0 and 1
        assert main(["resolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        ids = [line.split(",")[0]
               for line in (tmp_path / "out" / "clusters.csv").read_text().splitlines()[1:]]
        assert ids == ["0", "1", "2", "3"]

    # One row per failure class: how to break the run, the exit code,
    # and text the error message must contain.
    @pytest.mark.parametrize("make_config, code, message", [
        pytest.param(bad_value, 2, "config error: link.rho", id="bad_value"),
        pytest.param(missing_config, 2, "config file not found", id="missing_config"),
        pytest.param(key_encoding_section, 2, "config error: 'key_encoding'",
                     id="key_encoding"),
        pytest.param(misspelt_key, 2, "config error: unknown config key(s) link.verifer",
                     id="unknown_key"),
        pytest.param(extract_caps_set, 2, "config error: unknown config key(s) extract ",
                     id="fixed_extract_caps"),
        pytest.param(k_cap_set, 2, "config error: unknown config key(s) model.k_cap ",
                     id="fixed_k_cap"),
        pytest.param(bare_jaccard_verifier, 2,
                     "config error: verifier 'jaccard' needs a threshold",
                     id="bare_jaccard_verifier"),
        pytest.param(misspelt_column_attribute, 2,
                     "config error: unknown config key(s) inputs.single.columns.nmae",
                     id="unknown_column_attribute"),
        pytest.param(b_id_base_past_max, 2, "config error: source_b_id_base",
                     id="b_id_base_past_max"),
        pytest.param(b_id_base_collides_and_b_missing, 2,
                     "source a has 2 rows, which collides with source_b_id_base=1",
                     id="b_id_base_collision_before_b_is_read"),
        pytest.param(unknown_encoding, 2,
                     "config error: inputs.single.encoding: unknown text encoding 'nosuchcodec'",
                     id="unknown_encoding"),
        pytest.param(missing_input, 3, "data error: [stage load] input file not found",
                     id="missing_input"),
        pytest.param(latin1_records, 3, "records.csv: line 5: bytes not valid utf-8-sig",
                     id="undecodable_records"),
        pytest.param(long_field, 3, "records.csv: line 7: field larger than field limit",
                     id="long_field"),
        pytest.param(repeated_record_column, 3,
                     "records.csv: line 1: column 'name' appears 2 times in the header",
                     id="repeated_record_column"),
        pytest.param(internal_invariant, 4, "internal invariant violated",
                     id="internal_invariant"),
    ])
    def test_exit_code(self, tmp_path, monkeypatch, capsys, make_config, code, message):
        cfg = make_config(tmp_path, monkeypatch)
        assert main(["resolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("make_config, code, message", [
        pytest.param(latin1_truth, 3, "truth.csv: line 3: bytes not valid utf-8-sig",
                     id="undecodable_truth"),
        pytest.param(header_only_records, 3,
                     "truth.csv: line 2: truth key 't0' not found in source records",
                     id="truth_against_empty_records"),
        pytest.param(repeated_truth_column, 3,
                     "truth.csv: line 1: column 'id_a' appears 2 times in the header",
                     id="repeated_truth_column"),
        pytest.param(tune_without_id_column, 2,
                     "config error: 'tune' needs id_column set on every input",
                     id="tune_without_id_column"),
    ])
    def test_tune_exit_code(self, tmp_path, monkeypatch, capsys, make_config, code, message):
        cfg = make_config(tmp_path, monkeypatch)
        assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err

    def test_bad_grid_value_fails_before_data_is_read(self, tmp_path, capsys):
        cfg = write_toy(tmp_path)
        cfg.write_text(cfg.read_text() + "truth: {path: truth.csv}\n"
                       "grids: {a: [1.0, 2.0], b: [0.1], rho: [0.2], tau: [0.3]}\n")
        (tmp_path / "records.csv").unlink()
        assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: grids cell (a=1.0, b=0.1): model.a must be > 1" \
            in capsys.readouterr().err

    def test_data_error_names_stage(self, tmp_path, capsys):
        cfg = write_toy(tmp_path)
        (tmp_path / "records.csv").write_text("rec_id,name\nbroken header\n")
        code = main(["resolve", "--config", str(cfg)])
        assert code == 3
        assert "[stage load]" in capsys.readouterr().err


class TestSubcommands:
    def test_synth_then_resolve_then_tune(self, tmp_path, capsys):
        cfg = synth_config(tmp_path, n_entities=30, grids=True)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "records.csv").exists()
        assert (tmp_path / "s" / "truth.csv").exists()
        assert main(["resolve", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "clusters.csv").exists()
        assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        assert (tmp_path / "t" / "tune_results.csv").exists()
        assert (tmp_path / "t" / "best_params.yaml").exists()
        out = capsys.readouterr().out
        assert "best:" in out

    def test_index_dump(self, tmp_path):
        cfg = write_toy(tmp_path)
        assert main(["index-dump", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "index.tsv").exists()

    def test_module_invocation(self, tmp_path):
        cfg = write_toy(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "siglink.cli", "resolve",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "clusters.csv").exists()


KEYED_TWO_SOURCES_CONFIG = """\
schema: [name, phone]
inputs:
  a: {path: a.csv, id_column: key}
  b: {path: b.csv, id_column: key}
source_b_id_base: %d
templates:
  - id: 1
    parts: [{kind: random_words, attr: name, k: 2}]
  - id: 2
    parts: [{kind: last_digits, attr: phone, d: 4}]
model: {a: 2.0, b: 0.25}
link: {rho: 0.2, tau: 0.3, verifier: 'jaccard:0.3'}
truth: {path: truth.csv}
grids: {a: [2.0, 4.0], b: [0.1, 0.25], rho: [0.2, 0.5], tau: [0.3, 0.6]}
"""


def write_keyed_two_sources(work, b_id_base):
    """Two keyed sources (b repeats one of its rows and one of a's), their
    truth and a grid, at ``b_id_base``."""
    work.mkdir()
    (work / "a.csv").write_text("key,name,phone\na1,alice wong,0411 222 333\n"
                                "a2,bob marley,0499 888 777\na3,carol king,0400 000 001\n"
                                "a4,dan brown,0422 555 444\n")
    (work / "b.csv").write_text("key,name,phone\nb1,wong alice,0411 222 333\n"
                                "b2,bob marley,0499 888 777\nb3,carol kings,0400 000 009\n"
                                "b4,bob marley,0499 888 777\nb5,erin brown,0433 555 444\n")
    (work / "truth.csv").write_text("id_a,id_b\na1,b1\na2,b2\na2,b4\na3,b3\n")
    cfg = work / "config.yaml"
    cfg.write_text(KEYED_TWO_SOURCES_CONFIG % b_id_base)
    return cfg


class TestLargeIdBase:
    """Record ids are int64 and written only at the emit: a source b base
    past 31 bits changes nothing but the ids written."""

    @pytest.mark.parametrize("base", [2**31 - 1, 2**40], ids=["2^31-1", "2^40"])
    def test_resolve_and_tune_match_a_small_base(self, tmp_path, base):
        runs = {}
        for b_base in (1000, base):
            cfg = write_keyed_two_sources(tmp_path / str(b_base), b_base)
            out = tmp_path / str(b_base) / "out"
            assert main(["resolve", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
            clusters = [tuple(map(int, line.split(",")))
                        for line in (out / "clusters.csv").read_text().splitlines()[1:]]
            results = [line.rsplit(",", 1)[0]  # without wall_time_s
                       for line in (out / "tune_results.csv").read_text().splitlines()]
            runs[b_base] = clusters, results
        (small, small_results), (large, large_results) = runs[1000], runs[base]
        assert [rid for rid, _ in large] == [0, 1, 2, 3] + [base + i for i in range(5)]

        def shifted(rid):
            return rid if rid < 1000 else rid - 1000 + base

        assert large == [(shifted(rid), shifted(entity)) for rid, entity in small]
        assert len({entity for _, entity in large}) < len(large)  # some records linked
        assert large_results == small_results
        assert any(line.split(",")[5] != "0" for line in large_results[1:])  # some tp
