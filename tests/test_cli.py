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
    return write_two_sources(tmp_path, 2**31)


def missing_input(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    (tmp_path / "records.csv").unlink()
    return cfg


def b_ids_overflow(tmp_path, monkeypatch):
    return write_two_sources(tmp_path, 2**31 - 1)


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

    # One row per failure class: how to break the run, the exit code,
    # and text the error message must contain.
    @pytest.mark.parametrize("make_config, code, message", [
        pytest.param(bad_value, 2, "config error: link.rho", id="bad_value"),
        pytest.param(missing_config, 2, "config file not found", id="missing_config"),
        pytest.param(key_encoding_section, 2, "config error: 'key_encoding'",
                     id="key_encoding"),
        pytest.param(misspelt_key, 2, "config error: unknown config key(s) link.verifer",
                     id="unknown_key"),
        pytest.param(bare_jaccard_verifier, 2,
                     "config error: verifier 'jaccard' needs a threshold",
                     id="bare_jaccard_verifier"),
        pytest.param(misspelt_column_attribute, 2,
                     "config error: unknown config key(s) inputs.single.columns.nmae",
                     id="unknown_column_attribute"),
        pytest.param(b_id_base_past_max, 2, "config error: source_b_id_base",
                     id="b_id_base_past_max"),
        pytest.param(unknown_encoding, 2,
                     "config error: inputs.single.encoding: unknown text encoding 'nosuchcodec'",
                     id="unknown_encoding"),
        pytest.param(missing_input, 3, "data error: [stage load] input file not found",
                     id="missing_input"),
        pytest.param(b_ids_overflow, 3, "b.csv: 2 rows from id 2147483647",
                     id="b_ids_overflow"),
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
