import re
import textwrap
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
import yaml

from siglink.config import (
    GridSpec,
    LinkSettings,
    SourceSpec,
    SynthSpec,
    TruthSpec,
    load_config,
)
from siglink.errors import ConfigError
from siglink.sigprob import ProbabilityModel
from siglink.templates import (
    EXTRACTOR_KINDS,
    ConsecutiveWords,
    FullAttribute,
    RandomWords,
    SignatureTemplate,
)

from conftest import Record, product_keys


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").rglob("*.yaml"))
README = Path(__file__).parent.parent / "README.md"


def write_config(tmp_path, body: str):
    p = tmp_path / "config.yaml"
    p.write_text(textwrap.dedent(body))
    return p


FULL = """
schema: [title, authors]
inputs:
  a: {path: dblp.csv, id_column: id}
  b: {path: acm.csv, id_column: id, columns: {title: Title}}
templates:
  - id: 1
    parts:
      - {kind: consecutive_words, attr: title, n: 3}
  - id: 2
    parts:
      - {kind: consecutive_words, attr: title, n: 2}
      - {kind: random_words, attr: authors, k: 2}
model: {a: 4.0, b: 0.02}
link: {rho: 0.3, tau: 0.7, cross_source_only: true, verifier: "jaccard:0.2"}
truth: {path: truth.csv, column_a: idDBLP, column_b: idACM}
grids:
  a: [2, 4]
  b: [0.01, 0.1]
  rho: [0.3]
  tau: [0.5, 0.7]
output_dir: out
"""


# A config section with one unknown key, and that key's path.
UNKNOWN_KEYS = [
    ("link: {rho: 0.3, tau: 0.7, verifer: 'jaccard:0.9'}", "link.verifer"),
    ("link: {rho: 0.3, tau: 0.7, skip_elimination: true}", "link.skip_elimination"),
    ("extract: {combinaton_cap: 2}", "extract.combinaton_cap"),
    ("extract: {warn_signature_tokens: 4}", "extract.warn_signature_tokens"),
    # The extraction and recurrence caps are fixed, so setting one is an error.
    ("extract: {combination_cap: 8}", "extract.combination_cap"),
    ("extract: {random_words_attr_limit: 6}", "extract.random_words_attr_limit"),
    ("model: {a: 4.0, b: 0.1, kcap: 5}", "model.kcap"),
    ("model: {a: 4.0, b: 0.02, k_cap: 50}", "model.k_cap"),
    ("truth: {path: t.csv, colum_a: x}", "truth.colum_a"),
    ("grids: {a: [2], b: [0.1], rho: [0.3], tau: [0.5], c: [1]}", "grids.c"),
    ("synth: {n_entities: 5, records_per_entity: 2, corruption_rate: 0.1, seed: 1, n: 3}",
     "synth.n"),
    ("inputs: {single: {path: x.csv, id_colum: id}}", "inputs.single.id_colum"),
    ("templates: [{id: 1, parts: [{kind: full_attribute, attr: title}], weight: 2}]",
     "templates[0].weight"),
    ("templates: [{id: 1, parts: [{kind: random_words, attr: title, k: 2, n: 3}]}]",
     "templates[0].parts[0].n"),
    ("threads: 4", "threads"),
]


class TestLoadConfig:
    def test_full_config_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FULL))
        assert cfg.schema == ["title", "authors"]
        assert cfg.two_sources
        assert cfg.inputs["b"].columns == {"title": "Title"}
        assert cfg.inputs["a"].path == tmp_path / "dblp.csv"
        assert len(cfg.templates) == 2
        assert cfg.templates[0].parts == (ConsecutiveWords("title", 3),)
        assert cfg.templates[1].parts[1] == RandomWords("authors", 2)
        assert cfg.model.a == 4.0
        assert cfg.link.verifier == "jaccard:0.2"
        assert cfg.truth.column_a == "idDBLP"
        assert cfg.grids.size == 8
        assert cfg.output_dir == tmp_path / "out"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(write_config(tmp_path, "schema: [unclosed"))

    def test_schema_required(self, tmp_path):
        with pytest.raises(ConfigError, match="schema"):
            load_config(write_config(tmp_path, "templates: []"))

    def test_unknown_template_attribute(self, tmp_path):
        body = """
        schema: [title]
        templates:
          - id: 1
            parts: [{kind: consecutive_words, attr: venue, n: 2}]
        """
        with pytest.raises(ConfigError, match="venue"):
            load_config(write_config(tmp_path, body))

    def test_unknown_extractor_kind(self, tmp_path):
        body = """
        schema: [title]
        templates:
          - id: 1
            parts: [{kind: sliding_window, attr: title, n: 2}]
        """
        with pytest.raises(ConfigError, match="sliding_window"):
            load_config(write_config(tmp_path, body))

    def test_bad_input_tags(self, tmp_path):
        body = """
        schema: [title]
        inputs:
          left: {path: x.csv}
        """
        with pytest.raises(ConfigError, match="single"):
            load_config(write_config(tmp_path, body))

    def test_cross_source_needs_two_sources(self, tmp_path):
        body = """
        schema: [title]
        inputs:
          single: {path: x.csv}
        link: {rho: 0.3, tau: 0.7, cross_source_only: true}
        """
        with pytest.raises(ConfigError, match="cross_source_only"):
            load_config(write_config(tmp_path, body))

    def test_cross_source_defaults_by_input_count(self, tmp_path):
        two = """
        schema: [title]
        inputs:
          a: {path: x.csv}
          b: {path: y.csv}
        link: {rho: 0.3, tau: 0.7}
        """
        cfg = load_config(write_config(tmp_path, two))
        assert cfg.link.cross_source_only

    def test_bad_thresholds(self, tmp_path):
        for rho, tau, message in ((1.5, 0.5, "link.rho must be in (0, 1), got 1.5"),
                                  (0.5, 0.0, "link.tau must be in (0, 1), got 0.0")):
            body = f"""
            schema: [title]
            link: {{rho: {rho}, tau: {tau}}}
            """
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_config(write_config(tmp_path, body))
            # Built in library code, the settings are checked the same way.
            with pytest.raises(ConfigError, match=re.escape(message)):
                LinkSettings(rho=rho, tau=tau)

    def test_bad_model(self, tmp_path):
        body = """
        schema: [title]
        model: {a: 0.9, b: 0.2}
        """
        with pytest.raises(ConfigError, match="model.a"):
            load_config(write_config(tmp_path, body))

    def test_unknown_verifier(self, tmp_path):
        body = """
        schema: [title]
        link: {rho: 0.3, tau: 0.7, verifier: "cosine:0.5"}
        """
        with pytest.raises(ConfigError, match="cosine"):
            load_config(write_config(tmp_path, body))

    def test_empty_grid_list(self, tmp_path):
        body = """
        schema: [title]
        grids: {a: [2], b: [0.1], rho: [], tau: [0.5]}
        """
        with pytest.raises(ConfigError, match="grids.rho"):
            load_config(write_config(tmp_path, body))

    def test_synth_section(self, tmp_path):
        body = """
        schema: [name, address, phone]
        synth: {n_entities: 100, records_per_entity: 3, corruption_rate: 0.2, seed: 42}
        """
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.synth.n_entities == 100
        assert cfg.synth.corruption_rate == 0.2

    def test_duplicate_schema_attribute(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_config(tmp_path, "schema: [title, title]"))

    def test_key_separators_do_not_leak_into_next_config(self, tmp_path):
        with pytest.raises(ConfigError, match="'key_encoding'"):
            load_config(write_config(tmp_path, """
            schema: [title]
            key_encoding: {part_separator: "|", token_separator: "+"}
            """))
        tpl = SignatureTemplate(3, (FullAttribute("t"),))
        rec = Record(0, {"t": ("a", "b")})
        assert product_keys(tpl, rec) == {"3◦a·b"}
        assert SHIPPED_CONFIGS
        for path in [write_config(tmp_path, FULL), *SHIPPED_CONFIGS]:
            load_config(path)
            assert product_keys(tpl, rec) == {"3◦a·b"}

    @pytest.mark.parametrize("section, path", UNKNOWN_KEYS,
                             ids=[path for _, path in UNKNOWN_KEYS])
    def test_unknown_key_rejected(self, tmp_path, section, path):
        body = "schema: [title]\n" + section + "\n"
        # There is no ``extract`` section: any key in it is named by the section.
        named = "extract" if path.startswith("extract.") else path
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\) {re.escape(named)} "):
            load_config(write_config(tmp_path, body))

    def test_every_known_key_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
        schema: [title, year, phone]
        inputs:
          a: {path: a.csv, id_column: id, encoding: latin-1, columns: {title: Title}}
          b: {path: b.csv}
        source_b_id_base: 500
        templates:
          - id: 1
            parts:
              - {kind: consecutive_words, attr: title, n: 2}
              - {kind: random_words, attr: title, k: 2}
              - {kind: full_attribute, attr: year}
              - {kind: last_digits, attr: phone, d: 4}
        model: {a: 4.0, b: 0.02}
        link: {rho: 0.3, tau: 0.7, cross_source_only: false, verifier: none}
        truth: {path: t.csv, column_a: x, column_b: y, encoding: latin-1}
        grids: {a: [2], b: [0.1], rho: [0.3], tau: [0.5]}
        synth: {n_entities: 5, records_per_entity: 2, corruption_rate: 0.1, seed: 1}
        output_dir: out
        """))
        assert cfg.source_b_id_base == 500
        assert cfg.model.b == 0.02
        assert cfg.truth.encoding == "latin-1"
        assert [len(t.parts) for t in cfg.templates] == [4]

    @pytest.mark.parametrize("grids, message", [
        ("{a: [2, 1.0], b: [0.1], rho: [0.3], tau: [0.5]}",
         r"grids cell \(a=1.0, b=0.1\): model.a must be > 1"),
        ("{a: [2], b: [0.1, 0], rho: [0.3], tau: [0.5]}",
         r"grids cell \(a=2.0, b=0.0\): model.b must be > 0"),
        ("{a: [2], b: [0.1], rho: [0.3, 1.0], tau: [0.5]}",
         r"grids.rho must be in \(0, 1\), got 1.0"),
        ("{a: [2], b: [0.1], rho: [0.3], tau: [0.0]}",
         r"grids.tau must be in \(0, 1\), got 0.0"),
    ])
    def test_bad_grid_value(self, tmp_path, grids, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, f"schema: [title]\ngrids: {grids}\n"))
        # Built in library code, the grid is checked the same way.
        with pytest.raises(ConfigError, match=message):
            GridSpec(**{k: [float(v) for v in vs] for k, vs in yaml.safe_load(grids).items()})

    @pytest.mark.parametrize("settings, key", [
        (LinkSettings(rho=0.3, tau=0.7), "tau"),
        (GridSpec(a=[2.0], b=[0.1], rho=[0.3], tau=[0.5]), "tau"),
        (SynthSpec(n_entities=5, records_per_entity=2, corruption_rate=0.1, seed=1),
         "n_entities"),
    ], ids=["link", "grids", "synth"])
    def test_checked_settings_are_frozen(self, settings, key):
        # A value set after the check would skip it.
        with pytest.raises(FrozenInstanceError):
            setattr(settings, key, 1.5)

    def test_grid_values_are_held_as_tuples(self):
        # A list item changed after the check would skip it too.
        spec = GridSpec(a=[2.0], b=[0.1], rho=[0.3], tau=[0.5])
        assert spec.tau == (0.5,)
        with pytest.raises(TypeError):
            spec.tau[0] = 1.5

    def test_size_below_one_names_part(self, tmp_path):
        body = """
        schema: [title]
        templates:
          - id: 1
            parts: [{kind: consecutive_words, attr: title, n: 2}]
          - id: 2
            parts: [{kind: full_attribute, attr: title},
                    {kind: consecutive_words, attr: title, n: 0}]
        """
        with pytest.raises(ConfigError, match=re.escape(
                "templates[1].parts[1]: ConsecutiveWords on 'title': n must be >= 1, got 0")):
            load_config(write_config(tmp_path, body))

    def test_template_without_parts_names_it(self, tmp_path):
        body = """
        schema: [title]
        templates:
          - id: 1
            parts: [{kind: full_attribute, attr: title}]
          - id: 7
            parts: []
        """
        with pytest.raises(ConfigError, match=re.escape("templates[1]: template 7 has no parts")):
            load_config(write_config(tmp_path, body))

    def test_readme_reference_lists_every_key(self, tmp_path):
        text = README.read_text(encoding="utf-8").split("## Config reference", 1)[1]
        ref = yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])
        # The top-level keys, as load_config names them for an unknown one.
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, "schema: [title]\nzz: 1\n"))
        known = re.search(r"known here: (.*)\)$", str(exc.value)).group(1).split(", ")
        assert set(ref) == set(known)

        def names(cls):
            return {f.name for f in fields(cls)}

        assert {k for spec in ref["inputs"].values() for k in spec} == names(SourceSpec)
        for key, cls in [("model", ProbabilityModel),
                         ("link", LinkSettings), ("truth", TruthSpec), ("grids", GridSpec),
                         ("synth", SynthSpec)]:
            assert set(ref[key]) == names(cls), key
        parts = [part for template in ref["templates"] for part in template["parts"]]
        assert {part["kind"] for part in parts} == set(EXTRACTOR_KINDS)
        for part in parts:
            assert set(part) == names(EXTRACTOR_KINDS[part["kind"]]) | {"kind"}, part

    # A value of the wrong type or out of range, and text naming its key.
    # None of these may be coerced: "false" is truthy.
    @pytest.mark.parametrize("section, message", [
        ("inputs: {a: {path: a.csv}, b: {path: b.csv}}\n"
         "link: {rho: 0.3, tau: 0.7, cross_source_only: 'false'}",
         "link: key 'cross_source_only' must be bool, got 'false'"),
        ("link: {rho: 0.3, tau: 0.7, verifier: 3}", "link: key 'verifier' must be str, got 3"),
        ("inputs: {single: {path: x.csv, columns: {title: 7}}}",
         "inputs.single.columns: key 'title' must be str, got 7"),
        ("grids: {a: [2], b: [true], rho: [0.3], tau: [0.5]}",
         "grids.b must contain numbers, got True"),
        ("grids: {a: [2], b: [0.1], rho: ['0.3'], tau: [0.5]}",
         "grids.rho must contain numbers, got '0.3'"),
        ("inputs: {single: {path: x.csv, encoding: nosuchcodec}}",
         "inputs.single.encoding: unknown text encoding 'nosuchcodec'"),
        ("truth: {path: t.csv, encoding: rot13}", "truth.encoding: unknown text encoding 'rot13'"),
        ("output_dir:", "key 'output_dir' must be str, got None"),
        ("output_dir: 7", "key 'output_dir' must be str, got 7"),
        ("source_b_id_base: true", "key 'source_b_id_base' must be int, got True"),
        ("synth: {n_entities: 0, records_per_entity: 2, corruption_rate: 0.1, seed: 1}",
         "synth.n_entities must be >= 1, got 0"),
        ("synth: {n_entities: 5, records_per_entity: -1, corruption_rate: 0.1, seed: 1}",
         "synth.records_per_entity must be >= 1, got -1"),
        ("synth: {n_entities: 5, records_per_entity: 2, corruption_rate: 2.0, seed: 1}",
         "synth.corruption_rate must be in [0, 1], got 2.0"),
    ], ids=["cross_source_only", "verifier", "columns", "grid_bool", "grid_string",
            "input_encoding", "truth_encoding",
            "output_dir_null", "output_dir_number", "source_b_id_base_bool",
            "synth_entities", "synth_records_per_entity", "synth_corruption_rate"])
    def test_bad_value_rejected(self, tmp_path, section, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, "schema: [title]\n" + section + "\n"))
