"""YAML pipeline configuration: parsing and validation.

One config file drives every subcommand; command-line flags only pick
the subcommand, the config path, and the output directory. Relative
paths inside the config resolve against the config file's directory.
See the README for the full key reference.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import yaml

from .cc import MAX_NODE_ID
from .errors import ConfigError
from .linker import make_verifier
from .sigprob import DEFAULT_K_CAP, ProbabilityModel
from .templates import (
    EXTRACTOR_KINDS,
    ConsecutiveWords,
    ExtractOptions,
    LastDigits,
    RandomWords,
    SignatureTemplate,
    validate_config,
)

log = logging.getLogger(__name__)

DEFAULT_B_ID_BASE = 10_000_000


@dataclass
class SourceSpec:
    path: Path
    id_column: str | None = None
    columns: dict[str, str] = field(default_factory=dict)
    encoding: str = "utf-8-sig"


@dataclass
class LinkSettings:
    rho: float
    tau: float
    cross_source_only: bool = False
    verifier: str = "none"


@dataclass
class TruthSpec:
    path: Path
    column_a: str = "id_a"
    column_b: str = "id_b"
    encoding: str = "utf-8-sig"


@dataclass
class GridSpec:
    a: list[float]
    b: list[float]
    rho: list[float]
    tau: list[float]

    @property
    def size(self) -> int:
        return len(self.a) * len(self.b) * len(self.rho) * len(self.tau)


@dataclass
class SynthSpec:
    n_entities: int
    records_per_entity: int
    corruption_rate: float
    seed: int


@dataclass
class PipelineConfig:
    base_dir: Path
    schema: list[str]
    inputs: dict[str, SourceSpec]
    templates: list[SignatureTemplate]
    model: ProbabilityModel | None
    link: LinkSettings | None
    extract_options: ExtractOptions
    output_dir: Path
    source_b_id_base: int = DEFAULT_B_ID_BASE
    truth: TruthSpec | None = None
    grids: GridSpec | None = None
    synth: SynthSpec | None = None

    @property
    def two_sources(self) -> bool:
        return set(self.inputs) == {"a", "b"}


def _mapping(value: Any, where: str, known: Iterable[str] | None = None) -> dict:
    """``value`` as a mapping whose keys all lie in ``known`` (if given).
    An unknown key is an error naming its path, so a misspelt key never
    falls back to its default."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(str(k) for k in value if known is not None and k not in known)
    if unknown:
        paths = ", ".join(f"{where}.{k}" if where else k for k in unknown)
        raise ConfigError(
            f"unknown config key(s) {paths} (known here: {', '.join(sorted(known))})"
        )
    return value


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {value}")


def _expect(mapping: dict, key: str, kind: type, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _encoding(mapping: dict, where: str) -> str:
    name = _expect(mapping, "encoding", str, where)
    try:
        "".encode(name)  # unknown names and non-text codecs raise LookupError
    except LookupError:
        raise ConfigError(f"{where}.encoding: unknown text encoding {name!r}") from None
    return name


# The size key of each extractor kind that has one.
_PART_SIZE_KEY = {ConsecutiveWords: "n", RandomWords: "k", LastDigits: "d"}


def _parse_part(raw: Any, where: str):
    kind = _expect(_mapping(raw, where), "kind", str, where)
    cls = EXTRACTOR_KINDS.get(kind)
    if cls is None:
        raise ConfigError(
            f"{where}: unknown extractor kind {kind!r} "
            f"(known: {', '.join(sorted(EXTRACTOR_KINDS))})"
        )
    size_key = _PART_SIZE_KEY.get(cls)
    _mapping(raw, where, {"kind", "attr", size_key} - {None})
    attr = _expect(raw, "attr", str, where)
    if size_key is None:
        return cls(attr)
    return cls(attr, _expect(raw, size_key, int, where))


def _parse_templates(raw: Any) -> list[SignatureTemplate]:
    if not isinstance(raw, list):
        raise ConfigError("'templates' must be a list")
    out: list[SignatureTemplate] = []
    for i, entry in enumerate(raw):
        where = f"templates[{i}]"
        _mapping(entry, where, {"id", "parts"})
        tid = _expect(entry, "id", int, where)
        parts_raw = _expect(entry, "parts", list, where)
        parts = tuple(
            _parse_part(p, f"{where}.parts[{j}]") for j, p in enumerate(parts_raw)
        )
        out.append(SignatureTemplate(template_id=tid, parts=parts))
    return out


def _parse_source(raw: Any, base: Path, where: str, schema: list[str]) -> SourceSpec:
    _mapping(raw, where, {"path", "id_column", "encoding", "columns"})
    spec = SourceSpec(path=base / _expect(raw, "path", str, where))
    if "id_column" in raw:
        spec.id_column = _expect(raw, "id_column", str, where)
    if "encoding" in raw:
        spec.encoding = _encoding(raw, where)
    if "columns" in raw:
        cols = raw["columns"]
        if not isinstance(cols, dict):
            raise ConfigError(f"{where}: 'columns' must map attribute -> csv column")
        _mapping(cols, f"{where}.columns", schema)  # a misspelt attribute is an error
        spec.columns = {str(k): _expect(cols, k, str, f"{where}.columns") for k in cols}
    return spec


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    Sections needed only by some subcommands (inputs, model, link,
    truth, grids, synth) may be absent; each subcommand checks for what
    it requires. Everything present is validated here, before any data
    is read.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    base = path.parent

    # The key separators are fixed: they spell every key in index.tsv.
    if "key_encoding" in raw:
        raise ConfigError(
            "'key_encoding' is no longer supported: the key separators are fixed "
            "('◦' between parts, '·' between tokens); remove the section"
        )
    _mapping(raw, "", {"schema", "inputs", "source_b_id_base", "templates", "model", "link",
                       "extract", "truth", "grids", "synth", "output_dir"})

    schema_raw = raw.get("schema")
    if not isinstance(schema_raw, list) or not schema_raw or not all(
        isinstance(s, str) for s in schema_raw
    ):
        raise ConfigError("'schema' must be a non-empty list of attribute names")
    schema = [str(s) for s in schema_raw]
    if len(set(schema)) != len(schema):
        raise ConfigError("'schema' contains duplicate attribute names")

    inputs: dict[str, SourceSpec] = {}
    if "inputs" in raw:
        inputs_raw = raw["inputs"]
        if not isinstance(inputs_raw, dict):
            raise ConfigError("'inputs' must map source tags to source specs")
        tags = set(inputs_raw)
        if tags not in ({"single"}, {"a", "b"}):
            raise ConfigError(
                f"'inputs' must have either key 'single' or keys 'a' and 'b', got {sorted(tags)}"
            )
        for tag in sorted(inputs_raw):
            inputs[tag] = _parse_source(inputs_raw[tag], base, f"inputs.{tag}", schema)

    options = ExtractOptions()
    if "extract" in raw:
        ex = _mapping(raw["extract"], "extract", {"combination_cap", "random_words_attr_limit"})
        # A cap below 1 drops every key it applies to, so the run silently
        # links nothing.
        for key in ex:
            value = _expect(ex, key, int, "extract")
            if value < 1:
                raise ConfigError(f"extract.{key} must be >= 1, got {value}")
            setattr(options, key, value)

    templates = _parse_templates(raw["templates"]) if "templates" in raw else []
    if templates:
        check = validate_config(templates, schema)
        if check.errors:
            raise ConfigError("invalid templates: " + "; ".join(check.errors))
        for warning in check.warnings:
            log.warning("%s", warning)

    model = None
    if "model" in raw:
        m = _mapping(raw["model"], "model", {"a", "b", "k_cap"})
        model = ProbabilityModel(
            a=_expect(m, "a", float, "model"),
            b=_expect(m, "b", float, "model"),
            k_cap=_expect(m, "k_cap", int, "model") if "k_cap" in m else DEFAULT_K_CAP,
        )

    link = None
    if "link" in raw:
        lk = _mapping(raw["link"], "link", {"rho", "tau", "cross_source_only", "verifier"})
        link = LinkSettings(
            rho=_expect(lk, "rho", float, "link"),
            tau=_expect(lk, "tau", float, "link"),
            cross_source_only=_expect(lk, "cross_source_only", bool, "link")
            if "cross_source_only" in lk else len(inputs) == 2,
            verifier=_expect(lk, "verifier", str, "link") if "verifier" in lk else "none",
        )
        _check_unit_interval("link.rho", link.rho)
        _check_unit_interval("link.tau", link.tau)
        make_verifier(link.verifier)  # validates the spec string
        if link.cross_source_only and inputs and set(inputs) != {"a", "b"}:
            raise ConfigError("link.cross_source_only requires two input sources 'a' and 'b'")

    truth = None
    if "truth" in raw:
        t = _mapping(raw["truth"], "truth", {"path", "column_a", "column_b", "encoding"})
        truth = TruthSpec(path=base / _expect(t, "path", str, "truth"))
        if "column_a" in t:
            truth.column_a = _expect(t, "column_a", str, "truth")
        if "column_b" in t:
            truth.column_b = _expect(t, "column_b", str, "truth")
        if "encoding" in t:
            truth.encoding = _encoding(t, "truth")

    grids = None
    if "grids" in raw:
        g = _mapping(raw["grids"], "grids", {"a", "b", "rho", "tau"})
        def _floats(key: str) -> list[float]:
            vals = g.get(key)
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"grids.{key} must be a non-empty list")
            for v in vals:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"grids.{key} must contain numbers, got {v!r}")
            return [float(v) for v in vals]
        grids = GridSpec(a=_floats("a"), b=_floats("b"), rho=_floats("rho"), tau=_floats("tau"))
        # Every cell's values, checked before any data is read.
        for a, b in itertools.product(grids.a, grids.b):
            try:
                ProbabilityModel(a=a, b=b)
            except ConfigError as exc:
                raise ConfigError(f"grids cell (a={a}, b={b}): {exc}") from None
        for rho in grids.rho:
            _check_unit_interval("grids.rho", rho)
        for tau in grids.tau:
            _check_unit_interval("grids.tau", tau)

    synth = None
    if "synth" in raw:
        s = _mapping(raw["synth"], "synth",
                     {"n_entities", "records_per_entity", "corruption_rate", "seed"})
        synth = SynthSpec(
            n_entities=_expect(s, "n_entities", int, "synth"),
            records_per_entity=_expect(s, "records_per_entity", int, "synth"),
            corruption_rate=_expect(s, "corruption_rate", float, "synth"),
            seed=_expect(s, "seed", int, "synth"),
        )

    b_base = raw.get("source_b_id_base", DEFAULT_B_ID_BASE)
    if not isinstance(b_base, int) or not 1 <= b_base <= MAX_NODE_ID:
        raise ConfigError(
            f"source_b_id_base must be an integer in [1, {MAX_NODE_ID}], got {b_base!r}"
        )

    output_dir = base / str(raw.get("output_dir", "out"))

    return PipelineConfig(
        base_dir=base,
        schema=schema,
        inputs=inputs,
        templates=templates,
        model=model,
        link=link,
        extract_options=options,
        output_dir=output_dir,
        source_b_id_base=b_base,
        truth=truth,
        grids=grids,
        synth=synth,
    )
