"""YAML pipeline configuration: parsing and validation.

One config file drives every subcommand; command-line flags only pick
the subcommand, the config path, and the output directory. Relative
paths inside the config resolve against the config file's directory.
See the README for the full key reference.

Each section is read into its dataclass by ``_read``, whose fields are
the section's keys: adding a key means adding a field with an annotation
``_value`` reads, plus its line in the README's config reference. Range
checks live in each object's ``__post_init__``, so library callers get
them too.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, get_type_hints

import yaml

from .errors import ConfigError, check_unit_interval
from .linker import make_verifier
from .sigprob import ProbabilityModel
from .synth import check_parameters
from .templates import EXTRACTOR_KINDS, SignatureTemplate, validate_config

log = logging.getLogger(__name__)

DEFAULT_B_ID_BASE = 10_000_000


@dataclass
class SourceSpec:
    path: Path
    id_column: str | None = None
    encoding: str = "utf-8-sig"
    columns: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LinkSettings:
    rho: float
    tau: float
    cross_source_only: bool = False
    verifier: str = "none"

    def __post_init__(self) -> None:
        check_unit_interval("link.rho", self.rho)
        check_unit_interval("link.tau", self.tau)
        make_verifier(self.verifier)  # validates the spec string


@dataclass
class TruthSpec:
    path: Path
    column_a: str = "id_a"
    column_b: str = "id_b"
    encoding: str = "utf-8-sig"


@dataclass(frozen=True)
class GridSpec:
    a: tuple[float, ...]
    b: tuple[float, ...]
    rho: tuple[float, ...]
    tau: tuple[float, ...]

    def __post_init__(self) -> None:
        for f in fields(self):  # held as tuples, so no item changes after the checks
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        for a, b in itertools.product(self.a, self.b):
            try:
                ProbabilityModel(a=a, b=b)
            except ConfigError as exc:
                raise ConfigError(f"grids cell (a={a}, b={b}): {exc}") from None
        for key in ("rho", "tau"):
            for value in getattr(self, key):
                check_unit_interval(f"grids.{key}", value)

    @property
    def size(self) -> int:
        return len(self.a) * len(self.b) * len(self.rho) * len(self.tau)


@dataclass(frozen=True)
class SynthSpec:
    n_entities: int
    records_per_entity: int
    corruption_rate: float
    seed: int

    def __post_init__(self) -> None:
        check_parameters("synth.", self.n_entities, self.records_per_entity,
                         self.corruption_rate)


@dataclass
class PipelineConfig:
    schema: list[str]
    inputs: dict[str, SourceSpec]
    templates: list[SignatureTemplate]
    model: ProbabilityModel | None
    link: LinkSettings | None
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


def _expect(mapping: dict, key: str, kind: type, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _value(raw: dict, key: str, kind: Any, where: str, base: Path) -> Any:
    """``raw[key]`` checked against its field's annotation ``kind``; a
    path is joined to the config's directory ``base``."""
    if key == "encoding":
        name = _expect(raw, key, str, where)
        try:
            "".encode(name)  # unknown names and non-text codecs raise LookupError
        except LookupError:
            raise ConfigError(f"{where}.encoding: unknown text encoding {name!r}") from None
        return name
    if kind == Path:
        return base / _expect(raw, key, str, where)
    if kind == tuple[float, ...]:
        values = raw.get(key)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.{key} must be a non-empty list")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where}.{key} must contain numbers, got {v!r}")
        return tuple(float(v) for v in values)
    if kind == dict[str, str]:
        if not isinstance(raw[key], dict):
            raise ConfigError(f"{where}: {key!r} must map attribute -> csv column")
        return {str(k): _expect(raw[key], k, str, f"{where}.{key}") for k in raw[key]}
    return _expect(raw, key, str if kind == str | None else kind, where)


def _read(cls: type, raw: Any, where: str, base: Path, **given: Any) -> dict[str, Any]:
    """The arguments of a ``cls`` read from the config mapping ``raw`` at
    ``where``: its fields are the known keys, one with no default is
    required, and each value is checked against the field's annotation.
    ``given`` replaces the defaults of keys ``raw`` leaves out."""
    hints = get_type_hints(cls)
    _mapping(raw, where, [f.name for f in fields(cls)])
    values = dict(given)
    for f in fields(cls):
        # ``_value`` names a required key that is missing.
        if f.name in raw or f.default is MISSING and f.default_factory is MISSING:
            values[f.name] = _value(raw, f.name, hints[f.name], where, base)
    return values


def _parse_part(raw: Any, where: str, base: Path):
    kind = _expect(_mapping(raw, where), "kind", str, where)
    cls = EXTRACTOR_KINDS.get(kind)
    if cls is None:
        raise ConfigError(
            f"{where}: unknown extractor kind {kind!r} "
            f"(known: {', '.join(sorted(EXTRACTOR_KINDS))})"
        )
    _mapping(raw, where, ["kind", *(f.name for f in fields(cls))])
    values = _read(cls, {k: v for k, v in raw.items() if k != "kind"}, where, base)
    try:
        return cls(**values)
    except ConfigError as exc:  # a size below 1, named by its template and part
        raise ConfigError(f"{where}: {exc}") from None


def _parse_templates(raw: Any, base: Path) -> list[SignatureTemplate]:
    if not isinstance(raw, list):
        raise ConfigError("'templates' must be a list")
    out: list[SignatureTemplate] = []
    for i, entry in enumerate(raw):
        where = f"templates[{i}]"
        _mapping(entry, where, {"id", "parts"})
        tid = _expect(entry, "id", int, where)
        parts_raw = _expect(entry, "parts", list, where)
        parts = tuple(
            _parse_part(p, f"{where}.parts[{j}]", base) for j, p in enumerate(parts_raw)
        )
        try:
            out.append(SignatureTemplate(template_id=tid, parts=parts))
        except ConfigError as exc:  # no parts, named by its place in the list
            raise ConfigError(f"{where}: {exc}") from None
    return out


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
                       "truth", "grids", "synth", "output_dir"})

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
            where = f"inputs.{tag}"
            inputs[tag] = spec = SourceSpec(**_read(SourceSpec, inputs_raw[tag], where, base))
            _mapping(spec.columns, f"{where}.columns", schema)  # a misspelt attribute is an error

    def section(cls: type, key: str, **given: Any) -> Any:
        return cls(**_read(cls, raw[key], key, base, **given)) if key in raw else None

    templates = _parse_templates(raw["templates"], base) if "templates" in raw else []
    if templates:
        check = validate_config(templates, schema)
        if check.errors:
            raise ConfigError("invalid templates: " + "; ".join(check.errors))
        for warning in check.warnings:
            log.warning("%s", warning)

    model = section(ProbabilityModel, "model")
    link = section(LinkSettings, "link", cross_source_only=len(inputs) == 2)
    if link and link.cross_source_only and inputs and set(inputs) != {"a", "b"}:
        raise ConfigError("link.cross_source_only requires two input sources 'a' and 'b'")
    truth = section(TruthSpec, "truth")
    grids = section(GridSpec, "grids")
    synth = section(SynthSpec, "synth")

    b_base = (_expect(raw, "source_b_id_base", int, str(path))
              if "source_b_id_base" in raw else DEFAULT_B_ID_BASE)
    # Ids are int64, one per row from the base up: a base at most 2**62
    # keeps base + rows inside int64.
    if not 1 <= b_base <= 2**62:
        raise ConfigError(
            f"source_b_id_base must be an integer in [1, {2**62}], got {b_base!r}"
        )

    output_dir = base / (_expect(raw, "output_dir", str, str(path))
                         if "output_dir" in raw else "out")

    return PipelineConfig(
        schema=schema,
        inputs=inputs,
        templates=templates,
        model=model,
        link=link,
        output_dir=output_dir,
        source_b_id_base=b_base,
        truth=truth,
        grids=grids,
        synth=synth,
    )
