"""Record ingestion: CSV loading, tokenization, and exact deduplication.

Records are tokenized bags of attributes. Tokenization is deliberately
dumb: lowercase, split on runs of non-alphanumeric characters, keep
digit runs as first-class tokens. There is no standardisation or
cleansing step; downstream linkage relies on redundancy in the data
instead of clean canonical forms. Deduplication returns its alias as two
id columns (every input id, ascending, and its canonical id), the form
components, scoring and emit read.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

# Maximal runs of unicode alphanumerics; underscore is a delimiter.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(raw: str) -> tuple[str, ...]:
    """Split a raw string into lowercase tokens.

    Splits on every maximal run of non-alphanumeric characters, drops
    empty fragments, and keeps digit runs as tokens:

        "45 Elizabeth Street"  -> ("45", "elizabeth", "street")
        "(123) 456-7890"       -> ("123", "456", "7890")
        ""                     -> ()
    """
    if not raw:
        return ()
    return tuple(_TOKEN_RE.findall(raw.lower()))


@dataclass(frozen=True)
class Record:
    """One tokenized observation.

    ``attributes`` maps attribute name -> token sequence, in schema
    order. Attributes missing from the raw row are present with an
    empty token sequence.
    """

    id: int
    source: str
    attributes: dict[str, tuple[str, ...]]

    def all_tokens(self) -> frozenset[str]:
        """The record's full token set across all attributes."""
        out: set[str] = set()
        for toks in self.attributes.values():
            out.update(toks)
        return frozenset(out)


@dataclass
class DedupResult:
    """Outcome of exact deduplication.

    ``canonical`` keeps the smallest id of each equality class, sorted
    by id. ``ids`` holds every input id, ascending, and
    ``canonical_ids[i]`` is the canonical id of ``ids[i]``.
    """

    canonical: list[Record]
    ids: np.ndarray
    canonical_ids: np.ndarray


@dataclass
class LoadResult:
    records: list[Record] = field(default_factory=list)
    # Native key (value of the configured id column) -> internal id.
    native_ids: dict[str, int] = field(default_factory=dict)


def load_csv_with_keys(
    path: str | Path,
    schema: Sequence[str],
    source: str,
    *,
    id_base: int = 0,
    column_map: Mapping[str, str] | None = None,
    key_column: str | None = None,
    encoding: str = "utf-8-sig",
) -> LoadResult:
    """Load a CSV file into Records, optionally capturing native keys.

    The first row must be a header containing every schema attribute's
    column (via ``column_map``, attribute -> column name, identity by
    default). Unmapped columns are ignored. Internal ids are assigned
    sequentially in file order starting at ``id_base``. Blank rows are
    skipped; rows with the wrong number of fields, or repeating a
    ``key_column`` value, raise ``DataError`` with the offending line
    number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    column_map = dict(column_map or {})
    result = LoadResult()
    with path.open(newline="", encoding=encoding) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        col_index: dict[str, int] = {name: i for i, name in enumerate(header)}
        attr_cols: list[tuple[str, int]] = []
        for attr in schema:
            col = column_map.get(attr, attr)
            if col not in col_index:
                raise DataError(f"{path}: header is missing column {col!r} for attribute {attr!r}")
            attr_cols.append((attr, col_index[col]))
        key_idx: int | None = None
        if key_column is not None:
            if key_column not in col_index:
                raise DataError(f"{path}: header is missing id column {key_column!r}")
            key_idx = col_index[key_column]

        next_id = id_base
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            attributes = {attr: tokenize(row[i]) for attr, i in attr_cols}
            result.records.append(Record(id=next_id, source=source, attributes=attributes))
            if key_idx is not None:
                native = row[key_idx]
                if native in result.native_ids:
                    raise DataError(
                        f"{path}: line {reader.line_num}: duplicate {key_column!r} "
                        f"value {native!r}"
                    )
                result.native_ids[native] = next_id
            next_id += 1
    return result


def load_csv(
    path: str | Path,
    schema: Sequence[str],
    source: str,
    *,
    id_base: int = 0,
    column_map: Mapping[str, str] | None = None,
    encoding: str = "utf-8-sig",
) -> list[Record]:
    """Load a CSV file into Records (see ``load_csv_with_keys``)."""
    return load_csv_with_keys(
        path, schema, source, id_base=id_base, column_map=column_map, encoding=encoding
    ).records


def deduplicate(records: Iterable[Record]) -> DedupResult:
    """Remove exact duplicates, keeping the smallest id per class.

    Two records are duplicates iff their normalized token sequences
    (with attribute boundaries) are equal, regardless of source. The
    alias columns cover every input id, and a canonical id is its own
    canonical id.
    """
    records = list(records)
    n = len(records)
    classes: dict[tuple, int] = {}
    class_of = np.fromiter((classes.setdefault(tuple(rec.attributes.items()), len(classes))
                            for rec in records), np.int64, n)
    ids = np.fromiter((rec.id for rec in records), np.int64, n)
    order = np.argsort(ids, kind="stable")
    ids, class_of = ids[order], class_of[order]
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if len(repeated):
        raise DataError(f"duplicate record id {repeated[0]} in dedup input")
    # Ids ascend, so each class's first row holds its smallest id.
    first = np.unique(class_of, return_index=True)[1]
    return DedupResult(
        canonical=[records[i] for i in order[np.sort(first)].tolist()],
        ids=ids,
        canonical_ids=ids[first][class_of],
    )
