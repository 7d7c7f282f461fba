import csv
import gc
import io
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siglink import records
from siglink.errors import DataError
from siglink.indexer import build_raw_postings
from siglink.records import (
    LoadResult,
    RecordTable,
    deduplicate,
    intern,
    load_csv_with_keys,
    tokenize,
    tokenize_column,
)
from siglink.records import _lines, _number_distinct, _spaced_column
from siglink.templates import FullAttribute, SignatureTemplate

from conftest import (
    Record,
    make_record,
    postings_of,
    reference_dedup,
    reference_load,
    rows_of,
    table_of,
)


def load_rows(path, schema, **kwargs):
    """The loaded and interned table's rows, as ``Record``s."""
    return rows_of(intern([load_csv_with_keys(path, schema, **kwargs)]))


def source_of(ids, **raw):
    """A source of records ``ids`` whose ``raw[attr]`` are raw values,
    numbered as a load numbers them, for ``intern``."""
    values = {}
    for attr, column in raw.items():
        distinct, value_of = _number_distinct(column)
        values[attr] = _lines(distinct), value_of
    return LoadResult(np.asarray(ids, dtype=np.int64), values, [])


# Pieces of raw cells: mixed case, final and medial sigma, dotted capital
# I (lowercases to two code points), sharp s, combining marks, non-ASCII
# digits, underscores, and the CSV specials that need quoting (the
# newline also separates the values ``tokenize_column`` joins).
_PIECES = ["ab", "Cd", "ΟΔΟΣ", "οδος", "Σ", "İ", "ß", "SS", "é", "́", "٣4",
           "_", "x_y", "12", "007", " ", ",", '"', "\n", "\r\n", "-", "'", ".", "\x00"]


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("45 Elizabeth Street") == ("45", "elizabeth", "street")

    def test_punctuation_runs(self):
        assert tokenize("(123) 456-7890") == ("123", "456", "7890")

    def test_empty(self):
        assert tokenize("") == ()
        assert tokenize("  -- ") == ()

    def test_lowercase_and_digits(self):
        assert tokenize("John Smith, 45!") == ("john", "smith", "45")
        assert tokenize("23 24 5600") == ("23", "24", "5600")

    def test_underscore_is_delimiter(self):
        assert tokenize("a_b") == ("a", "b")

    @given(st.text(max_size=60))
    def test_idempotent_through_reserialization(self, raw):
        once = tokenize(raw)
        assert tokenize(" ".join(once)) == once

    @given(st.lists(st.one_of(st.text(st.characters(max_codepoint=127), max_size=12),
                              st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)),
                    max_size=8))
    @example(["a_b C-d", "", "x1\x00y"])         # all ASCII: one joined pass
    @example(["a_b", "Straße"])                    # not all ASCII: per value
    @example(["ΟΔΟΣ ΟΔΟΣ.", "İstanbul", "ΣΑ"])    # final sigma, dotted capital I
    @example(["ab", "c\nd"])                       # the separator inside a value
    @example(["a_b", "Straße", "c\nD", "", "x-Y"])  # ASCII, non-ASCII and newline, mixed
    def test_column_matches_per_value(self, values):
        assert tokenize_column(values) == [tokenize(v) for v in values]

    @given(st.lists(st.one_of(st.text(st.sampled_from("ab1 \nZ-"), max_size=6),
                              st.lists(st.sampled_from(["ab", "1", "x9"]), max_size=3).map(" ".join)),
                    max_size=8))
    @example(["john smith", "", "12 king st"])  # spaced: each value its own tokens
    @example(["a b", "a  b", " a", "a "])        # spacing that tokens drop
    @example(["ab", "c\nd"])                     # the separator inside a value
    @example([f"a{i}" for i in range(64)] + ["Ab"])  # past the first values checked alone
    @example(["a", "", "b 1", "1", "c"])         # tokens numbered across joined chunks
    @example(["a", "", "b"])                     # one token each: the values are the vocabulary
    @example(["", "a"])
    @example(["a", ""])
    def test_spaced_values_are_their_tokens(self, values):
        # Spaced values are their tokens, so distinct ones have distinct tokens.
        values = list(dict.fromkeys(values))
        spaced = bool(values) and all(v.isascii() and "\n" not in v
                                      and " ".join(tokenize(v)) == v for v in values)
        with patch.object(records, "_BLOCK_ROWS", 2):
            got = _spaced_column(_lines(values))
        assert (got is not None) == spaced
        if spaced:
            assert got.tuples() == [tokenize(v) for v in values]
            assert got.vocab == list(dict.fromkeys(tok for v in values for tok in tokenize(v)))

    @given(st.text(max_size=60))
    def test_tokens_never_contain_separators(self, raw):
        for tok in tokenize(raw):
            assert tok
            assert "◦" not in tok and "·" not in tok
            assert " " not in tok


class TestLoadCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title,authors\nScalable Joins,M Lee\n")
        recs = load_rows(p, ["title", "authors"])
        assert len(recs) == 1
        assert recs[0].attributes == {
            "title": ("scalable", "joins"),
            "authors": ("m", "lee"),
        }
        assert recs[0].id == 0

    def test_empty_cell_still_loads(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title,authors\nData Matching,\n")
        recs = load_rows(p, ["title", "authors"])
        assert recs[0].attributes["authors"] == ()

    def test_row_count_matches_file(self, tmp_path):
        p = tmp_path / "big.csv"
        lines = ["id,title,authors"]
        lines += [f"row{i},paper number {i},author {i}" for i in range(2616)]
        p.write_text("\n".join(lines) + "\n")
        recs = load_rows(p, ["title", "authors"])
        assert len(recs) == 2616

    def test_missing_column_names_it(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\nsomething\n")
        with pytest.raises(DataError, match="authors"):
            load_rows(p, ["title", "authors"])

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title,authors\nok,fine\nonly one field\n")
        with pytest.raises(DataError, match="line 3"):
            load_rows(p, ["title", "authors"])

    def test_repeated_read_column_rejected(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("id,name,name\nx1,ada,bob\n")
        with pytest.raises(DataError, match="in.csv: line 1: column 'name' appears 2 times"):
            load_rows(p, ["name"])
        p.write_text("id,the_name,id\nx1,ada,x2\n")
        with pytest.raises(DataError, match="line 1: column 'id' appears 2 times"):
            load_csv_with_keys(p, ["name"], column_map={"name": "the_name"}, key_column="id")
        p.write_text("junk,name,junk\n1,ada,2\n")  # unread columns may repeat
        assert load_rows(p, ["name"])[0].attributes == {"name": ("ada",)}

    def test_unmapped_columns_ignored(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("id,title,junk\nx1,hello world,zzz\n")
        recs = load_rows(p, ["title"])
        assert recs[0].attributes == {"title": ("hello", "world")}

    def test_id_base_offsets_ids(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\na\nb\n")
        recs = load_rows(p, ["title"], id_base=100)
        assert [r.id for r in recs] == [100, 101]

    def test_column_map_and_native_keys(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("pid,the_name\nk7,Ada Lovelace\n")
        result = load_csv_with_keys(
            p, ["name"], column_map={"name": "the_name"}, key_column="pid"
        )
        assert result.keys == ["k7"] and result.ids.tolist() == [0]
        assert rows_of(intern([result]))[0].attributes["name"] == ("ada", "lovelace")

    def test_duplicate_native_key_reports_file_key_and_line(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("pid,name\nx1,ada\nx2,bob\n\nx1,cy\n")
        with pytest.raises(DataError) as err:
            load_csv_with_keys(
            p, ["name"], key_column="pid")
        message = str(err.value)
        assert str(p) in message and "'x1'" in message and "line 5" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_rows(tmp_path / "nope.csv", ["title"])

    def test_blank_interior_lines_skipped(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\na\n\nb\n")
        assert len(load_rows(p, ["title"])) == 2


def alias_of(result) -> dict[int, int]:
    """The alias columns as an original id -> canonical id dict."""
    assert (result.ids[1:] > result.ids[:-1]).all()
    return dict(zip(result.ids.tolist(), result.canonical.ids[result.canonical_rows].tolist()))


class TestDeduplicate:
    def test_exact_duplicates_keep_smallest_id(self):
        recs = [make_record(3, title="same thing"), make_record(7, title="same thing")]
        result = deduplicate(table_of(recs))
        assert result.canonical.ids.tolist() == [3]
        assert alias_of(result) == {3: 3, 7: 3}

    def test_case_and_punctuation_merge(self):
        # tokenize("John  Smith,") == tokenize("john smith") == (john, smith)
        assert tokenize("John  Smith,") == tokenize("john smith")
        recs = [make_record(0, name="John  Smith,"), make_record(1, name="john smith")]
        result = deduplicate(table_of(recs))
        assert len(result.canonical) == 1
        assert alias_of(result) == {0: 0, 1: 0}

    def test_attribute_boundaries_matter(self):
        a = make_record(0, title="a b", authors="c")
        b = make_record(1, title="a", authors="b c")
        assert len(deduplicate(table_of([a, b])).canonical) == 2

    def test_thousand_rows_duplicated_four_times(self):
        recs = []
        rid = 0
        for i in range(1000):
            for _ in range(4):
                recs.append(make_record(rid, name=f"person {i}", city=f"town {i % 7}"))
                rid += 1
        result = deduplicate(table_of(recs))
        assert len(result.canonical) == 1000
        assert len(alias_of(result)) == 4000

    def test_source_blind(self):
        # Two sources interned into one table: without source codes,
        # equal rows are one class.
        merged = intern([source_of([0], name=["x y"]), source_of([1], name=["X, y"])])
        assert len(deduplicate(merged).canonical) == 1

    def test_source_codes_keep_sources_apart(self):
        # Equal rows of one source merge; equal rows of two sources do not.
        merged = intern([source_of([0, 1], name=["x y", "x-y"]),
                         source_of([5, 6], name=["X Y", "z"])])
        result = deduplicate(merged, np.array([0, 0, 1, 1], dtype=np.int8))
        assert result.canonical.ids.tolist() == [0, 5, 6]
        assert alias_of(result) == {0: 0, 1: 0, 5: 5, 6: 6}
        assert len(deduplicate(merged).canonical) == 2

    def test_idempotent_and_alias_closure(self):
        recs = [
            make_record(0, name="x"), make_record(1, name="x"),
            make_record(2, name="y"), make_record(3, name="z"), make_record(4, name="z"),
        ]
        result = deduplicate(table_of(recs))
        assert len(result.canonical) <= len(recs)
        again = deduplicate(result.canonical)
        assert rows_of(again.canonical) == rows_of(result.canonical)
        assert all(v == k for k, v in alias_of(again).items())
        canon_ids = set(result.canonical.ids.tolist())
        alias = alias_of(result)
        for orig, canon in alias.items():
            assert canon in canon_ids
            assert alias[canon] == canon  # alias of alias is fixed

    def test_alias_columns_ascend_whatever_the_input_order(self):
        recs = [make_record(9, name="x"), make_record(4, name="y"),
                make_record(2, name="x"), make_record(7, name="y")]
        result = deduplicate(table_of(recs))
        assert result.canonical.ids.tolist() == [2, 4]
        assert result.ids.tolist() == [2, 4, 7, 9]
        assert result.canonical_rows.tolist() == [0, 1, 1, 0]

    def test_duplicate_ids_rejected(self):
        # ``from_columns`` refuses such ids; the dataclass constructor does not.
        table = table_of([make_record(1, name="a"), make_record(2, name="b")])
        repeated = RecordTable(np.array([1, 1]), table.classes, table.columns)
        with pytest.raises(DataError, match="duplicate record id 1"):
            deduplicate(repeated)

    def test_descending_ids_rejected(self):
        # Canonical ids are the smallest row of each class, so ids that
        # fall would alias record 0 to the larger id 5.
        falls = r"record id 0 does not ascend \(it follows 6\)"
        with pytest.raises(DataError, match=falls):
            intern([source_of([5, 6], name=["x", "y"]), source_of([0, 1], name=["x", "z"])])
        both = table_of([make_record(0, name="x"), make_record(1, name="z"),
                         make_record(5, name="x"), make_record(6, name="y")])
        fallen = RecordTable(np.array([5, 6, 0, 1]), both.classes, both.columns)
        with pytest.raises(DataError, match=falls + " in dedup input"):
            deduplicate(fallen)


# Pieces of raw values, with ones that are not tokens as they stand: the
# key separators, upper case (``𝐀`` stays as it is), dotted capital I,
# sharp s, combining marks, and the newline ``tokenize_column`` joins on.
_RAW_PIECES = ["a", "b", "1", "◦", "·", "A", "Σ", "𝐀", "İ", "ß", "ẞ", "\u0301", "é", " ",
               "\n", "_"]


class TestFromColumns:
    def test_rows_are_tokenized_raw_values(self):
        table = RecordTable.from_columns([3, 5], {"name": ["Ada  Lovelace", "BOB"],
                                                  "city": ["", "x-y"]})
        assert rows_of(table) == [Record(3, {"name": ("ada", "lovelace"), "city": ()}),
                                  Record(5, {"name": ("bob",), "city": ("x", "y")})]

    @pytest.mark.parametrize("ids, message", [([1, 3, 2], "record id 2 does not ascend"),
                                              ([4, 4], "record id 4 does not ascend")])
    def test_ids_must_ascend(self, ids, message):
        with pytest.raises(DataError, match=message):
            RecordTable.from_columns(ids, {"name": ["a"] * len(ids)})

    def test_every_column_has_one_value_per_id(self):
        with pytest.raises(DataError, match="attribute 'name' has 1 values for 2 ids"):
            RecordTable.from_columns([0, 1], {"name": ["a"]})

    def test_takes_the_columns_it_is_given(self):
        raw = {"name": ["a b", "c"], "city": ["x", ""]}
        table = RecordTable.from_columns([0, 1], raw)
        assert raw == {} and list(table.columns) == ["name", "city"]

    def test_live_objects_do_not_grow_with_the_vocabulary(self):
        # Python objects (tracemalloc domain 0; numpy data is traced in
        # its own domain) that the table keeps alive: one string per
        # token would be 20,000 of them.
        values = [f"w{i}" for i in range(20_000)]
        gc.collect()
        tracemalloc.start()
        try:
            table = RecordTable.from_columns(range(len(values)), {"name": values})
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        live = snapshot.filter_traces([tracemalloc.DomainFilter(True, 0)])
        assert len(table.columns["name"].vocab) == 20_000
        assert sum(stat.count for stat in live.statistics("filename")) < 1_000

    @given(st.lists(st.lists(st.sampled_from(_RAW_PIECES), max_size=5).map("".join),
                    min_size=1, max_size=6))
    @example(["a◦b", "a b", "a·b"])  # one class, so one key: 1◦a·b in records 1 to 6
    def test_no_token_that_tokenize_would_not_make(self, values):
        # Each value beside a copy: every key is found in two records or
        # more, so the build stores every key.
        values = values + values
        table = RecordTable.from_columns(range(1, len(values) + 1), {"name": values})
        assert all(tokenize(token) == (token,) for token in table.columns["name"].vocab)
        assert len(table.columns["name"]) == len(set(map(tokenize, values)))
        # So keys are injective: FullAttribute gives one key per token tuple.
        expected: dict[str, tuple[int, ...]] = {}
        for rid, value in enumerate(values, 1):
            if tokenize(value):
                key = "1◦" + "·".join(tokenize(value))
                expected[key] = expected.get(key, ()) + (rid,)
        raw = build_raw_postings(table, [SignatureTemplate(1, (FullAttribute("name"),))])
        assert postings_of(raw) == expected


class TestLineNumbers:
    """Errors name the physical line ``csv.reader`` ends the row on, not
    the row's index, also after quoted fields that span lines."""

    def test_ragged_row_after_multiline_field(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text('title,authors\n"multi\nline title",x\n\nonly one field\n')
        with pytest.raises(DataError, match="line 5: expected 2 fields, got 1"):
            load_rows(p, ["title", "authors"])

    def test_repeated_key_after_multiline_field(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text('pid,name\nx1,"ada\nlovelace"\nx2,bob\nx1,cy\n')
        with pytest.raises(DataError, match="line 5: duplicate 'pid' value 'x1'"):
            load_csv_with_keys(p, ["name"], key_column="pid")

    def test_first_fault_wins(self, tmp_path):
        # a repeated key on line 3 comes before the ragged row on line 4
        p = tmp_path / "in.csv"
        p.write_text("pid,name\nx1,ada\nx1,bob\nx2\n")
        with pytest.raises(DataError, match="line 3: duplicate"):
            load_csv_with_keys(p, ["name"], key_column="pid")
        p.write_text("pid,name\nx1,ada\nx2\nx1,bob\n")
        with pytest.raises(DataError, match="line 3: expected 2 fields"):
            load_csv_with_keys(p, ["name"], key_column="pid")

    def test_equal_key_hashes_are_not_a_repeat(self, tmp_path, monkeypatch):
        # Every key hashes alike, so keys are told apart by value.
        monkeypatch.setattr(records, "hash", lambda key: 0, raising=False)
        p = tmp_path / "in.csv"
        p.write_text("pid,name\nx1,ada\nx2,bob\nx3,cy\n")
        assert load_csv_with_keys(p, ["name"], key_column="pid").keys == ["x1", "x2", "x3"]
        p.write_text("pid,name\nx1,ada\nx2,bob\nx2,cy\n")
        with pytest.raises(DataError, match="line 4: duplicate 'pid' value 'x2'"):
            load_csv_with_keys(p, ["name"], key_column="pid")


class TestFaultsPastTheFirstBlock:
    """Load reads two rows per block here, so rows 5 and 6 (lines 6 and
    7) are block 3. A fault there names its line, and of two faults the
    one the whole file read first would report wins: a bad byte or a row
    the ``csv`` module rejects anywhere, else the first repeated key or
    ragged row. Rows 1 to 4 are padded, so the stream decodes block 3's
    bytes in a later read than the header's."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(records, "_BLOCK_ROWS", 2)

    @staticmethod
    def load(tmp_path, changes: dict[int, bytes]):
        """Load ``pid,name`` rows x1..x6, row r replaced by ``changes[r]``."""
        rows = [b"x%d,%s" % (r, b"n" * 6000 if r <= 4 else b"m") for r in range(1, 7)]
        for r, row in changes.items():
            rows[r - 1] = row
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join([b"pid,name", *rows, b""]))
        return load_csv_with_keys(path, ["name"], key_column="pid")

    @pytest.mark.parametrize("row, message", [
        (b"x5", "line 6: expected 2 fields, got 1"),
        (b"x1,m", "line 6: duplicate 'pid' value 'x1'"),
        (b"x5,\xffm", "line 6: bytes not valid utf-8-sig"),
        (b"x5," + b"m" * 131_073, "line 6: field larger than field limit"),
    ], ids=["ragged", "repeated_key", "bad_byte", "csv_error"])
    def test_fault_in_block_3_names_its_line(self, tmp_path, row, message):
        with pytest.raises(DataError, match=message):
            self.load(tmp_path, {5: row})

    @pytest.mark.parametrize("changes, message", [
        ({2: b"x1,m", 5: b"x5"}, "line 3: duplicate 'pid' value 'x1'"),
        ({2: b"x2", 5: b"x1,m"}, "line 3: expected 2 fields, got 1"),
        ({2: b"x2", 5: b"x5,\xffm"}, "line 6: bytes not valid utf-8-sig"),
    ], ids=["key_before_ragged", "ragged_before_key", "bad_byte_after_ragged"])
    def test_first_fault_wins_across_blocks(self, tmp_path, changes, message):
        with pytest.raises(DataError, match=message):
            self.load(tmp_path, changes)

    def test_keys_that_hold_newlines(self, tmp_path):
        # Rows 3 and 6 each span two lines; a block's keys are held in one
        # string, joined by a character none of them holds.
        result = self.load(tmp_path, {3: b'"x\n3",m', 6: b'"x\r\n6",m'})
        assert result.keys == ["x1", "x2", "x\n3", "x4", "x5", "x\r\n6"]
        with pytest.raises(DataError, match=re.escape("line 8: duplicate 'pid' value 'x\\n3'")):
            self.load(tmp_path, {3: b'"x\n3",m', 5: b'"x\n3",m'})

    def test_rows_of_every_block_load(self, tmp_path):
        result = self.load(tmp_path, {})
        assert result.keys == [f"x{r}" for r in range(1, 7)]
        assert [rec.attributes["name"] for rec in rows_of(intern([result]))] == \
            [("n" * 6000,)] * 4 + [("m",)] * 2


_CELL = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
# Rows drawn from a small pool of cells, so duplicates are common.
_ROWS = st.lists(_CELL, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                                    st.booleans()), max_size=12))


def _write_csv(path, rows, bom, prefix):
    """Header ``key,name,junk,addr``; a True flag adds a blank line
    after the row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "name", "junk", "addr"])
    for i, (name, addr, blank) in enumerate(rows):
        writer.writerow([f"{prefix}{i}", name, "zz", addr])
        if blank:
            out.write("\n")
    path.write_bytes(("﻿" if bom else "").encode() + out.getvalue().encode("utf-8"))


class TestColumnarLoadAgainstReference:
    """The columnar load, interning and dedup against the per-row
    reference loader and dict dedup of ``conftest``."""

    @given(_ROWS, st.one_of(st.none(), _ROWS), st.booleans(), st.integers(0, 3))
    def test_matches_per_row_reference(self, tmp_path_factory, rows_a, rows_b, bom, base_a):
        tmp = tmp_path_factory.mktemp("load")
        sources = [("a", rows_a, base_a)] + ([("b", rows_b, 1000)] if rows_b is not None else [])
        loads, expected_rows, alias, expected_canonical = [], [], {}, []
        for tag, rows, base in sources:
            path = tmp / f"{tag}.csv"
            _write_csv(path, rows, bom, tag)
            loaded = load_csv_with_keys(path, ["name", "addr"], id_base=base, key_column="key")
            records, native = reference_load(path, ["name", "addr"], id_base=base,
                                             key_column="key")
            assert dict(zip(loaded.keys, loaded.ids.tolist())) == native
            loads.append(loaded)
            expected_rows += records
            source_alias = reference_dedup(records)  # within its source only
            alias.update(source_alias)
            expected_canonical += [rec for rec in records if source_alias[rec.id] == rec.id]
        table = intern(loads)
        assert rows_of(table) == expected_rows
        source = np.repeat(np.arange(len(loads), dtype=np.int8), [len(l.ids) for l in loads])
        dedup = deduplicate(table, source)
        assert dedup.ids.tolist() == sorted(alias)
        assert alias_of(dedup) == alias
        merged = dedup.canonical
        expected = table_of(expected_canonical)
        assert rows_of(merged) == expected_canonical
        assert merged.ids.tolist() == expected.ids.tolist()
        for attr in expected.columns:  # none when every source is empty
            got, want = merged.columns[attr], expected.columns[attr]
            assert got.vocab == want.vocab
            assert got.offsets.tolist() == want.offsets.tolist()
            assert got.ids.tolist() == want.ids.tolist()
            assert merged.classes[attr].tolist() == expected.classes[attr].tolist()


# Raw values by how they tokenize: each group's values have equal tokens
# though their raw text differs, and the first of each is spaced (its
# own tokens joined by single spaces).
_SAME_TOKENS = [["a b", "A  b", "a-B."], ["b", "B", " b"], ["1 a", "1 A", "1,a"],
                ["", "--"], ["ab", "AB"], ["x y", "x\ny"], ["strasse", "STRASSE"],
                ["straße", "Straße"]]
_SPACED = [group[0] for group in _SAME_TOKENS]
_ANY = [value for group in _SAME_TOKENS for value in group]
# A source's rows: a value of a spaced column and of any column.
_SOURCE = st.lists(st.tuples(st.sampled_from(_SPACED), st.sampled_from(_ANY)), max_size=8)


class TestIntern:
    """One interning step over two sources against a dict of token
    tuples: classes and tokens numbered in order of first appearance
    over every row, as tokenizing each source and merging their classes
    numbered them."""

    @given(_SOURCE, _SOURCE)
    @example([("a b", "a b"), ("b", "b")], [("a b", "A  b"), ("1 a", "x\ny")])  # shared values
    @example([], [("b", "B")])  # an empty source
    @example([("ab", "ab")], [])
    def test_classes_are_the_distinct_tuples(self, rows_a, rows_b):
        ids = [range(len(rows_a)), range(100, 100 + len(rows_b))]
        table = intern([source_of(rows, spaced=[r[0] for r in source], raw=[r[1] for r in source])
                        for rows, source in zip(ids, [rows_a, rows_b])])
        assert table.ids.tolist() == [*ids[0], *ids[1]]
        for i, attr in enumerate(["spaced", "raw"]):
            tokens = [tokenize(row[i]) for row in rows_a + rows_b]
            column = table.columns[attr]
            assert column.tuples() == list(dict.fromkeys(tokens))
            assert column.vocab == list(dict.fromkeys(tok for tup in column.tuples()
                                                      for tok in tup))
            assert [column.tuples()[c] for c in table.classes[attr].tolist()] == tokens
