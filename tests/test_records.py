import csv
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siglink.errors import DataError
from siglink.records import (
    RecordTable,
    concat,
    deduplicate,
    load_csv_with_keys,
    tokenize,
    tokenize_column,
)

from conftest import make_record, reference_dedup, reference_load


def load_rows(path, schema, **kwargs):
    """The loaded table's rows, as ``Record``s."""
    return list(load_csv_with_keys(path, schema, **kwargs).table)


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
        assert list(result.table)[0].attributes["name"] == ("ada", "lovelace")
        assert result.native_ids == {"k7": 0}

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
    return dict(zip(result.ids.tolist(), result.canonical_ids.tolist()))


class TestDeduplicate:
    def test_exact_duplicates_keep_smallest_id(self):
        recs = [make_record(3, title="same thing"), make_record(7, title="same thing")]
        result = deduplicate(RecordTable.of(recs))
        assert [r.id for r in result.canonical] == [3]
        assert alias_of(result) == {3: 3, 7: 3}

    def test_case_and_punctuation_merge(self):
        # tokenize("John  Smith,") == tokenize("john smith") == (john, smith)
        assert tokenize("John  Smith,") == tokenize("john smith")
        recs = [make_record(0, name="John  Smith,"), make_record(1, name="john smith")]
        result = deduplicate(RecordTable.of(recs))
        assert len(result.canonical) == 1
        assert alias_of(result) == {0: 0, 1: 0}

    def test_attribute_boundaries_matter(self):
        a = make_record(0, title="a b", authors="c")
        b = make_record(1, title="a", authors="b c")
        assert len(deduplicate(RecordTable.of([a, b])).canonical) == 2

    def test_thousand_rows_duplicated_four_times(self):
        recs = []
        rid = 0
        for i in range(1000):
            for _ in range(4):
                recs.append(make_record(rid, name=f"person {i}", city=f"town {i % 7}"))
                rid += 1
        result = deduplicate(RecordTable.of(recs))
        assert len(result.canonical) == 1000
        assert len(alias_of(result)) == 4000

    def test_source_blind(self):
        # Two sources' tables merged into one: equal rows are one class.
        merged = concat([RecordTable.of([make_record(0, name="x y")]),
                         RecordTable.of([make_record(1, name="x y")])])
        assert len(deduplicate(merged).canonical) == 1

    def test_idempotent_and_alias_closure(self):
        recs = [
            make_record(0, name="x"), make_record(1, name="x"),
            make_record(2, name="y"), make_record(3, name="z"), make_record(4, name="z"),
        ]
        result = deduplicate(RecordTable.of(recs))
        assert len(result.canonical) <= len(recs)
        again = deduplicate(result.canonical)
        assert list(again.canonical) == list(result.canonical)
        assert all(v == k for k, v in alias_of(again).items())
        canon_ids = {r.id for r in result.canonical}
        alias = alias_of(result)
        for orig, canon in alias.items():
            assert canon in canon_ids
            assert alias[canon] == canon  # alias of alias is fixed

    def test_alias_columns_ascend_whatever_the_input_order(self):
        recs = [make_record(9, name="x"), make_record(4, name="y"),
                make_record(2, name="x"), make_record(7, name="y")]
        result = deduplicate(RecordTable.of(recs))
        assert [r.id for r in result.canonical] == [2, 4]
        assert result.ids.tolist() == [2, 4, 7, 9]
        assert result.canonical_ids.tolist() == [2, 4, 4, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate record id"):
            deduplicate(RecordTable.of([make_record(1, name="a"), make_record(1, name="b")]))


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
    """The columnar load, dedup and source merge against the per-row
    reference loader and dict dedup of ``conftest``."""

    @given(_ROWS, st.one_of(st.none(), _ROWS), st.booleans(), st.integers(0, 3))
    def test_matches_per_row_reference(self, tmp_path_factory, rows_a, rows_b, bom, base_a):
        tmp = tmp_path_factory.mktemp("load")
        sources = [("a", rows_a, base_a)] + ([("b", rows_b, 1000)] if rows_b is not None else [])
        canonical, expected_canonical = [], []
        for tag, rows, base in sources:
            path = tmp / f"{tag}.csv"
            _write_csv(path, rows, bom, tag)
            loaded = load_csv_with_keys(path, ["name", "addr"], id_base=base, key_column="key")
            records, native = reference_load(path, ["name", "addr"], id_base=base,
                                             key_column="key")
            assert loaded.native_ids == native
            assert list(loaded.table) == records
            dedup = deduplicate(loaded.table)
            alias = reference_dedup(records)
            assert dedup.ids.tolist() == sorted(alias)
            assert dedup.canonical_ids.tolist() == [alias[i] for i in sorted(alias)]
            canonical.append(dedup.canonical)
            expected_canonical += [rec for rec in records if alias[rec.id] == rec.id]
        merged = concat(canonical)
        expected = RecordTable.of(expected_canonical)
        assert list(merged) == expected_canonical
        assert merged.ids.tolist() == expected.ids.tolist()
        for attr in expected.columns:  # none when every source is empty
            got, want = merged.columns[attr], expected.columns[attr]
            assert got.vocab == want.vocab
            assert got.offsets.tolist() == want.offsets.tolist()
            assert got.ids.tolist() == want.ids.tolist()
            assert merged.classes[attr].tolist() == expected.classes[attr].tolist()
