import pytest
from hypothesis import given
from hypothesis import strategies as st

from siglink.errors import DataError
from siglink.records import deduplicate, load_csv, load_csv_with_keys, tokenize

from conftest import make_record


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
        recs = load_csv(p, ["title", "authors"], "single")
        assert len(recs) == 1
        assert recs[0].attributes == {
            "title": ("scalable", "joins"),
            "authors": ("m", "lee"),
        }
        assert recs[0].id == 0 and recs[0].source == "single"

    def test_empty_cell_still_loads(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title,authors\nData Matching,\n")
        recs = load_csv(p, ["title", "authors"], "single")
        assert recs[0].attributes["authors"] == ()

    def test_row_count_matches_file(self, tmp_path):
        p = tmp_path / "big.csv"
        lines = ["id,title,authors"]
        lines += [f"row{i},paper number {i},author {i}" for i in range(2616)]
        p.write_text("\n".join(lines) + "\n")
        recs = load_csv(p, ["title", "authors"], "a")
        assert len(recs) == 2616

    def test_missing_column_names_it(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\nsomething\n")
        with pytest.raises(DataError, match="authors"):
            load_csv(p, ["title", "authors"], "single")

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title,authors\nok,fine\nonly one field\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, ["title", "authors"], "single")

    def test_unmapped_columns_ignored(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("id,title,junk\nx1,hello world,zzz\n")
        recs = load_csv(p, ["title"], "single")
        assert recs[0].attributes == {"title": ("hello", "world")}

    def test_id_base_offsets_ids(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\na\nb\n")
        recs = load_csv(p, ["title"], "b", id_base=100)
        assert [r.id for r in recs] == [100, 101]

    def test_column_map_and_native_keys(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("pid,the_name\nk7,Ada Lovelace\n")
        result = load_csv_with_keys(
            p, ["name"], "a", column_map={"name": "the_name"}, key_column="pid"
        )
        assert result.records[0].attributes["name"] == ("ada", "lovelace")
        assert result.native_ids == {"k7": 0}

    def test_duplicate_native_key_reports_file_key_and_line(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("pid,name\nx1,ada\nx2,bob\n\nx1,cy\n")
        with pytest.raises(DataError) as err:
            load_csv_with_keys(p, ["name"], "a", key_column="pid")
        message = str(err.value)
        assert str(p) in message and "'x1'" in message and "line 5" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", ["title"], "single")

    def test_blank_interior_lines_skipped(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("title\na\n\nb\n")
        assert len(load_csv(p, ["title"], "single")) == 2


def alias_of(result) -> dict[int, int]:
    """The alias columns as an original id -> canonical id dict."""
    assert (result.ids[1:] > result.ids[:-1]).all()
    return dict(zip(result.ids.tolist(), result.canonical_ids.tolist()))


class TestDeduplicate:
    def test_exact_duplicates_keep_smallest_id(self):
        recs = [make_record(3, title="same thing"), make_record(7, title="same thing")]
        result = deduplicate(recs)
        assert [r.id for r in result.canonical] == [3]
        assert alias_of(result) == {3: 3, 7: 3}

    def test_case_and_punctuation_merge(self):
        # tokenize("John  Smith,") == tokenize("john smith") == (john, smith)
        assert tokenize("John  Smith,") == tokenize("john smith")
        recs = [make_record(0, name="John  Smith,"), make_record(1, name="john smith")]
        result = deduplicate(recs)
        assert len(result.canonical) == 1
        assert alias_of(result) == {0: 0, 1: 0}

    def test_attribute_boundaries_matter(self):
        a = make_record(0, title="a b", authors="c")
        b = make_record(1, title="a", authors="b c")
        assert len(deduplicate([a, b]).canonical) == 2

    def test_thousand_rows_duplicated_four_times(self):
        recs = []
        rid = 0
        for i in range(1000):
            for _ in range(4):
                recs.append(make_record(rid, name=f"person {i}", city=f"town {i % 7}"))
                rid += 1
        result = deduplicate(recs)
        assert len(result.canonical) == 1000
        assert len(alias_of(result)) == 4000

    def test_source_blind(self):
        recs = [make_record(0, "a", name="x y"), make_record(1, "b", name="x y")]
        assert len(deduplicate(recs).canonical) == 1

    def test_idempotent_and_alias_closure(self):
        recs = [
            make_record(0, name="x"), make_record(1, name="x"),
            make_record(2, name="y"), make_record(3, name="z"), make_record(4, name="z"),
        ]
        result = deduplicate(recs)
        assert len(result.canonical) <= len(recs)
        again = deduplicate(result.canonical)
        assert again.canonical == result.canonical
        assert all(v == k for k, v in alias_of(again).items())
        canon_ids = {r.id for r in result.canonical}
        alias = alias_of(result)
        for orig, canon in alias.items():
            assert canon in canon_ids
            assert alias[canon] == canon  # alias of alias is fixed

    def test_alias_columns_ascend_whatever_the_input_order(self):
        recs = [make_record(9, name="x"), make_record(4, name="y"),
                make_record(2, name="x"), make_record(7, name="y")]
        result = deduplicate(recs)
        assert [r.id for r in result.canonical] == [2, 4]
        assert result.ids.tolist() == [2, 4, 7, 9]
        assert result.canonical_ids.tolist() == [2, 4, 4, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate record id"):
            deduplicate([make_record(1, name="a"), make_record(1, name="b")])
