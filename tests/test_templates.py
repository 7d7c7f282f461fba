from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siglink import templates
from siglink.columns import layout
from siglink.errors import ConfigError
from siglink.indexer import build_raw_postings
from siglink.records import TokenColumn
from siglink.templates import (
    ConsecutiveWords,
    ExtractionStats,
    FullAttribute,
    LastDigits,
    RandomWords,
    SignatureTemplate,
    parse_key,
    validate_config,
)

from conftest import Record, extract, make_record, postings_of, product_keys, table_of


def keys_without_prefix(keys):
    return {k.split("◦", 1)[1] for k in keys}


class TestExtract:
    """Hand cases through the columnar build, keys spelled by
    ``KeyTable.key_strings``."""

    def test_consecutive_words_window(self):
        rec = make_record(0, title="scalable entity resolution using")
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 3),))
        assert keys_without_prefix(product_keys(tpl, rec)) == {
            "scalable·entity·resolution",
            "entity·resolution·using",
        }

    def test_random_words_all_sorted_combinations(self):
        rec = make_record(0, name="john james duncan")
        tpl = SignatureTemplate(1, (RandomWords("name", 2),))
        assert keys_without_prefix(product_keys(tpl, rec)) == {
            "james·john", "duncan·john", "duncan·james",
        }

    def test_composite_name_plus_phone_digits(self):
        rec = make_record(0, name="mary poppins", phone="0261234567")
        tpl = SignatureTemplate(1, (RandomWords("name", 2), LastDigits("phone", 6)))
        assert keys_without_prefix(product_keys(tpl, rec)) == {
            "mary·poppins◦234567",
        }

    def test_last_digits_concatenates_digit_tokens(self):
        rec = make_record(0, phone="(02) 6123-4567")
        tpl = SignatureTemplate(1, (LastDigits("phone", 6),))
        assert keys_without_prefix(product_keys(tpl, rec)) == {"234567"}

    def test_last_digits_too_short_yields_nothing(self):
        rec = make_record(0, phone="123")
        tpl = SignatureTemplate(1, (LastDigits("phone", 6),))
        assert product_keys(tpl, rec) == set()

    def test_full_attribute(self):
        rec = make_record(0, addr="12 victoria street")
        tpl = SignatureTemplate(4, (FullAttribute("addr"),))
        assert product_keys(tpl, rec) == {"4◦12·victoria·street"}

    def test_empty_part_kills_whole_template(self):
        rec = make_record(0, name="mary poppins", phone="")
        tpl = SignatureTemplate(1, (RandomWords("name", 2), LastDigits("phone", 6)))
        assert product_keys(tpl, rec) == set()

    def test_short_attribute_yields_nothing(self):
        rec = make_record(0, title="single")
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 3),))
        assert product_keys(tpl, rec) == set()

    def test_combination_cap_skips_and_counts(self):
        rec = make_record(0, a="one two three four five six", b="u v w x y z")
        tpl = SignatureTemplate(1, (RandomWords("a", 2), RandomWords("b", 2)))
        stats = ExtractionStats()
        # 15 * 15 = 225 combinations > cap of 64
        assert product_keys(tpl, rec, stats=stats) == set()
        assert stats.cap_skipped == 1
        with patch.object(templates, "COMBINATION_CAP", 300):
            assert len(product_keys(tpl, rec)) == 225

    def test_random_words_long_attribute_skipped(self):
        rec = make_record(0, name=" ".join(f"w{i}" for i in range(13)))
        tpl = SignatureTemplate(1, (RandomWords("name", 2),))
        stats = ExtractionStats()
        assert product_keys(tpl, rec, stats=stats) == set()
        assert stats.long_attr_random_skips == 1

    def test_duplicate_keys_collapse(self):
        rec = make_record(0, title="ha ha ha")
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 2),))
        assert product_keys(tpl, rec) == {"1◦ha·ha"}

    def test_deterministic(self):
        rec = make_record(0, name="a b c d", phone="0412345678")
        tpl = SignatureTemplate(9, (RandomWords("name", 2), LastDigits("phone", 4)))
        assert product_keys(tpl, rec) == product_keys(tpl, rec)

    def test_same_text_different_template_ids_do_not_collide(self):
        rec = make_record(0, title="victoria street")
        t1 = SignatureTemplate(1, (ConsecutiveWords("title", 2),))
        t2 = SignatureTemplate(2, (ConsecutiveWords("title", 2),))
        assert product_keys(t1, rec) != product_keys(t2, rec)

    def test_consecutive_keys_are_subsequences_of_attribute(self):
        rec = make_record(0, title="a b c d e")
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 3),))
        toks = rec.attributes["title"]
        for key in product_keys(tpl, rec):
            _, (part,) = parse_key(key)
            it = iter(toks)
            assert all(t in it for t in part)


class TestExtractorSizes:
    """Each sized extractor rejects a size below 1 when it is built, in
    library code as in a config."""

    @pytest.mark.parametrize("kind, size", [(ConsecutiveWords, "n"), (RandomWords, "k"),
                                            (LastDigits, "d")],
                             ids=["consecutive_words", "random_words", "last_digits"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_size_below_one_rejected(self, kind, size, value):
        with pytest.raises(ConfigError, match=f"on 'phone': {size} must be >= 1, got {value}"):
            kind("phone", value)


# Digit tokens of several lengths, tokens that hold non-ASCII digits
# (which LastDigits skips) and tokens that are not digits at all.
_PHONE_TOKENS = st.lists(st.sampled_from(["0", "12", "345", "67890", "²", "٣", "1²", "٣4",
                                          "𝟙", "𝟙2", "a9", "x"]), max_size=4).map(tuple)


class TestLastDigitsAgainstSpec:
    """The whole-column ``LastDigits`` against the per-record spec in
    ``conftest``, over many records at once."""

    @given(st.lists(_PHONE_TOKENS, max_size=10), st.integers(1, 12))  # d > 10 takes two words
    @example([("12", "345"), ("67890", "0", "12")], 4)  # several digit tokens
    @example([("²", "12", "٣"), ("1²", "345"), ("٣4", "a9", "0")], 2)  # non-ASCII digits
    @example([("12",), ("0", "x"), ("67890",)], 6)  # fewer than d digits
    @example([(), ("345",), ()], 1)  # empty attributes
    def test_matches_per_record_extract(self, phones, d):
        # Each record beside an identical copy: every key is found in
        # two records or more, so the build stores every key.
        records = [Record(i, {"phone": toks}) for i, toks in enumerate(phones + phones)]
        tpl = SignatureTemplate(1, (LastDigits("phone", d),))
        expected: dict[str, list[int]] = {}
        for rec in records:
            for key in extract(tpl, rec):
                expected.setdefault(key, []).append(rec.id)
        raw = build_raw_postings(table_of(records), [tpl])
        assert postings_of(raw) == {key: tuple(ids) for key, ids in expected.items()}


def column_of(classes, size):
    """A ``TokenColumn`` whose class i holds the token ids ``classes[i]``,
    over a vocabulary of ``size`` tokens."""
    offsets = np.concatenate(([0], np.cumsum([len(ids) for ids in classes]))).astype(np.int64)
    ids = np.array([tok for ids in classes for tok in ids], dtype=np.int64)
    return TokenColumn(offsets, ids, "\n".join(f"t{i}" for i in range(size)))


def windows_by_class(classes, n):
    """Brute force, per class: the distinct windows of ``n`` token ids in
    token-id order, and the (class, code) rows, a code being a window's
    rank among them, sorted by class and then code."""
    windows = [{tuple(ids[i:i + n]) for i in range(len(ids) - n + 1)} for ids in classes]
    distinct = sorted(set().union(*windows))
    code = {window: c for c, window in enumerate(distinct)}
    return distinct, sorted((c, code[w]) for c, held in enumerate(windows) for w in held)


# Classes over one token or three, so that windows repeat, or over 300,
# whose ids take 9 bits: eight of them and the class need two words.
_WINDOW_CLASSES = st.sampled_from([1, 3, 300]).flatmap(lambda size: st.tuples(
    st.lists(st.lists(st.integers(0, size - 1), max_size=10), max_size=8), st.just(size)))
_TWO_WORDS = ([[*range(9)], [], [5], [*range(8)], [*range(1, 9)], [*range(9)] * 2], 300)


class TestConsecutiveWordsAgainstOracle:
    """``ConsecutiveWords.rows``, which packs each window into the words
    it sorts, against the windows of each class found one by one."""

    def check(self, classes, size, n):
        col = column_of(classes, size)
        rows = ConsecutiveWords("x", n).rows(col)
        distinct, expected = windows_by_class(classes, n)
        assert rows.distinct.values.shape == (len(distinct), n)
        assert list(map(tuple, rows.distinct.values.tolist())) == distinct
        assert rows.distinct.text == col.vocab and rows.too_long is None
        assert list(zip(rows.rec.tolist(), rows.code.tolist())) == expected

    @given(_WINDOW_CLASSES, st.integers(1, 8))
    @example(([[0, 1, 0, 1, 0], [1, 0], [], [0]], 3), 1)  # n = 1, an empty class
    @example(([[2, 2], [0, 1, 2], [], [1]], 3), 3)  # classes shorter than n
    @example(_TWO_WORDS, 8)
    def test_matches_per_class_windows(self, column, n):
        self.check(*column, n)

    def test_two_word_windows_are_sorted_by_lexsort(self):
        classes, size = _TWO_WORDS
        assert [w for w, _, _ in layout([size] * 8 + [len(classes)])] == [0] * 7 + [1] * 2
        with patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            self.check(classes, size, 8)
        assert lexsort.called


token_strategy = st.text(alphabet="abcxyz0123456789", min_size=1, max_size=5)


class TestKeyEncoding:
    @given(st.integers(0, 99), st.lists(
        st.lists(token_strategy, min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=3,
    ))
    def test_round_trip(self, tid, parts):
        # one full-attribute part per attribute spells each part verbatim
        parts = tuple(parts)
        rec = Record(0, {f"a{i}": part for i, part in enumerate(parts)})
        tpl = SignatureTemplate(tid, tuple(FullAttribute(f"a{i}") for i in range(len(parts))))
        [key] = product_keys(tpl, rec)
        assert parse_key(key) == (tid, parts)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_key("no separators here")


class TestValidateConfig:
    schema = ["title", "authors"]

    def test_unknown_attribute_is_error(self):
        tpl = SignatureTemplate(1, (ConsecutiveWords("venue", 2),))
        result = validate_config([tpl], self.schema)
        assert not result.ok
        assert any("venue" in e for e in result.errors)

    def test_empty_template_list_is_error(self):
        assert not validate_config([], self.schema).ok

    def test_zero_part_template_is_error(self):
        # Refused where it is made, so no library call can be given one.
        with pytest.raises(ConfigError, match="template 1 has no parts"):
            SignatureTemplate(1, ())

    def test_duplicate_ids_are_error(self):
        tpls = [
            SignatureTemplate(1, (ConsecutiveWords("title", 2),)),
            SignatureTemplate(1, (ConsecutiveWords("authors", 2),)),
        ]
        assert any("duplicate" in e for e in validate_config(tpls, self.schema).errors)

    def test_single_word_part_warns(self):
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 1),))
        result = validate_config([tpl], self.schema)
        assert result.ok
        assert any("distinctive" in w for w in result.warnings)

    def test_long_template_warns(self):
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 5), RandomWords("authors", 3)))
        result = validate_config([tpl], self.schema)
        assert result.ok
        assert any("shorten" in w for w in result.warnings)

    def test_non_positive_size_is_error(self):
        with pytest.raises(ConfigError, match="n must be >= 1, got 0"):
            SignatureTemplate(1, (ConsecutiveWords("title", 0),))

    def test_clean_config_passes_quietly(self):
        tpl = SignatureTemplate(1, (ConsecutiveWords("title", 3),))
        result = validate_config([tpl], self.schema)
        assert result.ok and not result.warnings
