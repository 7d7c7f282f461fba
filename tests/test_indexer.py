import io
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siglink import templates as templates_module
from siglink.columns import layout, width
from siglink.indexer import (
    build_index,
    build_raw_postings,
    dump_index,
    index_from_postings,
    subrecord_of,
)
from siglink.records import RecordTable
from siglink.sigprob import ProbabilityModel, signature_probability
from siglink.templates import (
    ConsecutiveWords,
    ExtractionStats,
    FullAttribute,
    LastDigits,
    RandomWords,
    SignatureTemplate,
    parse_key,
)

from conftest import (
    Caps,
    Record,
    entries_of,
    extract,
    make_record,
    postings_of,
    relabel,
    table_of,
)


MODEL = ProbabilityModel(a=2, b=0.25)
CW1 = SignatureTemplate(1, (ConsecutiveWords("title", 1),))


def two_street_records():
    return table_of([
        make_record(1, title="victoria street"),
        make_record(2, title="victoria st"),
    ])


class TestSubrecordOf:
    def test_word_within_record(self):
        assert subrecord_of(("victoria",), ("victoria", "street"))

    def test_order_matters(self):
        assert not subrecord_of(("st", "george"), ("george", "st"))

    def test_reflexive(self):
        x = ("a", "b", "c")
        assert subrecord_of(x, x)

    def test_gaps_allowed(self):
        assert subrecord_of(("a", "c"), ("a", "b", "c"))

    def test_empty_is_subrecord_of_everything(self):
        assert subrecord_of((), ("a",))

    @given(st.lists(st.sampled_from("abcd"), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=8))
    def test_against_definition(self, s, t):
        # brute force: s is derivable from t by deleting words
        def by_deletion(s, t):
            if not s:
                return True
            if not t:
                return False
            if s[0] == t[0] and by_deletion(s[1:], t[1:]):
                return True
            return by_deletion(s, t[1:])
        assert subrecord_of(tuple(s), tuple(t)) == by_deletion(s, t)


class TestBuildIndex:
    def test_worked_example_rho_04(self):
        # "street" and "st" are each found in one record: counted, not stored.
        index = build_index(two_street_records(), [CW1], MODEL, 0.4)
        by_part = {parse_key(k)[1][0][0]: e for k, e in entries_of(index).items()}
        assert list(by_part) == ["victoria"]
        assert by_part["victoria"].postings == (1, 2)
        assert by_part["victoria"].p == pytest.approx(0.5)
        assert signature_probability(MODEL, 1) == pytest.approx(1 / 1.5)  # "street", "st"
        raw = build_raw_postings(two_street_records(), [CW1])
        assert (len(raw), raw.unstored, raw.keys_seen) == (1, 2, 3)
        assert raw.keys_seen - index.keys_kept == 0
        assert raw.histogram() == [0, 2, 1]
        assert raw.instances == 4  # two keys per record

    def test_worked_example_rho_06_prunes_shared_key(self):
        index = build_index(two_street_records(), [CW1], MODEL, 0.6)
        assert entries_of(index) == {}
        assert index.keys_kept == 2  # "street" and "st", not stored
        raw = build_raw_postings(two_street_records(), [CW1])
        assert raw.keys_seen - index.keys_kept == 1
        assert index.k_max == 1

    def test_empty_records_empty_index(self):
        index = build_index(table_of([]), [CW1], MODEL, 0.4)
        assert entries_of(index) == {}
        assert postings_of(build_raw_postings(table_of([]), [CW1])) == {}

    def test_entry_invariants(self):
        records = table_of([make_record(i, title=f"alpha beta w{i % 3}") for i in range(9)])
        index = build_index(records, [CW1], MODEL, 0.05)
        for entry in entries_of(index).values():
            assert list(entry.postings) == sorted(set(entry.postings))
            assert len(entry.postings) >= 1
            assert len(entry.postings) <= index.k_max
            assert entry.p == signature_probability(MODEL, len(entry.postings))

    def test_posting_containment_mirrors_superrecord_rule(self, rng):
        # For nested consecutive windows, the wider key's postings are a
        # subset of any narrower subrecord key's postings.
        words = ["red", "green", "blue", "gold", "grey"]
        records = table_of([
            make_record(i, title=" ".join(rng.choices(words, k=rng.randint(2, 6))))
            for i in range(40)
        ])
        narrow = SignatureTemplate(1, (ConsecutiveWords("title", 1),))
        wide = SignatureTemplate(2, (ConsecutiveWords("title", 2),))
        index = build_index(records, [narrow, wide], ProbabilityModel(a=2, b=1e-9), 1e-6)
        ones = {k: e for k, e in entries_of(index).items() if parse_key(k)[0] == 1}
        twos = {k: e for k, e in entries_of(index).items() if parse_key(k)[0] == 2}
        checked = 0
        for wk, wide_entry in twos.items():
            wide_part = parse_key(wk)[1][0]
            for nk, narrow_entry in ones.items():
                narrow_part = parse_key(nk)[1][0]
                if subrecord_of(narrow_part, wide_part):
                    checked += 1
                    assert set(wide_entry.postings) <= set(narrow_entry.postings)
        assert checked > 0

    def test_pruning_equivalence(self, rng):
        words = ["u", "v", "w", "x"]
        records = table_of([
            make_record(i, title=" ".join(rng.choices(words, k=3))) for i in range(25)
        ])
        rho = 0.45
        pruned = build_index(records, [CW1], MODEL, rho)
        tiny_rho = build_index(records, [CW1], MODEL, 1e-9)
        filtered = {k: e for k, e in entries_of(tiny_rho).items() if e.p > rho}
        assert entries_of(pruned) == filtered

    def test_dump_deterministic_and_sorted(self):
        # A third record shares "st" and "street", so every key is stored.
        records = table_of([make_record(1, title="victoria street"),
                            make_record(2, title="victoria st"),
                            make_record(3, title="st street")])
        outputs = []
        for _ in range(2):
            index = build_index(records, [CW1], MODEL, 0.4)
            assert index.table.unstored == 0
            buf = io.StringIO()
            assert dump_index(index, buf) == 3
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        keys = [line.split("\t")[0] for line in lines]
        assert keys == sorted(keys) == ["1◦st", "1◦street", "1◦victoria"]
        fields = lines[0].split("\t")
        assert len(fields) == 3
        float(fields[1])  # probability column parses


def per_record_postings(records, templates, caps):
    """The key table the per-record spec ``templates.extract`` gives:
    key -> ascending posting tuple, and the skip counters."""
    stats = ExtractionStats()
    postings: dict[str, list[int]] = {}
    for rec in sorted(records, key=lambda r: r.id):
        keys = set()
        for tpl in templates:
            keys |= extract(tpl, rec, caps, stats)
        for key in keys:
            postings.setdefault(key, []).append(rec.id)
    return {key: tuple(ids) for key, ids in postings.items()}, stats


# Prefix tokens ("ab", "abc"), tokens above the in-part separator U+00B7
# ("é", "éa"), digit tokens for LastDigits, and room for repeats.
_TOKEN = st.sampled_from(["ab", "abc", "b", "é", "éa", "z", "10", "2", "345", "6789"])
_TOKENS = st.lists(_TOKEN, max_size=6).map(tuple)
_ATTR = st.sampled_from(["x", "y"])
_PART = st.one_of(
    st.builds(ConsecutiveWords, _ATTR, st.integers(1, 3)),
    st.builds(RandomWords, _ATTR, st.integers(1, 3)),
    st.builds(FullAttribute, _ATTR),
    st.builds(LastDigits, _ATTR, st.integers(1, 4)),
)
# Ids 2 and 10: "10◦" sorts before "2◦".
_TEMPLATES = st.lists(st.lists(_PART, min_size=1, max_size=3), min_size=1, max_size=3).map(
    lambda part_lists: [SignatureTemplate(tid, tuple(parts))
                        for tid, parts in zip((2, 10, 1), part_lists)])
# Records drawn from a few rows, so that many keys have several postings.
_RECORDS = st.lists(st.tuples(_TOKENS, _TOKENS), min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=12)).map(
    lambda rows: [Record(3 * i + 1, {"x": x, "y": y}) for i, (x, y) in enumerate(rows)])
# Small caps, so that both skip counters fire.
_CAPS = st.builds(Caps, st.integers(1, 8), st.integers(1, 4))


class TestColumnarKeyTable:
    """The columnar build against the per-record spec ``templates.extract``."""

    def check(self, records, templates, caps):
        """The build stores the spec's keys found in two records or more
        and counts the ones found in one."""
        stats = ExtractionStats()
        with caps.patched():
            raw = build_raw_postings(table_of(records), templates, stats)
        expected, expected_stats = per_record_postings(records, templates, caps)
        lengths = Counter(map(len, expected.values()))
        assert postings_of(raw) == {key: ids for key, ids in expected.items() if len(ids) >= 2}
        assert raw.unstored == lengths[1]
        assert raw.keys_seen == len(expected)
        assert raw.histogram() == [lengths[n] for n in range(max(lengths, default=-1) + 1)]
        assert raw.instances == sum(map(len, expected.values()))
        assert stats == expected_stats
        return raw

    @settings(max_examples=150)
    @given(_RECORDS, _TEMPLATES, _CAPS)
    @example(  # "abc·z" < "ab·z" although token "ab" < "abc"
        [Record(i, {"x": ("ab", "abc", "z"), "y": ()}) for i in range(3)],
        [SignatureTemplate(2, (RandomWords("x", 2),))], Caps())
    def test_matches_per_record_extract(self, records, templates, caps):
        self.check(records, templates, caps)

    @given(st.lists(st.tuples(st.lists(_TOKEN, min_size=8, max_size=10).map(tuple),
                              st.lists(_TOKEN, min_size=8, max_size=10).map(tuple)),
                    min_size=1, max_size=6))
    def test_wide_template_takes_the_unpacked_path(self, rows):
        # A vocabulary of 256 tokens makes each token id 8 bits wide, so an
        # n=8 window's ids and its class overflow one int64: the windows
        # are sorted over two words, by ``lexsort``. The record that holds
        # every token is capped; the other rows' windows make the keys.
        every = tuple(f"w{i}" for i in range(256))
        assert 8 * width(len(every)) > 63
        # Token wi is id i. Window v is in two x classes, the first of which
        # also has a window that ends as v does and sorts after it: a sort
        # that ranked a window's last token and class before its first seven
        # would split v's rows, and the key v makes with the one y.
        v, one_y = tuple(f"w{i}" for i in (5, 1, 2, 3, 4, 6, 7, 8)), every[:8]
        rows = [(every, every[::-1]), (("w9", *v[1:], *v), one_y), (v, one_y), *rows]
        # Each row beside a copy, so that its keys are stored.
        records = [Record(i, {"x": x, "y": y}) for i, (x, y) in enumerate(rows + rows)]
        wide = SignatureTemplate(1, (ConsecutiveWords("x", 8), ConsecutiveWords("y", 8)))
        assert len({w for w, _, _ in layout([len(every)] * 8 + [1])}) == 2
        with patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            raw = self.check(records, [wide], Caps(combination_cap=9))
        assert lexsort.called
        assert len(raw) >= 1

    @given(_RECORDS, _TEMPLATES, st.integers(1, 5))
    def test_product_made_in_small_blocks(self, records, templates, block):
        # Blocks of a few rows: most records' copies cross a block's end.
        with patch.object(templates_module, "_BLOCK_ROWS", block):
            self.check(records, templates, Caps())

    @pytest.mark.parametrize("block", [1, 4, 5, 10, 11])
    def test_product_blocks_split_a_record_and_fill_exactly(self, block):
        # Records 0 to 3 hold 3, 3, 2 and 2 shared x tokens, one y value a
        # pair: 10 key rows, record 1's at rows 3 to 5. Blocks of 4 and 5
        # rows end inside record 1's copies; 5 and 10 end at the product's end.
        xs = [("a", "b", "c"), ("a", "b", "c"), ("d", "e"), ("d", "e")]
        records = [Record(i, {"x": x, "y": (f"y{i // 2}",)}) for i, x in enumerate(xs)]
        tokens = SignatureTemplate(1, (RandomWords("x", 1),))
        rows = templates_module.extract(
            tokens, templates_module.RecordColumns(table_of(records), [tokens]), ExtractionStats())
        assert len(rows.words[0]) == 10
        tpls = [tokens, SignatureTemplate(2, (FullAttribute("y"), RandomWords("x", 1))),
                SignatureTemplate(3, (RandomWords("x", 1), FullAttribute("y")))]
        with patch.object(templates_module, "_BLOCK_ROWS", block):
            raw = self.check(records, tpls, Caps())
        assert raw.keys_seen == 5 + 5 + 5

    def test_key_rows_over_two_words(self):
        # Six whole attributes of about 1,000 values each are six 10-bit
        # codes; with the record row they overflow one int64, so the
        # product writes two words and the build sorts them by ``lexsort``.
        # Records come in pairs that share a1..a6, rows apart, and z
        # keeps the two distinct; an unpaired record's keys are its own.
        draw = np.random.default_rng(7).integers
        attrs = [f"a{k}" for k in range(1, 7)]
        records = []
        for i in range(1400):
            values = {attr: (f"v{draw(1000)}",) for attr in attrs}
            copies = 1 if i % 7 == 0 else 2
            records += [Record(10_000 * c + i, {**values, "z": (f"r{c}",)})
                        for c in range(copies)]
        wide = SignatureTemplate(1, tuple(FullAttribute(attr) for attr in attrs))
        table = table_of(records)
        sizes = [len(table.columns[attr]) for attr in attrs] + [len(table)]
        assert [w for w, _, _ in layout(sizes)] == [0] * 6 + [1]
        with patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            raw = self.check(records, [wide], Caps())
        assert lexsort.called
        assert len(raw) >= 1000 and raw.unstored >= 150


# Two sources, ids from 0 and from 1000. Each record takes its x and its
# y from small pools, drawn apart, so that records share values without
# sharing each combination of them; a record may add to x a token of its
# own, a value that no other record has.
_TWO_SOURCES = st.tuples(st.lists(_TOKENS, min_size=1, max_size=3),
                         st.lists(_TOKENS, min_size=1, max_size=3)).flatmap(
    lambda pools: st.lists(st.tuples(st.sampled_from(pools[0]), st.sampled_from(pools[1]),
                                     st.booleans(), st.booleans()), max_size=12)).map(
    lambda rows: [Record(1000 * b + i, {"x": x + (f"u{i}",) * own, "y": y})
                  for i, (x, y, own, b) in enumerate(rows)])


class TestKeysFoundInOneRecord:
    """A key found in one record, through a value or a combination of
    values no other record has, is counted and not stored; pruning
    counts it as a key of posting length 1."""

    @given(_TWO_SOURCES, _TEMPLATES, _CAPS)
    @example(  # "10" is r1's alone (r1002 is capped); r1001 alone has z◦2
        [Record(1, {"x": ("ab", "z"), "y": ("10",)}), Record(2, {"x": ("ab",), "y": ("2",)}),
         Record(1001, {"x": ("ab", "z"), "y": ("2",)}),
         Record(1002, {"x": ("ab", "z", "b"), "y": ("10",)})],
        [SignatureTemplate(2, (ConsecutiveWords("x", 1), FullAttribute("y")))],
        Caps(combination_cap=2))
    def test_stored_keys_are_the_specs_keys_in_two_records(self, records, templates, caps):
        with caps.patched():
            raw = build_raw_postings(table_of(records), templates)
        expected, _ = per_record_postings(records, templates, caps)
        shared = {key: ids for key, ids in expected.items() if len(ids) >= 2}
        assert postings_of(raw) == shared
        assert raw.unstored == len(expected) - len(shared)
        # p(1) = 2/3 and p(2) = 1/2: rho 0.7 keeps no key, rho 0.6 the
        # keys in one record.
        for rho, k_max in ((0.7, 0), (0.6, 1)):
            index = index_from_postings(raw, MODEL, rho)
            assert index.k_max == k_max
            assert index.keys_kept == sum(len(ids) <= k_max for ids in expected.values())


class TestVocabularyOrder:
    """Token ids only label tokens: no key and no posting depends on the
    order of an attribute's vocabulary."""

    @given(_RECORDS, _TEMPLATES, _CAPS, st.integers(0, 2**32 - 1))
    @example([Record(0, {"x": ("b", "a", "z"), "y": ("10", "2")})],
             [SignatureTemplate(2, (RandomWords("x", 2), LastDigits("y", 2)))],
             Caps(), 0)
    def test_relabelled_vocabulary_keeps_keys_and_postings(self, records, templates, caps,
                                                          seed):
        table = table_of(records)
        with caps.patched():
            want = build_raw_postings(table, templates)
            # Reversal swaps every pair of tokens; a seeded shuffle mixes them.
            shuffle = np.random.default_rng(seed).permutation
            for order in (lambda n: np.arange(n)[::-1], shuffle):
                columns = {attr: relabel(col, order(len(col.vocab)))
                           for attr, col in table.columns.items()}
                got = build_raw_postings(RecordTable(table.ids, table.classes, columns),
                                         templates)
                assert postings_of(got) == postings_of(want)
                assert len(got) == len(want)


def dump_from_entries(index) -> str:
    """``index.tsv`` spelled from the ``InvertedIndex.entries`` view."""
    return "".join(f"{key}\t{entry.p!r}\t{','.join(str(i) for i in entry.postings)}\n"
                   for key, entry in sorted(index.entries.items()))


class TestDumpFromColumns:
    """``dump_index`` writes from the key table's columns; the
    ``entries`` view, which the benchmark's tracer reads, spells the
    same lines."""

    @given(_RECORDS, _TEMPLATES, _CAPS, st.floats(1.5, 8.0), st.floats(0.01, 2.0),
           st.floats(0.01, 0.9))
    def test_matches_entries_view(self, records, templates, caps, a, b, rho):
        with caps.patched():
            raw = build_raw_postings(table_of(records), templates)
        index = index_from_postings(raw, ProbabilityModel(a=a, b=b), rho)
        buf = io.StringIO()
        assert dump_index(index, buf) == len(index.entries)
        assert buf.getvalue() == dump_from_entries(index)
