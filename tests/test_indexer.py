import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siglink.indexer import build_index, build_raw_postings, dump_index, subrecord_of
from siglink.sigprob import ProbabilityModel, signature_probability
from siglink.templates import ConsecutiveWords, SignatureTemplate, parse_key

from conftest import make_record


MODEL = ProbabilityModel(a=2, b=0.25)
CW1 = SignatureTemplate(1, (ConsecutiveWords("title", 1),))


def two_street_records():
    return [
        make_record(1, title="victoria street"),
        make_record(2, title="victoria st"),
    ]


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
        index = build_index(two_street_records(), [CW1], MODEL, 0.4)
        by_part = {parse_key(k)[1][0][0]: e for k, e in index.entries.items()}
        assert by_part["victoria"].postings == (1, 2)
        assert by_part["victoria"].p == pytest.approx(0.5)
        assert by_part["street"].postings == (1,)
        assert by_part["street"].p == pytest.approx(1 / 1.5)
        assert by_part["st"].postings == (2,)
        raw = build_raw_postings(two_street_records(), [CW1])
        assert len(raw) == 3
        assert len(raw) - len(index.entries) == 0
        assert max(map(len, raw.values())) == 2
        assert sum(map(len, raw.values())) == 4  # two keys per record

    def test_worked_example_rho_06_prunes_shared_key(self):
        index = build_index(two_street_records(), [CW1], MODEL, 0.6)
        parts = {parse_key(k)[1][0][0] for k in index.entries}
        assert parts == {"street", "st"}
        raw = build_raw_postings(two_street_records(), [CW1])
        assert len(raw) - len(index.entries) == 1
        assert index.k_max == 1

    def test_empty_records_empty_index(self):
        index = build_index([], [CW1], MODEL, 0.4)
        assert index.entries == {}
        assert build_raw_postings([], [CW1]) == {}

    def test_entry_invariants(self):
        records = [make_record(i, title=f"alpha beta w{i % 3}") for i in range(9)]
        index = build_index(records, [CW1], MODEL, 0.05)
        for entry in index.entries.values():
            assert list(entry.postings) == sorted(set(entry.postings))
            assert len(entry.postings) >= 1
            assert len(entry.postings) <= index.k_max
            assert entry.p == signature_probability(MODEL, len(entry.postings))

    def test_posting_containment_mirrors_superrecord_rule(self, rng):
        # For nested consecutive windows, the wider key's postings are a
        # subset of any narrower subrecord key's postings.
        words = ["red", "green", "blue", "gold", "grey"]
        records = [
            make_record(i, title=" ".join(rng.choices(words, k=rng.randint(2, 6))))
            for i in range(40)
        ]
        narrow = SignatureTemplate(1, (ConsecutiveWords("title", 1),))
        wide = SignatureTemplate(2, (ConsecutiveWords("title", 2),))
        index = build_index(records, [narrow, wide], ProbabilityModel(a=2, b=1e-9), 1e-6)
        ones = {k: e for k, e in index.entries.items() if parse_key(k)[0] == 1}
        twos = {k: e for k, e in index.entries.items() if parse_key(k)[0] == 2}
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
        records = [
            make_record(i, title=" ".join(rng.choices(words, k=3))) for i in range(25)
        ]
        rho = 0.45
        pruned = build_index(records, [CW1], MODEL, rho)
        tiny_rho = build_index(records, [CW1], MODEL, 1e-9)
        filtered = {k: e for k, e in tiny_rho.entries.items() if e.p > rho}
        assert {k: (e.postings, e.p) for k, e in pruned.entries.items()} == \
               {k: (e.postings, e.p) for k, e in filtered.items()}

    def test_dump_deterministic_and_sorted(self):
        records = two_street_records()
        outputs = []
        for _ in range(2):
            index = build_index(records, [CW1], MODEL, 0.4)
            buf = io.StringIO()
            assert dump_index(index, buf) == 3
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        keys = [line.split("\t")[0] for line in lines]
        assert keys == sorted(keys)
        fields = lines[0].split("\t")
        assert len(fields) == 3
        float(fields[1])  # probability column parses
