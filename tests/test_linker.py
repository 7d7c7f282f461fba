import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siglink.cc import connected_components, oracle_components
from siglink.errors import ConfigError
from siglink.indexer import build_index
from siglink.linker import (
    JaccardVerifier,
    combine_pairs,
    edges,
    eliminate,
    finalize,
    group_pairs,
    make_verifier,
    verify_pairs,
)
from siglink.sigprob import ProbabilityModel, signature_probability
from siglink.templates import (
    ConsecutiveWords,
    FullAttribute,
    LastDigits,
    RandomWords,
    SignatureTemplate,
)

from conftest import (
    Record,
    brute_force_links,
    combine,
    evidence_by_id,
    index_of,
    jaccard_oracle,
    links_by_id,
    make_record,
    table_of,
)


def product(ps) -> float:
    """1 - prod(1 - p), multiplied in the order given."""
    prod = 1.0
    for p in ps:
        prod *= 1.0 - p
    return 1.0 - prod


class TestGroupPairs:
    def test_all_pairs_from_entry(self):
        idx = index_of(("1◦x", (1, 2, 3), 0.6))
        assert list(group_pairs(idx)) == [(0, 1), (0, 2), (1, 2)]  # rows
        groups = evidence_by_id(group_pairs(idx))
        assert list(groups) == [(1, 2), (1, 3), (2, 3)]
        assert all(r_i < r_j for r_i, r_j in groups)
        assert all(evidence == [("1◦x", 0.6)] for evidence in groups.values())

    def test_single_posting_yields_nothing(self):
        idx = index_of(("1◦x", (5,), 0.9))
        assert group_pairs(idx) == {}

    def test_cross_source_filter(self):
        idx = index_of(("1◦x", (1, 2, 9), 0.5))
        assert idx.table.ids.tolist() == [1, 2, 9]
        groups = evidence_by_id(group_pairs(idx, source=np.array([0, 0, 1])))
        assert list(groups) == [(1, 9), (2, 9)]

    def test_rows_ascend_in_p_whatever_the_key_strings(self):
        # Probabilities of keys seen in 4, 5 and 7 records: their float
        # product depends on the order it is taken in, and the keys'
        # string order is descending p.
        model = ProbabilityModel(a=4.0, b=0.005)
        rows = [(f"1◦k{k}", signature_probability(model, k)) for k in (4, 5, 7)]
        ascending = rows[::-1]
        assert product(p for _, p in ascending).hex() != product(p for _, p in rows).hex()
        idx = index_of(*((key, (3, 8), p) for key, p in rows))
        evidence = evidence_by_id(group_pairs(idx))[(3, 8)]
        assert evidence == ascending
        assert combine(rows) == combine(evidence) == product(p for _, p in ascending)
        [link] = combine_pairs(group_pairs(idx))
        assert link.evidence_count == 3
        assert link.probability.hex() == product(p for _, p in ascending).hex()


    def test_evidence_outlives_the_key_table(self):
        # The evidence keeps the key table's names, not its postings: once
        # the index and its key table are deleted it reads as before.
        table = table_of([make_record(i, name=name) for i, name in enumerate(
            ["ann bo cy", "ann bo", "bo cy ann", "cy dee", "dee cy bo", "ann"])])
        templates = [SignatureTemplate(1, (RandomWords("name", 2),)),
                     SignatureTemplate(2, (ConsecutiveWords("name", 1),))]
        index = build_index(table, templates, ProbabilityModel(a=2, b=0.25), rho=0.1)
        expected = dict(group_pairs(index).items())
        groups = group_pairs(index)
        key_table = weakref.ref(index.table)
        del index
        gc.collect()
        assert key_table() is None
        assert dict(groups.items()) == expected
        assert {key for rows in expected.values() for key, _ in rows} >= {"1◦ann·bo", "2◦cy"}


class TestEliminate:
    def test_subrecord_key_dropped_within_template(self):
        short = ("1◦victoria", 0.5)
        long = ("1◦victoria·street", 0.8)
        assert eliminate([short, long]) == [long]

    def test_cross_template_keys_incomparable(self):
        a = ("2◦smith·st", 0.5)
        b = ("5◦smith", 0.6)
        assert eliminate([a, b]) == [a, b]

    def test_single_tuple_unchanged(self):
        t = ("1◦x", 0.5)
        assert eliminate([t]) == [t]

    def test_chain_keeps_only_maximal(self):
        t1 = ("1◦a", 0.1)
        t2 = ("1◦a·b", 0.2)
        t3 = ("1◦a·b·c", 0.3)
        assert eliminate([t1, t2, t3]) == [t3]

    def test_per_part_comparison(self):
        # second part not nested, so neither key dominates
        a = ("1◦a◦x", 0.5)
        b = ("1◦a·b◦y", 0.6)
        assert eliminate([a, b]) == [a, b]

    def test_removed_always_have_surviving_superrecord(self, rng):
        vocab = ["p", "q", "r", "s"]
        for _ in range(200):
            rows = []
            for i in range(rng.randint(2, 7)):
                tid = rng.randint(1, 2)
                part = tuple(rng.choices(vocab, k=rng.randint(1, 4)))
                rows.append((f"{tid}◦{'·'.join(part)}", 0.5))
            survivors = eliminate(rows)
            assert set(survivors) <= set(rows)
            from siglink.linker import _strict_subrecord_key
            from siglink.templates import parse_key
            for t in rows:
                dominated_by_survivor = any(
                    s[0] != t[0] and _strict_subrecord_key(parse_key(t[0]), parse_key(s[0]))
                    for s in survivors
                )
                if t in survivors:
                    assert not dominated_by_survivor
                else:
                    assert dominated_by_survivor


# Few tokens, so records share many keys; digit tokens feed LastDigits.
_TOKENS = st.lists(st.sampled_from(["ann", "bo", "cy", "12", "345", "6789"]),
                   max_size=5).map(tuple)
_ATTRS = st.sampled_from(["x", "y"])
_PART = st.one_of(
    st.builds(ConsecutiveWords, _ATTRS, st.integers(1, 3)),
    st.builds(RandomWords, _ATTRS, st.integers(1, 3)),
    st.builds(FullAttribute, _ATTRS),
    st.builds(LastDigits, _ATTRS, st.integers(1, 4)),
)
_TEMPLATES = st.lists(st.lists(_PART, min_size=1, max_size=3), min_size=1, max_size=3).map(
    lambda part_lists: [SignatureTemplate(i + 1, tuple(parts))
                        for i, parts in enumerate(part_lists)]
)
_RECORDS = st.lists(st.tuples(_TOKENS, _TOKENS), min_size=2, max_size=8).map(
    lambda rows: [Record(i, {"x": x, "y": y}) for i, (x, y) in enumerate(rows)]
)


class TestNoNestingInvariant:
    """The extractor protocol (see ``templates``) is why the link path
    skips elimination: on evidence produced by extraction, the paper's
    rule never removes anything."""

    @settings(max_examples=200)
    @given(_RECORDS, _TEMPLATES)
    def test_eliminate_is_identity_on_extracted_evidence(self, records, templates):
        # rho this low keeps every key the eight records can share
        index = build_index(table_of(records), templates,
                            ProbabilityModel(a=1.5, b=0.01), rho=0.01)
        for evidence in group_pairs(index).values():
            assert eliminate(evidence) == evidence


def combined(rows) -> float:
    """The probability of the one link ``combine_pairs`` makes of
    ``rows``, ``(key, p)`` pairs whose keys records 0 and 1 share."""
    [link] = combine_pairs(group_pairs(index_of(*((key, (0, 1), p) for key, p in rows))))
    return link.probability


class TestCombine:
    def test_two_values(self):
        rows = [("1◦a", 0.6), ("1◦b", 0.5)]
        assert combined(rows) == pytest.approx(0.8)

    def test_single_is_identity(self):
        assert combined([("1◦a", 0.9)]) == pytest.approx(0.9)

    def test_ten_halves(self):
        rows = [(f"1◦k{i}", 0.5) for i in range(10)]
        assert combined(rows) == 1 - 2**-10

    def test_commutative(self, rng):
        rows = [(f"1◦k{i}", rng.random() * 0.9 + 0.05) for i in range(6)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert combined(rows) == pytest.approx(combined(shuffled))

    def test_monotone_in_evidence(self):
        base = [("1◦a", 0.4)]
        more = base + [("1◦b", 0.3)]
        assert combined(more) >= combined(base)


def link_table(pairs) -> np.recarray:
    """A link table of the row ``pairs``, every link verified."""
    r_i = np.array([i for i, _ in pairs], dtype=np.int64)
    r_j = np.array([j for _, j in pairs], dtype=np.int64)
    return np.rec.fromarrays(
        [r_i, r_j, np.ones(len(pairs)), np.ones(len(pairs), dtype=np.int64),
         np.ones(len(pairs), dtype=bool)],
        names=["r_i", "r_j", "probability", "evidence_count", "verified"])


def verdicts(verifier, records, pairs) -> list[bool]:
    """``verify_pairs``' ``verified`` column over a link table of the id
    ``pairs``, each id turned into its row of the table of ``records``
    (a ``Record`` list)."""
    table = table_of(records)
    row = {rid: r for r, rid in enumerate(table.ids.tolist())}
    links = link_table([(row[i], row[j]) for i, j in pairs])
    return verify_pairs(links, verifier, table).verified.tolist()


class TestVerifiers:
    def test_jaccard_identical(self):
        r = make_record(0, name="alpha beta")
        assert verdicts(JaccardVerifier(1.0), [r], [(0, 0)]) == [True]

    def test_jaccard_disjoint(self):
        records = [make_record(0, name="alpha"), make_record(1, name="beta")]
        assert verdicts(JaccardVerifier(0.01), records, [(0, 1)]) == [False]

    def test_jaccard_half(self):
        records = [make_record(0, name="a b c"), make_record(1, name="b c d")]
        assert verdicts(JaccardVerifier(0.5), records, [(0, 1)]) == [True]
        assert verdicts(JaccardVerifier(0.51), records, [(0, 1)]) == [False]

    def test_jaccard_threshold_range(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigError, match=r"\[0, 1\]"):
                JaccardVerifier(bad)

    def test_exact_boundary_accepted(self):
        # 3 shared of 5 distinct tokens: 3 / 5 is the float 0.6
        records = [make_record(0, name="a b c d"), make_record(1, name="a b c e")]
        assert verdicts(make_verifier("jaccard:0.6"), records, [(0, 1)]) == [True]

    def test_token_in_two_attributes_counts_once(self):
        # {ann, bo} against {ann}: 1 / 2, not 1 / 3 as (attribute, token) sets give
        records = [Record(0, {"x": ("ann",), "y": ("ann", "bo")}),
                   Record(1, {"x": ("ann",), "y": ()})]
        assert verdicts(JaccardVerifier(0.5), records, [(0, 1)]) == [True]

    def test_two_empty_records_are_identical(self):
        records = [Record(4, {"x": ()}), Record(7, {"x": ()})]
        assert verdicts(JaccardVerifier(1.0), records, [(4, 7)]) == [True]

    def test_empty_link_table(self):
        assert verdicts(JaccardVerifier(0.5), [make_record(0, x="a")], []) == []

    def test_missing_endpoint_raises(self):
        table = table_of([make_record(0, x="a")])
        for row in (9, -1):
            with pytest.raises(IndexError, match=f"link row {row} "):
                verify_pairs(link_table([(0, row)]), JaccardVerifier(0.5), table)

    def test_make_verifier_specs(self):
        assert make_verifier("none") is None
        assert make_verifier(None) is None
        v = make_verifier("jaccard:0.5")
        assert v == JaccardVerifier(0.5)
        records = [make_record(0, x="a b"), make_record(1, x="a b")]
        assert verdicts(v, records, [(0, 1)]) == [True]
        with pytest.raises(ConfigError):
            make_verifier("nope:1")
        for bare in ("jaccard", "jaccard:"):
            with pytest.raises(ConfigError, match="needs a threshold"):
                make_verifier(bare)
        with pytest.raises(ConfigError, match="not a number"):
            make_verifier("jaccard:half")


class TestFinalize:
    def test_boundary_tau_is_strict(self):
        idx = index_of(("1◦a", (1, 2), 0.8))
        assert len(finalize(idx, tau=0.8)) == 0
        links = finalize(idx, tau=0.79)
        assert len(links) == 1
        assert links[0].probability == pytest.approx(0.8)
        assert links[0].evidence_count == 1

    def test_verifier_rejects_low_overlap(self):
        # records share 1 of their 10 distinct tokens each: J = 1/19 < 0.3
        rec_a = make_record(1, text="shared a1 a2 a3 a4 a5 a6 a7 a8 a9")
        rec_b = make_record(2, text="shared b1 b2 b3 b4 b5 b6 b7 b8 b9")
        idx = index_of(("1◦shared", (1, 2), 0.95))
        records = table_of([rec_a, rec_b])
        accepted = finalize(idx, tau=0.5, verifier=JaccardVerifier(0.3),
                            records=records)
        assert len(accepted) == 0
        relaxed = finalize(idx, tau=0.5, verifier=JaccardVerifier(0.05),
                           records=records)
        assert len(relaxed) == 1

    def test_output_sorted_and_deterministic(self):
        idx = index_of(
            ("1◦a", (5, 9), 0.9),
            ("1◦b", (1, 9), 0.9),
            ("1◦c", (1, 2), 0.9),
        )
        links = finalize(idx, tau=0.5)
        assert [link[:2] for link in links_by_id(links, idx.table)] == [(1, 2), (1, 9), (5, 9)]
        assert links.tolist() == finalize(idx, tau=0.5).tolist()

    def test_tau_out_of_range(self):
        idx = index_of(("1◦a", (1, 2), 0.9))
        with pytest.raises(ConfigError):
            finalize(idx, tau=1.0)


# Probabilities anywhere in (0, 1), and within 1e-12 of either end.
_P = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               st.floats(0.0, 1e-12, exclude_min=True),
               st.floats(1.0 - 1e-12, 1.0, exclude_max=True))
_KEY = st.text("ab·◦12", min_size=1, max_size=4)
# The smallest positive float: a tau that every nonzero probability passes.
_TINY = 5e-324


class TestLinkTable:
    """``finalize``'s table equals a per-pair reference over the
    ``group_pairs`` mapping view, row for row and bit for bit."""

    @settings(max_examples=200)
    @given(entries=st.dictionaries(_KEY,
                                   st.tuples(st.sets(st.integers(0, 9), min_size=1,
                                                     max_size=6), _P),
                                   max_size=8),
           codes=st.none() | st.lists(st.integers(0, 2), min_size=10, max_size=10),
           tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(entries={}, codes=None, tau=0.5)
    @example(entries={"1◦a": ({1, 2, 3}, 0.3)}, codes=[0, 0, 1] + [0] * 7, tau=0.9)
    def test_matches_per_pair_reference(self, entries, codes, tau):
        idx = index_of(*((key, tuple(sorted(ids)), p)
                         for key, (ids, p) in entries.items()))
        ids = idx.table.ids
        source = None if codes is None else np.array(codes)[ids]
        expected = [
            (r_i, r_j, combine(evidence), len(evidence), True)
            for (r_i, r_j), evidence in sorted(evidence_by_id(group_pairs(idx)).items())
            if (codes is None or codes[r_i] != codes[r_j]) and combine(evidence) > tau
        ]
        links = finalize(idx, tau, source=source)
        assert links_by_id(links, idx.table) == expected
        labels = connected_components(edges(links), len(ids))
        oracle = oracle_components([row[:2] for row in expected], nodes=ids.tolist())
        assert dict(zip(ids.tolist(), ids[labels].tolist())) == oracle

    # Keys seen in 4, 5 and 7 records, renamed so that their string
    # order turns from descending to ascending p and listed in reverse.
    _MODEL = ProbabilityModel(a=4.0, b=0.005)

    @settings(max_examples=200)
    @given(rows=st.lists(st.tuples(_KEY, _KEY, st.sets(st.integers(0, 5), min_size=2, max_size=5),
                                   _P, st.integers(0, 7)),
                         max_size=8, unique_by=(lambda row: row[0], lambda row: row[1])))
    @example(rows=[("1◦k4", "c", {3, 8}, signature_probability(_MODEL, 4), 2),
                   ("1◦k5", "b", {3, 8}, signature_probability(_MODEL, 5), 1),
                   ("1◦k7", "a", {3, 8}, signature_probability(_MODEL, 7), 0)])
    def test_bits_independent_of_key_names_and_entry_order(self, rows):
        """Renaming the keys injectively and shuffling the entries leave
        every link's bits as they were, equal to the per-pair product
        of its probabilities in ascending order (``combine``)."""
        def links(name, entries):
            idx = index_of(*((row[name], tuple(sorted(row[2])), row[3])
                             for row in entries))
            return links_by_id(finalize(idx, tau=_TINY), idx.table)

        shuffled = sorted(rows, key=lambda row: row[4])
        assert links(1, shuffled) == links(0, rows)
        ids = sorted(set().union(*(row[2] for row in rows)))
        expected = []
        for r_i, r_j in itertools.combinations(ids, 2):
            evidence = [(row[0], row[3]) for row in rows if {r_i, r_j} <= row[2]]
            if evidence and combine(evidence) > _TINY:
                expected.append((r_i, r_j, combine(evidence), len(evidence), True))
        assert links(0, rows) == expected


# Tokens that are unicode, digits, or shared between the two attributes.
_WORDS = st.sampled_from(["ann", "bo", "straße", "οδος", "ǆ", "٣4", "12", "é"])
_ROW = st.fixed_dictionaries({"x": st.lists(_WORDS, max_size=4).map(tuple),
                              "y": st.lists(_WORDS, max_size=4).map(tuple)})
_THRESHOLD = st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.6, 1 / 3, 2 / 3, 0.75]),
                       st.floats(0.0, 1.0))


class TestJaccardAgainstOracle:
    """``verify_pairs`` on the record table equals the per-pair
    ``jaccard_oracle`` over ``Record``s, for every pair."""

    @settings(max_examples=200)
    @given(rows=st.lists(_ROW, min_size=1, max_size=6),
           picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
           threshold=_THRESHOLD)
    # 3 / 5 at 0.6: a boundary that ">" would reject
    @example(rows=[{"x": ("ann", "bo", "12"), "y": ("é",)},
                   {"x": ("ann", "bo", "12"), "y": ("ǆ",)}],
             picks=[(0, 1)], threshold=0.6)
    # one token in both attributes: 1 / 2 as one set, 1 / 3 per attribute
    @example(rows=[{"x": ("ann",), "y": ("ann", "bo")}, {"x": ("ann",), "y": ()}],
             picks=[(0, 1)], threshold=0.5)
    # two empty records pass at 1; an empty and a non-empty record score 0
    @example(rows=[{"x": (), "y": ()}, {"x": (), "y": ()}, {"x": ("bo",), "y": ()}],
             picks=[(0, 1), (1, 2), (2, 2)], threshold=1.0)
    @example(rows=[{"x": ("οδος",), "y": ()}], picks=[], threshold=0.0)
    def test_matches_per_pair_oracle(self, rows, picks, threshold):
        records = [Record(3 * i + 1, row) for i, row in enumerate(rows)]
        pairs = [(records[i % len(rows)].id, records[j % len(rows)].id) for i, j in picks]
        by_id = {rec.id: rec for rec in records}
        oracle = jaccard_oracle(threshold)
        assert (verdicts(JaccardVerifier(threshold), records, pairs)
                == [oracle(by_id[i], by_id[j]) for i, j in pairs])


class TestAgainstBruteForce:
    SOURCE_OF = {0: "a", 1: "a", 2: "b", 3: "b", 4: "b"}
    SOURCE = np.array([0, 0, 1, 1, 1])  # SOURCE_OF's codes, by id

    def spot_dataset(self):
        return [
            make_record(0, name="john smith", addr="12 victoria street"),
            make_record(1, name="jon smith", addr="12 victoria st"),
            make_record(2, name="john smith", addr="12 victoria street carlton"),
            make_record(3, name="mary jones", addr="4 george road"),
            make_record(4, name="smith john", addr="99 victoria street"),
        ]

    @pytest.mark.parametrize("cross_only", [False, True])
    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, cross_only, tau):
        records = self.spot_dataset()
        templates = [
            SignatureTemplate(1, (RandomWords("name", 2),)),
            SignatureTemplate(2, (ConsecutiveWords("addr", 2),)),
        ]
        model = ProbabilityModel(a=3, b=0.2)
        rho = 0.2
        index = build_index(table_of(records), templates, model, rho)
        got = links_by_id(finalize(
            index,
            tau=tau,
            source=self.SOURCE[index.table.ids] if cross_only else None,
            records=table_of(records),
        ), index.table)
        expected = brute_force_links(
            records, templates, model, rho, tau,
            cross_source_only=cross_only, source_of=self.SOURCE_OF,
        )
        assert got == expected

    def test_relabelling_symmetry(self):
        records = self.spot_dataset()
        templates = [SignatureTemplate(1, (RandomWords("name", 2),))]
        model = ProbabilityModel(a=3, b=0.2)

        def run(recs):
            index = build_index(table_of(recs), templates, model, 0.2)
            return links_by_id(finalize(index, tau=0.3), index.table)

        base = run(records)
        remap = lambda i: i * 2 + 5  # order-preserving
        relabelled = [
            make_record(remap(r.id), **{k: " ".join(v) for k, v in r.attributes.items()})
            for r in records
        ]
        moved = run(relabelled)
        assert [link[:3] for link in moved] == [
            (remap(r_i), remap(r_j), probability) for r_i, r_j, probability, *_ in base
        ]
