import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siglink import records
from siglink.errors import ConfigError, DataError
from siglink.evaluation import (
    GroundTruth,
    Metrics,
    evaluate,
    grid_search,
    load_truth,
)
from siglink.indexer import build_raw_postings
from siglink.linker import JaccardVerifier
from siglink.records import deduplicate
from siglink.templates import ConsecutiveWords, LastDigits, RandomWords, SignatureTemplate

from conftest import brute_force_scores, make_record, per_triple_grid_search, table_of


def truth_of(*pairs) -> list[tuple[int, int]]:
    """Truth pairs of record ids, as the harness takes them."""
    return list(pairs)


def truth_at(ids, pairs) -> GroundTruth:
    """Truth ``pairs`` of record ids as rows of the ascending ``ids``."""
    rows = np.searchsorted(np.asarray(ids), np.array(pairs, dtype=np.int64).reshape(-1, 2))
    return GroundTruth.from_columns(rows[:, 0], rows[:, 1])


def codes_of(sources) -> np.ndarray:
    """Source values as small integer codes: each value's rank."""
    return np.unique(np.asarray(sources), return_inverse=True)[1]


def score(labelling, truth, sources=None):
    """``evaluate`` on an id -> label dict (and id -> source dict) and
    truth pairs of ids, passed as rows of the ascending ids: the label
    column, the truth rows and the source codes."""
    ids = sorted(labelling)
    source = None if sources is None else codes_of([sources[i] for i in ids])
    return evaluate(np.array([labelling[i] for i in ids]), truth_at(ids, truth),
                    source=source)


class TestMetrics:
    def test_from_counts(self):
        m = Metrics.from_counts(tp=1, fp=0, fn=1)
        assert m.precision == 1.0
        assert m.recall == 0.5
        assert m.f_measure == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        m = Metrics.from_counts(tp=0, fp=0, fn=0)
        assert (m.precision, m.recall, m.f_measure) == (0.0, 0.0, 0.0)


class TestEvaluate:
    sources = {1: "a", 2: "a", 8: "b", 9: "b"}

    def test_half_recall(self):
        labelling = {1: 1, 2: 2, 8: 8, 9: 1}  # predicts only (1, 9)
        m = score(labelling, truth_of((1, 9), (2, 8)), self.sources)
        assert (m.true_positives, m.false_positives, m.false_negatives) == (1, 0, 1)
        assert m.precision == 1.0 and m.recall == 0.5
        assert m.f_measure == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        labelling = {1: 1, 2: 2, 8: 8, 9: 9}
        m = score(labelling, truth_of((1, 9)), self.sources)
        assert m == Metrics.from_counts(0, 0, 1)

    def test_cross_source_scope_ignores_same_source_pairs(self):
        labelling = {1: 1, 2: 1, 8: 8, 9: 9}  # cluster {1,2} is same-source
        m = score(labelling, truth_of((1, 9)), self.sources)
        assert m.false_positives == 0

    def test_all_scope_counts_within_source(self):
        labelling = {1: 1, 2: 1, 8: 8, 9: 9}
        m = score(labelling, truth_of((1, 2)))
        assert m.true_positives == 1 and m.false_positives == 0

    def test_label_relabelling_invariance(self):
        truth = truth_of((1, 9), (2, 8))
        base = {1: 1, 9: 1, 2: 2, 8: 2}
        relabelled = {1: 9, 9: 9, 2: 8, 8: 8}  # same partition, different labels
        m1 = score(base, truth, self.sources)
        m2 = score(relabelled, truth, self.sources)
        assert m1 == m2

    def test_source_swap_symmetry(self):
        labelling = {1: 1, 2: 2, 8: 8, 9: 1}
        truth = truth_of((1, 9), (2, 8))
        swapped = {k: ("b" if v == "a" else "a") for k, v in self.sources.items()}
        assert score(labelling, truth, self.sources) == score(labelling, truth, swapped)

    @given(
        n=st.integers(0, 40),
        two_sources=st.booleans(),
        data=st.data(),
    )
    def test_matches_all_pairs_scorer(self, n, two_sources, data):
        ids = sorted(data.draw(st.sets(st.integers(0, 10_000), min_size=n, max_size=n)))
        labels = data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)) if ids else []
        sources = data.draw(st.lists(st.sampled_from("ab" if two_sources else "s"),
                                     min_size=n, max_size=n))
        truth_pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda t: t[0] != t[1]),
            max_size=30)) if n >= 2 else []
        truth = truth_at(ids, truth_pairs)
        source_of = dict(zip(ids, sources))
        for source in (None, codes_of(sources)):
            m = evaluate(np.array(labels, dtype=np.int64), truth, source=source)
            expected = brute_force_scores(dict(zip(ids, labels)), truth_pairs,
                                          None if source is None else source_of)
            assert (m.true_positives, m.false_positives, m.false_negatives) == expected


class TestLoadTruth:
    def test_native_key_mapping(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("idA,idB\nx1,y1\nx2,y2\n")
        native_a = {"x1": 0, "x2": 1}
        native_b = {"y1": 100, "y2": 101}
        truth = load_truth(p, native_a, native_b, column_a="idA", column_b="idB")
        assert truth.pairs.tolist() == [[0, 100], [1, 101]]

    def test_repeated_key_column_rejected(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b,id_a\nx1,y1,x2\n")
        with pytest.raises(DataError, match="truth.csv: line 1: column 'id_a' appears 2 times"):
            load_truth(p, {"x1": 0, "x2": 1}, {"y1": 5})
        p.write_text("id_a,id_b,note,note\nx1,y1,a,b\n")  # unread columns may repeat
        assert load_truth(p, {"x1": 0}, {"y1": 5}).pairs.tolist() == [[0, 5]]

    def test_unknown_key_raises(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nmissing,y1\n")
        with pytest.raises(DataError, match="missing"):
            load_truth(p, {}, {"y1": 5})

    def test_self_pair_rejected(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx,x\n")
        with pytest.raises(DataError, match="self-pair"):
            load_truth(p, {"x": 3}, {"x": 3})

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("left,right\nx,y\n")
        with pytest.raises(DataError, match="id_a"):
            load_truth(p, {"x": 0}, {"y": 1})

    def test_short_row_names_its_line(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx1,y1\n\nx2\n")
        with pytest.raises(DataError, match=r"truth.csv: line 4: expected 2 fields, got 1"):
            load_truth(p, {"x1": 0, "x2": 1}, {"y1": 5})

    def test_long_row_names_its_line(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx1,y1,z\n")
        with pytest.raises(DataError, match=r"truth.csv: line 2: expected 2 fields, got 3"):
            load_truth(p, {"x1": 0}, {"y1": 5})

    def test_unknown_key_names_its_line_in_file_order(self, tmp_path):
        # Line 2's id_b is unknown, and so is line 3's id_a: line 2 is named.
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx1,zz\nqq,y1\n")
        with pytest.raises(DataError, match=r"line 2: truth key 'zz' not found"):
            load_truth(p, {"x1": 0}, {"y1": 5})

    def test_self_pair_names_its_line(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx,y\n\ny,y\n")
        with pytest.raises(DataError, match=r"line 4: self-pair in ground truth \('y', 'y'\)"):
            load_truth(p, {"x": 3, "y": 4}, {"x": 3, "y": 4})

    # Two rows per block: each fault below lies past the first block.
    NATIVE = {"x1": 1, "x2": 2, "x3": 3, "x4": 4, "x5": 5}

    @pytest.mark.parametrize("rows, message", [
        ("x1,x2\nx2,x3\n\nx3,x4\nx4\n", r"line 6: expected 2 fields, got 1"),
        ("x1,x2\nx2,x3\nx3,x4\nx4,zz\n", r"line 5: truth key 'zz' not found"),
        ("x1,x2\nx2,x3\n\nx3,x4\nx5,x5\n", r"line 6: self-pair in ground truth \('x5', 'x5'\)"),
        # a ragged row in a later block comes before an unknown key
        ("x1,zz\nx2,x3\nx3,x4\nx4,x5,x1\n", r"line 5: expected 2 fields, got 3"),
        # an unknown key in a later block comes before a self-pair
        ("x1,x1\nx2,x3\nx3,x4\nqq,x5\n", r"line 5: truth key 'qq' not found"),
        # the first of each kind in file order, whatever later blocks hold
        ("x1,x2\nzz,x3\nx3,x4\nqq,x5\n", r"line 3: truth key 'zz' not found"),
        ("x1,x2\nx3,x3\nx3,x4\nx5,x5\n", r"line 3: self-pair in ground truth \('x3', 'x3'\)"),
    ])
    def test_fault_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, rows, message):
        monkeypatch.setattr(records, "_BLOCK_ROWS", 2)
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\n" + rows)
        with pytest.raises(DataError, match=message):
            load_truth(p, self.NATIVE, self.NATIVE)

    def test_bad_bytes_past_a_ragged_row_come_first(self, tmp_path, monkeypatch):
        # The bad byte lies past the text the first reads decode.
        monkeypatch.setattr(records, "_BLOCK_ROWS", 2)
        p = tmp_path / "truth.csv"
        p.write_bytes(b"id_a,id_b\nx1,x2\nx2\n" + b"x1,x2\n" * 20_000 + b"x3,\xff\n")
        with pytest.raises(DataError, match=r"line 20004: bytes not valid utf-8-sig"):
            load_truth(p, self.NATIVE, self.NATIVE)

    def test_pairs_from_every_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(records, "_BLOCK_ROWS", 2)
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx5,x1\nx2,x3\n\nx4,x3\nx1,x5\nx1,x2\n")
        assert load_truth(p, self.NATIVE, self.NATIVE).pairs.tolist() == \
            [[1, 2], [1, 5], [2, 3], [3, 4]]

    def test_pairs_unique_min_max_ascending(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("id_a,id_b\nx2,y1\nx1,y2\nx2,y1\n")
        truth = load_truth(p, {"x1": 7, "x2": 9}, {"y1": 2, "y2": 8})
        assert truth.pairs.tolist() == [[2, 9], [7, 8]]
        assert truth.pairs.dtype == np.int64


def toy_problem():
    """Two-source toy with two true entities and one distractor."""
    records = [
        make_record(0, name="alice wonder", phone="0411 222 333"),
        make_record(1, name="bob marley", phone="0499 888 777"),
        make_record(1000, name="wonder alice", phone="0411 222 333"),
        make_record(1001, name="marley bob", phone="0499 888 777"),
        make_record(1002, name="carol king", phone="0400 000 001"),
    ]
    templates = [SignatureTemplate(1, (RandomWords("name", 2),))]
    truth = truth_of((0, 1000), (1, 1001))
    source_of = {r.id: "a" if r.id < 1000 else "b" for r in records}
    return records, templates, truth, source_of


def run_grid(records, templates, truth, source_of, grids, **kwargs):
    table = table_of(records)
    raw = build_raw_postings(table, templates)
    source = codes_of([source_of[i] for i in raw.ids.tolist()])
    return grid_search(
        raw, *grids,
        truth=truth_at(raw.ids, truth),
        canonical_rows=np.arange(len(raw.ids)),
        source=source,
        pair_source=source,
        records=table,
        **kwargs,
    )


class TestGridSearch:
    def test_single_cell_matches_direct_evaluate(self):
        records, templates, truth, source_of = toy_problem()
        result = run_grid(records, templates, truth, source_of,
                          ([3.0], [0.05], [0.3], [0.5]))
        assert len(result.cells) == 1
        assert result.best is result.cells[0]
        assert result.best.metrics.f_measure == 1.0

    @pytest.mark.parametrize("grids, message", [
        (([3.0], [0.05], [0.3, 1.5], [0.5]), "grids.rho must be in (0, 1), got 1.5"),
        (([3.0], [0.05], [0.3], [0.5, 0.0]), "grids.tau must be in (0, 1), got 0.0"),
    ], ids=["rho", "tau"])
    def test_bad_threshold_named_as_grid_key(self, grids, message):
        records, templates, truth, source_of = toy_problem()
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_grid(records, templates, truth, source_of, grids)

    def test_degenerate_cell_still_completes(self):
        records, templates, truth, source_of = toy_problem()
        result = run_grid(records, templates, truth, source_of,
                          ([3.0], [0.05], [0.3], [0.5, 0.999]))
        dead = [c for c in result.cells if c.params.tau == 0.999]
        assert dead[0].metrics.f_measure == 0.0
        assert dead[0].links == 0

    def test_exhaustive_grid_and_argmax(self):
        records, templates, truth, source_of = toy_problem()
        grids = ([2.0, 3.0, 4.0], [0.1, 0.2, 0.4], [0.2, 0.4], [0.3, 0.5, 0.7, 0.9, 0.95])
        result = run_grid(records, templates, truth, source_of, grids)
        assert len(result.cells) == 90
        best_f = result.best.metrics.f_measure
        assert all(c.metrics.f_measure <= best_f for c in result.cells)
        # cells enumerate the grid in nested loop order
        expected_params = [
            (a, b, r, t)
            for a in grids[0] for b in grids[1] for r in grids[2] for t in grids[3]
        ]
        got_params = [(c.params.a, c.params.b, c.params.rho, c.params.tau)
                      for c in result.cells]
        assert got_params == expected_params

    def test_tau_monotonicity(self):
        records, templates, truth, source_of = toy_problem()
        taus = [0.1, 0.3, 0.5, 0.7, 0.9]
        result = run_grid(records, templates, truth, source_of,
                          ([3.0], [0.05], [0.3], taus))
        recalls = [c.metrics.recall for c in result.cells]
        links = [c.links for c in result.cells]
        assert recalls == sorted(recalls, reverse=True)
        assert links == sorted(links, reverse=True)

    def test_tie_breaks_toward_lower_tau(self):
        records, templates, truth, source_of = toy_problem()
        # both taus admit exactly the same links -> identical metrics
        result = run_grid(records, templates, truth, source_of,
                          ([3.0], [0.05], [0.3], [0.6, 0.5]))
        m0, m1 = result.cells[0].metrics, result.cells[1].metrics
        assert m0 == m1
        assert result.best.params.tau == 0.5
        assert result.link_sets == 1

    def test_counts_distinct_work(self):
        # p(1) = 1/1.15 and p(2) = 1/1.45 at a=3, b=0.05. rho=0.3 keeps
        # both two-record keys (k_max = 3), rho=0.95 keeps none (k_max =
        # 0): two probability columns for the four triples. Both true
        # pairs score p(2) ~ 0.69, so tau 0.5 and 0.6 link both and
        # 0.999 neither, as does every rho=0.95 cell: two link sets.
        records, templates, truth, source_of = toy_problem()
        result = run_grid(records, templates, truth, source_of,
                          ([3.0, 3.0], [0.05], [0.3, 0.95], [0.5, 0.6, 0.999]))
        assert len(result.cells) == 12
        assert (result.triples, result.columns, result.link_sets) == (4, 2, 2)
        assert [c.links for c in result.cells] == [2, 2, 0, 0, 0, 0] * 2

    def test_empty_grid_rejected(self):
        records, templates, truth, source_of = toy_problem()
        with pytest.raises(ConfigError, match="rho"):
            run_grid(records, templates, truth, source_of, ([2.0], [0.1], [], [0.5]))


# Small inputs for the grid oracle. Names of at most three words and at
# most two templates give a pair at most six evidence rows, each with
# p <= p(2) <= 1/(1 + 1.5**2 * 0.1) ~ 0.816, so every probability is at
# most 1 - 0.184**6 < TOP_TAU; and p(1) <= 1/(1 + 1.5 * 0.1) < EMPTY_RHO,
# so k_max = 0 there.
WORDS = ["ann", "bo", "cy", "di"]
PHONES = ["0411", "0422", "0511"]
TEMPLATE_PARTS = [
    (RandomWords("name", 1),),
    (RandomWords("name", 2),),
    (ConsecutiveWords("name", 2),),
    (LastDigits("phone", 2),),
    (RandomWords("name", 1), LastDigits("phone", 2)),
]
TOP_TAU = 0.99999
EMPTY_RHO = 0.95


@st.composite
def grid_problems(draw):
    two_sources = draw(st.booleans())
    n = draw(st.integers(2, 10))
    names = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
                          min_size=n, max_size=n))
    phones = draw(st.lists(st.sampled_from(PHONES), min_size=n, max_size=n))
    rids = [i + (1000 if two_sources and i >= n // 2 else 0) for i in range(n)]
    records = [make_record(rid, name=" ".join(name), phone=phone)
               for rid, name, phone in zip(rids, names, phones)]
    chosen = draw(st.lists(st.sampled_from(range(len(TEMPLATE_PARTS))),
                           min_size=1, max_size=2, unique=True))
    templates = [SignatureTemplate(i + 1, TEMPLATE_PARTS[i]) for i in chosen]
    truth = draw(st.lists(st.tuples(st.sampled_from(rids), st.sampled_from(rids))
                          .filter(lambda t: t[0] != t[1]), max_size=8))
    grids = (
        draw(st.lists(st.sampled_from([1.5, 2.0, 4.0]), min_size=1, max_size=3)),
        draw(st.lists(st.sampled_from([0.1, 0.2, 0.5]), min_size=1, max_size=3)),
        draw(st.lists(st.sampled_from([0.1, 0.3, 0.6]), max_size=2)) + [EMPTY_RHO],
        draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8]), max_size=3)) + [TOP_TAU],
    )
    cross_source_only = two_sources and draw(st.booleans())
    verifier = draw(st.sampled_from([None, JaccardVerifier(0.4)]))
    return records, templates, truth, grids, two_sources, cross_source_only, verifier


# Two true pairs share one two-record key each; two false pairs share
# two three-record keys each. At (a, b) = (4, 0.05) the true pairs score
# p(2) ~ 0.56 and the false ones 1 - (1 - p(3))**2 ~ 0.42; at (1.5, 0.5)
# it is 0.47 against 0.61. Tau 0.5 links two pairs either way, but not
# the same two.
EQUAL_COUNT_PROBLEM = (
    [make_record(0, name="x p"), make_record(1, name="w s"),
     make_record(2, name="y z"), make_record(3, name="y z v"),
     make_record(1000, name="x q"), make_record(1001, name="w t"),
     make_record(1002, name="y z u")],
    [SignatureTemplate(1, (RandomWords("name", 1),))],
    [(0, 1000), (1, 1001)],
    ([4.0, 1.5], [0.05, 0.5], [0.1], [0.5]),
    True, True, None,
)


class TestGridSearchOracle:
    def test_equal_link_counts_are_not_one_link_set(self):
        records, templates, truth_pairs, grids, *_ = EQUAL_COUNT_PROBLEM
        source_of = {r.id: "a" if r.id < 1000 else "b" for r in records}
        result = run_grid(records, templates, truth_of(*truth_pairs), source_of, grids)
        first, second = result.cells[0], result.cells[3]
        assert (first.params.a, first.params.b, second.params.a, second.params.b) \
            == (4.0, 0.05, 1.5, 0.5)
        assert first.links == second.links == 2
        assert (first.metrics.true_positives, second.metrics.true_positives) == (2, 0)

    @example(problem=EQUAL_COUNT_PROBLEM)
    @given(problem=grid_problems())
    def test_matches_per_triple_grid(self, problem):
        records, templates, truth_pairs, grids, two_sources, cross_only, verifier = problem
        dedup = deduplicate(table_of(records))
        raw = build_raw_postings(dedup.canonical, templates)
        kwargs = dict(
            truth=truth_at(dedup.ids, truth_pairs),
            canonical_rows=dedup.canonical_rows,
            source=(dedup.ids >= 1000).astype(np.int8) if two_sources else None,
            pair_source=(dedup.canonical.ids >= 1000).astype(np.int8) if cross_only else None,
            records=dedup.canonical,
            verifier=verifier,
        )
        result = grid_search(raw, *grids, **kwargs)
        best, cells = per_triple_grid_search(raw, *grids, **kwargs)
        assert ([(c.params, c.links, c.metrics) for c in result.cells]
                == [(c.params, c.links, c.metrics) for c in cells])
        assert ([c is result.best for c in result.cells]
                == [c is best for c in cells])
        assert all(c.links == 0 for c in result.cells
                   if c.params.tau == TOP_TAU or c.params.rho == EMPTY_RHO)
