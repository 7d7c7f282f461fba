import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from siglink.errors import ConfigError, DataError
from siglink.evaluation import (
    GroundTruth,
    Metrics,
    evaluate,
    grid_search,
    load_truth,
)
from siglink.indexer import build_raw_postings
from siglink.records import RecordTable
from siglink.templates import RandomWords, SignatureTemplate

from conftest import brute_force_scores, make_record


def truth_of(*pairs) -> GroundTruth:
    return GroundTruth.from_pairs(pairs)


def score(labelling, truth, sources=None, scope="cross_source"):
    """``evaluate`` on an id -> label dict (and id -> source dict), passed
    as its ascending id, label and source arrays."""
    ids = sorted(labelling)
    source = None if sources is None else np.array([sources[i] for i in ids])
    return evaluate(np.array(ids), np.array([labelling[i] for i in ids]), truth,
                    source=source, scope=scope)


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
        m = score(labelling, truth_of((1, 2)), scope="all")
        assert m.true_positives == 1 and m.false_positives == 0

    def test_unknown_truth_id_named(self):
        with pytest.raises(DataError, match="77"):
            score({1: 1, 9: 1}, truth_of((1, 77)), {1: "a", 9: "b", 77: "b"})

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

    def test_bad_scope(self):
        with pytest.raises(ConfigError):
            score({}, truth_of(), scope="sideways")

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
        truth = truth_of(*truth_pairs)
        source_of = dict(zip(ids, sources))
        for scope in ("all", "cross_source"):
            m = evaluate(np.array(ids, dtype=np.int64), np.array(labels, dtype=np.int64),
                         truth, source=np.array(sources), scope=scope)
            expected = brute_force_scores(dict(zip(ids, labels)), truth_pairs, source_of, scope)
            assert (m.true_positives, m.false_positives, m.false_negatives) == expected


class TestLoadTruth:
    def test_native_key_mapping(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("idA,idB\nx1,y1\nx2,y2\n")
        native_a = {"x1": 0, "x2": 1}
        native_b = {"y1": 100, "y2": 101}
        truth = load_truth(p, native_a, native_b, column_a="idA", column_b="idB")
        assert truth.pairs.tolist() == [[0, 100], [1, 101]]

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
    raw = build_raw_postings(records, templates)
    return grid_search(
        raw, *grids,
        truth=truth,
        ids=raw.ids,
        canonical_ids=raw.ids,
        source=np.array([source_of[i] for i in raw.ids.tolist()]),
        records=RecordTable.of(records),
        cross_source_only=True,
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

    def test_empty_grid_rejected(self):
        records, templates, truth, source_of = toy_problem()
        with pytest.raises(ConfigError, match="rho"):
            run_grid(records, templates, truth, source_of, ([2.0], [0.1], [], [0.5]))
