"""Linkage and scoring as SQL: postings, pairs, the combine and the
threshold, then tp, fp and fn, written as queries in ``sqlite3`` and
checked against ``linker.finalize`` and ``evaluation.evaluate`` on
seeded random tables. Every step is a group-by, a join or a window over
integer-keyed tables, so the stages run on a database as they stand.

The combine makes the same IEEE multiplications in the same order as
``linker.combine_pairs``: SQL has no product aggregate, so a recursive
CTE walks each pair's evidence in ascending ``p`` (``ROW_NUMBER() OVER
(PARTITION BY pair ORDER BY p)``), and probabilities are compared by
``float.hex``.
"""

import random
import sqlite3

import numpy as np
import pytest

from siglink.evaluation import GroundTruth, evaluate
from siglink.indexer import build_raw_postings, index_from_postings
from siglink.linker import finalize
from siglink.sigprob import ProbabilityModel, max_recurrence, signature_probability
from siglink.templates import ConsecutiveWords, LastDigits, RandomWords, SignatureTemplate

from conftest import make_record, table_of

# Keys with at most k_max postings, each with its length's probability.
POSTINGS = """
CREATE TEMP TABLE kept AS
  SELECT counted.key, prob.p
  FROM (SELECT key, COUNT(*) AS n FROM posting GROUP BY key HAVING COUNT(*) <= :k_max)
    AS counted
  JOIN prob ON prob.n = counted.n;
"""
# Every kept key's record pairs (a self-join), one evidence row each.
PAIRS = """
CREATE TEMP TABLE evidence AS
  SELECT a.row AS r_i, b.row AS r_j, kept.p
  FROM kept JOIN posting AS a ON a.key = kept.key JOIN posting AS b ON b.key = kept.key
  {sources}
  WHERE a.row < b.row {cross};
CREATE TEMP TABLE ranked AS
  SELECT r_i, r_j, p, ROW_NUMBER() OVER (PARTITION BY r_i, r_j ORDER BY p) AS k
  FROM evidence;
CREATE INDEX ranked_at ON ranked (r_i, r_j, k);
"""
SOURCES = "JOIN source AS sa ON sa.row = a.row JOIN source AS sb ON sb.row = b.row"
CROSS = "AND sa.code != sb.code"
# 1 - prod(1 - p), one factor at a time in ascending p, then > tau.
COMBINE = """
WITH RECURSIVE product (r_i, r_j, k, complement) AS (
  SELECT r_i, r_j, 1, 1.0 - p FROM ranked WHERE k = 1
  UNION ALL
  SELECT product.r_i, product.r_j, ranked.k, product.complement * (1.0 - ranked.p)
  FROM product JOIN ranked
    ON ranked.r_i = product.r_i AND ranked.r_j = product.r_j AND ranked.k = product.k + 1
)
SELECT product.r_i, product.r_j, 1.0 - product.complement, product.k
FROM product JOIN (SELECT r_i, r_j, MAX(k) AS n FROM ranked GROUP BY r_i, r_j) AS last
  ON last.r_i = product.r_i AND last.r_j = product.r_j AND last.n = product.k
WHERE 1.0 - product.complement > :tau
ORDER BY product.r_i, product.r_j;
"""

WORDS = ["ann", "bo", "cy", "di", "ed", "flo"]
TEMPLATES = [
    SignatureTemplate(1, (RandomWords("name", 1),)),
    SignatureTemplate(2, (RandomWords("name", 2),)),
    SignatureTemplate(3, (ConsecutiveWords("name", 2),)),
    SignatureTemplate(4, (LastDigits("phone", 2),)),
    SignatureTemplate(5, (RandomWords("name", 1), LastDigits("phone", 1))),
]


def random_problem(rng: random.Random, two_sources: bool):
    """A seeded random table, two to four templates, a model, rho, tau
    and, for two sources, a source code per row."""
    n = rng.randint(2, 40)
    records = [make_record(i, name=" ".join(rng.choices(WORDS, k=rng.randint(1, 3))),
                           phone=f"04{rng.randint(0, 99):02d}")
               for i in range(n)]
    templates = rng.sample(TEMPLATES, rng.randint(2, 4))
    model = ProbabilityModel(a=rng.choice([1.5, 2.0, 4.0]), b=rng.choice([0.02, 0.1, 0.3]))
    source = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int8) \
        if two_sources else None
    return (table_of(records), templates, model, rng.choice([0.1, 0.2, 0.4]),
            rng.choice([0.2, 0.5, 0.8]), source)


def sql_links(raw, model: ProbabilityModel, k_max: int, tau: float, source):
    """The links of the raw postings ``raw`` at ``k_max`` and ``tau``, as
    (r_i, r_j, probability as ``float.hex``, evidence count) rows."""
    db = sqlite3.connect(":memory:")
    db.executescript("""
        CREATE TABLE posting (key INTEGER NOT NULL, row INTEGER NOT NULL);
        CREATE TABLE prob (n INTEGER PRIMARY KEY, p REAL NOT NULL);
        CREATE TABLE source (row INTEGER PRIMARY KEY, code INTEGER NOT NULL);
    """)
    key = np.repeat(np.arange(len(raw)), raw.lengths)
    db.executemany("INSERT INTO posting VALUES (?, ?)", zip(key.tolist(), raw.rows.tolist()))
    db.executemany("INSERT INTO prob VALUES (?, ?)",
                   ((n, signature_probability(model, n))
                    for n in range(1, int(raw.lengths.max(initial=0)) + 1)))
    if source is not None:
        db.executemany("INSERT INTO source VALUES (?, ?)", enumerate(source.tolist()))
    db.execute(POSTINGS, {"k_max": k_max})
    db.executescript(PAIRS.format(sources=SOURCES if source is not None else "",
                                  cross=CROSS if source is not None else ""))
    return [(r_i, r_j, p.hex(), k) for r_i, r_j, p, k in db.execute(COMBINE, {"tau": tau})]


@pytest.mark.parametrize("two_sources", [False, True], ids=["one_source", "two_sources"])
def test_sql_links_match_finalize(two_sources):
    rng = random.Random(11 + two_sources)
    linked = 0
    for _ in range(40):
        table, templates, model, rho, tau, source = random_problem(rng, two_sources)
        raw = build_raw_postings(table, templates)
        index = index_from_postings(raw, model, rho)
        links = finalize(index, tau, source=source)
        expected = [(r_i, r_j, p.hex(), k) for r_i, r_j, p, k in zip(
            links.r_i.tolist(), links.r_j.tolist(), links.probability.tolist(),
            links.evidence_count.tolist())]
        assert sql_links(raw, model, max_recurrence(model, rho), tau, source) == expected
        linked += len(expected)
    assert linked  # the draws link something


def sql_scores(labels: list[int], truth: list[tuple[int, int]], source) -> tuple[int, int, int]:
    """(tp, fp, fn) of a labelling of rows against truth pairs of rows:
    a join of truth to labels, and group-bys on label (and label, source)."""
    db = sqlite3.connect(":memory:")
    db.executescript("""
        CREATE TABLE label (row INTEGER PRIMARY KEY, label INTEGER NOT NULL,
                            code INTEGER NOT NULL);
        CREATE TABLE raw_truth (a INTEGER NOT NULL, b INTEGER NOT NULL);
    """)
    codes = [0] * len(labels) if source is None else source.tolist()
    db.executemany("INSERT INTO label VALUES (?, ?, ?)",
                   zip(range(len(labels)), labels, codes))
    db.executemany("INSERT INTO raw_truth VALUES (?, ?)", truth)
    cross = "" if source is None else "AND a.code != b.code"
    tp, = db.execute(f"""
        WITH truth AS (SELECT DISTINCT min(a, b) AS r_a, max(a, b) AS r_b FROM raw_truth)
        SELECT COUNT(*) FROM truth
        JOIN label AS a ON a.row = truth.r_a JOIN label AS b ON b.row = truth.r_b
        WHERE a.label = b.label {cross}""").fetchone()
    total, = db.execute(
        "SELECT COUNT(*) FROM (SELECT DISTINCT min(a, b), max(a, b) FROM raw_truth)").fetchone()

    def pairs(group_by: str) -> int:
        return db.execute(f"SELECT COALESCE(SUM(n * (n - 1) / 2), 0) FROM "
                          f"(SELECT COUNT(*) AS n FROM label GROUP BY {group_by})").fetchone()[0]

    predicted = pairs("label") - (0 if source is None else pairs("label, code"))
    return tp, predicted - tp, total - tp


@pytest.mark.parametrize("two_sources", [False, True], ids=["one_source", "two_sources"])
def test_sql_scores_match_evaluate(two_sources):
    rng = random.Random(23 + two_sources)
    for _ in range(60):
        n = rng.randint(2, 50)
        labels = [rng.randrange(n // 3 + 1) for _ in range(n)]
        truth = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 30))]
        source = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int8) \
            if two_sources else None
        pairs = np.array(truth, dtype=np.int64).reshape(-1, 2)
        m = evaluate(np.array(labels), GroundTruth.from_columns(pairs[:, 0], pairs[:, 1]),
                     source=source)
        assert (m.true_positives, m.false_positives, m.false_negatives) \
            == sql_scores(labels, truth, source)
