"""Components as SQL: the hooking and jumping rounds of ``cc`` written as
``UPDATE`` loops over a ``(node, parent)`` table in ``sqlite3``, checked
against ``connected_components`` and the union-find oracle. Each round
reads the table as the previous round left it (the new values are made
in a temporary table first), as ``cc``'s whole-array rounds do, so the
stage runs on a database as it stands."""

import random
import sqlite3

import numpy as np
import pytest

from siglink.cc import connected_components, oracle_components, to_forest

# Every node's root: ``root`` starts as ``node`` and jumps to its fixpoint.
ROOTS = """
DROP TABLE IF EXISTS root;
CREATE TEMP TABLE root AS SELECT id, parent FROM node;
"""
JUMP = """
DROP TABLE IF EXISTS step;
CREATE TEMP TABLE step AS
  SELECT c.id, p.parent FROM {table} AS c JOIN {table} AS p ON p.id = c.parent
  WHERE p.parent != c.parent;
UPDATE {table} SET parent = (SELECT step.parent FROM step WHERE step.id = {table}.id)
  WHERE id IN (SELECT id FROM step);
"""
# Every edge whose roots differ offers its smaller root to its larger
# one; a root takes the smallest offer (GROUP BY ... MIN).
HOOK = """
DROP TABLE IF EXISTS hook;
CREATE TEMP TABLE hook AS
  SELECT max(a.parent, b.parent) AS id, MIN(min(a.parent, b.parent)) AS parent
  FROM edge JOIN root AS a ON a.id = edge.u JOIN root AS b ON b.id = edge.v
  WHERE a.parent != b.parent
  GROUP BY max(a.parent, b.parent);
UPDATE node SET parent = (SELECT hook.parent FROM hook WHERE hook.id = node.id)
  WHERE id IN (SELECT id FROM hook);
"""


def _rows(db: sqlite3.Connection, table: str) -> int:
    return db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]


def _jump_to_fixpoint(db: sqlite3.Connection, table: str) -> int:
    """Jump rounds on ``table`` until one changes nothing; the changing rounds."""
    rounds = -1
    while True:
        db.executescript(JUMP.format(table=table))
        rounds += 1
        if not _rows(db, "step"):
            return rounds


def sql_components(edges, n: int) -> tuple[list[list[int]], int, list[int]]:
    """The hook forest as (parent, child) rows sorted by (parent, child),
    the hook rounds that changed a parent, and every node's label."""
    db = sqlite3.connect(":memory:")
    db.executescript("""
        CREATE TABLE node (id INTEGER PRIMARY KEY, parent INTEGER NOT NULL);
        CREATE TABLE edge (u INTEGER NOT NULL, v INTEGER NOT NULL);
    """)
    db.executemany("INSERT INTO node VALUES (?, ?)", ((i, i) for i in range(n)))
    db.executemany("INSERT INTO edge VALUES (?, ?)", edges)
    rounds = 0
    while True:
        db.executescript(ROOTS)
        _jump_to_fixpoint(db, "root")
        db.executescript(HOOK)
        if not _rows(db, "hook"):
            break
        rounds += 1
    forest = db.execute("SELECT parent, id FROM node WHERE parent != id "
                        "ORDER BY parent, id").fetchall()
    _jump_to_fixpoint(db, "node")
    labels = [row[0] for row in db.execute("SELECT parent FROM node ORDER BY id")]
    return [list(row) for row in forest], rounds, labels


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges over ``range(n)``, loops and repeats allowed, some nodes isolated."""
    used = rng.sample(range(n), rng.randint(1, n))
    return [(rng.choice(used), rng.choice(used)) for _ in range(rng.randint(0, 2 * n))]


@pytest.mark.parametrize("seed", range(4))
def test_sql_rounds_match_connected_components_and_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 60)
        edges = random_edges(rng, n)
        forest, rounds, labels = sql_components(edges, n)
        stats: dict = {}
        assert forest == to_forest(edges, stats).tolist()
        assert rounds == stats["forest_rounds"]
        assert labels == connected_components(np.array(edges).reshape(-1, 2), n).tolist()
        assert labels == [oracle_components(edges, nodes=range(n))[i] for i in range(n)]


def test_sql_worked_example():
    edges = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
    forest, rounds, labels = sql_components(edges, 6)
    assert forest == [[1, 2], [1, 4], [2, 3], [2, 5]]
    assert rounds == 1
    assert labels == [0, 1, 1, 1, 1, 1]
