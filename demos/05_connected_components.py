#!/usr/bin/env python3
"""Connected components as batch table rewrites.

Phase 1 groups edges by child and hangs everything off the minimum
parent until the table is a forest; phase 2 pointer-jumps until every
node points at its root. Both phases are whole-table rounds (group-by
and self-join), never node-at-a-time traversal, so they translate
directly to a parallel database. Labels come back as an array aligned
with the ascending node array passed in. A union-find oracle
cross-checks the result.
"""

import random

import numpy as np

from siglink import (
    connected_components,
    flatten,
    normalize_edges,
    oracle_components,
    to_forest,
)

print("== five nodes, six edges ==")
edges = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
print(f"  input edges:  {edges}")
stats = {}
forest = to_forest(normalize_edges(edges), stats)
print(f"  forest edges: {[tuple(e) for e in forest.tolist()]}")
print(f"  forest rounds: {stats['forest_rounds']}, "
      f"parent-id sums per round: {stats['forest_parent_sums']}")
members, labels = flatten(forest, stats)
print(f"  labels: {dict(zip(members.tolist(), labels.tolist()))}")
print(f"  flatten rounds: {stats['flatten_rounds']}")

print()
print("== pointer jumping halves chain height each round ==")
chain = [(i, i + 1) for i in range(1, 9)]  # height 8
stats = {}
connected_components(chain, np.arange(1, 10), stats=stats)
print(f"  chain of height 8 flattens in {stats['flatten_rounds']} rounds "
      f"(log2(8) = 3)")

print()
print("== random graph vs union-find oracle ==")
rng = random.Random(7)
nodes = sorted(rng.sample(range(100_000), 400))
random_edges = [tuple(rng.sample(nodes, 2)) for _ in range(700)]
mine = connected_components(random_edges, np.array(nodes))
oracle = oracle_components(random_edges, nodes=nodes)
print(f"  {len(nodes)} nodes, {len(random_edges)} edges, "
      f"{len(np.unique(mine))} components")
print(f"  matches oracle: {dict(zip(nodes, mine.tolist())) == oracle}")
