#!/usr/bin/env python3
"""Connected components as batch table rewrites.

Nodes are rows, ``range(n)``, as records are inside a run, and each
node's parent is one entry of a dense array. Phase 1 hooks: every edge
whose endpoints' roots differ hangs the larger root off the smallest
root offered to it (a group-by min), until every edge lies in one tree.
Phase 2 pointer-jumps (``parent[parent]``, a self-join) until every node
points at its root. Both phases are whole-array rounds, never
node-at-a-time traversal, so they translate directly to a parallel
database. Labels come back as one per node of ``range(n)``; ids other
than rows are mapped to rows first and back after. A union-find oracle
cross-checks the result.
"""

import random

import numpy as np

from siglink import (
    connected_components,
    flatten,
    oracle_components,
    to_forest,
)

print("== five nodes, six edges ==")
edges = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
print(f"  input edges:  {edges}")
stats = {}
forest = to_forest(edges, stats)
print(f"  forest edges: {[tuple(e) for e in forest.tolist()]}")
print(f"  forest rounds: {stats['forest_rounds']}, "
      f"parent sums per round: {stats['forest_parent_sums']}")
members, labels = flatten(forest, stats)
print(f"  labels: {dict(zip(members.tolist(), labels.tolist()))}")
print(f"  flatten rounds: {stats['flatten_rounds']}")

print()
print("== pointer jumping halves chain height each round ==")
chain = [(i, i + 1) for i in range(1, 9)]  # height 8
stats = {}
connected_components(chain, 10, stats=stats)
print(f"  chain of height 8 flattens in {stats['flatten_rounds']} rounds "
      f"(log2(8) = 3)")

print()
print("== random graph vs union-find oracle ==")
rng = random.Random(7)
nodes = np.array(sorted(rng.sample(range(100_000), 400)))  # sparse ids
random_edges = [tuple(rng.sample(nodes.tolist(), 2)) for _ in range(700)]
rows = np.searchsorted(nodes, random_edges)  # each id's row
mine = nodes[connected_components(rows, len(nodes))]
oracle = oracle_components(random_edges, nodes=nodes.tolist())
print(f"  {len(nodes)} nodes, {len(random_edges)} edges, "
      f"{len(np.unique(mine))} components")
print(f"  matches oracle: {dict(zip(nodes.tolist(), mine.tolist())) == oracle}")
