"""Connected-components labelling via relational batch rounds.

Nodes are rows, ``range(n)``, and a node's parent is one entry of a
dense array: the table ``(node, parent)`` keyed by node. The graph is
labelled in two phases of whole-array rounds (a group-by or a join on
that key), not pointer chasing, so the same shape would run on a
parallel database where random node access is not an option:

  1. ``to_forest`` (hooking): each round finds both endpoints' roots
     (gathers), and every edge whose roots differ hooks the larger root
     onto the smaller; a root offered several takes the smallest, a
     GROUP BY MIN. Parents only fall, so they form a forest with
     parent < child, and their sum strictly decreases on every changing
     round, which guarantees termination.
  2. ``flatten``: pointer jumping. Each round replaces every node's
     parent with its grandparent (a self-join), so a forest of maximum
     height h flattens in ceil(log2(h)) changing rounds.

Labels are the minimum node of each component, one per node; isolated
nodes label themselves. Records are rows of the canonical table, which
ascend with ids, so a component's minimum row holds its minimum id. A
union-find oracle with the same convention (as a dict) is provided for
equivalence testing.

The phases hand over a (parent, child) edge array, not the dense parent
array, and ``connected_components`` turns ``flatten``'s ``(nodes,
labels)`` back into one label per node. That round trip stays because
the benchmark's tracer wraps both phases by name with that contract,
and acceptance criteria 2 and 3 (``test_criterion_2_golden_small_graph``,
``test_criterion_3_cc_oracle_equivalence``) pin ``to_forest``'s edge
array and ``flatten``'s ``(nodes, labels)`` too.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantError

EdgeArray = np.ndarray  # shape (m, 2) int64, [parent, child]


def _edge_array(edges, n: int | None = None) -> EdgeArray:
    """``edges`` (node pairs, or an (m, 2) array) as an (m, 2) int64
    array; an endpoint outside ``[0, n)`` (n unbounded if None) raises
    ``InternalInvariantError``."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or n is not None and arr.max() >= n):
        bad = arr.min() if arr.min() < 0 else arr.max()
        raise InternalInvariantError(f"edge endpoint {bad} is not a component node")
    return arr


def _jump(parent: np.ndarray) -> tuple[np.ndarray, int]:
    """Every node's root: ``parent`` jumped to its fixpoint, in a copy,
    and the rounds that changed a pointer."""
    rounds = 0
    while not np.array_equal(jumped := parent[parent], parent):
        parent, rounds = jumped, rounds + 1
    return parent, rounds


def to_forest(edges, stats: dict | None = None) -> EdgeArray:
    """Hook the graph's trees together until every edge lies in one tree.

    Nodes are ``range(n)``, n one above the largest endpoint. Each round
    finds both endpoints' roots and hooks, for every edge whose roots
    differ, the larger root onto the smallest root offered to it. Edge
    order and orientation, duplicate edges and self-loops do not matter.
    The parent array's sum strictly decreases on every changing round
    (checked; a violation raises ``InternalInvariantError``), and
    ``stats["forest_parent_sums"]`` lists it from the start.
    Returns the forest as a (parent, child) edge array, parent < child,
    one parent per child, sorted by (parent, child).
    """
    arr = _edge_array(edges)
    n = int(arr.max(initial=-1)) + 1
    parent = np.arange(n, dtype=np.int64)
    sums = [int(parent.sum())]  # one more than the rounds that changed a parent
    while True:
        roots, _ = _jump(parent)
        ru, rv = roots[arr[:, 0]], roots[arr[:, 1]]
        cross = ru != rv
        if not cross.any():
            break
        arr, ru, rv = arr[cross], ru[cross], rv[cross]  # edges within one tree stay there
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        sums.append(int(parent.sum()))
        if not sums[-1] < sums[-2]:
            raise InternalInvariantError(
                f"forest round {len(sums) - 1} did not decrease the parent sum "
                f"({sums[-2]} -> {sums[-1]})")
    if stats is not None:
        stats["forest_rounds"] = len(sums) - 1
        stats["forest_parent_sums"] = sums
    child = np.flatnonzero(parent != np.arange(n))
    child = child[np.argsort(parent[child], kind="stable")]
    return np.column_stack((parent[child], child))


def flatten(forest: EdgeArray, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pointer-jump a forest until every node points at its tree root.

    Input must be a (parent, child) edge array with parent < child and
    one parent per child; anything else raises
    ``InternalInvariantError``. Returns ``(nodes, labels)``: every node
    appearing in the forest, ascending, and its root (roots label
    themselves). ``stats["flatten_rounds"]`` counts rounds that changed
    at least one pointer.
    """
    arr = _edge_array(forest)
    if not (arr[:, 0] < arr[:, 1]).all():
        raise InternalInvariantError("forest edges must satisfy parent < child")
    n = int(arr.max(initial=-1)) + 1
    if np.bincount(arr[:, 1], minlength=n).max(initial=0) > 1:
        raise InternalInvariantError("input is not a forest: a child has multiple parents")
    parent = np.arange(n, dtype=np.int64)
    parent[arr[:, 1]] = arr[:, 0]
    roots, rounds = _jump(parent)
    if stats is not None:
        stats["flatten_rounds"] = rounds
    nodes = np.flatnonzero(np.bincount(arr.ravel(), minlength=n))
    return nodes, roots[nodes]


def connected_components(edges, n: int, stats: dict | None = None) -> np.ndarray:
    """Label every node of ``range(n)`` with the minimum node of its
    connected component.

    ``edges`` is a list of node pairs or an (m, 2) array; an endpoint
    outside ``[0, n)`` raises ``InternalInvariantError``. Isolated nodes
    label themselves.
    """
    nodes, roots = flatten(to_forest(_edge_array(edges, n), stats), stats)
    labels = np.arange(n, dtype=np.int64)
    labels[nodes] = roots
    return labels


def oracle_components(edges, nodes=None) -> dict[int, int]:
    """Union-find reference labelling with the same min-id convention.

    Single-threaded test oracle; independent of the relational rounds.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        u, v = int(u), int(v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    if nodes is not None:
        for n in nodes:
            find(int(n))
    minimum: dict[int, int] = {}
    for node in parent:
        root = find(node)
        if root not in minimum or node < minimum[root]:
            minimum[root] = node
    return {node: minimum[find(node)] for node in parent}
