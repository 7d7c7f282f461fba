"""Connected-components labelling via relational batch rounds.

The link graph is labelled in two phases, each expressed as whole-table
rounds (group-by / self-join) rather than pointer chasing, so the same
shape would run on a parallel database where random node access is not
an option:

  1. ``to_forest``: wherever a child has several parents, rewrite the
     group so all of them hang off the minimum parent. Iterated to a
     fixpoint this turns the graph into a forest while preserving
     connectivity; every round strictly decreases the sum of parent
     ids, which guarantees termination.
  2. ``flatten``: pointer jumping. Each round replaces every edge's
     parent with its grandparent, halving tree heights, so a forest of
     maximum height h flattens in ceil(log2(h)) changing rounds.

Labels are the minimum record id of each component, returned as an
array aligned with the caller's ascending node array: the forest's
labels are written into a copy of it, so isolated nodes keep their own
id. A classical union-find oracle with the same labelling convention
(as a dict) is provided for equivalence testing.
"""

from __future__ import annotations

import numpy as np

from .columns import locate, unique
from .errors import InternalInvariantError

# Edges are encoded as parent * 2^32 + child for dedup, so ids must fit
# in 31 bits to keep the encoding inside int64.
_SHIFT = np.int64(32)
_MASK = np.int64(0xFFFFFFFF)
MAX_NODE_ID = 2**31 - 1

EdgeArray = np.ndarray  # shape (m, 2) int64, [parent, child]


def normalize_edges(edges) -> EdgeArray:
    """Coerce to a deduplicated (m, 2) int64 edge array with u < v.

    Accepts a list of id pairs or an equivalent array. Self-loops are
    dropped; each pair is reordered so the smaller id comes first.
    """
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge list must be pairs, got shape {arr.shape}")
    _check_ids(arr)
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    keep = u != v
    enc = unique((u[keep] << _SHIFT) | v[keep])
    return _decode(enc)


def _check_ids(arr: np.ndarray) -> None:
    if arr.size and (arr.min() < 0 or arr.max() > MAX_NODE_ID):
        raise InternalInvariantError(
            f"node ids must be in [0, {MAX_NODE_ID}], got range "
            f"[{arr.min()}, {arr.max()}]"
        )


def _encode(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    return (parents << _SHIFT) | children


def _decode(enc: np.ndarray) -> EdgeArray:
    out = np.empty((len(enc), 2), dtype=np.int64)
    out[:, 0] = enc >> _SHIFT
    out[:, 1] = enc & _MASK
    return out


def to_forest(edges: EdgeArray, stats: dict | None = None) -> EdgeArray:
    """Rewrite the edge table until every child has a single parent.

    Each round groups edges by child; a child with parents
    e_1 < ... < e_i (i >= 2) is rewritten to hang the child and all
    other parents off e_1. Duplicate edges and self-loops are dropped.
    The sum of parent ids strictly decreases on every changing round
    (checked; violation raises ``InternalInvariantError``) which bounds
    the iteration. Returns the forest as a (parent, child) edge array
    sorted by encoded pair.
    """
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    _check_ids(arr)
    if not (arr[:, 0] < arr[:, 1]).all():
        raise InternalInvariantError("edge list must be normalized with u < v")
    enc = unique(_encode(arr[:, 0], arr[:, 1]))
    rounds = 0
    sums: list[int] = []
    while True:
        cur = _decode(enc)
        parents, children = cur[:, 0], cur[:, 1]
        sums.append(int(parents.sum(dtype=np.int64)))
        # Group by child; encoded order is (parent, child) so re-sort.
        order = np.argsort(_encode(children, parents))
        p_s, c_s = parents[order], children[order]
        starts = np.flatnonzero(np.append(True, c_s[1:] != c_s[:-1]))
        counts = np.diff(np.append(starts, len(c_s)))
        if (counts == 1).all():
            break
        gmin = np.repeat(p_s[starts], counts)  # min parent per child group
        repoint = p_s != gmin  # former non-minimal parents become children
        new_enc = unique(np.concatenate([
            _encode(gmin, c_s),
            _encode(gmin[repoint], p_s[repoint]),
        ]))
        rounds += 1
        new_sum = int((new_enc >> _SHIFT).sum(dtype=np.int64))
        if not new_sum < sums[-1]:
            raise InternalInvariantError(
                f"forest round {rounds} did not decrease the parent-id sum "
                f"({sums[-1]} -> {new_sum})"
            )
        enc = new_enc
    if stats is not None:
        stats["forest_rounds"] = rounds
        stats["forest_parent_sums"] = sums
    return _decode(enc)


def flatten(forest: EdgeArray, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pointer-jump a forest until every node points at its tree root.

    Input must be a forest with parent < child and one parent per
    child; anything else raises ``InternalInvariantError``. Returns
    ``(nodes, labels)``: every node appearing in the forest, ascending,
    and its root (roots label themselves). ``stats["flatten_rounds"]``
    counts rounds that changed at least one pointer.
    """
    arr = np.asarray(forest, dtype=np.int64).reshape(-1, 2)
    _check_ids(arr)
    if not (arr[:, 0] < arr[:, 1]).all():
        raise InternalInvariantError("forest edges must satisfy parent < child")
    order = np.argsort(arr[:, 1])
    children = arr[order, 1]
    parents = arr[order, 0].copy()
    if (children[1:] == children[:-1]).any():
        raise InternalInvariantError("input is not a forest: a child has multiple parents")
    rounds = 0
    while True:
        # Self-join: replace each parent with its own parent where one exists.
        idx = np.searchsorted(children, parents)
        idx_c = np.minimum(idx, len(children) - 1)
        hit = children[idx_c] == parents
        new_parents = np.where(hit, parents[idx_c], parents)
        if np.array_equal(new_parents, parents):
            break
        parents = new_parents
        rounds += 1
    if stats is not None:
        stats["flatten_rounds"] = rounds
    # Every pointer now names a root, and every root is pointed at.
    roots = unique(parents)
    nodes = np.concatenate((children, roots))
    order = np.argsort(nodes)
    return nodes[order], np.concatenate((parents, roots))[order]


def connected_components(edges, nodes, stats: dict | None = None) -> np.ndarray:
    """Label every node with the minimum id of its connected component.

    ``edges`` is a list of id pairs or an (m, 2) array; ``nodes`` is
    the universe, ascending, and must hold every edge endpoint. Returns
    one label per entry of ``nodes``; isolated nodes label themselves.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if (nodes[1:] <= nodes[:-1]).any():
        raise InternalInvariantError("component nodes must be strictly ascending")
    members, roots = flatten(to_forest(normalize_edges(edges), stats), stats)
    pos, missing = locate(nodes, members)
    if missing.any():
        raise InternalInvariantError(
            f"edge endpoint {members[missing][0]} is not a component node")
    labels = nodes.copy()
    labels[pos] = roots
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
