import math
import random

import numpy as np
import pytest

from siglink.cc import (
    MAX_NODE_ID,
    connected_components,
    flatten,
    normalize_edges,
    oracle_components,
    to_forest,
)
from siglink.errors import InternalInvariantError

FIG_EDGES = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
FIG_FOREST = [(1, 2), (1, 4), (2, 3), (2, 5)]


def as_dict(nodes, labels) -> dict[int, int]:
    return dict(zip(np.asarray(nodes).tolist(), np.asarray(labels).tolist()))


def components(edges, nodes=None) -> dict[int, int]:
    """``connected_components`` over ``nodes`` (every edge endpoint by
    default), as a node -> label dict."""
    if nodes is None:
        nodes = {int(n) for edge in edges for n in edge}
    nodes = np.array(sorted(nodes), dtype=np.int64)
    return as_dict(nodes, connected_components(edges, nodes))


def forest_height(forest) -> int:
    parent = {int(c): int(p) for p, c in forest}
    depth: dict[int, int] = {}
    for start in parent:
        chain = []
        node = start
        while node in parent and node not in depth:
            chain.append(node)
            node = parent[node]
        base = depth.get(node, 0)
        for n in reversed(chain):
            base += 1
            depth[n] = base
    return max(depth.values(), default=0)


def random_graph(rng: random.Random, kind: str, max_nodes: int):
    n = rng.randint(2, max_nodes)
    ids = rng.sample(range(1_000_000), n)
    edges = []
    if kind == "star":
        center = ids[0]
        edges = [(center, leaf) for leaf in ids[1:]]
    elif kind == "chain":
        edges = list(zip(ids, ids[1:]))
    elif kind == "clique":
        ids = ids[: min(n, 40)]
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    elif kind == "forest":
        for i in range(1, len(ids)):
            edges.append((ids[rng.randrange(i)], ids[i]))
    elif kind == "sparse":
        m = rng.randint(1, 3 * n)
        for _ in range(m):
            u, v = rng.sample(ids, 2)
            edges.append((u, v))
    elif kind == "mixed":
        half = max(2, n // 2)
        edges = list(zip(ids[:half], ids[1:half]))
        for _ in range(n):
            u, v = rng.sample(ids, 2)
            edges.append((u, v))
    return edges


class TestNormalizeEdges:
    def test_orders_dedups_drops_loops(self):
        edges = normalize_edges([(5, 2), (2, 5), (3, 3), (1, 9)])
        assert edges.tolist() == [[1, 9], [2, 5]]

    def test_empty(self):
        assert normalize_edges([]).shape == (0, 2)

    def test_id_bound_enforced(self):
        with pytest.raises(InternalInvariantError):
            normalize_edges([(0, 2**31)])


class TestToForest:
    def test_worked_example(self):
        stats = {}
        forest = to_forest(normalize_edges(FIG_EDGES), stats)
        assert forest.tolist() == [list(e) for e in FIG_FOREST]
        assert stats["forest_rounds"] == 1

    def test_already_forest_is_fixpoint(self):
        forest = to_forest(normalize_edges(FIG_FOREST))
        assert forest.tolist() == [list(e) for e in FIG_FOREST]

    def test_empty(self):
        assert to_forest(normalize_edges([])).shape == (0, 2)

    def test_every_child_single_parent_and_connectivity(self, rng):
        for kind in ("star", "chain", "clique", "forest", "sparse", "mixed"):
            edges = random_graph(rng, kind, 200)
            norm = normalize_edges(edges)
            forest = to_forest(norm)
            children = forest[:, 1]
            assert len(np.unique(children)) == len(children)
            assert (forest[:, 0] < forest[:, 1]).all()
            # same partition as the input graph
            assert oracle_components(forest.tolist()) == oracle_components(edges)

    def test_parent_sum_strictly_decreases(self, rng):
        for _ in range(20):
            edges = random_graph(rng, "mixed", 150)
            stats = {}
            to_forest(normalize_edges(edges), stats)
            sums = stats["forest_parent_sums"]
            assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InternalInvariantError):
            to_forest(np.array([(5, 2)], dtype=np.int64))


class TestFlatten:
    def test_worked_example(self):
        labels = as_dict(*flatten(np.array(FIG_FOREST, dtype=np.int64)))
        assert labels == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_single_edge_one_round(self):
        stats = {}
        assert as_dict(*flatten(np.array([(1, 2)], dtype=np.int64), stats)) == {1: 1, 2: 1}
        assert stats["flatten_rounds"] == 0  # already height one

    def test_chain_height_eight_in_three_rounds(self):
        chain = np.array([(i, i + 1) for i in range(1, 9)], dtype=np.int64)
        stats = {}
        labels = as_dict(*flatten(chain, stats))
        assert labels == {i: 1 for i in range(1, 10)}
        assert stats["flatten_rounds"] == 3

    def test_round_bound(self, rng):
        for _ in range(30):
            edges = random_graph(rng, rng.choice(["chain", "forest", "mixed"]), 300)
            forest = to_forest(normalize_edges(edges))
            if forest.size == 0:
                continue
            h = forest_height(forest)
            stats = {}
            flatten(forest, stats)
            assert stats["flatten_rounds"] <= max(0, math.ceil(math.log2(h))) + 1

    def test_multi_parent_input_rejected(self):
        with pytest.raises(InternalInvariantError):
            flatten(np.array([(1, 3), (2, 3)], dtype=np.int64))

    def test_parent_not_less_than_child_rejected(self):
        with pytest.raises(InternalInvariantError):
            flatten(np.array([(3, 1)], dtype=np.int64))


class TestOracle:
    def test_worked_example(self):
        assert oracle_components(FIG_EDGES) == {i: 1 for i in range(1, 6)}

    def test_two_disjoint_edges(self):
        assert oracle_components([(1, 2), (3, 4)]) == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_isolated_node_universe(self):
        assert oracle_components([], nodes=[7]) == {7: 7}


class TestConnectedComponents:
    def test_matches_oracle_on_random_graphs(self, rng):
        kinds = ["star", "chain", "clique", "forest", "sparse", "mixed"]
        for i in range(60):
            edges = random_graph(rng, kinds[i % len(kinds)], 400)
            assert components(edges) == oracle_components(edges)

    def test_singletons_from_universe(self):
        labels = connected_components([(1, 2)], np.array([1, 2, 10]))
        assert labels.tolist() == [1, 1, 10]

    def test_labels_are_component_minima(self, rng):
        edges = random_graph(rng, "mixed", 300)
        labels = components(edges)
        for node, lab in labels.items():
            assert lab <= node
            assert labels[lab] == lab

    def test_idempotent_on_own_output(self, rng):
        edges = random_graph(rng, "sparse", 250)
        labels = components(edges)
        rerun_edges = [(lab, node) for node, lab in labels.items() if lab != node]
        again = components(rerun_edges, nodes=labels)
        assert again == labels

    def test_empty_graph(self):
        assert connected_components([], np.empty(0, dtype=np.int64)).shape == (0,)

    def test_isolated_nodes_and_largest_id_match_oracle(self, rng):
        top = MAX_NODE_ID
        for kind in ("star", "sparse", "mixed"):
            edges = random_graph(rng, kind, 100) + [(top - 1, top), (5, top)]
            isolated = [1_000_000, 1_000_001, top - 2]
            nodes = sorted({n for edge in edges for n in edge} | set(isolated))
            assert components(edges, nodes) == oracle_components(edges, nodes=nodes)

    def test_isolated_top_id_labels_itself(self):
        nodes = np.array([0, 1, MAX_NODE_ID])
        assert connected_components([(0, 1)], nodes).tolist() == [0, 0, MAX_NODE_ID]

    @pytest.mark.parametrize("edges, nodes", [
        ([(1, 2)], [1]),              # endpoint past the last node
        ([(1, 3)], [1, 2, 4]),        # endpoint between two nodes
        ([(0, 2)], [1, 2]),           # endpoint before the first node
        ([(1, 2)], []),
    ])
    def test_edge_endpoint_missing_from_nodes_rejected(self, edges, nodes):
        with pytest.raises(InternalInvariantError, match="not a component node"):
            connected_components(edges, np.array(nodes, dtype=np.int64))

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(InternalInvariantError, match="ascending"):
            connected_components([(1, 2)], np.array([2, 1]))
