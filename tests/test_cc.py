import math
import random

import numpy as np
import pytest

from siglink.cc import connected_components, flatten, oracle_components, to_forest
from siglink.errors import InternalInvariantError

LARGE_ID = 2**31 - 1  # sparse ids this large are densified in the harness

FIG_EDGES = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]
FIG_FOREST = [(1, 2), (1, 4), (2, 3), (2, 5)]


def as_dict(nodes, labels) -> dict[int, int]:
    return dict(zip(np.asarray(nodes).tolist(), np.asarray(labels).tolist()))


def densify(edges, nodes=None) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ``nodes`` (every edge endpoint by default), and the
    edges over their positions: sparse ids become ``range(len(nodes))``,
    in the same order, so component minima map back to minima."""
    if nodes is None:
        nodes = {int(n) for edge in edges for n in edge}
    nodes = np.array(sorted(nodes), dtype=np.int64)
    return nodes, np.searchsorted(nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def components(edges, nodes=None) -> dict[int, int]:
    """``connected_components`` over ``nodes`` (every edge endpoint by
    default), densified, as a node -> label dict."""
    nodes, dense = densify(edges, nodes)
    return as_dict(nodes, nodes[connected_components(dense, len(nodes))])


def forest_of(edges, stats=None) -> tuple[np.ndarray, np.ndarray]:
    """``to_forest`` of the densified edges: the nodes, and the forest
    over their positions."""
    nodes, dense = densify(edges)
    return nodes, to_forest(dense, stats)


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


class TestToForest:
    def test_worked_example(self):
        stats = {}
        forest = to_forest(FIG_EDGES, stats)
        assert forest.tolist() == [list(e) for e in FIG_FOREST]
        assert stats["forest_rounds"] == 1
        # the dense parent array of nodes 0-5, before and after the round
        assert stats["forest_parent_sums"] == [15, 7]

    def test_already_forest_is_fixpoint(self):
        forest = to_forest(FIG_FOREST)
        assert forest.tolist() == [list(e) for e in FIG_FOREST]

    def test_empty(self):
        assert to_forest([]).shape == (0, 2)

    def test_orientation_repeats_and_loops_do_not_matter(self):
        assert to_forest([(5, 2), (2, 5), (3, 3), (1, 9)]).tolist() == [[1, 9], [2, 5]]

    def test_negative_endpoint_rejected(self):
        with pytest.raises(InternalInvariantError, match="not a component node"):
            to_forest([(-1, 2)])

    def test_sorted_by_parent_then_child(self, rng):
        for kind in ("star", "sparse", "mixed"):
            _, forest = forest_of(random_graph(rng, kind, 200))
            assert forest.tolist() == sorted(forest.tolist())

    def test_every_child_single_parent_and_connectivity(self, rng):
        for kind in ("star", "chain", "clique", "forest", "sparse", "mixed"):
            edges = random_graph(rng, kind, 200)
            nodes, forest = forest_of(edges)
            children = forest[:, 1]
            assert len(np.unique(children)) == len(children)
            assert (forest[:, 0] < forest[:, 1]).all()
            # same partition as the input graph
            assert oracle_components(nodes[forest].tolist()) == oracle_components(edges)

    def test_parent_sum_strictly_decreases(self, rng):
        for _ in range(20):
            edges = random_graph(rng, "mixed", 150)
            stats = {}
            forest_of(edges, stats)
            sums = stats["forest_parent_sums"]
            assert len(sums) == stats["forest_rounds"] + 1
            assert all(b < a for a, b in zip(sums, sums[1:]))


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
            _, forest = forest_of(edges)
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
        labels = connected_components([(1, 2)], 11)
        assert labels[[1, 2, 10]].tolist() == [1, 1, 10]
        assert labels.tolist() == [0, 1, 1] + list(range(3, 11))

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
        assert connected_components([], 0).shape == (0,)

    def test_isolated_nodes_and_largest_id_match_oracle(self, rng):
        top = LARGE_ID
        for kind in ("star", "sparse", "mixed"):
            edges = random_graph(rng, kind, 100) + [(top - 1, top), (5, top)]
            isolated = [1_000_000, 1_000_001, top - 2]
            nodes = sorted({n for edge in edges for n in edge} | set(isolated))
            assert components(edges, nodes) == oracle_components(edges, nodes=nodes)

    def test_isolated_top_id_labels_itself(self):
        assert components([(0, 1)], [0, 1, LARGE_ID]) == {0: 0, 1: 0, LARGE_ID: LARGE_ID}

    @pytest.mark.parametrize("edges, nodes", [
        ([(1, 2)], range(2)),       # endpoint past the last node
        ([(2, 1)], range(2)),       # the same, as the edge's first endpoint
        ([(-1, 1)], range(2)),      # endpoint before the first node
        ([(1, 2)], range(0)),
    ])
    def test_edge_endpoint_missing_from_nodes_rejected(self, edges, nodes):
        with pytest.raises(InternalInvariantError, match="not a component node"):
            connected_components(edges, len(nodes))
