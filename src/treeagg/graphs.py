"""Small undirected-graph utilities: labeled graphs, union-find, Pruefer codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1."""

    n_nodes: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n_nodes: int, edges: Iterable[Iterable[int]]) -> "Graph":
        """Each edge sorted as (min, max), duplicates dropped, the list sorted."""
        norm = tuple(sorted({tuple(sorted((int(e[0]), int(e[1])))) for e in edges}))
        loops = [i for i, j in norm if i == j]
        if loops:
            raise ValueError(f"self-loop on node {loops[0]}")
        bad = [e for e in norm if not (0 <= e[0] and e[1] < n_nodes)]
        if bad:
            raise ValueError(f"edge {bad[0]} has an endpoint outside [0, {n_nodes})")
        return cls(n_nodes, norm)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj

    def to_json_dict(self) -> dict:
        return {"n_nodes": self.n_nodes, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        return cls.from_edges(int(obj["n_nodes"]), obj["edges"])


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def prufer_to_edges(seq: Iterable[int], n_nodes: int) -> tuple[Edge, ...]:
    """Decode a Pruefer sequence (length n-2) into the edges of a labeled tree."""
    seq = list(seq)
    if n_nodes < 2 or len(seq) != n_nodes - 2:
        raise ValueError("sequence length must be n_nodes - 2")
    degree = [1] * n_nodes
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n_nodes) if degree[i] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n_nodes) if degree[i] == 1]
    edges.append((u, v))
    return tuple(sorted(edges))


def random_tree_edges(n_nodes: int, rng: np.random.Generator) -> tuple[Edge, ...]:
    """Uniform random labeled tree via a random Pruefer sequence."""
    seq = rng.integers(0, n_nodes, size=n_nodes - 2)
    return prufer_to_edges(seq.tolist(), n_nodes)

