"""Small undirected-graph utilities: labeled graphs, union-find, Pruefer codes."""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

Edge = tuple[int, int]


# The package's records are plain classes with __slots__, not frozen
# dataclasses: generating a dataclass's methods costs about 0.6 ms per class,
# paid at import by every CLI process.
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1."""

    __slots__ = ("n_nodes", "edges")

    def __init__(self, n_nodes: int, edges: tuple[Edge, ...]):
        self.n_nodes = n_nodes
        self.edges = edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_nodes, self.edges) == (other.n_nodes, other.edges)

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.edges))

    @classmethod
    def from_edges(cls, n_nodes: int, edges: Iterable[Iterable[int]]) -> "Graph":
        """Each edge sorted as (min, max), duplicates dropped, the list sorted.

        An edge is exactly two integer endpoints; anything else raises
        ValueError (wrong length) or TypeError (a non-integer endpoint, a
        boolean included).
        """
        norm = tuple(sorted({_endpoints(e) for e in edges}))
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
        return cls.from_edges(json_int(obj["n_nodes"], "n_nodes"), obj["edges"])


def json_int(value, key: str) -> int:
    """`value` read with `operator.index`; a float, a string or a boolean raises TypeError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{key}: expected an integer, got {value!r}")
    return operator.index(value)


def _endpoints(edge: Iterable[int]) -> Edge:
    """(min, max) of an edge's two endpoints, each read as `json_int` reads
    a count: Python and numpy integers, and no float, string or boolean."""
    ends = tuple(edge)
    if len(ends) != 2:
        raise ValueError(f"edge {list(ends)} does not have exactly two endpoints")
    try:
        i, j = json_int(ends[0], "endpoint"), json_int(ends[1], "endpoint")
    except TypeError:
        raise TypeError(f"edge {list(ends)} has a non-integer endpoint") from None
    return (i, j) if i <= j else (j, i)


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

