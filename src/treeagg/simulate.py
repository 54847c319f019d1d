"""Ground-truth generators: graphs, identifiable hidden sets, precisions, samples.

Hidden nodes are always relabeled last, so a GroundTruth's precision is
directly a PartitionedPrecision with observed variables 0..p-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleHiddenSetError, NotPositiveDefiniteError
from .graphs import Graph, random_tree_edges
from .matrices import PartitionedPrecision, matrix_from_json, matrix_to_json, symmetrize

ZERO_PATTERN_TOL = 1e-10
DIAG_MARGIN = 0.1  # smallest eigenvalue of a ground-truth precision
FLIP_PROB = 0.5  # chance that an edge weight is negative


def gen_graph(kind: str, size: int, seed, p_edge: float = 0.1) -> Graph:
    """Uniform random labeled tree or Erdos-Renyi G(size, p_edge)."""
    if size < 2:
        raise ValueError("size must be at least 2")
    rng = np.random.default_rng(seed)
    if kind == "tree":
        return Graph(size, random_tree_edges(size, rng))
    if kind == "erdos":
        if not 0.0 < p_edge < 1.0:
            raise ValueError("p_edge must be inside (0, 1)")
        edges = [
            (i, j)
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < p_edge
        ]
        return Graph(size, tuple(edges))
    raise ValueError(f"unknown graph kind {kind!r}")


def gen_precision(graph: Graph, seed) -> np.ndarray:
    """Signed incidence pattern with a diagonally dominant diagonal.

    Edge weights are +-1, each negative with probability FLIP_PROB; the
    diagonal is the absolute row sum plus DIAG_MARGIN, so the smallest
    eigenvalue is at least DIAG_MARGIN.
    """
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    k = np.zeros((n, n))
    for i, j in graph.edges:
        sign = -1.0 if rng.random() < FLIP_PROB else 1.0
        k[i, j] = k[j, i] = sign
    k[np.diag_indices(n)] = np.abs(k).sum(axis=1) + DIAG_MARGIN
    return k


def identifiable_hidden_sets(graph: Graph, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of pairwise non-adjacent nodes with degree >= 3."""
    adj = graph.adjacency()
    deg = adj.sum(axis=1)
    candidates = [i for i in range(graph.n_nodes) if deg[i] >= 3]
    feasible = []
    for subset in itertools.combinations(candidates, r):
        if all(not adj[a, b] for a, b in itertools.combinations(subset, 2)):
            feasible.append(subset)
    return feasible


def choose_hidden(graph: Graph, r: int, seed) -> tuple[int, ...]:
    """Uniformly random identifiable hidden set."""
    feasible = identifiable_hidden_sets(graph, r)
    if not feasible:
        raise InfeasibleHiddenSetError(
            f"no set of {r} pairwise non-adjacent nodes with degree >= 3"
        )
    rng = np.random.default_rng(seed)
    return feasible[int(rng.integers(len(feasible)))]


def scale_and_snr(
    precision: PartitionedPrecision, epsilon: float
) -> tuple[PartitionedPrecision, float, float]:
    """Scale the hidden blocks by epsilon and measure the signal-to-noise ratio.

    SNR is computed from the scaled blocks before any repair, so it scales
    exactly as epsilon^2.  If the scaled matrix's smallest eigenvalue is below
    DIAG_MARGIN, the diagonal is re-loaded: half the deficit as a uniform
    ridge, the rest on the nodes carrying the deficient eigendirections, so
    the repair does not drown the correlation structure away from the hidden
    nodes.  The largest per-entry addition is returned as diag_adjust.
    A negative or non-finite epsilon raises ValueError, and so does one that
    takes the scaled precision, its Schur term or the SNR out of the float
    range, or one so large that the repair's absolute DIAG_MARGIN is lost to
    roundoff and the result fails its Cholesky check; 0 removes the hidden
    nodes' signal.
    """
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    p, r = precision.n_observed, precision.n_hidden
    k = precision.matrix.copy()
    snr = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        k[p:] *= epsilon
        k[:p, p:] *= epsilon
        if r and epsilon != 0.0:
            schur_term = k[:p, p:] @ np.linalg.solve(k[p:, p:], k[p:, :p])
            snr = np.nan  # the spectral norms fail on a non-finite matrix
            if np.isfinite(k).all() and np.isfinite(schur_term).all():
                snr = float(
                    np.linalg.norm(schur_term, 2) ** 2 / np.linalg.norm(k[:p, :p], 2) ** 2
                )
    if not np.isfinite(snr):
        raise ValueError(
            f"epsilon {epsilon!r} scales the hidden blocks out of the float range: the "
            "scaled precision, its Schur term or the SNR is not finite"
        )

    added = np.zeros(k.shape[0])
    evals = np.linalg.eigvalsh(k)
    if evals[0] < DIAG_MARGIN:
        ridge = 0.5 * (DIAG_MARGIN - evals[0])
        k += ridge * np.eye(k.shape[0])
        added += ridge
        for _ in range(100):
            evals2, vecs = np.linalg.eigh(k)
            if evals2[0] >= DIAG_MARGIN:
                break
            direction = vecs[:, 0] ** 2
            bump = (DIAG_MARGIN - evals2[0]) * direction / (direction**2).sum()
            k += np.diag(bump)
            added += bump
        else:
            rest = DIAG_MARGIN - np.linalg.eigvalsh(k)[0]
            k += rest * np.eye(k.shape[0])
            added += rest
    k = symmetrize(k)
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise ValueError(f"epsilon {epsilon!r} is too large for the diagonal repair") from None
    return PartitionedPrecision(k, p, r), snr, float(added.max())


def sample_and_marginalize(
    precision: PartitionedPrecision, n: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """n iid draws from N(0, K^-1); returns (full data, observed columns)."""
    try:
        chol = np.linalg.cholesky(precision.matrix)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("precision is not positive definite") from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, precision.size))
    full = np.linalg.solve(chol.T, z.T).T
    return full, full[:, : precision.n_observed].copy()


def marginal_precision(precision: PartitionedPrecision) -> np.ndarray:
    """Schur complement K_O - K_OH K_H^-1 K_HO of the hidden block."""
    return symmetrize(
        precision.k_oo
        - precision.k_oh @ np.linalg.solve(precision.k_hh, precision.k_ho)
    )


def marginal_graph(k_m: np.ndarray) -> Graph:
    """Conditional-independence graph of the observed block, from `marginal_precision`."""
    p = k_m.shape[0]
    pairs = itertools.combinations(range(p), 2)
    return Graph(p, tuple((i, j) for i, j in pairs if abs(k_m[i, j]) > ZERO_PATTERN_TOL))


@dataclass(frozen=True)
class GroundTruth:
    """A simulated instance; hidden nodes occupy the last r labels.

    Construction checks `graph` against the off-diagonal support of `precision`
    (less the observed-hidden pairs at epsilon 0), then derives `hidden`,
    `marginal_precision_matrix` and `marginal` from `precision`.
    """

    kind: str
    epsilon: float
    seed: int
    graph: Graph
    precision: PartitionedPrecision
    snr: float
    diag_adjust: float

    def __post_init__(self):
        size, p = self.precision.size, self.n_observed
        if self.graph.n_nodes != size:
            raise ValueError(f"full_graph has {self.graph.n_nodes} nodes, not p + r = {size}")
        expected = self.graph.adjacency()
        if self.epsilon == 0.0:
            expected[:p, p:] = expected[p:, :p] = False
        support = self.precision.matrix != 0.0
        np.fill_diagonal(support, False)
        mismatch = np.argwhere(support != expected)
        if mismatch.size:
            i, j = mismatch[0]
            raise ValueError(f"full_graph and the precision's support differ at pair ({i}, {j})")
        k_m = marginal_precision(self.precision)
        object.__setattr__(self, "hidden", tuple(range(self.n_observed, size)))
        object.__setattr__(self, "marginal_precision_matrix", k_m)
        object.__setattr__(self, "marginal", marginal_graph(k_m))

    @property
    def n_observed(self) -> int:
        return self.precision.n_observed

    @property
    def n_hidden(self) -> int:
        return self.precision.n_hidden

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "p": self.n_observed,
            "r": self.n_hidden,
            "snr": self.snr,
            "diag_adjust": self.diag_adjust,
            "hidden": list(self.hidden),
            "full_graph": self.graph.to_json_dict(),
            "marginal_graph": self.marginal.to_json_dict(),
            "precision": matrix_to_json(self.precision.matrix),
            "marginal_precision": matrix_to_json(self.marginal_precision_matrix),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroundTruth":
        p, r = int(obj["p"]), int(obj["r"])
        return cls(
            kind=obj["kind"],
            epsilon=float(obj["epsilon"]),
            seed=int(obj["seed"]),
            graph=Graph.from_json_dict(obj["full_graph"]),
            precision=PartitionedPrecision(matrix_from_json(obj["precision"]), p, r),
            snr=float(obj["snr"]),
            diag_adjust=float(obj["diag_adjust"]),
        )


def _relabel_hidden_last(graph: Graph, hidden: tuple[int, ...]) -> Graph:
    observed = [i for i in range(graph.n_nodes) if i not in set(hidden)]
    mapping = {old: new for new, old in enumerate(observed + list(hidden))}
    edges = [(mapping[i], mapping[j]) for i, j in graph.edges]
    return Graph.from_edges(graph.n_nodes, edges)


def make_ground_truth(
    kind: str,
    size: int,
    r: int,
    epsilon: float,
    seed: int,
    p_edge: float = 0.1,
) -> GroundTruth:
    """Assemble a reproducible instance from a single master seed."""
    seq = np.random.SeedSequence(seed)
    seed_graph, seed_hidden, seed_prec = (
        int(child.generate_state(1)[0]) for child in seq.spawn(3)
    )
    graph = gen_graph(kind, size, seed_graph, p_edge=p_edge)
    hidden = choose_hidden(graph, r, seed_hidden)
    graph = _relabel_hidden_last(graph, hidden)
    base = PartitionedPrecision(gen_precision(graph, seed_prec), size - r, r)
    precision, snr, diag_adjust = scale_and_snr(base, epsilon)
    return GroundTruth(
        kind=kind,
        epsilon=epsilon,
        seed=seed,
        graph=graph,
        precision=precision,
        snr=snr,
        diag_adjust=diag_adjust,
    )


def sample_seed(seed: int) -> int:
    """Sampling seed derived from a replicate's master seed."""
    return int(np.random.SeedSequence(seed).spawn(4)[3].generate_state(1)[0])
