"""EM starting point: triplet clustering, principal-component hidden nodes, Chow-Liu tree.

Observed nodes are grouped by greedily merging the triplet (then cliques)
whose common-hidden-parent model yields the largest BIC-penalized likelihood
gain; each retained clique contributes one hidden node, its unit-variance
first principal component, whose covariances with the observed nodes follow
from the covariance alone.  The starting precision is the tree MLE on the
completed covariance.

The merge history depends on the covariance alone; the number of hidden
nodes only chooses where to cut it, so one search serves every r.  The
search scores each merge candidate once: the triplets as one batch of
one-factor fits, then only the candidates each merge creates.  The tests
keep a search that rescans every candidate in every round as the oracle it
must match bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCliqueError
from .graphs import Graph
from .matrices import EmpiricalCovariance, PartitionedPrecision, floor_spectrum, symmetrize
from .tree_gaussian import chow_liu, maximum_spanning_tree, gaussian_mutual_information, tree_precision_from_cov

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MergeRecord:
    """One merge event: the two groups joined and its BIC-penalized gain."""

    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    gain: float

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.group_a + self.group_b))


def _replay(merges):
    """Yield the state after each merge prefix, the empty one first: the
    cliques present, sorted, and their accumulated gains."""
    cliques: list[tuple[int, ...]] = []
    scores: dict[tuple[int, ...], float] = {}
    yield (), {}
    for rec in merges:
        new = rec.members
        absorbed = [c for c in cliques if set(c) <= set(new)]
        gain = rec.gain + sum(scores.pop(c) for c in absorbed)
        cliques = [c for c in cliques if not set(c) <= set(new)] + [new]
        scores[new] = gain
        yield tuple(sorted(cliques)), dict(scores)


def _diag_loglik(block: np.ndarray, n: int) -> float:
    """Gaussian log-likelihood under the independent (diagonal) model."""
    d = np.diag(block)
    return -0.5 * n * (block.shape[0] * LOG_2PI + float(np.log(d).sum()) + block.shape[0])


def _factor_loglik(blocks: np.ndarray, n: int) -> np.ndarray:
    """Closed-form one-factor Gaussian fits of a stack of (m, m) blocks, m > 1:
    leading principal direction plus diagonal residual noise.

    LAPACK runs once per block, so a block's fit does not depend on the stack
    it comes in.
    """
    m = blocks.shape[-1]
    evals, vecs = np.linalg.eigh(blocks)
    loading = np.sqrt(np.maximum(evals[:, -1], 0.0))[:, None] * vecs[:, :, -1]
    diag = np.diagonal(blocks, axis1=1, axis2=2)
    noise = np.maximum(diag - loading**2, 1e-12 * diag)
    model = loading[:, :, None] * loading[:, None, :] + noise[:, :, None] * np.eye(m)
    _, logdet = np.linalg.slogdet(model)
    trace = np.trace(np.linalg.solve(model, blocks), axis1=1, axis2=2)
    return -0.5 * n * (m * LOG_2PI + logdet + trace)


def _factor_params(m: int) -> int:
    # loadings + factor variance + noise variances
    return 2 * m + 1


def _regularize_cov(sigma: np.ndarray, max_rho: float = 1.0 - 1e-6) -> np.ndarray:
    """Shrink toward the diagonal until correlations and eigenvalues are usable."""
    d = np.diag(np.diag(sigma))
    for lam in (0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5):
        s = (1.0 - lam) * sigma + lam * d
        rho = s / np.sqrt(np.outer(np.diag(s), np.diag(s)))
        off = ~np.eye(s.shape[0], dtype=bool)
        if np.abs(rho[off]).max(initial=0.0) >= max_rho:
            continue
        if np.linalg.eigvalsh(s)[0] <= 1e-10 * np.diag(s).mean():
            continue
        return s
    return 0.5 * sigma + 0.5 * d


def _clustering_from_cov(sigma: np.ndarray, n: int) -> tuple[MergeRecord, ...]:
    """Greedy merge history of candidate hidden-parent groups from a
    regularized covariance of n samples.  It does not depend on the number of
    hidden nodes, which only cuts it (`_cliques_for_target`).

    Merges are restricted to groups joined by an edge of the Chow-Liu tree.
    Each step takes the candidate of largest gain, ties going to the smallest
    (members, group_a, group_b).  Every candidate is scored once: the
    triplets of nodes as one batch up front, then, after each merge, the new
    clique with each free node (one batch) and with each older clique, which
    comes first in the record.  Candidates that touch a merged group drop out.
    With fewer than 3 nodes there is no triplet, and so no merge.
    """
    p = sigma.shape[0]
    adj = Graph(p, chow_liu(sigma)).adjacency()
    half_log_n = 0.5 * math.log(n)
    loglik = {(i,): _diag_loglik(sigma[i : i + 1, i : i + 1], n) for i in range(p)}
    # (-gain, members, group_a, group_b, record, parts): heap order is the
    # selection order, and members tell candidates apart.
    heap: list = []

    def score(candidates) -> None:
        """Push (group_a, group_b, parts) candidates that merge to one size."""
        if not candidates:
            return
        merged = [tuple(sorted(a + b)) for a, b, _ in candidates]
        idx = np.array(merged)
        fits = _factor_loglik(sigma[idx[:, :, None], idx[:, None, :]], n)
        for (a, b, parts), group, ll in zip(candidates, merged, fits):
            loglik[group] = ll
            delta_ll = ll - sum(loglik[g] for g in parts)
            delta_params = _factor_params(len(group)) - sum(
                _factor_params(len(g)) if len(g) > 1 else 1 for g in parts
            )
            rec = MergeRecord(a, b, delta_ll - delta_params * half_log_n)
            heapq.heappush(heap, (-rec.gain, group, a, b, rec, parts))

    triples = np.array(list(itertools.combinations(range(p), 3)), dtype=int).reshape(-1, 3)
    first, second, third = triples.T
    linked = adj[first, second] | adj[first, third] | adj[second, third]
    score([((i,), (j, k), ((i,), (j,), (k,))) for i, j, k in triples[linked].tolist()])

    groups = {(i,) for i in range(p)}  # free nodes and cliques
    merges: list[MergeRecord] = []
    while heap:
        *_, rec, parts = heapq.heappop(heap)
        if not groups.issuperset(parts):
            continue
        merges.append(rec)
        groups.difference_update(parts)
        new = rec.members
        touches = adj[list(new)].any(axis=0)
        score([(new, g, (new, g)) for g in sorted(groups) if len(g) == 1 and touches[g[0]]])
        for c in sorted(groups):
            if len(c) > 1 and touches[list(c)].any():
                score([(c, new, (c, new))])
        groups.add(new)
    return tuple(merges)


def _cliques_for_target(merges, n_hidden: int) -> tuple[tuple[int, ...], ...]:
    """The n_hidden cliques of highest accumulated gain in the merge prefix
    that holds the most cliques, up to n_hidden, then has the largest
    accumulated gain, then is shortest.

    Where the prefix of largest gain (the BIC cut) holds n_hidden cliques or
    more, that is the prefix chosen.
    """
    prefixes = list(itertools.accumulate((m.gain for m in merges), initial=0.0))
    states = list(_replay(merges))
    best = max(
        range(len(states)),
        key=lambda level: (min(len(states[level][0]), n_hidden), prefixes[level], -level),
    )
    cliques, scores = states[best]
    return tuple(sorted(cliques, key=lambda c: (-scores[c], c))[:n_hidden])


def _first_loading_positive(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its first nonzero loading positive."""
    for loading in v:
        if abs(loading) > 1e-12:
            return -v if loading < 0 else v
    return v


def _completed_covariance(
    sigma: np.ndarray, cliques, n_hidden: int
) -> np.ndarray:
    """Covariance over observed plus imputed hidden columns, from sigma alone.

    Clique columns are unit-variance leading principal scores of the clique;
    any deficit is filled with successive principal components of the full
    covariance.  Every direction has its first nonzero loading positive.
    """
    p = sigma.shape[0]
    directions = []  # full-length unit-cov directions u with Var(u' x) = 1
    for clique in cliques:
        members = tuple(sorted(int(c) for c in clique))
        idx = np.array(members)
        block = sigma[np.ix_(idx, idx)]
        _, vecs = np.linalg.eigh(block)
        v = _first_loading_positive(vecs[:, -1])
        scale = math.sqrt(max(float(v @ block @ v), 0.0))
        if scale <= 0.0:
            raise DegenerateCliqueError(f"clique {members} has zero variance")
        u = np.zeros(p)
        u[idx] = v / scale
        directions.append(u)
    deficit = n_hidden - len(directions)
    if deficit > 0:
        evals, vecs = np.linalg.eigh(sigma)
        order = np.argsort(evals)[::-1]
        start = len(directions)
        for j in range(deficit):
            col = _first_loading_positive(vecs[:, order[min(start + j, p - 1)]])
            lam = max(float(col @ sigma @ col), np.finfo(float).tiny)
            directions.append(col / math.sqrt(lam))
    u_mat = np.column_stack(directions) if directions else np.zeros((p, 0))
    completed = np.zeros((p + n_hidden, p + n_hidden))
    completed[:p, :p] = sigma
    completed[:p, p:] = sigma @ u_mat
    completed[p:, :p] = completed[:p, p:].T
    completed[p:, p:] = u_mat.T @ sigma @ u_mat
    return symmetrize(completed)


@dataclass(frozen=True)
class InitialState:
    precision: PartitionedPrecision
    tree: tuple[tuple[int, int], ...]


def initial_precision_from_cov(
    cov: EmpiricalCovariance, n_hidden: int, merges: tuple[MergeRecord, ...] | None = None
) -> InitialState:
    """Starting precision for the EM, computed from the covariance alone.

    The tree is the maximum-information spanning tree of the completed
    covariance without hidden-hidden edges; the precision is its tree MLE with
    the hidden block made diagonal, floored to the positive-definite cone.
    `merges` is `_clustering_from_cov` of the regularized covariance, for a
    caller that already holds it; without it the search runs here when
    n_hidden > 0.
    """
    sigma = _regularize_cov(cov.matrix)
    p = cov.size
    cliques: tuple[tuple[int, ...], ...] = ()
    if n_hidden > 0:
        if merges is None:
            merges = _clustering_from_cov(sigma, cov.n)
        cliques = _cliques_for_target(merges, n_hidden)
    size = p + n_hidden
    forbidden = np.zeros((size, size), dtype=bool)
    forbidden[p:, p:] = True
    reg = _regularize_cov(_completed_covariance(sigma, cliques, n_hidden))
    tree = maximum_spanning_tree(gaussian_mutual_information(reg), forbidden)
    k = tree_precision_from_cov(tree, reg)
    k[p:, p:] = np.diag(np.diag(k[p:, p:]))
    k, _ = floor_spectrum(k, p)
    return InitialState(PartitionedPrecision(k, p, n_hidden), tree)
