"""EM starting point: triplet clustering, principal-component hidden nodes, Chow-Liu tree.

Observed nodes are grouped by greedily merging the triplet (then cliques)
whose common-hidden-parent model yields the largest BIC-penalized likelihood
gain; each retained clique contributes one hidden node, its unit-variance
first principal component, whose covariances with the observed nodes follow
from the covariance alone.  The starting precision is the tree MLE on the
completed covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCliqueError, InitializationFallback
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

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.group_a) | set(self.group_b)))


@dataclass(frozen=True)
class CliqueHierarchy:
    """Greedy merge history with the BIC-chosen cut.

    `cliques` holds the groups at the cut level, ranked by accumulated gain and
    capped at the requested number of hidden nodes.
    """

    merges: tuple[MergeRecord, ...]
    cut_level: int
    cliques: tuple[tuple[int, ...], ...]


def _replay(
    merges,
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], float]]:
    """State after a merge prefix: cliques present and their accumulated gains."""
    cliques: list[tuple[int, ...]] = []
    scores: dict[tuple[int, ...], float] = {}
    for rec in merges:
        new = rec.members
        absorbed = [c for c in cliques if set(c) <= set(new)]
        gain = rec.gain + sum(scores.pop(c) for c in absorbed)
        cliques = [c for c in cliques if not set(c) <= set(new)] + [new]
        scores[new] = gain
    return tuple(sorted(cliques)), scores


def _diag_loglik(block: np.ndarray, n: int) -> float:
    """Gaussian log-likelihood under the independent (diagonal) model."""
    d = np.diag(block)
    return -0.5 * n * (block.shape[0] * LOG_2PI + float(np.log(d).sum()) + block.shape[0])


def _factor_loglik(block: np.ndarray, n: int) -> float:
    """Closed-form one-factor Gaussian fit: leading principal direction plus
    diagonal residual noise."""
    m = block.shape[0]
    if m == 1:
        return _diag_loglik(block, n)
    evals, vecs = np.linalg.eigh(block)
    loading = math.sqrt(max(evals[-1], 0.0)) * vecs[:, -1]
    noise = np.maximum(np.diag(block) - loading**2, 1e-12 * np.diag(block))
    model = np.outer(loading, loading) + np.diag(noise)
    _, logdet = np.linalg.slogdet(model)
    trace = float(np.trace(np.linalg.solve(model, block)))
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


def _clustering_from_cov(sigma: np.ndarray, n: int, n_hidden: int) -> CliqueHierarchy:
    """Hierarchy of candidate hidden-parent groups from a regularized covariance
    of n samples.

    Merges are restricted to groups joined by an edge of the Chow-Liu tree.
    """
    if n_hidden == 0:
        return CliqueHierarchy((), 0, ())
    p = sigma.shape[0]
    if p < 3:
        raise InitializationFallback("need at least 3 observed nodes to form a triplet")
    adj = Graph(p, chow_liu(sigma)).adjacency()
    half_log_n = 0.5 * math.log(n)

    model_cache: dict[tuple[int, ...], float] = {}

    def model_ll(group: tuple[int, ...]) -> float:
        if group not in model_cache:
            idx = np.array(group)
            block = sigma[np.ix_(idx, idx)]
            model_cache[group] = (
                _factor_loglik(block, n) if len(group) > 1 else _diag_loglik(block, n)
            )
        return model_cache[group]

    def penalized_gain(parts: list[tuple[int, ...]]) -> float:
        merged = tuple(sorted(set().union(*map(set, parts))))
        delta_ll = model_ll(merged) - sum(model_ll(g) for g in parts)
        delta_params = _factor_params(len(merged)) - sum(
            _factor_params(len(g)) if len(g) > 1 else 1 for g in parts
        )
        return delta_ll - delta_params * half_log_n

    def connected(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return bool(adj[np.ix_(a, b)].any())

    free = set(range(p))
    cliques: list[tuple[int, ...]] = []
    merges: list[MergeRecord] = []

    while True:
        best: tuple[float, tuple[int, ...], MergeRecord] | None = None

        def consider(rec: MergeRecord, gain: float):
            nonlocal best
            key = (-gain, rec.members, rec.group_a, rec.group_b)
            if best is None or key < (-best[0], best[1], best[2].group_a, best[2].group_b):
                best = (gain, rec.members, rec)

        free_sorted = sorted(free)
        for ai, i in enumerate(free_sorted):
            for bi in range(ai + 1, len(free_sorted)):
                j = free_sorted[bi]
                for k in free_sorted[bi + 1 :]:
                    if not (adj[i, j] or adj[i, k] or adj[j, k]):
                        continue
                    gain = penalized_gain([(i,), (j,), (k,)])
                    consider(MergeRecord((i,), (j, k), gain), gain)
        for c in cliques:
            for x in free_sorted:
                if connected(c, (x,)):
                    gain = penalized_gain([c, (x,)])
                    consider(MergeRecord(c, (x,), gain), gain)
        for a_idx in range(len(cliques)):
            for b_idx in range(a_idx + 1, len(cliques)):
                a, b = cliques[a_idx], cliques[b_idx]
                if connected(a, b):
                    gain = penalized_gain([a, b])
                    consider(MergeRecord(a, b, gain), gain)

        if best is None:
            break
        _, members, rec = best
        merges.append(rec)
        free -= set(members)
        cliques = [c for c in cliques if not set(c) <= set(members)] + [members]

    prefix = np.concatenate([[0.0], np.cumsum([m.gain for m in merges])])
    cut_level = int(np.argmax(prefix))
    cut_cliques, scores = _replay(merges[:cut_level])
    ranked = sorted(cut_cliques, key=lambda c: (-scores[c], c))
    return CliqueHierarchy(tuple(merges), cut_level, tuple(ranked[:n_hidden]))


def _cliques_for_target(hierarchy: CliqueHierarchy, n_hidden: int):
    """Extend past the BIC cut when it yields fewer cliques than hidden nodes."""
    if len(hierarchy.cliques) >= n_hidden:
        return hierarchy.cliques[:n_hidden]
    best_level, best_key = None, None
    prefix = 0.0
    states = []
    for level in range(len(hierarchy.merges) + 1):
        cliques, scores = _replay(hierarchy.merges[:level])
        prefix = sum(m.gain for m in hierarchy.merges[:level])
        states.append((cliques, scores))
        key = (len(cliques) >= n_hidden, min(len(cliques), n_hidden), prefix, -level)
        if best_key is None or key > best_key:
            best_key, best_level = key, level
    cliques, scores = states[best_level]
    ranked = sorted(cliques, key=lambda c: (-scores[c], c))
    return tuple(ranked[:n_hidden])


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


def initial_precision_from_cov(cov: EmpiricalCovariance, n_hidden: int) -> InitialState:
    """Starting precision for the EM, computed from the covariance alone.

    The tree is the maximum-information spanning tree of the completed
    covariance without hidden-hidden edges; the precision is its tree MLE with
    the hidden block made diagonal, floored to the positive-definite cone.
    """
    sigma = _regularize_cov(cov.matrix)
    p = cov.size
    cliques: tuple[tuple[int, ...], ...] = ()
    if n_hidden > 0:
        try:
            hierarchy = _clustering_from_cov(sigma, cov.n, n_hidden)
            cliques = hierarchy.cliques
            if len(cliques) < n_hidden:
                cliques = _cliques_for_target(hierarchy, n_hidden)
        except InitializationFallback:
            cliques = ()
    size = p + n_hidden
    forbidden = np.zeros((size, size), dtype=bool)
    forbidden[p:, p:] = True
    reg = _regularize_cov(_completed_covariance(sigma, cliques, n_hidden))
    tree = maximum_spanning_tree(gaussian_mutual_information(reg), forbidden)
    k = tree_precision_from_cov(tree, reg)
    k[p:, p:] = np.diag(np.diag(k[p:, p:]))
    k, _ = floor_spectrum(k, p)
    return InitialState(PartitionedPrecision(k, p, n_hidden), tree)
