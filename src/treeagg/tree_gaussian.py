"""Tree-structured Gaussian models.

Maximum-likelihood trees (Chow-Liu via Kruskal), tree-constrained precision
matrices assembled from pairwise covariance blocks, and the per-edge log
weights that turn the tree posterior into a product over edges.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateWeightsError, PerfectCorrelationError
from .graphs import UnionFind
from .matrices import EmpiricalCovariance, PartitionedPrecision, check_symmetric

CORRELATION_LIMIT = 1.0 - 1e-12


def require_imperfect_correlation(s: np.ndarray) -> np.ndarray:
    """The correlation matrix of covariance matrix s; |rho| at or beyond 1
    between two variables (perfectly dependent variables) raises
    PerfectCorrelationError."""
    d = np.sqrt(np.diag(s))
    if np.any(d <= 0):
        raise ValueError("covariance diagonal must be strictly positive")
    rho = s / np.outer(d, d)
    np.fill_diagonal(rho, 1.0)
    off = ~np.eye(rho.shape[0], dtype=bool)
    strength = np.where(off, np.abs(rho), 0.0)
    if strength.max(initial=0.0) >= CORRELATION_LIMIT:
        i, j = np.unravel_index(np.argmax(strength), strength.shape)
        raise PerfectCorrelationError(
            f"variables {i} and {j} (0-based) have |correlation| "
            f"{strength[i, j]:.15g}, at/above 1"
        )
    return rho


def uniform_prior(n_observed: int, n_hidden: int = 0) -> np.ndarray:
    """Uniform edge prior with hidden-hidden pairs excluded (identifiability).

    Its support is the set of pairs a tree may join, for every fit and score.
    """
    size = n_observed + n_hidden
    prior = np.ones((size, size))
    np.fill_diagonal(prior, 0.0)
    prior[n_observed:, n_observed:] = 0.0
    return prior


def log_edge_prior(prior: np.ndarray) -> np.ndarray:
    """log pi_ij of an edge prior matrix, -inf off its support.

    The support is the off-diagonal pairs of positive weight; the diagonal is
    never in it.  `log_marginal_tree_weight` reads the support from here, so
    a fit builds this once for all its E-steps.
    """
    prior = check_symmetric(prior, "prior")
    active = prior > 0.0
    np.fill_diagonal(active, False)
    return np.where(active, np.log(np.where(active, prior, 1.0)), -np.inf)


@functools.lru_cache(maxsize=16)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, read-only and built once per n: the pairs
    i < j in (row, col) order."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def gaussian_mutual_information(s: np.ndarray) -> np.ndarray:
    """Pairwise Gaussian mutual information -log(1 - rho^2)/2 of covariance s.

    Even in rho, so negatively correlated pairs rank by dependence strength.
    Rejects |rho| at or beyond 1 (perfectly dependent variables).
    """
    rho = require_imperfect_correlation(s)
    off = ~np.eye(rho.shape[0], dtype=bool)
    return -0.5 * np.log1p(-(rho**2), where=off, out=np.zeros_like(rho))


def maximum_spanning_tree(
    weights: np.ndarray, forbidden: np.ndarray
) -> tuple[tuple[int, int], ...]:
    """Kruskal maximum spanning tree over the pairs not `forbidden`, ties
    broken by lexicographic edge order: `upper_pairs` lists the pairs in
    that order, and a stable sort keeps it among equal weights."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    rows, cols = upper_pairs(n)
    allowed = ~np.asarray(forbidden, dtype=bool)[rows, cols]
    rows, cols = rows[allowed], cols[allowed]
    order = np.argsort(-w[rows, cols], kind="stable")
    uf = UnionFind(n)
    edges = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if uf.union(i, j):
            edges.append((i, j))
            if len(edges) == n - 1:
                break
    if len(edges) != n - 1:
        raise DegenerateWeightsError("allowed edges do not connect all nodes")
    return tuple(sorted(edges))


def tree_precision_from_cov(tree_edges, s: np.ndarray) -> np.ndarray:
    """Precision of the tree-structured MLE matching covariance s on nodes and
    tree edges.

    Assembled as sum_i [1/S_ii] plus, per edge, the embedded inverse of the 2x2
    covariance block minus the two univariate terms.  The inverse of the result
    reproduces s exactly on the diagonal and on every tree-edge block.
    """
    k = np.diag(1.0 / np.diag(s))
    for i, j in tree_edges:
        det = s[i, i] * s[j, j] - s[i, j] ** 2
        if det <= 1e-12 * s[i, i] * s[j, j]:
            raise PerfectCorrelationError(
                f"covariance block ({i}, {j}) is numerically singular"
            )
        k[i, i] += s[j, j] / det - 1.0 / s[i, i]
        k[j, j] += s[i, i] / det - 1.0 / s[j, j]
        k[i, j] -= s[i, j] / det
        k[j, i] = k[i, j]
    return k


def log_marginal_tree_weight(
    precision: PartitionedPrecision,
    log_prior: np.ndarray,
    cov: EmpiricalCovariance,
) -> np.ndarray:
    """Per-edge log gamma_ij = log(pi_ij d_ij m_ij) of the tree posterior.

    d_ij = ((K_ii K_jj - K_ij^2) / (K_ii K_jj))^(n/2) for every pair; the trace
    factor m is exp(-n K_ij S_ij) for observed pairs, exp((n/2) K_ih
    (K_HO S)_hi / K_hh) for observed-hidden pairs and 1 for hidden pairs.
    `log_prior` is log pi as `log_edge_prior` builds it; entries off its
    support come out as -inf.  S and n are those of `cov`.
    """
    sigma, n = cov.matrix, cov.n
    p, r = precision.n_observed, precision.n_hidden
    size = p + r
    kmat = precision.matrix
    if log_prior.shape != (size, size):
        raise ValueError("prior size does not match the precision")

    kd = np.diag(kmat)
    active = log_prior > -np.inf
    ratio = 1.0 - kmat**2 / np.outer(kd, kd)  # K is PD: every 2 x 2 minor is positive
    half_n = 0.5 * n
    log_d = half_n * np.log(np.where(active, ratio, 1.0))

    log_m = np.zeros((size, size))
    log_m[:p, :p] = -n * kmat[:p, :p] * sigma
    cross = kmat[p:, :p] @ sigma  # (r, p): sum_k K_hk S_ki
    log_m[:p, p:] = half_n * kmat[:p, p:] * cross.T / kd[None, p:]
    log_m[p:, :p] = log_m[:p, p:].T
    # hidden-hidden block keeps log m = 0

    return np.where(active, log_prior + log_d + log_m, -np.inf)
