"""EM starting point and the tree MLE it shares with the fixed-tree baseline.

`tree_mle` regularizes a covariance over observed plus hidden variables and
returns its maximum-information spanning tree, hidden-hidden pairs excluded,
with the tree-structured precision matching it on that tree.  The EM start
applies it to a completion from the covariance alone: hidden node k is the
unit-variance score of the k-th leading principal component of the
regularized covariance, so its covariances with the observed nodes and with
the other hidden nodes follow from the covariance.  Without hidden nodes the
start is the tree MLE of the covariance itself: one shrinkage and no
eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import EmpiricalCovariance, PartitionedPrecision, completed_moments, symmetrize
from .tree_gaussian import (
    gaussian_mutual_information,
    maximum_spanning_tree,
    tree_precision_from_cov,
    uniform_prior,
)


MAX_RHO = 1.0 - 1e-6  # largest |correlation| the shrinkage leaves


def _regularize_cov(sigma: np.ndarray) -> np.ndarray:
    """Least shrinkage toward the diagonal whose correlation matrix is usable.

    Usable: every |rho| below MAX_RHO and the smallest eigenvalue above 1e-10.
    Both tests read the correlations, so the choice does not depend on units.
    Halfway, the correlation matrix R/2 + I/2 always passes them.
    """
    d = np.diag(np.diag(sigma))
    off = ~np.eye(sigma.shape[0], dtype=bool)
    for lam in (0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.1):
        s = (1.0 - lam) * sigma + lam * d
        rho = s / np.sqrt(np.outer(np.diag(s), np.diag(s)))
        if np.abs(rho[off]).max(initial=0.0) < MAX_RHO:
            if np.linalg.eigvalsh(rho)[0] > 1e-10:
                return s
    return 0.5 * sigma + 0.5 * d


def _first_loading_positive(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its first nonzero loading positive."""
    for loading in v:
        if abs(loading) > 1e-12:
            return -v if loading < 0 else v
    return v


def _completed_covariance(sigma: np.ndarray, n_hidden: int) -> np.ndarray:
    """Covariance over observed plus imputed hidden columns, from sigma alone.

    Hidden column k is the unit-variance score u_k' x of the k-th leading
    principal direction of sigma (the last one repeated past p), with its
    first nonzero loading positive.  Its covariances are sigma u_k with the
    observed columns and u_j' sigma u_k with the other hidden ones.
    """
    p = sigma.shape[0]
    evals, vecs = np.linalg.eigh(sigma)
    order = np.argsort(evals)[::-1]
    directions = []  # full-length directions u with Var(u' x) = 1
    for j in range(n_hidden):
        col = _first_loading_positive(vecs[:, order[min(j, p - 1)]])
        lam = max(float(col @ sigma @ col), np.finfo(float).tiny)
        directions.append(col / math.sqrt(lam))
    u_mat = np.column_stack(directions) if directions else np.zeros((p, 0))
    # the scores' cross moments with x are sigma U, so W_HO is -(sigma U)'
    return symmetrize(completed_moments(sigma, -(sigma @ u_mat).T, u_mat.T @ sigma @ u_mat))


def tree_mle(
    sigma: np.ndarray, n_observed: int
) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Tree and precision of the Gaussian tree MLE of a regularized sigma.

    The first n_observed variables are observed, the rest hidden; the tree is
    the maximum-information spanning tree over the pairs `uniform_prior`
    allows, so the precision's hidden block is diagonal.
    """
    reg = _regularize_cov(sigma)
    forbidden = uniform_prior(n_observed, reg.shape[0] - n_observed) == 0
    tree = maximum_spanning_tree(gaussian_mutual_information(reg), forbidden)
    return tree, tree_precision_from_cov(tree, reg)


class InitialState:
    __slots__ = ("precision", "tree")

    def __init__(self, precision: PartitionedPrecision, tree: tuple[tuple[int, int], ...]):
        self.precision = precision
        self.tree = tree


def initial_precision_from_cov(cov: EmpiricalCovariance, n_hidden: int) -> InitialState:
    """Starting precision for the EM, computed from the covariance alone.

    The tree MLE of the principal-component completion; without hidden
    nodes there is nothing to complete, and the start is `tree_mle` of the
    covariance, as in `fixed_tree`.  A tree MLE built from positive-definite
    2 x 2 edge blocks is positive definite, so the start needs no floor.
    """
    p = cov.size
    sigma = cov.matrix
    if n_hidden:
        sigma = _completed_covariance(_regularize_cov(sigma), n_hidden)
    tree, k = tree_mle(sigma, p)
    return InitialState(PartitionedPrecision(k, p, n_hidden), tree)
