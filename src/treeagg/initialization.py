"""EM starting point: principal-component hidden nodes and a spanning tree.

Hidden node k starts as the unit-variance score of the k-th leading
principal component of the regularized covariance, so its covariances with
the observed nodes and with the other hidden nodes follow from the covariance
alone.  The starting precision is the tree MLE on the completed covariance,
over its maximum-information spanning tree without hidden-hidden edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import EmpiricalCovariance, PartitionedPrecision, floor_spectrum, symmetrize
from .tree_gaussian import maximum_spanning_tree, gaussian_mutual_information, tree_precision_from_cov


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
    covariance without hidden-hidden edges, so the tree MLE's hidden block is
    diagonal; the precision is that MLE floored to the positive-definite cone.
    """
    sigma = _regularize_cov(cov.matrix)
    p = cov.size
    size = p + n_hidden
    forbidden = np.zeros((size, size), dtype=bool)
    forbidden[p:, p:] = True
    reg = _regularize_cov(_completed_covariance(sigma, n_hidden))
    tree = maximum_spanning_tree(gaussian_mutual_information(reg), forbidden)
    k, _ = floor_spectrum(tree_precision_from_cov(tree, reg), p)
    return InitialState(PartitionedPrecision(k, p, n_hidden), tree)
