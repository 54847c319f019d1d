"""Baseline EM searching for a single fixed unknown tree.

Classification-EM flavor: the E-step completes the covariance over observed
and hidden variables from the current precision's conditional moments, the
M-step is Chow-Liu plus the tree MLE on the completed covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import FitOptions, _completed_moments, conditional_moments
from .initialization import initial_precision_from_cov, _regularize_cov
from .matrices import EmpiricalCovariance, PartitionedPrecision, symmetrize
from .tree_gaussian import (
    chow_liu,
    gaussian_mutual_information,
    maximum_spanning_tree,
    require_imperfect_correlation,
    tree_precision_from_cov,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FixedTreeFit:
    """Single-tree EM output: the tree, its precision and the likelihood trace."""

    tree: tuple[tuple[int, int], ...]
    precision: PartitionedPrecision
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def n_observed(self) -> int:
        return self.precision.n_observed

    @property
    def n_hidden(self) -> int:
        return self.precision.n_hidden


def gaussian_observed_loglik(
    precision: PartitionedPrecision, cov: EmpiricalCovariance
) -> float:
    """Exact marginal Gaussian log-likelihood of the observed block."""
    p, r = precision.n_observed, precision.n_hidden
    if r:
        schur = precision.k_oo - precision.k_oh @ np.linalg.solve(
            precision.k_hh, precision.k_ho
        )
    else:
        schur = precision.k_oo
    sign, logdet = np.linalg.slogdet(schur)
    if sign <= 0:
        return -np.inf
    n = cov.n
    return float(
        -0.5 * n * p * LOG_2PI + 0.5 * n * (logdet - np.trace(schur @ cov.matrix))
    )


def completed_covariance(
    precision: PartitionedPrecision, cov: EmpiricalCovariance
) -> np.ndarray:
    """Expected covariance over observed + hidden given the observed data."""
    if precision.n_hidden == 0:
        return cov.matrix.copy()
    w_ho, _, b_h = conditional_moments(precision, cov.matrix)
    return symmetrize(_completed_moments(cov.matrix, w_ho, b_h))


def fit_fixed_tree(
    cov: EmpiricalCovariance, n_hidden: int, opts: FitOptions | None = None
) -> FixedTreeFit:
    """Alternate covariance completion and Chow-Liu until the tree stabilizes.

    Hidden-hidden edges are excluded from the tree search (identifiability).
    Classification EM can cycle with period > 1, so a likelihood tolerance
    backs up the tree fixed-point test.  Without hidden nodes there is nothing
    to complete: the fit is the Chow-Liu tree of the regularized covariance.
    Two perfectly correlated observed variables raise PerfectCorrelationError
    before the covariance is regularized.
    """
    opts = opts or FitOptions()
    require_imperfect_correlation(cov)
    p = cov.size
    if n_hidden == 0:
        sigma = _regularize_cov(cov.matrix)
        tree = chow_liu(sigma)
        k = PartitionedPrecision(tree_precision_from_cov(tree, sigma), p, 0)
        trace = (gaussian_observed_loglik(k, cov),) if opts.max_iter else ()
        return FixedTreeFit(tree, k, trace, len(trace), bool(trace))

    init = initial_precision_from_cov(cov, n_hidden)
    k = init.precision
    tree = init.tree
    if opts.max_iter == 0:
        return FixedTreeFit(tree, k, (), 0, False)

    size = p + n_hidden
    forbidden = np.zeros((size, size), dtype=bool)
    forbidden[p:, p:] = True

    trace: list[float] = []
    converged = False
    prev_tree = None
    for _ in range(opts.max_iter):
        completed = _regularize_cov(completed_covariance(k, cov))
        tree = maximum_spanning_tree(gaussian_mutual_information(completed), forbidden)
        k = PartitionedPrecision(tree_precision_from_cov(tree, completed), p, n_hidden)
        trace.append(gaussian_observed_loglik(k, cov))
        if prev_tree is not None and tree == prev_tree:
            converged = True
            break
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= opts.tol * (
            abs(trace[-2]) + 1e-12
        ):
            converged = True
            break
        prev_tree = tree
    return FixedTreeFit(tree, k, tuple(trace), len(trace), converged)
