"""Baseline EM searching for a single fixed unknown tree.

Classification-EM flavor: the E-step completes the second moments over
observed and hidden variables with EM's `completed_moments`, and the M-step
is the initializer's `tree_mle` of the completion: its maximum-information
spanning tree without hidden-hidden edges and the tree MLE on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import LOG_2PI, FitOptions, completed_moments, conditional_moments
from .initialization import initial_precision_from_cov, tree_mle
from .matrices import EmpiricalCovariance, PartitionedPrecision
from .tree_gaussian import require_imperfect_correlation


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
    p = precision.n_observed
    schur = precision.k_oo - precision.k_oh @ np.linalg.solve(precision.k_hh, precision.k_ho)
    sign, logdet = np.linalg.slogdet(schur)
    if sign <= 0:
        return -np.inf
    n = cov.n
    return float(
        -0.5 * n * p * LOG_2PI + 0.5 * n * (logdet - np.trace(schur @ cov.matrix))
    )


def fit_fixed_tree(
    cov: EmpiricalCovariance, n_hidden: int, opts: FitOptions | None = None
) -> FixedTreeFit:
    """Alternate moment completion and the tree MLE until the tree stabilizes.

    Hidden-hidden edges are excluded from the tree search (identifiability).
    The fit stops, converged, when a tree repeats the one before it, and
    otherwise after `opts.max_iter` steps; it reads no `opts.tol`.
    Classification EM can cycle with period > 1: its trees differ from step
    to step, so it runs to `opts.max_iter` unconverged.  Without hidden nodes
    there is nothing to complete: the fit is its start, the tree MLE, on the
    Chow-Liu tree, of the regularized covariance.
    Two perfectly correlated observed variables raise PerfectCorrelationError
    before the covariance is regularized.
    """
    opts = opts or FitOptions()
    require_imperfect_correlation(cov.matrix)
    p = cov.size
    init = initial_precision_from_cov(cov, n_hidden)
    k, tree = init.precision, init.tree
    if n_hidden == 0:
        trace = (gaussian_observed_loglik(k, cov),) if opts.max_iter else ()
        return FixedTreeFit(tree, k, trace, len(trace), bool(trace))

    trace: list[float] = []
    converged = False
    prev_tree = None
    for _ in range(opts.max_iter):
        w_ho, _, b_h = conditional_moments(k, cov.matrix)
        tree, kmat = tree_mle(completed_moments(cov.matrix, w_ho, b_h), p)
        k = PartitionedPrecision(kmat, p, n_hidden)
        trace.append(gaussian_observed_loglik(k, cov))
        if prev_tree is not None and tree == prev_tree:
            converged = True
            break
        prev_tree = tree
    return FixedTreeFit(tree, k, tuple(trace), len(trace), converged)
