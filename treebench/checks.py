"""Output checks made apart from the program under test.

Each check returns a list of problems (empty when the output is right).  The
references are either an independent computation (dense pseudo-inverse,
determinant, enumeration over Pruefer sequences, the rank-sum AUC) or a
property every correct output must have.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def saturated_loglik_bound(sigma: np.ndarray, n: int) -> float:
    """-n/2 (p log 2 pi + log det S + p): the Gaussian log-likelihood at K = S^-1.

    No Gaussian model of the observed block, and no mixture of them over
    trees, can score higher on data with MLE covariance S.
    """
    p = sigma.shape[0]
    _, logdet = np.linalg.slogdet(sigma)
    return -0.5 * n * (p * LOG_2PI + logdet + p)


def edge_posterior_problems(alpha: np.ndarray, n_observed: int) -> list[str]:
    """Sum over pairs is size - 1, every entry in [0, 1], hidden-hidden pairs zero."""
    alpha = np.asarray(alpha, dtype=float)
    size = alpha.shape[0]
    out = []
    if not np.all(np.isfinite(alpha)):
        return ["alpha has non-finite entries"]
    if alpha.min() < 0.0 or alpha.max() > 1.0:
        out.append(f"alpha outside [0, 1]: [{alpha.min():.3g}, {alpha.max():.3g}]")
    total = alpha[np.triu_indices(size, k=1)].sum()
    if abs(total - (size - 1)) > 1e-8 * size:
        out.append(f"sum of alpha over pairs is {total!r}, expected {size - 1}")
    if np.any(alpha[n_observed:, n_observed:] != 0.0):
        out.append("alpha is not zero on hidden-hidden pairs")
    return out


def precision_problems(k: np.ndarray) -> list[str]:
    """K must be symmetric and Cholesky-factorable."""
    out = []
    if not np.array_equal(k, k.T):
        out.append("K is not symmetric")
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        out.append("K has no Cholesky factor")
    return out


def selection_problems(report, p: int, n: int) -> list[str]:
    """Recompute BIC/ICL with the paper's penalty and re-derive `selected`."""
    out = []
    criteria = ("bic", "icl_tree", "icl_joint")
    for row in report.rows:
        r = row.n_hidden
        pen = (p * (p + 1) / 2 + r * p + r) * math.log(n) / 2
        bic = row.loglik - pen
        expect = {"bic": bic, "icl_tree": bic - row.h_tree, "icl_joint": bic - row.h_joint}
        for name in criteria:
            got = getattr(row, name)
            if not math.isclose(got, expect[name], rel_tol=1e-12, abs_tol=1e-9):
                out.append(f"r={r}: {name} {got!r} != recomputed {expect[name]!r}")
    ok = [row for row in report.rows if row.error is None]
    for name in criteria:
        best = max(ok, key=lambda row: (getattr(row, name), -row.n_hidden)).n_hidden if ok else None
        if report.selected[name] != best:
            out.append(f"selected[{name}] = {report.selected[name]}, recomputed {best}")
    return out


def _laplacian(w: np.ndarray) -> np.ndarray:
    return np.diag(w.sum(axis=1)) - w


def _dense_marginals(w: np.ndarray) -> np.ndarray:
    """w_kl times the effective resistance, from the Laplacian pseudo-inverse."""
    g = np.linalg.pinv(_laplacian(w))
    d = np.diag(g)
    return w * (d[:, None] + d[None, :] - 2.0 * g)


def _dense_log_partition(w: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(_laplacian(w)[1:, 1:])
    return logdet if sign > 0 else -math.inf


@lru_cache(maxsize=None)
def _all_trees(size: int) -> np.ndarray:
    """Edges of every labeled tree on `size` nodes, decoded from Pruefer sequences."""
    trees = []
    for seq in itertools.product(range(size), repeat=size - 2):
        degree = [1] * size
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, v = (i for i in range(size) if degree[i] == 1)
        edges.append((u, v))
        trees.append(edges)
    return np.array(trees, dtype=np.intp)


def _enumerated(w: np.ndarray) -> tuple[np.ndarray, float]:
    trees = _all_trees(w.shape[0])
    products = w[trees[:, :, 0], trees[:, :, 1]].prod(axis=1)
    z = products.sum()
    marg = np.zeros_like(w)
    np.add.at(marg, (trees[:, :, 0].ravel(), trees[:, :, 1].ravel()), np.repeat(products, w.shape[0] - 1))
    return (marg + marg.T) / z, math.log(z)


def _weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """A well-conditioned weight matrix: every pair weighted in [0.5, 2]."""
    w = rng.uniform(0.5, 2.0, (size, size))
    w = np.triu(w, k=1)
    return w + w.T


def kernel_problems(spanning_trees, rng: np.random.Generator, size: int) -> list[str]:
    """Compare the Matrix-Tree kernel with dense linear algebra at `size`, and
    with enumeration at size 7."""
    out = []
    for n, reference in ((size, None), (7, _enumerated)):
        w = _weights(rng, n)
        marg = spanning_trees.edge_marginals(w)
        log_z = spanning_trees.log_partition_function(w)
        ref_marg, ref_log_z = (
            (_dense_marginals(w), _dense_log_partition(w)) if reference is None else reference(w)
        )
        err = float(np.abs(marg - ref_marg).max() / np.abs(ref_marg).max())
        if err > 1e-9:
            out.append(f"edge_marginals at n={n}: relative error {err:.2e}")
        if abs(log_z - ref_log_z) > 1e-9 * max(1.0, abs(ref_log_z)):
            out.append(f"log_partition_function at n={n}: {log_z!r} vs {ref_log_z!r}")
    return out


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC, ties counted one half through average ranks."""
    from scipy.stats import rankdata  # here, so the other workloads' peak RSS leaves it out

    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def marginal_auc_from_files(fit_json: dict, truth_json: dict) -> float:
    """Marginal-graph AUC from a fit.json alpha and a ground_truth.json."""
    p = int(truth_json["p"])
    alpha = np.array(fit_json["alpha"]["data"], dtype=float).reshape(fit_json["alpha"]["shape"])
    adjacency = np.zeros((p, p), dtype=bool)
    for i, j in truth_json["marginal_graph"]["edges"]:
        adjacency[i, j] = adjacency[j, i] = True
    iu = np.triu_indices(p, k=1)
    return rank_sum_auc(alpha[:p, :p][iu], adjacency[iu])
