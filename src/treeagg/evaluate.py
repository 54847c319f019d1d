"""Scoring inferred structures against ground truth: ROC and spurious-edge curves.

One threshold sweep, `_sweep`, serves both curves: the ROC labels node pairs
by the truth's edges, the spurious-edge curve by `_spurious_mask`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateCurveError, DegenerateRocError
from .graphs import Graph
from .simulate import GroundTruth
from .tree_gaussian import uniform_prior


class RocCurve:
    __slots__ = ("thresholds", "fpr", "power", "auc")

    def __init__(self, thresholds: np.ndarray, fpr: np.ndarray, power: np.ndarray, auc: float):
        self.thresholds = thresholds
        self.fpr = fpr
        self.power = power
        self.auc = auc


class SpuriousCurve:
    __slots__ = ("thresholds", "density", "spurious_fraction")

    def __init__(
        self, thresholds: np.ndarray, density: np.ndarray, spurious_fraction: np.ndarray
    ):
        self.thresholds = thresholds
        self.density = density
        self.spurious_fraction = spurious_fraction


def _sweep(scores: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each distinct score of the masked pairs, in descending order, with how
    many masked pairs score at least that and how many of those are labelled."""
    s = scores[mask]
    order = np.argsort(-s, kind="stable")
    last = np.nonzero(np.diff(s[order], append=-np.inf) != 0.0)[0]
    return s[order[last]], last + 1, np.cumsum(labels[mask][order])[last]


def roc(
    scores: np.ndarray, truth: Graph, exclude_hidden_from: int | None = None
) -> RocCurve:
    """Threshold sweep over distinct score values with trapezoidal AUC.

    Hidden-hidden pairs can be excluded: they are structural zeros under the
    identifiability assumption, not inferred quantities.  The pairs scored
    are the upper triangle of `uniform_prior`'s support.
    """
    scores = np.asarray(scores, dtype=float)
    size = truth.n_nodes
    n_observed = size if exclude_hidden_from is None else exclude_hidden_from
    mask = np.triu(uniform_prior(n_observed, size - n_observed) > 0)
    adj = truth.adjacency()
    n_pos = int(adj[mask].sum())
    n_neg = int(mask.sum()) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateRocError("truth has no positives or no negatives")

    thresholds, count, tp = _sweep(scores, adj, mask)
    power = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], (count - tp) / n_neg])
    thresholds = np.concatenate([[np.inf], thresholds])
    return RocCurve(thresholds, fpr, power, float(np.trapezoid(power, fpr)))


def score_edges(fit, target: str = "full", two_hop: bool = False) -> np.ndarray:
    """Symmetric edge-score matrix from a fit.

    Tree-aggregation fits score by the edge posterior alpha; single-tree fits
    by |K_ij| on tree edges (floored to the smallest positive float so tree
    edges always outrank non-edges) and zero elsewhere.  The marginal target
    restricts to observed-observed pairs; with two_hop, evidence for an
    observed pair routed through a hidden node (max_h alpha_ih alpha_jh) is
    added in.
    """
    if target not in ("full", "marginal"):
        raise ValueError("target must be 'full' or 'marginal'")
    p = fit.n_observed
    if getattr(fit, "alpha", None) is not None:
        full = np.asarray(fit.alpha, dtype=float).copy()
    elif getattr(fit, "tree", None) is not None:
        full = np.zeros((p + fit.n_hidden, p + fit.n_hidden))
        kmat = np.asarray(fit.precision.matrix, dtype=float)
        for i, j in fit.tree:
            value = max(abs(kmat[i, j]), np.finfo(float).tiny)
            full[i, j] = full[j, i] = value
    else:
        raise TypeError(f"unsupported fit type {type(fit).__name__}")
    if target == "full":
        return full
    marginal = full[:p, :p].copy()
    if two_hop and full.shape[0] > p:
        cross = full[:p, p:]
        marginal = np.maximum(marginal, (cross[:, None, :] * cross[None, :, :]).max(axis=2))
        np.fill_diagonal(marginal, 0.0)
    return marginal


def align_hidden_nodes(scores: np.ndarray, truth: GroundTruth) -> np.ndarray:
    """Permute inferred hidden columns to the truth's hidden labels.

    Maximum-weight matching on attachment overlap (score mass on each true
    hidden node's neighbors), brute-forced over permutations since r is tiny.
    """
    r = truth.n_hidden
    p = truth.n_observed
    adj = truth.graph.adjacency()
    overlap = np.zeros((r, r))  # true slot x inferred slot
    for t in range(r):
        neighbors = adj[p + t, :p]
        for m in range(r):
            overlap[t, m] = scores[:p, p + m][neighbors].sum()
    best_perm, best_value = None, -np.inf
    for perm in itertools.permutations(range(r)):
        value = sum(overlap[t, perm[t]] for t in range(r))
        if value > best_value:
            best_value, best_perm = value, perm
    order = list(range(p)) + [p + m for m in best_perm]
    return scores[np.ix_(order, order)]


def roc_target(fit, truth: GroundTruth, target: str) -> RocCurve:
    """ROC against the full graph (hidden nodes aligned) or the marginal graph."""
    scores = score_edges(fit, target)
    if target == "marginal":
        return roc(scores, truth.marginal)
    return roc(align_hidden_nodes(scores, truth), truth.graph, exclude_hidden_from=truth.n_observed)


def _spurious_mask(truth: GroundTruth) -> np.ndarray:
    """Observed pairs joined in the marginal graph that share a hidden neighbor in G."""
    adj = truth.graph.adjacency()
    p = truth.n_observed
    return truth.marginal.adjacency() & (adj[:p, p:] @ adj[p:, :p] > 0)


def spurious_edges(truth: GroundTruth) -> tuple[tuple[int, int], ...]:
    """Marginal-graph edges whose two endpoints share a hidden neighbor in G."""
    return tuple(map(tuple, np.argwhere(np.triu(_spurious_mask(truth))).tolist()))


def spurious_curve(scores: np.ndarray, truth: GroundTruth) -> SpuriousCurve:
    """Included-spurious fraction versus inferred-graph density over a threshold sweep."""
    spurious = np.triu(_spurious_mask(truth))
    total = int(spurious.sum())
    if total == 0:
        raise DegenerateCurveError("no spurious edges: curve undefined")
    p = truth.n_observed
    mask = np.triu(uniform_prior(p) > 0)
    thresholds, count, included = _sweep(np.asarray(scores, dtype=float), spurious, mask)
    return SpuriousCurve(thresholds, count / (p * (p - 1) / 2), included / total)


def mean_roc(curves, grid_size: int = 101) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise mean and sd of ROC curves interpolated on a common FPR grid."""
    grid = np.linspace(0.0, 1.0, grid_size)
    powers = np.array(
        [np.interp(grid, curve.fpr, curve.power) for curve in curves]
    )
    return grid, powers.mean(axis=0), powers.std(axis=0)


def mean_spurious(curves, grid_size: int = 101):
    """Pointwise mean and sd of spurious curves on a common density grid."""
    grid = np.linspace(0.0, 1.0, grid_size)
    fractions = np.array(
        [
            np.interp(grid, curve.density, curve.spurious_fraction, left=0.0)
            for curve in curves
        ]
    )
    return grid, fractions.mean(axis=0), fractions.std(axis=0)
