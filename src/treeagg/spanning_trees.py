"""Exact computations over distributions on spanning trees.

A symmetric nonnegative weight matrix W defines an unnormalized distribution
over labeled spanning trees, P(T) proportional to the product of w_ij over the
edges of T.  Any first minor of the weighted Laplacian is the normalizing
constant Z(W); per-edge appearance probabilities are w_kl times the effective
resistance between k and l.

EM weights span hundreds of nats, where textbook determinant/inverse routes
collapse under cancellation, so the minors are evaluated by star-mesh (Schur)
elimination on the graph: removing a node adds w_iv * (w_jv / d_v) to every
remaining pair, a subtraction-free recurrence on positive numbers that keeps
full relative accuracy while every weight is a normal float (a dynamic range
of about 708 nats).  Resistances come from the same elimination: grounding a
node l and eliminating the rest yields a unit lower factor with nonpositive
off-diagonal, whose inverse is nonnegative, so R_kl = (L^-T D^-1 L^-1)_kk is
again a sum of positives.  Brute-force enumeration over Pruefer sequences
provides an independent oracle for small sizes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .errors import CalibrationError, DegenerateWeightsError, InvalidWeightError
from .graphs import prufer_to_edges

MAX_ENUMERATION_SIZE = 8


def validate_weight_matrix(w: np.ndarray) -> np.ndarray:
    """Check finiteness, symmetry, nonnegativity, zero diagonal and minimum size."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidWeightError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise InvalidWeightError("weight matrix needs at least 2 nodes")
    if not np.isfinite(w).all():
        raise InvalidWeightError("weights must be finite")
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if np.abs(w - w.T).max(initial=0.0) > 1e-10 * scale:
        raise InvalidWeightError("weight matrix is not symmetric")
    if np.any(np.diag(w) != 0.0):
        raise InvalidWeightError("weight matrix diagonal must be exactly zero")
    if np.any(w < 0.0):
        raise InvalidWeightError("weights must be nonnegative")
    return 0.5 * (w + w.T)


def build_laplacian(w: np.ndarray) -> np.ndarray:
    """Laplacian of a weight matrix: row sums on the diagonal, -w off it."""
    w = validate_weight_matrix(w)
    return np.diag(w.sum(axis=1)) - w


def _max_rescale(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide by the largest weight; returns (w', log scale).  All-zero w is kept."""
    top = float(w.max())
    if top == 0.0:
        return w, 0.0
    return w / top, np.log(top)


def _eliminate(w: np.ndarray, ground: int, need_factor: bool):
    """Star-mesh elimination of every node except `ground`.

    Returns (order, pivots, strictly-lower fractions N) where pivots[s] is the
    total incident weight of the s-th eliminated node at its elimination time
    and N[t, s] = w(v_t, v_s) / pivots[s] for t > s.  Z(W) equals the product
    of the pivots; the grounded Laplacian factors as (I - N) D (I - N)^T.
    A node left without incident weight means the positive-weight support is
    disconnected (Z = 0): the last node eliminated from every component that
    lacks the ground meets a zero pivot, and DegenerateWeightsError is raised.
    """
    n = w.shape[0]
    order = [i for i in range(n) if i != ground]
    cur = w.copy()
    m = len(order)
    pivots = np.empty(m)
    fractions = np.zeros((m, m)) if need_factor else None
    for s, v in enumerate(order):
        row = cur[v].copy()
        d = float(row.sum())
        if d <= 0.0:
            raise DegenerateWeightsError(
                f"node {v} lost all incident weight during elimination: "
                "the positive-weight support is disconnected"
            )
        pivots[s] = d
        ratio = row / d
        if need_factor and s + 1 < m:
            fractions[s + 1 :, s] = ratio[order[s + 1 :]]
        cur += np.outer(row, ratio)
        cur[v, :] = 0.0
        cur[:, v] = 0.0
        np.fill_diagonal(cur, 0.0)
    return order, pivots, fractions


def log_partition_function(w: np.ndarray) -> float:
    """log of Z(W) = sum over spanning trees of the edge-weight products.

    Returns -inf when the positive-weight support is disconnected (no spanning
    tree has positive weight), which the elimination meets as a zero pivot.
    """
    w = validate_weight_matrix(w)
    ws, log_scale = _max_rescale(w)
    try:
        _, pivots, _ = _eliminate(ws, 0, need_factor=False)
    except DegenerateWeightsError:
        return -np.inf
    return float(np.log(pivots).sum()) + (w.shape[0] - 1) * log_scale


def partition_function(w: np.ndarray) -> float:
    """Z(W); may overflow to inf for large weights, use log_partition_function then."""
    log_z = log_partition_function(w)
    if log_z == -np.inf:
        return 0.0
    return float(np.exp(log_z))


def _resistance_to_ground(w: np.ndarray, ground: int) -> np.ndarray:
    """Effective resistance from every node to `ground`, subtraction-free."""
    n = w.shape[0]
    order, pivots, fractions = _eliminate(w, ground, need_factor=True)
    m = len(order)
    lower = np.eye(m) - np.tril(fractions, k=-1)
    inv = solve_triangular(lower, np.eye(m), lower=True, unit_diagonal=True)
    with np.errstate(over="ignore", divide="ignore"):
        gdiag = (inv**2 / pivots[:, None]).sum(axis=0)
    out = np.zeros(n)
    out[order] = gdiag
    return out


def edge_marginals(w: np.ndarray) -> np.ndarray:
    """Appearance probability of every edge under P(T) ~ prod w_ij.

    M_kl = w_kl * R_kl with R the effective resistance.  Grounding node l and
    eliminating the rest yields the column R[:, l], so the full matrix costs
    one elimination per node; every quantity is a sum or product of positives,
    which keeps the result accurate while the weights stay normal floats.  Raises
    DegenerateWeightsError when the positive-weight support is disconnected.
    """
    w = validate_weight_matrix(w)
    ws, _ = _max_rescale(w)
    n = ws.shape[0]
    resistance = np.zeros((n, n))
    for ground in range(n):
        resistance[:, ground] = _resistance_to_ground(ws, ground)
    with np.errstate(over="ignore", invalid="ignore"):
        marg = ws * resistance
    marg[ws == 0.0] = 0.0
    np.fill_diagonal(marg, 0.0)
    return np.clip(0.5 * (marg + marg.T), 0.0, 1.0)


@lru_cache(maxsize=None)
def enumerate_trees(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All size^(size-2) labeled spanning trees on {0..size-1}, as edge tuples."""
    if size < 2:
        raise ValueError("need at least 2 nodes")
    if size > MAX_ENUMERATION_SIZE:
        raise ValueError(
            f"refusing to enumerate {size}^{size - 2} trees (size > {MAX_ENUMERATION_SIZE})"
        )
    if size == 2:
        return (((0, 1),),)
    return tuple(
        prufer_to_edges(seq, size)
        for seq in itertools.product(range(size), repeat=size - 2)
    )


@lru_cache(maxsize=None)
def _tree_edge_array(size: int) -> np.ndarray:
    """Edges of all labeled trees stacked as an int array (n_trees, size-1, 2)."""
    return np.array(enumerate_trees(size), dtype=np.intp)


def brute_force_tree_products(w: np.ndarray) -> np.ndarray:
    """Per-tree products of edge weights; the enumeration oracle's workhorse."""
    w = validate_weight_matrix(w)
    edges = _tree_edge_array(w.shape[0])
    return w[edges[:, :, 0], edges[:, :, 1]].prod(axis=1)


def brute_force_partition(w: np.ndarray) -> float:
    return float(brute_force_tree_products(w).sum())


def brute_force_edge_marginals(w: np.ndarray) -> np.ndarray:
    w = validate_weight_matrix(w)
    n = w.shape[0]
    edges = _tree_edge_array(n)
    products = w[edges[:, :, 0], edges[:, :, 1]].prod(axis=1)
    z = products.sum()
    if z <= 0.0:
        raise DegenerateWeightsError("no spanning tree has positive weight")
    acc = np.zeros((n, n))
    np.add.at(
        acc,
        (edges[:, :, 0].ravel(), edges[:, :, 1].ravel()),
        np.repeat(products, n - 1),
    )
    return (acc + acc.T) / z


def laplacian_first_minor(w: np.ndarray, u: int, v: int) -> float:
    """Signed (u, v) first minor of the Laplacian; equal to Z(W) for every (u, v)."""
    lap = build_laplacian(w)
    sub = np.delete(np.delete(lap, u, axis=0), v, axis=1)
    return float((-1.0) ** (u + v) * np.linalg.det(sub))


def _calibrate_on_support(
    prior: np.ndarray,
    p0: float,
    support: np.ndarray,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    size = prior.shape[0]
    n_pairs = int(np.count_nonzero(support[np.triu_indices(size, k=1)]))
    if not 0.0 < p0 < 1.0:
        raise CalibrationError(f"target probability {p0} outside (0, 1)")
    # Edge marginals of any spanning-tree distribution sum to size - 1, so a
    # uniform target is only attainable at p0 = (size - 1) / n_pairs.
    feasible = (size - 1) / n_pairs
    if abs(p0 - feasible) > tol:
        raise CalibrationError(
            f"marginals over {n_pairs} candidate edges always sum to {size - 1}; "
            f"uniform target must be {feasible:.6g}, got {p0:.6g}"
        )
    current = prior.copy()
    for _ in range(max_iter):
        marg = edge_marginals(current)
        dev = np.abs(marg[support] - p0).max(initial=0.0)
        if dev <= tol:
            return current
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(support, p0 / np.where(marg > 0, marg, 1.0), 1.0)
        current = current * ratio
        current, _ = _max_rescale(np.where(support, current, 0.0))
        np.fill_diagonal(current, 0.0)
    raise CalibrationError(
        f"fixed point did not reach tolerance {tol} in {max_iter} iterations"
    )


def calibrate_prior(
    prior: np.ndarray, p0: float, *, tol: float = 1e-6, max_iter: int = 200
) -> np.ndarray:
    """Rescale a strictly positive prior so every edge marginal equals p0.

    Multiplicative fixed point pi_ij <- pi_ij * p0 / M_ij(pi).  Raises
    CalibrationError for infeasible targets (the marginals of a spanning-tree
    distribution always sum to size - 1) and for priors with zero entries.
    """
    prior = np.asarray(prior, dtype=float)
    w = validate_weight_matrix(prior)
    off = ~np.eye(w.shape[0], dtype=bool)
    if np.any(w[off] <= 0.0):
        raise CalibrationError("prior must be strictly positive off the diagonal")
    return _calibrate_on_support(w, p0, off, tol, max_iter)
