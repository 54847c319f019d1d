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
again a sum of positives; forward substitution builds that inverse from
products of nonnegative numbers, so it stays subtraction-free.  The n
groundings of the all-pairs resistances run in blocks, each block one
elimination and one forward substitution in lockstep on a (b, n, n) array, so
a block costs 2n - 3 Python steps; the block size comes from a fixed element
budget.  Each grounding eliminates a copy of W permuted to the other nodes in
label order, then its ground, so step s removes position s under every ground
and the factor comes out in place; the blocks match a one-grounding-at-a-time
elimination in that order bit for bit.  The tests keep that elimination, and
brute-force enumeration over Pruefer sequences, as oracles.  calibrate_prior
rescales a prior to a target edge marginal.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationError, DegenerateWeightsError, InvalidWeightError

# Element budget of one block of groundings: each (b, n, n) array of the
# block elimination takes at most 256 KB.
_BLOCK_ELEMENTS = 1 << 15

# Marginal tolerance and iteration budget of calibrate_prior.
CALIBRATION_TOL = 1e-6
CALIBRATION_MAX_ITER = 200


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


def _max_rescale(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide by the largest weight; returns (w', log scale).  All-zero w is kept."""
    top = float(w.max())
    if top == 0.0:
        return w, 0.0
    return w / top, np.log(top)


def _eliminate(w: np.ndarray, grounds: np.ndarray, need_factor: bool):
    """Star-mesh elimination of every node but the ground, for a block of grounds.

    Grounding k works on its own copy of w, permuted to order[k]: the other
    nodes in label order, then grounds[k].  Step s eliminates position s in
    every grounding at once, so the ground, last, is never eliminated.
    Returns (order, pivots, fractions).  pivots[k, s] is the total incident
    weight of position s at its elimination, and fractions[k, u, s] =
    w(u, s) / pivots[k, s] for u > s, taken then: the strictly-lower
    (n - 1, n - 1) factor N of the grounded Laplacian in elimination order,
    which factors as (I - N) D (I - N)^T.  Z(W) equals the product of a
    grounding's pivots.  A node left without incident weight means the
    positive-weight support is disconnected (Z = 0): the last node eliminated
    from every component that lacks the ground meets a zero pivot, and
    DegenerateWeightsError is raised.
    """
    b, n = len(grounds), w.shape[0]
    j = np.arange(n - 1)
    order = np.concatenate([j + (j >= grounds[:, None]), grounds[:, None]], axis=1)
    cur = w[order[:, :, None], order[:, None, :]]
    pivots = np.empty((n - 1, b))
    fractions = np.zeros((b, n - 1, n - 1)) if need_factor else None
    # A zero pivot turns the rest of its grounding into NaN; the pivots are
    # checked once, at the end.  The diagonal of cur is never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(n - 1):
            row = cur[:, s, s + 1 :]
            d = row.sum(axis=1)
            pivots[s] = d
            ratio = row / d[:, None]
            if need_factor:
                fractions[:, s + 1 :, s] = ratio[:, :-1]
            cur[:, s + 1 :, s + 1 :] += row[:, :, None] * ratio[:, None, :]
    if not pivots.min() > 0.0:  # also false for NaN
        s, k = np.argwhere(~(pivots > 0.0))[0]
        raise DegenerateWeightsError(
            f"node {order[k, s]} lost all incident weight during elimination "
            f"under ground {grounds[k]}: the positive-weight support is "
            "disconnected"
        )
    return order, pivots.T, fractions


def log_partition_function(w: np.ndarray) -> float:
    """log of Z(W) = sum over spanning trees of the edge-weight products.

    Returns -inf when the positive-weight support is disconnected (no spanning
    tree has positive weight), which the elimination meets as a zero pivot.
    """
    w = validate_weight_matrix(w)
    ws, log_scale = _max_rescale(w)
    try:
        _, pivots, _ = _eliminate(ws, np.zeros(1, dtype=np.intp), need_factor=False)
    except DegenerateWeightsError:
        return -np.inf
    return float(np.log(pivots[0]).sum()) + (w.shape[0] - 1) * log_scale


def _resistance_to_ground(w: np.ndarray, grounds: np.ndarray) -> np.ndarray:
    """Effective resistances to each of a block of grounds, subtraction-free.

    Row k holds the resistance from every node to grounds[k].  Each
    grounding's factor comes out of the elimination in its ground-last order,
    so the inverse of its unit lower factor I - N is built as it stands, by
    forward substitution on the whole block at once: row i of the inverse is
    N[i, :i] times the rows above it, a sum of products of nonnegative
    numbers.  The diagonal of (I - N)^-T D^-1 (I - N)^-1 is then summed over
    the rows of the inverse, one row after another.  One scatter through the
    order puts each result under its node's label.
    """
    order, pivots, fractions = _eliminate(w, grounds, need_factor=True)
    inv = np.tile(np.eye(w.shape[0] - 1), (len(grounds), 1, 1))
    for i in range(1, w.shape[0] - 1):
        inv[:, i : i + 1, :i] = fractions[:, i : i + 1, :i] @ inv[:, :i, :i]
    with np.errstate(over="ignore", divide="ignore"):
        gdiag = (inv**2 / pivots[:, :, None]).sum(axis=1)
    out = np.zeros(order.shape)
    np.put_along_axis(out, order[:, :-1], gdiag, axis=1)
    return out


def edge_marginals(w: np.ndarray) -> np.ndarray:
    """Appearance probability of every edge under P(T) ~ prod w_ij.

    M_kl = w_kl * R_kl with R the effective resistance.  Grounding node l and
    eliminating the other nodes in label order yields the column R[:, l]; the
    groundings run in blocks of at most _BLOCK_ELEMENTS / n^2, each block one
    elimination in lockstep with every ground moved last, and reproduce a
    one-ground-at-a-time elimination in that order bit for bit.
    Every quantity is a sum or product of positives, which keeps the result
    accurate while the weights stay normal floats.  Raises
    DegenerateWeightsError when the positive-weight support is disconnected.
    """
    w = validate_weight_matrix(w)
    ws, _ = _max_rescale(w)
    n = ws.shape[0]
    step = max(1, _BLOCK_ELEMENTS // (n * n))
    resistance = np.empty((n, n))
    for start in range(0, n, step):
        grounds = np.arange(start, min(start + step, n))
        resistance[:, start : start + step] = _resistance_to_ground(ws, grounds).T
    with np.errstate(over="ignore", invalid="ignore"):
        marg = ws * resistance
    marg[ws == 0.0] = 0.0
    np.fill_diagonal(marg, 0.0)
    return np.clip(0.5 * (marg + marg.T), 0.0, 1.0)


def require_feasible_target(prior: np.ndarray, p0: float) -> None:
    """Raise CalibrationError unless `calibrate_prior(prior, p0)` can reach p0.

    The marginals of a spanning-tree distribution always sum to size - 1, so
    a uniform target over the prior's candidate edges (its positive
    off-diagonal entries) must equal (size - 1) / #candidate edges.
    """
    w = validate_weight_matrix(prior)
    size = w.shape[0]
    n_pairs = int(np.count_nonzero(w[np.triu_indices(size, k=1)] > 0.0))
    if not 0.0 < p0 < 1.0:
        raise CalibrationError(f"target probability {p0} outside (0, 1)")
    feasible = (size - 1) / n_pairs if n_pairs else np.inf
    if abs(p0 - feasible) > CALIBRATION_TOL:
        raise CalibrationError(
            f"marginals over {n_pairs} candidate edges always sum to {size - 1}; "
            f"uniform target must be {feasible:.6g}, got {p0:.6g}"
        )


def calibrate_prior(prior: np.ndarray, p0: float) -> np.ndarray:
    """Rescale a prior so every candidate edge has marginal p0.

    The candidate edges are the prior's positive off-diagonal entries; the
    others stay zero.  Multiplicative fixed point pi_ij <- pi_ij * p0 / M_ij(pi).
    Raises CalibrationError for the infeasible targets that
    `require_feasible_target` rejects.
    """
    require_feasible_target(prior, p0)
    current = validate_weight_matrix(prior)
    support = current > 0.0
    for _ in range(CALIBRATION_MAX_ITER):
        marg = edge_marginals(current)
        dev = np.abs(marg[support] - p0).max(initial=0.0)
        if dev <= CALIBRATION_TOL:
            return current
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(support, p0 / np.where(marg > 0, marg, 1.0), 1.0)
        current = current * ratio
        current, _ = _max_rescale(np.where(support, current, 0.0))
        np.fill_diagonal(current, 0.0)
    raise CalibrationError(
        f"fixed point did not reach tolerance {CALIBRATION_TOL} in "
        f"{CALIBRATION_MAX_ITER} iterations"
    )
