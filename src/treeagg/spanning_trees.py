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
of about 708 nats).  One routine, `_kron_reduce`, does every elimination.
The all-pairs resistances come from it by Kron reduction: R_kl = 1 / C_kl,
with C_kl the conductance left between k and l once every other node is
eliminated.  A recursion over halves of the node set reaches every pair at
O(n^3) cost: each subproblem eliminates the other half of its parent's
nodes, and all subproblems of one level run in lockstep on one array, so a
call takes about n Python steps.  A level's subproblems are copied out of
the level above by `np.take`, two calls per run of subproblems that gather
the same positions, from index arrays cached per n.  The last level, which
leaves each pair's two nodes, eliminates at most two nodes of a four-node
block and is done in closed form, on six conductances per pair.  Any
root-to-leaf path of the recursion eliminates every node but two, so the
pivots along the path to leaf 0 give log Z as well: one call of
`tree_posterior` returns both, and `log_partition_function` and
`edge_marginals` each return one of them.  The tests keep a
one-grounding-at-a-time elimination with forward substitution, brute-force
enumeration over Pruefer sequences, and the reduction gathered by fancy
indexing with log Z from every path, as oracles.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateWeightsError, InvalidWeightError


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


# Pairs of quarters (A1, A2, B1, B2) that a subproblem's children keep: the
# four cross pairs, then A and B alone, which only owing subproblems have.
_CHILD_QUARTERS = ((0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3))


def _subproblem_plan(n: int):
    """Index plan of the all-pairs Kron reduction on n nodes.

    A subproblem holds a Schur complement in 2q slots: half A in the first q,
    half B in the last q, each padded at its end with dummy slots (label -1).
    Each half splits into two quarters, the first one node larger when the
    half is odd.  A child keeps one quarter of A and one of B, as its halves
    of q' = ceil(q / 2) slots; a subproblem that owes its within-half pairs
    (the root, and each half split off such a subproblem) also has A and B
    as owing children.  A child without a node in both kept quarters owns no
    pair and is pruned.  Every child star-mesh-eliminates the parent's other
    nodes, so each unordered pair ends in exactly one two-slot leaf.

    A level's arrays carry a zero row and column at position 0, then the
    eliminated positions, then the kept slots; a dummy gathers position 0.
    The children of a level are sorted by their gather positions, so that
    children gathered alike are adjacent; the first child, whose line of
    descent holds leaf 0, stays first.  The last level, whose children are
    the two-slot leaves, eliminates one or two slots of a four-slot block
    (one at sizes 2^k + 1); `_kron_reduce` does it in closed form, so it is
    returned apart, and padded to two eliminated slots with dummies.  At
    n = 2 there is no level, and the closed form's two dummies leave the one
    pair's weight as it is.  Returns (levels, last, k, l): per level but the
    last, each child's parent and gather positions in the parent's array, a
    mask of the eliminated dummies (whose zero pivots are raised to 1) and
    the eliminated count e; for the last level, each leaf's parent and the
    positions there of its eliminated slots u and v (0 for a dummy) and of
    its kept slots; and the two labels of each leaf.
    """
    q = (n + 1) // 2
    labels = np.full((1, 2 * q), -1)
    labels[0, :n] = np.arange(n)
    owing = np.array([True])
    at = 1
    levels = []
    while q > 1:
        half = (q + 1) // 2
        real = labels >= 0
        count_a, count_b = real[:, :q].sum(axis=1), real[:, q:].sum(axis=1)
        mid_a, mid_b = (count_a + 1) // 2, q + (count_b + 1) // 2
        # quarter i of subproblem p holds the slots lo[i, p] <= slot < hi[i, p]
        lo = np.stack([np.zeros_like(mid_a), mid_a, np.full_like(mid_b, q), mid_b])
        hi = np.stack([mid_a, count_a, mid_b, q + count_b])
        subs = len(labels)
        parent = np.tile(np.arange(subs), len(_CHILD_QUARTERS))
        x, y = np.repeat(np.array(_CHILD_QUARTERS), subs, axis=0).T
        owes = np.arange(len(parent)) >= 4 * subs
        keep = (hi[x, parent] > lo[x, parent]) & (hi[y, parent] > lo[y, parent])
        keep &= owing[parent] | ~owes
        parent, x, y, owes = parent[keep], x[keep], y[keep], owes[keep]
        lo_x, hi_x = lo[x, parent][:, None], hi[x, parent][:, None]
        lo_y, hi_y = lo[y, parent][:, None], hi[y, parent][:, None]
        # kept: quarter x, then quarter y, each padded to `half` slots
        step = np.arange(half)
        kept = np.concatenate([lo_x + step, lo_y + step], axis=1)
        valid = np.concatenate([lo_x + step < hi_x, lo_y + step < hi_y], axis=1)
        # eliminated: the parent's other nodes in slot order, padded to e
        slot = np.arange(2 * q)
        elim = real[parent] & ((slot < lo_x) | (slot >= hi_x)) & ((slot < lo_y) | (slot >= hi_y))
        e = int(elim.sum(axis=1).max())
        first = np.argsort(~elim, axis=1, kind="stable")[:, :e]
        elim_pos = np.where(np.take_along_axis(elim, first, axis=1), at + first, 0)
        kept_pos = np.where(valid, at + kept, 0)
        gather = np.concatenate([np.zeros_like(parent)[:, None], elim_pos, kept_pos], axis=1)
        # rows like the first child's first, then the others in row order
        order = np.lexsort([*gather.T[::-1], ~(gather == gather[0]).all(axis=1)])
        parent, gather, kept, valid, owes = (a[order] for a in (parent, gather, kept, valid, owes))
        levels.append((parent, gather, gather[:, 1 : e + 1] == 0, e))
        labels = np.where(valid, labels[parent[:, None], np.minimum(kept, 2 * q - 1)], -1)
        owing, at, q = owes, 1 + e, half
    k, l = labels.T
    parent, gather, e = np.zeros(1, int), np.array([[0, 1, 2]]), 0  # n = 2: no level
    if levels:
        parent, gather, _, e = levels.pop()
    u, v = np.pad(gather[:, 1 : e + 1], ((0, 0), (0, 2 - e))).T
    return levels, (parent, u, v, gather[:, -2], gather[:, -1]), k, l


@functools.lru_cache(maxsize=16)
def _reduction_plan(n: int):
    """`_subproblem_plan` as the `np.take` calls that `_kron_reduce` makes.

    The children of a level that share one gather g form a run [lo, hi): the
    parent arrays of the level above, seen as one matrix of rows, give each
    child its rows g, then every row of the run gives its columns g, in two
    `np.take` calls per run (at most 20 runs a level at n <= 300).  The last
    level takes each leaf's six conductances c_uv, c_ux, c_uy, c_vx, c_vy,
    c_xy in one `np.take` on flat offsets into the level above.  Returns
    (levels, last, k, l): per level but the last, the runs (lo, hi, row
    indices, g), the shape (b, m, m) of the level's array, the dummy mask,
    the eliminated count e and the index a of leaf 0's ancestor; for the
    last level, the (6, leaves) offsets and the masks of the dummy u and v;
    and the two labels of each leaf.  The row indices hold one entry per
    gather position of the index plan, so the cache stays about the index
    plan's size, where a flat offset per entry of every level's array would
    hold 386 000 entries at n = 80 (3.1 MB).
    """
    levels, (leaf_parent, u, v, x, y), k, l = _subproblem_plan(n)
    size, steps = n + 1, []
    for parent, gather, pad, e in levels:
        b, m = gather.shape
        ends = np.flatnonzero(np.any(gather[1:] != gather[:-1], axis=1)) + 1
        bounds = [0, *ends, b]
        rows = (parent[:, None] * size + gather).ravel()
        runs = [
            (lo, hi, rows[lo * m : hi * m], gather[lo].copy())
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        size = m
        steps.append((runs, (b, m, m), pad, e))
    pairs = [u * size + v, u * size + x, u * size + y, v * size + x, v * size + y, x * size + y]
    # leaf 0's ancestor on each level, from the last level up
    path = [leaf_parent[0]]
    for parent, *_ in levels[:0:-1]:
        path.append(parent[path[-1]])
    levels = [(*step, a) for step, a in zip(steps, path[::-1])]
    return levels, (leaf_parent * size**2 + np.stack(pairs), u == 0, v == 0), k, l


def _kron_reduce(ws: np.ndarray, levels, last) -> tuple[np.ndarray, float]:
    """Run a reduction plan on ws: each leaf's conductance, and log Z from leaf 0.

    `levels` and `last` are `_reduction_plan`'s.  Each level gathers its
    subproblems from the level above, two `np.take` calls per run of
    children gathered alike, and eliminates them in lockstep on one
    (b, m, m) array, node by node inside the eliminated part of each, then
    onto the kept part in one batched product.  The last level takes each
    leaf's two slots x, y from a block {u, v, x, y} of the level above (u, v
    dummies where it eliminates fewer) by the same steps in closed form, on
    six conductances per leaf gathered in one more `np.take`:

        d_u = c_uv + c_ux + c_uy,  c'_vz = c_vz + (c_uv / d_u) c_uz,
        d_v = c'_vx + c'_vy,  C_xy = c_xy + ((c_ux / d_u) c_uy + (c'_vx / d_v) c'_vy).

    Leaf 0's path eliminates every node but the leaf's two, so log Z of ws
    is the sum, level by level, of the log pivots of leaf 0's ancestor, plus
    log d_u, log d_v and log C of the leaf; the dummy pivots of 1 add
    nothing, and no other subproblem's pivots are logged.  A zero pivot of a
    real node turns its subproblem into NaN, which reaches every leaf below
    it; `tree_posterior` checks the conductances.
    """
    offsets, u_dummy, v_dummy = last
    n = ws.shape[0]
    cur = np.zeros((1, n + 1, n + 1))
    cur[0, 1:, 1:] = ws
    log_z = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for runs, shape, pad, e, a in levels:
            rows = cur.reshape(-1, cur.shape[2])
            cur = np.empty(shape)
            for lo, hi, row_index, g in runs:
                # the indices are in range by construction; mode="clip" lets
                # take write into `cur` without an intermediate copy
                dest = cur[lo:hi].reshape(-1, shape[2])
                rows.take(row_index, axis=0).take(g, axis=1, out=dest, mode="clip")
            pivots = np.empty((len(cur), e))
            for s in range(1, e + 1):
                row = cur[:, s, s + 1 :]
                d = row.sum(axis=1) + pad[:, s - 1]
                pivots[:, s - 1] = d
                if s < e:
                    ratio = row[:, : e - s] / d[:, None]
                    cur[:, s + 1 : e + 1, s + 1 :] += ratio[:, :, None] * row[:, None, :]
            out = cur[:, 1 : e + 1, e + 1 :]
            cur[:, e + 1 :, e + 1 :] += np.matmul(
                (out / pivots[:, :, None]).transpose(0, 2, 1), out
            )
            log_z = log_z + np.log(pivots[a]).sum()
        # the last level: eliminate u, then v, from the block {u, v, x, y}
        c_uv, c_ux, c_uy, c_vx, c_vy, c_xy = cur.take(offsets)
        d_u = c_uv + c_ux + c_uy + u_dummy
        ratio = c_uv / d_u
        c_vx = c_vx + ratio * c_ux
        c_vy = c_vy + ratio * c_uy
        d_v = c_vx + c_vy + v_dummy
        conductance = c_xy + (c_ux / d_u * c_uy + c_vx / d_v * c_vy)
        log_z = log_z + (np.log(d_u[0]) + np.log(d_v[0]))
        log_z = float(log_z + np.log(conductance[0]))
    return conductance, log_z


def tree_posterior(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Edge appearance probabilities and log Z(W), from one elimination.

    M_kl = w_kl / C_kl, with C_kl = 1 / R_kl the conductance left between k
    and l once every other node is star-mesh-eliminated (Kron reduction).
    `_reduction_plan` reaches every pair by halving, and `_kron_reduce` runs
    it: O(n^3) work in about n Python steps, with log Z from the pivots of
    one root-to-leaf path.  Every quantity is a sum or product of positives,
    so the result stays accurate while the weights are normal floats, and
    C_kl >= w_kl keeps M_kl in [0, 1].  Raises DegenerateWeightsError when
    the positive-weight support is disconnected.
    """
    w = validate_weight_matrix(w)
    ws, log_scale = _max_rescale(w)
    n = ws.shape[0]
    levels, last, k, l = _reduction_plan(n)
    conductance, log_z = _kron_reduce(ws, levels, last)
    if not conductance.min() > 0.0:  # also false for NaN
        raise DegenerateWeightsError(
            "a node lost all incident weight during elimination: the "
            "positive-weight support is disconnected"
        )
    marg = np.zeros((n, n))
    marg[k, l] = ws[k, l] / conductance
    return marg + marg.T, log_z + (n - 1) * log_scale


def log_partition_function(w: np.ndarray) -> float:
    """log of Z(W) = sum over spanning trees of the edge-weight products.

    The log Z of `tree_posterior`, whose docstring has the method.  Returns
    -inf when the positive-weight support is disconnected (no spanning tree
    has positive weight).
    """
    try:
        return tree_posterior(w)[1]
    except DegenerateWeightsError:
        return -np.inf


def edge_marginals(w: np.ndarray) -> np.ndarray:
    """Appearance probability of every edge under P(T) ~ prod w_ij.

    The edge posteriors of `tree_posterior`, whose docstring has the method.
    Raises DegenerateWeightsError when the positive-weight support is
    disconnected.
    """
    return tree_posterior(w)[0]
