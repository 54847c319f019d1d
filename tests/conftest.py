"""Shared fixtures and enumeration oracles."""

import os

# One BLAS thread, as in treebench/run.py: the matrices are at most about
# 81 x 81, where a second thread only adds contention.  Set before numpy is
# imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import treeagg
from treeagg import em
from treeagg.em import LOG_2PI, tree_entropy
from treeagg.errors import DegenerateWeightsError
from treeagg.graphs import Graph, UnionFind
from treeagg.matrices import PartitionedPrecision, completed_moments
from treeagg.simulate import GroundTruth, gen_precision, scale_and_snr
from treeagg.spanning_trees import (
    _max_rescale,
    _subproblem_plan,
    edge_marginals,
    validate_weight_matrix,
)
from treeagg.tree_gaussian import (
    gaussian_mutual_information,
    log_marginal_tree_weight,
    maximum_spanning_tree,
)


def random_weight_matrix(rng, size, low=0.1, high=3.0):
    w = rng.uniform(low, high, (size, size))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def random_spd(rng, size, strength=0.5):
    a = rng.normal(0.0, strength, (size, size))
    m = a @ a.T + size * np.eye(size)
    d = np.sqrt(np.diag(m))
    return m / np.outer(d, d)


# ----------------------------------------------------------------------
# Oracle: enumeration of every labeled spanning tree, for sizes up to 8.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def tree_edges(size):
    """Edges of all size^(size-2) labeled trees on {0..size-1}, decoded from
    their Pruefer sequences, as an int array (n_trees, size - 1, 2).

    Trees come in the sequences' lexicographic order, each with its edges
    sorted, as `prufer_to_edges` gives them.  All sequences are decoded in
    lockstep: step t joins every tree's smallest leaf to its entry t.
    """
    n_trees = size ** (size - 2)
    seqs = np.arange(n_trees)[:, None] // size ** np.arange(size - 3, -1, -1) % size
    rows = np.arange(n_trees)
    degree = 1 + (seqs[:, :, None] == np.arange(size)).sum(axis=1)
    edges = np.empty((n_trees, size - 1, 2), dtype=np.intp)
    for t in range(size - 2):
        leaf = np.argmax(degree == 1, axis=1)
        edges[:, t, 0] = np.minimum(leaf, seqs[:, t])
        edges[:, t, 1] = np.maximum(leaf, seqs[:, t])
        degree[rows, leaf] -= 1
        degree[rows, seqs[:, t]] -= 1
    last = degree == 1  # the two nodes left
    edges[:, -1, 0] = np.argmax(last, axis=1)
    edges[:, -1, 1] = size - 1 - np.argmax(last[:, ::-1], axis=1)
    order = np.argsort(edges[:, :, 0] * size + edges[:, :, 1], axis=1)
    return np.take_along_axis(edges, order[:, :, None], axis=1)


def tree_products(w):
    """Product of the edge weights of every labeled spanning tree."""
    edges = tree_edges(w.shape[0])
    return w[edges[:, :, 0], edges[:, :, 1]].prod(axis=1)


def chow_liu(s):
    """Maximum-likelihood spanning tree of covariance matrix s under Gaussian
    mutual-information weights, over every pair."""
    return maximum_spanning_tree(gaussian_mutual_information(s), np.zeros(s.shape, dtype=bool))


def is_spanning_tree(edges, n_nodes):
    edges = list(edges)
    if len(edges) != n_nodes - 1:
        return False
    uf = UnionFind(n_nodes)
    return all(uf.union(i, j) for i, j in edges)


def log_tree_products(log_gamma):
    """Every labeled tree's edges, and its sum of log gamma over them."""
    edges = tree_edges(log_gamma.shape[0])
    return edges, log_gamma[edges[:, :, 0], edges[:, :, 1]].sum(axis=1)


def brute_log_partition(log_gamma):
    """log of the sum over every labeled tree of prod exp(log gamma), in log space."""
    _, log_products = log_tree_products(log_gamma)
    top = log_products.max()
    with np.errstate(under="ignore"):
        return float(top + np.log(np.exp(log_products - top).sum()))


def brute_posterior_marginals(log_gamma):
    """Edge marginals of P(T) ~ prod gamma by enumeration, any dynamic range.

    Tree weights are summed in log space, so no product of small edge weights
    underflows into the subnormal range.
    """
    n = log_gamma.shape[0]
    edges, log_products = log_tree_products(log_gamma)
    with np.errstate(under="ignore"):
        products = np.exp(log_products - log_products.max())
    z = products.sum()
    out = np.zeros((n, n))
    np.add.at(
        out,
        (edges[:, :, 0].ravel(), edges[:, :, 1].ravel()),
        np.repeat(products, n - 1),
    )
    return (out + out.T) / z


# ----------------------------------------------------------------------
# E-steps: the one `em.fit` makes, an oracle under any prior matrix, and an
# r = 0 state built from given log gamma.
# ----------------------------------------------------------------------

def fit_e_step(precision, cov):
    """`em.e_step` under the uniform prior `em.fit` builds for K's shape."""
    prior = em._FitPrior.uniform(precision.n_observed, precision.n_hidden)
    return em.e_step(em._weigh(precision, cov, prior))


def raw_prior_alpha(precision, cov, prior):
    """Edge posteriors at K under an arbitrary edge prior matrix: log gamma,
    its materialized weights, and their edge marginals."""
    weights, _ = em._materialize_weights(log_marginal_tree_weight(precision, prior, cov))
    return edge_marginals(weights)


def tree_state(log_gamma, weights, log_z):
    """An r = 0 `em.EStepState` with the given log gamma, weights and
    log Z(gamma), and the edge posteriors of the weights."""
    size = log_gamma.shape[0]
    return em.EStepState(
        np.zeros((0, size)), np.zeros((0, 0)), log_gamma, weights, 0.0, 0.0,
        edge_marginals(weights), log_z,
    )


# ----------------------------------------------------------------------
# Oracle: the EM identity, log p(X_O) = E[log p(X_O, X_H, T) | X_O]
# + H(T | X_O) + n H(X_H | X_O), term by term.  em.observed_loglik evaluates
# the one expression it reduces to and must agree with it.
# ----------------------------------------------------------------------

def expected_complete_loglik(state, precision, cov, prior):
    """E[log p(X_O, X_H, T; K) | X_O] under the E-step posterior."""
    n, size = cov.n, precision.size
    kmat = precision.matrix
    kd = np.diag(kmat)
    iu = np.triu_indices(size, k=1)
    alpha = state.alpha[iu]
    active = alpha > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(1.0 - kmat**2 / np.outer(kd, kd))[iu]
        log_prior = np.log(prior)[iu]
    edge_det = float(np.where(active, alpha * np.where(active, log_ratio, 0.0), 0.0).sum())
    prior_term = float(
        np.where(active, alpha * np.where(active, log_prior, 0.0), 0.0).sum()
        - state.log_z_prior
    )
    # Hidden-hidden pairs have zero alpha, so their moments drop out.
    completed = completed_moments(cov.matrix, state.w_ho, state.b_h)
    trace_edges = 2.0 * float((alpha * kmat[iu] * completed[iu]).sum())
    trace_nodes = float(kd @ np.diag(completed))
    return (
        prior_term
        - 0.5 * n * size * LOG_2PI
        + 0.5 * n * (float(np.log(kd).sum()) + edge_det)
        - 0.5 * n * (trace_nodes + trace_edges)
    )


def identity_loglik(state, precision, cov, prior):
    """Expected complete log-likelihood + tree entropy + n * hidden entropy."""
    k_hidden = precision.hidden_diagonal()
    hidden_entropy = 0.5 * precision.n_hidden * (LOG_2PI + 1.0) - 0.5 * np.log(k_hidden).sum()
    return (
        expected_complete_loglik(state, precision, cov, prior)
        + tree_entropy(state)
        + cov.n * float(hidden_entropy)
    )


# ----------------------------------------------------------------------
# Oracle: the per-ground star-mesh kernel, one grounding and one node at a
# time, with the resistances from a forward substitution.  The Kron reduction
# in treeagg.spanning_trees must match it to 1e-14 relative, and its log Z to
# 1e-15 relative.
# ----------------------------------------------------------------------

def per_ground_eliminate(w, ground, need_factor):
    """Star-mesh elimination of every node except `ground`: the other nodes in
    label order, on a copy of w permuted to put `ground` last.

    Returns (order, pivots, strictly-lower fractions N), with order the
    eliminated nodes; raises DegenerateWeightsError on a zero pivot.
    """
    n = w.shape[0]
    order = [i for i in range(n) if i != ground]
    perm = order + [ground]
    cur = w[np.ix_(perm, perm)]
    m = len(order)
    pivots = np.empty(m)
    fractions = np.zeros((m, m)) if need_factor else None
    for s, v in enumerate(order):
        row = cur[s, s + 1 :].copy()
        d = float(row.sum())
        if d <= 0.0:
            raise DegenerateWeightsError(f"node {v} lost all incident weight")
        pivots[s] = d
        ratio = row / d
        if need_factor:
            fractions[s + 1 :, s] = ratio[:-1]
        cur[s + 1 :, s + 1 :] += np.outer(row, ratio)
    return order, pivots, fractions


def per_ground_resistance(w, ground):
    """Effective resistance from every node to `ground`."""
    n = w.shape[0]
    order, pivots, fractions = per_ground_eliminate(w, ground, need_factor=True)
    m = len(order)
    inv = np.eye(m)
    for i in range(1, m):
        inv[i : i + 1, :i] = fractions[i : i + 1, :i] @ inv[:i, :i]
    with np.errstate(over="ignore", divide="ignore"):
        gdiag = (inv**2 / pivots[:, None]).sum(axis=0)
    out = np.zeros(n)
    out[order] = gdiag
    return out


def per_ground_edge_marginals(w):
    w = validate_weight_matrix(w)
    ws, _ = _max_rescale(w)
    n = ws.shape[0]
    resistance = np.zeros((n, n))
    for ground in range(n):
        resistance[:, ground] = per_ground_resistance(ws, ground)
    with np.errstate(over="ignore", invalid="ignore"):
        marg = ws * resistance
    marg[ws == 0.0] = 0.0
    np.fill_diagonal(marg, 0.0)
    return np.clip(0.5 * (marg + marg.T), 0.0, 1.0)


# ----------------------------------------------------------------------
# Oracle: the Kron reduction as it ran before its gathers went through
# np.take, each level gathered by one three-array fancy index and log Z taken
# from the log pivots of every subproblem.  It does the same arithmetic in
# the same order as treeagg.spanning_trees._kron_reduce, so the two must
# agree bit for bit.
# ----------------------------------------------------------------------

def fancy_index_kron_reduce(ws, levels, last):
    """Each leaf's conductance and log Z, on `_subproblem_plan`'s index plan."""
    par, u, v, x, y = last
    n = ws.shape[0]
    cur = np.zeros((1, n + 1, n + 1))
    cur[0, 1:, 1:] = ws
    log_pivots = np.zeros(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for parents, gather, pad, e in levels:
            cur = cur[parents[:, None, None], gather[:, :, None], gather[:, None, :]]
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
            log_pivots = log_pivots[parents] + np.log(pivots).sum(axis=1)
        c_uv, c_ux, c_uy = cur[par, u, v], cur[par, u, x], cur[par, u, y]
        c_vx, c_vy, c_xy = cur[par, v, x], cur[par, v, y], cur[par, x, y]
        d_u = c_uv + c_ux + c_uy + (u == 0)
        ratio = c_uv / d_u
        c_vx = c_vx + ratio * c_ux
        c_vy = c_vy + ratio * c_uy
        d_v = c_vx + c_vy + (v == 0)
        conductance = c_xy + (c_ux / d_u * c_uy + c_vx / d_v * c_vy)
        log_pivots = log_pivots[par] + (np.log(d_u) + np.log(d_v))
        log_z = float(log_pivots[0] + np.log(conductance[0]))
    return conductance, log_z


def fancy_index_posterior(w):
    """`tree_posterior`'s edge posteriors and log Z through the oracle above."""
    w = validate_weight_matrix(w)
    ws, log_scale = _max_rescale(w)
    n = ws.shape[0]
    levels, last, k, l = _subproblem_plan(n)
    conductance, log_z = fancy_index_kron_reduce(ws, levels, last)
    marg = np.zeros((n, n))
    marg[k, l] = ws[k, l] / conductance
    return marg + marg.T, log_z + (n - 1) * log_scale


# ----------------------------------------------------------------------
# Oracle: prior calibration by the multiplicative fixed point
# pi_ij <- pi_ij * p0 / M_ij(pi) on the prior's support, with the per-ground
# marginals.  The closed-form prior of treeagg.em.edge_posteriors must match
# it.
# ----------------------------------------------------------------------

def fixed_point_calibrate(prior, p0, tol=1e-13, max_iter=1000):
    """Prior on the support of `prior` whose every candidate edge has
    marginal p0, scaled to a largest weight of 1."""
    current = validate_weight_matrix(prior)
    support = current > 0.0
    for _ in range(max_iter):
        marg = per_ground_edge_marginals(current)
        if np.abs(marg[support] - p0).max(initial=0.0) <= tol:
            return current
        current = np.where(support, current * p0 / np.where(support, marg, 1.0), 0.0)
        current, _ = _max_rescale(current)
    raise AssertionError(f"fixed point did not reach tolerance {tol} in {max_iter} iterations")


# ----------------------------------------------------------------------
# Oracle: the M-step's diagonal by bisection, with bracket searches from the
# largest pole and from max(2/t, 2 lo).  treeagg.em._solve_diagonal must
# match it to 1e-14 relative.
# ----------------------------------------------------------------------

def bisect_diagonal(k_prev, alpha, targets):
    """Roots of (1/x) (1 + sum_k K_ik^2 alpha_ik / (x K_kk - K_ik^2)) = t_i,
    all nodes bisected at once."""
    kd = np.diag(k_prev)
    ksq = (k_prev - np.diag(kd)) ** 2
    mass = ksq * alpha
    pos = mass > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        poles = np.where(pos, ksq / kd[None, :], 0.0)
    lower = poles.max(axis=1)

    def f(x):
        den = x[:, None] * kd[None, :] - ksq
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pos, mass / np.where(pos, den, 1.0), 0.0)
        return (1.0 + terms.sum(axis=1)) / x - targets

    lo = lower + np.maximum(1e-9 * np.maximum(lower, 1.0), 1e-12)
    for _ in range(200):
        bad = f(lo) <= 0.0
        if not bad.any():
            break
        lo = np.where(bad, lower + 0.1 * (lo - lower), lo)
    else:
        raise AssertionError("could not bracket the diagonal update from below")
    hi = np.maximum(2.0 / targets, 2.0 * lo)
    for _ in range(200):
        bad = f(hi) > 0.0
        if not bad.any():
            break
        hi = np.where(bad, 2.0 * hi, hi)
    else:
        raise AssertionError("could not bracket the diagonal update from above")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = f(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def strict_json_loads(text):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def child_env():
    """Environment in which a child process imports the same treeagg as this
    one, also when the tests find it through pytest's pythonpath setting only."""
    src = str(Path(treeagg.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def duplicated_column_data(rng, n=30, p=10):
    """n x p standard-normal data whose column 3 repeats column 0: the two
    are perfectly correlated."""
    x = rng.normal(size=(n, p))
    x[:, 3] = x[:, 0]
    return x


def per_ground_log_partition(w):
    w = validate_weight_matrix(w)
    ws, log_scale = _max_rescale(w)
    try:
        _, pivots, _ = per_ground_eliminate(ws, 0, need_factor=False)
    except DegenerateWeightsError:
        return -np.inf
    return float(np.log(pivots).sum()) + (w.shape[0] - 1) * log_scale


def figure_tree_graph():
    """The worked example topology: 9 observed nodes and one degree-3 hub.

    0-based edges; node 9 is the hub h with children {5, 6, 7}.
    """
    edges = [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (5, 9), (6, 9), (7, 9), (7, 8)]
    return Graph.from_edges(10, edges)


def figure_ground_truth(epsilon=1.0, seed=7):
    graph = figure_tree_graph()
    base = PartitionedPrecision(gen_precision(graph, seed), 9, 1)
    precision, snr, adjust = scale_and_snr(base, epsilon)
    return GroundTruth(
        kind="tree",
        epsilon=epsilon,
        seed=seed,
        graph=graph,
        precision=precision,
        snr=snr,
        diag_adjust=adjust,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
