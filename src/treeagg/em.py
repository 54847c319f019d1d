"""EM over the two hidden layers: the latent spanning tree and the hidden signal.

The E-step computes conditional moments of the hidden block, per-edge log
weights of the tree posterior, and from them, in one Matrix-Tree kernel call,
the all-edge appearance probabilities alpha and the log partition.  The
observed log-likelihood is one closed-form expression in log Z, the node
terms and, with hidden nodes, alpha on the observed-hidden pairs.  Most
M-step proposals are rejected, and their kernel call would be wasted: EM
first bounds a proposal's log-likelihood by the same expression, with
Hadamard's inequality on the grounded Laplacian for log Z and [0, 1] for
alpha, and a bound already below the current log-likelihood rejects the
proposal without the kernel.  Every E-step runs under a `_FitPrior`, the
uniform prior or the one `edge_posteriors` calibrates to a target edge
marginal, whose log partition has a closed form; `require_feasible_target`
checks that target against the prior's candidate pairs.  The M-step applies
the closed-form off-diagonal updates and solves the diagonal stationarity
equations by safeguarded Newton steps, then floors the spectrum to keep the
precision positive definite.  Everything tree related is tracked in log
space.
"""

from __future__ import annotations

import math

import numpy as np

from . import initialization
from .errors import (
    CalibrationError,
    DegeneratePosteriorError,
    DivergenceError,
    InvalidMomentError,
    MStepError,
)
from .matrices import (
    EmpiricalCovariance,
    PartitionedPrecision,
    completed_moments,
    floor_spectrum,
    symmetrize,
)
from .spanning_trees import tree_posterior
from .tree_gaussian import (
    log_edge_prior,
    log_marginal_tree_weight,
    require_imperfect_correlation,
    uniform_prior,
    upper_pairs,
)

LOG_2PI = math.log(2.0 * math.pi)

# How far, relative to |loglik| (at least 1), `_loglik_bound` must fall below
# the current log-likelihood to reject a proposal without its E-step.  The
# bound holds up to roundoff, about 1e-15 relative, which this margin covers.
_BOUND_RTOL = 1e-6

# How far a target edge marginal may be from the feasible one.
CALIBRATION_TOL = 1e-6


def conditional_moments(
    precision: PartitionedPrecision, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E-step moments (W_HO, V_H, B_H) of the hidden block given the observed data.

    K_HH is diagonal, so K_HH^-1 is the reciprocal of its positive diagonal.
    """
    inv_d = 1.0 / precision.hidden_diagonal()
    m = precision.k_ho * inv_d[:, None]  # K_H^-1 K_HO
    w_ho = m @ sigma
    v_h = symmetrize(w_ho @ m.T)
    b_h = symmetrize(np.diag(inv_d) + v_h)
    return w_ho, v_h, b_h


def _materialize_weights(log_gamma: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(log gamma - max), keeping underflowed candidate edges in the support.

    log gamma is `log_marginal_tree_weight`'s, -inf on the diagonal, where
    exp gives 0.  Edges whose relative weight exp cannot return as a normal
    float, zero or subnormal, are set to 1e-300: they may still be forced
    into the tree; a subnormal weight would keep too few significant bits,
    and its reciprocal overflow in the grounded resistances.  Normal weights
    are kept, so the posterior stays exact wherever the kernel is: while
    log gamma spans less than about 708 nats.
    """
    finite = np.isfinite(log_gamma)
    if not finite.any():
        raise DegeneratePosteriorError("all candidate edges have zero weight")
    shift = float(log_gamma[finite].max())
    with np.errstate(under="ignore"):
        weights = np.exp(np.where(finite, log_gamma - shift, -np.inf))
    weights[finite & (weights < np.finfo(float).tiny)] = 1e-300
    return weights, shift


class _FitPrior:
    """An edge prior on `uniform_prior`'s support, its log weights and its
    log partition.

    All are constant over a fit, so `fit` builds this once and every E-step
    of the fit reuses it; `edge_posteriors` builds the calibrated one.
    """

    __slots__ = ("weights", "log_weights", "log_z")

    def __init__(self, weights: np.ndarray, log_z: float):
        self.weights = weights
        self.log_weights = log_edge_prior(weights)
        self.log_z = log_z

    @classmethod
    def uniform(cls, n_observed: int, n_hidden: int, t: float = 1.0) -> "_FitPrior":
        """`uniform_prior(p, r)` with weight t on the observed-hidden pairs.

        The prior is K_p joined to r isolated nodes by edges of weight t.  For
        r >= 1 its Laplacian has eigenvalues 0, p + r t (p - 1 times), p t
        (r - 1 times) and (p + r) t, so by the Matrix-Tree theorem

            log Z = (p - 1) log(p + r t) + r log t + (r - 1) log p;

        at r = 0 that is Cayley's p^(p-2) trees.  No elimination is needed.
        """
        p, r = n_observed, n_hidden
        weights = uniform_prior(p, r)
        weights[:p, p:] = weights[p:, :p] = t
        log_z = (p - 1) * math.log(p + r * t) + r * math.log(t) + (r - 1) * math.log(p)
        return cls(weights, log_z)


def require_feasible_target(n_observed: int, n_hidden: int, p0: float) -> None:
    """Raise CalibrationError unless p0 can be every candidate edge's marginal.

    The candidate edges are the support of `_FitPrior.uniform(n_observed,
    n_hidden)`: every pair but the hidden-hidden ones.  The marginals of a
    spanning-tree distribution always sum to size - 1, so a uniform target
    over them must equal (size - 1) / #candidate edges.
    """
    p, r = n_observed, n_hidden
    size, n_pairs = p + r, p * (p - 1) // 2 + p * r
    if not 0.0 < p0 < 1.0:
        raise CalibrationError(f"target probability {p0} outside (0, 1)")
    feasible = (size - 1) / n_pairs if n_pairs else np.inf
    if abs(p0 - feasible) > CALIBRATION_TOL:
        raise CalibrationError(
            f"marginals over {n_pairs} candidate edges always sum to {size - 1}; "
            f"uniform target must be {feasible:.6g}, got {p0:.6g}"
        )


class _Weighed:
    """An E-step up to its kernel call: the moments, log gamma and its weights.

    `weights` and `shift` are `_materialize_weights(log_gamma)`, and
    `log_z_prior` is the prior's log partition.
    """

    __slots__ = ("w_ho", "b_h", "log_gamma", "weights", "shift", "log_z_prior")

    def __init__(
        self,
        w_ho: np.ndarray,
        b_h: np.ndarray,
        log_gamma: np.ndarray,
        weights: np.ndarray,
        shift: float,
        log_z_prior: float,
    ):
        self.w_ho = w_ho
        self.b_h = b_h
        self.log_gamma = log_gamma
        self.weights = weights
        self.shift = shift
        self.log_z_prior = log_z_prior


class EStepState(_Weighed):
    """Conditional moments and tree-posterior quantities at one EM iterate:
    a weighed K with the edge posteriors `alpha` and log Z(gamma) `log_z`."""

    __slots__ = ("alpha", "log_z")

    def __init__(
        self,
        w_ho: np.ndarray,
        b_h: np.ndarray,
        log_gamma: np.ndarray,
        weights: np.ndarray,
        shift: float,
        log_z_prior: float,
        alpha: np.ndarray,
        log_z: float,
    ):
        super().__init__(w_ho, b_h, log_gamma, weights, shift, log_z_prior)
        self.alpha = alpha
        self.log_z = log_z


def _weigh(
    precision: PartitionedPrecision, cov: EmpiricalCovariance, prior: _FitPrior
) -> _Weighed:
    """Everything of `e_step` but the kernel call: moments, log gamma, weights."""
    w_ho, _, b_h = conditional_moments(precision, cov.matrix)
    log_gamma = log_marginal_tree_weight(precision, prior.log_weights, cov)
    weights, shift = _materialize_weights(log_gamma)
    return _Weighed(w_ho, b_h, log_gamma, weights, shift, prior.log_z)


def e_step(weighed: _Weighed) -> EStepState:
    """The E-step of a weighed K: edge posteriors and log Z from one kernel call.

    `tree_posterior` on the weights gives both; the weights' shift restores
    log Z(gamma).  A disconnected weight support raises
    DegenerateWeightsError there.  Callers weigh K with `_weigh` first, so
    that `_run_em` computes a proposal's moments and log gamma once, for its
    likelihood bound and for its E-step.
    """
    alpha, log_z = tree_posterior(weighed.weights)
    log_z += (len(weighed.weights) - 1) * weighed.shift
    return EStepState(
        weighed.w_ho, weighed.b_h, weighed.log_gamma, weighed.weights, weighed.shift,
        weighed.log_z_prior, alpha, log_z,
    )


def tree_entropy(state: EStepState) -> float:
    """Closed-form H(T | X_O) = log Z - sum alpha_kl log gamma_kl."""
    alpha, log_gamma = state.alpha, state.log_gamma
    iu = upper_pairs(alpha.shape[0])
    a, g = alpha[iu], log_gamma[iu]
    return float(state.log_z - (a * np.where(a > 0.0, g, 0.0)).sum())


def joint_entropy(h_tree: float, precision: PartitionedPrecision) -> float:
    """H(T, X_H | X_O): the tree entropy h_tree, `tree_entropy` of the E-step,
    plus the constant hidden-signal entropy."""
    h_signal = 0.5 * precision.n_hidden * (LOG_2PI + 1.0)
    return float(h_tree + h_signal - 0.5 * np.log(precision.hidden_diagonal()).sum())


def observed_loglik(
    state: EStepState, precision: PartitionedPrecision, cov: EmpiricalCovariance
) -> float:
    """Observed-data log-likelihood: the free energy of the E-step posterior.

    The EM identity gives it as E[log p(X_O, X_H, T) | X_O; K] plus
    H(X_H, T | X_O; K).  log gamma_ij is the edge term of the first part, so
    the alpha-weighted sums of log gamma in the two parts cancel, fully on
    observed pairs and up to a residue on observed-hidden ones.  What is left
    is one expression:

        log Z(gamma) - log Z(prior) - (n/2) p log 2 pi
          + (n/2) sum_{i in O} (log K_ii - K_ii S_ii)
          + (n/2) sum_{h in H} (1 - K_hh B_hh)
          + (n/2) sum_{i in O, h in H} alpha_ih K_ih (W_HO)_hi

    The derivation takes K_HH diagonal, as `log_marginal_tree_weight` does:
    then (K_HO S)_hi / K_hh is (W_HO)_hi, and log gamma's observed-hidden
    trace term is half the completed-moment one.

    At r = 0 the value is log sum_T P(T) p(X_O | T) exactly, and the last two
    sums are empty.  With hidden nodes it is the free energy of the E-step
    posterior, which has a finite supremum where the raw edge-factorized
    evidence need not; its last sum reads alpha.  `_loglik_bound` evaluates
    the same expression with log Z and alpha replaced by bounds.
    """
    p = precision.n_observed
    return _loglik(state, state.log_z, state.alpha[:p, p:], precision, cov)


def _loglik(
    moments: _Weighed,
    log_z: float,
    alpha_oh: np.ndarray,
    precision: PartitionedPrecision,
    cov: EmpiricalCovariance,
) -> float:
    """`observed_loglik`'s expression at log Z(gamma) = `log_z` and the
    observed-hidden edge posteriors `alpha_oh`; W_HO, B_H and log Z(prior)
    come from `moments`.  Without hidden nodes the last two sums are 0."""
    n, p, r = cov.n, precision.n_observed, precision.n_hidden
    kd = np.diag(precision.matrix)
    value = float(
        log_z
        - moments.log_z_prior
        - 0.5 * n * p * LOG_2PI
        + 0.5 * n * float(np.log(kd[:p]).sum())
        - 0.5 * n * float(kd[:p] @ np.diag(cov.matrix))
    )
    hidden = r - float(kd[p:] @ np.diag(moments.b_h))
    cross = float((alpha_oh * precision.k_oh * moments.w_ho.T).sum())
    return value + 0.5 * n * (hidden + cross)


def _hadamard_log_z(weights: np.ndarray) -> float:
    """An upper bound on log Z(weights): sum_i log d_i - max_i log d_i.

    Z is the determinant of the Laplacian grounded at any node, a positive
    semidefinite matrix whose diagonal holds the other nodes' weighted
    degrees d_i, so Hadamard's inequality bounds it by their product;
    grounding the node of largest degree gives the tightest of these bounds.
    A node without weight gives -inf.
    """
    with np.errstate(divide="ignore"):
        log_d = np.log(weights.sum(axis=1))
    return float(log_d.sum() - log_d.max())


def _loglik_bound(
    weighed: _Weighed, precision: PartitionedPrecision, cov: EmpiricalCovariance
) -> float:
    """An upper bound on `observed_loglik` at a weighed K, without the kernel.

    `observed_loglik`'s expression with two substitutions: `_hadamard_log_z`
    for log Z, and, since the kernel keeps every alpha in [0, 1], alpha_ih = 1
    where K_ih (W_HO)_hi > 0 and 0 elsewhere, which bounds the
    observed-hidden sum by its positive terms.
    """
    log_z = _hadamard_log_z(weighed.weights) + (len(weighed.weights) - 1) * weighed.shift
    alpha_oh = (precision.k_oh * weighed.w_ho.T > 0.0).astype(float)
    return _loglik(weighed, log_z, alpha_oh, precision, cov)


def _reciprocal_residual(
    x: np.ndarray, kd: np.ndarray, ksq: np.ndarray, mass: np.ndarray, pos: np.ndarray,
    inv_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """phi(x) - 1/t and phi's slope, phi(x) = x / (1 + sum_k m_k / (x K_kk - K_ik^2)).

    At x on a pole a is inf and the slope NaN; `_solve_diagonal` calls this
    with divide and invalid warnings off.
    """
    inv_den = np.where(pos, 1.0 / (x[:, None] * kd[None, :] - ksq), 0.0)
    q = mass * inv_den
    a = 1.0 + q.sum(axis=1)
    return x / a - inv_t, (a + x * ((q * inv_den) @ kd)) / a**2


def _solve_diagonal(k_prev: np.ndarray, alpha: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve (1/x) (1 + sum_k K_ik^2 alpha_ik / (x K_kk - K_ik^2)) = t_i per node.

    This is the stationarity condition of the edge-factorized objective in
    K_ii; the leading 1/x on the sum is required for the equation to be
    dimensionally consistent and to have the pairwise Gaussian MLE as a fixed
    point.  In the reciprocal form phi(x) = 1/t_i, phi rises strictly from 0
    at the largest pole to +inf, so the root is unique.  All nodes take
    safeguarded Newton steps at once: each evaluation narrows the bracket
    [lo, hi], from [largest pole, +inf), by the sign of phi - 1/t, and a step
    that leaves it falls back to the midpoint, or to 2x while hi is infinite.
    The solve stops once every step is within 4 ulps, or fails after 100.
    """
    kd = np.diag(k_prev)
    ksq = (k_prev - np.diag(kd)) ** 2
    mass = ksq * alpha
    pos = mass > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(pos, ksq / kd[None, :], 0.0).max(axis=1)
        hi = np.full_like(lo, np.inf)
        inv_t = 1.0 / targets
        x = np.maximum(2.0 * inv_t, 2.0 * lo)
        for _ in range(100):
            f, slope = _reciprocal_residual(x, kd, ksq, mass, pos, inv_t)
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            step = x - f / slope
            # a step onto lo or hi is in the bracket: x itself is one of them
            out = ~((lo <= step) & (step <= hi))
            step[out] = np.where(np.isinf(hi), 2.0 * x, 0.5 * (lo + hi))[out]
            if np.all(np.abs(step - x) <= 4.0 * np.spacing(x)):
                return step
            x = step
    raise MStepError("the diagonal update did not converge")


def _closed_form_offdiagonal(c: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """K_ij = (1 - sqrt(1 + 4 c_ij^2 K_ii K_jj)) / (2 c_ij), with the c -> 0 limit."""
    d = np.outer(kd, kd)
    small = np.abs(c) < 1e-12
    safe = np.where(small, 1.0, c)
    k = (1.0 - np.sqrt(1.0 + 4.0 * c**2 * d)) / (2.0 * safe)
    return np.where(small, 0.0, k)


def m_step(
    state: EStepState,
    k_prev: PartitionedPrecision,
    cov: EmpiricalCovariance,
) -> PartitionedPrecision:
    """Closed-form off-diagonal updates plus safeguarded Newton for the diagonal.

    All right-hand sides use the previous iterate: observed pairs see the
    empirical covariance, observed-hidden pairs the conditional cross moment
    -W_ho, and the diagonal equations match Sigma_ii (observed) or B_ii
    (hidden).  The result is floored to the positive-definite cone.
    """
    p, r = k_prev.n_observed, k_prev.n_hidden
    kd = np.diag(k_prev.matrix)

    if np.any(np.diag(state.b_h) <= 0.0):
        raise InvalidMomentError("conditional second moment B_ii must be positive")
    completed = completed_moments(cov.matrix, state.w_ho, state.b_h)
    new_k = _closed_form_offdiagonal(completed, kd)
    new_k[p:, p:] = 0.0
    np.fill_diagonal(new_k, 0.0)

    diag = _solve_diagonal(k_prev.matrix, state.alpha, np.diag(completed))
    new_k[np.diag_indices(p + r)] = diag

    return PartitionedPrecision(floor_spectrum(new_k, p), p, r)


class FitOptions:
    __slots__ = ("max_iter", "tol")

    def __init__(self, max_iter: int = 500, tol: float = 1e-6):
        if max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
        if not tol >= 0.0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        self.max_iter = max_iter
        self.tol = tol


class FitResult:
    """The last EM iterate: its precision, edge posteriors and diagnostics.

    Every accepted step raises the log-likelihood, so the returned iterate is
    the best one traced and `loglik` equals `loglik_trace[-1]` whenever the
    trace is non-empty.
    """

    __slots__ = (
        "precision", "alpha", "loglik_trace", "loglik", "h_tree", "h_joint",
        "iterations", "converged", "cov",
    )

    def __init__(
        self,
        precision: PartitionedPrecision,
        alpha: np.ndarray,
        loglik_trace: tuple[float, ...],
        loglik: float,
        h_tree: float,
        h_joint: float,
        iterations: int,
        converged: bool,
        cov: EmpiricalCovariance,
    ):
        self.precision = precision
        self.alpha = alpha
        self.loglik_trace = loglik_trace
        self.loglik = loglik
        self.h_tree = h_tree
        self.h_joint = h_joint
        self.iterations = iterations
        self.converged = converged
        self.cov = cov

    @property
    def n_observed(self) -> int:
        return self.precision.n_observed

    @property
    def n_hidden(self) -> int:
        return self.precision.n_hidden


def _run_em(
    cov: EmpiricalCovariance,
    prior: _FitPrior,
    k_init: PartitionedPrecision,
    opts: FitOptions,
) -> FitResult:
    """EM driver: keep the full M-step update while it raises the likelihood.

    Each iteration scores the proposal with an E-step and `observed_loglik`
    and keeps it only if its log-likelihood is strictly higher; otherwise, or
    once the relative gain is below `opts.tol`, the run stops as converged.
    So the trace rises strictly and ends at the returned iterate.  No proposal
    is made once the trace holds `opts.max_iter` entries; `max_iter=0` returns
    the initializer with an empty trace.

    Most proposals are rejected, and a rejected one leaves nothing in the
    result, so each proposal is first weighed without the kernel, and
    `_loglik_bound` gives an upper bound on its log-likelihood.  A bound
    below the current log-likelihood by more than `_BOUND_RTOL` relative
    settles the rejection: the run stops there, as the E-step would have
    made it stop.
    Otherwise the weighed proposal goes on to `e_step`'s kernel call.  Every
    candidate pair of a `_FitPrior` has positive weight, so the weight
    support is connected and the E-step a bound spares could not have raised
    DegenerateWeightsError.
    """
    k = k_init
    state = e_step(_weigh(k, cov, prior))
    ll = observed_loglik(state, k, cov)
    trace: list[float] = []
    converged = False
    for _ in range(opts.max_iter):
        if not np.isfinite(ll):
            raise DivergenceError("observed log-likelihood is not finite")
        trace.append(ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] <= opts.tol * (
            abs(trace[-2]) + 1e-12
        ):
            converged = True
            break
        if len(trace) == opts.max_iter:  # no room left to trace a proposal
            break
        proposal = m_step(state, k, cov)
        weighed = _weigh(proposal, cov, prior)
        bound = _loglik_bound(weighed, proposal, cov)
        if np.isfinite(bound) and bound < ll - _BOUND_RTOL * max(1.0, abs(ll)):
            converged = True
            break
        trial_state = e_step(weighed)
        trial_ll = observed_loglik(trial_state, proposal, cov)
        if not trial_ll > ll:
            converged = True
            break
        k, state, ll = proposal, trial_state, trial_ll

    h_tree = tree_entropy(state)
    return FitResult(
        precision=k,
        alpha=state.alpha,
        loglik_trace=tuple(trace),
        loglik=ll,
        h_tree=h_tree,
        h_joint=joint_entropy(h_tree, k),
        iterations=len(trace),
        converged=converged,
        cov=cov,
    )


def fit(
    cov: EmpiricalCovariance,
    n_hidden: int,
    opts: FitOptions | None = None,
) -> FitResult:
    """Fit the tree-aggregation model with n_hidden latent nodes.

    Runs one EM from `initialization.initial_precision_from_cov`, which starts
    hidden node k at the unit-variance score of the covariance's k-th leading
    principal component, under the uniform edge prior `uniform_prior(p,
    n_hidden)`; `edge_posteriors` recalibrates it after the fit.  Two
    perfectly correlated observed variables raise PerfectCorrelationError
    before the covariance is regularized: the likelihood has no finite
    supremum then.  Nothing in the fit is random, so equal inputs give
    bit-identical results.
    """
    opts = opts or FitOptions()
    if n_hidden < 0:
        raise ValueError("n_hidden must be nonnegative")
    require_imperfect_correlation(cov.matrix)
    p = cov.size
    fit_prior = _FitPrior.uniform(p, n_hidden)
    init = initialization.initial_precision_from_cov(cov, n_hidden)
    return _run_em(cov, fit_prior, init.precision, opts)


def edge_posteriors(result: FitResult, p0: float) -> np.ndarray:
    """Edge posteriors recomputed under the fit's prior calibrated to marginal p0.

    Calibration keeps the support of the fit's uniform prior (hidden-hidden
    pairs are structural zeros), so p0 must equal (size - 1) / #candidate
    pairs.  By symmetry every observed pair of the calibrated prior weighs 1
    and every observed-hidden pair t: an observed pair's marginal is then
    2 / (p + r t), and the marginals sum to size - 1, so
    t = p / (p + r - 1).  With at most one hidden node t = 1, the fit's own
    prior, and the fit's alpha is the answer.
    """
    p, r = result.n_observed, result.n_hidden
    require_feasible_target(p, r, p0)
    if r <= 1:
        return result.alpha
    prior = _FitPrior.uniform(p, r, p / (p + r - 1))
    return e_step(_weigh(result.precision, result.cov, prior)).alpha
