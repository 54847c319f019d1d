import numpy as np
import pytest

from treeagg import em, selection, spanning_trees
from treeagg.errors import (
    DegeneratePosteriorError,
    InvalidMomentError,
    PerfectCorrelationError,
)
from treeagg.matrices import EmpiricalCovariance, PartitionedPrecision
from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed
from treeagg.tree_gaussian import log_edge_prior

from conftest import (
    bisect_diagonal,
    brute_log_partition,
    brute_posterior_marginals,
    duplicated_column_data,
    figure_ground_truth,
    fit_e_step,
    fixed_point_calibrate,
    identity_loglik,
    random_spd,
    raw_prior_alpha,
    tree_products,
    tree_state,
)


def small_cov(rng, p, n=40):
    data = rng.normal(size=(n, p)) @ random_spd(rng, p)
    return EmpiricalCovariance.from_data(data)


def random_instance(rng, p, r, n=25):
    """A valid (cov, K, prior) triple for a p + r model."""
    cov = small_cov(rng, p, n)
    k = random_spd(rng, p + r) * 2.0
    k[p:, p:] = np.diag(np.diag(k[p:, p:]))
    evals = np.linalg.eigvalsh(k)
    if evals[0] <= 1e-8:
        k += (1e-8 - evals[0] + 0.1) * np.eye(p + r)
    precision = PartitionedPrecision(k, p, r)
    prior = em.uniform_prior(p, r)
    return cov, precision, prior


class TestEStep:
    def test_zero_coupling_moments(self, rng):
        cov = small_cov(rng, 3)
        k = np.diag([1.0, 2.0, 3.0, 4.0])
        prec = PartitionedPrecision(k, 3, 1)
        state = fit_e_step(prec, cov)
        np.testing.assert_allclose(state.w_ho, 0.0)
        np.testing.assert_allclose(em.conditional_moments(prec, cov.matrix)[1], 0.0)
        np.testing.assert_allclose(state.b_h, [[0.25]])

    @pytest.mark.parametrize("p", [*range(2, 41), 80])
    def test_r0_log_z_same_on_both_routes(self, p):
        # every E-step takes alpha and log Z from one `tree_posterior` call
        # on its weights, and the weights' shift restores log Z(gamma)
        cov, prec, _ = random_instance(np.random.default_rng(p), p, 0)
        state = fit_e_step(prec, cov)
        alpha, log_z = spanning_trees.tree_posterior(state.weights)
        assert state.shift == state.log_gamma[np.isfinite(state.log_gamma)].max()
        assert state.alpha.tobytes() == alpha.tobytes()
        assert state.log_z == log_z + (p - 1) * state.shift

    def test_alpha_matches_enumeration_r0(self, rng):
        cov, prec, prior = random_instance(rng, 3, 0)
        state = fit_e_step(prec, cov)
        np.testing.assert_allclose(
            state.alpha, brute_posterior_marginals(state.log_gamma), atol=1e-9
        )

    def test_alpha_matches_enumeration_r1(self, rng):
        cov, prec, prior = random_instance(rng, 4, 1)
        state = fit_e_step(prec, cov)
        np.testing.assert_allclose(
            state.alpha, brute_posterior_marginals(state.log_gamma), atol=1e-9
        )

    def test_exchangeable_alpha_for_scaled_identity(self):
        cov = EmpiricalCovariance(np.eye(4), 10)
        prec = PartitionedPrecision(3.0 * np.eye(5), 4, 1)
        state = fit_e_step(prec, cov)
        oo = [state.alpha[i, j] for i in range(4) for j in range(i + 1, 4)]
        np.testing.assert_allclose(oo, oo[0], atol=1e-12)

    def test_alpha_sums_to_size_minus_one(self, rng):
        cov, prec, prior = random_instance(rng, 5, 1)
        state = fit_e_step(prec, cov)
        total = state.alpha[np.triu_indices(6, k=1)].sum()
        assert total == pytest.approx(5.0, abs=1e-8)

    @pytest.mark.parametrize("low", [(-724.0, -724.0), (-700.0, -703.0)])
    def test_tiny_relative_weights(self, rng, monkeypatch, low):
        # node 5 attaches only through two edges far below the max: at 724
        # nats exp gives a subnormal, at 700-703 a normal float below 1e-300
        cov, prec, prior = random_instance(rng, 6, 0)
        log_gamma = rng.normal(0.0, 1.0, (6, 6))
        log_gamma = 0.5 * (log_gamma + log_gamma.T)
        log_gamma[5, :] = log_gamma[:, 5] = -np.inf
        log_gamma[5, 1] = log_gamma[1, 5] = low[0]
        log_gamma[5, 3] = log_gamma[3, 5] = low[1]
        np.fill_diagonal(log_gamma, -np.inf)
        monkeypatch.setattr(em, "log_marginal_tree_weight", lambda *a: log_gamma)
        state = fit_e_step(prec, cov)
        assert state.alpha[np.triu_indices(6, k=1)].sum() == pytest.approx(5.0, abs=1e-8)
        np.testing.assert_allclose(
            state.alpha, brute_posterior_marginals(log_gamma), atol=1e-9
        )

    def test_b_is_inverse_plus_v(self, rng):
        cov, prec, prior = random_instance(rng, 4, 2)
        state = fit_e_step(prec, cov)
        k_hh_inv = np.diag(1.0 / prec.hidden_diagonal())
        v_h = em.conditional_moments(prec, cov.matrix)[1]
        np.testing.assert_allclose(state.b_h, k_hh_inv + v_h, atol=1e-12)

    def test_log_a_consistent_with_partition(self, rng):
        cov, prec, prior = random_instance(rng, 4, 0)
        state = fit_e_step(prec, cov)
        # A_ij = alpha_ij * Z(gamma), the per-edge tree sums, via enumeration
        lg = state.log_gamma
        w = np.exp(lg - 0.0)
        w[~np.isfinite(lg)] = 0.0
        np.fill_diagonal(w, 0.0)
        z = tree_products(w).sum()
        marg = brute_posterior_marginals(lg)
        iu = np.triu_indices(4, k=1)
        np.testing.assert_allclose(
            state.alpha[iu] * np.exp(state.log_z), marg[iu] * z, rtol=1e-8
        )

    def test_zero_support_raises(self, rng, monkeypatch):
        # log gamma without a finite entry leaves no candidate edge
        cov = small_cov(rng, 3)
        prec = PartitionedPrecision(np.eye(3), 3, 0)
        log_gamma = np.full((3, 3), -np.inf)
        monkeypatch.setattr(em, "log_marginal_tree_weight", lambda *a: log_gamma)
        with pytest.raises(DegeneratePosteriorError):
            fit_e_step(prec, cov)

    def test_decoupled_hidden_preserves_observed_ranking(self, rng):
        # K_OH = 0: observed-observed posteriors keep the r=0 ranking
        cov = small_cov(rng, 5)
        k0 = random_spd(rng, 5) * 2.0
        state0 = fit_e_step(PartitionedPrecision(k0, 5, 0), cov)
        k1 = np.zeros((6, 6))
        k1[:5, :5] = k0
        k1[5, 5] = 1.5
        state1 = fit_e_step(PartitionedPrecision(k1, 5, 1), cov)
        iu = np.triu_indices(5, k=1)
        order0 = np.argsort(state0.alpha[iu])
        order1 = np.argsort(state1.alpha[:5, :5][iu])
        np.testing.assert_array_equal(order0, order1)


class TestUniformPriorLogZ:
    """The uniform prior's log partition in closed form, without elimination,
    with observed-hidden weight t = 1 (the fit's) and t != 1."""

    @pytest.mark.parametrize("r", range(4))
    def test_matches_elimination(self, r):
        for p in range(2, 81):
            np.testing.assert_array_equal(
                em._FitPrior.uniform(p, r).weights, em.uniform_prior(p, r)
            )
            for t in (1.0, p / (p + r - 1), 0.25, 3.0):
                prior = em._FitPrior.uniform(p, r, t)
                eliminated = spanning_trees.log_partition_function(prior.weights)
                assert prior.log_z == pytest.approx(eliminated, rel=1e-12, abs=1e-12), (p, t)

    def test_matches_enumeration(self):
        # p = 1: a star on the observed node, the only tree without
        # hidden-hidden edges; a single node has one (empty) tree
        assert em._FitPrior.uniform(1, 0).log_z == 0.0
        for p in range(1, 9):
            for r in range(max(0, 2 - p), 9 - p):
                for t in (1.0, 0.25, 3.0):
                    prior = em._FitPrior.uniform(p, r, t)
                    trees = tree_products(prior.weights).sum()
                    assert prior.log_z == pytest.approx(
                        np.log(trees), rel=1e-12, abs=1e-12
                    ), (p, r, t)


class TestEntropies:
    def test_single_tree_entropy_zero(self):
        log_gamma = np.full((3, 3), -np.inf)
        log_gamma[0, 1] = log_gamma[1, 0] = 0.0
        log_gamma[1, 2] = log_gamma[2, 1] = 0.0
        # only one tree has positive weight: edges (0,1),(1,2)
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        weights[1, 2] = weights[2, 1] = 1.0
        state = tree_state(log_gamma, weights, 0.0)
        assert em.tree_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_gamma_three_nodes(self, rng):
        cov = EmpiricalCovariance(np.eye(3), 5)
        prec = PartitionedPrecision(np.eye(3), 3, 0)
        state = fit_e_step(prec, cov)
        assert em.tree_entropy(state) == pytest.approx(np.log(3.0), abs=1e-10)

    def test_entropy_matches_brute_force(self, rng):
        for _ in range(10):
            lg = rng.normal(0.0, 1.5, (5, 5))
            lg = 0.5 * (lg + lg.T)
            np.fill_diagonal(lg, -np.inf)
            w = np.exp(lg)
            w[~np.isfinite(lg)] = 0.0
            np.fill_diagonal(w, 0.0)
            state = tree_state(lg, w, spanning_trees.log_partition_function(w))
            products = tree_products(w)
            p_tree = products / products.sum()
            h_brute = -np.sum(p_tree * np.log(p_tree))
            assert em.tree_entropy(state) == pytest.approx(h_brute, abs=1e-8)

    def test_joint_entropy_reduces_to_tree_entropy(self, rng):
        cov, prec, prior = random_instance(rng, 4, 0)
        state = fit_e_step(prec, cov)
        h_tree = em.tree_entropy(state)
        assert em.joint_entropy(h_tree, prec) == h_tree

    def test_joint_entropy_unit_hidden(self, rng):
        cov, prec, prior = random_instance(rng, 4, 1)
        k = prec.matrix.copy()
        k[4, 4] = 1.0
        prec = PartitionedPrecision(k, 4, 1)
        state = fit_e_step(prec, cov)
        h_tree = em.tree_entropy(state)
        expected = h_tree + 0.5 * np.log(2 * np.pi * np.e)
        assert em.joint_entropy(h_tree, prec) == pytest.approx(expected, rel=1e-12)

    def test_joint_entropy_two_hidden(self, rng):
        cov, prec, prior = random_instance(rng, 4, 2)
        k = prec.matrix.copy()
        k[4, 4], k[5, 5] = 2.0, 8.0
        k[4, 5] = k[5, 4] = 0.0
        prec = PartitionedPrecision(k, 4, 2)
        state = fit_e_step(prec, cov)
        extra = np.log(2 * np.pi * np.e) - 0.5 * (np.log(2.0) + np.log(8.0))
        h_tree = em.tree_entropy(state)
        assert em.joint_entropy(h_tree, prec) == pytest.approx(h_tree + extra, rel=1e-12)


class TestObservedLoglik:
    def test_two_nodes_exact_gaussian(self, rng):
        # a single spanning tree exists, so the model is one plain Gaussian
        cov = small_cov(rng, 2, n=30)
        s = cov.matrix
        k = np.linalg.inv(s)
        prec = PartitionedPrecision(k, 2, 0)
        state = fit_e_step(prec, cov)
        ll = em.observed_loglik(state, prec, cov)
        n = cov.n
        sign, logdet = np.linalg.slogdet(k)
        expected = 0.5 * n * (logdet - np.trace(k @ s)) - n * np.log(2 * np.pi)
        assert ll == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "p, seed, n",
        [(p, seed, 25) for p in (3, 5, 6, 7) for seed in (0, 1)]
        # log gamma spans 1 175 nats: three edge weights are floored to
        # 1e-300, and every tree that holds one is negligible
        + [(6, 0, 20000)],
        ids=str,
    )
    def test_three_nodes_matches_enumeration(self, p, seed, n):
        # r = 0: log sum_T P(T) p(X_O | T), every tree enumerated in log space
        cov, prec, prior = random_instance(np.random.default_rng(seed), p, 0, n)
        state = fit_e_step(prec, cov)
        if n > 25:
            finite = state.log_gamma[np.isfinite(state.log_gamma)]
            assert finite.max() - finite.min() > 708.0
            assert (state.weights == 1e-300).any()
        ll = em.observed_loglik(state, prec, cov)
        with np.errstate(divide="ignore"):
            log_prior = np.log(prior)
        kd = np.diag(prec.matrix)
        expected = (
            brute_log_partition(state.log_gamma)
            - brute_log_partition(log_prior)
            - 0.5 * n * p * np.log(2 * np.pi)
            + 0.5 * n * (np.log(kd).sum() - kd @ np.diag(cov.matrix))
        )
        assert ll == pytest.approx(expected, abs=1e-8)
        # the EM identity, term by term
        assert identity_loglik(state, prec, cov, prior) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "p, r, seed",
        [(p, r, seed) for p, r in ((4, 1), (6, 1), (3, 2), (5, 2)) for seed in (0, 1)],
        ids=str,
    )
    def test_hidden_matches_identity(self, p, r, seed):
        # r > 0: the closed form against the EM identity evaluated term by term
        cov, prec, prior = random_instance(np.random.default_rng(seed), p, r)
        state = fit_e_step(prec, cov)
        ll = em.observed_loglik(state, prec, cov)
        assert ll == pytest.approx(identity_loglik(state, prec, cov, prior), rel=1e-9)

    def test_gamma_shift_invariance(self, rng):
        # adding a constant to all log gamma leaves the marginals unchanged
        lg = rng.normal(0.0, 1.0, (4, 4))
        lg = 0.5 * (lg + lg.T)
        np.fill_diagonal(lg, -np.inf)
        m1 = brute_posterior_marginals(lg)
        m2 = brute_posterior_marginals(lg + 3.7)
        np.testing.assert_allclose(m1, m2, atol=1e-12)


def count_calls(monkeypatch, names):
    """Count the calls of each named function: in `em`, which looks it up by
    name, or, for the kernels `em` does not import, in `spanning_trees`."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        module = em if hasattr(em, name) else spanning_trees
        func = getattr(module, name)

        def counted(*args, name=name, func=func):
            calls[name] += 1
            return func(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def acceptance_data(size, r, epsilon, offset):
    """The observed samples of a 50-replicate acceptance suite of test_acceptance."""
    for seed in range(offset, offset + 50):
        truth = make_ground_truth("tree", size=size, r=r, epsilon=epsilon, seed=seed)
        yield sample_and_marginalize(truth.precision, 30, sample_seed(seed))[1]


def acceptance_suite(size, r, epsilon, offset):
    """The covariances of a 50-replicate acceptance suite of test_acceptance."""
    return map(EmpiricalCovariance.from_data, acceptance_data(size, r, epsilon, offset))


def scored_proposals(cov, r):
    """(bound, exact, current) log-likelihood of each M-step proposal that
    `em.fit(cov, r)` makes: every proposal is scored by `_loglik_bound` and
    by its E-step, and kept, as in `_run_em`, while the exact value rises by
    more than the default tolerance."""
    from treeagg.initialization import initial_precision_from_cov

    prior = em._FitPrior.uniform(cov.size, r)
    k = initial_precision_from_cov(cov, r).precision
    state = em.e_step(em._weigh(k, cov, prior))
    ll = em.observed_loglik(state, k, cov)
    scored = []
    while True:
        proposal = em.m_step(state, k, cov)
        weighed = em._weigh(proposal, cov, prior)
        trial = em.e_step(weighed)
        exact = em.observed_loglik(trial, proposal, cov)
        scored.append((em._loglik_bound(weighed, proposal, cov), exact, ll))
        if not exact > ll or exact - ll <= em.FitOptions().tol * (abs(ll) + 1e-12):
            return np.array(scored)
        k, state, ll = proposal, trial, exact


@pytest.fixture(scope="module")
def suite_proposals():
    """`scored_proposals` at r = 0..3 on the signal and the null suite."""
    return {
        name: np.concatenate(
            [scored_proposals(cov, r) for cov in acceptance_suite(*suite) for r in range(4)]
        )
        for name, suite in (("signal", (21, 1, 10.0, 0)), ("null", (20, 0, 1.0, 1000)))
    }


class TestLoglikBound:
    """The kernel-free bound on a proposal's log-likelihood, and the
    rejections it settles without an E-step."""

    @pytest.mark.parametrize("suite", ["signal", "null"])
    def test_bounds_every_proposal(self, suite_proposals, suite):
        bound, exact, _ = suite_proposals[suite].T
        assert len(bound) >= 200
        assert (bound >= exact).all()

    def test_certifies_most_signal_rejections(self, suite_proposals):
        # a looser bound certifies fewer: 195 of the 200 at the time of writing
        bound, exact, ll = suite_proposals["signal"].T
        rejected = ~(exact > ll)
        certified = np.isfinite(bound) & (bound < ll - em._BOUND_RTOL * np.maximum(1.0, np.abs(ll)))
        assert rejected.sum() == 200
        assert not (certified & ~rejected).any()
        assert certified.sum() >= 190

    def test_fits_keep_their_bits(self, monkeypatch):
        # the bound only skips the E-steps of proposals that are rejected:
        # every signal-suite fit equals, bit for bit, the fit that scores each
        # proposal by its E-step
        fits = []
        for bounded in (True, False):
            if not bounded:
                monkeypatch.setattr(em, "_loglik_bound", lambda *args: np.inf)
            fits.append([
                (f.loglik_trace, f.converged, f.alpha.tobytes(), f.precision.matrix.tobytes())
                for cov in acceptance_suite(21, 1, 10.0, 0)
                for f in (em.fit(cov, r) for r in range(4))
            ])
        assert fits[0] == fits[1]

    @pytest.mark.parametrize("instance", ["floored-r0", "p78-r2"])
    def test_hadamard_on_floored_weights(self, monkeypatch, instance):
        # the two weight-floor instances: a random r = 0 one whose log gamma
        # spans 2 511 nats, so that every spanning tree holds a floored edge,
        # and every E-step of a fit at size 80 with r = 2
        kernel, floored = em.tree_posterior, []

        def checked_kernel(w):
            alpha, log_z = kernel(w)
            assert em._hadamard_log_z(w) >= log_z - 1e-14 * max(1.0, abs(log_z))
            floored.append((w == 1e-300).any())
            return alpha, log_z

        monkeypatch.setattr(em, "tree_posterior", checked_kernel)
        if instance == "floored-r0":
            cov, prec, prior = random_instance(np.random.default_rng(1), 6, 0, n=20000)
            fit_e_step(prec, cov)
        else:
            truth = make_ground_truth("tree", size=80, r=2, epsilon=10.0, seed=0)
            _, observed = sample_and_marginalize(truth.precision, 200, sample_seed(0))
            em.fit(EmpiricalCovariance.from_data(observed), 2)
        assert any(floored)


class TestMStep:
    def test_zero_covariance_entry_gives_zero(self, rng):
        cov, prec, prior = random_instance(rng, 3, 0)
        s = cov.matrix.copy()
        s[0, 1] = s[1, 0] = 0.0
        cov = EmpiricalCovariance(s, cov.n)
        state = fit_e_step(prec, cov)
        new = em.m_step(state, prec, cov)
        assert new.matrix[0, 1] == 0.0

    def test_all_zero_offdiagonal_diagonal_update(self, rng):
        # with all K_ik = 0 the stationarity equation collapses to 1/K_ii = target
        cov = small_cov(rng, 3)
        prec = PartitionedPrecision(np.diag([1.0, 2.0, 3.0, 4.0]), 3, 1)
        state = fit_e_step(prec, cov)
        targets = np.concatenate([np.diag(cov.matrix), np.diag(state.b_h)])
        diag = em._solve_diagonal(prec.matrix, state.alpha, targets)
        np.testing.assert_allclose(diag, 1.0 / targets, rtol=1e-15)
        np.testing.assert_allclose(diag, bisect_diagonal(prec.matrix, state.alpha, targets), rtol=1e-14)

    def test_offdiagonal_stationarity_by_finite_differences(self, rng):
        # the closed form is a stationary point of the per-edge surrogate
        # alpha * (log d + p_ij)
        for _ in range(20):
            kii, kjj = rng.uniform(0.5, 3.0, 2)
            sij = rng.uniform(-0.8, 0.8)
            if abs(sij) < 1e-3:
                continue
            kij = (1.0 - np.sqrt(1.0 + 4.0 * sij**2 * kii * kjj)) / (2.0 * sij)

            def surrogate(x):
                return np.log(1.0 - x**2 / (kii * kjj)) - 2.0 * x * sij

            h = 1e-6
            deriv = (surrogate(kij + h) - surrogate(kij - h)) / (2 * h)
            assert abs(deriv) < 1e-6

    def test_observed_hidden_stationarity(self, rng):
        for _ in range(20):
            kii, khh = rng.uniform(0.5, 3.0, 2)
            w = rng.uniform(-0.8, 0.8)
            if abs(w) < 1e-3:
                continue
            kih = (-1.0 + np.sqrt(1.0 + 4.0 * w**2 * kii * khh)) / (2.0 * w)

            def surrogate(x):
                return np.log(1.0 - x**2 / (kii * khh)) + 2.0 * x * w

            h = 1e-6
            deriv = (surrogate(kih + h) - surrogate(kih - h)) / (2 * h)
            assert abs(deriv) < 1e-6

    def test_diagonal_equation_residual(self, rng):
        cov, prec, prior = random_instance(rng, 5, 1)
        state = fit_e_step(prec, cov)
        kd_old = np.diag(prec.matrix)
        targets = np.concatenate([np.diag(cov.matrix), np.diag(state.b_h)])
        diag = em._solve_diagonal(prec.matrix, state.alpha, targets)
        for i in range(6):
            x = diag[i]
            acc = 1.0
            for k_idx in range(6):
                if k_idx == i:
                    continue
                kik = prec.matrix[i, k_idx]
                a = state.alpha[i, k_idx]
                if a * kik**2 > 0:
                    acc += kik**2 * a / (x * kd_old[k_idx] - kik**2)
            assert acc / x == pytest.approx(targets[i], abs=1e-8)

    def test_negative_moment_rejected(self, rng):
        cov, prec, prior = random_instance(rng, 3, 1)
        state = fit_e_step(prec, cov)
        bad = em.EStepState(
            state.w_ho, -np.abs(state.b_h), state.log_gamma, state.weights, state.shift,
            state.log_z_prior, state.alpha, state.log_z,
        )
        with pytest.raises(InvalidMomentError):
            em.m_step(bad, prec, cov)

    def test_result_positive_definite(self, rng):
        cov, prec, prior = random_instance(rng, 6, 1)
        state = fit_e_step(prec, cov)
        new = em.m_step(state, prec, cov)
        assert np.linalg.eigvalsh(new.matrix)[0] > 0
        # hidden block stays diagonal
        assert new.matrix[6, 6] > 0


def diagonal_instance(rng, size):
    """(K, alpha, targets) for `_solve_diagonal`: a positive-definite K and a
    symmetric alpha with some zero entries."""
    k = random_spd(rng, size) * rng.uniform(0.1, 10.0)
    alpha = np.triu(rng.uniform(0.0, 1.0, (size, size)) * (rng.uniform(size=(size, size)) > 0.3), 1)
    targets = rng.uniform(0.1, 10.0, size) / np.diag(k)
    return k, alpha + alpha.T, targets


class TestSolveDiagonal:
    """Safeguarded Newton against the bisection oracle, to 1e-14 relative."""

    @pytest.mark.parametrize("size", [3, 4, 7, 12, 21, 23, 40, 80])
    def test_matches_bisection(self, rng, size):
        for _ in range(5):
            k, alpha, targets = diagonal_instance(rng, size)
            np.testing.assert_allclose(
                em._solve_diagonal(k, alpha, targets), bisect_diagonal(k, alpha, targets), rtol=1e-14
            )

    @pytest.mark.parametrize("size", [3, 21, 80])
    def test_root_next_to_the_largest_pole(self, rng, size):
        # targets placed so that every root sits 1e-7 above its largest pole
        k, alpha, _ = diagonal_instance(rng, size)
        alpha[alpha == 0.0] = 0.5
        np.fill_diagonal(alpha, 0.0)
        kd = np.diag(k)
        ksq = (k - np.diag(kd)) ** 2
        root = (ksq / kd[None, :]).max(axis=1) + 1e-7
        targets = (1.0 + (ksq * alpha / (root[:, None] * kd[None, :] - ksq)).sum(axis=1)) / root
        x = em._solve_diagonal(k, alpha, targets)
        np.testing.assert_allclose(x, bisect_diagonal(k, alpha, targets), rtol=1e-14)
        np.testing.assert_allclose(x, root, rtol=1e-14)

    def test_acceptance_suite_steps(self, monkeypatch):
        # every M-step of `select` (r = 0..3) on the 50-replicate signal and
        # null suites of test_acceptance converges within 20 Newton steps
        counts = []
        solve, residual = em._solve_diagonal, em._reciprocal_residual

        def counted_solve(*args):
            counts.append(0)
            return solve(*args)

        def counted_residual(*args):
            counts[-1] += 1
            return residual(*args)

        monkeypatch.setattr(em, "_solve_diagonal", counted_solve)
        monkeypatch.setattr(em, "_reciprocal_residual", counted_residual)
        for size, r, epsilon, offset in ((21, 1, 10.0, 0), (20, 0, 1.0, 1000)):
            for seed in range(offset, offset + 50):
                truth = make_ground_truth("tree", size=size, r=r, epsilon=epsilon, seed=seed)
                _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(seed))
                selection.select(EmpiricalCovariance.from_data(observed), r_max=3)
        assert len(counts) >= 400 and max(counts) <= 20


class TestFit:
    def test_chain_recovery_r0(self):
        truth = make_ground_truth("tree", size=3, r=0, epsilon=1.0, seed=2)
        # force a chain: any 3-node tree is a path; just fit and rank
        data, _ = sample_and_marginalize(truth.precision, 200, sample_seed(2))
        cov = EmpiricalCovariance.from_data(data)
        result = em.fit(cov, 0)
        iu = np.triu_indices(3, k=1)
        ranked = np.argsort(-result.alpha[iu])
        true_edges = set(truth.graph.edges)
        pairs = [(0, 1), (0, 2), (1, 2)]
        top2 = {pairs[i] for i in ranked[:2]}
        assert top2 == true_edges

    @pytest.mark.parametrize("r", [0, 1])
    def test_perfect_correlation_raises(self, rng, r):
        # regularizing would hide the duplicate and fit an unbounded likelihood
        cov = EmpiricalCovariance.from_data(duplicated_column_data(rng))
        with pytest.raises(PerfectCorrelationError, match="variables 0 and 3"):
            em.fit(cov, r)

    def test_max_iter_zero_returns_initializer(self, rng):
        cov = small_cov(rng, 4)
        result = em.fit(cov, 1, opts=em.FitOptions(max_iter=0))
        assert result.iterations == 0
        assert result.loglik_trace == ()
        assert not result.converged
        assert result.alpha.shape == (5, 5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"max_iter": -1}, "max_iter"), ({"tol": -1e-9}, "tol"), ({"tol": float("nan")}, "tol")],
        ids=["max_iter-negative", "tol-negative", "tol-nan"],
    )
    def test_bad_options_raise(self, kwargs, name):
        # a negative budget would run no step and return the start as if fitted
        with pytest.raises(ValueError, match=name):
            em.FitOptions(**kwargs)

    def test_zero_options_are_valid(self):
        # both bounds are inclusive: max_iter 0 returns the start, tol 0 stops on max_iter only
        opts = em.FitOptions(max_iter=0, tol=0.0)
        assert (opts.max_iter, opts.tol) == (0, 0.0)

    def test_trace_monotone_and_best_returned(self, rng):
        cov = small_cov(rng, 6, n=30)
        result = em.fit(cov, 1)
        trace = np.array(result.loglik_trace)
        assert (np.diff(trace) >= -1e-6).all()
        assert result.loglik == pytest.approx(trace.max())

    @pytest.mark.parametrize(
        "r, expected",
        [
            (0, {"log_partition_function": 0, "tree_posterior": 1, "edge_marginals": 0}),
            (1, {"log_partition_function": 0, "tree_posterior": 1, "edge_marginals": 0}),
        ],
        ids=["r0", "r1"],
    )
    def test_stalled_iteration_budget(self, monkeypatch, r, expected):
        # a signal-suite replicate whose first M-step proposal is rejected:
        # one E-step at the initializer, one kernel call for alpha and log Z,
        # and none for the uniform prior, whose log partition has a closed
        # form.  The proposal's likelihood bound is already below the
        # initializer's log-likelihood, so it has no E-step at all.
        truth = make_ground_truth("tree", size=21, r=1, epsilon=10.0, seed=0)
        _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(0))
        cov = EmpiricalCovariance.from_data(observed)
        calls = count_calls(monkeypatch, ["e_step", *expected])
        result = em.fit(cov, r)
        assert result.iterations == 1 and result.converged
        assert calls == {"e_step": 1, **expected}

    @pytest.mark.parametrize(
        "opts", [em.FitOptions(), em.FitOptions(max_iter=2)], ids=["default", "max_iter2"]
    )
    def test_one_step_then_stop(self, opts):
        # a signal-suite replicate whose first proposal is kept and whose
        # second is rejected: with the default budget the run stops there,
        # with max_iter=2 the budget ends it before a second proposal.  Either
        # way the trace rises strictly and ends at the returned iterate.
        truth = make_ground_truth("tree", size=21, r=1, epsilon=10.0, seed=4)
        _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(4))
        cov = EmpiricalCovariance.from_data(observed)
        result = em.fit(cov, 1, opts=opts)
        assert result.iterations == 2
        assert result.converged == (opts.max_iter > 2)
        assert np.diff(result.loglik_trace).min() > 0.0
        assert result.loglik == result.loglik_trace[-1]
        state = fit_e_step(result.precision, cov)
        assert result.loglik == em.observed_loglik(state, result.precision, cov)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_entropies_from_one_tree_entropy(self, monkeypatch, rng, r):
        # h_joint is built from the fit's one tree entropy, with the bits
        # joint_entropy gives on the returned iterate's E-step
        cov = small_cov(rng, 6, n=30)
        calls = count_calls(monkeypatch, ["tree_entropy"])
        result = em.fit(cov, r)
        assert calls == {"tree_entropy": 1}
        state = fit_e_step(result.precision, cov)
        assert result.h_tree == em.tree_entropy(state)
        assert result.h_joint == em.joint_entropy(result.h_tree, result.precision)

    def test_alpha_enumeration_along_iterations(self, rng):
        # posterior exactness at every accepted iterate, p + r <= 6
        cov = small_cov(rng, 4, n=20)
        from treeagg.initialization import initial_precision_from_cov

        k = initial_precision_from_cov(cov, 1).precision
        for _ in range(10):
            state = fit_e_step(k, cov)
            np.testing.assert_allclose(
                state.alpha, brute_posterior_marginals(state.log_gamma), atol=1e-9
            )
            k = em.m_step(state, k, cov)

    def test_figure_pattern_attachment(self):
        hits = 0
        for rep in range(20):
            truth = figure_ground_truth(epsilon=4.0, seed=100 + rep)
            data, observed = sample_and_marginalize(
                truth.precision, 300, sample_seed(300 + rep)
            )
            cov = EmpiricalCovariance.from_data(observed)
            result = em.fit(cov, 1)
            top3 = set(np.argsort(-result.alpha[:9, 9])[:3].tolist())
            hits += top3 == set(np.flatnonzero(truth.graph.adjacency()[9]).tolist())
        assert hits >= 16  # >= 80% of 20 replicates


SUITES = {"signal": (21, 1, 10.0, 0), "null": (20, 0, 1.0, 1000)}


def rescaled_r0_fits(suite):
    """(replicate, fit of X, fit of X D P, -n sum log d_i, P) at r = 0 over an
    acceptance suite, with d_i = exp(U(-3, 3)) and P a random permutation."""
    rng = np.random.default_rng(0)
    for i, x in enumerate(acceptance_data(*SUITES[suite])):
        d = np.exp(rng.uniform(-3.0, 3.0, x.shape[1]))
        perm = rng.permutation(x.shape[1])
        fit = em.fit(EmpiricalCovariance.from_data(x), 0)
        moved = em.fit(EmpiricalCovariance.from_data((x * d)[:, perm]), 0)
        yield i, fit, moved, -x.shape[0] * np.log(d).sum(), perm


def assert_equivariant(fit, moved, shift, perm):
    np.testing.assert_allclose(moved.alpha, fit.alpha[np.ix_(perm, perm)], rtol=0.0, atol=1e-9)
    assert moved.loglik == pytest.approx(fit.loglik + shift, rel=1e-10)
    # h_tree is log Z less sum alpha log gamma: within 1e-9 of 0 on some null
    # replicates, where its roundoff is the terms', so relative to max(1, |h_tree|)
    assert moved.h_tree == pytest.approx(fit.h_tree, rel=1e-10, abs=1e-10)


# The one replicate of `rescaled_r0_fits` whose rescaled fit accepts a step.
# `floor_spectrum` floors both fits' first proposals, and its floor, relative
# to the largest eigenvalue, is not unit-free; the rescaled floored proposal's
# log gamma spans 2 012 nats, 370 of its weights take the 1e-300 weight floor,
# and it is kept 130 nats above the equivariant log-likelihood, while the
# unscaled fit rejects its proposal and stops at its start.
FLOORED_REPLICATE = ("signal", 42)


class TestUnitEquivariance:
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_r0_fit_of_rescaled_permuted_columns(self, suite):
        # fitting X D P permutes alpha by P, shifts loglik by -n sum log d_i
        # and keeps h_tree: at the time of writing to 2.7e-14 absolute,
        # 2.1e-12 relative and 4.7e-13 relative to max(1, |h_tree|)
        checked = 0
        for i, fit, moved, shift, perm in rescaled_r0_fits(suite):
            if (suite, i) != FLOORED_REPLICATE:
                assert_equivariant(fit, moved, shift, perm)
                checked += 1
        assert checked >= 49

    @pytest.mark.xfail(
        strict=True,
        reason="the M-step's eigenvalue floor is not unit-free, and the weight floor "
        "lifts the floored proposal's log Z (ROADMAP items 3 and 20)",
    )
    def test_r0_fit_of_rescaled_columns_with_a_floored_proposal(self):
        suite, replicate = FLOORED_REPLICATE
        for i, fit, moved, shift, perm in rescaled_r0_fits(suite):
            if i == replicate:
                assert_equivariant(fit, moved, shift, perm)
                break


class TestEdgePosteriors:
    def test_identity_at_current_marginal(self, rng):
        cov = small_cov(rng, 4)
        result = em.fit(cov, 0)
        alpha2 = em.edge_posteriors(result, 2.0 / 4.0)
        np.testing.assert_allclose(alpha2, result.alpha, atol=1e-8)

    def test_matches_enumeration(self, rng):
        cov = small_cov(rng, 3)
        result = em.fit(cov, 0)
        alpha2 = em.edge_posteriors(result, 2.0 / 3.0)
        state = fit_e_step(result.precision, result.cov)
        np.testing.assert_allclose(
            alpha2, brute_posterior_marginals(state.log_gamma), atol=1e-9
        )

    def test_mass_conservation(self, rng):
        cov = small_cov(rng, 5)
        result = em.fit(cov, 1)
        alpha2 = em.edge_posteriors(result, 5.0 / 15.0)  # (size-1)/support pairs
        total = alpha2[np.triu_indices(6, k=1)].sum()
        assert total == pytest.approx(5.0, abs=1e-8)

    @staticmethod
    def count_kernel_calls(monkeypatch):
        return count_calls(monkeypatch, ["tree_posterior", "log_partition_function", "edge_marginals"])

    @pytest.mark.parametrize("r", [0, 1])
    def test_unchanged_prior_returns_fit_alpha(self, rng, monkeypatch, r):
        # the uniform prior with at most one hidden node is already calibrated:
        # no kernel call, and the fit's alpha bit for bit
        cov = small_cov(rng, 5)
        result = em.fit(cov, r)
        p0 = (4.0 + r) / ((5 + r) * (4 + r) / 2)
        recomputed = fit_e_step(result.precision, cov).alpha
        calls = self.count_kernel_calls(monkeypatch)
        alpha2 = em.edge_posteriors(result, p0)
        assert sum(calls.values()) == 0
        assert alpha2.tobytes() == recomputed.tobytes() == result.alpha.tobytes()

    def test_changed_prior_recomputes(self, rng, monkeypatch):
        # with two hidden nodes the hidden-hidden pair is excluded, so the
        # uniform prior is not calibrated and the E-step runs again: one
        # kernel call, and the calibrated prior's log partition in closed form
        cov = small_cov(rng, 5)
        result = em.fit(cov, 2)
        p0 = 6.0 / 20.0  # (size - 1) / #candidate pairs
        calibrated = fixed_point_calibrate(em.uniform_prior(5, 2), p0)
        expected = raw_prior_alpha(result.precision, cov, log_edge_prior(calibrated))
        calls = self.count_kernel_calls(monkeypatch)
        alpha2 = em.edge_posteriors(result, p0)
        assert calls == {"tree_posterior": 1, "log_partition_function": 0, "edge_marginals": 0}
        assert not np.allclose(alpha2, result.alpha, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(alpha2, expected, rtol=0.0, atol=1e-11)
