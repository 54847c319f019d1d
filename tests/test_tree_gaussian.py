import numpy as np
import pytest

from treeagg.em import conditional_moments
from treeagg.errors import DegenerateWeightsError, InvalidPrecisionError, PerfectCorrelationError
from treeagg.graphs import UnionFind
from treeagg.matrices import EmpiricalCovariance, PartitionedPrecision
from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed
from treeagg.tree_gaussian import (
    gaussian_mutual_information,
    log_edge_prior,
    log_marginal_tree_weight,
    maximum_spanning_tree,
    tree_precision_from_cov,
    uniform_prior,
    upper_pairs,
)

from conftest import chow_liu, random_spd, tree_edges, tree_products


def cov_from_corr(rho_pairs, size):
    s = np.eye(size)
    for (i, j), rho in rho_pairs.items():
        s[i, j] = s[j, i] = rho
    return s


class TestChowLiu:
    def test_diagonal_gives_star_on_first_node(self):
        tree = chow_liu(np.eye(4) * 2.0)
        assert tree == ((0, 1), (0, 2), (0, 3))

    def test_three_variable_hand_case(self):
        s = cov_from_corr({(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.72}, 3)
        tree = chow_liu(s)
        assert tree == ((0, 1), (1, 2))

    def test_recovers_generating_tree(self):
        truth = make_ground_truth("tree", size=10, r=0, epsilon=1.0, seed=11)
        data, _ = sample_and_marginalize(truth.precision, 5000, sample_seed(11))
        cov = EmpiricalCovariance.from_data(data)
        assert chow_liu(cov.matrix) == truth.graph.edges

    def test_optimal_among_all_trees(self, rng):
        for size in (4, 5, 6):
            s = random_spd(rng, size)
            mi = gaussian_mutual_information(s)
            best = max(
                tree_edges(size).tolist(), key=lambda t: sum(mi[i, j] for i, j in t)
            )
            tree = chow_liu(s)
            total = sum(mi[i, j] for i, j in tree)
            assert total == pytest.approx(sum(mi[i, j] for i, j in best), rel=1e-12)

    def test_negative_correlation_ranked_by_strength(self):
        s = cov_from_corr({(0, 1): -0.9, (1, 2): 0.5, (0, 2): 0.1}, 3)
        assert (0, 1) in chow_liu(s)

    def test_perfect_correlation_rejected(self):
        s = cov_from_corr({(0, 1): 1.0 - 1e-14}, 3)
        with pytest.raises(PerfectCorrelationError):
            chow_liu(s)

    def test_forbidden_edges_respected(self):
        w = np.ones((4, 4))
        forbidden = np.zeros((4, 4), dtype=bool)
        forbidden[2, 3] = forbidden[3, 2] = True
        tree = maximum_spanning_tree(w, forbidden)
        assert (2, 3) not in tree

    @pytest.mark.parametrize("size", [21, 23, 80])
    def test_ties_broken_in_lexicographic_edge_order(self, rng, size):
        # integer weights tie often; the reference sorts (-w, i, j) tuples
        for hidden in (0, 2):
            w = np.triu(rng.integers(0, 3, (size, size)).astype(float), 1)
            w = w + w.T
            forbidden = np.zeros((size, size), dtype=bool)
            forbidden[size - hidden :, size - hidden :] = True
            candidates = sorted(
                (-w[i, j], i, j) for i in range(size) for j in range(i + 1, size) if not forbidden[i, j]
            )
            uf, expected = UnionFind(size), []
            for _, i, j in candidates:
                if uf.union(i, j):
                    expected.append((i, j))
            assert maximum_spanning_tree(w, forbidden) == tuple(sorted(expected))

    def test_stable_sort_matches_lexsort_on_masked_ties(self, rng):
        # Kruskal's order is a stable argsort of -w over `upper_pairs`; the
        # reference is the lexsort on (-w, i, j) it replaced, over random
        # masks and weights in {-1, 0, 1, 2} (-0.0 among the ties)
        for _ in range(300):
            size = int(rng.integers(3, 10))
            w = np.triu(rng.integers(-1, 3, (size, size)).astype(float), 1)
            w = w + w.T
            forbidden = np.triu(rng.random((size, size)) < 0.3, 1)
            forbidden = forbidden | forbidden.T
            rows, cols = np.triu_indices(size, k=1)
            keep = ~forbidden[rows, cols]
            rows, cols = rows[keep], cols[keep]
            uf, expected = UnionFind(size), []
            for k in np.lexsort((cols, rows, -w[rows, cols])):
                if uf.union(int(rows[k]), int(cols[k])):
                    expected.append((int(rows[k]), int(cols[k])))
            if len(expected) < size - 1:
                with pytest.raises(DegenerateWeightsError):
                    maximum_spanning_tree(w, forbidden)
            else:
                assert maximum_spanning_tree(w, forbidden) == tuple(sorted(expected))


class TestUpperPairs:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_triu_indices_read_only_and_cached(self, n):
        rows, cols = upper_pairs(n)
        expected = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(rows, expected[0])
        np.testing.assert_array_equal(cols, expected[1])
        assert upper_pairs(n) is upper_pairs(n)
        with pytest.raises(ValueError):
            rows[...] = 0


class TestLogEdgePrior:
    def test_log_weights_minus_inf_off_support(self):
        prior = uniform_prior(3, 2)
        prior[0, 3] = prior[3, 0] = 0.5
        log_prior = log_edge_prior(prior)
        support = prior > 0.0
        np.testing.assert_array_equal(log_prior[support], np.log(prior[support]))
        assert np.all(log_prior[~support] == -np.inf)

    def test_diagonal_never_in_support(self):
        assert np.all(np.diag(log_edge_prior(np.ones((4, 4)))) == -np.inf)

    def test_asymmetric_prior_rejected(self):
        prior = np.ones((3, 3))
        prior[0, 1] = 2.0
        with pytest.raises(ValueError, match="not symmetric"):
            log_edge_prior(prior)


class TestTreePrecision:
    def test_identity_covariance(self):
        k = tree_precision_from_cov(((0, 1), (1, 2)), np.eye(3))
        np.testing.assert_allclose(k, np.eye(3), atol=1e-14)

    def test_two_node_inverse(self):
        rho = 0.6
        s = np.array([[1.0, rho], [rho, 1.0]])
        k = tree_precision_from_cov(((0, 1),), s)
        expected = np.array([[1.0, -rho], [-rho, 1.0]]) / (1 - rho**2)
        np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_marginals_reproduced_on_tree_blocks(self, rng):
        s = random_spd(rng, 6)
        tree = chow_liu(s)
        k = tree_precision_from_cov(tree, s)
        cov = np.linalg.inv(k)
        np.testing.assert_allclose(np.diag(cov), np.diag(s), atol=1e-10)
        for i, j in tree:
            assert cov[i, j] == pytest.approx(s[i, j], abs=1e-10)

    def test_determinant_factorizes(self, rng):
        # det K_T = prod_i (1/S_ii) * prod_edges S_ii S_jj / det(block)
        s = random_spd(rng, 5)
        tree = chow_liu(s)
        k = tree_precision_from_cov(tree, s)
        expected = np.prod(1.0 / np.diag(s))
        for i, j in tree:
            det2 = s[i, i] * s[j, j] - s[i, j] ** 2
            expected *= s[i, i] * s[j, j] / det2
        assert np.linalg.det(k) == pytest.approx(expected, rel=1e-10)

    def test_trace_decomposition(self, rng):
        # tr(K_T S') with the assembled K_T equals the node + edge split of the
        # generating blocks, exact as assembled
        s = random_spd(rng, 5)
        s2 = random_spd(rng, 5)
        tree = chow_liu(s)
        k = tree_precision_from_cov(tree, s)
        total = np.trace(k @ s2)
        node = sum(s2[i, i] / s[i, i] for i in range(5))
        edge = 0.0
        for i, j in tree:
            det2 = s[i, i] * s[j, j] - s[i, j] ** 2
            block_inv = (
                np.array([[s[j, j], -s[i, j]], [-s[i, j], s[i, i]]]) / det2
            )
            sub = s2[np.ix_((i, j), (i, j))]
            edge += np.trace(block_inv @ sub) - s2[i, i] / s[i, i] - s2[j, j] / s[j, j]
        assert total == pytest.approx(node + edge, rel=1e-12)

    def test_singular_block_rejected(self):
        s = cov_from_corr({(0, 1): 1.0}, 3)
        with pytest.raises(PerfectCorrelationError):
            tree_precision_from_cov(((0, 1), (1, 2)), s)


def conditional_given(prec, x):
    """Mean and covariance of the hidden block given observed values x, from
    the E-step moments of the one-sample second moment x x^T: W_HO = K_H^-1
    K_HO x x^T and B_H - V_H = K_H^-1."""
    w_ho, v_h, b_h = conditional_moments(prec, np.outer(x, x))
    return -w_ho @ x / (x @ x), b_h - v_h


class TestConditional:
    def test_independent_hidden(self):
        k = np.eye(4)
        k[3, 3] = 2.0
        prec = PartitionedPrecision(k, 3, 1)
        mean, cond = conditional_given(prec, np.ones(3))
        np.testing.assert_allclose(mean, 0.0)
        np.testing.assert_allclose(cond, [[0.5]])

    def test_scalar_case(self):
        k = np.eye(4)
        k[3, 3] = 2.0
        k[0, 3] = k[3, 0] = 1.0
        prec = PartitionedPrecision(k, 3, 1)
        mean, _ = conditional_given(prec, np.array([4.0, 0.0, 0.0]))
        assert mean[0] == pytest.approx(-2.0)

    def test_matches_schur_conditioning(self, rng):
        k = random_spd(rng, 6) * 3.0
        k[4, 5] = k[5, 4] = 0.0  # the hidden block is diagonal
        prec = PartitionedPrecision(k, 4, 2)
        x = rng.normal(size=4)
        mean, cond = conditional_given(prec, x)
        # independent route: condition the covariance
        cov = np.linalg.inv(k)
        mean_ref = cov[4:, :4] @ np.linalg.solve(cov[:4, :4], x)
        cov_ref = cov[4:, 4:] - cov[4:, :4] @ np.linalg.solve(cov[:4, :4], cov[:4, 4:])
        np.testing.assert_allclose(mean, mean_ref, atol=1e-10)
        np.testing.assert_allclose(cond, cov_ref, atol=1e-10)

    def test_singular_hidden_block(self):
        k = np.eye(4)
        k[3, 3] = 0.0  # a zero on the diagonal hidden block makes it singular
        prec = PartitionedPrecision(k, 2, 2)
        with pytest.raises(InvalidPrecisionError):
            conditional_given(prec, np.zeros(2))


class TestLogMarginalTreeWeight:
    def test_zero_coupling_gives_prior(self, rng):
        s = random_spd(rng, 3)
        k = np.diag([1.0, 2.0, 3.0])
        prec = PartitionedPrecision(k, 3, 0)
        prior = np.ones((3, 3)) - np.eye(3)
        lg = log_marginal_tree_weight(prec, log_edge_prior(prior), EmpiricalCovariance(s, 7))
        iu = np.triu_indices(3, 1)
        np.testing.assert_allclose(lg[iu], 0.0, atol=1e-14)  # log 1

    def test_hidden_hidden_factor_is_one(self, rng):
        # with a positive prior on a hidden-hidden pair, gamma = pi * d * m,
        # and K_HH's zero off-diagonal makes d = m = 1
        k = np.eye(4) * 2.0
        k[0, 2] = k[2, 0] = k[1, 3] = k[3, 1] = 0.5
        prec = PartitionedPrecision(k, 2, 2)
        prior = np.ones((4, 4)) - np.eye(4)
        prior[2, 3] = prior[3, 2] = 0.7
        lg = log_marginal_tree_weight(prec, log_edge_prior(prior), EmpiricalCovariance(np.eye(2), 6))
        assert lg[2, 3] == np.log(0.7)

    def test_matches_per_tree_factorized_evidence(self, rng):
        # sum_T prod gamma equals the per-tree product of the determinant and
        # trace edge factors, evaluated tree by tree over the 3 trees
        s = random_spd(rng, 3)
        k = random_spd(rng, 3) * 2.0
        prec = PartitionedPrecision(k, 3, 0)
        prior = np.ones((3, 3)) - np.eye(3)
        n = 4
        lg = log_marginal_tree_weight(prec, log_edge_prior(prior), EmpiricalCovariance(s, n))
        w = np.exp(lg)
        w[~np.isfinite(lg)] = 0.0
        np.fill_diagonal(w, 0.0)
        lhs = tree_products(w).sum()

        kd = np.diag(k)
        rhs = 0.0
        for tree in tree_edges(3).tolist():
            det_part = 1.0
            trace_part = 0.0
            for i, j in tree:
                det_part *= (kd[i] * kd[j] - k[i, j] ** 2) / (kd[i] * kd[j])
                trace_part += 2.0 * k[i, j] * s[i, j]
            rhs += det_part ** (n / 2) * np.exp(-0.5 * n * trace_part)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_observed_hidden_factor(self, rng):
        # f_ih = exp((n/2) K_ih (K_HO S)_hi / K_hh), on top of the d factor
        s = random_spd(rng, 3)
        k = random_spd(rng, 4) * 2.0
        prec = PartitionedPrecision(k, 3, 1)
        prior = np.ones((4, 4)) - np.eye(4)
        prior[3, 3] = 0.0
        n = 5
        lg = log_marginal_tree_weight(prec, log_edge_prior(prior), EmpiricalCovariance(s, n))
        kd = np.diag(k)
        i = 1
        cross = k[3, :3] @ s[:, i]
        expected = 0.5 * n * (
            np.log(1.0 - k[i, 3] ** 2 / (kd[i] * kd[3])) + k[i, 3] * cross / kd[3]
        )
        assert lg[i, 3] == pytest.approx(expected, rel=1e-12)
