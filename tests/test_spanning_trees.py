import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from treeagg import em
from treeagg.errors import CalibrationError, DegenerateWeightsError, InvalidWeightError
from treeagg.graphs import prufer_to_edges
from treeagg.spanning_trees import (
    _reduction_plan,
    _subproblem_plan,
    edge_marginals,
    log_partition_function,
    tree_posterior,
    validate_weight_matrix,
)

from conftest import (
    brute_log_partition,
    brute_posterior_marginals,
    fancy_index_posterior,
    fixed_point_calibrate,
    is_spanning_tree,
    per_ground_edge_marginals,
    per_ground_log_partition,
    random_weight_matrix,
    tree_edges,
    tree_products,
)

WEIGHTED_3 = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 5.0], [3.0, 5.0, 0.0]])

# Two-component supports on 5 nodes: the ground node 0 in the larger and in the
# smaller component, components interleaved in index order, an isolated node.
# On 80 nodes, halves and interleaved: components span several levels of the
# recursion.
DISCONNECTED_SPLITS = [
    [(0, 1, 2), (3, 4)],
    [(0, 4), (1, 2, 3)],
    [(0, 2, 4), (1, 3)],
    [(0,), (1, 2, 3, 4)],
    [(0, 1, 2, 3), (4,)],
    [tuple(range(40)), tuple(range(40, 80))],
    [tuple(range(0, 80, 2)), tuple(range(1, 80, 2))],
]


def block_weights(components):
    """Positive weights inside each component, zero between components."""
    size = sum(len(comp) for comp in components)
    w = np.zeros((size, size))
    for comp in components:
        for i in comp:
            for j in comp:
                w[i, j] = 1.0 + i + j if i != j else 0.0
    return w


def log_brute(w):
    """log of w with zero weights at -inf, the enumeration oracle's input."""
    with np.errstate(divide="ignore"):
        return np.log(w)


class TestLaplacian:
    """Weight-matrix validation, shared by every kernel entry point."""

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidWeightError):
            validate_weight_matrix(w)

    def test_rejects_negative(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidWeightError):
            validate_weight_matrix(w)

    def test_rejects_nonfinite(self):
        for bad in (np.inf, np.nan):
            w = np.array([[0.0, bad], [bad, 0.0]])
            with pytest.raises(InvalidWeightError):
                validate_weight_matrix(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidWeightError):
            validate_weight_matrix(w)


class TestPartitionFunction:
    def test_three_nodes_uniform(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert np.exp(log_partition_function(w)) == pytest.approx(3.0, rel=1e-12)

    def test_four_nodes_uniform(self):
        w = np.ones((4, 4)) - np.eye(4)
        assert np.exp(log_partition_function(w)) == pytest.approx(16.0, rel=1e-12)

    def test_weighted_hand_enumeration(self):
        # trees on 3 nodes: {12,13}, {12,23}, {13,23} -> 6 + 10 + 15
        assert np.exp(log_partition_function(WEIGHTED_3)) == pytest.approx(31.0, rel=1e-12)

    def test_disconnected_support_is_zero(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert log_partition_function(w) == -np.inf

    @pytest.mark.parametrize("components", DISCONNECTED_SPLITS)
    def test_disconnected_splits_are_zero(self, components):
        w = block_weights(components)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_partition_function(w) == -np.inf

    def test_all_zero_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_partition_function(np.zeros((4, 4))) == -np.inf

    def test_matches_brute_force(self, rng):
        for size in range(3, 8):
            for _ in range(5):
                w = random_weight_matrix(rng, size)
                z = np.exp(log_partition_function(w))
                assert z == pytest.approx(tree_products(w).sum(), rel=1e-9)

    def test_homogeneity(self, rng):
        w = random_weight_matrix(rng, 6)
        c = 2.7
        z1 = log_partition_function(w)
        z2 = log_partition_function(c * w)
        assert z2 == pytest.approx(z1 + 5 * np.log(c), rel=1e-10)

    def test_all_first_minors_agree(self, rng):
        w = random_weight_matrix(rng, 5)
        z = np.exp(log_partition_function(w))
        lap = np.diag(w.sum(axis=1)) - w
        for u in range(5):
            for v in range(5):
                sub = np.delete(np.delete(lap, u, axis=0), v, axis=1)
                minor = (-1.0) ** (u + v) * np.linalg.det(sub)
                assert minor == pytest.approx(z, rel=1e-8)


class TestEdgeMarginals:
    def test_uniform_three_nodes(self):
        w = np.ones((3, 3)) - np.eye(3)
        m = edge_marginals(w)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(m[off], 2.0 / 3.0, rtol=1e-12)

    def test_weighted_hand_value(self):
        m = edge_marginals(WEIGHTED_3)
        assert m[0, 1] == pytest.approx(16.0 / 31.0, rel=1e-12)

    def test_zero_weight_edge(self):
        w = np.ones((4, 4)) - np.eye(4)
        w[0, 1] = w[1, 0] = 0.0
        m = edge_marginals(w)
        assert m[0, 1] == 0.0

    def test_matches_brute_force(self, rng):
        for size in range(2, 9):
            for _ in range(5):
                w = random_weight_matrix(rng, size)
                np.testing.assert_allclose(
                    edge_marginals(w), brute_posterior_marginals(log_brute(w)), atol=1e-9
                )

    def test_sum_is_size_minus_one(self, rng):
        for size in (4, 6, 9, 15):
            w = random_weight_matrix(rng, size)
            m = edge_marginals(w)
            total = m[np.triu_indices(size, k=1)].sum()
            assert total == pytest.approx(size - 1, abs=1e-8)

    def test_extreme_dynamic_range(self, rng):
        # weights spanning hundreds of nats: the elimination kernel must stay exact
        logw = rng.normal(0.0, 120.0, (6, 6))
        logw = 0.5 * (logw + logw.T)
        np.fill_diagonal(logw, -np.inf)
        shift = logw[np.isfinite(logw)].max()
        w = np.exp(logw - shift)
        np.fill_diagonal(w, 0.0)
        np.testing.assert_allclose(
            edge_marginals(w), brute_posterior_marginals(logw), atol=1e-10
        )

    def test_disconnected_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DegenerateWeightsError):
            edge_marginals(w)

    @pytest.mark.parametrize("components", DISCONNECTED_SPLITS)
    def test_disconnected_splits_raise(self, components):
        with pytest.raises(DegenerateWeightsError):
            edge_marginals(block_weights(components))

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateWeightsError):
            edge_marginals(np.zeros((4, 4)))


def estep_weights(rng, size, span):
    """E-step weights whose log values span `span` nats, plus a few pairs 724
    nats down, which em floors from subnormal to 1e-300."""
    log_w = rng.uniform(-span, 0.0, (size, size))
    log_w[rng.random((size, size)) < 0.05] = -724.0
    log_w[0, -1] = -724.0
    log_w = np.triu(log_w, k=1)
    log_w = log_w + log_w.T
    np.fill_diagonal(log_w, -np.inf)
    weights, _ = em._materialize_weights(log_w)
    return weights


def assert_matches_per_ground_kernel(w):
    """Equal zero pattern and entrywise relative error at most 1e-14 against
    the per-ground oracle, whose arithmetic order differs; log Z within
    1e-15 relative of it, and bit for bit `tree_posterior`'s."""
    got, want = edge_marginals(w), per_ground_edge_marginals(w)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    nonzero = want != 0.0
    assert np.abs(got[nonzero] / want[nonzero] - 1.0).max(initial=0.0) <= 1e-14
    log_z = log_partition_function(w)
    assert log_z == tree_posterior(w)[1]
    reference = per_ground_log_partition(w)
    assert abs(log_z - reference) <= 1e-15 * max(1.0, abs(reference))


class TestBlockKernel:
    """The all-pairs Kron reduction against the per-ground oracle and enumeration."""

    @pytest.mark.parametrize("span", [1.0, 300.0, 700.0])
    @pytest.mark.parametrize("size", [8, 21, 22, 23, 24, 40, 80])
    def test_bit_identical_to_per_ground_kernel(self, size, span):
        # the marginals and log Z, summed in another order, to 1e-14 and 1e-15
        w = estep_weights(np.random.default_rng(size), size, span)
        assert (w == 1e-300).any()
        assert_matches_per_ground_kernel(w)

    @pytest.mark.parametrize("size", [*range(2, 41), 65, 80])
    def test_every_size_matches_per_ground_kernel(self, size):
        # odd sizes and odd halves at every level of the recursion; the
        # closed-form last level eliminates one slot only at sizes 2^k + 1
        w = estep_weights(np.random.default_rng(1000 + size), size, 700.0)
        assert_matches_per_ground_kernel(w)

    @pytest.mark.parametrize("size", [5, 7, 11, 21])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_component_in_padded_half_raises(self, size, tail):
        # the last `tail` nodes, in the root's padded second half, form their
        # own component: an isolated node or a two-node component
        w = block_weights([tuple(range(size - tail)), tuple(range(size - tail, size))])
        with pytest.raises(DegenerateWeightsError):
            edge_marginals(w)
        assert log_partition_function(w) == -np.inf

    @pytest.mark.parametrize("span", [1.0, 300.0, 700.0])
    @pytest.mark.parametrize("size", [5, 6, 7, 8])
    def test_floored_weights_match_enumeration(self, size, span):
        # The per-ground oracle shares the kernel's star-mesh step; this
        # guard shares nothing with it.
        w = estep_weights(np.random.default_rng(size), size, span)
        assert (w == 1e-300).any()
        np.testing.assert_allclose(
            edge_marginals(w), brute_posterior_marginals(log_brute(w)), rtol=1e-9, atol=0.0
        )
        assert log_partition_function(w) == pytest.approx(
            brute_log_partition(log_brute(w)), rel=1e-12
        )

    @pytest.mark.parametrize("span", [10.0, 700.0, 3000.0])
    @pytest.mark.parametrize("size", [*range(2, 41), 65, 80, 100])
    def test_bit_identical_to_fancy_index_reduction(self, size, span):
        # the same arithmetic in the same order: only the gathers and the
        # log pivots left out of log Z differ
        w = estep_weights(np.random.default_rng(4000 + size), size, span)
        alpha, log_z = tree_posterior(w)
        want_alpha, want_log_z = fancy_index_posterior(w)
        assert alpha.tobytes() == want_alpha.tobytes()
        assert log_z == want_log_z

    @pytest.mark.parametrize("size", [*range(2, 41), 65, 80, 100, 300])
    def test_leaf_zero_pairs_node_zero_with_second_half(self, size):
        # sorting a level's children keeps the first one first, so log Z
        # follows the same root-to-leaf path as with the children unsorted,
        # and leaf 0's ancestor on every level is subproblem 0, whose pivots
        # `_kron_reduce` logs
        _, _, k, l = _reduction_plan(size)
        assert (k[0], l[0]) == (0, (size + 1) // 2)
        levels, (leaf_parent, *_), _, _ = _subproblem_plan(size)
        assert [parent[0] for parent, *_ in levels] == [0] * len(levels)
        assert leaf_parent[0] == 0

    def test_cached_plan_bytes_bounded(self):
        # the plan holds 475 000 bytes at n = 80, under 1 % of fit-p80's
        # peak resident memory (56 MB); flat offsets for every entry of
        # every level would add 3.1 MB
        tracemalloc.start()
        try:
            plan = _reduction_plan.__wrapped__(80)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan[2].shape == (3160,)
        assert held < 550_000

    def test_peak_memory_bounded(self, rng):
        w = random_weight_matrix(rng, 80)
        edge_marginals(w)
        tracemalloc.start()
        try:
            edge_marginals(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestHadamardBound:
    """`em._hadamard_log_z`, the kernel-free bound on log Z with which EM
    rejects proposals, against the kernel's log Z."""

    @pytest.mark.parametrize("size", [*range(2, 41), 65, 80, 100])
    def test_bounds_kernel_log_z(self, size):
        # to roundoff, as the bound is tight on a tree and sums in another
        # order; spans past 708 nats go through the E-step floor of 1e-300
        rng = np.random.default_rng(3000 + size)
        for span in (1.0, 10.0, 100.0, 700.0, 3000.0):
            w = estep_weights(rng, size, span)
            log_z = tree_posterior(w)[1]
            assert em._hadamard_log_z(w) >= log_z - 1e-14 * max(1.0, abs(log_z)), span

    def test_tight_on_a_tree(self):
        # a star has one spanning tree: Z is the product of its leaves' degrees
        w = np.zeros((5, 5))
        w[0, 1:] = w[1:, 0] = [0.5, 2.0, 3.0, 7.0]
        assert em._hadamard_log_z(w) == pytest.approx(np.log(0.5 * 2.0 * 3.0 * 7.0), rel=1e-15)


class TestTreePosterior:
    """log Z from the Kron reduction's pivots, next to the edge posteriors."""

    @pytest.mark.parametrize("span", [10.0, 700.0, 3000.0])
    @pytest.mark.parametrize("size", [*range(2, 41), 80])
    def test_log_z_matches_eliminations(self, size, span):
        # spans past 708 nats go through the E-step floor of 1e-300
        w = estep_weights(np.random.default_rng(2000 + size), size, span)
        alpha, log_z = tree_posterior(w)
        for reference in (log_partition_function(w), per_ground_log_partition(w)):
            assert log_z == pytest.approx(reference, rel=1e-13, abs=1e-13)
        np.testing.assert_array_equal(alpha, edge_marginals(w))

    @pytest.mark.parametrize("size", range(2, 9))
    def test_log_z_matches_enumeration(self, rng, size):
        for w in (random_weight_matrix(rng, size), estep_weights(rng, size, 700.0)):
            _, log_z = tree_posterior(w)
            assert log_z == pytest.approx(brute_log_partition(log_brute(w)), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("components", DISCONNECTED_SPLITS)
    def test_disconnected_raises(self, components):
        with pytest.raises(DegenerateWeightsError):
            tree_posterior(block_weights(components))


class TestEnumerateTrees:
    """The enumeration oracle itself."""

    def test_cayley_counts(self):
        assert len(tree_edges(3)) == 3
        assert len(tree_edges(5)) == 125

    def test_two_nodes(self):
        assert tree_edges(2).tolist() == [[[0, 1]]]

    def test_all_valid(self):
        trees = [tuple(map(tuple, t)) for t in tree_edges(5).tolist()]
        for tree in trees:
            assert is_spanning_tree(tree, 5)
        assert len(set(trees)) == 125

    @pytest.mark.parametrize("size", range(2, 8))
    def test_lockstep_decoding_matches_prufer_to_edges(self, size):
        seqs = itertools.product(range(size), repeat=size - 2)
        expected = [prufer_to_edges(seq, size) for seq in seqs]
        assert tree_edges(size).tolist() == [[list(e) for e in tree] for tree in expected]


def calibrated_prior(p, r):
    """The prior `em.edge_posteriors` calibrates to: weight p / (p + r - 1)
    on the observed-hidden pairs of `uniform_prior(p, r)`."""
    return em._FitPrior.uniform(p, r, p / (p + r - 1))


def support_marginals(prior):
    return edge_marginals(prior.weights)[prior.weights > 0.0]


class TestCalibratePrior:
    """The calibrated prior in closed form, against the fixed-point oracle."""

    def test_uniform_already_calibrated(self):
        # with at most one hidden node the fit's uniform prior is calibrated:
        # each candidate pair has marginal (2 + r) / #pairs
        for r in (0, 1):
            prior = calibrated_prior(3, r)
            np.testing.assert_array_equal(prior.weights, em.uniform_prior(3, r))
            assert prior.log_z == em._FitPrior.uniform(3, r).log_z
            np.testing.assert_allclose(support_marginals(prior), (2 + r) / (3 + 3 * r), rtol=1e-14)

    def test_size_four_half(self):
        np.testing.assert_allclose(support_marginals(calibrated_prior(4, 0)), 0.5, rtol=1e-14)

    def test_zero_entry_stays_out_of_support(self):
        # a hidden-hidden pair: 4 edges over the 9 positive pairs
        prior = calibrated_prior(3, 2)
        assert prior.weights[3, 4] == 0.0
        np.testing.assert_allclose(support_marginals(prior), 4.0 / 9.0, rtol=1e-14)
        support = prior.weights > 0.0
        np.testing.assert_allclose(
            brute_posterior_marginals(log_brute(prior.weights))[support], 4.0 / 9.0, rtol=1e-12
        )
        oracle = fixed_point_calibrate(em.uniform_prior(3, 2), 4.0 / 9.0)
        np.testing.assert_allclose(prior.weights, oracle, rtol=1e-11)

    @pytest.mark.parametrize("r", range(4))
    def test_marginals_equal_target(self, r):
        for p in range(2, 31):
            prior = calibrated_prior(p, r)
            p0 = (p + r - 1) / (p * (p - 1) / 2 + p * r)
            np.testing.assert_allclose(support_marginals(prior), p0, rtol=1e-14, atol=0.0)

    def test_infeasible_target_rejected(self):
        # marginals on 5 + r nodes must average (4 + r) / #pairs; 0.9 is impossible
        for r in (0, 2):
            with pytest.raises(CalibrationError):
                em.require_feasible_target(5, r, 0.9)
            with pytest.raises(CalibrationError):
                em.require_feasible_target(5, r, 1.5)
