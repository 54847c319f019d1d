import numpy as np
import pytest

from treeagg.errors import DegenerateCurveError, DegenerateRocError, InfeasibleHiddenSetError
from treeagg.evaluate import (
    align_hidden_nodes,
    mean_roc,
    roc,
    roc_target,
    score_edges,
    spurious_curve,
    spurious_edges,
)
from treeagg.em import fit
from treeagg.fixed_tree import fit_fixed_tree
from treeagg.graphs import Graph
from treeagg.matrices import EmpiricalCovariance
from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed

from conftest import figure_ground_truth


def indicator_scores(graph):
    return graph.adjacency().astype(float)


def spurious_edges_by_loop(truth):
    """Marginal edges whose endpoints share a hidden neighbor, one hidden node at a time."""
    adj = truth.graph.adjacency()
    return tuple(
        (i, j)
        for i, j in truth.marginal.edges
        if any(adj[i, h] and adj[j, h] for h in truth.hidden)
    )


def two_hop_by_loop(fit):
    """Marginal scores with max_h alpha_ih alpha_jh folded in, one hidden node at a time."""
    full = score_edges(fit, "full")
    p = fit.n_observed
    marginal = full[:p, :p].copy()
    cross = full[:p, p:]
    for h in range(cross.shape[1]):
        marginal = np.maximum(marginal, np.outer(cross[:, h], cross[:, h]))
    np.fill_diagonal(marginal, 0.0)
    return marginal


def simulated_truths(kind, r):
    """(seed, truth) for each seed below 8 whose `kind` graph on p = 16 observed
    nodes has an identifiable set of r hidden nodes."""
    for seed in range(8):
        try:
            truth = make_ground_truth(kind, size=16 + r, r=r, epsilon=4.0, seed=seed, p_edge=0.25)
        except InfeasibleHiddenSetError:
            continue
        yield seed, truth


class TestRoc:
    def test_perfect_scores(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        curve = roc(indicator_scores(g), g)
        assert curve.auc == pytest.approx(1.0)

    def test_constant_scores(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        curve = roc(np.ones((5, 5)), g)
        assert curve.auc == pytest.approx(0.5)

    def test_hand_computed_trapezoid(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        scores = np.zeros((4, 4))
        # ranking: (0,1)=.9 true, (0,2)=.8 false, (2,3)=.7 true, rest 0
        scores[0, 1] = scores[1, 0] = 0.9
        scores[0, 2] = scores[2, 0] = 0.8
        scores[2, 3] = scores[3, 2] = 0.7
        curve = roc(scores, g)
        # points: (0,0) (0,.5) (.25,.5) (.25,1) (1,1); area = 0.875
        assert curve.auc == pytest.approx(0.875)

    def test_monotone_invariance(self, rng):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        scores = rng.uniform(0.1, 1.0, (6, 6))
        scores = 0.5 * (scores + scores.T)
        a1 = roc(scores, g).auc
        a2 = roc(np.log(scores) * 3.0 + 5.0, g).auc
        assert a1 == pytest.approx(a2)

    def test_curve_monotone_endpoints(self, rng):
        g = Graph.from_edges(6, [(0, 1), (2, 5), (3, 4)])
        scores = rng.uniform(size=(6, 6))
        scores = 0.5 * (scores + scores.T)
        curve = roc(scores, g)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.power) >= 0).all()
        assert curve.fpr[0] == 0.0 and curve.power[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.power[-1] == 1.0

    @pytest.mark.parametrize("exclude_hidden_from", [None, 7])
    def test_auc_counts_ties_as_half(self, rng, exclude_hidden_from):
        # integer scores in 0..6, so most positive-negative pairs tie
        size = 9
        n_observed = size if exclude_hidden_from is None else exclude_hidden_from
        pairs = [
            (i, j) for i in range(size) for j in range(i + 1, size) if i < n_observed
        ]
        for _ in range(20):
            edges = [pair for pair in pairs if rng.random() < 0.3]
            g = Graph.from_edges(size, edges or pairs[:1])
            half = rng.integers(0, 4, (size, size))
            scores = (half + half.T).astype(float)
            adj = g.adjacency()
            pos = np.array([scores[i, j] for i, j in pairs if adj[i, j]])
            neg = np.array([scores[i, j] for i, j in pairs if not adj[i, j]])
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            auc = roc(scores, g, exclude_hidden_from=exclude_hidden_from).auc
            assert abs(auc - wins / (len(pos) * len(neg))) <= 1e-12

    def test_degenerate_truth(self):
        empty = Graph(4, ())
        with pytest.raises(DegenerateRocError):
            roc(np.ones((4, 4)), empty)


class TestSpurious:
    def test_figure_spurious_edges(self):
        truth = figure_ground_truth()
        assert set(spurious_edges(truth)) == {(5, 6), (5, 7), (6, 7)}

    def test_no_hidden_no_spurious(self):
        truth = make_ground_truth("tree", size=10, r=0, epsilon=1.0, seed=4)
        assert spurious_edges(truth) == ()

    def test_already_connected_children_still_counted(self):
        # hand-built instance where two children of the hidden node share an edge
        from treeagg.matrices import PartitionedPrecision
        from treeagg.simulate import GroundTruth

        g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 4), (2, 3)])
        k = np.eye(5) * 3.0
        for i, j in g.edges:
            k[i, j] = k[j, i] = 1.0
        truth = GroundTruth(
            kind="tree", epsilon=1.0, seed=0, graph=g,
            precision=PartitionedPrecision(k, 4, 1),
            snr=0.0, diag_adjust=0.0,
        )
        spurious = set(spurious_edges(truth))
        assert (0, 1) in spurious  # pre-existing edge between two children

    def test_ideal_ranking_delays_inclusion(self):
        truth = figure_ground_truth()
        scores = truth.marginal.adjacency().astype(float)
        for i, j in spurious_edges(truth):
            scores[i, j] = scores[j, i] = 0.1  # true non-spurious edges first
        curve = spurious_curve(scores, truth)
        n_pairs = 9 * 8 / 2
        for density, frac in zip(curve.density, curve.spurious_fraction):
            if density < 6 / n_pairs:  # the 6 non-spurious marginal edges
                assert frac == 0.0

    def test_spurious_first_reaches_one_early(self):
        truth = figure_ground_truth()
        scores = np.zeros((9, 9))
        for i, j in spurious_edges(truth):
            scores[i, j] = scores[j, i] = 1.0
        curve = spurious_curve(scores, truth)
        idx = np.argmax(curve.spurious_fraction >= 1.0)
        assert curve.density[idx] == pytest.approx(3.0 / 36.0)

    def test_matches_brute_force_sweep(self, rng):
        truth = figure_ground_truth()
        scores = rng.uniform(size=(9, 9))
        scores = 0.5 * (scores + scores.T)
        np.fill_diagonal(scores, 0.0)
        curve = spurious_curve(scores, truth)
        spurious = set(spurious_edges(truth))
        for t, density, frac in zip(
            curve.thresholds, curve.density, curve.spurious_fraction
        ):
            selected = [
                (i, j)
                for i in range(9)
                for j in range(i + 1, 9)
                if scores[i, j] >= t
            ]
            assert density == pytest.approx(len(selected) / 36.0)
            included = sum(1 for e in selected if e in spurious)
            assert frac == pytest.approx(included / 3.0)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("kind", ["tree", "erdos"])
    def test_matches_per_hidden_node_loop(self, kind, r):
        truths = [truth for _, truth in simulated_truths(kind, r)]
        assert len(truths) >= 2
        for truth in truths:
            assert spurious_edges(truth) == spurious_edges_by_loop(truth)

    def test_no_spurious_raises(self):
        truth = make_ground_truth("tree", size=8, r=0, epsilon=1.0, seed=4)
        with pytest.raises(DegenerateCurveError):
            spurious_curve(np.ones((8, 8)), truth)


@pytest.fixture(scope="module")
def small_fit():
    truth = make_ground_truth("tree", size=8, r=0, epsilon=1.0, seed=6)
    data, _ = sample_and_marginalize(truth.precision, 60, sample_seed(6))
    cov = EmpiricalCovariance.from_data(data)
    return fit(cov, 0)


class TestScoreEdges:
    def test_r0_full_equals_marginal(self, small_fit):
        np.testing.assert_array_equal(
            score_edges(small_fit, "full"), score_edges(small_fit, "marginal")
        )

    def test_fixed_tree_score_count(self):
        truth = make_ground_truth("tree", size=9, r=1, epsilon=1.0, seed=8)
        _, observed = sample_and_marginalize(truth.precision, 50, sample_seed(8))
        cov = EmpiricalCovariance.from_data(observed)
        ft = fit_fixed_tree(cov, 1)
        scores = score_edges(ft, "full")
        nonzero = np.count_nonzero(scores[np.triu_indices(9, k=1)])
        assert nonzero == 8  # p + r - 1

    def test_tree_edges_outrank_non_edges(self):
        truth = make_ground_truth("tree", size=9, r=1, epsilon=1.0, seed=8)
        _, observed = sample_and_marginalize(truth.precision, 50, sample_seed(8))
        cov = EmpiricalCovariance.from_data(observed)
        ft = fit_fixed_tree(cov, 1)
        scores = score_edges(ft, "full")
        tree_scores = [scores[i, j] for i, j in ft.tree]
        assert min(tree_scores) > 0.0

    def test_two_hop_adds_hidden_paths(self):
        truth = figure_ground_truth(epsilon=4.0, seed=100)
        _, observed = sample_and_marginalize(truth.precision, 100, sample_seed(300))
        cov = EmpiricalCovariance.from_data(observed)
        result = fit(cov, 1)
        plain = score_edges(result, "marginal")
        hop = score_edges(result, "marginal", two_hop=True)
        assert (hop >= plain - 1e-12).all()

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("kind", ["tree", "erdos"])
    def test_two_hop_matches_per_hidden_node_loop(self, kind, r):
        checked = 0
        for seed, truth in simulated_truths(kind, r):
            _, observed = sample_and_marginalize(truth.precision, 40, sample_seed(seed))
            cov = EmpiricalCovariance.from_data(observed)
            for result in (fit(cov, r), fit_fixed_tree(cov, r)):
                hop = score_edges(result, "marginal", two_hop=True)
                assert hop.tobytes() == two_hop_by_loop(result).tobytes()
                checked += 1
        assert checked >= 4


class TestAlignment:
    def test_permuted_hidden_scores_recovered(self):
        truth = make_ground_truth("tree", size=14, r=2, epsilon=2.0, seed=12)
        p = truth.n_observed
        # construct scores matching the truth with hidden columns swapped
        ideal = truth.graph.adjacency().astype(float)
        perm = list(range(p)) + [p + 1, p]
        swapped = ideal[np.ix_(perm, perm)]
        aligned = align_hidden_nodes(swapped, truth)
        np.testing.assert_array_equal(aligned, ideal)

    def test_full_target_roc_uses_alignment(self):
        truth = make_ground_truth("tree", size=14, r=2, epsilon=2.0, seed=12)
        p = truth.n_observed
        ideal = truth.graph.adjacency().astype(float)
        perm = list(range(p)) + [p + 1, p]
        swapped = ideal[np.ix_(perm, perm)]

        class Dummy:
            alpha = swapped
            tree = None
            n_observed = p
            n_hidden = 2

        curve = roc_target(Dummy(), truth, "full")
        assert curve.auc == pytest.approx(1.0)


class TestAggregation:
    def test_mean_roc_grid(self, rng):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        curves = []
        for _ in range(5):
            scores = rng.uniform(size=(6, 6))
            scores = 0.5 * (scores + scores.T)
            curves.append(roc(scores, g))
        grid, mean, sd = mean_roc(curves, grid_size=21)
        assert grid.shape == mean.shape == sd.shape == (21,)
        assert mean[0] <= mean[-1]
        assert mean[-1] == pytest.approx(1.0)
