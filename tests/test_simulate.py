import json

import numpy as np
import pytest

from treeagg.errors import InfeasibleHiddenSetError
from treeagg.graphs import Graph
from treeagg.matrices import PartitionedPrecision
from treeagg.simulate import (
    GroundTruth,
    choose_hidden,
    gen_graph,
    gen_precision,
    identifiable_hidden_sets,
    make_ground_truth,
    marginal_graph,
    marginal_precision,
    sample_and_marginalize,
    sample_seed,
    scale_and_snr,
)

from conftest import figure_tree_graph, is_spanning_tree


class TestGenGraph:
    def test_tree_has_right_size(self):
        g = gen_graph("tree", 20, seed=0)
        assert len(g.edges) == 19
        assert is_spanning_tree(g.edges, 20)

    def test_erdos_density(self):
        sizes = [len(gen_graph("erdos", 20, seed=s, p_edge=0.1).edges) for s in range(200)]
        assert np.mean(sizes) == pytest.approx(19.0, rel=0.15)

    def test_erdos_reproducible(self):
        g1 = gen_graph("erdos", 15, seed=7, p_edge=0.1)
        g2 = gen_graph("erdos", 15, seed=7, p_edge=0.1)
        assert g1 == g2

    def test_two_node_tree(self):
        assert gen_graph("tree", 2, seed=0).edges == ((0, 1),)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_node_tree_any_seed(self, seed):
        # the empty Pruefer sequence decodes to the one edge
        assert gen_graph("tree", 2, seed).edges == ((0, 1),)


class TestGenPrecision:
    def test_empty_graph_diagonal(self):
        g = Graph(4, ())
        k = gen_precision(g, seed=0)
        np.testing.assert_allclose(k, 0.1 * np.eye(4))

    def test_smallest_eigenvalue_at_least_margin(self):
        for seed in range(10):
            g = gen_graph("erdos", 12, seed=seed, p_edge=0.2)
            k = gen_precision(g, seed=seed)
            assert np.linalg.eigvalsh(k)[0] >= 0.1 - 1e-10

    def test_sign_flips_reproducible(self):
        g = gen_graph("tree", 10, seed=3)
        np.testing.assert_array_equal(gen_precision(g, seed=4), gen_precision(g, seed=4))

    def test_support_matches_graph(self):
        g = gen_graph("tree", 8, seed=1)
        k = gen_precision(g, seed=1)
        adj = g.adjacency()
        off = ~np.eye(8, dtype=bool)
        assert ((k != 0)[off] == adj[off]).all()


class TestChooseHidden:
    def test_star_center(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert choose_hidden(star, 1, seed=0) == (0,)

    def test_path_infeasible(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InfeasibleHiddenSetError):
            choose_hidden(path, 1, seed=0)

    def test_figure_tree_picks_the_hub(self):
        g = figure_tree_graph()
        # eligible nodes have degree >= 3: nodes 2, 3, 9
        sets = identifiable_hidden_sets(g, 1)
        assert (9,) in sets
        assert all(g.adjacency().sum(axis=1)[s[0]] >= 3 for s in sets)

    def test_pairwise_nonadjacent(self):
        g = gen_graph("erdos", 15, seed=5, p_edge=0.35)
        adj = g.adjacency()
        for subset in identifiable_hidden_sets(g, 2)[:20]:
            a, b = subset
            assert not adj[a, b]


class TestScaleAndSnr:
    def test_zero_epsilon_zero_snr(self, rng):
        g = figure_tree_graph()
        k = PartitionedPrecision(gen_precision(g, seed=0), 9, 1)
        scaled, snr, _ = scale_and_snr(k, 0.0)
        assert snr == 0.0

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-12, float("nan")])
    def test_negative_epsilon_raises(self, epsilon):
        # -1 would flip the hidden blocks' sign, leave an indefinite matrix to
        # the repair and report epsilon 1's snr
        k = PartitionedPrecision(gen_precision(figure_tree_graph(), seed=0), 9, 1)
        with pytest.raises(ValueError, match="epsilon"):
            scale_and_snr(k, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            make_ground_truth("tree", size=10, r=1, epsilon=epsilon, seed=0)

    def test_infinite_epsilon_raises(self):
        # inf would scale the hidden blocks to inf and NaN, and the repair's
        # eigendecomposition would fail on them
        k = PartitionedPrecision(gen_precision(figure_tree_graph(), seed=0), 9, 1)
        with pytest.raises(ValueError, match="epsilon"):
            scale_and_snr(k, float("inf"))

    @pytest.mark.parametrize("epsilon", [1.7e308, 1e160, 1e200, 1e-310])
    def test_epsilon_out_of_float_range_raises(self, epsilon):
        # an infinite scaled precision, two SNRs whose squared norms
        # overflow, and a subnormal hidden block whose reciprocal gives a NaN
        # Schur term, on which the spectral norms would fail
        k = PartitionedPrecision(gen_precision(figure_tree_graph(), seed=0), 9, 1)
        with pytest.raises(ValueError, match="epsilon .* out of the float range"):
            scale_and_snr(k, epsilon)

    def test_epsilon_beyond_the_repair_raises(self):
        # the repair's absolute DIAG_MARGIN ridge is lost to roundoff beside
        # hidden-block entries near 1e308, and the repaired matrix used to
        # fail its Cholesky factorization only once sampling reached it
        k = PartitionedPrecision(gen_precision(figure_tree_graph(), seed=0), 9, 1)
        scale_and_snr(k, 1e100)
        with pytest.raises(ValueError, match="epsilon .* too large for the diagonal repair"):
            scale_and_snr(k, 1e154)

    def test_quadratic_scaling(self):
        g = figure_tree_graph()
        k = PartitionedPrecision(gen_precision(g, seed=0), 9, 1)
        _, snr1, _ = scale_and_snr(k, 1.0)
        for eps in (2.0, 4.0, 10.0):
            _, snr, _ = scale_and_snr(k, eps)
            assert snr == pytest.approx(eps**2 * snr1, rel=1e-10)

    def test_adjustment_restores_pd(self):
        g = figure_tree_graph()
        k = PartitionedPrecision(gen_precision(g, seed=0), 9, 1)
        scaled, _, adjust = scale_and_snr(k, 10.0)
        assert adjust > 0
        assert np.linalg.eigvalsh(scaled.matrix)[0] >= 0.1 - 1e-8


class TestSampling:
    def test_shapes(self):
        truth = make_ground_truth("tree", size=21, r=1, epsilon=1.0, seed=0)
        full, observed = sample_and_marginalize(truth.precision, 30, sample_seed(0))
        assert full.shape == (30, 21)
        assert observed.shape == (30, 20)
        np.testing.assert_array_equal(full[:, :20], observed)

    def test_large_sample_covariance(self):
        truth = make_ground_truth("tree", size=6, r=0, epsilon=1.0, seed=1)
        full, _ = sample_and_marginalize(truth.precision, 1_000_000, sample_seed(1))
        target = np.linalg.inv(truth.precision.matrix)
        emp = full.T @ full / full.shape[0]
        np.testing.assert_allclose(emp, target, atol=1e-2)

    @pytest.mark.parametrize("size, r, seed", [(6, 0, 1), (21, 1, 0), (40, 2, 3)])
    def test_draw_maps_back_to_standard_normal(self, size, r, seed):
        # full = z chol^-1 with K = chol chol^T, so full @ chol gives back
        # the standard-normal draw of the same generator
        truth = make_ground_truth("tree", size=size, r=r, epsilon=1.0, seed=seed)
        full, _ = sample_and_marginalize(truth.precision, 50, 7)
        z = np.random.default_rng(7).standard_normal((50, size))
        chol = np.linalg.cholesky(truth.precision.matrix)
        np.testing.assert_allclose(full @ chol, z, rtol=1e-12, atol=1e-12 * np.abs(z).max())

    def test_seed_determinism(self):
        truth = make_ground_truth("tree", size=8, r=0, epsilon=1.0, seed=2)
        a, _ = sample_and_marginalize(truth.precision, 10, 99)
        b, _ = sample_and_marginalize(truth.precision, 10, 99)
        np.testing.assert_array_equal(a, b)

    def test_not_pd_rejected(self):
        # sampling factors K by Cholesky; a K that has none is never built
        with pytest.raises(ValueError, match="not positive definite"):
            PartitionedPrecision(np.diag([1.0, -1.0]), 2, 0)


class TestMarginalGraph:
    def test_figure_marginal_adds_clique(self):
        truth = _figure_truth()
        spurious = {(5, 6), (5, 7), (6, 7)}
        marginal_edges = set(truth.marginal.edges)
        observed_tree_edges = {
            (i, j) for i, j in truth.graph.edges if i != 9 and j != 9
        }
        assert marginal_edges == observed_tree_edges | spurious

    def test_zero_coupling_induced_subgraph(self):
        k = np.eye(5)
        k[0, 1] = k[1, 0] = -0.3
        prec = PartitionedPrecision(k, 4, 1)
        marginal = marginal_graph(marginal_precision(prec))
        assert marginal.edges == ((0, 1),)

    def test_no_hidden_marginal_is_observed_block(self):
        for seed in range(5):
            truth = make_ground_truth("erdos", size=9, r=0, epsilon=1.0, seed=seed, p_edge=0.4)
            k_m = marginal_precision(truth.precision)
            assert k_m.tobytes() == truth.precision.matrix.tobytes()

    def test_exact_cancellation_drops_edge(self):
        # direct coupling exactly cancelled by the hidden path
        k = np.eye(5) * 2.0
        for child in (0, 1, 2):
            k[child, 4] = k[4, child] = 1.0
        k[4, 4] = 4.0
        k[0, 1] = k[1, 0] = 1.0 / 4.0  # equals K_0h K_1h / K_hh
        prec = PartitionedPrecision(k, 4, 1)
        km = marginal_precision(prec)
        assert km[0, 1] == pytest.approx(0.0, abs=1e-15)
        marginal = marginal_graph(km)
        assert (0, 1) not in marginal.edges


def _figure_truth():
    from conftest import figure_ground_truth

    return figure_ground_truth(epsilon=1.0, seed=7)


class TestGroundTruth:
    def test_identifiability_invariants(self):
        for seed in range(5):
            truth = make_ground_truth("tree", size=15, r=1, epsilon=1.0, seed=seed)
            adj = truth.graph.adjacency()
            deg = adj.sum(axis=1)
            hidden = truth.hidden
            assert all(deg[h] >= 3 for h in hidden)
            for a in hidden:
                for b in hidden:
                    if a != b:
                        assert not adj[a, b]
            # no hidden-hidden entries in K
            p = truth.n_observed
            hh = truth.precision.matrix[p:, p:]
            np.testing.assert_array_equal(hh, np.diag(truth.precision.hidden_diagonal()))

    def test_reconstructible_from_seed(self):
        a = make_ground_truth("tree", size=12, r=1, epsilon=2.0, seed=9)
        b = make_ground_truth("tree", size=12, r=1, epsilon=2.0, seed=9)
        np.testing.assert_array_equal(a.precision.matrix, b.precision.matrix)
        assert a.graph == b.graph

    def test_json_roundtrip(self):
        truth = make_ground_truth("erdos", size=10, r=1, epsilon=1.0, seed=21, p_edge=0.4)
        back = type(truth).from_json_dict(truth.to_json_dict())
        np.testing.assert_array_equal(back.precision.matrix, truth.precision.matrix)
        assert back.graph == truth.graph
        assert back.marginal == truth.marginal

    @pytest.mark.parametrize("kind", ["tree", "erdos"])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 10.0])
    def test_json_roundtrip_recomputes_marginal_parts(self, kind, r, epsilon):
        # the first seed whose graph can hide r nodes
        for seed in range(100):
            try:
                truth = make_ground_truth(kind, size=14, r=r, epsilon=epsilon, seed=seed, p_edge=0.3)
                break
            except InfeasibleHiddenSetError:
                continue
        else:
            raise AssertionError(f"no seed below 100 hides {r} nodes")
        text = json.dumps(truth.to_json_dict(), sort_keys=True)
        back = GroundTruth.from_json_dict(json.loads(text))
        assert json.dumps(back.to_json_dict(), sort_keys=True) == text
        assert back.hidden == truth.hidden == tuple(range(14 - r, 14))
        assert back.marginal == truth.marginal
        assert back.marginal_precision_matrix.tobytes() == truth.marginal_precision_matrix.tobytes()

    def test_graph_not_of_p_plus_r_nodes_raises(self):
        truth = make_ground_truth("tree", size=12, r=1, epsilon=1.0, seed=9)
        obj = truth.to_json_dict()
        obj["full_graph"]["n_nodes"] = 13
        with pytest.raises(ValueError, match="full_graph has 13 nodes, not p \\+ r = 12"):
            GroundTruth.from_json_dict(obj)

    @pytest.mark.parametrize(
        "edit, pair",
        [("removed", (0, 4)), ("added", (0, 1)), ("hidden-hidden", (10, 11))],
        ids=["removed", "added", "hidden-hidden"],
    )
    def test_graph_not_the_precision_support_raises(self, edit, pair):
        # seed 0 at size 12, r = 2: hidden nodes 10 and 11, edge (0, 4), no edge (0, 1)
        truth = make_ground_truth("tree", size=12, r=2, epsilon=1.0, seed=0)
        edges = set(truth.graph.edges)
        assert (pair in edges) == (edit == "removed")
        edges ^= {pair}
        obj = truth.to_json_dict()
        obj["full_graph"]["edges"] = sorted(edges)
        with pytest.raises(ValueError, match=rf"differ at pair \({pair[0]}, {pair[1]}\)"):
            GroundTruth.from_json_dict(obj)

    def test_tree_marginal_is_tree_minus_hub_plus_clique(self):
        for seed in (0, 3, 4):
            truth = make_ground_truth("tree", size=12, r=1, epsilon=1.0, seed=seed)
            h = truth.hidden[0]
            children = np.flatnonzero(truth.graph.adjacency()[h]).tolist()
            surviving = {
                (i, j) for i, j in truth.graph.edges if h not in (i, j)
            }
            clique = {
                (min(a, b), max(a, b))
                for idx, a in enumerate(children)
                for b in children[idx + 1 :]
            }
            assert set(truth.marginal.edges) == surviving | clique
