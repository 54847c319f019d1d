import numpy as np
import pytest

from treeagg import initialization
from treeagg.errors import DegenerateCliqueError
from treeagg.initialization import (
    _clustering_from_cov,
    _completed_covariance,
    _factor_params,
    _regularize_cov,
    initial_precision_from_cov,
)
from treeagg.matrices import EmpiricalCovariance
from treeagg.simulate import sample_and_marginalize, sample_seed

from conftest import figure_ground_truth


def factor_data(rng, n=400, noise_cols=4):
    """Three noisy copies of one latent factor plus independent noise columns."""
    f = rng.normal(size=n)
    copies = np.column_stack([f + 0.3 * rng.normal(size=n) for _ in range(3)])
    noise = rng.normal(size=(n, noise_cols))
    return np.column_stack([copies, noise])


def clustering(data, n_hidden):
    cov = EmpiricalCovariance.from_data(data)
    return _clustering_from_cov(_regularize_cov(cov.matrix), cov.n, n_hidden)


def initial_k(data, n_hidden):
    cov = EmpiricalCovariance.from_data(data)
    return initial_precision_from_cov(cov, n_hidden).precision


def completed(data, cliques):
    """Covariance completed with one principal-component hidden node per clique."""
    sigma = EmpiricalCovariance.from_data(data).matrix
    return _completed_covariance(sigma, cliques, len(cliques))


class TestTripletClustering:
    def test_factor_triplet_merges_first(self, rng):
        data = factor_data(rng)
        hierarchy = clustering(data, 1)
        first = hierarchy.merges[0]
        assert first.members == (0, 1, 2)

    def test_r0_empty_hierarchy(self, rng):
        data = factor_data(rng)
        hierarchy = clustering(data, 0)
        assert hierarchy.merges == ()
        assert hierarchy.cliques == ()

    def test_independent_data_yields_no_cliques(self, rng):
        data = rng.normal(size=(300, 6))
        hierarchy = clustering(data, 2)
        assert hierarchy.cliques == ()
        assert all(m.gain <= 0 for m in hierarchy.merges[: hierarchy.cut_level + 1] or [])

    def test_deterministic(self, rng):
        data = factor_data(rng)
        h1 = clustering(data, 1)
        h2 = clustering(data, 1)
        assert h1.merges == h2.merges
        assert h1.cliques == h2.cliques

    def test_parameter_count_convention(self):
        # loadings + factor variance + noise variances
        assert _factor_params(3) == 7
        assert _factor_params(5) == 11


class TestImputeHidden:
    """Hidden nodes as unit-variance principal components of their clique."""

    def test_identical_columns(self, rng):
        x = rng.normal(size=(200, 1))
        data = np.column_stack([x, x, rng.normal(size=(200, 1))])
        c = completed(data, [(0, 1)])
        assert c.shape == (4, 4)
        assert c[3, 3] == pytest.approx(1.0, rel=1e-9)
        corr = c[3, 0] / np.sqrt(c[3, 3] * c[0, 0])
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_sign_convention_with_anticorrelated_pair(self, rng):
        x = rng.normal(size=200)
        data = np.column_stack([x, -x + 0.01 * rng.normal(size=200)])
        c = completed(data, [(0, 1)])
        # loading on the lowest-index member is positive
        assert c[2, 0] / np.sqrt(c[2, 2] * c[0, 0]) > 0.99

    def test_component_maximizes_explained_variance(self, rng):
        data = rng.normal(size=(300, 3)) @ np.array(
            [[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]]
        )
        c = completed(data, [(0, 1, 2)])
        sigma = c[:3, :3]
        # sum of squared covariances with a direction's score, per unit score
        # variance: ||sigma u||^2 / (u' sigma u)
        explained = float(c[:3, 3] @ c[:3, 3]) / c[3, 3]
        for _ in range(1000):
            u = rng.normal(size=3)
            other = float((sigma @ u) @ (sigma @ u)) / float(u @ sigma @ u)
            assert other <= explained * (1 + 1e-9)

    def test_zero_variance_clique(self):
        sigma = np.diag([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateCliqueError):
            _completed_covariance(sigma, [(0, 1)], 1)


class TestInitialK:
    def test_r0_is_tree_precision_on_observed(self, rng):
        data = factor_data(rng)
        k = initial_k(data, 0)
        assert k.matrix.shape == (7, 7)
        assert k.n_hidden == 0

    def test_positive_definite(self, rng):
        data = factor_data(rng)
        for r in (0, 1, 2):
            k = initial_k(data, r)
            assert np.linalg.eigvalsh(k.matrix)[0] > 0

    def test_hidden_block_diagonal(self, rng, monkeypatch):
        data = factor_data(rng)
        calls = []
        regularize = initialization._regularize_cov
        monkeypatch.setattr(
            initialization, "_regularize_cov", lambda m: calls.append(1) or regularize(m)
        )
        k = initial_k(data, 2)
        hidden = k.matrix[7:, 7:]
        np.testing.assert_allclose(hidden - np.diag(np.diag(hidden)), 0.0)
        # once for the observed covariance, which the clustering reuses, and
        # once for the completed covariance
        assert len(calls) == 2

    def test_figure_pattern_attachment(self):
        hits = 0
        for rep in range(20):
            truth = figure_ground_truth(epsilon=4.0, seed=500 + rep)
            _, observed = sample_and_marginalize(
                truth.precision, 1000, sample_seed(600 + rep)
            )
            k = initial_k(observed, 1)
            attached = {i for i in range(9) if abs(k.matrix[i, 9]) > 1e-10}
            hits += len(attached & set(truth.graph.neighbors(9))) >= 2
        assert hits >= 14  # >= 70% of 20 replicates

    def test_underdetermined_data_still_pd(self, rng):
        data = rng.normal(size=(6, 10))  # n < p
        k = initial_k(data, 1)
        assert np.isfinite(k.matrix).all()
        assert np.linalg.eigvalsh(k.matrix)[0] > 0
