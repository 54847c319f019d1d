import numpy as np
import pytest

from treeagg import fixed_tree
from treeagg.em import FitOptions, completed_moments, conditional_moments
from treeagg.errors import PerfectCorrelationError
from treeagg.fixed_tree import fit_fixed_tree, gaussian_observed_loglik
from treeagg.initialization import _regularize_cov
from treeagg.matrices import EmpiricalCovariance, PartitionedPrecision
from treeagg.simulate import sample_and_marginalize, sample_seed
from treeagg.tree_gaussian import tree_precision_from_cov

from conftest import chow_liu, duplicated_column_data, figure_ground_truth, random_spd


def sample_cov(rng, p, n=60):
    data = rng.normal(size=(n, p)) @ random_spd(rng, p)
    return EmpiricalCovariance.from_data(data)


class TestFixedTree:
    @pytest.mark.parametrize("r", [0, 1])
    def test_perfect_correlation_raises(self, rng, r):
        cov = EmpiricalCovariance.from_data(duplicated_column_data(rng))
        with pytest.raises(PerfectCorrelationError, match="variables 0 and 3"):
            fit_fixed_tree(cov, r)

    def test_r0_reduces_to_chow_liu(self, rng):
        cov = sample_cov(rng, 5)
        fit = fit_fixed_tree(cov, 0)
        reg = _regularize_cov(cov.matrix)
        assert fit.tree == chow_liu(reg)
        np.testing.assert_allclose(
            fit.precision.matrix, tree_precision_from_cov(fit.tree, reg)
        )
        assert fit.iterations == 1
        assert fit.converged

    def test_r0_skips_initializer(self, rng, monkeypatch):
        cov = sample_cov(rng, 5)
        calls = []
        initializer = fixed_tree.initial_precision_from_cov
        monkeypatch.setattr(
            fixed_tree,
            "initial_precision_from_cov",
            lambda *args: calls.append(args) or initializer(*args),
        )
        fit_fixed_tree(cov, 0)
        fit_fixed_tree(cov, 0, opts=FitOptions(max_iter=0))
        assert calls == []
        fit_fixed_tree(cov, 1)
        assert len(calls) == 1

    def test_max_iter_zero_returns_initializer_tree(self, rng):
        cov = sample_cov(rng, 5)
        fit = fit_fixed_tree(cov, 1, opts=FitOptions(max_iter=0))
        assert fit.iterations == 0
        assert len(fit.tree) == 5
        assert not fit.converged

    def test_loglik_nondecreasing(self, rng):
        cov = sample_cov(rng, 6, n=40)
        fit = fit_fixed_tree(cov, 1)
        trace = np.array(fit.loglik_trace)
        assert (np.diff(trace) >= -1e-6 * np.abs(trace[:-1])).all()

    def test_precision_support_is_tree(self, rng):
        cov = sample_cov(rng, 6)
        fit = fit_fixed_tree(cov, 1)
        k = fit.precision.matrix
        edges = set(fit.tree)
        for i in range(7):
            for j in range(i + 1, 7):
                if (i, j) not in edges:
                    assert k[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_no_hidden_hidden_edges(self, rng):
        cov = sample_cov(rng, 6)
        fit = fit_fixed_tree(cov, 2)
        for i, j in fit.tree:
            assert i < 6 or j < 6

    def test_hub_attachment_replicates(self):
        hits = 0
        for rep in range(20):
            truth = figure_ground_truth(epsilon=4.0, seed=200 + rep)
            _, observed = sample_and_marginalize(
                truth.precision, 1000, sample_seed(400 + rep)
            )
            cov = EmpiricalCovariance.from_data(observed)
            fit = fit_fixed_tree(cov, 1)
            degree = sum(1 for e in fit.tree if 9 in e)
            hits += degree >= 3
        assert hits >= 14  # hidden node recovered as a hub in >= 70% of 20

    def test_completed_covariance_blocks(self, rng):
        cov = sample_cov(rng, 4)
        k = random_spd(rng, 5) * 2.0
        k[4, 4] = 2.0
        prec = PartitionedPrecision(k, 4, 1)
        w_ho, _, b_h = conditional_moments(prec, cov.matrix)
        completed = completed_moments(cov.matrix, w_ho, b_h)
        np.testing.assert_allclose(completed[:4, :4], cov.matrix)
        # Schur complement of the hidden block recovers K_H^-1
        schur = completed[4:, 4:] - completed[4:, :4] @ np.linalg.solve(
            completed[:4, :4], completed[:4, 4:]
        )
        np.testing.assert_allclose(schur, np.linalg.inv(prec.k_hh), atol=1e-10)

    def test_gaussian_loglik_matches_direct_formula(self, rng):
        cov = sample_cov(rng, 4)
        tree = chow_liu(cov.matrix)
        k = PartitionedPrecision(tree_precision_from_cov(tree, cov.matrix), 4, 0)
        ll = gaussian_observed_loglik(k, cov)
        n = cov.n
        sign, logdet = np.linalg.slogdet(k.matrix)
        expected = -0.5 * n * 4 * np.log(2 * np.pi) + 0.5 * n * (
            logdet - np.trace(k.matrix @ cov.matrix)
        )
        assert ll == pytest.approx(expected, rel=1e-12)
