import numpy as np
import pytest

from treeagg import em, initialization, selection
from treeagg.em import FitOptions
from treeagg.initialization import _completed_covariance, initial_precision_from_cov
from treeagg.matrices import EmpiricalCovariance
from treeagg.simulate import sample_and_marginalize, sample_seed

from conftest import figure_ground_truth


def factor_data(rng, n=400, noise_cols=4):
    """Three noisy copies of one latent factor plus independent noise columns."""
    f = rng.normal(size=n)
    copies = np.column_stack([f + 0.3 * rng.normal(size=n) for _ in range(3)])
    noise = rng.normal(size=(n, noise_cols))
    return np.column_stack([copies, noise])


def initial_k(data, n_hidden):
    cov = EmpiricalCovariance.from_data(data)
    return initial_precision_from_cov(cov, n_hidden).precision


def unit_pairs(column, d):
    """6 x 4 normal data and a copy with one column's units scaled by d: the
    covariances of both, and the scales D (the covariance is D S D)."""
    data = np.random.default_rng(0).normal(size=(6, 4))
    scale = np.ones(4)
    scale[column] = d
    base = EmpiricalCovariance.from_data(data)
    return base, EmpiricalCovariance.from_data(data * scale), scale


def completed(data, n_hidden):
    """Covariance completed with n_hidden principal-component hidden nodes."""
    sigma = EmpiricalCovariance.from_data(data).matrix
    return _completed_covariance(sigma, *np.linalg.eigh(sigma), n_hidden)


class TestImputeHidden:
    """Hidden nodes as unit-variance leading principal components."""

    @pytest.mark.parametrize("n_hidden", [1, 2, 3])
    def test_hidden_columns_are_principal_scores(self, rng, n_hidden):
        data = factor_data(rng)
        sigma = EmpiricalCovariance.from_data(data).matrix
        p = sigma.shape[0]
        c = _completed_covariance(sigma, *np.linalg.eigh(sigma), n_hidden)
        assert c.shape == (p + n_hidden, p + n_hidden)
        np.testing.assert_array_equal(c[:p, :p], sigma)
        evals, vecs = np.linalg.eigh(sigma)
        for k in range(n_hidden):
            v = vecs[:, p - 1 - k]
            v = v if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0 else -v
            u = v / np.sqrt(evals[p - 1 - k])  # Var(u' x) = 1
            np.testing.assert_allclose(c[:p, p + k], sigma @ u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c[p:, p:], np.eye(n_hidden), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(c, c.T)

    def test_more_hidden_nodes_than_variables(self, rng):
        # past p the last principal direction is repeated
        c = completed(rng.normal(size=(50, 2)), 3)
        np.testing.assert_array_equal(c[:2, 4], c[:2, 3])
        assert c[3, 4] == pytest.approx(1.0, rel=1e-12)

    def test_identical_columns(self, rng):
        x = rng.normal(size=(200, 1))
        c = completed(np.column_stack([x, x]), 1)
        assert c.shape == (3, 3)
        assert c[2, 2] == pytest.approx(1.0, rel=1e-9)
        corr = c[2, 0] / np.sqrt(c[2, 2] * c[0, 0])
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_sign_convention_with_anticorrelated_pair(self, rng):
        x = rng.normal(size=200)
        data = np.column_stack([x, -x + 0.01 * rng.normal(size=200)])
        c = completed(data, 1)
        # loading on the lowest-index member is positive
        assert c[2, 0] / np.sqrt(c[2, 2] * c[0, 0]) > 0.99

    def test_component_maximizes_explained_variance(self, rng):
        data = rng.normal(size=(300, 3)) @ np.array(
            [[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]]
        )
        c = completed(data, 1)
        sigma = c[:3, :3]
        # sum of squared covariances with a direction's score, per unit score
        # variance: ||sigma u||^2 / (u' sigma u)
        explained = float(c[:3, 3] @ c[:3, 3]) / c[3, 3]
        for _ in range(1000):
            u = rng.normal(size=3)
            other = float((sigma @ u) @ (sigma @ u)) / float(u @ sigma @ u)
            assert other <= explained * (1 + 1e-9)


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

    @pytest.mark.parametrize("r, shrinkages", [(0, 1), (2, 2)], ids=["r0", "r2"])
    def test_hidden_block_diagonal(self, rng, monkeypatch, r, shrinkages):
        data = factor_data(rng)
        calls = []
        regularize = initialization._regularize_cov
        monkeypatch.setattr(
            initialization, "_regularize_cov", lambda m: calls.append(1) or regularize(m)
        )
        k = initial_k(data, r)
        hidden = k.matrix[7:, 7:]
        np.testing.assert_allclose(hidden - np.diag(np.diag(hidden)), 0.0)
        # with hidden nodes, once for the observed covariance and once for
        # the completed covariance; at r = 0 the start is the tree MLE of the
        # covariance, which shrinks it once
        assert len(calls) == shrinkages
        if r == 0:
            cov = EmpiricalCovariance.from_data(data)
            _, mle = initialization.tree_mle(cov.matrix, cov.size)
            assert k.matrix.tobytes() == mle.tobytes()

    def test_figure_pattern_attachment(self):
        hits = 0
        for rep in range(20):
            truth = figure_ground_truth(epsilon=4.0, seed=500 + rep)
            _, observed = sample_and_marginalize(
                truth.precision, 1000, sample_seed(600 + rep)
            )
            k = initial_k(observed, 1)
            attached = {i for i in range(9) if abs(k.matrix[i, 9]) > 1e-10}
            hits += len(attached & set(np.flatnonzero(truth.graph.adjacency()[9]).tolist())) >= 2
        assert hits >= 14  # >= 70% of 20 replicates

    def test_fewer_than_three_nodes(self):
        # the start at p = 2, whose hidden node is the leading principal
        # component, is pinned
        x = np.random.default_rng(3).normal(size=(30, 2))
        x[:, 1] += x[:, 0]
        k = em.fit(EmpiricalCovariance.from_data(x), 1).precision.matrix
        assert [v.hex() for v in k.ravel()] == [
            "0x1.3dc2180c72bdap+1", "0x0.0p+0", "-0x1.e61a201f887dap+0",
            "0x0.0p+0", "0x1.d09df2e589b61p+2", "-0x1.2fde2b031817dp+3",
            "-0x1.e61a201f887dap+0", "-0x1.2fde2b031817dp+3", "0x1.dbf271fa10caep+3",
        ]

    @pytest.mark.parametrize("d", [1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e12])
    @pytest.mark.parametrize("column", range(4))
    def test_r0_start_is_unit_free(self, column, d):
        # the start reads correlations and variances only, so it maps K to
        # D^-1 K D^-1 whatever the spread of the columns' scales
        base, scaled, scale = unit_pairs(column, d)
        start = initial_precision_from_cov(base, 0)
        scaled_start = initial_precision_from_cov(scaled, 0)
        assert scaled_start.tree == start.tree
        np.testing.assert_allclose(
            scaled_start.precision.matrix,
            start.precision.matrix / np.outer(scale, scale),
            rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize("d", [1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e12])
    @pytest.mark.parametrize("column", range(4))
    def test_r0_start_loglik_is_unit_free(self, column, d):
        # loglik moves by the Jacobian -n log d, alpha not at all
        base, scaled, _ = unit_pairs(column, d)
        fit = em.fit(base, 0, FitOptions(max_iter=0))
        scaled_fit = em.fit(scaled, 0, FitOptions(max_iter=0))
        assert scaled_fit.loglik == pytest.approx(fit.loglik - base.n * np.log(d), rel=1e-9)
        np.testing.assert_allclose(scaled_fit.alpha, fit.alpha, rtol=0, atol=1e-12)

    def test_underdetermined_data_still_pd(self, rng):
        data = rng.normal(size=(6, 10))  # n < p
        k = initial_k(data, 1)
        assert np.isfinite(k.matrix).all()
        assert np.linalg.eigvalsh(k.matrix)[0] > 0


def fit_bits(result):
    """Everything a fit reports, with its arrays as bytes."""
    return (
        result.precision.matrix.tobytes(), result.alpha.tobytes(), result.loglik_trace,
        result.loglik, result.h_tree, result.h_joint, result.iterations, result.converged,
    )


class TestSharedStart:
    """The r > 0 starts of one covariance object share its regularized
    covariance and eigendecomposition, and give the bits of a fresh one."""

    def test_select_fits_equal_fresh_covariance_fits(self, rng):
        data = factor_data(rng, n=60)
        report = selection.select(EmpiricalCovariance.from_data(data), r_max=3, keep_fits=True)
        assert sorted(report.fits) == [0, 1, 2, 3]
        for r, result in report.fits.items():
            fresh = em.fit(EmpiricalCovariance.from_data(data), r)
            assert fit_bits(result) == fit_bits(fresh)

    def test_fit_order_does_not_matter(self, rng):
        data = factor_data(rng, n=60)
        cov = EmpiricalCovariance.from_data(data)
        shared = {r: em.fit(cov, r) for r in (3, 1, 2)}  # before any fresh fit evicts cov
        for r, result in shared.items():
            assert fit_bits(result) == fit_bits(em.fit(EmpiricalCovariance.from_data(data), r))

    def test_alternating_covariances_keep_their_own_start(self, rng):
        # two covariances of one size, started in turn, as `select-p20`
        # fits them; the reference builds the start without the cache
        covs = [EmpiricalCovariance.from_data(factor_data(rng, n=60)) for _ in range(2)]
        for i, r in ((0, 1), (1, 1), (0, 2), (1, 3)):
            start = initial_precision_from_cov(covs[i], r).precision.matrix
            reg = initialization._regularize_cov(covs[i].matrix)
            sigma = _completed_covariance(reg, *np.linalg.eigh(reg), r)
            _, expected = initialization.tree_mle(sigma, covs[i].size)
            assert start.tobytes() == expected.tobytes()

    def test_second_fit_shrinks_only_the_completion(self, rng, monkeypatch):
        cov = EmpiricalCovariance.from_data(factor_data(rng))
        em.fit(cov, 1)
        calls = []
        regularize = initialization._regularize_cov
        monkeypatch.setattr(
            initialization, "_regularize_cov", lambda m: calls.append(1) or regularize(m)
        )
        em.fit(cov, 2)
        assert len(calls) == 1

    def test_covariance_matrix_is_read_only(self, rng):
        cov = EmpiricalCovariance.from_data(factor_data(rng))
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 1.0

    def test_basis_is_read_only(self, rng):
        cov = EmpiricalCovariance.from_data(factor_data(rng))
        for a in initialization._observed_basis(cov):
            with pytest.raises(ValueError):
                a[...] = 0.0
