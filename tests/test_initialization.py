import numpy as np
import pytest

from treeagg import em, initialization
from treeagg.errors import DegenerateCliqueError
from treeagg.initialization import (
    _cliques_for_target,
    _clustering_from_cov,
    _completed_covariance,
    _factor_params,
    _regularize_cov,
    initial_precision_from_cov,
)
from treeagg.matrices import EmpiricalCovariance
from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed

from conftest import cliques_for_target_oracle, figure_ground_truth, greedy_clustering_oracle


def factor_data(rng, n=400, noise_cols=4):
    """Three noisy copies of one latent factor plus independent noise columns."""
    f = rng.normal(size=n)
    copies = np.column_stack([f + 0.3 * rng.normal(size=n) for _ in range(3)])
    noise = rng.normal(size=(n, noise_cols))
    return np.column_stack([copies, noise])


def clustering(data):
    cov = EmpiricalCovariance.from_data(data)
    return _clustering_from_cov(_regularize_cov(cov.matrix), cov.n)


def bic_cut_is_empty(merges):
    """No merge prefix has a positive accumulated gain, so the BIC cut is
    before the first merge and holds no clique."""
    return bool((np.cumsum([m.gain for m in merges]) <= 0).all())


def suite_covariances(kind):
    """The covariances of the acceptance suites (tests/test_acceptance.py)."""
    size, r, epsilon, offset = {"signal": (21, 1, 10.0, 0), "null": (20, 0, 1.0, 1000)}[kind]
    for seed in range(50):
        truth = make_ground_truth("tree", size=size, r=r, epsilon=epsilon, seed=offset + seed)
        _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(offset + seed))
        yield EmpiricalCovariance.from_data(observed)


def assert_matches_oracle(sigma, n):
    """Equal merges, gains bit for bit, and equal cliques for r = 1..9, at
    the BIC cut and past it."""
    merges = _clustering_from_cov(sigma, n)
    expected = greedy_clustering_oracle(sigma, n)
    assert merges == expected
    assert [m.gain.hex() for m in merges] == [float(m.gain).hex() for m in expected]
    for r in range(1, 10):
        assert _cliques_for_target(merges, r) == cliques_for_target_oracle(expected, r)


def initial_k(data, n_hidden):
    cov = EmpiricalCovariance.from_data(data)
    return initial_precision_from_cov(cov, n_hidden).precision


def completed(data, cliques):
    """Covariance completed with one principal-component hidden node per clique."""
    sigma = EmpiricalCovariance.from_data(data).matrix
    return _completed_covariance(sigma, cliques, len(cliques))


class TestTripletClustering:
    def test_factor_triplet_merges_first(self, rng):
        merges = clustering(factor_data(rng))
        assert merges[0].members == (0, 1, 2)
        assert _cliques_for_target(merges, 1) == ((0, 1, 2),)

    def test_r0_empty_hierarchy(self, rng, monkeypatch):
        # no hidden node takes no clique, and an r = 0 fit runs no search
        data = factor_data(rng)
        assert _cliques_for_target(clustering(data), 0) == ()
        calls = []
        search = initialization._clustering_from_cov
        monkeypatch.setattr(
            initialization, "_clustering_from_cov", lambda *a: calls.append(1) or search(*a)
        )
        em.fit(EmpiricalCovariance.from_data(data), 0)
        assert calls == []

    def test_independent_data_yields_no_cliques(self, rng):
        assert bic_cut_is_empty(clustering(rng.normal(size=(300, 6))))

    def test_deterministic(self, rng):
        data = factor_data(rng)
        assert clustering(data) == clustering(data)

    @pytest.mark.parametrize("kind", ["signal", "null"])
    def test_suite_matches_rescan_oracle(self, kind):
        for cov in suite_covariances(kind):
            assert_matches_oracle(_regularize_cov(cov.matrix), cov.n)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: factor_data(rng),
            lambda rng: rng.normal(size=(300, 6)),
            lambda rng: factor_data(rng, noise_cols=0),
        ],
        ids=["factor", "independent", "p3"],
    )
    def test_data_matches_rescan_oracle(self, rng, make):
        cov = EmpiricalCovariance.from_data(make(rng))
        assert_matches_oracle(_regularize_cov(cov.matrix), cov.n)

    def test_target_past_cut_matches_rescan_oracle(self, rng):
        # independent data cut before any merge, so every hidden node comes
        # from extending past the cut
        cov = EmpiricalCovariance.from_data(rng.normal(size=(300, 9)))
        sigma = _regularize_cov(cov.matrix)
        merges = _clustering_from_cov(sigma, cov.n)
        assert bic_cut_is_empty(merges) and len(merges) >= 2
        chosen = _cliques_for_target(merges, 2)
        assert chosen != ()
        assert chosen == cliques_for_target_oracle(greedy_clustering_oracle(sigma, cov.n), 2)

    def test_each_candidate_scored_once(self, monkeypatch):
        # a signal-suite replicate at p = 20: every gain comes with one merge
        # record, so one record per distinct merged group means no candidate
        # is scored twice; rescanning every round scores about 3.5 times as many
        cov = next(suite_covariances("signal"))
        built = []

        class CountedRecord(initialization.MergeRecord):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.members)

        monkeypatch.setattr(initialization, "MergeRecord", CountedRecord)
        merges = _clustering_from_cov(_regularize_cov(cov.matrix), cov.n)
        assert len(merges) >= 5
        assert len(built) == len(set(built))

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

    def test_fewer_than_three_nodes(self, rng):
        # without a triplet the search merges nothing; the start at p = 2,
        # whose hidden node is the leading principal component, is pinned
        for p in (1, 2):
            cov = EmpiricalCovariance.from_data(rng.normal(size=(30, p)))
            merges = _clustering_from_cov(_regularize_cov(cov.matrix), cov.n)
            assert merges == ()
            assert _cliques_for_target(merges, 1) == ()
        x = np.random.default_rng(3).normal(size=(30, 2))
        x[:, 1] += x[:, 0]
        k = em.fit(EmpiricalCovariance.from_data(x), 1).precision.matrix
        assert [v.hex() for v in k.ravel()] == [
            "0x1.3dc2180c72bdap+1", "0x0.0p+0", "-0x1.e61a201f887dap+0",
            "0x0.0p+0", "0x1.d09df2e589b61p+2", "-0x1.2fde2b031817dp+3",
            "-0x1.e61a201f887dap+0", "-0x1.2fde2b031817dp+3", "0x1.dbf271fa10caep+3",
        ]

    def test_underdetermined_data_still_pd(self, rng):
        data = rng.normal(size=(6, 10))  # n < p
        k = initial_k(data, 1)
        assert np.isfinite(k.matrix).all()
        assert np.linalg.eigvalsh(k.matrix)[0] > 0
