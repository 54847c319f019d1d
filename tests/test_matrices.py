import numpy as np
import pytest

from treeagg.errors import DataError, NotPositiveDefiniteError
from treeagg.matrices import EIG_FLOOR, EmpiricalCovariance, PartitionedPrecision, floor_spectrum

from conftest import random_spd


class TestFromData:
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, rng, cell):
        data = rng.normal(size=(10, 4))
        data[3, 2] = cell
        with pytest.raises(DataError, match="non-finite"):
            EmpiricalCovariance.from_data(data)

    def test_constant_column(self, rng):
        data = rng.normal(size=(10, 4))
        data[:, 1] = 0.1
        data[:, 3] = -7.0
        with pytest.raises(DataError, match=r"columns \[1, 3\]"):
            EmpiricalCovariance.from_data(data)

    def test_column_constant_up_to_one_ulp(self, rng):
        data = rng.normal(size=(6, 4))
        data[:, 2] = 1.0
        data[3, 2] = 1.0 + 2.0**-52
        with pytest.raises(DataError, match=r"columns \[2\].*to within roundoff"):
            EmpiricalCovariance.from_data(data)
        # a column that varies in more than its last bits is kept
        data[3, 2] = 1.0 + 2.0**-40
        assert EmpiricalCovariance.from_data(data).matrix[2, 2] > 0.0

    def test_one_column(self, rng):
        # one variable has no edge to score
        with pytest.raises(DataError, match="at least 2"):
            EmpiricalCovariance.from_data(rng.normal(size=(3, 1)))
        with pytest.raises(ValueError, match="at least 2"):
            EmpiricalCovariance(np.eye(1), 3)


class TestEmpiricalCovariance:
    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
            EmpiricalCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]), 5)

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_nonpositive_diagonal_rejected(self, diagonal):
        with pytest.raises(ValueError, match="diagonal must be strictly positive"):
            EmpiricalCovariance(np.diag([1.0, diagonal, 2.0]), 5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="sample count"):
            EmpiricalCovariance(np.eye(3), n)


class TestPartitionedPrecision:
    @pytest.mark.parametrize("n_observed, n_hidden", [(-1, 4), (4, -1)])
    def test_negative_block_size_rejected(self, n_observed, n_hidden):
        with pytest.raises(ValueError, match="nonnegative"):
            PartitionedPrecision(np.eye(3), n_observed, n_hidden)

    @pytest.mark.parametrize("n_observed, n_hidden", [(3, 1), (1, 1), (4, 0)])
    def test_size_mismatch_rejected(self, n_observed, n_hidden):
        with pytest.raises(ValueError, match=r"n_observed \+ n_hidden"):
            PartitionedPrecision(np.eye(3), n_observed, n_hidden)

    @pytest.mark.parametrize(
        "matrix, n_observed, n_hidden",
        [([[1.0, 2.0], [2.0, 1.0]], 2, 0), (np.diag([1.0, 1.0, 0.0]), 2, 1),
         (np.diag([2.0, -1.0, 1.0]), 2, 1)],
        ids=["indefinite_positive_diagonal", "zero_hidden_diagonal", "negative_observed_diagonal"],
    )
    def test_not_positive_definite_rejected(self, matrix, n_observed, n_hidden):
        with pytest.raises(ValueError, match="not positive definite"):
            PartitionedPrecision(np.asarray(matrix), n_observed, n_hidden)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the symmetry check
    def test_non_finite_entry_rejected(self, value):
        # np.linalg.cholesky returns a NaN or inf factor here instead of failing
        k = np.eye(3)
        k[0, 1] = k[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            PartitionedPrecision(k, 2, 1)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("value", [0.5, -1e-300, np.nan])
    def test_nonzero_hidden_hidden_entry_rejected(self, rng, r, value):
        k = np.eye(6 + r) * 2.0
        k[:6, :6] = random_spd(rng, 6)
        PartitionedPrecision(k, 6, r)  # a diagonal hidden block is accepted
        k[6, 5 + r] = k[5 + r, 6] = value
        with pytest.raises(ValueError, match="hidden-hidden"):
            PartitionedPrecision(k, 6, r)

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_marginal_is_the_schur_complement(self, rng, r):
        k = random_spd(rng, 7 + r) * 3.0
        k[7:, 7:] = np.diag(np.diag(k[7:, 7:]))
        schur = k[:7, :7] - k[:7, 7:] @ np.linalg.solve(k[7:, 7:], k[7:, :7])
        marginal = PartitionedPrecision(k, 7, r).marginal()
        np.testing.assert_allclose(marginal, schur, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(np.linalg.inv(marginal), np.linalg.inv(k)[:7, :7], atol=1e-10)


class TestFloorSpectrum:
    def test_positive_definite_unchanged(self, rng):
        for size in (3, 21, 80):
            m = random_spd(rng, size)
            out = floor_spectrum(m, size - 2)
            assert out.tobytes() == m.tobytes()

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_indefinite_floored_with_diagonal_hidden_block(self, rng, r):
        for size in (4, 12, 23):
            p = size - r
            a = rng.normal(size=(size, size))
            m = 0.5 * (a + a.T)
            assert np.linalg.eigvalsh(m)[0] < 0.0
            out = floor_spectrum(m, p)
            hidden = out[p:, p:]
            assert np.all(hidden[~np.eye(r, dtype=bool)] == 0.0)
            evals = np.linalg.eigvalsh(out)
            assert evals[0] >= EIG_FLOOR * evals[-1] * (1.0 - 1e-9)

    def test_at_most_three_eigendecompositions(self, rng, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def call(m):
                calls.append(name)
                return real(m)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        for r in (0, 1, 2):
            a = rng.normal(size=(10, 10))
            calls.clear()
            floor_spectrum(0.5 * (a + a.T), 10 - r)
            assert 1 <= len(calls) <= 3
