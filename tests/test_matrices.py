import numpy as np
import pytest

from treeagg.errors import DataError
from treeagg.matrices import EIG_FLOOR, EmpiricalCovariance, floor_spectrum

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
