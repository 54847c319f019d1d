import numpy as np
import pytest

from treeagg import selection
from treeagg.errors import DataError
from treeagg.matrices import EmpiricalCovariance


class TestFromData:
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, rng, cell):
        data = rng.normal(size=(10, 4))
        data[3, 2] = cell
        with pytest.raises(DataError, match="non-finite"):
            EmpiricalCovariance.from_data(data)
        with pytest.raises(DataError):
            selection.select(data, r_max=1)

    def test_constant_column(self, rng):
        data = rng.normal(size=(10, 4))
        data[:, 1] = 0.1
        data[:, 3] = -7.0
        with pytest.raises(DataError, match=r"columns \[1, 3\]"):
            EmpiricalCovariance.from_data(data)
