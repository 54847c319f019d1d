"""Matrix value types: empirical covariances, block-partitioned precisions
and the observed/hidden block layout of completed second moments."""

from __future__ import annotations

import numpy as np

from .errors import DataError, InvalidPrecisionError, NotPositiveDefiniteError


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")
    return symmetrize(m)


def matrix_to_json(m: np.ndarray) -> dict:
    """{"shape", "data"} with the entries in row-major order, as Python floats."""
    return {"shape": list(m.shape), "data": [float(v) for v in np.asarray(m).ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a `matrix_to_json` dict.  Each entry must be a JSON
    number: the first string, boolean or other value raises TypeError."""
    data = obj["data"]
    for index, value in enumerate(data):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"matrix entry {index} is {value!r}, not a number")
    return np.array(data, dtype=float).reshape(obj["shape"])


class EmpiricalCovariance:
    """Empirical covariance of the observed variables together with the sample count."""

    __slots__ = ("matrix", "n")

    def __init__(self, matrix: np.ndarray, n: int):
        m = check_symmetric(matrix, "covariance")
        if m.shape[0] < 2:
            raise ValueError("covariance must cover at least 2 variables")
        if int(n) < 1:
            raise ValueError("sample count must be >= 1")
        d = np.diag(m)
        if np.any(d <= 0):
            raise ValueError("covariance diagonal must be strictly positive")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -1e-10 * max(1.0, evals[-1]):
            raise NotPositiveDefiniteError(
                f"covariance has eigenvalue {evals[0]:.3e} below tolerance"
            )
        m.setflags(write=False)  # `initialization` caches what it derives from m
        self.matrix = m
        self.n = int(n)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_data(cls, data: np.ndarray) -> "EmpiricalCovariance":
        """MLE covariance (1/n normalization) of an n x p sample matrix.

        Raises DataError on fewer than 2 columns, a non-finite entry or a
        constant column, and when the data's units push the covariance past
        the float range: a column whose covariance overflows or whose variance
        underflows to zero.  A column counts as constant when its standard
        deviation is within 4 ulps of its largest magnitude: its centred
        values would be roundoff.
        """
        x = np.asarray(data, dtype=float)
        if x.ndim != 2:
            raise ValueError("data must be a 2-d array")
        if x.shape[1] < 2:
            raise DataError(f"need at least 2 columns, got {x.shape[1]}")
        if not np.isfinite(x).all():
            raise DataError("data holds a non-finite entry")
        magnitude = np.abs(x).max(axis=0)
        relative_std = np.std(x / np.where(magnitude > 0.0, magnitude, 1.0), axis=0)
        constant = np.flatnonzero(relative_std <= 4.0 * np.finfo(float).eps)
        if constant.size:
            raise DataError(
                f"columns {constant.tolist()} (0-based) have zero variance, "
                "to within roundoff of their magnitude"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            x = x - x.mean(axis=0, keepdims=True)
            m = symmetrize(x.T @ x / x.shape[0])
        out_of_range = np.flatnonzero(~np.isfinite(m).all(axis=0) | (np.diag(m) == 0.0))
        if out_of_range.size:
            raise DataError(
                f"columns {out_of_range.tolist()} (0-based) have a covariance "
                "that overflows or a variance that underflows to zero: rescale them"
            )
        return cls(m, x.shape[0])


class PartitionedPrecision:
    """Precision over observed (first) and hidden (last) variables; the model
    never joins two hidden nodes, so the hidden block K_HH is diagonal."""

    __slots__ = ("matrix", "n_observed", "n_hidden")

    def __init__(self, matrix: np.ndarray, n_observed: int, n_hidden: int = 0):
        m = check_symmetric(matrix, "precision")
        if n_observed < 0 or n_hidden < 0:
            raise ValueError("block sizes must be nonnegative")
        if m.shape[0] != n_observed + n_hidden:
            raise ValueError(
                f"matrix size {m.shape[0]} != n_observed + n_hidden "
                f"({n_observed} + {n_hidden})"
            )
        k_hh = m[n_observed:, n_observed:]
        if np.any(k_hh[~np.eye(n_hidden, dtype=bool)] != 0.0):
            raise ValueError("precision has a nonzero hidden-hidden entry")
        self.matrix = m
        self.n_observed = n_observed
        self.n_hidden = n_hidden

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def k_oh(self) -> np.ndarray:
        return self.matrix[: self.n_observed, self.n_observed :]

    @property
    def k_ho(self) -> np.ndarray:
        return self.matrix[self.n_observed :, : self.n_observed]

    def hidden_diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)[self.n_observed :]

    def require_positive_hidden_diagonal(self):
        if np.any(self.hidden_diagonal() <= 0):
            raise InvalidPrecisionError("hidden diagonal entries must be positive")

    def marginal(self) -> np.ndarray:
        """Schur complement K_OO - K_OH K_HH^-1 K_HO of the hidden block, unsymmetrized."""
        p = self.n_observed
        return self.matrix[:p, :p] - self.k_oh @ (self.k_ho * (1.0 / self.hidden_diagonal())[:, None])


def completed_moments(sigma: np.ndarray, w_ho: np.ndarray, b_h: np.ndarray) -> np.ndarray:
    """Second moments of (X_O, X_H) given X_O: [[S, -W_HO^T], [-W_HO, B_H]].

    Exactly symmetric when S and B_H are, and a copy of S without hidden
    nodes.  The M-step, `fixed_tree` and the EM start build the whole matrix;
    `observed_loglik` reads only W_HO and the diagonal of B_H, from the
    E-step state.
    """
    p, r = sigma.shape[0], b_h.shape[0]
    completed = np.empty((p + r, p + r))
    completed[:p, :p] = sigma
    completed[:p, p:] = -w_ho.T
    completed[p:, :p] = -w_ho
    completed[p:, p:] = b_h
    return completed


# Smallest eigenvalue floor_spectrum allows, relative to the largest.
EIG_FLOOR = 1e-6


def floor_spectrum(matrix: np.ndarray, n_observed: int) -> np.ndarray:
    """PD projection that keeps the hidden block strictly diagonal.

    One pass: eigenvalues below EIG_FLOOR times the largest are clipped to
    that floor, the hidden off-diagonal the clip fills in is zeroed again, and
    one diagonal ridge lifts the smallest eigenvalue back to EIG_FLOOR times
    the largest (which it lifts too).  A matrix at or above the floor is
    returned as it is.
    """
    m = symmetrize(np.asarray(matrix, dtype=float))
    w, v = np.linalg.eigh(m)
    floor = EIG_FLOOR * max(w[-1], np.finfo(float).tiny)
    if w[0] >= floor:
        return m
    m = symmetrize((v * np.maximum(w, floor)) @ v.T)
    m[n_observed:, n_observed:] = np.diag(np.diag(m[n_observed:, n_observed:]))
    evals = np.linalg.eigvalsh(m)
    floor = EIG_FLOOR * max(evals[-1], np.finfo(float).tiny)
    m[np.diag_indices_from(m)] += max(floor - evals[0], 0.0) / (1.0 - EIG_FLOOR)
    return m
