"""Estimating the number of hidden nodes with BIC and the two ICL variants."""

from __future__ import annotations

import csv
import warnings

import numpy as np

from . import em
from .errors import TreeAggError
from .matrices import EmpiricalCovariance

CRITERIA = ("bic", "icl_tree", "icl_joint")


def penalty(n_observed: int, n_hidden: int, n_samples: int) -> float:
    """Parameter-count penalty (p(p+1)/2 + r p + r) log(n) / 2."""
    p, r = n_observed, n_hidden
    count = p * (p + 1) / 2 + r * p + r
    return float(count * np.log(n_samples) / 2.0)


class SelectionRow:
    __slots__ = (
        "n_hidden", "loglik", "pen", "bic", "icl_tree", "icl_joint", "h_tree", "h_joint",
        "converged", "error",
    )

    def __init__(
        self,
        n_hidden: int,
        loglik: float = np.nan,
        pen: float = np.nan,
        bic: float = np.nan,
        icl_tree: float = np.nan,
        icl_joint: float = np.nan,
        h_tree: float = np.nan,
        h_joint: float = np.nan,
        converged: bool = False,
        error: str | None = None,
    ):
        self.n_hidden = n_hidden
        self.loglik = loglik
        self.pen = pen
        self.bic = bic
        self.icl_tree = icl_tree
        self.icl_joint = icl_joint
        self.h_tree = h_tree
        self.h_joint = h_joint
        self.converged = converged
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


# The numeric fields of a SelectionRow, in report order.
_NUMERIC = ("loglik", "pen", "bic", "icl_tree", "icl_joint", "h_tree", "h_joint")


class SelectionReport:
    __slots__ = ("rows", "selected", "master_seed", "fits")

    def __init__(
        self,
        rows: tuple[SelectionRow, ...],
        selected: dict[str, int | None],
        master_seed: int | None,
        fits: dict[int, "em.FitResult"] | None = None,
    ):
        self.rows = rows
        self.selected = selected
        self.master_seed = master_seed
        self.fits = {} if fits is None else fits

    def to_json_dict(self) -> dict:
        """The report as JSON values; a failed row's numeric fields are None,
        since strict JSON has no NaN."""
        return {
            "master_seed": self.master_seed,
            "selected": dict(self.selected),
            "rows": [
                {
                    "r": row.n_hidden,
                    **{name: getattr(row, name) if row.ok else None for name in _NUMERIC},
                    "converged": row.converged,
                    "error": row.error,
                }
                for row in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["r", *_NUMERIC, "converged", "error"])
            for row in self.rows:
                writer.writerow(
                    [row.n_hidden]
                    + [repr(getattr(row, name)) for name in _NUMERIC]
                    + [row.converged, row.error if row.error else ""]
                )


def select(
    cov: EmpiricalCovariance,
    r_max: int = 3,
    opts: em.FitOptions | None = None,
    master_seed: int | None = 0,
    keep_fits: bool = False,
) -> SelectionReport:
    """Fit r = 0..r_max and rank the criteria.

    Each fit starts its hidden nodes at the covariance's leading principal
    components.  A fit that raises a TreeAggError, such as the
    PerfectCorrelationError of two perfectly correlated columns, leaves its
    row's error set and is left out of the ranking.  No fit draws a random
    number, so `master_seed` is only a label that the report carries.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")

    rows: list[SelectionRow] = []
    fits: dict[int, em.FitResult] = {}
    for r in range(r_max + 1):
        try:
            result = em.fit(cov, r, opts=opts)
        except TreeAggError as exc:
            warnings.warn(f"fit with r={r} failed: {exc}")
            rows.append(SelectionRow(n_hidden=r, error=str(exc)))
            continue
        pen = penalty(cov.size, r, cov.n)
        bic = result.loglik - pen
        rows.append(
            SelectionRow(
                n_hidden=r,
                loglik=result.loglik,
                pen=pen,
                bic=bic,
                icl_tree=bic - result.h_tree,
                icl_joint=bic - result.h_joint,
                h_tree=result.h_tree,
                h_joint=result.h_joint,
                converged=result.converged,
            )
        )
        if keep_fits:
            fits[r] = result

    selected: dict[str, int | None] = {}
    for criterion in CRITERIA:
        ok = [row for row in rows if row.ok]
        if not ok:
            selected[criterion] = None
            continue
        selected[criterion] = max(ok, key=lambda row: (getattr(row, criterion), -row.n_hidden)).n_hidden
    return SelectionReport(tuple(rows), selected, master_seed, fits)
