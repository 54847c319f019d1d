import json

import numpy as np
import pytest

from treeagg import em, selection
from treeagg.errors import PerfectCorrelationError, TreeAggError
from treeagg.matrices import EmpiricalCovariance
from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed

from conftest import duplicated_column_data, random_spd, strict_json_loads


@pytest.fixture(scope="module")
def report_and_cov():
    truth = make_ground_truth("tree", size=8, r=0, epsilon=1.0, seed=3)
    data, _ = sample_and_marginalize(truth.precision, 40, sample_seed(3))
    cov = EmpiricalCovariance.from_data(data)
    report = selection.select(cov, r_max=2, master_seed=5, keep_fits=True)
    return report, cov


class TestPenalty:
    def test_example_values(self):
        assert selection.penalty(20, 0, 30) == pytest.approx(210 * np.log(30) / 2)
        assert selection.penalty(20, 1, 30) == pytest.approx(231 * np.log(30) / 2)

    def test_strictly_increasing_in_r(self):
        values = [selection.penalty(10, r, 25) for r in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSelect:
    def test_rows_and_selection_present(self, report_and_cov):
        report, _ = report_and_cov
        assert [row.n_hidden for row in report.rows] == [0, 1, 2]
        for crit in selection.CRITERIA:
            assert report.selected[crit] in (0, 1, 2)

    def test_criterion_identities(self, report_and_cov):
        # BIC - ICL_T = H_tree and ICL_T - ICL_TXH = H_joint - H_tree, per row
        report, _ = report_and_cov
        for row in report.rows:
            assert row.bic - row.icl_tree == pytest.approx(row.h_tree, abs=1e-10)
            assert row.icl_tree - row.icl_joint == pytest.approx(
                row.h_joint - row.h_tree, abs=1e-10
            )

    def test_joint_entropy_identity_per_row(self, report_and_cov):
        # H_joint - H_tree = r log(2 pi e)/2 - (1/2) sum log K_hh, exactly
        report, _ = report_and_cov
        for row in report.rows:
            r = row.n_hidden
            fit = report.fits[r]
            if r == 0:
                assert row.h_joint == pytest.approx(row.h_tree, abs=1e-12)
                continue
            k_hidden = fit.precision.hidden_diagonal()
            expected = 0.5 * r * np.log(2 * np.pi * np.e) - 0.5 * np.log(k_hidden).sum()
            assert row.h_joint - row.h_tree == pytest.approx(expected, abs=1e-10)

    def test_reproducible_bit_for_bit(self, report_and_cov):
        report, cov = report_and_cov
        again = selection.select(cov, r_max=2, master_seed=5)
        for a, b in zip(report.rows, again.rows):
            assert a == b
        assert report.selected == again.selected

    def test_r_max_zero(self, report_and_cov):
        _, cov = report_and_cov
        report = selection.select(cov, r_max=0, master_seed=1)
        assert len(report.rows) == 1
        assert report.selected["bic"] == 0

    def test_failed_row_excluded_with_warning(self, report_and_cov, monkeypatch):
        _, cov = report_and_cov
        real_fit = em.fit

        def flaky(cov_arg, r, opts=None):
            if r == 1:
                raise TreeAggError("synthetic failure")
            return real_fit(cov_arg, r, opts)

        monkeypatch.setattr(selection.em, "fit", flaky)
        with pytest.warns(UserWarning, match="r=1 failed"):
            report = selection.select(cov, r_max=1, master_seed=2)
        assert report.rows[1].error == "synthetic failure"
        assert report.selected["bic"] == 0

    def test_failed_row_is_strict_json(self, report_and_cov, monkeypatch):
        _, cov = report_and_cov
        real_fit = em.fit

        def failing_r1(cov_arg, r, opts=None):
            if r == 1:
                raise TreeAggError("synthetic failure")
            return real_fit(cov_arg, r, opts)

        monkeypatch.setattr(selection.em, "fit", failing_r1)
        with pytest.warns(UserWarning, match="r=1 failed"):
            report = selection.select(cov, r_max=1)
        ok, failed = strict_json_loads(json.dumps(report.to_json_dict()))["rows"]
        assert ok["loglik"] == report.rows[0].loglik
        assert failed["error"] == "synthetic failure"
        assert {failed[key] for key in ("loglik", "pen", "bic", "h_tree")} == {None}

    def test_perfect_correlation_fails_every_row(self, rng):
        data = duplicated_column_data(rng)
        with pytest.warns(UserWarning, match="failed"):
            report = selection.select(data, r_max=2)
        with pytest.raises(PerfectCorrelationError) as exc:
            em.fit(EmpiricalCovariance.from_data(data), 0)
        assert [row.error for row in report.rows] == [str(exc.value)] * 3
        assert set(report.selected.values()) == {None}

    def test_fits_match_standalone_fits(self):
        # a signal acceptance replicate (p = 20, n = 30)
        truth = make_ground_truth("tree", size=21, r=1, epsilon=10.0, seed=0)
        _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(0))
        cov = EmpiricalCovariance.from_data(observed)
        report = selection.select(cov, r_max=3, keep_fits=True)
        for r in range(4):
            alone = em.fit(cov, r)
            fit = report.fits[r]
            row = report.rows[r]
            assert (row.loglik, row.h_tree, row.h_joint, row.converged) == (
                alone.loglik, alone.h_tree, alone.h_joint, alone.converged
            )
            assert fit.loglik_trace == alone.loglik_trace
            assert fit.alpha.tobytes() == alone.alpha.tobytes()
            assert fit.precision.matrix.tobytes() == alone.precision.matrix.tobytes()

    def test_accepts_raw_data(self, rng):
        data = rng.normal(size=(30, 5)) @ random_spd(rng, 5)
        report = selection.select(data, r_max=0, master_seed=0)
        assert report.rows[0].ok

    def test_json_roundtrip_fields(self, report_and_cov):
        report, _ = report_and_cov
        payload = report.to_json_dict()
        assert payload["master_seed"] == 5
        assert len(payload["rows"]) == 3
        assert set(payload["selected"]) == set(selection.CRITERIA)
