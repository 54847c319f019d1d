import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treeagg import cli
from treeagg.cli import main
from treeagg.matrices import matrix_from_json

from conftest import child_env, duplicated_column_data, strict_json_loads


def run_cli(*args):
    return main([str(a) for a in args])


def command_inputs(command: str, suite_dir: Path, fits: Path) -> list:
    """The input arguments `command` takes: none, a replicate's CSV, or --data and --fits."""
    if command == "simulate":
        return []
    if command == "eval":
        return ["--data", suite_dir, "--fits", fits]
    return [suite_dir / "rep_000" / "observed.csv"]


def edit_json(path: Path, edit) -> None:
    """Apply `edit` to the JSON object in `path` and write it back."""
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def read_tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.fixture
def duplicated_csv(tmp_path, rng):
    """A 30 x 10 CSV whose column 3 repeats column 0."""
    csv = tmp_path / "dup.csv"
    csv.write_text(
        ",".join(f"x{j}" for j in range(10)) + "\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in duplicated_column_data(rng).tolist())
    )
    return csv


# Suites for the out-of-range epsilon cases.
P6_SUITE = {"p": 6, "r": 1, "n": 20, "replicates": 2, "seed": 3}
P20_SUITE = {"p": 20, "r": 1, "n": 20, "replicates": 4, "seed": 0}


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "data"
    config = {"kind": "tree", "p": 8, "r": 1, "epsilon": 4.0, "n": 40, "replicates": 3, "seed": 5}
    cfgerr = tmp_path_factory.mktemp("cfg") / "sim.json"
    cfgerr_path = cfgerr
    cfgerr_path.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", cfgerr_path, "--out", out) == 0
    return out


class TestSimulate:
    def test_layout(self, suite_dir):
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        assert len(manifest["replicates"]) == 3
        assert manifest["config"]["p_edge"] == 0.1
        for entry in manifest["replicates"]:
            rep = suite_dir / entry["id"]
            assert (rep / "ground_truth.json").exists()
            assert (rep / "observed.csv").exists()

    def test_byte_identical_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "tree", "p": 6, "r": 0, "n": 20, "replicates": 2, "seed": 9}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg, "--out", out1) == 0
        assert run_cli("simulate", "--config", cfg, "--out", out2) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_workers_match_serial(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "erdos", "p": 6, "r": 0, "p_edge": 0.3, "n": 15, "replicates": 3, "seed": 2}))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run_cli("simulate", "--config", cfg, "--out", serial, "--workers", 1) == 0
        assert run_cli("simulate", "--config", cfg, "--out", parallel, "--workers", 2) == 0
        assert read_tree(serial) == read_tree(parallel)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_r_a_replicate_cannot_hide_writes_nothing(self, tmp_path, capsys, workers):
        # replicates 1, 3, 7 and 9 draw a 6-node tree with no node of degree 3;
        # replicate 0 can hide one node and is not written either
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "r": 1, "replicates": 20}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out", out, "--workers", workers) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rep_001" in err and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "epsilon, suite, rep",
        [
            (1.7e308, P6_SUITE, "rep_000"),
            (1e160, P6_SUITE, "rep_000"),
            (1e-310, P6_SUITE, "rep_000"),
            (1e200, P6_SUITE, "rep_000"),
            (1e16, P20_SUITE, "rep_002"),
            (1e30, P20_SUITE, "rep_002"),
            (1e100, P20_SUITE, "rep_003"),
            (1e154, P20_SUITE, "rep_002"),
        ],
        ids=["1.7e+308", "1e+160", "1e-310", "1e+200", "1e+16-p20", "1e+30-p20", "1e+100-p20",
             "1e+154-p20"],
    )
    def test_epsilon_out_of_float_range_writes_nothing(
        self, tmp_path, capsys, epsilon, suite, rep
    ):
        # before: NaN in every observed.csv cell, "snr": Infinity, and two
        # numerical failures, "SVD did not converge" and a precision that
        # is not positive definite; at p = 20 the last cases, which the
        # diagonal repair cannot serve, ended in that second failure, exit 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**suite, "epsilon": epsilon}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "epsilon" in err and rep in err and "seed" in err
        assert not out.exists()


class TestConfig:
    @pytest.mark.parametrize(
        "command, key",
        [
            ("simulate", "typo_key"),
            ("fit", "restarts"),
            ("fit", "eig_floor"),
            ("select", "restarts"),
            ("select", "eig_floor"),
        ],
    )
    def test_unknown_config_key_is_config_error(self, suite_dir, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        data = [] if command == "simulate" else [suite_dir / "rep_000" / "observed.csv"]
        assert run_cli(command, *data, "--config", cfg, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "command, flags, config, key",
        [
            ("fit", ["--p0", "abc"], {}, "p0"),
            ("fit", ["--r", -1], {}, "r"),
            ("select", ["--r", -1], {}, "r_max"),
            ("simulate", ["--r", -1], {}, "r"),
            ("simulate", [], {"p": 1, "r": 0}, "p"),
            ("fit", [], {"max_iter": "abc"}, "max_iter"),
            ("eval", [], {"grid_size": "x"}, "grid_size"),
            ("fit", ["--r", 0, "--p0", "0.5"], {}, "p0"),
            ("fit", ["--r", 0, "--p0", "nan"], {}, "p0"),
            ("fit", ["--r", 2, "--p0", repr(2.0 / 8.0)], {}, "p0"),
            ("fit", ["--method", "fixed-tree", "--r", 1, "--p0", "0.5"], {}, "p0"),
            ("fit", [], {"method": "chow-liu"}, "method"),
            ("eval", [], {"two_hop": "false"}, "two_hop"),
            ("simulate", [], {"p": 6, "r": 0, "n": 1.9, "replicates": 1}, "n"),
            ("fit", [], {"max_iter": True}, "max_iter"),
            ("eval", [], {"targets": "marginal"}, "targets"),
            ("simulate", [], {"kind": "erdos", "p": 6, "r": 0, "p_edge": 1.5, "replicates": 1},
             "p_edge"),
            ("simulate", [], {"p": 6, "r": 0, "n": 1, "replicates": 1}, "n"),
            ("eval", [], {"grid_size": -3}, "grid_size"),
            ("eval", [], {"grid_size": 1}, "grid_size"),
            ("simulate", [], {"p": 6, "r": 0, "epsilon": -1.0, "replicates": 1}, "epsilon"),
            ("simulate", ["--seed", -1], {"p": 6, "r": 0, "replicates": 1}, "seed"),
            ("simulate", [], {"p": 6, "r": 0, "replicates": 1, "seed": -1}, "seed"),
            ("fit", [], {"max_iter": -1}, "max_iter"),
            ("fit", ["--r", 1], {"tol": -1.0}, "tol"),
            ("select", [], {"r_max": 1, "max_iter": -1}, "max_iter"),
            ("select", [], {"r_max": 1, "tol": -1.0}, "tol"),
            ("simulate", [], {"p": 6, "r": 0, "replicates": 0}, "replicates"),
            ("simulate", [], {"kind": "grid", "p": 6, "r": 0, "replicates": 1}, "kind"),
            ("eval", [], {"targets": ["full", "roc"]}, "targets"),
            ("fit", [], {"tol": float("nan")}, "tol"),
            ("simulate", [], {"p": 6, "r": 1, "epsilon": float("inf"), "replicates": 1},
             "epsilon"),
            ("fit", ["--r", 1], {"tol": float("inf")}, "tol"),
            ("select", [], {"r_max": 1, "tol": float("inf")}, "tol"),
            ("simulate", [], {"p": 6, "r": 0, "p_edge": float("-inf"), "replicates": 1},
             "p_edge"),
            ("eval", [], {"targets": []}, "targets"),
            ("eval", [], {"targets": ["full", "full"]}, "targets"),
            ("fit", [], ["r", 1], "JSON object"),
            ("simulate", [], {"p": None, "r": 0, "replicates": 1}, "p"),
        ],
        ids=["fit-p0", "fit-r", "select-r", "simulate-r", "simulate-p", "fit-max_iter",
             "eval-grid_size", "fit-p0-unreachable", "fit-p0-nan", "fit-p0-unreachable-r2",
             "fit-p0-fixed-tree",
             "fit-method", "eval-two_hop-string", "simulate-n-fraction", "fit-max_iter-bool",
             "eval-targets-string", "simulate-p_edge-erdos", "simulate-n-one",
             "eval-grid_size-negative", "eval-grid_size-one", "simulate-epsilon-negative",
             "simulate-seed-flag", "simulate-seed-file", "fit-max_iter-negative",
             "fit-tol-negative", "select-max_iter-negative", "select-tol-negative",
             "simulate-replicates-zero", "simulate-kind", "eval-targets-element", "fit-tol-nan",
             "simulate-epsilon-inf", "fit-tol-inf", "select-tol-inf", "simulate-p_edge-inf",
             "eval-targets-empty", "eval-targets-repeated", "fit-config-list", "simulate-p-null"],
    )
    def test_bad_value_is_config_error(
        self, suite_dir, tmp_path, capsys, command, flags, config, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = command_inputs(command, suite_dir, tmp_path)
        code = run_cli(command, *data, *flags, "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert re.search(rf"\b{key}\b", err), err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("simulate", {"p": 8, "r": 1, "epsilon": 0.0, "n": 2, "replicates": 1, "seed": 0}),
            ("fit", {"r": 1, "max_iter": 0, "tol": 0.0}),
            ("select", {"r_max": 1, "max_iter": 0, "tol": 0.0}),
            ("eval", {"grid_size": 2}),
            ("simulate", {**P20_SUITE, "epsilon": 1e12}),
        ],
        ids=["simulate", "fit", "select", "eval", "simulate-epsilon-repaired"],
    )
    def test_boundary_value_is_accepted(self, suite_dir, fits_dir, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = command_inputs(command, suite_dir, fits_dir)
        assert run_cli(command, *data, "--config", cfg, "--out", tmp_path / "x") == 0

    @pytest.mark.parametrize("command", ["simulate", "fit", "select", "eval"])
    def test_config_that_is_a_directory_is_config_error(
        self, suite_dir, tmp_path, capsys, command
    ):
        data = command_inputs(command, suite_dir, tmp_path)
        assert run_cli(command, *data, "--config", tmp_path, "--out", tmp_path / "x") == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["simulate", "fit", "select", "eval"])
    def test_out_that_cannot_be_a_directory_is_config_error(
        self, suite_dir, fits_dir, tmp_path, capsys, command, out
    ):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = tmp_path / "cfg.json"
        small_suite = {"p": 6, "r": 0, "replicates": 1}
        cfg.write_text(json.dumps(small_suite if command == "simulate" else {}))
        data = command_inputs(command, suite_dir, fits_dir)
        flags = ["--r", 0] if command == "select" else []
        assert run_cli(command, *data, *flags, "--config", cfg, "--out", tmp_path / out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--out" in err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, taken", [("simulate", "rep_000"), ("eval", "rep_001"), ("eval", "aggregate")]
    )
    def test_out_subdirectory_taken_by_a_file_is_config_error(
        self, suite_dir, fits_dir, tmp_path, capsys, command, taken
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / taken).write_text("kept\n")
        cfg = tmp_path / "cfg.json"
        small_suite = {"p": 6, "r": 0, "replicates": 1}
        cfg.write_text(json.dumps(small_suite if command == "simulate" else {}))
        data = command_inputs(command, suite_dir, fits_dir)
        assert run_cli(command, *data, "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and taken in err
        assert (out / taken).read_text() == "kept\n"

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("command", ["simulate", "fit", "eval"])
    def test_workers_below_one_is_rejected(self, suite_dir, tmp_path, capsys, command, workers):
        data = command_inputs(command, suite_dir, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *data, "--out", tmp_path / "x", "--workers", workers)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestFit:
    def test_flow_cytometry_shape(self, tmp_path, rng):
        # 100 cells x 11 proteins, r=1 -> 12 x 12 posteriors
        data = rng.normal(size=(100, 11))
        csv = tmp_path / "cells.csv"
        header = ",".join(f"prot{j}" for j in range(11))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in data)
        csv.write_text(header + "\n" + rows + "\n")
        out = tmp_path / "fit"
        assert run_cli("fit", csv, "--out", out, "--method", "aggregation", "--r", 1) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["alpha"]["shape"] == [12, 12]
        assert payload["n"] == 100

    def test_r0_alpha_is_p_by_p(self, suite_dir, tmp_path):
        out = tmp_path / "fit0"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("fit", csv, "--out", out, "--r", 0) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["alpha"]["shape"] == [8, 8]

    def test_fixed_tree_dispatch(self, suite_dir, tmp_path):
        out = tmp_path / "fit_ft"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("fit", csv, "--out", out, "--method", "fixed-tree", "--r", 1) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert "tree" in payload and "alpha" not in payload
        assert len(payload["tree"]) == 8  # p + r - 1

    def test_chow_liu_is_not_a_method(self, suite_dir, tmp_path):
        # the Chow-Liu tree is `--method fixed-tree --r 0`
        csv = suite_dir / "rep_000" / "observed.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", csv, "--out", tmp_path / "x", "--method", "chow-liu")
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("fit", tmp_path / "nope.csv", "--out", tmp_path / "x") == 3

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_data_that_is_a_directory_is_data_error(self, tmp_path, capsys, command):
        (tmp_path / "dir.csv").mkdir()
        assert run_cli(command, tmp_path / "dir.csv", "--out", tmp_path / "x") == 3
        assert "dir.csv" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_csv_that_is_not_utf8_is_data_error(self, tmp_path, capsys, command):
        csv = tmp_path / "bin.csv"
        csv.write_bytes(b"\xff\xfe" + "a,b\n1.0,2.0\n3.0,5.0\n".encode("utf-16-le"))
        assert run_cli(command, csv, "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert "data error" in err and "bin.csv" in err and "UTF-8" in err
        assert not (tmp_path / "x").exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        for text, message in [
            ("a,b\n1.0,2.0\n1.0,oops\n", "bad.csv:3"),
            ("", "bad.csv: empty file"),
            ("a,b\n1.0,2.0\n1.0,2.0,3.0\n", "bad.csv:3: expected 2 fields, got 3"),
        ]:
            csv.write_text(text)
            assert run_cli("fit", csv, "--out", tmp_path / "x") == 3
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        rows = ["a,b", "1.0,2.0", "3.0,5.0", "-1.0,4.0"]
        csv, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        csv.write_text("\n".join(rows) + "\n")
        blank.write_text("\n".join(rows[:2] + [""] + rows[2:]) + "\n")
        assert run_cli("fit", csv, "--out", tmp_path / "plain") == 0
        assert run_cli("fit", blank, "--out", tmp_path / "blank") == 0
        fit_json = [json.loads((tmp_path / name / "fit.json").read_text()) for name in ("plain", "blank")]
        assert fit_json[0]["alpha"] == fit_json[1]["alpha"]

    def test_insufficient_rows(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("a,b\n1.0,2.0\n")
        assert run_cli("fit", csv, "--out", tmp_path / "x") == 3

    @pytest.mark.parametrize(
        "args", [["fit", "--r", 0], ["fit", "--method", "fixed-tree"], ["select"]]
    )
    def test_one_column_is_data_error(self, tmp_path, capsys, args):
        csv = tmp_path / "one.csv"
        csv.write_text("a\n1.0\n2.5\n-0.5\n")
        assert run_cli(args[0], csv, "--out", tmp_path / "x", *args[1:]) == 3
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("cell", ["constant", "one-ulp", "nan", "inf"])
    def test_bad_cell_is_data_error(self, tmp_path, capsys, command, cell):
        data = np.arange(12.0).reshape(4, 3) ** 1.5
        if cell == "constant":
            data[:, 1] = 2.0
        elif cell == "one-ulp":  # constant but for one entry one ulp away
            data[:, 1] = 1.0
            data[2, 1] = 1.0 + 2.0**-52
        else:
            data[2, 0] = float(cell)
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in data.tolist()))
        assert run_cli(command, csv, "--out", tmp_path / "x", "--r", 1) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [["fit", "--r", 1], ["select", "--r", 2]])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_units_are_data_error(self, tmp_path, capsys, rng, args, scale):
        # the covariance underflows to zero or overflows to inf
        csv = tmp_path / "units.csv"
        csv.write_text(
            "a,b,c,d\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in (scale * rng.normal(size=(6, 4))).tolist())
        )
        assert run_cli(args[0], csv, "--out", tmp_path / "x", *args[1:]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fewer_samples_than_variables(self, tmp_path, rng):
        # every 2 x 2 block, and so every tree MLE, exists from n = 2 on; at
        # n = 2 every |correlation| is 1, so n = 4 here
        csv = tmp_path / "wide.csv"
        csv.write_text(
            ",".join(f"x{j}" for j in range(8)) + "\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in rng.normal(size=(4, 8)).tolist())
        )
        for args in (["fit", "--r", 0], ["fit", "--r", 1],
                     ["fit", "--method", "fixed-tree", "--r", 1], ["select", "--r", 2]):
            assert run_cli(args[0], csv, "--out", tmp_path / "out", *args[1:]) == 0

    def test_perfect_correlation_is_numerical_failure(self, duplicated_csv, tmp_path, capsys):
        for args in (["--r", 0], ["--r", 1], ["--method", "fixed-tree", "--r", 1]):
            assert run_cli("fit", duplicated_csv, "--out", tmp_path / "out", *args) == 4
            assert "variables 0 and 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_p0_recalibration_included(self, suite_dir, tmp_path):
        out = tmp_path / "fitp0"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("fit", csv, "--out", out, "--r", 0, "--p0", repr(2.0 / 8.0)) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["alpha_recalibrated"]["shape"] == [8, 8]

    def test_p0_recalibration_with_two_hidden_nodes(self, suite_dir, tmp_path):
        # 8 observed and 2 hidden nodes: 9 edges over 28 + 16 candidate pairs
        out = tmp_path / "fitp0r2"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("fit", csv, "--out", out, "--r", 2, "--p0", repr(9.0 / 44.0)) == 0
        payload = json.loads((out / "fit.json").read_text())
        alpha = matrix_from_json(payload["alpha"])
        recalibrated = matrix_from_json(payload["alpha_recalibrated"])
        assert recalibrated.shape == (10, 10)
        assert not np.array_equal(recalibrated, alpha)
        assert recalibrated.min() >= 0.0 and recalibrated.max() <= 1.0
        assert recalibrated[np.triu_indices(10, k=1)].sum() == pytest.approx(9.0, abs=1e-9)
        assert recalibrated[8, 9] == recalibrated[9, 8] == 0.0

    def test_byte_identical_rerun(self, suite_dir, tmp_path):
        csv = suite_dir / "rep_001" / "observed.csv"
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert run_cli("fit", csv, "--out", out, "--r", 1, "--seed", 3) == 0
        assert read_tree(out1) == read_tree(out2)


class TestSelect:
    def test_perfect_correlation_fails_every_row(self, duplicated_csv, tmp_path):
        out = tmp_path / "seldup"
        with pytest.warns(UserWarning, match="failed"):
            assert run_cli("select", duplicated_csv, "--out", out, "--r", 2) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert all("variables 0 and 3" in row["error"] for row in payload["rows"])
        assert set(payload["selected"].values()) == {None}

    def test_failed_rows_are_strict_json(self, duplicated_csv, tmp_path):
        out = tmp_path / "seldup"
        with pytest.warns(UserWarning, match="failed"):
            assert run_cli("select", duplicated_csv, "--out", out, "--r", 2) == 0
        payload = strict_json_loads((out / "selection.json").read_text())
        assert {row["loglik"] for row in payload["rows"]} == {None}

    def test_outputs_and_master_seed(self, suite_dir, tmp_path):
        out = tmp_path / "sel"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("select", csv, "--out", out, "--r", 1, "--seed", 11) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert payload["master_seed"] == 11
        assert len(payload["rows"]) == 2
        assert (out / "selection.csv").exists()

    def test_r_max_zero_single_row(self, suite_dir, tmp_path):
        out = tmp_path / "sel0"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("select", csv, "--out", out, "--r", 0) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert payload["selected"]["bic"] == 0
        assert len(payload["rows"]) == 1

    def test_csv_roundtrips_to_json_values(self, suite_dir, tmp_path):
        out = tmp_path / "selrt"
        csv = suite_dir / "rep_000" / "observed.csv"
        assert run_cli("select", csv, "--out", out, "--r", 1) == 0
        payload = json.loads((out / "selection.json").read_text())
        lines = (out / "selection.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], payload["rows"]):
            fields = dict(zip(header, line.split(",")))
            assert float(fields["loglik"]) == row["loglik"]
            assert float(fields["bic"]) == row["bic"]

    def test_workers_is_rejected(self, suite_dir, tmp_path):
        csv = suite_dir / "rep_000" / "observed.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("select", csv, "--out", tmp_path / "x", "--workers", 2)
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def fits_dir(suite_dir, tmp_path_factory):
    fits = tmp_path_factory.mktemp("fits")
    for rep in ("rep_000", "rep_001", "rep_002"):
        assert run_cli(
            "fit", suite_dir / rep / "observed.csv",
            "--out", fits / rep, "--r", 1, "--seed", 1,
        ) == 0
    return fits


@pytest.fixture(scope="module")
def two_hidden_suite(tmp_path_factory):
    """A one-replicate suite with p = 10 and r = 2 (hidden nodes 10 and 11),
    under data/, and its fixed-tree fit under fits/."""
    root = tmp_path_factory.mktemp("two_hidden")
    config = root / "sim.json"
    config.write_text(json.dumps(
        {"kind": "tree", "p": 10, "r": 2, "epsilon": 4.0, "n": 40, "replicates": 1, "seed": 5}
    ))
    assert run_cli("simulate", "--config", config, "--out", root / "data") == 0
    observed = root / "data" / "rep_000" / "observed.csv"
    args = ("--out", root / "fits" / "rep_000", "--r", 2, "--method", "fixed-tree")
    assert run_cli("fit", observed, *args) == 0
    return root


class TestEval:
    def test_end_to_end(self, suite_dir, fits_dir, tmp_path):
        out = tmp_path / "curves"
        assert run_cli("eval", "--data", suite_dir, "--fits", fits_dir, "--out", out) == 0
        for rep in ("rep_000", "rep_001", "rep_002"):
            assert (out / rep / "roc_full.csv").exists()
            assert (out / rep / "roc_marginal.csv").exists()
        summary = json.loads((out / "aggregate" / "auc_summary.json").read_text())
        assert set(summary["auc"]) == {"full", "marginal"}
        assert len(summary["auc"]["full"]["per_replicate"]) == 3
        assert (out / "aggregate" / "roc_full_mean.csv").exists()

    def test_missing_fit_names_replicate(self, suite_dir, fits_dir, tmp_path, capsys):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(fits_dir, partial)
        shutil.rmtree(partial / "rep_001")
        assert run_cli("eval", "--data", suite_dir, "--fits", partial, "--out", tmp_path / "x") == 3
        assert "rep_001" in capsys.readouterr().err

    @pytest.mark.parametrize("damaged", ["manifest", "ground_truth", "fit"])
    def test_malformed_input_is_data_error(self, suite_dir, fits_dir, tmp_path, capsys, damaged):
        # invalid JSON in the manifest, a ground-truth edge past the last
        # node, and a fit without its hidden count
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)
        if damaged == "manifest":
            (data / "manifest.json").write_text("{")
        elif damaged == "ground_truth":
            edit_json(
                data / "rep_001" / "ground_truth.json",
                lambda obj: obj["full_graph"]["edges"].append([0, 40]),
            )
        else:
            edit_json(fits / "rep_001" / "fit.json", lambda obj: obj.pop("r"))
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", tmp_path / "x") == 3
        assert f"{damaged}.json" in capsys.readouterr().err

    def test_full_graph_not_of_p_plus_r_nodes_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys
    ):
        # one node more than the precision covers; one fewer leaves an edge
        # past the last node, which the graph itself rejects
        import shutil

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        edit_json(
            data / "rep_001" / "ground_truth.json",
            lambda obj: obj["full_graph"].update(n_nodes=obj["p"] + obj["r"] + 1),
        )
        assert run_cli("eval", "--data", data, "--fits", fits_dir, "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert "data error" in err and "rep_001" in err and "nodes, not p + r" in err

    def test_full_graph_not_the_precision_support_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys
    ):
        # the path 0-1-...-8 in place of rep_001's tree; eval scored it, and
        # the full AUC of its fit fell from 1.0 to 0.391
        import shutil

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        edit_json(
            data / "rep_001" / "ground_truth.json",
            lambda obj: obj["full_graph"].update(edges=[[i, i + 1] for i in range(8)]),
        )
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits_dir, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "rep_001" in err and "precision's support" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["ground_truth", "fit"])
    @pytest.mark.parametrize(
        "bad_edge",
        [lambda i, j: [i], lambda i, j: [i, j, 99], lambda i, j: [i + 0.5, j],
         lambda i, j: [str(i), j], lambda i, j: [True, j]],
        ids=["one_endpoint", "three_endpoints", "float_endpoint", "string_endpoint",
             "bool_endpoint"],
    )
    def test_edge_not_two_integers_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, source, bad_edge
    ):
        # a full_graph edge or a fixed-tree edge; eval read [i] with an
        # IndexError traceback, [i, j, 99], [i + 0.5, j] and ["i", j] as
        # (i, j), and [true, j] as (1, j)
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)

        def damage(edges):
            edges[0] = bad_edge(*edges[0])

        if source == "ground_truth":
            edit_json(data / "rep_001" / "ground_truth.json",
                      lambda obj: damage(obj["full_graph"]["edges"]))
        else:
            observed = suite_dir / "rep_001" / "observed.csv"
            args = ("--out", fits / "rep_001", "--r", 1, "--method", "fixed-tree")
            assert run_cli("fit", observed, *args) == 0
            edit_json(fits / "rep_001" / "fit.json", lambda obj: damage(obj["tree"]))
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "rep_001" in err and f"{source}.json" in err
        assert "endpoint" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["ground_truth", "fit"])
    def test_hidden_hidden_entry_is_data_error(self, two_hidden_suite, tmp_path, capsys, source):
        # the model never joins two hidden nodes, so a precision with a
        # nonzero hidden-hidden entry is not one of its precisions; the
        # ground truth's full_graph gets the matching edge, so its support
        # check passes
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(two_hidden_suite / "data", data)
        shutil.copytree(two_hidden_suite / "fits", fits)
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", tmp_path / "ok") == 0

        def join_hidden(obj):
            size = obj["precision"]["shape"][0]
            obj["precision"]["data"][10 * size + 11] = obj["precision"]["data"][11 * size + 10] = -0.5
            if source == "ground_truth":
                obj["full_graph"]["edges"].append([10, 11])

        path = data / "rep_000" / "ground_truth.json" if source == "ground_truth" else fits / "rep_000" / "fit.json"
        edit_json(path, join_hidden)
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"{source}.json" in err and "hidden-hidden" in err
        assert not out.exists()

    def test_nonpositive_hidden_diagonal_is_data_error(self, suite_dir, fits_dir, tmp_path, capsys):
        # the marginal inverts the hidden block by its reciprocal diagonal,
        # which would turn a zero into inf and NaN and score the replicate;
        # the precision is rejected as not positive definite when it is built
        import shutil

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        edit_json(data / "rep_001" / "ground_truth.json",
                  lambda obj: obj["precision"]["data"].__setitem__(-1, 0.0))
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits_dir, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "ground_truth.json" in err and "not positive definite" in err
        assert not out.exists()

    def test_indefinite_fixed_tree_precision_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys
    ):
        # K[0, 0] = 1e-3 keeps every diagonal entry positive, but K has a
        # negative eigenvalue; eval used to score it
        import shutil

        fits = tmp_path / "fits"
        shutil.copytree(fits_dir, fits)
        observed = suite_dir / "rep_001" / "observed.csv"
        args = ("--out", fits / "rep_001", "--r", 1, "--method", "fixed-tree")
        assert run_cli("fit", observed, *args) == 0
        edit_json(fits / "rep_001" / "fit.json",
                  lambda obj: obj["precision"]["data"].__setitem__(0, 1e-3))
        precision = matrix_from_json(json.loads((fits / "rep_001" / "fit.json").read_text())["precision"])
        assert np.all(np.diag(precision) > 0.0) and np.linalg.eigvalsh(precision)[0] < 0.0
        out = tmp_path / "x"
        assert run_cli("eval", "--data", suite_dir, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "fit.json" in err and "not positive definite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("epsilon", "10"), ("epsilon", True), ("epsilon", 10**400), ("snr", "0.5"),
         ("snr", float("nan")), ("diag_adjust", False), ("diag_adjust", float("inf"))],
        ids=["epsilon_string", "epsilon_bool", "epsilon_past_float_range", "snr_string",
             "snr_nan", "diag_adjust_bool", "diag_adjust_inf"],
    )
    def test_truth_scalar_not_a_finite_number_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, key, value
    ):
        # epsilon, snr and diag_adjust were read with float(), which took
        # "10" as 10.0 and true as 1.0
        import shutil

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        edit_json(data / "rep_001" / "ground_truth.json", lambda obj: obj.__setitem__(key, value))
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits_dir, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "ground_truth.json" in err and key in err
        assert not out.exists()

    def test_matrix_entry_past_float_range_is_data_error(self, suite_dir, fits_dir, tmp_path, capsys):
        # an integer too large for a float failed with an OverflowError traceback
        import shutil

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        edit_json(data / "rep_001" / "ground_truth.json",
                  lambda obj: obj["precision"]["data"].__setitem__(0, 10**400))
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits_dir, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "ground_truth.json" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "ids",
        [["rep_000", 5, "rep_002"], ["rep_000", "sub/../../escaped", "rep_002"], [],
         ["rep_000", "rep_001", "rep_001"], ["rep_000", "..", "rep_002"], ["", "rep_001"]],
        ids=["integer", "escaping_path", "empty_list", "repeated", "dot_dot", "empty_string"],
    )
    def test_bad_replicate_id_is_data_error(self, suite_dir, fits_dir, tmp_path, capsys, ids):
        # each id names a directory under --data, --fits and --out: an id
        # that is not a string failed with a traceback, one that climbs out
        # of --out wrote its curves outside it, no replicate failed in
        # mean_roc, and a repeated one was averaged twice into the mean curves
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)
        # the escaping id reaches a readable replicate, so only its name can stop it
        for root in (data, fits):
            (root / "sub").mkdir()
        shutil.copytree(suite_dir / "rep_001", tmp_path / "escaped")
        shutil.copy(fits / "rep_001" / "fit.json", tmp_path / "escaped")
        edit_json(data / "manifest.json",
                  lambda obj: obj.__setitem__("replicates", [{"id": i, "seed": 0} for i in ids]))
        out = tmp_path / "o" / "x"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "manifest.json" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "source, keys, value",
        [("ground_truth", ("p",), "8"), ("ground_truth", ("r",), 1.9),
         ("ground_truth", ("seed",), True), ("ground_truth", ("full_graph", "n_nodes"), 9.0),
         ("fit", ("p",), 8.0), ("fit", ("r",), True)],
        ids=["truth_p_string", "truth_r_float", "truth_seed_bool", "graph_n_nodes_float",
             "fit_p_float", "fit_r_bool"],
    )
    def test_count_not_an_integer_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, source, keys, value
    ):
        # each count used to be read with int(), which took 1.9 as 1, "8" as 8
        # and true as 1
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)

        def damage(obj):
            for key in keys[:-1]:
                obj = obj[key]
            obj[keys[-1]] = value

        path = data / "rep_001" / "ground_truth.json" if source == "ground_truth" else fits / "rep_001" / "fit.json"
        edit_json(path, damage)
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"{source}.json" in err
        assert f"{keys[-1]}: expected an integer, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, key, value",
        [("ground_truth", "precision", "1.5"), ("fit", "alpha", True)],
        ids=["truth_precision_string", "fit_alpha_bool"],
    )
    def test_matrix_entry_not_a_number_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, source, key, value
    ):
        # a matrix was read with np.array(..., dtype=float), which took "1.5"
        # as 1.5 and true as 1.0
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)
        path = data / "rep_001" / "ground_truth.json" if source == "ground_truth" else fits / "rep_001" / "fit.json"
        edit_json(path, lambda obj: obj[key]["data"].__setitem__(1, value))
        out = tmp_path / "x"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"{source}.json" in err
        assert f"matrix entry 1 is {value!r}, not a number" in err
        assert not out.exists()

    def test_stored_marginal_parts_are_not_read(self, suite_dir, fits_dir, tmp_path):
        # eval recomputes the hidden labels and the marginal graph from the
        # precision, so a stale copy of them in ground_truth.json moves nothing
        import shutil

        def stale(obj):
            obj["hidden"] = [0]
            obj["marginal_graph"] = {"n_nodes": obj["p"] - 1, "edges": [[0, 1]]}
            obj["marginal_precision"] = {"shape": [1, 1], "data": [1.0]}

        data = tmp_path / "data"
        shutil.copytree(suite_dir, data)
        for rep in ("rep_000", "rep_001", "rep_002"):
            edit_json(data / rep / "ground_truth.json", stale)
        for source, out in ((suite_dir, tmp_path / "a"), (data, tmp_path / "b")):
            assert run_cli("eval", "--data", source, "--fits", fits_dir, "--out", out) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    @pytest.mark.parametrize("damaged", ["manifest", "ground_truth", "fit"])
    def test_input_that_is_a_directory_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, damaged
    ):
        import shutil

        data, fits = tmp_path / "data", tmp_path / "fits"
        shutil.copytree(suite_dir, data)
        shutil.copytree(fits_dir, fits)
        path = {
            "manifest": data / "manifest.json",
            "ground_truth": data / "rep_001" / "ground_truth.json",
            "fit": fits / "rep_001" / "fit.json",
        }[damaged]
        path.unlink()
        path.mkdir()
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", tmp_path / "x") == 3
        assert f"{damaged}.json" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["aggregation", "fixed-tree"])
    def test_nonfinite_scores_are_data_error(self, suite_dir, fits_dir, tmp_path, capsys, method):
        # a NaN edge posterior, and a NaN precision entry on a fixed-tree edge
        import shutil

        fits = tmp_path / "fits"
        shutil.copytree(fits_dir, fits)
        fit_json = fits / "rep_001" / "fit.json"
        if method == "fixed-tree":
            observed = suite_dir / "rep_001" / "observed.csv"
            args = ("--out", fits / "rep_001", "--r", 1, "--method", method)
            assert run_cli("fit", observed, *args) == 0

        def poison(obj):
            key = "alpha" if method == "aggregation" else "precision"
            i, j = obj["tree"][0] if method == "fixed-tree" else (0, 1)
            size = obj[key]["shape"][0]
            obj[key]["data"][i * size + j] = obj[key]["data"][j * size + i] = float("nan")

        edit_json(fit_json, poison)
        assert run_cli("eval", "--data", suite_dir, "--fits", fits, "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert "data error" in err and "rep_001" in err and "fit.json" in err

    @pytest.mark.parametrize("mismatch", ["p", "alpha", "tree", "r"])
    def test_fit_not_matching_truth_is_data_error(
        self, suite_dir, fits_dir, tmp_path, capsys, mismatch
    ):
        # a fit whose p is not the ground truth's, an alpha that is not
        # (p + r) square, a fixed-tree edge past the last node, and a
        # well-formed r = 0 fit under the full target, which matches fitted
        # hidden nodes to the truth's one to one
        import shutil

        fits = tmp_path / "fits"
        shutil.copytree(fits_dir, fits)
        fit_json = fits / "rep_001" / "fit.json"
        observed = suite_dir / "rep_001" / "observed.csv"
        if mismatch == "p":
            edit_json(fit_json, lambda obj: obj.update(p=4))
        elif mismatch == "alpha":
            edit_json(fit_json, lambda obj: obj.update(alpha={"data": [0.0], "shape": [1, 1]}))
        elif mismatch == "tree":
            args = ("--out", fits / "rep_001", "--r", 1, "--method", "fixed-tree")
            assert run_cli("fit", observed, *args) == 0
            edit_json(fit_json, lambda obj: obj["tree"].append([0, 9]))
        else:
            assert run_cli("fit", observed, "--out", fits / "rep_001", "--r", 0) == 0
        assert run_cli("eval", "--data", suite_dir, "--fits", fits, "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert "rep_001" in err and "fit.json" in err
        if mismatch != "r":
            return
        marginal_only = tmp_path / "marginal.json"
        marginal_only.write_text(json.dumps({"targets": ["marginal"]}))
        assert run_cli(
            "eval", "--data", suite_dir, "--fits", fits, "--out", tmp_path / "m",
            "--config", marginal_only,
        ) == 0

    def test_no_spurious_noted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "tree", "p": 6, "r": 0, "n": 30, "replicates": 1, "seed": 4}))
        data = tmp_path / "d"
        assert run_cli("simulate", "--config", cfg, "--out", data) == 0
        fits = tmp_path / "f"
        assert run_cli("fit", data / "rep_000" / "observed.csv", "--out", fits / "rep_000", "--r", 0) == 0
        out = tmp_path / "c"
        assert run_cli("eval", "--data", data, "--fits", fits, "--out", out) == 0
        summary = json.loads((out / "aggregate" / "auc_summary.json").read_text())
        assert any("no spurious edges" in note for note in summary["notes"])

    def test_byte_identical_rerun(self, suite_dir, fits_dir, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            assert run_cli("eval", "--data", suite_dir, "--fits", fits_dir, "--out", out) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_workers_match_serial(self, suite_dir, fits_dir, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, workers in ((serial, 1), (parallel, 2)):
            assert run_cli(
                "eval", "--data", suite_dir, "--fits", fits_dir, "--out", out, "--workers", workers
            ) == 0
        assert read_tree(serial) == read_tree(parallel)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "treeagg.cli", "simulate", "--out", str(tmp_path / "o"),
             "--seed", "1", "--config", "/dev/null"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 2  # /dev/null is not valid JSON -> config error

    def test_startup_imports_numpy_only(self):
        # Every CLI process pays for what the package imports at start-up:
        # beyond the standard library only numpy, not the process pool,
        # which only --workers > 1 needs, and not dataclasses, whose class
        # generation costs every process time at import.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import treeagg, treeagg.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n"
            "print(sorted(new & {'concurrent', 'multiprocessing'}))\n"
            "print('dataclasses' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["['numpy', 'treeagg']", "[]", "False"]

    def test_help_runs(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "command, keys, options",
        [
            ("simulate", cli.SIMULATE_KEYS, {"--r", "--seed", "--workers"}),
            ("fit", cli.FIT_KEYS, {"--method", "--r", "--p0", "--seed", "--workers"}),
            ("select", cli.SELECT_KEYS, {"--r", "--seed"}),
            ("eval", cli.EVAL_KEYS, {"--data", "--fits", "--workers"}),
        ],
        ids=["simulate", "fit", "select", "eval"],
    )
    def test_flags_are_the_key_tables(self, capsys, command, keys, options):
        # a flag overrides its config key, so it is declared in the key table
        # and nowhere else; the rest are each command's inputs and outputs
        subparsers = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        parsed = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
        flags = {f"--{flag}" for flag, *_ in keys.values() if flag}
        workers = {"--workers"} if command != "select" else set()
        inputs = {"--data", "--fits"} if command == "eval" else set()
        assert parsed - {"-h", "--help"} == {"--config", "--out"} | flags | workers | inputs
        assert parsed - {"-h", "--help", "--config", "--out"} == options
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage: treeagg " + command in capsys.readouterr().out
