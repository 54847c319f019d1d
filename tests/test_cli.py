import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treeagg
from treeagg.cli import main
from treeagg.matrices import matrix_from_json

from conftest import duplicated_column_data, strict_json_loads


def run_cli(*args):
    return main([str(a) for a in args])


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
        ],
        ids=["fit-p0", "fit-r", "select-r", "simulate-r", "simulate-p", "fit-max_iter",
             "eval-grid_size", "fit-p0-unreachable", "fit-p0-nan", "fit-p0-unreachable-r2",
             "fit-p0-fixed-tree",
             "fit-method", "eval-two_hop-string", "simulate-n-fraction", "fit-max_iter-bool",
             "eval-targets-string", "simulate-p_edge-erdos", "simulate-n-one",
             "eval-grid_size-negative", "eval-grid_size-one"],
    )
    def test_bad_value_is_config_error(
        self, suite_dir, tmp_path, capsys, command, flags, config, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        if command == "simulate":
            data = []
        elif command == "eval":
            data = ["--data", suite_dir, "--fits", tmp_path]
        else:
            data = [suite_dir / "rep_000" / "observed.csv"]
        code = run_cli(command, *data, *flags, "--config", cfg, "--out", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert re.search(rf"\b{key}\b", err), err
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

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        assert run_cli("fit", csv, "--out", tmp_path / "x") == 3
        assert "bad.csv:3" in capsys.readouterr().err

    def test_insufficient_rows(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("a,b\n1.0,2.0\n")
        assert run_cli("fit", csv, "--out", tmp_path / "x") == 3

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


def child_env():
    """Environment in which a child process imports the same treeagg as this
    one, also when the tests find it through pytest's pythonpath setting only."""
    src = str(Path(treeagg.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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
        # beyond the standard library only numpy, and not the process pool,
        # which only --workers > 1 needs.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import treeagg, treeagg.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n"
            "print(sorted(new & {'concurrent', 'multiprocessing'}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["['numpy', 'treeagg']", "[]"]

    def test_help_runs(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
