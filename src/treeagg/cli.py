"""Batch front-end: simulate replicate suites, fit models, select r, evaluate.

All outputs are deterministic given the config and master seed: JSON is
written with sorted keys, CSV floats with shortest round-trip repr, and no
timestamps or absolute paths are embedded.  Exit codes: 0 success, 2 config
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import em, evaluate, selection, simulate
from .errors import (
    CalibrationError, ConfigError, DataError, DegenerateCurveError, TreeAggError
)
from .fixed_tree import fit_fixed_tree
from .graphs import Graph
from .matrices import (
    EmpiricalCovariance,
    PartitionedPrecision,
    matrix_from_json,
    matrix_to_json,
)
from .spanning_trees import require_feasible_target

METHODS = ("aggregation", "fixed-tree")
SEED_LABEL_HELP = "recorded as master_seed; fits draw no random numbers"


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")

def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])

def _write_data_csv(path: Path, data: np.ndarray) -> None:
    header = [f"x{j + 1}" for j in range(data.shape[1])]
    _write_csv(path, header, data)

def _read_data_csv(path: Path) -> np.ndarray:
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 samples, got {len(rows)}")
    return np.array(rows, dtype=float)

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return obj


def _read_json(path: Path, missing: str, parse):
    """parse(the JSON object in `path`), with DataError for bad data.

    A missing file raises DataError(`missing`); invalid JSON, and a key or a
    value that `parse` cannot read, raise DataError naming the file.
    """
    if not path.exists():
        raise DataError(missing)
    try:
        return parse(json.loads(path.read_text()))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _map(func, jobs: list, workers: int) -> list:
    """[func(job) for job in jobs], over a process pool when workers > 1."""
    if workers <= 1:
        return [func(job) for job in jobs]
    # Imported here: the process pool costs every other run its import.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs))


def _resolve(config: dict, args, keys: dict) -> dict:
    """Merge config-file values, CLI overrides and defaults; reject unknown keys."""
    unknown = set(config) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (flag, default, cast) in keys.items():
        value = getattr(args, flag, None) if flag else None
        if value is None:
            value = config.get(key, default)
        if value is None:
            raise ConfigError(f"missing required config key: {key}")
        try:
            out[key] = cast(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: cannot read {value!r} as {cast.__name__}") from None
    return out


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

SIMULATE_KEYS = {
    "kind": (None, "tree", str),
    "p": (None, 20, int),
    "r": ("r", 1, int),
    "p_edge": (None, 0.1, float),
    "epsilon": (None, 1.0, float),
    "n": (None, 30, int),
    "replicates": (None, 50, int),
    "seed": ("seed", 0, int),
}


def _replicate_id(index: int) -> str:
    return f"rep_{index:03d}"


def _simulate_one(payload: tuple) -> tuple[str, int]:
    out_dir, config, rep_id, rep_seed = payload
    truth = simulate.make_ground_truth(
        kind=config["kind"],
        size=config["p"] + config["r"],
        r=config["r"],
        epsilon=config["epsilon"],
        seed=rep_seed,
        p_edge=config["p_edge"],
    )
    _, observed = simulate.sample_and_marginalize(
        truth.precision, config["n"], simulate.sample_seed(rep_seed)
    )
    rep_dir = Path(out_dir) / rep_id
    rep_dir.mkdir(parents=True, exist_ok=True)
    _write_json(rep_dir / "ground_truth.json", truth.to_json_dict())
    _write_data_csv(rep_dir / "observed.csv", observed)
    return rep_id, rep_seed


def cmd_simulate(args) -> int:
    config = _resolve(_load_config(args.config), args, SIMULATE_KEYS)
    if config["kind"] not in ("tree", "erdos"):
        raise ConfigError(f"unknown graph kind {config['kind']!r}")
    if config["p"] < 2:
        raise ConfigError("p must be >= 2")
    if config["r"] < 0:
        raise ConfigError("r must be >= 0")
    if config["replicates"] < 1:
        raise ConfigError("replicates must be >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seq = np.random.SeedSequence(config["seed"])
    seeds = [int(c.generate_state(1)[0]) for c in seq.spawn(config["replicates"])]
    jobs = [
        (str(out_dir), config, _replicate_id(i), seeds[i])
        for i in range(config["replicates"])
    ]
    results = sorted(_map(_simulate_one, jobs, args.workers))
    manifest = {
        "command": "simulate",
        "config": config,
        "config_hash": _config_hash(config),
        "master_seed": config["seed"],
        "replicates": [{"id": rep_id, "seed": seed} for rep_id, seed in results],
    }
    _write_json(out_dir / "manifest.json", manifest)
    return 0


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

FIT_KEYS = {
    "method": ("method", "aggregation", str),
    "r": ("r", 0, int),
    "p0": ("p0", "", str),
    "max_iter": (None, 500, int),
    "tol": (None, 1e-6, float),
    "seed": ("seed", 0, int),
}


def _fit_payload(config: dict, cov: EmpiricalCovariance) -> dict:
    method = config["method"]
    opts = em.FitOptions(max_iter=config["max_iter"], tol=config["tol"])
    r = config["r"]
    payload = {
        "command": "fit",
        "method": method,
        "config": config,
        "config_hash": _config_hash(config),
        "master_seed": config["seed"],
        "n": cov.n,
        "p": cov.size,
        "r": r,
    }
    if method == "aggregation":
        result = em.fit(cov, r, opts=opts)
        payload.update(
            converged=result.converged,
            iterations=result.iterations,
            loglik=result.loglik,
            loglik_trace=list(result.loglik_trace),
            h_tree=result.h_tree,
            h_joint=result.h_joint,
            alpha=matrix_to_json(result.alpha),
            precision=matrix_to_json(result.precision.matrix),
        )
        if config["p0"]:
            p0 = float(config["p0"])
            payload["p0"] = p0
            payload["alpha_recalibrated"] = matrix_to_json(
                em.edge_posteriors(result, p0)
            )
    else:
        result = fit_fixed_tree(cov, r, opts=opts)
        payload.update(
            converged=result.converged,
            iterations=result.iterations,
            loglik=result.loglik_trace[-1] if result.loglik_trace else None,
            loglik_trace=list(result.loglik_trace),
            tree=[list(e) for e in result.tree],
            precision=matrix_to_json(result.precision.matrix),
        )
    return payload


def cmd_fit(args) -> int:
    config = _resolve(_load_config(args.config), args, FIT_KEYS)
    if config["method"] not in METHODS:
        raise ConfigError(f"unknown method {config['method']!r}; expected one of {METHODS}")
    if config["r"] < 0:
        raise ConfigError("r must be >= 0")
    if config["p0"]:
        if config["method"] != "aggregation":
            raise ConfigError(f"p0 applies to method aggregation only, not {config['method']}")
        try:
            float(config["p0"])
        except ValueError:
            raise ConfigError(f"p0: cannot read {config['p0']!r} as float") from None
    data = _read_data_csv(Path(args.data))
    cov = EmpiricalCovariance.from_data(data)
    if config["p0"]:
        try:
            require_feasible_target(cov.size, config["r"], float(config["p0"]))
        except CalibrationError as exc:
            raise ConfigError(f"p0: {exc}") from None
    payload = _fit_payload(config, cov)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "fit.json", payload)
    return 0


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------

SELECT_KEYS = {
    "r_max": ("r", 3, int),
    "max_iter": (None, 500, int),
    "tol": (None, 1e-6, float),
    "seed": ("seed", 0, int),
}


def cmd_select(args) -> int:
    config = _resolve(_load_config(args.config), args, SELECT_KEYS)
    if config["r_max"] < 0:
        raise ConfigError("r_max must be >= 0")
    data = _read_data_csv(Path(args.data))
    cov = EmpiricalCovariance.from_data(data)
    opts = em.FitOptions(max_iter=config["max_iter"], tol=config["tol"])
    report = selection.select(
        cov, r_max=config["r_max"], opts=opts, master_seed=config["seed"]
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_json_dict()
    payload.update(
        command="select", config=config, config_hash=_config_hash(config)
    )
    _write_json(out_dir / "selection.json", payload)
    report.write_csv(out_dir / "selection.csv")
    return 0


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

EVAL_KEYS = {
    "targets": (None, ["full", "marginal"], list),
    "grid_size": (None, 101, int),
    "two_hop": (None, False, bool),
}


def _fit_source(payload: dict) -> SimpleNamespace:
    """Duck-typed score source reconstructed from a fit.json payload."""
    p, r = int(payload["p"]), int(payload["r"])
    if "alpha" in payload:
        alpha = matrix_from_json(payload["alpha"])
        if alpha.shape != (p + r, p + r):
            raise ValueError(f"alpha has shape {alpha.shape}, not p + r = {p + r} square")
        return SimpleNamespace(
            alpha=alpha,
            tree=None,
            n_observed=p,
            n_hidden=r,
        )
    precision = PartitionedPrecision(matrix_from_json(payload["precision"]), p, r)
    return SimpleNamespace(
        alpha=None,
        tree=Graph.from_edges(p + r, payload["tree"]).edges,
        precision=precision,
        n_observed=p,
        n_hidden=r,
    )


def _eval_one(payload: tuple) -> dict:
    data_dir, fits_dir, out_dir, config, rep_id = payload
    truth = _read_json(
        Path(data_dir) / rep_id / "ground_truth.json",
        f"missing ground truth for replicate {rep_id}",
        simulate.GroundTruth.from_json_dict,
    )
    fit_path = Path(fits_dir) / rep_id / "fit.json"
    fit = _read_json(fit_path, f"missing fit for replicate {rep_id}", _fit_source)
    if fit.n_observed != truth.n_observed:
        raise DataError(
            f"{fit_path}: p = {fit.n_observed}, ground truth has p = {truth.n_observed}"
        )
    # the full target matches fitted hidden nodes to true ones one to one
    if "full" in config["targets"] and fit.n_hidden != truth.n_hidden:
        raise DataError(
            f"{fit_path}: r = {fit.n_hidden}, ground truth has r = {truth.n_hidden}, "
            "which the full target needs"
        )
    rep_out = Path(out_dir) / rep_id
    rep_out.mkdir(parents=True, exist_ok=True)

    result = {"id": rep_id, "auc": {}, "notes": [], "curves": {}}
    for target in config["targets"]:
        curve = evaluate.roc_target(fit, truth, target)
        _write_csv(
            rep_out / f"roc_{target}.csv",
            ["threshold", "fpr", "power"],
            zip(curve.thresholds, curve.fpr, curve.power),
        )
        result["auc"][target] = curve.auc
        result["curves"][target] = curve
    scores_marginal = evaluate.score_edges(fit, "marginal", two_hop=config["two_hop"])
    try:
        sp = evaluate.spurious_curve(scores_marginal, truth)
        _write_csv(
            rep_out / "spurious.csv",
            ["threshold", "density", "spurious_fraction"],
            zip(sp.thresholds, sp.density, sp.spurious_fraction),
        )
        result["curves"]["spurious"] = sp
    except DegenerateCurveError:
        result["notes"].append(f"{rep_id}: no spurious edges, curve omitted")
    return result


def cmd_eval(args) -> int:
    config = _resolve(_load_config(args.config), args, EVAL_KEYS)
    for target in config["targets"]:
        if target not in ("full", "marginal"):
            raise ConfigError(f"unknown eval target {target!r}")
    data_dir = Path(args.data)
    manifest_path = data_dir / "manifest.json"
    rep_ids, dataset_hash = _read_json(
        manifest_path,
        f"dataset manifest not found: {manifest_path}",
        lambda manifest: (
            [entry["id"] for entry in manifest["replicates"]], manifest.get("config_hash")
        ),
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(str(data_dir), str(args.fits), str(out_dir), config, rep) for rep in rep_ids]
    results = sorted(_map(_eval_one, jobs, args.workers), key=lambda item: item["id"])

    agg_dir = out_dir / "aggregate"
    agg_dir.mkdir(exist_ok=True)
    summary = {
        "command": "eval",
        "config": config,
        "config_hash": _config_hash(config),
        "dataset_hash": dataset_hash,
        "auc": {},
        "notes": sorted(note for item in results for note in item["notes"]),
    }
    grid_size = config["grid_size"]
    for target in config["targets"]:
        per_rep = {item["id"]: item["auc"][target] for item in results}
        values = np.array(list(per_rep.values()))
        summary["auc"][target] = {
            "per_replicate": per_rep,
            "mean": float(values.mean()),
            "sd": float(values.std()),
        }
        curves = [item["curves"][target] for item in results]
        grid, mean, sd = evaluate.mean_roc(curves, grid_size)
        _write_csv(
            agg_dir / f"roc_{target}_mean.csv",
            ["fpr", "power_mean", "power_sd"],
            zip(grid, mean, sd),
        )
    spurious_curves = [
        item["curves"]["spurious"] for item in results if "spurious" in item["curves"]
    ]
    if spurious_curves:
        grid, mean, sd = evaluate.mean_spurious(spurious_curves, grid_size)
        _write_csv(
            agg_dir / "spurious_mean.csv",
            ["density", "fraction_mean", "fraction_sd"],
            zip(grid, mean, sd),
        )
    _write_json(agg_dir / "auc_summary.json", summary)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeagg",
        description="Latent-tree aggregation for Gaussian graphical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a replicate suite")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="master seed (overrides config)")
    sim.add_argument("--r", type=int, help="number of hidden nodes")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model to a data CSV")
    fit.add_argument("data", help="CSV with a header row, n rows x p columns")
    fit.add_argument("--config", help="JSON config file")
    fit.add_argument("--out", required=True)
    fit.add_argument("--method", choices=METHODS)
    fit.add_argument("--r", type=int, help="number of hidden nodes")
    fit.add_argument("--p0", help="recalibrate edge posteriors to this prior marginal")
    fit.add_argument("--seed", type=int, help=SEED_LABEL_HELP)
    fit.add_argument("--workers", type=int, default=1)
    fit.set_defaults(func=cmd_fit)

    sel = sub.add_parser("select", help="estimate the number of hidden nodes")
    sel.add_argument("data")
    sel.add_argument("--config", help="JSON config file")
    sel.add_argument("--out", required=True)
    sel.add_argument("--r", type=int, help="largest hidden count to try (r_max)")
    sel.add_argument("--seed", type=int, help=SEED_LABEL_HELP)
    sel.set_defaults(func=cmd_select)

    ev = sub.add_parser("eval", help="score fits against a simulated dataset")
    ev.add_argument("--data", required=True, help="dataset directory from simulate")
    ev.add_argument("--fits", required=True, help="directory with <rep>/fit.json")
    ev.add_argument("--out", required=True)
    ev.add_argument("--config", help="JSON config file")
    ev.add_argument("--workers", type=int, default=1)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (TreeAggError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
