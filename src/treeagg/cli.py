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
    CalibrationError, ConfigError, DataError, DegenerateCurveError, InfeasibleHiddenSetError,
    TreeAggError,
)
from .fixed_tree import fit_fixed_tree
from .graphs import Graph, json_int
from .matrices import (
    EmpiricalCovariance,
    PartitionedPrecision,
    matrix_from_json,
    matrix_to_json,
)


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")

def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])

def _out_dir(path: str | Path) -> Path:
    """The output directory `path`, made if need be; ConfigError if it cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot make a directory ({exc.strerror})") from None
    return Path(path)

def _read_data_csv(path: Path) -> np.ndarray:
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
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
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 samples, got {len(rows)}")
    return np.array(rows, dtype=float)

def _read_json(path: Path, missing: str, parse, error=DataError):
    """parse(the JSON value in `path`), raising `error` for a bad file.

    A missing file raises error(`missing`); an unreadable path, invalid JSON,
    and a key or a value that `parse` cannot read, raise `error` naming the file.
    """
    if not path.exists():
        raise error(missing)
    try:
        return parse(json.loads(path.read_text()))
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise error(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{path}: {exc}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    path = Path(path)
    config = _read_json(path, f"config file not found: {path}", lambda obj: obj, ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config


def _map(func, jobs: list, workers: int) -> list:
    """[func(job) for job in jobs], over a process pool when workers > 1."""
    if workers <= 1:
        return [func(job) for job in jobs]
    # Imported here: the process pool costs every other run its import.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs))


def _require_type(key: str, value, cast) -> None:
    """Raise ConfigError unless a config-file value has its key's JSON type.

    A bool key takes a boolean, an int key an integral number, a float key a
    finite number and a list key a list; a boolean is not a number.  A str
    key takes any value.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    expected, fits = {
        bool: ("a boolean", isinstance(value, bool)),
        int: ("an integral number", number and (isinstance(value, int) or value.is_integer())),
        # false for inf, NaN and an integer too large for a float
        float: ("a finite number", number and abs(value) <= sys.float_info.max),
        list: ("a list", isinstance(value, list)),
    }.get(cast, (None, True))
    if not fits:
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")


def _require_domain(key: str, value, domain) -> None:
    """Raise ConfigError unless a value lies in its key's domain.

    A number is a lower bound (NaN is below every bound), a tuple lists the
    choices (a list value takes one or more of them, each once), and None
    takes any value.
    """
    if isinstance(domain, tuple):
        values = value if isinstance(value, list) else [value]
        bad = [v for v in values if v not in domain]
        if bad:
            raise ConfigError(f"{key}: expected one of {list(domain)}, got {bad[0]!r}")
        if not values or len(set(values)) < len(values):
            raise ConfigError(f"{key}: expected distinct choices, at least one, got {value!r}")
    elif domain is not None and not value >= domain:
        raise ConfigError(f"{key}: expected a value >= {domain}, got {value!r}")


def _resolve(config: dict, args, keys: dict) -> dict:
    """Merge config-file values, CLI overrides and defaults; reject unknown keys.

    Each key maps to (flag, default, type, domain).  A flag's value is taken
    as argparse typed it; a config-file value must pass `_require_type`.
    Either must then pass `_require_domain`.
    """
    unknown = set(config) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (flag, default, cast, domain) in keys.items():
        value = getattr(args, flag, None) if flag else None
        if value is None:
            value = config.get(key, default)
            if value is None:
                raise ConfigError(f"missing required config key: {key}")
            _require_type(key, value, cast)
            value = cast(value)
        _require_domain(key, value, domain)
        out[key] = value
    return out


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

SIMULATE_KEYS = {
    "kind": (None, "tree", str, ("tree", "erdos")),
    "p": (None, 20, int, 2),
    "r": ("r", 1, int, 0),
    "p_edge": (None, 0.1, float, None),  # inside (0, 1) for kind erdos
    "epsilon": (None, 1.0, float, 0.0),
    "n": (None, 30, int, 2),
    "replicates": (None, 50, int, 1),
    "seed": ("seed", 0, int, 0),
}


def _simulate_one(payload: tuple) -> tuple[simulate.GroundTruth, np.ndarray]:
    """(ground truth, observed sample) of one replicate."""
    config, rep_id, rep_seed = payload
    try:
        truth = simulate.make_ground_truth(
            kind=config["kind"],
            size=config["p"] + config["r"],
            r=config["r"],
            epsilon=config["epsilon"],
            seed=rep_seed,
            p_edge=config["p_edge"],
        )
    except InfeasibleHiddenSetError as exc:
        raise ConfigError(f"r: replicate {rep_id} (seed {rep_seed}) has {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"replicate {rep_id} (seed {rep_seed}): {exc}") from None
    _, observed = simulate.sample_and_marginalize(
        truth.precision, config["n"], simulate.sample_seed(rep_seed)
    )
    return truth, observed


def cmd_simulate(args) -> int:
    config = _resolve(_load_config(args.config), args, SIMULATE_KEYS)
    if config["kind"] == "erdos" and not 0.0 < config["p_edge"] < 1.0:
        raise ConfigError(
            f"p_edge must be inside (0, 1) for kind erdos, got {config['p_edge']}"
        )
    seq = np.random.SeedSequence(config["seed"])
    seeds = [int(c.generate_state(1)[0]) for c in seq.spawn(config["replicates"])]
    jobs = [(config, f"rep_{i:03d}", seed) for i, seed in enumerate(seeds)]
    draws = _map(_simulate_one, jobs, args.workers)
    # written only once every replicate is drawn, so a failed draw leaves no partial suite
    out_dir = _out_dir(args.out)
    for (_, rep_id, _), (truth, observed) in zip(jobs, draws):
        rep_dir = _out_dir(out_dir / rep_id)
        _write_json(rep_dir / "ground_truth.json", truth.to_json_dict())
        _write_csv(rep_dir / "observed.csv", [f"x{j + 1}" for j in range(config["p"])], observed)
    manifest = {
        "command": "simulate",
        "config": config,
        "config_hash": _config_hash(config),
        "master_seed": config["seed"],
        "replicates": [{"id": rep_id, "seed": seed} for _, rep_id, seed in jobs],
    }
    _write_json(out_dir / "manifest.json", manifest)
    return 0


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

FIT_KEYS = {
    "method": ("method", "aggregation", str, ("aggregation", "fixed-tree")),
    "r": ("r", 0, int, 0),
    "p0": ("p0", "", str, None),  # checked in cmd_fit against method, p and r
    "max_iter": (None, 500, int, 0),
    "tol": (None, 1e-6, float, 0.0),
    "seed": ("seed", 0, int, None),
}


def _fit_payload(config: dict, cov: EmpiricalCovariance, p0: float | None) -> dict:
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
            loglik=result.loglik,
            h_tree=result.h_tree,
            h_joint=result.h_joint,
            alpha=matrix_to_json(result.alpha),
        )
        if p0 is not None:
            payload["p0"] = p0
            payload["alpha_recalibrated"] = matrix_to_json(
                em.edge_posteriors(result, p0)
            )
    else:
        result = fit_fixed_tree(cov, r, opts=opts)
        payload.update(
            loglik=result.loglik_trace[-1] if result.loglik_trace else None,
            tree=[list(e) for e in result.tree],
        )
    payload.update(
        converged=result.converged,
        iterations=result.iterations,
        loglik_trace=list(result.loglik_trace),
        precision=matrix_to_json(result.precision.matrix),
    )
    return payload


def cmd_fit(args) -> int:
    config = _resolve(_load_config(args.config), args, FIT_KEYS)
    p0 = None
    if config["p0"]:
        if config["method"] != "aggregation":
            raise ConfigError(f"p0 applies to method aggregation only, not {config['method']}")
        try:
            p0 = float(config["p0"])
        except ValueError:
            raise ConfigError(f"p0: cannot read {config['p0']!r} as float") from None
    data = _read_data_csv(Path(args.data))
    cov = EmpiricalCovariance.from_data(data)
    if p0 is not None:
        try:
            em.require_feasible_target(cov.size, config["r"], p0)
        except CalibrationError as exc:
            raise ConfigError(f"p0: {exc}") from None
    payload = _fit_payload(config, cov, p0)
    out_dir = _out_dir(args.out)
    _write_json(out_dir / "fit.json", payload)
    return 0


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------

SELECT_KEYS = {
    "r_max": ("r", 3, int, 0),
    "max_iter": (None, 500, int, 0),
    "tol": (None, 1e-6, float, 0.0),
    "seed": ("seed", 0, int, None),
}


def cmd_select(args) -> int:
    config = _resolve(_load_config(args.config), args, SELECT_KEYS)
    data = _read_data_csv(Path(args.data))
    cov = EmpiricalCovariance.from_data(data)
    opts = em.FitOptions(max_iter=config["max_iter"], tol=config["tol"])
    report = selection.select(
        cov, r_max=config["r_max"], opts=opts, master_seed=config["seed"]
    )
    out_dir = _out_dir(args.out)
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
    "targets": (None, ["full", "marginal"], list, ("full", "marginal")),
    "grid_size": (None, 101, int, 2),
    "two_hop": (None, False, bool, None),
}


def _fit_source(payload: dict) -> SimpleNamespace:
    """Duck-typed score source reconstructed from a fit.json payload."""
    p, r = json_int(payload["p"], "p"), json_int(payload["r"], "r")
    if "alpha" in payload:
        alpha = matrix_from_json(payload["alpha"])
        if alpha.shape != (p + r, p + r):
            raise ValueError(f"alpha has shape {alpha.shape}, not p + r = {p + r} square")
        if not np.isfinite(alpha).all():
            raise ValueError("alpha has a non-finite entry")
        return SimpleNamespace(alpha=alpha, n_observed=p, n_hidden=r)
    return SimpleNamespace(
        tree=Graph.from_edges(p + r, payload["tree"]).edges,
        precision=PartitionedPrecision(matrix_from_json(payload["precision"]), p, r),
        n_observed=p,
        n_hidden=r,
    )


def _eval_one(payload: tuple) -> dict:
    data_dir, fits_dir, config, rep_id = payload
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
    result = {"id": rep_id, "auc": {}, "notes": [], "curves": {}}
    for target in config["targets"]:
        curve = evaluate.roc_target(fit, truth, target)
        result["auc"][target] = curve.auc
        result["curves"][target] = curve
    scores_marginal = evaluate.score_edges(fit, "marginal", two_hop=config["two_hop"])
    try:
        result["curves"]["spurious"] = evaluate.spurious_curve(scores_marginal, truth)
    except DegenerateCurveError:
        result["notes"].append(f"{rep_id}: no spurious edges, curve omitted")
    return result


def _replicate_ids(manifest: dict) -> list[str]:
    """The manifest's replicate ids: a non-empty list of distinct strings, each
    one path component (not empty, no "/", not "." or ".."), so every
    replicate's outputs stay inside --out."""
    rep_ids = [entry["id"] for entry in manifest["replicates"]]
    for rep_id in rep_ids:
        if not isinstance(rep_id, str) or rep_id in ("", ".", "..") or "/" in rep_id:
            raise ValueError(f"replicate id {rep_id!r} is not a string naming one path component")
    if not rep_ids or len(set(rep_ids)) != len(rep_ids):
        raise ValueError("the manifest's replicate ids must be non-empty and distinct")
    return rep_ids


def cmd_eval(args) -> int:
    config = _resolve(_load_config(args.config), args, EVAL_KEYS)
    data_dir = Path(args.data)
    manifest_path = data_dir / "manifest.json"
    rep_ids, dataset_hash = _read_json(
        manifest_path,
        f"dataset manifest not found: {manifest_path}",
        lambda manifest: (_replicate_ids(manifest), manifest.get("config_hash")),
    )

    jobs = [(str(data_dir), str(args.fits), config, rep) for rep in rep_ids]
    results = sorted(_map(_eval_one, jobs, args.workers), key=lambda item: item["id"])

    # written only once every replicate is scored, so bad input leaves no --out
    out_dir = _out_dir(args.out)
    for item in results:
        rep_out, curves = _out_dir(out_dir / item["id"]), item["curves"]
        for target in config["targets"]:
            rows = zip(curves[target].thresholds, curves[target].fpr, curves[target].power)
            _write_csv(rep_out / f"roc_{target}.csv", ["threshold", "fpr", "power"], rows)
        if "spurious" in curves:
            sp = curves["spurious"]
            rows = zip(sp.thresholds, sp.density, sp.spurious_fraction)
            _write_csv(rep_out / "spurious.csv", ["threshold", "density", "spurious_fraction"], rows)
    agg_dir = _out_dir(out_dir / "aggregate")
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
    """The parser; each key table's flags are its command's config overrides."""
    parser = argparse.ArgumentParser(
        prog="treeagg",
        description="Latent-tree aggregation for Gaussian graphical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", cmd_simulate, SIMULATE_KEYS, "generate a replicate suite"),
        ("fit", cmd_fit, FIT_KEYS, "fit a model to a data CSV"),
        ("select", cmd_select, SELECT_KEYS, "estimate the number of hidden nodes"),
        ("eval", cmd_eval, EVAL_KEYS, "score fits against a simulated dataset"),
    )
    for name, func, keys, summary in commands:
        cmd = sub.add_parser(name, help=summary)
        cmd.set_defaults(func=func)
        if name == "eval":
            cmd.add_argument("--data", required=True, help="dataset directory from simulate")
            cmd.add_argument("--fits", required=True, help="directory with <rep>/fit.json")
        elif name != "simulate":
            cmd.add_argument("data", help="CSV with a header row, n rows x p columns")
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        for key, (flag, _, cast, domain) in keys.items():
            if flag:
                choices = domain if isinstance(domain, tuple) else None
                cmd.add_argument(f"--{flag}", type=cast, choices=choices, help=f"config key {key}")
        if name != "select":
            cmd.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: expected a value >= 1, got {args.workers}")
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
