"""Fingerprints of treeagg's outputs, for checking that a change is bit-identical.

    python3 tools/fingerprint.py

Run from a checkout of the repository; the package is imported from `src/`.
Prints six SHA-256 digests, one a line:

- `select`: every `select(cov, r_max=3, keep_fits=True)` report of the 100
  acceptance-suite replicates (the signal and the null suite of
  `tests/test_acceptance.py`): its rows, selections, and each fit's
  log-likelihood trace and the bytes of its alpha and K;
- `select-structure`: the same reports without the values that carry log Z
  (each row's `loglik`, `bic`, `icl_tree`, `icl_joint`, `h_tree` and
  `h_joint`, and the traces), plus each fit's iteration count.  The
  entropies are log Z minus alpha-weighted sums, so they move with log Z's
  last bits as the log-likelihoods do.  A change that moves only the last
  digits of log Z and the log-likelihoods keeps this digest;
- `select-r0`: the r = 0 part of the same reports, log-likelihoods included:
  each report's r = 0 row and that fit's trace and the bytes of its alpha and
  K.  A change that moves only r > 0 log-likelihoods keeps this digest;
- `cli`: the files the CLI pipeline writes on the `cli-study` suite of
  `treebench/run.py`: `simulate`; per replicate `fit --r 1 --p0 <p0>`,
  `fit --method fixed-tree --r 1`, `fit --r 0` and `select --r 3`; then
  `eval` of the aggregation and of the fixed-tree fits.  Each file, the
  suite's config included, enters the digest with its path relative to the
  output directory;
- `truths`: `to_json_dict`, as JSON with sorted keys, of every simulated
  truth `make_ground_truth` can build with kind `tree` or `erdos` (p_edge
  0.3), size 2-31, r = 0-3, epsilon 0, 1 or 10 and seeds 0-5: those whose
  graph can hide r nodes (3384 truths);
- `fixed-tree`: `fit_fixed_tree` at r = 1, 2 and 3 on the 100 acceptance
  covariances: each fit's tree, trace, iteration count, `converged` and the
  bytes of its K.

Two checkouts whose digests agree produce the same bits on these inputs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in treebench/run.py; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

N_REPLICATES = 50
CLI_SUITE = {"kind": "tree", "p": 20, "r": 1, "epsilon": 10.0, "n": 30, "replicates": 3, "seed": 0}


def suite_covariances():
    """(label, covariance) of the signal and the null acceptance suites."""
    from treeagg.matrices import EmpiricalCovariance
    from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed

    for suite, size, r, epsilon, offset in (("signal", 21, 1, 10.0, 0), ("null", 20, 0, 1.0, 1000)):
        for seed in range(N_REPLICATES):
            truth = make_ground_truth("tree", size=size, r=r, epsilon=epsilon, seed=offset + seed)
            _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(offset + seed))
            yield f"{suite} {seed}", EmpiricalCovariance.from_data(observed)


# Row values that carry log Z: left out of the `select-structure` digest.
LOG_Z_KEYS = ("loglik", "bic", "icl_tree", "icl_joint", "h_tree", "h_joint")


def select_digests() -> tuple[str, str, str]:
    """The `select`, `select-structure` and `select-r0` digests, from one pass."""
    from treeagg import selection

    digest, structure, r0 = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for label, cov in suite_covariances():
        report = selection.select(cov, r_max=3, keep_fits=True)
        payload = report.to_json_dict()
        digest.update(label.encode() + b"\0")
        digest.update(json.dumps(payload, sort_keys=True).encode())
        r0.update(label.encode() + b"\0")
        r0.update(json.dumps(payload["rows"][0], sort_keys=True).encode())
        if 0 in report.fits:
            fit = report.fits[0]
            r0.update(f"trace={fit.loglik_trace!r}".encode())
            r0.update(fit.alpha.tobytes() + fit.precision.matrix.tobytes())
        for row in payload["rows"]:
            for key in LOG_Z_KEYS:
                del row[key]
        structure.update(label.encode() + b"\0")
        structure.update(json.dumps(payload, sort_keys=True).encode())
        for r, fit in sorted(report.fits.items()):
            digest.update(f"r={r} trace={fit.loglik_trace!r}".encode())
            structure.update(f"r={r} iterations={fit.iterations}".encode())
            for part in (fit.alpha, fit.precision.matrix):
                digest.update(part.tobytes())
                structure.update(part.tobytes())
    return digest.hexdigest(), structure.hexdigest(), r0.hexdigest()


def cli_digest() -> str:
    from treeagg import cli

    size = CLI_SUITE["p"] + CLI_SUITE["r"]
    n_pairs = size * (size - 1) // 2 - CLI_SUITE["r"] * (CLI_SUITE["r"] - 1) // 2
    p0 = repr((size - 1) / n_pairs)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "suite.json"
        config.write_text(json.dumps(CLI_SUITE))
        data, agg, fixed = out / "data", out / "fits_aggregation", out / "fits_fixed_tree"
        commands = [["simulate", "--config", config, "--out", data]]
        for i in range(CLI_SUITE["replicates"]):
            rep = f"rep_{i:03d}"
            csv = data / rep / "observed.csv"
            commands += [
                ["fit", csv, "--out", agg / rep, "--r", "1", "--p0", p0],
                ["fit", csv, "--out", fixed / rep, "--method", "fixed-tree", "--r", "1"],
                ["fit", csv, "--out", out / "fits_r0" / rep, "--r", "0"],
                ["select", csv, "--out", out / "select" / rep, "--r", "3"],
            ]
        commands += [
            ["eval", "--data", data, "--fits", fits, "--out", out / f"eval_{fits.name}"]
            for fits in (agg, fixed)
        ]
        for argv in commands:
            code = cli.main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"treeagg {argv[0]} exited {code}")
        digest = hashlib.sha256()
        files = sorted(path for path in out.rglob("*") if path.is_file())
        for path in files:
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return f"{digest.hexdigest()}  ({len(files)} files)"


def truths_digest() -> str:
    from treeagg.errors import InfeasibleHiddenSetError
    from treeagg.simulate import make_ground_truth

    digest, count = hashlib.sha256(), 0
    for kind in ("tree", "erdos"):
        for size in range(2, 32):
            for r, epsilon, seed in itertools.product(range(4), (0.0, 1.0, 10.0), range(6)):
                try:
                    truth = make_ground_truth(kind, size, r, epsilon, seed, p_edge=0.3)
                except InfeasibleHiddenSetError:
                    continue
                digest.update(json.dumps(truth.to_json_dict(), sort_keys=True).encode())
                count += 1
    return f"{digest.hexdigest()}  ({count} truths)"


def fixed_tree_digest() -> str:
    from treeagg.fixed_tree import fit_fixed_tree

    digest = hashlib.sha256()
    for label, cov in suite_covariances():
        for r in (1, 2, 3):
            fit = fit_fixed_tree(cov, r)
            digest.update(f"{label} r={r} tree={fit.tree!r} trace={fit.loglik_trace!r}".encode())
            digest.update(f"iterations={fit.iterations} converged={fit.converged}".encode())
            digest.update(fit.precision.matrix.tobytes())
    return digest.hexdigest()


def main() -> int:
    select, structure, r0 = select_digests()
    print(f"select           {select}")
    print(f"select-structure {structure}")
    print(f"select-r0        {r0}")
    print(f"cli              {cli_digest()}")
    print(f"truths           {truths_digest()}")
    print(f"fixed-tree       {fixed_tree_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
