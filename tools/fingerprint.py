"""Fingerprints of treeagg's outputs, for checking that a change is bit-identical.

    python3 tools/fingerprint.py

Run from a checkout of the repository; the package is imported from `src/`.
Prints two SHA-256 digests, one a line:

- `select`: every `select(cov, r_max=3, keep_fits=True)` report of the 100
  acceptance-suite replicates (the signal and the null suite of
  `tests/test_acceptance.py`): its rows, selections, and each fit's
  log-likelihood trace and the bytes of its alpha and K;
- `cli`: the files the CLI pipeline writes on the `cli-study` suite of
  `treebench/run.py`: `simulate`; per replicate `fit --r 1 --p0 <p0>`,
  `fit --method fixed-tree --r 1`, `fit --r 0` and `select --r 3`; then
  `eval` of the aggregation and of the fixed-tree fits.  Each file, the
  suite's config included, enters the digest with its path relative to the
  output directory.

Two checkouts whose digests agree produce the same bits on these inputs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in treebench/run.py; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
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


def select_digest() -> str:
    from treeagg import selection

    digest = hashlib.sha256()
    for label, cov in suite_covariances():
        report = selection.select(cov, r_max=3, keep_fits=True)
        digest.update(label.encode() + b"\0")
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        for r, fit in sorted(report.fits.items()):
            digest.update(f"r={r} trace={fit.loglik_trace!r}".encode())
            digest.update(fit.alpha.tobytes())
            digest.update(fit.precision.matrix.tobytes())
    return digest.hexdigest()


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


def main() -> int:
    print(f"select {select_digest()}")
    print(f"cli    {cli_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
