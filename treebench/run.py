"""End-to-end and per-layer benchmark for treeagg.

    python3 treebench/run.py --workload select-p20 --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps treeagg's public functions, reports per-layer
metrics and writes the spans to `.treebench/`.  See treebench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 81 x 81, where more threads add
# jitter and no speed.  Set before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".treebench"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

# select-p20 and cli-study run fixed replicate suites of the paper's
# simulation protocol (tree, p=20, r_true=1, n=30, epsilon=10), so that the
# rows whose log-likelihood breaks the saturated bound, and the AUC figures,
# are the same in every run; the seed orders the work and draws the kernel
# check's matrices.  fit-p80 draws its data from the seed.
SELECT_REPLICATES = range(6)
CLI_SUITE = {"kind": "tree", "p": 20, "r": 1, "epsilon": 10.0, "n": 30, "replicates": 3, "seed": 0}


class Tally:
    """Operations attempted and failed, and the samples behind each metric."""

    def __init__(self, clock_n, tracer=None, in_process=False):
        self.tracer = tracer
        self.clock = Clock(clock_n)
        self.in_process = in_process  # cli-study: call cli.main instead of a child
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.call_s: list[float] = []
        self.round_s: list[float] = []
        self.auc_full: list[float] = []
        self.auc_marginal: list[float] = []
        self.processes = 0
        self.bytes_written = 0
        self.child_peak_mb = 0.0

    def op(self, problems=(), fault=False):
        """One operation; `fault` marks a known fault of the program, which
        fails the operation; any of `problems` also makes the run incorrect."""
        self.attempted += 1
        if problems or fault:
            self.failed += 1
        self.problems.extend(problems)

    def add_round(self, call_s, round_s):
        """A round's timed calls, kept as their mean, and its total time."""
        self.call_s.append(statistics.fmean(call_s))
        self.round_s.append(round_s)

    def checking(self):
        """Keep the benchmark's own checks out of the trace."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


# ----------------------------------------------------------------------
# select-p20: selection.select(cov, r_max=3) at p=20
# ----------------------------------------------------------------------

def select_inputs(seed, work):
    from treeagg import simulate
    from treeagg.matrices import EmpiricalCovariance
    import numpy as np

    reps = []
    for s in SELECT_REPLICATES:
        truth = simulate.make_ground_truth("tree", size=21, r=1, epsilon=10.0, seed=s)
        _, observed = simulate.sample_and_marginalize(truth.precision, 30, simulate.sample_seed(s))
        reps.append((s, truth, EmpiricalCovariance.from_data(observed)))
    order = np.random.default_rng(seed).permutation(len(reps))
    return {"reps": [reps[i] for i in order], "kernel_n": 23}


def select_round(inputs, tally, rng):
    from treeagg import evaluate, selection
    import checks

    call_s = []
    for s, truth, cov in inputs["reps"]:
        report, seconds = tally.clock.time(selection.select, cov, r_max=3, master_seed=s, keep_fits=True)
        call_s.append(seconds)
        with tally.checking():
            shared = checks.selection_problems(report, cov.size, cov.n)
            bound = checks.saturated_loglik_bound(cov.matrix, cov.n)
            for row in report.rows:
                if row.error is not None:
                    tally.op(shared + [f"seed {s} r={row.n_hidden}: {row.error}"])
                    continue
                alpha = report.fits[row.n_hidden].alpha
                # Known faults on fixed rows of the suite: a log-likelihood
                # above the saturated bound, and edge posteriors that do not
                # sum to size - 1.  They count as failed, not as incorrect.
                fault = row.loglik > bound or checks.edge_posterior_problems(alpha, cov.size)
                tally.op(shared, fault=bool(fault))
            fit = report.fits[1]
            tally.auc_full.append(evaluate.roc_target(fit, truth, "full").auc)
            tally.auc_marginal.append(evaluate.roc_target(fit, truth, "marginal").auc)
    tally.add_round(call_s, sum(call_s))
    kernel_op(tally, rng, inputs["kernel_n"])


# ----------------------------------------------------------------------
# fit-p80: em.fit(cov, 0) and em.edge_posteriors at p=80
# ----------------------------------------------------------------------

def fit_inputs(seed, work):
    from treeagg import simulate
    from treeagg.matrices import EmpiricalCovariance

    truth = simulate.make_ground_truth("tree", size=80, r=0, epsilon=10.0, seed=seed)
    _, observed = simulate.sample_and_marginalize(truth.precision, 200, simulate.sample_seed(seed))
    return {"truth": truth, "cov": EmpiricalCovariance.from_data(observed), "kernel_n": 80}


def fit_round(inputs, tally, rng):
    from treeagg import em, evaluate
    import checks

    truth, cov = inputs["truth"], inputs["cov"]
    p = cov.size
    result, fit_s = tally.clock.time(em.fit, cov, 0)
    alpha_p0, posterior_s = tally.clock.time(em.edge_posteriors, result, 2.0 / p)  # (size - 1) / #pairs
    tally.add_round([fit_s], fit_s + posterior_s)
    with tally.checking():
        tally.op(
            checks.precision_problems(result.precision.matrix)
            + checks.edge_posterior_problems(result.alpha, p)
        )
        tally.op(checks.edge_posterior_problems(alpha_p0, p))
        tally.auc_full.append(evaluate.roc_target(result, truth, "full").auc)
        tally.auc_marginal.append(evaluate.roc_target(result, truth, "marginal").auc)
    kernel_op(tally, rng, inputs["kernel_n"])


# ----------------------------------------------------------------------
# cli-study: simulate -> fit (aggregation + p0, fixed-tree) -> eval, via the CLI
# ----------------------------------------------------------------------

def cli_inputs(seed, work: Path):
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    config = work / "suite.json"
    config.write_text(json.dumps(CLI_SUITE))
    order = np.random.default_rng(seed).permutation(CLI_SUITE["replicates"])
    size = CLI_SUITE["p"] + CLI_SUITE["r"]
    n_pairs = size * (size - 1) // 2 - CLI_SUITE["r"] * (CLI_SUITE["r"] - 1) // 2
    return {
        "work": work,
        "config": config,
        "reps": [f"rep_{i:03d}" for i in order],
        "fit_seed": str(seed),
        "p0": repr((size - 1) / n_pairs),
        "kernel_n": size,
        "hashes": [],
    }


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc/<pid>/status."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _subprocess_cli(argv, tally):
    """Run one CLI process and record its peak RSS in `tally.child_peak_mb`.

    The peak is polled from /proc because getrusage's figure for children
    also counts the parent's resident set at the time of the spawn.
    """
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    with subprocess.Popen(
        [sys.executable, "-m", "treeagg.cli", *argv],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ) as proc:
        while True:
            tally.child_peak_mb = max(tally.child_peak_mb, _vm_hwm_mb(proc.pid))
            try:
                _, err = proc.communicate(timeout=0.01)
                return proc.returncode, err.strip()
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.communicate()
                    return -1, f"timed out after {CHILD_TIMEOUT_S} s"


def _inprocess_cli(argv, tally):
    from treeagg import cli

    return cli.main(argv), ""


def _tree_digest(directory: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + data)
    return digest.hexdigest(), size


def cli_round(inputs, tally, rng):
    import numpy as np
    import checks

    run_cli = _inprocess_cli if tally.in_process else _subprocess_cli
    out = inputs["work"] / f"round_{len(inputs['hashes'])}"
    data, agg, fixed = out / "data", out / "fits_aggregation", out / "fits_fixed_tree"

    command_s, fit_s = [], []

    def command(argv, timed=False):
        (code, err), seconds = tally.clock.time(run_cli, [str(a) for a in argv], tally)
        command_s.append(seconds)
        if timed:
            fit_s.append(seconds)
        tally.processes += 1
        return [] if code == 0 else [f"treeagg {argv[0]} exited {code}: {err}"]

    sim_problems = command(["simulate", "--config", inputs["config"], "--out", data, "--workers", "1"])
    fit_problems = {}
    for rep in inputs["reps"]:
        csv = data / rep / "observed.csv"
        fit_problems[rep] = command(
            ["fit", csv, "--out", agg / rep, "--r", "1", "--p0", inputs["p0"],
             "--seed", inputs["fit_seed"], "--workers", "1"], timed=True)
        fit_problems[rep + "/fixed"] = command(
            ["fit", csv, "--out", fixed / rep, "--method", "fixed-tree", "--r", "1",
             "--seed", inputs["fit_seed"], "--workers", "1"], timed=True)
    eval_problems = [
        command(["eval", "--data", data, "--fits", fits, "--out", out / f"eval_{fits.name}",
                 "--workers", "1"])
        for fits in (agg, fixed)
    ]
    tally.add_round(fit_s, sum(command_s))

    with tally.checking():
        summary_path = out / "eval_fits_aggregation" / "aggregate" / "auc_summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        tally.op(sim_problems)
        for rep in inputs["reps"]:
            problems = fit_problems[rep]
            if not problems:
                fit = json.loads((agg / rep / "fit.json").read_text())
                truth = json.loads((data / rep / "ground_truth.json").read_text())
                for key in ("alpha", "alpha_recalibrated"):
                    alpha = np.array(fit[key]["data"]).reshape(fit[key]["shape"])
                    problems += [f"{rep} {key}: {m}" for m in checks.edge_posterior_problems(alpha, fit["p"])]
                if summary is not None:
                    reported = summary["auc"]["marginal"]["per_replicate"][rep]
                    recomputed = checks.marginal_auc_from_files(fit, truth)
                    if abs(reported - recomputed) > 1e-9:
                        problems.append(f"{rep}: marginal AUC {reported!r}, rank-sum {recomputed!r}")
            tally.op(problems)
            tally.op(fit_problems[rep + "/fixed"])
        for problems in eval_problems:
            tally.op(problems)
        if summary is not None:
            tally.auc_full.append(summary["auc"]["full"]["mean"])
            tally.auc_marginal.append(summary["auc"]["marginal"]["mean"])
        digest, size = _tree_digest(out)
        tally.bytes_written += size
        inputs["hashes"].append(digest)
        tally.op([] if digest == inputs["hashes"][0] else [f"{out.name}: outputs differ from round_0"])
    kernel_op(tally, rng, inputs["kernel_n"])


def kernel_op(tally, rng, n):
    from treeagg import spanning_trees
    import checks

    with tally.checking():
        tally.op(checks.kernel_problems(spanning_trees, rng, n))


# name: (inputs, one round, matrix size of the clock's reference)
WORKLOADS = {
    "select-p20": (select_inputs, select_round, 22),
    "fit-p80": (fit_inputs, fit_round, 80),
    "cli-study": (cli_inputs, cli_round, 22),
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def setup(name, seed, work):
    """Fresh-interpreter import of the package plus input generation, repeated.

    Returns the inputs and the median scaled times of set-up and of the import.
    """
    clock = Clock(22)
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        _, import_s = clock.time(
            subprocess.run,
            [sys.executable, "-c", "import treeagg, treeagg.cli"],
            cwd=ROOT, env=CHILD_ENV, check=True, timeout=CHILD_TIMEOUT_S,
        )
        inputs, inputs_s = clock.time(WORKLOADS[name][0], seed, work)
        totals.append(import_s + inputs_s)
        imports.append(import_s)
    return inputs, statistics.median(totals), statistics.median(imports)


def measure(name, inputs, tally, rng, seconds):
    """Whole rounds until `seconds` have passed; returns the number of rounds."""
    run_round = WORKLOADS[name][1]
    start, rounds = time.perf_counter(), 0
    while True:
        run_round(inputs, tally, rng)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "treeagg" / "__init__.py").is_file():
        print(f"treeagg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import treeagg.cli  # noqa: F401  (loads every module the tracer patches)

    # One CPU for this process and, by inheritance, its children: the two
    # CPUs of the shared host run at different and changing speeds, and the
    # clock's reference only tracks the speed of the CPU it runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        inputs, setup_s, import_s = setup(args.workload, args.seed, work)
        rng = np.random.default_rng(args.seed)
        if args.trace:
            from tracing import Tracer, layer_metrics, unit_of

            # One untraced round first: the traced rounds' extra time over it
            # is the tracing overhead.
            clock_n = WORKLOADS[args.workload][2]
            reference = Tally(clock_n, in_process=True)
            measure(args.workload, inputs, reference, rng, 0.0)
            tracer = Tracer()
            tally = Tally(clock_n, tracer, in_process=True)
            tally.problems.extend(reference.problems)
            tracer.install()
            try:
                inputs = WORKLOADS[args.workload][0](args.seed, work / "traced")
                tracer.phase = "round"
                rounds = measure(args.workload, inputs, tally, rng, args.seconds)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = layer_metrics(tracer.spans, rounds)
            metrics.update({
                "cli.import_s": import_s,
                "cli.processes": tally.processes / rounds,
                "cli.bytes_written": tally.bytes_written / rounds,
                "trace.overhead_s": statistics.median(tally.round_s) - reference.round_s[0],
            })
            result_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        else:
            tally = Tally(WORKLOADS[args.workload][2])
            measure(args.workload, inputs, tally, rng, args.seconds)
            values = {
                "setup_s": (setup_s, "s"),
                "call_s": (statistics.median(tally.call_s), "s"),
                "round_s": (statistics.median(tally.round_s), "s"),
                "auc_full": (statistics.fmean(tally.auc_full), "1"),
                "auc_marginal": (statistics.fmean(tally.auc_marginal), "1"),
                "peak_rss_mb": (
                    tally.child_peak_mb if args.workload == "cli-study"
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
            }
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
