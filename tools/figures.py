"""The figures that a change to treeagg's outputs moves, in one table.

    python3 tools/figures.py

Run from a checkout of the repository; the package is imported from `src/`,
and `saturated_loglik_bound` from `treebench/checks.py`.  Over the signal
and the null acceptance suites of `tests/test_acceptance.py` (50 replicates
each, p = 20, n = 30), with `select(cov, r_max=3)` on each replicate, it
prints:

- per suite and r: the rows whose log-likelihood is above the saturated
  bound, the largest margin over it (negative when every row is under it),
  the fits that accept at least one EM step, and the largest span of the
  fitted log gamma over its candidate pairs;
- per suite and criterion: how many replicates pick each r;
- criterion 7's mean AUCs on the signal suite: the r = 1 fit's full graph,
  the r = 1 fixed-tree fit's full graph, and the r = 1 fit's two-hop
  marginal graph;
- `auc_full` and `auc_marginal` of treebench's `select-p20` workload: the
  mean full and marginal AUC of the r = 1 fit over its six replicates, which
  are the signal suite's first six.

Nothing here is random, so two checkouts that print different text differ
in their outputs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in treebench/run.py; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "treebench"))

N_REPLICATES = 50
R_MAX = 3
SUITES = {"signal": (21, 1, 10.0, 0), "null": (20, 0, 1.0, 1000)}  # size, r, epsilon, seed offset
SELECT_REPLICATES = range(6)  # treebench/run.py's select-p20 suite


def suite(size, r, epsilon, offset):
    """(truth, covariance, selection report with its fits) per replicate."""
    from treeagg import selection
    from treeagg.matrices import EmpiricalCovariance
    from treeagg.simulate import make_ground_truth, sample_and_marginalize, sample_seed

    for seed in range(N_REPLICATES):
        truth = make_ground_truth("tree", size=size, r=r, epsilon=epsilon, seed=offset + seed)
        _, observed = sample_and_marginalize(truth.precision, 30, sample_seed(offset + seed))
        cov = EmpiricalCovariance.from_data(observed)
        yield truth, cov, selection.select(cov, r_max=R_MAX, master_seed=seed, keep_fits=True)


def log_gamma_span(fit, cov) -> float:
    """max - min of the fit's log gamma over the uniform prior's support."""
    import numpy as np
    from treeagg.tree_gaussian import log_edge_prior, log_marginal_tree_weight, uniform_prior

    log_prior = log_edge_prior(uniform_prior(fit.n_observed, fit.n_hidden))
    log_gamma = log_marginal_tree_weight(fit.precision, log_prior, cov)[log_prior > -np.inf]
    return float(np.ptp(log_gamma))


def row_figures(name, replicates) -> list[str]:
    from checks import saturated_loglik_bound

    lines = []
    for r in range(R_MAX + 1):
        margins, accepted, spans = [], 0, []
        for _, cov, report in replicates:
            fit = report.fits[r]
            margins.append(fit.loglik - saturated_loglik_bound(cov.matrix, cov.n))
            accepted += fit.iterations > 1
            spans.append(log_gamma_span(fit, cov))
        above = sum(m > 0.0 for m in margins)
        lines.append(
            f"{name:<7} r={r}  above bound {above:2d}/{len(margins)}  "
            f"largest margin {max(margins):+10.1f}  accepting a step {accepted:2d}/{len(margins)}  "
            f"largest log-gamma span {max(spans):7.1f}"
        )
    return lines


def pick_figures(name, replicates) -> list[str]:
    from treeagg.selection import CRITERIA

    lines = []
    for criterion in CRITERIA:
        picks = [report.selected[criterion] for _, _, report in replicates]
        counts = "/".join(str(picks.count(r)) for r in range(R_MAX + 1))
        lines.append(f"{name:<7} {criterion:<9} picks of r=0/1/2/3: {counts}")
    return lines


def auc_figures(replicates) -> list[str]:
    import numpy as np
    from treeagg import evaluate
    from treeagg.fixed_tree import fit_fixed_tree

    full, fixed, two_hop, marginal = [], [], [], []
    for truth, cov, report in replicates:
        fit = report.fits[1]
        full.append(evaluate.roc_target(fit, truth, "full").auc)
        fixed.append(evaluate.roc_target(fit_fixed_tree(cov, 1), truth, "full").auc)
        scores = evaluate.score_edges(fit, "marginal", two_hop=True)
        two_hop.append(evaluate.roc(scores, truth.marginal).auc)
        marginal.append(evaluate.roc_target(fit, truth, "marginal").auc)
    six = list(SELECT_REPLICATES)
    return [
        f"criterion 7 full {np.mean(full):.3f}  fixed-tree {np.mean(fixed):.3f}  "
        f"two-hop marginal {np.mean(two_hop):.3f}",
        f"select-p20 auc_full {np.mean([full[i] for i in six]):.3f}  "
        f"auc_marginal {np.mean([marginal[i] for i in six]):.3f}",
    ]


def main() -> int:
    replicates = {name: list(suite(*args)) for name, args in SUITES.items()}
    lines = []
    for name, reps in replicates.items():
        lines += row_figures(name, reps)
    for name, reps in replicates.items():
        lines += pick_figures(name, reps)
    lines += auc_figures(replicates["signal"])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
