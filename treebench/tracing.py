"""Spans around the calls into treeagg's public functions, recorded from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in every
treeagg module namespace that holds a reference to it (modules import each
other's functions by name, so patching only the defining module would miss
most calls).  Spans are kept in memory as (id, parent, name, start, end,
phase, attrs) and written out once, by `write`, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

# (module, function) pairs whose calls become spans.  `matrices` and `graphs`
# are helpers: their time shows up as self time of the callers below.
TRACED = (
    ("spanning_trees", "edge_marginals"),
    ("spanning_trees", "log_partition_function"),
    ("tree_gaussian", "log_marginal_tree_weight"),
    ("em", "fit"),
    ("em", "e_step"),
    ("em", "m_step"),
    ("em", "observed_loglik"),
    ("em", "edge_posteriors"),
    ("initialization", "initial_precision_from_cov"),
    ("selection", "select"),
    ("fixed_tree", "fit_fixed_tree"),
    ("simulate", "make_ground_truth"),
    ("simulate", "sample_and_marginalize"),
    ("evaluate", "roc_target"),
    ("evaluate", "score_edges"),
    ("evaluate", "spurious_curve"),
    ("evaluate", "mean_roc"),
    ("evaluate", "mean_spurious"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_fit"),
    ("cli", "cmd_eval"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return func(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "phase": self.phase,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "spanning_trees.edge_marginals":
                span["n"] = int(result.shape[0])
            elif name == "em.fit":
                span["iterations"] = int(result.iterations)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "treeagg" or key.startswith("treeagg.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"treeagg.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".calls", ".iterations", ".processes")):
        return "count"
    if metric.endswith(".ms_per_call"):
        return "ms"
    if metric.endswith(".computed_gflop"):
        return "GFLOP"
    if metric.endswith(".bytes_written"):
        return "B"
    if metric.endswith("_ratio"):
        return "1"
    return "s"


def _kernel_gflop(n: int) -> float:
    """Computed operation count of one `edge_marginals` call at size n.

    Per grounded node: m = n - 1 star-mesh steps with a rank-1 update of the
    n x n working matrix (2 n^2 flops each), a unit-lower triangular inverse
    (m^3 flops) and the resistance diagonal (2 m^2 flops).
    """
    m = n - 1
    return n * (2.0 * n * n * m + m**3 + 2.0 * m * m) / 1e9


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round of a traced run.

    Spans recorded while inputs were generated count once; spans recorded in
    the rounds are divided by the number of rounds.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def weight(s):
        return 1.0 if s["phase"] == "setup" else 1.0 / rounds

    def has_ancestor(s, predicate):
        parent = s["parent"]
        while parent is not None:
            if predicate(by_id[parent]):
                return True
            parent = by_id[parent]["parent"]
        return False

    def total(name, self_only=False):
        acc = 0.0
        for s in spans:
            if s["name"] == name:
                dur = s["end"] - s["start"]
                if self_only:
                    dur -= child_time.get(s["id"], 0.0)
                acc += weight(s) * dur
        return acc

    def calls(name):
        return sum(weight(s) for s in spans if s["name"] == name)

    def module_total(module):
        # Outermost spans of the module only, so nested calls count once.
        prefix = module + "."
        return sum(
            (
                weight(s) * (s["end"] - s["start"])
                for s in spans
                if s["name"].startswith(prefix)
                and not has_ancestor(s, lambda a: a["name"].startswith(prefix))
            ),
            0.0,
        )

    em_calls = calls("spanning_trees.edge_marginals")
    em_s = total("spanning_trees.edge_marginals")
    fits = [s for s in spans if s["name"] == "em.fit"]
    useful = sum(weight(s) * s["iterations"] for s in fits)
    fit_estep = sum(
        weight(s)
        for s in spans
        if s["name"] == "em.e_step" and has_ancestor(s, lambda a: a["name"] == "em.fit")
    )
    return {
        "spanning_trees.edge_marginals.calls": em_calls,
        "spanning_trees.edge_marginals.s": em_s,
        "spanning_trees.edge_marginals.ms_per_call": 1e3 * em_s / em_calls if em_calls else 0.0,
        "spanning_trees.edge_marginals.computed_gflop": sum(
            weight(s) * _kernel_gflop(s["n"])
            for s in spans
            if s["name"] == "spanning_trees.edge_marginals"
        ),
        "spanning_trees.log_partition_function.calls": calls("spanning_trees.log_partition_function"),
        "spanning_trees.log_partition_function.s": total("spanning_trees.log_partition_function"),
        "tree_gaussian.log_marginal_tree_weight.s": total("tree_gaussian.log_marginal_tree_weight"),
        "em.fit.calls": calls("em.fit"),
        "em.fit.s": total("em.fit"),
        "em.e_step.calls": calls("em.e_step"),
        "em.e_step.self_s": total("em.e_step", self_only=True),
        "em.m_step.s": total("em.m_step"),
        "em.observed_loglik.s": total("em.observed_loglik"),
        "em.edge_posteriors.s": total("em.edge_posteriors"),
        "em.iterations": useful,
        "em.useful_estep_ratio": useful / fit_estep if fit_estep else 0.0,
        "initialization.initial_precision_from_cov.s": total(
            "initialization.initial_precision_from_cov"
        ),
        "selection.select.self_s": total("selection.select", self_only=True),
        "fixed_tree.fit_fixed_tree.s": total("fixed_tree.fit_fixed_tree"),
        "simulate.s": module_total("simulate"),
        "evaluate.s": module_total("evaluate"),
        "cli.simulate.s": total("cli.cmd_simulate"),
        "cli.fit.s": total("cli.cmd_fit"),
        "cli.eval.s": total("cli.cmd_eval"),
    }
