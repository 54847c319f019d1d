import importlib
import importlib.util
from pathlib import Path

import treeagg

PUBLIC_API = [
    "EStepState",
    "EmpiricalCovariance",
    "FitOptions",
    "FitResult",
    "FixedTreeFit",
    "Graph",
    "GroundTruth",
    "PartitionedPrecision",
    "SelectionReport",
    "e_step",
    "edge_marginals",
    "edge_posteriors",
    "fit",
    "fit_fixed_tree",
    "joint_entropy",
    "log_marginal_tree_weight",
    "log_partition_function",
    "m_step",
    "make_ground_truth",
    "observed_loglik",
    "penalty",
    "select",
    "tree_entropy",
    "tree_precision_from_cov",
    "uniform_prior",
]


def test_public_api_is_pinned():
    # Only what fits, selection, simulation and the CLI run is exported;
    # oracles for the tests live in tests/conftest.py.
    assert sorted(treeagg.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(treeagg, name) is not None


def test_traced_functions_resolve():
    # the benchmark's tracer wraps each (module, function) of its TRACED
    # tuple by name, so a rename here breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "treebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("treebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"treeagg.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)
