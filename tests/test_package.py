import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import treeagg

from conftest import child_env

PUBLIC_API = [
    "EmpiricalCovariance",
    "FitOptions",
    "FitResult",
    "FixedTreeFit",
    "Graph",
    "GroundTruth",
    "PartitionedPrecision",
    "SelectionReport",
    "edge_posteriors",
    "fit",
    "fit_fixed_tree",
    "make_ground_truth",
    "select",
]


def test_public_api_is_pinned():
    # Only what a user calls to fit, select and simulate is exported; the
    # EM's inner steps and the kernel stay in their modules, and oracles for
    # the tests live in tests/conftest.py.
    assert sorted(treeagg.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(treeagg, name) is not None


def test_readme_quick_start_runs(capsys):
    # the README's library example runs on the exported names as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", readme, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "'bic'" in capsys.readouterr().out


def traced() -> tuple[tuple[str, str], ...]:
    """The (module, function) pairs of the benchmark tracer's TRACED tuple."""
    path = Path(__file__).resolve().parents[1] / "treebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("treebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    return tracing.TRACED


def test_traced_functions_resolve():
    # the benchmark's tracer wraps each (module, function) of its TRACED
    # tuple by name, so a rename here breaks every traced benchmark run
    for module_name, func_name in traced():
        module = importlib.import_module(f"treeagg.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def test_cli_import_loads_traced_modules():
    # the benchmark imports treeagg.cli and then patches each traced module
    # it finds in sys.modules, so a module the CLI imports lazily fails every
    # --trace 1 run with a KeyError; importing each module itself, as the
    # test above does, cannot see that
    script = "import sys, treeagg.cli\nprint(sorted(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    loaded = set(ast.literal_eval(result.stdout))
    missing = {f"treeagg.{module}" for module, _ in traced()} - loaded
    assert not missing


def test_every_error_type_is_raised():
    # an error class that no package code raises is one a caller can never
    # catch: scan the source for a `raise` of each class in errors.py
    src = Path(treeagg.__file__).resolve().parent
    tree = ast.parse((src / "errors.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"TreeAggError"}
    assert names
    code = "\n".join(path.read_text() for path in sorted(src.glob("*.py")) if path.name != "errors.py")
    unraised = {name for name in names if not re.search(rf"\braise\s+{name}\b", code)}
    assert not unraised
