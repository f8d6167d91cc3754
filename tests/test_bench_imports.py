"""Every name the benchmark scripts import from ``nearq``, or read on a ``RunConfig``, still resolves.

``bench/`` lies outside the test paths, so without this check a change to
``src/`` could break ``bench/run.py`` or ``bench/traced.py`` with no failing test.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from nearq.cli import build_parser, config_from_args

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _nearq_imports():
    """(script, module, name) for each ``nearq`` import in bench/*.py; name is None for ``import nearq.x``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "nearq":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "nearq":
                        yield path.name, alias.name, None


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # from package import submodule
    except ImportError:
        return False
    return True


def test_bench_scripts_import_only_names_that_exist():
    imports = list(_nearq_imports())
    assert {script for script, _, _ in imports} >= {"run.py", "traced.py", "test_bench.py"}
    missing = [f"{script}: {module}{'.' + name if name else ''}"
               for script, module, name in imports if not _resolves(module, name)]
    assert not missing, missing


def _config_reads():
    """(script, name) for each ``cfg.<name>`` read in bench/*.py; ``cfg`` is a RunConfig there."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
                yield path.name, node.attr


def _bench_run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling artifacts.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)
    spec.loader.exec_module(module)
    return module


def test_bench_config_reads_resolve_for_every_workload(monkeypatch, tmp_path):
    reads = set(_config_reads())
    assert "traced.py" in {script for script, _ in reads}
    run = _bench_run_module(monkeypatch)
    for name, workload in run.WORKLOADS.items():
        for tiny in (False, True):
            argv = run.cli_argv(workload, 2, tmp_path / "out", tiny)
            cfg = config_from_args(build_parser().parse_args(argv))
            missing = sorted(f"{script}: cfg.{attr}" for script, attr in reads if not hasattr(cfg, attr))
            assert not missing, (name, missing)
