"""Every name the benchmark scripts import from ``nearq`` still resolves.

``bench/`` lies outside the test paths, so without this check a change to
``src/`` could break ``bench/run.py`` or ``bench/traced.py`` with no failing test.
"""

import ast
import importlib
from pathlib import Path

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
