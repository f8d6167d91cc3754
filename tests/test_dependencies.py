"""numpy is the one runtime dependency: the package imports and runs with scipy unavailable,
and loads no numpy submodule it does not use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    result = _python("import sys, nearq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                     tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    # callers import names from their modules; the package itself holds only the version
    result = _python("import sys, nearq; print(sorted(m for m in sys.modules if m.startswith('nearq.')))",
                     tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


VALIDATE_A_SMALL_DATASET = """
import sys
import numpy as np
from nearq.core import ActionSpace, OfflineDataset, validate
space = ActionSpace((0.0, 1.0))
ds = OfflineDataset.from_rows([0, 0, 1], [0, 1, 0], np.zeros((3, 1)), [0, 1, 1], [0.0, 1.0, 2.0],
                              1, (space, space), (1, 1))
report = validate(ds)
print(report.ok, report.warnings, "numpy.ma" in sys.modules)
"""


def test_validate_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first call; counting actions with np.bincount does not
    result = _python(VALIDATE_A_SMALL_DATASET, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True ['degenerate action support at stage 1: only 1 distinct action observed'] False\n"


RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from nearq.cli import main
for argv in (
    ["oracle"],
    ["itr", "--n-train", "40", "--n-test", "20", "--grid-resolution", "3", "--epsilon", "0.5", "--out", "itr"],
    ["cancer", "--n-train", "40", "--n-test", "10", "--epsilon", "0.5", "--out", "cancer"],
):
    print(argv[0], main(argv))
"""


def test_every_command_runs_without_scipy(tmp_path):
    result = _python(RUN_WITHOUT_SCIPY, tmp_path)
    assert result.returncode == 0, result.stderr
    codes = [line.split() for line in result.stdout.splitlines() if not line.startswith("wrote ")]
    assert codes[-3:] == [["oracle", "0"], ["itr", "0"], ["cancer", "0"]], result.stdout + result.stderr
    assert (tmp_path / "itr" / "run.meta").is_file() and (tmp_path / "cancer" / "run.meta").is_file()
