"""Every artifact but ``run.meta`` of a few small runs is byte-identical to its recorded digest.

The digests in ``artifact_digests.json`` are exact bits, so they hold per
platform: on a platform other than the recorded stamp the comparison skips and
names what differs. ``make_artifact_digests.py`` regenerates them. The text
rule every CSV cell follows is checked on every platform.
"""

import csv
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from make_artifact_digests import DIGESTS, run_artifacts, stamp

RECORDED = json.loads(DIGESTS.read_text())
HERE = stamp()
DIFFERING = [f"{field} is {HERE.get(field)!r}, recorded {value!r}"
             for field, value in RECORDED["stamp"].items() if HERE.get(field) != value]
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each recorded run's output directory and digests, produced once for the module."""
    root = tmp_path_factory.mktemp("digests")
    return {name: (root / name, run_artifacts(run["args"], root / name)) for name, run in RECORDED["runs"].items()}


@pytest.mark.skipif(bool(DIFFERING), reason=f"digests were recorded on another platform: {'; '.join(DIFFERING)}")
@pytest.mark.parametrize("name", sorted(RECORDED["runs"]))
def test_artifacts_match_recorded_digests(runs, name):
    _, digests = runs[name]
    assert digests.keys() == RECORDED["runs"][name]["sha256"].keys()
    moved = [artifact for artifact, digest in RECORDED["runs"][name]["sha256"].items() if digests[artifact] != digest]
    assert not moved, f"{name}: {moved}"


@pytest.mark.skipif(platform.machine() != "x86_64" or RECORDED["stamp"]["openblas_core"] in (None, "Haswell"),
                    reason="needs digests recorded with an x86-64 OpenBLAS core other than Haswell")
def test_digests_skip_under_another_openblas_core():
    # the AVX2 kernels move some digests' bits on an AVX-512 machine, so the stamp must tell them apart
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_artifacts_match_recorded_digests"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(RECORDED['runs'])} skipped" in result.stdout, result.stdout
    assert "openblas_core is 'Haswell'" in result.stdout, result.stdout


def _rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_recorded_runs_have_several_ranks_padding_and_deaths(runs):
    # the digests pin only what the runs exercise: some tolerance must keep m >= 3 ranks
    # with live patients padded below m, and some cohort must lose patients
    padded_at_m3 = deaths = 0
    for out, _ in runs.values():
        for path in out.glob("admissible_eps*.csv"):
            rows = _rows(path)
            ranks = Counter(row["patient_id"] for row in rows if row["action_index"] != "-1")
            m = max(int(row["rank"]) for row in rows)
            if m >= 3:
                padded_at_m3 += sum(1 for count in ranks.values() if count < m)
        if (out / "trajectories.csv").exists():
            deaths += sum(row["alive"] == "0" for row in _rows(out / "trajectories.csv"))
    assert padded_at_m3 > 0
    assert deaths > 0


INTEGER_COLUMNS = frozenset({"patient_id", "stage", "rank", "action_index", "alive", "month", "n_test",
                             "misclassified_total", "misclassified_in_band"})
TEXT_COLUMNS = frozenset({"policy_label"})  # every other column holds floats


def _canonical(column: str, cell: str) -> str | None:
    """The text the writers give the value ``cell`` reads as in ``column``; None if it reads as none."""
    if column in TEXT_COLUMNS:
        return cell
    try:
        return str(int(cell)) if column in INTEGER_COLUMNS else repr(float(cell))
    except ValueError:
        return None


def test_every_csv_cell_is_the_canonical_text_of_its_value(runs):
    # the digests pin bytes only where the stamp matches; this holds on every platform. A cell
    # may be empty only where the format says so: a trajectory's dose and reward in a month
    # with no decision, after death or at the last month
    off = []
    for name, (out, _) in runs.items():
        for path in sorted(out.glob("*.csv")):
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            last = max(int(row[header.index("stage")]) for row in rows) if path.name == "trajectories.csv" else None
            for line, row in enumerate(rows, start=2):
                cells = dict(zip(header, row, strict=True))
                undecided = last is not None and (cells["alive"] == "0" or int(cells["stage"]) == last)
                for column, cell in cells.items():
                    if undecided and column in ("dose", "reward"):
                        ok = cell == ""
                    else:
                        ok = cell != "" and _canonical(column, cell) == cell
                    if not ok:
                        off.append(f"{name}/{path.name} line {line}, {column}: {cell!r}")
    assert not off, f"{len(off)} cells, the first: {off[:5]}"
