"""Every artifact but ``run.meta`` of a few small runs is byte-identical to its recorded digest.

The digests in ``artifact_digests.json`` are exact bits, so they hold per
platform: on a platform other than the recorded stamp the comparison skips and
names what differs. ``make_artifact_digests.py`` regenerates them.
"""

import csv
import json
from collections import Counter

import pytest

from make_artifact_digests import DIGESTS, run_artifacts, stamp

RECORDED = json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each recorded run's output directory and digests, produced once for the module."""
    root = tmp_path_factory.mktemp("digests")
    return {name: (root / name, run_artifacts(run["args"], root / name)) for name, run in RECORDED["runs"].items()}


@pytest.mark.parametrize("name", sorted(RECORDED["runs"]))
def test_artifacts_match_recorded_digests(runs, name):
    differing = [field for field, value in RECORDED["stamp"].items() if stamp().get(field) != value]
    if differing:
        pytest.skip(f"digests were recorded on another platform: {', '.join(differing)} differ")
    _, digests = runs[name]
    assert digests.keys() == RECORDED["runs"][name]["sha256"].keys()
    moved = [artifact for artifact, digest in RECORDED["runs"][name]["sha256"].items() if digests[artifact] != digest]
    assert not moved, f"{name}: {moved}"


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
