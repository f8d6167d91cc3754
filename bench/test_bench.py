"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

from artifacts import check, within  # noqa: E402
from nearq.cli import main as nearq_main  # noqa: E402
from traced import Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = run.spec()


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (name, traced): run.run(name, seed=3, seconds=0.01, traced=traced, tiny=True)
        for name in run.WORKLOADS
        for traced in (False, True)
        if traced or name == "itr-io"  # set-up probes start processes: measure one workload
    }


def test_declared_metrics_have_valid_names():
    for kind in ("end_to_end", "per_layer"):
        for metric in DECLARED[kind]:
            assert NAME.fullmatch(metric["name"]), metric
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_tiny_runs_are_correct_and_report_every_declared_metric(tiny_runs):
    for (name, traced), result in tiny_runs.items():
        verdicts = result["verdicts"]
        assert verdicts.attempted >= 2 and verdicts.failed == 0, (name, verdicts.problems)
        kind = "per_layer" if traced else "end_to_end"
        assert set(result["metrics"]) == set(run.declared(kind)), name


def test_traced_runs_report_layers_and_shares(tiny_runs):
    itr = tiny_runs[("itr-io", True)]["detail"]
    assert itr["layer_self_s"]["core"] > 0 and itr["shares"]["fits"] < 1
    fit = tiny_runs[("cancer-fit", True)]["metrics"]
    assert fit["nearequiv.chain_fits"] > 0 and fit["qlearn.backward_fit_s"] > 0


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling: [1, 5] covered once
        _span(3, 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10] counts
        _span(4, 1.5, 2.5, parent=1),  # a grandchild does not reduce the root again
        _span(5, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 1.0])


def test_tail_is_a_fixed_percentile_by_nearest_rank():
    values = [float(v) for v in range(30, 0, -1)]
    assert run.tail(values, 60) == (18.0, 12)
    assert run.tail(values, 100) == (30.0, 0)
    assert run.tail([2.0], 75) == (2.0, 0)


def test_rescale_divides_by_the_mean_of_the_probes_around_each_time():
    ref = run.SPEED_REF_S
    assert run.rescale([2.0, 3.0], [ref, ref, 2 * ref]) == pytest.approx([2.0, 2.0])


def test_passes_are_whole():
    assert list(run.passes([4, 6, 8], seconds=0.0)) == [4, 6, 8]
    seen = []
    for cli_seed in run.passes([4, 6, 8], seconds=0.1):
        time.sleep(0.01)
        seen.append(cli_seed)
    assert len(seen) % 3 == 0 and seen == [4, 6, 8] * (len(seen) // 3)


@pytest.fixture()
def cancer_out(tmp_path):
    out = tmp_path / "run"
    argv = run.cli_argv(run.WORKLOADS["cancer-fit"], 4, out, tiny=True)
    assert nearq_main(argv) == 0
    return out


def _check(out, seen=None):
    return check(out, "cancer", run.EPSILONS, 0, seen, None, {})


def test_check_accepts_a_clean_run(cancer_out):
    problems, found = _check(cancer_out)
    assert problems == [] and "train.csv" in found
    assert _check(cancer_out, seen=found)[0] == []


def test_check_rejects_a_corrupted_csv(cancer_out):
    _, found = _check(cancer_out)
    path = cancer_out / "trajectories.csv"
    text = path.read_text()
    path.write_text(text[:-2] + ("1" if text[-2] != "1" else "0") + "\n")
    problems, _ = _check(cancer_out, seen=found)
    assert any("trajectories.csv differs" in p for p in problems)


def test_check_rejects_a_missing_artifact(cancer_out):
    (cancer_out / "band_eps0.5.csv").unlink()
    problems, _ = _check(cancer_out)
    assert problems == ["artifact missing or empty: band_eps0.5.csv"]


def test_check_rejects_a_rank1_curve_that_differs_from_opt(cancer_out):
    path = cancer_out / "curves_eps0.3.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("eps0.3-rank1,3,"))
    fields = lines[i].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems, _ = _check(cancer_out)
    assert problems == ["curves_eps0.3.csv: eps0.3-rank1 curve differs from opt"]


def test_check_rejects_an_inverted_band_and_a_failed_exit(cancer_out):
    path = cancer_out / "band_eps0.1.csv"
    header, first, *rest = path.read_text().splitlines()
    month, lo, hi = first.split(",")
    path.write_text("\n".join([header, f"{month},{hi},{lo}", *rest]) + "\n")
    assert _check(cancer_out)[0] == ["band_eps0.1.csv: band_lo > band_hi at month 0"]
    shutil.rmtree(cancer_out)
    assert check(cancer_out, "cancer", run.EPSILONS, 1, None, None, {})[0] == ["exit code 1"]


def test_tolerances_cover_every_reference_summary():
    reference = json.loads((run.BENCH / "reference.json").read_text())
    for name, seeds in reference["seeds"].items():
        assert set(seeds) >= {str(s) for s in run.cli_seeds(run.WORKLOADS[name], 0)[:2]}
        for summary in seeds.values():
            for key, value in summary.items():
                assert within(key, value, value, reference["tolerance"])
    assert not within("eps0.1.band_fraction", 0.5, 0.52, reference["tolerance"])
