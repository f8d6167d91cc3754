import contextlib
import csv
import hashlib
import io
import json
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearq.cli
import nearq.nearequiv
import nearq.regression
from nearq.cli import main
from nearq.core import StageRecord, load_csv, validate
from nearq.envs import UNIFORM_RANDOM, CancerParams, ItrConfig, simulate_cancer_cohort, simulate_itr
from nearq.evalkit import band_stats, blip_surface
from nearq.oracle import dp_oracle
from nearq.qlearn import stack_from_dict
from nearq.regression import load_model


def _run(*args):
    return main(list(args))


def test_itr_run_produces_schema_valid_artifacts(tmp_path):
    out = tmp_path / "run"
    code = _run(
        "itr", "--seed", "3", "--n-train", "60", "--n-test", "40",
        "--epsilon", "0.5", "--grid-resolution", "9", "--out", str(out),
    )
    assert code == 0
    for name in ("train.csv", "test.csv", "model.json", "blip_surface.csv",
                 "band_stats_eps0.5.csv", "run.meta"):
        assert (out / name).exists(), name
    train = load_csv(out / "train.csv")
    assert validate(train).ok
    assert train.n_patients == 60
    meta = dict(
        line.split("=", 1) for line in (out / "run.meta").read_text().splitlines()
    )
    assert meta["seed"] == "3"
    assert meta["experiment"] == '"itr"'
    assert "timing_fit_seconds" in meta
    blip = (out / "blip_surface.csv").read_text().splitlines()
    assert blip[0] == "x0,x1,blip"
    assert len(blip) == 1 + 9 * 9


def test_repeated_runs_are_bitwise_identical(tmp_path):
    args = ["itr", "--seed", "5", "--n-train", "50", "--n-test", "30",
            "--epsilon", "0.3", "--grid-resolution", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(*args, "--out", str(out1)) == 0
    assert _run(*args, "--out", str(out2)) == 0
    for name in ("train.csv", "test.csv", "blip_surface.csv", "band_stats_eps0.3.csv", "model.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cancer_repeated_runs_are_bitwise_identical(tmp_path):
    args = ["cancer", "--seed", "13", "--n-train", "70", "--n-test", "30", "--epsilon", "0.3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(*args, "--out", str(out1)) == 0
    assert _run(*args, "--out", str(out2)) == 0
    for name in ("train.csv", "trajectories.csv", "qstack.json",
                 "curves_eps0.3.csv", "band_eps0.3.csv", "admissible_eps0.3.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_epsilon_one_rejected_before_any_work(tmp_path):
    out = tmp_path / "never"
    code = _run("itr", "--epsilon", "1.0", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "dry"
    code = _run("cancer", "--dry-run", "--out", str(out))
    assert code == 0
    assert not out.exists()
    assert "dry run" in capsys.readouterr().out


def test_cancer_run_artifacts_and_timings(tmp_path):
    out = tmp_path / "cancer"
    code = _run(
        "cancer", "--seed", "11", "--n-train", "80", "--n-test", "40",
        "--epsilon", "0.1", "--out", str(out),
    )
    assert code == 0
    for name in ("train.csv", "trajectories.csv", "qstack.json",
                 "curves_eps0.1.csv", "band_eps0.1.csv", "admissible_eps0.1.csv", "run.meta"):
        assert (out / name).exists(), name
    meta = dict(
        line.split("=", 1) for line in (out / "run.meta").read_text().splitlines()
    )
    assert float(meta["timing_fit_seconds"]) > 0
    assert not [key for key in meta if key.startswith("timing_") and key != "timing_fit_seconds"]
    stack = json.loads((out / "qstack.json").read_text())
    assert stack["horizon"] == 5 and len(stack["models"]) == 6
    curves = (out / "curves_eps0.1.csv").read_text().splitlines()
    assert curves[0] == "policy_label,month,mean_combined,stderr_combined,mean_cum_reward"
    labels = {line.split(",")[0] for line in curves[1:]}
    assert "opt" in labels and "const-0.0" in labels and "eps0.1-rank1" in labels


def test_oracle_command(tmp_path, capsys, monkeypatch):
    assert _run("oracle") == 0
    assert "passed" in capsys.readouterr().out

    def perturbed_oracle(dataset):
        tables = dp_oracle(dataset)
        tables.q0[0, 0] += 1.0
        return tables

    monkeypatch.setattr(nearq.cli, "dp_oracle", perturbed_oracle)
    assert _run("oracle") == 1
    assert "FAILED" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "n_train": 50, "n_test": 30, "epsilons": [0.3]}))
    out = tmp_path / "cfgrun"
    code = _run("itr", "--config", str(cfg), "--n-train", "70",
                "--grid-resolution", "5", "--out", str(out))
    assert code == 0
    meta = dict(
        line.split("=", 1) for line in (out / "run.meta").read_text().splitlines()
    )
    assert meta["seed"] == "5"          # from config file
    assert meta["n_train"] == "70"      # command line wins
    assert load_csv(out / "train.csv").n_patients == 70


@pytest.mark.parametrize("command,names", [
    ("itr", ["band_stats_eps0.0.csv"]),
    ("cancer", ["curves_eps0.0.csv", "band_eps0.0.csv", "admissible_eps0.0.csv"]),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_tolerance_of_negative_zero_is_written_as_zero(tmp_path, command, names, via):
    # -0.0 equals 0.0 and every negative tolerance is refused, so no artifact reads as one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilons": [-0.0]}))
    given = ["--epsilon", "-0.0"] if via == "flag" else ["--config", str(cfg)]
    out = tmp_path / "run"
    assert _run(command, *given, "--n-train", "40", "--n-test", "20", "--out", str(out)) == 0
    assert sorted(path.name for path in out.glob("*_eps*")) == sorted(names)
    assert "epsilons=[0.0]" in (out / "run.meta").read_text().splitlines()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_ridge_of_negative_zero_is_recorded_as_zero(tmp_path, via):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ridge": -0.0}))
    given = ["--ridge", "-0.0"] if via == "flag" else ["--config", str(cfg)]
    out = tmp_path / "run"
    assert _run("cancer", *given, "--n-train", "40", "--n-test", "20", "--out", str(out)) == 0
    assert "ridge=0.0" in (out / "run.meta").read_text().splitlines()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"volume": 11}))
    assert _run("itr", "--config", str(cfg)) == 2


def test_nan_ridge_rejected_before_any_work(tmp_path, capsys):
    out = tmp_path / "never"
    assert _run("cancer", "--ridge", "nan", "--out", str(out)) == 2
    assert not out.exists()
    assert "ridge" in capsys.readouterr().err


def test_infinite_kernel_bandwidth_rejected_before_any_work(tmp_path, capsys):
    out = tmp_path / "never"
    assert _run("cancer", "--kernel-bandwidth", "inf", "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "kernel_bandwidth" in err


@pytest.mark.parametrize("payload", [
    {"epsilons": 0.1},
    {"epsilons": "0"},
    {"epsilons": [0.1, True]},
    {"seed": None},
    {"seed": True},
    {"n_train": 2.7},
    {"grid_resolution": "9"},
    {"ridge": False},
    {"ridge": 10**400},
    {"kernel_bandwidth": "2"},
    {"mode": 1},
    {"regression_mode": "ridge"},
    {"out": 5},
], ids=lambda payload: ",".join(f"{k}={json.dumps(v)}"[:40] for k, v in payload.items()))
def test_config_values_of_the_wrong_type_rejected(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "never"
    command = "itr" if "grid_resolution" in payload else "cancer"
    assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    (key,) = payload
    assert "invalid configuration" in err and repr(key) in err


def test_failed_run_prints_the_cause_chain(tmp_path, capsys, monkeypatch):
    import nearq.qlearn

    def failing_fit(*args, **kwargs):
        raise ValueError("injected solver failure")

    monkeypatch.setattr(nearq.qlearn, "fit_columns", failing_fit)
    out = tmp_path / "failed"
    code = _run("cancer", "--seed", "3", "--n-train", "40", "--n-test", "10",
                "--epsilon", "0.1", "--out", str(out))
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "run failed: regression failed at stage 4"
    assert err[1] == "caused by: ValueError: injected solver failure"


def test_runs_build_no_stage_records(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a run built a stage record")

    monkeypatch.setattr(StageRecord, "__post_init__", refuse)
    assert _run("itr", "--seed", "3", "--n-train", "60", "--n-test", "40", "--epsilon", "0.5",
                "--grid-resolution", "5", "--out", str(tmp_path / "itr")) == 0
    assert _run("cancer", "--seed", "11", "--n-train", "60", "--n-test", "20",
                "--epsilon", "0.3", "--out", str(tmp_path / "cancer")) == 0


# sha256 of the cohort files written by
# `nearq itr --seed 5 --n-train 50 --n-test 30 --epsilon 0.3 --grid-resolution 5`.
# The itr simulator uses no exp or BLAS, so these bytes are the same on every machine.
ITR_COHORT_SHA256 = {
    "train.csv": "5778a6919c6a6af0e543d434fd99a85c7be43edc3a046f70a564a4b1f90aa491",
    "train.csv.meta.json": "74fe7b6d2bf1b0399526bceeec2c653292c31ebb280416712ff08e40f67b8921",
    "test.csv": "fbab3105ed05e15f8166c211df20828bc7f3f6b8997e4829bdd9cbc6aba65ea3",
    "test.csv.meta.json": "74fe7b6d2bf1b0399526bceeec2c653292c31ebb280416712ff08e40f67b8921",
}


def test_itr_cohort_bytes_match_recorded_digests(tmp_path):
    out = tmp_path / "itr"
    assert _run("itr", "--seed", "5", "--n-train", "50", "--n-test", "30", "--epsilon", "0.3",
                "--grid-resolution", "5", "--out", str(out)) == 0
    for name, digest in ITR_COHORT_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def _numeric_columns(path):
    """Every column but the policy label, each cell parsed with ``float()`` (None if empty)."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, path
    return {
        name: [float(r[name]) if r[name] else None for r in rows]
        for name in rows[0] if name != "policy_label"
    }


def _assert_cohort_csv(path, dataset):
    cols = _numeric_columns(path)
    assert cols["patient_id"] == dataset.patient.tolist()
    assert cols["stage"] == dataset.stage.tolist()
    for j in range(dataset.features.shape[1]):
        assert cols[f"cov_{j}"] == dataset.features[:, j].tolist()
    assert cols["action_index"] == dataset.actions.tolist()
    assert cols["reward"] == dataset.rewards.tolist()


def test_itr_csv_cells_are_floats_equal_to_the_source_arrays(tmp_path):
    out = tmp_path / "itr"
    assert _run("itr", "--seed", "4", "--n-train", "50", "--n-test", "30", "--epsilon", "0.3",
                "--grid-resolution", "3", "--out", str(out)) == 0
    train, test = simulate_itr(ItrConfig(50, 4)), simulate_itr(ItrConfig(30, 5))
    _assert_cohort_csv(out / "train.csv", train)
    _assert_cohort_csv(out / "test.csv", test)
    assert load_csv(out / "train.csv") == train
    assert load_csv(out / "test.csv") == test
    model = load_model(out / "model.json")
    grid = blip_surface(model, 3)
    cols = _numeric_columns(out / "blip_surface.csv")
    for j, name in enumerate(("x0", "x1", "blip")):
        assert cols[name] == grid[:, j].tolist()
    stats = band_stats(model, test, 0.3)
    cols = _numeric_columns(out / "band_stats_eps0.3.csv")
    assert {name: values[0] for name, values in cols.items()} == {
        name: float(getattr(stats, name)) for name in cols
    }


def test_cancer_csv_cells_are_floats_equal_to_the_source_arrays(tmp_path):
    out = tmp_path / "cancer"
    assert _run("cancer", "--seed", "6", "--n-train", "40", "--n-test", "10", "--epsilon", "0.5",
                "--out", str(out)) == 0
    cohort = simulate_cancer_cohort(CancerParams(), UNIFORM_RANDOM, 40, 6, label="train")
    _assert_cohort_csv(out / "train.csv", cohort.dataset)
    assert load_csv(out / "train.csv") == cohort.dataset
    cols = _numeric_columns(out / "trajectories.csv")
    n, months = cohort.tumor.shape
    assert cols["patient_id"] == np.repeat(np.arange(n), months).tolist()
    assert cols["stage"] == np.tile(np.arange(months), n).tolist()
    assert cols["tumor"] == cohort.tumor.ravel().tolist()
    assert cols["toxicity"] == cohort.toxicity.ravel().tolist()
    assert cols["alive"] == cohort.alive.ravel().astype(float).tolist()
    grid = np.asarray(cohort.action_space.values)
    doses = [grid[k] if k >= 0 else None for k in np.pad(cohort.dose_index, ((0, 0), (0, 1)),
                                                          constant_values=-1).ravel()]
    assert cols["dose"] == doses
    scored = np.pad(cohort.alive[:, :-1], ((0, 0), (0, 1)))
    rewards = np.pad(cohort.rewards, ((0, 0), (0, 1)))
    assert cols["reward"] == [r if s else None for r, s in zip(rewards.ravel().tolist(), scored.ravel())]
    for name in ("curves_eps0.5.csv", "band_eps0.5.csv", "admissible_eps0.5.csv"):
        assert all(None not in values for values in _numeric_columns(out / name).values()), name


def _counting(monkeypatch, module, name, counts):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cancer_run_fits_once_and_reuses_the_classical_rollout(tmp_path, monkeypatch):
    counts = {}
    _counting(monkeypatch, nearq.nearequiv, "fit_final_stage", counts)
    _counting(monkeypatch, nearq.nearequiv, "fit_chains", counts)
    _counting(monkeypatch, nearq.regression, "_screen_kernel", counts)
    evaluate = nearq.cli.evaluate_policies

    def counted_evaluate(*args):
        # screen kernel matrices built while the CLI's evaluate_policies call runs
        before = counts.get("_screen_kernel", 0)
        results = evaluate(*args)
        counts["evaluate_policies"] = counts.get("evaluate_policies", 0) + 1
        counts["eval_kernels"] = counts.get("eval_kernels", 0) + counts.get("_screen_kernel", 0) - before
        return results

    monkeypatch.setattr(nearq.cli, "evaluate_policies", counted_evaluate)
    out = tmp_path / "cancer"
    epsilons = ("0.1", "0.5", "0.9")
    args = ["cancer", "--seed", "11", "--n-train", "60", "--n-test", "20", "--out", str(out)]
    for eps in epsilons:
        args += ["--epsilon", eps]
    assert _run(*args) == 0
    ms = [int(max(_numeric_columns(out / f"admissible_eps{eps}.csv")["rank"])) for eps in epsilons]
    assert max(ms) > 1
    assert counts["fit_final_stage"] == 1
    assert counts["fit_chains"] == 1
    assert counts["evaluate_policies"] == 1
    # one screen kernel matrix per (stage, action), shared by all 1 + sum(m - 1) learned policies:
    # an action no patient got at a stage, a kernel with no inputs, is screened as any other
    stack = stack_from_dict(json.loads((out / "qstack.json").read_text()))
    kernel_actions = sum(comp[0] == "kernel" for model in stack.models for comp in model.components)
    assert len(CancerParams().dose_grid) == 11
    assert 0 < kernel_actions < len(stack.models) * 11  # some actions have no inputs
    assert counts["eval_kernels"] == len(stack.models) * 11
    for eps in epsilons:
        with (out / f"curves_eps{eps}.csv").open() as fh:
            rows = [line.split(",", 1) for line in fh.read().splitlines()[1:]]
        curve = {label: [] for label, _ in rows}
        for label, rest in rows:
            curve[label].append(rest)
        assert curve[f"eps{eps}-rank1"] == curve["opt"]


def test_cancer_classical_stack_does_not_depend_on_the_tolerances(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "n_train": 50, "n_test": 10, "epsilons": [0.1]}))
    one, two = tmp_path / "one", tmp_path / "two"
    assert _run("cancer", "--config", str(cfg), "--out", str(one)) == 0
    assert _run("cancer", "--config", str(cfg), "--epsilon", "0.3", "--epsilon", "0.9", "--out", str(two)) == 0
    assert sorted(path.name for path in two.glob("curves_*")) == ["curves_eps0.3.csv", "curves_eps0.9.csv"]
    assert (one / "qstack.json").read_bytes() == (two / "qstack.json").read_bytes()


@pytest.mark.parametrize("command", ["itr", "cancer"])
def test_empty_epsilon_list_rejected_before_any_work(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilons": []}))
    out = tmp_path / "never"
    assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "epsilons" in err


ITR_SMALL = ("itr", "--n-train", "40", "--n-test", "20", "--grid-resolution", "3")
CANCER_SMALL = ("cancer", "--n-train", "40", "--n-test", "10")


def _snapshot(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_a_run_repeated_after_another_in_process_writes_the_same_bytes(tmp_path):
    # seed 21, then seed 22, then seed 21 again in one process: the two seed-21 runs write the
    # same bytes, so nothing of one run's fits (their stacked weights and screen arrays) reaches
    # the next run's decisions
    runs = {}
    for name, seed in (("a", "21"), ("b", "22"), ("a-again", "21")):
        out = tmp_path / name
        assert _run("cancer", "--n-train", "80", "--n-test", "20", "--seed", seed, "--epsilon", "0.9",
                    "--out", str(out)) == 0
        runs[name] = {path: data for path, data in _snapshot(out).items() if path != "run.meta"}
    assert max(_numeric_columns(tmp_path / "a" / "admissible_eps0.9.csv")["rank"]) > 1
    assert runs["a"] == runs["a-again"]
    assert all(runs["a"][path] != runs["b"][path] for path in ("qstack.json", "curves_eps0.9.csv"))


def test_reused_out_holds_only_the_second_runs_files(tmp_path):
    out = tmp_path / "run"
    assert _run(*CANCER_SMALL, "--seed", "3", "--epsilon", "0.1", "--out", str(out)) == 0
    assert _run(*CANCER_SMALL, "--seed", "4", "--epsilon", "0.3", "--out", str(out)) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted([
        "train.csv", "train.csv.meta.json", "trajectories.csv", "qstack.json", "run.meta",
        "curves_eps0.3.csv", "band_eps0.3.csv", "admissible_eps0.3.csv",
    ])
    assert "seed=4" in (out / "run.meta").read_text().splitlines()
    assert list(tmp_path.iterdir()) == [out]


def test_siblings_left_by_a_killed_run_with_this_pid_do_not_block_the_next(tmp_path):
    # a killed run whose pid this process now holds left both of its staging siblings behind
    out = tmp_path / "run"
    stale = [out.with_name(f"run.{kind}-{os.getpid()}") for kind in ("partial", "old")]
    for path in stale:
        path.mkdir()
        (path / "trajectories.csv").write_text("left behind\n")
    plain = tmp_path / "plain"
    plain.mkdir()
    for seed in ("3", "4"):  # the second run also moves the first one's out aside
        assert _run(*CANCER_SMALL, "--seed", seed, "--epsilon", "0.1", "--out", str(out)) == 0
        assert "seed=" + seed in (out / "run.meta").read_text().splitlines()
        # out has the mode mkdir gives a directory, not mkdtemp's 0700
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([out, plain, *stale])
    assert all((path / "trajectories.csv").read_text() == "left behind\n" for path in stale)


@pytest.mark.parametrize("failing, message", [
    ("blip-writer", "injected write failure"),
    ("run-meta", "injected write failure"),
    ("headerless-csv", "artifact has no CSV header: blip_surface.csv"),
    ("empty-file", "artifact is empty: blip_surface.csv"),
], ids=["blip-writer", "run-meta", "headerless-csv", "empty-file"])
def test_failed_write_leaves_the_previous_out_untouched(tmp_path, monkeypatch, capsys, failing, message):
    out = tmp_path / "run"
    assert _run(*ITR_SMALL, "--seed", "3", "--epsilon", "0.3", "--out", str(out)) == 0
    before = _snapshot(out)
    write_text = type(out).write_text

    def failing_writer(grid, path):
        if failing == "blip-writer":
            raise OSError("injected write failure")
        path.write_text("" if failing == "empty-file" else "0.5\n")

    def failing_meta(self, text):
        if self.name == "run.meta":
            raise OSError("injected write failure")
        return write_text(self, text)

    # either way the cohorts and the model are written by then
    if failing == "run-meta":
        monkeypatch.setattr(type(out), "write_text", failing_meta)
    else:
        monkeypatch.setattr(nearq.cli, "save_blip_csv", failing_writer)
    assert _run(*ITR_SMALL, "--seed", "5", "--epsilon", "0.5", "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert _snapshot(out) == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", [ITR_SMALL, CANCER_SMALL], ids=["itr", "cancer"])
def test_writer_failing_part_way_leaves_the_previous_out_untouched(tmp_path, monkeypatch, capsys, command):
    import nearq.core
    import nearq.envs

    out = tmp_path / "run"
    assert _run(*command, "--seed", "3", "--epsilon", "0.3", "--out", str(out)) == 0
    before = _snapshot(out)
    write_csvs = nearq.core.write_csvs

    def failing_after_one_block(headers, n, block):
        write_csvs(headers, nearq.core.CSV_BLOCK_ROWS, block)
        lines = [len(columns[0]) for columns in block(0, nearq.core.CSV_BLOCK_ROWS)]
        assert [len(Path(path).read_text().splitlines()) for path in headers] == [1 + k for k in lines]
        assert lines[0] >= nearq.core.CSV_BLOCK_ROWS
        raise OSError("injected failure after one block")

    # the first artifact of either command is the training cohort: core.save_csv writes it for itr,
    # envs.save_trajectories_csv writes it with trajectories.csv for cancer
    monkeypatch.setattr(nearq.core, "CSV_BLOCK_ROWS", 8)
    monkeypatch.setattr(nearq.core, "write_csvs", failing_after_one_block)
    monkeypatch.setattr(nearq.envs, "write_csvs", failing_after_one_block)
    assert _run(*command, "--seed", "5", "--epsilon", "0.5", "--out", str(out)) == 1
    assert "injected failure after one block" in capsys.readouterr().err
    assert _snapshot(out) == before
    assert list(tmp_path.iterdir()) == [out]


def test_failed_swap_puts_the_previous_out_back(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert _run(*ITR_SMALL, "--seed", "3", "--epsilon", "0.3", "--out", str(out)) == 0
    before = _snapshot(out)
    rename = type(out).rename

    def failing_rename(self, target):
        if ".partial-" in self.name:
            raise OSError("injected rename failure")
        return rename(self, target)

    monkeypatch.setattr(type(out), "rename", failing_rename)
    assert _run(*ITR_SMALL, "--seed", "5", "--epsilon", "0.3", "--out", str(out)) == 1
    assert _snapshot(out) == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
@pytest.mark.parametrize("kind", ["file", "foreign-dir"])
def test_unsafe_out_refused_before_any_work(tmp_path, capsys, kind, dry_run):
    out = tmp_path / "target"
    if kind == "file":
        out.write_text("not a run\n")
    else:
        out.mkdir()
        (out / "notes.txt").write_text("not a run\n")
    listing = sorted(tmp_path.rglob("*"))
    assert _run(*CANCER_SMALL, "--epsilon", "0.1", *dry_run, "--out", str(out)) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == listing
    assert (out if kind == "file" else out / "notes.txt").read_text() == "not a run\n"


def test_out_dot_is_resolved_and_refused_when_foreign(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notes.txt").write_text("not a run\n")
    assert _run(*ITR_SMALL, "--epsilon", "0.3", "--out", ".") == 2
    assert [path.name for path in tmp_path.iterdir()] == ["notes.txt"]


def test_out_dot_of_an_earlier_run_is_replaced(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert _run(*ITR_SMALL, "--epsilon", "0.1", "--out", str(out)) == 0
    monkeypatch.chdir(out)
    assert _run(*ITR_SMALL, "--epsilon", "0.3", "--out", ".") == 0
    assert sorted(path.name for path in out.iterdir() if "eps" in path.name) == ["band_stats_eps0.3.csv"]
    assert list(tmp_path.iterdir()) == [out]


def test_runs_neither_reparse_nor_use_temporary_directories(tmp_path, monkeypatch):
    import tempfile

    import nearq.core

    def refuse(*args, **kwargs):
        raise AssertionError("a run re-read an artifact or made a temporary directory")

    monkeypatch.setattr(nearq.core, "load_csv", refuse)
    monkeypatch.setattr(nearq.cli, "load_csv", refuse, raising=False)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", refuse)
    assert _run(*ITR_SMALL, "--epsilon", "0.3", "--out", str(tmp_path / "itr")) == 0
    assert _run(*CANCER_SMALL, "--epsilon", "0.3", "--out", str(tmp_path / "cancer")) == 0


def _exit_code(*args):
    """``main``'s return value, or the status of the SystemExit argparse raises on a bad command line."""
    try:
        return _run(*args)
    except SystemExit as err:
        return err.code


# itr has no backend options, so argparse refuses them; cancer's linear backend has no bandwidth
@pytest.mark.parametrize("argv, named", [
    (("itr", "--kernel-bandwidth", "7"), "unrecognized arguments: --kernel-bandwidth"),
    (("cancer", "--regression", "interaction-linear", "--config", "{cfg}"),
     "invalid configuration: kernel_bandwidth applies only"),
    (("itr", "--regression", "per-action-kernel"), "unrecognized arguments: --regression"),
], ids=["itr-bandwidth-flag", "cancer-linear-bandwidth-config", "itr-kernel-backend"])
def test_backend_options_must_match_the_backend(tmp_path, capsys, argv, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel_bandwidth": 2.0}))
    out = tmp_path / "never"
    assert _exit_code(*(arg.format(cfg=cfg) for arg in argv), "--out", str(out)) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


def test_cancer_linear_backend_records_no_bandwidth(tmp_path):
    out = tmp_path / "run"
    assert _run(*CANCER_SMALL, "--regression", "interaction-linear", "--epsilon", "0.1",
                "--out", str(out)) == 0
    meta = dict(line.split("=", 1) for line in (out / "run.meta").read_text().splitlines())
    assert "kernel_bandwidth" not in meta
    assert meta["regression_mode"] == '"interaction-linear"'


@pytest.mark.parametrize("how", ["flags", "config"])
def test_duplicate_epsilon_rejected(tmp_path, capsys, how):
    out = tmp_path / "never"
    if how == "flags":
        argv = ["--epsilon", "0.5", "--epsilon", "0.50"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilons": [0.1, 0.5, 0.5]}))
        argv = ["--config", str(cfg)]
    assert _run(*CANCER_SMALL, *argv, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "0.5" in err


ITR_KEYS = {"seed", "n_train", "n_test", "epsilons", "ridge", "grid_resolution", "out"}
CANCER_KEYS = {"seed", "n_train", "n_test", "epsilons", "mode", "regression_mode", "ridge",
               "kernel_bandwidth", "out"}
COMMAND_KEYS = {"itr": ITR_KEYS, "cancer": CANCER_KEYS, "oracle": set()}
# a value of the right type for each key, in range for the command that reads it
VALID = {"seed": 1, "n_train": 22, "n_test": 5, "epsilons": [0.2], "mode": "absolute",
         "regression_mode": "per-action-kernel", "ridge": 0.5, "kernel_bandwidth": 1.5,
         "grid_resolution": 3, "out": "elsewhere"}


@pytest.mark.parametrize("command, flags", [
    ("itr", {"--seed", "--n-train", "--n-test", "--epsilon", "--ridge", "--grid-resolution",
             "--out", "--config", "--dry-run"}),
    ("cancer", {"--seed", "--n-train", "--n-test", "--epsilon", "--mode", "--regression", "--ridge",
                "--kernel-bandwidth", "--out", "--config", "--dry-run"}),
    ("oracle", set()),
])
def test_each_command_takes_exactly_the_options_it_reads(tmp_path, capsys, command, flags):
    assert _exit_code(command, "--help") == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"} == flags
    if command == "oracle":
        return
    for key, value in VALID.items():
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = _run(command, "--config", str(cfg), "--dry-run", "--out", str(tmp_path / "never"))
        err = capsys.readouterr().err
        if key in COMMAND_KEYS[command]:
            assert code == 0, err
        else:
            assert code == 2 and f"unknown config key {key!r}" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "--seed", "1"),
    ("itr", "--mode", "relative"),
    ("itr", "--regression", "interaction-linear"),
    ("cancer", "--grid-resolution", "5"),
    ("itr", "--config", '{"mode": "absolute"}'),
    ("cancer", "--config", '{"grid_resolution": 61}'),
], ids=["oracle-seed", "itr-mode", "itr-regression", "cancer-grid-resolution",
        "itr-config-mode", "cancer-config-grid-resolution"])
def test_an_option_the_command_does_not_read_is_refused_before_any_work(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    if argv[1] == "--config":
        cfg.write_text(argv[2])
        argv = (argv[0], "--config", str(cfg))
    out = tmp_path / "never"
    assert _exit_code(*argv, *(("--out", str(out)) if argv[0] != "oracle" else ())) == 2
    assert list(tmp_path.iterdir()) == ([cfg] if cfg.exists() else [])
    assert capsys.readouterr().out == ""


def _meta(out):
    return {key: json.loads(value)
            for key, value in (line.split("=", 1) for line in (out / "run.meta").read_text().splitlines())}


META_RECORDS = ("experiment", "version", "rng", "timing_fit_seconds")


@pytest.mark.parametrize("argv", [
    (*ITR_SMALL, "--seed", "6", "--epsilon", "0.2", "--epsilon", "0.7", "--ridge", "0.5"),
    (*CANCER_SMALL, "--seed", "6", "--epsilon", "0.2", "--mode", "absolute", "--kernel-bandwidth", "1.5"),
], ids=["itr", "cancer"])
def test_run_meta_repeats_the_run(tmp_path, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(*argv, "--out", str(first)) == 0
    meta = _meta(first)
    assert list(meta)[0] == "experiment" and meta["experiment"] == argv[0]
    options = {key: value for key, value in meta.items() if key not in META_RECORDS}
    assert set(options) == COMMAND_KEYS[argv[0]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    assert _run(argv[0], "--config", str(cfg), "--out", str(second)) == 0
    first_files, second_files = _snapshot(first), _snapshot(second)
    del first_files["run.meta"], second_files["run.meta"]
    assert second_files == first_files
    rerun = _meta(second)
    for volatile in ("out", "timing_fit_seconds"):
        del meta[volatile], rerun[volatile]
    assert rerun == meta


CONFIG_KEYS = sorted(ITR_KEYS | CANCER_KEYS) + ["volume", "config", "dry_run", "Seed"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# values near the valid ones, so that draws also reach the range and domain checks
NEAR_VALID = st.sampled_from([
    0, 1, 2, 3, -1, 0.5, 1.5, 0.0, [], [0.1], [0.1, 0.1], [0.3, 1.0], [-0.2], "relative", "absolute",
    "interaction-linear", "per-action-kernel", "out", "",
])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["itr", "cancer"]),
       payload=st.dictionaries(st.sampled_from(CONFIG_KEYS), NEAR_VALID | JSON_VALUES, max_size=4))
@example(command="cancer", payload={"ridge": 10**400})
@example(command="itr", payload={"epsilons": [-(10**400)]})
@example(command="cancer", payload={"regression_mode": "interaction-linear", "kernel_bandwidth": 1})
def test_config_file_property(command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--dry-run", "--out", str(out)])
        assert not out.exists()
    if code == 0:
        assert set(payload) <= COMMAND_KEYS[command]
    else:
        assert code == 2
        assert any(re.search(rf"\b{re.escape(key)}\b", err.getvalue()) for key in payload), err.getvalue()


# flag values: huge and negative integers, non-finite numbers, NUL bytes, and text near the valid values
FLAG_VALUES = st.one_of(
    st.integers().map(str),
    st.sampled_from([2**63, 2**64 - 2, 2**64, -(2**64), 10**400]).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "", "\x00", "1\x002", "0.1", "22", "relative", "absolute",
                     "interaction-linear", "per-action-kernel", "..", "/"]),
    st.text(max_size=4),
)


# (flag, RunConfig name) of every option that takes a value; a command refuses those it does not read
VALUE_OPTIONS = [(o.flag, o.dest) for o in nearq.cli.OPTIONS if o.flag != "--dry-run"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["itr", "cancer"]),
       drawn=st.lists(st.tuples(st.sampled_from(VALUE_OPTIONS), FLAG_VALUES), max_size=4))
@example(command="itr", drawn=[(("--out", "out"), "1" * 300)])  # longer than a file name may be
def test_argv_property_under_dry_run(command, drawn):
    argv = [command, *(arg for (flag, _), value in drawn for arg in (flag, value)), "--dry-run"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)  # relative --out and --config values land here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = _exit_code(*argv)
        finally:
            os.chdir(home)
        assert list(Path(tmp).iterdir()) == []
    if code != 0:
        assert code == 2, err.getvalue()
        named = {name for option, _ in drawn for name in option}
        assert any(re.search(rf"(?<![\w-]){re.escape(name)}\b", err.getvalue()) for name in named), err.getvalue()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
def test_seed_outside_the_stream_key_range_refused_before_any_work(tmp_path, capsys, how, seed):
    # the test cohort is keyed by seed + 1, so the largest seed is 2**64 - 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    given = ("--seed", str(seed)) if how == "flag" else ("--config", str(cfg))
    out = tmp_path / "never"
    assert _run(*ITR_SMALL, *given, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "'seed'" in err


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "run"
    assert _run(*ITR_SMALL, "--seed", str(2**64 - 2), "--epsilon", "0.5", "--out", str(out)) == 0
    assert _meta(out)["seed"] == 2**64 - 2


@pytest.mark.parametrize("how", ["flag", "config"])
def test_itr_cohort_narrower_than_the_design_refused_before_any_work(tmp_path, capsys, monkeypatch, how):
    def refuse(*args, **kwargs):
        raise AssertionError("a cohort was simulated")

    monkeypatch.setattr(nearq.cli, "simulate_itr", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_train": 21}))
    given = ("--n-train", "21") if how == "flag" else ("--config", str(cfg))
    out = tmp_path / "never"
    assert _run("itr", *given, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "n_train" in err and "--n-train" in err and "22" in err
    # a ridge makes the narrow design solvable, and 22 rows fill it
    assert _run("itr", *given, "--ridge", "0.1", "--dry-run", "--out", str(out)) == 0
    assert _run("itr", "--n-train", "22", "--dry-run", "--out", str(out)) == 0


def test_nul_in_out_from_config_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "a\u0000b"}))
    assert _run("itr", "--config", str(cfg), "--dry-run") == 2
    err = capsys.readouterr().err
    assert "invalid configuration: 'out' must be a string without NUL characters" in err


def test_nul_in_config_path_names_the_option(capsys):
    assert _run("itr", "--config", "a\x00b", "--dry-run") == 2
    assert "invalid configuration: --config 'a\\x00b'" in capsys.readouterr().err
