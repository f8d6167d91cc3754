import csv
import hashlib
import json

import numpy as np
import pytest

import nearq.cli
import nearq.evalkit
import nearq.nearequiv
from nearq.cli import main
from nearq.core import StageRecord, load_csv, validate
from nearq.envs import UNIFORM_RANDOM, CancerParams, ItrConfig, simulate_cancer_cohort, simulate_itr
from nearq.evalkit import band_stats, blip_surface
from nearq.oracle import dp_oracle
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
    assert meta["experiment"] == "itr"
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
    {"kernel_bandwidth": "2"},
    {"out": 5},
], ids=lambda payload: ",".join(f"{k}={json.dumps(v)}" for k, v in payload.items()))
def test_config_values_of_the_wrong_type_rejected(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "never"
    assert _run("cancer", "--config", str(cfg), "--out", str(out)) == 2
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
    _counting(monkeypatch, nearq.evalkit, "simulate_cancer_cohort", counts)
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
    n_doses = len(CancerParams().dose_grid)
    assert counts["simulate_cancer_cohort"] == n_doses + 1 + sum(m - 1 for m in ms)
    for eps in epsilons:
        with (out / f"curves_eps{eps}.csv").open() as fh:
            rows = [line.split(",", 1) for line in fh.read().splitlines()[1:]]
        curve = {label: [] for label, _ in rows}
        for label, rest in rows:
            curve[label].append(rest)
        assert curve[f"eps{eps}-rank1"] == curve["opt"]


def test_cancer_without_epsilons_writes_the_same_classical_stack(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "n_train": 50, "n_test": 10, "epsilons": []}))
    bare, with_eps = tmp_path / "bare", tmp_path / "eps"
    assert _run("cancer", "--config", str(cfg), "--out", str(bare)) == 0
    assert _run("cancer", "--config", str(cfg), "--epsilon", "0.3", "--out", str(with_eps)) == 0
    assert not list(bare.glob("*eps*"))
    assert (bare / "qstack.json").read_bytes() == (with_eps / "qstack.json").read_bytes()
