import json

import numpy as np
import pytest

from nearq.core import (
    ActionSpace,
    DatasetError,
    OfflineDataset,
    PatientTrajectory,
    SchemaError,
    StageRecord,
    history_features,
    load_csv,
    save_csv,
    validate,
)
from nearq.regression import DesignSpec, fit

from conftest import make_dataset, two_actions


def test_action_space_invariants():
    with pytest.raises(ValueError):
        ActionSpace(())
    with pytest.raises(ValueError):
        ActionSpace((0.1, 0.1))
    space = ActionSpace((0.0, 0.5, 1.0))
    assert space.size == 3
    assert space.label(1) == 0.5
    assert space.index_of(0.5) == 1
    with pytest.raises(ValueError):
        space.index_of(0.25)


def test_validate_clean_dataset(single_stage_dataset):
    report = validate(single_stage_dataset)
    assert report.ok
    assert report.errors == [] and report.warnings == []


def test_validate_action_out_of_range():
    ds = make_dataset([[((0.0,), 2, 1.0)], [((1.0,), 0, 0.0)]], horizon=0)
    report = validate(ds)
    assert not report.ok
    assert any("action out of range" in e for e in report.errors)


def test_validate_dimension_mismatch():
    ds = make_dataset([[((0.0, 1.0), 0, 1.0)], [((1.0,), 1, 0.0)]], horizon=0)
    report = validate(ds)
    assert any("dimension mismatch" in e for e in report.errors)


def test_validate_degenerate_action_support_still_fits():
    ds = make_dataset([[((0.0,), 1, 1.0)], [((1.0,), 1, 2.0)]], horizon=0)
    report = validate(ds)
    assert report.ok  # warning only
    assert any("degenerate action support" in w for w in report.warnings)
    # the stage still fits; unobserved actions fall back to the target mean
    idx, feats, actions, rewards = ds.stage_rows(0)
    model = fit(DesignSpec.per_action_kernel(ridge=1.0), feats, actions, rewards, two_actions())
    assert model.meta["mean_fallback_actions"] == (0,)
    assert model.predict(np.array([0.5]), 0) == pytest.approx(1.5)


def test_validate_empty_stage():
    ds = make_dataset([[((0.0,), 0, 1.0)], [((1.0,), 1, 0.0)]], horizon=1)
    report = validate(ds)
    assert any("empty stage 1" in e for e in report.errors)


def test_validate_does_not_mutate(single_stage_dataset):
    before = single_stage_dataset.patients
    validate(single_stage_dataset)
    assert single_stage_dataset.patients == before
    idx, feats, actions, rewards = single_stage_dataset.stage_rows(0)
    assert not feats.flags.writeable


def test_history_features_markov_passthrough():
    traj = PatientTrajectory(
        (
            StageRecord((2.0, 0.1), 0, 0.0),
            StageRecord((1.7, 0.4), 3, 0.0),
            StageRecord((1.3, 0.8), 5, 0.0),
        )
    )
    assert np.array_equal(history_features(traj, 2), np.array([1.3, 0.8]))
    # pure: repeated calls agree and returned arrays are independent copies
    a = history_features(traj, 1)
    b = history_features(traj, 1)
    assert np.array_equal(a, b)
    a[0] = -99.0
    assert history_features(traj, 1)[0] == 1.7


def test_history_features_out_of_range():
    traj = PatientTrajectory((StageRecord((0.0,), 0, 0.0),))
    with pytest.raises(ValueError):
        history_features(traj, 1)


def test_history_features_itr_width():
    from nearq.envs import ItrConfig, simulate_itr

    ds = simulate_itr(ItrConfig(3, seed=1))
    assert history_features(ds.patients[0], 0).shape == (10,)


def test_csv_round_trip(tmp_path):
    ds = make_dataset(
        [
            [((0.25,), 0, 1.0), ((1 / 3,), 1, -2.5)],
            [((0.5,), 1, 0.125)],
            [((-1.75,), 0, 3.0), ((0.0,), 0, 7.25)],
        ],
        horizon=1,
    )
    path = tmp_path / "cohort.csv"
    save_csv(ds, path)
    assert load_csv(path) == ds


def test_csv_round_trip_random_datasets(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(20):
        horizon = int(rng.integers(0, 3))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        space = ActionSpace(tuple(float(v) for v in rng.normal(size=k)))
        patients = []
        for _ in range(int(rng.integers(1, 6))):
            n_stages = int(rng.integers(1, horizon + 2))
            stages = tuple(
                StageRecord(
                    tuple(float(v) for v in rng.normal(size=d)),
                    int(rng.integers(0, k)),
                    float(rng.normal() * 10.0 ** rng.integers(-3, 4)),
                )
                for _ in range(n_stages)
            )
            patients.append(PatientTrajectory(stages))
        ds = OfflineDataset(
            tuple(patients), horizon, (space,) * (horizon + 1), (d,) * (horizon + 1)
        )
        path = tmp_path / f"random_{trial}.csv"
        save_csv(ds, path)
        assert load_csv(path) == ds


def test_csv_missing_reward_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index\n0,0,1.0,0\n")
    with pytest.raises(SchemaError, match="reward"):
        load_csv(path)


def test_csv_non_numeric_field_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n1,0,oops,1,0.0\n"
    )
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert err.value.row == 3


def test_csv_horizon_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,stage,cov_0,action_index,reward\n"
        "0,0,1.0,0,2.0\n0,1,0.5,1,1.0\n1,0,0.0,1,0.0\n"
    )
    (tmp_path / "bad.csv.meta.json").write_text(
        '{"format_version": 1, "horizon": 0, "feature_dims": [1], "action_values": [[-1.0, 1.0]]}'
    )
    with pytest.raises(DatasetError, match="exceeds declared horizon"):
        load_csv(path)


def test_csv_sidecar_dimension_disagreement(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        '{"format_version": 1, "horizon": 0, "feature_dims": [3], "action_values": [[-1.0, 1.0]]}'
    )
    with pytest.raises(SchemaError, match="feature_dims"):
        load_csv(path)


def test_csv_infers_horizon_without_sidecar(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text(
        "patient_id,stage,cov_0,action_index,reward\n"
        "a,0,1.0,0,2.0\na,1,0.5,1,1.0\nb,0,0.0,1,0.0\n"
    )
    ds = load_csv(path)
    assert ds.horizon == 1
    assert ds.action_spaces[0].values == (0.0, 1.0)
    assert ds.patients[0].terminal_stage == 1


def test_csv_malformed_sidecar_json_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    (tmp_path / "bad.csv.meta.json").write_text('{"horizon": 0, "feature_dims": [1')
    with pytest.raises(SchemaError, match="malformed JSON") as err:
        load_csv(path)
    assert "bad.csv.meta.json" in str(err.value)


@pytest.mark.parametrize("key", ["horizon", "feature_dims", "action_values"])
def test_csv_sidecar_missing_key_is_schema_error(tmp_path, key):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    meta = {"format_version": 1, "horizon": 0, "feature_dims": [1], "action_values": [[-1.0, 1.0]]}
    del meta[key]
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError, match=f"missing key '{key}'") as err:
        load_csv(path)
    assert "bad.csv.meta.json" in str(err.value)
