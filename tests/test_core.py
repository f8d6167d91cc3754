import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearq.core
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
from nearq.envs import CancerParams, simulate_cancer_cohort
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


def test_index_of_is_the_nearest_label_within_tol():
    close = ActionSpace((0.0, 1e-10))
    assert close.index_of(1e-10) == 1 and close.index_of(0.0) == 0
    assert ActionSpace((0.0, 2e-10)).index_of(1e-10) == 0  # an exact tie: the lowest index
    with pytest.raises(ValueError):
        close.index_of(2e-9)


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
    with pytest.raises(DatasetError, match="patient 0 stage 0: dimension mismatch"):
        make_dataset([[((0.0, 1.0), 0, 1.0)], [((1.0,), 1, 0.0)]], horizon=0)


def test_record_constructor_rejects_trajectory_past_horizon():
    with pytest.raises(DatasetError, match="patient 1 stage 1: past the horizon 0"):
        make_dataset([[((0.0,), 0, 1.0)], [((1.0,), 1, 0.0), ((0.5,), 0, 1.0)]], horizon=0)


def test_validate_reports_non_finite_values_naming_the_row(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(
        "patient_id,stage,cov_0,action_index,reward\n"
        "0,0,1.0,0,2.0\n1,0,nan,1,0.0\n2,0,0.5,1,inf\n"
    )
    report = validate(load_csv(path))
    assert report.errors == [
        "patient 1 stage 0: non-finite covariate",
        "patient 2 stage 0: non-finite reward",
    ]


def test_records_round_trip_through_the_patients_view():
    params = CancerParams()
    n_stages = params.n_stages
    cohort = simulate_cancer_cohort(params, "uniform-random", 300, seed=41)
    assert not cohort.alive[:, n_stages - 1].all()  # some trajectories end early
    ds = cohort.dataset
    rebuilt = OfflineDataset(ds.patients, ds.horizon, ds.action_spaces, ds.feature_dims)
    assert rebuilt == ds
    assert OfflineDataset(rebuilt.patients, ds.horizon, ds.action_spaces, ds.feature_dims) == rebuilt
    # reference: the per-patient loop over the record view
    for t in range(n_stages):
        idx = [i for i, p in enumerate(ds.patients) if p.terminal_stage >= t]
        records = [ds.patients[i].stages[t] for i in idx]
        got = rebuilt.stage_rows(t)
        assert got[0].tolist() == idx
        assert got[1].tolist() == [list(rec.covariates) for rec in records]
        assert got[2].tolist() == [rec.action_index for rec in records]
        assert got[3].tolist() == [rec.reward for rec in records]
        assert not any(arr.flags.writeable for arr in got)


def test_repeated_stage_rows_calls_return_the_masked_rows_read_only():
    ds = simulate_cancer_cohort(CancerParams(), "uniform-random", 200, seed=43).dataset
    first = {t: ds.stage_rows(t) for t in reversed(range(ds.horizon + 1))}
    for t in range(ds.horizon + 1):
        at = ds.stage == t
        for _ in range(2):
            got = ds.stage_rows(t)
            assert all(arr is kept for arr, kept in zip(got, first[t], strict=True))
            for arr, whole in zip(got, (ds.patient, ds.features, ds.actions, ds.rewards)):
                assert arr.dtype == whole.dtype and arr.shape == whole[at].shape
                assert arr.tobytes() == whole[at].tobytes()
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0


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


def test_csv_shuffled_rows_load_equal_to_sorted(tmp_path):
    # more than ten patients, so text order of the ids would differ from numeric order
    ds = simulate_cancer_cohort(CancerParams(), "uniform-random", 30, seed=5).dataset
    path = tmp_path / "cohort.csv"
    save_csv(ds, path)
    header, *rows = path.read_text().splitlines()
    np.random.default_rng(0).shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    assert load_csv(path) == ds


# -0.0 and subnormals included: array equality takes -0.0 == 0.0, the byte check does not
CSV_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310]),
    st.floats(allow_nan=False),
)


@st.composite
def cohorts(draw):
    horizon = draw(st.integers(0, 2))
    d = draw(st.integers(1, 3))
    labels = draw(st.lists(CSV_FLOATS.filter(math.isfinite), min_size=2, max_size=4, unique=True))
    stage = st.tuples(
        st.lists(CSV_FLOATS, min_size=d, max_size=d),
        st.integers(0, len(labels) - 1),
        CSV_FLOATS,
    )
    trajectories = draw(
        st.lists(st.lists(stage, min_size=1, max_size=horizon + 1), min_size=1, max_size=5)
    )
    return make_dataset(trajectories, horizon, n_features=d, action_space=ActionSpace(labels))


@settings(max_examples=150, deadline=None)
@given(ds=cohorts())
def test_csv_round_trip_property(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
        save_csv(ds, first)
        loaded = load_csv(first)
        assert loaded == ds
        for name in ("features", "rewards"):
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
        save_csv(loaded, second)
        for suffix in ("", ".meta.json"):
            assert Path(f"{second}{suffix}").read_bytes() == Path(f"{first}{suffix}").read_bytes()


def test_csv_missing_reward_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index\n0,0,1.0,0\n")
    with pytest.raises(SchemaError, match="reward"):
        load_csv(path)


def test_csv_missing_covariate_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,cov_2,action_index,reward\n0,0,1.0,2.0,0,1.0\n")
    with pytest.raises(SchemaError, match="missing column 'cov_1'"):
        load_csv(path)


def test_csv_non_numeric_field_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n1,0,oops,1,0.0\n"
    )
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert err.value.row == 3


def test_csv_field_past_the_csv_size_limit_is_schema_error(tmp_path):
    # an unbalanced quote makes the rest of the file one field, past the csv module's limit
    path = tmp_path / "bad.csv"
    path.write_text('patient_id,stage,cov_0,action_index,reward\n0,0,"1.0,0,2.0\n' + "1,0,0.5,1,1.0\n" * 12000)
    with pytest.raises(SchemaError, match="field larger than field limit") as err:
        load_csv(path)
    assert err.value.row is not None  # the line where the field passed the limit


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


@pytest.mark.parametrize("key, value", [
    ("horizon", None),
    ("horizon", "x"),
    ("horizon", 0.5),
    ("horizon", True),
    ("feature_dims", 10),
    ("feature_dims", [1.0]),
    ("action_values", 3),
    ("action_values", [3]),
    ("action_values", [["-1", 1.0]]),
], ids=lambda v: json.dumps(v))
def test_csv_sidecar_value_of_the_wrong_type_is_schema_error(tmp_path, key, value):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    meta = {"format_version": 1, "horizon": 0, "feature_dims": [1], "action_values": [[-1.0, 1.0]]}
    meta[key] = value
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError, match=f"key '{key}' must be") as err:
        load_csv(path)
    assert "bad.csv.meta.json" in str(err.value)


@pytest.mark.parametrize("labels, problem", [
    ("[[NaN, 1.0]]", "finite"),
    ("[[-1.0, Infinity]]", "finite"),
    ("[[-Infinity, 1.0]]", "finite"),
    ("[[1.0, 1.0]]", "distinct"),
    ("[[]]", "nonempty"),
], ids=["nan", "infinity", "minus-infinity", "duplicate", "empty"])
def test_csv_sidecar_bad_action_labels_are_schema_error(tmp_path, labels, problem):
    # Python's json reads NaN and Infinity, so the labels pass the type check
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        f'{{"format_version": 1, "horizon": 0, "feature_dims": [1], "action_values": {labels}}}'
    )
    with pytest.raises(SchemaError, match=f"key 'action_values': .*{problem}") as err:
        load_csv(path)
    assert "bad.csv.meta.json" in str(err.value)


def test_csv_that_is_not_utf8_is_schema_error_naming_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfepatient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    with pytest.raises(SchemaError, match="bad.csv is not UTF-8"):
        load_csv(path)


def test_sidecar_that_is_not_utf8_is_schema_error_naming_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n")
    (tmp_path / "bad.csv.meta.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(SchemaError, match="malformed JSON .*utf-8") as err:
        load_csv(path)
    assert "bad.csv.meta.json" in str(err.value)


@pytest.mark.parametrize("code", [nearq.core.MAX_ACTION_CODES, -1, 10**20],
                         ids=["bound", "negative", "past-64-bits"])
def test_csv_without_sidecar_refuses_an_action_code_outside_the_bound(tmp_path, monkeypatch, code):
    path = tmp_path / "plain.csv"
    path.write_text(f"patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n1,0,0.5,{code},1.0\n")
    space = ActionSpace

    def bounded(values):
        values = tuple(values)
        assert len(values) <= nearq.core.MAX_ACTION_CODES, "built an action space past the bound"
        return space(values)

    monkeypatch.setattr(nearq.core, "ActionSpace", bounded)
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert err.value.row == 3
    # the last code under the bound still loads
    path.write_text(f"patient_id,stage,cov_0,action_index,reward\n0,0,1.0,0,2.0\n"
                    f"1,0,0.5,{nearq.core.MAX_ACTION_CODES - 1},1.0\n")
    assert load_csv(path).action_spaces[0].size == nearq.core.MAX_ACTION_CODES


# --- corrupted cohort files --------------------------------------------------------

# what a typed error names: the row, the stage or the sidecar key, or the file that is not UTF-8 or JSON
NAMED = re.compile(r"\brow \d+|\bstage \d+|\bkey '\w+'|\.csv is not UTF-8|\.meta\.json: malformed JSON")
BAD_CELLS = ["", "x", "nan", "inf", "-inf", "1e999", "-1", "1.5", "0x1", "99999999999999999999"]
BAD_BYTES = [b"\xff", b"\xff\xfe", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]
# sidecar values of the wrong type, or of the right type and the wrong size
SIDECAR_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 4), max_size=4), st.lists(st.lists(st.floats(), max_size=3), max_size=4),
)


def _cells(path):
    """The CSV as lists of cells, and a writer for them."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return rows, lambda: path.write_text("".join(",".join(row) + "\n" for row in rows))


def _truncate(draw, path, sidecar):
    target = draw(st.sampled_from([path, sidecar]))
    raw = target.read_bytes()
    target.write_bytes(raw[: draw(st.integers(0, len(raw) - 1))])


def _drop_column(draw, path, sidecar):
    rows, write = _cells(path)
    j = draw(st.integers(0, len(rows[0]) - 1))
    for row in rows[: draw(st.integers(1, len(rows)))]:  # the header, and the data rows up to some row
        del row[j]
    write()


def _repeat_column(draw, path, sidecar):
    rows, write = _cells(path)
    j = draw(st.integers(0, len(rows[0]) - 1))
    for row in rows:
        row.append(row[j])
    write()


def _bad_cell(draw, path, sidecar):
    rows, write = _cells(path)
    row = rows[draw(st.integers(1, len(rows) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
    write()


def _reorder_header(draw, path, sidecar):
    rows, write = _cells(path)
    rows[0] = draw(st.permutations(rows[0]))
    write()


def _stage_gap(draw, path, sidecar):
    rows, write = _cells(path)
    row = rows[draw(st.integers(1, len(rows) - 1))]
    row[1] = str(int(row[1]) + draw(st.integers(1, 3)))
    write()


def _sidecar_type(draw, path, sidecar):
    meta = json.loads(sidecar.read_text())
    meta[draw(st.sampled_from(["horizon", "feature_dims", "action_values"]))] = draw(SIDECAR_VALUES)
    sidecar.write_text(json.dumps(meta))


def _non_utf8(draw, path, sidecar):
    target = draw(st.sampled_from([path, sidecar]))
    raw = target.read_bytes()
    at = draw(st.integers(0, len(raw)))
    target.write_bytes(raw[:at] + draw(st.sampled_from(BAD_BYTES)) + raw[at:])


CORRUPTIONS = [_truncate, _drop_column, _repeat_column, _bad_cell, _reorder_header, _stage_gap,
               _sidecar_type, _non_utf8]


@settings(max_examples=200, deadline=None)
@given(ds=cohorts(), corrupt=st.sampled_from(CORRUPTIONS), data=st.data())
def test_corrupted_cohort_files_load_or_fail_naming_the_place(ds, corrupt, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        save_csv(ds, path)
        corrupt(data.draw, path, Path(f"{path}.meta.json"))
        try:
            report = validate(load_csv(path))
        except (SchemaError, DatasetError) as err:
            assert NAMED.search(str(err)), str(err)
        else:
            for error in report.errors:
                assert NAMED.search(error), error
