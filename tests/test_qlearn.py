import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearq.core import DatasetError, OfflineDataset
from nearq.envs import ItrConfig, simulate_itr
from nearq.oracle import build_fixture_dataset, dp_oracle, max_discrepancy
from nearq.qlearn import (
    QStack,
    StageFitError,
    backward_fit,
    fit_final_stage,
    greedy_policy,
)
from nearq.regression import DesignSpec, InteractionLinearQ, fit

from conftest import TableQ, classical_targets, make_dataset, two_actions

LINEAR = DesignSpec.interaction_linear()


def test_single_stage_equals_direct_fit(single_stage_dataset):
    ds = single_stage_dataset
    spec = DesignSpec.per_action_kernel(ridge=0.5)
    stack = backward_fit(ds, spec)
    assert stack.horizon == 0
    direct = fit_final_stage(ds, spec)
    assert stack.models[0].to_dict() == direct.to_dict()


def test_tabular_fit_recovers_cell_means():
    # 2 states (indicator feature) x 2 actions, 3 repeats per cell
    cells = {
        (0.0, 0): [1.0, 2.0, 3.0],
        (0.0, 1): [-1.0, 0.0, 1.0],
        (1.0, 0): [5.0, 5.0, 8.0],
        (1.0, 1): [0.0, 0.5, 1.0],
    }
    trajectories = [
        [((s,), a, r)] for (s, a), rewards in cells.items() for r in rewards
    ]
    ds = make_dataset(trajectories, horizon=0)
    model = backward_fit(ds, LINEAR).models[0]
    for (s, a), rewards in cells.items():
        assert model.predict(np.array([s]), a) == pytest.approx(np.mean(rewards), abs=1e-8)


def test_empty_final_stage_errors():
    ds = make_dataset([[((0.0,), 0, 1.0)], [((1.0,), 1, 2.0)]], horizon=1)
    with pytest.raises(DatasetError, match="empty final stage"):
        fit_final_stage(ds, LINEAR)
    with pytest.raises(StageFitError):
        backward_fit(ds, LINEAR)


def _two_stage_fixture():
    # patient 0 survives both stages, patient 1 dies at stage 0 with reward -60,
    # patient 2 survives
    return make_dataset(
        [
            [((0.0,), 0, 1.0), ((1.0,), 1, 4.0)],
            [((1.0,), 1, -60.0)],
            [((0.5,), 1, 2.0), ((0.0,), 0, 1.0)],
        ],
        horizon=1,
    )


def test_pseudo_outcome_arithmetic():
    ds = _two_stage_fixture()
    next_model = TableQ(two_actions(), 1, {(1.0,): [2.0, -1.0], (0.0,): [0.0, 0.5]})
    out = classical_targets(ds, 0, next_model)
    assert out[0] == pytest.approx(1.0 + 2.0)   # max(2, -1) = 2
    assert out[1] == pytest.approx(-60.0)       # trajectory ended at stage 0
    assert out[2] == pytest.approx(2.0 + 0.5)


def test_pseudo_outcome_absent_patients_are_nan():
    ds = _two_stage_fixture()
    zero = InteractionLinearQ(two_actions(), np.zeros(4), 1)
    # all patients have a stage-0 record, so no NaN at t=0
    assert not np.isnan(classical_targets(ds, 0, zero)).any()
    # shift the fixture: make a 3-stage cohort where patient 1 is gone by t=1
    ds3 = make_dataset(
        [
            [((0.0,), 0, 1.0), ((1.0,), 1, 4.0), ((1.0,), 0, 0.0)],
            [((1.0,), 1, -60.0)],
        ],
        horizon=2,
    )
    out = classical_targets(ds3, 1, zero)
    assert np.isnan(out[1]) and not np.isnan(out[0])


def test_pseudo_outcome_with_zero_model_equals_rewards():
    ds = _two_stage_fixture()
    zero = InteractionLinearQ(two_actions(), np.zeros(4), 1)
    out = classical_targets(ds, 0, zero)
    rewards = np.array([p.stages[0].reward for p in ds.patients])
    assert np.allclose(out, rewards)


def test_backward_fit_matches_dp_reference():
    ds = build_fixture_dataset()
    stack = backward_fit(ds, LINEAR)
    tables = dp_oracle(ds)
    assert max_discrepancy(stack, tables) < 1e-8


@st.composite
def tabular_problems(draw):
    """A tabular dataset of 2 actions visiting every (stage, state, action) cell: 2-6 states in
    drop-first coding, horizon 1-3, rewards k/4, next states at random, and trajectories that may end
    before the horizon. A trajectory through each cell comes first, then random ones."""
    n_states, horizon = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    rnd = draw(st.randoms(use_true_random=False))

    def trajectory(cell=(0, None, None)):
        t, s, a = cell
        t_end = rnd.randint(t, horizon) if rnd.random() < 0.3 else horizon  # some end early
        stages = [(rnd.randrange(n_states), rnd.randrange(2)) for _ in range(t_end + 1)]
        if s is not None:
            stages[t] = (s, a)
        return [([float(s == j) for j in range(1, n_states)], a, rnd.randint(-8, 8) / 4) for s, a in stages]

    cells = [(t, s, a) for t in range(horizon + 1) for s in range(n_states) for a in range(2)]
    extra = draw(st.integers(0, 2 * n_states))
    return make_dataset([trajectory(cell) for cell in cells] + [trajectory() for _ in range(extra)],
                        horizon, n_features=n_states - 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(ds=tabular_problems())
def test_backward_fit_matches_dp_reference_on_drawn_tabular_problems(ds):
    # the interaction-linear design is saturated for 2 actions with every cell visited, so the fit
    # reproduces the counted tables to solver precision, at any horizon and state count
    stack = backward_fit(ds, LINEAR)
    tables = dp_oracle(ds)
    assert len(tables) == ds.horizon + 1
    assert max_discrepancy(stack, tables) < 1e-8
    policy = greedy_policy(stack)
    for t, table in enumerate(tables):
        decided = np.abs(table[:, 0] - table[:, 1]) > 1e-9
        states = np.eye(table.shape[0])[:, 1:]
        assert np.array_equal(policy(t, states)[decided], table.argmax(axis=1)[decided])


@pytest.mark.parametrize("t", [0, 1])
def test_dp_oracle_names_the_stage_of_an_unvisited_cell(t):
    ds = build_fixture_dataset()
    actions = ds.actions.copy()
    actions[(ds.stage == t) & (ds.features == 0.0).all(axis=1)] = 1  # state 0 never takes action 0 at t
    ds = OfflineDataset.from_rows(ds.patient, ds.stage, ds.features, actions, ds.rewards,
                                  ds.horizon, ds.action_spaces, ds.feature_dims)
    with pytest.raises(ValueError, match=rf"every \(state, action\) cell at stage {t}$"):
        dp_oracle(ds)


def test_backward_fit_composes_public_pieces():
    # stage-1 rewards all zero: the stage-0 model must equal a manual fit on
    # rewards plus the best value of a zero-target final model
    ds = make_dataset(
        [
            [((0.0,), 0, 1.0), ((1.0,), 1, 0.0)],
            [((1.0,), 1, 3.0), ((0.0,), 0, 0.0)],
            [((0.5,), 1, 2.0), ((0.5,), 1, 0.0)],
        ],
        horizon=1,
    )
    spec = DesignSpec.per_action_kernel(ridge=0.7)
    stack = backward_fit(ds, spec)
    final = fit_final_stage(ds, spec)
    targets = classical_targets(ds, 0, final)
    idx, feats, actions, _ = ds.stage_rows(0)
    manual = fit(spec, feats, actions, targets[idx], ds.action_spaces[0])
    assert stack.models[0].to_dict() == manual.to_dict()
    assert stack.models[1].to_dict() == final.to_dict()


def test_greedy_tie_break_and_argmax():
    model = TableQ(two_actions(), 1, {(0.0,): [0.5, 0.5], (1.0,): [0.1, 0.9]})
    policy = QStack((model,))
    assert policy.decide(0, np.array([0.0])) == 0  # exact tie -> lowest index
    assert policy.decide(0, np.array([1.0])) == 1


def test_greedy_invariant_to_constant_shift():
    rng = np.random.default_rng(8)
    coef = rng.normal(size=6)
    shifted = coef.copy()
    shifted[0] += 123.456
    m1 = InteractionLinearQ(two_actions(), coef, 2)
    m2 = InteractionLinearQ(two_actions(), shifted, 2)
    p1, p2 = QStack((m1,)), QStack((m2,))
    for _ in range(50):
        x = rng.normal(size=2)
        assert p1.decide(0, x) == p2.decide(0, x)


def test_provenance_orders_stages():
    ds = _two_stage_fixture()
    stack = backward_fit(ds, DesignSpec.per_action_kernel(ridge=1.0))
    assert stack.provenance[1] == {"stage": 1, "targets": "reward", "source_stage": None}
    assert stack.provenance[0] == {"stage": 0, "targets": "pseudo-outcome", "source_stage": 1}
    for t, record in enumerate(stack.provenance):
        assert record["source_stage"] is None or record["source_stage"] > t


def test_greedy_action_on_positive_blip_region():
    ds = simulate_itr(ItrConfig(1000, seed=100))
    stack = backward_fit(ds, LINEAR)
    x = np.zeros(10)
    x[0], x[1] = 0.5, 0.3  # true effect 2*(x0+x1) = 1.6 > 0
    assert greedy_policy(stack).decide(0, x) == 1


def test_a_stack_is_its_own_greedy_policy():
    stack = backward_fit(_two_stage_fixture(), DesignSpec.per_action_kernel(ridge=1.0))
    assert greedy_policy(stack) is stack


def test_stack_serialization_round_trip():
    from nearq.qlearn import stack_from_dict, stack_to_dict

    ds = _two_stage_fixture()
    stack = backward_fit(ds, DesignSpec.per_action_kernel(ridge=1.0))
    loaded = stack_from_dict(stack_to_dict(stack))
    assert loaded.horizon == stack.horizon
    assert loaded.provenance == stack.provenance
    probe = np.array([[0.3], [1.2]])
    for t in range(2):
        assert np.array_equal(
            loaded.models[t].predict_all_matrix(probe),
            stack.models[t].predict_all_matrix(probe),
        )


def test_a_fitted_stack_and_its_json_load_give_equal_dicts():
    # actions no patient got at a stage fall back to the mean and are listed in the model's meta, a
    # list after a fit as after a load from JSON
    from nearq.envs import UNIFORM_RANDOM, CancerParams, simulate_cancer_cohort
    from nearq.qlearn import stack_from_dict, stack_to_dict

    ds = simulate_cancer_cohort(CancerParams(), UNIFORM_RANDOM, 40, seed=3).dataset
    actions = np.minimum(ds.actions, ds.action_spaces[0].size - 2)  # the highest dose is never given
    ds = OfflineDataset.from_rows(ds.patient, ds.stage, ds.features, actions, ds.rewards, ds.horizon,
                                  ds.action_spaces, ds.feature_dims)
    fitted = stack_to_dict(backward_fit(ds, DesignSpec.per_action_kernel(ridge=1.0)))
    assert all(model["meta"]["mean_fallback_actions"] for model in fitted["models"])
    assert stack_to_dict(stack_from_dict(json.loads(json.dumps(fitted)))) == fitted


def test_stack_load_names_the_stage_of_a_bad_model():
    from nearq.qlearn import stack_from_dict, stack_to_dict

    payload = stack_to_dict(backward_fit(_two_stage_fixture(), DesignSpec.per_action_kernel(ridge=1.0)))
    payload["models"][1]["components"][0]["mean"] = float("nan")
    with pytest.raises(ValueError, match="stage 1 model component 0: 'mean'"):
        stack_from_dict(payload)


def test_stack_provenance_must_match_its_horizon():
    from nearq.qlearn import stack_from_dict, stack_to_dict

    stack = backward_fit(_two_stage_fixture(), DesignSpec.per_action_kernel(ridge=1.0))
    dropped = stack_to_dict(stack)
    dropped["provenance"] = dropped["provenance"][1:]
    altered = stack_to_dict(stack)
    altered["provenance"][0] = {"stage": 0, "targets": "reward", "source_stage": None}
    for payload in (dropped, altered):
        with pytest.raises(ValueError, match="provenance"):
            stack_from_dict(payload)


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _with(**items):
    return lambda payload: {**payload, **items}


@pytest.mark.parametrize("loader,change,match", [
    ("model", _without("action_values"), r"^model: 'action_values' is missing or not numeric"),
    ("model", _with(action_values=None), r"^model: 'action_values' has shape \(\)"),
    ("model", _with(meta=[1, 2]), r"^model: 'meta' must be a JSON object, got list"),
    ("model", lambda p: [p], r"^model: payload must be a JSON object, got list"),
    ("stack", _without("models"), r"^stack: 'models' must list one model per stage, got NoneType"),
    ("stack", _with(models=3), r"^stack: 'models' must list one model per stage, got int"),
    ("stack", _without("horizon"), r"^stack: 'horizon' is missing or disagrees with its 2 models"),
    ("stack", _without("provenance"), r"^stack: 'provenance' is missing"),
    ("stack", lambda p: [p], r"^stack: payload must be a JSON object, got list"),
    ("stack", lambda p: {**p, "models": [p["models"][0], _without("action_values")(p["models"][1])]},
     r"^stage 1 model: 'action_values' is missing"),
    ("stack", lambda p: {**p, "models": [[1.0], p["models"][1]]}, r"^stage 0 model: payload must be a JSON object"),
    ("stack", lambda p: {**p, "models": [_with(action_values=[1.0, 1.0])(p["models"][0]), p["models"][1]]},
     r"^stage 0 model: 'action_values': action labels must be distinct"),
    ("stack", lambda p: {"format_version": 1, "models": [], "horizon": -1,
                         "provenance": [{"stage": -1, "targets": "reward", "source_stage": None}]},
     r"^stack: 'models' is empty"),
    ("model", _with(format_version=True), r"^unsupported model format version True$"),
    ("model", _with(format_version=1.0), r"^unsupported model format version 1\.0$"),
    ("model", _with(bandwidth=True), r"^model: 'bandwidth' must be a positive number, got True$"),
    ("model", _with(action_values=[False, True]), r"^model: 'action_values' must be a list of numbers"),
    ("stack", _with(horizon=True), r"^stack: 'horizon' is missing or disagrees with its 2 models"),
    ("stack", _with(horizon=1.0), r"^stack: 'horizon' is missing or disagrees with its 2 models"),
    ("stack", _with(format_version=True), r"^unsupported stack format version True$"),
], ids=["model-no-action-values", "model-null-action-values", "model-list-meta", "model-array", "stack-no-models",
        "stack-int-models", "stack-no-horizon", "stack-no-provenance", "stack-array", "stack-model-no-actions",
        "stack-model-array", "stack-model-repeated-actions", "stack-empty-models", "model-bool-version",
        "model-float-version", "model-bool-bandwidth", "model-bool-action-values", "stack-bool-horizon",
        "stack-float-horizon", "stack-bool-version"])
def test_loaders_refuse_a_malformed_payload_with_a_value_error(tmp_path, loader, change, match):
    # every malformed payload, read back from JSON, fails with ValueError naming the key (and, in a
    # stack, the model's stage), never with a KeyError, TypeError or AttributeError
    from nearq.qlearn import stack_from_dict, stack_to_dict
    from nearq.regression import load_model

    payload = stack_to_dict(backward_fit(_two_stage_fixture(), DesignSpec.per_action_kernel(ridge=1.0)))
    path = tmp_path / f"{loader}.json"
    path.write_text(json.dumps(change(payload["models"][0] if loader == "model" else payload)))
    load = load_model if loader == "model" else lambda path: stack_from_dict(json.loads(path.read_text()))
    with pytest.raises(ValueError, match=match):
        load(path)


def test_policy_stage_range_checked():
    model = InteractionLinearQ(two_actions(), np.zeros(4), 1)
    policy = QStack((model,))
    with pytest.raises(ValueError):
        policy.decide(1, np.array([0.0]))
    with pytest.raises(ValueError, match="stage 0"):
        QStack(())
