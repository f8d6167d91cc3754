import numpy as np
import pytest

from nearq.core import DatasetError
from nearq.envs import ItrConfig, simulate_itr
from nearq.oracle import build_fixture_dataset, dp_oracle, max_discrepancy
from nearq.qlearn import (
    GreedyPolicy,
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
    policy = GreedyPolicy((model,))
    assert policy.decide(0, np.array([0.0])) == 0  # exact tie -> lowest index
    assert policy.decide(0, np.array([1.0])) == 1


def test_greedy_invariant_to_constant_shift():
    rng = np.random.default_rng(8)
    coef = rng.normal(size=6)
    shifted = coef.copy()
    shifted[0] += 123.456
    m1 = InteractionLinearQ(two_actions(), coef, 2)
    m2 = InteractionLinearQ(two_actions(), shifted, 2)
    p1, p2 = GreedyPolicy((m1,)), GreedyPolicy((m2,))
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


def test_policy_stage_range_checked():
    model = InteractionLinearQ(two_actions(), np.zeros(4), 1)
    policy = GreedyPolicy((model,))
    with pytest.raises(ValueError):
        policy.decide(1, np.array([0.0]))
