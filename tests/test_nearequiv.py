import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearq.cli
import nearq.core
from nearq.cli import main
from nearq.core import ActionSpace, history_features
from nearq.envs import CancerParams, simulate_cancer_cohort
from nearq.nearequiv import (
    ABSOLUTE,
    NO_ACTION,
    RELATIVE,
    EpsilonConfig,
    admissible_actions,
    backward_fit_near_equiv,
    fit_tolerances,
    policy_set,
    save_admissible_csv,
    save_admissible_csvs,
    select_and_pad,
)
from nearq.qlearn import backward_fit, greedy_policy, save_stack, stack_from_dict, stack_to_dict, stage_targets
from nearq.regression import DesignSpec, FittedQ, best_over_actions, fit

from conftest import TableQ, classical_targets, make_dataset, two_actions

KERNEL = DesignSpec.per_action_kernel(kernel_bandwidth=2.0, ridge=0.1)


def test_epsilon_config_guards():
    EpsilonConfig(0.0)
    EpsilonConfig(0.99, ABSOLUTE)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            EpsilonConfig(bad)
    with pytest.raises(ValueError):
        EpsilonConfig(0.5, "squishy")


def test_admissible_relative_examples():
    got = admissible_actions(np.array([10.0, 9.2, 5.0]), EpsilonConfig(0.1, RELATIVE))
    assert got == ((0, 10.0), (1, 9.2))
    got = admissible_actions(np.array([-2.0, -2.8, -4.0]), EpsilonConfig(0.5, RELATIVE))
    assert got == ((0, -2.0), (1, -2.8))


def test_admissible_zero_epsilon_keeps_exact_ties():
    got = admissible_actions(np.array([1.0, 1.0, 0.0]), EpsilonConfig(0.0))
    assert got == ((0, 1.0), (1, 1.0))


def test_admissible_absolute_mode():
    got = admissible_actions(np.array([1.0, 0.6, 0.4]), EpsilonConfig(0.5, ABSOLUTE))
    assert got == ((0, 1.0), (1, 0.6))


def test_admissible_rejects_non_finite():
    with pytest.raises(ValueError):
        admissible_actions(np.array([1.0, np.nan]), EpsilonConfig(0.1))


@settings(max_examples=200, deadline=None)
@given(
    q=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=11),
    eps=st.floats(0.0, 0.999),
    eps_bigger=st.floats(0.0, 0.999),
    mode=st.sampled_from([RELATIVE, ABSOLUTE]),
)
def test_admissible_soundness_and_nesting(q, eps, eps_bigger, mode):
    q = np.asarray(q)
    lo, hi = sorted([eps, min(eps_bigger, 0.999)])
    small = admissible_actions(q, EpsilonConfig(lo, mode))
    big = admissible_actions(q, EpsilonConfig(hi, mode))
    q_max = q.max()
    threshold = q_max - lo * abs(q_max) if mode == RELATIVE else q_max - lo
    # soundness: kept iff the inequality holds
    kept = {k for k, _ in small}
    assert kept == {k for k in range(q.size) if q[k] >= threshold}
    # first entry is the argmax under lowest-index tie-break
    assert small[0][0] == int(np.argmax(q))
    # ordering: value descending, index ascending on ties
    pairs = [(-v, k) for k, v in small]
    assert pairs == sorted(pairs)
    # nesting in epsilon
    assert kept <= {k for k, _ in big}


def _stub_final(rows):
    """TableQ over 1-d features 0.0, 1.0, 2.0, ... mapped to given q rows."""
    k = len(rows[0])
    space = ActionSpace(tuple(float(i) for i in range(k)))
    table = {(float(i),): row for i, row in enumerate(rows)}
    return TableQ(space, 1, table), space


def test_select_and_pad_padding_rule():
    # three alive patients with admissible counts 2, 1, 3 and best values 5, 7, 4
    rows = [
        [5.0, 4.9, 0.0, -1.0],   # eps 0.5 absolute keeps 5.0, 4.9
        [7.0, 5.0, 1.0, 0.0],    # keeps 7.0
        [4.0, 3.9, 3.8, 0.0],    # keeps 4.0, 3.9, 3.8
    ]
    final, space = _stub_final(rows)
    ds = make_dataset(
        [[((float(i),), 0, 0.0)] for i in range(3)], horizon=0, action_space=space
    )
    sel = select_and_pad(final, ds, EpsilonConfig(0.5, ABSOLUTE))
    assert sel.m == 3
    assert np.allclose(sel.padded[1], [7.0, 7.0, 7.0])
    assert np.allclose(sel.padded[0], [5.0, 4.9, 5.0])
    assert list(sel.padding_counts) == [1, 2, 0]
    assert np.allclose(sel.padded[:, 0], [5.0, 7.0, 4.0])


def test_select_and_pad_all_admissible_no_padding():
    rows = [[1.0, 0.9, 0.95], [0.5, 0.45, 0.5]]
    final, space = _stub_final(rows)
    ds = make_dataset(
        [[((float(i),), 0, 0.0)] for i in range(2)], horizon=0, action_space=space
    )
    sel = select_and_pad(final, ds, EpsilonConfig(0.99, ABSOLUTE))
    assert sel.m == space.size
    assert (sel.padding_counts == 0).all()


def test_select_and_pad_zero_epsilon_tie_free():
    rows = [[1.0, 0.9], [0.5, 0.8], [0.3, -0.1]]
    final, space = _stub_final(rows)
    ds = make_dataset(
        [[((float(i),), 0, 0.0)] for i in range(3)], horizon=0, action_space=space
    )
    sel = select_and_pad(final, ds, EpsilonConfig(0.0))
    assert sel.m == 1
    assert np.allclose(sel.padded[:, 0], [1.0, 0.8, 0.3])


def test_select_and_pad_dead_patients_degenerate():
    rows = [[2.0, 1.0]]
    final, space = _stub_final(rows)
    ds = make_dataset(
        [
            [((0.0,), 0, 0.0), ((0.0,), 0, 0.0)],
            [((0.0,), 1, -60.0)],  # gone before the final stage
        ],
        horizon=1,
        action_space=space,
    )
    sel = select_and_pad(final, ds, EpsilonConfig(0.9))
    assert sel.admissible.rows[1] == ((NO_ACTION, 0.0),)
    assert sel.m == 2  # driven by the alive patient, not the dead one
    assert np.allclose(sel.padded[1], [0.0, 0.0])


def test_select_and_pad_rows_follow_the_one_row_rule_on_ties():
    # tie-heavy rows with signed zeros: each selected row equals the reference
    # rule (value descending, index ascending on ties) and admissible_actions
    rng = np.random.default_rng(31)
    rows = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=(40, 5)).tolist()
    final, space = _stub_final(rows)
    ds = make_dataset(
        [[((float(i),), 0, 0.0)] for i in range(len(rows))], horizon=0, action_space=space
    )
    for cfg in (EpsilonConfig(0.0), EpsilonConfig(0.5), EpsilonConfig(0.6, ABSOLUTE)):
        sel = select_and_pad(final, ds, cfg)
        for i, q in enumerate(rows):
            q_max = max(q)
            threshold = q_max - cfg.epsilon * abs(q_max) if cfg.mode == RELATIVE else q_max - cfg.epsilon
            order = sorted(range(len(q)), key=lambda k: (-q[k], k))
            expect = tuple((k, q[k]) for k in order if q[k] >= threshold)
            assert sel.admissible.rows[i] == expect
            assert sel.admissible.rows[i] == admissible_actions(np.array(q), cfg)
            n_i = len(expect)
            assert sel.padded[i].tolist() == [v for _, v in expect] + [q_max] * (sel.m - n_i)
            assert sel.padding_counts[i] == sel.m - n_i
        assert sel.m == max(len(row) for row in sel.admissible.rows)


def test_pseudo_outcome_matrix_single_column_reduces_to_vector():
    ds = make_dataset(
        [
            [((0.0,), 0, 1.0), ((1.0,), 1, 4.0)],
            [((1.0,), 1, -60.0)],
        ],
        horizon=1,
    )
    final = TableQ(two_actions(), 1, {(1.0,): [2.0, -1.0]})
    sel = select_and_pad(final, ds, EpsilonConfig(0.0))
    assert sel.m == 1
    matrix = stage_targets(ds, 0, sel.padded[ds.stage_rows(1)[0]])
    vector = classical_targets(ds, 0, final)
    assert np.allclose(matrix[:, 0], vector)


def test_pseudo_outcome_matrix_zero_rewards_gives_value_matrix():
    ds = make_dataset(
        [
            [((0.0,), 0, 0.0), ((1.0,), 1, 0.0)],
            [((0.5,), 1, 0.0), ((0.0,), 0, 0.0)],
        ],
        horizon=1,
    )
    padded = np.array([[3.0, 2.0], [1.0, 0.5]])
    matrix = stage_targets(ds, 0, padded[ds.stage_rows(1)[0]])
    assert np.allclose(matrix, padded)


def test_pseudo_outcome_matrix_hand_fixture():
    ds = make_dataset(
        [
            [((0.0,), 0, 1.0), ((1.0,), 1, 0.0)],
            [((1.0,), 1, -2.0), ((0.0,), 0, 0.0)],
        ],
        horizon=1,
    )
    padded = np.array([[5.0, 4.0], [7.0, 7.0]])
    matrix = stage_targets(ds, 0, padded[ds.stage_rows(1)[0]])
    assert np.allclose(matrix, [[6.0, 5.0], [5.0, 5.0]])


def _cancer_dataset(n=120, seed=5):
    return simulate_cancer_cohort(CancerParams(), "uniform-random", n, seed).dataset


def test_zero_epsilon_reduces_to_classical():
    ds = _cancer_dataset()
    classical = backward_fit(ds, KERNEL)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.0))
    # tie-free final-stage predictions: selection keeps exactly one action
    assert stack.m == 1
    for t in range(ds.horizon):
        assert stack.column_models[0][t].to_dict() == classical.models[t].to_dict()
    assert stack.final_model.to_dict() == classical.models[ds.horizon].to_dict()
    rank1 = policy_set(stack)[0]
    base = greedy_policy(classical)
    for i, patient in enumerate(ds.patients):
        for t in range(patient.terminal_stage + 1):
            h = history_features(patient, t)
            assert rank1.decide(t, h) == base.decide(t, h)


def test_column_one_pseudo_outcomes_match_classical_every_stage():
    ds = _cancer_dataset(80, seed=9)
    classical = backward_fit(ds, KERNEL)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.3))
    t_last = ds.horizon - 1
    sel = select_and_pad(stack.final_model, ds, EpsilonConfig(0.3))
    matrix = stage_targets(ds, t_last, sel.padded[ds.stage_rows(ds.horizon)[0]])
    vector = classical_targets(ds, t_last, classical.models[ds.horizon])
    both = ~np.isnan(vector)
    assert np.array_equal(matrix[both, 0], vector[both])
    for t in range(t_last - 1, -1, -1):
        next_models = [stack.column_models[j][t + 1] for j in range(stack.m)]
        matrix = stage_targets(ds, t, best_over_actions(next_models, ds.stage_rows(t + 1)[1])[0].T)
        vector = classical_targets(ds, t, classical.models[t + 1])
        both = ~np.isnan(vector)
        assert np.array_equal(matrix[both, 0], vector[both])


def test_two_stage_column_targets_verified_by_hand():
    ds = make_dataset(
        [
            [((0.0,), 0, 1.0), ((0.0,), 0, 2.0)],
            [((1.0,), 1, -1.0), ((1.0,), 1, 3.0)],
            [((0.5,), 0, 0.5), ((0.5,), 1, 1.0)],
            [((0.25,), 1, 2.0), ((0.75,), 0, -2.0)],
        ],
        horizon=1,
    )
    spec = DesignSpec.per_action_kernel(ridge=0.5)
    cfg = EpsilonConfig(0.6)
    stack = backward_fit_near_equiv(ds, spec, cfg)
    sel = select_and_pad(stack.final_model, ds, cfg)
    idx, feats, actions, rewards = ds.stage_rows(0)
    for j in range(stack.m):
        targets = rewards + sel.padded[idx, j]
        manual = fit(spec, feats, actions, targets, ds.action_spaces[0])
        assert stack.column_models[j][0].to_dict() == manual.to_dict()


def test_cancer_low_epsilon_rank_one_matches_classical_policy():
    ds = _cancer_dataset(200, seed=21)
    classical = greedy_policy(backward_fit(ds, KERNEL))
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.1))
    assert stack.m <= 11
    rank1 = policy_set(stack)[0]
    probe = simulate_cancer_cohort(CancerParams(), "uniform-random", 60, 77)
    for t in range(6):
        feats = np.column_stack([probe.tumor[:, t], probe.toxicity[:, t]])
        assert np.array_equal(rank1(t, feats), classical(t, feats))


def test_policy_set_shares_final_model_and_length():
    ds = _cancer_dataset(80, seed=3)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.5))
    policies = policy_set(stack)
    assert len(policies) == stack.m
    for policy in policies:
        assert policy.models[-1] is stack.final_model


def test_policy_set_members_round_trip_as_stacks(tmp_path):
    cohort = simulate_cancer_cohort(CancerParams(), "uniform-random", 80, 3)
    ds = cohort.dataset
    policies = policy_set(backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.5)))
    assert len(policies) >= 2
    for j, member in enumerate(policies):
        path = tmp_path / f"rank{j + 1}.json"
        save_stack(member, path, cohort.texts)
        text = path.read_text()
        assert text == json.dumps(stack_to_dict(member))
        loaded = stack_from_dict(json.loads(text))
        assert json.dumps(stack_to_dict(loaded)) == text
        for t in range(ds.horizon + 1):
            feats = ds.stage_rows(t)[1]
            assert np.array_equal(loaded(t, feats), member(t, feats))


def test_monotone_m_in_epsilon():
    ds = _cancer_dataset(100, seed=13)
    final = backward_fit(ds, KERNEL).models[ds.horizon]
    ms = [select_and_pad(final, ds, EpsilonConfig(e)).m for e in (0.0, 0.1, 0.3, 0.5, 0.9)]
    assert ms == sorted(ms)
    assert all(m <= 11 for m in ms)


def test_admissible_actions_of_one_model_prediction():
    model = TableQ(two_actions(), 1, {(0.0,): [1.0, 0.95]})
    got = admissible_actions(model.predict_all_matrix(np.array([[0.0]]))[0], EpsilonConfig(0.1, ABSOLUTE))
    assert got == ((0, 1.0), (1, 0.95))


def test_single_stage_adaptation_degenerates_to_admissible_sets():
    # single decision point: the fit keeps no column chains and the usable
    # output is the per-patient admissible set under the blip-band criterion
    from nearq.envs import ItrConfig, simulate_itr

    ds = simulate_itr(ItrConfig(300, seed=60))
    cfg = EpsilonConfig(0.5, ABSOLUTE)
    stack = backward_fit_near_equiv(ds, DesignSpec.interaction_linear(), cfg)
    assert all(len(chain) == 0 for chain in stack.column_models)
    policies = policy_set(stack)
    assert len(policies) == stack.m
    for i, patient in enumerate(ds.patients):
        h = history_features(patient, 0)
        row = stack.admissible_sets.rows[i]
        single = admissible_actions(stack.final_model.predict_all_matrix(h[None, :])[0], cfg)
        # batched and single-row prediction may differ in the last bit
        assert [a for a, _ in row] == [a for a, _ in single]
        assert np.allclose([v for _, v in row], [v for _, v in single], rtol=1e-12)
        # the classical action is always the first admissible entry
        assert row[0][0] == policies[0].decide(0, h)
        # near-equivalence: retained entries sit within the band of the best
        values = [v for _, v in row]
        assert all(values[0] - v <= cfg.epsilon + 1e-12 for v in values)


def test_admissible_audit_csv(tmp_path):
    ds = _cancer_dataset(30, seed=2)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.3))
    path = tmp_path / "audit.csv"
    save_admissible_csv(stack, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "patient_id,rank,action_index,q_value"
    seen = {}
    for line in lines[1:]:
        pid, rank, action, value = line.split(",")
        seen.setdefault(int(pid), []).append((int(rank), int(action), float(value)))
    for pid, rows in seen.items():
        ranks = [r for r, _, _ in rows]
        assert ranks == list(range(1, len(rows) + 1))
        values = [v for _, _, v in rows]
        assert values == sorted(values, reverse=True)
    assert set(seen) == set(range(30))


def _tied_selection_case():
    """Tie-heavy final-stage values with signed zeros; patients 1, 4, 7, ... stop before the final stage."""
    rows = np.random.default_rng(7).choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=(13, 5)).tolist()
    final, space = _stub_final(rows)
    ds = make_dataset(
        [[((0.0,), 0, 0.0)] + ([] if i % 3 == 1 else [((float(i),), 0, 0.0)]) for i in range(len(rows))],
        horizon=1, action_space=space,
    )
    return final, ds, rows


SELECTION_CFGS = (EpsilonConfig(0.0), EpsilonConfig(0.5), EpsilonConfig(0.9),
                  EpsilonConfig(0.0, ABSOLUTE), EpsilonConfig(0.6, ABSOLUTE))


@pytest.mark.parametrize("cfg", SELECTION_CFGS)
def test_admissible_arrays_give_the_one_row_rule_and_sentinel_rows(cfg):
    final, ds, rows = _tied_selection_case()
    sets = select_and_pad(final, ds, cfg).admissible
    assert "rows" not in vars(sets)
    expected = [((NO_ACTION, 0.0),) if i % 3 == 1 else admissible_actions(np.array(q), cfg) for i, q in enumerate(rows)]
    assert list(sets.rows) == expected
    assert [sets.n_admissible(i) for i in range(len(rows))] == [len(row) for row in expected]
    for arr in (sets.actions, sets.values, sets.counts):
        assert not arr.flags.writeable


def admissible_text(sets):
    """Reference formatter: the whole audit file as one string, built from ``rows``."""
    lines = ["patient_id,rank,action_index,q_value"]
    for pid, row in enumerate(sets.rows):
        lines.extend(f"{pid},{rank},{action},{value!r}" for rank, (action, value) in enumerate(row, start=1))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_rows", [3, nearq.core.CSV_BLOCK_ROWS])
def test_save_admissible_csv_matches_the_whole_file_formatter(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(nearq.core, "CSV_BLOCK_ROWS", block_rows)
    ds = _cancer_dataset(150, seed=12)
    stacks = fit_tolerances(ds, KERNEL, (EpsilonConfig(0.9), EpsilonConfig(0.5, ABSOLUTE)))[1]
    final, tied, _ = _tied_selection_case()
    stacks += tuple(replace(stacks[0], admissible_sets=select_and_pad(final, tied, cfg).admissible)
                    for cfg in SELECTION_CFGS)
    # fewer patients than actions: one patient admits all 12 tied actions, the other stops early
    final, space = _stub_final([[1.0] * 12])
    few = make_dataset([[((0.0,), 0, 0.0), ((0.0,), 0, 0.0)], [((0.0,), 0, 0.0)]], horizon=1, action_space=space)
    few = select_and_pad(final, few, EpsilonConfig(0.0)).admissible
    assert few.counts.tolist() == [12, 1] and few.actions.max() == 11
    stacks += (replace(stacks[0], admissible_sets=few),)
    assert max(stack.m for stack in stacks) > 1
    for k, stack in enumerate(stacks):
        save_admissible_csv(stack, tmp_path / f"audit{k}.csv")
        assert (tmp_path / f"audit{k}.csv").read_text() == admissible_text(stack.admissible_sets)
    # every file at once, their q values read from one text table
    save_admissible_csvs({tmp_path / f"shared{k}.csv": stack for k, stack in enumerate(stacks)})
    for k, stack in enumerate(stacks):
        assert (tmp_path / f"shared{k}.csv").read_text() == admissible_text(stack.admissible_sets)


def test_a_cancer_run_never_builds_the_admissible_rows(tmp_path, monkeypatch):
    fitted = []

    def recorded(*args):
        fitted.append(fit_tolerances(*args))
        return fitted[-1]

    monkeypatch.setattr(nearq.cli, "fit_tolerances", recorded)
    argv = ["cancer", "--n-train", "60", "--n-test", "20", "--epsilon", "0.3", "--epsilon", "0.9"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    (_, stacks), = fitted
    assert len(stacks) == 2 and (tmp_path / "run" / "admissible_eps0.9.csv").is_file()
    assert all("rows" not in vars(stack.admissible_sets) for stack in stacks)


def _kernel_arrays(model):
    """Every array and scalar a kernel model holds, for bitwise comparison."""
    out = [model.bandwidth]
    for comp in model.components:
        out.extend(comp)
    return out


def _bitwise_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v for u, v in zip(a, b)
    )


@pytest.mark.parametrize("eps", [0.1, 0.9])
def test_rank_one_chain_models_equal_classical_bitwise(eps):
    ds = _cancer_dataset(300, seed=17)
    classical = backward_fit(ds, KERNEL)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(eps))
    assert stack.m > 1
    for t in range(ds.horizon):
        assert _bitwise_equal(
            _kernel_arrays(stack.column_models[0][t]), _kernel_arrays(classical.models[t])
        )
    assert _bitwise_equal(
        _kernel_arrays(stack.final_model), _kernel_arrays(classical.models[ds.horizon])
    )


def test_stage_models_share_one_inputs_buffer_per_action():
    ds = _cancer_dataset(120, seed=4)
    stack = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(0.5))
    assert stack.m > 1
    for t in range(ds.horizon):
        first = stack.column_models[0][t]
        for k, comp in enumerate(first.components):
            if comp[0] == "kernel":
                assert all(
                    chain[t].components[k][1] is comp[1] for chain in stack.column_models
                )


def test_tolerances_share_the_classical_models():
    ds = _cancer_dataset(150, seed=12)
    cfgs = (EpsilonConfig(0.1), EpsilonConfig(0.5), EpsilonConfig(0.9))
    classical, stacks = fit_tolerances(ds, KERNEL, cfgs)
    assert len(stacks) == len(cfgs) and max(s.m for s in stacks) > 1
    for stack in stacks:
        assert stack.final_model is classical.models[ds.horizon]
        for t in range(ds.horizon):
            assert stack.column_models[0][t] is classical.models[t]


def test_fit_tolerances_predicts_the_final_stage_once(monkeypatch):
    ds = _cancer_dataset(150, seed=12)
    cfgs = tuple(EpsilonConfig(e) for e in (0.1, 0.3, 0.5, 0.9))
    calls = []
    predict_all_matrix = FittedQ.predict_all_matrix

    def counted(self, features):
        calls.append(self)
        return predict_all_matrix(self, features)

    monkeypatch.setattr(FittedQ, "predict_all_matrix", counted)
    classical, stacks = fit_tolerances(ds, KERNEL, cfgs)
    assert calls == [classical.models[ds.horizon]]
    # every tolerance ranked that one matrix as select_and_pad ranks its own
    for cfg, stack in zip(cfgs, stacks):
        sel = select_and_pad(stack.final_model, ds, cfg)
        assert (sel.m, sel.admissible) == (stack.m, stack.admissible_sets)
        assert np.array_equal(sel.padding_counts, stack.padding_log)


@pytest.mark.parametrize("eps", [0.1, 0.9])
def test_joint_fit_chains_equal_a_single_tolerance_fit_bitwise(eps):
    ds = _cancer_dataset(300, seed=17)
    cfgs = tuple(EpsilonConfig(e) for e in (0.1, 0.3, 0.5, 0.9))
    joint = fit_tolerances(ds, KERNEL, cfgs)[1][[c.epsilon for c in cfgs].index(eps)]
    alone = backward_fit_near_equiv(ds, KERNEL, EpsilonConfig(eps))
    assert joint.m == alone.m > 1
    assert joint.admissible_sets == alone.admissible_sets
    assert np.array_equal(joint.padding_log, alone.padding_log)
    for joint_chain, alone_chain in zip(joint.column_models, alone.column_models, strict=True):
        for a, b in zip(joint_chain, alone_chain, strict=True):
            assert _bitwise_equal(_kernel_arrays(a), _kernel_arrays(b))
