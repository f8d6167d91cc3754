import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearq.envs
import nearq.qlearn
from nearq.core import validate
from nearq.envs import (
    UNIFORM_RANDOM,
    CancerParams,
    ItrConfig,
    _cohort_draws,
    _refine,
    _reward_arrays,
    _step_arrays,
    simulate_cancer_cohort,
    simulate_cancer_cohorts,
    simulate_itr,
    stream,
)
from nearq.qlearn import GreedyPolicy
from nearq.regression import InteractionLinearQ

from conftest import dose_schedule_policy, lockstep_paths

PARAMS = CancerParams()


def _stand_in(doses):
    return dose_schedule_policy(PARAMS.action_space, doses)


def _step(tumor, tox, dose, death_u=1.0):
    """One month of ``_step_arrays`` for one patient at its initial state.

    Returns (next_tumor, next_tox, died, reward); a ``death_u`` of 1.0 never dies.
    """
    rows = (np.array([float(v)]) for v in (tumor, tox, tumor, tox, dose, death_u))
    return tuple(v[0] for v in _step_arrays(PARAMS, *rows))


def _reward(tumor, tox, next_tumor, next_tox, died):
    rows = (np.array([v]) for v in (tumor, tox, next_tumor, next_tox, died))
    return _reward_arrays(*rows)[0]


def _reference_step(p, tumor, tox, tumor0, tox0, dose, death_u):
    """One month written from the ``CancerParams`` formulas in Python floats."""
    d_tumor = p.tumor_growth * max(tox, tox0) - p.tumor_dose * (dose - p.dose_offset) if tumor > 0 else 0.0
    d_tox = p.tox_growth * max(tumor, tumor0) + p.tox_dose * (dose - p.dose_offset)
    next_tumor = max(tumor + d_tumor, 0.0)
    next_tox = max(tox + d_tox, 0.0)
    hazard = math.exp(p.hazard_intercept + p.hazard_tumor * next_tumor + p.hazard_toxicity * next_tox)
    died = death_u < 1.0 - math.exp(-hazard)
    reward = (-60.0 if died else 0.0) + (5.0 if next_tox - tox <= -0.5 else -5.0)
    if next_tumor == 0.0:
        reward += 15.0
    else:
        reward += 5.0 if next_tumor - tumor <= -0.5 else -5.0
    return next_tumor, next_tox, died, reward


# --- single-stage generator ----------------------------------------------------


def test_itr_marginals_large_sample():
    ds = simulate_itr(ItrConfig(100_000, seed=12))
    idx, feats, actions, rewards = ds.stage_rows(0)
    assert np.abs(feats.mean(axis=0)).max() < 0.02
    p_treat = (actions == 1).mean()
    assert 0.49 < p_treat < 0.51
    labels = np.where(actions == 1, 1.0, -1.0)
    mean = 1 + 2 * feats[:, 0] + feats[:, 1] + 0.5 * feats[:, 2] + (feats[:, 0] + feats[:, 1]) * labels
    residual_var = np.var(rewards - mean)
    assert abs(residual_var - 1.0) < 0.05


def test_itr_noise_hook_recovers_mean_function():
    # redraw the generator's stream: the rewards are the mean function plus the unit normal draws
    ds = simulate_itr(ItrConfig(500, seed=4))
    rng = stream(4, "itr")
    x = rng.uniform(-1.0, 1.0, size=(500, 10))
    action_idx = rng.integers(0, 2, size=500)
    noise = rng.standard_normal(500)
    _, feats, actions, rewards = ds.stage_rows(0)
    assert np.array_equal(feats, x)
    assert np.array_equal(actions, action_idx)
    labels = np.where(actions == 1, 1.0, -1.0)
    mean = 1 + 2 * feats[:, 0] + feats[:, 1] + 0.5 * feats[:, 2] + (feats[:, 0] + feats[:, 1]) * labels
    assert np.allclose(rewards - mean, noise, rtol=0.0, atol=1e-12)
    # spot value: x0 = x1 = 1, treated, gives 1 + 2 + 1 + 2 = 6
    x = np.zeros(10)
    x[0] = x[1] = 1.0
    assert 1 + 2 * x[0] + x[1] + 0.5 * x[2] + (x[0] + x[1]) * 1.0 == 6.0


def test_itr_determinism():
    a = simulate_itr(ItrConfig(200, seed=9))
    b = simulate_itr(ItrConfig(200, seed=9))
    assert a == b
    c = simulate_itr(ItrConfig(200, seed=10))
    assert a != c


def test_itr_config_guards():
    with pytest.raises(ValueError):
        ItrConfig(0, seed=1)


# --- tumor/toxicity transitions -------------------------------------------------


def test_transition_remission_is_absorbing():
    for dose in (0.0, 0.5, 1.0):
        next_tumor, _, died, _ = _step(0.0, 1.0, dose)
        assert next_tumor == 0.0
        assert not died


def test_transition_death_probability_brackets():
    # from (tumor 0, toxicity 0.6) with dose 0 the next state is (0, 0):
    # hazard exp(-4) = 0.018316, so death probability 1 - exp(-exp(-4)) = 0.018149
    lam = math.exp(-4.0)
    p = 1.0 - math.exp(-lam)
    assert lam == pytest.approx(0.01832, abs=1e-4)
    assert p == pytest.approx(0.01815, abs=1e-4)
    assert _step(0.0, 0.6, 0.0)[:2] == (0.0, 0.0)
    died_low = _step(0.0, 0.6, 0.0, death_u=p - 1e-6)[2]
    died_high = _step(0.0, 0.6, 0.0, death_u=p + 1e-6)[2]
    assert died_low and not died_high


def test_transition_rejects_off_grid_dose():
    with pytest.raises(ValueError, match="grid"):
        simulate_cancer_cohort(PARAMS, 0.25, 10, seed=1)


def test_transition_monotone_in_dose():
    doses = PARAMS.dose_grid
    for tumor in (0.5, 1.0, 2.0, 4.0):
        for tox in (0.0, 1.0, 3.0):
            results = [_step(tumor, tox, d) for d in doses]
            tumors = [r[0] for r in results]
            toxes = [r[1] for r in results]
            assert all(a >= b - 1e-12 for a, b in zip(tumors, tumors[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(toxes, toxes[1:]))


def test_reward_components():
    # died, toxicity up 0.3, tumor unchanged: -60 - 5 - 5
    assert _reward(1.0, 1.0, 1.0, 1.3, True) == -70.0
    # alive, toxicity down 0.6, tumor cleared: 0 + 5 + 15
    assert _reward(1.0, 1.0, 0.0, 0.4, False) == 20.0
    # boundary: both changes exactly -0.5 with tumor still positive: 5 + 5
    assert _reward(1.5, 1.5, 1.0, 1.0, False) == 10.0


# --- cohort simulation ----------------------------------------------------------


def test_cohort_determinism():
    a = simulate_cancer_cohort(PARAMS, "uniform-random", 80, seed=31)
    b = simulate_cancer_cohort(PARAMS, "uniform-random", 80, seed=31)
    assert a.dataset == b.dataset
    assert np.array_equal(a.tumor, b.tumor)
    assert np.array_equal(a.toxicity, b.toxicity)
    assert np.array_equal(a.alive, b.alive)
    assert np.array_equal(a.rewards, b.rewards)


def test_cohort_zero_dose_never_shrinks_tumor():
    # with no drug the tumor drift is positive, so tumor response stays
    # penalized and remission is unreachable for anyone starting above zero
    cohort = simulate_cancer_cohort(PARAMS, 0.0, 200, seed=17)
    diffs = np.diff(cohort.tumor, axis=1)
    started_positive = cohort.tumor[:, 0] > 0
    assert started_positive.any()
    assert (diffs[started_positive] >= -1e-12).all()
    assert (cohort.tumor[started_positive] > 0).all()
    live_rewards = cohort.rewards[cohort.alive[:, :-1]]
    assert set(np.unique(live_rewards)).issubset({-70.0, -60.0, -10.0, 0.0})


def test_cohort_paths_carry_forward_after_death():
    # greedy stand-ins for the constant doses 0.0, 0.5 and 1.0 and for a policy that stops dosing
    # after month 1, in one rollout: along each policy's class paths the live months replay the
    # scalar reference from the shared draws, once a patient dies its state stays, and the reward
    # total at its final class is the sum of the reference's stage rewards
    n, seed = 80, 23
    schedules = [[dose] * PARAMS.n_stages for dose in (0.0, 0.5, 1.0)] + [[1.0, 1.0] + [0.0] * 4]
    policies = [_stand_in(schedule) for schedule in schedules]
    rollout = simulate_cancer_cohorts(PARAMS, policies, n, seed)
    init, death_u = _cohort_draws(seed, "train", n, PARAMS.n_stages, PARAMS.init_low, PARAMS.init_high)
    assert not rollout.alive.all()
    assert rollout.alive[rollout.parents[rollout.starts[1]:]].all()  # no dead class is stepped
    deaths = remissions = 0
    for j, schedule in enumerate(schedules):
        path = lockstep_paths(rollout, j)
        tumor, tox, alive = rollout.states[path, 0], rollout.states[path, 1], rollout.alive[path]
        totals = rollout.totals[rollout.final[j]]
        for i in range(n):
            state, rewards = tuple(init[i]), np.zeros(PARAMS.n_stages)
            assert state == (tumor[i, 0], tox[i, 0])
            for t in range(PARAMS.n_stages):
                if not alive[i, t]:
                    deaths += 1
                    assert not alive[i, t:].any()
                    assert (tumor[i, t:] == state[0]).all() and (tox[i, t:] == state[1]).all()
                    break
                *state, died, rewards[t] = _reference_step(PARAMS, *state, *init[i], schedule[t], death_u[i, t])
                assert tuple(state) == (tumor[i, t + 1], tox[i, t + 1])
                assert died == (not alive[i, t + 1])
                remissions += state[0] == 0.0 and not died
            assert totals[i] == rewards.sum()
    assert deaths > 0 and remissions > 0
    # dose 1.0 and the switch share every class through month 2, then part for patients still alive
    full, stop = lockstep_paths(rollout, 2), lockstep_paths(rollout, 3)
    assert (full[:, :3] == stop[:, :3]).all()
    assert (full[:, 3:] != stop[:, 3:]).any()
    # each policy alone, with no classes, has the states, alive flags and totals the lockstep gives it
    for j, policy in enumerate(policies):
        _assert_lockstep_matches(rollout, j, simulate_cancer_cohort(PARAMS, policy, n, seed))


COHORT_ARRAYS = ("tumor", "toxicity", "alive", "dose_index", "rewards")


def _assert_same_cohort(alone, together):
    for name in COHORT_ARRAYS:
        a, b = getattr(alone, name), getattr(together, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert not a.flags.writeable and not b.flags.writeable, name
        assert a.flags.c_contiguous, name
    assert alone.action_space == together.action_space


def _assert_lockstep_matches(rollout, j, cohort):
    """Policy j's tumor, toxicity and alive flags along its lockstep paths, and its reward totals
    at its final classes, are bitwise those of ``cohort``."""
    path = lockstep_paths(rollout, j)
    pairs = [(rollout.states[path, 0], cohort.tumor), (rollout.states[path, 1], cohort.toxicity),
             (rollout.alive[path], cohort.alive), (rollout.totals[rollout.final[j]], cohort.rewards.sum(axis=1))]
    for name, (together, alone) in zip(("tumor", "toxicity", "alive", "totals"), pairs):
        assert together.dtype == alone.dtype and together.tobytes() == alone.tobytes(), (j, name)


def _counting_greedy_actions(monkeypatch, asked=None):
    """The row counts of every ``greedy_actions`` call the rollouts make from here on, the lockstep's
    and a greedy policy's alone; ``asked`` gets each call's models."""
    rows = []
    real_greedy = nearq.envs.greedy_actions

    def counted_greedy(models, features):
        rows.append(features.shape[0])
        if asked is not None:
            asked.append(list(models))
        return real_greedy(models, features)

    monkeypatch.setattr(nearq.envs, "greedy_actions", counted_greedy)
    monkeypatch.setattr(nearq.qlearn, "greedy_actions", counted_greedy)
    return rows


@pytest.mark.parametrize("n", [1, 7])
def test_everyone_dies_at_stage_zero(monkeypatch, n):
    # a hazard of exp(50) kills every patient in the first month; the later stages step no one
    # and ask no policy, whether it is rolled out alone or, greedy, in a lockstep
    params = CancerParams(hazard_intercept=50.0)
    shapes = _counting_greedy_actions(monkeypatch)

    def counted(t, feats):
        shapes.append(feats.shape[0])
        return np.full(feats.shape[0], 3)

    space = params.action_space
    greedy = GreedyPolicy(tuple(InteractionLinearQ(space, np.arange(6.0), 2) for _ in range(params.n_stages)))
    lockstep = [_stand_in([0.3] * params.n_stages), greedy]
    rollout = simulate_cancer_cohorts(params, lockstep, n, seed=4)
    for j, member in enumerate(lockstep):
        _assert_lockstep_matches(rollout, j, simulate_cancer_cohort(params, member, n, seed=4))
    for policy in [0.0, np.int64(1), UNIFORM_RANDOM, counted] + lockstep:
        alone = simulate_cancer_cohort(params, policy, n, seed=4)
        assert alone.alive[:, 0].all() and not alone.alive[:, 1:].any()
        assert (alone.dose_index[:, 0] >= 0).all() and (alone.dose_index[:, 1:] == -1).all()
        assert (alone.rewards[:, 0] <= -40.0).all() and (alone.rewards[:, 1:] == 0.0).all()
        assert (alone.tumor[:, 1:] == alone.tumor[:, 1:2]).all()
    assert shapes and min(shapes) == n


def test_lockstep_keeps_deciding_after_one_policys_patients_have_all_died(monkeypatch):
    # under a high hazard, on some seeds the full dose kills every patient of its policy while some
    # on the half dose still live: the lockstep keeps deciding for the survivors, from the models of
    # the policies with a live patient only, and each policy's states, alive flags and totals stay
    # bitwise those it gets alone
    params = CancerParams(hazard_intercept=-2.0)
    policies = [dose_schedule_policy(params.action_space, [dose] * params.n_stages) for dose in (1.0, 0.5)]
    asked = []
    rows = _counting_greedy_actions(monkeypatch, asked)
    mixed = 0
    for seed in range(20):
        asked.clear()
        rollout = simulate_cancer_cohorts(params, policies, 10, seed)
        alive = [rollout.alive[lockstep_paths(rollout, j)].any(axis=0) for j in range(len(policies))]
        mixed += (~alive[0] & alive[1]).any()
        # stage t asks policy j's model exactly when j has a patient alive at month t
        assert [[policy.models[t] in models for policy in policies] for t, models in enumerate(asked)] == \
            [[bool(alive[j][t]) for j in range(len(policies))] for t in range(len(asked))]
        if seed == 5:  # the full dose's patients have all died by month 3; the half dose's have not
            assert not alive[0][3:].any() and alive[1][3:].all()
            assert len(asked) == params.n_stages
            assert all(policies[0].models[t] not in asked[t] for t in range(3, params.n_stages))
        for j, policy in enumerate(policies):
            _assert_lockstep_matches(rollout, j, simulate_cancer_cohort(params, policy, 10, seed))
    assert mixed > 0
    assert rows and min(rows) > 0


@pytest.mark.parametrize("answer", [
    lambda t, feats: np.full(feats.shape[0], 2.7),
    lambda t, feats: np.ones(feats.shape[0], dtype=bool),
    lambda t, feats: [float(t)] * feats.shape[0],
], ids=["float", "bool", "float-list"])
def test_non_integer_action_indices_are_refused_in_both_paths(answer):
    # the lockstep takes greedy policies only, so it refuses the callable by name
    with pytest.raises(ValueError, match=r"policy 'odd' is not a GreedyPolicy"):
        simulate_cancer_cohorts(PARAMS, [_stand_in([0.5] * 6), answer], 10, seed=1, names=["0.5", "odd"])
    named = r"policy 'odd' returned invalid action indices at stage 0"
    with pytest.raises(ValueError, match=named):
        simulate_cancer_cohort(PARAMS, answer, 10, seed=1, name="odd")
    with pytest.raises(ValueError, match="'#0' returned invalid action indices at stage 0"):
        simulate_cancer_cohort(PARAMS, answer, 10, seed=1)


@pytest.mark.parametrize("policy", [0.5, np.int64(1), UNIFORM_RANDOM, lambda t, feats: np.zeros(len(feats), int)],
                         ids=["constant", "numpy-int", "uniform-random", "callable"])
def test_lockstep_refuses_a_non_greedy_policy_before_any_draw(monkeypatch, policy):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw started")

    _cohort_draws.cache_clear()
    monkeypatch.setattr(nearq.envs, "stream", refuse)
    with pytest.raises(ValueError, match=r"policy 'other' is not a GreedyPolicy"):
        simulate_cancer_cohorts(PARAMS, [_stand_in([0.5] * 6), policy], 10, seed=1, names=["0.5", "other"])


def test_lockstep_refuses_a_names_list_of_another_length_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw started")

    _cohort_draws.cache_clear()
    monkeypatch.setattr(nearq.envs, "stream", refuse)
    policies = [_stand_in([dose] * 6) for dose in (0.0, 0.5, 1.0)]
    for names in (["a"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match=f"{len(names)} names for 3 policies"):
            simulate_cancer_cohorts(PARAMS, policies, 10, seed=1, names=names)


@pytest.mark.parametrize("kwargs,match", [
    ({"n_stages": 0}, "n_stages must be an int >= 1, got 0"),
    ({"n_stages": 2.5}, "n_stages must be an int >= 1, got 2.5"),
    ({"n_stages": True}, "n_stages must be an int >= 1, got True"),
    ({"dose_grid": (0.5,)}, "at least two doses"),
    ({"dose_grid": (0.1, 0.1)}, r"dose_grid \(0.1, 0.1\): action labels must be distinct"),
    ({"dose_grid": (0.0, math.nan)}, r"dose_grid \(0.0, nan\): action labels must be finite"),
    ({"hazard_intercept": math.nan}, "hazard_intercept must be finite, got nan"),
    ({"hazard_intercept": math.inf}, "hazard_intercept must be finite, got inf"),
    ({"hazard_tumor": math.nan}, "hazard_tumor must be finite, got nan"),
    ({"hazard_toxicity": -math.inf}, "hazard_toxicity must be finite, got -inf"),
    ({"tumor_growth": math.inf}, "tumor_growth must be finite"),
    ({"tox_growth": math.nan}, "tox_growth must be finite"),
    ({"tumor_dose": math.nan}, "tumor_dose must be finite"),
    ({"tox_dose": math.inf}, "tox_dose must be finite"),
    ({"dose_offset": math.nan}, "dose_offset must be finite"),
    ({"init_low": -math.inf}, "init_low must be finite"),
    ({"init_high": math.nan}, "init_high must be finite"),
    ({"init_low": 3.0, "init_high": 1.0}, "init_low 3.0 exceeds init_high 1.0"),
], ids=lambda v: "-".join(f"{k}={v[k]}" for k in v) if isinstance(v, dict) else None)
def test_cancer_params_refuse_bad_values_at_construction(kwargs, match):
    with pytest.raises(ValueError, match=match):
        CancerParams(**kwargs)


def test_cancer_params_accept_the_documented_edges():
    # a hazard intercept of -inf switches deaths off; an empty initial range is one state
    assert simulate_cancer_cohort(CancerParams(hazard_intercept=-math.inf), 0.5, 5, seed=1).alive.all()
    point = simulate_cancer_cohort(CancerParams(init_low=1.0, init_high=1.0), 0.5, 5, seed=1)
    assert (point.tumor[:, 0] == 1.0).all() and (point.toxicity[:, 0] == 1.0).all()


@pytest.mark.parametrize("dose", [np.int64(1), np.int32(0), np.uint8(1)])
def test_numpy_integer_is_a_constant_dose(dose):
    as_python = simulate_cancer_cohort(PARAMS, int(dose), 30, seed=2)
    _assert_same_cohort(simulate_cancer_cohort(PARAMS, dose, 30, seed=2), as_python)
    assert (as_python.dose_index[as_python.alive[:, :-1]] == PARAMS.action_space.index_of(float(dose))).all()


def test_a_constant_dose_resolves_to_the_nearest_grid_dose():
    # 0.0 is also within index_of's tolerance of the dose 1e-10
    cohort = simulate_cancer_cohort(CancerParams(dose_grid=(0.0, 1e-10, 1.0)), 1e-10, 3, seed=1)
    assert (cohort.dose_index[cohort.alive[:, :-1]] == 1).all()


def test_cohort_dataset_shape_and_validation():
    cohort = simulate_cancer_cohort(PARAMS, "uniform-random", 500, seed=41)
    ds = cohort.dataset
    assert ds.horizon == 5
    assert ds.n_patients == 500
    report = validate(ds)
    assert report.ok
    # trajectory lengths match the alive mask
    for i, patient in enumerate(ds.patients):
        assert patient.terminal_stage + 1 == cohort.alive[i, :6].sum()


def test_action_space_is_built_once_per_parameter_set():
    params = CancerParams()
    assert params.action_space is params.action_space
    assert params.action_space.values == params.dose_grid
    assert CancerParams().action_space == params.action_space


def test_cohort_dataset_is_built_from_the_arrays_once():
    cohort = simulate_cancer_cohort(PARAMS, "uniform-random", 200, seed=29)
    ds = cohort.dataset
    assert cohort.dataset is ds
    assert ds.action_spaces == (cohort.action_space,) * PARAMS.n_stages
    n_stages = PARAMS.n_stages
    for i, patient in enumerate(ds.patients):
        assert patient.terminal_stage + 1 == cohort.alive[i, :n_stages].sum()
        for t in range(n_stages):
            if t > patient.terminal_stage:
                assert not cohort.alive[i, t]
                assert cohort.dose_index[i, t] == -1 and cohort.rewards[i, t] == 0.0
                continue
            record = patient.stages[t]
            assert cohort.alive[i, t]
            assert record.covariates == (cohort.tumor[i, t], cohort.toxicity[i, t])
            assert record.action_index == cohort.dose_index[i, t]
            assert record.reward == cohort.rewards[i, t]


def test_cohort_matches_scalar_transition_and_reward():
    # a scalar reference replays the vectorized rollout step by step, with the
    # same survival draws, and lands on the same states and rewards bit for bit
    cohort = simulate_cancer_cohort(PARAMS, "uniform-random", 60, seed=37)
    death_u = stream(37, "train/death").uniform(size=(60, PARAMS.n_stages)).tolist()
    tumor, tox, alive = cohort.tumor.tolist(), cohort.toxicity.tolist(), cohort.alive.tolist()
    for i in range(60):
        state = (tumor[i][0], tox[i][0])
        for t in range(PARAMS.n_stages):
            if not alive[i][t]:
                break
            dose = cohort.action_space.label(cohort.dose_index[i, t])
            next_tumor, next_tox, died, reward = _reference_step(
                PARAMS, *state, tumor[i][0], tox[i][0], dose, death_u[i][t]
            )
            assert (next_tumor, next_tox) == (tumor[i][t + 1], tox[i][t + 1])
            assert died == (not alive[i][t + 1])
            assert reward == cohort.rewards[i, t]
            state = (next_tumor, next_tox)


def test_cohort_state_invariants():
    cohort = simulate_cancer_cohort(PARAMS, "uniform-random", 200, seed=53)
    assert (cohort.tumor >= 0).all() and (cohort.toxicity >= 0).all()
    # remission absorbing along every path while alive
    n, months = cohort.tumor.shape
    for i in range(n):
        for t in range(months - 1):
            if cohort.alive[i, t] and cohort.tumor[i, t] == 0.0:
                assert cohort.tumor[i, t + 1] == 0.0


def test_policy_callable_contract_checked():
    bad = lambda t, feats: np.full(feats.shape[0], 99)
    with pytest.raises(ValueError, match="invalid action"):
        simulate_cancer_cohort(PARAMS, bad, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_cancer_cohort(PARAMS, "telepathy", 10, seed=1)
    with pytest.raises(ValueError):
        simulate_cancer_cohort(PARAMS, 0.25, 10, seed=1)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7])
def test_stream_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="outside"):
        stream(seed, "itr")


def test_stream_keys_every_64_bit_seed_apart():
    draws = {seed: stream(seed, "itr").uniform() for seed in (0, 1, (1 << 64) - 1)}
    assert len(set(draws.values())) == 3


@st.composite
def class_keys(draw):
    """(P, n) keys ``class * (K + 1) + action`` over C classes and K + 1 actions, with width
    C * (K + 1): a policy row is its own, a copy of the first row (the policies share every
    class) or one action throughout."""
    p, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    k, c = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    row = st.lists(st.tuples(st.integers(0, c - 1), st.integers(0, k)), min_size=n, max_size=n)
    rows = [draw(row)]
    for _ in range(p - 1):
        kind = draw(st.sampled_from(["own", "shared", "dead"]))
        own = draw(row)
        rows.append(rows[0] if kind == "shared" else [(cls, k) for cls, _ in own] if kind == "dead" else own)
    cells = np.array(rows, dtype=np.int32)
    return cells[..., 0] * (k + 1) + cells[..., 1], c * (k + 1)


@settings(max_examples=300, deadline=None)
@given(case=class_keys())
def test_refine_equals_unique_with_inverse(case):
    keys, width = case
    uniq, inverse = _refine(keys, width)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(uniq, want_uniq)
    assert inverse.dtype == np.int32 and inverse.shape == keys.shape
    assert np.array_equal(inverse, want_inverse.reshape(keys.shape))
