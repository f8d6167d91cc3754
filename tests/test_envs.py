import math

import numpy as np
import pytest

from nearq.core import validate
from nearq.envs import (
    CancerParams,
    CancerState,
    ItrConfig,
    cancer_reward,
    cancer_transition,
    simulate_cancer_cohort,
    simulate_itr,
    stream,
    true_blip,
)

PARAMS = CancerParams()


class FixedUniform:
    """RNG stub returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


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
    ds = simulate_itr(ItrConfig(500, seed=4, noise_sd=0.0))
    _, feats, actions, rewards = ds.stage_rows(0)
    labels = np.where(actions == 1, 1.0, -1.0)
    mean = 1 + 2 * feats[:, 0] + feats[:, 1] + 0.5 * feats[:, 2] + (feats[:, 0] + feats[:, 1]) * labels
    assert np.allclose(rewards, mean)
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


def test_true_blip_examples():
    x = np.zeros(10)
    x[0], x[1] = 0.5, -0.5
    assert true_blip(x) == 0.0
    x[0] = x[1] = 1.0
    assert true_blip(x) == 4.0
    x[0], x[1] = -0.8, 0.2
    assert true_blip(x) < 0
    with pytest.raises(ValueError):
        true_blip(np.zeros(3))


# --- tumor/toxicity transitions -------------------------------------------------


def test_transition_remission_is_absorbing():
    state = CancerState(tumor=0.0, toxicity=1.0)
    for dose in (0.0, 0.5, 1.0):
        nxt, died = cancer_transition(PARAMS, state, dose, rng=None)
        assert nxt.tumor == 0.0
        assert nxt.cured
        assert not died


def test_transition_death_probability_brackets():
    # from (tumor 0, toxicity 0.6) with dose 0 the next state is (0, 0):
    # hazard exp(-4) = 0.018316, so death probability 1 - exp(-exp(-4)) = 0.018149
    state = CancerState(tumor=0.0, toxicity=0.6, tumor0=0.0, tox0=0.6)
    lam = math.exp(-4.0)
    p = 1.0 - math.exp(-lam)
    assert lam == pytest.approx(0.01832, abs=1e-4)
    assert p == pytest.approx(0.01815, abs=1e-4)
    _, died_low = cancer_transition(PARAMS, state, 0.0, FixedUniform(p - 1e-6))
    _, died_high = cancer_transition(PARAMS, state, 0.0, FixedUniform(p + 1e-6))
    assert died_low and not died_high


def test_transition_rejects_off_grid_dose():
    state = CancerState(tumor=1.0, toxicity=1.0)
    with pytest.raises(ValueError, match="grid"):
        cancer_transition(PARAMS, state, 0.25, rng=None)


def test_transition_rejects_dead_patient():
    state = CancerState(tumor=1.0, toxicity=1.0, alive=False)
    with pytest.raises(ValueError):
        cancer_transition(PARAMS, state, 0.5, rng=None)


def test_transition_monotone_in_dose():
    doses = PARAMS.dose_grid
    for tumor in (0.5, 1.0, 2.0, 4.0):
        for tox in (0.0, 1.0, 3.0):
            state = CancerState(tumor=tumor, toxicity=tox)
            results = [cancer_transition(PARAMS, state, d, rng=None)[0] for d in doses]
            tumors = [s.tumor for s in results]
            toxes = [s.toxicity for s in results]
            assert all(a >= b - 1e-12 for a, b in zip(tumors, tumors[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(toxes, toxes[1:]))


def test_reward_components():
    a = CancerState(tumor=1.0, toxicity=1.0)
    # died, toxicity up 0.3, tumor unchanged: -60 - 5 - 5
    b = CancerState(tumor=1.0, toxicity=1.3, alive=False, tumor0=1.0, tox0=1.0)
    assert cancer_reward(a, b, died=True) == -70.0
    # alive, toxicity down 0.6, tumor cleared: 0 + 5 + 15
    c = CancerState(tumor=0.0, toxicity=0.4, tumor0=1.0, tox0=1.0)
    assert cancer_reward(a, c, died=False) == 20.0
    # boundary: both changes exactly -0.5 with tumor still positive: 5 + 5
    start = CancerState(tumor=1.5, toxicity=1.5)
    d = CancerState(tumor=1.0, toxicity=1.0, tumor0=1.5, tox0=1.5)
    assert cancer_reward(start, d, died=False) == 10.0


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
    cohort = simulate_cancer_cohort(PARAMS, 1.0, 300, seed=23)
    n, months = cohort.alive.shape
    for i in range(n):
        if cohort.alive[i, -1]:
            continue
        t_dead = int(np.argmin(cohort.alive[i]))  # first month not alive
        assert not cohort.alive[i, t_dead:].any()
        assert (cohort.tumor[i, t_dead:] == cohort.tumor[i, t_dead]).all()
        assert (cohort.toxicity[i, t_dead:] == cohort.toxicity[i, t_dead]).all()
        assert (cohort.dose_index[i, t_dead:] == -1).all()
        assert (cohort.rewards[i, t_dead:] == 0.0).all()


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
    # the scalar wrappers replay the vectorized rollout step by step, with the
    # same survival draws, and land on the same states and rewards bit for bit
    cohort = simulate_cancer_cohort(PARAMS, "uniform-random", 60, seed=37)
    death_u = stream(37, "train/death").uniform(size=(60, PARAMS.n_stages))
    for i in range(60):
        state = CancerState(tumor=cohort.tumor[i, 0], toxicity=cohort.toxicity[i, 0])
        for t in range(PARAMS.n_stages):
            if not cohort.alive[i, t]:
                break
            dose = cohort.action_space.label(cohort.dose_index[i, t])
            nxt, died = cancer_transition(PARAMS, state, dose, FixedUniform(death_u[i, t]))
            assert (nxt.tumor, nxt.toxicity) == (cohort.tumor[i, t + 1], cohort.toxicity[i, t + 1])
            assert died == (not cohort.alive[i, t + 1])
            assert cancer_reward(state, nxt, died) == cohort.rewards[i, t]
            state = nxt


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
