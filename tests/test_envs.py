import math

import numpy as np
import pytest

from nearq.core import validate
from nearq.envs import (
    CancerParams,
    ItrConfig,
    _reward_arrays,
    _step_arrays,
    simulate_cancer_cohort,
    simulate_itr,
    stream,
)

PARAMS = CancerParams()


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
