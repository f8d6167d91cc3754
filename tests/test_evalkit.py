import math

import numpy as np
import pytest

from nearq.core import StageRecord
from nearq.envs import CancerParams, ItrConfig, simulate_cancer_cohort, simulate_itr
from nearq.evalkit import (
    EvalResult,
    band_stats,
    blip_surface,
    constant_dose_baselines,
    epsilon_band_curve,
    estimated_blips,
    evaluate_policy,
)
from nearq.qlearn import backward_fit, greedy_policy
from nearq.regression import DesignSpec, InteractionLinearQ

from conftest import two_actions

PARAMS = CancerParams()
NO_DEATH = CancerParams(hazard_intercept=-math.inf)  # zero hazard: every patient survives


def _true_coef_model():
    coef = np.zeros(22)
    coef[0] = 1.0
    coef[1:4] = (2.0, 1.0, 0.5)
    coef[12:14] = (1.0, 1.0)
    return InteractionLinearQ(two_actions(), coef, 10)


def test_evaluate_policy_deterministic():
    a = evaluate_policy(PARAMS, 0.5, 200, seed=3)
    b = evaluate_policy(PARAMS, 0.5, 200, seed=3)
    assert a == b


def test_extreme_doses_trade_tumor_against_toxicity():
    high = simulate_cancer_cohort(NO_DEATH, 1.0, 400, seed=19, label="eval")
    low = simulate_cancer_cohort(NO_DEATH, 0.0, 400, seed=19, label="eval")
    assert high.alive.all() and low.alive.all()
    assert np.array_equal(high.tumor[:, 0], low.tumor[:, 0])  # shared initials
    assert high.tumor[:, 1].mean() < low.tumor[:, 1].mean()
    assert high.toxicity[:, 1].mean() > low.toxicity[:, 1].mean()


def test_constant_baselines_share_month_zero():
    results = constant_dose_baselines(PARAMS, 150, seed=5)
    assert len(results) == 11
    month0 = {r.mean_combined[0] for r in results}
    assert len(month0) == 1
    assert all(len(r.mean_combined) == PARAMS.n_stages + 1 for r in results)


def test_constant_dose_toxicity_ordering_at_late_months():
    # with no deaths, heavier constant dosing ends with strictly more
    # accumulated toxicity
    tox6 = []
    for dose in PARAMS.dose_grid:
        cohort = simulate_cancer_cohort(NO_DEATH, dose, 300, seed=19, label="eval")
        assert cohort.alive.all()
        tox6.append(cohort.toxicity[:, 6].mean())
    assert all(a < b for a, b in zip(tox6, tox6[1:]))


def test_mean_cum_reward_matches_raw_trajectories():
    res = evaluate_policy(PARAMS, 0.3, 120, seed=11, label="const-0.3")
    cohort = simulate_cancer_cohort(PARAMS, 0.3, 120, seed=11, label="eval")
    assert res.mean_cum_reward == pytest.approx(cohort.rewards.sum(axis=1).mean())
    combined = cohort.tumor + cohort.toxicity
    assert np.allclose(res.mean_combined, combined.mean(axis=0))


def test_band_curve_geometry():
    opt = evaluate_policy(PARAMS, 0.5, 100, seed=2, label="opt")
    band0 = epsilon_band_curve(opt, [], 0.0)
    assert band0.lo == band0.hi == opt.mean_combined
    small = epsilon_band_curve(opt, [], 0.1)
    large = epsilon_band_curve(opt, [], 0.9)
    assert all(l < h for l, h in zip(small.hi, large.hi))  # strictly wider band
    assert all(h >= l for l, h in zip(large.lo, large.hi))


def test_band_curve_rejects_mismatched_horizons():
    opt = evaluate_policy(PARAMS, 0.5, 50, seed=2, label="opt")
    stub = EvalResult("short", (1.0, 2.0), (0.0, 0.0), 0.0, 0.0)
    with pytest.raises(ValueError, match="months"):
        epsilon_band_curve(opt, [stub], 0.1)


def test_blip_surface_of_true_model_is_plane():
    model = _true_coef_model()
    grid = blip_surface(model, 21)
    assert grid.shape == (441, 3)
    assert np.allclose(grid[:, 2], 2.0 * (grid[:, 0] + grid[:, 1]), atol=1e-12)
    # zero contour along x0 + x1 = 0
    on_line = np.isclose(grid[:, 0] + grid[:, 1], 0.0, atol=1e-12)
    assert np.allclose(grid[on_line, 2], 0.0, atol=1e-12)
    # antisymmetry under negating both coordinates
    lookup = {(round(a, 6), round(b, 6)): v for a, b, v in grid}
    for (a, b), v in lookup.items():
        assert lookup[(round(-a, 6), round(-b, 6))] == pytest.approx(-v, abs=1e-12)


def test_blip_surface_requires_linear_model():
    from nearq.regression import fit

    rng = np.random.default_rng(0)
    model = fit(
        DesignSpec.per_action_kernel(),
        rng.normal(size=(10, 2)),
        rng.integers(0, 2, size=10),
        rng.normal(size=10),
        two_actions(),
    )
    with pytest.raises(ValueError, match="interaction-linear"):
        blip_surface(model, 5)


def test_band_stats_edges_and_monotonicity():
    test_set = simulate_itr(ItrConfig(2000, seed=200))
    model = _true_coef_model()
    zero = band_stats(model, test_set, 0.0)
    _, feats, _, _ = test_set.stage_rows(0)
    exact_zero = (estimated_blips(model, feats) == 0.0).mean()
    assert zero.band_fraction == pytest.approx(exact_zero)
    blips = np.abs(estimated_blips(model, feats))
    sat = band_stats(model, test_set, float(blips.max()))
    assert sat.band_fraction == 1.0
    assert sat.misclassified_in_band == sat.misclassified_total
    assert sat.accuracy_outside_band == 1.0
    fractions = [band_stats(model, test_set, e).band_fraction for e in (0.1, 0.5, 1.0)]
    assert fractions == sorted(fractions)


def test_band_stats_counts_are_consistent():
    train = simulate_itr(ItrConfig(800, seed=301))
    test = simulate_itr(ItrConfig(1000, seed=302))
    model = backward_fit(train, DesignSpec.interaction_linear()).models[0]
    st = band_stats(model, test, 0.5)
    assert st.misclassified_in_band <= st.misclassified_total
    assert 0.0 <= st.band_fraction <= 1.0
    assert 0.0 <= st.accuracy_outside_band <= 1.0
    assert st.n_test == 1000


def test_errors_concentrate_in_band_on_average():
    linear = DesignSpec.interaction_linear()
    overall, outside = [], []
    for s in range(20):
        train = simulate_itr(ItrConfig(500, seed=400 + s))
        test = simulate_itr(ItrConfig(1000, seed=9400 + s))
        model = backward_fit(train, linear).models[0]
        st = band_stats(model, test, 0.5)
        overall.append(1.0 - st.misclassified_total / st.n_test)
        outside.append(st.accuracy_outside_band)
    assert np.mean(outside) >= np.mean(overall)


def test_shared_initial_states_flag():
    shared_a = evaluate_policy(PARAMS, 0.2, 80, seed=6, label="a")
    shared_b = evaluate_policy(PARAMS, 0.8, 80, seed=6, label="b")
    assert shared_a.mean_combined[0] == shared_b.mean_combined[0]


def test_rollouts_build_no_stage_records(monkeypatch):
    train = simulate_cancer_cohort(PARAMS, "uniform-random", 80, seed=12).dataset
    policy = greedy_policy(backward_fit(train, DesignSpec.per_action_kernel()))

    def refuse(self):
        raise AssertionError("a rollout built a stage record")

    monkeypatch.setattr(StageRecord, "__post_init__", refuse)
    assert evaluate_policy(PARAMS, 0.4, 50, seed=13).label == "const-0.4"
    assert evaluate_policy(PARAMS, policy, 50, seed=13, label="opt").label == "opt"
    assert len(constant_dose_baselines(PARAMS, 50, seed=13)) == len(PARAMS.dose_grid)
    with pytest.raises(AssertionError, match="stage record"):
        simulate_cancer_cohort(PARAMS, 0.4, 5, seed=13).dataset.patients
