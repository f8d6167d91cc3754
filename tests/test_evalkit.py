import math
import re
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearq.envs
import nearq.evalkit
import nearq.qlearn
from nearq.core import OfflineDataset, StageRecord
from nearq.envs import CancerParams, ItrConfig, simulate_cancer_cohort, simulate_cancer_cohorts, simulate_itr
from nearq.evalkit import (
    EvalResult,
    _aggregate,
    band_stats,
    blip_surface,
    constant_dose_baselines,
    epsilon_band_curve,
    estimated_blips,
    evaluate_policies,
    evaluate_policy,
)
from nearq.nearequiv import EpsilonConfig, fit_tolerances, policy_set
from nearq.qlearn import GreedyPolicy, backward_fit, greedy_policy
from nearq.regression import DesignSpec, InteractionLinearQ

from conftest import dose_schedule_policy, two_actions

PARAMS = CancerParams()
NO_DEATH = CancerParams(hazard_intercept=-math.inf)  # zero hazard: every patient survives


def _true_coef_model():
    coef = np.zeros(22)
    coef[0] = 1.0
    coef[1:4] = (2.0, 1.0, 0.5)
    coef[12:14] = (1.0, 1.0)
    return InteractionLinearQ(two_actions(), coef, 10)


def test_evaluate_policy_deterministic():
    a = evaluate_policy(PARAMS, 0.5, 200, seed=3, label="const-0.5")
    b = evaluate_policy(PARAMS, 0.5, 200, seed=3, label="const-0.5")
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


def test_constant_dose_labels_name_each_dose_exactly():
    # a one-decimal label would name both 0.05 and 0.1 "const-0.1"
    fine = CancerParams(dose_grid=(0.05, 0.1, 0.5))
    assert [r.label for r in constant_dose_baselines(fine, 20, seed=3)] == ["const-0.05", "const-0.1", "const-0.5"]
    assert [r.label for r in constant_dose_baselines(PARAMS, 20, seed=3)] == [f"const-{k / 10}" for k in range(11)]


def test_one_evaluation_seed_draws_its_streams_once(monkeypatch):
    drawn = []
    keyed = nearq.envs.stream

    def counted(seed, label):
        drawn.append(label)
        return keyed(seed, label)

    nearq.envs._cohort_draws.cache_clear()
    monkeypatch.setattr(nearq.envs, "stream", counted)
    constant_dose_baselines(PARAMS, 40, seed=21)
    evaluate_policies(PARAMS, [0.3, "uniform-random"], 40, 21, ["a", "b"])
    assert drawn == ["eval/init", "eval/death", "eval/dose"]
    init, death_u = nearq.envs._cohort_draws(21, "eval", 40, PARAMS.n_stages, PARAMS.init_low, PARAMS.init_high)
    assert not init.flags.writeable and not death_u.flags.writeable


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


def test_one_policy_evaluation_aggregates_its_cohort():
    # a policy evaluated alone is rolled out into the full cohort simulate_cancer_cohort builds
    # under it, so its result is bitwise that cohort's aggregate
    late = lambda t, feats: np.full(feats.shape[0], 9 if t < 3 else 1)
    for policy in (0.0, 0.7, np.int64(1), "uniform-random", late):
        cohort = simulate_cancer_cohort(PARAMS, policy, 150, seed=11, label="eval")
        assert not cohort.alive[:, -1].all()
        want = _aggregate("p", cohort.tumor + cohort.toxicity, cohort.rewards.sum(axis=1))
        assert evaluate_policy(PARAMS, policy, 150, seed=11, label="p") == want


def test_constant_dose_baselines_peak_memory_is_bounded():
    # 2800 patients: the 11 doses, each rolled out alone into its full cohort, peak at 0.97 MB
    # through the baselines and through evaluate_policies alike; a lockstep of 11 greedy
    # stand-ins for the doses holds every dose's classes at once, 8.63 MB
    labels = [repr(d) for d in PARAMS.dose_grid]
    stand_ins = [dose_schedule_policy(PARAMS.action_space, [dose] * PARAMS.n_stages) for dose in PARAMS.dose_grid]
    constant_dose_baselines(PARAMS, 2800, 3)
    peaks = []
    for run in (lambda: constant_dose_baselines(PARAMS, 2800, 3),
                lambda: evaluate_policies(PARAMS, PARAMS.dose_grid, 2800, 3, labels),
                lambda: simulate_cancer_cohorts(PARAMS, stand_ins, 2800, 3, label="eval")):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    baselines, evaluated, lockstep = peaks
    assert baselines < 1.5 and evaluated < 1.5 < lockstep


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


@pytest.mark.parametrize("epsilon", [float("nan"), -0.1])
def test_band_helpers_reject_a_nan_or_negative_epsilon(epsilon):
    named = re.escape(f"epsilon must be nonnegative, got {epsilon!r}")
    with pytest.raises(ValueError, match=named):
        band_stats(_true_coef_model(), simulate_itr(ItrConfig(20, seed=5)), epsilon)
    opt = EvalResult("opt", (2.0, 1.5), (0.1, 0.1), -5.0, 0.5)
    with pytest.raises(ValueError, match=named):
        epsilon_band_curve(opt, [opt], epsilon)


@pytest.mark.parametrize("n_features", [0, 1])
def test_band_helpers_refuse_fewer_than_two_covariates(n_features):
    # the truth sign(x0 + x1) and the surface's (x0, x1) grid need two covariates; fewer is
    # refused by count, not met with an IndexError
    rng = np.random.default_rng(3)
    x, a, y = rng.uniform(-1.0, 1.0, size=(30, n_features)), rng.integers(0, 2, size=30), rng.normal(size=30)
    model = InteractionLinearQ(two_actions(), np.zeros(2 * n_features + 2), n_features)
    test_set = OfflineDataset.from_rows(np.arange(30), np.zeros(30, dtype=int), x, a, y, 0,
                                        (two_actions(),), (n_features,))
    with pytest.raises(ValueError, match=f"band stats need at least two covariates, got {n_features}"):
        band_stats(model, test_set, 0.5)
    with pytest.raises(ValueError, match=f"blip surface needs at least two covariates, got {n_features}"):
        blip_surface(model, 5)


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
    assert evaluate_policy(PARAMS, 0.4, 50, seed=13, label="const-0.4").label == "const-0.4"
    assert evaluate_policy(PARAMS, policy, 50, seed=13, label="opt").label == "opt"
    assert len(constant_dose_baselines(PARAMS, 50, seed=13)) == len(PARAMS.dose_grid)
    with pytest.raises(AssertionError, match="stage record"):
        simulate_cancer_cohort(PARAMS, 0.4, 5, seed=13).dataset.patients


# --- lockstep evaluation ---------------------------------------------------------

CANCER_SPEC = DesignSpec.per_action_kernel(kernel_bandwidth=2.0, ridge=0.1)
LINEAR_SPEC = DesignSpec.interaction_linear(ridge=0.1)


def _fitted_family(n_train, seed, spec):
    """opt plus every rank at tolerances 0.1 and 0.9, all from one fit, as ``nearq cancer`` builds them."""
    train = simulate_cancer_cohort(PARAMS, "uniform-random", n_train, seed, label="train").dataset
    stack, ne_stacks = fit_tolerances(train, spec, (EpsilonConfig(0.1), EpsilonConfig(0.9)))
    policies, labels = [greedy_policy(stack)], ["opt"]
    for eps, ne_stack in zip((0.1, 0.9), ne_stacks):
        for j, policy in enumerate(policy_set(ne_stack), start=1):
            policies.append(policy)
            labels.append(f"eps{eps}-rank{j}")
    return policies, labels


@cache
def _small_family():
    policies, labels = _fitted_family(60, 2, CANCER_SPEC)
    return tuple(zip(labels, policies))[:4]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_test=st.integers(1, 60), hazard=st.sampled_from([-math.inf, -4.0, -1.0, 6.0]),
       greedy=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True), order=st.permutations(range(9)))
@example(seed=7, n_test=1, hazard=6.0, greedy=[0], order=list(range(9)))  # one patient, dead after stage 0
def test_evaluation_is_the_aggregate_of_each_policys_cohort_property(seed, n_test, hazard, greedy, order):
    # constants, uniform-random, a callable and one greedy policy (rolled out alone) or two or more
    # (sharing a lockstep), in any order: each result is bitwise the aggregate of the cohort
    # simulate_cancer_cohort gives the policy alone
    params = replace(PARAMS, hazard_intercept=hazard)
    late = lambda t, feats: np.full(feats.shape[0], 9 if t < 3 else 1)
    items = [("const-0.0", 0.0), ("const-0.7", 0.7), ("int-1", np.int64(1)), ("random", "uniform-random"),
             ("late", late)] + [_small_family()[j] for j in greedy]
    named = dict(items[i] for i in order if i < len(items))
    results = evaluate_policies(params, named.values(), n_test, seed, named)
    for (label, policy), result in zip(named.items(), results):
        cohort = simulate_cancer_cohort(params, policy, n_test, seed, label="eval")
        if hazard == 6.0:  # everyone dies at stage 0, so every later stage is empty
            assert not cohort.alive[:, 1:].any()
        want = _aggregate(label, cohort.tumor + cohort.toxicity, cohort.rewards.sum(axis=1))
        assert repr(result) == repr(want), label


@pytest.mark.parametrize("n_train,n_test", [(60, 40), (300, 400)])
@pytest.mark.parametrize("seed", [2, 8])
def test_lockstep_evaluation_equals_one_policy_rollouts(n_train, n_test, seed):
    for spec in (CANCER_SPEC, LINEAR_SPEC):
        policies, labels = _fitted_family(n_train, seed, spec)
        together = evaluate_policies(PARAMS, policies, n_test, seed + 1, labels)
        assert [r.label for r in together] == labels
        assert len({r.mean_combined for r in together}) > 1  # the family's decisions differ somewhere
        rollout = simulate_cancer_cohorts(PARAMS, policies, n_test, seed + 1, label="eval")
        for j, (policy, label, result) in enumerate(zip(policies, labels, together)):
            path = rollout.paths(j)
            assert result == evaluate_policy(PARAMS, policy, n_test, seed + 1, label=label)
            # the policy's models on its own rows alone, without the batched argmax the rollout uses
            alone = simulate_cancer_cohort(
                PARAMS, lambda t, f, p=policy: np.argmax(p.models[t].predict_all_matrix(f), axis=1),
                n_test, seed + 1, label="eval",
            )
            pairs = {"tumor": (rollout.states[path, 0], alone.tumor),
                     "toxicity": (rollout.states[path, 1], alone.toxicity),
                     "alive": (rollout.alive[path], alone.alive),
                     "totals": (rollout.totals[rollout.final[j]], alone.rewards.sum(axis=1))}
            for name, (got, want) in pairs.items():
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (spec.mode, label, name)


@pytest.mark.parametrize("policies,labels,match", [
    ([0.2, 0.4], ["a"], "1 labels for 2 policies"),
    ([0.2, 0.4, 0.6, 0.8], ["a", "b", "a", "b"], "duplicate policy labels: 'a', 'b'"),
], ids=["label-count", "duplicate-labels"])
def test_evaluate_policies_rejects_before_any_rollout(monkeypatch, policies, labels, match):
    def refuse(*args, **kwargs):
        raise AssertionError("a rollout started")

    monkeypatch.setattr(nearq.envs, "stream", refuse)
    monkeypatch.setattr(nearq.envs, "_step_arrays", refuse)
    with pytest.raises(ValueError, match=match):
        evaluate_policies(PARAMS, policies, 30, 1, labels)


@pytest.mark.parametrize("bad,match", [
    ("telepathy", r"policy 'bad': unsupported policy spec 'telepathy'"),
    (0.25, r"policy 'bad': action value 0.25 is not on the grid"),
], ids=["unsupported-spec", "off-grid-dose"])
def test_evaluate_policies_refuses_a_bad_policy_before_the_lockstep(monkeypatch, bad, match):
    # a mixed list: the bad policy is refused, named, before the greedy policies' lockstep runs
    policies, labels = _fitted_family(60, 2, CANCER_SPEC)
    locksteps = []
    real = nearq.evalkit.simulate_cancer_cohorts

    def counted(*args, **kwargs):
        locksteps.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nearq.evalkit, "simulate_cancer_cohorts", counted)
    with pytest.raises(ValueError, match=match):
        evaluate_policies(PARAMS, [policies[0], 0.3, policies[1], bad], 30, 1, [labels[0], "c", labels[1], "bad"])
    assert locksteps == []


def test_evaluate_policies_routes_by_kind_and_keeps_the_callers_order(monkeypatch):
    # every greedy policy shares the lockstep; every other policy is rolled out alone, and each
    # result is bitwise its one-policy evaluation
    family, _ = _fitted_family(60, 2, CANCER_SPEC)
    other_fit, _ = _fitted_family(60, 8, LINEAR_SPEC)
    late = lambda t, feats: np.full(feats.shape[0], 9 if t < 3 else 1)
    named = {"const-0.3": 0.3, "opt": family[0], "int-1": np.int64(1), "random-a": "uniform-random",
             "linear-opt": other_fit[0], "late": late, "rank2": family[1], "random-b": "uniform-random",
             "rank3": family[2]}
    locksteps = []
    real = nearq.evalkit.simulate_cancer_cohorts

    def counted(params, policies, *args, **kwargs):
        locksteps.append(list(policies))
        return real(params, policies, *args, **kwargs)

    monkeypatch.setattr(nearq.evalkit, "simulate_cancer_cohorts", counted)
    results = evaluate_policies(PARAMS, named.values(), 120, 5, named)
    assert [r.label for r in results] == list(named)
    assert len(locksteps) == 1
    assert [id(p) for p in locksteps[0]] == [id(p) for p in named.values() if isinstance(p, GreedyPolicy)]
    for (label, policy), result in zip(named.items(), results):
        assert result == evaluate_policy(PARAMS, policy, 120, 5, label=label)
    by_label = dict(zip(named, results))
    assert replace(by_label["random-a"], label="random-b") == by_label["random-b"]
    # each evaluate_policy above was one policy: a greedy one, a lone lockstep of its own
    assert len(locksteps) == 5


def test_running_reward_totals_equal_row_sums_exactly():
    # every stage reward is -60 or 0, plus +-5, plus 15 or +-5 (0.0 after death), so each
    # patient's total is a whole number: the running total a rollout keeps, stage by stage, is
    # bitwise the row sum, and the aggregate of either is the same
    values = sorted({s + x + m for s in (-60.0, 0.0) for x in (-5.0, 5.0) for m in (-5.0, 5.0, 15.0)} | {0.0})
    rng = np.random.default_rng(20)
    for n, n_stages in ((1, 1), (2, 6), (2800, 6), (500, 11)):
        rewards = rng.choice(values, size=(n, n_stages))
        combined = rng.uniform(0.0, 4.0, size=(n, n_stages + 1))
        running = np.zeros(n)
        for t in range(n_stages):
            running += rewards[:, t]
        row_sums = rewards.sum(axis=1)
        assert running.tobytes() == row_sums.tobytes()
        result = _aggregate("p", combined, running)
        assert result.mean_cum_reward == float(row_sums.mean())
        assert result.stderr_cum_reward == (float(row_sums.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)


def test_invalid_actions_name_the_policy_and_stage():
    def late(t, feats):
        return np.full(feats.shape[0], 99 if t == 2 else 0)

    with pytest.raises(ValueError, match=r"policy 'late' returned invalid action indices at stage 2"):
        evaluate_policies(NO_DEATH, [0.5, late], 30, 1, ["const-0.5", "late"])
    short = lambda t, feats: np.zeros(feats.shape[0] - 1, dtype=int)
    with pytest.raises(ValueError, match=r"policy 'short' returned invalid action indices at stage 0"):
        evaluate_policy(PARAMS, short, 30, 1, label="short")


def test_greedy_policy_without_a_stage_model_is_named_before_any_kernel_work(monkeypatch):
    policies, labels = _fitted_family(60, 2, CANCER_SPEC)
    truncated = GreedyPolicy(policies[1].models[:3])  # stages 0..2 of a 6-stage rollout

    def refuse(*args, **kwargs):
        raise AssertionError("a greedy decision started")

    monkeypatch.setattr(nearq.envs, "greedy_actions", refuse)
    monkeypatch.setattr(nearq.qlearn, "greedy_actions", refuse)
    # the lockstep's decisions go through the refusal, so the check below is made before any
    with pytest.raises(AssertionError, match="a greedy decision started"):
        evaluate_policies(PARAMS, policies[:2], 30, 1, labels[:2])
    with pytest.raises(ValueError, match=r"policy 'eps0.1-short' has no model for stage 3"):
        evaluate_policies(PARAMS, [policies[0], truncated], 30, 1, ["opt", "eps0.1-short"])


def test_evaluation_peak_memory_is_bounded():
    # nearq cancer 500 train / 2800 test, seed 2: opt and ranks 2..m of the four default
    # tolerances (22 policies), evaluated on eval seed 3. The peak falls in the batched argmax:
    # 3.10 MB with the class ids and live-pair indices the rollout needs held through it, 3.59 MB
    # when each live pair's class and key arrays are held too, 3.44 MB when every dead class was
    # carried forward each month. Holding every policy's cohort: 15 MB.
    train = simulate_cancer_cohort(PARAMS, "uniform-random", 500, 2, label="train").dataset
    stack, ne_stacks = fit_tolerances(train, CANCER_SPEC, tuple(EpsilonConfig(e) for e in (0.1, 0.3, 0.5, 0.9)))
    named = {"opt": greedy_policy(stack)}
    for eps, ne_stack in zip((0.1, 0.3, 0.5, 0.9), ne_stacks):
        for j, policy in enumerate(policy_set(ne_stack)[1:], start=2):
            named[f"eps{eps}-rank{j}"] = policy
    evaluate_policies(PARAMS, named.values(), 2800, 3, named)
    tracemalloc.start()
    try:
        evaluate_policies(PARAMS, named.values(), 2800, 3, named)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert len(named) == 22
    assert peak_mb < 3.55
