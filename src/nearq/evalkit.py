"""Policy evaluation and figure-data computation.

Policies are compared by fresh simulation, never by reweighting the training
data. Within one comparison run all policies see identical initial states and
identical monthly survival draws (common random numbers), so two policies that
make the same decisions produce the same trajectories.

Policies are routed by kind. :func:`evaluate_policies` rolls out every greedy
policy, a lone one too, in one lockstep (:func:`nearq.envs.simulate_cancer_cohorts`):
a state that several reach along one patient and dose history is stepped once,
and each stage decides them in one :func:`nearq.regression.greedy_actions` call
(bitwise each model's argmax, row independent). Any other policy is aggregated
from the cohort :func:`nearq.envs.simulate_cancer_cohort` rolls out for it alone.
Every result is bitwise the aggregate of the policy's one-policy cohort.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import OfflineDataset, write_csv
from .envs import CancerParams, check_policy, simulate_cancer_cohort, simulate_cancer_cohorts
from .qlearn import GreedyPolicy
from .regression import FittedQ, InteractionLinearQ


@dataclass(frozen=True)
class EvalResult:
    """Aggregates of one policy rollout.

    ``mean_combined[t]`` is the cohort mean of tumor plus toxicity at month t
    (dead patients keep their death-month state); cumulative reward statistics
    come from per-patient totals.
    """

    label: str
    mean_combined: tuple[float, ...]
    stderr_combined: tuple[float, ...]
    mean_cum_reward: float
    stderr_cum_reward: float


def _aggregate(label: str, combined: np.ndarray, totals: np.ndarray) -> EvalResult:
    """Result from per-patient tumor plus toxicity paths (n, months) and reward totals (n,), which
    are whole numbers, so exact in any summation order."""
    n = combined.shape[0]
    mean = combined.mean(axis=0, keepdims=True)  # the mean std would compute, computed once
    sd = combined.std(axis=0, ddof=1, mean=mean) if n > 1 else np.zeros(combined.shape[1])
    mean = mean[0]
    total_sd = totals.std(ddof=1) if n > 1 else 0.0
    return EvalResult(
        label=label,
        mean_combined=tuple(float(v) for v in mean),
        stderr_combined=tuple(float(v) for v in sd / np.sqrt(n)),
        mean_cum_reward=float(totals.mean()),
        stderr_cum_reward=float(total_sd / np.sqrt(n)),
    )


def evaluate_policy(
    params: CancerParams,
    policy,
    n_test: int,
    seed: int,
    *,
    label: str,
) -> EvalResult:
    """Simulate a fresh cohort under ``policy`` and aggregate it: the one-policy :func:`evaluate_policies`."""
    return evaluate_policies(params, [policy], n_test, seed, [label])[0]


def evaluate_policies(params: CancerParams, policies, n_test: int, seed: int, labels) -> list[EvalResult]:
    """One fresh cohort rolled out under every policy; one result per policy, in the given order.

    Policies are routed by kind alone: every :class:`~nearq.qlearn.GreedyPolicy`
    shares one lockstep rollout, and every other policy is rolled out alone, into
    the cohort :func:`~nearq.envs.simulate_cancer_cohort` builds. The streams are
    keyed by the seed alone, so every policy evaluated with a seed gets the same
    initial states and survival draws, and each result equals the policy's
    one-policy evaluation bit for bit. Labels must be unique, one per policy.
    Every policy is checked before any rollout: one that cannot be rolled out
    (an unsupported spec, an off-grid dose, a greedy policy short of a stage
    model) raises ``ValueError`` naming its label.
    """
    policies, labels = list(policies), list(labels)
    if len(labels) != len(policies):
        raise ValueError(f"{len(labels)} labels for {len(policies)} policies")
    repeated = sorted({label for i, label in enumerate(labels) if label in labels[:i]})
    if repeated:
        raise ValueError(f"duplicate policy labels: {', '.join(map(repr, repeated))}")
    for policy, label in zip(policies, labels):  # a bad policy is refused, named, before any rollout
        check_policy(params, policy, label)
    greedy = [j for j, policy in enumerate(policies) if isinstance(policy, GreedyPolicy)]
    results = {}
    if greedy:
        together = _evaluate_lockstep(params, [policies[j] for j in greedy], n_test, seed, [labels[j] for j in greedy])
        results = dict(zip(greedy, together))
    return [results[j] if j in results else _evaluate_alone(params, policies[j], n_test, seed, labels[j])
            for j in range(len(policies))]


def _evaluate_lockstep(params: CancerParams, policies: list, n_test: int, seed: int, labels: list) -> list[EvalResult]:
    """The greedy policies' results from one :func:`~nearq.envs.simulate_cancer_cohorts` rollout,
    each aggregated from the per-class sums along its paths and the totals at its final classes."""
    rollout = simulate_cancer_cohorts(params, policies, n_test, seed, label="eval", names=labels)
    combined = rollout.states[:, 0] + rollout.states[:, 1]  # per class, all policies
    return [_aggregate(label, combined[rollout.paths(j)], rollout.totals[rollout.final[j]])
            for j, label in enumerate(labels)]


def _evaluate_alone(params: CancerParams, policy, n_test: int, seed: int, label: str) -> EvalResult:
    """One policy's result from its :func:`~nearq.envs.simulate_cancer_cohort` cohort, which is let
    go of once its tumor plus toxicity paths and reward totals are read."""
    cohort = simulate_cancer_cohort(params, policy, n_test, seed, label="eval", name=label)
    # one gemv rather than a reduction per patient's short row: whole-number rewards sum exactly in any order
    combined, totals = cohort.tumor + cohort.toxicity, cohort.rewards @ np.ones(params.n_stages)
    del cohort
    return _aggregate(label, combined, totals)


def constant_dose_baselines(params: CancerParams, n_test: int, seed: int) -> list[EvalResult]:
    """One shared-initial-state evaluation per dose on the grid (0.0 included), labelled
    ``const-`` and the dose's repr, so distinct doses never share a label."""
    return evaluate_policies(params, params.dose_grid, n_test, seed, [f"const-{dose!r}" for dose in params.dose_grid])


@dataclass(frozen=True)
class BandCurve:
    """Tolerance band around an optimal curve."""

    months: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def epsilon_band_curve(
    opt_result: EvalResult, policy_results: list[EvalResult], epsilon: float
) -> BandCurve:
    """Per-month band [optimal, optimal + epsilon*|optimal|]; epsilon must be nonnegative, and every
    curve of ``policy_results`` must span the optimal curve's months."""
    if not epsilon >= 0:  # NaN too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    horizon = len(opt_result.mean_combined)
    for res in policy_results:
        if len(res.mean_combined) != horizon:
            raise ValueError(
                f"curve {res.label!r} has {len(res.mean_combined)} months, expected {horizon}"
            )
    lo = opt_result.mean_combined
    hi = tuple(v + epsilon * abs(v) for v in lo)
    return BandCurve(tuple(range(horizon)), lo, hi)


def blip_surface(model: FittedQ, grid_resolution: int) -> np.ndarray:
    """(r*r, 3) rows (x0, x1, blip) over an even grid on [-1, 1] squared.

    The blip is the predicted value gap between the high and low action; the
    remaining covariates are held at zero.
    """
    if not isinstance(model, InteractionLinearQ):
        raise ValueError("blip surface is defined for the interaction-linear backend")
    d = model.n_features
    if d < 2:
        raise ValueError(f"blip surface needs at least two covariates, got {d}")
    axis = np.linspace(-1.0, 1.0, grid_resolution)
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    x = np.zeros((grid_resolution * grid_resolution, d))
    x[:, 0] = g0.ravel()
    x[:, 1] = g1.ravel()
    return np.column_stack([x[:, 0], x[:, 1], estimated_blips(model, x)])


@dataclass(frozen=True)
class BandStats:
    """How misclassification relates to the small-blip band |blip| <= epsilon."""

    epsilon: float
    n_test: int
    misclassified_total: int
    misclassified_in_band: int
    band_fraction: float
    accuracy_outside_band: float


def estimated_blips(model: FittedQ, features: np.ndarray) -> np.ndarray:
    """Predicted value of the highest action minus that of the lowest, per row."""
    labels = np.asarray(model.action_space.values)
    hi = int(np.argmax(labels))
    lo = int(np.argmin(labels))
    return model.predict_matrix(features, hi) - model.predict_matrix(features, lo)


def band_stats(model: FittedQ, test_set: OfflineDataset, epsilon: float) -> BandStats:
    """Misclassification of the greedy rule against sign(x0 + x1), over at least two covariates.

    A point is in the band when its estimated blip magnitude is at most
    ``epsilon``; accuracy outside the band is 1.0 when the band covers
    everything.
    """
    if not epsilon >= 0:  # NaN too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    _, feats, _, _ = test_set.stage_rows(0)
    if feats.shape[1] < 2:
        raise ValueError(f"band stats need at least two covariates, got {feats.shape[1]}")
    blip_hat = estimated_blips(model, feats)
    predicted = np.where(blip_hat > 0, 1.0, -1.0)
    truth = np.where(feats[:, 0] + feats[:, 1] > 0, 1.0, -1.0)
    wrong = predicted != truth
    in_band = np.abs(blip_hat) <= epsilon
    outside = ~in_band
    n = feats.shape[0]
    if outside.any():
        accuracy_outside = float(1.0 - wrong[outside].mean())
    else:
        accuracy_outside = 1.0
    return BandStats(
        epsilon=float(epsilon),
        n_test=n,
        misclassified_total=int(wrong.sum()),
        misclassified_in_band=int((wrong & in_band).sum()),
        band_fraction=float(in_band.mean()),
        accuracy_outside_band=accuracy_outside,
    )


# --- CSV emitters --------------------------------------------------------------


def save_results_csv(results: list[EvalResult], path: str | Path) -> None:
    months = [len(res.mean_combined) for res in results]
    write_csv(
        path, "policy_label,month,mean_combined,stderr_combined,mean_cum_reward",
        np.repeat([res.label for res in results], months), np.array([t for k in months for t in range(k)]),
        np.array([v for res in results for v in res.mean_combined], dtype=float),
        np.array([v for res in results for v in res.stderr_combined], dtype=float),
        np.repeat(np.array([res.mean_cum_reward for res in results], dtype=float), months),
    )


def save_band_csv(band: BandCurve, path: str | Path) -> None:
    write_csv(path, "month,band_lo,band_hi", np.array(band.months, dtype=int),
              np.array(band.lo, dtype=float), np.array(band.hi, dtype=float))


def save_blip_csv(grid: np.ndarray, path: str | Path) -> None:
    write_csv(path, "x0,x1,blip", *np.asarray(grid, dtype=float).T)


def save_band_stats_csv(stats: list[BandStats], path: str | Path) -> None:
    fields = ("epsilon", "n_test", "misclassified_total", "misclassified_in_band", "band_fraction",
              "accuracy_outside_band")
    write_csv(path, ",".join(fields), *(np.array([getattr(s, name) for s in stats]) for name in fields))
