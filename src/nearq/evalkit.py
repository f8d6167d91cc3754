"""Policy evaluation and figure-data computation.

Policies are compared by fresh simulation, never by reweighting the training
data. Within one comparison run all policies see identical initial states and
identical monthly survival draws (common random numbers), so two policies that
make the same decisions produce the same trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import OfflineDataset
from .envs import CancerCohort, CancerParams, simulate_cancer_cohort
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


def _aggregate(label: str, cohort: CancerCohort) -> EvalResult:
    combined = cohort.tumor + cohort.toxicity
    n = combined.shape[0]
    mean = combined.mean(axis=0)
    sd = combined.std(axis=0, ddof=1) if n > 1 else np.zeros(combined.shape[1])
    totals = cohort.rewards.sum(axis=1)
    total_sd = totals.std(ddof=1) if n > 1 else 0.0
    return EvalResult(
        label=label,
        mean_combined=tuple(float(v) for v in mean),
        stderr_combined=tuple(float(v) for v in sd / np.sqrt(n)),
        mean_cum_reward=float(totals.mean()),
        stderr_cum_reward=float(total_sd / np.sqrt(n)),
    )


def _default_label(policy) -> str:
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return f"const-{float(policy):.1f}"
    if isinstance(policy, str):
        return policy
    return "policy"


def evaluate_policy(
    params: CancerParams,
    policy,
    n_test: int,
    seed: int,
    *,
    label: str | None = None,
) -> EvalResult:
    """Simulate a fresh cohort under ``policy`` and aggregate it.

    The rollout builds state, dose and reward arrays only; no dataset or
    per-stage record is made, since the aggregates read nothing else. The
    simulation streams are keyed by the seed alone, so every policy evaluated
    with the same seed gets the same initial states and survival draws.
    """
    label = label if label is not None else _default_label(policy)
    return _aggregate(label, simulate_cancer_cohort(params, policy, n_test, seed, label="eval"))


def constant_dose_baselines(params: CancerParams, n_test: int, seed: int) -> list[EvalResult]:
    """One shared-initial-state evaluation per dose on the grid (0.0 included)."""
    return [
        evaluate_policy(params, dose, n_test, seed, label=f"const-{dose:.1f}")
        for dose in params.dose_grid
    ]


@dataclass(frozen=True)
class BandCurve:
    """Tolerance band around an optimal curve plus overlay curves."""

    months: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    overlays: tuple[tuple[str, tuple[float, ...]], ...]


def epsilon_band_curve(
    opt_result: EvalResult, policy_results: list[EvalResult], epsilon: float
) -> BandCurve:
    """Per-month band [optimal, optimal + epsilon*|optimal|] with overlays."""
    horizon = len(opt_result.mean_combined)
    for res in policy_results:
        if len(res.mean_combined) != horizon:
            raise ValueError(
                f"curve {res.label!r} has {len(res.mean_combined)} months, expected {horizon}"
            )
    lo = opt_result.mean_combined
    hi = tuple(v + epsilon * abs(v) for v in lo)
    overlays = tuple((res.label, res.mean_combined) for res in policy_results)
    return BandCurve(tuple(range(horizon)), lo, hi, overlays)


def blip_surface(model: FittedQ, grid_resolution: int) -> np.ndarray:
    """(r*r, 3) rows (x0, x1, blip) over an even grid on [-1, 1] squared.

    The blip is the predicted value gap between the high and low action; the
    remaining covariates are held at zero.
    """
    if not isinstance(model, InteractionLinearQ):
        raise ValueError("blip surface is defined for the interaction-linear backend")
    d = model.n_features
    if d < 2:
        raise ValueError("blip surface needs at least two covariates")
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
    """Misclassification of the greedy rule against sign(x0 + x1).

    A point is in the band when its estimated blip magnitude is at most
    ``epsilon``; accuracy outside the band is 1.0 when the band covers
    everything.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    _, feats, _, _ = test_set.stage_rows(0)
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
    lines = ["policy_label,month,mean_combined,stderr_combined,mean_cum_reward"]
    for res in results:
        for month, (m, s) in enumerate(zip(res.mean_combined, res.stderr_combined)):
            lines.append(f"{res.label},{month},{m!r},{s!r},{res.mean_cum_reward!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_band_csv(band: BandCurve, path: str | Path) -> None:
    lines = ["month,band_lo,band_hi"]
    for month, lo, hi in zip(band.months, band.lo, band.hi):
        lines.append(f"{month},{lo!r},{hi!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_blip_csv(grid: np.ndarray, path: str | Path) -> None:
    lines = ["x0,x1,blip"]
    for x0, x1, blip in np.asarray(grid).tolist():
        lines.append(f"{x0!r},{x1!r},{blip!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_band_stats_csv(stats: list[BandStats], path: str | Path) -> None:
    lines = [
        "epsilon,n_test,misclassified_total,misclassified_in_band,band_fraction,accuracy_outside_band"
    ]
    for s in stats:
        lines.append(
            f"{s.epsilon!r},{s.n_test},{s.misclassified_total},{s.misclassified_in_band},"
            f"{s.band_fraction!r},{s.accuracy_outside_band!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
