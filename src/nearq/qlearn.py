"""Backward Q-learning over offline trajectories.

The final-stage model regresses the stage-T reward on stage-T features and
action. Earlier stages regress the pseudo-outcome, the observed stage reward
plus the best predicted value at the next stage, fitted in order T, T-1, .., 0.
Greedy policies pick the argmax action, lowest index on exact ties.

Patients whose trajectory ended before a stage contribute nothing to that
stage's fit. A patient whose trajectory ends exactly at stage t has no future
value to add, so their pseudo-outcome is the observed reward alone.

:func:`fit_chains` is the one backward loop: it carries m value columns from
the final stage down to stage 0, fitting the m stage-t models together.
Classical Q-learning is its column 0: :func:`backward_fit` is
:func:`nearq.nearequiv.fit_tolerances` with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DatasetError, OfflineDataset
from .regression import DesignSpec, FittedQ, fit, fit_columns, max_over_actions


class StageFitError(RuntimeError):
    """A stage failed to fit; the underlying error is the ``__cause__``."""

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"regression failed at stage {stage}")


@dataclass(frozen=True)
class QStack:
    """One fitted model per stage 0..T."""

    models: tuple[FittedQ, ...]
    horizon: int
    action_spaces: tuple

    def __post_init__(self):
        if len(self.models) != self.horizon + 1:
            raise ValueError("need exactly one model per stage 0..horizon")

    @property
    def provenance(self) -> tuple[dict, ...]:
        """Per stage: the targets ("reward" or "pseudo-outcome") and the stage supplying them."""
        return tuple(
            {"stage": t, "targets": "pseudo-outcome", "source_stage": t + 1}
            for t in range(self.horizon)
        ) + ({"stage": self.horizon, "targets": "reward", "source_stage": None},)


class GreedyPolicy:
    """Stagewise greedy rules over a sequence of fitted models, one per stage."""

    def __init__(self, models: tuple[FittedQ, ...]):
        self.models = tuple(models)

    @property
    def horizon(self) -> int:
        return len(self.models) - 1

    def decide(self, t: int, features: np.ndarray) -> int:
        """Greedy action index at stage t; lowest index wins exact ties."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon}")
        return int(np.argmax(self.models[t].predict_all(features)))

    def __call__(self, t: int, features: np.ndarray) -> np.ndarray:
        """Greedy action indices at stage t for each row of ``features``."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon}")
        return np.argmax(self.models[t].predict_all_matrix(features), axis=1)


def fit_final_stage(dataset: OfflineDataset, spec: DesignSpec) -> FittedQ:
    """Fit the stage-T model on patients that reached the final stage."""
    t_final = dataset.horizon
    idx, feats, actions, rewards = dataset.stage_rows(t_final)
    if idx.size == 0:
        raise DatasetError(f"empty final stage: no patient reaches stage {t_final}")
    return fit(spec, feats, actions, rewards, dataset.action_spaces[t_final])


def stage_targets(dataset: OfflineDataset, t: int, future: np.ndarray) -> np.ndarray:
    """(N, m) stage-t targets: the stage-t reward plus each column of ``future``.

    ``future`` holds m values per stage-(t+1) row, aligned with
    ``dataset.stage_rows(t + 1)``. Rows are NaN for patients absent from stage
    t; patients whose trajectory ends at stage t get their reward alone.
    """
    out = np.full((dataset.n_patients, future.shape[1]), np.nan)
    idx_t, _, _, rewards_t = dataset.stage_rows(t)
    out[idx_t, :] = rewards_t[:, None]
    out[dataset.stage_rows(t + 1)[0], :] += future
    return out


def fit_chains(
    dataset: OfflineDataset, spec: DesignSpec, future: np.ndarray
) -> tuple[tuple[FittedQ, ...], ...]:
    """Fit stages T-1 .. 0 backward, one regression chain per column of ``future``.

    ``future`` is the (n_T, m) matrix of final-stage values at the stage-T
    rows. Returns ``stages[t]``, the m stage-t models; column j's stage-t
    targets add the best value of its stage-(t+1) model.
    """
    stages: list = [None] * dataset.horizon
    for t in range(dataset.horizon - 1, -1, -1):
        targets = stage_targets(dataset, t, future)
        idx, feats, actions, _ = dataset.stage_rows(t)
        try:
            stages[t] = fit_columns(spec, feats, actions, targets[idx], dataset.action_spaces[t])
        except Exception as err:
            raise StageFitError(t) from err
        if t:
            future = max_over_actions(stages[t], feats)
    return tuple(stages)


def backward_fit(dataset: OfflineDataset, spec: DesignSpec) -> QStack:
    """Fit all stage models backward from the final stage."""
    from .nearequiv import fit_tolerances  # nearequiv builds on this module

    return fit_tolerances(dataset, spec, ())[0]


def greedy_policy(stack: QStack) -> GreedyPolicy:
    return GreedyPolicy(stack.models)


# --- stack serialization ------------------------------------------------------


def stack_to_dict(stack: QStack) -> dict:
    return {
        "format_version": 1,
        "horizon": stack.horizon,
        "models": [m.to_dict() for m in stack.models],
        "provenance": list(stack.provenance),
    }


def stack_from_dict(payload: dict) -> QStack:
    from .regression import model_from_dict

    if payload.get("format_version") != 1:
        raise ValueError(f"unsupported stack format version {payload.get('format_version')!r}")
    models = tuple(model_from_dict(m) for m in payload["models"])
    stack = QStack(models, int(payload["horizon"]), tuple(m.action_space for m in models))
    if list(payload["provenance"]) != list(stack.provenance):
        raise ValueError(f"stack provenance disagrees with its horizon {stack.horizon}")
    return stack
