"""Backward Q-learning over offline trajectories.

The final-stage model regresses the stage-T reward on stage-T features and
action. Earlier stages regress the pseudo-outcome, the observed stage reward
plus the best predicted value at the next stage, fitted in order T, T-1, .., 0.
A fitted :class:`QStack`, one model per stage, is its own greedy policy: it
picks the argmax action, lowest index on exact ties.

Patients whose trajectory ended before a stage contribute nothing to that
stage's fit. A patient whose trajectory ends exactly at stage t has no future
value to add, so their pseudo-outcome is the observed reward alone.

:func:`fit_chains` is the one backward loop: it carries m value columns from
the final stage down to stage 0, fitting the m stage-t models together.
Classical Q-learning is its column 0: :func:`backward_fit` is
:func:`nearq.nearequiv.fit_tolerances` with no tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DatasetError, FloatTexts, OfflineDataset, _is_int
from .regression import DesignSpec, FittedQ, best_over_actions, fit, fit_columns, greedy_actions, model_from_dict


class StageFitError(RuntimeError):
    """A stage failed to fit; the underlying error is the ``__cause__``."""

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"regression failed at stage {stage}")


class QStack:
    """One fitted model per stage 0..T, and the stagewise greedy policy over them."""

    def __init__(self, models: tuple[FittedQ, ...]):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("a stack needs a model for stage 0")

    @property
    def horizon(self) -> int:
        return len(self.models) - 1

    @property
    def provenance(self) -> tuple[dict, ...]:
        """Per stage: the targets ("reward" or "pseudo-outcome") and the stage supplying them."""
        return tuple(
            {"stage": t, "targets": "pseudo-outcome", "source_stage": t + 1}
            for t in range(self.horizon)
        ) + ({"stage": self.horizon, "targets": "reward", "source_stage": None},)

    def decide(self, t: int, features: np.ndarray) -> int:
        """Greedy action index at stage t for one feature vector."""
        return int(self(t, np.asarray(features, dtype=float)[None, :])[0])

    def __call__(self, t: int, features: np.ndarray) -> np.ndarray:
        """Greedy action indices at stage t for each row of ``features``; lowest index wins exact ties.
        A row with a non-finite value raises ``ValueError`` naming it."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon}")
        return greedy_actions([self.models[t]], features)[0]


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
    targets add the best value of its stage-(t+1) model
    (:func:`~nearq.regression.best_over_actions`: bitwise the max of its
    predictions, row independent).
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
            future = best_over_actions(stages[t], feats)[0].T
    return tuple(stages)


def backward_fit(dataset: OfflineDataset, spec: DesignSpec) -> QStack:
    """Fit all stage models backward from the final stage."""
    from .nearequiv import fit_tolerances  # nearequiv builds on this module

    return fit_tolerances(dataset, spec, ())[0]


def greedy_policy(stack: QStack) -> QStack:
    """The stack itself: a fitted stack is its own greedy policy."""
    return stack


# --- stack serialization ------------------------------------------------------


def stack_to_dict(stack: QStack) -> dict:
    return {
        "format_version": 1,
        "horizon": stack.horizon,
        "models": [m.to_dict() for m in stack.models],
        "provenance": list(stack.provenance),
    }


def save_stack(stack: QStack, path: str | Path, known: FloatTexts) -> None:
    """Write ``json.dumps(stack_to_dict(stack))`` to ``path``, byte for byte, each model's text made
    by its :meth:`~nearq.regression.FittedQ.to_json`, which reads the text of each kernel input, a
    training row's state, from ``known``. The one writer of a run's ``qstack.json``."""
    models = ", ".join(model.to_json(known) for model in stack.models)
    Path(path).write_text(f'{{"format_version": 1, "horizon": {stack.horizon}, "models": [{models}], '
                          f'"provenance": {json.dumps(list(stack.provenance))}}}')


def stack_from_dict(payload: dict) -> QStack:
    """The stack ``stack_to_dict`` wrote. A payload that is not a JSON object, misses a key or
    holds a bad model raises ``ValueError`` naming the key, or the model's stage."""
    if not isinstance(payload, dict):
        raise ValueError(f"stack: payload must be a JSON object, got {type(payload).__name__}")
    if not _is_int(payload.get("format_version")) or payload["format_version"] != 1:
        raise ValueError(f"unsupported stack format version {payload.get('format_version')!r}")
    listed = payload.get("models")
    if not isinstance(listed, list):
        raise ValueError(f"stack: 'models' must list one model per stage, got {type(listed).__name__}")
    if not listed:
        raise ValueError("stack: 'models' is empty, but stage 0 needs a model")
    models = []
    for t, model in enumerate(listed):
        try:
            models.append(model_from_dict(model))
        except ValueError as err:
            raise ValueError(f"stage {t} {err}") from err
    stack = QStack(models)
    if not _is_int(payload.get("horizon")) or payload["horizon"] != stack.horizon:
        raise ValueError(f"stack: 'horizon' is missing or disagrees with its {len(models)} models")
    if payload.get("provenance") != list(stack.provenance):
        raise ValueError(f"stack: 'provenance' is missing or disagrees with its horizon {stack.horizon}")
    return stack
