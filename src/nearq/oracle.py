"""Tabular fixture and brute-force dynamic-programming reference.

The fixture is a two-stage decision process on a handful of states with two
actions, encoded so that the interaction-linear backend is saturated (it can
represent any table of cell values exactly). The reference values are computed
by direct counting over the dataset: cell means at the last stage, then cell
means of reward plus best next value. Backward fitting must reproduce these
values to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionSpace, OfflineDataset, PatientTrajectory, StageRecord
from .qlearn import QStack

N_STATES = 3
ACTIONS = ActionSpace((-1.0, 1.0))

# deterministic stage rewards, indexed [state][action]
REWARDS_STAGE0 = ((1.0, 0.0), (-1.0, 2.0), (0.5, 1.5))
REWARDS_STAGE1 = ((2.0, -1.0), (0.0, 3.0), (1.0, 0.5))

# four successor draws per (state, action); exact empirical frequencies
TRANSITIONS = (
    ((0, 1, 2, 0), (1, 2, 2, 1)),
    ((2, 0, 1, 1), (0, 0, 2, 1)),
    ((1, 2, 0, 2), (2, 1, 0, 0)),
)


def state_features(s: int) -> tuple[float, ...]:
    """Drop-first indicator coding; state 0 maps to the all-zero vector."""
    return tuple(1.0 if s == j else 0.0 for j in range(1, N_STATES))


def _decode_state(features) -> int:
    for j in range(1, N_STATES):
        if features[j - 1] == 1.0:
            return j
    return 0


def build_fixture_dataset() -> OfflineDataset:
    """Every (state, action) cell visited at both stages, 24 trajectories."""
    patients = []
    for s0 in range(N_STATES):
        for a0 in range(2):
            for k, s1 in enumerate(TRANSITIONS[s0][a0]):
                a1 = k % 2
                patients.append(
                    PatientTrajectory(
                        (
                            StageRecord(state_features(s0), a0, REWARDS_STAGE0[s0][a0]),
                            StageRecord(state_features(s1), a1, REWARDS_STAGE1[s1][a1]),
                        )
                    )
                )
    return OfflineDataset(tuple(patients), 1, (ACTIONS, ACTIONS), (N_STATES - 1, N_STATES - 1))


@dataclass(frozen=True)
class DpTables:
    """Reference value tables, shape (N_STATES, n_actions) per stage."""

    q0: np.ndarray
    q1: np.ndarray


def dp_oracle(dataset: OfflineDataset) -> DpTables:
    """Backward value tables by direct counting, no regression involved."""
    n_actions = dataset.action_spaces[0].size
    sums1 = np.zeros((N_STATES, n_actions))
    counts1 = np.zeros((N_STATES, n_actions))
    for p in dataset.patients:
        rec = p.stages[1]
        s = _decode_state(rec.covariates)
        sums1[s, rec.action_index] += rec.reward
        counts1[s, rec.action_index] += 1
    if (counts1 == 0).any():
        raise ValueError("fixture must cover every final-stage cell")
    q1 = sums1 / counts1
    v1 = q1.max(axis=1)

    sums0 = np.zeros((N_STATES, n_actions))
    counts0 = np.zeros((N_STATES, n_actions))
    for p in dataset.patients:
        rec0 = p.stages[0]
        s0 = _decode_state(rec0.covariates)
        s1 = _decode_state(p.stages[1].covariates)
        sums0[s0, rec0.action_index] += rec0.reward + v1[s1]
        counts0[s0, rec0.action_index] += 1
    if (counts0 == 0).any():
        raise ValueError("fixture must cover every first-stage cell")
    q0 = sums0 / counts0
    return DpTables(q0=q0, q1=q1)


def max_discrepancy(stack: QStack, tables: DpTables) -> float:
    """Largest |fitted value - reference value| over all (state, action, stage)."""
    worst = 0.0
    for s in range(N_STATES):
        feats = np.array(state_features(s))
        for a in range(stack.action_spaces[0].size):
            worst = max(worst, abs(stack.models[0].predict(feats, a) - tables.q0[s, a]))
            worst = max(worst, abs(stack.models[1].predict(feats, a) - tables.q1[s, a]))
    return worst
