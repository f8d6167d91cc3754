"""Tabular fixture and brute-force dynamic-programming reference.

:func:`dp_oracle` computes reference values by direct counting over a tabular
dataset, with no regression: walking stages T..0 backward, each (state, action)
cell's value is the mean of its rows' reward plus the best stage-(t+1) value of
the patient's next state (none where the trajectory ends at t). States are in
drop-first indicator coding, ``feature_dims[0] + 1`` of them, state 0 the
all-zero vector. With 2 actions and every (stage, state, action) cell visited,
the interaction-linear backend is saturated (it represents any table of cell
values exactly), so backward fitting must reproduce these values to solver
precision. The fixture is one such problem: 3 states, 2 stages.
"""

from __future__ import annotations

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


def dp_oracle(dataset: OfflineDataset) -> list[np.ndarray]:
    """Backward value tables by direct counting: ``tables[t]`` is stage t's (states, actions) table.
    A stage with an unvisited (state, action) cell raises ``ValueError`` naming the stage."""
    n_states = dataset.feature_dims[0] + 1
    tables: list = [None] * (dataset.horizon + 1)
    # each patient's best stage-(t+1) value: 0 for one whose trajectory ends before t+1, as no
    # later stage holds a row of theirs
    best = np.zeros(dataset.n_patients)
    for t in range(dataset.horizon, -1, -1):
        idx, feats, actions, rewards = dataset.stage_rows(t)
        hot = feats == 1.0
        states = np.where(hot.any(axis=1), hot.argmax(axis=1) + 1, 0)
        sums = np.zeros((n_states, dataset.action_spaces[t].size))
        counts = np.zeros_like(sums)
        np.add.at(sums, (states, actions), rewards + best[idx])
        np.add.at(counts, (states, actions), 1.0)
        if (counts == 0).any():
            raise ValueError(f"dataset must cover every (state, action) cell at stage {t}")
        tables[t] = sums / counts
        best[idx] = tables[t].max(axis=1)[states]
    return tables


def max_discrepancy(stack: QStack, tables) -> float:
    """Largest |fitted value - reference value| over all (stage, state, action)."""
    worst = 0.0
    for model, table in zip(stack.models, tables, strict=True):
        states = np.eye(table.shape[0])[:, 1:]  # each state's drop-first coding
        worst = max(worst, float(np.abs(model.predict_all_matrix(states) - table).max()))
    return worst
