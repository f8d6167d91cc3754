import numpy as np
import pytest

from nearq.core import ActionSpace, OfflineDataset, PatientTrajectory, StageRecord
from nearq.qlearn import stage_targets
from nearq.regression import FittedQ, max_over_actions


class TableQ(FittedQ):
    """Test stub: a fitted model backed by an explicit (features -> values) table."""

    mode = "table"

    def __init__(self, action_space: ActionSpace, n_features: int, table: dict):
        super().__init__(action_space, n_features)
        self.table = {tuple(round(v, 9) for v in k): np.asarray(q, dtype=float) for k, q in table.items()}

    def _row(self, feats) -> np.ndarray:
        key = tuple(round(float(v), 9) for v in feats)
        return self.table[key]

    def predict_matrix(self, features, action_index):
        x = self._check_features(features)
        k = self._check_action(action_index)
        return np.array([self._row(row)[k] for row in x])


def classical_targets(dataset, t, next_model):
    """Classical stage-t targets: the reward plus the best value of the stage-(t+1) model."""
    feats_next = dataset.stage_rows(t + 1)[1]
    return stage_targets(dataset, t, max_over_actions([next_model], feats_next))[:, 0]


def two_actions() -> ActionSpace:
    return ActionSpace((-1.0, 1.0))


def make_dataset(trajectories, horizon, n_features=1, action_space=None):
    """Dataset with one shared action space and feature dim across stages.

    ``trajectories`` is a list of per-patient stage lists, each stage a tuple
    ``(covariates, action_index, reward)``.
    """
    space = action_space or two_actions()
    patients = tuple(
        PatientTrajectory(tuple(StageRecord(c, a, r) for c, a, r in stages))
        for stages in trajectories
    )
    return OfflineDataset(
        patients, horizon, (space,) * (horizon + 1), (n_features,) * (horizon + 1)
    )


@pytest.fixture
def single_stage_dataset():
    return make_dataset(
        [
            [((0.0,), 0, 1.0)],
            [((1.0,), 1, 2.0)],
        ],
        horizon=0,
    )
