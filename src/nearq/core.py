"""Domain types for longitudinal treatment data.

A dataset holds one trajectory per patient over stages 0..T. Trajectories may
end before T (absorbing terminal event such as death), in which case the later
stages are simply absent. All types are immutable after construction and store
covariates as plain float tuples, so equality is structural and instances are
safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Structural problem with a dataset that prevents further processing."""


class SchemaError(ValueError):
    """Cohort file violates the expected schema."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class ActionSpace:
    """Finite ordered set of action labels (doses or numeric codes).

    The index order is fixed at construction; index k refers to ``values[k]``
    everywhere in the package.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("action space must be nonempty")
        if len(set(values)) != len(values):
            raise ValueError("action labels must be distinct")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.values)

    def label(self, index: int) -> float:
        return self.values[index]

    def index_of(self, value: float, tol: float = 1e-9) -> int:
        """Index of the label closest to ``value`` within ``tol``."""
        for k, v in enumerate(self.values):
            if abs(v - float(value)) <= tol:
                return k
        raise ValueError(f"action value {value!r} is not on the grid {self.values}")


@dataclass(frozen=True)
class StageRecord:
    """One observed stage: covariates, chosen action index, stage reward."""

    covariates: tuple[float, ...]
    action_index: int
    reward: float

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(float(c) for c in self.covariates))
        object.__setattr__(self, "action_index", int(self.action_index))
        object.__setattr__(self, "reward", float(self.reward))


@dataclass(frozen=True)
class PatientTrajectory:
    """Contiguous stage records starting at stage 0.

    A trajectory shorter than the cohort horizon ended early (absorbing event);
    no records exist past the terminal stage.
    """

    stages: tuple[StageRecord, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise DatasetError("trajectory must contain at least one stage")
        object.__setattr__(self, "stages", stages)

    @property
    def terminal_stage(self) -> int:
        return len(self.stages) - 1


@dataclass(frozen=True)
class OfflineDataset:
    """Cohort of trajectories with per-stage action spaces and feature dims."""

    patients: tuple[PatientTrajectory, ...]
    horizon: int
    action_spaces: tuple[ActionSpace, ...]
    feature_dims: tuple[int, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "patients", tuple(self.patients))
        object.__setattr__(self, "action_spaces", tuple(self.action_spaces))
        object.__setattr__(self, "feature_dims", tuple(int(d) for d in self.feature_dims))
        if self.horizon < 0:
            raise DatasetError("horizon must be >= 0")
        if len(self.action_spaces) != self.horizon + 1:
            raise DatasetError("need one action space per stage 0..horizon")
        if len(self.feature_dims) != self.horizon + 1:
            raise DatasetError("need one feature dimension per stage 0..horizon")

    @property
    def n_patients(self) -> int:
        return len(self.patients)

    def stage_rows(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Regression rows for stage t over patients holding a stage-t record.

        Returns ``(patient_idx, features, action_idx, rewards)`` where rows are
        in patient order. Cached; arrays are read-only.
        """
        if not 0 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon}")
        if t in self._cache:
            return self._cache[t]
        idx = [i for i, p in enumerate(self.patients) if p.terminal_stage >= t]
        feats = np.array([self.patients[i].stages[t].covariates for i in idx], dtype=float)
        if feats.size == 0:
            feats = feats.reshape(0, self.feature_dims[t])
        actions = np.array([self.patients[i].stages[t].action_index for i in idx], dtype=int)
        rewards = np.array([self.patients[i].stages[t].reward for i in idx], dtype=float)
        out = (np.asarray(idx, dtype=int), feats, actions, rewards)
        for arr in out:
            arr.setflags(write=False)
        self._cache[t] = out
        return out


@dataclass
class ValidationReport:
    """Collected dataset violations (errors) and soft issues (warnings)."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(dataset: OfflineDataset) -> ValidationReport:
    """Check a dataset against its declared shape without mutating it.

    Errors: no patients, trajectory longer than the horizon, covariate length
    not matching the stage's feature dimension, action index outside the
    stage's action space, and stages up to the horizon with no observations.
    Warnings: stages where fewer than two distinct actions were observed
    (regression on such a stage cannot separate actions).
    """
    report = ValidationReport()
    if dataset.n_patients == 0:
        report.errors.append("dataset has no patients")
        return report
    observed_actions: dict[int, set[int]] = {t: set() for t in range(dataset.horizon + 1)}
    for i, patient in enumerate(dataset.patients):
        if patient.terminal_stage > dataset.horizon:
            report.errors.append(
                f"patient {i}: trajectory has {patient.terminal_stage + 1} stages, "
                f"horizon is {dataset.horizon}"
            )
            continue
        for t, rec in enumerate(patient.stages):
            want = dataset.feature_dims[t]
            if len(rec.covariates) != want:
                report.errors.append(
                    f"patient {i} stage {t}: dimension mismatch, "
                    f"{len(rec.covariates)} covariates where {want} expected"
                )
            k = dataset.action_spaces[t].size
            if not 0 <= rec.action_index < k:
                report.errors.append(
                    f"patient {i} stage {t}: action out of range "
                    f"(index {rec.action_index}, space size {k})"
                )
            else:
                observed_actions[t].add(rec.action_index)
    for t in range(dataset.horizon + 1):
        n_here = sum(1 for p in dataset.patients if p.terminal_stage >= t)
        if n_here == 0:
            report.errors.append(f"empty stage {t}: no patient has a record there")
        elif len(observed_actions[t]) < 2:
            report.warnings.append(
                f"degenerate action support at stage {t}: "
                f"only {len(observed_actions[t])} distinct action observed"
            )
    return report


def history_features(trajectory: PatientTrajectory, t: int) -> np.ndarray:
    """Feature vector used as regression input at stage t.

    Markov convention: the stage-t covariate vector itself.
    """
    if not 0 <= t <= trajectory.terminal_stage:
        raise ValueError(
            f"stage {t} out of range: trajectory ends at stage {trajectory.terminal_stage}"
        )
    return np.array(trajectory.stages[t].covariates, dtype=float)


# --- cohort CSV IO ----------------------------------------------------------
#
# One row per patient-stage: patient_id,stage,cov_0..cov_{d-1},action_index,reward
# A sidecar JSON (<path>.meta.json) carries horizon, feature dims and action
# labels; without it the horizon is inferred as the maximum stage and actions
# as integer codes 0..max_index.

_SIDECAR_SUFFIX = ".meta.json"


def _uniform_dim(dataset: OfflineDataset) -> int:
    dims = set(dataset.feature_dims)
    if len(dims) != 1:
        raise DatasetError(
            f"cohort CSV requires a uniform feature dimension, got {sorted(dims)}"
        )
    return dims.pop()


def save_csv(dataset: OfflineDataset, path: str | Path) -> None:
    """Write the cohort CSV plus its sidecar metadata file.

    Floats are written with ``repr`` so that loading reproduces the exact
    values.
    """
    path = Path(path)
    d = _uniform_dim(dataset)
    header = ["patient_id", "stage"] + [f"cov_{j}" for j in range(d)] + ["action_index", "reward"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, patient in enumerate(dataset.patients):
            for t, rec in enumerate(patient.stages):
                writer.writerow(
                    [i, t, *[repr(c) for c in rec.covariates], rec.action_index, repr(rec.reward)]
                )
    sidecar = {
        "format_version": 1,
        "horizon": dataset.horizon,
        "feature_dims": list(dataset.feature_dims),
        "action_values": [list(sp.values) for sp in dataset.action_spaces],
    }
    Path(str(path) + _SIDECAR_SUFFIX).write_text(json.dumps(sidecar, indent=1))


def load_csv(path: str | Path) -> OfflineDataset:
    """Read a cohort CSV (and sidecar metadata when present).

    Raises SchemaError with the offending row number on malformed content, and
    DatasetError when trajectories disagree with the declared horizon.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file, header row required") from None
        cov_cols = [h for h in header if h.startswith("cov_")]
        required = ["patient_id", "stage", "action_index", "reward"]
        for col in required:
            if col not in header:
                raise SchemaError(f"missing column {col!r}", row=1)
        if not cov_cols:
            raise SchemaError("no cov_* columns present", row=1)
        pos = {h: header.index(h) for h in header}
        d = len(cov_cols)
        rows_by_patient: dict[str, dict[int, StageRecord]] = {}
        order: list[str] = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=rownum)
            pid = row[pos["patient_id"]]
            try:
                stage = int(row[pos["stage"]])
                action = int(row[pos["action_index"]])
                covs = tuple(float(row[pos[f"cov_{j}"]]) for j in range(d))
                reward = float(row[pos["reward"]])
            except ValueError as err:
                raise SchemaError(str(err), row=rownum) from err
            if stage < 0:
                raise SchemaError(f"negative stage {stage}", row=rownum)
            if pid not in rows_by_patient:
                rows_by_patient[pid] = {}
                order.append(pid)
            if stage in rows_by_patient[pid]:
                raise SchemaError(f"duplicate stage {stage} for patient {pid}", row=rownum)
            rows_by_patient[pid][stage] = StageRecord(covs, action, reward)

    if not order:
        raise SchemaError("file contains no data rows")

    sidecar_path = Path(str(path) + _SIDECAR_SUFFIX)
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as err:
            raise SchemaError(f"sidecar {sidecar_path}: malformed JSON ({err})") from err
        for key in ("horizon", "feature_dims", "action_values"):
            if not isinstance(meta, dict) or key not in meta:
                raise SchemaError(f"sidecar {sidecar_path}: missing key {key!r}")
        horizon = int(meta["horizon"])
        feature_dims = tuple(int(x) for x in meta["feature_dims"])
        if any(dim != d for dim in feature_dims):
            raise SchemaError(
                f"sidecar feature_dims {feature_dims} disagree with {d} cov_* columns"
            )
        action_spaces = tuple(ActionSpace(tuple(v)) for v in meta["action_values"])
    else:
        horizon = max(max(stages) for stages in rows_by_patient.values())
        feature_dims = (d,) * (horizon + 1)
        k = 1 + max(rec.action_index for stages in rows_by_patient.values() for rec in stages.values())
        action_spaces = (ActionSpace(tuple(float(i) for i in range(k))),) * (horizon + 1)

    patients = []
    for pid in order:
        stages = rows_by_patient[pid]
        n = len(stages)
        if sorted(stages) != list(range(n)):
            raise DatasetError(f"patient {pid}: stages are not contiguous from 0")
        if n - 1 > horizon:
            raise DatasetError(
                f"patient {pid}: terminal stage {n - 1} exceeds declared horizon {horizon}"
            )
        patients.append(PatientTrajectory(tuple(stages[t] for t in range(n))))
    return OfflineDataset(tuple(patients), horizon, action_spaces, feature_dims)
