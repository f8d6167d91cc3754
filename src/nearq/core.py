"""Domain types for longitudinal treatment data.

A dataset is one row per observed patient-stage over stages 0..T, held as
read-only arrays: exactly the rows of the cohort CSV. Trajectories may end
before T (absorbing terminal event such as death), in which case the later
stages have no rows. Equality compares the arrays and the stage metadata.
Per-patient records (``StageRecord``, ``PatientTrajectory``) are the input of
the dataset constructor and a view built on first read.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Structural problem with a dataset that prevents further processing."""


class SchemaError(ValueError):
    """Cohort file violates the expected schema."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


GRID_TOL = 1e-9  # how far a value may lie from the action label ActionSpace.index_of resolves it to


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
        if not np.isfinite(values).all():
            raise ValueError(f"action labels must be finite, got {values}")
        if len(set(values)) != len(values):
            raise ValueError("action labels must be distinct")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.values)

    def label(self, index: int) -> float:
        return self.values[index]

    def index_of(self, value: float) -> int:
        """Index of the label closest to ``value`` within ``GRID_TOL``, the lowest one on an exact tie."""
        gaps = [abs(v - float(value)) for v in self.values]
        k = min(range(len(gaps)), key=gaps.__getitem__)
        if gaps[k] <= GRID_TOL:
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


def _checked_stages(horizon, action_spaces, feature_dims):
    """Normalized ``(horizon, action_spaces, feature_dims)``; one feature width throughout."""
    action_spaces = tuple(action_spaces)
    feature_dims = tuple(int(d) for d in feature_dims)
    if horizon < 0:
        raise DatasetError("horizon must be >= 0")
    if len(action_spaces) != horizon + 1:
        raise DatasetError("need one action space per stage 0..horizon")
    if len(feature_dims) != horizon + 1:
        raise DatasetError("need one feature dimension per stage 0..horizon")
    if len(set(feature_dims)) != 1:
        raise DatasetError(f"feature dimension must be the same at every stage, got {feature_dims}")
    return horizon, action_spaces, feature_dims


_ROW_ARRAYS = ("patient", "stage", "features", "actions", "rewards")


class OfflineDataset:
    """Cohort rows with per-stage action spaces and feature dims.

    ``patient`` (0..n-1), ``stage``, ``features`` (rows x d), ``actions`` and
    ``rewards`` hold one row per observed patient-stage, sorted by patient then
    stage, each patient's stages running from 0 without gaps. The constructor
    flattens per-patient records; :meth:`from_rows` takes the arrays.
    """

    def __init__(self, patients, horizon: int, action_spaces, feature_dims):
        stages = _checked_stages(horizon, action_spaces, feature_dims)
        d = stages[2][0]
        rows = [(i, t, rec) for i, traj in enumerate(patients) for t, rec in enumerate(traj.stages)]
        for i, t, rec in rows:
            if t > horizon:
                raise DatasetError(f"patient {i} stage {t}: past the horizon {horizon}")
            if len(rec.covariates) != d:
                raise DatasetError(
                    f"patient {i} stage {t}: dimension mismatch, "
                    f"{len(rec.covariates)} covariates where {d} expected"
                )
        patient, stage, records = zip(*rows) if rows else ((), (), ())
        covariates = np.array([rec.covariates for rec in records], dtype=float).reshape(-1, d)
        self._set_rows(
            patient, stage, covariates, [rec.action_index for rec in records],
            [rec.reward for rec in records], *stages,
        )

    @classmethod
    def from_rows(
        cls, patient, stage, features, actions, rewards, horizon: int, action_spaces, feature_dims
    ) -> OfflineDataset:
        """Dataset from row arrays; the caller keeps the row order the class describes."""
        dataset = cls.__new__(cls)
        stages = _checked_stages(horizon, action_spaces, feature_dims)
        dataset._set_rows(patient, stage, features, actions, rewards, *stages)
        return dataset

    def _set_rows(self, patient, stage, features, actions, rewards, *stages):
        horizon, action_spaces, feature_dims = stages
        self.patient = np.array(patient, dtype=int)
        self.stage = np.array(stage, dtype=int)
        self.features = np.array(features, dtype=float)
        self.actions = np.array(actions, dtype=int)
        self.rewards = np.array(rewards, dtype=float)
        for arr in (self.patient, self.stage, self.features, self.actions, self.rewards):
            arr.setflags(write=False)
        if self.features.shape != (len(self.patient), feature_dims[0]):
            raise DatasetError(f"features must be rows x {feature_dims[0]}, got {self.features.shape}")
        self.horizon = horizon
        self.action_spaces = action_spaces
        self.feature_dims = feature_dims
        self.n_patients = int(self.patient[-1]) + 1 if len(self.patient) else 0
        self._stage_rows = {}  # t: stage_rows(t), made on first call

    def __eq__(self, other):
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        return (self.horizon, self.action_spaces, self.feature_dims) == (
            other.horizon, other.action_spaces, other.feature_dims
        ) and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _ROW_ARRAYS)

    @cached_property
    def patients(self) -> tuple[PatientTrajectory, ...]:
        """Per-patient records, built from the rows on first read."""
        records = [
            StageRecord(*row)
            for row in zip(self.features.tolist(), self.actions.tolist(), self.rewards.tolist())
        ]
        starts = np.flatnonzero(self.stage == 0).tolist() + [len(records)]
        return tuple(PatientTrajectory(records[lo:hi]) for lo, hi in zip(starts, starts[1:]))

    def stage_rows(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Regression rows for stage t over patients holding a stage-t record.

        Returns read-only ``(patient_idx, features, action_idx, rewards)`` in
        patient order, gathered on the first call for t and the same arrays
        on every later one.
        """
        if not 0 <= t <= self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon}")
        if t not in self._stage_rows:
            at = self.stage == t
            out = (self.patient[at], self.features[at], self.actions[at], self.rewards[at])
            for arr in out:
                arr.setflags(write=False)
            self._stage_rows[t] = out
        return self._stage_rows[t]


@dataclass
class ValidationReport:
    """Collected dataset violations (errors) and soft issues (warnings)."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(dataset: OfflineDataset) -> ValidationReport:
    """Check a dataset's rows without mutating it.

    Errors: no patients, action index outside the stage's action space,
    non-finite covariates or rewards, and stages up to the horizon with no
    observations. Warnings: stages where fewer than two distinct actions were
    observed (regression on such a stage cannot separate actions). Trajectory
    lengths and covariate widths are checked when the dataset is built.
    """
    report = ValidationReport()
    if dataset.n_patients == 0:
        report.errors.append("dataset has no patients")
        return report
    sizes = np.array([space.size for space in dataset.action_spaces])[dataset.stage]
    in_range = (dataset.actions >= 0) & (dataset.actions < sizes)

    def where(r: int) -> str:
        return f"patient {dataset.patient[r]} stage {dataset.stage[r]}"

    for r in np.flatnonzero(~in_range):
        report.errors.append(
            f"{where(r)}: action out of range (index {dataset.actions[r]}, space size {sizes[r]})"
        )
    for r in np.flatnonzero(~np.isfinite(dataset.features).all(axis=1)):
        report.errors.append(f"{where(r)}: non-finite covariate")
    for r in np.flatnonzero(~np.isfinite(dataset.rewards)):
        report.errors.append(f"{where(r)}: non-finite reward")
    for t in range(dataset.horizon + 1):
        at = dataset.stage == t
        n_actions = np.count_nonzero(np.bincount(dataset.actions[at & in_range]))
        if not at.any():
            report.errors.append(f"empty stage {t}: no patient has a record there")
        elif n_actions < 2:
            report.warnings.append(
                f"degenerate action support at stage {t}: "
                f"only {n_actions} distinct action observed"
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
# as integer codes 0..max_index, at most MAX_ACTION_CODES of them.

_SIDECAR_SUFFIX = ".meta.json"

MAX_ACTION_CODES = 1024  # a file that needs more codes declares its action labels in the sidecar


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an int that converts to one (JSON integers have no size limit)."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _list_of(fits):
    return lambda value: isinstance(value, list) and all(map(fits, value))


_SIDECAR_KEYS = (
    ("horizon", "a nonnegative integer", lambda value: _is_int(value) and value >= 0),
    ("feature_dims", "a list of integers", _list_of(_is_int)),
    ("action_values", "a list of lists of numbers", _list_of(_list_of(_is_number))),
)


CSV_BLOCK_ROWS = 128  # records formatted per block: a writer holds one block's text, never the file's


def cell_texts(values: np.ndarray) -> list[str]:
    """The CSV text of each entry of the numpy array ``values``: a float's ``repr``, the shortest
    text that reads back to the same double, and an integer's or a string's ``str``. This is the
    one rule by which an artifact's values become text.

    An integer array that spans fewer values than it has entries, such as a block's patient or
    stage column, is formatted once per value of its span and each entry read from that table."""
    if values.dtype.kind in "iu" and values.size:
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < values.size - 1:
            table = list(map(str, range(lo, hi + 1)))
            # each entry's offset from the minimum, below 2**bits: exact as the unsigned integer
            # of the same width, though the signed subtraction may wrap
            offsets = (values - values.min()).view(f"u{values.dtype.itemsize}")
            return list(map(table.__getitem__, offsets.tolist()))
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


class FloatTexts:
    """The :func:`cell_texts` text of each distinct float64 value of ``arrays``, made once.

    Values are told apart by their bits, so ``-0.0`` and ``0.0``, and NaNs of
    different payloads, are different values. ``keys`` holds the distinct bit
    patterns as int64, ascending, and ``texts[k]`` the text of the value whose
    bits are ``keys[k]``; ``columns[i]`` is ``arrays[i]`` as a ``(texts, index)``
    column of :func:`write_csvs`, its index in the shape of the array.
    """

    def __init__(self, *arrays: np.ndarray):
        flat = [np.ascontiguousarray(a, dtype=np.float64).reshape(-1) for a in arrays]
        bits = np.concatenate([np.empty(0, dtype=np.int64), *(a.view(np.int64) for a in flat)])
        self.keys, inverse = np.unique(bits, return_inverse=True)
        self.texts = cell_texts(self.keys.view(np.float64))
        ends = np.cumsum([a.size for a in flat])
        self.columns = [(self.texts, index.reshape(np.shape(a)))
                        for a, index in zip(arrays, np.split(inverse, ends[:-1]))]

    def texts_of(self, values: np.ndarray) -> list[str]:
        """``cell_texts`` of the float array ``values``, flattened: each entry's text is read from the
        table where its bits are a key, and formatted where they are not."""
        bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
        at = np.searchsorted(self.keys, bits)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == bits[found]
        texts = [""] * found.size
        if found.any():
            texts = list(map(self.texts.__getitem__, np.where(found, at, 0).tolist()))
        missed = np.flatnonzero(~found)
        for k, text in zip(missed.tolist(), cell_texts(bits[missed].view(np.float64))):
            texts[k] = text
        return texts


def _cells(column) -> list[str]:
    """The cell texts of one block column (see :func:`write_csvs`)."""
    if isinstance(column, tuple):
        texts, index = column
        return list(map(texts.__getitem__, index.tolist()))
    return cell_texts(column)


def write_csvs(headers: dict, n: int, block) -> None:
    """Write one CSV file per ``path: header`` entry of ``headers`` in one pass over ``n`` records.

    Records are formatted ``CSV_BLOCK_ROWS`` at a time: ``block(lo, hi)``
    returns, for each file in the order of ``headers``, the columns of the
    lines that records lo..hi-1 make there. A column is a numpy array, its
    cells formatted by :func:`cell_texts`; or a pair ``(texts, index)`` of a
    list of cell texts, made by :func:`cell_texts` (or empty), and an integer
    array, each cell ``texts[index[k]]``, for text made once and read many
    times, such as a column of :class:`FloatTexts`, whose texts outlive the
    blocks and may serve several files. A block is formatted column by column,
    one map per column, joined line by line, and written with one ``write``
    per file. Files are opened as ``Path.write_text`` opens them, so their
    bytes equal those of the whole text written at once.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(Path(path).open("w")) for path in headers]
        for fh, header in zip(files, headers.values()):
            fh.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            for fh, columns in zip(files, block(lo, min(lo + CSV_BLOCK_ROWS, n)), strict=True):
                lines = list(map(",".join, zip(*map(_cells, columns), strict=True)))
                if lines:
                    fh.write("\n".join(lines) + "\n")


def _rows(column, lo: int, hi: int):
    """Entries lo..hi-1 of a column of :func:`write_csvs`."""
    if isinstance(column, tuple):
        texts, index = column
        return texts, index[lo:hi]
    return column[lo:hi]


def write_csv(path: str | Path, header: str, *columns) -> None:
    """Write ``header``, then one line per entry of the equal-length ``columns``,
    ``CSV_BLOCK_ROWS`` lines a block (see :func:`write_csvs`). A column is a numpy array (one of
    text cells is a numpy string array) or a ``(texts, index)`` pair, such as a column of
    :class:`FloatTexts` whose text serves several files, one line per entry of ``index``."""
    first = columns[0]
    n = len(first[1] if isinstance(first, tuple) else first)
    write_csvs({path: header}, n, lambda lo, hi: ([_rows(column, lo, hi) for column in columns],))


def cohort_header(d: int) -> str:
    """The header line of a cohort CSV with ``d`` covariates."""
    return ",".join(["patient_id", "stage", *(f"cov_{j}" for j in range(d)), "action_index", "reward"])


def save_sidecar(dataset: OfflineDataset, path: str | Path) -> None:
    """Write the sidecar metadata file of the cohort CSV of ``dataset`` at ``path``."""
    sidecar = {
        "format_version": 1,
        "horizon": dataset.horizon,
        "feature_dims": list(dataset.feature_dims),
        "action_values": [list(sp.values) for sp in dataset.action_spaces],
    }
    Path(str(path) + _SIDECAR_SUFFIX).write_text(json.dumps(sidecar, indent=1))


def save_csv(dataset: OfflineDataset, path: str | Path) -> None:
    """Write the cohort CSV plus its sidecar metadata file.

    Cells are formatted by :func:`cell_texts`, so loading reproduces the
    exact values.
    """
    write_csv(
        path, cohort_header(dataset.features.shape[1]), dataset.patient, dataset.stage,
        *dataset.features.T, dataset.actions, dataset.rewards,
    )
    save_sidecar(dataset, path)


def _csv_rows(fh):
    """The rows of the open CSV ``fh``; bytes that are not UTF-8 and csv errors raise SchemaError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as err:
        raise SchemaError(f"{fh.name} is not UTF-8 text ({err})") from err
    except csv.Error as err:  # such as a field past the csv module's size limit
        raise SchemaError(str(err), row=reader.line_num) from err


def load_csv(path: str | Path) -> OfflineDataset:
    """Read a cohort CSV (and sidecar metadata when present).

    Rows may come in any order. Patients are numbered by sorted id: in
    numeric order when every id is a decimal integer, in text order otherwise.
    Raises SchemaError with the offending row number on malformed content, and
    DatasetError when trajectories disagree with the declared horizon.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file, header row required", row=1) from None
        d = sum(h.startswith("cov_") for h in header)
        if not d:
            raise SchemaError("no cov_* columns present", row=1)
        columns = ["patient_id", "stage", "action_index", "reward", *(f"cov_{j}" for j in range(d))]
        for col in columns:
            if col not in header:
                raise SchemaError(f"missing column {col!r}", row=1)
        i_pid, i_stage, i_action, i_reward, *i_covs = (header.index(c) for c in columns)
        ids, stages, covs, actions, rewards = [], [], [], [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=rownum)
            try:
                stages.append(int(row[i_stage]))
                actions.append(int(row[i_action]))
                covs.append([float(row[j]) for j in i_covs])
                rewards.append(float(row[i_reward]))
            except ValueError as err:
                raise SchemaError(str(err), row=rownum) from err
            if not 0 <= stages[-1] < 2**63:
                raise SchemaError(f"stage {stages[-1]} outside 0..2**63 - 1", row=rownum)
            if not -(2**63) <= actions[-1] < 2**63:
                raise SchemaError(f"action index {actions[-1]} outside the 64-bit integer range", row=rownum)
            ids.append(row[i_pid])

    if not ids:
        raise SchemaError("file contains no data rows", row=2)
    names = sorted(set(ids))
    if all(name.isdecimal() for name in names):
        names.sort(key=int)
    number = {name: i for i, name in enumerate(names)}
    patient = np.array([number[pid] for pid in ids])
    order = np.lexsort((stages, patient))
    patient, stage = patient[order], np.array(stages)[order]
    # sorted, a patient's stages read 0, 1, 2, ...; the first one off repeats a stage or skips one
    starts = np.flatnonzero(np.r_[True, patient[1:] != patient[:-1]])
    expected = np.arange(len(stage)) - starts[patient]
    off = np.flatnonzero(stage != expected)
    if off.size:
        r = off[0]
        if stage[r] < expected[r]:
            raise SchemaError(
                f"duplicate stage {stage[r]} for patient {names[patient[r]]}", row=int(order[r]) + 2
            )
        raise DatasetError(f"patient {names[patient[r]]}: stages are not contiguous, stage {expected[r]} missing")

    sidecar_path = Path(str(path) + _SIDECAR_SUFFIX)
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise SchemaError(f"sidecar {sidecar_path}: malformed JSON ({err})") from err
        for key, expected, fits in _SIDECAR_KEYS:
            if not isinstance(meta, dict) or key not in meta:
                raise SchemaError(f"sidecar {sidecar_path}: missing key {key!r}")
            if not fits(meta[key]):
                raise SchemaError(
                    f"sidecar {sidecar_path}: key {key!r} must be {expected}, got {json.dumps(meta[key])}"
                )
        horizon = meta["horizon"]
        for key in ("feature_dims", "action_values"):
            if len(meta[key]) != horizon + 1:
                raise SchemaError(f"sidecar {sidecar_path}: key {key!r} needs one entry per stage 0..{horizon}")
        feature_dims = tuple(meta["feature_dims"])
        if any(dim != d for dim in feature_dims):
            raise SchemaError(
                f"sidecar {sidecar_path}: key 'feature_dims' {list(feature_dims)} disagrees with {d} cov_* columns"
            )
        try:
            action_spaces = tuple(ActionSpace(tuple(v)) for v in meta["action_values"])
        except ValueError as err:
            raise SchemaError(f"sidecar {sidecar_path}: key 'action_values': {err}") from err
    else:
        horizon = int(stage.max())
        feature_dims = (d,) * (horizon + 1)
        codes = np.array(actions)
        bad = np.flatnonzero((codes < 0) | (codes >= MAX_ACTION_CODES))
        if bad.size:
            raise SchemaError(f"action index {codes[bad[0]]} outside the codes 0..{MAX_ACTION_CODES - 1}"
                              " of a file without a sidecar", row=int(bad[0]) + 2)
        action_spaces = (ActionSpace(tuple(float(i) for i in range(1 + codes.max()))),) * (horizon + 1)

    late = np.flatnonzero(stage > horizon)
    if late.size:
        p = patient[late[0]]
        raise DatasetError(
            f"patient {names[p]}: terminal stage {stage[patient == p].max()} "
            f"exceeds declared horizon {horizon}"
        )
    return OfflineDataset.from_rows(
        patient, stage, np.array(covs, dtype=float)[order], np.array(actions)[order],
        np.array(rewards, dtype=float)[order], horizon, action_spaces, feature_dims,
    )
