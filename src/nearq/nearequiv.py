"""Near-equivalent Q-learning: tolerance-based policy sets.

Instead of keeping only the argmax action at the final stage, every action
whose value sits within an epsilon tolerance of the per-patient maximum is
retained. Two tolerance modes exist:

* ``relative``: keep a when  q(a) >= max_q - epsilon * |max_q|
* ``absolute``: keep a when  q(a) >= max_q - epsilon

Each patient keeps an ordered list of admissible actions (value descending,
index ascending on ties); padding repeats the rank-1 value so all patients
share a common width m = max over patients of the list length. The padded
values seed m parallel backward recursions: column j propagates each patient's
rank-j admissible value, and every column is fit with its own regression chain
down to stage 0. :func:`fit_tolerances` fits the final stage once for any
number of tolerances and runs every tolerance's chains as columns of one
backward loop (:func:`nearq.qlearn.fit_chains`) that share every
factorization. Column 0 carries the per-patient maxima and is shared by all
tolerances: their rank-1 chains are the classical Q-learning models
themselves.

The tolerance is applied once, to the final-stage values feeding the fit one
stage earlier. Selecting at every stage is out of scope: the number of chains
would multiply at each step instead of staying capped at the action-space
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import FloatTexts, OfflineDataset, cell_texts, write_csv
from .qlearn import GreedyPolicy, QStack, StageFitError, fit_chains, fit_final_stage
from .regression import DesignSpec, FittedQ

RELATIVE = "relative"
ABSOLUTE = "absolute"

# Sentinel action index for patients with no final-stage record; their row
# carries a single zero value (no attainable future reward).
NO_ACTION = -1


@dataclass(frozen=True)
class EpsilonConfig:
    """Tolerance width and mode for action admissibility.

    epsilon must lie in [0, 1) in either mode; the relative criterion stops
    being a tolerance at 1, and the same bound keeps configurations
    interchangeable across modes.
    """

    epsilon: float
    mode: str = RELATIVE

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.mode not in (RELATIVE, ABSOLUTE):
            raise ValueError(f"mode must be {RELATIVE!r} or {ABSOLUTE!r}, got {self.mode!r}")


def _ranked(q: np.ndarray, cfg: EpsilonConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the (n, K) value matrix: the actions best first (index ascending on
    ties), their values, and how many leading entries the tolerance admits."""
    if not np.all(np.isfinite(q)):
        raise ValueError("q_values contain non-finite entries")
    order = np.argsort(-q, axis=1, kind="stable")
    values = np.take_along_axis(q, order, axis=1)
    best = values[:, :1]
    threshold = best - cfg.epsilon * (np.abs(best) if cfg.mode == RELATIVE else 1.0)
    return order, values, (values >= threshold).sum(axis=1)


def admissible_actions(q_values: np.ndarray, cfg: EpsilonConfig) -> tuple[tuple[int, float], ...]:
    """Actions within the tolerance of the best value, best first.

    Returns ``((action_index, q_value), ...)`` sorted by value descending and
    index ascending on ties, so the first entry is the argmax under the same
    tie-break used everywhere else. With epsilon 0 only values exactly equal
    to the maximum survive. This is one row of :func:`select_and_pad`.
    """
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_values must be a nonempty vector")
    order, values, counts = _ranked(q[None, :], cfg)
    return tuple(zip(order[0, : counts[0]].tolist(), values[0, : counts[0]].tolist()))


@dataclass(frozen=True, eq=False)
class AdmissibleSet:
    """Per-patient ordered admissible actions at the final stage, as read-only arrays.

    ``counts[i]`` is patient i's number of admissible actions. ``actions`` and
    ``values`` hold every patient's admissible action indices and their
    values, patient by patient, best first within a patient, so patient i's
    are the ``counts[i]`` entries from ``counts[:i].sum()`` on. Patients
    without a final-stage record hold the single sentinel entry
    ``(NO_ACTION, 0.0)``. ``rows[i]``, patient i's entries as
    ``(action_index, q_value)`` pairs, is built on first read.
    """

    actions: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, AdmissibleSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in ("actions", "values", "counts"))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        pairs = list(zip(self.actions.tolist(), self.values.tolist()))
        ends = np.cumsum(self.counts).tolist()
        return tuple(tuple(pairs[hi - n_i:hi]) for hi, n_i in zip(ends, self.counts.tolist()))

    def n_admissible(self, i: int) -> int:
        return int(self.counts[i])


@dataclass(frozen=True)
class SelectionResult:
    admissible: AdmissibleSet
    m: int
    padded: np.ndarray  # (N, m) admissible values, rank-1 value repeated as filler
    padding_counts: np.ndarray  # (N,) number of filler entries per patient


def select_and_pad(
    final_model: FittedQ, dataset: OfflineDataset, cfg: EpsilonConfig
) -> SelectionResult:
    """Apply the tolerance at the final stage and pad rows to a common width.

    Row i is ``[v_1 .. v_{n_i}, v_1 repeated m - n_i times]`` where v_1 is the
    patient's best value. Patients without a final-stage record contribute a
    single zero, so they never widen m.
    """
    idx_final, feats_final, _, _ = dataset.stage_rows(dataset.horizon)
    return _select(dataset.n_patients, idx_final, final_model.predict_all_matrix(feats_final), cfg)


def _select(n: int, idx_final: np.ndarray, q_final: np.ndarray, cfg: EpsilonConfig) -> SelectionResult:
    """:func:`select_and_pad` on the final-stage value matrix of the patients ``idx_final``."""
    order, values, counts = _ranked(q_final, cfg)
    m = int(counts.max(initial=1))
    admitted = np.arange(order.shape[1]) < counts[:, None]

    all_counts = np.ones(n, dtype=int)
    all_counts[idx_final] = counts
    has_final = np.zeros(n, dtype=bool)
    has_final[idx_final] = True
    # entries patient by patient, as idx_final is ascending
    of_final = np.repeat(has_final, all_counts)
    actions, admitted_values = np.full(of_final.size, NO_ACTION), np.zeros(of_final.size)
    actions[of_final], admitted_values[of_final] = order[admitted], values[admitted]
    padded = np.zeros((n, m))
    padded[idx_final] = np.where(admitted[:, :m], values[:, :m], values[:, :1])
    padding_counts = m - all_counts
    for arr in (actions, admitted_values, all_counts, padded, padding_counts):
        arr.setflags(write=False)
    return SelectionResult(AdmissibleSet(actions, admitted_values, all_counts), m, padded, padding_counts)


@dataclass(frozen=True)
class NearEquivQStack:
    """Result of the tolerance-based backward fit.

    ``column_models[j][t]`` is the rank-(j+1) chain's model at stage t for
    t = 0..T-1; the final stage keeps the single ``final_model``. With a
    horizon of 0 the column chains are empty and only the admissible sets
    carry information.
    """

    final_model: FittedQ
    column_models: tuple[tuple[FittedQ, ...], ...]  # m chains, each of length T
    admissible_sets: AdmissibleSet
    padding_log: np.ndarray
    horizon: int
    action_spaces: tuple

    @property
    def m(self) -> int:
        """Number of admissible ranks: one model chain each."""
        return len(self.column_models)


def fit_tolerances(
    dataset: OfflineDataset, spec: DesignSpec, cfgs: tuple[EpsilonConfig, ...]
) -> tuple[QStack, tuple[NearEquivQStack, ...]]:
    """Classical Q-learning and one near-equivalent fit per tolerance, fitted once.

    The final stage is fitted and predicted once. One backward loop fits the
    columns ``[classical maxima | each tolerance's padded ranks 2..m]``, so
    every tolerance's rank-1 chain is the classical stack's models (the same
    objects), and column j of every chain is bitwise equal to fitting it alone.
    """
    t_final = dataset.horizon
    try:
        final_model = fit_final_stage(dataset, spec)
    except Exception as err:
        raise StageFitError(t_final) from err
    idx_final, feats_final, _, _ = dataset.stage_rows(t_final)
    q_final = final_model.predict_all_matrix(feats_final)
    selections = [_select(dataset.n_patients, idx_final, q_final, cfg) for cfg in cfgs]
    stages = ()
    if t_final:
        future = np.hstack(
            [q_final.max(axis=1, keepdims=True)] + [sel.padded[idx_final, 1:] for sel in selections]
        )
        stages = fit_chains(dataset, spec, future)
    classical = QStack(
        tuple(stage[0] for stage in stages) + (final_model,), t_final, dataset.action_spaces
    )
    stacks, first = [], 1  # first: the column of the next tolerance's rank-2 chain
    for sel in selections:
        columns = (0, *range(first, first + sel.m - 1))
        first += sel.m - 1
        chains = tuple(tuple(stage[j] for stage in stages) for j in columns)
        stacks.append(NearEquivQStack(
            final_model, chains, sel.admissible, sel.padding_counts, t_final, dataset.action_spaces
        ))
    return classical, tuple(stacks)


def backward_fit_near_equiv(
    dataset: OfflineDataset, spec: DesignSpec, cfg: EpsilonConfig
) -> NearEquivQStack:
    """Fit the final stage once, select admissible values, then fit m chains.

    The tolerance is applied to the final-stage values only; each retained
    rank then propagates backward through its own regression chain.
    """
    return fit_tolerances(dataset, spec, (cfg,))[1][0]


def policy_set(stack: NearEquivQStack) -> tuple[GreedyPolicy, ...]:
    """The m near-equivalent greedy strategies, rank 1 first.

    Every member shares the final-stage rule (there is a single final model);
    members differ at earlier stages through their column chains.
    """
    return tuple(
        GreedyPolicy(tuple(chain) + (stack.final_model,))
        for chain in stack.column_models
    )


def save_admissible_csv(stack: NearEquivQStack, path: str | Path) -> None:
    """Audit rows ``patient_id,rank,action_index,q_value``, best rank first: one line per entry
    of the admissible arrays, as plain columns (a sentinel entry reads ``-1`` and ``0.0``)."""
    save_admissible_csvs({path: stack})


def save_admissible_csvs(stacks: Mapping[str | Path, NearEquivQStack]) -> None:
    """The audit CSV of :func:`save_admissible_csv` of each ``path: stack`` entry. The files share
    one :class:`~nearq.core.FloatTexts` of their q values, so a value that several tolerances admit,
    such as each patient's best final-stage value, is formatted once, and one table of the texts of
    the integers from -1 on, from which every patient id, rank and action index is read."""
    family = [stack.admissible_sets for stack in stacks.values()]
    values = FloatTexts(*(sets.values for sets in family)).columns
    offsets = []  # per file: its patient ids, ranks and action indices, each plus 1, its offset in the table
    for sets in family:
        patient = np.repeat(np.arange(sets.counts.size), sets.counts)
        rank = np.arange(patient.size) - (np.cumsum(sets.counts) - sets.counts)[patient] + 1
        offsets.append([column + 1 for column in (patient, rank, sets.actions)])
    # the texts of -1 (the sentinel action, at offset 0) up to the largest entry of any column, an
    # action index or a rank where a cohort has fewer patients than actions
    top = max((int(column.max(initial=0)) for columns in offsets for column in columns), default=0)
    table = cell_texts(np.arange(-1, top))
    for path, columns, q_values in zip(stacks, offsets, values):
        write_csv(path, "patient_id,rank,action_index,q_value", *((table, c) for c in columns), q_values)
