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
from pathlib import Path

import numpy as np

from .core import OfflineDataset
from .qlearn import GreedyPolicy, QStack, StageFitError, fit_chains, fit_final_stage
from .regression import DesignSpec, FittedQ, max_over_actions

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


@dataclass(frozen=True)
class AdmissibleSet:
    """Per-patient ordered admissible actions at the final stage.

    ``rows[i]`` holds patient i's ``(action_index, q_value)`` pairs, best
    first. Patients without a final-stage record hold the single sentinel
    entry ``(NO_ACTION, 0.0)``.
    """

    rows: tuple[tuple[tuple[int, float], ...], ...]

    def n_admissible(self, i: int) -> int:
        return len(self.rows[i])


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
    n = dataset.n_patients
    idx_final, feats_final, _, _ = dataset.stage_rows(dataset.horizon)
    order, values, counts = _ranked(final_model.predict_all_matrix(feats_final), cfg)
    m = int(counts.max(initial=1))

    rows = [((NO_ACTION, 0.0),)] * n
    for i, actions, vals, n_i in zip(
        idx_final.tolist(), order.tolist(), values.tolist(), counts.tolist()
    ):
        rows[i] = tuple(zip(actions[:n_i], vals[:n_i]))
    padded = np.zeros((n, m))
    padded[idx_final] = np.where(np.arange(m) < counts[:, None], values[:, :m], values[:, :1])
    padding_counts = np.full(n, m - 1)
    padding_counts[idx_final] = m - counts
    padded.setflags(write=False)
    padding_counts.setflags(write=False)
    return SelectionResult(AdmissibleSet(tuple(rows)), m, padded, padding_counts)


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
    m: int
    admissible_sets: AdmissibleSet
    padding_log: np.ndarray
    horizon: int
    action_spaces: tuple

    def __post_init__(self):
        if len(self.column_models) != self.m:
            raise ValueError("need one model chain per admissible rank")


def fit_tolerances(
    dataset: OfflineDataset, spec: DesignSpec, cfgs: tuple[EpsilonConfig, ...]
) -> tuple[QStack, tuple[NearEquivQStack, ...]]:
    """Classical Q-learning and one near-equivalent fit per tolerance, fitted once.

    The final stage is fitted once. One backward loop fits the columns
    ``[classical maxima | each tolerance's padded ranks 2..m]``, so every
    tolerance's rank-1 chain is the classical stack's models (the same
    objects), and column j of every chain is bitwise equal to fitting it alone.
    """
    t_final = dataset.horizon
    try:
        final_model = fit_final_stage(dataset, spec)
    except Exception as err:
        raise StageFitError(t_final) from err
    selections = [select_and_pad(final_model, dataset, cfg) for cfg in cfgs]
    stages = ()
    if t_final:
        idx_final, feats_final, _, _ = dataset.stage_rows(t_final)
        future = np.hstack(
            [max_over_actions([final_model], feats_final)]
            + [sel.padded[idx_final, 1:] for sel in selections]
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
            final_model, chains, sel.m, sel.admissible, sel.padding_counts, t_final,
            dataset.action_spaces,
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
    """Audit rows ``patient_id,rank,action_index,q_value``, best rank first."""
    lines = ["patient_id,rank,action_index,q_value"]
    for pid, row in enumerate(stack.admissible_sets.rows):
        for rank, (action, value) in enumerate(row, start=1):
            lines.append(f"{pid},{rank},{action},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")
