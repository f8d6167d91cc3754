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
down to stage 0. The chains run through the classical backward loop
(:func:`nearq.qlearn.fit_chains`) as m columns that share every factorization.
Column 1 carries the per-patient maxima, so its chain reproduces classical
backward Q-learning bit for bit.

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
from .qlearn import GreedyPolicy, StageFitError, fit_chains, fit_final_stage, stage_targets
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


def admissible_actions(q_values: np.ndarray, cfg: EpsilonConfig) -> tuple[tuple[int, float], ...]:
    """Actions within the tolerance of the best value, best first.

    Returns ``((action_index, q_value), ...)`` sorted by value descending and
    index ascending on ties, so the first entry is the argmax under the same
    tie-break used everywhere else. With epsilon 0 only values exactly equal
    to the maximum survive.
    """
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_values must be a nonempty vector")
    if not np.all(np.isfinite(q)):
        raise ValueError("q_values contain non-finite entries")
    q_max = float(q.max())
    if cfg.mode == RELATIVE:
        threshold = q_max - cfg.epsilon * abs(q_max)
    else:
        threshold = q_max - cfg.epsilon
    order = np.lexsort((np.arange(q.size), -q))
    return tuple((int(k), float(q[k])) for k in order if q[k] >= threshold)


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

    @property
    def m(self) -> int:
        return max(len(row) for row in self.rows)


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
    t_final = dataset.horizon
    idx_final, feats_final, _, _ = dataset.stage_rows(t_final)
    q_matrix = final_model.predict_all_matrix(feats_final) if idx_final.size else None
    pos_of = {int(i): r for r, i in enumerate(idx_final)}

    rows = []
    for i in range(dataset.n_patients):
        if i in pos_of:
            rows.append(admissible_actions(q_matrix[pos_of[i]], cfg))
        else:
            rows.append(((NO_ACTION, 0.0),))
    admissible = AdmissibleSet(tuple(rows))
    m = admissible.m
    padded = np.empty((dataset.n_patients, m))
    padding_counts = np.empty(dataset.n_patients, dtype=int)
    for i, row in enumerate(rows):
        values = [v for _, v in row]
        padded[i] = values + [values[0]] * (m - len(values))
        padding_counts[i] = m - len(values)
    padded.setflags(write=False)
    padding_counts.setflags(write=False)
    return SelectionResult(admissible, m, padded, padding_counts)


def pseudo_outcome_matrix(
    dataset: OfflineDataset, t: int, source: np.ndarray | list
) -> np.ndarray:
    """(N, m) stage-t regression targets, one column per admissible rank.

    At the stage just before the final one, ``source`` is the padded value
    matrix: column j adds the patient's rank-j final-stage value to the stage
    reward. At earlier stages ``source`` is the list of m next-stage column
    models and column j adds the best value of model j at the next-stage
    features. Rows are NaN for patients absent from stage t; patients whose
    trajectory ends at stage t get their reward in every column.
    """
    t_final = dataset.horizon
    if not 0 <= t < t_final:
        raise ValueError(f"stage {t} has no future stage (horizon {t_final})")
    n = dataset.n_patients
    idx_next, feats_next, _, _ = dataset.stage_rows(t + 1)
    if isinstance(source, np.ndarray):
        if t != t_final - 1:
            raise ValueError("padded value matrix applies only at the stage before the final one")
        if source.ndim != 2 or source.shape[0] != n:
            raise ValueError(f"padded matrix has shape {source.shape}, expected ({n}, m)")
        future = source[idx_next, :]
    else:
        if t == t_final - 1:
            raise ValueError("the stage before the final one takes the padded value matrix")
        if not source:
            raise ValueError("need at least one column model")
        future = max_over_actions(source, feats_next)
    return stage_targets(dataset, t, future)


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


def backward_fit_near_equiv(
    dataset: OfflineDataset, spec: DesignSpec, cfg: EpsilonConfig
) -> NearEquivQStack:
    """Fit the final stage once, select admissible values, then fit m chains.

    The tolerance is applied to the final-stage values only; each retained
    rank then propagates backward through its own regression chain.
    """
    t_final = dataset.horizon
    try:
        final_model = fit_final_stage(dataset, spec)
    except Exception as err:
        raise StageFitError(t_final) from err
    selection = select_and_pad(final_model, dataset, cfg)
    idx_final = dataset.stage_rows(t_final)[0]
    stages = fit_chains(dataset, spec, selection.padded[idx_final, :])
    column_models = tuple(tuple(stage[j] for stage in stages) for j in range(selection.m))
    return NearEquivQStack(
        final_model=final_model,
        column_models=column_models,
        m=selection.m,
        admissible_sets=selection.admissible,
        padding_log=selection.padding_counts,
        horizon=t_final,
        action_spaces=dataset.action_spaces,
    )


def policy_set(stack: NearEquivQStack) -> tuple[GreedyPolicy, ...]:
    """The m near-equivalent greedy strategies, rank 1 first.

    Every member shares the final-stage rule (there is a single final model);
    members differ at earlier stages through their column chains.
    """
    return tuple(
        GreedyPolicy(tuple(chain) + (stack.final_model,))
        for chain in stack.column_models
    )


def near_equiv_stack_to_dict(stack: NearEquivQStack) -> dict:
    """Serialize the final model, the m x T model grid and the audit table."""
    return {
        "format_version": 1,
        "horizon": stack.horizon,
        "m": stack.m,
        "final_model": stack.final_model.to_dict(),
        "column_models": [[m.to_dict() for m in chain] for chain in stack.column_models],
        "admissible": [
            [[a, v] for a, v in row] for row in stack.admissible_sets.rows
        ],
        "padding_log": [int(c) for c in stack.padding_log],
    }


def near_equiv_stack_from_dict(payload: dict) -> NearEquivQStack:
    from .regression import model_from_dict

    if payload.get("format_version") != 1:
        raise ValueError(f"unsupported stack format version {payload.get('format_version')!r}")
    final = model_from_dict(payload["final_model"])
    chains = tuple(
        tuple(model_from_dict(m) for m in chain) for chain in payload["column_models"]
    )
    rows = tuple(
        tuple((int(a), float(v)) for a, v in row) for row in payload["admissible"]
    )
    horizon = int(payload["horizon"])
    spaces = tuple(
        (chains[0][t] if chains and chains[0] else final).action_space
        for t in range(horizon)
    ) + (final.action_space,)
    return NearEquivQStack(
        final_model=final,
        column_models=chains,
        m=int(payload["m"]),
        admissible_sets=AdmissibleSet(rows),
        padding_log=np.asarray(payload["padding_log"], dtype=int),
        horizon=horizon,
        action_spaces=spaces,
    )


def save_admissible_csv(stack: NearEquivQStack, path: str | Path) -> None:
    """Audit rows ``patient_id,rank,action_index,q_value``, best rank first."""
    lines = ["patient_id,rank,action_index,q_value"]
    for pid, row in enumerate(stack.admissible_sets.rows):
        for rank, (action, value) in enumerate(row, start=1):
            lines.append(f"{pid},{rank},{action},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")
