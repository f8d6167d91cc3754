"""Data-generating environments: a single-stage trial and a tumor/toxicity model.

Randomness is counter-based (Philox) and keyed by ``(seed, label)`` so every
draw stream can be reproduced in isolation; rows of the pre-drawn matrices act
as independent per-patient streams.

Greedy policies are rolled out in lockstep over decision-path classes,
numbered across months: each stage decides every policy with a live patient in
one :func:`~nearq.regression.greedy_actions` call (bitwise each model's argmax,
row independent) and one gather, refines (without sorting) and steps only the
live classes, and a patient who dies stays in its death-month class; per class
it keeps only the state, alive flag, parent and running reward total. Any one policy can be rolled out alone, with no
classes (its decision paths never merge): each stage steps its live patients
straight into the cohort's patient x month arrays. Both rollouts share the
policy check (which draws nothing), the dynamics, and a cohort's initial states
and death draws, drawn once per ``(seed, label)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import ActionSpace, FloatTexts, OfflineDataset, cell_texts, cohort_header, save_sidecar, write_csvs
from .qlearn import GreedyPolicy
from .regression import greedy_actions

RNG_FAMILY = "philox4x64"


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator keyed by the run seed, in [0, 2**64), and a purpose label."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    tag = int.from_bytes(hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest(), "little")
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- single-stage trial -------------------------------------------------------


@dataclass(frozen=True)
class ItrConfig:
    """Single-stage generator settings."""

    n_patients: int
    seed: int

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")


ITR_ACTIONS = ActionSpace((-1.0, 1.0))
ITR_COVARIATES = 10


def simulate_itr(cfg: ItrConfig) -> OfflineDataset:
    """Single-stage cohort with a heterogeneous treatment effect.

    Covariates are iid uniform on [-1, 1], treatment is -1/+1 with equal
    probability, and the outcome is normal with mean
    ``1 + 2*x0 + x1 + 0.5*x2 + (x0 + x1)*a`` and unit standard deviation.
    """
    rng = stream(cfg.seed, "itr")
    n = cfg.n_patients
    x = rng.uniform(-1.0, 1.0, size=(n, ITR_COVARIATES))
    action_idx = rng.integers(0, 2, size=n)
    labels = np.where(action_idx == 1, 1.0, -1.0)
    noise = rng.standard_normal(n)
    mean = 1.0 + 2.0 * x[:, 0] + x[:, 1] + 0.5 * x[:, 2] + (x[:, 0] + x[:, 1]) * labels
    y = mean + noise
    return OfflineDataset.from_rows(
        np.arange(n), np.zeros(n, dtype=int), x, action_idx, y, 0, (ITR_ACTIONS,), (ITR_COVARIATES,)
    )


# --- tumor/toxicity model -----------------------------------------------------


@dataclass(frozen=True)
class CancerParams:
    """Monthly chemotherapy model over six dose decisions.

    States are (tumor, toxicity) pairs observed at months 0..n_stages. The
    monthly update, with D the dose and (T0, X0) the patient's initial state:

        tumor  += (tumor_growth  * max(tox, X0)   - tumor_dose  * (D - dose_offset)) while tumor > 0
        tox    +=  tox_growth    * max(tumor, T0) + tox_dose    * (D - dose_offset)

    both clipped at zero. Tumor 0 is absorbing (remission). Death is drawn
    once per month at the post-update state with hazard
    ``exp(hazard_intercept + hazard_tumor*tumor + hazard_toxicity*tox)``;
    ``hazard_intercept=-math.inf`` makes the hazard zero, so nobody dies.
    """

    n_stages: int = 6
    dose_grid: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(11))
    hazard_intercept: float = -4.0
    hazard_tumor: float = 1.0
    hazard_toxicity: float = 1.0
    tumor_growth: float = 0.15
    tox_growth: float = 0.1
    tumor_dose: float = 1.2
    tox_dose: float = 1.2
    dose_offset: float = 0.5
    init_low: float = 0.0
    init_high: float = 2.0

    def __post_init__(self):
        if isinstance(self.n_stages, bool) or not isinstance(self.n_stages, int) or self.n_stages < 1:
            raise ValueError(f"n_stages must be an int >= 1, got {self.n_stages!r}")
        if len(self.dose_grid) < 2:
            raise ValueError("dose_grid needs at least two doses")
        try:
            self.action_space
        except ValueError as err:
            raise ValueError(f"dose_grid {self.dose_grid!r}: {err}") from err
        for field in fields(self)[2:]:  # the coefficients, after n_stages and dose_grid
            value = getattr(self, field.name)
            if not (math.isfinite(value) or field.name == "hazard_intercept" and value == -math.inf):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.init_low > self.init_high:
            raise ValueError(f"init_low {self.init_low!r} exceeds init_high {self.init_high!r}")

    @cached_property
    def action_space(self) -> ActionSpace:
        """The dose grid as an action space, built once per parameter set."""
        return ActionSpace(self.dose_grid)


def _step_arrays(params: CancerParams, tumor, tox, tumor0, tox0, dose, death_u):
    """Vectorized monthly update and reward; returns (next_tumor, next_tox, died, reward).

    A patient dies when its ``death_u`` draw is below its post-update death probability.
    """
    growing = tumor > 0.0
    d_tumor = (params.tumor_growth * np.maximum(tox, tox0)
               - params.tumor_dose * (dose - params.dose_offset)) * growing
    d_tox = params.tox_growth * np.maximum(tumor, tumor0) + params.tox_dose * (dose - params.dose_offset)
    next_tumor = np.maximum(tumor + d_tumor, 0.0)
    next_tox = np.maximum(tox + d_tox, 0.0)
    lam = np.exp(params.hazard_intercept
                 + params.hazard_tumor * next_tumor
                 + params.hazard_toxicity * next_tox)
    died = death_u < 1.0 - np.exp(-lam)
    return next_tumor, next_tox, died, _reward_arrays(tumor, tox, next_tumor, next_tox, died)


def _reward_arrays(tumor, tox, next_tumor, next_tox, died):
    """Sum of survival, toxicity-change and tumor-response components."""
    r_survival = np.where(died, -60.0, 0.0)
    r_tox = np.where(next_tox - tox <= -0.5, 5.0, -5.0)
    r_tumor = np.where(next_tumor == 0.0, 15.0, np.where(next_tumor - tumor <= -0.5, 5.0, -5.0))
    return r_survival + r_tox + r_tumor


UNIFORM_RANDOM = "uniform-random"


@dataclass(frozen=True)
class CancerCohort:
    """Simulated cohort: the full state paths; the offline dataset and the cell texts are built on
    first read.

    Paths have one column per month 0..n_stages; once a patient dies the
    state columns stop changing (the death-month state is carried forward).
    ``alive[:, t]`` flags patients alive at the start of month t;
    ``dose_index`` (into ``action_space``) and ``rewards`` are -1/0 after
    death. :func:`simulate_cancer_cohort` steps a policy's live patients
    straight into these arrays; the dataset's rows are their alive
    patient-months, and an evaluation of a policy rolled out alone aggregates
    tumor plus toxicity and the row sums of ``rewards``.
    """

    tumor: np.ndarray
    toxicity: np.ndarray
    alive: np.ndarray
    dose_index: np.ndarray
    rewards: np.ndarray
    action_space: ActionSpace

    @cached_property
    def dataset(self) -> OfflineDataset:
        n_stages = self.dose_index.shape[1]
        # row-major nonzero: patient by patient, each alive from month 0 until death
        patient, stage = np.nonzero(self.alive[:, :n_stages])
        return OfflineDataset.from_rows(
            patient, stage,
            np.column_stack([self.tumor[patient, stage], self.toxicity[patient, stage]]),
            self.dose_index[patient, stage], self.rewards[patient, stage],
            n_stages - 1, (self.action_space,) * n_stages, (2,) * n_stages,
        )

    @cached_property
    def texts(self) -> FloatTexts:
        """The cell texts of the tumor, toxicity and reward arrays, each distinct value's made once,
        on first read and kept with the cohort. The trajectories and cohort CSVs read every state and
        reward cell here, and a stack fitted on the cohort reads each kernel input, a training
        row's state (:func:`~nearq.qlearn.save_stack`)."""
        return FloatTexts(self.tumor, self.toxicity, self.rewards)


def check_policy(params: CancerParams, policy, name: str):
    """Policy ``name`` checked, with no draw, for a rollout under ``params``: a constant dose's
    action index, "uniform-random" as is, or a callable ``(t, states) -> action indices``. A greedy
    policy must have a model for every stage. A policy that cannot be rolled out raises
    ``ValueError`` naming it."""
    if isinstance(policy, GreedyPolicy) and policy.horizon < params.n_stages - 1:
        raise ValueError(f"policy {name!r} has no model for stage {policy.horizon + 1}"
                         f" of a {params.n_stages}-stage rollout")
    if isinstance(policy, str) and policy == UNIFORM_RANDOM:
        return policy
    if isinstance(policy, (int, float, np.integer)) and not isinstance(policy, bool):
        try:
            return params.action_space.index_of(float(policy))
        except ValueError as err:
            raise ValueError(f"policy {name!r}: {err}") from None
    if callable(policy):
        return policy
    raise ValueError(f"policy {name!r}: unsupported policy spec {policy!r}")


def _decide(decider, name: str, t: int, states, n_actions: int):
    """Policy ``name``'s actions at stage t for its live patients: a constant dose's index as is,
    for the caller to fill, or the callable's answer on ``states()``, the (k, 2) live states in
    patient order, which must be k integer action indices in [0, n_actions). Never called
    without a live patient."""
    if not callable(decider):
        return decider
    rows = states()
    idx = np.asarray(decider(t, rows))
    if idx.dtype.kind not in "iu" or idx.shape != (len(rows),) or idx.min() < 0 or idx.max() >= n_actions:
        raise ValueError(f"policy {name!r} returned invalid action indices at stage {t}: expected"
                         f" {len(rows)} integers in [0, {n_actions}), got {idx.dtype} of shape {idx.shape}")
    return idx


def simulate_cancer_cohort(
    params: CancerParams,
    policy,
    n: int,
    seed: int,
    *,
    label: str = "train",
    name: str = "#0",
) -> CancerCohort:
    """Roll out n independent trajectories under one policy.

    ``policy`` is the string "uniform-random" (drawn from the cohort's dose
    stream), a dose value from the grid (constant regime), or a callable
    ``(t, features_matrix) -> action indices``; ``name`` labels it in error
    messages, and it is checked before any draw. Initial tumor and toxicity are
    iid uniform on ``[params.init_low, params.init_high]``, and all draws come
    from streams keyed by ``(seed, label/purpose)``, so two calls with the same
    arguments produce identical cohorts, and calls sharing ``(seed, label)``
    share initial states and death draws regardless of the policy.

    One policy's decision paths never merge, so there are no classes: each
    stage decides and steps the live patients in patient order, from states
    kept compacted to them, and stores them straight into the cohort's patient
    x month arrays; the policy is never asked about zero patients. So a greedy
    policy's states, alive flags and reward totals are bitwise the ones
    :func:`simulate_cancer_cohorts` gives it in any lockstep.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    decider = check_policy(params, policy, name)
    space = params.action_space
    if isinstance(decider, str):  # uniform-random
        dose_rng = stream(seed, f"{label}/dose")
        decider = lambda t, feats: dose_rng.integers(0, space.size, size=feats.shape[0])
    init, death_u = _cohort_draws(seed, label, n, params.n_stages, params.init_low, params.init_high)
    dose_values = np.asarray(space.values)
    months = params.n_stages + 1
    tumor, tox = np.empty((n, months)), np.empty((n, months))
    alive = np.zeros((n, months), dtype=bool)
    dose_index, rewards = np.full((n, months - 1), -1), np.zeros((n, months - 1))
    tumor[:, 0], tox[:, 0], alive[:, 0] = init[:, 0], init[:, 1], True
    # the live patients, ascending, and their states, kept compacted to them
    live, now_tumor, now_tox, tumor0, tox0 = np.arange(n), init[:, 0], init[:, 1], init[:, 0], init[:, 1]
    for t in range(params.n_stages):
        tumor[:, t + 1], tox[:, t + 1] = tumor[:, t], tox[:, t]  # a dead patient's state is carried forward
        if not live.size:  # everyone has died: the stage steps no one and asks the policy nothing
            continue
        action = _decide(decider, name, t, lambda: np.column_stack([now_tumor, now_tox]), dose_values.size)
        next_tumor, next_tox, died, reward = _step_arrays(
            params, now_tumor, now_tox, tumor0, tox0, dose_values[action], death_u[live, t])
        tumor[live, t + 1], tox[live, t + 1], alive[live, t + 1] = next_tumor, next_tox, ~died
        dose_index[live, t], rewards[live, t] = action, reward
        kept = ~died
        live, now_tumor, now_tox, tumor0, tox0 = (a[kept] for a in (live, next_tumor, next_tox, tumor0, tox0))
    for arr in (tumor, tox, alive, dose_index, rewards):
        arr.setflags(write=False)
    return CancerCohort(tumor, tox, alive, dose_index, rewards, space)


@lru_cache(maxsize=1)
def _cohort_draws(seed: int, label: str, n: int, n_stages: int, low: float, high: float):
    """Read-only initial states (n, 2) and monthly death draws (n, n_stages) of cohort
    ``(seed, label)``. A pure function of its arguments, memoized: the rollouts of one
    evaluation seed (the constant doses, then the learned policies) draw its streams once."""
    init = stream(seed, f"{label}/init").uniform(low, high, size=(n, 2))
    death_u = stream(seed, f"{label}/death").uniform(size=(n, n_stages))
    init.setflags(write=False)
    death_u.setflags(write=False)
    return init, death_u


def _refine(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for integer keys in [0, width), without sorting:
    the ascending distinct keys, and each key's rank among them as int32 in the keys' shape."""
    seen = np.zeros(width, dtype=bool)
    seen[keys] = True
    uniq = np.flatnonzero(seen)
    rank = np.empty(width, dtype=np.int32)
    rank[uniq] = np.arange(uniq.size, dtype=np.int32)
    return uniq, rank[keys]


@dataclass(frozen=True)
class LockstepRollout:
    """Decision-path class history of a lockstep rollout, one entry per class.

    Month t's classes are ids ``starts[t]`` on; each was made at stage t - 1
    from a live class (``parents``), and month 0's, the patients, hold -1.
    ``states`` (C, 2), ``alive`` and ``totals`` hold each class's tumor,
    toxicity, alive flag and reward total so far (0.0 at month 0). A patient who
    dies stays in its death-month class, so ``final[j, i]``, the class of policy
    j's patient i after the last stage, is of any month and holds its total.
    """

    states: np.ndarray
    alive: np.ndarray
    parents: np.ndarray
    totals: np.ndarray
    final: np.ndarray
    starts: np.ndarray

    def ancestors(self) -> Iterator[np.ndarray]:
        """Per month from n_stages back to 0, each class's class at that month: its ancestor, or
        itself if it is of that month or an earlier one, where its patient died."""
        here = np.arange(len(self.parents))
        yield here
        for start in self.starts[:0:-1]:  # each month's first class, last month first: it and later ones step back
            here = here.copy()
            here[start:] = self.parents[here[start:]]
            yield here


def simulate_cancer_cohorts(
    params: CancerParams,
    policies,
    n: int,
    seed: int,
    *,
    label: str = "train",
    names=None,
) -> LockstepRollout:
    """Roll out greedy policies on one cohort in lockstep; returns the class history, along whose
    ancestors of ``final[j]`` policy j's states and alive flags, and at whose ``final[j]`` its reward
    totals, lie.

    All policies see the same initial states and death draws (common random
    numbers), so a (policy, patient) pair's trajectory is fixed by its patient
    and dose history. Pairs with the same patient and dose history form one
    decision-path class: each stage refines the live classes once, by (class,
    action), without sorting (:func:`_refine`), and steps each new class once;
    a dead patient's class is never keyed, stepped or stored again.

    Every policy must be a :class:`~nearq.qlearn.GreedyPolicy` with a model for
    each stage; any other is refused, named (by ``names``, one per policy),
    before any draw. The policies decide together: while any class is live, one
    :func:`~nearq.regression.greedy_actions` call per stage over the models of
    the policies with a live pair (a policy whose patients have all died is not
    asked) and every live class's state, and one gather reads each live pair's
    action at its policy's row and its class. Those actions are bitwise each
    model's ``np.argmax`` of its predictions and row independent (tests pin the
    interaction-linear ones), so each policy's states, alive flags and reward
    totals are bitwise the ones it gets alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    policies = list(policies)
    names = list(names) if names is not None else [f"#{j}" for j in range(len(policies))]
    if len(names) != len(policies):
        raise ValueError(f"{len(names)} names for {len(policies)} policies")
    for policy, name in zip(policies, names):
        if not isinstance(policy, GreedyPolicy):
            raise ValueError(f"policy {name!r} is not a GreedyPolicy: a lockstep rolls out greedy policies only")
        check_policy(params, policy, name)
    n_stages = params.n_stages
    space = params.action_space
    n_actions = space.size

    init, death_u = _cohort_draws(seed, label, n, n_stages, params.init_low, params.init_high)
    dose_values = np.asarray(space.values)

    # one block per month of each per-class array; month 0's classes are the patients
    states, alive = [init], [np.ones(n, dtype=bool)]
    parents, totals = [np.full(n, -1, dtype=np.int32)], [np.zeros(n)]
    starts, patient = [0], np.arange(n)
    # cls[j * n + i] is the class of policy j's patient i; pairs, the flat indices of the live
    # (policy, patient) pairs, ascending, so a pair's policy is pair // n
    cls = np.tile(np.arange(n, dtype=np.int32), len(policies))
    pairs = np.arange(cls.size, dtype=np.int32 if cls.size < 2**31 else np.int64)
    for t in range(n_stages):
        first, here = starts[t], states[t]
        width = len(here) * n_actions
        key_type = np.int32 if width < 2**31 else np.int64
        # only the policies with a live pair are asked, one row of actions each: policy j has one
        # where the ascending pairs hold one in [j n, (j + 1) n); once everyone has died, none is
        ends = np.arange(len(policies) + 1, dtype=pairs.dtype) * n
        asked = np.flatnonzero(np.diff(np.searchsorted(pairs, ends)))
        row = np.zeros(len(policies), dtype=pairs.dtype)
        row[asked] = np.arange(asked.size)
        actions = np.empty((0, 0), dtype=int)
        if asked.size:
            actions = greedy_actions([policies[j].models[t] for j in asked], here[alive[t]])
        # a pair's key is its class, counted from first, and its action, read in one gather at its
        # policy's row of actions and its class's position among the live classes
        local = cls[pairs] - first
        keys = local.astype(key_type, copy=False) * n_actions
        keys += actions[row[pairs // n], (np.cumsum(alive[t]) - 1)[local]]
        del actions
        uniq, rank = _refine(keys, width)
        del keys, local
        src, action = np.divmod(uniq, n_actions)
        patient = patient[src]
        next_tumor, next_tox, died, reward = _step_arrays(
            params, here[src, 0], here[src, 1], init[patient, 0], init[patient, 1],
            dose_values[action], death_u[patient, t],
        )
        starts.append(first + len(here))
        states.append(np.column_stack([next_tumor, next_tox]))
        alive.append(~died)
        parents.append((src + first).astype(np.int32))
        totals.append(totals[t][src] + reward)
        cls[pairs] = rank + starts[-1]
        pairs = pairs[alive[-1][rank]]

    return LockstepRollout(*(np.concatenate(blocks) for blocks in (states, alive, parents, totals)),
                           cls.reshape(len(policies), n), np.array(starts))


def save_trajectories_csv(cohort: CancerCohort, path: str | Path, train: str | Path | None = None) -> None:
    """Per-month state log ``patient_id,stage,tumor,toxicity,dose,reward,alive``; with ``train``,
    also the cohort CSV of ``cohort.dataset`` and its sidecar there, the bytes
    :func:`~nearq.core.save_csv` writes, in the same pass.

    Both files are written a block of patients at a time, and no float is
    formatted here: every state and reward cell reads the text of its value in
    ``cohort.texts``, made once per cohort by :func:`~nearq.core.cell_texts`, so a
    state carried forward after death and a value the training rows repeat
    reuse one text, which the fitted stack's writer reads again. A dose reads
    its grid label's text.
    """
    headers = {path: "patient_id,stage,tumor,toxicity,dose,reward,alive"}
    if train is not None:
        headers[train] = cohort_header(2)
    grid = cell_texts(np.array(cohort.action_space.values)) + [""]  # dose index -1: no dose
    write_csvs(headers, len(cohort.tumor), lambda lo, hi: _cohort_columns(cohort, grid, lo, hi)[:len(headers)])
    if train is not None:
        save_sidecar(cohort.dataset, train)


def _cohort_columns(cohort: CancerCohort, grid: list[str], lo: int, hi: int) -> tuple[list, list]:
    """The trajectories columns of patients lo..hi-1, then the cohort CSV columns of their rows."""
    alive = cohort.alive[lo:hi]
    n, months = alive.shape
    (texts, tumor), (_, tox), (_, reward) = cohort.texts.columns
    tumor, tox = tumor[lo:hi].ravel(), tox[lo:hi].ravel()
    rows = np.zeros_like(alive)  # the cells of the cohort rows: alive, at a decision month
    rows[:, :-1] = alive[:, :-1]
    rewards = list(map(texts.__getitem__, reward[lo:hi][rows[:, :-1]].tolist())) + [""]
    reward_at = np.full(alive.shape, -1)  # -1: the empty text appended last
    reward_at[rows] = np.arange(len(rewards) - 1)
    dose_at = np.full(alive.shape, -1)
    dose_at[:, :-1] = cohort.dose_index[lo:hi]
    patient, stage = np.repeat(np.arange(lo, hi), months), np.tile(np.arange(months), n)
    at = np.flatnonzero(rows)
    dose_at, reward_at = dose_at.ravel(), reward_at.ravel()
    return (
        [patient, stage, (texts, tumor), (texts, tox), (grid, dose_at), (rewards, reward_at),
         alive.ravel().astype(np.int8)],
        [patient[at], stage[at], (texts, tumor[at]), (texts, tox[at]), dose_at[at], (rewards, reward_at[at])],
    )
