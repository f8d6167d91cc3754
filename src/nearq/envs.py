"""Data-generating environments: a single-stage trial and a tumor/toxicity model.

Randomness is counter-based (Philox) and keyed by ``(seed, label)`` so every
draw stream can be reproduced in isolation; rows of the pre-drawn matrices act
as independent per-patient streams.

The tumor/toxicity rollout steps many policies in lockstep and decides every
greedy policy, of any regression backend, in one batched argmax per stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import ActionSpace, OfflineDataset, write_csv
from .qlearn import GreedyPolicy
from .regression import best_over_actions

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
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if len(self.dose_grid) < 2:
            raise ValueError("dose grid needs at least two doses")

    @property
    def action_space(self) -> ActionSpace:
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
    """Simulated cohort: the full state paths; the offline dataset is built on first read.

    Paths have one column per month 0..n_stages; once a patient dies the
    state columns stop changing (the death-month state is carried forward).
    ``alive[:, t]`` flags patients alive at the start of month t;
    ``dose_index`` (into ``action_space``) and ``rewards`` are -1/0 after
    death. A rollout builds only these arrays; the dataset's rows are their
    alive patient-months.
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


def _resolve_policy(params: CancerParams, policy, dose_rng: np.random.Generator | None):
    space = params.action_space
    if isinstance(policy, str) and policy == UNIFORM_RANDOM:
        return lambda t, feats: dose_rng.integers(0, space.size, size=feats.shape[0])
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        k = space.index_of(float(policy))
        return lambda t, feats: np.full(feats.shape[0], k, dtype=int)
    if callable(policy):
        return policy
    raise ValueError(f"unsupported policy spec {policy!r}")


def simulate_cancer_cohort(
    params: CancerParams,
    policy,
    n: int,
    seed: int,
    *,
    label: str = "train",
) -> CancerCohort:
    """Roll out n independent trajectories under one policy.

    ``policy`` is the string "uniform-random", a dose value from the grid
    (constant regime), or a callable ``(t, features_matrix) -> action indices``.
    This is the one-policy case of :func:`simulate_cancer_cohorts`: initial
    tumor and toxicity are iid uniform on ``[params.init_low,
    params.init_high]``, and all draws come from streams keyed by
    ``(seed, label/purpose)``, so two calls with the same arguments produce
    identical cohorts, and calls sharing ``(seed, label)`` share initial states
    and death draws regardless of the policy.
    """
    (cohort,) = simulate_cancer_cohorts(params, [policy], n, seed, label=label)
    return cohort


def simulate_cancer_cohorts(
    params: CancerParams,
    policies,
    n: int,
    seed: int,
    *,
    label: str = "train",
    names=None,
):
    """Roll out every policy on one cohort in lockstep; returns an iterator over their cohorts.

    All policies see the same initial states and death draws (common random
    numbers), so a (policy, patient) pair's trajectory is fixed by its patient
    and dose history. Pairs with the same patient and dose history form one
    decision-path class: each stage refines the classes once, by (class,
    action), and steps each new class once. A policy decides at stage t on the
    states of the live classes its patients are in, in patient order, so a
    policy's cohort is bitwise the one it would get alone.

    The :class:`~nearq.qlearn.GreedyPolicy` policies decide together: one
    :func:`~nearq.regression.best_over_actions` call per stage over every live
    class's state, so models from one fit build one kernel matrix per action,
    and each policy reads its own rows (kernel predictions are row independent
    by construction; tests pin the interaction-linear ones); states that only
    other policies reach are evaluated too. Every other policy is called on its
    own class states. ``names`` label the policies in error messages. At most
    one policy may be "uniform-random", since it reads the one dose stream.
    Every stage runs before this returns; each policy's cohort is built from
    the class history when the iterator reaches it, so only one is held at a
    time.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    policies = list(policies)
    names = list(names) if names is not None else [f"#{j}" for j in range(len(policies))]
    uniform = [isinstance(p, str) and p == UNIFORM_RANDOM for p in policies]
    if sum(uniform) > 1:
        raise ValueError(f"at most one {UNIFORM_RANDOM!r} policy per rollout: they would share one dose stream")
    n_stages = params.n_stages
    greedy = [j for j, p in enumerate(policies) if isinstance(p, GreedyPolicy)]
    for j in greedy:
        if policies[j].horizon < n_stages - 1:
            raise ValueError(f"policy {names[j]!r} has no model for stage {policies[j].horizon + 1}"
                             f" of a {n_stages}-stage rollout")
    space = params.action_space
    n_actions = space.size

    init = stream(seed, f"{label}/init").uniform(params.init_low, params.init_high, size=(n, 2))
    death_u = stream(seed, f"{label}/death").uniform(size=(n, n_stages))
    dose_rng = stream(seed, f"{label}/dose") if any(uniform) else None
    deciders = [_resolve_policy(params, p, dose_rng) for p in policies]
    dose_values = np.asarray(space.values)

    # per stage: class states, alive flags, parent classes, dose index (-1: dead) and reward
    states, alive, patient = [init], [np.ones(n, dtype=bool)], np.arange(n)
    parents, doses, rewards = [], [], []
    cls = np.broadcast_to(np.arange(n, dtype=np.int32), (len(policies), n))
    for t in range(n_stages):
        live = alive[t][cls]
        visits = [row[ok] if ok.any() else None for row, ok in zip(cls, live)]
        deciding, decided = [j for j in greedy if visits[j] is not None], {}
        if deciding:
            _, actions = best_over_actions([policies[j].models[t] for j in deciding],
                                           states[t][np.flatnonzero(alive[t])])
            position = np.cumsum(alive[t]) - 1  # a live class's row among the live classes
            decided = {j: actions[c, position[visits[j]]] for c, j in enumerate(deciding)}
            del actions, position
        # the key's action n_actions marks a dead class, carried forward unchanged
        key_type = np.int32 if len(states[t]) * (n_actions + 1) < 2**31 else np.int64
        keys = np.full(cls.shape, n_actions, dtype=key_type)
        for j, rows in enumerate(visits):
            if rows is None:
                continue
            idx = decided[j] if j in decided else np.asarray(deciders[j](t, states[t][rows]), dtype=int)
            if idx.shape != rows.shape or idx.min() < 0 or idx.max() >= n_actions:
                raise ValueError(f"policy {names[j]!r} returned invalid action indices at stage {t}")
            keys[j, live[j]] = idx
        keys += cls.astype(key_type) * (n_actions + 1)
        del live, visits, decided
        uniq, inverse = np.unique(keys, return_inverse=True)
        del keys
        cls = inverse.reshape(cls.shape).astype(np.int32)
        del inverse
        parent, action = np.divmod(uniq, n_actions + 1)
        parent = parent.astype(np.int32)
        dosed = action < n_actions
        src = parent[dosed]
        who = patient[src]
        next_states = states[t][parent]
        next_alive = np.zeros(parent.size, dtype=bool)
        reward = np.zeros(parent.size)
        next_tumor, next_tox, died, reward[dosed] = _step_arrays(
            params, states[t][src, 0], states[t][src, 1], init[who, 0], init[who, 1],
            dose_values[action[dosed]], death_u[who, t],
        )
        next_states[dosed, 0] = next_tumor
        next_states[dosed, 1] = next_tox
        next_alive[dosed] = ~died
        states.append(next_states)
        alive.append(next_alive)
        parents.append(parent)
        doses.append(np.where(dosed, action, -1))
        rewards.append(reward)
        patient = patient[parent]

    return (_walk_back(final, states, alive, parents, doses, rewards, space) for final in cls)


def _walk_back(cls, states, alive, parents, doses, rewards, space) -> CancerCohort:
    """One policy's cohort from its final class ids, following parent classes back to month 0."""
    n, n_stages = cls.size, len(parents)
    tumor = np.empty((n, n_stages + 1))
    tox = np.empty((n, n_stages + 1))
    alive_path = np.empty((n, n_stages + 1), dtype=bool)
    dose_idx = np.empty((n, n_stages), dtype=int)
    reward_path = np.empty((n, n_stages))
    for t in range(n_stages, -1, -1):
        tumor[:, t] = states[t][cls, 0]
        tox[:, t] = states[t][cls, 1]
        alive_path[:, t] = alive[t][cls]
        if t:
            dose_idx[:, t - 1] = doses[t - 1][cls]
            reward_path[:, t - 1] = rewards[t - 1][cls]
            cls = parents[t - 1][cls]
    for arr in (tumor, tox, alive_path, dose_idx, reward_path):
        arr.setflags(write=False)
    return CancerCohort(tumor, tox, alive_path, dose_idx, reward_path, space)


def save_trajectories_csv(cohort: CancerCohort, path: str | Path) -> None:
    """Per-month state log: patient_id,stage,tumor,toxicity,dose,reward,alive."""
    n_decisions = cohort.dose_index.shape[1]
    grid = [repr(v) for v in cohort.action_space.values]

    def patient_lines(i, tumor, tox, doses, rewards, alive):
        lines = []
        for t in range(n_decisions + 1):
            dose = grid[doses[t]] if t < n_decisions and doses[t] >= 0 else ""
            reward = repr(rewards[t]) if t < n_decisions and alive[t] else ""
            lines.append(f"{i},{t},{tumor[t]!r},{tox[t]!r},{dose},{reward},{int(alive[t])}\n")
        return "".join(lines)

    write_csv(
        path, "patient_id,stage,tumor,toxicity,dose,reward,alive", patient_lines,
        range(len(cohort.tumor)), cohort.tumor, cohort.toxicity, cohort.dose_index, cohort.rewards, cohort.alive,
    )
