"""Data-generating environments: a single-stage trial and a tumor/toxicity model.

Randomness is counter-based (Philox) and keyed by ``(seed, label)`` so every
draw stream can be reproduced in isolation; rows of the pre-drawn matrices act
as independent per-patient streams.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import ActionSpace, OfflineDataset

RNG_FAMILY = "philox4x64"
_MASK64 = (1 << 64) - 1


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator keyed by the run seed and a purpose label."""
    tag = int.from_bytes(hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest(), "little")
    key = np.array([seed & _MASK64, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- single-stage trial -------------------------------------------------------


@dataclass(frozen=True)
class ItrConfig:
    """Single-stage generator settings.

    ``noise_sd`` exists as a test hook; the generated outcome has unit noise
    by default.
    """

    n_patients: int
    seed: int
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")


ITR_ACTIONS = ActionSpace((-1.0, 1.0))
ITR_COVARIATES = 10


def simulate_itr(cfg: ItrConfig) -> OfflineDataset:
    """Single-stage cohort with a heterogeneous treatment effect.

    Covariates are iid uniform on [-1, 1], treatment is -1/+1 with equal
    probability, and the outcome is normal with mean
    ``1 + 2*x0 + x1 + 0.5*x2 + (x0 + x1)*a`` and standard deviation
    ``cfg.noise_sd``.
    """
    rng = stream(cfg.seed, "itr")
    n = cfg.n_patients
    x = rng.uniform(-1.0, 1.0, size=(n, ITR_COVARIATES))
    action_idx = rng.integers(0, 2, size=n)
    labels = np.where(action_idx == 1, 1.0, -1.0)
    noise = rng.standard_normal(n) * cfg.noise_sd
    mean = 1.0 + 2.0 * x[:, 0] + x[:, 1] + 0.5 * x[:, 2] + (x[:, 0] + x[:, 1]) * labels
    y = mean + noise
    return OfflineDataset.from_rows(
        np.arange(n), np.zeros(n, dtype=int), x, action_idx, y, 0, (ITR_ACTIONS,), (ITR_COVARIATES,)
    )


def true_blip(x: np.ndarray) -> float:
    """Treatment effect 2*(x0 + x1); its sign is the best single-stage action."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ITR_COVARIATES,):
        raise ValueError(f"expected a {ITR_COVARIATES}-entry covariate vector")
    return 2.0 * float(x[0] + x[1])


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
    ``exp(hazard_intercept + hazard_tumor*tumor + hazard_toxicity*tox)``.
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


@dataclass(frozen=True)
class CancerState:
    """Patient state: current burden plus the initial values the dynamics use."""

    tumor: float
    toxicity: float
    alive: bool = True
    cured: bool = False
    tumor0: float = field(default=float("nan"))
    tox0: float = field(default=float("nan"))

    def __post_init__(self):
        if math.isnan(self.tumor0):
            object.__setattr__(self, "tumor0", float(self.tumor))
        if math.isnan(self.tox0):
            object.__setattr__(self, "tox0", float(self.toxicity))
        if self.tumor < 0 or self.toxicity < 0:
            raise ValueError("tumor and toxicity must be nonnegative")
        object.__setattr__(self, "cured", self.tumor == 0.0)


def _step_arrays(params: CancerParams, tumor, tox, tumor0, tox0, dose, death_u):
    """Vectorized monthly update and reward; returns (next_tumor, next_tox, died, reward).

    A patient dies when its ``death_u`` draw is below its post-update death probability; None: no deaths.
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
    died = np.zeros(lam.shape, dtype=bool) if death_u is None else death_u < 1.0 - np.exp(-lam)
    return next_tumor, next_tox, died, _reward_arrays(tumor, tox, next_tumor, next_tox, died)


def _reward_arrays(tumor, tox, next_tumor, next_tox, died):
    """Sum of survival, toxicity-change and tumor-response components."""
    r_survival = np.where(died, -60.0, 0.0)
    r_tox = np.where(next_tox - tox <= -0.5, 5.0, -5.0)
    r_tumor = np.where(next_tumor == 0.0, 15.0, np.where(next_tumor - tumor <= -0.5, 5.0, -5.0))
    return r_survival + r_tox + r_tumor


def cancer_transition(
    params: CancerParams,
    state: CancerState,
    dose: float,
    rng: np.random.Generator | None,
) -> tuple[CancerState, bool]:
    """One monthly step from a single state.

    ``rng`` draws the survival event at the post-update state; pass None to
    disable the death draw (deterministic dynamics only).
    """
    if not state.alive:
        raise ValueError("cannot step a dead patient")
    if min(abs(dose - g) for g in params.dose_grid) > 1e-9:
        raise ValueError(f"dose {dose!r} is not on the grid {params.dose_grid}")
    next_tumor, next_tox, died, _ = _step_arrays(
        params,
        np.array([state.tumor]), np.array([state.toxicity]),
        np.array([state.tumor0]), np.array([state.tox0]),
        np.array([float(dose)]),
        None if rng is None else np.array([rng.uniform()]),
    )
    nxt = CancerState(
        tumor=float(next_tumor[0]),
        toxicity=float(next_tox[0]),
        alive=not died[0],
        tumor0=state.tumor0,
        tox0=state.tox0,
    )
    return nxt, bool(died[0])


def cancer_reward(prev: CancerState, nxt: CancerState, died: bool) -> float:
    """Sum of survival, toxicity-change and tumor-response components."""
    return float(_reward_arrays(prev.tumor, prev.toxicity, nxt.tumor, nxt.toxicity, died))


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
    if policy == UNIFORM_RANDOM:
        if dose_rng is None:
            raise ValueError("uniform-random policy needs a dose stream")
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
    disable_death: bool = False,
) -> CancerCohort:
    """Roll out n independent trajectories under a policy.

    ``policy`` is the string "uniform-random", a dose value from the grid
    (constant regime), or a callable ``(t, features_matrix) -> action indices``.
    Initial tumor and toxicity are iid uniform on
    ``[params.init_low, params.init_high]``. All draws come from streams keyed
    by ``(seed, label/purpose)``, so two calls with the same arguments produce
    identical cohorts, and calls sharing ``(seed, label)`` share initial states
    and death draws regardless of the policy.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_stages = params.n_stages
    space = params.action_space

    init = stream(seed, f"{label}/init").uniform(params.init_low, params.init_high, size=(n, 2))
    death_u = stream(seed, f"{label}/death").uniform(size=(n, n_stages))
    dose_rng = stream(seed, f"{label}/dose") if policy == UNIFORM_RANDOM else None
    decide = _resolve_policy(params, policy, dose_rng)

    tumor = np.empty((n, n_stages + 1))
    tox = np.empty((n, n_stages + 1))
    alive = np.zeros((n, n_stages + 1), dtype=bool)
    dose_idx = np.full((n, n_stages), -1, dtype=int)
    rewards = np.zeros((n, n_stages))

    tumor[:, 0] = init[:, 0]
    tox[:, 0] = init[:, 1]
    alive[:, 0] = True
    tumor0 = init[:, 0].copy()
    tox0 = init[:, 1].copy()
    dose_values = np.asarray(space.values)

    for t in range(n_stages):
        live = alive[:, t]
        # default: carry the previous state forward for the dead
        tumor[:, t + 1] = tumor[:, t]
        tox[:, t + 1] = tox[:, t]
        if not live.any():
            continue
        feats = np.column_stack([tumor[live, t], tox[live, t]])
        idx = np.asarray(decide(t, feats), dtype=int)
        if idx.shape != (int(live.sum()),) or idx.min() < 0 or idx.max() >= space.size:
            raise ValueError("policy returned invalid action indices")
        dose_idx[live, t] = idx
        next_tumor, next_tox, died, rewards[live, t] = _step_arrays(
            params, tumor[live, t], tox[live, t], tumor0[live], tox0[live], dose_values[idx],
            None if disable_death else death_u[live, t],
        )
        tumor[live, t + 1] = next_tumor
        tox[live, t + 1] = next_tox
        alive[:, t + 1] = live
        alive[live, t + 1] = ~died

    for arr in (tumor, tox, alive, dose_idx, rewards):
        arr.setflags(write=False)
    return CancerCohort(tumor, tox, alive, dose_idx, rewards, space)


def save_trajectories_csv(cohort: CancerCohort, path: str | Path) -> None:
    """Per-month state log: patient_id,stage,tumor,toxicity,dose,reward,alive."""
    n_decisions = cohort.dose_index.shape[1]
    lines = ["patient_id,stage,tumor,toxicity,dose,reward,alive"]
    grid = [repr(v) for v in cohort.action_space.values]
    for i, (tumor, tox, doses, rewards, alive) in enumerate(zip(
        cohort.tumor.tolist(), cohort.toxicity.tolist(), cohort.dose_index.tolist(),
        cohort.rewards.tolist(), cohort.alive.tolist(),
    )):
        for t in range(n_decisions + 1):
            dose = grid[doses[t]] if t < n_decisions and doses[t] >= 0 else ""
            reward = repr(rewards[t]) if t < n_decisions and alive[t] else ""
            lines.append(f"{i},{t},{tumor[t]!r},{tox[t]!r},{dose},{reward},{int(alive[t])}")
    Path(path).write_text("\n".join(lines) + "\n")
