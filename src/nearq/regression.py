"""Regression backends for Q-function estimation.

Two designs are provided:

* ``interaction-linear``: least squares on the regressor list
  ``[1, X_0..X_{d-1}, A, A*X_0..A*X_{d-1}]`` where ``A`` is the numeric action
  label. With two actions coded -1/+1 this is the full treatment-covariate
  interaction model.
* ``per-action-kernel``: one RBF kernel ridge regressor per action
  (``Q(h, a) = model_a(h)``); the action never enters the kernel. Targets are
  centered per action (an unpenalized intercept), so predictions shrink toward
  the action's mean target rather than toward zero.

Both solve regularized normal equations through a symmetric positive definite
factorization, so fitting is deterministic: identical inputs give bitwise
identical parameters. Rank deficiency surfaces as a factorization failure and
is reported as :class:`RankDeficientError`.

:func:`fit_columns` fits target columns that share rows, features and actions:
each normal-equation matrix is factorized once and solved per column
(Rasmussen & Williams 2006, Alg. 2.1), and the kernel models share each
action's inputs, so :func:`max_over_actions` builds each kernel matrix once.
Solves and matrix-vector products stay per column, so column j is bitwise
equal to a single-column fit on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.linalg

from .core import ActionSpace

MODE_LINEAR = "interaction-linear"
MODE_KERNEL = "per-action-kernel"

FORMAT_VERSION = 1


class RankDeficientError(ValueError):
    """Normal equations could not be factorized; the design is rank deficient."""


@dataclass(frozen=True)
class DesignSpec:
    """Choice of regression backend and its hyperparameters.

    ``kernel_bandwidth`` is the RBF exponent coefficient in
    ``exp(-bandwidth * ||u - v||^2)``; ``None`` resolves to ``1 / (d + 1)`` at
    fit time, with ``d`` the feature dimension (one slot reserved for the
    action). ``ridge`` is the L2 regularization weight added to the normal
    equations.
    """

    mode: str
    kernel_bandwidth: float | None = None
    ridge: float = 0.0

    def __post_init__(self):
        if self.mode not in (MODE_LINEAR, MODE_KERNEL):
            raise ValueError(f"unknown regression mode {self.mode!r}")
        if self.kernel_bandwidth is not None and not 0 < self.kernel_bandwidth < math.inf:
            raise ValueError(f"kernel_bandwidth must be finite and positive, got {self.kernel_bandwidth}")
        if not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")

    @staticmethod
    def interaction_linear(ridge: float = 0.0) -> "DesignSpec":
        return DesignSpec(MODE_LINEAR, ridge=ridge)

    @staticmethod
    def per_action_kernel(kernel_bandwidth: float | None = None, ridge: float = 1.0) -> "DesignSpec":
        return DesignSpec(MODE_KERNEL, kernel_bandwidth=kernel_bandwidth, ridge=ridge)


def _factor_spd(gram: np.ndarray, context: str):
    try:
        return scipy.linalg.cho_factor(gram, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise RankDeficientError(
            f"rank-deficient design in {context}; refit with ridge > 0"
        ) from err


def _solve(factor, rhs: np.ndarray) -> np.ndarray:
    # fit_columns checked features and targets finite, and cho_factor the gram
    # matrix, so the per-column solve skips scipy's repeated finiteness scan
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _rbf(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-bandwidth * sq)


class FittedQ:
    """Immutable fitted Q-function.

    ``predict`` is defined for every action index of the model's action space,
    including actions never observed near the queried features.
    """

    mode: str

    def __init__(self, action_space: ActionSpace, n_features: int):
        self.action_space = action_space
        self.n_features = int(n_features)

    def _check_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"feature matrix has shape {x.shape}, expected (*, {self.n_features})"
            )
        return x

    def _check_action(self, action_index: int) -> int:
        if not 0 <= action_index < self.action_space.size:
            raise ValueError(
                f"action index {action_index} outside 0..{self.action_space.size - 1}"
            )
        return int(action_index)

    def predict_matrix(self, features: np.ndarray, action_index: int) -> np.ndarray:
        """Predicted values for ``action_index`` at each feature row."""
        raise NotImplementedError

    def predict(self, features: np.ndarray, action_index: int) -> float:
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError("predict expects a single feature vector")
        return float(self.predict_matrix(features[None, :], action_index)[0])

    def predict_all(self, features: np.ndarray) -> np.ndarray:
        """Value vector over the whole action space at one feature vector."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError("predict_all expects a single feature vector")
        return self.predict_all_matrix(features[None, :])[0]

    def predict_all_matrix(self, features: np.ndarray) -> np.ndarray:
        """(n, K) value matrix over the whole action space."""
        cols = [self.predict_matrix(features, k) for k in range(self.action_space.size)]
        return np.column_stack(cols)

    def to_dict(self) -> dict:
        raise NotImplementedError


class InteractionLinearQ(FittedQ):
    mode = MODE_LINEAR

    def __init__(self, action_space: ActionSpace, coef: np.ndarray, n_features: int):
        super().__init__(action_space, n_features)
        coef = np.asarray(coef, dtype=float).copy()
        coef.setflags(write=False)
        self.coef = coef

    @property
    def intercept(self) -> float:
        return float(self.coef[0])

    @property
    def beta_features(self) -> np.ndarray:
        return self.coef[1 : 1 + self.n_features]

    @property
    def beta_action(self) -> float:
        return float(self.coef[1 + self.n_features])

    @property
    def beta_interaction(self) -> np.ndarray:
        return self.coef[2 + self.n_features :]

    def predict_matrix(self, features, action_index):
        x = self._check_features(features)
        label = self.action_space.label(self._check_action(action_index))
        return (
            self.intercept
            + x @ self.beta_features
            + label * self.beta_action
            + label * (x @ self.beta_interaction)
        )

    def to_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode,
            "action_values": list(self.action_space.values),
            "n_features": self.n_features,
            "coef": self.coef.tolist(),
        }


class PerActionKernelQ(FittedQ):
    mode = MODE_KERNEL

    def __init__(
        self,
        action_space: ActionSpace,
        n_features: int,
        bandwidth: float,
        components: tuple,
        meta: Mapping | None = None,
    ):
        super().__init__(action_space, n_features)
        self.bandwidth = float(bandwidth)
        # components[k] is ("kernel", inputs, weights, mean) or ("constant", value)
        self.components = tuple(components)
        self.meta = MappingProxyType(dict(meta or {}))

    def predict_matrix(self, features, action_index):
        x = self._check_features(features)
        comp = self.components[self._check_action(action_index)]
        if comp[0] == "constant":
            return np.full(x.shape[0], comp[1], dtype=float)
        _, inputs, weights, mean = comp
        return _rbf(x, inputs, self.bandwidth) @ weights + mean

    def to_dict(self):
        comps = []
        for comp in self.components:
            if comp[0] == "constant":
                comps.append({"kind": "constant", "value": comp[1]})
            else:
                comps.append(
                    {
                        "kind": "kernel",
                        "inputs": comp[1].tolist(),
                        "weights": comp[2].tolist(),
                        "mean": comp[3],
                    }
                )
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode,
            "action_values": list(self.action_space.values),
            "n_features": self.n_features,
            "bandwidth": self.bandwidth,
            "components": comps,
            "meta": dict(self.meta),
        }


def fit(
    spec: DesignSpec,
    features: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    action_space: ActionSpace,
) -> FittedQ:
    """Fit a Q-function regression minimizing ridge-regularized squared error."""
    targets = np.asarray(targets, dtype=float)[..., None]
    return fit_columns(spec, features, actions, targets, action_space)[0]


def fit_columns(
    spec: DesignSpec,
    features: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    action_space: ActionSpace,
) -> tuple[FittedQ, ...]:
    """Fit one Q-function per column of the (n, m) target matrix.

    All columns share the rows, features and actions, so every factorization
    is done once; model j equals ``fit`` on ``targets[:, j]`` bit for bit.
    """
    x = np.asarray(features, dtype=float)
    a = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2d matrix")
    n = x.shape[0]
    if n < 1:
        raise ValueError("need at least one training row")
    if a.shape != (n,) or y.ndim != 2 or y.shape[0] != n:
        raise ValueError("features, actions and targets must have matching length")
    if y.shape[1] < 1:
        raise ValueError("need at least one target column")
    if a.min(initial=0) < 0 or a.max(initial=0) >= action_space.size:
        raise ValueError("action index outside the action space")
    bad_rows = ~np.isfinite(x).all(axis=1)
    if bad_rows.any():
        raise ValueError(f"features contain non-finite values (row {int(bad_rows.argmax())})")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")

    columns = [np.ascontiguousarray(y[:, j]) for j in range(y.shape[1])]
    if spec.mode == MODE_LINEAR:
        return _fit_interaction_linear(spec, x, a, columns, action_space)
    return _fit_per_action_kernel(spec, x, a, columns, action_space)


def _fit_interaction_linear(spec, x, a, columns, action_space) -> tuple[InteractionLinearQ, ...]:
    labels = np.asarray(action_space.values)[a]
    design = np.hstack(
        [np.ones((x.shape[0], 1)), x, labels[:, None], x * labels[:, None]]
    )
    gram = design.T @ design
    if spec.ridge > 0:
        gram = gram + spec.ridge * np.eye(gram.shape[0])
    factor = _factor_spd(gram, "interaction-linear fit")
    return tuple(
        InteractionLinearQ(action_space, _solve(factor, design.T @ y), x.shape[1])
        for y in columns
    )


def _fit_per_action_kernel(spec, x, a, columns, action_space) -> tuple[PerActionKernelQ, ...]:
    bandwidth = spec.kernel_bandwidth
    if bandwidth is None:
        bandwidth = 1.0 / (x.shape[1] + 1)
    components = [[] for _ in columns]
    fallback = []
    for k in range(action_space.size):
        mask = a == k
        if not mask.any():
            # no data for this action anywhere: predict the global target mean
            for comps, y in zip(components, columns):
                comps.append(("constant", float(y.mean())))
            fallback.append(k)
            continue
        xa = x[mask]
        gram = _rbf(xa, xa, bandwidth)
        if spec.ridge > 0:
            gram = gram + spec.ridge * np.eye(gram.shape[0])
        factor = _factor_spd(gram, f"kernel fit for action {k}")
        xa.setflags(write=False)
        for comps, y in zip(components, columns):
            ya = y[mask]
            mean = float(ya.mean())
            weights = _solve(factor, ya - mean)
            weights.setflags(write=False)
            comps.append(("kernel", xa, weights, mean))
    meta = {"mean_fallback_actions": tuple(fallback)} if fallback else {}
    return tuple(
        PerActionKernelQ(action_space, x.shape[1], bandwidth, tuple(comps), meta)
        for comps in components
    )


def max_over_actions(models, features: np.ndarray) -> np.ndarray:
    """(n, m) matrix whose column j is the best predicted value of ``models[j]``.

    Equals stacking ``models[j].predict_all_matrix(features).max(axis=1)`` bit
    for bit. Kernel models that share an action's training inputs (the models
    of one ``fit_columns`` call) share that action's kernel matrix, which is
    built once per action and dropped before the next.
    """
    for model in models:
        model._check_features(features)
    x = np.asarray(features, dtype=float)
    out = np.full((x.shape[0], len(models)), -np.inf)
    for k in range(models[0].action_space.size):
        inputs = kernel = bandwidth = None
        for j, model in enumerate(models):
            comp = model.components[k] if isinstance(model, PerActionKernelQ) else None
            if comp is not None and comp[0] == "kernel":
                if comp[1] is not inputs or model.bandwidth != bandwidth:
                    inputs, bandwidth = comp[1], model.bandwidth
                    kernel = _rbf(x, inputs, bandwidth)
                values = kernel @ comp[2] + comp[3]
            else:
                values = model.predict_matrix(x, k)
            np.maximum(out[:, j], values, out=out[:, j])
    return out


# --- model serialization ------------------------------------------------------


def model_from_dict(payload: Mapping) -> FittedQ:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    space = ActionSpace(tuple(payload["action_values"]))
    if payload["mode"] == MODE_LINEAR:
        return InteractionLinearQ(space, np.asarray(payload["coef"], dtype=float), payload["n_features"])
    if payload["mode"] == MODE_KERNEL:
        comps = []
        for comp in payload["components"]:
            if comp["kind"] == "constant":
                comps.append(("constant", float(comp["value"])))
            else:
                comps.append(
                    (
                        "kernel",
                        np.asarray(comp["inputs"], dtype=float),
                        np.asarray(comp["weights"], dtype=float),
                        float(comp["mean"]),
                    )
                )
        return PerActionKernelQ(
            space, payload["n_features"], payload["bandwidth"], tuple(comps), payload.get("meta", {})
        )
    raise ValueError(f"unknown model mode {payload['mode']!r}")


def save_model(model: FittedQ, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict()))


def load_model(path: str | Path) -> FittedQ:
    return model_from_dict(json.loads(Path(path).read_text()))
