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
each normal-equation matrix is factorized once and all its columns are solved
together (Rasmussen & Williams 2006, Alg. 2.1), and the kernel models share
each action's inputs. So :func:`best_over_actions` evaluates the models of one
fit as one stacked model: per action one kernel matrix, one dot-product call
per row block for all the fit's weight rows, and one best-value update. Every
entry of a solve is one dot product of a contiguous row with one column's
values, so column j is bitwise equal to a single-column fit on it.

Kernel predictions are row independent by construction: squared distances
are summed elementwise and each prediction is one dot product of its kernel
row with the weights, so a row's value never depends on which other rows share
the call or on the row blocks the kernel matrix is built in. Batched BLAS
products (gemm, gemv) do not promise this; on OpenBLAS they differ in the last
bits with the batch's size and the row's position. They are model independent
for the same reason: a model's row of a stacked call is one dot product with
that model's weights, so it equals that model's call alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

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
        if self.kernel_bandwidth is not None and self.mode == MODE_LINEAR:
            raise ValueError(f"kernel_bandwidth applies only to the {MODE_KERNEL} backend")
        if not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")

    @staticmethod
    def interaction_linear(ridge: float = 0.0) -> "DesignSpec":
        return DesignSpec(MODE_LINEAR, ridge=ridge)

    @staticmethod
    def per_action_kernel(kernel_bandwidth: float | None = None, ridge: float = 1.0) -> "DesignSpec":
        return DesignSpec(MODE_KERNEL, kernel_bandwidth=kernel_bandwidth, ridge=ridge)


def _factor_spd(gram: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise RankDeficientError(
            f"rank-deficient design in {context}; refit with ridge > 0"
        ) from err


def _solve_columns(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row j solves ``low @ low.T @ w = rhs[j]`` through the factor's inverse. Each entry is one
    dot product of two contiguous rows (``np.vecdot``), so row j depends on ``rhs[j]`` alone."""
    inv = np.linalg.inv(low)
    z = np.vecdot(np.ascontiguousarray(rhs)[:, None, :], inv)
    return np.vecdot(z[:, None, :], np.ascontiguousarray(inv.T))


def _rbf(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    # squared distances summed coordinate by coordinate, elementwise: unlike a
    # BLAS product, row i depends on a[i] alone, whatever other rows share the call
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    for c in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, c], b[:, c])
        diff *= diff
        sq += diff
    sq *= -bandwidth
    return np.exp(sq, out=sq)


_ROW_BLOCK = 256  # kernel rows built at a time: a block stays in cache for every model's product


def _kernel_predictions(x: np.ndarray, inputs: np.ndarray, bandwidth: float, comps) -> np.ndarray:
    """(len(comps), n) predictions at the rows of ``x`` of kernel components sharing ``inputs``.

    The components are evaluated as one stacked model: their weights form one (M, C) matrix and
    the kernel matrix is built once, block by block, with one ``np.vecdot`` call per block for all
    M components. Each prediction is one dot product of its kernel row with one component's weights
    (not a gemm or gemv, whose blocking makes a row depend on the batch), so it depends on that row
    alone, and a component's row equals the call on that component alone.
    """
    weights = np.stack([comp[2] for comp in comps])
    means = np.array([comp[3] for comp in comps])[:, None]
    out = np.empty((len(comps), x.shape[0]))
    for lo in range(0, x.shape[0], _ROW_BLOCK):
        kernel = _rbf(x[lo : lo + _ROW_BLOCK], inputs, bandwidth)
        block = out[:, lo : lo + _ROW_BLOCK]
        np.vecdot(kernel[None], weights[:, None, :], out=block)
        block += means
    return out


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
        return _kernel_predictions(x, comp[1], self.bandwidth, [comp])[0]

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

    cols = np.ascontiguousarray(y.T)  # row j is target column j
    if spec.mode == MODE_LINEAR:
        return _fit_interaction_linear(spec, x, a, cols, action_space)
    return _fit_per_action_kernel(spec, x, a, cols, action_space)


def _fit_interaction_linear(spec, x, a, cols, action_space) -> tuple[InteractionLinearQ, ...]:
    labels = np.asarray(action_space.values)[a]
    design = np.hstack(
        [np.ones((x.shape[0], 1)), x, labels[:, None], x * labels[:, None]]
    )
    gram = design.T @ design
    if spec.ridge > 0:
        gram = gram + spec.ridge * np.eye(gram.shape[0])
    low = _factor_spd(gram, "interaction-linear fit")
    rhs = np.vecdot(cols[:, None, :], np.ascontiguousarray(design.T))
    return tuple(InteractionLinearQ(action_space, coef, x.shape[1]) for coef in _solve_columns(low, rhs))


def _fit_per_action_kernel(spec, x, a, cols, action_space) -> tuple[PerActionKernelQ, ...]:
    bandwidth = spec.kernel_bandwidth
    if bandwidth is None:
        bandwidth = 1.0 / (x.shape[1] + 1)
    components = [[] for _ in cols]
    fallback = []
    for k in range(action_space.size):
        mask = a == k
        if not mask.any():
            # no data for this action anywhere: predict the global target mean
            for comps, y in zip(components, cols):
                comps.append(("constant", float(y.mean())))
            fallback.append(k)
            continue
        xa = x[mask]
        gram = _rbf(xa, xa, bandwidth)
        if spec.ridge > 0:
            gram = gram + spec.ridge * np.eye(gram.shape[0])
        low = _factor_spd(gram, f"kernel fit for action {k}")
        xa.setflags(write=False)
        block = cols[:, mask]
        # per contiguous row, bitwise ``row.mean()``: a 2-d reduction may sum in another order
        means = [float(np.add.reduce(row) / row.size) for row in block]
        weights = _solve_columns(low, block - np.array(means)[:, None])
        weights.setflags(write=False)
        for comps, w, mean in zip(components, weights, means):
            comps.append(("kernel", xa, w, mean))
    meta = {"mean_fallback_actions": tuple(fallback)} if fallback else {}
    return tuple(
        PerActionKernelQ(action_space, x.shape[1], bandwidth, tuple(comps), meta)
        for comps in components
    )


def _stacked_values(group, x: np.ndarray, k: int) -> np.ndarray:
    """(len(group), n) or broadcastable predictions for action ``k`` of a group from
    :func:`best_over_actions`: the kernel models of one fit, or a single model."""
    first = group[0]
    if not isinstance(first, PerActionKernelQ):
        return first.predict_matrix(x, k)[None]
    comps = [model.components[k] for model in group]
    if comps[0][0] == "constant":
        return np.array([[comp[1]] for comp in comps])
    return _kernel_predictions(x, comps[0][1], first.bandwidth, comps)


def best_over_actions(models, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, actions), both (m, n): row j is the best predicted value of ``models[j]`` at each
    feature row and its greedy action index.

    Equal bit for bit to ``models[j].predict_all_matrix(features).max(axis=1)`` and, for finite
    values, to its ``np.argmax`` (lowest index on exact ties). A model listed more than once is
    evaluated once. Kernel models that share every action's training inputs and bandwidth (the
    models of one ``fit_columns`` call) form one group, evaluated as one stacked model: one kernel
    matrix and one :func:`_kernel_predictions` call per action, then one best-value update over
    the group's rows. Any other model is a group of its own.
    """
    distinct = list({id(model): model for model in models}.values())
    for model in distinct:
        model._check_features(features)
    x = np.asarray(features, dtype=float)
    groups: dict = {}
    for model in distinct:
        key = id(model)
        if isinstance(model, PerActionKernelQ):
            key = (model.bandwidth, tuple(id(comp[1]) if comp[0] == "kernel" else None
                                          for comp in model.components))
        groups.setdefault(key, []).append(model)
    order = [model for group in groups.values() for model in group]
    values = np.full((len(order), x.shape[0]), -np.inf)
    actions = np.zeros(values.shape, dtype=int)
    lo = 0
    for group in groups.values():
        best, arg = values[lo : lo + len(group)], actions[lo : lo + len(group)]
        lo += len(group)
        for k in range(group[0].action_space.size):
            pred = _stacked_values(group, x, k)
            arg[pred > best] = k
            np.maximum(best, pred, out=best)
    row = {id(model): j for j, model in enumerate(order)}
    pick = [row[id(model)] for model in models]
    if pick == list(range(len(order))):  # models listed once each, already in group order
        return values, actions
    return values[pick], actions[pick]


# --- model serialization ------------------------------------------------------


def _loaded(payload: Mapping, key: str, shape: tuple, where: str) -> np.ndarray:
    """``payload[key]`` as a finite float array of ``shape`` (``None``: any length)."""
    try:
        value = np.asarray(payload[key], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{where}: {key!r} is missing or not numeric") from err
    if value.ndim != len(shape) or any(n not in (None, got) for n, got in zip(shape, value.shape)):
        want = "(" + ", ".join("*" if n is None else str(n) for n in shape) + ")"
        raise ValueError(f"{where}: {key!r} has shape {value.shape}, expected {want}")
    if not np.isfinite(value).all():
        raise ValueError(f"{where}: {key!r} has non-finite values")
    return value


def model_from_dict(payload: Mapping) -> FittedQ:
    """The model ``to_dict`` wrote. A payload that could not have been fitted (a non-finite or
    misshapen parameter, a nonpositive bandwidth, a component count other than the number of
    actions) raises ``ValueError`` naming the component and the key."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    space = ActionSpace(tuple(payload["action_values"]))
    d = payload.get("n_features")
    if type(d) is not int or d < 0:
        raise ValueError(f"model: 'n_features' must be a nonnegative integer, got {d!r}")
    if payload.get("mode") == MODE_LINEAR:
        return InteractionLinearQ(space, _loaded(payload, "coef", (2 * d + 2,), "model"), d)
    if payload.get("mode") == MODE_KERNEL:
        bandwidth = float(_loaded(payload, "bandwidth", (), "model"))
        if bandwidth <= 0:
            raise ValueError(f"model: 'bandwidth' must be positive, got {bandwidth}")
        listed = payload.get("components")
        if not isinstance(listed, (list, tuple)) or len(listed) != space.size:
            raise ValueError(f"model: 'components' must list one component per action ({space.size})")
        comps = []
        for k, comp in enumerate(listed):
            where = f"model component {k}"
            kind = comp.get("kind") if isinstance(comp, Mapping) else None
            if kind == "constant":
                comps.append(("constant", float(_loaded(comp, "value", (), where))))
            elif kind == "kernel":
                inputs = _loaded(comp, "inputs", (None, d), where)
                weights = _loaded(comp, "weights", (len(inputs),), where)
                comps.append(("kernel", inputs, weights, float(_loaded(comp, "mean", (), where))))
            else:
                raise ValueError(f"{where}: unknown 'kind' {kind!r}")
        return PerActionKernelQ(space, d, bandwidth, tuple(comps), payload.get("meta", {}))
    raise ValueError(f"unknown model mode {payload.get('mode')!r}")


def save_model(model: FittedQ, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict()))


def load_model(path: str | Path) -> FittedQ:
    return model_from_dict(json.loads(Path(path).read_text()))
