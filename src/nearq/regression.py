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
each action's inputs. Every entry of a solve is one dot product of a contiguous
row with one column's values, so column j is bitwise equal to a single-column
fit on it. The kernel models of one fit are the rows of one :class:`KernelStack`:
each action's solved (m, C) weights, means and the arrays the screen below
multiplies, made once by the fit.

Kernel predictions are row independent by construction: squared distances
are summed elementwise and each prediction is one dot product of its kernel
row with the weights, so a row's value never depends on which other rows share
the call or on the row blocks the kernel matrix is built in. Batched BLAS
products (gemm, gemv) do not promise this; on OpenBLAS they differ in the last
bits with the batch's size and the row's position. They are model independent
for the same reason: a model's row of a stacked call is one dot product with
that model's weights, so it equals that model's call alone.

:func:`best_over_actions` gives each listed model's best value and greedy action
at each row, and :func:`greedy_actions` the action alone. Each reduces the
:class:`KernelStack` of the listed kernel models once and whole, and each listed
model takes its row. The stack is screened before anything is predicted: a BLAS
gemm over every action gives approximate values, and a rigorous error bound on
them (:func:`_screen_bound`) leaves each (model, row) pair only the candidate
actions that can be its best. Only those are predicted exactly, as above, and
reduced in action order; for actions alone, a pair with one candidate takes it.
The screened values pick which exact predictions are computed and never reach a
result, so every value and action is bitwise the one predicting every action
gives.
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


# Rows screened, or exactly predicted, at a time: a block's kernel matrix stays in cache for every
# model's product, and its screened values, one per (action, model, row), stay a few hundred kB.
_ROW_BLOCK = 256


def _kernel_predictions(x: np.ndarray, inputs: np.ndarray, bandwidth: float, weights, means) -> np.ndarray:
    """(M, n) predictions at the rows of ``x`` of M kernel components sharing ``inputs``, given
    stacked: their (M, C) weights and (M, 1) means.

    The kernel matrix is built once, block by block, with one ``np.vecdot`` call per block for all
    M components. Each prediction is one dot product of its kernel row with one component's weights
    (not a gemm or gemv, whose blocking makes a row depend on the batch), so it depends on that row
    alone, and a component's row equals the call on that component alone.
    """
    out = np.empty((len(weights), x.shape[0]))
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
    """Model ``row`` of a per-action kernel fit's :class:`KernelStack` (``stack``), whose action
    space, feature count, bandwidth and ``meta`` it shares. Made by :func:`kernel_models` alone."""

    mode = MODE_KERNEL

    def __init__(self, stack: KernelStack, row: int):
        super().__init__(stack.action_space, stack.n_features)
        self.stack, self.row = stack, row
        self.bandwidth, self.meta = stack.bandwidth, stack.meta
        self._components = None

    @property
    def components(self) -> tuple:
        """Per action k, ``("kernel", inputs, weights, mean)`` or ``("constant", value)``, made on
        first read from the model's row of the stack: the inputs and its weights are views of the
        stack's arrays, shared with the fit's other models."""
        if self._components is None:
            stack, j = self.stack, self.row
            self._components = tuple(
                ("constant", float(stack.constants[k][j, 0])) if k in stack.constants
                else ("kernel", stack.kernels[k][0], stack.kernels[k][1][j], float(stack.kernels[k][2][j, 0]))
                for k in range(self.action_space.size))
        return self._components

    def predict_matrix(self, features, action_index):
        x = self._check_features(features)
        k, j = self._check_action(action_index), self.row
        if k in self.stack.constants:
            return np.full(x.shape[0], self.stack.constants[k][j, 0])
        inputs, weights, means, _ = self.stack.kernels[k]
        return _kernel_predictions(x, inputs, self.bandwidth, weights[j : j + 1], means[j : j + 1])[0]

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
    if spec.mode == MODE_KERNEL and x.shape[1] < 1:
        raise ValueError(f"the {MODE_KERNEL} backend needs at least one feature column, got {x.shape[1]}")
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
    actions, fallback = [], []
    for k in range(action_space.size):
        mask = a == k
        if not mask.any():
            # no data for this action anywhere: predict the global target mean
            actions.append(np.array([float(y.mean()) for y in cols]))
            fallback.append(k)
            continue
        xa = x[mask]
        gram = _rbf(xa, xa, bandwidth)
        if spec.ridge > 0:
            # in place, bitwise ``gram + ridge * eye``: the diagonal is 1.0 and no entry is -0.0
            gram.flat[:: len(xa) + 1] += spec.ridge
        low = _factor_spd(gram, f"kernel fit for action {k}")
        xa.setflags(write=False)
        # contiguous rows, each summed pairwise as ``row.mean()`` sums it; over the strided block
        # the reduction would run down the columns, adding each row's entries in sequence
        block = np.ascontiguousarray(cols[:, mask])
        means = np.add.reduce(block, axis=1) / block.shape[1]
        weights = _solve_columns(low, block - means[:, None])
        weights.setflags(write=False)
        actions.append((xa, weights, means))
    meta = {"mean_fallback_actions": tuple(fallback)} if fallback else {}
    return kernel_models(action_space, x.shape[1], bandwidth, actions, meta)


def kernel_models(action_space: ActionSpace, n_features: int, bandwidth: float, actions: list,
                  meta: Mapping | None = None) -> tuple[PerActionKernelQ, ...]:
    """The m per-action kernel models of one :class:`KernelStack`, the one way a kernel model is
    made. Action k is ``actions[k]``: its m constants, or its kernel's (inputs, (m, C) weights, m
    means). Model j is the stack's row j; its component k, made on first read, is
    ``("constant", value)`` or ``("kernel", inputs, weights[j], mean)``."""
    stack = KernelStack(action_space, n_features, bandwidth, actions, meta)
    return tuple(PerActionKernelQ(stack, j) for j in range(stack.n_models))


_UNIT = 2.0**-53  # unit roundoff of float64
_EXP_ERROR = 2.0**-44  # error assumed of np.exp, relative to 1: 256 ulp, where numpy promises a few
_SLACK = 2.0**20  # the screening margin over the derived bound


def _gamma(n):
    """Higham's ``gamma_n = n u / (1 - n u)``: bounds the relative error of n roundings."""
    return n * _UNIT / (1 - n * _UNIT)


def _screen_kernel(rows: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Approximate kernel matrix of augmented rows ``[x, |x|^2, 1]`` and augmented inputs
    ``-b [-2a, 1, |a|^2]``, with b the bandwidth: ``exp`` of one gemm, within
    :func:`_screen_bound` of :func:`_rbf`."""
    product = rows @ inputs.T
    return np.exp(product, out=product)


class KernelStack:
    """The arrays the m models of one per-action kernel fit share, stacked in model order: per
    constant action the (m, 1) values; per kernel action the inputs, the (m, C) weights whose row
    j is model j's (as :func:`_solve_columns` returns them), the (m, 1) means and the augmented
    inputs ``-b [-2a, 1, |a|^2]`` of :func:`_screen_kernel`; the parts of :func:`_screen_bound`
    that do not depend on the rows; and the fit's action space, feature count, bandwidth and
    ``meta`` (its mean-fallback actions). Its models are its rows (:func:`kernel_models`); it
    refers to no model.

    ``actions[k]`` is action k's m constants, or its kernel's (inputs, (m, C) weights, m means).
    """

    def __init__(self, action_space: ActionSpace, n_features: int, bandwidth: float, actions: list,
                 meta: Mapping | None = None):
        self.action_space, self.n_features, self.bandwidth = action_space, int(n_features), float(bandwidth)
        self.meta = MappingProxyType(dict(meta or {}))
        self.n_models = len(actions[0][2] if isinstance(actions[0], tuple) else actions[0])
        self.constants, self.kernels = {}, {}
        for k, action in enumerate(actions):
            if not isinstance(action, tuple):
                self.constants[k] = np.asarray(action, dtype=float)[:, None]
                continue
            inputs, weights, means = action
            augmented = np.column_stack([2.0 * bandwidth * inputs, np.full(len(inputs), -bandwidth),
                                         -bandwidth * (inputs * inputs).sum(axis=1)])
            self.kernels[k] = (inputs, weights, np.asarray(means, dtype=float)[:, None], augmented)
        kernels = list(self.kernels.values())
        # per kernel action: the largest input magnitude (A), gamma_{C+1}, and per model the
        # weights' 1-norm and the mean's magnitude
        self.reach = np.array([[np.abs(inputs).max(initial=0.0)] for inputs, *_ in kernels])
        self.roundoff = np.array([[_gamma(len(inputs) + 1)] for inputs, *_ in kernels])
        self.norms = np.array([np.abs(weights).sum(axis=1) for _, weights, _, _ in kernels])
        self.sizes = np.array([np.abs(means[:, 0]) for _, _, means, _ in kernels])


def _screen_bound(stack: KernelStack, scale) -> np.ndarray:
    """(m,): per model of ``stack``, a bound on ``|s - e|`` for every kernel action at every row
    whose coordinates are at most ``scale`` in magnitude; inf or NaN where it overflows. ``s`` is
    the screened value, one gemm of the weights with :func:`_screen_kernel` plus the mean, and
    ``e`` the exact prediction of :func:`_kernel_predictions`, :func:`_rbf` and one ``np.vecdot``
    plus the mean.

    Write u for the unit roundoff, ``gamma_n = n u / (1 - n u)``, d for the features, C for the
    inputs, b for the bandwidth, X for ``scale`` and A for the largest input coordinate magnitude.
    ``R = 2d (1 + X + A)^2`` is at least 1, X, 2A and twice every squared distance, ``|x|^2`` and
    ``|a|^2``, so R bounds every entry of the augmented rows, and ``S = bR`` every entry of the
    augmented inputs and twice the magnitudes a gemm product sums. Where S is finite no exponent
    overflows, and the exact one, ``t = -b |x - a|^2``, is at most 0. Higham's dot-product error bound, ``gamma_n`` times the
    sum of the products' magnitudes, holds in any summation order, so for BLAS too (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).

    * Screened exponent: the entries ``|x|^2``, ``2ba`` and ``b |a|^2`` carry up to
      ``gamma_{d+1}``, and the gemm of length d + 2 adds ``gamma_{d+2}``: its error is
      ``D <= gamma_{2d+5} S``.
    * Exact exponent: a difference, a square, d - 1 sums of nonnegative terms and the scaling
      by b: ``gamma_{d+3} S``, and it is at most 0.
    * ``exp`` is assumed to err by ``eta = 2^-44`` of its largest value here, ``e^D``. It is
      Lipschitz with constant ``e^D`` below ``t + D`` and 1 below 0, so a screened kernel entry
      is within ``e^D (D + eta)`` of ``e^t`` and an exact one within ``gamma_{d+3} S + eta``:
      they differ by at most ``dK = e^D (D + eta) + gamma_{d+3} S + eta``, and are at most
      ``e^D (1 + eta)`` and ``1 + eta`` in size.
    * The gemm and the vecdot with weights w then err by at most ``gamma_C ||w||_1`` times their
      largest kernel entry.
    * Each side adds the mean m once, within u of a sum at most ``|m| + 2 e^D ||w||_1``.

    Hence ``|s - e| <= ||w||_1 (dK + 2 gamma_{C+1} (e^D + 1)) + 2u (|m| + 2 e^D ||w||_1)``, and
    where it is finite, so is every sum of either computation.
    """
    d = stack.n_features
    spread = stack.bandwidth * (2 * d * np.square(1 + scale + stack.reach))  # S
    drift = _gamma(2 * d + 5) * spread  # D
    grow = np.exp(drift)
    gap = grow * (drift + _EXP_ERROR) + _gamma(d + 3) * spread + _EXP_ERROR  # dK
    bound = stack.norms * (gap + 2 * stack.roundoff * (grow + 1)) + 2 * _UNIT * (stack.sizes + 2 * grow * stack.norms)
    return bound.max(axis=0)


def _screened_best(stack: KernelStack, x: np.ndarray, values: bool) -> tuple[np.ndarray, np.ndarray]:
    """(best, arg), both (m, n): per model of ``stack`` and row of ``x``, bitwise the best value and
    greedy action that reducing every action's exact prediction gives. Without ``values``, ``arg``
    alone is that, and ``best`` is scratch.

    A floating-point filter (Shewchuk, Adaptive Precision Floating-Point Arithmetic and Fast
    Robust Geometric Predicates, 1997). Each block of rows is screened: per kernel action, one
    approximate kernel matrix (:func:`_screen_kernel`) and one gemm with the stacked weights
    give every model's screened value, and a constant action screens as itself. With E per
    model ``2^20`` times :func:`_screen_bound`, an action whose exact value can be a model's
    best screens at least ``max - 2E``: those are a (model, row) pair's candidates, and every
    action is where E or the best screened value is not finite. With ``values``
    (:func:`best_over_actions`) every pair is reduced exactly; without (:func:`greedy_actions`),
    a pair with one candidate takes it, and only the pairs with two or more are. A row needs an
    action where any pair reduced exactly has it as a candidate. Then, per action, one
    :func:`_kernel_predictions` call predicts every model at the rows that need it, and each
    (model, row) reduces the values it gets in action order with strict ``>``, as ``np.argmax``
    reduces.

    Every other action's exact value is at most its screened value plus E, below the best
    screened value minus E, which is at most the exact value of the best screened action, a
    candidate. So a lone candidate is the argmax. And an action predicted for a pair that does
    not have it as a candidate is strictly below the pair's best, so it changes nothing; a
    decided pair's best is set to inf, which none of its exact values (finite, as E is) replaces.
    """
    n_actions, n, m = stack.action_space.size, x.shape[0], stack.n_models
    best, arg = np.full((m, n), -np.inf), np.zeros((m, n), dtype=int)
    tally = np.array([np.ones(n_actions), np.arange(n_actions)])  # a pair's candidate count and index sum
    rows_need = np.zeros((n_actions, n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes E non-finite
        width = np.zeros((m, 1))  # 2E
        if stack.kernels:
            width[:, 0] = 2 * _SLACK * _screen_bound(stack, np.abs(x).max(initial=0.0))
        for lo in range(0, n, _ROW_BLOCK):
            xb = x[lo : lo + _ROW_BLOCK]
            block = slice(lo, lo + len(xb))
            augmented_rows = np.column_stack([xb, (xb * xb).sum(axis=1), np.ones(len(xb))])
            screens = np.empty((n_actions, m, len(xb)))
            for k, constant in stack.constants.items():
                screens[k] = constant
            for k, (_, weights, means, augmented) in stack.kernels.items():
                np.matmul(weights, _screen_kernel(augmented_rows, augmented).T, out=screens[k])
                screens[k] += means
            floor = screens.max(axis=0)
            floor -= width
            need = screens >= floor
            need[:, ~np.isfinite(floor)] = True
            if not values:
                np.copyto(screens, need)  # the candidates as 0 and 1, in place: the gemm casts nothing
                count, index = (tally @ screens.reshape(n_actions, -1)).reshape(2, m, len(xb))
                alone = count == 1
                arg[:, block] = index * alone  # a lone candidate; 0, as with values, for the rest
                best[:, block][alone] = np.inf
                need &= ~alone
            del screens  # before the next block's are made
            rows_need[:, block] = need.any(axis=1)
    for k in range(n_actions):
        at = np.flatnonzero(rows_need[k])
        if not at.size:
            continue
        if k in stack.constants:
            exact = np.broadcast_to(stack.constants[k], (m, len(at)))
        else:
            inputs, weights, means, _ = stack.kernels[k]
            exact = _kernel_predictions(x[at], inputs, stack.bandwidth, weights, means)
        sub, sub_arg = best[:, at], arg[:, at]
        # strict >, as np.argmax reduces; a NaN, which np.max and np.argmax keep from its first
        # index on, replaces a number and is never replaced
        better = ~(exact <= sub) & (sub == sub)
        np.copyto(sub, exact, where=better)
        np.copyto(sub_arg, k, where=better)
        best[:, at], arg[:, at] = sub, sub_arg
    return best, arg


def _over_actions(models, features: np.ndarray, values: bool) -> tuple[np.ndarray, np.ndarray]:
    """(best, arg) for :func:`best_over_actions` and :func:`greedy_actions`: each kernel model's
    stack, or other model, reduced once, whole, and row j gathered from ``models[j]``'s row."""
    for model in models:
        model._check_features(features)
    x = np.asarray(features, dtype=float)
    bad_rows = ~np.isfinite(x).all(axis=1)
    if bad_rows.any():
        raise ValueError(f"features contain non-finite values (row {int(bad_rows.argmax())})")
    best, arg = np.empty((len(models), x.shape[0])), np.empty((len(models), x.shape[0]), dtype=int)
    reduced = {}  # per kernel model's stack, or other model: the (best, arg) of each of its rows
    for j, model in enumerate(models):
        kernel = isinstance(model, PerActionKernelQ)
        key = model.stack if kernel else model
        if key not in reduced:
            if kernel:
                reduced[key] = _screened_best(key, x, values)
            else:
                q = key.predict_all_matrix(x)
                reduced[key] = q.max(axis=1)[None], q.argmax(axis=1)[None]
        row = model.row if kernel else 0
        best[j], arg[j] = reduced[key][0][row], reduced[key][1][row]
    return best, arg


def best_over_actions(models, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, actions), both (m, n): row j is the best predicted value of ``models[j]`` at each
    feature row and its greedy action index.

    Equal bit for bit to ``models[j].predict_all_matrix(features).max(axis=1)`` and to its
    ``np.argmax`` (lowest index on exact ties, the first NaN where there is one), and row
    independent. A feature row with a non-finite value raises ``ValueError`` naming the row. The
    :class:`KernelStack` of the listed kernel models (the models of one ``fit_columns`` call; a
    loaded model has its own) is reduced once, whole (:func:`_screened_best`), and each listed
    model takes its row; any other model is reduced once, as its reference is.
    :func:`greedy_actions` gives the actions alone, with fewer exact predictions.
    """
    return _over_actions(models, features, values=True)


def greedy_actions(models, features: np.ndarray) -> np.ndarray:
    """``best_over_actions(models, features)[1]``, bit for bit, from the same screen, which decides
    every (model, row) pair with one candidate action: only the pairs with two or more are
    predicted exactly. Greedy decisions need no values."""
    return _over_actions(models, features, values=False)[1]


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
    """The model ``to_dict`` wrote. A payload that could not have been fitted (not a JSON object,
    a missing key, a non-finite or misshapen parameter, a nonpositive bandwidth, a component count
    other than the number of actions) raises ``ValueError`` naming the component and the key."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"model: payload must be a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    labels = tuple(_loaded(payload, "action_values", (None,), "model"))
    try:
        space = ActionSpace(labels)
    except ValueError as err:
        raise ValueError(f"model: 'action_values': {err}") from err
    d = payload.get("n_features")
    if type(d) is not int or d < 0:
        raise ValueError(f"model: 'n_features' must be a nonnegative integer, got {d!r}")
    if payload.get("mode") == MODE_LINEAR:
        return InteractionLinearQ(space, _loaded(payload, "coef", (2 * d + 2,), "model"), d)
    if payload.get("mode") == MODE_KERNEL:
        if d < 1:
            raise ValueError(f"model: 'n_features' must be >= 1 for the {MODE_KERNEL} backend, got {d}")
        bandwidth = float(_loaded(payload, "bandwidth", (), "model"))
        if bandwidth <= 0:
            raise ValueError(f"model: 'bandwidth' must be positive, got {bandwidth}")
        listed = payload.get("components")
        if not isinstance(listed, (list, tuple)) or len(listed) != space.size:
            raise ValueError(f"model: 'components' must list one component per action ({space.size})")
        actions = []  # as kernel_models takes them, of one model
        for k, comp in enumerate(listed):
            where = f"model component {k}"
            kind = comp.get("kind") if isinstance(comp, Mapping) else None
            if kind == "constant":
                actions.append(_loaded(comp, "value", (), where)[None])
            elif kind == "kernel":
                inputs = _loaded(comp, "inputs", (None, d), where)
                weights = _loaded(comp, "weights", (len(inputs),), where)
                actions.append((inputs, weights[None], _loaded(comp, "mean", (), where)[None]))
            else:
                raise ValueError(f"{where}: unknown 'kind' {kind!r}")
        meta = payload.get("meta", {})
        if not isinstance(meta, Mapping):
            raise ValueError(f"model: 'meta' must be a JSON object, got {type(meta).__name__}")
        return kernel_models(space, d, bandwidth, actions, meta)[0]
    raise ValueError(f"unknown model mode {payload.get('mode')!r}")


def save_model(model: FittedQ, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict()))


def load_model(path: str | Path) -> FittedQ:
    return model_from_dict(json.loads(Path(path).read_text()))
