import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearq.regression
from nearq.core import ActionSpace
from nearq.regression import (
    DesignSpec,
    InteractionLinearQ,
    RankDeficientError,
    fit,
    fit_columns,
    _factor_spd,
    _kernel_predictions,
    _rbf,
    _solve_columns,
    best_over_actions,
    greedy_actions,
    kernel_models,
    load_model,
    model_from_dict,
    save_model,
)

from conftest import kernel_model, two_actions

TRUE_COEF = np.zeros(22)
TRUE_COEF[0] = 1.0          # intercept
TRUE_COEF[1:4] = (2.0, 1.0, 0.5)   # main effects x0, x1, x2
TRUE_COEF[11] = 0.0         # action main effect
TRUE_COEF[12:14] = (1.0, 1.0)      # interactions with x0, x1


def _noiseless_fit(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 10))
    a = rng.integers(0, 2, size=n)
    labels = np.where(a == 1, 1.0, -1.0)
    y = 1 + 2 * x[:, 0] + x[:, 1] + 0.5 * x[:, 2] + (x[:, 0] + x[:, 1]) * labels
    return fit(DesignSpec.interaction_linear(), x, a, y, two_actions()), x, a, y


def test_noiseless_interaction_recovery():
    model, *_ = _noiseless_fit()
    assert np.allclose(model.coef, TRUE_COEF, atol=1e-8)


def test_predict_examples_from_recovered_model():
    model, *_ = _noiseless_fit()
    x = np.zeros(10)
    x[0] = x[1] = 1.0
    assert model.predict(x, 1) == pytest.approx(6.0, abs=1e-8)
    assert model.predict(x, 0) == pytest.approx(2.0, abs=1e-8)
    assert model.predict(x, 1) - model.predict(x, 0) == pytest.approx(4.0, abs=1e-8)


def test_zero_coefficient_model_predicts_zero():
    model = InteractionLinearQ(two_actions(), np.zeros(6), 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert model.predict(rng.normal(size=2), int(rng.integers(0, 2))) == 0.0


def test_single_row_without_ridge_is_rank_deficient():
    x = np.zeros((1, 10))
    with pytest.raises(RankDeficientError, match="ridge"):
        fit(DesignSpec.interaction_linear(), x, np.array([1]), np.array([1.0]), two_actions())


def test_repeated_kernel_inputs_without_ridge_are_rank_deficient():
    x = np.array([[0.0], [1.0], [1.0]])  # rows 1 and 2 give equal kernel rows
    with pytest.raises(RankDeficientError, match="action 1"):
        fit(DesignSpec.per_action_kernel(ridge=0.0), x, np.array([0, 1, 1]), np.ones(3), two_actions())


def test_solve_columns_is_accurate_on_an_ill_conditioned_kernel_gram():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(200, 2))
    gram = _rbf(x, x, 0.5) + 1e-10 * np.eye(200)
    assert np.linalg.cond(gram) > 1e11
    y = rng.normal(size=(200, 5))
    w = _solve_columns(_factor_spd(gram, "test"), y.T)
    assert w.shape == (5, 200)
    for j in range(5):
        residual = np.abs(gram @ w[j] - y[:, j]).max()
        assert residual <= 1e-12 * np.abs(gram).max() * np.abs(w[j]).max(), j


def test_kernel_interpolates_at_training_points():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 2))
    a = rng.integers(0, 2, size=30)
    y = rng.normal(size=30)
    model = fit(DesignSpec.per_action_kernel(ridge=1e-10), x, a, y, two_actions())
    for i in range(30):
        assert model.predict(x[i], int(a[i])) == pytest.approx(y[i], abs=1e-6)


def test_kernel_unseen_action_falls_back_to_global_mean():
    x = np.array([[0.0], [1.0], [2.0]])
    a = np.array([1, 1, 1])
    y = np.array([1.0, 2.0, 6.0])
    model = fit(DesignSpec.per_action_kernel(), x, a, y, two_actions())
    assert model.meta["mean_fallback_actions"] == (0,)
    assert model.predict(np.array([5.0]), 0) == pytest.approx(3.0)


def test_predict_all_matches_predict():
    rng = np.random.default_rng(3)
    space = ActionSpace(tuple(round(0.1 * k, 1) for k in range(11)))
    x = rng.normal(size=(40, 2))
    a = rng.integers(0, 11, size=40)
    y = rng.normal(size=40)
    model = fit(DesignSpec.per_action_kernel(), x, a, y, space)
    q = model.predict_all_matrix(x[:1])[0]
    assert q.shape == (11,)
    for k in range(11):
        assert q[k] == model.predict(x[0], k)


def test_kernel_permutation_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 2))
    a = rng.integers(0, 2, size=25)
    y = rng.normal(size=25)
    perm = rng.permutation(25)
    m1 = fit(DesignSpec.per_action_kernel(), x, a, y, two_actions())
    m2 = fit(DesignSpec.per_action_kernel(), x[perm], a[perm], y[perm], two_actions())
    probe = rng.normal(size=(10, 2))
    assert np.allclose(m1.predict_all_matrix(probe), m2.predict_all_matrix(probe), atol=1e-8)


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_training_error_monotone_in_ridge(mode):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    a = rng.integers(0, 2, size=50)
    y = rng.normal(size=50)
    errors = []
    for ridge in (1e-6, 1.0, 100.0):
        spec = DesignSpec(mode, ridge=ridge)
        model = fit(spec, x, a, y, two_actions())
        preds = np.array([model.predict(x[i], int(a[i])) for i in range(50)])
        errors.append(float(((preds - y) ** 2).mean()))
    assert errors[0] <= errors[1] + 1e-12 <= errors[2] + 1e-12


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_fit_is_bitwise_deterministic(mode):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 2))
    a = rng.integers(0, 2, size=30)
    y = rng.normal(size=30)
    spec = DesignSpec(mode, ridge=0.5)
    m1 = fit(spec, x, a, y, two_actions())
    m2 = fit(spec, x, a, y, two_actions())
    assert m1.to_dict() == m2.to_dict()


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_serialization_round_trip(mode, tmp_path):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20, 2))
    a = rng.integers(0, 2, size=20)
    y = rng.normal(size=20)
    model = fit(DesignSpec(mode, ridge=0.3), x, a, y, two_actions())
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = rng.normal(size=(5, 2))
    assert np.array_equal(model.predict_all_matrix(probe), loaded.predict_all_matrix(probe))


def test_model_format_version_checked():
    with pytest.raises(ValueError, match="format version"):
        model_from_dict({"format_version": 99, "mode": "interaction-linear"})


def test_predict_dimension_and_action_errors():
    model = InteractionLinearQ(two_actions(), np.zeros(6), 2)
    with pytest.raises(ValueError):
        model.predict(np.zeros(3), 0)
    with pytest.raises(ValueError):
        model.predict(np.zeros(2), 2)


def test_design_spec_guards():
    with pytest.raises(ValueError):
        DesignSpec("nonsense")
    with pytest.raises(ValueError):
        DesignSpec("per-action-kernel", kernel_bandwidth=0.0)
    with pytest.raises(ValueError):
        DesignSpec("interaction-linear", ridge=-1.0)
    with pytest.raises(ValueError, match="kernel_bandwidth applies only"):
        DesignSpec("interaction-linear", kernel_bandwidth=2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ridge"):
            DesignSpec("per-action-kernel", ridge=bad)
        with pytest.raises(ValueError, match="kernel_bandwidth"):
            DesignSpec("per-action-kernel", kernel_bandwidth=bad)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(DesignSpec.interaction_linear(), np.zeros((2, 1)), np.array([0, 3]), np.zeros(2), two_actions())
    with pytest.raises(ValueError):
        fit(DesignSpec.interaction_linear(), np.zeros((2, 1)), np.array([0, 1]), np.array([np.nan, 0.0]), two_actions())


def test_kernel_fit_refuses_zero_feature_columns():
    # an RBF kernel has no distance without a coordinate; the interaction-linear design is [1, a]
    x, a, y = np.zeros((4, 0)), np.array([0, 1, 0, 1]), np.arange(4.0)
    with pytest.raises(ValueError, match=r"per-action-kernel backend needs at least one feature column, got 0"):
        fit(DesignSpec.per_action_kernel(), x, a, y, two_actions())
    linear = fit(DesignSpec.interaction_linear(ridge=1.0), x, a, y, two_actions())
    assert linear.predict_all_matrix(np.zeros((3, 0))).shape == (3, 2)


def test_fit_rejects_non_finite_features_naming_the_row():
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    x[3, 0] = np.inf
    for spec in (DesignSpec.interaction_linear(ridge=1.0), DesignSpec.per_action_kernel()):
        with pytest.raises(ValueError, match=r"features contain non-finite values \(row 2\)"):
            fit(spec, x, np.array([0, 1, 0, 1]), np.zeros(4), two_actions())


def _three_action_columns(seed=8, n=40, m=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    a = rng.integers(0, 2, size=n)  # action 2 never observed: constant fallback
    y = rng.normal(size=(n, m))
    return x, a, y, ActionSpace((0.0, 0.5, 1.0))


def _assert_models_bitwise_equal(got, want):
    assert type(got) is type(want)
    if isinstance(want, InteractionLinearQ):
        assert np.array_equal(got.coef, want.coef)
        return
    assert got.bandwidth == want.bandwidth
    assert dict(got.meta) == dict(want.meta)
    for c_got, c_want in zip(got.components, want.components, strict=True):
        assert c_got[0] == c_want[0]
        if c_want[0] == "constant":
            assert c_got[1] == c_want[1]
        else:
            assert np.array_equal(c_got[1], c_want[1])
            assert np.array_equal(c_got[2], c_want[2])
            assert c_got[3] == c_want[3]


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_fit_columns_column_equals_single_column_fit_bitwise(mode):
    x, a, y, space = _three_action_columns()
    spec = DesignSpec(mode, ridge=0.2)
    models = fit_columns(spec, x, a, y, space)
    assert len(models) == y.shape[1]
    for j, model in enumerate(models):
        _assert_models_bitwise_equal(model, fit(spec, x, a, y[:, j], space))
    if mode == "per-action-kernel":
        assert models[0].meta["mean_fallback_actions"] == (2,)


def test_fit_columns_kernel_models_share_inputs_per_action():
    x, a, y, space = _three_action_columns()
    models = fit_columns(DesignSpec.per_action_kernel(ridge=0.2), x, a, y, space)
    for k in (0, 1):
        inputs = models[0].components[k][1]
        assert not inputs.flags.writeable
        assert all(model.components[k][1] is inputs for model in models)


def _wide_columns(seed=12, n=700, m=5):
    """Two observed actions of about 350 rows each, a third never observed, and targets of mixed
    magnitudes: a sum of one action's targets in sequence differs from the pairwise sum."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    a = rng.integers(0, 2, size=n)
    y = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=(n, m))
    return x, a, y, ActionSpace((0.0, 0.5, 1.0))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_fitted_components_are_views_of_the_stack_row_and_equal_a_rebuilt_models():
    x, a, y, space = _wide_columns()
    models = fit_columns(DesignSpec.per_action_kernel(ridge=0.3), x, a, y, space)
    stack = models[0].stack
    for j, model in enumerate(models):
        assert model.stack is stack and model.row == j
        comps = model.components
        assert model.components is comps  # made on first read, then kept
        with pytest.raises(AttributeError):
            model.components = comps
        assert comps[2] == ("constant", float(stack.constants[2][j, 0]))
        for k in (0, 1):
            inputs, weights, means, _ = stack.kernels[k]
            kind, comp_inputs, comp_weights, comp_mean = comps[k]
            assert kind == "kernel" and comp_inputs is inputs is models[-1].components[k][1]
            assert np.shares_memory(comp_weights, weights) and not comp_weights.flags.writeable
            assert _bits(comp_weights) == _bits(weights[j]) and _bits(comp_mean) == _bits(means[j])
        # a model rebuilt from the components, with a stack of its own, is the same model
        rebuilt = kernel_model(space, model.n_features, model.bandwidth, comps, model.meta)
        for k, (inputs, weights, means, augmented) in rebuilt.stack.kernels.items():
            want = stack.kernels[k]
            assert _bits(weights) == _bits(want[1][j]) and _bits(means) == _bits(want[2][j])
            assert _bits(augmented) == _bits(want[3])
        assert rebuilt.to_dict() == model.to_dict() == model_from_dict(model.to_dict()).to_dict()
        got, want = best_over_actions([model], x), best_over_actions([rebuilt], x)
        assert _bits(got[0]) == _bits(want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_columns=st.integers(1, 4), n_observed=st.integers(1, 4),
       unobserved=st.integers(0, 4), ridge=st.sampled_from([1e-3, 0.3, 2.0]),
       bandwidth=st.sampled_from([None, 0.05, 0.7, 4.0]))
def test_a_loaded_kernel_model_predicts_the_bits_of_its_fitted_row_property(seed, n_columns, n_observed, unobserved,
                                                                             ridge, bandwidth):
    # a fitted model is row j of its fit's stack, a loaded one the one row of a stack of its own:
    # the same values and actions alone, and in one call that screens several stacks at once
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_observed, 80))
    skip = unobserved % (n_observed + 1)  # the unobserved action: a constant fallback
    a = rng.permutation(np.arange(n) % n_observed)
    a += a >= skip
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, n_columns))
    space = ActionSpace(tuple(float(k) for k in range(n_observed + 1)))
    fitted = fit_columns(DesignSpec.per_action_kernel(bandwidth, ridge), x, a, y, space)
    loaded = [model_from_dict(model.to_dict()) for model in fitted]
    assert fitted[0].meta["mean_fallback_actions"] == (skip,)
    probe = rng.normal(size=(int(rng.integers(1, 300)), 2))
    for got, want in zip(loaded, fitted):
        assert got.stack is not want.stack and got.row == 0
        assert _bits(got.predict_all_matrix(probe)) == _bits(want.predict_all_matrix(probe))
        (got_values, got_actions), (want_values, want_actions) = (best_over_actions([m], probe) for m in (got, want))
        assert _bits(got_values) == _bits(want_values) and np.array_equal(got_actions, want_actions)
        assert np.array_equal(greedy_actions([got], probe), want_actions)
    mixed = [model for pair in zip(fitted, loaded) for model in pair]
    values, actions = best_over_actions(mixed, probe)
    q = [model.predict_all_matrix(probe) for model in fitted]
    assert _bits(values[0::2]) == _bits(values[1::2]) == _bits([qa.max(axis=1) for qa in q])
    assert np.array_equal(actions[0::2], actions[1::2])
    assert np.array_equal(actions[0::2], [np.argmax(qa, axis=1) for qa in q])
    assert np.array_equal(greedy_actions(mixed, probe), actions)


def test_kernel_means_are_each_rows_pairwise_mean_over_a_strided_block():
    x, a, y, space = _wide_columns()
    cols = np.ascontiguousarray(y.T)
    models = fit_columns(DesignSpec.per_action_kernel(ridge=0.3), x, a, y, space)
    for k in (0, 1):
        block = cols[:, a == k]
        assert not block.flags.c_contiguous  # as the fit gathers it
        want = [float(np.add.reduce(row) / row.size) for row in block]
        assert _bits([model.components[k][3] for model in models]) == _bits(want)
        # the data tells the two orders apart: summed in sequence, some row's mean differs
        assert any(sum(row.tolist()) / row.size != mean for row, mean in zip(block, want))


def test_kernel_weights_equal_the_reference_solve_bitwise():
    x, a, y, space = _wide_columns()
    cols = np.ascontiguousarray(y.T)
    bandwidth, ridge = 0.4, 0.3
    models = fit_columns(DesignSpec.per_action_kernel(bandwidth, ridge), x, a, y, space)
    for k in (0, 1):
        xa, block = x[a == k], cols[:, a == k]
        low = _factor_spd(_rbf(xa, xa, bandwidth) + ridge * np.eye(len(xa)), "reference")
        means = np.array([float(np.add.reduce(row) / row.size) for row in block])
        want = _solve_columns(low, block - means[:, None])
        assert _bits(models[0].stack.kernels[k][1]) == _bits(want)


def test_fit_columns_rejects_bad_target_shapes():
    x, a, y, space = _three_action_columns()
    spec = DesignSpec.per_action_kernel()
    with pytest.raises(ValueError, match="target column"):
        fit_columns(spec, x, a, y[:, :0], space)
    with pytest.raises(ValueError, match="matching length"):
        fit_columns(spec, x, a, y[1:], space)
    with pytest.raises(ValueError, match="non-finite"):
        fit_columns(spec, x, a, np.where(np.arange(y.size).reshape(y.shape) == 5, np.nan, y), space)


def _two_interleaved_fits(mode, x, a, y, space):
    """The models of two ``fit_columns`` calls in interleaved order, then a copy of one model
    through its payload: equal values, its own inputs arrays."""
    first = fit_columns(DesignSpec(mode, ridge=0.2), x, a, y, space)
    second = fit_columns(DesignSpec(mode, ridge=0.5), x, a, y[:, ::-1], space)
    return [m for pair in zip(first, second) for m in pair] + [model_from_dict(first[1].to_dict())]


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_max_over_actions_matches_predict_all_max_bitwise(mode):
    x, a, y, space = _three_action_columns()
    models = _two_interleaved_fits(mode, x, a, y, space)
    # a separately fitted model shares no inputs with the others
    models = models + [fit(DesignSpec(mode, ridge=0.7), x, a, y[:, 0], space)]
    probe = np.random.default_rng(9).normal(size=(15, 2))
    got, _ = best_over_actions(models, probe)
    want = np.stack([model.predict_all_matrix(probe).max(axis=1) for model in models])
    assert np.array_equal(got, want)
    # each fit's models together in fit order (the rows come back as computed), shuffled, repeated
    grouped = models[0:8:2] + models[1:8:2] + models[8:]
    shuffled = [models[i] for i in np.random.default_rng(3).permutation(len(models))]
    for listed in (grouped, shuffled, [models[3], models[0], models[3], models[8], models[0]]):
        values, actions = best_over_actions(listed, probe)
        assert np.array_equal(values, np.stack([m.predict_all_matrix(probe).max(axis=1) for m in listed]))
        assert np.array_equal(actions, np.stack([np.argmax(m.predict_all_matrix(probe), axis=1) for m in listed]))
    with pytest.raises(ValueError, match="feature matrix"):
        best_over_actions(models, probe[:, :1])


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_argmax_over_actions_matches_greedy_argmax(mode):
    x, a, y, space = _three_action_columns()
    models = _two_interleaved_fits(mode, x, a, y, space)
    # separately fitted models: the same inputs in another array, and other inputs
    models = models + [fit(DesignSpec(mode, ridge=0.7), x, a, y[:, 0], space),
                       fit(DesignSpec(mode, ridge=0.7), x[::2], a[::2], y[::2, 1], space)]
    probe = np.random.default_rng(9).normal(size=(15, 2))
    _, got = best_over_actions(models, probe)
    want = np.stack([np.argmax(model.predict_all_matrix(probe), axis=1) for model in models])
    assert np.array_equal(got, want)
    # exact ties go to the lowest index, as in np.argmax
    tied = kernel_model(space, 2, 1.0, (("constant", 1.0),) * space.size)
    assert best_over_actions([tied], probe)[1].tolist() == [[0] * 15]


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_argmax_over_actions_evaluates_a_repeated_model_once(monkeypatch, mode):
    x, a, y, space = _three_action_columns()
    model = fit(DesignSpec(mode, ridge=0.2), x, a, y[:, 0], space)
    other = fit(DesignSpec(mode, ridge=0.7), x, a, y[:, 1], space)
    columns = list(fit_columns(DesignSpec(mode, ridge=0.5), x, a, y[:, 1:], space))
    listed = [model, model, other] + columns
    probe = np.random.default_rng(9).normal(size=(600, 2))  # three row blocks
    alone = [best_over_actions([m], probe) for m in listed]
    counts = {"_rbf": 0, "screens": 0, "exact_calls": 0, "components": 0, "exact": 0, "linear": 0, "vecdot": 0}
    rbf, screen, kernel_predictions = (nearq.regression._rbf, nearq.regression._screen_kernel,
                                       nearq.regression._kernel_predictions)
    linear = InteractionLinearQ.predict_matrix
    vecdot = np.vecdot

    def counted_rbf(*args):
        counts["_rbf"] += 1
        return rbf(*args)

    def counted_screen(*args):
        counts["screens"] += 1
        return screen(*args)

    def counted_kernel_predictions(x, inputs, bandwidth, weights, means):
        counts["exact_calls"] += 1
        counts["components"] += len(weights)
        counts["exact"] += len(weights) * len(x)
        return kernel_predictions(x, inputs, bandwidth, weights, means)

    def counted_linear(self, *args):
        counts["linear"] += 1
        return linear(self, *args)

    def counted_vecdot(*args, **kwargs):
        counts["vecdot"] += 1
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(nearq.regression, "_rbf", counted_rbf)
    monkeypatch.setattr(nearq.regression, "_screen_kernel", counted_screen)
    monkeypatch.setattr(nearq.regression, "_kernel_predictions", counted_kernel_predictions)
    monkeypatch.setattr(InteractionLinearQ, "predict_matrix", counted_linear)
    monkeypatch.setattr(np, "vecdot", counted_vecdot)
    got = best_over_actions(listed, probe)
    for together, want in zip(got, zip(*alone)):
        assert np.array_equal(together, np.concatenate(want))
    valued = dict(counts)
    counts.update((name, 0) for name in counts)
    assert np.array_equal(greedy_actions(listed, probe), got[1])
    # rows 0 and 1 come from one computation, and the models of one fit are one stacked model:
    # one screen per (row block, kernel action) of each fit, whatever m is, then at most one
    # exact call per (fit, kernel action), each model at most once, with one kernel matrix and
    # one vecdot per row block of the rows it predicts; the actions alone come from the same
    # screens and predict only where a pair keeps two or more candidate actions
    if mode == "per-action-kernel":
        kernel_actions = sum(comp[0] == "kernel" for comp in model.components)
        fits, blocks = 3, 3  # model, other, columns; 600 rows in blocks of 256
        assert valued["screens"] == counts["screens"] == fits * kernel_actions * blocks
        assert 0 < valued["exact_calls"] <= fits * kernel_actions
        assert counts["exact_calls"] <= valued["exact_calls"]
        assert counts["components"] <= valued["components"] <= (2 + len(columns)) * kernel_actions
        assert counts["exact"] < valued["exact"] / 10
        for used in (valued, counts):
            assert used["_rbf"] == used["vecdot"] <= used["exact_calls"] * blocks
    else:
        assert valued["linear"] == counts["linear"] == (2 + len(columns)) * space.size
        assert valued["vecdot"] == valued["screens"] == valued["exact_calls"] == counts["screens"] == 0


def _one_fit(models, bandwidth=None):
    """Kernel ``models`` whose actions have one kind and one inputs array each, rebuilt as the
    models of one fit: sharing one stack (``kernel_models``), at ``bandwidth`` if given."""
    first, actions = models[0], []
    for k, comp in enumerate(models[0].components):
        comps = [model.components[k] for model in models]
        actions.append(np.array([c[1] for c in comps]) if comp[0] == "constant" else
                       (comp[1], np.array([c[2] for c in comps]), np.array([c[3] for c in comps])))
    return kernel_models(first.action_space, first.n_features, bandwidth or first.bandwidth, actions)


def _near_tie_group(case, n_models, seed=5):
    """Kernel models of one fit (each action's inputs one shared array, one stack) whose actions
    tie, or nearly tie, by construction."""
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(0.0, 3.0, size=(c, 2)) for c in (30, 45, 20)]
    twin = inputs[1].copy()  # equal inputs in another array, as a fit never shares them
    models = []
    for _ in range(n_models):
        low = ("kernel", inputs[0], rng.normal(size=30), -1e3)  # far below the tied actions
        w, mean = rng.normal(size=45), float(rng.normal())
        if case == "exact-tie":  # actions 1 and 2 predict the same bits everywhere
            tied = [("kernel", inputs[1], w, mean), ("kernel", twin, w.copy(), mean)]
        elif case == "one-ulp":  # every weight of action 2 one ulp above action 1's
            tied = [("kernel", inputs[1], w, mean), ("kernel", twin, np.nextafter(w, np.inf), mean)]
        else:  # a constant fallback equal to a kernel value: zero weights leave the bare mean
            tied = [("constant", mean), ("kernel", twin, np.zeros(45), mean)]
        comps = (low, *tied, ("kernel", inputs[2], rng.normal(size=20), -1e3))
        models.append(kernel_model(ActionSpace((0.0, 0.3, 0.6, 0.9)), 2, 0.7, comps))
    return _one_fit(models)


@pytest.mark.parametrize("n_rows", [1, 255, 257, 700])
@pytest.mark.parametrize("n_models", [1, 12])
@pytest.mark.parametrize("case", ["exact-tie", "one-ulp", "constant-equals-kernel"])
def test_screened_argmax_matches_the_reference_at_near_ties(case, n_models, n_rows):
    # the screen only picks which actions to predict exactly: values and actions stay bitwise
    # the reduction of every exact prediction, lowest index on exact ties
    models = _near_tie_group(case, n_models)
    x = np.random.default_rng(n_rows).uniform(0.0, 3.0, size=(n_rows, 2))
    values, actions = best_over_actions(models, x)
    q = [model.predict_all_matrix(x) for model in models]
    assert np.array_equal(values, np.stack([qa.max(axis=1) for qa in q]))
    assert np.array_equal(actions, np.stack([np.argmax(qa, axis=1) for qa in q]))
    assert np.array_equal(greedy_actions(models, x), actions)
    if case != "one-ulp":
        assert set(np.unique(actions)) <= {1}  # every row's tie goes to the lower index
    else:
        assert set(np.unique(actions)) <= {1, 2}


def test_screened_argmax_with_an_overflowing_margin_predicts_every_action():
    # a huge bandwidth overflows the screening bound: every action is predicted exactly, and
    # the screen's overflow raises no warning (the suite turns warnings into errors)
    models = _near_tie_group("one-ulp", 3)
    huge = _one_fit(models, 1e300)
    x = np.random.default_rng(2).uniform(0.0, 3.0, size=(300, 2))
    values, actions = best_over_actions(huge, x)
    q = [model.predict_all_matrix(x) for model in huge]
    assert np.array_equal(values, np.stack([qa.max(axis=1) for qa in q]))
    assert np.array_equal(actions, np.stack([np.argmax(qa, axis=1) for qa in q]))
    assert np.array_equal(greedy_actions(huge, x), actions)


def _drawn_group(seed, n_models, kinds, bandwidth, mirror, nan=False):
    """Kernel models of one fit (one stack): action k is a constant, an independent kernel, or a
    kernel tied exactly ("tie") or one ulp above ("ulp") the first kernel action, on a copy of its
    inputs. With ``mirror``, model 1 is model 0 negated, so it takes model 0's worst action; with
    ``nan``, the last model's last action has a NaN value (a NaN constant or mean)."""
    rng = np.random.default_rng(seed)
    shared, base = [], None  # per action: (inputs, weights of each model, means); the first kernel's index
    for kind in kinds:
        if kind == "constant":
            shared.append((None, None, rng.normal(size=n_models)))
        elif kind == "kernel" or base is None:
            base = len(shared) if base is None else base
            c = int(rng.integers(1, 40))
            shared.append((rng.uniform(0.0, 3.0, size=(c, 2)), rng.normal(size=(n_models, c)),
                           rng.normal(size=n_models)))
        else:
            inputs, weights, means = shared[base]
            shared.append((inputs.copy(), weights if kind == "tie" else np.nextafter(weights, np.inf), means))
    if mirror and n_models > 1:
        shared = [(inputs, None if w is None else np.vstack([w[:1], -w[:1], w[2:]]),
                   np.concatenate([means[:1], -means[:1], means[2:]])) for inputs, w, means in shared]
    if nan:
        inputs, weights, means = shared[-1]
        shared[-1] = (inputs, weights, np.concatenate([means[:-1], [np.nan]]))
    space = ActionSpace(tuple(float(k) for k in range(len(kinds))))
    return kernel_models(space, 2, bandwidth, [means if inputs is None else (inputs, weights, means)
                                               for inputs, weights, means in shared])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 20),
       kinds=st.lists(st.sampled_from(["kernel", "constant", "tie", "ulp"]), min_size=1, max_size=8),
       n_rows=st.integers(1, 700), bandwidth=st.sampled_from([0.05, 0.7, 4.0, 1e300]), mirror=st.booleans(),
       listing=st.lists(st.integers(0, 19), min_size=1, max_size=8))
@example(seed=1, n_models=2, kinds=["kernel", "ulp", "kernel", "constant"], n_rows=300, bandwidth=0.7, mirror=True,
         listing=[1, 0, 1])
def test_best_over_actions_equals_the_reference_reduction_property(seed, n_models, kinds, n_rows, bandwidth, mirror,
                                                                   listing):
    # the screen only picks which actions are predicted exactly at which rows, so values and actions
    # are bitwise max and np.argmax of every action's prediction, also for an action predicted at a
    # row because another model of the group needs it there; a listing of some of the group's
    # models, in any order and with repeats, gets each listed model's own row
    models = _drawn_group(seed, n_models, kinds, bandwidth, mirror)
    x = np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=(n_rows, 2))
    values, actions = best_over_actions(models, x)
    q = [model.predict_all_matrix(x) for model in models]
    assert np.array_equal(values, np.stack([qa.max(axis=1) for qa in q]))
    assert np.array_equal(actions, np.stack([np.argmax(qa, axis=1) for qa in q]))
    if mirror and n_models > 1 and kinds.count("kernel") > 1:  # independent values: best and worst differ
        assert (actions[0] != actions[1]).all()
    listed = [j % n_models for j in listing]
    values, actions = best_over_actions([models[j] for j in listed], x)
    assert np.array_equal(values, np.stack([q[j].max(axis=1) for j in listed]))
    assert np.array_equal(actions, np.stack([np.argmax(q[j], axis=1) for j in listed]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 20),
       kinds=st.lists(st.sampled_from(["kernel", "constant", "tie", "ulp"]), min_size=1, max_size=8),
       n_rows=st.integers(1, 700), bandwidth=st.sampled_from([0.05, 0.7, 4.0, 1e300]), mirror=st.booleans(),
       nan=st.booleans(), listing=st.lists(st.integers(0, 19), min_size=1, max_size=8))
@example(seed=1, n_models=2, kinds=["kernel", "ulp", "kernel", "constant"], n_rows=300, bandwidth=0.7, mirror=True,
         nan=False, listing=[1, 0, 1])
@example(seed=1, n_models=3, kinds=["kernel", "tie", "kernel"], n_rows=300, bandwidth=0.7, mirror=True, nan=True,
         listing=[2, 0])
def test_greedy_actions_equals_the_reference_argmax_property(seed, n_models, kinds, n_rows, bandwidth, mirror, nan,
                                                             listing):
    # a pair the screen leaves one candidate takes it, and the rest reduce their candidates'
    # exact predictions: every action is bitwise np.argmax of every action's prediction, also at
    # exact ties, one-ulp gaps, a mirrored model's worst action and a NaN value; a listing of some
    # of the group's models, in any order and with repeats, gets each listed model's own row
    models = _drawn_group(seed, n_models, kinds, bandwidth, mirror, nan)
    x = np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=(n_rows, 2))
    actions = greedy_actions(models, x)
    want = [np.argmax(model.predict_all_matrix(x), axis=1) for model in models]
    assert np.array_equal(actions, np.stack(want))
    if mirror and not nan and n_models > 1 and kinds.count("kernel") > 1:  # independent values: best and worst differ
        assert (actions[0] != actions[1]).all()
    listed = [j % n_models for j in listing]
    assert np.array_equal(greedy_actions([models[j] for j in listed], x), np.stack([want[j] for j in listed]))


def test_best_over_actions_keeps_a_nan_value_as_max_and_argmax_do():
    # a NaN value is the max and its first index the argmax, whichever actions the screen picks
    models = _near_tie_group("one-ulp", 3)
    comps = [list(model.components) for model in models]
    comps[0][2] = ("constant", np.nan)
    comps[1][1] = (*comps[1][1][:3], np.nan)
    nan = [kernel_model(m.action_space, 2, m.bandwidth, c) for m, c in zip(models, comps)]
    nan = nan[:1] + list(_one_fit(nan[1:]))  # models 1 and 2 screened together
    x = np.random.default_rng(4).uniform(0.0, 3.0, size=(300, 2))
    values, actions = best_over_actions(nan, x)
    q = [model.predict_all_matrix(x) for model in nan]
    assert np.array_equal(values, np.stack([qa.max(axis=1) for qa in q]), equal_nan=True)
    assert np.array_equal(actions, np.stack([np.argmax(qa, axis=1) for qa in q]))
    assert np.array_equal(greedy_actions(nan, x), actions)
    assert actions[0].tolist() == [2] * 300 and actions[1].tolist() == [1] * 300


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_argmax_over_actions_refuses_a_non_finite_feature_row_naming_it(mode, bad):
    x, a, y, space = _three_action_columns()
    models = fit_columns(DesignSpec(mode, ridge=0.5), x, a, y, space)
    probe = np.random.default_rng(4).normal(size=(300, 2))
    probe[261, 1] = bad
    with pytest.raises(ValueError, match=r"non-finite values \(row 261\)"):
        best_over_actions(models, probe)


def test_kernel_means_equal_per_action_mean_bitwise():
    # numpy's pairwise sum works in blocks of 8 and 128 entries: cover lengths on each side
    lengths = (1, 7, 8, 9, 127, 128, 129, 1000)
    rng = np.random.default_rng(5)
    a = np.repeat(np.arange(len(lengths)), lengths)
    x = rng.normal(size=(a.size, 1))
    y = rng.uniform(-1e3, 1e3, size=(a.size, 3)) / 7.0
    models = fit_columns(DesignSpec.per_action_kernel(ridge=1.0), x, a, y,
                         ActionSpace(tuple(float(k) for k in range(len(lengths)))))
    for j, model in enumerate(models):
        for k, comp in enumerate(model.components):
            assert comp[3] == float(y[a == k, j].mean())


def _bad_payload(mode, change):
    x, a, y, space = _three_action_columns()
    payload = fit(DesignSpec(mode, ridge=0.2), x, a, y[:, 0], space).to_dict()
    change(payload, payload.get("components"))
    return payload


@pytest.mark.parametrize("mode,change,message", [
    ("per-action-kernel", lambda p, c: p.update(bandwidth=float("nan")), "model: 'bandwidth'"),
    ("per-action-kernel", lambda p, c: p.update(bandwidth=-0.5), "model: 'bandwidth'"),
    ("per-action-kernel", lambda p, c: c[1].update(inputs=[r + [0.0] for r in c[1]["inputs"]]),
     "component 1: 'inputs'"),
    ("per-action-kernel", lambda p, c: c[0].update(weights=c[0]["weights"][:-1]),
     "component 0: 'weights'"),
    ("per-action-kernel", lambda p, c: c[1].update(mean=float("nan")), "component 1: 'mean'"),
    ("per-action-kernel", lambda p, c: c[2].update(value=float("inf")), "component 2: 'value'"),
    ("per-action-kernel", lambda p, c: c.pop(), "model: 'components'"),
    ("interaction-linear", lambda p, c: p["coef"].__setitem__(3, float("nan")), "model: 'coef'"),
    ("interaction-linear", lambda p, c: p["coef"].pop(), "model: 'coef'"),
    ("interaction-linear", lambda p, c: p.update(action_values=[0.0, 0.0]),
     "^model: 'action_values': action labels must be distinct"),
    ("per-action-kernel", lambda p, c: p.update(action_values=[]),
     "^model: 'action_values': action space must be nonempty"),
    ("per-action-kernel", lambda p, c: [p.update(n_features=0)] + [comp.update(inputs=[[]] * len(comp["inputs"]))
                                                                  for comp in c if comp["kind"] == "kernel"],
     r"^model: 'n_features' must be >= 1 for the per-action-kernel backend, got 0"),
], ids=["nan-bandwidth", "negative-bandwidth", "wide-inputs", "short-weights", "nan-mean",
        "inf-constant", "missing-component", "nan-coef", "short-coef", "repeated-actions", "no-actions",
        "kernel-no-features"])
def test_bad_model_payload_fails_at_load_naming_the_component(mode, change, message):
    with pytest.raises(ValueError, match=message):
        model_from_dict(_bad_payload(mode, change))


@pytest.mark.parametrize("n_rows,n_inputs", [(1, 1), (2, 7), (13, 5), (64, 45), (333, 270),
                                             (2800, 45), (4097, 129), (10000, 300)])
def test_kernel_rows_do_not_depend_on_the_batch(n_rows, n_inputs):
    # lockstep evaluation predicts over the states of many policies at once;
    # each policy's rows must equal a call on its own rows bit for bit (a BLAS
    # gemm or gemv does not promise this), whatever row block they fall in
    rng = np.random.default_rng(n_rows * 7919 + n_inputs)
    x = rng.uniform(0.0, 4.0, size=(n_rows, 2))
    inputs = rng.uniform(0.0, 4.0, size=(n_inputs, 2))
    weights, means = rng.normal(size=(2, n_inputs)), np.array([[0.5], [-3.0]])
    kernel = _rbf(x, inputs, 2.0)
    values = _kernel_predictions(x, inputs, 2.0, weights, means)
    subsets = [np.arange(n_rows)[::-1], np.arange(0, n_rows, 3), np.array([n_rows - 1]),
               np.sort(rng.choice(n_rows, size=max(1, n_rows // 2), replace=False))]
    for rows in subsets:
        assert np.array_equal(kernel[rows], _rbf(x[rows], inputs, 2.0))
        assert np.array_equal(values[:, rows], _kernel_predictions(x[rows], inputs, 2.0, weights, means))
    # a block of the batch is the matching rows of the whole kernel matrix
    assert np.array_equal(values[1], np.vecdot(kernel, weights[1]) + means[1, 0])
    # a component's row of a stacked call equals the call on that component alone
    for size in (1, 2, 15):
        weights, means = rng.normal(size=(size, n_inputs)), rng.normal(size=(size, 1))
        together = _kernel_predictions(x, inputs, 2.0, weights, means)
        for j, row in enumerate(together):
            assert np.array_equal(row, _kernel_predictions(x, inputs, 2.0, weights[j : j + 1], means[j : j + 1])[0])
            assert np.array_equal(row, np.vecdot(kernel, weights[j]) + means[j, 0])
