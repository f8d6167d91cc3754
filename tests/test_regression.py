import numpy as np
import pytest

from nearq.core import ActionSpace
from nearq.regression import (
    DesignSpec,
    InteractionLinearQ,
    RankDeficientError,
    fit,
    fit_columns,
    load_model,
    max_over_actions,
    model_from_dict,
    save_model,
)

from conftest import two_actions

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
    q = model.predict_all(x[0])
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


def test_fit_columns_rejects_bad_target_shapes():
    x, a, y, space = _three_action_columns()
    spec = DesignSpec.per_action_kernel()
    with pytest.raises(ValueError, match="target column"):
        fit_columns(spec, x, a, y[:, :0], space)
    with pytest.raises(ValueError, match="matching length"):
        fit_columns(spec, x, a, y[1:], space)
    with pytest.raises(ValueError, match="non-finite"):
        fit_columns(spec, x, a, np.where(np.arange(y.size).reshape(y.shape) == 5, np.nan, y), space)


@pytest.mark.parametrize("mode", ["interaction-linear", "per-action-kernel"])
def test_max_over_actions_matches_predict_all_max_bitwise(mode):
    x, a, y, space = _three_action_columns()
    models = fit_columns(DesignSpec(mode, ridge=0.2), x, a, y, space)
    # a separately fitted model shares no inputs with the others
    models = models + (fit(DesignSpec(mode, ridge=0.7), x, a, y[:, 0], space),)
    probe = np.random.default_rng(9).normal(size=(15, 2))
    got = max_over_actions(models, probe)
    want = np.column_stack([model.predict_all_matrix(probe).max(axis=1) for model in models])
    assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="feature matrix"):
        max_over_actions(models, probe[:, :1])
