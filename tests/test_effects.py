import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demandnet.effects import (
    EffectModel,
    MarginalCurve,
    PolynomialFit,
    fit_polynomial,
    marginal_effect,
    policy_delta,
    train_effect_model,
)
from demandnet.nn.optim import DivergenceError, TrainConfig
from demandnet.rngs import stream

from gradcheck import grad_check


def _linear_response_data(n=600, slope=-1.5, intercept=2.0, seed=0):
    rng = stream(seed, "effects-data")
    policy = rng.uniform(0.0, 1.0, size=n)
    other = rng.normal(size=n)
    y = intercept + slope * policy + 0.01 * rng.normal(size=n)
    X = np.column_stack([policy, other])
    return X, y, ("policy", "other")


@pytest.fixture(scope="module")
def trained_model():
    X, y, names = _linear_response_data()
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.3, epochs=400,
                      batch_size=128, seed=0)
    return train_effect_model(X, y, names, cfg, hidden_width=8)


# ----------------------------------------------------------------------------
# polynomial fits


def test_polynomial_evaluates_ascending_coefficients():
    fit = PolynomialFit(coefficients=(1.0, 2.0, 3.0), degree=2, max_residual=0.0)
    assert fit(2.0) == pytest.approx(17.0, abs=1e-15)


def test_polynomial_fit_recovers_exact_cubic():
    grid = np.linspace(0.0, 1.0, 25)
    values = 0.5 - 1.0 * grid + 2.0 * grid**2 - 0.75 * grid**3
    curve = MarginalCurve(feature="policy", grid=grid, values=values)
    fit = fit_polynomial(curve, degree=3)
    np.testing.assert_allclose(fit.coefficients, [0.5, -1.0, 2.0, -0.75], atol=1e-9)
    assert fit.max_residual <= 1e-9
    np.testing.assert_allclose([fit(g) for g in grid], values, atol=1e-9)


def test_violation_fraction_counts_increases():
    grid = np.linspace(0.0, 1.0, 101)
    decreasing = MarginalCurve("policy", grid, -grid)
    assert decreasing.violation_fraction() == 0.0
    values = -grid.copy()
    values[50] = values[49] + 0.5  # one upward step out of 100
    bumped = MarginalCurve("policy", grid, values)
    assert bumped.violation_fraction() == pytest.approx(0.01, abs=1e-12)


def test_curve_csv_has_feature_header():
    curve = MarginalCurve("policy", np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    text = curve.to_csv_text()
    assert text.splitlines()[0] == "policy,effect"
    assert len(text.splitlines()) == 3


# ----------------------------------------------------------------------------
# effect model


def test_model_learns_a_decreasing_policy_response(trained_model):
    model = trained_model
    curve = marginal_effect(model, "policy", np.linspace(0.0, 1.0, 51))
    assert curve.values[0] > curve.values[-1]
    # true slope is -1.5 over the unit interval
    assert curve.values[0] - curve.values[-1] == pytest.approx(1.5, abs=0.25)


def test_marginal_curve_holds_other_features_at_training_means(trained_model):
    model = trained_model
    grid = np.array([0.25, 0.75])
    curve = marginal_effect(model, "policy", grid)
    for k, level in enumerate(grid):
        row = model.feature_means.copy()
        row[model.feature_index("policy")] = level
        np.testing.assert_allclose(curve.values[k], model.predict(row[None, :])[0], atol=1e-12)


def test_predict_takes_feature_rows_only(trained_model):
    model = trained_model
    assert model.predict(model.feature_means[None, :]).shape == (1,)
    for bad in (model.feature_means, model.feature_means[None, None, :], np.zeros((1, 3))):
        with pytest.raises(ValueError):
            model.predict(bad)


def test_policy_delta_is_zero_at_reference(trained_model):
    model = trained_model
    assert policy_delta(model, 0.0) == 0.0


def test_policy_delta_preserves_shape(trained_model):
    model = trained_model
    levels = np.array([[0.1, 0.5], [0.9, 0.3]])
    delta = policy_delta(model, levels)
    assert delta.shape == levels.shape
    scalar = policy_delta(model, 0.5)
    assert np.isscalar(scalar) or np.ndim(scalar) == 0


def test_policy_delta_validates_range(trained_model):
    model = trained_model
    with pytest.raises(ValueError):
        policy_delta(model, 1.2)
    with pytest.raises(ValueError):
        policy_delta(model, -0.1)
    with pytest.raises(ValueError):
        policy_delta(model, np.array([0.2, np.nan]))


def _random_effect_model(widths):
    # untrained weights with nonzero feature means exercise every input column
    model = EffectModel(("policy", "cases", "other"), widths, rng=stream(3, "block", *widths))
    model.feature_means = stream(4, "block-means").normal(size=3)
    return model


_BLOCK_MODELS = {w: _random_effect_model(w) for w in ((4,), (16, 16), (64, 64))}


@settings(max_examples=30, deadline=None)
@given(
    widths=st.sampled_from(sorted(_BLOCK_MODELS)),
    levels=arrays(np.float64, st.integers(1, 400), elements=st.floats(0.0, 1.0)),
)
def test_a_levels_delta_ignores_its_batch_mates(widths, levels):
    # more than 127 distinct levels spill into a second block of rows
    model = _BLOCK_MODELS[widths]
    together = policy_delta(model, levels)
    for k in range(levels.size):
        alone = policy_delta(model, levels[k : k + 1])[0]
        suffix = policy_delta(model, levels[k:])[0]
        assert together[k].tobytes() == alone.tobytes() == suffix.tobytes(), k


@settings(max_examples=30, deadline=None)
@given(
    widths=st.sampled_from(sorted(_BLOCK_MODELS)),
    X=arrays(np.float64, st.tuples(st.integers(1, 400), st.just(3)),
             elements=st.floats(-3.0, 3.0)),
)
@example(widths=(64, 64), X=np.linspace(-2.0, 2.0, 129 * 3).reshape(129, 3))
@example(widths=(16, 16), X=np.linspace(-2.0, 2.0, 257 * 3).reshape(257, 3))
def test_a_prediction_ignores_its_batch_mates(widths, X):
    # 129 and 257 rows leave one row alone in the last block
    model = _BLOCK_MODELS[widths]
    together = model.predict(X)
    for k in range(X.shape[0]):
        alone = model.predict(X[k : k + 1])[0]
        suffix = model.predict(X[k:])[0]
        assert together[k].tobytes() == alone.tobytes() == suffix.tobytes(), k


def test_the_last_history_entry_is_the_trained_models_loss(trained_model):
    X, y, _ = _linear_response_data()
    assert trained_model.train_history[-1] == trained_model.loss((X, y))


def test_inference_loss_needs_no_full_batch_temporaries():
    # one width-64 activation over 20,000 rows is 20,000 x 64 x 8 B = 10.24 MB
    # and its quarter 2.56 MB; blocks keep every temporary at 128 x 64
    model = EffectModel(("policy", "a", "b", "c", "d"), (64, 64), rng=stream(5, "mem"))
    rng = stream(6, "mem-data")
    X, y = rng.uniform(size=(20_000, 5)), rng.normal(size=20_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.loss((X, y))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.56e6, peak


def test_unknown_feature_rejected(trained_model):
    model = trained_model
    with pytest.raises(ValueError):
        marginal_effect(model, "weather", np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        model.feature_index("weather")


def test_training_records_history_and_converges(trained_model):
    hist = trained_model.train_history
    assert len(hist) == 400
    assert hist[-1] < hist[0]


def test_divergent_training_raises():
    X, y, names = _linear_response_data()
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e40, epochs=5,
                      batch_size=128, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            train_effect_model(X, y, names, cfg, hidden_width=8)


def test_gradients_match_finite_differences():
    rng = stream(31, "effects-grad")
    model = EffectModel(("policy", "a", "b"), widths=(6, 6), rng=rng, lam=0.01)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    assert grad_check(model, (X, y), rng=rng) <= 1e-6

