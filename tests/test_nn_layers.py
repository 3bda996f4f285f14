import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from demandnet.effects import HIDDEN_LAYERS
from demandnet.forecaster import ForecasterArch
from demandnet.nn.activations import get_activation, sigmoid
from demandnet.nn.layers import DenseLayer, Parameter, sample_dropout_mask
from demandnet.nn.loss import add_penalty_grads, mse_grad, penalized_loss
from demandnet.nn.optim import Adam, DivergenceError, Sgd, TrainConfig, make_optimizer
from demandnet.rngs import stream

from gradcheck import DenseProbe, grad_check


# ----------------------------------------------------------------------------
# activations


def test_sigmoid_hand_value():
    sigmoid, _ = get_activation("sigmoid")
    assert sigmoid(np.array([2.0]))[0] == pytest.approx(0.88079707797788231, abs=1e-15)


def test_sigmoid_is_stable_at_extremes():
    sigmoid, _ = get_activation("sigmoid")
    vals = sigmoid(np.array([-1e4, 1e4]))
    assert vals[0] == 0.0 and vals[1] == 1.0
    assert np.isfinite(vals).all()


def _two_branch_sigmoid(z):
    """Reference: the masked stable form, 1/(1+exp(-z)) or exp(z)/(1+exp(z))."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
          709.8, -745.2, 1e308, -1e308, np.inf, -np.inf]
_VIEWS = {
    "contiguous": lambda a: a,
    "strided columns": lambda a: a[..., ::2] if a.ndim else a,
    "transpose": lambda a: a.T,
}


@settings(max_examples=200)
@given(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=9),
           elements=st.one_of(st.floats(allow_nan=False), st.floats(-40.0, 40.0),
                              st.sampled_from(_EDGES))),
    st.sampled_from(sorted(_VIEWS)),
)
def test_sigmoid_has_the_two_branch_bits(a, view):
    z = _VIEWS[view](a)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = sigmoid(z)
    expected = _two_branch_sigmoid(z)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    assert got.tobytes() == expected.tobytes()


def test_sigmoid_maps_nan_to_nan():
    z = np.array([[np.nan, -np.nan, 1.0], [0.0, np.nan, -np.inf]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = sigmoid(z)
    assert np.array_equal(np.isnan(got), np.isnan(z))
    assert got[0, 2] == sigmoid(np.array(1.0)) and got[1, 0] == 0.5 and got[1, 2] == 0.0


def test_tanh_matches_numpy():
    tanh, _ = get_activation("tanh")
    x = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(tanh(x), np.tanh(x), atol=1e-15)


def test_activation_derivatives_take_outputs():
    # derivative expressed through the activation's own output value
    sigmoid, dsigmoid = get_activation("sigmoid")
    y = float(sigmoid(np.array([0.3]))[0])
    assert dsigmoid(np.array([y]))[0] == pytest.approx(y * (1 - y), abs=1e-15)
    tanh, dtanh = get_activation("tanh")
    y = float(tanh(np.array([0.3]))[0])
    assert dtanh(np.array([y]))[0] == pytest.approx(1 - y**2, abs=1e-15)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        get_activation("relu6")


# ----------------------------------------------------------------------------
# dense layer


def test_dense_forward_hand_value():
    layer = DenseLayer(2, 2, activation="identity", rng=stream(0, "t"), name="d")
    layer.W.value[:] = [[1.0, 2.0], [3.0, 4.0]]
    layer.b.value[:] = [0.5, -0.5]
    out = layer.forward(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, [[4.5, 5.5]], atol=1e-15)


def test_dense_takes_batches_only():
    layer = DenseLayer(2, 2, activation="identity", rng=stream(0, "t"), name="d")
    with pytest.raises(ValueError, match=r"\(B, 2\)"):
        layer.forward(np.array([1.0, 1.0]))


def test_dense_init_respects_glorot_bound():
    layer = DenseLayer(30, 20, activation="tanh", rng=stream(0, "t"), name="d")
    bound = np.sqrt(6.0 / (30 + 20))
    assert np.abs(layer.W.value).max() <= bound
    assert (layer.b.value == 0).all()


def test_dense_gradients_match_finite_differences():
    rng = stream(3, "gradcheck")
    layer = DenseLayer(4, 3, activation="tanh", rng=rng, name="d")
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 3))
    probe = DenseProbe(layer, target=y, lam=0.01)
    worst = grad_check(probe, x, rng=rng)
    assert worst <= 1e-7


# ----------------------------------------------------------------------------
# loss


def test_penalized_loss_hand_value():
    pred = np.array([1.0, 3.0])
    truth = np.array([0.0, 2.0])
    w = Parameter("w", np.array([1.0, 1.0]))
    # mse (1+1)/2 = 1, penalty 1*(1+1) = 2
    assert penalized_loss(pred, truth, weights=[w], lam=1.0) == pytest.approx(3.0, abs=1e-15)


def test_penalty_grads_skip_unpenalized_parameters():
    bias = Parameter("b", np.array([5.0]), penalized=False)
    bias.zero_grad()
    add_penalty_grads([bias], lam=1.0)
    assert (bias.grad == 0.0).all()


def test_mse_grad_hand_value():
    pred = np.array([2.0, 4.0])
    truth = np.array([1.0, 1.0])
    np.testing.assert_allclose(mse_grad(pred, truth), [1.0, 3.0], atol=1e-15)


def test_add_penalty_grads_adds_two_lambda_w():
    w = Parameter("w", np.array([3.0, -2.0]))
    w.zero_grad()
    add_penalty_grads([w], lam=0.1)
    np.testing.assert_allclose(w.grad, [0.6, -0.4], atol=1e-15)


@given(st.floats(min_value=0.0, max_value=2.0))
def test_penalty_never_reduces_the_loss(lam):
    pred = np.array([1.0, 2.0])
    truth = np.array([0.5, 1.5])
    w = Parameter("w", np.array([0.7]))
    base = penalized_loss(pred, truth)
    assert penalized_loss(pred, truth, weights=[w], lam=lam) >= base


# ----------------------------------------------------------------------------
# dropout masks


def test_zero_rate_mask_is_exactly_ones():
    mask = sample_dropout_mask((128,), 0.0, stream(0, "m"))
    assert (mask == 1.0).all()


def test_mask_values_are_zero_or_scaled():
    mask = sample_dropout_mask((5000,), 0.25, stream(0, "m"))
    vals = np.unique(mask)
    assert set(vals.tolist()) <= {0.0, 1.0 / 0.75}


def test_mask_keep_fraction_near_rate():
    mask = sample_dropout_mask((100_000,), 0.5, stream(1, "m"))
    kept = (mask > 0).mean()
    assert kept == pytest.approx(0.5, abs=0.01)
    # inverted scaling keeps the expectation at one
    assert mask.mean() == pytest.approx(1.0, abs=0.02)


def test_mask_rejects_rate_of_one():
    with pytest.raises(ValueError):
        sample_dropout_mask((4,), 1.0, stream(0, "m"))


# ----------------------------------------------------------------------------
# optimizers


def test_sgd_two_steps_on_quadratic():
    # x <- x - 0.1 * 2x twice from x=1 lands on 0.64
    x = Parameter("x", np.array([1.0]))
    opt = Sgd([x], eta=0.1)
    for _ in range(2):
        x.zero_grad()
        x.grad += 2.0 * x.value
        opt.step()
    assert x.value[0] == pytest.approx(0.64, abs=1e-15)


def test_adam_first_step_size_is_the_learning_rate():
    # bias correction makes the first update lr * sign(grad)
    x = Parameter("x", np.array([1.0]))
    opt = Adam([x], eta=0.1)
    x.zero_grad()
    x.grad += 2.0 * x.value
    opt.step()
    assert x.value[0] == pytest.approx(0.9, abs=1e-6)


def test_optimizer_rejects_non_finite_grads():
    x = Parameter("x", np.array([1.0]))
    opt = make_optimizer("adam", [x], 0.1)
    x.zero_grad()
    x.grad += np.inf
    with pytest.raises(DivergenceError):
        opt.step()


def test_make_optimizer_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_optimizer("lion", [], 0.1)


# ----------------------------------------------------------------------------
# training defaults


def test_published_operating_point_is_the_default():
    cfg = TrainConfig()
    assert cfg.learning_rate == 1e-5
    assert cfg.weight_decay == 1e-6
    assert cfg.batch_size == 128
    assert cfg.epochs == 100
    assert HIDDEN_LAYERS == 2
    assert ForecasterArch().hidden == 128
    assert ForecasterArch().layers == 2
    assert cfg.optimizer == "sgd"


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="bogus")
