import numpy as np
import pytest

from demandnet.nn.layers import sample_dropout_mask
from demandnet.nn.recurrent import GRULayer, LSTMLayer, RecurrentStack, make_cell
from demandnet.rngs import stream

from gradcheck import SequenceProbe, grad_check


def _constant_weights(layer, value=0.5):
    for p in layer.parameters():
        if p.name.endswith(".b"):
            p.value[:] = 0.0
        else:
            p.value[:] = value


# hand-derived single-unit values for x=1, zero state, all weights 0.5:
#   lstm: i=f=o=sig(0.5), g=tanh(0.5), c1=i*g, h1=o*tanh(c1)
#   gru:  r=z=sig(0.5), n=tanh(0.5), h1=z*n
LSTM_H1 = 0.17426971865610508
LSTM_H2 = 0.3090589306416473
GRU_H1 = 0.28764913664496794
GRU_H2 = 0.44849024459521558


def test_lstm_single_unit_hand_steps():
    layer = LSTMLayer(1, 1, rng=stream(0, "t"), name="l")
    _constant_weights(layer)
    X = np.ones((2, 1, 1))
    H = layer.forward(X, cache=False)
    assert H.shape == (2, 1, 1)
    assert H[0, 0, 0] == pytest.approx(LSTM_H1, abs=1e-14)
    assert H[1, 0, 0] == pytest.approx(LSTM_H2, abs=1e-14)


def test_gru_single_unit_hand_steps():
    layer = GRULayer(1, 1, rng=stream(0, "t"), name="g")
    _constant_weights(layer)
    X = np.ones((2, 1, 1))
    H = layer.forward(X, cache=False)
    assert H[0, 0, 0] == pytest.approx(GRU_H1, abs=1e-14)
    assert H[1, 0, 0] == pytest.approx(GRU_H2, abs=1e-14)


def test_gru_update_gate_saturated_high_returns_candidate():
    # with z forced to ~1 the new state is the candidate, old state is dropped
    layer = GRULayer(1, 1, rng=stream(0, "t"), name="g")
    _constant_weights(layer)
    b = layer.b.value.reshape(3, -1)
    b[1, :] = 60.0  # z gate bias
    h = layer.forward(np.ones((1, 1, 1)), h0=np.array([[0.9]]), cache=False)[0]
    r = 1.0 / (1.0 + np.exp(-(0.5 + 0.5 * 0.9)))
    n = np.tanh(0.5 + r * 0.5 * 0.9)
    assert h[0, 0] == pytest.approx(n, abs=1e-9)


def test_forget_gate_saturated_low_clears_lstm_memory():
    # with no recurrent weights every step sees the same gates, so the second
    # output differs from the first only through the remembered cell state
    layer = LSTMLayer(1, 1, rng=stream(0, "t"), name="l")
    _constant_weights(layer)
    layer.Wh.value[:] = 0.0
    X = np.ones((2, 1, 1))
    remembering = layer.forward(X, cache=False)
    assert abs(remembering[1, 0, 0] - remembering[0, 0, 0]) > 0.05
    layer.b.value.reshape(4, -1)[1, :] = -60.0  # f gate shut
    H = layer.forward(X, cache=False)
    assert H[1, 0, 0] == H[0, 0, 0]


def test_make_cell_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_cell("rnn", 1, 1)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_cell_gradients_match_finite_differences(kind):
    rng = stream(11, "gradcheck", kind)
    layer = make_cell(kind, 3, 4, rng=rng, name=kind)
    X = rng.normal(size=(5, 2, 3))
    target = rng.normal(size=(5, 2, 4))
    probe = SequenceProbe(layer, target=target, lam=0.01)
    assert grad_check(probe, X, rng=rng) <= 1e-6


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_stack_gradients_match_finite_differences(kind):
    rng = stream(12, "gradcheck", kind)
    net = RecurrentStack(kind, 3, widths=(4, 3), rng=rng, name="s")
    X = rng.normal(size=(6, 2, 3))
    target = rng.normal(size=(6, 2, 3))
    probe = SequenceProbe(net, target=target, lam=0.0)
    assert grad_check(probe, X, rng=rng) <= 1e-6


def test_stack_output_shape_and_layer_count():
    rng = stream(0, "s")
    net = RecurrentStack("gru", 2, widths=(5, 4, 3), rng=rng, name="s")
    X = rng.normal(size=(7, 3, 2))
    H = net.forward(X, cache=False)
    assert H.shape == (7, 3, 3)
    assert len(net.layers) == 3


def test_stack_forward_is_deterministic_given_rng_labels():
    a = RecurrentStack("lstm", 2, widths=(4,), rng=stream(5, "init"), name="s")
    b = RecurrentStack("lstm", 2, widths=(4,), rng=stream(5, "init"), name="s")
    X = stream(5, "x").normal(size=(4, 2, 2))
    np.testing.assert_array_equal(a.forward(X, cache=False), b.forward(X, cache=False))


def test_stack_masks_scale_layer_outputs():
    rng = stream(9, "s")
    net = RecurrentStack("gru", 1, widths=(6,), rng=rng, name="s")
    X = rng.normal(size=(4, 2, 1))
    base = net.forward(X, cache=False)
    mask = sample_dropout_mask((6,), 0.5, stream(3, "m"))
    masked = net.forward(X, masks=[mask], cache=False)
    np.testing.assert_allclose(masked, base * mask, atol=1e-12)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("rows", [1, 3])
def test_stack_runs_layer_zero_once_for_masks_with_more_rows(kind, rows):
    net = RecurrentStack(kind, 2, widths=(6, 4), rng=stream(11, kind), name="s")
    X = stream(11, "x").normal(size=(5, rows, 2))
    masks = [sample_dropout_mask((4 * rows, w), 0.3, stream(12, w)) for w in (6, 4)]
    tiled = net.forward(X, masks=masks, cache=False)
    # with cache=True nothing is tiled, so tile the input by hand
    full = net.forward(np.tile(X, (1, 4, 1)), masks=masks, cache=True)
    assert np.array_equal(tiled, full)
    with pytest.raises(ValueError, match="inference only"):
        net.forward(X, masks=masks, cache=True)


def test_zeroed_units_stay_zero_across_time():
    rng = stream(10, "s")
    net = RecurrentStack("lstm", 1, widths=(6,), rng=rng, name="s")
    X = rng.normal(size=(5, 3, 1))
    mask = sample_dropout_mask((6,), 0.5, stream(4, "m"))
    out = net.forward(X, masks=[mask], cache=False)
    dropped = mask == 0.0
    assert dropped.any()
    assert (out[:, :, dropped] == 0.0).all()
