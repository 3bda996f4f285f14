import contextlib
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from demandnet.nn import recurrent
from demandnet.nn.activations import sigmoid
from demandnet.nn.layers import sample_dropout_mask
from demandnet.nn.optim import DivergenceError, TrainConfig, fit
from demandnet.nn.recurrent import GRULayer, LSTMLayer, RecurrentStack, make_cell
from demandnet.rngs import stream

from conftest import usable_cpus, worker_passes
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
def test_stack_runs_layer_zero_once_for_masks_with_more_rows(kind, rows, monkeypatch):
    # 4 passes over `rows` inputs, against a hand-tiled batch of 4 * rows;
    # MC_ROWS = 3 splits the passes into groups, the last of one row when rows = 1
    monkeypatch.setattr(recurrent, "MC_ROWS", 3)
    net = RecurrentStack(kind, 2, widths=(6, 4), rng=stream(11, kind), name="s")
    X = stream(11, "x").normal(size=(5, rows, 2))
    masks = [sample_dropout_mask((4, w), 0.3, stream(12, w)) for w in (6, 4)]
    passes = net.forward_passes(net.forward_first(X), masks)
    tiled = [np.repeat(mask, rows, axis=0) for mask in masks]
    full = net.forward(np.tile(X, (1, 4, 1)), masks=tiled, cache=True)
    assert np.array_equal(passes.reshape(4 * rows, 4), full[-1])


def test_zeroed_units_stay_zero_across_time():
    rng = stream(10, "s")
    net = RecurrentStack("lstm", 1, widths=(6,), rng=rng, name="s")
    X = rng.normal(size=(5, 3, 1))
    mask = sample_dropout_mask((6,), 0.5, stream(4, "m"))
    out = net.forward(X, masks=[mask], cache=False)
    dropped = mask == 0.0
    assert dropped.any()
    assert (out[:, :, dropped] == 0.0).all()


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_a_second_cached_forward_holds_one_cache(kind):
    T, B, k = 50, 16, 16
    layer = make_cell(kind, 3, k, rng=stream(30, kind))
    first, second = (stream(31, i).normal(size=(T, B, 3)) for i in range(2))
    cache_bytes = (5 * T + 1 if kind == "lstm" else 4 * T) * B * k * 8
    tracemalloc.start()
    try:
        layer.forward(first, cache=True)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        H = layer.forward(second, cache=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < cache_bytes // 2
    # the rewritten cache backpropagates exactly like a fresh layer's
    fresh = make_cell(kind, 3, k, rng=stream(30, kind))
    dH = stream(32, "dH").normal(size=H.shape)
    assert np.array_equal(fresh.forward(second, cache=True), H)
    for a, b in zip(layer.backward(dH), fresh.backward(dH)):
        assert np.array_equal(a, b)
    for p, q in zip(layer.parameters(), fresh.parameters()):
        assert np.array_equal(p.grad, q.grad)


@pytest.mark.parametrize("kind, shapes", [
    ("lstm", [(6, 4, 5)] * 4 + [(7, 4, 5)]),
    ("gru", [(6, 4, 5)] * 4),
])
def test_cache_arrays_are_kept_for_the_same_shape_and_replaced_for_another(kind, shapes):
    layer = make_cell(kind, 3, 5, rng=stream(35, kind))
    H = layer.forward(stream(36, 0).normal(size=(6, 4, 3)), cache=True)
    first = [a.ctypes.data for a in layer._buffers]
    assert [a.shape for a in layer._buffers] == shapes
    layer.backward(H)
    assert layer._cache is None  # backward releases the input; the arrays stay
    layer.forward(stream(36, 1).normal(size=(6, 4, 3)), cache=True)
    assert [a.ctypes.data for a in layer._buffers] == first
    layer.forward(stream(36, 2).normal(size=(6, 2, 3)), cache=True)
    assert [a.shape for a in layer._buffers] == [(T, 2, k) for T, _, k in shapes]


# Traced peak of one 2x128 LSTM batch at T = 32, B = 128 (forward with dropout
# masks, backward from the last step, as the forecaster trains), from a fresh
# stack: 54.8 MB; 80.7 MB when each cell cached seven arrays, the caller kept a
# view of the last step and its gradient entered as a zero (T, B, 128) array.
PUBLISHED_BATCH_PEAK_MB = 64


def test_a_published_scale_lstm_batch_stays_under_its_memory_bound():
    T, B, k = 32, 128, 128
    net = RecurrentStack("lstm", 6, (k, k), rng=stream(37, "peak"), name="p")
    X = stream(38, "x").normal(size=(T, B, 6))
    masks = [sample_dropout_mask((B, k), 0.1, stream(39, l)) for l in range(2)]
    d_last = stream(40, "d").normal(size=(B, k))
    tracemalloc.start()
    try:
        top = net.forward(X, masks=masks, cache=True)[-1].copy()
        net.backward(d_last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert top.shape == (B, k)
    assert peak < PUBLISHED_BATCH_PEAK_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


# ----------------------------------------------------------------------------
# the slim caches against the full ones: the cells as they were when each
# cached every intermediate (LSTM: I, F, G, O, tanh(c), h_prev, c_prev; GRU:
# R, Z, N, r * h_prev, h_prev), kept here as an oracle for the same bits

def _full_cache_forward(layer, X, h0):
    T, B, _ = X.shape
    k = layer.hidden
    h = np.zeros((B, k)) if h0 is None else h0
    H = np.empty((T, B, k))
    if isinstance(layer, LSTMLayer):
        c = np.zeros((B, k))
        I, F, G, O, TC, Hprev, Cprev = (np.empty((T, B, k)) for _ in range(7))
        for t in range(T):
            z = X[t] @ layer.Wx.value + h @ layer.Wh.value + layer.b.value
            i_f = sigmoid(z[:, : 2 * k])
            i, f = i_f[:, :k], i_f[:, k:]
            g = np.tanh(z[:, 2 * k : 3 * k])
            o = sigmoid(z[:, 3 * k :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            I[t], F[t], G[t], O[t], TC[t] = i, f, g, o, tc
            Hprev[t], Cprev[t] = h, c
            c = c_new
            h = o * tc
            H[t] = h
        return H, (X, I, F, G, O, TC, Hprev, Cprev)
    R, Z, N, Q, Hprev = (np.empty((T, B, k)) for _ in range(5))
    for t in range(T):
        gx = X[t] @ layer.Wx.value + layer.b.value
        rz = sigmoid(gx[:, : 2 * k] + h @ layer.Wh_rz.value)
        r, z = rz[:, :k], rz[:, k:]
        q = r * h
        n = np.tanh(gx[:, 2 * k :] + q @ layer.Wh_n.value)
        R[t], Z[t], N[t], Q[t], Hprev[t] = r, z, n, q, h
        h = (1.0 - z) * h + z * n
        H[t] = h
    return H, (X, R, Z, N, Q, Hprev)


def _full_cache_backward(layer, cache, dH, grads):
    """BPTT over ``_full_cache_forward``'s cache, adding into ``grads`` (by name)."""
    T, B, _ = cache[0].shape
    dX = np.empty_like(cache[0])
    dh_next = np.zeros((B, layer.hidden))
    if isinstance(layer, LSTMLayer):
        X, I, F, G, O, TC, Hprev, Cprev = cache
        dc_next = np.zeros((B, layer.hidden))
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            i, f, g, o, tc = I[t], F[t], G[t], O[t], TC[t]
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * Cprev[t]
            dg = dc * i
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
                axis=1,
            )
            grads[layer.Wx.name] += X[t].T @ dz
            grads[layer.Wh.name] += Hprev[t].T @ dz
            grads[layer.b.name] += dz.sum(axis=0)
            dX[t] = dz @ layer.Wx.value.T
            dh_next = dz @ layer.Wh.value.T
            dc_next = dc * f
        return dX, dh_next
    X, R, Z, N, Q, Hprev = cache
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh_next
        r, z, n, q, h_prev = R[t], Z[t], N[t], Q[t], Hprev[t]
        dz_gate = dh * (n - h_prev)
        dn = dh * z
        dh_prev = dh * (1.0 - z)
        dnpre = dn * (1.0 - n * n)
        dq = dnpre @ layer.Wh_n.value.T
        grads[layer.Wh_n.name] += q.T @ dnpre
        dh_prev += dq * r
        dr = dq * h_prev
        drpre = dr * r * (1.0 - r)
        dzpre = dz_gate * z * (1.0 - z)
        drz = np.concatenate([drpre, dzpre], axis=1)
        dh_prev += drz @ layer.Wh_rz.value.T
        grads[layer.Wh_rz.name] += h_prev.T @ drz
        dgx = np.concatenate([drpre, dzpre, dnpre], axis=1)
        grads[layer.Wx.name] += X[t].T @ dgx
        grads[layer.b.name] += dgx.sum(axis=0)
        dX[t] = dgx @ layer.Wx.value.T
        dh_next = dh_prev
    return dX, dh_next


def _full_cache_stack(net, X, masks, states, dOut):
    """[H, dX, *dh0, *parameter gradients] of one pass, layer by layer, with
    the full caches; a (B, width) ``dOut`` is the last step's gradient."""
    L = len(net.layers)
    masks, states = masks or [None] * L, states or [None] * L
    caches, cur = [], X
    for layer, mask, h0 in zip(net.layers, masks, states):
        cur, cache = _full_cache_forward(layer, cur, h0)
        if mask is not None:
            cur = cur * mask
        caches.append(cache)
    if dOut.ndim == 2:
        dOut, last = np.zeros(cur.shape), dOut
        dOut[-1] = last
    grads = {p.name: np.zeros_like(p.value) for p in net.parameters()}
    d, dh0 = dOut, [None] * L
    for l in range(L - 1, -1, -1):
        if masks[l] is not None:
            d = d * masks[l]
        d, dh0[l] = _full_cache_backward(net.layers[l], caches[l], d, grads)
    return [cur, d, *dh0, *(grads[p.name] for p in net.parameters())]


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("T", [1, 2, 24])
@pytest.mark.parametrize("B", [1, 7, 128])
def test_the_slim_caches_give_the_full_caches_bits(monkeypatch, kind, T, B):
    widths = (5, 4)
    passes = worker_passes(monkeypatch)
    for seeded_states, masked, wavefront, last_step in itertools.product((False, True), repeat=4):
        passes.clear()
        net = RecurrentStack(kind, 3, widths, rng=stream(41, kind), name="o")
        # two batches through one stack: the second reuses the first's cache arrays
        with _scope(net, wavefront):
            for batch in range(2):
                seed = (T, B, seeded_states, masked, wavefront, last_step, batch)
                X = stream(42, *seed).normal(size=(T, B, 3))
                masks = states = None
                if masked:
                    masks = [sample_dropout_mask((B, w), 0.3, stream(43, l, *seed))
                             for l, w in enumerate(widths)]
                if seeded_states:
                    states = [stream(44, l, *seed).normal(size=(B, w))
                              for l, w in enumerate(widths)]
                dOut = stream(45, *seed).normal(size=(B, 4) if last_step else (T, B, 4))
                expected = _full_cache_stack(net, X, masks, states, dOut)
                for p in net.parameters():
                    p.zero_grad()
                H = net.forward(X, masks=masks, initial_states=states, cache=True)
                dX, dh0 = net.backward(dOut)
                got = [H, dX, *dh0, *(p.grad for p in net.parameters())]
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b)
        assert len(passes) == (4 if wavefront else 0)


@pytest.mark.parametrize("wavefront", [False, True])
@pytest.mark.parametrize("last_step", [False, True])
def test_stack_backward_never_writes_into_the_callers_gradient(monkeypatch, wavefront, last_step):
    passes = worker_passes(monkeypatch)
    T, B = 6, 5
    net = RecurrentStack("lstm", 3, (4, 3), rng=stream(46, "ro"), name="r")
    masks = [sample_dropout_mask((B, w), 0.5, stream(47, w)) for w in (4, 3)]
    dOut = stream(49, "d").normal(size=(B, 3) if last_step else (T, B, 3))
    kept = dOut.copy()
    with _scope(net, wavefront):
        net.forward(stream(48, "x").normal(size=(T, B, 3)), masks=masks, cache=True)
        net.backward(dOut)
    assert len(passes) == (2 if wavefront else 0)
    assert np.array_equal(dOut, kept)


def test_an_uncached_forward_before_backward_changes_no_gradient():
    def grads(interleave):
        net = RecurrentStack("gru", 2, (4, 3), rng=stream(52, "u"), name="u")
        X = stream(53, "x").normal(size=(5, 3, 2))
        masks = [sample_dropout_mask((3, w), 0.5, stream(54, w)) for w in (4, 3)]
        H = net.forward(X, masks=masks, cache=True)
        if interleave:
            net.forward(X[:, :2], cache=False)
        net.backward(np.ones_like(H))
        return [p.grad for p in net.parameters()]

    for a, b in zip(grads(False), grads(True)):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------------
# the wavefront: the layers below the top in a forked worker process

def _scope(net, wavefront: bool):
    return net.wavefront() if wavefront else contextlib.nullcontext()


def _stack_pass(kind, widths, masked, seeded_states, wavefront):
    T, B, in_dim = 7, 5, 3
    net = RecurrentStack(kind, in_dim, widths, rng=stream(21, kind), name="w")
    X = stream(22, "x").normal(size=(T, B, in_dim))
    masks = states = None
    if masked:
        masks = [sample_dropout_mask((B, w), 0.3, stream(23, l)) for l, w in enumerate(widths)]
    if seeded_states:
        states = [stream(24, l).normal(size=(B, w)) for l, w in enumerate(widths)]
    with _scope(net, wavefront):
        H = net.forward(X, masks=masks, initial_states=states, cache=True)
        dX, dh0 = net.backward(stream(25, "dH").normal(size=H.shape))
    return [H, dX, *dh0, *(p.grad for p in net.parameters())]


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("widths", [(4, 3), (4, 5, 3)])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("seeded_states", [False, True])
def test_wavefront_gives_the_sequential_bits(monkeypatch, kind, widths, masked, seeded_states):
    passes = worker_passes(monkeypatch)
    sequential = _stack_pass(kind, widths, masked, seeded_states, wavefront=False)
    assert not passes
    pipelined = _stack_pass(kind, widths, masked, seeded_states, wavefront=True)
    assert passes == ["forward", "backward"]
    assert len(pipelined) == len(sequential)
    for a, b in zip(sequential, pipelined):
        assert np.array_equal(a, b)


def test_wavefront_bits_hold_when_both_processes_share_one_core(monkeypatch):
    # every hand-off then switches processes on the one core
    passes = worker_passes(monkeypatch)
    expected = _stack_pass("gru", (4, 5, 3), True, True, wavefront=False)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        runs = [_stack_pass("gru", (4, 5, 3), True, True, wavefront=True) for _ in range(20)]
    finally:
        os.sched_setaffinity(0, cpus)
    assert len(passes) == 40
    for got in runs:
        for a, b in zip(expected, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("widths, pipelined", [
    ((24,), False), ((96,), False), ((128,), False), ((24, 24), True),
])
def test_only_wide_stacks_of_two_or_more_layers_pipeline(monkeypatch, widths, pipelined):
    # the name dates from a width gate, which is gone: inside the scope the
    # layer count decides, so a one-layer stack runs layer by layer at any
    # width and a narrow two-layer stack pipelines
    passes = worker_passes(monkeypatch)
    net = RecurrentStack("gru", 2, widths, rng=stream(33, "gate"), name="g")
    X = stream(34, "x").normal(size=(2, 2, 2))
    with net.wavefront():
        net.forward(X, cache=False)
        assert not passes  # inference passes always run layer by layer
        net.backward(net.forward(X, cache=True))
    assert len(passes) == (2 if pipelined else 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("widths, cpus, method, forks", [
    ((24, 24), 2, "fork", True), ((4, 5, 3), 2, "fork", True),
    ((24, 24), 1, "fork", False), ((24, 24), 2, "spawn", False),
], ids=["two layers", "three layers", "one cpu", "no fork"])
def test_the_worker_runs_in_the_scope_for_two_layers_on_two_cpus_with_fork(
        monkeypatch, widths, cpus, method, forks):
    passes = worker_passes(monkeypatch)
    usable_cpus(monkeypatch, cpus)
    if method != "fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [method])
    net = RecurrentStack("gru", 2, widths, rng=stream(33, "gate"), name="g")
    X = stream(34, "x").normal(size=(3, 2, 2))
    net.backward(net.forward(X, cache=True))
    assert not passes  # outside the scope
    with net.wavefront():
        net.forward(X, cache=False)
        net.forward_passes(net.forward_first(X), [np.ones((4, w)) for w in widths])
        assert not passes  # inference runs layer by layer
        net.backward(net.forward(X, cache=True))
    assert passes == (["forward", "backward"] if forks else [])
    assert multiprocessing.active_children() == []


class _Injected(RuntimeError):
    pass


def _failing_at(layer, method: str, step: int):
    """Make ``layer``'s ``method`` ("forward" or "backward") raise as it
    reaches ``step``'s hand-off.  A layer run without a relay gets one that
    only holds its output, so it fails at the same point."""
    run = getattr(layer, method)

    def failing(seq, *args, relay=None, **kwargs):
        if relay is None:
            dim = layer.in_dim if method == "backward" else layer.hidden
            relay = recurrent._Relay(np.empty((*seq.shape[:2], dim)))
        post = relay.post

        def post_or_fail(t):
            if t == step:
                raise _Injected(f"{layer.name} {method} failed at step {t}")
            post(t)

        relay.post = post_or_fail
        return run(seq, *args, relay=relay, **kwargs)

    setattr(layer, method, failing)


# where -> (widths, the failing pass, {layer: the step it fails at}, the layer
# whose error the layer-by-layer schedule raises)
FAILURES = {
    "layer 0 forward": ((4, 5, 3), "forward", {0: 4}, 0),
    "top layer forward": ((4, 5, 3), "forward", {2: 4}, 2),
    "layer 0 backward": ((4, 5, 3), "backward", {0: 4}, 0),
    "top layer backward": ((4, 5, 3), "backward", {2: 4}, 2),
    "both forward": ((4, 3), "forward", {0: 6, 1: 2}, 0),
    "both backward": ((4, 3), "backward", {0: 7, 1: 6}, 1),
}


@pytest.mark.parametrize("where", list(FAILURES))
def test_a_failing_layer_reaches_the_caller_and_leaves_no_thread(monkeypatch, where):
    widths, method, steps, raised_by = FAILURES[where]
    passes = worker_passes(monkeypatch)
    net = RecurrentStack("lstm", 3, widths, rng=stream(26, "fail"), name="f")
    X = stream(27, "x").normal(size=(9, 4, 3))
    for l, step in steps.items():  # before the worker forks, which copies them
        _failing_at(net.layers[l], method, step)
    raised = []

    def run():
        try:
            with net.wavefront():
                net.forward(X, cache=True)
                net.backward(np.ones((9, 4, 3)))
        except _Injected as exc:
            raised.append(str(exc))

    before = threading.active_count()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a wavefront hand-off blocked forever"
    assert raised == [f"f.{raised_by} {method} failed at step {steps[raised_by]}"]
    assert passes == (["forward"] if method == "forward" else ["forward", "backward"])
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sig, error", [("SIGKILL", "ended with exit code -9"),
                                        ("SIGSTOP", "did not answer for 1 s")],
                         ids=["SIGKILL", "SIGSTOP"])
def test_a_killed_or_stopped_worker_raises_one_runtime_error_within_seconds(
        monkeypatch, sig, error):
    worker_passes(monkeypatch)
    monkeypatch.setattr(recurrent, "_PATIENCE_S", 1.0)
    X = stream(56, "x").normal(size=(6, 4, 3))
    net = RecurrentStack("gru", 3, (4, 3), rng=stream(55, "kill"), name="k")
    with net.wavefront():
        H = net.forward(X, cache=True)
        pid = net._worker.proc.pid
        os.kill(pid, getattr(signal, sig))  # between forward and backward
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"^wavefront worker {pid} {error}$"):
            net.backward(H)
        assert time.monotonic() - start < 5.0
        # the next pass forks a new worker
        for p in net.parameters():
            p.zero_grad()
        H = net.forward(X, cache=True)
        got = [H, *net.backward(H)[1], *(p.grad for p in net.parameters())]
        assert net._worker.proc.pid != pid
    assert multiprocessing.active_children() == []
    fresh = RecurrentStack("gru", 3, (4, 3), rng=stream(55, "kill"), name="k")
    H = fresh.forward(X, cache=True)
    expected = [H, *fresh.backward(H)[1], *(p.grad for p in fresh.parameters())]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_the_scope_releases_the_worker_and_its_shared_memory(monkeypatch):
    worker_passes(monkeypatch)
    net = RecurrentStack("lstm", 3, (4, 3), rng=stream(58, "free"), name="m")
    with net.wavefront():
        net.backward(net.forward(stream(59, "x").normal(size=(5, 4, 3)), cache=True))
        link = weakref.ref(net._worker.link)
    assert link() is None  # no cycle keeps the mapping past the scope
    assert multiprocessing.active_children() == []


# forks a worker, prints its pid and exits without closing it
ORPHAN = """
import os
import numpy as np
from demandnet.nn.recurrent import RecurrentStack
os.sched_getaffinity = lambda pid: {0, 1}
net = RecurrentStack("gru", 3, (4, 3), rng=np.random.default_rng(0), name="o")
with net.wavefront():
    net.forward(np.zeros((5, 2, 3)), cache=True)
    print(net._worker.proc.pid, flush=True)
    os._exit(0)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_worker_ends_itself_when_its_caller_dies():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    caller = subprocess.Popen([sys.executable, "-c", ORPHAN], stdout=subprocess.PIPE,
                              text=True, env=env)
    try:
        pid = int(caller.stdout.readline())
        assert caller.wait(timeout=60) == 0
        deadline = time.monotonic() + 10.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        caller.stdout.close()
        caller.kill()
        caller.wait()


@pytest.mark.parametrize("where", [None, "layer 0 forward", "top layer backward"])
def test_a_wavefront_pass_holds_the_blas_at_one_thread_and_restores_it(monkeypatch, where):
    blas = recurrent._openblas()
    if blas is None:
        pytest.skip("numpy links no bundled OpenBLAS")
    get, set_threads = blas
    before = get()
    set_threads(2)
    try:
        passes = worker_passes(monkeypatch)
        net = RecurrentStack("lstm", 3, (4, 3), rng=stream(50, "blas"), name="b")
        X = stream(51, "x").normal(size=(5, 4, 3))
        seen, top = [], net.layers[-1]

        def counting(method):
            def run(*args, **kwargs):
                seen.append(get())
                return method(*args, **kwargs)
            return run

        top.forward, top.backward = counting(top.forward), counting(top.backward)
        if where == "layer 0 forward":
            _failing_at(net.layers[0], "forward", 2)
        if where == "top layer backward":
            _failing_at(top, "backward", 2)
        with pytest.raises(_Injected) if where else contextlib.nullcontext():
            with net.wavefront():
                net.backward(net.forward(X, cache=True))
        assert passes
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        set_threads(before)


def test_fit_reports_an_overflow_in_a_worker_like_the_sequential_path(monkeypatch):
    messages = []
    passes = worker_passes(monkeypatch)
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        net = RecurrentStack("gru", 2, (3, 3), rng=stream(28, "div"), name="d")
        net.layers[0].Wx.value[:] = 4.0
        X = stream(29, "x").normal(size=(6, 4, 2))
        X[3, 1] = 1e308  # layer 0's input product overflows at step 3

        def batch_loss(rows, epoch, step):
            H = net.forward(X[:, rows], cache=True)
            net.backward(H)
            return float(np.sum(H * H))

        with pytest.raises(DivergenceError) as caught:
            with net.wavefront():
                fit(net.parameters(), TrainConfig(epochs=1, batch_size=4), "probe", 4,
                    batch_loss, lambda epoch, loss: None)
        assert passes == ([] if cpus == 1 else ["forward"])
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "overflow" in messages[0]
