"""LSTM and GRU layers with explicit backpropagation through time.

Every cell takes batches only and has one contract:

    forward(X, h0=None, cache=True) -> H    X (T, B, in_dim) -> H (T, B, hidden)
    backward(dH) -> (dX, dh0)               after forward(cache=True)

``h0`` is the (B, hidden) initial hidden state, zeros when omitted.
``backward`` takes the gradient on every output, (T, B, hidden), or on the
last output alone, (B, hidden); it accumulates the parameter gradients and
returns the gradients on the input sequence and on ``h0``.  The LSTM memory
cell always starts at zero and stays internal.  Both also take a ``relay``,
which only :class:`RecurrentStack`'s wavefront passes: it supplies the
output array and paces each step against the neighbouring layer.

Gate weights are packed into combined matrices: input weights
(in_dim, G*hidden) and recurrent weights (hidden, G*hidden), G = 4 for LSTM
gates [i, f, g, o] and G = 3 for GRU gates [r, z, n].  The GRU candidate
applies the reset gate to the previous hidden state *before* the recurrent
matmul, and the update gate blends ``h = (1 - z) * h_prev + z * n`` so
forcing z = 1 hands the state entirely to the candidate.

A cached forward keeps its input sequence (the LSTM also ``h0``) until
backward, which releases it, and fills arrays the layer keeps for its next
forward of the same shape.  They hold only what backward cannot rebuild
with the same bits:

- LSTM: the gates ``I, F, G, O`` (T, B, hidden) and the cell states ``C``
  (T+1, B, hidden), ``C[0] = 0``.  Backward recomputes ``tanh(C[t+1])``
  once per step and carries it down a step, so the previous hidden state
  ``O[t-1] * tanh(C[t])`` comes from the operations forward used.
- GRU: the gates ``R, Z``, the candidate ``N`` and the previous hidden
  states (T, B, hidden).  Backward recomputes the reset product
  ``r * h_prev``.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import threading

import numpy as np

from .activations import sigmoid
from .layers import Parameter, glorot_uniform


def _as_sequence(X: np.ndarray, in_dim: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != in_dim:
        raise ValueError(f"{name} expects (T, B, {in_dim}) input, got shape {X.shape}")
    return X


def _cache_buffers(layer, shapes) -> list[np.ndarray]:
    """Arrays of ``shapes`` for the BPTT cache a forward pass fills.

    The layer's last cache is dropped first, so a forward that fails leaves
    none for ``backward`` to misuse.  The arrays stay in ``layer._buffers``
    and are reused while the shapes match: every step overwrites them, and
    reused pages need no fresh faults.  Arrays of other shapes are released
    before new ones are allocated, so a layer never holds two sets.
    """
    layer._cache = None
    if layer._buffers is None or [b.shape for b in layer._buffers] != shapes:
        layer._buffers = None
        layer._buffers = [np.empty(shape) for shape in shapes]
    return layer._buffers


def _per_step(dH, T: int):
    """``dH[t]``, the gradient on output step t, for every t < T.

    A (B, hidden) ``dH`` is the gradient on the last step alone: each earlier
    step reads one shared zero row, as it would from a full (T, B, hidden)
    gradient that is zero there, so the sums carry the same bits.
    """
    dH = np.asarray(dH, dtype=float)
    if dH.ndim == 3:
        return dH
    return [np.zeros_like(dH)] * (T - 1) + [dH]


class LSTMLayer:
    """Single LSTM layer over a sequence, with cached forward for BPTT."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 name: str = "lstm"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim, self.hidden = in_dim, hidden
        self.name = name
        self.Wx = Parameter(f"{name}.Wx", glorot_uniform(rng, in_dim, hidden, (in_dim, 4 * hidden)))
        self.Wh = Parameter(f"{name}.Wh", glorot_uniform(rng, hidden, hidden, (hidden, 4 * hidden)))
        self.b = Parameter(f"{name}.b", np.zeros(4 * hidden), penalized=False)
        self._cache = self._buffers = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    def forward(self, X: np.ndarray, h0=None, cache: bool = True, relay=None) -> np.ndarray:
        X = _as_sequence(X, self.in_dim, self.name)
        T, B, _ = X.shape
        k = self.hidden
        h = h0 = np.zeros((B, k)) if h0 is None else np.asarray(h0, dtype=float)
        H = np.empty((T, B, k)) if relay is None else relay.out
        if cache:
            I, F, G, O, C = _cache_buffers(self, [(T, B, k)] * 4 + [(T + 1, B, k)])
            c = C[0]
            c[...] = 0.0
        else:
            c = np.zeros((B, k))
        for t in range(T):
            if relay is not None:
                relay.wait()
            z = X[t] @ self.Wx.value + h @ self.Wh.value + self.b.value
            i_f = sigmoid(z[:, : 2 * k])
            i, f = i_f[:, :k], i_f[:, k:]
            g = np.tanh(z[:, 2 * k : 3 * k])
            o = sigmoid(z[:, 3 * k :])
            c = np.add(f * c, i * g, out=C[t + 1] if cache else None)
            if cache:
                I[t], F[t], G[t], O[t] = i, f, g, o
            h = o * np.tanh(c)
            H[t] = h
            if relay is not None:
                relay.post(t)
        if cache:
            self._cache = (X, h0)
        return H

    def backward(self, dH: np.ndarray, relay=None):
        """BPTT over the cached forward; returns (dX, dh0)."""
        if self._cache is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        X, h0 = self._cache
        I, F, G, O, C = self._buffers
        T, B, _ = X.shape
        dH = _per_step(dH, T)
        dX = np.empty_like(X) if relay is None else relay.out
        dh_next = np.zeros((B, self.hidden))
        dc_next = np.zeros((B, self.hidden))
        tc = np.tanh(C[T])
        for t in range(T - 1, -1, -1):
            if relay is not None:
                relay.wait()
            dh = dH[t] + dh_next
            i, f, g, o = I[t], F[t], G[t], O[t]
            tc_prev = np.tanh(C[t]) if t else None
            h_prev = O[t - 1] * tc_prev if t else h0
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * C[t]
            dg = dc * i
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
                axis=1,
            )
            self.Wx.grad += X[t].T @ dz
            self.Wh.grad += h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dX[t] = dz @ self.Wx.value.T
            if relay is not None:
                relay.post(t)
            dh_next = dz @ self.Wh.value.T
            dc_next = dc * f
            tc = tc_prev
        self._cache = None
        return dX, dh_next


class GRULayer:
    """Single GRU layer; forget and input roles share one update gate."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim, self.hidden = in_dim, hidden
        self.name = name
        self.Wx = Parameter(f"{name}.Wx", glorot_uniform(rng, in_dim, hidden, (in_dim, 3 * hidden)))
        self.Wh_rz = Parameter(f"{name}.Wh_rz", glorot_uniform(rng, hidden, hidden, (hidden, 2 * hidden)))
        self.Wh_n = Parameter(f"{name}.Wh_n", glorot_uniform(rng, hidden, hidden, (hidden, hidden)))
        self.b = Parameter(f"{name}.b", np.zeros(3 * hidden), penalized=False)
        self._cache = self._buffers = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh_rz, self.Wh_n, self.b]

    def forward(self, X: np.ndarray, h0=None, cache: bool = True, relay=None) -> np.ndarray:
        X = _as_sequence(X, self.in_dim, self.name)
        T, B, _ = X.shape
        k = self.hidden
        h = np.zeros((B, k)) if h0 is None else np.asarray(h0, dtype=float)
        H = np.empty((T, B, k)) if relay is None else relay.out
        if cache:
            R, Z, N, Hprev = _cache_buffers(self, [(T, B, k)] * 4)
        for t in range(T):
            if relay is not None:
                relay.wait()
            gx = X[t] @ self.Wx.value + self.b.value
            rz = sigmoid(gx[:, : 2 * k] + h @ self.Wh_rz.value)
            r, z = rz[:, :k], rz[:, k:]
            n = np.tanh(gx[:, 2 * k :] + (r * h) @ self.Wh_n.value)
            if cache:
                R[t], Z[t], N[t], Hprev[t] = r, z, n, h
            h = (1.0 - z) * h + z * n
            H[t] = h
            if relay is not None:
                relay.post(t)
        if cache:
            self._cache = X
        return H

    def backward(self, dH: np.ndarray, relay=None):
        """BPTT over the cached forward; returns (dX, dh0)."""
        if self._cache is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        X = self._cache
        R, Z, N, Hprev = self._buffers
        T, B, _ = X.shape
        dH = _per_step(dH, T)
        dX = np.empty_like(X) if relay is None else relay.out
        dh_next = np.zeros((B, self.hidden))
        for t in range(T - 1, -1, -1):
            if relay is not None:
                relay.wait()
            dh = dH[t] + dh_next
            r, z, n, h_prev = R[t], Z[t], N[t], Hprev[t]
            dz_gate = dh * (n - h_prev)
            dn = dh * z
            dh_prev = dh * (1.0 - z)
            dnpre = dn * (1.0 - n * n)
            dq = dnpre @ self.Wh_n.value.T
            self.Wh_n.grad += (r * h_prev).T @ dnpre
            dh_prev += dq * r
            dr = dq * h_prev
            drpre = dr * r * (1.0 - r)
            dzpre = dz_gate * z * (1.0 - z)
            drz = np.concatenate([drpre, dzpre], axis=1)
            dh_prev += drz @ self.Wh_rz.value.T
            self.Wh_rz.grad += h_prev.T @ drz
            dgx = np.concatenate([drpre, dzpre, dnpre], axis=1)
            self.Wx.grad += X[t].T @ dgx
            self.b.grad += dgx.sum(axis=0)
            dX[t] = dgx @ self.Wx.value.T
            if relay is not None:
                relay.post(t)
            dh_next = dh_prev
        self._cache = None
        return dX, dh_next


CELL_KINDS = {"lstm": LSTMLayer, "gru": GRULayer}

# A stack whose layers are all at least this wide runs as a wavefront; see
# RecurrentStack.  A hand-off costs the same however small a step is:
# measured forward + backward over 32 steps at one BLAS thread, the
# wavefront wins from width 48 at batch 128, from 96 at batch 64, and
# breaks even at 96 to 128 at batch 32.
WAVEFRONT_MIN_WIDTH = 96

# RecurrentStack.forward_passes runs the layers above layer 0 on at most
# this many rows at a time, which bounds the memory a call touches.  On 41
# windows x 100 passes through a 2x24 GRU at one BLAS thread, groups of 192
# to 512 rows ran within noise of each other, 128 rows ran 10% slower, and
# 1024 rows up to one ungrouped batch 17-53% slower.
MC_ROWS = 512


def make_cell(kind: str, in_dim: int, hidden: int, rng=None, name=None):
    try:
        cls = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; choose from {sorted(CELL_KINDS)}")
    return cls(in_dim, hidden, rng=rng, name=name or kind)


class _Aborted(Exception):
    """Ends a wavefront layer whose input layer failed."""


class _Relay:
    """One layer's place in a wavefront pass.

    The layer writes its output steps into ``out``.  ``wait()`` runs before
    each step reads its input and blocks until ``source``, the layer that
    produces that input, has handed the step over; ``post(t)`` masks step t
    of ``out`` and hands it on.  ``ready`` counts the steps handed on.
    """

    def __init__(self, out, mask, source):
        self.out, self.mask, self.source = out, mask, source
        self.ready = threading.Semaphore(0)
        self.broken = False

    def wait(self):
        if self.source is not None:
            self.source.ready.acquire()
            if self.source.broken:
                raise _Aborted

    def post(self, t: int):
        if self.mask is not None:
            self.out[t] *= self.mask
        self.ready.release()

    def stop(self):
        """Wake the consumer for every step it may still wait on; it aborts."""
        self.broken = True
        self.ready.release(len(self.out))


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of the OpenBLAS bundled with numpy,
    or None when numpy links another BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _wavefront(run_layer, outs, out_masks, backward: bool):
    """Run ``run_layer(l, relay)`` for every layer l at once, the top layer in
    the caller and each other layer on a worker thread; returns the results.

    Forward, layer l consumes layer l-1's steps; backward, layer l+1's.  A
    failed layer stops its consumers, never its producers, so the error
    raised is the one the sequential schedule, layer by layer, would raise.
    Workers run in a copy of the caller's context, so numpy error states
    such as :func:`~demandnet.nn.optim.fit`'s hold there too.

    The layers' threads take the cores a threaded BLAS would, so a bundled
    OpenBLAS running more than one thread is held at one for the pass and
    restored after it, also when it fails.  The setting is process-wide.
    """
    blas = _openblas()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        return _run_wavefront(run_layer, outs, out_masks, backward)
    finally:
        if threads > 1:
            blas[1](threads)


def _run_wavefront(run_layer, outs, out_masks, backward: bool):
    L = len(outs)
    relays, source = [None] * L, None
    for l in (range(L - 1, -1, -1) if backward else range(L)):
        relays[l] = source = _Relay(outs[l], out_masks[l], source)
    results, errors = [None] * L, [None] * L

    def run(l):
        try:
            results[l] = run_layer(l, relays[l])
        except BaseException as exc:  # re-raised by the caller below
            relays[l].stop()
            if not isinstance(exc, _Aborted):
                errors[l] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, l),
                                name=f"wavefront-{l}") for l in range(L - 1)]
    for worker in workers:
        worker.start()
    try:
        run(L - 1)
    finally:
        for worker in workers:
            worker.join()
    failed = [exc for exc in errors if exc is not None]
    if failed:
        raise failed[-1] if backward else failed[0]
    return results


class RecurrentStack:
    """Stacked recurrent layers with an optional dropout mask per layer.

    Masks are (B, width) arrays shared across all time steps of a pass, the
    Monte-Carlo dropout convention; they multiply each layer's output
    sequence before it feeds the next layer (or the readout).

    A stack of two or more layers, all at least ``WAVEFRONT_MIN_WIDTH``
    wide, runs its cached forward and its backward as a wavefront over
    (time, layer): layer l+1 needs only step t of layer l to run its step t,
    so each layer runs its own loop on its own thread and hands each step
    on as soon as it is written.  Each loop does the same operations in the
    same order as when the layers run one after another, so every output
    and gradient is bitwise the same.  Below that width the hand-offs cost
    more than the overlap saves, and the layers run one after another.
    """

    def __init__(self, kind: str, in_dim: int, widths, rng, name: str = "stack"):
        self.widths = tuple(int(w) for w in widths)
        if not self.widths:
            raise ValueError("stack needs at least one layer")
        self.layers = []
        prev = in_dim
        for l, w in enumerate(self.widths):
            self.layers.append(make_cell(kind, prev, w, rng=rng, name=f"{name}.{l}"))
            prev = w
        self._masks = self._steps = None

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(self, X: np.ndarray, masks=None, initial_states=None, cache: bool = True):
        """Run the full stack; returns the (masked) top-layer sequence."""
        if masks is not None and len(masks) != len(self.layers):
            raise ValueError(f"expected {len(self.layers)} masks, got {len(masks)}")
        if initial_states is not None and len(initial_states) != len(self.layers):
            raise ValueError("one initial state per layer required")
        masks = masks if masks is not None else [None] * len(self.layers)
        states = initial_states if initial_states is not None else [None] * len(self.layers)
        if cache:
            self._masks, self._steps = masks, len(X)
        if cache and self._pipelined():
            T, B = X.shape[:2]
            outs = [np.empty((T, B, w)) for w in self.widths]

            def run_layer(l, relay):
                source = X if l == 0 else outs[l - 1]
                return self.layers[l].forward(source, h0=states[l], cache=True, relay=relay)

            _wavefront(run_layer, outs, masks, backward=False)
            return outs[-1]
        cur = X
        for layer, h0, mask in zip(self.layers, states, masks):
            cur = layer.forward(cur, h0=h0, cache=cache)
            if mask is not None:
                cur *= mask  # cur is this call's own array; no cache holds it
        return cur

    def forward_first(self, X: np.ndarray) -> np.ndarray:
        """Layer 0's unmasked output on (T, B, in_dim) inputs, for
        :meth:`forward_passes`.  Inference only; nothing is cached.  A lone
        row runs as two copies, one kept: numpy sends a one-row matmul to
        gemv, which sums in another order than gemm."""
        B = X.shape[1]
        return self.layers[0].forward(np.repeat(X, 2, axis=1) if B == 1 else X,
                                      cache=False)[:, :B]

    def forward_passes(self, first: np.ndarray, masks) -> np.ndarray:
        """The top layer's masked last step under m dropout passes: (m, B, width).

        ``first`` is :meth:`forward_first`'s (T, B, width) output and
        ``masks[l]`` is (m, width of layer l), row j being pass j's mask,
        shared by the B input rows.  Inference only; nothing is cached.
        Layer 0's output does not depend on the masks, so it is computed
        once, by the caller, and each pass's mask multiplies it by
        broadcasting.  The layers above run on groups of whole passes, at
        most ``MC_ROWS`` rows at a time (one pass when B is larger), so no
        layer's output exists for all m passes at once; a group of one row
        runs as two copies, as in :meth:`forward_first`.  A row's arithmetic
        does not depend on its batch-mates, so the grouping changes no bits.
        """
        if len(masks) != len(self.layers):
            raise ValueError(f"expected {len(self.layers)} masks, got {len(masks)}")
        T, B, _ = first.shape
        m = len(masks[0])
        first = first[:, None]  # (T, passes, rows, width)
        out = np.empty((m, B, self.widths[-1]))
        step = max(1, MC_ROWS // B)
        for j in range(0, m, step):
            group = slice(j, min(j + step, m))
            H = first
            for layer, mask in zip(self.layers[1:], masks):
                cur = (H * mask[group, None, :]).reshape(T, -1, mask.shape[1])
                H = layer.forward(np.repeat(cur, 2, axis=1) if cur.shape[1] == 1 else cur,
                                  cache=False)
                H = H.reshape(T, group.stop - j, -1, layer.hidden)
            out[group] = (H[-1] * masks[-1][group, None, :])[:, :B]
        return out

    def _pipelined(self) -> bool:
        return len(self.layers) > 1 and min(self.widths) >= WAVEFRONT_MIN_WIDTH

    def backward(self, dOut: np.ndarray):
        """Backpropagate through every layer; returns (dX, [dh0 per layer]).

        ``dOut`` is the gradient on every output step, (T, B, width), or on
        the last step alone, (B, width), as a readout of the last step
        passes it.  The caller's array is never written to.
        """
        if self._steps is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        d = np.asarray(dOut, dtype=float)
        masks = self._masks
        if masks[-1] is not None:
            d = d * masks[-1]
        if self._pipelined():
            outs = [np.empty((self._steps, d.shape[-2], layer.in_dim)) for layer in self.layers]

            def run_layer(l, relay):
                source = d if l == len(self.layers) - 1 else outs[l + 1]
                return self.layers[l].backward(source, relay=relay)[1]

            d_initial = _wavefront(run_layer, outs, [None, *masks[:-1]], backward=True)
            return outs[0], d_initial
        d_initial = [None] * len(self.layers)
        for l in range(len(self.layers) - 1, -1, -1):
            d, d_initial[l] = self.layers[l].backward(d)
            if l and masks[l - 1] is not None:
                d *= masks[l - 1]  # d is layer l's own new array
        return d, d_initial
