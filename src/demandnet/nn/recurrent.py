"""LSTM and GRU layers with explicit backpropagation through time.

Every cell takes batches only and has one contract:

    forward(X, h0=None, cache=True) -> H    X (T, B, in_dim) -> H (T, B, hidden)
    backward(dH) -> (dX, dh0)               after forward(cache=True)

``h0`` is the (B, hidden) initial hidden state, zeros when omitted.
``backward`` takes the gradient on every output, (T, B, hidden), or on the
last output alone, (B, hidden); it accumulates the parameter gradients and
returns the gradients on the input sequence and on ``h0``.  The LSTM memory
cell always starts at zero and stays internal.  Both also take a ``relay``,
which only :meth:`RecurrentStack.wavefront` passes: in training, a forked
worker process runs a stack's layers below the top and hands each step to
the top layer, in the calling process, through shared memory, and the relay
supplies the output array and paces each step against the neighbouring
layer.  ``wavefront`` describes the gate, the one failure path and the BLAS
hold; :class:`_Worker` the shared memory.

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

import contextlib
import ctypes
import functools
import gc
import glob
import logging
import math
import mmap
import multiprocessing
import os
import signal
import time

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

# RecurrentStack.forward_passes runs the layers above layer 0 on at most
# this many rows at a time, which bounds the memory a call touches.  On 41
# windows x 100 passes through a 2x24 GRU at one BLAS thread, groups of 192
# to 512 rows ran within noise of each other, 128 rows ran 10% slower, and
# 1024 rows up to one ungrouped batch 17-53% slower.
MC_ROWS = 512

# While a wavefront worker and its caller wait for each other, each polls for
# _SPIN_S, then blocks and checks every _POLL_S (seconds) that the other is
# still there; the caller gives up on a worker silent for _PATIENCE_S.  On a
# 2-vCPU Xeon VM a desk step (GRU 24x2, batch 128) took about 110 us, passes
# came about 1 ms apart, and a post took 21-28 us to wake a blocked waiter.
_SPIN_S = 0.002
_POLL_S = 0.1
_PATIENCE_S = 60.0

log = logging.getLogger(__name__)


def make_cell(kind: str, in_dim: int, hidden: int, rng=None, name=None):
    try:
        cls = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; choose from {sorted(CELL_KINDS)}")
    return cls(in_dim, hidden, rng=rng, name=name or kind)


def _polled(ready) -> bool:
    """Whether ``ready(0)`` came true within ``_SPIN_S``, polled with the CPU
    yielded between polls: a post meanwhile wakes no one, and a peer on the
    same CPU runs.  A semaphore's ``acquire(False)`` is a user-space try."""
    spin = time.monotonic() + _SPIN_S
    while not ready(0):
        if time.monotonic() >= spin:
            return False
        os.sched_yield()
    return True


class _Relay:
    """One layer's place in a wavefront pass: the layer writes its output
    steps into ``out``; ``wait()``, before each step reads its input, calls
    ``take``, if given, which blocks until that input step is handed over;
    ``post(t)`` masks step t of ``out`` and hands it on with ``give``."""

    def __init__(self, out, mask=None, take=None, give=None):
        self.out, self.mask, self.take, self.give = out, mask, take, give

    def wait(self):
        if self.take is not None:
            self.take()

    def post(self, t: int):
        if self.mask is not None:
            self.out[t] *= self.mask
        if self.give is not None:
            self.give()


def _forward_layers(layers, X, masks, states, cache: bool, relay=None) -> np.ndarray:
    """Run ``layers`` one after another, each output masked before it feeds
    the next; the last layer runs with ``relay``, if given, which masks it."""
    for l, layer in enumerate(layers):
        last = relay if l == len(layers) - 1 else None
        X = layer.forward(X, h0=states[l], cache=cache, relay=last)
        if last is None and masks[l] is not None:
            X *= masks[l]  # X is this call's own array; no cache holds it
    return X


def _backward_layers(layers, d, masks, relay=None):
    """BPTT through ``layers`` from ``d``, the gradient on the last layer's
    masked output with its mask applied; the last layer runs with ``relay``,
    if given.  Returns (dX, [dh0 per layer])."""
    dh0 = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        d, dh0[l] = layers[l].backward(d, relay=relay if l == len(layers) - 1 else None)
        if l and masks[l - 1] is not None:
            d *= masks[l - 1]  # d is layer l's own new array
    return d, dh0


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


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the bundled OpenBLAS at one thread in the block and restore its
    count after it, also when the block fails.  The setting is process-wide.
    The wavefront holds it for a whole training: holding it for each pass
    instead left an epoch at two BLAS threads slower than at one."""
    blas = _openblas()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            blas[1](threads)


class _Worker:
    """The forked process that runs a stack's layers below the top inside
    :meth:`RecurrentStack.wavefront`, and the memory it shares with the caller.

    It forks at the scope's first cached forward, with one anonymous shared
    mapping sized for that pass's T steps of B rows: the input ``x`` and its
    gradient ``dx``; each lower layer's ``mask{l}``, initial state ``h0{l}``
    and its gradient ``dh0{l}``; the lower layers' output ``out`` and its
    gradient ``dout``; and each lower parameter's ``value{i}`` and ``grad{i}``.
    The parameters are bound to those for the scope, so the optimizer's
    in-place steps and the worker's gradients cross with no copy.  Process
    semaphores pace the steps: ``ahead`` counts the forward steps the worker
    has handed over, ``back`` the backward steps the caller has.  The worker
    answers each pass True (done) or False (failed).  Every wait, for a step,
    a request or an answer, first polls (:func:`_polled`), then blocks with
    its liveness checks.
    """

    def __init__(self, stack):
        self.stack = stack
        self.proc = self.conn = self.flat = None
        self.shared = []  # the lower parameters, bound to the mapping
        self.retired = False  # set by close: the scope runs layer by layer

    def takes(self, T: int, B: int) -> bool:
        """Whether a cached forward of T steps of B rows runs through here."""
        return not self.retired and (self.proc is None or (T <= self.T and B <= self.B))

    def view(self, name: str, *shape) -> np.ndarray:
        return self.flat[name][: math.prod(shape)].reshape(shape)

    def _start(self, T: int, B: int):
        lower = self.stack.layers[:-1]
        self.T, self.B = T, B
        self.shared = [p for layer in lower for p in layer.parameters()]
        sizes = {"x": T * B * lower[0].in_dim, "dx": T * B * lower[0].in_dim,
                 "out": T * B * lower[-1].hidden, "dout": T * B * lower[-1].hidden}
        sizes |= {f"{name}{l}": B * layer.hidden for l, layer in enumerate(lower)
                  for name in ("mask", "h0", "dh0")}
        sizes |= {f"{name}{i}": p.value.size for i, p in enumerate(self.shared)
                  for name in ("value", "grad")}
        padded = [-(-n // 8) * 8 for n in sizes.values()]  # each starts on 64 bytes
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(padded)), dtype=float)
        starts = np.cumsum([0, *padded])
        self.flat = {name: flat[s : s + n] for (name, n), s in zip(sizes.items(), starts)}
        for i, p in enumerate(self.shared):  # bound to the mapping until close()
            value, grad = (self.view(f"{name}{i}", *p.value.shape) for name in ("value", "grad"))
            value[...], grad[...] = p.value, p.grad
            p.value, p.grad = value, grad
        ctx = multiprocessing.get_context("fork")
        self.ahead, self.back = ctx.Semaphore(0), ctx.Semaphore(0)
        self.conn, theirs = ctx.Pipe()
        proc = ctx.Process(target=_serve, name="wavefront", daemon=True,
                           args=(self, theirs, os.getpid()))
        try:
            proc.start()
        finally:
            theirs.close()
        self.proc = proc

    def _wait(self, ready, answered=lambda: False):
        """Wait until ``ready(timeout)`` is true; raise when the worker answered
        (it does so mid-pass only on failure), ended, or was silent too long."""
        since, proc = time.monotonic(), self.proc
        if _polled(ready):
            return
        while not ready(_POLL_S):
            if answered():
                raise RuntimeError(f"wavefront worker {proc.pid} failed")
            if proc.exitcode is not None:
                raise RuntimeError(f"wavefront worker {proc.pid} ended with code {proc.exitcode}")
            if time.monotonic() - since >= _PATIENCE_S:
                raise RuntimeError(f"wavefront worker {proc.pid} was silent for {_PATIENCE_S:g} s")

    def _ask(self, kind: str):
        """Send the worker a pass request; raise naming its exit if it is gone."""
        try:
            self.conn.send((kind, *self.request, np.geterr()))
        except OSError:  # its end of the pipe closes a little before its exit code is set
            self._wait(self.proc.join)  # join is never true: this raises once it is

    def _answer(self):
        """Wait for the worker's answer to a pass; raise unless it is done."""
        self._wait(lambda timeout: self.conn.poll(timeout) and self.proc.exitcode is None)
        if not self.conn.recv():
            raise RuntimeError(f"wavefront worker {self.proc.pid} failed")

    def forward(self, X, masks, states) -> np.ndarray:
        """The stack's cached forward over (T, B, in_dim) ``X``."""
        lower, top = self.stack.layers[:-1], self.stack.layers[-1]
        T, B = X.shape[:2]
        if self.proc is None:
            self._start(T, B)
        self.view("x", T, B, X.shape[2])[...] = X
        for name, rows in (("mask", masks), ("h0", states)):
            for l, layer in enumerate(lower):
                if rows[l] is not None:
                    self.view(f"{name}{l}", B, layer.hidden)[...] = rows[l]
        self.request = (T, B, [m is not None for m in masks[:-1]],
                        [s is not None for s in states[:-1]])
        self._ask("forward")
        relay = _Relay(np.empty((T, B, top.hidden)), masks[-1], take=lambda: self._wait(
            lambda timeout: self.ahead.acquire(timeout > 0, timeout), self.conn.poll))
        H = top.forward(self.view("out", T, B, top.in_dim), h0=states[-1], cache=True,
                        relay=relay)
        self._answer()
        return H

    def backward(self, d, masks):
        """The stack's backward from the top layer's masked output gradient."""
        lower, top = self.stack.layers[:-1], self.stack.layers[-1]
        T, B = self.request[:2]
        self._ask("backward")
        relay = _Relay(self.view("dout", T, B, top.in_dim), masks[-2], give=self.back.release)
        dh_top = top.backward(d, relay=relay)[1]
        self._answer()
        dh0 = [self.view(f"dh0{l}", B, layer.hidden).copy() for l, layer in enumerate(lower)]
        return self.view("dx", T, B, lower[0].in_dim).copy(), dh0 + [dh_top]

    def close(self):
        """Kill and join the worker, whatever it is doing, and give the lower
        parameters private copies; the rest of the scope runs layer by layer."""
        self.retired = True
        if self.proc is not None:
            self.proc.kill()
            self.proc.join()
            self.proc.close()
        if self.conn is not None:
            self.conn.close()
        for p in self.shared:
            p.value, p.grad = p.value.copy(), p.grad.copy()
        self.shared, self.proc, self.conn, self.flat = [], None, None, None


def _serve(worker: _Worker, conn, parent: int):
    """The worker process: run each pass of the layers below the top that
    the caller asks for and answer whether it succeeded, until the caller
    kills it; end when the caller is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
    gc.freeze()  # collections here then leave the memory shared with the caller alone
    blas = _openblas()
    if blas is not None:
        blas[1](1)
    lower, view = worker.stack.layers[:-1], worker.view

    def wait(ready):
        if _polled(ready):
            return
        while not ready(_POLL_S):
            if os.getppid() != parent:
                raise SystemExit(1)

    def rows(name, present, B):
        return [view(f"{name}{l}", B, layer.hidden) if on else None
                for l, (layer, on) in enumerate(zip(lower, present))]

    while True:
        wait(conn.poll)
        kind, T, B, masked, seeded, errstate = conn.recv()
        masks = rows("mask", masked, B)
        try:
            with np.errstate(**errstate):
                if kind == "forward":
                    states = rows("h0", seeded, B)
                    relay = _Relay(view("out", T, B, lower[-1].hidden), masks[-1],
                                   give=worker.ahead.release)
                    _forward_layers(lower, view("x", T, B, lower[0].in_dim), masks, states,
                                    True, relay)
                else:
                    relay = _Relay(np.empty((T, B, lower[-1].in_dim)), take=lambda: wait(
                        lambda timeout: worker.back.acquire(timeout > 0, timeout)))
                    dx, dh0 = _backward_layers(lower, view("dout", T, B, lower[-1].hidden),
                                               masks, relay)
                    view("dx", T, B, lower[0].in_dim)[...] = dx
                    for l, (layer, d) in enumerate(zip(lower, dh0)):
                        view(f"dh0{l}", B, layer.hidden)[...] = d
            done = True
        except Exception:
            done = False
        conn.send(done)


class RecurrentStack:
    """Stacked recurrent layers with an optional dropout mask per layer.

    Masks are (B, width) arrays shared across all time steps of a pass, the
    Monte-Carlo dropout convention; they multiply each layer's output
    sequence before it feeds the next layer (or the readout).

    Inside :meth:`wavefront`, a stack of two or more layers runs its cached
    forward and its backward as a wavefront over (time, layer): layer l+1
    needs only step t of layer l to run its step t, so a forked worker runs
    the layers below the top, with this class's layer loop, while the caller
    runs the top layer.  Everything else runs layer by layer in the caller.
    """

    def __init__(self, kind: str, in_dim: int, widths, rng, name: str = "stack"):
        self.widths = tuple(int(w) for w in widths)
        if not self.widths:
            raise ValueError("stack needs at least one layer")
        dims = (in_dim, *self.widths)
        self.layers = [make_cell(kind, dims[l], w, rng=rng, name=f"{name}.{l}")
                       for l, w in enumerate(self.widths)]
        self._masks = self._steps = self._inputs = self._worker = None
        self._remote = False  # the last cached forward ran through the worker

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    @contextlib.contextmanager
    def wavefront(self):
        """Run the stack's cached forwards and backwards in the block as a
        wavefront, when the gate allows: two or more layers, two or more
        usable CPUs (``os.sched_getaffinity``) and the ``fork`` start method.

        The worker forks at the block's first cached forward, sized for its
        steps and rows (a larger pass later runs layer by layer), and is
        killed when the block exits.  Each layer runs the operations of the
        layer-by-layer schedule in the same order, so every output and
        gradient is bitwise the same.  The worker holds its bundled OpenBLAS
        at one thread, and the caller holds its own through the block.

        Every failure of a pass takes one path, :meth:`_through_worker`: an
        exception on either side, a worker that ended or did not answer for
        ``_PATIENCE_S``, or a fork that raised.  A worker whose caller dies
        ends itself.
        """
        if (self._worker is not None or len(self.layers) < 2
                or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                or "fork" not in multiprocessing.get_all_start_methods()):
            yield
            return
        self._worker = _Worker(self)
        try:
            with _one_blas_thread():
                yield
        finally:
            worker, self._worker, self._remote = self._worker, None, False
            worker.close()

    def _through_worker(self, run, replay):
        """``run()``, a pass through the worker; should it fail, the worker
        is killed, and ``replay()`` reruns the pass layer by layer from the
        inputs the caller kept, so an error is the one the layer-by-layer
        schedule raises and a lost worker costs time, not bits.  A replay
        that returns logs one warning; the rest of the scope runs layer by
        layer.  An interrupt or exit kills the worker and propagates."""
        try:
            return run()
        except BaseException as exc:
            self._worker.close()
            self._remote = False
            if not isinstance(exc, Exception):
                raise
            failure = f"{type(exc).__name__}: {exc}"
        out = replay()
        log.warning("wavefront pass failed (%s); ran it and the rest of the scope "
                    "layer by layer", failure)
        return out

    def forward(self, X: np.ndarray, masks=None, initial_states=None, cache: bool = True):
        """Run the full stack; returns the (masked) top-layer sequence."""
        if masks is not None and len(masks) != len(self.layers):
            raise ValueError(f"expected {len(self.layers)} masks, got {len(masks)}")
        if initial_states is not None and len(initial_states) != len(self.layers):
            raise ValueError("one initial state per layer required")
        masks = masks if masks is not None else [None] * len(self.layers)
        states = initial_states if initial_states is not None else [None] * len(self.layers)
        if cache:
            X = _as_sequence(X, self.layers[0].in_dim, self.layers[0].name)
            self._masks, self._steps, self._inputs = masks, len(X), (X, states)
            self._remote = self._worker is not None and self._worker.takes(*X.shape[:2])
            if self._remote:
                return self._through_worker(
                    lambda: self._worker.forward(X, masks, states),
                    lambda: _forward_layers(self.layers, X, masks, states, True))
        return _forward_layers(self.layers, X, masks, states, cache)

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
        if not self._remote:
            return _backward_layers(self.layers, d, masks)
        grads = [p.grad.copy() for p in self.parameters()]

        def replay():
            for p, grad in zip(self.parameters(), grads):
                p.grad[...] = grad
            X, states = self._inputs  # the lower layers' caches were the worker's
            _forward_layers(self.layers, X, masks, states, True)
            return _backward_layers(self.layers, d, masks)

        return self._through_worker(lambda: self._worker.backward(d, masks), replay)
