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

Training runs a stack of two or more layers as that wavefront, inside
:meth:`RecurrentStack.wavefront`: a forked worker process runs every layer
below the top and hands each step to the top layer, in the calling
process, through shared memory.  :class:`RecurrentStack` and its
``wavefront`` describe the gate, the failure rules and the BLAS hold.

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
import math
import mmap
import multiprocessing
import os
import pickle
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

# While a wavefront worker and its caller wait for each other, each checks
# this often (seconds) that the other is still there; the caller gives up on
# a worker that has not answered for _PATIENCE_S.
_POLL_S = 0.1
_PATIENCE_S = 60.0


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
    each step reads its input and calls ``take``, if given, which blocks
    until the layer that produces that input has handed the step over;
    ``post(t)`` masks step t of ``out`` and calls ``give``, if given, to hand
    it on.
    """

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
    count after it, also when the block fails.  The setting is process-wide."""
    blas = _openblas()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            blas[1](threads)


def _forks_a_worker(stack) -> bool:
    """The wavefront's gate: two or more layers, two or more usable CPUs and
    the ``fork`` start method."""
    return (len(stack.layers) > 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and "fork" in multiprocessing.get_all_start_methods())


class _Link:
    """What a stack's top layer, in the caller, shares with the worker that
    runs the layers below it, for passes of up to ``T`` steps of ``B`` rows.

    The arrays live in one anonymous shared mapping made before the fork:
    the input ``x`` and its gradient ``dx``; each lower layer's mask
    ``mask{l}``, initial state ``h0{l}`` and its gradient ``dh0{l}``; each
    lower parameter's ``value{i}`` and ``grad{i}``; the worker's masked
    output ``out`` and the top layer's masked gradient ``dout`` on it.
    ``ahead`` counts the forward steps the worker has handed over, ``back``
    the backward steps the caller has.  A producer that fails raises
    ``broken`` and releases its consumer, which aborts.
    """

    def __init__(self, layers, T: int, B: int):
        ctx = multiprocessing.get_context("fork")
        lower = layers[:-1]
        self.capacity = (T, B)
        self.params = [p for layer in lower for p in layer.parameters()]
        sizes = {"x": T * B * lower[0].in_dim, "dx": T * B * lower[0].in_dim,
                 "out": T * B * lower[-1].hidden, "dout": T * B * lower[-1].hidden,
                 "broken": 1}
        for l, layer in enumerate(lower):
            for name in ("mask", "h0", "dh0"):
                sizes[f"{name}{l}"] = B * layer.hidden
        for i, p in enumerate(self.params):
            sizes[f"value{i}"] = sizes[f"grad{i}"] = p.value.size
        padded = [-(-n // 8) * 8 for n in sizes.values()]  # each starts on 64 bytes
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(padded)), dtype=float)
        starts = np.cumsum([0, *padded])
        self.flat = {name: flat[s : s + n] for (name, n), s in zip(sizes.items(), starts)}
        self.ahead, self.back = ctx.Semaphore(0), ctx.Semaphore(0)
        self.check = None  # set on each side of the fork: raises when the other is gone

    def view(self, name: str, *shape) -> np.ndarray:
        return self.flat[name][: math.prod(shape)].reshape(shape)

    def param(self, kind: str, i: int) -> np.ndarray:
        return self.view(f"{kind}{i}", *self.params[i].value.shape)

    def load_rows(self, name: str, lower, arrays, B: int) -> list[bool]:
        """Copy each lower layer's (B, width) array, where it has one, in;
        returns which layers have one."""
        present = [a is not None for a in arrays[: len(lower)]]
        for l, (layer, a) in enumerate(zip(lower, arrays)):
            if a is not None:
                self.view(f"{name}{l}", B, layer.hidden)[...] = a
        return present

    def rows(self, name: str, lower, present, B: int) -> list:
        return [self.view(f"{name}{l}", B, layer.hidden) if on else None
                for l, (layer, on) in enumerate(zip(lower, present))]

    def take(self, steps):
        """Wait for the producer's next step on ``steps``; raises _Aborted
        when the producer failed."""
        since = None
        while not steps.acquire(timeout=_POLL_S):
            since = since or time.monotonic()
            self.check(since)
        if self.flat["broken"][0]:
            raise _Aborted

    def stop(self, steps, T: int):
        """Wake the consumer for every step it may still wait on; it aborts."""
        self.flat["broken"][0] = 1.0
        for _ in range(T):
            steps.release()


def _drain(steps):
    while steps.acquire(False):
        pass


def _lower_forward(lower, link: _Link, T: int, B: int, masked, seeded):
    """The worker's forward: the layers below the top, one after another,
    the last handing each masked step to the top layer as it is written."""
    masks, states = link.rows("mask", lower, masked, B), link.rows("h0", lower, seeded, B)
    relay = _Relay(link.view("out", T, B, lower[-1].hidden), masks[-1],
                   give=link.ahead.release)
    try:
        cur = link.view("x", T, B, lower[0].in_dim)
        for l, layer in enumerate(lower):
            last = l == len(lower) - 1
            cur = layer.forward(cur, h0=states[l], cache=True, relay=relay if last else None)
            if not last and masks[l] is not None:
                cur *= masks[l]
    except BaseException:
        link.stop(link.ahead, T)
        raise


def _lower_backward(lower, link: _Link, T: int, B: int, masked, seeded):
    """The worker's backward: the highest lower layer takes each step of the
    top layer's masked dX as it is handed over, then each layer below runs."""
    masks = link.rows("mask", lower, masked, B)
    relay = _Relay(np.empty((T, B, lower[-1].in_dim)), take=functools.partial(link.take, link.back))
    d = link.view("dout", T, B, lower[-1].hidden)
    for l in range(len(lower) - 1, -1, -1):
        d, dh0 = lower[l].backward(d, relay=relay if l == len(lower) - 1 else None)
        link.view(f"dh0{l}", B, lower[l].hidden)[...] = dh0
        if l and masks[l - 1] is not None:
            d *= masks[l - 1]
    link.view("dx", T, B, lower[0].in_dim)[...] = d


def _serve(lower, link: _Link, conn, theirs, parent: int):
    """The worker's loop: run each pass of the ``lower`` layers the caller
    asks for and answer None, or the pass's exception; end on None, on a
    closed pipe or when the caller is gone."""
    theirs.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
    gc.freeze()  # collections here then leave the memory shared with the caller alone
    blas = _openblas()
    if blas is not None:
        blas[1](1)
    for i, p in enumerate(link.params):
        p.value, p.grad = link.param("value", i), link.param("grad", i)

    def check(since):
        if os.getppid() != parent:
            raise SystemExit(1)

    link.check = check
    passes = {"forward": _lower_forward, "backward": _lower_backward}
    while True:
        try:
            while not conn.poll(_POLL_S):
                check(None)
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        kind, T, B, masked, seeded, errstate = request
        try:
            with np.errstate(**errstate):
                passes[kind](lower, link, T, B, masked, seeded)
            reply = None
        except _Aborted:  # the top layer failed; the caller raises its error
            reply = None
        except Exception as exc:
            reply = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                reply = RuntimeError(f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


class _Worker:
    """The forked process that runs a stack's layers below the top inside
    :meth:`RecurrentStack.wavefront`.  It starts at the first cached forward
    and again when a pass needs more steps or rows than its link holds or
    the last one broke off."""

    def __init__(self, stack):
        self.stack = stack
        self.link = self.proc = self.conn = None
        self.busy = False  # a request is out and its answer is not read
        self.lost = None  # why the worker stopped answering

    def _ready(self, T: int, B: int) -> _Link:
        link, proc = self.link, self.proc
        if (proc is None or self.busy or proc.exitcode is not None
                or T > link.capacity[0] or B > link.capacity[1]):
            T0, B0 = link.capacity if link is not None else (0, 0)
            self.close()
            self.link = link = _Link(self.stack.layers, max(T, T0), max(B, B0))
            ctx = multiprocessing.get_context("fork")
            self.conn, theirs = ctx.Pipe()
            self.proc = ctx.Process(target=_serve, name="wavefront", daemon=True,
                                    args=(self.stack.layers[:-1], link, theirs, self.conn,
                                          os.getpid()))
            self.proc.start()
            theirs.close()
            link.check, self.lost = self._check, None
        return link

    def _check(self, since: float):
        """Raise one RuntimeError when the worker has ended or has not
        answered for ``_PATIENCE_S`` since ``since``; otherwise return."""
        proc = self.proc
        if self.lost is None:
            if proc.exitcode is None and time.monotonic() - since < _PATIENCE_S:
                return
            if proc.exitcode is None:
                proc.kill()
                proc.join()
                self.lost = f"wavefront worker {proc.pid} did not answer for {_PATIENCE_S:g} s"
            else:
                self.lost = f"wavefront worker {proc.pid} ended with exit code {proc.exitcode}"
        self.busy = True
        raise RuntimeError(self.lost)

    def _send(self, request):
        self.link.flat["broken"][0] = 0.0
        self.busy = True
        try:
            self.conn.send(request)
        except OSError:
            self.proc.join(1.0)
            self._check(-math.inf)

    def _reply(self):
        since = None
        try:
            while not self.conn.poll(_POLL_S):
                since = since or time.monotonic()
                self._check(since)
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join(1.0)
            self._check(-math.inf)
        self.busy = False
        return reply

    def forward(self, X, masks, states) -> np.ndarray:
        """The stack's cached forward over (T, B, in_dim) ``X``."""
        lower, top = self.stack.layers[:-1], self.stack.layers[-1]
        T, B = X.shape[:2]
        link = self._ready(T, B)
        link.view("x", T, B, X.shape[2])[...] = X
        masked = link.load_rows("mask", lower, masks, B)
        seeded = link.load_rows("h0", lower, states, B)
        for i, p in enumerate(link.params):
            link.param("value", i)[...] = p.value
        self._send(("forward", T, B, masked, seeded, np.geterr()))
        H = np.empty((T, B, top.hidden))
        relay = _Relay(H, masks[-1], take=functools.partial(link.take, link.ahead))
        error = None
        try:
            top.forward(link.view("out", T, B, top.in_dim), h0=states[-1], cache=True,
                        relay=relay)
        except _Aborted:
            pass
        except BaseException as exc:  # raised below, unless a lower layer failed
            error = exc
        failed = self._reply()
        _drain(link.ahead)
        if failed is not None:
            raise failed
        if error is not None:
            raise error
        return H

    def backward(self, d, T: int, masks):
        """The stack's backward from the top layer's masked output gradient."""
        if self.proc is None or self.busy:
            raise RuntimeError("forward(cache=True) must run before backward")
        lower, top, link = self.stack.layers[:-1], self.stack.layers[-1], self.link
        B = d.shape[-2]
        for i, p in enumerate(link.params):
            link.param("value", i)[...] = p.value
            link.param("grad", i)[...] = p.grad
        self._send(("backward", T, B, [m is not None for m in masks[:-1]], None, np.geterr()))
        relay = _Relay(link.view("dout", T, B, top.in_dim), masks[-2], give=link.back.release)
        error = None
        try:
            dh_top = top.backward(d, relay=relay)[1]
        except BaseException as exc:  # raised below, before any lower layer's
            link.stop(link.back, T)
            error = exc
        failed = self._reply()
        _drain(link.back)
        if error is not None:
            raise error
        if failed is not None:
            raise failed
        for i, p in enumerate(link.params):
            p.grad[...] = link.param("grad", i)
        dh0 = [link.view(f"dh0{l}", B, layer.hidden).copy() for l, layer in enumerate(lower)]
        return link.view("dx", T, B, lower[0].in_dim).copy(), dh0 + [dh_top]

    def close(self):
        """End the worker: ask it to stop, and kill it if it is mid-pass or
        does not stop."""
        proc = self.proc
        if proc is None:
            return
        if not self.busy and proc.exitcode is None:
            try:
                self.conn.send(None)
            except OSError:
                pass
            proc.join(5.0)
        if proc.exitcode is None:
            proc.kill()
        proc.join()
        proc.close()
        self.conn.close()
        self.link.check = None  # the link's shared memory goes with the last view of it
        self.link = self.proc = self.conn = None


class RecurrentStack:
    """Stacked recurrent layers with an optional dropout mask per layer.

    Masks are (B, width) arrays shared across all time steps of a pass, the
    Monte-Carlo dropout convention; they multiply each layer's output
    sequence before it feeds the next layer (or the readout).

    Inside :meth:`wavefront`, a stack of two or more layers runs its cached
    forward and its backward as a wavefront over (time, layer): layer l+1
    needs only step t of layer l to run its step t.  A forked worker process
    runs every layer below the top, the caller runs the top layer, and the
    steps between them cross through shared memory one at a time, paced by
    process semaphores, so the two run on two cores.  The worker runs the
    operations of the layer-by-layer schedule in the same order, on the
    caller's parameters, copied in before each pass (the gradients are
    copied back after backward), so every output and gradient is bitwise
    the same.  Inference, Monte-Carlo passes, ``cache=False`` forwards and
    one-layer stacks run layer by layer in the caller.
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
        self._masks = self._steps = self._worker = None
        self._remote = False  # the last cached forward ran through the worker

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    @contextlib.contextmanager
    def wavefront(self):
        """Run the stack's cached forwards and backwards in the block as a
        wavefront, when the gate allows: two or more layers, two or more
        usable CPUs (``os.sched_getaffinity``) and the ``fork`` start method.

        The worker is forked at the first cached forward and joined when
        the block exits, also on error.  A failed layer stops the layers
        that consume its steps, never the ones that feed it, so the error
        raised is the one the layer-by-layer schedule would raise; the
        worker's comes back pickled, and it runs under the caller's numpy
        error state.  A worker that dies or stops answering raises one
        RuntimeError, and a worker whose caller dies ends itself.  The
        worker holds its bundled OpenBLAS at one thread, and the caller
        holds its own at one thread through the block.
        """
        if self._worker is not None or not _forks_a_worker(self):
            yield
            return
        self._worker = _Worker(self)
        try:
            with _one_blas_thread():
                yield
        finally:
            worker, self._worker, self._remote = self._worker, None, False
            worker.close()

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
            self._remote = self._worker is not None
            if self._remote:
                X = _as_sequence(X, self.layers[0].in_dim, self.layers[0].name)
                return self._worker.forward(X, masks, states)
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
        if self._remote:
            return self._worker.backward(d, self._steps, masks)
        d_initial = [None] * len(self.layers)
        for l in range(len(self.layers) - 1, -1, -1):
            d, d_initial[l] = self.layers[l].backward(d)
            if l and masks[l - 1] is not None:
                d *= masks[l - 1]  # d is layer l's own new array
        return d, d_initial
