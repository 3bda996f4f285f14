"""LSTM and GRU layers with explicit backpropagation through time.

Sequences are shaped (T, B, features) and hidden states (B, hidden).  Gate
weights are packed into combined matrices: input weights (in_dim, G*hidden)
and recurrent weights (hidden, G*hidden), G = 4 for LSTM gates [i, f, g, o]
and G = 3 for GRU gates [r, z, n].  The GRU candidate applies the reset gate
to the previous hidden state *before* the recurrent matmul, and the update
gate blends ``h = (1 - z) * h_prev + z * n`` so forcing z = 1 hands the state
entirely to the candidate.
"""

from __future__ import annotations

import numpy as np

from .activations import sigmoid
from .layers import Parameter, glorot_uniform


def _as_sequence(X: np.ndarray, in_dim: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != in_dim:
        raise ValueError(f"{name} expects (T, B, {in_dim}) input, got shape {X.shape}")
    return X


class LSTMLayer:
    """Single LSTM layer over a sequence, with cached forward for BPTT."""

    state_size = 2  # (h, c)

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 name: str = "lstm"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim, self.hidden = in_dim, hidden
        self.name = name
        self.Wx = Parameter(f"{name}.Wx", glorot_uniform(rng, in_dim, hidden, (in_dim, 4 * hidden)))
        self.Wh = Parameter(f"{name}.Wh", glorot_uniform(rng, hidden, hidden, (hidden, 4 * hidden)))
        self.b = Parameter(f"{name}.b", np.zeros(4 * hidden), penalized=False)
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    def init_state(self, batch: int):
        return (np.zeros((batch, self.hidden)), np.zeros((batch, self.hidden)))

    def _gates(self, x, h_prev):
        h = self.hidden
        z = x @ self.Wx.value + h_prev @ self.Wh.value + self.b.value
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = sigmoid(z[:, 3 * h :])
        return i, f, g, o

    def step(self, x: np.ndarray, state=None):
        """One cell update; returns (output, new_state) with state = (h, c)."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = x[None, :] if squeeze else x
        if x2.shape[1] != self.in_dim:
            raise ValueError(f"cell expects input width {self.in_dim}, got {x2.shape[1]}")
        h_prev, c_prev = state if state is not None else self.init_state(x2.shape[0])
        h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
        c_prev = np.atleast_2d(np.asarray(c_prev, dtype=float))
        i, f, g, o = self._gates(x2, h_prev)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        if squeeze:
            return h[0], (h[0], c[0])
        return h, (h, c)

    def forward(self, X: np.ndarray, h0=None, c0=None, cache: bool = True) -> np.ndarray:
        X = _as_sequence(X, self.in_dim, self.name)
        T, B, _ = X.shape
        h = np.zeros((B, self.hidden)) if h0 is None else np.asarray(h0, dtype=float)
        c = np.zeros((B, self.hidden)) if c0 is None else np.asarray(c0, dtype=float)
        H = np.empty((T, B, self.hidden))
        if cache:
            I, F, G, O, TC = (np.empty((T, B, self.hidden)) for _ in range(5))
            Hprev, Cprev = np.empty((T, B, self.hidden)), np.empty((T, B, self.hidden))
        for t in range(T):
            i, f, g, o = self._gates(X[t], h)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            if cache:
                I[t], F[t], G[t], O[t], TC[t] = i, f, g, o, tc
                Hprev[t], Cprev[t] = h, c
            c = c_new
            h = o * tc
            H[t] = h
        if cache:
            self._cache = dict(X=X, I=I, F=F, G=G, O=O, TC=TC, Hprev=Hprev, Cprev=Cprev)
        return H

    def backward(self, dH: np.ndarray, dh_last=None, dc_last=None):
        """BPTT given upstream gradients on every output (and optionally on
        the final states); returns (dX, dh0, dc0) and accumulates parameter
        gradients."""
        if self._cache is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        cc = self._cache
        X, I, F, G, O, TC = cc["X"], cc["I"], cc["F"], cc["G"], cc["O"], cc["TC"]
        Hprev, Cprev = cc["Hprev"], cc["Cprev"]
        T, B, _ = X.shape
        dH = np.asarray(dH, dtype=float)
        dX = np.empty_like(X)
        dh_next = np.zeros((B, self.hidden)) if dh_last is None else np.asarray(dh_last, float)
        dc_next = np.zeros((B, self.hidden)) if dc_last is None else np.asarray(dc_last, float)
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
            self.Wx.grad += X[t].T @ dz
            self.Wh.grad += Hprev[t].T @ dz
            self.b.grad += dz.sum(axis=0)
            dX[t] = dz @ self.Wx.value.T
            dh_next = dz @ self.Wh.value.T
            dc_next = dc * f
        return dX, dh_next, dc_next


class GRULayer:
    """Single GRU layer; forget and input roles share one update gate."""

    state_size = 1  # (h,)

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim, self.hidden = in_dim, hidden
        self.name = name
        self.Wx = Parameter(f"{name}.Wx", glorot_uniform(rng, in_dim, hidden, (in_dim, 3 * hidden)))
        self.Wh_rz = Parameter(f"{name}.Wh_rz", glorot_uniform(rng, hidden, hidden, (hidden, 2 * hidden)))
        self.Wh_n = Parameter(f"{name}.Wh_n", glorot_uniform(rng, hidden, hidden, (hidden, hidden)))
        self.b = Parameter(f"{name}.b", np.zeros(3 * hidden), penalized=False)
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh_rz, self.Wh_n, self.b]

    def init_state(self, batch: int):
        return np.zeros((batch, self.hidden))

    def _step_core(self, x, h_prev):
        h = self.hidden
        gx = x @ self.Wx.value + self.b.value
        rz = sigmoid(gx[:, : 2 * h] + h_prev @ self.Wh_rz.value)
        r, z = rz[:, :h], rz[:, h:]
        q = r * h_prev
        n = np.tanh(gx[:, 2 * h :] + q @ self.Wh_n.value)
        h_new = (1.0 - z) * h_prev + z * n
        return h_new, r, z, n, q

    def step(self, x: np.ndarray, state=None):
        """One cell update; returns (output, new_state) with state = h."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = x[None, :] if squeeze else x
        if x2.shape[1] != self.in_dim:
            raise ValueError(f"cell expects input width {self.in_dim}, got {x2.shape[1]}")
        h_prev = self.init_state(x2.shape[0]) if state is None else np.atleast_2d(
            np.asarray(state, dtype=float)
        )
        h_new, *_ = self._step_core(x2, h_prev)
        if squeeze:
            return h_new[0], h_new[0]
        return h_new, h_new

    def forward(self, X: np.ndarray, h0=None, cache: bool = True) -> np.ndarray:
        X = _as_sequence(X, self.in_dim, self.name)
        T, B, _ = X.shape
        h = np.zeros((B, self.hidden)) if h0 is None else np.asarray(h0, dtype=float)
        H = np.empty((T, B, self.hidden))
        if cache:
            R, Z, N, Q, Hprev = (np.empty((T, B, self.hidden)) for _ in range(5))
        for t in range(T):
            h_new, r, z, n, q = self._step_core(X[t], h)
            if cache:
                R[t], Z[t], N[t], Q[t], Hprev[t] = r, z, n, q, h
            h = h_new
            H[t] = h
        if cache:
            self._cache = dict(X=X, R=R, Z=Z, N=N, Q=Q, Hprev=Hprev)
        return H

    def backward(self, dH: np.ndarray, dh_last=None):
        """BPTT over the cached forward; returns (dX, dh0)."""
        if self._cache is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        cc = self._cache
        X, R, Z, N, Q, Hprev = cc["X"], cc["R"], cc["Z"], cc["N"], cc["Q"], cc["Hprev"]
        T, B, _ = X.shape
        dH = np.asarray(dH, dtype=float)
        dX = np.empty_like(X)
        dh_next = np.zeros((B, self.hidden)) if dh_last is None else np.asarray(dh_last, float)
        for t in range(T - 1, -1, -1):
            dh = dH[t] + dh_next
            r, z, n, q, h_prev = R[t], Z[t], N[t], Q[t], Hprev[t]
            dz_gate = dh * (n - h_prev)
            dn = dh * z
            dh_prev = dh * (1.0 - z)
            dnpre = dn * (1.0 - n * n)
            dq = dnpre @ self.Wh_n.value.T
            self.Wh_n.grad += q.T @ dnpre
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
            dh_next = dh_prev
        return dX, dh_next


CELL_KINDS = {"lstm": LSTMLayer, "gru": GRULayer}


def make_cell(kind: str, in_dim: int, hidden: int, rng=None, name=None):
    try:
        cls = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; choose from {sorted(CELL_KINDS)}")
    return cls(in_dim, hidden, rng=rng, name=name or kind)


class RecurrentStack:
    """Stacked recurrent layers with an optional dropout mask per layer.

    Masks are (B, width) arrays shared across all time steps of a pass, the
    Monte-Carlo dropout convention; they multiply each layer's output
    sequence before it feeds the next layer (or the readout).
    """

    def __init__(self, kind: str, in_dim: int, widths, rng, name: str = "stack"):
        self.kind = kind
        self.widths = tuple(int(w) for w in widths)
        if not self.widths:
            raise ValueError("stack needs at least one layer")
        self.layers = []
        prev = in_dim
        for l, w in enumerate(self.widths):
            self.layers.append(make_cell(kind, prev, w, rng=rng, name=f"{name}.{l}"))
            prev = w
        self._masks = None

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(self, X: np.ndarray, masks=None, initial_states=None, cache: bool = True):
        """Run the full stack; returns the (masked) top-layer sequence."""
        if masks is not None and len(masks) != len(self.layers):
            raise ValueError(f"expected {len(self.layers)} masks, got {len(masks)}")
        if initial_states is not None and len(initial_states) != len(self.layers):
            raise ValueError("one initial state per layer required")
        self._masks = masks if cache else None
        cur = X
        for l, layer in enumerate(self.layers):
            h0 = initial_states[l] if initial_states is not None else None
            H = layer.forward(cur, h0=h0, cache=cache)
            if masks is not None and masks[l] is not None:
                H = H * masks[l]
            cur = H
        return cur

    def backward(self, dOut: np.ndarray):
        """Backpropagate through every layer; returns (dX, [dh0 per layer])."""
        d = np.asarray(dOut, dtype=float)
        d_initial = [None] * len(self.layers)
        masks = self._masks
        for l in range(len(self.layers) - 1, -1, -1):
            if masks is not None and masks[l] is not None:
                d = d * masks[l]
            layer = self.layers[l]
            if isinstance(layer, LSTMLayer):
                d, dh0, _ = layer.backward(d)
            else:
                d, dh0 = layer.backward(d)
            d_initial[l] = dh0
        return d, d_initial
