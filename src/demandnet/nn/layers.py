"""Trainable parameters, dense layers, and inverted dropout masks."""

from __future__ import annotations

import numpy as np

from .activations import get_activation


class Parameter:
    """A named trainable array with an accumulated gradient.

    ``penalized`` marks whether the array enters the L2 weight penalty;
    biases are exempt.
    """

    __slots__ = ("name", "value", "grad", "penalized")

    def __init__(self, name: str, value: np.ndarray, penalized: bool = True):
        self.name = name
        self.value = np.array(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.penalized = penalized

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """Fully connected layer ``y = act(x @ W + b)`` with cached backward."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "sigmoid",
                 rng: np.random.Generator | None = None, name: str = "dense"):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"bad dimensions in_dim={in_dim} out_dim={out_dim}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self._act, self._act_deriv = get_activation(activation)
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim), penalized=False)
        self._x = None
        self._a = None

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """(B, in_dim) rows -> (B, out_dim) activations."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"dense layer expects (B, {self.in_dim}) input, got shape {x.shape}"
            )
        a = self._act(x @ self.W.value + self.b.value)
        if cache:
            self._x, self._a = x, a
        return a

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; return gradient w.r.t. the input."""
        if self._a is None:
            raise RuntimeError("forward(cache=True) must run before backward")
        dz = np.asarray(grad_out, dtype=float) * self._act_deriv(self._a)
        self.W.grad += self._x.T @ dz
        self.b.grad += dz.sum(axis=0)
        return dz @ self.W.value.T


def sample_dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Draw an inverted dropout mask of the given shape.

    Entries are 0 (dropped) or 1/(1-p) (kept), so multiplying by the mask
    keeps activations unbiased in expectation; at p = 0 it is all ones.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape)
    keep = rng.random(size=shape) >= p
    return keep / (1.0 - p)
