"""Elementwise activations and their derivatives in terms of the output.

The sigmoid is branch-free: it works on the whole array, with no boolean
masks, and gives the same bits as the two-branch stable form for every
input except that a NaN's sign bit may differ.
"""

from __future__ import annotations

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, without branches.

    With ``e = exp(-|z|)`` this is ``1 / (1 + e)`` where z >= 0 and
    ``e / (1 + e)`` elsewhere, the two-branch stable form bit for bit:
    ``exp(-|z|)`` is exactly ``exp(-z)`` or ``exp(z)``, ``maximum`` returns
    one of its operands, and each quotient is one rounding.  ``exp`` never
    sees a positive argument, so nothing overflows.  A NaN stays NaN,
    though its sign bit may differ from the two-branch form's.  The result
    is an array of ``z``'s shape, 0-d included.
    """
    z = np.asarray(z, dtype=float)
    # Two buffers filled in place: on the published LSTM's gate slices,
    # allocating fresh arrays costs more than the arithmetic.
    out, e = np.empty_like(z), np.empty_like(z)
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.maximum(e, z >= 0, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid_deriv(a: np.ndarray) -> np.ndarray:
    return a * (1.0 - a)


def tanh(z: np.ndarray) -> np.ndarray:
    return np.tanh(z)


def tanh_deriv(a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a


def identity(z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=float)


def identity_deriv(a: np.ndarray) -> np.ndarray:
    return np.ones_like(a)


ACTIVATIONS = {
    "sigmoid": (sigmoid, sigmoid_deriv),
    "tanh": (tanh, tanh_deriv),
    "identity": (identity, identity_deriv),
}


def get_activation(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
