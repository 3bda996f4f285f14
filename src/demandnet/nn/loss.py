"""Penalized squared-error training loss."""

from __future__ import annotations

import numpy as np


def penalized_loss(pred: np.ndarray, truth: np.ndarray, weights=(), lam: float = 0.0) -> float:
    """Mean squared error plus ``lam`` times the sum of squared weights.

    ``weights`` is a model's Parameter list; only the ``penalized`` ones
    (not the biases) enter the penalty.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    loss = float(np.mean((pred - truth) ** 2))
    for w in weights:
        if w.penalized:
            loss += lam * float(np.sum(w.value * w.value))
    return loss


def mse_grad(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Gradient of the mean-squared-error term w.r.t. the predictions."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    return 2.0 * (pred - truth) / pred.size


def add_penalty_grads(params, lam: float):
    """Accumulate d(lam * sum w^2)/dw = 2 lam w on penalized parameters."""
    if lam == 0.0:
        return
    for p in params:
        if p.penalized:
            p.grad += 2.0 * lam * p.value
