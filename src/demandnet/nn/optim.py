"""Training configuration, first-order optimizers and the one training loop.

:func:`fit` is the minibatch loop every trainer in the package runs: each
epoch visits the rows in the order of the ``(seed, tag, "shuffle", epoch)``
stream, ``batch_size`` rows at a time; per batch it zeroes the gradients,
asks the caller for the batch loss (which also fills the gradients), and
steps the optimizer.  After each epoch it hands the mean batch loss to the
caller's bookkeeping, which may stop training early.

It also owns the divergence policy.  An epoch runs with numpy overflow and
invalid-value errors raised instead of warned, and a non-finite loss, a
non-finite gradient or a floating-point error all end training with one
:class:`DivergenceError` naming the stage (``tag``), the epoch and the cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..rngs import stream
from .layers import Parameter


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient stops being finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Shared training hyperparameters.

    Defaults are the published operating point (batch 128, learning rate
    1e-5, weight decay 1e-6, 100 epochs); every field can be overridden per
    experiment.  ``seed`` picks the RNG streams; the pipeline sets it from
    the run seed.  Network shapes belong to ``ForecasterArch`` and
    :mod:`demandnet.effects` (two hidden layers).
    """

    learning_rate: float = 1e-5
    weight_decay: float = 1e-6
    batch_size: int = 128
    epochs: int = 100
    optimizer: str = "sgd"
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _check_finite(params: list[Parameter]):
    for p in params:
        if not np.isfinite(p.grad).all():
            worst = float(np.abs(p.grad[~np.isfinite(p.grad)]).max(initial=np.inf))
            raise DivergenceError(f"non-finite gradient in {p.name} (|g| up to {worst})")


class Sgd:
    """In-place plain gradient descent over Parameter objects."""

    def __init__(self, params: list[Parameter], eta: float):
        self.params = list(params)
        self.eta = float(eta)

    def step(self):
        _check_finite(self.params)
        for p in self.params:
            p.value -= self.eta * p.grad


class Adam:
    """Adam with the conventional (0.9, 0.999, 1e-8) moment settings."""

    def __init__(self, params: list[Parameter], eta: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.eta = float(eta)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        _check_finite(self.params)
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            p.value -= self.eta * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def make_optimizer(name: str, params: list[Parameter], eta: float):
    if name == "sgd":
        return Sgd(params, eta)
    if name == "adam":
        return Adam(params, eta)
    raise ValueError(f"unknown optimizer {name!r}")


def fit(params: list[Parameter], config: TrainConfig, tag: str, n_rows: int,
        batch_loss: Callable[[np.ndarray, int, int], float],
        end_epoch: Callable[[int, float], bool | None]):
    """Train ``params`` with ``config`` over ``n_rows`` training rows.

    ``batch_loss(rows, epoch, step)`` returns the loss on the given row
    indices and accumulates its gradients; ``end_epoch(epoch, mean_loss)``
    records the epoch and returns true to stop.  Raises
    :class:`DivergenceError` as described in the module docstring.
    """
    if n_rows < 1:
        raise ValueError(f"{tag}: no training rows")
    optimizer = make_optimizer(config.optimizer, params, config.learning_rate)
    for epoch in range(config.epochs):
        order = stream(config.seed, tag, "shuffle", epoch).permutation(n_rows)
        try:
            with np.errstate(over="raise", invalid="raise"):
                total = 0.0
                for step, start in enumerate(range(0, n_rows, config.batch_size)):
                    for p in params:
                        p.zero_grad()
                    value = batch_loss(order[start : start + config.batch_size], epoch, step)
                    if not np.isfinite(value):
                        raise DivergenceError(f"loss {value}")
                    optimizer.step()
                    total += value
                stop = end_epoch(epoch, total / (step + 1))
        except (DivergenceError, FloatingPointError) as exc:
            raise DivergenceError(
                f"{tag} training loss became non-finite at epoch {epoch} ({exc})"
            ) from exc
        if stop:
            return
