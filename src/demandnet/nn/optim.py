"""Training configuration and first-order optimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Parameter


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient stops being finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Shared training hyperparameters.

    Defaults are the published operating point (batch 128, learning rate
    1e-5, weight decay 1e-6, 100 epochs, 2 effects-network layers); every
    field can be overridden per experiment.  The recurrent stack's shape
    belongs to ``ForecasterArch``.
    """

    learning_rate: float = 1e-5
    weight_decay: float = 1e-6
    batch_size: int = 128
    epochs: int = 100
    mlp_layers: int = 2
    optimizer: str = "sgd"
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.mlp_layers < 1:
            raise ValueError("mlp_layers must be >= 1")
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
