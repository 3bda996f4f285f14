"""Central-difference gradient verification.

Any object with ``parameters()`` and ``loss(batch, with_grads)`` can be
checked.  Relative error uses ``|analytic - numeric|`` over
``max(|analytic| + |numeric|, 1e-8)``, the symmetric form that stays put
when both gradients are near zero.
"""

from __future__ import annotations

import numpy as np

from demandnet.nn.layers import DenseLayer
from demandnet.nn.loss import add_penalty_grads, mse_grad, penalized_loss


def grad_check(model, batch, epsilon: float = 1e-5, rng: np.random.Generator | None = None,
               entries_per_param: int = 10) -> float:
    """Return the worst relative error between BPTT and central differences.

    Checks up to ``entries_per_param`` coordinates of every parameter
    (all of them when the parameter is small enough).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    params = model.parameters()
    for p in params:
        p.zero_grad()
    model.loss(batch, with_grads=True)
    analytic = [p.grad.copy() for p in params]
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat_value = p.value.reshape(-1)
        flat_grad = grad.reshape(-1)
        n = flat_value.size
        if n <= entries_per_param:
            indices = np.arange(n)
        else:
            indices = rng.choice(n, size=entries_per_param, replace=False)
        for idx in indices:
            original = flat_value[idx]
            flat_value[idx] = original + epsilon
            loss_plus = model.loss(batch, with_grads=False)
            flat_value[idx] = original - epsilon
            loss_minus = model.loss(batch, with_grads=False)
            flat_value[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = flat_grad[idx]
            denom = max(abs(a) + abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


class DenseProbe:
    """Wraps one dense layer in an MSE objective for gradient checking."""

    def __init__(self, layer: DenseLayer, target: np.ndarray, lam: float = 0.0):
        self.layer = layer
        self.target = np.asarray(target, dtype=float)
        self.lam = lam

    def parameters(self):
        return self.layer.parameters()

    def loss(self, x, with_grads: bool = False) -> float:
        out = self.layer.forward(x, cache=with_grads)
        value = penalized_loss(out, self.target, self.parameters(), self.lam)
        if with_grads:
            self.layer.backward(mse_grad(out, self.target))
            add_penalty_grads(self.parameters(), self.lam)
        return value


class SequenceProbe:
    """Wraps a recurrent layer or stack in an MSE objective over all outputs."""

    def __init__(self, module, target: np.ndarray, lam: float = 0.0):
        self.module = module
        self.target = np.asarray(target, dtype=float)
        self.lam = lam

    def parameters(self):
        return self.module.parameters()

    def loss(self, X, with_grads: bool = False) -> float:
        H = self.module.forward(X, cache=with_grads)
        value = penalized_loss(H, self.target, self.parameters(), self.lam)
        if with_grads:
            self.module.backward(mse_grad(H, self.target))
            add_penalty_grads(self.parameters(), self.lam)
        return value
