"""Penalized multilayer network mapping named features to demand, plus the
marginal-effect machinery that makes it interpretable.

Outside training the network runs in fixed blocks of ``BLOCK`` rows, the
last one padded.  A row's output depends on how many rows share a matmul,
so one block shape makes every prediction independent of its batch-mates,
and it keeps each temporary at ``BLOCK`` × width however many rows come in.

The model is deliberately small and dense (logistic hidden layers, linear
output, L2 weight penalty).  Interpretation comes from marginal-effect
curves: sweep one feature over a grid while every other feature sits at its
training mean.  The policy curve is the input to the forecaster's policy
skip connection via :func:`policy_delta`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .nn.layers import DenseLayer
from .nn.loss import add_penalty_grads, mse_grad, penalized_loss
from .nn.optim import TrainConfig, fit
from .rngs import stream

log = logging.getLogger(__name__)
BLOCK = 128  # rows per effects-network call outside training
HIDDEN_LAYERS = 2  # logistic hidden layers of a trained effects network


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares polynomial summary of a marginal curve.

    ``coefficients`` are ascending (constant term first); ``max_residual``
    is the largest absolute gap between the polynomial and the curve over
    the fitted grid.
    """

    coefficients: np.ndarray
    degree: int
    max_residual: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coefficients)


@dataclass(frozen=True)
class MarginalCurve:
    """Model response to one feature, all others held at training means."""

    feature: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be equal-length 1-D arrays")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def violation_fraction(self, tol: float = 1e-9) -> float:
        """Fraction of grid steps where the curve increases by more than tol."""
        steps = np.diff(self.values)
        return float(np.mean(steps > tol))

    def to_csv_text(self) -> str:
        lines = [f"{self.feature},effect"]
        for g, v in zip(self.grid, self.values):
            lines.append(f"{repr(float(g))},{repr(float(v))}")
        return "\n".join(lines) + "\n"


class EffectModel:
    """Small dense network over named features with recorded training means."""

    def __init__(self, feature_names, widths, rng: np.random.Generator | None = None,
                 lam: float = 0.0, policy_feature: str = "policy"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.feature_names = tuple(feature_names)
        if policy_feature not in self.feature_names:
            raise ValueError(
                f"policy feature {policy_feature!r} not among {self.feature_names}"
            )
        self.policy_feature = policy_feature
        self.widths = tuple(int(w) for w in widths)
        self.lam = lam
        self.layers: list[DenseLayer] = []
        prev = len(self.feature_names)
        for i, w in enumerate(self.widths):
            self.layers.append(DenseLayer(prev, w, "sigmoid", rng, name=f"effects.{i}"))
            prev = w
        self.layers.append(DenseLayer(prev, 1, "identity", rng, name="effects.out"))
        self.feature_means = np.zeros(len(self.feature_names))
        self.train_history: tuple[float, ...] = ()

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def predict(self, X: np.ndarray, cache: bool = False) -> np.ndarray:
        """(N, features) rows -> (N,) predicted demand.

        ``cache=True`` runs the batch whole and keeps what backward needs;
        otherwise the rows run in blocks of ``BLOCK``.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (N, {len(self.feature_names)}) feature rows, got shape {X.shape}"
            )
        if cache:
            return self._forward(X, cache=True)
        out = np.empty(X.shape[0])
        block = np.zeros((BLOCK, X.shape[1]))
        for start in range(0, X.shape[0], BLOCK):
            n = min(BLOCK, X.shape[0] - start)
            block[:n] = X[start : start + n]  # no row depends on the stale rows past n
            out[start : start + n] = self._forward(block, cache=False)[:n]
        return out

    def _forward(self, X: np.ndarray, cache: bool) -> np.ndarray:
        for layer in self.layers:
            X = layer.forward(X, cache=cache)
        return X[:, 0]

    def loss(self, batch, with_grads: bool = False) -> float:
        X, y = batch
        pred = self.predict(X, cache=with_grads)
        value = penalized_loss(pred, y, self.parameters(), self.lam)
        if with_grads:
            d = mse_grad(pred, y)[:, None]
            for layer in reversed(self.layers):
                d = layer.backward(d)
            add_penalty_grads(self.parameters(), self.lam)
        return value

    def feature_index(self, feature: str) -> int:
        try:
            return self.feature_names.index(feature)
        except ValueError:
            raise ValueError(f"unknown feature {feature!r}; model has {self.feature_names}")


def train_effect_model(X, y, feature_names, config: TrainConfig, hidden_width: int = 64,
                       policy_feature: str = "policy") -> EffectModel:
    """Fit the effects network by penalized least squares.

    ``X`` rows are observations of the named features (policy in raw [0, 1]
    units, everything else as prepared by the caller); ``y`` is the demand
    target on the same rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad training shapes X={X.shape} y={y.shape}")
    if X.shape[1] != len(tuple(feature_names)):
        raise ValueError(f"{X.shape[1]} columns but {len(tuple(feature_names))} names")
    widths = (hidden_width,) * HIDDEN_LAYERS
    model = EffectModel(
        feature_names, widths, rng=stream(config.seed, "effects", "init"),
        lam=config.weight_decay, policy_feature=policy_feature,
    )
    model.feature_means = X.mean(axis=0)
    params = model.parameters()
    n_params = sum(p.value.size for p in params)
    if X.shape[0] < 10 * n_params:
        log.warning(
            "effects model has %d parameters for %d rows; fit may be loose",
            n_params, X.shape[0],
        )
    history = []
    fit(params, config, "effects", X.shape[0],
        lambda rows, epoch, step: model.loss((X[rows], y[rows]), with_grads=True),
        lambda epoch, mean_batch_loss: history.append(model.loss((X, y), with_grads=False)))
    model.train_history = tuple(history)
    return model


def marginal_effect(model: EffectModel, feature: str, grid) -> MarginalCurve:
    """Sweep one feature over ``grid`` with the others at training means."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least 2 points")
    col = model.feature_index(feature)
    rows = np.tile(model.feature_means, (grid.size, 1))
    rows[:, col] = grid
    return MarginalCurve(feature=feature, grid=grid, values=model.predict(rows))


def fit_polynomial(curve: MarginalCurve, degree: int = 3) -> PolynomialFit:
    """Least-squares polynomial over the curve's grid, residual recorded."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree >= curve.grid.size:
        raise ValueError(
            f"degree {degree} needs more than {curve.grid.size} grid points"
        )
    coeffs = np.polynomial.polynomial.polyfit(curve.grid, curve.values, degree)
    residual = float(np.max(np.abs(
        np.polynomial.polynomial.polyval(curve.grid, coeffs) - curve.values
    )))
    return PolynomialFit(coefficients=coeffs, degree=degree, max_residual=residual)


def policy_delta(model: EffectModel, policy_level):
    """Predicted demand shift of policy level(s) relative to policy 0.

    Always evaluates the network (a fitted polynomial is an exported summary
    only).  Shape-preserving: a scalar level gives a 0-d array.

    The network runs once per distinct level, plus policy 0; since
    :meth:`EffectModel.predict` runs in fixed blocks, a level's shift is
    independent of its batch-mates.
    """
    levels = np.asarray(policy_level, dtype=float)
    flat = levels.reshape(-1)
    if not np.all((flat >= 0.0) & (flat <= 1.0)):  # NaN fails too
        raise ValueError("policy levels must lie in [0, 1]")
    distinct, inverse = np.unique(flat, return_inverse=True)
    rows = np.tile(model.feature_means, (distinct.size + 1, 1))
    col = model.feature_index(model.policy_feature)
    rows[:-1, col] = distinct
    rows[-1, col] = 0.0
    pred = model.predict(rows)
    return (pred[inverse] - pred[-1]).reshape(levels.shape)
