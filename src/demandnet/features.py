"""Static feature screening and dynamic feature extraction.

Static screening is rank correlation between each candidate static feature
and a per-series shock-impact summary (post-onset demand relative to
pre-onset demand, onset detected as the first day of nonzero policy, both
read from the training range only).  A feature survives iff its absolute
rank correlation reaches the band edge.

Dynamic extraction is a stacked recurrent autoencoder: an encoder stack
compresses a (tau, channels) window into a low-dimensional code through a
linear bottleneck, and a mirrored decoder stack reconstructs the window from
the code alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeriesBundle, post_shock_ratio, split_time
from .nn.layers import DenseLayer
from .nn.loss import add_penalty_grads, mse_grad, penalized_loss
from .nn.optim import TrainConfig, fit
from .nn.recurrent import RecurrentStack
from .rngs import stream


def rank_with_ties(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the positions they occupy."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {values.shape}")
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson correlation of tie-averaged ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D arrays, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least two observations")
    rx = rank_with_ties(x)
    ry = rank_with_ties(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        raise ValueError("rank correlation undefined for constant input")
    return float(np.sum(rx * ry) / denom)


def shock_impact_summary(bundle: SeriesBundle, fractions=(0.8, 0.1, 0.1)) -> float:
    """Per-series target summary used for static screening.

    Post-onset mean demand over pre-onset mean demand, where onset is the
    first day with policy > 0; series without any policy activity fall back
    to their mean demand.  Only the training range of ``fractions`` is read.
    """
    end = split_time(bundle, fractions).train.stop
    target = bundle.target[:end]
    active = np.flatnonzero(bundle.policy[:end] > 0.0)
    if active.size == 0 or active[0] == 0:
        return float(target.mean())
    return post_shock_ratio(target, int(active[0]))


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of static screening across series."""

    band: float
    series_ids: tuple[str, ...]
    summaries: tuple[float, ...]
    feature_names: tuple[str, ...]
    correlations: tuple[float, ...]  # nan when undefined
    retained: tuple[bool, ...]
    reasons: tuple[str, ...]  # "" for retained features

    def retained_names(self) -> tuple[str, ...]:
        return tuple(n for n, keep in zip(self.feature_names, self.retained) if keep)

    def to_csv_text(self) -> str:
        lines = ["feature,correlation,retained,reason"]
        for name, corr, keep, reason in zip(
            self.feature_names, self.correlations, self.retained, self.reasons
        ):
            corr_txt = "" if np.isnan(corr) else repr(float(corr))
            lines.append(f"{name},{corr_txt},{str(keep).lower()},{reason}")
        return "\n".join(lines) + "\n"


def filter_static(bundles: list[SeriesBundle], band: float = 0.3,
                  fractions=(0.8, 0.1, 0.1)) -> CorrelationReport:
    """Screen static features by |rank correlation| against shock impact
    over each series' training range.

    The band edge itself is retained: |r| == band passes.  Constant features
    have undefined rank correlation and are excluded with a reason.
    """
    if not 0.0 < band < 1.0:
        raise ValueError(f"band must be inside (0, 1), got {band}")
    if len(bundles) < 3:
        raise ValueError(f"static screening needs at least 3 series, got {len(bundles)}")
    feature_names = tuple(bundles[0].static_profile)
    if not feature_names:
        raise ValueError("bundles carry no static features")
    for b in bundles:
        if tuple(b.static_profile) != feature_names:
            raise ValueError(f"series {b.id} disagrees on static feature names")
    summaries = np.array([shock_impact_summary(b, fractions) for b in bundles])
    correlations, retained, reasons = [], [], []
    for name in feature_names:
        values = np.array([b.static_profile[name] for b in bundles])
        try:
            corr = spearman(values, summaries)
        except ValueError as exc:
            correlations.append(float("nan"))
            retained.append(False)
            reasons.append(str(exc))
            continue
        keep = abs(corr) >= band
        correlations.append(corr)
        retained.append(keep)
        reasons.append("" if keep else f"|r|={abs(corr):.4f} below band {band}")
    return CorrelationReport(
        band=band,
        series_ids=tuple(b.id for b in bundles),
        summaries=tuple(float(s) for s in summaries),
        feature_names=feature_names,
        correlations=tuple(correlations),
        retained=tuple(retained),
        reasons=tuple(reasons),
    )


# ----------------------------------------------------------------------------
# Stacked recurrent autoencoder


@dataclass(frozen=True)
class SaeArch:
    """Encoder widths (decoder mirrors them) and bottleneck size."""

    widths: tuple[int, ...] = (64, 32)
    bottleneck: int = 8
    cell: str = "lstm"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if self.bottleneck < 1:
            raise ValueError("bottleneck must be >= 1")


@dataclass(frozen=True)
class SaeTraining:
    """What happened during autoencoder training."""

    train_history: tuple[float, ...]
    val_history: tuple[float, ...]
    threshold: float

    @property
    def epochs_run(self) -> int:
        return len(self.val_history)

    @property
    def stop_reason(self) -> str:
        """Why training stopped: "threshold" (held-out error reached it) or "epochs"."""
        return "threshold" if self.val_history[-1] <= self.threshold else "epochs"


class StackedAutoencoder:
    """Sequence-to-code-to-sequence autoencoder over demand windows.

    ``encode`` compresses the final encoder hidden state through a linear
    bottleneck; ``decode`` expands the code into initial hidden states of the
    mirrored decoder stack, runs it for tau steps on zero inputs, and reads
    each step out linearly to the original channels.
    """

    def __init__(self, channels: int, tau: int, arch: SaeArch,
                 rng: np.random.Generator | None = None, lam: float = 0.0):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.tau = tau
        self.arch = arch
        self.lam = lam
        dec_widths = tuple(reversed(arch.widths))
        self.encoder = RecurrentStack(arch.cell, channels, arch.widths, rng, name="enc")
        self.to_code = DenseLayer(arch.widths[-1], arch.bottleneck, "identity", rng, "to_code")
        self.expand = DenseLayer(arch.bottleneck, sum(dec_widths), "identity", rng, "expand")
        self.decoder = RecurrentStack(arch.cell, 1, dec_widths, rng, name="dec")
        self.readout = DenseLayer(dec_widths[-1], channels, "identity", rng, "readout")
        self.training: SaeTraining | None = None

    def parameters(self):
        return (
            self.encoder.parameters()
            + self.to_code.parameters()
            + self.expand.parameters()
            + self.decoder.parameters()
            + self.readout.parameters()
        )

    def _split_states(self, expanded):
        states, offset = [], 0
        for w in self.decoder.widths:
            states.append(expanded[:, offset : offset + w])
            offset += w
        return states

    def encode(self, windows: np.ndarray, cache: bool = False) -> np.ndarray:
        """(B, tau, C) windows -> (B, bottleneck) codes."""
        W = np.asarray(windows, dtype=float)
        if W.ndim != 3 or W.shape[1] != self.tau or W.shape[2] != self.channels:
            raise ValueError(
                f"expected (B, {self.tau}, {self.channels}) windows, got {W.shape}"
            )
        H = self.encoder.forward(np.transpose(W, (1, 0, 2)), cache=cache)
        return self.to_code.forward(H[-1].copy(), cache=cache)

    def decode(self, code: np.ndarray, cache: bool = False) -> np.ndarray:
        """(B, bottleneck) codes -> (B, tau, C) reconstructed windows."""
        U = np.asarray(code, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.arch.bottleneck:
            raise ValueError(f"expected (B, {self.arch.bottleneck}) codes, got {U.shape}")
        B = U.shape[0]
        states = self._split_states(self.expand.forward(U, cache=cache))
        D = self.decoder.forward(
            np.zeros((self.tau, B, 1)), initial_states=states, cache=cache
        )
        flat = self.readout.forward(D.reshape(self.tau * B, -1), cache=cache)
        return flat.reshape(self.tau, B, self.channels).transpose(1, 0, 2)

    def reconstruct(self, windows: np.ndarray, cache: bool = False) -> np.ndarray:
        return self.decode(self.encode(windows, cache=cache), cache=cache)

    def loss(self, batch: np.ndarray, with_grads: bool = False) -> float:
        """Reconstruction MSE plus the L2 weight penalty over a (B, tau, C) batch."""
        batch = np.asarray(batch, dtype=float)
        recon = self.reconstruct(batch, cache=with_grads)
        value = penalized_loss(recon, batch, self.parameters(), self.lam)
        if with_grads:
            dR = mse_grad(recon, batch)  # (B, tau, C)
            dflat = self.readout.backward(
                dR.transpose(1, 0, 2).reshape(self.tau * batch.shape[0], self.channels)
            )
            dD = dflat.reshape(self.tau, batch.shape[0], -1)
            _, dstates = self.decoder.backward(dD)
            dexpanded = np.concatenate(dstates, axis=1)
            dcode = self.expand.backward(dexpanded)
            self.encoder.backward(self.to_code.backward(dcode))
            add_penalty_grads(self.parameters(), self.lam)
        return value

    def reconstruction_mse(self, windows: np.ndarray) -> float:
        windows = np.asarray(windows, dtype=float)
        recon = self.reconstruct(windows)
        return float(np.mean((recon - windows) ** 2))


def train_autoencoder(windows, config: TrainConfig, arch: SaeArch,
                      threshold_ratio: float = 0.2) -> StackedAutoencoder:
    """Train the autoencoder on an (N, tau, C) window array until held-out
    reconstruction MSE drops below ``threshold_ratio`` times the input
    variance, or the epoch budget runs out.

    Every fifth window is held out for the stop test.  A diverging run raises
    :class:`~demandnet.nn.optim.DivergenceError`, as every trainer does.  The
    outcome (histories, threshold, stop reason) is recorded on
    ``model.training``.
    """
    all_windows = np.asarray(windows, dtype=float)
    if all_windows.ndim != 3:
        raise ValueError(f"expected (N, tau, C) windows, got shape {all_windows.shape}")
    n = all_windows.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 windows to train, got {n}")
    val_idx = np.arange(0, n, 5)
    train_idx = np.setdiff1d(np.arange(n), val_idx)
    if train_idx.size == 0:
        train_idx = val_idx
    train_w, val_w = all_windows[train_idx], all_windows[val_idx]
    input_variance = float(train_w.var())
    threshold = threshold_ratio * input_variance

    rng = stream(config.seed, "sae", "init")
    model = StackedAutoencoder(
        channels=all_windows.shape[2], tau=all_windows.shape[1], arch=arch,
        rng=rng, lam=config.weight_decay,
    )
    train_history, val_history = [], []

    def end_epoch(epoch, mean_batch_loss):
        train_history.append(model.loss(train_w, with_grads=False))
        val_history.append(model.reconstruction_mse(val_w))
        return val_history[-1] <= threshold

    fit(model.parameters(), config, "sae", train_idx.size,
        lambda rows, epoch, step: model.loss(train_w[rows], with_grads=True), end_epoch)
    model.training = SaeTraining(
        train_history=tuple(train_history),
        val_history=tuple(val_history),
        threshold=threshold,
    )
    return model
