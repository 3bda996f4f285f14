"""Multi-step recurrent demand forecaster with a policy skip connection and
Monte-Carlo-dropout uncertainty.

The recurrent stack reads a (tau, channels) history window and emits the
whole horizon in one linear readout.  A policy skip connection adds the
effects model's predicted demand shift for the announced future policy path
directly to the base forecast; the shift is constant with respect to the
forecaster's parameters, so training sees adjusted forecasts while gradients
flow only through the recurrent stack.  Uncertainty comes from repeating the
forward pass under freshly sampled dropout masks held fixed across time
within each pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import (NormStats, SeriesBundle, Windows, fit_norm_stats, make_windows,
                   prepare_bundle, split_time)
from .effects import EffectModel, policy_delta
from .nn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_params_from_arrays,
    params_to_arrays,
    save_checkpoint,
)
from .nn.layers import DenseLayer, sample_dropout_mask
from .nn.loss import add_penalty_grads, mse_grad, penalized_loss
from .nn.optim import TrainConfig, fit
from .nn.recurrent import RecurrentStack
from .rngs import stream, stream_uniforms


@dataclass(frozen=True)
class ForecasterArch:
    """Shape of the forecaster: cell kind, stack size, horizon, policy skip."""

    cell: str = "gru"
    hidden: int = 128
    layers: int = 2
    horizon: int = 80
    dropout: float = 0.1
    use_policy_skip: bool = True

    def __post_init__(self):
        if self.cell not in ("lstm", "gru"):
            raise ValueError(f"cell must be 'lstm' or 'gru', got {self.cell!r}")
        if self.hidden < 1 or self.layers < 1 or self.horizon < 1:
            raise ValueError("hidden, layers, and horizon must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class ForecastDistribution:
    """kappa Monte-Carlo sample paths with their mean and spread per step."""

    samples: np.ndarray  # (kappa, H)
    mean: np.ndarray  # (H,)
    sd: np.ndarray  # (H,)
    p: float
    kappa: int

    def __post_init__(self):
        for name in ("samples", "mean", "sd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.samples.shape != (self.kappa, self.mean.shape[0]):
            raise ValueError("samples shape inconsistent with kappa and horizon")

    @property
    def horizon(self) -> int:
        return int(self.mean.shape[0])


@dataclass(frozen=True)
class ForecasterTraining:
    train_history: tuple[float, ...]
    val_history: tuple[float, ...]
    best_epoch: int


def _as_policy_array(policies, horizon: int) -> np.ndarray:
    values = np.asarray(policies, dtype=float)
    if values.shape != (horizon,):
        raise ValueError(f"expected a length-{horizon} policy path, got shape {values.shape}")
    return values


class ForecasterModel:
    """Recurrent stack + direct multi-horizon readout + policy skip."""

    def __init__(self, arch: ForecasterArch, tau: int, channel_names,
                 policy_channel: int, effect_model: EffectModel | None = None,
                 rng: np.random.Generator | None = None, lam: float = 0.0):
        if tau < 1:
            raise ValueError("tau must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.arch = arch
        self.tau = tau
        self.channel_names = tuple(channel_names)
        self.policy_channel = policy_channel
        if not 0 < policy_channel < len(self.channel_names):
            raise ValueError("policy_channel must index a covariate column")
        if arch.use_policy_skip and effect_model is None:
            raise ValueError("policy skip requires an effect model")
        self.effect_model = effect_model
        self.lam = lam
        widths = (arch.hidden,) * arch.layers
        self.stack = RecurrentStack(arch.cell, len(self.channel_names), widths, rng, name="fore")
        self.readout = DenseLayer(arch.hidden, arch.horizon, "identity", rng, name="fore.out")
        self.mc_p = arch.dropout  # optimize_dropout may replace it
        self.norm_stats: dict[str, NormStats] = {}
        self.mean_policy: np.ndarray | None = None
        self.training: ForecasterTraining | None = None

    def parameters(self):
        return self.stack.parameters() + self.readout.parameters()

    def param_hash(self) -> str:
        digest = hashlib.sha256()
        for p in self.parameters():
            digest.update(p.name.encode())
            digest.update(str(p.value.shape).encode())
            digest.update(np.ascontiguousarray(p.value).tobytes())
        return digest.hexdigest()

    def _sequence(self, windows: np.ndarray) -> np.ndarray:
        """(N, tau, C) windows as the stack's (tau, N, C) input sequence."""
        W = np.asarray(windows, dtype=float)
        if W.ndim != 3 or W.shape[1] != self.tau or W.shape[2] != len(self.channel_names):
            raise ValueError(
                f"expected (*, {self.tau}, {len(self.channel_names)}) windows, "
                f"got shape {W.shape}"
            )
        return W.transpose(1, 0, 2)

    def _forward_base(self, windows: np.ndarray, masks=None, cache: bool = False) -> np.ndarray:
        H = self.stack.forward(self._sequence(windows), masks=masks, cache=cache)
        # the readout caches its own copy of the last step, not a view that
        # would keep the whole output sequence alive through backward
        return self.readout.forward(H[-1].copy(), cache=cache)

    def _backward_base(self, dbase: np.ndarray):
        self.stack.backward(self.readout.backward(dbase))

    def policy_deltas(self, policies: np.ndarray) -> np.ndarray:
        """Per-step demand shifts, relative to policy 0, for a (..., H) array
        of future policies."""
        policies = np.asarray(policies, dtype=float)
        if not self.arch.use_policy_skip:
            return np.zeros_like(policies)
        return np.asarray(policy_delta(self.effect_model, policies), dtype=float)

    def loss(self, batch, with_grads: bool = False) -> float:
        """Deterministic training loss (MSE after adjustment + L2 penalty)."""
        windows, policies, labels = batch
        delta = self.policy_deltas(np.asarray(policies, dtype=float))
        return self._loss_with_delta(windows, delta, labels, with_grads=with_grads)

    def _loss_with_delta(self, windows, delta, labels, masks=None,
                         with_grads: bool = False) -> float:
        labels = np.asarray(labels, dtype=float)
        base = self._forward_base(windows, masks=masks, cache=with_grads)
        adjusted = base + delta
        value = penalized_loss(adjusted, labels, self.parameters(), self.lam)
        if with_grads:
            self._backward_base(mse_grad(adjusted, labels))
            add_penalty_grads(self.parameters(), self.lam)
        return value

    def norm_for(self, bundle: SeriesBundle, fractions=(0.8, 0.1, 0.1)):
        """``(split, stats)`` for ``bundle``: the stats stored at training
        when the model trained on the series, else stats fitted on its own
        training fraction (policy kept raw), as :func:`prepare_bundle` does."""
        if bundle.channel_names() != self.channel_names:
            raise ValueError(
                f"series {bundle.id} channels {bundle.channel_names()} do not match "
                f"the model's {self.channel_names}"
            )
        if 1 + bundle.policy_index != self.policy_channel:
            raise ValueError(f"series {bundle.id} has its policy in channel "
                             f"{1 + bundle.policy_index}, the model in {self.policy_channel}")
        split = split_time(bundle.length, fractions)
        stats = self.norm_stats.get(bundle.id)
        if stats is None:
            stats = fit_norm_stats(bundle, split, identity_channels=(self.policy_channel,))
        return split, stats

    def mean_policy_at(self, origin: int, horizon: int) -> np.ndarray:
        """Cross-series mean training policy path at matching absolute offsets;
        offsets past the longest training range repeat its last value."""
        if self.mean_policy is None:
            raise ValueError("model has no stored mean policy trajectory")
        idx = np.minimum(np.arange(origin, origin + horizon), self.mean_policy.size - 1)
        return self.mean_policy[idx]


def train_forecaster(bundles: list[SeriesBundle], config: TrainConfig,
                     arch: ForecasterArch, effect_model: EffectModel | None,
                     tau: int, fractions=(0.8, 0.1, 0.1)) -> ForecasterModel:
    """Train on pooled windows from every bundle's training range.

    Each bundle is z-scored from its own training range (policy channel kept
    raw).  The policy shift never depends on the forecaster's parameters, so
    it is computed once per series-day and gathered with each minibatch, as
    the windows are (:meth:`Windows.take`).  The returned model carries the
    best-validation parameters, per-series normalization stats, and the mean
    training policy trajectory (for dummy-policy forecasts on unseen series).
    """
    if not bundles:
        raise ValueError("no bundles to train on")
    channel_names = bundles[0].channel_names()
    policy_channel = 1 + bundles[0].policy_index
    for b in bundles:
        if b.channel_names() != channel_names or 1 + b.policy_index != policy_channel:
            raise ValueError(f"series {b.id} disagrees on channels or policy column")

    train_parts, val_parts = [], []
    norm_stats: dict[str, NormStats] = {}
    # the mean policy path reads each series' training range only
    policy_sum = np.zeros(max(split_time(b, fractions).train.stop for b in bundles))
    policy_count = np.zeros_like(policy_sum)
    for b in bundles:
        split, norm_stats[b.id], nb = prepare_bundle(b, fractions)
        train_parts.append(make_windows(nb, tau, arch.horizon, span=split.train))
        val_parts.append(make_windows(nb, tau, arch.horizon, span=split.validation))
        policy_sum[: split.train.stop] += b.policy[: split.train.stop]
        policy_count[: split.train.stop] += 1.0
    train, val = Windows.concat(train_parts), Windows.concat(val_parts)
    if not len(train):
        raise ValueError(f"no training windows: series too short for tau={tau} "
                         f"horizon={arch.horizon}")

    model = ForecasterModel(
        arch, tau, channel_names, policy_channel, effect_model=effect_model,
        rng=stream(config.seed, "forecaster", "init"), lam=config.weight_decay,
    )
    model.norm_stats = norm_stats
    model.mean_policy = policy_sum / policy_count

    shift_tr = model.policy_deltas(train.policy)
    # without validation windows the best epoch is picked on the training windows
    scored, shift_scored = ((val, model.policy_deltas(val.policy)) if len(val)
                            else (train, shift_tr))

    params = model.parameters()
    widths = (arch.hidden,) * arch.layers
    train_history, val_history = [], []
    best = ([p.value.copy() for p in params], np.inf, -1)

    def batch_loss(rows, epoch, step):
        masks = None
        if arch.dropout > 0.0:
            masks = [
                sample_dropout_mask(
                    (rows.size, w), arch.dropout,
                    stream(config.seed, "forecaster", "dropout", epoch, step, l),
                )
                for l, w in enumerate(widths)
            ]
        return model._loss_with_delta(*train.take(rows, shift_tr), masks=masks,
                                      with_grads=True)

    def end_epoch(epoch, mean_batch_loss):
        nonlocal best
        train_history.append(mean_batch_loss)
        score = model._loss_with_delta(*scored.take(daily=shift_scored), with_grads=False)
        val_history.append(score)
        if score < best[1]:
            best = ([p.value.copy() for p in params], score, epoch)

    with model.stack.wavefront():
        fit(params, config, "forecaster", len(train), batch_loss, end_epoch)
    for p, value in zip(params, best[0]):
        p.value[...] = value
    model.training = ForecasterTraining(
        train_history=tuple(train_history),
        val_history=tuple(val_history),
        best_epoch=best[2],
    )
    return model


# ----------------------------------------------------------------------------
# Monte-Carlo dropout forecasting


def _resolve_p(model: ForecasterModel, p) -> float:
    value = model.mc_p if p is None else float(p)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {value}")
    return value


def _mc_sample_sets(model: ForecasterModel, windows: np.ndarray, policies: np.ndarray,
                    kappa: int, rates, seed: int):
    """Yield :func:`mc_forecast_batch`'s (kappa, N, H) samples at each
    dropout rate in ``rates``, one rate at a time.  The rates share one
    uniform block, layer 0's output and the policy shift: pass k's mask at
    rate p is ``(U[k] >= p) / (1 - p)`` over the same uniforms ``U[k]``."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    W = np.asarray(windows, dtype=float)
    P = np.asarray(policies, dtype=float)
    if W.ndim != 3:
        raise ValueError(f"expected (N, tau, C) windows, got shape {W.shape}")
    if P.shape != (W.shape[0], model.arch.horizon):
        raise ValueError(f"expected (N, {model.arch.horizon}) policies, got {P.shape}")
    widths = model.stack.widths
    U = None
    first = model.stack.forward_first(model._sequence(W))
    delta = model.policy_deltas(P)[None, :, :]
    rows = kappa * W.shape[0]
    for p in rates:
        if p > 0.0:
            if U is None:
                U = stream_uniforms(seed, "mc-pass", count=kappa, width=sum(widths))
            block = (U >= p) / (1.0 - p)
        else:
            block = np.ones((kappa, sum(widths)))
        masks = np.split(block, np.cumsum(widths)[:-1], axis=1)
        top = model.stack.forward_passes(first, masks).reshape(rows, -1)
        # a lone row runs as two copies, one kept, as in forward_passes
        base = model.readout.forward(np.repeat(top, 2, axis=0) if rows == 1 else top)[:rows]
        yield base.reshape(kappa, W.shape[0], -1) + delta


def mc_forecast_batch(model: ForecasterModel, windows: np.ndarray, policies: np.ndarray,
                      kappa: int = 100, p: float | None = None, seed: int = 0) -> np.ndarray:
    """(kappa, N, H) adjusted sample paths for N windows in one batched pass.

    Pass k draws its masks from the pre-assigned stream ``(seed, "mc-pass",
    k)``, layer by layer from one ``random`` draw of all the widths, and
    applies the same network realization to every window, so the result
    for window n is bit-identical to a single-window call with the same
    seed.  The kappa passes' uniforms come as one block
    (:func:`~demandnet.rngs.stream_uniforms`), thresholded at once.  Layer 0
    runs once on the N windows; the layers above run on groups of whole
    passes (:meth:`RecurrentStack.forward_passes`).
    """
    p_used = _resolve_p(model, p)
    return next(_mc_sample_sets(model, windows, policies, kappa, (p_used,), seed))


def mc_moments(samples: np.ndarray):
    """Per-step ``(mean, sd)`` of MC samples over their leading (pass) axis.

    When every pass drew the same paths (e.g. p = 0 or kappa = 1) the mean
    is that path and the spread is exactly zero, not a rounding residue.
    """
    if bool((samples == samples[0]).all()):
        return samples[0].copy(), np.zeros_like(samples[0])
    return samples.mean(axis=0), samples.std(axis=0)


def mc_forecast(model: ForecasterModel, window: np.ndarray, policies,
                kappa: int = 100, p: float | None = None, seed: int = 0) -> ForecastDistribution:
    """Forecast one window: kappa dropout passes, mean and per-step spread."""
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise ValueError(f"expected a (tau, C) window, got shape {window.shape}")
    pol = _as_policy_array(policies, model.arch.horizon)
    p_used = _resolve_p(model, p)
    samples = mc_forecast_batch(model, window[None], pol[None], kappa, p_used, seed)[:, 0, :]
    mean, sd = mc_moments(samples)
    return ForecastDistribution(samples=samples, mean=mean, sd=sd, p=p_used, kappa=kappa)


def variance_vs_truth(dist: ForecastDistribution, truth: np.ndarray) -> np.ndarray:
    """Per-step mean squared deviation of the sample paths from the realized
    values (spread measured about the truth, not the sample mean)."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (dist.horizon,):
        raise ValueError(f"expected length-{dist.horizon} truth, got shape {truth.shape}")
    return np.mean((dist.samples - truth[None, :]) ** 2, axis=0)


def optimize_dropout(model: ForecasterModel, windows: np.ndarray, policies: np.ndarray,
                     truths: np.ndarray, candidates=(0.05, 0.1, 0.2, 0.35, 0.5),
                     kappa: int = 100, seed: int = 0) -> float:
    """Pick the dropout rate whose MC forecast distribution scores the best
    Gaussian log-likelihood on held-out windows; ties go to the smaller rate.

    The winner is stored on the model (``model.mc_p``) and returned.
    """
    cands = sorted(float(c) for c in candidates)
    if not cands:
        raise ValueError("no dropout candidates given")
    if any(not 0.0 <= c < 1.0 for c in cands):
        raise ValueError(f"dropout candidates must be in [0, 1), got {cands}")
    W = np.asarray(windows, dtype=float)
    Y = np.asarray(truths, dtype=float)
    if W.shape[0] == 0:
        raise ValueError("no validation windows to score")
    best_p, best_nll = None, np.inf
    sets = _mc_sample_sets(model, W, policies, kappa, cands, seed)
    for cand, samples in zip(cands, sets):
        mean, sd = mc_moments(samples)
        sigma = sd + 1e-6
        nll = float(np.mean(0.5 * np.log(2.0 * np.pi * sigma**2)
                            + (Y - mean) ** 2 / (2.0 * sigma**2)))
        if nll < best_nll:
            best_p, best_nll = cand, nll
    model.mc_p = best_p
    return best_p


def forecast_unseen(model: ForecasterModel, bundle: SeriesBundle,
                    policy_mode: str = "known", policies=None, origin: int | None = None,
                    kappa: int = 100, p: float | None = None, seed: int = 0,
                    fractions=(0.8, 0.1, 0.1)) -> ForecastDistribution:
    """Forecast one window of any series; no parameter updates.

    A series the model trained on is normalized by the stats stored at
    training, whatever ``fractions`` says; any other series by stats fitted
    on its own training fraction, the same convention as training.
    ``fractions`` also places the default origin at the test-range start.
    ``policy_mode`` selects the future policy path: the bundle's recorded
    path ("known"), the cross-series mean training trajectory at the same
    calendar offsets ("dummy"), or a caller-supplied schedule ("scheduled").
    """
    split, stats = model.norm_for(bundle, fractions)
    start = split.test.start if origin is None else int(origin)
    if start < model.tau:
        raise ValueError(f"origin {start} leaves no room for a tau={model.tau} window")
    if start > bundle.length:
        raise ValueError(f"origin {start} beyond series length {bundle.length}")
    H = model.arch.horizon
    if policy_mode == "known":
        if start + H > bundle.length:
            raise ValueError(
                f"known policies unavailable: origin {start} + horizon {H} "
                f"exceeds length {bundle.length}"
            )
        pol = bundle.policy[start : start + H]
    elif policy_mode == "dummy":
        pol = model.mean_policy_at(start, H)
    elif policy_mode == "scheduled":
        if policies is None:
            raise ValueError("policy_mode='scheduled' requires explicit policies")
        pol = _as_policy_array(policies, H)
    else:
        raise ValueError(f"unknown policy_mode {policy_mode!r}")
    window = stats.normalize_panel(bundle.channel_matrix(slice(start - model.tau, start)))
    return mc_forecast(model, window, pol, kappa=kappa, p=p, seed=seed)


# ----------------------------------------------------------------------------
# Checkpointing


_EFFECTS_FIELDS = ("feature_names", "widths", "lam", "policy_feature")


def effects_meta(em: EffectModel | None):
    if em is None:
        return None
    return {
        "feature_names": list(em.feature_names),
        "widths": list(em.widths),
        "lam": em.lam,
        "policy_feature": em.policy_feature,
    }


def effects_to_arrays(em: EffectModel, prefix: str = "effects::") -> dict:
    arrays = {prefix + p.name: p.value.copy() for p in em.parameters()}
    arrays[prefix + "feature_means"] = em.feature_means.copy()
    return arrays


def effects_from_meta(meta: dict, arrays: dict, prefix: str = "effects::") -> EffectModel:
    # a field this loader would ignore (such as the policy polynomial older
    # files could carry, which drove their forecasts) must not be dropped
    # silently; older files store it as null
    ignored = sorted(k for k, v in meta.items() if k not in _EFFECTS_FIELDS and v is not None)
    if ignored:
        raise CheckpointError(f"effects model carries unsupported fields {ignored}")
    em = EffectModel(
        tuple(meta["feature_names"]), tuple(meta["widths"]),
        lam=meta["lam"], policy_feature=meta["policy_feature"],
    )
    named = {
        name[len(prefix):]: arr for name, arr in arrays.items()
        if name.startswith(prefix)
    }
    load_params_from_arrays(em.parameters(), named)
    if "feature_means" not in named:
        raise CheckpointError("effects model is missing its feature_means array")
    em.feature_means = np.asarray(named["feature_means"], dtype=float)
    return em


def _stats_meta(stats: NormStats) -> dict:
    return {
        "location": [float(v) for v in stats.location],
        "scale": [float(v) for v in stats.scale],
    }


def _stats_from_meta(meta: dict) -> NormStats:
    # older checkpoints also carry constant/identity/fitted keys; no number
    # ever depended on them
    return NormStats(np.asarray(meta["location"], dtype=float),
                     np.asarray(meta["scale"], dtype=float))


def save_forecaster(model: ForecasterModel, path):
    """Write the complete forecaster (stack, readout, effects model, stats)."""
    meta = {
        "arch": asdict(model.arch),
        "tau": model.tau,
        "channel_names": list(model.channel_names),
        "policy_channel": model.policy_channel,
        "lam": model.lam,
        "mc_p": model.mc_p,
        "norm_stats": {sid: _stats_meta(s) for sid, s in model.norm_stats.items()},
        "effects": effects_meta(model.effect_model),
    }
    arrays = params_to_arrays(model.parameters())
    if model.mean_policy is not None:
        arrays["mean_policy"] = model.mean_policy.copy()
    if model.effect_model is not None:
        arrays.update(effects_to_arrays(model.effect_model))
    return save_checkpoint(path, "forecaster", meta, arrays)


# older files store the skip rule and its reference level; only the values
# every model used then have a meaning now
_RETIRED_ARCH = {"adjust_mode": "additive", "reference_policy": 0.0}


def load_forecaster(path) -> ForecasterModel:
    """Rebuild a forecaster bit-exactly from its checkpoint."""
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    em = effects_from_meta(meta["effects"], arrays) if meta.get("effects") else None
    given = dict(meta["arch"])
    for key, kept in _RETIRED_ARCH.items():
        value = given.pop(key, kept)
        if value != kept:
            raise CheckpointError(f"forecaster arch {key}={value!r} is not supported; "
                                  f"only {kept!r} loads")
    unknown = sorted(set(given) - {f.name for f in fields(ForecasterArch)})
    if unknown:
        raise CheckpointError(f"forecaster arch carries unsupported fields {unknown}")
    try:  # such as a policy skip without its effects model
        model = ForecasterModel(
            ForecasterArch(**given), meta["tau"], tuple(meta["channel_names"]),
            meta["policy_channel"], effect_model=em, lam=meta["lam"],
        )
    except ValueError as exc:
        raise CheckpointError(f"forecaster checkpoint: {exc}") from exc
    load_params_from_arrays(model.parameters(), arrays)
    # files saved from a bare train_forecaster model store null: arch.dropout
    if meta.get("mc_p") is not None:
        model.mc_p = meta["mc_p"]
    model.norm_stats = {
        sid: _stats_from_meta(m) for sid, m in meta["norm_stats"].items()
    }
    if "mean_policy" in arrays:
        model.mean_policy = np.asarray(arrays["mean_policy"], dtype=float)
    return model


def save_effects(em: EffectModel, path, seed: int):
    """Write a stand-alone effects-model checkpoint with its training seed."""
    meta = {"effects": effects_meta(em), "seed": seed}
    return save_checkpoint(path, "effects", meta, effects_to_arrays(em))


def load_effects(path) -> EffectModel:
    """Rebuild an effects model from :func:`save_effects` output."""
    meta, arrays = load_checkpoint(path, expected_kind="effects")
    return effects_from_meta(meta["effects"], arrays)
