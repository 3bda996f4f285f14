"""End-to-end assembly: from bundles to trained models.

This is the glue the experiment protocols, the CLI, and the scripts share:
pooled effects-model training data (dynamic covariates plus screened
statics), pooled validation windows, and the full train sequence (effects
model, forecaster, dropout-rate selection).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import (DataError, SeriesBundle, Windows, check_fractions, make_windows,
                   prepare_bundle, split_time)
from .effects import EffectModel, train_effect_model
from .features import CorrelationReport, filter_static
from .forecaster import ForecasterArch, ForecasterModel, optimize_dropout, train_forecaster
from .nn.optim import TrainConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs beyond the data itself.

    ``effects_train`` and ``forecaster_train`` default to the published
    operating point; experiment configs routinely override the optimizer,
    rate, and epoch budget to fit a desk-scale compute budget.  The model
    horizon is ``max(horizons)``, whatever ``arch.horizon`` was given, and
    ``dropout_candidates=()`` keeps ``arch.dropout`` for MC forecasting.
    """

    tau: int = 32
    horizons: tuple[int, ...] = (10, 20, 40, 80)
    kappa: int = 100
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    band: float = 0.3
    include_statics: bool = True
    dropout_candidates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.35, 0.5)
    arch: ForecasterArch = ForecasterArch()
    forecaster_train: TrainConfig = TrainConfig(optimizer="adam")
    effects_train: TrainConfig = TrainConfig()
    effects_width: int = 64

    def __post_init__(self):
        object.__setattr__(self, "horizons", tuple(int(h) for h in self.horizons))
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError(f"horizons must be positive, got {self.horizons}")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        check_fractions(self.fractions)
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if not 0.0 < self.band < 1.0:
            raise ValueError(f"band must be inside (0, 1), got {self.band}")
        candidates = tuple(float(c) for c in self.dropout_candidates)
        if any(not 0.0 <= c < 1.0 for c in candidates):
            raise ValueError(f"dropout_candidates must be in [0, 1), got {candidates}")
        object.__setattr__(self, "dropout_candidates", candidates)
        object.__setattr__(self, "arch", replace(self.arch, horizon=max(self.horizons)))

    @property
    def model_horizon(self) -> int:
        return self.arch.horizon


def check_lengths(bundles: list[SeriesBundle], cfg: PipelineConfig, trained=()) -> None:
    """Fail before any training with one :class:`DataError` that names the
    series and its shortfall.  Every series in ``bundles`` must split by
    ``cfg.fractions``; every series in ``trained`` must hold one window of
    ``tau`` days plus the model horizon, and some training range one too."""
    need, what = cfg.tau + cfg.model_horizon, f"tau + horizon = {cfg.tau} + {cfg.model_horizon}"
    for b in bundles:
        try:
            split_time(b.length, cfg.fractions)
        except ValueError as exc:
            raise DataError(f"series {b.id}: {exc}") from None
    for b in trained:
        if b.length < need:
            raise DataError(f"series {b.id}: length {b.length} is {need - b.length} days "
                            f"short of {what}")
    if trained:
        days, longest = max((split_time(b.length, cfg.fractions).train.stop, b.id)
                            for b in trained)
        if days < need:
            raise DataError(f"no training window: the longest training range, series "
                            f"{longest}'s, is {need - days} days short of {what}")


def screen_statics(bundles: list[SeriesBundle], cfg: PipelineConfig) -> CorrelationReport | None:
    """Run static screening when it is defined (3+ series with statics)."""
    if not cfg.include_statics:
        return None
    if len(bundles) < 3 or not bundles[0].static_profile:
        return None
    return filter_static(bundles, band=cfg.band, fractions=cfg.fractions)


def effect_training_data(bundles: list[SeriesBundle], cfg: PipelineConfig):
    """Pooled (X, y, feature_names, report) for the effects model.

    Rows are training-range time points of every bundle.  Features are the
    dynamic covariates in normalized units (policy raw) plus any retained
    static features z-scored across the training series.  The target is the
    per-series normalized demand.
    """
    if not bundles:
        raise ValueError("no bundles given")
    report = screen_statics(bundles, cfg)
    static_names = report.retained_names() if report is not None else ()
    if report is not None and not static_names:
        log.warning("static screening retained no features; using dynamics only")

    static_matrix = None
    if static_names:
        raw = np.array([[b.static_profile[n] for n in static_names] for b in bundles])
        loc = raw.mean(axis=0)
        scale = raw.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        static_matrix = (raw - loc) / scale

    X_rows, y_rows = [], []
    for i, bundle in enumerate(bundles):
        split, _, nb = prepare_bundle(bundle, cfg.fractions)
        rows = nb.covariates[split.train.start : split.train.stop]
        if static_matrix is not None:
            rows = np.hstack([rows, np.tile(static_matrix[i], (rows.shape[0], 1))])
        X_rows.append(rows)
        y_rows.append(nb.target[split.train.start : split.train.stop])
    X = np.vstack(X_rows)
    y = np.concatenate(y_rows)
    feature_names = bundles[0].covariate_names + tuple(static_names)
    return X, y, feature_names, report


def train_effects_for(bundles: list[SeriesBundle], cfg: PipelineConfig, seed: int):
    """Train the pooled effects model; returns (model, screening report)."""
    X, y, feature_names, report = effect_training_data(bundles, cfg)
    policy_name = bundles[0].covariate_names[bundles[0].policy_index]
    model = train_effect_model(
        X, y, feature_names, replace(cfg.effects_train, seed=seed),
        hidden_width=cfg.effects_width, policy_feature=policy_name,
    )
    return model, report


def pooled_validation_windows(bundles: list[SeriesBundle], cfg: PipelineConfig, horizon: int):
    """Validation-range windows from every bundle, stacked for scoring."""
    parts = []
    for bundle in bundles:
        split, _, nb = prepare_bundle(bundle, cfg.fractions)
        parts.append(make_windows(nb, cfg.tau, horizon, span=split.validation))
    pooled = Windows.concat(parts)
    return pooled.take() if len(pooled) else None


@dataclass(frozen=True)
class TrainedPipeline:
    """Everything one training run produces."""

    forecaster: ForecasterModel
    effects: EffectModel
    screening: CorrelationReport | None
    p_used: float


def train_demandnet(bundles: list[SeriesBundle], cfg: PipelineConfig,
                    seed: int = 0) -> TrainedPipeline:
    """Full training sequence: effects model, forecaster, dropout selection."""
    effects, report = train_effects_for(bundles, cfg, seed=seed)
    model = train_forecaster(
        bundles, replace(cfg.forecaster_train, seed=seed), cfg.arch,
        effects if cfg.arch.use_policy_skip else None,
        tau=cfg.tau, fractions=cfg.fractions,
    )
    if cfg.dropout_candidates:
        pooled = pooled_validation_windows(bundles, cfg, cfg.arch.horizon)
        if pooled is None:
            log.warning("no validation windows for dropout selection; keeping p=%.3f",
                        model.mc_p)
        else:
            optimize_dropout(model, *pooled, candidates=cfg.dropout_candidates,
                             kappa=cfg.kappa, seed=seed)
    return TrainedPipeline(forecaster=model, effects=effects, screening=report,
                           p_used=model.mc_p)
