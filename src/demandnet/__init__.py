"""Policy-aware multi-horizon demand forecasting.

The pipeline has four stages: screen static features by rank correlation
against shock impact, compress history windows with a stacked recurrent
autoencoder, fit an interpretable penalized network mapping covariates to
demand (whose policy marginal curve feeds a skip connection), and train a
recurrent multi-step forecaster whose uncertainty comes from Monte-Carlo
dropout.  Everything numeric is float64 numpy with hand-written gradients.
"""

__version__ = "0.1.0"

from .data import (
    DataError,
    DatasetSplit,
    GapError,
    NormStats,
    ParseError,
    PolicyRangeError,
    SchemaError,
    SeriesBundle,
    SynthConfig,
    fit_norm_stats,
    holdout_series,
    load_dataset,
    make_windows,
    split_time,
    synth_generate,
)
from .effects import (
    EffectModel,
    MarginalCurve,
    PolynomialFit,
    fit_polynomial,
    marginal_effect,
    policy_delta,
    train_effect_model,
)
from .evaluation import (
    ExperimentReport,
    MetricSet,
    ar_forecast,
    exp_smoothing_forecast,
    mae,
    pred_sd,
    rmse,
    run_split80,
    run_unseen,
    seasonal_naive_forecast,
)
from .features import (
    CorrelationReport,
    SaeArch,
    StackedAutoencoder,
    filter_static,
    rank_with_ties,
    spearman,
    train_autoencoder,
)
from .forecaster import (
    ForecastDistribution,
    ForecasterArch,
    ForecasterModel,
    forecast_unseen,
    load_forecaster,
    mc_forecast,
    optimize_dropout,
    save_forecaster,
    train_forecaster,
    variance_vs_truth,
)
from .nn import (
    DenseLayer,
    Parameter,
    TrainConfig,
    grad_check,
    penalized_loss,
    sample_dropout_mask,
)
from .pipeline import PipelineConfig, TrainedPipeline, train_demandnet

__all__ = [name for name in dir() if not name.startswith("_")]
