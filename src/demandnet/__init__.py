"""Policy-aware multi-horizon demand forecasting.

The pipeline has four stages: screen static features by rank correlation
against shock impact, compress history windows with a stacked recurrent
autoencoder, fit an interpretable penalized network mapping covariates to
demand (whose policy marginal curve feeds a skip connection), and train a
recurrent multi-step forecaster whose uncertainty comes from Monte-Carlo
dropout.  Everything numeric is float64 numpy with hand-written gradients.
"""

__version__ = "0.1.0"

from .data import SynthConfig, split_time, synth_generate

__all__ = ["SynthConfig", "split_time", "synth_generate"]
