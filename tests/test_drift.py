"""Numeric-drift fixture: a tiny end-to-end run pinned to stored numbers.

The reference holds, for 3 synthetic series of 120 days (tau 8, horizon 6,
hidden 6): the effects-network parameters after 2 epochs, the GRU and LSTM
forecaster parameters after 2 epochs (policy skip on, dropout 0.1, so the
shuffle and dropout-mask streams are exercised), the autoencoder parameters
after 2 epochs, kappa=8 Monte-Carlo samples for one window, and tuned
exponential-smoothing and AR forecasts for one series.  A change that
reorders floating-point work fails here before it moves any artifact.

The test only reads the reference.  Rewrite it deliberately, and only for a
change that is meant to move numbers, with

    PYTHONPATH=src python tests/test_drift.py tests/data/drift_reference.npz
"""

import sys
from pathlib import Path

import numpy as np

from demandnet.data import SynthConfig, Windows, make_windows, prepare_bundle, synth_generate
from demandnet.effects import train_effect_model
from demandnet.evaluation import ar_forecast, exp_smoothing_forecast, tune_ar, tune_exp_smoothing
from demandnet.features import SaeArch, train_autoencoder
from demandnet.forecaster import ForecasterArch, mc_forecast_batch, train_forecaster
from demandnet.nn.optim import TrainConfig
from demandnet.pipeline import PipelineConfig, effect_training_data

REFERENCE = Path(__file__).parent / "data" / "drift_reference.npz"
TAU, HORIZON, HIDDEN = 8, 6, 6


def _params(prefix, model):
    return {f"{prefix}::{p.name}": p.value.copy() for p in model.parameters()}


def compute() -> dict:
    bundles = synth_generate(SynthConfig(series_count=3, length=120), seed=0)
    cfg = PipelineConfig(tau=TAU, horizons=(HORIZON,))
    out = {}

    X, y, names, _ = effect_training_data(bundles, cfg)
    effects = train_effect_model(
        X, y, names, TrainConfig(learning_rate=1e-2, batch_size=32, epochs=2),
        hidden_width=HIDDEN,
    )
    out.update(_params("effects", effects))
    out["effects::history"] = np.array(effects.train_history)

    fore_cfg = TrainConfig(optimizer="adam", learning_rate=1e-2, batch_size=32, epochs=2)
    models = {}
    for cell in ("gru", "lstm"):
        arch = ForecasterArch(cell=cell, hidden=HIDDEN, layers=2, horizon=HORIZON, dropout=0.1)
        model = train_forecaster(bundles, fore_cfg, arch, effects, tau=TAU)
        models[cell] = model
        out.update(_params(cell, model))
        out[f"{cell}::train_history"] = np.array(model.training.train_history)
        out[f"{cell}::val_history"] = np.array(model.training.val_history)

    windows = []
    for bundle in bundles:
        split, _, nb = prepare_bundle(bundle, cfg.fractions)
        windows.append(make_windows(nb, TAU, HORIZON, span=split.validation))
    val = Windows.concat(windows)
    out["mc::samples"] = mc_forecast_batch(
        models["gru"], val.past[:1], val.policies[:1], kappa=8, seed=0,
    )

    train = Windows.concat([
        make_windows(prepare_bundle(b, cfg.fractions)[2], TAU, HORIZON) for b in bundles
    ])
    sae = train_autoencoder(
        train.past, TrainConfig(optimizer="adam", learning_rate=1e-2, batch_size=32, epochs=2),
        SaeArch(widths=(HIDDEN, 4), bottleneck=2), threshold_ratio=1e-9,
    )
    out.update(_params("sae", sae))
    out["sae::val_history"] = np.array(sae.training.val_history)

    split, _, nb = prepare_bundle(bundles[0], cfg.fractions)
    series, history = nb.target, nb.target[: split.test.start]
    origins = range(split.validation.start, split.validation.stop)
    alpha, beta = tune_exp_smoothing(series, origins, (HORIZON,), split.validation.stop)[HORIZON]
    out["es::forecast"] = exp_smoothing_forecast(history, alpha, HORIZON, beta=beta)
    order = tune_ar(series, origins, (HORIZON,), split.validation.stop)[HORIZON]
    out["ar::forecast"] = ar_forecast(history, order, HORIZON)
    return out


def test_numbers_match_the_stored_reference():
    with np.load(REFERENCE) as stored:
        reference = {key: stored[key] for key in stored.files}
    got = compute()
    assert sorted(got) == sorted(reference)
    for key, want in reference.items():
        np.testing.assert_allclose(got[key], want, rtol=1e-10, atol=0, err_msg=key)


if __name__ == "__main__":
    np.savez(sys.argv[1], **compute())
