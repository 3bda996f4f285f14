"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible even without ``-s``) and covers
one externally stated guarantee: oracle-equivalent rank correlation, finite
difference gradient agreement, Monte Carlo dropout invariants, autoencoder
compression, the policy skip connection's value under shocks, baseline wins,
the seen/unseen generalization gap, hand-checked error metrics, bitwise
reproducibility, and a monotone policy effect curve.

The model runs here use desk-scale data and architectures so the whole file
stays within a few CPU-minutes; every threshold is still checked at full
strictness.
"""

import dataclasses
import inspect
import json
import os

import numpy as np
import scipy.stats

import demandnet as dn
from demandnet.cli import main as cli_main
from demandnet.data import load_dataset, make_windows, prepare_bundle
from demandnet.effects import EffectModel, marginal_effect
from demandnet.evaluation import (
    demandnet_eval_bundle,
    mae,
    pred_sd,
    rmse,
    run_split80,
    run_unseen,
)
from demandnet.features import (
    SaeArch,
    StackedAutoencoder,
    spearman,
    train_autoencoder,
)
from demandnet.forecaster import (
    ForecasterArch,
    ForecasterModel,
    forecast_unseen,
    load_forecaster,
    mc_forecast,
    mc_forecast_batch,
    save_forecaster,
    train_forecaster,
    variance_vs_truth,
)
from demandnet.nn.layers import DenseLayer
from demandnet.nn.optim import TrainConfig
from demandnet.nn.recurrent import RecurrentStack
from demandnet.pipeline import (
    PipelineConfig,
    train_demandnet,
    train_effects_for,
)
from demandnet.rngs import stream

from conftest import build_bundle
from gradcheck import DenseProbe, SequenceProbe, grad_check

SEEDS = (0, 1, 2, 3, 4)


def _verdict(capsys, label: str, ok: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {label}{suffix}")
    assert ok, f"{label}{suffix}"


# ----------------------------------------------------------------------------
# rank correlation against an independent reference


def test_rank_correlation_matches_reference_everywhere(capsys):
    rng = np.random.default_rng(20260815)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 51))
        if rng.random() < 0.3:
            # draw from few bins so ties are guaranteed
            x = rng.integers(0, max(2, n // 2), size=n).astype(float)
            y = rng.integers(0, max(2, n // 2), size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        ours = spearman(x, y)
        ref = np.corrcoef(scipy.stats.rankdata(x), scipy.stats.rankdata(y))[0, 1]
        worst = max(worst, abs(ours - ref))
        # strictly increasing transforms leave ranks, hence the value, untouched
        assert spearman(np.exp(x / (1.0 + np.max(np.abs(x)))), y) == ours
        assert spearman(x, y**3) == ours
        checked += 1
    _verdict(capsys, "rank correlation matches rankdata+corrcoef on 1000 pairs "
                     "and is exactly invariant to monotone transforms",
             worst <= 1e-12, f"worst |diff| {worst:.2e}")


# ----------------------------------------------------------------------------
# analytic gradients against finite differences


def test_gradients_match_finite_differences_across_model_family(capsys):
    results = {}

    layer = DenseLayer(3, 2, "sigmoid", stream(0, "acc-dense"))
    x = stream(1, "acc-dense-x").normal(size=(4, 3))
    target = stream(2, "acc-dense-y").normal(size=(4, 2))
    results["dense"] = grad_check(DenseProbe(layer, target, lam=0.01), x,
                                  epsilon=1e-5, rng=stream(3, "fd-dense"))

    for cell in ("lstm", "gru"):
        stack = RecurrentStack(cell, 2, (5, 4), stream(4, f"acc-{cell}"))
        seq = stream(5, f"acc-{cell}-x").normal(size=(3, 6, 2))
        tgt = stream(6, f"acc-{cell}-y").normal(size=(3, 6, 4))
        results[cell] = grad_check(SequenceProbe(stack, tgt, lam=0.01), seq,
                                   epsilon=1e-5, rng=stream(7, f"fd-{cell}"))

    sae = StackedAutoencoder(3, 6, SaeArch(widths=(8, 6), bottleneck=3, cell="lstm"),
                             rng=stream(8, "acc-sae"), lam=1e-3)
    windows = stream(9, "acc-sae-x").normal(size=(4, 6, 3))
    results["autoencoder"] = grad_check(sae, windows, epsilon=1e-5,
                                        rng=stream(10, "fd-sae"))

    effects = EffectModel(("policy", "cases"), widths=(8,),
                          rng=stream(11, "acc-eff"), lam=1e-3)
    X = stream(12, "acc-eff-x").uniform(0.0, 1.0, size=(16, 2))
    y = stream(13, "acc-eff-y").normal(size=16)
    results["effects"] = grad_check(effects, (X, y), epsilon=1e-5,
                                    rng=stream(14, "fd-eff"))

    em = EffectModel(("policy", "cases"), widths=(4,), rng=stream(15, "acc-em"))
    arch = ForecasterArch(cell="lstm", hidden=6, layers=2, horizon=4,
                          dropout=0.0, use_policy_skip=True)
    fore = ForecasterModel(arch, tau=5, channel_names=("target", "policy", "cases"),
                           policy_channel=1, effect_model=em,
                           rng=stream(16, "acc-fore"), lam=1e-4)
    W = stream(17, "acc-fore-w").normal(size=(3, 5, 3))
    P = stream(18, "acc-fore-p").uniform(0.0, 1.0, size=(3, 4))
    Y = stream(19, "acc-fore-y").normal(size=(3, 4))
    results["forecaster"] = grad_check(fore, (W, P, Y), epsilon=1e-5,
                                       rng=stream(20, "fd-fore"))

    worst_name = max(results, key=results.get)
    worst = results[worst_name]
    _verdict(capsys, "analytic gradients agree with finite differences for the "
                     "dense, LSTM, GRU, autoencoder, effects, and forecaster models",
             worst <= 1e-4, f"worst rel err {worst:.2e} ({worst_name})")


# ----------------------------------------------------------------------------
# Monte Carlo dropout invariants


def _tiny_forecaster(seed=0):
    rng = stream(seed, "acc-mc-data")
    bundles = []
    for i in range(2):
        t = np.arange(100, dtype=float)
        target = 10.0 + 2.0 * np.sin(2 * np.pi * t / 7) + 0.1 * rng.normal(size=100)
        policy = np.zeros(100)
        policy[40:60] = 1.0
        target[40:60] -= 1.5
        bundles.append(build_bundle(length=100, policy=policy, target=target,
                                    series_id=f"M{i}"))
    arch = ForecasterArch(cell="gru", hidden=8, layers=1, horizon=6,
                          dropout=0.1, use_policy_skip=False)
    cfg = TrainConfig(optimizer="adam", learning_rate=3e-3, epochs=2,
                      batch_size=64, seed=seed)
    model = train_forecaster(bundles, cfg, arch, None, tau=8)
    window = model.norm_stats["M0"].normalize_bundle(bundles[0]).channel_matrix()[-8:]
    return model, window, bundles[0].policy[-6:]


def test_dropout_sampling_variance_contract(capsys):
    model, window, pol = _tiny_forecaster()

    off = mc_forecast(model, window, pol, kappa=16, p=0.0, seed=3)
    single = mc_forecast(model, window, pol, kappa=1, p=0.3, seed=3)
    dist = mc_forecast(model, window, pol, kappa=20, p=0.2, seed=5)
    truth = np.linspace(-1.0, 1.0, 6)
    decomposition_gap = float(np.max(np.abs(
        variance_vs_truth(dist, truth) - (dist.sd**2 + (dist.mean - truth) ** 2)
    )))

    ok = (
        bool(np.all(off.sd == 0.0))
        and bool(np.all(single.sd == 0.0))
        and decomposition_gap <= 1e-12
        and inspect.signature(mc_forecast).parameters["kappa"].default == 100
        and inspect.signature(mc_forecast_batch).parameters["kappa"].default == 100
        and PipelineConfig().kappa == 100
    )
    _verdict(capsys, "MC dropout: p=0 and single-pass spreads are exactly zero, "
                     "variance-vs-truth = sd^2 + bias^2, default kappa is 100",
             ok, f"decomposition gap {decomposition_gap:.1e}")


# ----------------------------------------------------------------------------
# autoencoder compression on the bundled synthetic panel


def test_autoencoder_compresses_heldout_windows(capsys):
    cfgp = PipelineConfig(tau=16)
    bundles = dn.synth_generate(dn.SynthConfig(), seed=0)
    wins = []
    for b in bundles:
        split, stats, nb = prepare_bundle(b, cfgp.fractions)
        wins.append(make_windows(nb, tau=16, horizon=1, span=range(split.train.stop + 1)).past)
    W = np.concatenate(wins)

    ratios, positive_drift = [], []
    for seed in SEEDS:
        tc = TrainConfig(optimizer="adam", learning_rate=2e-3, epochs=40,
                         batch_size=128, seed=seed)
        model = train_autoencoder(W, tc, SaeArch(widths=(24, 12), bottleneck=4,
                                                 cell="lstm"), threshold_ratio=0.2)
        record = model.training
        # threshold is 0.2 * input variance, so val/variance = 0.2 * val/threshold
        ratios.append(0.2 * record.val_history[-1] / record.threshold)
        diffs = np.diff(record.train_history)
        positive_drift.append(float(np.mean(np.maximum(diffs, 0.0))) if diffs.size else 0.0)

    median_ratio = float(np.median(ratios))
    worst_drift = max(positive_drift)
    ok = median_ratio <= 0.2 and worst_drift <= 1e-6
    _verdict(capsys, "autoencoder: held-out reconstruction MSE is at most 0.2x "
                     "input variance (5-seed median) with non-increasing training loss",
             ok, f"median ratio {median_ratio:.3f}, positive drift {worst_drift:.1e}")


# ----------------------------------------------------------------------------
# the policy skip connection under policy shocks


def test_policy_skip_cuts_error_under_policy_shocks(capsys):
    # Repeated closure episodes, no covariates besides the policy itself:
    # cases and mobility co-move with policy on this generator, which lets a
    # plain recurrent stack absorb the effect; stripping them isolates the
    # skip path that this check is about.
    shock = dn.SynthConfig(
        series_count=6, length=450, season_amp=4.0, trend=0.0, noise_sd=1.0,
        shock_onset=80,
        policy_schedule=((0, 0.0), (100, 0.0), (104, 1.0), (150, 1.0), (154, 0.0),
                         (220, 0.0), (224, 1.0), (262, 1.0), (266, 0.0),
                         (412, 0.0), (416, 1.0), (440, 1.0), (444, 0.0)),
        suppression_exponent=1.0, suppression_depth=0.7, impact_spread=0.0,
    )
    cfg = PipelineConfig(
        tau=16, horizons=(40,), kappa=32,
        arch=ForecasterArch(cell="lstm", hidden=16, layers=2, horizon=40, dropout=0.1),
        forecaster_train=TrainConfig(optimizer="adam", learning_rate=2e-3,
                                     epochs=20, batch_size=128),
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=40, batch_size=256),
        effects_width=16, include_statics=False,
        dropout_candidates=(),
    )

    ratios = []
    for seed in SEEDS:
        bundles = [
            dataclasses.replace(b, covariates=b.covariates[:, :1],
                                covariate_names=("policy",), policy_index=0)
            for b in dn.synth_generate(shock, seed=seed)
        ]
        scores = {}
        for skip in (True, False):
            trained = train_demandnet(
                bundles, dataclasses.replace(
                    cfg, arch=dataclasses.replace(cfg.arch, use_policy_skip=skip)),
                seed=seed)
            scores[skip] = np.mean([
                demandnet_eval_bundle(trained.forecaster, b, cfg, (40,),
                                      kappa=32, seed=seed)[40]["mae"]
                for b in bundles
            ])
        ratios.append(scores[True] / scores[False])

    wins = sum(1 for r in ratios if r <= 0.8)
    _verdict(capsys, "policy skip connection cuts 40-step MAE to at most 0.8x "
                     "the plain recurrent stack on policy-shock data (4+ of 5 seeds)",
             wins >= 4, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


# ----------------------------------------------------------------------------
# wins over tuned classical baselines


def test_forecaster_beats_tuned_classical_baselines(capsys):
    cfg = PipelineConfig(
        tau=24, horizons=(40, 80), kappa=32,
        arch=ForecasterArch(cell="gru", hidden=24, layers=2, horizon=80, dropout=0.1),
        forecaster_train=TrainConfig(optimizer="adam", learning_rate=1e-3,
                                     epochs=12, batch_size=128),
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=40, batch_size=256),
        effects_width=16, dropout_candidates=(),
    )
    bundles = dn.synth_generate(dn.SynthConfig(), seed=0)
    report = run_split80(bundles, methods=("demandnet", "exp_smoothing", "ar"),
                         seeds=SEEDS, cfg=cfg)

    details = []
    ok = True
    for h in (40, 80):
        model_c = report.metric("demandnet", h)
        es = report.metric("exp_smoothing", h)
        ar = report.metric("ar", h)
        wins = sum(
            1 for s in SEEDS
            if model_c.per_seed_mae[s] < es.per_seed_mae[s]
            and model_c.per_seed_mae[s] < ar.per_seed_mae[s]
        )
        ok = ok and wins >= 4
        details.append(f"h={h}: {wins}/5 wins (net {model_c.mae:.2f} vs "
                       f"es {es.mae:.2f}, ar {ar.mae:.2f})")
    _verdict(capsys, "forecaster beats tuned exponential smoothing and AR at "
                     "horizons 40 and 80 (4+ of 5 seeds each)",
             ok, "; ".join(details))


# ----------------------------------------------------------------------------
# unseen series are harder than seen ones


def test_unseen_series_score_worse_than_seen_ones(capsys):
    # Heterogeneous policy response, holding out the two most policy-sensitive
    # series: the held pair is genuinely out of the training support, so the
    # cross-series transfer has to cost accuracy at every horizon.
    cfg = PipelineConfig(
        tau=24, horizons=(40, 60, 80), kappa=32,
        arch=ForecasterArch(cell="gru", hidden=24, layers=2, horizon=80, dropout=0.1),
        forecaster_train=TrainConfig(optimizer="adam", learning_rate=1e-3,
                                     epochs=15, batch_size=128),
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=40, batch_size=256),
        effects_width=16, dropout_candidates=(),
    )
    bundles = dn.synth_generate(dn.SynthConfig(impact_spread=0.6), seed=0)
    ordered = sorted(bundles, key=lambda b: b.static_profile["tourism_share"])
    held = (ordered[-2].id, ordered[-1].id)

    seen = run_split80(bundles, methods=("demandnet",), seeds=SEEDS, cfg=cfg)
    unseen = run_unseen(bundles, held, methods=("demandnet",), seeds=SEEDS, cfg=cfg)

    gap_seeds = sum(
        1 for s in SEEDS
        if all(unseen.metric("demandnet", h).per_seed_mae[s]
               > seen.metric("demandnet", h).per_seed_mae[s]
               for h in (40, 60, 80))
    )
    hashes_ok = all(
        before == after
        for rep in (seen, unseen)
        for before, after in rep.param_hashes.values()
    )
    _verdict(capsys, "unseen-series MAE exceeds seen-series MAE at every horizon "
                     "(4+ of 5 seeds) and evaluation never touches parameters",
             gap_seeds >= 4 and hashes_ok,
             f"{gap_seeds}/5 seeds, param hashes stable: {hashes_ok}")


# ----------------------------------------------------------------------------
# error metrics against hand calculations


def test_error_metrics_match_hand_calculations(capsys):
    checks = (
        abs(mae([3.0, 4.0], [0.0, 0.0]) - 3.5),
        abs(rmse([3.0, 4.0], [0.0, 0.0]) - 3.5355339059327378),
        abs(pred_sd([1.0, 2.0, 3.0, 4.0]) - 1.1180339887498949),
        abs(mae([2.0, -2.0, 2.0], [0.0, 0.0, 0.0])
            - rmse([2.0, -2.0, 2.0], [0.0, 0.0, 0.0])),
    )
    worst = max(checks)
    _verdict(capsys, "MAE, RMSE, and prediction SD match hand calculations; "
                     "MAE equals RMSE under uniform error magnitude",
             worst <= 1e-12, f"worst |diff| {worst:.1e}")


# ----------------------------------------------------------------------------
# bitwise reproducibility of artifacts and checkpoints


REPRO_RUN = {
    "cell": "gru",
    "tau": 8,
    "hidden": 8,
    "layers": 1,
    "horizons": [6],
    "kappa": 4,
    "include_statics": False,
    "dropout_candidates": [],
    "effects_width": 8,
    "effects_train": {"optimizer": "sgd", "learning_rate": 0.05,
                      "epochs": 5, "batch_size": 128},
    "forecaster_train": {"optimizer": "adam", "learning_rate": 3e-3,
                         "epochs": 2, "batch_size": 64},
    "eval_methods": ["demandnet"],
    "eval_seeds": [0],
    "synth": {"series_count": 4, "length": 90},
}


def test_identical_config_and_seed_reproduce_artifacts_bitwise(capsys, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(REPRO_RUN))
    outs = [str(tmp_path / name) for name in ("a", "b")]
    for out in outs:
        for command in ("synth", "train", "forecast", "evaluate"):
            code = cli_main([command, "--config", str(cfg_path), "--out", out,
                             "--seed", "7"])
            assert code == 0, command

    compared = ("data.csv", "sidecar.csv", "forecast.csv", "evaluation.csv",
                "evaluation_denormalized.csv", "evaluation_table.txt")
    identical = all(
        open(os.path.join(outs[0], name), "rb").read()
        == open(os.path.join(outs[1], name), "rb").read()
        for name in compared
    )

    model = load_forecaster(os.path.join(outs[0], "forecaster.npz"))
    resaved = tmp_path / "resaved.npz"
    save_forecaster(model, resaved)
    reloaded = load_forecaster(resaved)
    bundles = load_dataset(os.path.join(outs[0], "data.csv"),
                           sidecar=os.path.join(outs[0], "sidecar.csv"))
    first = forecast_unseen(model, bundles[1], kappa=4, p=0.2, seed=3)
    second = forecast_unseen(reloaded, bundles[1], kappa=4, p=0.2, seed=3)
    round_trip = bool(np.array_equal(first.samples, second.samples))

    _verdict(capsys, "identical config and seed reproduce every artifact "
                     "bitwise; checkpoints forecast bit-identically after a "
                     "save/load round trip",
             identical and round_trip,
             f"artifacts identical: {identical}, round trip: {round_trip}")


# ----------------------------------------------------------------------------
# monotone policy effect curve


def test_policy_effect_curve_is_monotone_non_increasing(capsys):
    cfg = PipelineConfig(
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=60, batch_size=256),
        effects_width=16,
    )
    bundles = dn.synth_generate(dn.SynthConfig(), seed=0)
    fractions = []
    for seed in SEEDS:
        model, _ = train_effects_for(bundles, cfg, seed=seed)
        curve = marginal_effect(model, "policy", np.linspace(0.0, 1.0, 101))
        fractions.append(curve.violation_fraction())
    median = float(np.median(fractions))
    _verdict(capsys, "marginal policy curve is non-increasing on a 101-point "
                     "grid (at most 1% violations, 5-seed median)",
             median <= 0.01,
             "violation fractions " + ", ".join(f"{f:.3f}" for f in fractions))
