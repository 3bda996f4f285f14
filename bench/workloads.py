"""The three benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs (the caller times
it as set-up) and a ``run_round(state)`` that does the job once and times it
itself, leaving the output checks out of ``job_s``.  Both also return a
fingerprint: the outputs that must repeat bitwise for the same code and seed.
Operations are counted with ``ledger.ops`` and every output check goes
through ``ledger.check``, so a failed check counts as a failed operation.
Functions are called through their modules (``pipeline.train_demandnet``)
so that the tracer's wrappers are what runs.

All inputs come from ``synth_generate(SynthConfig(), seed)``: 8 series x 800
days, split 80/10/10.  Set-up writes the panel as CSV plus sidecar and reads
it back, the way ``demandnet synth`` hands it to every other command.  The
same seed drives data generation, training and Monte-Carlo sampling.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import replace
from time import perf_counter

import numpy as np

import demandnet
from demandnet import data, evaluation, forecaster, pipeline
from demandnet.forecaster import ForecasterArch
from demandnet.nn.optim import TrainConfig
from demandnet.pipeline import PipelineConfig

# the acceptance-test operating point, with dropout-rate selection left on
DESK = PipelineConfig(
    tau=24, horizons=(40, 80), kappa=100,
    arch=ForecasterArch(cell="gru", hidden=24, layers=2, horizon=80, dropout=0.1),
    forecaster_train=TrainConfig(optimizer="adam", learning_rate=1e-3,
                                 epochs=12, batch_size=128),
    effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                              epochs=40, batch_size=256),
    effects_width=16,
)

# the published shape: 2x128 LSTM, tau 32, horizon 80, batch 128, Adam;
# the effects model keeps its published defaults (SGD, 100 epochs, width 64)
PUBLISHED = PipelineConfig(
    tau=32, horizons=(80,),
    arch=ForecasterArch(cell="lstm", hidden=128, layers=2, horizon=80, dropout=0.1),
)

HORIZONS = (40, 80)
FORECAST_CALLS = 200
CLASSICAL = ("exp_smoothing", "ar")


def panel(seed: int, scratch_dir: str, ledger):
    """The seeded synthetic panel after a CSV round trip, checked to be bitwise intact."""
    made = demandnet.synth_generate(demandnet.SynthConfig(), seed=seed)
    os.makedirs(scratch_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        path, sidecar = os.path.join(tmp, "panel.csv"), os.path.join(tmp, "statics.csv")
        data.write_dataset_csv(made, path)
        data.write_sidecar_csv(made, sidecar)
        loaded = data.load_dataset(path, sidecar=sidecar)
    ledger.ops(1)
    ledger.check(
        [b.id for b in loaded] == [b.id for b in made]
        and all(np.array_equal(a.target, b.target) and np.array_equal(a.covariates, b.covariates)
                and a.static_profile == b.static_profile for a, b in zip(loaded, made)),
        "the panel survives the CSV round trip bitwise",
    )
    return loaded


def params_hash(params) -> str:
    digest = hashlib.sha256()
    for p in params:
        digest.update(p.name.encode())
        digest.update(np.ascontiguousarray(p.value).tobytes())
    return digest.hexdigest()


def all_finite(*arrays) -> bool:
    return all(bool(np.isfinite(np.asarray(a, dtype=float)).all()) for a in arrays)


def naive_val_loss(bundles, cfg: PipelineConfig) -> float:
    """MSE of forecasting zero (the training mean) on the pooled validation windows."""
    _, _, Y = pipeline.pooled_validation_windows(bundles, cfg, cfg.model_horizon)
    return float(np.mean(Y**2))


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, ledger, scratch_dir: str):
        self.ledger = ledger
        self.scratch_dir = scratch_dir


class TrainDesk(Workload):
    """One ``train_demandnet`` call at the acceptance-test operating point."""

    name = "train-desk"
    min_rounds = 2

    def __init__(self, ledger, scratch_dir: str):
        super().__init__(ledger, scratch_dir)
        self._naive = None  # one seed per process; computed once, outside timing

    def setup(self, seed: int):
        return {"seed": seed, "bundles": panel(seed, self.scratch_dir, self.ledger)}, {}

    def run_round(self, state):
        seed = state["seed"]
        t0 = perf_counter()
        trained = pipeline.train_demandnet(state["bundles"], DESK, seed=seed)
        train_s = perf_counter() - t0
        self.ledger.ops(1)
        return {"job_s": train_s}, self._check(state, trained)

    def _check(self, state, trained):
        model, ledger = trained.forecaster, self.ledger
        hist = model.training
        best = hist.val_history[hist.best_epoch]
        if self._naive is None:
            self._naive = naive_val_loss(state["bundles"], DESK)
        naive = self._naive
        ledger.check(all_finite(hist.train_history, hist.val_history),
                     "train-desk: training losses are finite")
        ledger.check(best < naive,
                     f"train-desk: best val loss {best!r} beats the zero forecast {naive!r}")
        ledger.check(trained.p_used in DESK.dropout_candidates,
                     f"train-desk: p_used {trained.p_used} is a candidate")
        return {"best_val_loss": best, "param_hash": model.param_hash(),
                "p_used": trained.p_used}


class TrainPublished(Workload):
    """One epoch of ``train_forecaster`` at the published 2x128 LSTM shape."""

    name = "train-published"
    min_rounds = 2

    def setup(self, seed: int):
        bundles = panel(seed, self.scratch_dir, self.ledger)
        effects, _ = pipeline.train_effects_for(bundles, PUBLISHED, seed=seed)
        self.ledger.ops(1)
        self.ledger.check(all_finite(effects.train_history),
                          "train-published: effects losses are finite")
        state = {"seed": seed, "bundles": bundles, "effects": effects}
        return state, {"effects_hash": params_hash(effects.parameters())}

    def run_round(self, state):
        cfg = replace(PUBLISHED.forecaster_train, epochs=1, seed=state["seed"])
        t0 = perf_counter()
        model = forecaster.train_forecaster(
            state["bundles"], cfg, PUBLISHED.arch, state["effects"],
            tau=PUBLISHED.tau, fractions=PUBLISHED.fractions,
        )
        train_s = perf_counter() - t0
        self.ledger.ops(1)
        hist = model.training
        self.ledger.check(all_finite(hist.train_history, hist.val_history),
                          "train-published: epoch losses are finite")
        best = hist.val_history[hist.best_epoch]
        return {"job_s": train_s}, {"best_val_loss": best, "param_hash": model.param_hash()}


class Evaluate(Workload):
    """MC inference in two batch regimes plus the classical baselines.

    Set-up trains a train-desk model and round-trips it through a checkpoint.
    A round runs (a) ``demandnet_eval_bundle`` on every test origin of all
    series, (b) single-window ``forecast_unseen`` calls timed one by one,
    and (c) ``classical_eval_bundle`` for ES and AR.
    """

    name = "evaluate"

    def _probe(self, model, bundles, seed):
        """MC samples at the test start of every series, for the round-trip check."""
        start = demandnet.split_time(bundles[0].length, DESK.fractions).test.start
        W = np.stack([
            model.norm_stats[b.id].normalize_bundle(b).channel_matrix()[start - model.tau : start]
            for b in bundles
        ])
        P = np.stack([b.policy[start : start + model.arch.horizon] for b in bundles])
        return forecaster.mc_forecast_batch(model, W, P, kappa=DESK.kappa, seed=seed)

    def setup(self, seed: int):
        ledger = self.ledger
        bundles = panel(seed, self.scratch_dir, ledger)
        trained = pipeline.train_demandnet(bundles, DESK, seed=seed)
        before = self._probe(trained.forecaster, bundles, seed)
        with tempfile.TemporaryDirectory(dir=self.scratch_dir) as tmp:
            path = forecaster.save_forecaster(trained.forecaster, os.path.join(tmp, "model.npz"))
            model = forecaster.load_forecaster(path)
        after = self._probe(model, bundles, seed)
        ledger.ops(2)
        ledger.check(all_finite(before), "evaluate: set-up forecasts are finite")
        ledger.check(np.array_equal(before, after),
                     "evaluate: forecasts are bitwise equal after the checkpoint round trip")
        ledger.check(model.param_hash() == trained.forecaster.param_hash(),
                     "evaluate: parameter hash survives the checkpoint round trip")
        ledger.check(model.mc_p in DESK.dropout_candidates,
                     f"evaluate: p_used {model.mc_p} is a candidate")
        hist = trained.forecaster.training
        fingerprint = {"best_val_loss": hist.val_history[hist.best_epoch],
                       "param_hash": model.param_hash(), "p_used": model.mc_p}
        return {"seed": seed, "bundles": bundles, "model": model}, fingerprint

    def run_round(self, state):
        ledger, model, bundles, seed = self.ledger, state["model"], state["bundles"], state["seed"]
        hash_before = model.param_hash()

        t0 = perf_counter()
        rows = [
            evaluation.demandnet_eval_bundle(model, b, DESK, HORIZONS, kappa=DESK.kappa, seed=seed)
            for b in bundles
        ]
        panel_s = perf_counter() - t0
        ledger.ops(len(rows))
        mae = {h: float(np.mean([r[h]["mae"] for r in rows])) for h in HORIZONS}
        ledger.check(all_finite([[r[h]["mae"], r[h]["sd"]] for r in rows for h in HORIZONS]),
                     "evaluate: panel forecast metrics are finite")

        latencies, checksum = [], 0.0
        for i in range(FORECAST_CALLS):
            bundle = bundles[i % len(bundles)]
            # origins step through days 640-712, from the validation start, so
            # every call has a different window and a known policy path
            origin = 640 + 3 * (i // len(bundles))
            t1 = perf_counter()
            dist = forecaster.forecast_unseen(model, bundle, origin=origin,
                                              kappa=DESK.kappa, seed=seed + i,
                                              fractions=DESK.fractions)
            latencies.append(perf_counter() - t1)
            ledger.ops(1)
            ledger.check(all_finite(dist.mean, dist.sd),
                         "evaluate: single-window forecasts are finite")
            checksum += float(dist.mean.sum())

        t2 = perf_counter()
        baseline_mae = {}
        for method in CLASSICAL:
            brows = [evaluation.classical_eval_bundle(b, DESK, HORIZONS, method) for b in bundles]
            for h in HORIZONS:
                baseline_mae[f"{method}_h{h}"] = float(np.mean([r[h]["mae"] for r in brows]))
        baselines_s = perf_counter() - t2
        ledger.ops(len(CLASSICAL) * len(bundles))
        ledger.check(all_finite(list(baseline_mae.values())),
                     "evaluate: baseline metrics are finite")
        ledger.check(model.param_hash() == hash_before,
                     "evaluate: parameters are unchanged by evaluation")

        timings = {"job_s": panel_s + sum(latencies) + baselines_s,
                   "panel_forecast_s": panel_s, "forecast_s": latencies,
                   "baselines_s": baselines_s}
        fingerprint = {"mae_h40": mae[40], "mae_h80": mae[80], "param_hash": hash_before,
                       "forecast_checksum": checksum, **baseline_mae}
        return timings, fingerprint


WORKLOADS = {w.name: w for w in (TrainDesk, TrainPublished, Evaluate)}
