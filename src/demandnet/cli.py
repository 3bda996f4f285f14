"""Command-line entry points.

Each command reads its inputs and writes its artifacts under the output
directory; ``main`` then drops an effective-config JSON next to them, so any
artifact can be replayed exactly.  Every file goes through
:func:`~demandnet.nn.checkpoint.atomic_write`, so a command that fails leaves
the previous artifacts as they were and writes no config snapshot.  A command
that needs an upstream artifact fails with an error naming the command that
produces it, and a bad input of any kind (config, dataset, manifest,
checkpoint) or an output path that cannot be written is one ``error:`` line
with exit code 2.

    demandnet synth           generate a synthetic dataset + manifest
    demandnet ingest          validate an external CSV + manifest
    demandnet select-features static screening report
    demandnet train-effects   effects model checkpoint
    demandnet effects-curve   marginal curve CSV + polynomial summary
    demandnet train           full pipeline checkpoint
    demandnet forecast        forecast CSV for one series
    demandnet evaluate        protocol metrics CSV + text table
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_run_config
from .data import (
    DataError,
    SeriesBundle,
    holdout_series,
    load_dataset,
    synth_generate,
    write_dataset_csv,
    write_sidecar_csv,
)
from .effects import fit_polynomial, marginal_effect
from .evaluation import UnscorableHorizonError, run_split80, run_unseen
from .features import filter_static
from .forecaster import (
    forecast_unseen,
    load_effects,
    load_forecaster,
    save_effects,
    save_forecaster,
    variance_vs_truth,
)
from .nn.checkpoint import CheckpointError, OutputError, atomic_write
from .nn.optim import DivergenceError
from .pipeline import check_lengths, train_demandnet, train_effects_for

log = logging.getLogger("demandnet")

_MANIFEST_PRODUCERS = "`demandnet synth` or `demandnet ingest`"


class PrerequisiteError(RuntimeError):
    """An upstream artifact is missing; the message names the fix."""


# ----------------------------------------------------------------------------
# Artifacts


def _write(cfg: RunConfig, name: str, content: str | dict):
    """Atomically write one artifact under the output directory; a dict is
    written as sorted, indented JSON."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    with atomic_write(os.path.join(cfg.out_dir, name)) as fh:
        fh.write(content)


def _write_effective_config(cfg: RunConfig, command: str):
    _write(cfg, f"config.{command}.json", {"command": command, "config": cfg.to_dict()})


def _write_manifest(cfg: RunConfig, command: str, bundles, data_csv: str,
                    sidecar_csv: str | None):
    # absolute, so later commands find the files from any working directory
    _write(cfg, "manifest.json", {
        "kind": "demandnet-manifest",
        "command": command,
        "data_csv": os.path.abspath(data_csv),
        "sidecar_csv": None if sidecar_csv is None else os.path.abspath(sidecar_csv),
        "series_ids": [b.id for b in bundles],
        "seed": cfg.seed,
    })


def _require(path: str, what: str, producer: str) -> str:
    """``path`` if it exists; otherwise name the command that writes it."""
    if not os.path.exists(path):
        raise PrerequisiteError(f"no {what} at {path}; run {producer} first")
    return path


def _load_manifest_bundles(cfg: RunConfig) -> list[SeriesBundle]:
    path = _require(os.path.join(cfg.out_dir, "manifest.json"), "dataset manifest",
                    _MANIFEST_PRODUCERS)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # unreadable, not text, or not JSON
        manifest = None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("data_csv"), str)
            and isinstance(manifest.get("sidecar_csv"), (str, type(None)))):
        raise DataError(f"{path}: not a readable dataset manifest; rerun "
                        f"{_MANIFEST_PRODUCERS}")
    return load_dataset(manifest["data_csv"], sidecar=manifest.get("sidecar_csv"))


# ----------------------------------------------------------------------------
# Commands


def cmd_synth(cfg: RunConfig):
    """Generate a seeded synthetic panel and its dataset manifest."""
    bundles = synth_generate(cfg.synth, cfg.seed)
    data_path = os.path.join(cfg.out_dir, "data.csv")
    sidecar_path = os.path.join(cfg.out_dir, "sidecar.csv")
    write_dataset_csv(bundles, data_path)
    write_sidecar_csv(bundles, sidecar_path)
    _write_manifest(cfg, "synth", bundles, data_path, sidecar_path)
    log.info("wrote %s (%d series)", os.path.abspath(data_path), len(bundles))


def cmd_ingest(cfg: RunConfig):
    """Validate an external panel CSV (and sidecar) and write its manifest."""
    if cfg.data_csv is None:
        raise ConfigError("ingest needs data_csv (e.g. --set data_csv=path/to.csv)")
    bundles = load_dataset(cfg.data_csv, sidecar=cfg.sidecar_csv)
    _write_manifest(cfg, "ingest", bundles, cfg.data_csv, cfg.sidecar_csv)
    log.info("validated %s (%d series)", cfg.data_csv, len(bundles))


def cmd_select_features(cfg: RunConfig):
    """Screen static features by rank correlation with shock impact."""
    bundles = _load_manifest_bundles(cfg)
    try:
        report = filter_static(bundles, band=cfg.band, fractions=cfg.fractions)
    except ValueError as exc:  # too few series, or no sidecar statics
        raise DataError(f"cannot screen static features: {exc}") from exc
    _write(cfg, "static_screening.csv", report.to_csv_text())
    log.info("retained %s", list(report.retained_names()))


def cmd_train_effects(cfg: RunConfig):
    """Train the effects model and save its checkpoint."""
    bundles = _load_manifest_bundles(cfg)
    check_lengths(bundles, cfg.pipeline())
    model, report = train_effects_for(bundles, cfg.pipeline(), seed=cfg.seed)
    save_effects(model, os.path.join(cfg.out_dir, "effects.npz"), cfg.seed)
    _write(cfg, "effects_training.json", {
        "final_loss": model.train_history[-1] if model.train_history else None,
        "epochs": len(model.train_history),
        "history": list(model.train_history),
        "retained_statics": list(report.retained_names()) if report else [],
    })


def cmd_effects_curve(cfg: RunConfig):
    """Export a marginal effect curve and its polynomial fit."""
    model = load_effects(_require(os.path.join(cfg.out_dir, "effects.npz"),
                                  "effects checkpoint", "`demandnet train-effects`"))
    if cfg.curve_feature == model.policy_feature:
        grid = np.linspace(0.0, 1.0, cfg.curve_points)
    else:
        try:
            col = model.feature_index(cfg.curve_feature)
        except ValueError as exc:
            raise ConfigError(f"curve_feature: {exc}") from exc
        center = model.feature_means[col]
        halfwidth = max(abs(center), 1.0) * 2.0
        grid = np.linspace(center - halfwidth, center + halfwidth, cfg.curve_points)
    curve = marginal_effect(model, cfg.curve_feature, grid)
    fit = fit_polynomial(curve, degree=cfg.curve_degree)
    _write(cfg, f"curve_{cfg.curve_feature}.csv", curve.to_csv_text())
    _write(cfg, f"curve_{cfg.curve_feature}_poly.json", {
        "feature": cfg.curve_feature,
        "degree": fit.degree,
        "coefficients_ascending": [float(c) for c in fit.coefficients],
        "max_residual": fit.max_residual,
    })


def cmd_train(cfg: RunConfig):
    """Train the full pipeline and save the forecaster checkpoint."""
    bundles = _load_manifest_bundles(cfg)
    check_lengths(bundles, cfg.pipeline(), trained=bundles)
    trained = train_demandnet(bundles, cfg.pipeline(), seed=cfg.seed)
    path = save_forecaster(trained.forecaster, os.path.join(cfg.out_dir, "forecaster.npz"))
    save_effects(trained.effects, os.path.join(cfg.out_dir, "effects.npz"), cfg.seed)
    _write(cfg, "forecaster_training.json", {
        "p_used": trained.p_used,
        "best_epoch": trained.forecaster.training.best_epoch,
        "train_history": list(trained.forecaster.training.train_history),
        "val_history": list(trained.forecaster.training.val_history),
        "param_hash": trained.forecaster.param_hash(),
        "retained_statics": list(trained.screening.retained_names()) if trained.screening else [],
    })
    log.info("saved %s (p=%.3f)", path, trained.p_used)


def cmd_forecast(cfg: RunConfig):
    """Forecast one series with Monte-Carlo dropout uncertainty."""
    model = load_forecaster(_require(os.path.join(cfg.out_dir, "forecaster.npz"),
                                     "forecaster checkpoint", "`demandnet train`"))
    bundles = _load_manifest_bundles(cfg)
    sid = cfg.forecast_series or bundles[0].id
    matches = [b for b in bundles if b.id == sid]
    if not matches:
        raise ConfigError(f"series {sid!r} not in the dataset manifest")
    bundle = matches[0]
    try:
        dist = forecast_unseen(model, bundle, policy_mode=cfg.forecast_policy_mode,
                               origin=cfg.forecast_origin, kappa=cfg.kappa,
                               seed=cfg.seed, fractions=cfg.fractions)
    except ValueError as exc:  # an origin that does not fit the series
        raise ConfigError(f"forecast_origin={cfg.forecast_origin}: {exc}") from exc
    split, stats = model.norm_for(bundle, cfg.fractions)
    origin = cfg.forecast_origin if cfg.forecast_origin is not None else split.test.start
    var_vs = None
    if origin + model.arch.horizon <= bundle.length:
        truth = stats.normalize_target(bundle.target[origin : origin + model.arch.horizon])
        var_vs = variance_vs_truth(dist, truth)
    # means shift by the per-series location, spreads only scale
    scale = float(stats.scale[0])
    lines = ["series_id,step,mean,sd,var_vs_truth,p_used,kappa"]
    for step in range(dist.horizon):
        mean = float(stats.denormalize_target(dist.mean[step : step + 1])[0])
        sd = float(dist.sd[step]) * scale
        var_txt = "" if var_vs is None else repr(float(var_vs[step]) * scale * scale)
        lines.append(
            f"{bundle.id},{step + 1},{repr(mean)},{repr(sd)},{var_txt},"
            f"{repr(float(dist.p))},{dist.kappa}"
        )
    _write(cfg, "forecast.csv", "\n".join(lines) + "\n")


def cmd_evaluate(cfg: RunConfig):
    """Retrain per seed from the current config and score the protocol."""
    bundles = _load_manifest_bundles(cfg)
    pipeline_cfg = cfg.pipeline()
    trained = bundles
    if cfg.eval_protocol == "unseen":
        try:
            trained, _ = holdout_series(bundles, cfg.held_ids)
        except ValueError as exc:  # ids the manifest lacks, none, or every series
            raise ConfigError(f"held_ids={list(cfg.held_ids)}: {exc}") from exc
    check_lengths(bundles, pipeline_cfg,
                  trained=trained if "demandnet" in cfg.eval_methods else ())
    try:
        if cfg.eval_protocol == "split80":
            report = run_split80(bundles, cfg.eval_methods, cfg.eval_seeds, pipeline_cfg)
        else:
            report = run_unseen(bundles, cfg.held_ids, cfg.eval_methods, cfg.eval_seeds,
                                pipeline_cfg)
    except UnscorableHorizonError as exc:
        raise ConfigError(f"horizons={list(cfg.horizons)}: {exc}") from exc
    _write(cfg, "evaluation.csv", report.to_csv_text())
    _write(cfg, "evaluation_denormalized.csv", report.to_csv_text(denormalized=True))
    _write(cfg, "evaluation_table.txt", report.format_table())
    print(report.format_table(), end="")


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "select-features": cmd_select_features,
    "train-effects": cmd_train_effects,
    "effects-curve": cmd_effects_curve,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandnet",
        description="Policy-aware multi-horizon demand forecasting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip() or None)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config field (dotted paths, JSON values)",
        )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(
            config_path=args.config, overrides=args.set,
            seed=args.seed, out_dir=args.out,
        )
        COMMANDS[args.command](cfg)
        _write_effective_config(cfg, args.command)
        return 0
    except (ConfigError, DataError, CheckpointError, OutputError, PrerequisiteError,
            DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
