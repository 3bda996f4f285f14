"""Command-line entry points.

Each command reads its inputs, writes its artifacts atomically under the
output directory, and drops an effective-config JSON next to them so any
artifact can be replayed exactly.  Commands that need upstream artifacts
fail with an error naming the command that produces them.

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
import tempfile

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_run_config
from .data import (
    DataError,
    SeriesBundle,
    load_dataset,
    synth_generate,
    write_dataset_csv,
    write_sidecar_csv,
)
from .effects import fit_polynomial, marginal_effect
from .evaluation import run_split80, run_unseen
from .features import filter_static
from .forecaster import (
    forecast_unseen,
    load_effects,
    load_forecaster,
    save_effects,
    save_forecaster,
    variance_vs_truth,
)
from .nn.checkpoint import CheckpointError
from .nn.optim import DivergenceError
from .pipeline import train_demandnet, train_effects_for

log = logging.getLogger("demandnet")


class PrerequisiteError(RuntimeError):
    """An upstream artifact is missing; the message names the fix."""


# ----------------------------------------------------------------------------
# Atomic artifact helpers


def _atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict):
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_effective_config(cfg: RunConfig, command: str) -> str:
    path = os.path.join(cfg.out_dir, f"config.{command}.json")
    _write_json(path, {"command": command, "config": cfg.to_dict()})
    return path


def _manifest_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, "manifest.json")


def _load_manifest_bundles(cfg: RunConfig) -> list[SeriesBundle]:
    path = _manifest_path(cfg)
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"no dataset manifest at {path}; run `demandnet synth` or "
            f"`demandnet ingest` first"
        )
    with open(path) as fh:
        manifest = json.load(fh)
    return load_dataset(manifest["data_csv"], sidecar=manifest.get("sidecar_csv"))


def _forecaster_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, "forecaster.npz")


def _effects_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, "effects.npz")


# ----------------------------------------------------------------------------
# Commands


def cmd_synth(cfg: RunConfig) -> int:
    """Generate a seeded synthetic panel and its dataset manifest."""
    bundles = synth_generate(cfg.synth, cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    # absolute, so later commands find the files from any working directory
    data_path = os.path.abspath(os.path.join(cfg.out_dir, "data.csv"))
    sidecar_path = os.path.abspath(os.path.join(cfg.out_dir, "sidecar.csv"))
    tmpdir = tempfile.mkdtemp(dir=cfg.out_dir)
    try:
        write_dataset_csv(bundles, os.path.join(tmpdir, "d.csv"))
        write_sidecar_csv(bundles, os.path.join(tmpdir, "s.csv"))
        os.replace(os.path.join(tmpdir, "d.csv"), data_path)
        os.replace(os.path.join(tmpdir, "s.csv"), sidecar_path)
    finally:
        for leftover in os.listdir(tmpdir):
            os.unlink(os.path.join(tmpdir, leftover))
        os.rmdir(tmpdir)
    _write_json(_manifest_path(cfg), {
        "kind": "demandnet-manifest",
        "command": "synth",
        "data_csv": data_path,
        "sidecar_csv": sidecar_path,
        "series_ids": [b.id for b in bundles],
        "seed": cfg.seed,
    })
    _write_effective_config(cfg, "synth")
    log.info("wrote %s (%d series)", data_path, len(bundles))
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    """Validate an external panel CSV (and sidecar) and write its manifest."""
    if cfg.data_csv is None:
        raise ConfigError("ingest needs data_csv (e.g. --set data_csv=path/to.csv)")
    bundles = load_dataset(cfg.data_csv, sidecar=cfg.sidecar_csv)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(_manifest_path(cfg), {
        "kind": "demandnet-manifest",
        "command": "ingest",
        "data_csv": os.path.abspath(cfg.data_csv),
        "sidecar_csv": None if cfg.sidecar_csv is None else os.path.abspath(cfg.sidecar_csv),
        "series_ids": [b.id for b in bundles],
        "seed": cfg.seed,
    })
    _write_effective_config(cfg, "ingest")
    log.info("validated %s (%d series)", cfg.data_csv, len(bundles))
    return 0


def cmd_select_features(cfg: RunConfig) -> int:
    """Screen static features by rank correlation with shock impact."""
    bundles = _load_manifest_bundles(cfg)
    try:
        report = filter_static(bundles, band=cfg.band)
    except ValueError as exc:  # too few series, or no sidecar statics
        raise DataError(f"cannot screen static features: {exc}") from exc
    out = os.path.join(cfg.out_dir, "static_screening.csv")
    _atomic_write_text(out, report.to_csv_text())
    _write_effective_config(cfg, "select-features")
    log.info("retained %s", list(report.retained_names()))
    return 0


def cmd_train_effects(cfg: RunConfig) -> int:
    """Train the effects model and save its checkpoint."""
    bundles = _load_manifest_bundles(cfg)
    model, report = train_effects_for(bundles, cfg.pipeline(), seed=cfg.seed)
    save_effects(model, _effects_path(cfg), cfg.seed)
    _write_json(os.path.join(cfg.out_dir, "effects_training.json"), {
        "final_loss": model.train_history[-1] if model.train_history else None,
        "epochs": len(model.train_history),
        "history": list(model.train_history),
        "retained_statics": list(report.retained_names()) if report else [],
    })
    _write_effective_config(cfg, "train-effects")
    return 0


def cmd_effects_curve(cfg: RunConfig) -> int:
    """Export a marginal effect curve and its polynomial fit."""
    path = _effects_path(cfg)
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"no effects checkpoint at {path}; run `demandnet train-effects` first"
        )
    model = load_effects(path)
    if cfg.curve_feature == model.policy_feature:
        grid = np.linspace(0.0, 1.0, cfg.curve_points)
    else:
        col = model.feature_index(cfg.curve_feature)
        center = model.feature_means[col]
        halfwidth = max(abs(center), 1.0) * 2.0
        grid = np.linspace(center - halfwidth, center + halfwidth, cfg.curve_points)
    curve = marginal_effect(model, cfg.curve_feature, grid)
    fit = fit_polynomial(curve, degree=cfg.curve_degree)
    _atomic_write_text(
        os.path.join(cfg.out_dir, f"curve_{cfg.curve_feature}.csv"), curve.to_csv_text()
    )
    _write_json(os.path.join(cfg.out_dir, f"curve_{cfg.curve_feature}_poly.json"), {
        "feature": cfg.curve_feature,
        "degree": fit.degree,
        "coefficients_ascending": [float(c) for c in fit.coefficients],
        "max_residual": fit.max_residual,
    })
    _write_effective_config(cfg, "effects-curve")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Train the full pipeline and save the forecaster checkpoint."""
    bundles = _load_manifest_bundles(cfg)
    trained = train_demandnet(bundles, cfg.pipeline(), seed=cfg.seed)
    save_forecaster(trained.forecaster, _forecaster_path(cfg))
    save_effects(trained.effects, _effects_path(cfg), cfg.seed)
    summary = {
        "p_used": trained.p_used,
        "best_epoch": trained.forecaster.training.best_epoch,
        "train_history": list(trained.forecaster.training.train_history),
        "val_history": list(trained.forecaster.training.val_history),
        "param_hash": trained.forecaster.param_hash(),
        "retained_statics": list(trained.screening.retained_names()) if trained.screening else [],
    }
    _write_json(os.path.join(cfg.out_dir, "forecaster_training.json"), summary)
    _write_effective_config(cfg, "train")
    log.info("saved %s (p=%.3f)", _forecaster_path(cfg), trained.p_used)
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    """Forecast one series with Monte-Carlo dropout uncertainty."""
    path = _forecaster_path(cfg)
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"no forecaster checkpoint at {path}; run `demandnet train` first"
        )
    model = load_forecaster(path)
    bundles = _load_manifest_bundles(cfg)
    sid = cfg.forecast_series or bundles[0].id
    matches = [b for b in bundles if b.id == sid]
    if not matches:
        raise ConfigError(f"series {sid!r} not in the dataset manifest")
    bundle = matches[0]
    if cfg.forecast_policy_mode not in ("known", "dummy"):  # no CLI way to pass a schedule
        raise ConfigError(f"forecast_policy_mode must be 'known' or 'dummy', "
                          f"got {cfg.forecast_policy_mode!r}")
    try:
        dist = forecast_unseen(model, bundle, policy_mode=cfg.forecast_policy_mode,
                               origin=cfg.forecast_origin, kappa=cfg.kappa,
                               seed=cfg.seed, fractions=cfg.fractions)
    except ValueError as exc:  # an origin that does not fit the series
        raise ConfigError(f"forecast_origin={cfg.forecast_origin}: {exc}") from exc
    split, stats, nb = model.prepare(bundle, cfg.fractions)
    origin = cfg.forecast_origin if cfg.forecast_origin is not None else split.test.start
    var_vs = None
    if origin + model.arch.horizon <= bundle.length:
        truth = nb.target[origin : origin + model.arch.horizon]
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
    _atomic_write_text(os.path.join(cfg.out_dir, "forecast.csv"), "\n".join(lines) + "\n")
    _write_effective_config(cfg, "forecast")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Retrain per seed from the current config and score the protocol."""
    bundles = _load_manifest_bundles(cfg)
    pipeline_cfg = cfg.pipeline()
    if cfg.eval_protocol == "split80":
        report = run_split80(bundles, cfg.eval_methods, cfg.eval_seeds, pipeline_cfg)
    elif cfg.eval_protocol == "unseen":
        if not cfg.held_ids:
            raise ConfigError("eval_protocol='unseen' needs held_ids")
        report = run_unseen(bundles, cfg.held_ids, cfg.eval_methods, cfg.eval_seeds,
                            pipeline_cfg)
    else:
        raise ConfigError(f"unknown eval_protocol {cfg.eval_protocol!r}")
    _atomic_write_text(os.path.join(cfg.out_dir, "evaluation.csv"), report.to_csv_text())
    _atomic_write_text(
        os.path.join(cfg.out_dir, "evaluation_denormalized.csv"),
        report.to_csv_text(denormalized=True),
    )
    _atomic_write_text(os.path.join(cfg.out_dir, "evaluation_table.txt"), report.format_table())
    _write_effective_config(cfg, "evaluate")
    print(report.format_table(), end="")
    return 0


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
        return COMMANDS[args.command](cfg)
    except (ConfigError, DataError, CheckpointError, PrerequisiteError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
