"""Metrics, classical baselines, and the two experiment protocols.

Metric aggregation is fixed throughout: compute the metric per forecast
origin, then take arithmetic means across origins, then series, then seeds.
Baselines are tuned per (series, horizon) on the validation range with
labels clipped at the validation boundary so nothing leaks from the test
range.  Each baseline is computed for all origins in one pass: exponential
smoothing runs one recursion with its whole (alpha, beta) grid as a vector
and reads every origin's state from it; AR(p) takes each origin's normal
equations from running sums over one design matrix and solves and iterates
them stacked.  All modeling happens in per-series normalized units;
denormalized errors are carried alongside.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SeriesBundle, prepare_bundle
from .forecaster import ForecasterModel, mc_forecast_batch, mc_moments
from .pipeline import PipelineConfig, train_demandnet

log = logging.getLogger(__name__)

EXP_SMOOTHING_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EXP_SMOOTHING_BETAS = (0.05, 0.1, 0.2, 0.4)
AR_ORDERS = (1, 2, 3, 7, 14)

DEMANDNET_METHODS = {
    "demandnet": None,  # use the configured cell
    "demandnet-lstm": "lstm",
    "demandnet-gru": "gru",
}
CLASSICAL_METHODS = ("exp_smoothing", "ar", "seasonal_naive")


# ----------------------------------------------------------------------------
# Point metrics


def mae(pred, truth) -> float:
    """Mean absolute error."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


def rmse(pred, truth) -> float:
    """Root mean squared error."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def pred_sd(samples) -> float:
    """Population standard deviation of a set of sampled predictions."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    return float(samples.std())


# ----------------------------------------------------------------------------
# Classical baselines


def _es_grid(x: np.ndarray, alphas, betas=None):
    """The ES recursion over ``x`` for every alpha (simple smoothing) or for
    every pair in ``alphas`` x ``betas`` (Holt, alpha-major), run once with the
    grid as a vector.  Returns ``fn(ts, horizon)``, the ``(K, len(ts), horizon)``
    forecasts from the states after ``x[:t]``.

    Simple: the level starts at ``x[0]`` and is updated through every
    observation, ``x[0]`` included; the forecast repeats it.  Holt: the level
    starts at ``x[0]``, the trend at ``x[1] - x[0]``, updates run from ``x[1]``
    on, and the forecast extrapolates ``level + m * trend``.  Each column does
    the scalar recursion's operations in the same order, so it has its bits.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas > 0.0) & (alphas <= 1.0)):
        raise ValueError(f"alpha must be in (0, 1], got {alphas}")
    if betas is not None:
        betas = np.asarray(betas, dtype=float)
        if not np.all((betas >= 0.0) & (betas <= 1.0)):
            raise ValueError(f"beta must be in [0, 1], got {betas}")
        alphas, betas = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
    values = x.tolist()
    keep = 1.0 - alphas
    level = np.full((x.size + 1, alphas.size), np.nan)  # row t: the state after x[:t]
    if betas is None:
        lev = np.full(alphas.size, values[0] if values else np.nan)
        for t, value in enumerate(values, 1):
            lev = alphas * value + keep * lev
            level[t] = lev
    else:
        damp = 1.0 - betas
        trend = np.full_like(level, np.nan)
        if len(values) > 1:
            lev, tr = np.full(alphas.size, values[0]), np.full(alphas.size, values[1] - values[0])
        for t in range(2, len(values) + 1):
            new = alphas * values[t - 1] + keep * (lev + tr)
            lev, tr = new, betas * (new - lev) + damp * tr
            level[t], trend[t] = lev, tr

    def forecast(ts, horizon: int) -> np.ndarray:
        ts = np.asarray(ts, dtype=int)
        if ts.min() < 1:
            raise ValueError("history must be a non-empty 1-D array")
        lev = level[ts].T[:, :, None]
        if betas is None:
            return np.repeat(lev, horizon, axis=2)
        if ts.min() < 2:
            raise ValueError("Holt smoothing needs at least two observations")
        paths = trend[ts].T[:, :, None] * np.arange(1, horizon + 1, dtype=float)
        paths += lev  # the bits of lev + m * trend, one (K, n, horizon) array
        return paths

    return forecast


def _exp_smoothing_path(x: np.ndarray, alpha: float, beta: float | None = None):
    """The one-column ``_es_grid`` for (alpha, beta); returns ``fn(ts, horizon)``,
    the ``(len(ts), horizon)`` forecasts from the states after ``x[:t]``."""
    grid = _es_grid(x, [alpha], None if beta is None else [beta])
    return lambda ts, horizon: grid(ts, horizon)[0]


def exp_smoothing_forecast(history, alpha: float, horizon: int,
                           beta: float | None = None) -> np.ndarray:
    """Exponential smoothing forecast, simple (flat) or Holt (trended), from
    the whole history; see ``_es_grid``."""
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be a non-empty 1-D array")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _exp_smoothing_path(x, alpha, beta)([x.size], horizon)[0]


def seasonal_naive_forecast(history, horizon: int, period: int = 7) -> np.ndarray:
    """Repeat the last full seasonal cycle."""
    x = np.asarray(history, dtype=float)
    if x.size < period:
        raise ValueError(f"need at least {period} observations, got {x.size}")
    cycle = x[-period:]
    reps = int(np.ceil(horizon / period))
    return np.tile(cycle, reps)[:horizon]


def _ar_paths(series, p: int, origins, steps: int, ridge: float = 1e-6) -> np.ndarray:
    """AR(p) forecasts ``steps`` ahead from ``series[:t]`` for every t in
    ``origins``, shape ``(len(origins), steps)``; see ``ar_forecast``.

    The design matrix is built once, over the longest history.  The normal
    equations of consecutive origins differ by one row's outer product, so
    each origin's ``AᵀA`` and ``Aᵀy`` are running sums over the design rows.
    They run from the first row whatever the batch, so an origin's forecast
    has the same bits alone as among others.  The condition check, the solves
    and the forecast recursion run stacked over the origins.
    """
    x = np.asarray(series, dtype=float)
    ts = np.asarray(origins, dtype=int)
    if p < 1:
        raise ValueError("p must be >= 1")
    if steps < 1:
        raise ValueError("horizon must be >= 1")
    if ts.min() < p + 2:
        raise ValueError(f"need at least {p + 2} observations for AR({p}), got {ts.min()}")
    d = np.diff(x[: ts.max()])
    future = np.empty((ts.size, steps))
    # a perfectly regular ramp (constant differences) continues exactly
    spread = np.maximum.accumulate(d)[ts - 2] - np.minimum.accumulate(d)[ts - 2]
    ramp = spread == 0.0
    future[ramp] = d[ts[ramp] - 2, None]
    fit = ts[~ramp]
    if fit.size:
        A = np.empty((d.size - p, p + 1))
        A[:, 0] = 1.0
        for lag in range(1, p + 1):
            A[:, lag] = d[p - lag : d.size - lag]
        y = d[p:]
        last = fit - 2 - p  # the fit from series[:t] uses design rows 0 .. t - 2 - p
        G = A[:, :, None] * A[:, None, :]
        G = np.cumsum(G, axis=0, out=G)[last]  # in place: one (rows, p+1, p+1) array
        rhs = np.cumsum(A * y[:, None], axis=0)[last, :, None]
        ok = np.isfinite(G).all(axis=(1, 2))
        ok[ok] = np.linalg.cond(G[ok]) <= 1e12
        coef = np.empty((fit.size, p + 1))
        coef[ok] = np.linalg.solve(G[ok], rhs[ok])[..., 0]
        if not ok.all():
            log.debug("AR(%d) normal equations ill-conditioned at %d of %d origins; "
                      "ridge fallback", p, np.count_nonzero(~ok), fit.size)
            coef[~ok] = np.linalg.solve(G[~ok] + ridge * np.eye(p + 1), rhs[~ok])[..., 0]
        state = d[(fit - 2)[:, None] - np.arange(p)]  # most recent difference first
        fitted = np.empty((fit.size, steps))
        for m in range(steps):
            fitted[:, m] = coef[:, 0] + np.einsum("ij,ij->i", coef[:, 1:], state)
            state[:, 1:] = state[:, :-1]
            state[:, 0] = fitted[:, m]
        future[~ramp] = fitted
    return x[ts - 1, None] + np.cumsum(future, axis=1)


def ar_forecast(history, p: int, horizon: int, ridge: float = 1e-6) -> np.ndarray:
    """AR(p) on first differences, least squares with intercept, iterated
    forward and re-integrated.

    A perfectly regular ramp (constant differences) short-circuits to exact
    continuation.  Ill-conditioned normal equations fall back to a small
    ridge, logged.  One origin of ``_ar_paths``.
    """
    x = np.asarray(history, dtype=float)
    return _ar_paths(x, p, [x.size], horizon, ridge)[0]


def _clipped_scores(series: np.ndarray, origins, horizon: int, limit: int, paths_fn):
    """Mean MAE over origins t of the forecasts ``paths_fn(ts, horizon)[..., i, :]``
    from ``series[:t]``, labels clipped at ``limit``; one score per leading index.

    A clipped origin scores its path's prefix, which every baseline's shorter
    forecast equals.  ``np.add.reduce(v) / n`` has ``np.mean``'s bits.
    """
    ts = [t for t in origins if limit - t >= 1]
    if not ts:
        raise ValueError("no scorable validation origins")
    paths = paths_fn(ts, horizon)
    per_origin = np.empty((*paths.shape[:-2], len(ts)))
    for i, t in enumerate(ts):
        h = min(horizon, limit - t)
        per_origin[..., i] = np.add.reduce(np.abs(paths[..., i, :h] - series[t : t + h]),
                                           axis=-1) / h
    return np.add.reduce(per_origin, axis=-1) / len(ts)


def tune_exp_smoothing(series, origins, horizon: int, limit: int,
                       alphas=EXP_SMOOTHING_ALPHAS, betas=EXP_SMOOTHING_BETAS):
    """Grid-search (alpha, beta-or-None) by validation MAE; first best wins.
    One ``_es_grid`` recursion scores every alpha, one more every (alpha, beta)."""
    series = np.asarray(series, dtype=float)
    simple, holt = (
        _clipped_scores(series, origins, horizon, limit, _es_grid(series[:limit], alphas, b))
        for b in (None, betas)
    )
    best, best_score = None, np.inf
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate((None, *betas)):
            score = simple[i] if beta is None else holt[i * len(betas) + j - 1]
            if score < best_score:
                best, best_score = (alpha, beta), score
    return best


def tune_ar(series, origins, horizon: int, limit: int, orders=AR_ORDERS) -> int:
    """Pick the AR order with the best clipped validation MAE, one
    ``_ar_paths`` call per order."""
    series = np.asarray(series, dtype=float)
    best, best_score = None, np.inf
    for p in orders:
        try:
            score = _clipped_scores(series, origins, horizon, limit,
                                    lambda ts, h, p=p: _ar_paths(series, p, ts, h))
        except ValueError:
            continue
        if score < best_score:
            best, best_score = p, score
    if best is None:
        raise ValueError("no AR order could be scored on the validation range")
    return best


# ----------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class MetricSet:
    """Aggregated metrics for one (method, horizon) cell."""

    method: str
    horizon: int
    mae: float
    rmse: float
    sd: float  # mean predictive SD; nan for point baselines
    mae_denorm: float = float("nan")
    rmse_denorm: float = float("nan")
    per_seed_mae: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentReport:
    """All cells of one protocol run; the run's config is saved beside it by the CLI."""

    protocol: str
    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]
    cells: dict
    # (method, seed) -> (hash before eval, hash after); evaluation must not
    # touch parameters, so the pair is expected to be equal
    param_hashes: dict = field(default_factory=dict)

    def metric(self, method: str, horizon: int) -> MetricSet:
        try:
            return self.cells[(method, horizon)]
        except KeyError:
            raise KeyError(f"no cell for method={method!r} horizon={horizon}")

    def to_csv_text(self, denormalized: bool = False) -> str:
        seeds_txt = ";".join(str(s) for s in self.seeds)
        lines = ["protocol,method,horizon,mae,rmse,sd,seeds"]
        for method in self.methods:
            for h in self.horizons:
                cell = self.cells[(method, h)]
                m = cell.mae_denorm if denormalized else cell.mae
                r = cell.rmse_denorm if denormalized else cell.rmse
                sd_txt = "" if np.isnan(cell.sd) or denormalized else repr(float(cell.sd))
                lines.append(
                    f"{self.protocol},{method},{h},{repr(float(m))},"
                    f"{repr(float(r))},{sd_txt},{seeds_txt}"
                )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        """Fixed-width MAE/RMSE table, methods down, horizons across."""
        name_w = max(12, *(len(m) for m in self.methods)) + 2
        col_w = 16
        out = [f"protocol: {self.protocol}   seeds: {list(self.seeds)}"]
        header = "method".ljust(name_w) + "".join(
            f"H={h} (mae/rmse)".rjust(col_w) for h in self.horizons
        )
        out.append(header)
        out.append("-" * len(header))
        for method in self.methods:
            row = method.ljust(name_w)
            for h in self.horizons:
                cell = self.cells[(method, h)]
                row += f"{cell.mae:.4f}/{cell.rmse:.4f}".rjust(col_w)
            out.append(row)
        return "\n".join(out) + "\n"


# ----------------------------------------------------------------------------
# Per-series evaluation internals


def _per_origin_rows(horizons, origins, length):
    return {h: [i for i, t in enumerate(origins) if t + h <= length] for h in horizons}


class _Accumulator:
    """per-origin -> mean over origins -> mean over series -> mean over seeds."""

    def __init__(self):
        self.by_seed: dict = {}

    def add_series(self, seed, values: dict):
        self.by_seed.setdefault(seed, []).append(values)

    def finalize(self, method, horizon) -> MetricSet:
        per_seed = {k: [] for k in ("mae", "rmse", "sd", "mae_denorm", "rmse_denorm")}
        seed_mae = {}
        for seed, series_rows in sorted(self.by_seed.items()):
            for key in per_seed:
                per_seed[key].append(float(np.mean([row[key] for row in series_rows])))
            seed_mae[seed] = per_seed["mae"][-1]
        return MetricSet(
            method=method,
            horizon=horizon,
            mae=float(np.mean(per_seed["mae"])),
            rmse=float(np.mean(per_seed["rmse"])),
            sd=float(np.mean(per_seed["sd"])),
            mae_denorm=float(np.mean(per_seed["mae_denorm"])),
            rmse_denorm=float(np.mean(per_seed["rmse_denorm"])),
            per_seed_mae=seed_mae,
        )


def _series_metrics(mean_paths, sd_paths, truths, scale) -> dict:
    """Aggregate per-origin metrics for one (series, horizon) block."""
    maes = [mae(m, t) for m, t in zip(mean_paths, truths)]
    rmses = [rmse(m, t) for m, t in zip(mean_paths, truths)]
    sds = [float(np.mean(s)) for s in sd_paths] if sd_paths is not None else [float("nan")]
    return {
        "mae": float(np.mean(maes)),
        "rmse": float(np.mean(rmses)),
        "sd": float(np.mean(sds)),
        "mae_denorm": float(np.mean(maes)) * scale,
        "rmse_denorm": float(np.mean(rmses)) * scale,
    }


def demandnet_eval_bundle(model: ForecasterModel, bundle: SeriesBundle,
                          cfg: PipelineConfig, horizons, kappa: int,
                          seed: int) -> dict:
    """Forecast every valid test-range origin of one series in one batch.

    Returns {horizon: per-series metric row}.  Stats come from the model
    when it trained on this series, otherwise they are fitted afresh on the
    bundle's own training fraction (the unseen-series convention).
    """
    split, stats, nb = model.prepare(bundle, cfg.fractions)
    panel = nb.channel_matrix()
    H = model.arch.horizon
    h_min = min(horizons)
    first = max(split.test.start, model.tau)
    origins = list(range(first, bundle.length - h_min + 1))
    if not origins:
        raise ValueError(f"series {bundle.id}: no valid test origins for h={h_min}")
    windows = np.stack([panel[t - model.tau : t] for t in origins])
    raw_policy = bundle.policy
    policies = np.stack([
        np.pad(raw_policy[t : t + H], (0, max(0, t + H - bundle.length)), mode="edge")
        for t in origins
    ])
    samples = mc_forecast_batch(model, windows, policies, kappa=kappa, seed=seed)
    means, sds = mc_moments(samples)
    rows = {}
    valid = _per_origin_rows(horizons, origins, bundle.length)
    for h in horizons:
        idx = valid[h]
        if not idx:
            continue
        mean_paths = [means[i, :h] for i in idx]
        sd_paths = [sds[i, :h] for i in idx]
        truths = [nb.target[origins[i] : origins[i] + h] for i in idx]
        rows[h] = _series_metrics(mean_paths, sd_paths, truths, float(stats.scale[0]))
    return rows


def classical_eval_bundle(bundle: SeriesBundle, cfg: PipelineConfig,
                          horizons, method: str) -> dict:
    """Tune on the validation range, forecast every valid test origin."""
    split, stats, nb = prepare_bundle(bundle, cfg.fractions)
    series = nb.target
    scale = float(stats.scale[0])
    val_origins = range(split.validation.start, split.validation.stop)
    limit = split.validation.stop
    rows = {}
    for h in horizons:
        if method == "exp_smoothing":
            fn = _exp_smoothing_path(series, *tune_exp_smoothing(series, val_origins, h, limit))
        elif method == "ar":
            p = tune_ar(series, val_origins, h, limit)
            fn = lambda ts, m, p=p: _ar_paths(series, p, ts, m)
        elif method == "seasonal_naive":
            fn = lambda ts, m: np.stack([seasonal_naive_forecast(series[:t], m) for t in ts])
        else:
            raise ValueError(f"unknown classical method {method!r}")
        origins = [t for t in range(split.test.start, bundle.length - h + 1)]
        if not origins:
            continue
        mean_paths = fn(origins, h)
        truths = [series[t : t + h] for t in origins]
        rows[h] = _series_metrics(mean_paths, None, truths, scale)
    return rows


# ----------------------------------------------------------------------------
# Protocols


def _check_methods(methods):
    for m in methods:
        if m not in DEMANDNET_METHODS and m not in CLASSICAL_METHODS:
            raise ValueError(
                f"unknown method {m!r}; known: "
                f"{sorted(DEMANDNET_METHODS) + list(CLASSICAL_METHODS)}"
            )


def _run_protocol(protocol: str, train_bundles, eval_bundles, methods,
                  seeds, cfg: PipelineConfig) -> ExperimentReport:
    _check_methods(methods)
    methods = tuple(methods)
    horizons = tuple(sorted(set(cfg.horizons)))
    seeds = tuple(int(s) for s in seeds)
    acc = {(m, h): _Accumulator() for m in methods for h in horizons}
    param_hashes: dict = {}

    classical_cache: dict = {}
    for method in methods:
        if method in CLASSICAL_METHODS:
            for bundle in eval_bundles:
                classical_cache[(method, bundle.id)] = classical_eval_bundle(
                    bundle, cfg, horizons, method
                )

    for seed in seeds:
        for method in methods:
            if method in CLASSICAL_METHODS:
                for bundle in eval_bundles:
                    rows = classical_cache[(method, bundle.id)]
                    for h, row in rows.items():
                        acc[(method, h)].add_series(seed, row)
                continue
            cell = DEMANDNET_METHODS[method]
            run_cfg = cfg if cell is None else replace(cfg, arch=replace(cfg.arch, cell=cell))
            trained = train_demandnet(train_bundles, run_cfg, seed=seed)
            hash_pre = trained.forecaster.param_hash()
            for bundle in eval_bundles:
                rows = demandnet_eval_bundle(
                    trained.forecaster, bundle, cfg, horizons,
                    kappa=cfg.kappa, seed=seed,
                )
                for h, row in rows.items():
                    acc[(method, h)].add_series(seed, row)
            param_hashes[(method, seed)] = (hash_pre, trained.forecaster.param_hash())

    cells = {
        (m, h): acc[(m, h)].finalize(m, h)
        for m in methods for h in horizons
        if acc[(m, h)].by_seed
    }
    return ExperimentReport(
        protocol=protocol,
        methods=methods,
        horizons=horizons,
        seeds=seeds,
        cells=cells,
        param_hashes=param_hashes,
    )


def run_split80(bundles, methods, seeds, cfg: PipelineConfig) -> ExperimentReport:
    """Train on every series' first 80%, evaluate on each one's last 10%,
    at every horizon in ``cfg.horizons``."""
    return _run_protocol("split80", bundles, bundles, methods, seeds, cfg)


def run_unseen(bundles, held_ids, methods, seeds, cfg: PipelineConfig) -> ExperimentReport:
    """Hold entire series out of training and forecast them cold at every
    horizon in ``cfg.horizons``.

    DemandNet methods train on the remaining series only; the held-out
    series are normalized by their own training-fraction stats at forecast
    time.  Classical baselines only ever see the evaluated series' own
    history, so their cells match the split80 protocol by construction.
    """
    from .data import holdout_series

    train_bundles, held_bundles = holdout_series(bundles, held_ids)
    return _run_protocol("unseen", train_bundles, held_bundles, methods, seeds, cfg)
