"""Metrics, classical baselines, and the two experiment protocols.

One path leads from a series and a method to its metric rows.  Each baseline
is tuned once per series for every horizon, on the validation range with
labels clipped at its end so nothing leaks from the test range, then
forecasts each test origin once per distinct tuned choice.  Exponential
smoothing runs one recursion with its whole (alpha, beta) grid as a vector;
AR(p) takes each origin's normal equations from running sums over one design
matrix.  Every method is scored by ``_series_rows``: the metric per forecast
origin, then means across origins, then series, then seeds (``_cell``).  All
modeling happens in per-series normalized units; denormalized errors are
carried alongside.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import SeriesBundle, holdout_series, make_windows, prepare_bundle, split_time
from .forecaster import ForecasterModel, mc_forecast_batch, mc_moments
from .pipeline import PipelineConfig, train_demandnet

log = logging.getLogger(__name__)

EXP_SMOOTHING_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EXP_SMOOTHING_BETAS = (0.05, 0.1, 0.2, 0.4)
AR_ORDERS = (1, 2, 3, 7, 14)

CLASSICAL_METHODS = ("exp_smoothing", "ar", "seasonal_naive")


# ----------------------------------------------------------------------------
# Point metrics


def _error(pred, truth) -> np.ndarray:
    pred, truth = np.asarray(pred, dtype=float), np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return pred - truth


def mae(pred, truth) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(_error(pred, truth))))


def rmse(pred, truth) -> float:
    """Root mean squared error."""
    return float(np.sqrt(np.mean(_error(pred, truth) ** 2)))


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


def exp_smoothing_forecast(history, alpha: float, horizon: int,
                           beta: float | None = None) -> np.ndarray:
    """Exponential smoothing forecast, simple (flat) or Holt (trended), from
    the whole history; see ``_es_grid``."""
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be a non-empty 1-D array")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _es_grid(x, [alpha], None if beta is None else [beta])([x.size], horizon)[0, 0]


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


def _clipped_scores(series: np.ndarray, origins, horizons, limit: int, paths_fn) -> dict:
    """Mean MAE over origins t of the forecasts ``paths_fn(ts, steps)[..., i, :]``
    from ``series[:t]``, labels clipped at ``limit``: ``{h: one score per leading
    index}`` for every h in ``horizons``.

    The paths are computed once, at the longest clipped label run
    ``min(max(horizons), limit - min(ts))`` steps, and each horizon and
    clipped origin scores their prefix, which every baseline's shorter
    forecast equals.  ``np.add.reduce(v) / n`` has ``np.mean``'s bits.
    """
    ts = [t for t in origins if limit - t >= 1]
    if not ts:
        raise ValueError("no scorable validation origins")
    paths = paths_fn(ts, min(max(horizons), limit - min(ts)))
    scores = {}
    for horizon in horizons:
        per_origin = np.empty((*paths.shape[:-2], len(ts)))
        for i, t in enumerate(ts):
            h = min(horizon, limit - t)
            per_origin[..., i] = np.add.reduce(np.abs(paths[..., i, :h] - series[t : t + h]),
                                               axis=-1) / h
        scores[horizon] = np.add.reduce(per_origin, axis=-1) / len(ts)
    return scores


def _first_best(candidates, scores):
    """The first candidate with the lowest score; a NaN score never wins."""
    best, best_score = None, np.inf
    for candidate, score in zip(candidates, scores):
        if score < best_score:
            best, best_score = candidate, score
    return best


def tune_exp_smoothing(series, origins, horizons, limit: int,
                       alphas=EXP_SMOOTHING_ALPHAS, betas=EXP_SMOOTHING_BETAS) -> dict:
    """Grid-search (alpha, beta-or-None) by validation MAE, ``{h: choice}`` for
    every h in ``horizons``; first best wins.  One ``_es_grid`` recursion
    scores every alpha at every horizon, one more every (alpha, beta)."""
    series = np.asarray(series, dtype=float)
    simple, holt = (
        _clipped_scores(series, origins, horizons, limit, _es_grid(series[:limit], alphas, b))
        for b in (None, betas)
    )
    candidates = [(alpha, beta) for alpha in alphas for beta in (None, *betas)]
    # alpha-major rows: the simple score, then one per beta
    return {h: _first_best(candidates, np.column_stack(
                [simple[h], holt[h].reshape(len(alphas), len(betas))]).ravel())
            for h in horizons}


def tune_ar(series, origins, horizons, limit: int, orders=AR_ORDERS) -> dict:
    """Pick the AR order with the best clipped validation MAE, ``{h: order}``
    for every h in ``horizons``; one ``_ar_paths`` call per order."""
    series = np.asarray(series, dtype=float)
    scored = {}
    for p in orders:
        try:
            scored[p] = _clipped_scores(series, origins, horizons, limit,
                                        lambda ts, m, p=p: _ar_paths(series, p, ts, m))
        except ValueError:
            continue
    choices = {h: _first_best(scored, [s[h] for s in scored.values()]) for h in horizons}
    if None in choices.values():
        raise ValueError("no AR order could be scored on the validation range")
    return choices


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
# Per-series evaluation

_ROW_KEYS = ("mae", "rmse", "sd", "mae_denorm", "rmse_denorm")


def _series_rows(origins, paths, sds, target, scale: float, horizons) -> dict:
    """``{h: metric row}`` of one series for every horizon some origin can score.

    The forecast from ``origins[i]`` is ``paths[h][i]`` and its predictive SD
    ``sds[i]`` (``None`` for point baselines); horizon h scores their first h
    steps at every origin with h labels left in ``target``.  Origins ascend,
    so those are a prefix.  Each metric is a mean over origins.
    """
    rows = {}
    for h in horizons:
        n = int(np.count_nonzero(origins + h <= target.size))
        if not n:
            continue
        pairs = [(paths[h][i, :h], target[t : t + h]) for i, t in enumerate(origins[:n])]
        maes = [mae(pred, truth) for pred, truth in pairs]
        rmses = [rmse(pred, truth) for pred, truth in pairs]
        sd = [float("nan")] if sds is None else [float(np.mean(s)) for s in sds[:n, :h]]
        m, r = float(np.mean(maes)), float(np.mean(rmses))
        rows[h] = dict(zip(_ROW_KEYS, (m, r, float(np.mean(sd)), m * scale, r * scale)))
    return rows


def demandnet_eval_bundle(model: ForecasterModel, bundle: SeriesBundle,
                          cfg: PipelineConfig, horizons, kappa: int,
                          seed: int) -> dict:
    """Forecast every valid test-range origin of one series in one batch.

    Returns {horizon: per-series metric row}.  Stats come from the model
    when it trained on this series, otherwise they are fitted afresh on the
    bundle's own training fraction (the unseen-series convention).  Policy
    paths past the series end repeat its last policy.  A series with no
    test origin that a window fits is left unscored ({}), as
    :func:`classical_eval_bundle` leaves it.
    """
    if bundle.length < model.tau + min(horizons):
        return {}
    split, stats = model.norm_for(bundle, cfg.fractions)
    nb = stats.normalize_bundle(bundle)
    H = model.arch.horizon
    windows = make_windows(nb, model.tau, min(horizons), span=split.test)
    if not len(windows):
        return {}
    origins = windows.origins
    policies = np.pad(bundle.policy, (0, H), "edge")[origins[:, None] + np.arange(H)]
    samples = mc_forecast_batch(model, windows.past, policies, kappa=kappa, seed=seed)
    means, sds = mc_moments(samples)
    return _series_rows(origins, dict.fromkeys(horizons, means), sds, nb.target,
                        float(stats.scale[0]), horizons)


def classical_eval_bundle(bundle: SeriesBundle, cfg: PipelineConfig,
                          horizons, method: str) -> dict:
    """Tune on the validation range once for every horizon, then forecast
    every test origin with ``t + min(horizons) <= T`` once per distinct tuned
    choice, ``max(horizons)`` steps ahead."""
    split, stats, nb = prepare_bundle(bundle, cfg.fractions)
    series, limit = nb.target, split.validation.stop
    val_origins = range(split.validation.start, limit)
    origins = np.arange(split.test.start, bundle.length - min(horizons) + 1)
    steps = max(horizons)
    if method == "exp_smoothing":
        choices = tune_exp_smoothing(series, val_origins, horizons, limit)
        forecast = lambda c: _es_grid(series, c[:1], None if c[1] is None else c[1:])(
            origins, steps)[0]
    elif method == "ar":
        choices = tune_ar(series, val_origins, horizons, limit)
        forecast = lambda p: _ar_paths(series, p, origins, steps)
    elif method == "seasonal_naive":
        choices = dict.fromkeys(horizons)
        forecast = lambda _: np.stack([seasonal_naive_forecast(series[:t], steps)
                                       for t in origins])
    else:
        raise ValueError(f"unknown classical method {method!r}")
    if not origins.size:
        return {}
    paths = {c: forecast(c) for c in set(choices.values())}
    return _series_rows(origins, {h: paths[c] for h, c in choices.items()}, None, series,
                        float(stats.scale[0]), horizons)


# ----------------------------------------------------------------------------
# Protocols


def check_methods_and_seeds(methods, seeds, prefix: str = "") -> None:
    """Reject an unknown method, and a method or seed named twice: each
    (method, seed) pair is one run.  ``prefix`` names the config keys."""
    known = ["demandnet", *CLASSICAL_METHODS]
    unknown = [m for m in methods if m not in known]
    if unknown:
        raise ValueError(f"{prefix}methods must be among {known}, got {unknown[0]!r}")
    for name, values in (("methods", methods), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ValueError(f"{prefix}{name} must be distinct, got {list(values)}")


class UnscorableHorizonError(ValueError):
    """A horizon longer than every evaluated series' test range."""


def _cell(method: str, horizon: int, by_seed: dict) -> MetricSet:
    """One (method, horizon) cell from ``{seed: its series' rows}``: each row
    is a mean over origins; average the series, then the sorted seeds."""
    per_seed = {seed: [float(np.mean([row[key] for row in rows])) for key in _ROW_KEYS]
                for seed, rows in sorted(by_seed.items())}
    means = [float(np.mean(column)) for column in zip(*per_seed.values())]
    return MetricSet(method, horizon, *means,
                     per_seed_mae={seed: values[0] for seed, values in per_seed.items()})


def _run_protocol(protocol: str, train_bundles, eval_bundles, methods,
                  seeds, cfg: PipelineConfig) -> ExperimentReport:
    methods = tuple(methods)
    horizons = tuple(sorted(set(cfg.horizons)))
    seeds = tuple(int(s) for s in seeds)
    check_methods_and_seeds(methods, seeds)
    room = max((b.length - split_time(b, cfg.fractions).test.start for b in eval_bundles),
               default=0)
    if horizons[-1] > room:  # fail before any tuning or training
        too_long = ", ".join(str(h) for h in horizons if h > room)
        raise UnscorableHorizonError(f"no evaluated series has a test origin for horizon "
                                     f"{too_long}: the longest test range is {room} steps")
    rows: dict = {}  # (method, seed) -> one {h: row} per evaluated series
    param_hashes: dict = {}
    for method in methods:
        if method in CLASSICAL_METHODS:  # the baselines draw nothing from the seed
            series_rows = [classical_eval_bundle(b, cfg, horizons, method) for b in eval_bundles]
            rows.update(((method, seed), series_rows) for seed in seeds)
    for seed in seeds if "demandnet" in methods else ():  # one training run per seed
        trained = train_demandnet(train_bundles, cfg, seed=seed)
        hash_pre = trained.forecaster.param_hash()
        rows[("demandnet", seed)] = [
            demandnet_eval_bundle(trained.forecaster, bundle, cfg, horizons,
                                  kappa=cfg.kappa, seed=seed)
            for bundle in eval_bundles
        ]
        param_hashes[("demandnet", seed)] = (hash_pre, trained.forecaster.param_hash())

    cells = {}
    for method in methods:
        for h in horizons:
            by_seed = {seed: [r[h] for r in rows[(method, seed)] if h in r] for seed in seeds}
            by_seed = {seed: scored for seed, scored in by_seed.items() if scored}
            if by_seed:
                cells[(method, h)] = _cell(method, h, by_seed)
    return ExperimentReport(protocol=protocol, methods=methods, horizons=horizons, seeds=seeds,
                            cells=cells, param_hashes=param_hashes)


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
    train_bundles, held_bundles = holdout_series(bundles, held_ids)
    return _run_protocol("unseen", train_bundles, held_bundles, methods, seeds, cfg)
