from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandnet import evaluation
from demandnet.config import PipelineConfig
from demandnet.data import prepare_bundle
from demandnet.evaluation import (
    EXP_SMOOTHING_ALPHAS,
    EXP_SMOOTHING_BETAS,
    UnscorableHorizonError,
    _ar_paths,
    _es_grid,
    ar_forecast,
    classical_eval_bundle,
    exp_smoothing_forecast,
    mae,
    pred_sd,
    rmse,
    run_split80,
    run_unseen,
    seasonal_naive_forecast,
    tune_ar,
    tune_exp_smoothing,
)
from demandnet.forecaster import ForecasterArch
from demandnet.nn.optim import TrainConfig

from conftest import build_bundle


# ----------------------------------------------------------------------------
# point metrics


def test_mae_hand_value():
    # errors 3 and 4: mean 3.5
    assert mae([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5, abs=1e-12)


def test_rmse_hand_value():
    # sqrt((9 + 16) / 2) = sqrt(12.5)
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5355339059327378, abs=1e-12)


def test_pred_sd_hand_value():
    # population sd of {1, 2, 3, 4}: sqrt(1.25)
    assert pred_sd([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.1180339887498949, abs=1e-12)


def test_pred_sd_needs_samples():
    with pytest.raises(ValueError):
        pred_sd([])


def test_mae_equals_rmse_for_uniform_error_magnitude():
    pred = np.array([2.0, -2.0, 2.0, -2.0])
    truth = np.zeros(4)
    assert mae(pred, truth) == pytest.approx(rmse(pred, truth), abs=1e-12)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_rmse_never_below_mae(errors):
    pred = np.asarray(errors)
    truth = np.zeros(len(errors))
    assert rmse(pred, truth) >= mae(pred, truth) - 1e-9


# ----------------------------------------------------------------------------
# classical baselines


def test_exp_smoothing_level_update():
    # level: 0, then 0.5*1 + 0.5*0 = 0.5; flat thereafter
    got = exp_smoothing_forecast([0.0, 1.0], 0.5, 3)
    assert np.array_equal(got, [0.5, 0.5, 0.5])


def test_exp_smoothing_with_trend_extends_a_line_exactly():
    t = np.arange(20, dtype=float)
    got = exp_smoothing_forecast(3.0 + 2.0 * t, 0.5, 5, beta=0.1)
    want = 3.0 + 2.0 * np.arange(20, 25)
    assert np.max(np.abs(got - want)) <= 1e-9


def _per_origin_es(history, alpha, horizon, beta=None):
    """Reference ES: the whole recursion rerun from the first observation."""
    x = np.asarray(history, dtype=float)
    if beta is None:
        level = float(x[0])
        for value in x:
            level = alpha * value + (1.0 - alpha) * level
        return np.full(horizon, level)
    level = float(x[0])
    trend = float(x[1] - x[0])
    for value in x[1:]:
        new_level = alpha * value + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return level + trend * np.arange(1, horizon + 1, dtype=float)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.none() | st.floats(0.0, 1.0),
    horizon=st.integers(1, 12),
    data=st.data(),
)
def test_one_pass_es_equals_per_origin_es_bitwise(values, alpha, beta, horizon, data):
    x = np.asarray(values)
    first = 1 if beta is None else 2
    origins = data.draw(st.lists(st.integers(first, x.size), min_size=1, max_size=20))
    paths = _es_grid(x, [alpha], None if beta is None else [beta])(origins, horizon)[0]
    for t, got in zip(origins, paths):
        want = _per_origin_es(x[:t], alpha, horizon, beta).tobytes()
        assert got.tobytes() == want
        assert exp_smoothing_forecast(x[:t], alpha, horizon, beta=beta).tobytes() == want


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=60),
    alphas=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=5),
    betas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    horizon=st.integers(1, 8),
)
def test_es_grid_columns_equal_the_scalar_recursion_and_tune_alike(values, alphas, betas,
                                                                   horizon):
    x = np.asarray(values)
    simple = _es_grid(x, alphas)(range(1, x.size + 1), 2)
    holt = _es_grid(x, alphas, betas)(range(2, x.size + 1), 3)
    for i, alpha in enumerate(alphas):
        for t in range(1, x.size + 1):
            want = _per_origin_es(x[:t], alpha, 2)
            assert simple[i, t - 1].tobytes() == want.tobytes()
        for j, beta in enumerate(betas):
            for t in range(2, x.size + 1):
                want = _per_origin_es(x[:t], alpha, 3, beta)
                assert holt[i * len(betas) + j, t - 2].tobytes() == want.tobytes()
    # the per-pair loop the grid replaces: first best wins
    limit = x.size
    origins = range(limit - 6, limit)
    best, best_score = None, np.inf
    for alpha in alphas:
        for beta in (None, *betas):
            scores = []
            for t in origins:
                h = min(horizon, limit - t)
                pred = _per_origin_es(x[:t], alpha, h, beta)
                scores.append(float(np.mean(np.abs(pred - x[t : t + h]))))
            score = float(np.mean(scores))
            if score < best_score:
                best, best_score = (alpha, beta), score
    got = tune_exp_smoothing(x, origins, (horizon,), limit, alphas=alphas, betas=betas)
    assert got == {horizon: best}


def test_es_origins_too_short_for_the_recursion_raise():
    series = np.arange(10.0)
    with pytest.raises(ValueError, match="non-empty"):
        exp_smoothing_forecast([], 0.5, 3)
    with pytest.raises(ValueError, match="non-empty"):
        tune_exp_smoothing(series, [0], (3,), limit=10)
    with pytest.raises(ValueError, match="at least two observations"):
        exp_smoothing_forecast([1.0], 0.5, 3, beta=0.1)
    with pytest.raises(ValueError, match="at least two observations"):
        tune_exp_smoothing(series, [1], (3,), limit=10)


def _per_origin_ar(history, p, horizon, ridge=1e-6):
    """Reference AR: one least-squares fit per origin, as before the running sums."""
    x = np.asarray(history, dtype=float)
    d = np.diff(x)
    if np.ptp(d) == 0.0:
        return x[-1] + np.cumsum(np.full(horizon, d[-1]))
    A = np.empty((d.size - p, p + 1))
    A[:, 0] = 1.0
    for lag in range(1, p + 1):
        A[:, lag] = d[p - lag : d.size - lag]
    G, rhs = A.T @ A, A.T @ d[p:]
    if np.linalg.cond(G) > 1e12:
        G = G + ridge * np.eye(p + 1)
    coef = np.linalg.solve(G, rhs)
    state = d[-p:][::-1].copy()
    future = np.empty(horizon)
    for m in range(horizon):
        future[m] = coef[0] + coef[1:] @ state
        state[1:] = state[:-1]
        state[0] = future[m]
    return x[-1] + np.cumsum(future)


def _noisy_series(seed, n=200):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n)) + np.sin(2 * np.pi * np.arange(n) / 7)


def _close_to_reference(got, series, p, origins, horizon):
    for t, path in zip(origins, got):
        want = _per_origin_ar(series[:t], p, horizon)
        assert np.max(np.abs(path - want)) <= 1e-12 * np.max(np.abs(want)), (p, t)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 14])
def test_batched_ar_matches_the_per_origin_fit(p):
    series = _noisy_series(p)
    origins = list(range(120, 160, 3))
    got = _ar_paths(series, p, origins, 12)
    assert got.shape == (len(origins), 12)
    _close_to_reference(got, series, p, origins, 12)
    # an origin's forecast does not depend on its batch-mates
    for i in (0, 5, len(origins) - 1):
        t = origins[i]
        assert ar_forecast(series[:t], p, 12).tobytes() == got[i].tobytes()
        assert _ar_paths(series, p, origins[i:], 12)[0].tobytes() == got[i].tobytes()


def test_batched_ar_ramp_origin_inside_a_batch_continues_exactly():
    series = 2.0 + 0.25 * np.arange(120.0)
    series[80:] += _noisy_series(1, 40)  # the differences stay constant up to origin 80
    origins = [80, 90, 100]
    got = _ar_paths(series, 3, origins, 8)
    assert got[0].tobytes() == _per_origin_ar(series[:80], 3, 8).tobytes()
    assert np.array_equal(got[0], series[79] + 0.25 * np.arange(1, 9))
    _close_to_reference(got[1:], series, 3, origins[1:], 8)


def test_batched_ar_ridge_falls_back_at_the_flagged_origin_only(caplog):
    # differences alternate 1, -2 up to origin 60: then lag 1 + lag 2 equals the
    # intercept column, so AR(2)'s normal equations are singular there
    d = np.where(np.arange(59) % 2 == 0, 1.0, -2.0)
    series = np.concatenate([[0.0], np.cumsum(d), 3.0 * _noisy_series(2, 40)])
    origins = [60, 70, 80, 90]
    with caplog.at_level("DEBUG", logger="demandnet.evaluation"):
        got = _ar_paths(series, 2, origins, 10)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == ["AR(2) normal equations ill-conditioned at 1 of 4 origins; "
                        "ridge fallback"]
    _close_to_reference(got, series, 2, origins, 10)


def test_batched_ar_rejects_an_origin_too_short_for_the_order():
    with pytest.raises(ValueError, match="at least 16 observations"):
        _ar_paths(_noisy_series(0), 14, [15, 100], 5)


def test_batched_ar_short_path_is_the_long_paths_prefix():
    series = _noisy_series(4)
    origins = list(range(100, 180, 7))
    for p in (1, 7):
        short, long = _ar_paths(series, p, origins, 40), _ar_paths(series, p, origins, 80)
        assert short.tobytes() == np.ascontiguousarray(long[:, :40]).tobytes()


def test_ar_extends_constant_difference_ramp_exactly():
    ramp = 1.0 + 0.5 * np.arange(30, dtype=float)
    got = ar_forecast(ramp, 2, 6)
    want = ramp[-1] + 0.5 * np.arange(1, 7)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_ar_on_constant_series_stays_constant():
    got = ar_forecast(np.full(25, 3.0), 3, 5)
    assert got == pytest.approx(np.full(5, 3.0), abs=1e-6)


def test_ar_needs_enough_history():
    with pytest.raises(ValueError):
        ar_forecast(np.arange(4.0), 14, 3)


def test_seasonal_naive_repeats_last_cycle():
    history = np.concatenate([np.zeros(7), np.arange(1.0, 8.0)])
    got = seasonal_naive_forecast(history, 10, period=7)
    want = np.array([1, 2, 3, 4, 5, 6, 7, 1, 2, 3], dtype=float)
    assert np.array_equal(got, want)


def test_seasonal_naive_needs_one_cycle():
    with pytest.raises(ValueError):
        seasonal_naive_forecast(np.arange(5.0), 3, period=7)


# ----------------------------------------------------------------------------
# hyperparameter tuning


def test_tuning_ties_resolve_to_first_grid_entry():
    # constant series: every (alpha, beta) scores identically
    series = np.full(40, 5.0)
    assert tune_exp_smoothing(series, [30, 34], (4, 8), limit=40) == {4: (0.1, None),
                                                                    8: (0.1, None)}


def test_tuning_matches_the_per_origin_grid_search():
    rng = np.random.default_rng(3)
    series = np.cumsum(rng.normal(size=120)) + np.sin(np.arange(120) / 4.0)
    origins, limit = range(90, 108), 108
    want = {}
    for horizon in (4, 12):
        best, best_score = None, np.inf
        for alpha in EXP_SMOOTHING_ALPHAS:
            for beta in (None, *EXP_SMOOTHING_BETAS):
                scores = []
                for t in origins:
                    h = min(horizon, limit - t)
                    pred = _per_origin_es(series[:t], alpha, h, beta)
                    scores.append(float(np.mean(np.abs(pred - series[t : t + h]))))
                score = float(np.mean(scores))
                if score < best_score:  # first best wins
                    best, best_score = (alpha, beta), score
        want[horizon] = best
    # one call tunes both horizons, from paths computed once at the longer one
    assert tune_exp_smoothing(series, origins, (4, 12), limit) == want


def test_tuning_never_reads_beyond_the_limit():
    rng = np.random.default_rng(0)
    base = np.sin(np.arange(60) / 3.0) + 0.1 * rng.normal(size=60)
    a = base.copy()
    b = base.copy()
    a[40:] = 1e6
    b[40:] = -1e6
    origins = [32, 36]
    assert tune_exp_smoothing(a, origins, (4, 8), limit=40) == \
        tune_exp_smoothing(b, origins, (4, 8), limit=40)
    assert tune_ar(a, origins, (4, 8), limit=40) == tune_ar(b, origins, (4, 8), limit=40)


def test_tuned_ar_order_comes_from_grid():
    rng = np.random.default_rng(1)
    series = np.sin(2 * np.pi * np.arange(80) / 7) + 0.05 * rng.normal(size=80)
    orders = tune_ar(series, [60, 64], (4, 8), limit=72)
    assert set(orders) == {4, 8} and set(orders.values()) <= {1, 2, 3, 7, 14}


def test_tuning_requires_scorable_origins():
    with pytest.raises(ValueError, match="origins"):
        tune_exp_smoothing(np.arange(20.0), [19], (4,), limit=19)
    with pytest.raises(ValueError, match="no AR order"):
        tune_ar(np.arange(20.0), [19], (4,), limit=19)


def _per_horizon_row(bundle, cfg, method, h):
    """Reference row: tune at horizon h alone, forecast each test origin on its own."""
    split, stats, nb = prepare_bundle(bundle, cfg.fractions)
    series, limit = nb.target, split.validation.stop
    val_origins = range(split.validation.start, limit)
    origins = range(split.test.start, bundle.length - h + 1)
    if method == "exp_smoothing":
        alpha, beta = tune_exp_smoothing(series, val_origins, (h,), limit)[h]
        preds = [exp_smoothing_forecast(series[:t], alpha, h, beta=beta) for t in origins]
    elif method == "ar":
        order = tune_ar(series, val_origins, (h,), limit)[h]
        preds = [ar_forecast(series[:t], order, h) for t in origins]
    else:
        preds = [seasonal_naive_forecast(series[:t], h) for t in origins]
    m = float(np.mean([mae(pred, series[t : t + h]) for pred, t in zip(preds, origins)]))
    r = float(np.mean([rmse(pred, series[t : t + h]) for pred, t in zip(preds, origins)]))
    scale = float(stats.scale[0])
    return np.array([m, r, m * scale, r * scale])


@pytest.mark.parametrize("method", ["exp_smoothing", "ar", "seasonal_naive"])
def test_classical_rows_equal_a_per_horizon_reference_bitwise(method):
    cfg = PipelineConfig(horizons=(4, 12))
    # on these series the tuned choice differs between the two horizons:
    # ES simple (6) and Holt (5, 10), AR order (6, 10)
    for seed in (5, 6, 10):
        bundle = build_bundle(length=200, target=10.0 + _noisy_series(seed, 200))
        rows = classical_eval_bundle(bundle, cfg, (4, 12), method)
        assert sorted(rows) == [4, 12]
        for h, row in rows.items():
            got = np.array([row["mae"], row["rmse"], row["mae_denorm"], row["rmse_denorm"]])
            assert got.tobytes() == _per_horizon_row(bundle, cfg, method, h).tobytes(), h
            assert np.isnan(row["sd"])


# ----------------------------------------------------------------------------
# experiment protocols


def _tiny_cfg():
    return PipelineConfig(
        tau=8,
        horizons=(4,),
        kappa=4,
        arch=ForecasterArch(cell="gru", hidden=8, layers=1, horizon=4, dropout=0.1),
        forecaster_train=TrainConfig(optimizer="adam", learning_rate=3e-3,
                                     epochs=2, batch_size=64),
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=5, batch_size=128),
        effects_width=8,
        include_statics=False,
        dropout_candidates=(),
    )


def _protocol_bundles():
    bundles = []
    for i in range(3):
        policy = np.zeros(100)
        policy[40 + i : 60 + i] = 1.0
        bundles.append(build_bundle(length=100, policy=policy, series_id=f"S{i}"))
    return bundles


@pytest.fixture(scope="module")
def split_report():
    return run_split80(_protocol_bundles(), methods=("demandnet", "exp_smoothing", "ar"),
                       seeds=(0, 1), cfg=_tiny_cfg())


def test_split_report_aggregates_each_method(split_report):
    assert split_report.protocol == "split80"
    for method in ("demandnet", "exp_smoothing", "ar"):
        cell = split_report.metric(method, 4)
        assert np.isfinite(cell.mae)
        assert cell.rmse >= cell.mae - 1e-9


def test_split_report_tracks_per_seed_errors(split_report):
    cell = split_report.metric("demandnet", 4)
    assert set(cell.per_seed_mae) == {0, 1}
    assert all(np.isfinite(v) for v in cell.per_seed_mae.values())


def test_evaluation_leaves_parameters_untouched(split_report):
    assert split_report.param_hashes
    for before, after in split_report.param_hashes.values():
        assert before == after


def test_classical_methods_report_no_sampling_spread(split_report):
    assert np.isnan(split_report.metric("ar", 4).sd)
    assert np.isfinite(split_report.metric("demandnet", 4).sd)


def test_report_rejects_unknown_cell(split_report):
    with pytest.raises(KeyError):
        split_report.metric("prophet", 4)


def test_report_csv_layout(split_report):
    text = split_report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "protocol,method,horizon,mae,rmse,sd,seeds"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "split80"
    assert first[1] == "demandnet"
    assert first[2] == "4"
    assert first[6] == "0;1"
    assert float(first[3]) == split_report.metric("demandnet", 4).mae


def test_report_csv_denormalized_blanks_spread(split_report):
    lines = split_report.to_csv_text(denormalized=True).strip().split("\n")
    assert lines[1].split(",")[5] == ""


def test_report_table_lists_methods(split_report):
    table = split_report.format_table()
    for method in ("demandnet", "exp_smoothing", "ar"):
        assert method in table


def test_protocol_reruns_are_byte_identical(split_report):
    again = run_split80(_protocol_bundles(), methods=("demandnet", "exp_smoothing", "ar"),
                        seeds=(0, 1), cfg=_tiny_cfg())
    assert again.to_csv_text() == split_report.to_csv_text()


def test_unseen_protocol_scores_only_held_series():
    report = run_unseen(_protocol_bundles(), held_ids=("S2",), methods=("ar",),
                        seeds=(0,), cfg=_tiny_cfg())
    assert report.protocol == "unseen"
    assert np.isfinite(report.metric("ar", 4).mae)


@pytest.mark.parametrize("methods, seeds, match", [
    (("ar", "ar"), (0,), "methods must be distinct"),
    (("ar",), (1, 1), "seeds must be distinct"),
    (("prophet",), (0,), "methods must be among"),
])
def test_protocol_rejects_unknown_or_repeated_methods_and_seeds(methods, seeds, match):
    # each (method, seed) pair is one run: a repeat would be scored twice
    with pytest.raises(ValueError, match=match):
        run_split80(_protocol_bundles(), methods=methods, seeds=seeds, cfg=_tiny_cfg())


@pytest.mark.parametrize("horizons", [(4, 11), (11, 20)])
def test_an_unscorable_horizon_fails_before_any_fit(monkeypatch, horizons):
    # 100-day series have 10-day test ranges: no origin can score h = 11
    def unreachable(*args, **kwargs):
        raise AssertionError("reached a baseline or the trainer")

    monkeypatch.setattr(evaluation, "classical_eval_bundle", unreachable)
    monkeypatch.setattr(evaluation, "train_demandnet", unreachable)
    cfg = replace(_tiny_cfg(), horizons=horizons)
    with pytest.raises(UnscorableHorizonError, match=r"horizon 11\b.* 10 steps"):
        run_split80(_protocol_bundles(), methods=("demandnet", "ar"), seeds=(0,), cfg=cfg)


def test_unseen_protocol_rejects_unknown_held_id():
    with pytest.raises(ValueError, match="S9"):
        run_unseen(_protocol_bundles(), held_ids=("S9",), methods=("ar",),
                   seeds=(0,), cfg=_tiny_cfg())
