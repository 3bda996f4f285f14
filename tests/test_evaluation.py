import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandnet.config import PipelineConfig
from demandnet.evaluation import (
    EXP_SMOOTHING_ALPHAS,
    EXP_SMOOTHING_BETAS,
    _exp_smoothing_path,
    ar_forecast,
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
    path = _exp_smoothing_path(x, alpha, beta)
    for t in origins:
        want = _per_origin_es(x[:t], alpha, horizon, beta).tobytes()
        assert path(t, horizon).tobytes() == want
        assert exp_smoothing_forecast(x[:t], alpha, horizon, beta=beta).tobytes() == want


def test_es_origins_too_short_for_the_recursion_raise():
    series = np.arange(10.0)
    with pytest.raises(ValueError, match="non-empty"):
        exp_smoothing_forecast([], 0.5, 3)
    with pytest.raises(ValueError, match="non-empty"):
        tune_exp_smoothing(series, [0], 3, limit=10)
    with pytest.raises(ValueError, match="at least two observations"):
        exp_smoothing_forecast([1.0], 0.5, 3, beta=0.1)
    with pytest.raises(ValueError, match="at least two observations"):
        tune_exp_smoothing(series, [1], 3, limit=10)


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
    assert tune_exp_smoothing(series, [30, 34], 4, limit=40) == (0.1, None)


def test_tuning_matches_the_per_origin_grid_search():
    rng = np.random.default_rng(3)
    series = np.cumsum(rng.normal(size=120)) + np.sin(np.arange(120) / 4.0)
    origins, limit = range(90, 108), 108
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
        assert tune_exp_smoothing(series, origins, horizon, limit) == best


def test_tuning_never_reads_beyond_the_limit():
    rng = np.random.default_rng(0)
    base = np.sin(np.arange(60) / 3.0) + 0.1 * rng.normal(size=60)
    a = base.copy()
    b = base.copy()
    a[40:] = 1e6
    b[40:] = -1e6
    origins = [32, 36]
    assert tune_exp_smoothing(a, origins, 8, limit=40) == \
        tune_exp_smoothing(b, origins, 8, limit=40)
    assert tune_ar(a, origins, 8, limit=40) == tune_ar(b, origins, 8, limit=40)


def test_tuned_ar_order_comes_from_grid():
    rng = np.random.default_rng(1)
    series = np.sin(2 * np.pi * np.arange(80) / 7) + 0.05 * rng.normal(size=80)
    order = tune_ar(series, [60, 64], 8, limit=72)
    assert order in (1, 2, 3, 7, 14)


def test_tuning_requires_scorable_origins():
    with pytest.raises(ValueError, match="origins"):
        tune_exp_smoothing(np.arange(20.0), [19], 4, limit=19)


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
        dropout_candidates=None,
        optimize_p=False,
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
                       horizons=(4,), seeds=(0, 1), cfg=_tiny_cfg())


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
                        horizons=(4,), seeds=(0, 1), cfg=_tiny_cfg())
    assert again.to_csv_text() == split_report.to_csv_text()


def test_unseen_protocol_scores_only_held_series():
    report = run_unseen(_protocol_bundles(), held_ids=("S2",), methods=("ar",),
                        horizons=(4,), seeds=(0,), cfg=_tiny_cfg())
    assert report.protocol == "unseen"
    assert np.isfinite(report.metric("ar", 4).mae)


def test_unseen_protocol_rejects_unknown_held_id():
    with pytest.raises(ValueError, match="S9"):
        run_unseen(_protocol_bundles(), held_ids=("S9",), methods=("ar",),
                   horizons=(4,), seeds=(0,), cfg=_tiny_cfg())
