import multiprocessing

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from demandnet import features
from demandnet.data import SynthConfig, make_windows, synth_generate
from demandnet.features import (
    SaeArch,
    StackedAutoencoder,
    filter_static,
    rank_with_ties,
    shock_impact_summary,
    spearman,
    train_autoencoder,
)
from demandnet.nn import recurrent
from demandnet.nn.optim import DivergenceError, TrainConfig
from demandnet.rngs import stream
from gradcheck import grad_check
from tests.conftest import build_bundle, training_batches, usable_cpus, worker_passes


# ----------------------------------------------------------------------------
# ranks


def test_tied_ranks_hand_value():
    got = rank_with_ties(np.array([5.0, 7.0, 5.0, 9.0, 7.0, 7.0]))
    np.testing.assert_array_equal(got, [1.5, 4.0, 1.5, 6.0, 4.0, 4.0])


def test_ranks_match_scipy_average_method():
    rng = stream(0, "ranks")
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 8, size=n).astype(float)  # force plenty of ties
        np.testing.assert_allclose(
            rank_with_ties(x), scipy.stats.rankdata(x, method="average"), atol=1e-12
        )


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60))
def test_rank_sum_is_preserved_under_ties(values):
    ranks = rank_with_ties(np.array(values))
    n = len(values)
    assert ranks.sum() == pytest.approx(n * (n + 1) / 2, rel=1e-12)


def test_strictly_increasing_data_ranks_one_to_n():
    np.testing.assert_array_equal(rank_with_ties(np.array([3.0, 5.0, 9.0])), [1, 2, 3])


# ----------------------------------------------------------------------------
# rank correlation


def test_spearman_hand_value():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    assert spearman(x, y) == pytest.approx(0.8, abs=1e-15)


def test_spearman_perfect_and_reversed():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, x**3) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_matches_scipy_with_ties():
    rng = stream(1, "spearman")
    for _ in range(100):
        n = int(rng.integers(4, 50))
        x = np.round(rng.normal(size=n), 1)  # rounding injects ties
        y = np.round(rng.normal(size=n), 1)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_invariant_under_monotone_transforms():
    x = np.array([0.3, 1.2, -0.5, 2.0, 0.9])
    y = np.array([5.0, 1.0, 2.0, 4.0, 3.0])
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == base
    assert spearman(x**3, y) == base  # odd power, strictly increasing


def test_spearman_rejects_constant_input():
    with pytest.raises(ValueError):
        spearman(np.ones(5), np.arange(5.0))


def test_spearman_rejects_mismatched_or_short_input():
    with pytest.raises(ValueError):
        spearman(np.arange(4.0), np.arange(5.0))
    with pytest.raises(ValueError):
        spearman(np.array([1.0]), np.array([2.0]))


# ----------------------------------------------------------------------------
# static screening


def _screening_bundles(values_by_feature, impacts):
    """Bundles whose shock response is dialed in directly via the target."""
    bundles = []
    n = len(impacts)
    for k in range(n):
        length = 60
        onset = 30
        policy = np.zeros(length)
        policy[onset:] = 1.0
        pre = 10.0
        target = np.full(length, pre)
        target[onset:] = pre * impacts[k]
        statics = {name: vals[k] for name, vals in values_by_feature.items()}
        bundles.append(
            build_bundle(
                length=length,
                target=target,
                policy=policy,
                series_id=f"S{k}",
                statics=statics,
            )
        )
    return bundles


def test_shock_impact_summary_is_post_over_pre():
    bundles = _screening_bundles({"a": [1.0]}, impacts=[0.25])
    assert shock_impact_summary(bundles[0]) == pytest.approx(0.25, abs=1e-12)


def test_shock_impact_summary_reads_the_training_range_only():
    # 60 days train on [0, 48): days past 48 move neither the ratio nor the onset
    (bundle,) = _screening_bundles({"a": [1.0]}, impacts=[0.25])
    target = bundle.target.copy()
    target[48:] = 1e3
    late = build_bundle(length=60, target=target, policy=bundle.policy, series_id="L")
    assert shock_impact_summary(late) == pytest.approx(0.25, abs=1e-12)
    policy = np.zeros(60)
    policy[50:] = 1.0
    no_onset = build_bundle(length=60, target=target, policy=policy, series_id="N")
    assert shock_impact_summary(no_onset) == pytest.approx(target[:48].mean(), abs=1e-12)
    assert shock_impact_summary(no_onset, fractions=(0.9, 0.05, 0.05)) != pytest.approx(
        target[:48].mean())


def test_filter_retains_aligned_feature_and_drops_noise():
    impacts = [0.2, 0.4, 0.6, 0.8, 1.0]
    bundles = _screening_bundles(
        {
            "aligned": [1.0, 2.0, 3.0, 4.0, 5.0],  # rho = +1
            "noise": [3.0, 1.0, 4.0, 1.5, 2.0],
            "flat": [2.0, 2.0, 2.0, 2.0, 2.0],
        },
        impacts,
    )
    report = filter_static(bundles, band=0.3)
    corr = dict(zip(report.feature_names, report.correlations))
    reasons = dict(zip(report.feature_names, report.reasons))
    assert "aligned" in report.retained_names()
    assert "flat" not in report.retained_names()
    assert corr["aligned"] == pytest.approx(1.0, abs=1e-12)
    assert "constant" in reasons["flat"]


def test_band_boundary_is_inclusive():
    # statics ranked [2,5,3,4,1] against impacts ranked [1,2,3,4,5]:
    # sum d^2 = 26, rho = 1 - 156/120 = -0.3 exactly
    impacts = [0.1, 0.2, 0.3, 0.4, 0.5]
    feature = [2.0, 5.0, 3.0, 4.0, 1.0]
    bundles = _screening_bundles({"edge": feature}, impacts)
    report = filter_static(bundles, band=0.3)
    corr = dict(zip(report.feature_names, report.correlations))
    assert corr["edge"] == pytest.approx(-0.3, abs=1e-15)
    assert "edge" in report.retained_names()


def test_just_inside_band_is_dropped():
    impacts = [0.1, 0.2, 0.3, 0.4, 0.5]
    bundles = _screening_bundles({"weak": [2.0, 1.0, 4.0, 3.0, 5.0]}, impacts)
    report = filter_static(bundles, band=0.9)
    corr = dict(zip(report.feature_names, report.correlations))
    assert corr["weak"] == pytest.approx(0.8, abs=1e-12)
    assert "weak" not in report.retained_names()


def test_filter_needs_three_series():
    bundles = _screening_bundles({"a": [1.0, 2.0]}, impacts=[0.5, 0.7])
    with pytest.raises(ValueError):
        filter_static(bundles)


def test_filter_rejects_band_outside_unit_interval():
    bundles = _screening_bundles({"a": [1.0, 2.0, 3.0]}, impacts=[0.2, 0.5, 0.8])
    with pytest.raises(ValueError):
        filter_static(bundles, band=0.0)
    with pytest.raises(ValueError):
        filter_static(bundles, band=1.0)


def test_report_csv_is_deterministic():
    impacts = [0.2, 0.4, 0.6, 0.8, 1.0]
    bundles = _screening_bundles({"aligned": [1.0, 2.0, 3.0, 4.0, 5.0]}, impacts)
    a = filter_static(bundles).to_csv_text()
    b = filter_static(bundles).to_csv_text()
    assert a == b
    assert a.splitlines()[0] == "feature,correlation,retained,reason"


# ----------------------------------------------------------------------------
# stacked autoencoder


def _window_array(n_series=2, length=120, tau=12):
    cfg = SynthConfig(series_count=n_series, length=length, noise_sd=1.0)
    bundles = synth_generate(cfg, seed=3)
    rows = []
    for b in bundles:
        panel = b.channel_matrix()
        mu = panel.mean(axis=0)
        sd = np.where(panel.std(axis=0) == 0, 1.0, panel.std(axis=0))
        panel = (panel - mu) / sd
        for origin in make_windows(b, tau=tau, horizon=1).origins:
            rows.append(panel[origin - tau : origin])
    return np.stack(rows)


def test_autoencoder_shapes():
    W = _window_array()
    arch = SaeArch(widths=(8, 6), bottleneck=3, cell="gru")
    model = StackedAutoencoder(channels=W.shape[2], tau=W.shape[1], arch=arch,
                               rng=stream(0, "sae"))
    codes = model.encode(W[:5])
    assert codes.shape == (5, 3)
    recon = model.reconstruct(W[:5])
    assert recon.shape == (5, W.shape[1], W.shape[2])
    with pytest.raises(ValueError):
        model.encode(W[0])
    with pytest.raises(ValueError):
        model.decode(codes[0])


def test_autoencoder_training_reduces_reconstruction_error():
    W = _window_array()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=12,
                     batch_size=64, seed=0)
    model = train_autoencoder(W, tc, SaeArch(widths=(10, 8), bottleneck=4),
                              threshold_ratio=0.01)
    history = model.training.train_history
    assert history[-1] < history[0] * 0.8
    assert model.training.stop_reason in ("threshold", "epochs")


def test_autoencoder_threshold_stop_reports_reason():
    W = _window_array()
    tc = TrainConfig(optimizer="adam", learning_rate=2e-3, epochs=50,
                     batch_size=64, seed=0)
    model = train_autoencoder(W, tc, SaeArch(widths=(12, 8), bottleneck=4),
                              threshold_ratio=0.5)
    assert model.training.stop_reason == "threshold"
    assert model.training.val_history[-1] <= model.training.threshold
    assert model.training.epochs_run < 50


def test_autoencoder_divergence_raises():
    W = _window_array()
    tc = TrainConfig(optimizer="sgd", learning_rate=1e40, epochs=4,
                     batch_size=64, seed=0)
    with pytest.raises(DivergenceError, match="sae training loss became non-finite at epoch"):
        train_autoencoder(W, tc, SaeArch(widths=(6,), bottleneck=2), threshold_ratio=1e-9)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_autoencoder_gradients_match_finite_differences(cell):
    rng = stream(21, "sae", cell)
    arch = SaeArch(widths=(4, 3), bottleneck=2, cell=cell)
    model = StackedAutoencoder(channels=2, tau=5, arch=arch, rng=rng, lam=0.01)
    batch = rng.normal(size=(3, 5, 2))
    assert grad_check(model, batch, rng=rng) <= 1e-5


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_wavefront_training_gives_the_autoencoders_sequential_bits(monkeypatch, caplog, cell):
    # the decoder's worker takes initial states from the code; the encoder's none
    W = _window_array()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=3, batch_size=64, seed=0)
    passes = worker_passes(monkeypatch)
    batches = training_batches(monkeypatch, features)
    seeded, forward = [], recurrent._Worker.forward
    monkeypatch.setattr(recurrent._Worker, "forward", lambda self, X, masks, states: (
        seeded.append(states[0] is not None) or forward(self, X, masks, states)))
    trained = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        batches.clear()
        model = train_autoencoder(W, tc, SaeArch(widths=(6, 5), bottleneck=3, cell=cell),
                                  threshold_ratio=1e-9)
        trained.append([model.training, *(p.value for p in model.parameters())])
        assert bool(seeded) == (cpus == 2)
    assert set(seeded) == {False, True}
    assert multiprocessing.active_children() == []
    # every pass of both workers worked: a failed one is replayed, and the
    # rest of the training runs layer by layer, with the same bits
    assert not [r for r in caplog.records if "wavefront pass failed" in r.getMessage()]
    assert batches and passes == ["forward", "forward", "backward", "backward"] * len(batches)
    assert trained[0][0] == trained[1][0]
    for a, b in zip(trained[0][1:], trained[1][1:]):
        assert np.array_equal(a, b)


def test_autoencoder_needs_two_windows():
    with pytest.raises(ValueError):
        train_autoencoder(np.zeros((1, 4, 2)), TrainConfig(), SaeArch(widths=(3,), bottleneck=2))
