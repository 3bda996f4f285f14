import multiprocessing
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandnet import forecaster
from demandnet.data import (
    NormStats,
    SynthConfig,
    Windows,
    make_windows,
    prepare_bundle,
    synth_generate,
)
from demandnet.effects import EffectModel, marginal_effect, policy_delta
from demandnet.forecaster import (
    ForecasterArch,
    ForecasterModel,
    forecast_unseen,
    load_forecaster,
    mc_forecast,
    mc_forecast_batch,
    mc_moments,
    optimize_dropout,
    save_forecaster,
    train_forecaster,
    variance_vs_truth,
)
from demandnet.nn import recurrent
from demandnet.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from demandnet.nn.layers import sample_dropout_mask
from demandnet.nn.optim import DivergenceError, TrainConfig
from demandnet.nn.recurrent import GRULayer
from demandnet.rngs import stream

from conftest import build_bundle, training_batches, usable_cpus, worker_passes
from gradcheck import grad_check

TAU = 8
HORIZON = 6


def _effect_model():
    return EffectModel(("policy", "cases"), widths=(4,), rng=stream(0, "em"))


def _training_bundles():
    rng = stream(7, "forecaster-data")
    bundles = []
    for i in range(2):
        t = np.arange(100, dtype=float)
        target = 10.0 + 2.0 * np.sin(2 * np.pi * t / 7) + 0.1 * rng.normal(size=100)
        policy = np.zeros(100)
        policy[40:60] = 1.0
        target[40:60] -= 1.5
        bundles.append(build_bundle(length=100, policy=policy, target=target,
                                    series_id=f"T{i}"))
    return bundles


def _train(arch=None, effect_model=None, epochs=3, optimizer="adam",
           learning_rate=3e-3, seed=0):
    arch = arch or ForecasterArch(cell="gru", hidden=8, layers=1, horizon=HORIZON,
                                  dropout=0.1, use_policy_skip=False)
    cfg = TrainConfig(optimizer=optimizer, learning_rate=learning_rate,
                      epochs=epochs, batch_size=64, seed=seed)
    return train_forecaster(_training_bundles(), cfg, arch, effect_model, tau=TAU)


@pytest.fixture(scope="module")
def plain_model():
    return _train()


@pytest.fixture(scope="module")
def skip_model():
    arch = ForecasterArch(cell="lstm", hidden=8, layers=1, horizon=HORIZON,
                          dropout=0.1, use_policy_skip=True)
    return _train(arch=arch, effect_model=_effect_model())


# ----------------------------------------------------------------------------
# architecture validation


def test_arch_published_defaults():
    arch = ForecasterArch()
    assert arch.cell == "gru"
    assert arch.hidden == 128
    assert arch.layers == 2
    assert arch.horizon == 80
    assert arch.dropout == 0.1
    assert arch.use_policy_skip is True


@pytest.mark.parametrize("kwargs", [
    {"cell": "rnn"},
    {"hidden": 0},
    {"layers": 0},
    {"horizon": 0},
    {"dropout": 1.0},
    {"dropout": -0.1},
])
def test_arch_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        ForecasterArch(**kwargs)


def test_model_requires_effect_model_for_skip():
    arch = ForecasterArch(hidden=4, layers=1, horizon=2, use_policy_skip=True)
    with pytest.raises(ValueError, match="effect model"):
        ForecasterModel(arch, tau=4, channel_names=("target", "policy"),
                        policy_channel=1)


def test_model_rejects_target_as_policy_channel():
    arch = ForecasterArch(hidden=4, layers=1, horizon=2, use_policy_skip=False)
    with pytest.raises(ValueError, match="policy_channel"):
        ForecasterModel(arch, tau=4, channel_names=("target", "policy"),
                        policy_channel=0)


# ----------------------------------------------------------------------------
# forecast adjustment


def test_additive_adjustment_shifts_forecast():
    # the skip connection adds the effects model's shift relative to policy 0
    skip = _untrained_model("gru")
    plain = _untrained_model("gru", use_policy_skip=False)
    rng = stream(5, "additive")
    windows, policies = rng.normal(size=(3, TAU, 2)), rng.uniform(size=(3, HORIZON))
    got = mc_forecast_batch(skip, windows, policies, kappa=4, p=0.2, seed=1)
    base = mc_forecast_batch(plain, windows, policies, kappa=4, p=0.2, seed=1)
    assert np.array_equal(got, base + policy_delta(skip.effect_model, policies))


def test_policy_adjustment_follows_the_marginal_effect():
    em = _effect_model()
    base = np.array([1.0, 1.0, 1.0, 1.0])
    policies = np.array([0.0, 0.25, 0.5, 1.0])
    got = base + policy_delta(em, policies)
    curve = marginal_effect(em, "policy", np.array([0.0, *policies]))
    np.testing.assert_allclose(got, base + curve.values[1:] - curve.values[0],
                               rtol=0, atol=1e-12)


def test_mean_policy_path_clamps_beyond_history():
    arch = ForecasterArch(hidden=4, layers=1, horizon=3, use_policy_skip=False)
    model = ForecasterModel(arch, tau=4, channel_names=("target", "policy"),
                            policy_channel=1)
    model.mean_policy = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(model.mean_policy_at(2, 3), [2.0, 2.0, 2.0])
    assert np.array_equal(model.mean_policy_at(0, 2), [0.0, 1.0])


# ----------------------------------------------------------------------------
# Monte Carlo dropout forecasts


def _held_window(model):
    bundle = _training_bundles()[0]
    stats = model.norm_stats[bundle.id]
    nb = stats.normalize_bundle(bundle)
    return nb.channel_matrix()[-TAU:], bundle.policy[-HORIZON:]


def test_zero_dropout_gives_zero_spread(plain_model):
    window, pol = _held_window(plain_model)
    dist = mc_forecast(plain_model, window, pol, kappa=16, p=0.0, seed=3)
    assert np.all(dist.sd == 0.0)
    assert np.array_equal(dist.samples[0], dist.samples[-1])


def test_single_pass_gives_zero_spread(plain_model):
    window, pol = _held_window(plain_model)
    dist = mc_forecast(plain_model, window, pol, kappa=1, p=0.3, seed=3)
    assert dist.samples.shape == (1, HORIZON)
    assert np.all(dist.sd == 0.0)


def test_variance_decomposes_into_spread_and_bias(plain_model):
    window, pol = _held_window(plain_model)
    dist = mc_forecast(plain_model, window, pol, kappa=20, p=0.2, seed=5)
    truth = np.linspace(-1.0, 1.0, HORIZON)
    got = variance_vs_truth(dist, truth)
    want = dist.sd**2 + (dist.mean - truth) ** 2
    assert np.max(np.abs(got - want)) <= 1e-12


def test_batched_forecast_matches_single_window_bitwise(plain_model):
    window, pol = _held_window(plain_model)
    windows = np.stack([window, window * 0.5])
    policies = np.stack([pol, pol])
    batch = mc_forecast_batch(plain_model, windows, policies, kappa=8, p=0.2, seed=9)
    for i in range(2):
        single = mc_forecast(plain_model, windows[i], policies[i],
                             kappa=8, p=0.2, seed=9)
        assert np.array_equal(batch[:, i, :], single.samples)


def _untrained_model(cell, use_policy_skip=True):
    arch = ForecasterArch(cell=cell, hidden=16, layers=2, horizon=HORIZON, dropout=0.1,
                          use_policy_skip=use_policy_skip)
    effects = EffectModel(("policy", "cases"), widths=(64,), rng=stream(1, "em", cell))
    effects.feature_means = np.array([0.3, 1.7])
    return ForecasterModel(arch, tau=TAU, channel_names=("target", "policy"),
                           policy_channel=1, effect_model=effects, rng=stream(1, cell))


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize(
    "n, kappa",
    [(1, 8), (2, 8), (5, 8), (1, 1), (2, 1), (5, 1)],
    ids=["1", "2", "5", "1-kappa1", "2-kappa1", "5-kappa1"],
)
def test_batched_forecast_with_policy_skip_matches_single_window_bitwise(cell, n, kappa):
    # at kappa = 1 a lone window is one row through every layer and the readout
    model = _untrained_model(cell)
    rng = stream(2, "skip-batch", cell, n)
    windows = rng.normal(size=(n, TAU, 2))
    policies = rng.uniform(size=(n, HORIZON))  # a different path per window
    batch = mc_forecast_batch(model, windows, policies, kappa=kappa, p=0.2, seed=4)
    for i in range(n):
        single = mc_forecast(model, windows[i], policies[i], kappa=kappa, p=0.2, seed=4)
        assert np.array_equal(batch[:, i, :], single.samples), i


def _per_pass_oracle(model, windows, policies, kappa, p, seed):
    """The loop mc_forecast_batch replaced: pass k draws each layer's mask
    from the stream (seed, "mc-pass", k) and runs the N windows alone."""
    W = np.repeat(windows, 2, axis=0) if len(windows) == 1 else windows
    passes = []
    for k in range(kappa):
        rng = stream(seed, "mc-pass", k)
        masks = [sample_dropout_mask((w,), p, rng) for w in model.stack.widths]
        passes.append(model._forward_base(W, masks=masks)[: len(windows)])
    return np.stack(passes) + model.policy_deltas(policies)[None]


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("n, kappa, mc_rows", [(1, 9, 4), (3, 5, 7), (5, 3, 4)],
                         ids=["last-group-one-row", "two-passes-a-group", "wider-than-a-group"])
def test_grouped_mc_passes_match_the_per_pass_loop_bitwise(monkeypatch, cell, n, kappa, mc_rows):
    monkeypatch.setattr(recurrent, "MC_ROWS", mc_rows)
    model = _untrained_model(cell)
    rng = stream(5, "groups", cell, n)
    windows = rng.normal(size=(n, TAU, 2))
    policies = rng.uniform(size=(n, HORIZON))
    batch = mc_forecast_batch(model, windows, policies, kappa=kappa, p=0.3, seed=6)
    oracle = _per_pass_oracle(model, windows, policies, kappa, 0.3, 6)
    assert np.array_equal(batch, oracle)


@pytest.mark.parametrize("n, mc_rows, groups", [
    pytest.param(1, 512, [10], id="1"),
    pytest.param(3, 512, [30], id="3"),
    # a last group of one row runs as two copies
    pytest.param(1, 3, [3, 3, 3, 2], id="1-groups"),
    pytest.param(3, 7, [6] * 5, id="3-groups"),
])
def test_mc_forecast_runs_layer_zero_once_per_window(monkeypatch, n, mc_rows, groups):
    monkeypatch.setattr(recurrent, "MC_ROWS", mc_rows)
    model = _untrained_model("gru", use_policy_skip=False)
    rows = []
    original = GRULayer.forward

    def counting_forward(layer, X, *args, **kwargs):
        rows.append((layer.name, X.shape[1]))
        return original(layer, X, *args, **kwargs)

    monkeypatch.setattr(GRULayer, "forward", counting_forward)
    mc_forecast_batch(model, np.ones((n, TAU, 2)), np.zeros((n, HORIZON)),
                      kappa=10, p=0.2, seed=0)
    # one row is doubled so the matmul takes the same gemm path as a batch
    assert rows == [("fore.0", max(n, 2))] + [("fore.1", g) for g in groups]


def test_panel_sized_mc_call_keeps_its_memory_bounded():
    # 41 windows x 100 passes through a 2x24 GRU held each layer's full
    # (tau, 4100, 24) output, about 51 MB at its peak, before the passes ran
    # in groups of MC_ROWS rows (about 7 MB)
    arch = ForecasterArch(cell="gru", hidden=24, layers=2, horizon=80, dropout=0.1,
                          use_policy_skip=False)
    model = ForecasterModel(arch, tau=24, channel_names=("target", "policy"),
                            policy_channel=1, rng=stream(8, "panel"))
    windows = stream(8, "windows").normal(size=(41, 24, 2))
    tracemalloc.start()
    try:
        mc_forecast_batch(model, windows, np.zeros((41, 80)), kappa=100, p=0.1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6, peak


def test_forecast_seed_controls_sampling(plain_model):
    window, pol = _held_window(plain_model)
    a = mc_forecast(plain_model, window, pol, kappa=8, p=0.3, seed=0)
    b = mc_forecast(plain_model, window, pol, kappa=8, p=0.3, seed=0)
    c = mc_forecast(plain_model, window, pol, kappa=8, p=0.3, seed=1)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_forecast_records_sampling_settings(plain_model):
    window, pol = _held_window(plain_model)
    dist = mc_forecast(plain_model, window, pol, kappa=8, p=0.25, seed=0)
    assert dist.p == 0.25
    assert dist.kappa == 8


def test_forecast_rejects_flat_window(plain_model):
    with pytest.raises(ValueError, match="window"):
        mc_forecast(plain_model, np.zeros(TAU), np.zeros(HORIZON), kappa=2)


def test_dropout_search_picks_candidate_and_stores_it(plain_model):
    window, pol = _held_window(plain_model)
    windows = np.stack([window, window])
    policies = np.stack([pol, pol])
    truths = np.stack([np.zeros(HORIZON), np.ones(HORIZON)])
    best = optimize_dropout(plain_model, windows, policies, truths,
                            candidates=(0.05, 0.3), kappa=8, seed=0)
    assert best in (0.05, 0.3)
    assert plain_model.mc_p == best


def _nll_pick(model, windows, policies, truths, candidates, kappa, seed):
    """The rate optimize_dropout picks, scoring each candidate with its own
    mc_forecast_batch call."""
    best_p, best_nll = None, np.inf
    for cand in sorted(candidates):
        mean, sd = mc_moments(mc_forecast_batch(model, windows, policies, kappa=kappa,
                                                p=cand, seed=seed))
        sigma = sd + 1e-6
        nll = float(np.mean(0.5 * np.log(2.0 * np.pi * sigma**2)
                            + (truths - mean) ** 2 / (2.0 * sigma**2)))
        if nll < best_nll:
            best_p, best_nll = cand, nll
    return best_p


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dropout_search_draws_one_block_and_runs_layer_zero_once(seed, monkeypatch):
    model = _untrained_model("gru")
    rng = stream(seed, "search")
    windows, policies = rng.normal(size=(3, TAU, 2)), rng.uniform(size=(3, HORIZON))
    truths = rng.normal(size=(3, HORIZON))
    candidates = (0.0, 0.05, 0.2, 0.5)
    expected = _nll_pick(model, windows, policies, truths, candidates, kappa=8, seed=seed)
    blocks, layer0 = [], []
    real_uniforms, real_forward = forecaster.stream_uniforms, GRULayer.forward
    monkeypatch.setattr(forecaster, "stream_uniforms",
                        lambda *a, **k: blocks.append(1) or real_uniforms(*a, **k))
    monkeypatch.setattr(GRULayer, "forward", lambda layer, *a, **k: (
        layer0.append(1) if layer.name == "fore.0" else None) or real_forward(layer, *a, **k))
    got = optimize_dropout(model, windows, policies, truths, candidates=candidates,
                           kappa=8, seed=seed)
    assert (len(blocks), len(layer0)) == (1, 1)
    assert got == expected == model.mc_p


def test_forecast_unseen_normalizes_only_the_window(plain_model, monkeypatch):
    # a series the model trained on and one it never saw: the window is
    # bitwise the rows of the whole normalized bundle
    seen = _training_bundles()[0]
    unseen = build_bundle(length=100, target=stream(3, "unseen").normal(size=100) + 5.0,
                          series_id="T9")
    expected = {
        seen.id: plain_model.norm_stats[seen.id].normalize_bundle(seen),
        unseen.id: prepare_bundle(unseen)[2],
    }
    windows = []
    real = forecaster.mc_forecast
    monkeypatch.setattr(forecaster, "mc_forecast",
                        lambda model, window, *a, **k: windows.append(window)
                        or real(model, window, *a, **k))

    def whole_bundle(*args):
        raise AssertionError("normalized the whole bundle")

    monkeypatch.setattr(NormStats, "normalize_bundle", whole_bundle)
    for bundle in (seen, unseen):
        for origin in (TAU, 50, 90):
            forecast_unseen(plain_model, bundle, origin=origin, kappa=2, p=0.1)
            want = expected[bundle.id].channel_matrix()[origin - TAU : origin]
            assert windows[-1].tobytes() == want.tobytes()


# ----------------------------------------------------------------------------
# training


def test_training_tracks_histories_and_best_epoch(plain_model):
    history = plain_model.training
    assert len(history.train_history) == 3
    assert len(history.val_history) == 3
    assert history.best_epoch == int(np.argmin(history.val_history))
    assert np.all(np.isfinite(history.train_history))


def test_training_stores_per_series_normalization(plain_model):
    assert set(plain_model.norm_stats) == {"T0", "T1"}
    # the mean policy path covers the 100-day series' training range, days 0-79
    assert plain_model.mean_policy.size == 80


def test_training_rejects_mismatched_channel_sets():
    bundles = _training_bundles()
    odd = build_bundle(length=100, series_id="T9")
    odd = type(odd)(**{**odd.__dict__, "covariate_names": ("policy", "mobility")})
    arch = ForecasterArch(hidden=4, layers=1, horizon=2, use_policy_skip=False)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.01, epochs=1, batch_size=32)
    with pytest.raises(ValueError, match="channels"):
        train_forecaster(bundles + [odd], cfg, arch, None, tau=4)


def test_training_rejects_windowless_series():
    # Windows exist (30 + 60 <= 100) but none end inside the training range.
    bundles = [build_bundle(length=100, series_id="T0")]
    arch = ForecasterArch(hidden=4, layers=1, horizon=60, use_policy_skip=False)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.01, epochs=1, batch_size=32)
    with pytest.raises(ValueError, match="no training windows"):
        train_forecaster(bundles, cfg, arch, None, tau=30)


def test_the_per_day_policy_shift_gathers_the_windowed_shift_bitwise():
    model = _untrained_model("lstm")
    rng = stream(4, "daily-shift")
    bundles = [build_bundle(length=n, policy=np.round(rng.uniform(size=n), 2),
                            series_id=f"T{i}") for i, n in enumerate((40, 55, 70))]
    windows = Windows.concat([make_windows(b, TAU, HORIZON, span=range(5, 60))
                              for b in bundles])
    shift = model.policy_deltas(windows.policy)
    assert shift.shape == windows.policy.shape
    want = model.policy_deltas(windows.policies)
    assert windows.take(daily=shift)[1].tobytes() == want.tobytes()
    rows = np.array([3, 0, 3, len(windows) - 1])
    assert windows.take(rows, shift)[1].tobytes() == want[rows].tobytes()


def test_a_desk_training_epoch_holds_one_batch_of_windows():
    # every training window stored as its own copy peaked at 30.5 MB here;
    # gathered per batch, the BPTT cache of one batch dominates (about 10 MB)
    bundles = synth_generate(SynthConfig(), seed=0)
    arch = ForecasterArch(cell="gru", hidden=24, layers=2, horizon=80, dropout=0.1)
    effects = EffectModel(("policy", "cases", "mobility"), widths=(16, 16),
                          rng=stream(0, "desk-effects"))
    cfg = TrainConfig(optimizer="adam", learning_rate=1e-3, epochs=1, batch_size=128)
    tracemalloc.start()
    try:
        train_forecaster(bundles, cfg, arch, effects, tau=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6, peak


def test_training_raises_on_divergence():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            _train(epochs=2, optimizer="sgd", learning_rate=1e40)


def test_wavefront_training_gives_the_sequential_parameters(monkeypatch, caplog):
    arch = ForecasterArch(cell="lstm", hidden=8, layers=2, horizon=HORIZON,
                          dropout=0.1, use_policy_skip=False)
    hashes, passes = [], worker_passes(monkeypatch)
    batches = training_batches(monkeypatch, forecaster)
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        batches.clear()
        hashes.append(_train(arch=arch, epochs=2).param_hash())
        assert bool(passes) == (cpus == 2)  # the second run trained through a worker
    assert multiprocessing.active_children() == []
    assert hashes[0] == hashes[1]
    # every pass worked: a failed one is replayed, and the rest of the
    # training runs layer by layer, with the same bits
    assert not [r for r in caplog.records if "wavefront pass failed" in r.getMessage()]
    assert batches and passes == ["forward", "backward"] * len(batches)


WAVEFRONT_ARCH = ForecasterArch(cell="lstm", hidden=8, layers=2, horizon=HORIZON,
                                dropout=0.1, use_policy_skip=False)


@pytest.fixture(scope="module")
def sequential_hash():
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 1)
        return _train(arch=WAVEFRONT_ARCH, epochs=2).param_hash()


@given(pass_=st.integers(min_value=0, max_value=99),
       direction=st.sampled_from(["forward", "backward"]),
       step=st.integers(min_value=0, max_value=TAU - 1))
@settings(max_examples=10)
def test_a_worker_killed_at_any_step_leaves_the_sequential_parameters(
        sequential_hash, pass_, direction, step):
    # SIGKILL the worker as the top layer hands over step ``step`` of the
    # ``pass_``-th wavefront pass in ``direction``: that pass replays layer by
    # layer, the rest of the training runs layer by layer, and no bit changes
    caller = os.getpid()
    with pytest.MonkeyPatch.context() as mp:
        passes = worker_passes(mp)
        warned = []
        mp.setattr(recurrent.log, "warning", lambda *args: warned.append(args))
        target = 2 * (pass_ % 6) + (direction == "backward")
        post = recurrent._Relay.post

        def post_or_kill(relay, t):
            if os.getpid() == caller and len(passes) == target + 1 and t == step:
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGKILL)
            post(relay, t)

        mp.setattr(recurrent._Relay, "post", post_or_kill)
        model = _train(arch=WAVEFRONT_ARCH, epochs=2)
    assert passes[: target + 1] == (["forward", "backward"] * 6)[: target + 1]
    assert len(warned) == 1
    assert multiprocessing.active_children() == []
    assert model.param_hash() == sequential_hash


def test_gradients_match_finite_differences(skip_model):
    windows, policies, labels = _grad_batch(skip_model)
    worst = grad_check(skip_model, (windows, policies, labels),
                       epsilon=1e-5, rng=stream(0, "fd-fore"))
    assert worst <= 1e-5


def _grad_batch(model):
    bundle = _training_bundles()[0]
    stats = model.norm_stats[bundle.id]
    matrix = stats.normalize_bundle(bundle).channel_matrix()
    origins = (TAU, TAU + 5, TAU + 11)
    windows = np.stack([matrix[o - TAU : o] for o in origins])
    policies = np.stack([bundle.policy[o : o + HORIZON] for o in origins])
    labels = np.stack([matrix[o : o + HORIZON, 0] for o in origins])
    return windows, policies, labels


# ----------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_is_bit_identical(skip_model, tmp_path):
    path = tmp_path / "fore.npz"
    skip_model.mc_p = 0.2
    save_forecaster(skip_model, path)
    loaded = load_forecaster(path)

    assert loaded.arch == skip_model.arch
    assert loaded.param_hash() == skip_model.param_hash()
    assert loaded.mc_p == 0.2
    assert np.array_equal(loaded.mean_policy, skip_model.mean_policy)
    assert set(loaded.norm_stats) == set(skip_model.norm_stats)

    bundle = _training_bundles()[1]
    before = forecast_unseen(skip_model, bundle, kappa=8, p=0.2, seed=4)
    after = forecast_unseen(loaded, bundle, kappa=8, p=0.2, seed=4)
    assert np.array_equal(before.samples, after.samples)


def test_checkpoint_without_a_dropout_rate_forecasts_at_the_arch_rate(tmp_path):
    # a bare train_forecaster model used to store "mc_p": null
    model = _train()
    assert model.mc_p == model.arch.dropout == 0.1
    path = tmp_path / "fore.npz"
    save_forecaster(model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    meta["mc_p"] = None
    save_checkpoint(path, "forecaster", meta, arrays)
    loaded = load_forecaster(path)
    assert loaded.mc_p == loaded.arch.dropout

    model.mc_p = 0.1
    bundle = _training_bundles()[1]
    stored = forecast_unseen(loaded, bundle, kappa=8, seed=4)
    explicit = forecast_unseen(model, bundle, kappa=8, seed=4)
    assert stored.p == explicit.p == 0.1
    assert stored.sd.max() > 0.0
    assert np.array_equal(stored.samples, explicit.samples)


def test_checkpoint_with_a_policy_polynomial_is_refused(skip_model, tmp_path):
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    meta["effects"]["policy_fit"] = None  # how older files store "no polynomial"
    save_checkpoint(path, "forecaster", meta, arrays)
    assert load_forecaster(path).param_hash() == skip_model.param_hash()
    meta["effects"]["policy_fit"] = {"coefficients": [0.0, 2.0], "degree": 1,
                                     "max_residual": 0.0}
    save_checkpoint(path, "forecaster", meta, arrays)
    with pytest.raises(CheckpointError, match="policy_fit"):
        load_forecaster(path)


def test_checkpoint_with_older_stats_keys_loads(skip_model, tmp_path):
    # earlier files also stored constant/identity/fitted per series; they
    # never drove a number, so loading ignores them
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    for stats in meta["norm_stats"].values():
        n = len(stats["location"])
        stats.update(constant=[False] * n, identity=[False] * n, fitted=[0, 10])
    save_checkpoint(path, "forecaster", meta, arrays)
    loaded = load_forecaster(path)
    for sid, stats in skip_model.norm_stats.items():
        assert loaded.norm_stats[sid].location.tobytes() == stats.location.tobytes()
        assert loaded.norm_stats[sid].scale.tobytes() == stats.scale.tobytes()


def test_checkpoint_with_retired_arch_keys_loads(skip_model, tmp_path):
    # earlier files also stored the skip rule and its reference level; the
    # values every model used load unchanged
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    meta["arch"].update(adjust_mode="additive", reference_policy=0.0)
    save_checkpoint(path, "forecaster", meta, arrays)
    loaded = load_forecaster(path)
    assert loaded.arch == skip_model.arch
    assert loaded.param_hash() == skip_model.param_hash()


@pytest.mark.parametrize("key, value", [("adjust_mode", "multiplicative"),
                                        ("reference_policy", 0.3)])
def test_checkpoint_with_another_skip_rule_is_refused(skip_model, tmp_path, key, value):
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    meta["arch"][key] = value
    save_checkpoint(path, "forecaster", meta, arrays)
    with pytest.raises(CheckpointError, match=key):
        load_forecaster(path)


def test_skip_checkpoint_without_an_effects_model_is_refused(skip_model, tmp_path):
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    meta["effects"] = None
    save_checkpoint(path, "forecaster", meta, arrays)
    with pytest.raises(CheckpointError, match="effect model"):
        load_forecaster(path)


def test_skipless_checkpoint_with_an_effects_model_adds_no_shift(tmp_path):
    # older files kept the effects model on a forecaster whose skip was off
    arch = ForecasterArch(cell="gru", hidden=4, layers=1, horizon=HORIZON,
                          use_policy_skip=False)
    model = ForecasterModel(arch, tau=TAU, channel_names=("target", "policy"),
                            policy_channel=1, effect_model=_effect_model(),
                            rng=stream(3, "skipless"))
    save_forecaster(model, tmp_path / "fore.npz")
    loaded = load_forecaster(tmp_path / "fore.npz")
    policies = stream(4, "skipless").uniform(size=(3, HORIZON))
    assert np.array_equal(loaded.policy_deltas(policies), np.zeros((3, HORIZON)))
    assert loaded.param_hash() == model.param_hash()


def test_effects_without_feature_means_is_a_checkpoint_error(skip_model, tmp_path):
    path = tmp_path / "fore.npz"
    save_forecaster(skip_model, path)
    meta, arrays = load_checkpoint(path, expected_kind="forecaster")
    del arrays["effects::feature_means"]
    save_checkpoint(path, "forecaster", meta, arrays)
    with pytest.raises(CheckpointError, match="feature_means"):
        load_forecaster(path)


def _small_checkpoint_bytes(directory) -> bytes:
    arch = ForecasterArch(cell="gru", hidden=4, layers=1, horizon=3, dropout=0.1)
    effects = EffectModel(("policy", "cases"), widths=(4,), rng=stream(3, "em"))
    effects.feature_means = np.array([0.3, 1.7])
    model = ForecasterModel(arch, tau=4, channel_names=("target", "policy"),
                            policy_channel=1, effect_model=effects, rng=stream(3, "gru"))
    path = directory / "fore.npz"
    save_forecaster(model, path)
    return path.read_bytes()


@given(st.data())
def test_a_truncated_checkpoint_is_a_checkpoint_error(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("truncated")
    whole = _small_checkpoint_bytes(directory)
    path = directory / "cut.npz"
    path.write_bytes(whole[: data.draw(st.integers(0, len(whole) - 1), label="length")])
    with pytest.raises(CheckpointError):
        load_forecaster(path)


# ----------------------------------------------------------------------------
# forecasting unseen series


def test_unseen_forecast_defaults_to_test_boundary(plain_model):
    bundle = build_bundle(length=100, series_id="U0")
    dist = forecast_unseen(plain_model, bundle, kappa=4, p=0.1, seed=2)
    explicit = forecast_unseen(plain_model, bundle, origin=90, kappa=4, p=0.1, seed=2)
    assert dist.mean.shape == (HORIZON,)
    assert np.array_equal(dist.samples, explicit.samples)


def test_unseen_dummy_policy_uses_mean_training_path(plain_model):
    bundle = build_bundle(length=100, series_id="U1")
    dummy = forecast_unseen(plain_model, bundle, policy_mode="dummy",
                            origin=80, kappa=4, p=0.1, seed=2)
    path = plain_model.mean_policy_at(80, HORIZON)
    scheduled = forecast_unseen(plain_model, bundle, policy_mode="scheduled",
                                policies=path, origin=80, kappa=4, p=0.1, seed=2)
    assert np.array_equal(dummy.samples, scheduled.samples)


def test_unseen_scheduled_mode_requires_policies(plain_model):
    bundle = build_bundle(length=100, series_id="U2")
    with pytest.raises(ValueError, match="scheduled"):
        forecast_unseen(plain_model, bundle, policy_mode="scheduled", origin=80)


def test_unseen_rejects_unknown_policy_mode(plain_model):
    bundle = build_bundle(length=100, series_id="U3")
    with pytest.raises(ValueError, match="policy_mode"):
        forecast_unseen(plain_model, bundle, policy_mode="oracle", origin=80)


def test_unseen_rejects_channel_mismatch(plain_model):
    bundle = build_bundle(length=100, series_id="U4")
    odd = type(bundle)(**{**bundle.__dict__, "covariate_names": ("policy", "mobility")})
    with pytest.raises(ValueError, match="channels"):
        forecast_unseen(plain_model, odd)


def test_forecast_rejects_policy_column_mismatch(plain_model):
    bundle = build_bundle(length=100, series_id="U6")
    odd = type(bundle)(**{**bundle.__dict__, "policy_index": 1})
    with pytest.raises(ValueError, match="policy in channel"):
        forecast_unseen(plain_model, odd, origin=80)


def test_seen_series_forecast_uses_stored_stats_whatever_the_fractions(plain_model):
    # a series the model trained on keeps its training-time normalization, so
    # other split fractions cannot move a forecast at an explicit origin
    bundle = _training_bundles()[0]
    default = forecast_unseen(plain_model, bundle, origin=80, kappa=4, p=0.1, seed=2)
    other = forecast_unseen(plain_model, bundle, origin=80, kappa=4, p=0.1, seed=2,
                            fractions=(0.7, 0.2, 0.1))
    assert np.array_equal(default.samples, other.samples)


def test_unseen_validates_origin_bounds(plain_model):
    bundle = build_bundle(length=100, series_id="U5")
    with pytest.raises(ValueError, match="origin"):
        forecast_unseen(plain_model, bundle, origin=TAU - 1)
    with pytest.raises(ValueError, match="origin"):
        forecast_unseen(plain_model, bundle, origin=101)
    with pytest.raises(ValueError, match="known policies unavailable"):
        forecast_unseen(plain_model, bundle, origin=99)
