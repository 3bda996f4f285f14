
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from demandnet.data import (
    DataError,
    GapError,
    NormStats,
    ParseError,
    PolicyRangeError,
    SchemaError,
    SeriesBundle,
    STATIC_FEATURE_NAMES,
    SynthConfig,
    Windows,
    default_policy_schedule,
    fit_norm_stats,
    holdout_series,
    load_dataset,
    load_sidecar,
    make_windows,
    policy_from_schedule,
    post_shock_ratio,
    split_time,
    synth_generate,
    write_dataset_csv,
    write_sidecar_csv,
)
from tests.conftest import build_bundle


# ----------------------------------------------------------------------------
# splits


def test_split_101_gives_80_10_11():
    split = split_time(101)
    assert split.train == range(0, 80)
    assert split.validation == range(80, 90)
    assert split.test == range(90, 101)


def test_split_accepts_bundle_argument(tiny_bundle):
    assert split_time(tiny_bundle) == split_time(tiny_bundle.length)


@given(st.integers(min_value=10, max_value=5000))
def test_split_partitions_the_index_range(length):
    split = split_time(length)
    assert split.train.start == 0
    assert split.train.stop == split.validation.start
    assert split.validation.stop == split.test.start
    assert split.test.stop == length
    assert len(split.train) > 0 and len(split.validation) > 0 and len(split.test) > 0


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split_time(100, fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split_time(100, fractions=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        split_time(3)


# ----------------------------------------------------------------------------
# bundles


def test_bundle_arrays_are_read_only(tiny_bundle):
    with pytest.raises(ValueError):
        tiny_bundle.target[0] = 99.0


def test_bundle_rejects_out_of_range_policy():
    with pytest.raises(PolicyRangeError):
        build_bundle(policy=np.full(60, 1.5))


def test_bundle_rejects_shape_mismatch():
    with pytest.raises(SchemaError):
        SeriesBundle(
            id="x",
            target=np.ones(3),
            covariates=np.ones((4, 1)),
            covariate_names=("policy",),
            policy_index=0,
        )


def test_bundle_rejects_non_finite():
    target = np.ones(60)
    target[5] = np.nan
    with pytest.raises(SchemaError):
        build_bundle(target=target)


def test_channel_matrix_puts_target_first(tiny_bundle):
    panel = tiny_bundle.channel_matrix()
    assert panel.shape == (tiny_bundle.length, 3)
    np.testing.assert_array_equal(panel[:, 0], tiny_bundle.target)
    assert tiny_bundle.channel_names() == ("target", "policy", "cases")


# ----------------------------------------------------------------------------
# normalisation


def test_norm_stats_zscore_hand_values():
    # train range of [0,2,0,2,...] has mean 1 and population sd 1
    target = np.tile([0.0, 2.0], 30)
    bundle = build_bundle(length=60, target=target, policy=np.zeros(60))
    stats = fit_norm_stats(bundle, split_time(bundle))
    assert stats.location[0] == 1.0
    assert stats.scale[0] == 1.0
    np.testing.assert_array_equal(stats.normalize_target(np.array([0.0, 2.0])), [-1.0, 1.0])


def test_policy_channel_passes_through_bitwise(tiny_bundle):
    stats = fit_norm_stats(tiny_bundle, split_time(tiny_bundle), identity_channels=(1,))
    normalized = stats.normalize_bundle(tiny_bundle)
    np.testing.assert_array_equal(normalized.policy, tiny_bundle.policy)
    assert normalized.policy.tobytes() == tiny_bundle.policy.tobytes()


def test_constant_channel_gets_unit_scale():
    bundle = build_bundle(target=np.full(60, 5.0), policy=np.zeros(60))
    stats = fit_norm_stats(bundle, split_time(bundle))
    assert stats.scale[0] == 1.0
    np.testing.assert_array_equal(stats.normalize_target(bundle.target), np.zeros(60))


def test_stats_come_from_the_train_range_only():
    base = build_bundle()
    tampered_target = base.target.copy()
    tampered_target[-6:] += 500.0  # inside the test fraction
    tampered = build_bundle(target=tampered_target)
    a = fit_norm_stats(base, split_time(base))
    b = fit_norm_stats(tampered, split_time(tampered))
    np.testing.assert_array_equal(a.location, b.location)
    np.testing.assert_array_equal(a.scale, b.scale)


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.1, max_value=20))
def test_normalize_round_trips(loc, scale):
    stats = NormStats(
        location=np.array([loc, 0.0]),
        scale=np.array([scale, 1.0]),
    )
    x = np.linspace(-3, 3, 11)
    back = stats.denormalize_target(stats.normalize_target(x))
    np.testing.assert_allclose(back, x, atol=1e-10)


# ----------------------------------------------------------------------------
# windows


def test_window_count_matches_formula():
    bundle = build_bundle(length=200)
    windows = make_windows(bundle, tau=16, horizon=40)
    assert len(windows) == 200 - 16 - 40 + 1 == 145


def test_window_slices_line_up():
    bundle = build_bundle(length=80)
    windows = make_windows(bundle, tau=8, horizon=5)
    assert windows.origins[0] == 8
    panel = bundle.channel_matrix()
    np.testing.assert_array_equal(windows.past[0], panel[0:8])
    np.testing.assert_array_equal(windows.labels[0], bundle.target[8:13])
    np.testing.assert_array_equal(windows.policies[0], bundle.policy[8:13])
    assert windows.origins[-1] == 75


def test_windows_in_range_respects_label_end():
    bundle = build_bundle(length=80)
    kept = make_windows(bundle, tau=8, horizon=5, span=range(0, 20))
    assert (kept.origins + 5 <= 20).all()
    assert len(kept) == 8  # origins 8..15


def test_stack_windows_shapes():
    bundle = build_bundle(length=80)
    windows = make_windows(bundle, tau=8, horizon=5)
    assert windows.past.shape == (len(windows), 8, 3)
    assert windows.policies.shape == windows.labels.shape == (len(windows), 5)
    assert windows.past.flags.c_contiguous


@given(
    length=st.integers(min_value=2, max_value=60),
    tau=st.integers(min_value=1, max_value=20),
    horizon=st.integers(min_value=1, max_value=20),
    lo=st.integers(min_value=0, max_value=70),
    width=st.integers(min_value=0, max_value=70),
)
def test_window_span_properties(length, tau, horizon, lo, width):
    bundle = build_bundle(length=length)
    if length - tau - horizon + 1 <= 0:
        with pytest.raises(ValueError):
            make_windows(bundle, tau=tau, horizon=horizon)
        return
    span = range(lo, lo + width)
    windows = make_windows(bundle, tau=tau, horizon=horizon, span=span)
    expected = [o for o in range(tau, length - horizon + 1)
                if span.start <= o and o + horizon <= span.stop]
    assert len(windows) == len(expected)
    assert windows.origins.tolist() == expected
    panel = bundle.channel_matrix()
    for o, past, pol, lab in zip(windows.origins, windows.past, windows.policies,
                                 windows.labels):
        np.testing.assert_array_equal(past, panel[o - tau : o])
        np.testing.assert_array_equal(pol, bundle.policy[o : o + horizon])
        np.testing.assert_array_equal(lab, bundle.target[o : o + horizon])
    # no label leaves the span
    assert ((windows.origins >= span.start) & (windows.origins + horizon <= span.stop)).all()


def _copied_windows(bundle, tau, horizon, origins):
    """Every window as its own copy, the way windows were stored before
    they became index views: past (N, tau, C), policies and labels (N, H)."""
    first, stop = (origins[0], origins[-1] + 1) if len(origins) else (tau, tau)
    past = sliding_window_view(bundle.channel_matrix(), tau, axis=0).transpose(0, 2, 1)
    views = (past[first - tau : stop - tau],
             sliding_window_view(bundle.policy, horizon)[first:stop],
             sliding_window_view(bundle.target, horizon)[first:stop])
    return [np.array(v, order="C") for v in views]


@given(
    series=st.lists(st.tuples(st.integers(min_value=12, max_value=60),
                              st.integers(min_value=0, max_value=60),
                              st.integers(min_value=0, max_value=60)),
                    min_size=1, max_size=4),
    tau=st.integers(min_value=1, max_value=6),
    horizon=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_index_windows_gather_the_copied_windows_bitwise(series, tau, horizon, data):
    rng = np.random.default_rng(len(series))
    bundles = [build_bundle(length=n, target=rng.normal(size=n), series_id=f"T{i}")
               for i, (n, _, _) in enumerate(series)]
    parts = [make_windows(b, tau, horizon, span=range(lo, lo + width))
             for b, (_, lo, width) in zip(bundles, series)]
    pooled = Windows.concat(parts)
    copies = [_copied_windows(b, tau, horizon, w.origins) for b, w in zip(bundles, parts)]
    expected = [np.concatenate(column) for column in zip(*copies)]
    assert len(pooled) == len(expected[0])
    assert pooled.origins.tolist() == [o for w in parts for o in w.origins]
    rows = np.array(data.draw(st.lists(st.integers(0, max(len(pooled) - 1, 0)),
                                       max_size=len(pooled) and 8)), dtype=int)
    for got, want in ((pooled.take(), expected), (pooled.take(rows), [e[rows] for e in expected]),
                      ((pooled.past, pooled.policies, pooled.labels), expected)):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.flags.c_contiguous
            assert g.tobytes() == w.tobytes()
    # each window's days lie inside its own series
    bounds = np.cumsum([0] + [b.length for b in bundles])
    owner = np.repeat(np.arange(len(parts)), [len(w) for w in parts])
    assert (pooled.starts >= bounds[owner]).all()
    assert (pooled.starts + tau + horizon <= bounds[owner + 1]).all()


def test_make_windows_rejects_too_short_series():
    bundle = build_bundle(length=20)
    with pytest.raises(ValueError):
        make_windows(bundle, tau=16, horizon=10)


# ----------------------------------------------------------------------------
# helpers


def test_holdout_partitions_by_id():
    bundles = [build_bundle(series_id=f"S{i}") for i in range(4)]
    train, held = holdout_series(bundles, ["S1", "S3"])
    assert [b.id for b in train] == ["S0", "S2"]
    assert [b.id for b in held] == ["S1", "S3"]
    with pytest.raises(ValueError):
        holdout_series(bundles, ["nope"])
    with pytest.raises(ValueError):
        holdout_series(bundles, [b.id for b in bundles])


def test_post_shock_ratio_hand_value():
    target = np.array([2.0] * 5 + [1.0] * 5)
    assert post_shock_ratio(target, onset=5) == 0.5
    with pytest.raises(ValueError):
        post_shock_ratio(target, onset=0)


# ----------------------------------------------------------------------------
# csv round trip


def test_csv_round_trip(tmp_path):
    bundles = [build_bundle(series_id="B"), build_bundle(series_id="A")]
    data_path = tmp_path / "panel.csv"
    sidecar_path = tmp_path / "statics.csv"
    write_dataset_csv(bundles, data_path)
    write_sidecar_csv(bundles, sidecar_path)
    loaded = load_dataset(data_path, sidecar=sidecar_path)
    assert [b.id for b in loaded] == ["A", "B"]  # sorted on load
    by_id = {b.id: b for b in loaded}
    for original in bundles:
        back = by_id[original.id]
        assert back.target.tobytes() == original.target.tobytes()
        assert back.covariates.tobytes() == original.covariates.tobytes()
        assert back.covariate_names == original.covariate_names
        assert back.static_profile == original.static_profile


def test_a_csv_write_that_fails_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "panel.csv"
    write_dataset_csv([build_bundle(series_id="S0")], path)
    previous = path.read_bytes()
    other = build_bundle(series_id="S1")
    renamed = replace(other, id="S2", covariate_names=("policy", "mobility"))
    # the first series is written before the second one's names are checked
    with pytest.raises(ValueError, match="disagree on covariate names"):
        write_dataset_csv([other, renamed], path)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]


def test_missing_day_is_a_gap_error(tmp_path):
    bundle = build_bundle(series_id="S0")
    path = tmp_path / "panel.csv"
    write_dataset_csv([bundle], path)
    lines = path.read_text().splitlines()
    removed = lines.pop(5)  # drop one observation row
    missing_date = removed.split(",")[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GapError) as err:
        load_dataset(path)
    assert missing_date in str(err.value)


def test_duplicate_day_is_a_gap_error(tmp_path):
    bundle = build_bundle(series_id="S0")
    path = tmp_path / "panel.csv"
    write_dataset_csv([bundle], path)
    lines = path.read_text().splitlines()
    lines.append(lines[5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GapError):
        load_dataset(path)


def test_unparseable_cell_names_the_location(tmp_path):
    bundle = build_bundle(series_id="S0")
    path = tmp_path / "panel.csv"
    write_dataset_csv([bundle], path)
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[2] = "not-a-number"
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert ":4:target" in str(err.value)


def test_policy_out_of_range_is_reported_with_date(tmp_path):
    bundle = build_bundle(series_id="S0")
    path = tmp_path / "panel.csv"
    write_dataset_csv([bundle], path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("policy")
    parts = lines[2].split(",")
    parts[col] = "2.0"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PolicyRangeError):
        load_dataset(path)


def test_missing_required_column_is_schema_error(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("series_id,date,demand\nS0,2020-01-01,1.0\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


@pytest.mark.parametrize("loader, text, dup", [
    (load_dataset, "series_id,date,target,policy,policy\nS0,2020-01-01,1.0,0.1,0.2\n", "policy"),
    (load_dataset, "series_id,date,target,policy,target\nS0,2020-01-01,1.0,0.1,2.0\n", "target"),
    (load_sidecar, "series_id,pop,pop\nS0,1.0,2.0\n", "pop"),
], ids=["data-policy", "data-target", "sidecar-pop"])
def test_duplicate_column_name_is_schema_error(tmp_path, loader, text, dup):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"in.csv: duplicate column '{dup}'$"):
        loader(path)


def test_sidecar_round_trip_values(tmp_path):
    bundles = [
        build_bundle(series_id="S0", statics={"population": 2.0, "beds": 7.5}),
        build_bundle(series_id="S1", statics={"population": 3.0, "beds": 1.25}),
    ]
    path = tmp_path / "statics.csv"
    write_sidecar_csv(bundles, path)
    table = load_sidecar(path)
    assert table["S0"] == {"population": 2.0, "beds": 7.5}
    assert table["S1"] == {"population": 3.0, "beds": 1.25}


def _valid_csv_bytes(loader, tmp_path, length=40) -> bytes:
    bundles = [build_bundle(length=length, series_id=f"S{i}") for i in range(2)]
    path = tmp_path / "valid.csv"
    (write_dataset_csv if loader is load_dataset else write_sidecar_csv)(bundles, path)
    return path.read_bytes()


@pytest.mark.parametrize("loader", [load_dataset, load_sidecar])
@pytest.mark.parametrize("insert, message", [
    (b"\xff", r":300: not utf-8 text \(invalid start byte\)$"),
    (b"7" * 200_000, r":300: field larger than field limit \(131072\)$"),
], ids=["non-utf8", "oversized-field"])
def test_unreadable_bytes_are_a_parse_error_naming_the_line(tmp_path, loader, insert, message):
    # 400 rows put line 300 well past the reader's first decoded block
    lines = _valid_csv_bytes(loader, tmp_path, length=400).splitlines(keepends=True)
    if loader is load_sidecar:
        lines += [b"S%d,1.0,2.0\n" % i for i in range(2, 400)]
    lines[299] = lines[299][:6] + insert + lines[299][6:]
    path = tmp_path / "bad.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match="bad.csv" + message):
        loader(path)


@pytest.mark.parametrize("loader", [load_dataset, load_sidecar])
def test_blank_header_line_is_a_schema_error(tmp_path, loader):
    path = tmp_path / "blank.csv"
    path.write_text("\nS0,1.0\n")
    with pytest.raises(SchemaError, match="blank.csv: blank header line$"):
        loader(path)


_ODD_CELLS = [b"", b"nan", b"-inf", b"1e999", b"-1", b"2.0", b"x", b"\xff", b'"', b"2020-02-30",
              b"S0", b"1,2"]


@settings(max_examples=300, deadline=None)
@given(loader=st.sampled_from([load_dataset, load_sidecar]), data=st.data())
def test_mutated_csv_raises_only_data_errors(tmp_path_factory, loader, data):
    directory = tmp_path_factory.mktemp("mutated")
    raw = _valid_csv_bytes(loader, directory, length=20)
    kind = data.draw(st.sampled_from(["truncate", "flip", "drop", "repeat", "cell"]), label="kind")
    if kind == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)), label="length")]
    elif kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[at + 1 :]
    else:
        lines = raw.split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            cells = lines[i].split(b",")
            j = data.draw(st.integers(0, len(cells) - 1), label="cell")
            cells[j] = data.draw(st.sampled_from(_ODD_CELLS), label="value")
            lines[i] = b",".join(cells)
        raw = b"\n".join(lines)
    path = directory / "mutated.csv"
    path.write_bytes(raw)
    try:
        loader(path)
    except DataError:
        pass


# ----------------------------------------------------------------------------
# synthetic generator


def test_synth_is_deterministic_per_seed():
    cfg = SynthConfig(series_count=3, length=200)
    a = synth_generate(cfg, seed=5)
    b = synth_generate(cfg, seed=5)
    c = synth_generate(cfg, seed=6)
    for x, y in zip(a, b):
        assert x.target.tobytes() == y.target.tobytes()
        assert x.covariates.tobytes() == y.covariates.tobytes()
        assert x.static_profile == y.static_profile
    assert a[0].target.tobytes() != c[0].target.tobytes()


def test_synth_shapes_and_ranges():
    cfg = SynthConfig(series_count=4, length=240)
    bundles = synth_generate(cfg, seed=0)
    assert len(bundles) == 4
    for b in bundles:
        assert b.length == 240
        assert b.covariate_names == ("policy", "cases", "mobility")
        assert b.policy.min() >= 0.0 and b.policy.max() <= 1.0
        assert (b.target > 0).all()
        assert tuple(sorted(b.static_profile)) == tuple(sorted(STATIC_FEATURE_NAMES))


def test_synth_policy_suppresses_demand():
    cfg = SynthConfig(series_count=4, length=400, noise_sd=0.5, impact_spread=0.0)
    bundles = synth_generate(cfg, seed=1)
    for b in bundles:
        closed = b.policy >= 0.99
        open_ = b.policy == 0.0
        assert closed.sum() > 10
        assert b.target[closed].mean() < 0.7 * b.target[open_].mean()


def test_synth_onset_defaults_to_45_percent():
    cfg = SynthConfig(series_count=1, length=200)
    assert cfg.shock_onset == 90
    bundles = synth_generate(cfg, seed=0)
    assert (bundles[0].policy[:90] == 0.0).all()


def test_policy_schedule_interpolation():
    schedule = ((0, 0.0), (4, 0.0), (8, 1.0))
    pi = policy_from_schedule(schedule, length=10)
    assert pi[0] == 0.0 and pi[4] == 0.0 and pi[8] == 1.0
    assert pi[6] == pytest.approx(0.5)
    assert pi.shape == (10,)


def test_default_schedule_spans_the_series():
    schedule = default_policy_schedule(800, onset=360)
    times = [t for t, _ in schedule]
    assert times == sorted(times)
    assert times[0] == 0 and times[-1] <= 799
    levels = [v for _, v in schedule]
    assert max(levels) == 1.0 and min(levels) == 0.0


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(series_count=0)
    with pytest.raises(ValueError):
        SynthConfig(suppression_depth=1.5)
    with pytest.raises(ValueError):
        SynthConfig(length=200, shock_onset=500)
