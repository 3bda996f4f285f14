import contextlib
import errno
import io
import json
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandnet.cli import COMMANDS, build_parser, main
from demandnet.data import write_dataset_csv, write_sidecar_csv
from demandnet.nn.checkpoint import load_checkpoint, save_checkpoint

from conftest import build_bundle

SMALL_RUN = {
    "cell": "gru",
    "tau": 8,
    "hidden": 8,
    "layers": 1,
    "horizons": [6],
    "kappa": 4,
    "include_statics": False,
    "dropout_candidates": [],
    "effects_width": 8,
    "effects_train": {"optimizer": "sgd", "learning_rate": 0.05,
                      "epochs": 5, "batch_size": 128},
    "forecaster_train": {"optimizer": "adam", "learning_rate": 3e-3,
                         "epochs": 2, "batch_size": 64},
    "eval_methods": ["ar"],
    "eval_seeds": [0],
    "curve_points": 11,
    "synth": {"series_count": 4, "length": 90},
}


def _write_config(directory) -> str:
    path = os.path.join(directory, "run.json")
    with open(path, "w") as fh:
        json.dump(SMALL_RUN, fh)
    return path


def _run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One tiny end-to-end run shared by the artifact checks."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_config(root)
    out = os.path.join(root, "artifacts")
    for command in ("synth", "select-features", "train-effects", "effects-curve",
                    "train", "forecast", "evaluate"):
        assert _run(command, "--config", cfg, "--out", out) == 0, command
    return out


def test_pipeline_writes_every_artifact(pipeline_dir):
    expected = [
        "data.csv", "sidecar.csv", "manifest.json",
        "static_screening.csv",
        "effects.npz", "effects_training.json",
        "curve_policy.csv", "curve_policy_poly.json",
        "forecaster.npz", "forecaster_training.json",
        "forecast.csv",
        "evaluation.csv", "evaluation_denormalized.csv", "evaluation_table.txt",
    ]
    for name in expected:
        assert os.path.exists(os.path.join(pipeline_dir, name)), name


def test_every_command_drops_a_replay_config(pipeline_dir):
    for command in ("synth", "select-features", "train-effects", "effects-curve",
                    "train", "forecast", "evaluate"):
        path = os.path.join(pipeline_dir, f"config.{command}.json")
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["command"] == command
        assert payload["config"]["tau"] == 8


def test_forecast_rows_are_one_indexed_steps(pipeline_dir):
    with open(os.path.join(pipeline_dir, "forecast.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "series_id,step,mean,sd,var_vs_truth,p_used,kappa"
    assert len(lines) == 1 + 6
    steps = [int(row.split(",")[1]) for row in lines[1:]]
    assert steps == list(range(1, 7))
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[0] == "S00"
        assert float(fields[2]) == float(fields[2])
        assert int(fields[6]) == 4


def test_evaluation_csv_header(pipeline_dir):
    with open(os.path.join(pipeline_dir, "evaluation.csv")) as fh:
        header = fh.readline().strip()
    assert header == "protocol,method,horizon,mae,rmse,sd,seeds"


def test_screening_report_lists_every_static(pipeline_dir):
    with open(os.path.join(pipeline_dir, "static_screening.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "feature,correlation,retained,reason"
    assert len(lines) > 1


def test_curve_polynomial_sidecar_is_replayable(pipeline_dir):
    with open(os.path.join(pipeline_dir, "curve_policy_poly.json")) as fh:
        payload = json.load(fh)
    assert payload["feature"] == "policy"
    assert len(payload["coefficients_ascending"]) == payload["degree"] + 1


def test_synth_is_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    a = os.path.join(tmp_path, "a")
    b = os.path.join(tmp_path, "b")
    assert _run("synth", "--config", cfg, "--out", a) == 0
    assert _run("synth", "--config", cfg, "--out", b) == 0
    for name in ("data.csv", "sidecar.csv"):
        with open(os.path.join(a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(b, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_seed_flag_changes_the_data(tmp_path):
    cfg = _write_config(tmp_path)
    a = os.path.join(tmp_path, "a")
    b = os.path.join(tmp_path, "b")
    assert _run("synth", "--config", cfg, "--out", a, "--seed", "0") == 0
    assert _run("synth", "--config", cfg, "--out", b, "--seed", "1") == 0
    with open(os.path.join(a, "data.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(b, "data.csv"), "rb") as fh:
        second = fh.read()
    assert first != second


def test_ingest_accepts_generated_csvs(pipeline_dir, tmp_path, capsys):
    out = os.path.join(tmp_path, "ingested")
    code = _run(
        "ingest", "--out", out,
        "--set", f"data_csv={os.path.join(pipeline_dir, 'data.csv')}",
        "--set", f"sidecar_csv={os.path.join(pipeline_dir, 'sidecar.csv')}",
    )
    assert code == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["series_ids"] == ["S00", "S01", "S02", "S03"]


def test_ingest_without_data_csv_fails(tmp_path, capsys):
    assert _run("ingest", "--out", str(tmp_path)) == 2
    assert "data_csv" in capsys.readouterr().err


def test_manifest_paths_survive_a_change_of_directory(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run("synth", "--config", cfg, "--out", os.path.join("runs", "a")) == 0
    monkeypatch.chdir(tmp_path / "runs")
    assert _run("select-features", "--config", cfg, "--out", "a") == 0


def test_ingest_of_a_missing_csv_is_one_error_line(tmp_path, capsys):
    duplicated = tmp_path / "dup.csv"
    duplicated.write_text("series_id,date,target,policy,policy\nS0,2020-01-01,1.0,0.1,0.2\n")
    header_only = tmp_path / "empty.csv"
    header_only.write_text("series_id,date,target,policy\n")
    for path, reason in ((tmp_path / "nope.csv", "cannot open"),
                         (duplicated, "duplicate column 'policy'"),
                         (header_only, "no data rows")):
        code = _run("ingest", "--out", str(tmp_path / "out"), "--set", f"data_csv={path}")
        assert code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert f"{path.name}: {reason}" in err
        assert "Traceback" not in err


def test_missing_manifest_names_the_producing_command(tmp_path, capsys):
    assert _run("select-features", "--out", str(tmp_path / "empty")) == 2
    err = capsys.readouterr().err
    assert "demandnet synth" in err
    assert "demandnet ingest" in err


def test_forecast_requires_a_trained_checkpoint(tmp_path, capsys):
    assert _run("forecast", "--out", str(tmp_path / "empty")) == 2
    assert "demandnet train" in capsys.readouterr().err


def test_effects_curve_requires_effects_checkpoint(tmp_path, capsys):
    assert _run("effects-curve", "--out", str(tmp_path / "empty")) == 2
    assert "demandnet train-effects" in capsys.readouterr().err


def test_a_failing_command_writes_no_config_snapshot(tmp_path, capsys):
    out = tmp_path / "empty"
    assert _run("forecast", "--out", str(out)) == 2
    assert not os.path.exists(out / "config.forecast.json")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("content", ['{"kind": "demandnet-manifest", "data_', "{}", "[]",
                                     '{"data_csv": 3}',
                                     '{"data_csv": "d.csv", "sidecar_csv": 3}'])
def test_an_unreadable_manifest_is_one_error_line(tmp_path, capsys, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_text(content)
    assert _run("select-features", "--out", str(out)) == 2
    line = _one_error_line(capsys)
    assert str(out / "manifest.json") in line and "demandnet synth" in line


def test_forecast_on_a_truncated_checkpoint_is_one_error_line(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_dir, "manifest.json"), out)
    with open(os.path.join(pipeline_dir, "forecaster.npz"), "rb") as fh:
        whole = fh.read()
    (out / "forecaster.npz").write_bytes(whole[: len(whole) // 2])
    capsys.readouterr()
    assert _run("forecast", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    assert "unreadable checkpoint" in _one_error_line(capsys)
    assert not os.path.exists(out / "forecast.csv")


def test_an_unknown_curve_feature_is_one_error_line(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_dir, "effects.npz"), out)
    capsys.readouterr()
    assert _run("effects-curve", "--config", _write_config(tmp_path), "--out", str(out),
                "--set", "curve_feature=nope") == 2
    assert "curve_feature" in _one_error_line(capsys)
    assert sorted(os.listdir(out)) == ["effects.npz"]


def test_unknown_override_key_exits_with_usage_error(tmp_path, capsys):
    assert _run("synth", "--out", str(tmp_path), "--set", "kapa=10") == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err
    assert "kappa" in err


def test_unknown_series_is_a_config_error(pipeline_dir, tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = _run("forecast", "--config", cfg, "--out", pipeline_dir,
                "--set", "forecast_series=NOPE")
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


@pytest.mark.parametrize("override, reason", [
    ("forecast_origin=5000", "beyond series length"),
    ("forecast_origin=3", "leaves no room"),
    ("forecast_origin=88", "known policies unavailable"),
    ("forecast_policy_mode=scheduled", "'known' or 'dummy'"),
    ("forecast_policy_mode=guess", "'known' or 'dummy'"),
])
def test_forecast_settings_that_do_not_fit_are_config_errors(pipeline_dir, tmp_path,
                                                             capsys, override, reason):
    # the tiny run has 90-day series, tau 8 and horizon 6
    cfg = _write_config(tmp_path)
    capsys.readouterr()
    code = _run("forecast", "--config", cfg, "--out", pipeline_dir, "--set", override)
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert reason in err


def test_divergence_exits_with_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert _run("synth", "--config", cfg, "--out", out) == 0
    code = _run("train-effects", "--config", cfg, "--out", out,
                "--set", "effects_train.learning_rate=1e300")
    assert code == 2
    assert "error: effects training loss became non-finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "effects.npz"))


def test_divergence_reports_one_error_line_and_no_numpy_warnings(tmp_path, capsys):
    # pytest's own warning capture keeps numpy warnings out of capsys, so
    # record them explicitly
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert _run("synth", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run("train-effects", "--config", cfg, "--out", out,
                    "--set", "effects_train.learning_rate=1e300")
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_forecast_with_another_skip_rule_is_one_error_line(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_dir, "manifest.json"), out)
    meta, arrays = load_checkpoint(os.path.join(pipeline_dir, "forecaster.npz"),
                                   expected_kind="forecaster")
    meta["arch"]["adjust_mode"] = "multiplicative"
    save_checkpoint(out / "forecaster.npz", "forecaster", meta, arrays)
    capsys.readouterr()
    assert _run("forecast", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "adjust_mode" in err[0]


def test_forecast_with_a_skip_but_no_effects_model_is_one_error_line(pipeline_dir, tmp_path,
                                                                     capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_dir, "manifest.json"), out)
    meta, arrays = load_checkpoint(os.path.join(pipeline_dir, "forecaster.npz"),
                                   expected_kind="forecaster")
    assert meta["arch"]["use_policy_skip"]
    meta["effects"] = None
    save_checkpoint(out / "forecaster.npz", "forecaster", meta, arrays)
    capsys.readouterr()
    assert _run("forecast", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "effect model" in err[0]


def test_forecast_with_an_unknown_arch_field_is_one_error_line(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(pipeline_dir, "manifest.json"), out)
    meta, arrays = load_checkpoint(os.path.join(pipeline_dir, "forecaster.npz"),
                                   expected_kind="forecaster")
    meta["arch"]["skip_scale"] = 1.0
    save_checkpoint(out / "forecaster.npz", "forecaster", meta, arrays)
    capsys.readouterr()
    assert _run("forecast", "--config", _write_config(tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "skip_scale" in err[0]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A dataset manifest alone, for commands that must fail before training."""
    root = tmp_path_factory.mktemp("synth")
    out = os.path.join(root, "artifacts")
    assert _run("synth", "--config", _write_config(root), "--out", out) == 0
    return out


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("override, key", [
    ("kappa=0", "kappa"),
    ("tau=0", "tau"),
    ("horizons=[0]", "horizons"),
    ("dropout=1.5", "dropout"),
    ("cell=rnn", "cell"),
    ("dropout_candidates=[2.0]", "dropout_candidates"),
    ("band=1.5", "band"),
    ("fractions=[0.5,0.5,0.5]", "fractions"),
    ('eval_methods=["foo"]', "eval_methods"),
    ('eval_methods=["ar","ar"]', "eval_methods"),
    ('eval_methods=["demandnet-lstm"]', "eval_methods"),
    ("eval_seeds=[0,0]", "eval_seeds"),
    ("curve_points=0", "curve_points"),
    ("curve_points=1", "curve_points"),
    ("curve_degree=-1", "curve_degree"),
    ("curve_degree=11", "curve_degree"),
    ("curve_points=3", "curve_degree"),
    ("eval_protocol=loo", "eval_protocol"),
    ("forecast_policy_mode=guess", "forecast_policy_mode"),
])
def test_out_of_range_settings_fail_at_load(synth_dir, tmp_path, capsys, command,
                                            override, key):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(synth_dir, "manifest.json"), out)
    capsys.readouterr()
    code = _run(command, "--config", _write_config(tmp_path), "--out", str(out),
                "--set", override)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"{key} must be" in err[0]
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_a_horizon_longer_than_every_test_range_is_one_error_line(synth_dir, tmp_path,
                                                                  capsys):
    # 90-day series have 9-day test ranges
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(synth_dir, "manifest.json"), out)
    capsys.readouterr()
    code = _run("evaluate", "--config", _write_config(tmp_path), "--out", str(out),
                "--set", "horizons=[6,20]")
    assert code == 2
    line = _one_error_line(capsys)
    assert "horizons" in line and "horizon 20" in line
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_series_too_short_for_tau_plus_horizon_is_one_error_line(tmp_path, capsys):
    # the defaults: tau 32, horizons up to 80
    out = str(tmp_path / "run")
    assert _run("synth", "--out", out, "--set", "synth.series_count=2",
                "--set", "synth.length=60") == 0
    for command in ("train", "evaluate"):
        capsys.readouterr()
        assert _run(command, "--out", out) == 2, command
        line = _one_error_line(capsys)
        assert "series S00" in line and "52 days short of tau + horizon = 32 + 80" in line
    assert not os.path.exists(os.path.join(out, "forecaster.npz"))


def _ingest_panel(directory, lengths) -> str:
    """A manifest over one series per length, written through ``ingest``."""
    bundles = [build_bundle(length=n, series_id=f"T{i}") for i, n in enumerate(lengths)]
    data, sidecar = os.path.join(directory, "data.csv"), os.path.join(directory, "side.csv")
    write_dataset_csv(bundles, data)
    write_sidecar_csv(bundles, sidecar)
    out = os.path.join(directory, "run")
    assert _run("ingest", "--out", out, "--set", f"data_csv={data}",
                "--set", f"sidecar_csv={sidecar}") == 0
    return out


def test_a_three_day_series_is_one_error_line(tmp_path, capsys):
    out = _ingest_panel(str(tmp_path), [90, 3, 90])
    for command in ("train-effects", "train", "evaluate"):
        capsys.readouterr()
        code = _run(command, "--config", _write_config(tmp_path), "--out", out)
        assert code == 2, command
        line = _one_error_line(capsys)
        assert "series T1: length 3 too short for fractions" in line
        assert "no validation days" in line
    assert sorted(os.listdir(out)) == ["config.ingest.json", "manifest.json"]


@given(lengths=st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=4),
       extra=st.sampled_from([(), ("tau=2",), ("horizons=[1,3]",),
                              ("eval_protocol=unseen", 'held_ids=["T0"]')]))
@settings(max_examples=20)
def test_small_panels_train_or_fail_with_one_error_line(lengths, extra):
    # 1-4 series of 1-120 days: every training command succeeds or gives one
    # error: line, never a traceback
    sets = [arg for setting in ("eval_methods=[\"demandnet\",\"ar\"]", *extra)
            for arg in ("--set", setting)]
    with tempfile.TemporaryDirectory() as tmp:
        out = _ingest_panel(tmp, lengths)
        for command in ("train-effects", "train", "evaluate"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = _run(command, "--config", _write_config(tmp), "--out", out, *sets)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert (code, len(errors)) in ((0, 0), (2, 1)), (command, code, errors)


def test_evaluate_runs_the_unseen_protocol(synth_dir, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(synth_dir, "manifest.json"), out)
    assert _run("evaluate", "--config", _write_config(tmp_path), "--out", str(out),
                "--set", "eval_protocol=unseen", "--set", 'held_ids=["S03"]') == 0
    rows = (out / "evaluation.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["unseen", "ar", "6"]]


@pytest.mark.parametrize("held, reason", [
    ('["S99"]', "unknown series ids"),
    ('["S01","S99"]', "unknown series ids"),
    ("[]", "held_ids is empty"),
    ('["S00","S01","S02","S03"]', "nothing to train on"),
])
def test_unusable_held_ids_fail_before_any_training(synth_dir, tmp_path, capsys, monkeypatch,
                                                    held, reason):
    def unreachable(*args, **kwargs):
        raise AssertionError("the protocol ran")

    monkeypatch.setattr("demandnet.cli.run_unseen", unreachable)
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(synth_dir, "manifest.json"), out)
    capsys.readouterr()
    code = _run("evaluate", "--config", _write_config(tmp_path), "--out", str(out),
                "--set", "eval_protocol=unseen", "--set", f"held_ids={held}")
    assert code == 2
    line = _one_error_line(capsys)
    assert "held_ids" in line and reason in line
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_select_features_without_statics_is_one_error_line(synth_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert _run("ingest", "--out", out,
                "--set", f"data_csv={os.path.join(synth_dir, 'data.csv')}") == 0
    capsys.readouterr()
    assert _run("select-features", "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "no static features" in err[0]
    assert not os.path.exists(os.path.join(out, "static_screening.csv"))


def test_select_features_on_two_series_is_one_error_line(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert _run("synth", "--config", _write_config(tmp_path), "--out", out,
                "--set", "synth.series_count=2") == 0
    capsys.readouterr()
    assert _run("select-features", "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "at least 3 series" in err[0]
    assert not os.path.exists(os.path.join(out, "static_screening.csv"))


def test_every_subcommand_has_help_text():
    listing = " ".join(build_parser().format_help().split())
    for name, fn in COMMANDS.items():
        doc = " ".join((fn.__doc__ or "").split())
        assert doc, name
        assert f"{name} {doc}" in listing, name


PATH_STATES = ["missing", "a file", "a directory", "under a file", "a symlink loop"]


def _path_in_state(root: str, name: str, state: str, content: str) -> str:
    """A path named ``name`` under ``root`` in ``state``; "a file" holds
    ``content``."""
    path = os.path.join(root, name)
    if state == "a file":
        with open(path, "w") as fh:
            fh.write(content)
    elif state == "a directory":
        os.mkdir(path)
    elif state == "under a file":
        with open(path, "w") as fh:
            fh.write(content)
        path = os.path.join(path, "inner")
    elif state == "a symlink loop":
        os.symlink(path, path)
    return path


def _tree(root: str) -> dict:
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            if not os.path.islink(path):
                with open(path, "rb") as fh:
                    files[path] = fh.read()
    return files


@given(command=st.sampled_from(["synth", "select-features"]),
       out_state=st.sampled_from(PATH_STATES), config_state=st.sampled_from(PATH_STATES),
       replace_error=st.sampled_from([None, errno.EACCES, errno.ENOSPC]))
@settings(max_examples=40)
def test_every_state_of_out_and_config_exits_0_or_gives_one_error_line(
        synth_dir, command, out_state, config_state, replace_error):
    # --out and --config each missing, a file, a directory, a path under a
    # file or a symlink loop, and os.replace failing or not: the command
    # succeeds, or it gives one error: line and leaves every file as it was
    with tempfile.TemporaryDirectory() as root:
        out = _path_in_state(root, "out", out_state, "not a directory\n")
        if command == "select-features" and out_state == "a directory":
            shutil.copy(os.path.join(synth_dir, "manifest.json"), out)
        config = _path_in_state(root, "run.json", config_state, json.dumps(SMALL_RUN))
        before = _tree(root)
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            if replace_error is not None:
                def replace(src, dst):
                    raise OSError(replace_error, os.strerror(replace_error), dst)
                mp.setattr(os, "replace", replace)
            code = _run(command, "--config", config, "--out", out)
        lines = err.getvalue().splitlines()
        works = (config_state == "a file" and replace_error is None
                 and out_state in (("missing", "a directory") if command == "synth"
                                   else ("a directory",)))
        if works:
            assert (code, lines) == (0, [])
            assert os.path.exists(os.path.join(out, f"config.{command}.json"))
        else:
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines
            assert _tree(root) == before
