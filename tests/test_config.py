import dataclasses
import json

import pytest

from demandnet.config import (
    ConfigError,
    RunConfig,
    dataclass_from_dict,
    load_run_config,
    parse_override,
)
from demandnet.forecaster import ForecasterArch
from demandnet.nn.optim import TrainConfig
from demandnet.pipeline import PipelineConfig


def test_run_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.out_dir == "artifacts"
    assert cfg.cell == "gru"
    assert cfg.tau == 32
    assert cfg.hidden == 48
    assert cfg.horizons == (10, 20, 40, 80)
    assert cfg.kappa == 100
    assert cfg.band == 0.3
    assert cfg.eval_protocol == "split80"
    assert cfg.eval_methods == ("demandnet", "exp_smoothing", "ar")
    assert cfg.curve_points == 101
    assert isinstance(cfg.forecaster_train, TrainConfig)


# ----------------------------------------------------------------------------
# override parsing


def test_override_parses_json_values():
    assert parse_override("tau=16") == ("tau", 16)
    assert parse_override("dropout=0.25") == ("dropout", 0.25)
    assert parse_override("horizons=[4,8]") == ("horizons", [4, 8])
    assert parse_override("include_statics=true") == ("include_statics", True)


def test_override_falls_back_to_bare_string():
    assert parse_override("cell=gru") == ("cell", "gru")
    assert parse_override("out_dir=runs/a") == ("out_dir", "runs/a")


def test_override_requires_key_value_shape():
    with pytest.raises(ConfigError, match="key=value"):
        parse_override("tau16")
    with pytest.raises(ConfigError, match="empty key"):
        parse_override("=16")


def test_dotted_override_reaches_nested_config():
    cfg = load_run_config(overrides=("forecaster_train.epochs=3",
                                     "synth.series_count=2"))
    assert cfg.forecaster_train.epochs == 3
    assert cfg.synth.series_count == 2


# ----------------------------------------------------------------------------
# strict construction


def test_unknown_key_suggests_nearest_field():
    with pytest.raises(ConfigError, match="did you mean 'kappa'"):
        dataclass_from_dict(RunConfig, {"kapa": 10})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match="forecaster_train.epochz"):
        load_run_config(overrides=("forecaster_train.epochz=3",))


@pytest.mark.parametrize("key, value", [("adjust_mode", "additive"),
                                        ("reference_policy", 0.0),
                                        ("forecaster_train.mlp_layers", 2),
                                        ("optimize_p", False)])
def test_retired_keys_are_unknown(key, value):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_run_config(overrides=(f"{key}={json.dumps(value)}",))


@pytest.mark.parametrize("section", ["effects_train", "forecaster_train"])
def test_trainer_seed_override_is_a_config_error(section):
    # both trainers draw from the run seed, so a second seed would be ignored
    with pytest.raises(ConfigError, match=f"{section}.seed"):
        load_run_config(overrides=(f"{section}.seed=3",))
    assert getattr(load_run_config(overrides=(f"{section}.seed=0",)), section).seed == 0


def test_config_snapshot_replays():
    snapshot = json.loads(json.dumps(RunConfig(seed=4, tau=12).to_dict()))
    assert dataclass_from_dict(RunConfig, snapshot) == RunConfig(seed=4, tau=12)


def test_nested_dict_becomes_train_config():
    cfg = dataclass_from_dict(RunConfig, {"forecaster_train": {"epochs": 7}})
    assert isinstance(cfg.forecaster_train, TrainConfig)
    assert cfg.forecaster_train.epochs == 7


def test_a_partial_section_keeps_the_run_defaults_for_the_rest(tmp_path):
    # the sections start from RunConfig's operating point, not TrainConfig's
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"effects_train": {"epochs": 9}}))
    run = RunConfig()
    from_file = load_run_config(str(path))
    from_set = load_run_config(overrides=("forecaster_train.epochs=15",))
    both = load_run_config(str(path), overrides=("effects_train.learning_rate=0.1",))
    assert from_file.effects_train == dataclasses.replace(run.effects_train, epochs=9)
    assert from_file.forecaster_train == run.forecaster_train
    assert from_set.forecaster_train == dataclasses.replace(run.forecaster_train, epochs=15)
    assert both.effects_train == dataclasses.replace(run.effects_train, epochs=9,
                                                     learning_rate=0.1)


def test_lists_coerce_to_tuples():
    cfg = dataclass_from_dict(RunConfig, {"horizons": [4, 8], "held_ids": ["S01", "S02"]})
    assert cfg.horizons == (4, 8)
    assert cfg.held_ids == ("S01", "S02")


def test_type_mismatch_is_a_config_error():
    with pytest.raises(ConfigError, match="tau"):
        dataclass_from_dict(RunConfig, {"tau": "wide"})
    with pytest.raises(ConfigError, match="true/false"):
        dataclass_from_dict(RunConfig, {"include_statics": "yes"})


def test_field_validation_is_wrapped_as_config_error():
    with pytest.raises(ConfigError, match="epochs"):
        dataclass_from_dict(RunConfig, {"forecaster_train": {"epochs": 0}})


# ----------------------------------------------------------------------------
# layered loading


def test_flags_beat_overrides_beat_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 5, "tau": 12, "out_dir": "from-file"}))
    cfg = load_run_config(str(path), overrides=("seed=7",), seed=9, out_dir="flag")
    assert cfg.seed == 9
    assert cfg.out_dir == "flag"
    assert cfg.tau == 12


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tau": 12}))
    cfg = load_run_config(str(path), overrides=("tau=20",))
    assert cfg.tau == 20


def test_missing_config_file_is_reported():
    with pytest.raises(ConfigError, match="not found"):
        load_run_config("/nonexistent/run.json")


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(path))


def test_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_run_config(str(path))


# ----------------------------------------------------------------------------
# pipeline mapping


# a non-default value for every RunConfig field that PipelineConfig or
# ForecasterArch also has
SHARED_VALUES = {
    "tau": 16,
    "horizons": (4, 12),
    "kappa": 10,
    "fractions": (0.7, 0.2, 0.1),
    "band": 0.4,
    "include_statics": False,
    "dropout_candidates": (0.1, 0.2),
    "effects_width": 8,
    "effects_train": TrainConfig(epochs=4),
    "forecaster_train": TrainConfig(epochs=3),
    "cell": "lstm",
    "hidden": 24,
    "layers": 3,
    "dropout": 0.3,
    "use_policy_skip": False,
}


def test_pipeline_mapping_threads_shared_fields():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    arch_names = names(ForecasterArch)
    assert set(SHARED_VALUES) == names(RunConfig) & (names(PipelineConfig) | arch_names)
    for name, value in SHARED_VALUES.items():
        assert getattr(RunConfig(), name) != value, name
        pipe = RunConfig(**{name: value}).pipeline()
        assert getattr(pipe.arch if name in arch_names else pipe, name) == value, name
    assert RunConfig(horizons=(4, 12)).pipeline().arch.horizon == 12
    assert PipelineConfig(horizons=(6,)).arch.horizon == 6
