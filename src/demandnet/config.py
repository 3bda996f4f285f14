"""Typed run configuration: JSON files, dotted overrides, strict keys.

Precedence is command-line ``--set`` overrides (and dedicated flags) over the
config file over built-in defaults.  Unknown keys fail fast with a
nearest-match suggestion rather than being silently ignored.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import types
import typing
from dataclasses import dataclass

from .data import SynthConfig
from .evaluation import check_methods_and_seeds
from .forecaster import ForecasterArch
from .nn.optim import TrainConfig
from .pipeline import PipelineConfig


class ConfigError(ValueError):
    """Bad config file, unknown key, or unusable value."""


@dataclass(frozen=True)
class RunConfig:
    """One flat view of everything the CLI commands need.

    The training sections default to a desk-scale operating point that runs
    in minutes; the published large operating point is reachable by
    overriding the respective fields (see README).
    """

    seed: int = 0
    out_dir: str = "artifacts"
    data_csv: str | None = None
    sidecar_csv: str | None = None

    # model shape
    cell: str = "gru"
    tau: int = 32
    hidden: int = 48
    layers: int = 2
    dropout: float = 0.1
    use_policy_skip: bool = True

    # pipeline
    horizons: tuple[int, ...] = (10, 20, 40, 80)
    kappa: int = 100
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    band: float = 0.3
    include_statics: bool = True
    dropout_candidates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.35, 0.5)

    effects_width: int = 64
    effects_train: TrainConfig = TrainConfig(
        optimizer="sgd", learning_rate=0.05, epochs=60, batch_size=256
    )
    forecaster_train: TrainConfig = TrainConfig(
        optimizer="adam", learning_rate=2e-3, epochs=30, batch_size=64
    )

    synth: SynthConfig = SynthConfig()

    # evaluate
    eval_protocol: str = "split80"
    eval_methods: tuple[str, ...] = ("demandnet", "exp_smoothing", "ar")
    eval_seeds: tuple[int, ...] = (0,)
    held_ids: tuple[str, ...] = ()

    # forecast
    forecast_series: str | None = None
    forecast_origin: int | None = None
    forecast_policy_mode: str = "known"

    # effects-curve
    curve_feature: str = "policy"
    curve_points: int = 101
    curve_degree: int = 3

    def __post_init__(self):
        # both trainers take their seed from ``seed``; a second one would be ignored
        for section in ("effects_train", "forecaster_train"):
            if getattr(self, section).seed != 0:
                raise ConfigError(f"{section}.seed is not used; set the run seed "
                                  f"with `seed` (--seed) instead")
        self.pipeline()  # range errors surface at load, not mid-command
        check_methods_and_seeds(self.eval_methods, self.eval_seeds, prefix="eval_")
        if self.eval_protocol not in ("split80", "unseen"):
            raise ConfigError(f"eval_protocol must be 'split80' or 'unseen', "
                              f"got {self.eval_protocol!r}")
        if self.forecast_policy_mode not in ("known", "dummy"):  # no CLI way to pass a schedule
            raise ConfigError(f"forecast_policy_mode must be 'known' or 'dummy', "
                              f"got {self.forecast_policy_mode!r}")
        if self.curve_points < 2:
            raise ConfigError(f"curve_points must be >= 2, got {self.curve_points}")
        if not 1 <= self.curve_degree < self.curve_points:
            raise ConfigError(f"curve_degree must be in [1, curve_points), "
                              f"got {self.curve_degree}")

    def pipeline(self) -> PipelineConfig:
        arch = ForecasterArch(
            cell=self.cell,
            hidden=self.hidden,
            layers=self.layers,
            dropout=self.dropout,
            use_policy_skip=self.use_policy_skip,
        )
        return PipelineConfig(
            tau=self.tau,
            horizons=self.horizons,
            kappa=self.kappa,
            fractions=self.fractions,
            band=self.band,
            include_statics=self.include_statics,
            dropout_candidates=self.dropout_candidates,
            arch=arch,
            forecaster_train=self.forecaster_train,
            effects_train=self.effects_train,
            effects_width=self.effects_width,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _suggest(key: str, options) -> str:
    close = difflib.get_close_matches(key, list(options), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _coerce(value, tp, path: str, default=None):
    origin = typing.get_origin(tp)
    if tp is typing.Any:
        return value
    if origin is typing.Union or origin is types.UnionType:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None:
            if type(None) in typing.get_args(tp):
                return None
            raise ConfigError(f"{path}: null not allowed")
        return _coerce(value, args[0], path, default)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
        return dataclass_from_dict(tp, value, path,
                                   default if isinstance(default, tp) else None)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                _coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value)
            )
        if len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(
            _coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args))
        )
    if tp is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    if tp is int:
        if isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def dataclass_from_dict(cls, data: dict, path: str = "", base=None):
    """Build any config dataclass from a plain dict, strictly.

    ``base`` is the enclosing config's default for this section: the fields
    it sets away from ``cls()`` stay unless ``data`` gives them, so
    ``forecaster_train.epochs=15`` keeps the rest of
    ``RunConfig().forecaster_train`` rather than ``TrainConfig()``'s values.
    """
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    if base is not None:
        plain = cls()
        kwargs = {k: getattr(base, k) for k in defaults if getattr(base, k) != getattr(plain, k)}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}{_suggest(key, defaults)}")
        kwargs[key] = _coerce(value, hints[key], where, defaults[key])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def _deep_set(tree: dict, dotted: str, value):
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def parse_override(text: str):
    """Parse one ``key=value`` override; values are JSON, falling back to a
    bare string so ``cell=gru`` works without quoting."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_run_config(config_path: str | None = None, overrides=(),
                    seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    """Defaults <- config file <- --set overrides <- dedicated flags."""
    tree: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except OSError as exc:  # a directory, a path under a file, a symlink loop
            raise ConfigError(f"cannot read config file {config_path}: {exc.strerror or exc}")
        except ValueError as exc:  # not JSON, or not text
            raise ConfigError(f"{config_path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        tree = loaded
    for text in overrides:
        key, value = parse_override(text)
        _deep_set(tree, key, value)
    if seed is not None:
        tree["seed"] = seed
    if out_dir is not None:
        tree["out_dir"] = out_dir
    return dataclass_from_dict(RunConfig, tree)
