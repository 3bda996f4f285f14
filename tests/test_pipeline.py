from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandnet as dn
from demandnet.effects import EffectModel
from demandnet.forecaster import ForecasterArch
from demandnet.nn.optim import TrainConfig
from demandnet.pipeline import PipelineConfig, train_demandnet, train_effects_for


def _cfg(**kwargs):
    base = dict(
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
    base.update(kwargs)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def bundles():
    return dn.synth_generate(dn.SynthConfig(series_count=4, length=90), seed=0)


def test_training_wires_all_stages_together(bundles):
    trained = train_demandnet(bundles, _cfg(), seed=0)
    assert trained.forecaster.arch.use_policy_skip
    assert trained.forecaster.effect_model is trained.effects
    assert trained.p_used == 0.1
    assert trained.forecaster.mc_p == 0.1


def test_ablated_skip_still_exposes_the_effects_model(bundles):
    # the run keeps its effects model; the forecaster holds one only for its skip
    cfg = _cfg()
    cfg = replace(cfg, arch=replace(cfg.arch, use_policy_skip=False))
    trained = train_demandnet(bundles, cfg, seed=0)
    assert not trained.forecaster.arch.use_policy_skip
    assert isinstance(trained.effects, EffectModel)
    assert trained.forecaster.effect_model is None


def test_cell_override_replaces_the_configured_cell(bundles):
    cfg = _cfg()
    cfg = replace(cfg, arch=replace(cfg.arch, cell="lstm"))
    trained = train_demandnet(bundles, cfg, seed=0)
    assert trained.forecaster.arch.cell == "lstm"


def test_dropout_selection_stores_the_winning_candidate(bundles):
    cfg = _cfg(dropout_candidates=(0.05, 0.3))
    trained = train_demandnet(bundles, cfg, seed=0)
    assert trained.p_used in (0.05, 0.3)
    assert trained.forecaster.mc_p == trained.p_used


def test_statics_join_the_effects_features(bundles):
    model, report = train_effects_for(bundles, _cfg(include_statics=True), seed=0)
    assert report is not None
    retained = set(report.retained_names())
    assert retained
    assert retained <= set(model.feature_names)
    assert "policy" in model.feature_names


def test_statics_are_skipped_when_disabled(bundles):
    model, report = train_effects_for(bundles, _cfg(), seed=0)
    assert report is None
    assert "tourism_share" not in model.feature_names


# ----------------------------------------------------------------------------
# no held-out value reaches a training-side decision

_LEAK_FRACTIONS = (0.8, 0.1, 0.1)
_LEAK_TEST = dn.split_time(120, _LEAK_FRACTIONS).test  # days 108..119


def _leak_cfg():
    return _cfg(arch=ForecasterArch(cell="gru", hidden=6, layers=1, horizon=4, dropout=0.1),
                forecaster_train=TrainConfig(optimizer="adam", learning_rate=3e-3,
                                             epochs=2, batch_size=64),
                effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                          epochs=3, batch_size=128),
                include_statics=True, dropout_candidates=(0.05, 0.3),
                fractions=_LEAK_FRACTIONS)


def _training_decisions(bundles):
    """Everything ``train_demandnet`` decides, as bytes and text."""
    trained = train_demandnet(bundles, _leak_cfg(), seed=0)
    return {
        "screening": trained.screening.to_csv_text(),
        "summaries": np.array(trained.screening.summaries).tobytes(),
        "effects": [p.value.tobytes() for p in trained.effects.parameters()]
                   + [trained.effects.feature_means.tobytes()],
        "forecaster": trained.forecaster.param_hash(),
        "mean_policy": trained.forecaster.mean_policy.tobytes(),
        "p_used": trained.p_used,
    }


@pytest.fixture(scope="module")
def leak_panel():
    bundles = dn.synth_generate(dn.SynthConfig(series_count=4, length=120), seed=0)
    return bundles, _training_decisions(bundles)


@settings(max_examples=15, deadline=None)
@given(
    series=st.integers(0, 3),
    day=st.integers(_LEAK_TEST.start, _LEAK_TEST.stop - 1),
    change=st.one_of(
        st.tuples(st.just("target"), st.floats(0.2, 3.0)),  # a factor
        st.tuples(st.just("policy"), st.floats(0.0, 1.0)),  # a level
        st.tuples(st.sampled_from(["cases", "mobility"]), st.floats(-100.0, 100.0)),
    ),
)
def test_test_range_values_reach_no_training_decision(leak_panel, series, day, change):
    bundles, expected = leak_panel
    kind, amount = change
    bundle = bundles[series]
    target, covariates = bundle.target.copy(), bundle.covariates.copy()
    if kind == "target":
        target[day] *= amount
    else:
        covariates[day, bundle.covariate_names.index(kind)] = amount
    changed = list(bundles)
    changed[series] = replace(bundle, target=target, covariates=covariates)
    got = _training_decisions(changed)
    for key in expected:
        assert got[key] == expected[key], key
