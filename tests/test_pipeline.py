from dataclasses import replace

import pytest

import demandnet as dn
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
    cfg = _cfg()
    cfg = replace(cfg, arch=replace(cfg.arch, use_policy_skip=False))
    trained = train_demandnet(bundles, cfg, seed=0)
    assert not trained.forecaster.arch.use_policy_skip
    assert trained.forecaster.effect_model is trained.effects


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
