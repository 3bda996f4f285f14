"""The benchmark under ``bench/`` resolves demandnet functions by name.

These checks fail in the ordinary test run when a rename or deletion in
``src/`` breaks what the benchmark's tracer or workloads look up, instead of
only when the benchmark itself runs.
"""

import importlib
import inspect
import os
import sys

import numpy as np
import pytest

import demandnet as dn
import demandnet.nn
from demandnet import evaluation
from demandnet.pipeline import PipelineConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_counts_on_a_tiny_panel():
    bundles = dn.synth_generate(dn.SynthConfig(series_count=3, length=120), seed=0)
    cfg = PipelineConfig(tau=8, horizons=(4,))
    original = dn.data.make_windows
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        loss = workloads.naive_val_loss(bundles, cfg)
    finally:
        undo()
    assert dn.data.make_windows is original
    assert np.isfinite(loss) and loss > 0.0
    layers = tracing.per_layer(tracer)
    # validation origins 96..104 of each 120-day series: 9 windows apiece
    assert layers["data.make_windows.windows"] == 3 * 9
    assert layers["data.normalize_bundle.calls_per_series"] == 1.0


def test_classical_baselines_tune_once_per_series_on_the_traced_path():
    bundles = dn.synth_generate(dn.SynthConfig(series_count=3, length=120), seed=0)
    cfg = PipelineConfig(tau=8, horizons=(2, 4))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        rows = {method: [evaluation.classical_eval_bundle(b, cfg, cfg.horizons, method)
                         for b in bundles]
                for method in workloads.CLASSICAL}
    finally:
        undo()
    assert all(sorted(r) == [2, 4] for series_rows in rows.values() for r in series_rows)
    layers = tracing.per_layer(tracer)
    # one tuning per (series, method), whatever the number of horizons
    assert layers["evaluation.tune_exp_smoothing.calls"] == len(bundles)
    assert layers["evaluation.tune_ar.calls"] == len(bundles)


def test_public_surface_is_the_modules():
    # the package root keeps only what bench/workloads.py and the scripts call
    assert dn.__all__ == ["SynthConfig", "split_time", "synth_generate"]
    assert all(callable(getattr(dn, name)) for name in dn.__all__)
    stray = [name for name in dir(demandnet.nn)
             if not name.startswith("_") and not inspect.ismodule(getattr(demandnet.nn, name))]
    assert stray == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("demandnet.nn.gradcheck")
