"""The command-line scripts under ``scripts/`` import, parse their options,
and build configs the library accepts."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["run_benchmarks.py", "run_synth_pipeline.py"])
def test_script_help_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_benchmark_script_builds_its_default_config(cell):
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", os.path.join(ROOT, "scripts", "run_benchmarks.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = script.build_config(script.parse_args([]), cell)
    assert cfg.arch.cell == cell
    assert cfg.horizons == (40, 80) and cfg.arch.horizon == 80
    assert cfg.dropout_candidates == ()
